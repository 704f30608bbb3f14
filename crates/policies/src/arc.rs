//! ARC — adaptive replacement cache (Megiddo & Modha, FAST'03), cited by
//! the paper as the basis of CAR (Section VI-B).
//!
//! ARC partitions resident pages into a recency list T1 and a frequency
//! list T2, shadowed by ghost lists B1/B2 of recently evicted metadata.
//! Ghost hits steer the target size `p` of T1: a hit in B1 (evicted from
//! recency too early) grows `p`; a hit in B2 shrinks it. This makes ARC
//! scan-resistant — a property worth measuring against HPE's page-set
//! approach on streaming patterns.
//!
//! In the unified-memory protocol the driver (not the policy) decides when
//! to evict; ARC's `REPLACE` step runs inside
//! [`EvictionPolicy::select_victim`], and the capacity `c` is learned at
//! the first memory-full notification.

use uvm_types::{PageId, PageMap, PolicyStats};

use crate::chain::RecencyChain;
use crate::{EvictionPolicy, FaultOutcome};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum List {
    T1,
    T2,
    B1,
    B2,
}

/// The ARC eviction policy.
///
/// # Examples
///
/// ```
/// use uvm_policies::{ArcPolicy, EvictionPolicy};
/// use uvm_types::PageId;
///
/// let mut arc = ArcPolicy::new();
/// arc.on_fault(PageId(1), 0);
/// arc.on_walk_hit(PageId(1)); // promoted to the frequency list
/// arc.on_fault(PageId(2), 1);
/// arc.on_memory_full();
/// // The recency list (holding page 2) is preferred for replacement.
/// assert_eq!(arc.select_victim(), Some(PageId(2)));
/// ```
#[derive(Debug, Default)]
pub struct ArcPolicy {
    t1: RecencyChain<PageId>,
    t2: RecencyChain<PageId>,
    b1: RecencyChain<PageId>,
    b2: RecencyChain<PageId>,
    which: PageMap<PageId, List>,
    /// Target size of T1; adapted on ghost hits.
    p: usize,
    /// Learned capacity (resident pages at first memory-full).
    c: Option<usize>,
    /// Set when the current fault hit in B2, biasing REPLACE toward T1.
    last_fault_from_b2: bool,
    stats: PolicyStats,
}

impl ArcPolicy {
    /// Creates an empty ARC policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pages the policy believes are resident.
    pub fn resident_len(&self) -> usize {
        self.t1.len() + self.t2.len()
    }

    /// Current recency-list target (diagnostics).
    pub fn p(&self) -> usize {
        self.p
    }

    fn move_to(&mut self, page: PageId, to: List) {
        if let Some(from) = self.which.insert(page, to) {
            match from {
                List::T1 => self.t1.remove(&page),
                List::T2 => self.t2.remove(&page),
                List::B1 => self.b1.remove(&page),
                List::B2 => self.b2.remove(&page),
            };
        }
        match to {
            List::T1 => self.t1.insert_mru(page),
            List::T2 => self.t2.insert_mru(page),
            List::B1 => self.b1.insert_mru(page),
            List::B2 => self.b2.insert_mru(page),
        };
    }

    fn drop_lru(&mut self, list: List) {
        let chain = match list {
            List::B1 => &mut self.b1,
            List::B2 => &mut self.b2,
            List::T1 => &mut self.t1,
            List::T2 => &mut self.t2,
        };
        if let Some(page) = chain.pop_lru() {
            self.which.remove(page);
        }
    }

    /// Bounds the directory per ARC: `|T1|+|B1| <= c`, total `<= 2c`.
    fn trim_ghosts(&mut self) {
        let Some(c) = self.c else { return };
        if self.t1.len() + self.b1.len() > c && !self.b1.is_empty() {
            self.drop_lru(List::B1);
        }
        let total = self.t1.len() + self.t2.len() + self.b1.len() + self.b2.len();
        if total > 2 * c && !self.b2.is_empty() {
            self.drop_lru(List::B2);
        }
    }
}

impl EvictionPolicy for ArcPolicy {
    fn name(&self) -> String {
        "ARC".to_string()
    }

    fn on_walk_hit(&mut self, page: PageId) {
        match self.which.get(page) {
            Some(List::T1) | Some(List::T2) => self.move_to(page, List::T2),
            _ => {}
        }
    }

    fn on_memory_full(&mut self) {
        if self.c.is_none() {
            let c = self.resident_len();
            self.c = Some(c);
            self.p = self.p.min(c);
        }
    }

    fn on_fault(&mut self, page: PageId, _fault_num: u64) -> FaultOutcome {
        self.last_fault_from_b2 = false;
        match self.which.get(page).copied() {
            Some(List::B1) => {
                // Case II: ghost hit in B1 -> grow the recency target.
                let delta = (self.b2.len() / self.b1.len().max(1)).max(1);
                self.p = (self.p + delta).min(self.c.unwrap_or(usize::MAX));
                self.move_to(page, List::T2);
            }
            Some(List::B2) => {
                // Case III: ghost hit in B2 -> shrink the recency target.
                let delta = (self.b1.len() / self.b2.len().max(1)).max(1);
                self.p = self.p.saturating_sub(delta);
                self.move_to(page, List::T2);
                self.last_fault_from_b2 = true;
            }
            Some(List::T1) | Some(List::T2) => {
                // Duplicate notification: treat as a hit.
                self.move_to(page, List::T2);
            }
            None => {
                // Case IV: brand-new page -> recency list.
                self.move_to(page, List::T1);
            }
        }
        self.trim_ghosts();
        FaultOutcome::default()
    }

    fn select_victim(&mut self) -> Option<PageId> {
        self.stats.selections += 1;
        // ARC's REPLACE: evict from T1 if it exceeds its target (or
        // matches it on a B2 ghost hit); otherwise from T2. The evicted
        // page's metadata moves to the matching ghost list.
        let from_t1 = !self.t1.is_empty()
            && (self.t1.len() > self.p
                || (self.last_fault_from_b2 && self.t1.len() == self.p)
                || self.t2.is_empty());
        let (victim, ghost) = if from_t1 {
            (self.t1.lru().copied()?, List::B1)
        } else {
            (self.t2.lru().copied()?, List::B2)
        };
        self.move_to(victim, ghost);
        self.trim_ghosts();
        Some(victim)
    }

    fn stats(&self) -> PolicyStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::replay;

    #[test]
    fn new_pages_go_to_recency_list_first() {
        let mut arc = ArcPolicy::new();
        arc.on_fault(PageId(1), 0);
        arc.on_fault(PageId(2), 1);
        arc.on_walk_hit(PageId(1));
        arc.on_memory_full();
        // 2 sits in T1 (never re-referenced), 1 was promoted to T2.
        assert_eq!(arc.select_victim(), Some(PageId(2)));
        assert_eq!(arc.select_victim(), Some(PageId(1)));
        assert_eq!(arc.select_victim(), None);
    }

    #[test]
    fn ghost_hit_in_b1_grows_recency_target() {
        let mut arc = ArcPolicy::new();
        for p in 0..4u64 {
            arc.on_fault(PageId(p), p);
        }
        arc.on_memory_full();
        let v = arc.select_victim().unwrap(); // goes to B1
        let p_before = arc.p();
        arc.on_fault(v, 10); // ghost hit in B1
        assert!(arc.p() > p_before, "p should grow on a B1 ghost hit");
        assert_eq!(arc.resident_len(), 4);
    }

    #[test]
    fn scan_does_not_flush_frequent_pages() {
        // Hot set 0..8 referenced repeatedly, then a long one-time scan.
        // ARC keeps the hot set mostly resident; pure LRU would flush it.
        let mut refs: Vec<u64> = Vec::new();
        for _ in 0..6 {
            refs.extend(0..8u64);
        }
        refs.extend(100..160); // scan of 60 cold pages
        refs.extend(0..8u64); // hot set again
        let arc_faults = replay(&mut ArcPolicy::new(), &refs, 16);
        let lru_faults = replay(&mut crate::Lru::new(), &refs, 16);
        assert!(
            arc_faults <= lru_faults,
            "ARC {arc_faults} should not fault more than LRU {lru_faults} under a scan"
        );
    }

    #[test]
    fn residency_and_fault_bounds_hold() {
        use uvm_util::Rng;
        let mut rng = Rng::seed_from_u64(99);
        let refs: Vec<u64> = (0..2000).map(|_| rng.gen_range(0u64..64)).collect();
        let faults = replay(&mut ArcPolicy::new(), &refs, 24);
        assert!(faults >= 64);
        assert!(faults <= 2000);
    }

    #[test]
    fn ghost_lists_stay_bounded() {
        let mut arc = ArcPolicy::new();
        let mut resident = std::collections::HashSet::new();
        let mut fault_num = 0;
        let capacity = 16;
        for r in 0..5000u64 {
            let page = PageId(r % 200);
            if resident.contains(&page) {
                arc.on_walk_hit(page);
                continue;
            }
            if resident.len() == capacity {
                arc.on_memory_full();
                let v = arc.select_victim().unwrap();
                assert!(resident.remove(&v));
            }
            arc.on_fault(page, fault_num);
            fault_num += 1;
            resident.insert(page);
            let directory = arc.t1.len() + arc.t2.len() + arc.b1.len() + arc.b2.len();
            assert!(
                directory <= 2 * capacity + 2,
                "directory {directory} exceeds 2c"
            );
        }
    }

    #[test]
    fn victim_none_when_empty() {
        assert_eq!(ArcPolicy::new().select_victim(), None);
    }
}
