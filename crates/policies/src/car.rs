//! CAR — CLOCK with adaptive replacement (Bansal & Modha, FAST'04), cited
//! in Section VI-B. ARC's two-list adaptation implemented with CLOCK-style
//! reference bits instead of strict LRU movement: hits only set a bit,
//! and the replacement "hands" promote or rotate pages when they sweep.

use uvm_types::{PageId, PageMap, PolicyStats};

use crate::chain::RecencyChain;
use crate::{EvictionPolicy, FaultOutcome};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Where {
    T1,
    T2,
    B1,
    B2,
}

/// The CAR eviction policy.
///
/// # Examples
///
/// ```
/// use uvm_policies::{Car, EvictionPolicy};
/// use uvm_types::PageId;
///
/// let mut car = Car::new();
/// car.on_fault(PageId(1), 0);
/// car.on_fault(PageId(2), 1);
/// car.on_walk_hit(PageId(1)); // reference bit set, no movement
/// car.on_memory_full();
/// // Page 2's bit is clear: first eviction candidate; page 1 is promoted.
/// assert_eq!(car.select_victim(), Some(PageId(2)));
/// ```
#[derive(Debug, Default)]
pub struct Car {
    t1: RecencyChain<PageId>,
    t2: RecencyChain<PageId>,
    b1: RecencyChain<PageId>,
    b2: RecencyChain<PageId>,
    place: PageMap<PageId, Where>,
    referenced: PageMap<PageId, bool>,
    p: usize,
    c: Option<usize>,
    stats: PolicyStats,
}

impl Car {
    /// Creates an empty CAR policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pages the policy believes are resident.
    pub fn resident_len(&self) -> usize {
        self.t1.len() + self.t2.len()
    }

    /// Current T1 target size (diagnostics).
    pub fn p(&self) -> usize {
        self.p
    }

    fn relocate(&mut self, page: PageId, to: Where) {
        if let Some(from) = self.place.insert(page, to) {
            match from {
                Where::T1 => self.t1.remove(&page),
                Where::T2 => self.t2.remove(&page),
                Where::B1 => self.b1.remove(&page),
                Where::B2 => self.b2.remove(&page),
            };
        }
        match to {
            Where::T1 => self.t1.insert_mru(page),
            Where::T2 => self.t2.insert_mru(page),
            Where::B1 => self.b1.insert_mru(page),
            Where::B2 => self.b2.insert_mru(page),
        };
    }

    fn forget(&mut self, page: PageId) {
        if let Some(from) = self.place.remove(page) {
            match from {
                Where::T1 => self.t1.remove(&page),
                Where::T2 => self.t2.remove(&page),
                Where::B1 => self.b1.remove(&page),
                Where::B2 => self.b2.remove(&page),
            };
        }
        self.referenced.remove(page);
    }

    fn trim_ghosts(&mut self) {
        let Some(c) = self.c else { return };
        if self.t1.len() + self.b1.len() > c {
            if let Some(&old) = self.b1.lru() {
                self.forget(old);
            }
        }
        let total = self.t1.len() + self.t2.len() + self.b1.len() + self.b2.len();
        if total > 2 * c {
            if let Some(&old) = self.b2.lru() {
                self.forget(old);
            }
        }
    }
}

impl EvictionPolicy for Car {
    fn name(&self) -> String {
        "CAR".to_string()
    }

    fn on_walk_hit(&mut self, page: PageId) {
        if matches!(self.place.get(page), Some(Where::T1) | Some(Where::T2)) {
            self.referenced.insert(page, true);
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
        match self.place.get(page).copied() {
            Some(Where::B1) => {
                let delta = (self.b2.len() / self.b1.len().max(1)).max(1);
                self.p = (self.p + delta).min(self.c.unwrap_or(usize::MAX));
                self.relocate(page, Where::T2);
                self.referenced.insert(page, false);
            }
            Some(Where::B2) => {
                let delta = (self.b1.len() / self.b2.len().max(1)).max(1);
                self.p = self.p.saturating_sub(delta);
                self.relocate(page, Where::T2);
                self.referenced.insert(page, false);
            }
            Some(_) => {
                // Already resident (duplicate notification): treat as hit.
                self.referenced.insert(page, true);
            }
            None => {
                self.relocate(page, Where::T1);
                self.referenced.insert(page, false);
            }
        }
        self.trim_ghosts();
        FaultOutcome::default()
    }

    fn select_victim(&mut self) -> Option<PageId> {
        self.stats.selections += 1;
        if self.resident_len() == 0 {
            return None;
        }
        // CAR's REPLACE: sweep T1's hand while T1 exceeds its target;
        // referenced T1 pages promote to T2; then sweep T2's hand,
        // rotating referenced pages. Bounded: each iteration clears a
        // reference bit or evicts.
        loop {
            let t1_first = self.t1.len() >= self.p.max(1) || self.t2.is_empty();
            if t1_first && !self.t1.is_empty() {
                #[expect(clippy::expect_used, reason = "guarded by !is_empty above")]
                let head = *self.t1.lru().expect("nonempty");
                if self.referenced.get(head).copied().unwrap_or(false) {
                    // Promote to the tail of T2 with the bit cleared.
                    self.referenced.insert(head, false);
                    self.relocate(head, Where::T2);
                } else {
                    self.relocate(head, Where::B1);
                    self.referenced.remove(head);
                    self.trim_ghosts();
                    return Some(head);
                }
            } else {
                let head = *self.t2.lru()?;
                if self.referenced.get(head).copied().unwrap_or(false) {
                    // Rotate: clear the bit, move to the tail.
                    self.referenced.insert(head, false);
                    self.t2.touch(&head);
                } else {
                    self.relocate(head, Where::B2);
                    self.referenced.remove(head);
                    self.trim_ghosts();
                    return Some(head);
                }
            }
        }
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
    fn referenced_t1_pages_promote_instead_of_evict() {
        let mut car = Car::new();
        for p in 0..3u64 {
            car.on_fault(PageId(p), p);
        }
        car.on_walk_hit(PageId(0));
        car.on_memory_full();
        // Page 0 is referenced: promoted to T2; first unreferenced is 1.
        assert_eq!(car.select_victim(), Some(PageId(1)));
        assert_eq!(car.resident_len(), 2);
    }

    #[test]
    fn ghost_hit_adapts_target() {
        let mut car = Car::new();
        for p in 0..4u64 {
            car.on_fault(PageId(p), p);
        }
        car.on_memory_full();
        let v = car.select_victim().unwrap(); // -> B1
        let p_before = car.p();
        car.on_fault(v, 9); // B1 ghost hit
        assert!(car.p() > p_before);
        assert_eq!(car.resident_len(), 4);
    }

    #[test]
    fn t2_rotation_terminates() {
        let mut car = Car::new();
        for p in 0..4u64 {
            car.on_fault(PageId(p), p);
            car.on_walk_hit(PageId(p));
        }
        car.on_memory_full();
        // All referenced: one full promotion/rotation round, then evict.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4 {
            assert!(seen.insert(car.select_victim().expect("victim")));
        }
        assert_eq!(car.select_victim(), None);
    }

    #[test]
    fn directory_stays_bounded() {
        let mut car = Car::new();
        let mut resident = std::collections::HashSet::new();
        let capacity = 12;
        let mut faults = 0u64;
        for r in 0..4000u64 {
            let page = PageId((r * 7) % 120);
            if resident.contains(&page) {
                car.on_walk_hit(page);
                continue;
            }
            if resident.len() == capacity {
                car.on_memory_full();
                let v = car.select_victim().unwrap();
                assert!(resident.remove(&v), "victim {v} not resident");
            }
            car.on_fault(page, faults);
            faults += 1;
            resident.insert(page);
            let dir = car.t1.len() + car.t2.len() + car.b1.len() + car.b2.len();
            assert!(dir <= 2 * capacity + 2, "directory {dir}");
            assert_eq!(car.resident_len(), resident.len());
        }
    }

    #[test]
    fn sane_on_working_set_within_capacity() {
        let refs: Vec<u64> = (0..8).cycle().take(200).collect();
        let faults = replay(&mut Car::new(), &refs, 10);
        assert_eq!(faults, 8);
    }

    #[test]
    fn never_beats_compulsory_bound() {
        use uvm_util::Rng;
        let mut rng = Rng::seed_from_u64(21);
        let refs: Vec<u64> = (0..1200).map(|_| rng.gen_range(0u64..50)).collect();
        let faults = replay(&mut Car::new(), &refs, 20);
        assert!(faults >= 50);
    }
}
