//! CLOCK-Pro (Jiang, Chen, Zhang; USENIX ATC'05), as configured by the
//! paper: the cold-page allocation `m_c` is *fixed* at 128 pages rather
//! than adapted, which the paper found necessary to alleviate instant
//! thrashing (Section V-B).
//!
//! All page metadata lives on one circular list. Three hands sweep it:
//!
//! * **HAND_cold** — the eviction hand: finds the oldest resident cold
//!   page; referenced cold pages in their test period are promoted to hot,
//!   referenced cold pages past their test period get a fresh test period,
//!   unreferenced cold pages are evicted (their metadata remains as a
//!   non-resident test entry if the test period is still open).
//! * **HAND_hot** — demotes unreferenced hot pages to cold, and terminates
//!   the test period of every cold or non-resident entry it passes.
//! * **HAND_test** — bounds the number of non-resident test entries to the
//!   number of resident pages.
//!
//! A page that faults again while its non-resident test entry is alive is
//! inserted directly as *hot* (its reuse distance is proven shorter than a
//! hot page's).

use uvm_types::{PageId, PageMap, PolicyStats};

use crate::{EvictionPolicy, FaultOutcome};

const NIL: usize = usize::MAX;

/// CLOCK-Pro configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockProConfig {
    /// Memory allocation for cold pages, in pages. The paper fixes this to
    /// 128 instead of using CLOCK-Pro's adaptive sizing.
    pub m_c: usize,
}

impl Default for ClockProConfig {
    fn default() -> Self {
        ClockProConfig { m_c: 128 }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Hot,
    /// Resident cold page inside its test period.
    ColdInTest,
    /// Resident cold page past its test period.
    Cold,
    /// Evicted page whose test period is still open.
    NonResident,
}

#[derive(Debug, Clone)]
struct Node {
    page: PageId,
    prev: usize,
    next: usize,
    status: Status,
    referenced: bool,
}

/// The CLOCK-Pro eviction policy.
///
/// # Examples
///
/// ```
/// use uvm_policies::{ClockPro, ClockProConfig, EvictionPolicy};
/// use uvm_types::PageId;
///
/// let mut cp = ClockPro::new(ClockProConfig { m_c: 2 });
/// cp.on_fault(PageId(1), 0);
/// cp.on_fault(PageId(2), 1);
/// cp.on_walk_hit(PageId(1));
/// // Page 2 is the oldest unreferenced cold page.
/// assert_eq!(cp.select_victim(), Some(PageId(2)));
/// ```
#[derive(Debug)]
pub struct ClockPro {
    cfg: ClockProConfig,
    nodes: Vec<Node>,
    free: Vec<usize>,
    map: PageMap<PageId, usize>,
    hand_hot: usize,
    hand_cold: usize,
    hand_test: usize,
    hot: usize,
    cold_res: usize,
    cold_nonres: usize,
    stats: PolicyStats,
}

impl ClockPro {
    /// Creates a CLOCK-Pro policy.
    pub fn new(cfg: ClockProConfig) -> Self {
        ClockPro {
            cfg,
            nodes: Vec::new(),
            free: Vec::new(),
            map: PageMap::new(),
            hand_hot: NIL,
            hand_cold: NIL,
            hand_test: NIL,
            hot: 0,
            cold_res: 0,
            cold_nonres: 0,
            stats: PolicyStats::default(),
        }
    }

    /// Number of pages the policy believes are resident.
    pub fn resident_len(&self) -> usize {
        self.hot + self.cold_res
    }

    /// Number of hot pages (diagnostic accessor).
    pub fn hot_len(&self) -> usize {
        self.hot
    }

    /// Number of non-resident test entries (diagnostic accessor).
    pub fn nonresident_len(&self) -> usize {
        self.cold_nonres
    }

    fn target_hot(&self) -> usize {
        self.resident_len().saturating_sub(self.cfg.m_c)
    }

    // ----- ring plumbing -------------------------------------------------

    fn alloc(&mut self, page: PageId, status: Status) -> usize {
        let node = Node {
            page,
            prev: NIL,
            next: NIL,
            status,
            referenced: false,
        };
        if let Some(idx) = self.free.pop() {
            self.nodes[idx] = node;
            idx
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    /// Inserts `idx` at the list head: immediately behind `hand_hot`
    /// (where CLOCK-Pro places new pages).
    fn link_at_head(&mut self, idx: usize) {
        if self.hand_hot == NIL {
            // Empty ring: self-link and aim every hand here.
            self.nodes[idx].prev = idx;
            self.nodes[idx].next = idx;
            self.hand_hot = idx;
            self.hand_cold = idx;
            self.hand_test = idx;
            return;
        }
        let at = self.hand_hot;
        let prev = self.nodes[at].prev;
        self.nodes[idx].prev = prev;
        self.nodes[idx].next = at;
        self.nodes[prev].next = idx;
        self.nodes[at].prev = idx;
    }

    /// Unlinks `idx` from the ring, advancing any hand that points at it.
    fn unlink(&mut self, idx: usize) {
        let next = self.nodes[idx].next;
        if next == idx {
            // Last node.
            self.hand_hot = NIL;
            self.hand_cold = NIL;
            self.hand_test = NIL;
        } else {
            let prev = self.nodes[idx].prev;
            self.nodes[prev].next = next;
            self.nodes[next].prev = prev;
            if self.hand_hot == idx {
                self.hand_hot = next;
            }
            if self.hand_cold == idx {
                self.hand_cold = next;
            }
            if self.hand_test == idx {
                self.hand_test = next;
            }
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
    }

    fn release(&mut self, idx: usize) {
        self.map.remove(self.nodes[idx].page);
        self.unlink(idx);
        self.free.push(idx);
    }

    fn move_to_head(&mut self, idx: usize) {
        self.unlink(idx);
        self.link_at_head(idx);
    }

    // ----- hands ---------------------------------------------------------

    /// Demotes one unreferenced hot page to cold (returns false if there
    /// are no hot pages). Terminates test periods it passes, as HAND_hot
    /// does in the original algorithm.
    fn run_hand_hot(&mut self) -> bool {
        if self.hot == 0 {
            return false;
        }
        loop {
            let idx = self.hand_hot;
            self.hand_hot = self.nodes[idx].next;
            match self.nodes[idx].status {
                Status::Hot => {
                    if self.nodes[idx].referenced {
                        self.nodes[idx].referenced = false;
                    } else {
                        self.nodes[idx].status = Status::Cold;
                        self.hot -= 1;
                        self.cold_res += 1;
                        return true;
                    }
                }
                Status::ColdInTest => {
                    // HAND_hot passing a cold page ends its test period.
                    self.nodes[idx].status = Status::Cold;
                }
                Status::NonResident => {
                    self.cold_nonres -= 1;
                    self.release(idx);
                }
                Status::Cold => {}
            }
        }
    }

    /// Removes one non-resident test entry (oldest first).
    fn run_hand_test(&mut self) {
        if self.cold_nonres == 0 {
            return;
        }
        loop {
            let idx = self.hand_test;
            self.hand_test = self.nodes[idx].next;
            match self.nodes[idx].status {
                Status::NonResident => {
                    self.cold_nonres -= 1;
                    self.release(idx);
                    return;
                }
                Status::ColdInTest => {
                    self.nodes[idx].status = Status::Cold;
                }
                _ => {}
            }
        }
    }

    fn promote(&mut self, idx: usize) {
        debug_assert_ne!(self.nodes[idx].status, Status::Hot);
        if self.nodes[idx].status == Status::NonResident {
            self.cold_nonres -= 1;
        } else {
            self.cold_res -= 1;
        }
        self.nodes[idx].status = Status::Hot;
        self.nodes[idx].referenced = false;
        self.hot += 1;
        self.move_to_head(idx);
        while self.hot > self.target_hot().max(1) {
            if !self.run_hand_hot() {
                break;
            }
        }
    }
}

impl EvictionPolicy for ClockPro {
    fn name(&self) -> String {
        "CLOCK-Pro".to_string()
    }

    fn on_walk_hit(&mut self, page: PageId) {
        if let Some(&idx) = self.map.get(page) {
            if self.nodes[idx].status != Status::NonResident {
                self.nodes[idx].referenced = true;
            }
        }
    }

    fn on_fault(&mut self, page: PageId, _fault_num: u64) -> FaultOutcome {
        if let Some(&idx) = self.map.get(page) {
            match self.nodes[idx].status {
                Status::NonResident => {
                    // Re-accessed within its test period: reuse distance is
                    // shorter than a hot page's — insert as hot.
                    self.nodes[idx].status = Status::ColdInTest;
                    self.cold_nonres -= 1;
                    self.cold_res += 1;
                    self.promote(idx);
                }
                _ => {
                    // Already resident (duplicate notification): no-op.
                }
            }
            return FaultOutcome::default();
        }
        let idx = self.alloc(page, Status::ColdInTest);
        self.map.insert(page, idx);
        self.link_at_head(idx);
        self.cold_res += 1;
        FaultOutcome::default()
    }

    fn select_victim(&mut self) -> Option<PageId> {
        self.stats.selections += 1;
        if self.resident_len() == 0 {
            return None;
        }
        loop {
            // The eviction hand only acts on resident cold pages; if all
            // resident pages are hot, demote one first.
            if self.cold_res == 0 && !self.run_hand_hot() {
                return None;
            }
            let idx = self.hand_cold;
            self.hand_cold = self.nodes[idx].next;
            match self.nodes[idx].status {
                Status::ColdInTest | Status::Cold => {
                    let in_test = self.nodes[idx].status == Status::ColdInTest;
                    if self.nodes[idx].referenced {
                        self.nodes[idx].referenced = false;
                        if in_test {
                            self.promote(idx);
                        } else {
                            // Referenced past its test period: fresh test.
                            self.nodes[idx].status = Status::ColdInTest;
                            self.move_to_head(idx);
                        }
                    } else {
                        let victim = self.nodes[idx].page;
                        self.cold_res -= 1;
                        if in_test {
                            self.nodes[idx].status = Status::NonResident;
                            self.cold_nonres += 1;
                            // Bound non-resident entries by resident count.
                            while self.cold_nonres > self.resident_len().max(1) {
                                self.run_hand_test();
                            }
                        } else {
                            self.release(idx);
                        }
                        return Some(victim);
                    }
                }
                Status::Hot | Status::NonResident => {}
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

    fn small() -> ClockPro {
        ClockPro::new(ClockProConfig { m_c: 2 })
    }

    #[test]
    fn evicts_unreferenced_cold_first() {
        let mut cp = small();
        for p in 0..3u64 {
            cp.on_fault(PageId(p), p);
        }
        cp.on_walk_hit(PageId(0));
        // 0 is referenced (promoted on sweep); oldest unreferenced is 1.
        assert_eq!(cp.select_victim(), Some(PageId(1)));
    }

    #[test]
    fn refault_in_test_period_becomes_hot() {
        let mut cp = small();
        for p in 0..4u64 {
            cp.on_fault(PageId(p), p);
        }
        let v = cp.select_victim().unwrap();
        assert_eq!(v, PageId(0));
        assert_eq!(cp.nonresident_len(), 1);
        // Page 0 faults again while its test entry is alive -> hot.
        cp.on_fault(PageId(0), 4);
        assert_eq!(cp.nonresident_len(), 0);
        assert!(cp.hot_len() >= 1);
        assert_eq!(cp.resident_len(), 4);
    }

    #[test]
    fn counts_stay_consistent_under_churn() {
        let mut cp = ClockPro::new(ClockProConfig { m_c: 8 });
        let mut resident = std::collections::HashSet::new();
        let mut fault_num = 0u64;
        for round in 0..2000u64 {
            let page = PageId(round % 64);
            if resident.contains(&page) {
                cp.on_walk_hit(page);
            } else {
                if resident.len() == 32 {
                    let v = cp.select_victim().expect("victim");
                    assert!(resident.remove(&v), "victim {v} not resident");
                }
                cp.on_fault(page, fault_num);
                fault_num += 1;
                resident.insert(page);
            }
            assert_eq!(cp.resident_len(), resident.len());
            assert!(cp.nonresident_len() <= cp.resident_len().max(1));
        }
    }

    #[test]
    fn cyclic_sweep_is_survivable() {
        // CLOCK-Pro on a cyclic sweep: with test periods, a subset becomes
        // hot and faults drop below 100%.
        let refs: Vec<u64> = (0..40).cycle().take(40 * 10).collect();
        let faults = replay(&mut ClockPro::new(ClockProConfig { m_c: 4 }), &refs, 32);
        assert!(faults < 40 * 10, "got {faults}");
        assert!(faults >= 40);
    }

    #[test]
    fn victim_none_when_empty() {
        assert_eq!(small().select_victim(), None);
    }

    #[test]
    fn all_hot_forces_demotion() {
        let mut cp = ClockPro::new(ClockProConfig { m_c: 1 });
        // Insert pages and promote them all via refault-in-test.
        for p in 0..4u64 {
            cp.on_fault(PageId(p), p);
        }
        for p in 0..3u64 {
            cp.on_walk_hit(PageId(p));
        }
        // Evictions still succeed even when most pages are hot/referenced.
        let mut evicted = std::collections::HashSet::new();
        for _ in 0..4 {
            let v = cp.select_victim().expect("victim even when hot-heavy");
            assert!(evicted.insert(v));
        }
        assert_eq!(cp.resident_len(), 0);
    }

    #[test]
    fn lru_friendly_workload_hits() {
        let mut refs: Vec<u64> = (0..8).collect();
        for _ in 0..10 {
            refs.extend(0..8);
        }
        let faults = replay(&mut ClockPro::new(ClockProConfig { m_c: 2 }), &refs, 8);
        assert_eq!(faults, 8);
    }
}
