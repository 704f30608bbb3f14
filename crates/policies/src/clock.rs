//! The classic CLOCK algorithm (second-chance), the common in-practice
//! LRU approximation (Section VI-B). Inherits LRU's weakness on thrashing
//! patterns, which this implementation lets you measure directly.

use uvm_types::{PageId, PageMap, PolicyStats};

use crate::{EvictionPolicy, FaultOutcome};

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node {
    page: PageId,
    prev: usize,
    next: usize,
    referenced: bool,
}

/// CLOCK / second-chance eviction.
///
/// Pages sit on a circular list; a hand sweeps it, clearing reference bits
/// and evicting the first unreferenced page it meets.
///
/// # Examples
///
/// ```
/// use uvm_policies::{Clock, EvictionPolicy};
/// use uvm_types::PageId;
///
/// let mut clock = Clock::new();
/// clock.on_fault(PageId(1), 0);
/// clock.on_fault(PageId(2), 1);
/// clock.on_walk_hit(PageId(1));
/// assert_eq!(clock.select_victim(), Some(PageId(2)));
/// ```
#[derive(Debug, Default)]
pub struct Clock {
    nodes: Vec<Node>,
    free: Vec<usize>,
    map: PageMap<PageId, usize>,
    hand: usize,
    stats: PolicyStats,
}

impl Clock {
    /// Creates an empty CLOCK policy.
    pub fn new() -> Self {
        Clock {
            nodes: Vec::new(),
            free: Vec::new(),
            map: PageMap::new(),
            hand: NIL,
            stats: PolicyStats::default(),
        }
    }

    /// Number of pages the policy believes are resident.
    pub fn resident_len(&self) -> usize {
        self.map.len()
    }

    fn insert_behind_hand(&mut self, page: PageId) {
        let node = Node {
            page,
            prev: NIL,
            next: NIL,
            referenced: false,
        };
        let idx = if let Some(i) = self.free.pop() {
            self.nodes[i] = node;
            i
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        };
        self.map.insert(page, idx);
        if self.hand == NIL {
            self.nodes[idx].prev = idx;
            self.nodes[idx].next = idx;
            self.hand = idx;
        } else {
            // Insert just behind the hand (the "newest" position).
            let at = self.hand;
            let prev = self.nodes[at].prev;
            self.nodes[idx].prev = prev;
            self.nodes[idx].next = at;
            self.nodes[prev].next = idx;
            self.nodes[at].prev = idx;
        }
    }

    fn unlink(&mut self, idx: usize) {
        let next = self.nodes[idx].next;
        if next == idx {
            self.hand = NIL;
        } else {
            let prev = self.nodes[idx].prev;
            self.nodes[prev].next = next;
            self.nodes[next].prev = prev;
            if self.hand == idx {
                self.hand = next;
            }
        }
        self.free.push(idx);
    }
}

impl EvictionPolicy for Clock {
    fn name(&self) -> String {
        "CLOCK".to_string()
    }

    fn on_walk_hit(&mut self, page: PageId) {
        if let Some(&idx) = self.map.get(page) {
            self.nodes[idx].referenced = true;
        }
    }

    fn on_fault(&mut self, page: PageId, _fault_num: u64) -> FaultOutcome {
        if !self.map.contains_key(page) {
            self.insert_behind_hand(page);
        }
        FaultOutcome::default()
    }

    fn select_victim(&mut self) -> Option<PageId> {
        self.stats.selections += 1;
        if self.map.is_empty() {
            return None;
        }
        loop {
            let idx = self.hand;
            if self.nodes[idx].referenced {
                self.nodes[idx].referenced = false;
                self.hand = self.nodes[idx].next;
            } else {
                let victim = self.nodes[idx].page;
                self.map.remove(victim);
                self.unlink(idx);
                return Some(victim);
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
    fn second_chance_spares_referenced_pages() {
        let mut c = Clock::new();
        for p in 0..4u64 {
            c.on_fault(PageId(p), p);
        }
        c.on_walk_hit(PageId(0));
        c.on_walk_hit(PageId(1));
        // Hand starts at 0: 0 and 1 get second chances, 2 is evicted.
        assert_eq!(c.select_victim(), Some(PageId(2)));
        assert_eq!(c.select_victim(), Some(PageId(3)));
        assert_eq!(c.resident_len(), 2);
    }

    #[test]
    fn cyclic_sweep_thrashes_like_lru() {
        let refs: Vec<u64> = (0..10).cycle().take(40).collect();
        let faults = replay(&mut Clock::new(), &refs, 8);
        assert_eq!(faults, 40, "CLOCK inherits LRU's thrashing");
    }

    #[test]
    fn working_set_within_capacity_hits() {
        let refs: Vec<u64> = (0..6).cycle().take(60).collect();
        let faults = replay(&mut Clock::new(), &refs, 8);
        assert_eq!(faults, 6);
    }

    #[test]
    fn drains_completely() {
        let mut c = Clock::new();
        for p in 0..5u64 {
            c.on_fault(PageId(p), p);
            c.on_walk_hit(PageId(p));
        }
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5 {
            assert!(seen.insert(c.select_victim().unwrap()));
        }
        assert_eq!(c.select_victim(), None);
        // Reinsertion after a full drain works.
        c.on_fault(PageId(9), 9);
        assert_eq!(c.select_victim(), Some(PageId(9)));
    }

    #[test]
    fn duplicate_fault_is_idempotent() {
        let mut c = Clock::new();
        c.on_fault(PageId(1), 0);
        c.on_fault(PageId(1), 1);
        assert_eq!(c.resident_len(), 1);
    }
}
