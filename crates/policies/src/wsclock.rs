//! WSClock (Carr & Hennessy, SOSP'81), cited in Section VI-B: CLOCK
//! augmented with working-set ages. A page whose time since last use
//! exceeds the working-set window `tau` is outside the working set and is
//! evicted; referenced pages update their last-use time and get a second
//! chance.
//!
//! Virtual time advances with every page-walk event the policy observes
//! (hits and faults), standing in for process virtual time.

use uvm_types::{PageId, PageMap, PolicyStats};

use crate::{EvictionPolicy, FaultOutcome};

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node {
    page: PageId,
    prev: usize,
    next: usize,
    referenced: bool,
    last_use: u64,
}

/// WSClock configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WsClockConfig {
    /// Working-set window in virtual-time units (page-walk events).
    pub tau: u64,
}

impl Default for WsClockConfig {
    fn default() -> Self {
        WsClockConfig { tau: 2048 }
    }
}

/// The WSClock eviction policy.
///
/// # Examples
///
/// ```
/// use uvm_policies::{EvictionPolicy, WsClock, WsClockConfig};
/// use uvm_types::PageId;
///
/// let mut ws = WsClock::new(WsClockConfig { tau: 4 });
/// ws.on_fault(PageId(1), 0);
/// ws.on_fault(PageId(2), 1);
/// ws.on_walk_hit(PageId(1));
/// assert_eq!(ws.select_victim(), Some(PageId(2)));
/// ```
#[derive(Debug)]
pub struct WsClock {
    cfg: WsClockConfig,
    nodes: Vec<Node>,
    free: Vec<usize>,
    map: PageMap<PageId, usize>,
    hand: usize,
    vtime: u64,
    stats: PolicyStats,
}

impl WsClock {
    /// Creates an empty WSClock policy.
    pub fn new(cfg: WsClockConfig) -> Self {
        WsClock {
            cfg,
            nodes: Vec::new(),
            free: Vec::new(),
            map: PageMap::new(),
            hand: NIL,
            vtime: 0,
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
            last_use: self.vtime,
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

impl EvictionPolicy for WsClock {
    fn name(&self) -> String {
        "WSClock".to_string()
    }

    fn on_walk_hit(&mut self, page: PageId) {
        self.vtime += 1;
        if let Some(&idx) = self.map.get(page) {
            self.nodes[idx].referenced = true;
        }
    }

    fn on_fault(&mut self, page: PageId, _fault_num: u64) -> FaultOutcome {
        self.vtime += 1;
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
        let n = self.map.len();
        // First sweep: prefer pages outside the working set.
        let mut oldest: Option<(u64, usize)> = None;
        for _ in 0..n {
            let idx = self.hand;
            self.hand = self.nodes[idx].next;
            let node = &mut self.nodes[idx];
            if node.referenced {
                node.referenced = false;
                node.last_use = self.vtime;
                continue;
            }
            let age = self.vtime.saturating_sub(node.last_use);
            if age > self.cfg.tau {
                let victim = node.page;
                self.map.remove(victim);
                self.unlink(idx);
                return Some(victim);
            }
            if oldest.map(|(lu, _)| node.last_use < lu).unwrap_or(true) {
                oldest = Some((node.last_use, idx));
            }
        }
        // Whole ring inside the working set: evict the oldest page (the
        // WSClock fallback when no page ages out).
        let (_, idx) = oldest.or({
            // Every page was referenced this sweep; take the hand's page.
            Some((0, self.hand))
        })?;
        let victim = self.nodes[idx].page;
        self.map.remove(victim);
        self.unlink(idx);
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
    fn ages_out_pages_beyond_tau() {
        let mut ws = WsClock::new(WsClockConfig { tau: 3 });
        ws.on_fault(PageId(1), 0); // vtime 1, last_use 1... inserted at 0
        for p in 10..20u64 {
            ws.on_fault(PageId(p), p); // vtime advances well past tau
            ws.on_walk_hit(PageId(p));
        }
        // Page 1 has age >> tau and no reference bit: first victim.
        assert_eq!(ws.select_victim(), Some(PageId(1)));
    }

    #[test]
    fn referenced_pages_get_second_chance() {
        let mut ws = WsClock::new(WsClockConfig { tau: 2 });
        ws.on_fault(PageId(1), 0);
        ws.on_fault(PageId(2), 1);
        ws.on_walk_hit(PageId(1));
        let v = ws.select_victim().unwrap();
        assert_eq!(v, PageId(2));
        assert_eq!(ws.resident_len(), 1);
    }

    #[test]
    fn falls_back_to_oldest_when_all_in_working_set() {
        let mut ws = WsClock::new(WsClockConfig { tau: 1_000_000 });
        for p in 0..5u64 {
            ws.on_fault(PageId(p), p);
        }
        // Nothing aged out; the oldest last-use (page 0) is evicted.
        assert_eq!(ws.select_victim(), Some(PageId(0)));
    }

    #[test]
    fn drains_completely_and_reuses_slots() {
        let mut ws = WsClock::new(WsClockConfig::default());
        for round in 0..3 {
            for p in 0..6u64 {
                ws.on_fault(PageId(100 * round + p), p);
            }
            let mut seen = std::collections::HashSet::new();
            for _ in 0..6 {
                assert!(seen.insert(ws.select_victim().unwrap()));
            }
            assert_eq!(ws.select_victim(), None);
        }
    }

    #[test]
    fn working_set_within_capacity_hits() {
        let refs: Vec<u64> = (0..6).cycle().take(120).collect();
        let faults = replay(&mut WsClock::new(WsClockConfig::default()), &refs, 8);
        assert_eq!(faults, 6);
    }

    #[test]
    fn thrashing_behaviour_matches_clock_family() {
        // On a cyclic sweep beyond capacity, WSClock inherits the CLOCK
        // family's thrashing (the weakness the paper points out).
        let refs: Vec<u64> = (0..12).cycle().take(60).collect();
        let faults = replay(&mut WsClock::new(WsClockConfig { tau: 4 }), &refs, 8);
        assert_eq!(faults, 60);
    }
}
