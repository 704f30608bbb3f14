//! Uniform-random eviction (Zheng et al. found it competitive with LRU).

use uvm_types::{PageId, PageMap, PolicyStats};
use uvm_util::Rng;

use crate::{EvictionPolicy, FaultOutcome};

/// Evicts a uniformly random resident page.
///
/// Deterministic for a given seed, so simulations are reproducible.
///
/// # Examples
///
/// ```
/// use uvm_policies::{EvictionPolicy, RandomPolicy};
/// use uvm_types::PageId;
///
/// let mut rnd = RandomPolicy::seeded(7);
/// rnd.on_fault(PageId(1), 0);
/// assert_eq!(rnd.select_victim(), Some(PageId(1)));
/// assert_eq!(rnd.select_victim(), None);
/// ```
#[derive(Debug)]
pub struct RandomPolicy {
    pages: Vec<PageId>,
    index: PageMap<PageId, usize>,
    rng: Rng,
    stats: PolicyStats,
}

impl RandomPolicy {
    /// Creates a policy with a fixed default seed.
    pub fn new() -> Self {
        Self::seeded(0xC0FFEE)
    }

    /// Creates a policy seeded with `seed`.
    pub fn seeded(seed: u64) -> Self {
        RandomPolicy {
            pages: Vec::new(),
            index: PageMap::new(),
            rng: Rng::seed_from_u64(seed),
            stats: PolicyStats::default(),
        }
    }

    /// Number of pages the policy believes are resident.
    pub fn resident_len(&self) -> usize {
        self.pages.len()
    }
}

impl Default for RandomPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl EvictionPolicy for RandomPolicy {
    fn name(&self) -> String {
        "Random".to_string()
    }

    fn on_fault(&mut self, page: PageId, _fault_num: u64) -> FaultOutcome {
        if !self.index.contains_key(page) {
            self.index.insert(page, self.pages.len());
            self.pages.push(page);
        }
        FaultOutcome::default()
    }

    fn select_victim(&mut self) -> Option<PageId> {
        self.stats.selections += 1;
        if self.pages.is_empty() {
            return None;
        }
        let i = self.rng.gen_range(0..self.pages.len());
        let victim = self.pages.swap_remove(i);
        self.index.remove(victim);
        if let Some(&moved) = self.pages.get(i) {
            self.index.insert(moved, i);
        }
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
    use std::collections::HashSet;

    #[test]
    fn victims_are_resident_and_unique() {
        let mut rnd = RandomPolicy::seeded(1);
        for p in 0..50u64 {
            rnd.on_fault(PageId(p), p);
        }
        let mut seen = HashSet::new();
        for _ in 0..50 {
            let v = rnd.select_victim().unwrap();
            assert!(v.0 < 50);
            assert!(seen.insert(v), "evicted {v} twice");
        }
        assert_eq!(rnd.select_victim(), None);
    }

    #[test]
    fn same_seed_same_sequence() {
        let run = |seed| {
            let mut rnd = RandomPolicy::seeded(seed);
            for p in 0..20u64 {
                rnd.on_fault(PageId(p), p);
            }
            (0..20)
                .map(|_| rnd.select_victim().unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn duplicate_fault_does_not_duplicate_page() {
        let mut rnd = RandomPolicy::seeded(2);
        rnd.on_fault(PageId(5), 0);
        rnd.on_fault(PageId(5), 1);
        assert_eq!(rnd.resident_len(), 1);
    }

    #[test]
    fn cyclic_sweep_beats_lru_sometimes() {
        // On a cyclic sweep, random eviction retains a random subset, so it
        // faults strictly less than LRU's 100% miss rate after warmup.
        let refs: Vec<u64> = (0..20).cycle().take(200).collect();
        let faults = replay(&mut RandomPolicy::seeded(3), &refs, 16);
        assert!(faults < 200, "random should beat always-miss, got {faults}");
        assert!(faults >= 20, "at least compulsory misses");
    }
}
