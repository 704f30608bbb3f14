//! LRU at page-set granularity: a control policy isolating one HPE design
//! ingredient. Like HPE it manages a chain of page *sets* (reducing chain
//! length and exploiting spatial locality) and evicts a set's pages in
//! address order — but it has no partitions, no counters, no
//! classification, and no adjustment. Comparing SetLru to both LRU and
//! HPE separates "set granularity" from "the rest of HPE".

use uvm_types::{PageId, PageMap, PageSetId, PolicyStats};

use crate::chain::RecencyChain;
use crate::{EvictionPolicy, FaultOutcome};

/// LRU over page sets; victims are the LRU set's resident pages in
/// address order.
///
/// # Examples
///
/// ```
/// use uvm_policies::{EvictionPolicy, SetLru};
/// use uvm_types::PageId;
///
/// let mut p = SetLru::new(4); // 16-page sets
/// p.on_fault(PageId(0x10), 0);  // set 1
/// p.on_fault(PageId(0x25), 1);  // set 2
/// p.on_walk_hit(PageId(0x10));  // set 1 becomes MRU
/// assert_eq!(p.select_victim(), Some(PageId(0x25)));
/// ```
#[derive(Debug)]
pub struct SetLru {
    set_shift: u32,
    chain: RecencyChain<PageSetId>,
    resident: PageMap<PageSetId, u64>,
    stats: PolicyStats,
}

impl SetLru {
    /// Creates the policy for page sets of `2^set_shift` pages.
    ///
    /// # Panics
    ///
    /// Panics if `set_shift > 6` (the resident bitmask is 64 bits wide).
    pub fn new(set_shift: u32) -> Self {
        assert!(set_shift <= 6, "set_shift must be at most 6");
        SetLru {
            set_shift,
            chain: RecencyChain::new(),
            resident: PageMap::new(),
            stats: PolicyStats::default(),
        }
    }

    /// Number of page sets currently tracked.
    pub fn set_count(&self) -> usize {
        self.chain.len()
    }

    /// Number of resident pages tracked.
    pub fn resident_len(&self) -> usize {
        self.resident
            .values()
            .map(|m| m.count_ones() as usize)
            .sum()
    }
}

impl EvictionPolicy for SetLru {
    fn name(&self) -> String {
        format!("SetLRU({})", 1u32 << self.set_shift)
    }

    fn on_walk_hit(&mut self, page: PageId) {
        let set = page.page_set(self.set_shift);
        self.chain.touch(&set);
    }

    fn on_fault(&mut self, page: PageId, _fault_num: u64) -> FaultOutcome {
        let set = page.page_set(self.set_shift);
        let mask = 1u64 << page.set_offset(self.set_shift);
        *self.resident.get_or_insert_with(set, || 0) |= mask;
        self.chain.insert_mru(set);
        FaultOutcome::default()
    }

    fn select_victim(&mut self) -> Option<PageId> {
        self.stats.selections += 1;
        let set = *self.chain.lru()?;
        #[expect(
            clippy::expect_used,
            reason = "chain and resident are kept in lockstep"
        )]
        let mask = self
            .resident
            .get_mut(set)
            .expect("chained set has a resident mask");
        debug_assert_ne!(*mask, 0, "chained set has no resident pages");
        let offset = mask.trailing_zeros();
        *mask &= !(1u64 << offset);
        if *mask == 0 {
            self.resident.remove(set);
            self.chain.remove(&set);
        }
        Some(set.page_at(self.set_shift, offset))
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
    fn evicts_lru_set_in_address_order() {
        let mut p = SetLru::new(2); // 4-page sets
        for i in 0..4u64 {
            p.on_fault(PageId(i), i); // set 0
        }
        for i in 4..6u64 {
            p.on_fault(PageId(i), i); // set 1
        }
        p.on_walk_hit(PageId(5)); // set 1 MRU; set 0 is LRU
        for i in 0..4u64 {
            assert_eq!(p.select_victim(), Some(PageId(i)));
        }
        // Set 0 exhausted and removed; set 1 next.
        assert_eq!(p.select_victim(), Some(PageId(4)));
        assert_eq!(p.select_victim(), Some(PageId(5)));
        assert_eq!(p.select_victim(), None);
        assert_eq!(p.set_count(), 0);
    }

    #[test]
    fn hit_refreshes_whole_set() {
        let mut p = SetLru::new(2);
        p.on_fault(PageId(0), 0); // set 0
        p.on_fault(PageId(4), 1); // set 1
        p.on_walk_hit(PageId(1)); // set 0 (different page, same set)
        assert_eq!(p.select_victim(), Some(PageId(4)));
    }

    #[test]
    fn degenerate_shift_zero_is_page_lru() {
        let refs: Vec<u64> = (0..20).cycle().take(100).collect();
        let set_faults = replay(&mut SetLru::new(0), &refs, 12);
        let lru_faults = replay(&mut crate::Lru::new(), &refs, 12);
        assert_eq!(set_faults, lru_faults);
    }

    #[test]
    fn resident_accounting_matches_driver() {
        use uvm_util::Rng;
        let mut rng = Rng::seed_from_u64(3);
        let refs: Vec<u64> = (0..1500).map(|_| rng.gen_range(0u64..96)).collect();
        let mut p = SetLru::new(3);
        let faults = replay(&mut p, &refs, 40);
        assert!(faults >= 96);
        assert_eq!(p.resident_len(), 40);
    }

    #[test]
    #[should_panic(expected = "set_shift must be at most 6")]
    fn rejects_oversized_shift() {
        SetLru::new(7);
    }
}
