//! BIP and DIP (Qureshi et al., ISCA'07), discussed in Section VI-B.
//!
//! BIP (bimodal insertion) places most incoming pages at the *LRU*
//! position, retaining part of the old working set under thrashing. DIP
//! normally picks between LRU and BIP with set dueling; the paper notes
//! set dueling "is not easy to apply in memory", so this implementation
//! duels over *time*: alternating short sample epochs of each policy and
//! following whichever faulted less, re-sampled periodically.

use uvm_types::{PageId, PolicyStats};
use uvm_util::Rng;

use crate::chain::RecencyChain;
use crate::{EvictionPolicy, EvictionWindow, FaultOutcome};

/// Bimodal insertion: incoming pages go to the LRU position except with
/// probability `1/32`, which goes to MRU.
///
/// # Examples
///
/// ```
/// use uvm_policies::{Bip, EvictionPolicy};
/// use uvm_types::PageId;
///
/// let mut bip = Bip::new();
/// bip.on_fault(PageId(1), 0);
/// bip.on_fault(PageId(2), 1);
/// // Page 2 was (almost certainly) inserted at LRU: evicted first.
/// let v = bip.select_victim().unwrap();
/// assert!(v == PageId(2) || v == PageId(1));
/// ```
#[derive(Debug)]
pub struct Bip {
    chain: RecencyChain<PageId>,
    rng: Rng,
    epsilon_inv: u32,
    stats: PolicyStats,
}

impl Bip {
    /// Creates a BIP policy with the canonical `1/32` MRU-insertion rate.
    pub fn new() -> Self {
        Self::with_rate(32, 0xB1B)
    }

    /// Creates a BIP policy inserting at MRU with probability
    /// `1/epsilon_inv`, using `seed` for the bimodal coin.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon_inv` is zero.
    pub fn with_rate(epsilon_inv: u32, seed: u64) -> Self {
        assert!(epsilon_inv > 0, "epsilon_inv must be nonzero");
        Bip {
            chain: RecencyChain::new(),
            rng: Rng::seed_from_u64(seed),
            epsilon_inv,
            stats: PolicyStats::default(),
        }
    }

    /// Number of pages the policy believes are resident.
    pub fn resident_len(&self) -> usize {
        self.chain.len()
    }

    fn insert(&mut self, page: PageId) {
        if self.rng.gen_range(0..self.epsilon_inv) == 0 {
            self.chain.insert_mru(page);
        } else {
            self.chain.insert_lru(page);
        }
    }
}

impl Default for Bip {
    fn default() -> Self {
        Self::new()
    }
}

impl EvictionPolicy for Bip {
    fn name(&self) -> String {
        "BIP".to_string()
    }

    fn on_walk_hit(&mut self, page: PageId) {
        self.chain.touch(&page);
    }

    fn on_fault(&mut self, page: PageId, _fault_num: u64) -> FaultOutcome {
        self.insert(page);
        FaultOutcome::default()
    }

    fn select_victim(&mut self) -> Option<PageId> {
        self.stats.selections += 1;
        self.chain.pop_lru()
    }

    fn stats(&self) -> PolicyStats {
        self.stats.clone()
    }
}

/// DIP: duels LRU-insertion against bimodal insertion over time epochs and
/// follows the winner.
#[derive(Debug)]
pub struct Dip {
    chain: RecencyChain<PageId>,
    rng: Rng,
    epsilon_inv: u32,
    /// Faults per sampling epoch.
    epoch_len: u32,
    epoch_faults: u32,
    /// 0 = sampling LRU, 1 = sampling BIP, 2 = following the winner.
    phase: u8,
    winner_is_bip: bool,
    sample_faults: [u64; 2],
    /// Misses observed during each sample phase are just the faults; we
    /// count wrong-ish evictions via refaults on recently evicted pages.
    recent: EvictionWindow,
    refaults: [u64; 2],
    follow_epochs: u32,
    stats: PolicyStats,
}

impl Dip {
    /// Creates a DIP policy with epoch length 64 faults and the canonical
    /// bimodal rate.
    pub fn new() -> Self {
        Dip {
            chain: RecencyChain::new(),
            // A fixed dither stream per the DIP spec, not the run's seed.
            rng: Rng::seed_from_u64(0xD1B),
            epsilon_inv: 32,
            epoch_len: 64,
            epoch_faults: 0,
            phase: 0,
            winner_is_bip: false,
            sample_faults: [0; 2],
            recent: EvictionWindow::new(128),
            refaults: [0; 2],
            follow_epochs: 0,
            stats: PolicyStats::default(),
        }
    }

    fn active_is_bip(&self) -> bool {
        match self.phase {
            0 => false,
            1 => true,
            _ => self.winner_is_bip,
        }
    }

    fn advance_epoch(&mut self) {
        self.epoch_faults = 0;
        match self.phase {
            0 => self.phase = 1,
            1 => {
                self.winner_is_bip = self.refaults[1] < self.refaults[0];
                self.stats.strategy_switches += 1;
                self.phase = 2;
                self.follow_epochs = 0;
            }
            _ => {
                self.follow_epochs += 1;
                // Re-sample every 8 follow epochs to stay adaptive.
                if self.follow_epochs >= 8 {
                    self.phase = 0;
                    self.refaults = [0; 2];
                    self.sample_faults = [0; 2];
                }
            }
        }
    }
}

impl Default for Dip {
    fn default() -> Self {
        Self::new()
    }
}

impl EvictionPolicy for Dip {
    fn name(&self) -> String {
        "DIP".to_string()
    }

    fn on_walk_hit(&mut self, page: PageId) {
        self.chain.touch(&page);
    }

    fn on_fault(&mut self, page: PageId, _fault_num: u64) -> FaultOutcome {
        if self.phase < 2 {
            self.sample_faults[self.phase as usize] += 1;
            if self.recent.contains(page) {
                self.refaults[self.phase as usize] += 1;
            }
        }
        if self.active_is_bip() && self.rng.gen_range(0..self.epsilon_inv) != 0 {
            self.chain.insert_lru(page);
        } else {
            self.chain.insert_mru(page);
        }
        self.epoch_faults += 1;
        if self.epoch_faults >= self.epoch_len {
            self.advance_epoch();
        }
        FaultOutcome::default()
    }

    fn select_victim(&mut self) -> Option<PageId> {
        self.stats.selections += 1;
        let victim = self.chain.pop_lru()?;
        self.recent.push(victim);
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
    fn bip_retains_working_set_under_thrash() {
        // Cyclic sweep: BIP must beat always-miss because most insertions
        // go to the LRU side, preserving a resident core.
        let refs: Vec<u64> = (0..40).cycle().take(40 * 10).collect();
        let faults = replay(&mut Bip::with_rate(32, 7), &refs, 30);
        assert!(
            faults < 40 * 10,
            "BIP should not miss every reference, got {faults}"
        );
    }

    #[test]
    fn bip_lru_side_insertion_is_immediate_victim() {
        let mut bip = Bip::with_rate(u32::MAX, 3); // never MRU
        bip.on_fault(PageId(1), 0);
        bip.on_fault(PageId(2), 1);
        bip.on_walk_hit(PageId(2));
        // 1 was inserted at LRU side earlier but 2 was touched to MRU;
        // next insertion goes to LRU side and is the first victim.
        bip.on_fault(PageId(3), 2);
        assert_eq!(bip.select_victim(), Some(PageId(3)));
    }

    #[test]
    fn bip_hit_promotes_to_mru() {
        let mut bip = Bip::with_rate(u32::MAX, 3);
        bip.on_fault(PageId(1), 0);
        bip.on_fault(PageId(2), 1);
        bip.on_walk_hit(PageId(1));
        assert_eq!(bip.select_victim(), Some(PageId(2)));
    }

    #[test]
    fn dip_completes_and_respects_residency() {
        let refs: Vec<u64> = (0..50).cycle().take(1500).collect();
        let faults = replay(&mut Dip::new(), &refs, 32);
        assert!(faults >= 50);
        assert!(faults <= 1500);
    }

    #[test]
    fn dip_beats_pure_lru_on_thrash() {
        let refs: Vec<u64> = (0..40).cycle().take(40 * 30).collect();
        let lru_faults = replay(&mut crate::Lru::new(), &refs, 30);
        let dip_faults = replay(&mut Dip::new(), &refs, 30);
        assert!(
            dip_faults < lru_faults,
            "DIP {dip_faults} should beat LRU {lru_faults} on a cyclic sweep"
        );
    }

    #[test]
    fn dip_matches_lru_on_friendly_workloads() {
        let refs: Vec<u64> = (0..8).cycle().take(400).collect();
        let faults = replay(&mut Dip::new(), &refs, 16);
        assert_eq!(faults, 8, "working set fits: compulsory faults only");
    }
}
