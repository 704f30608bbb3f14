//! Dynamic adjustment (Section IV-E, Algorithm 1).
//!
//! One FIFO buffer per strategy remembers the pages that strategy evicted
//! over the last two intervals. A *wrong eviction* is a page fault on a
//! page still in the active strategy's FIFO. When the per-interval wrong
//! eviction count reaches one page set (16), HPE adjusts:
//!
//! * **regular** applications jump the MRU-C search point forward by 16 —
//!   unless the old partition held fewer than 4× page-set-size sets when
//!   memory first filled (small footprints, where older sets are *more*
//!   likely to be re-referenced);
//! * **irregular#1** applications stay with LRU (MRU-C would thrash on
//!   their bursty page walks);
//! * **irregular#2** applications switch between LRU and MRU-C. The paper
//!   selects "the strategy used for a longer time"; an untried strategy is
//!   explored first (without this, the longer-time comparison could never
//!   leave the initial strategy, contradicting the BFS trace in Fig. 13).

use uvm_policies::EvictionWindow;
use uvm_types::PageId;

use crate::classify::Category;
use crate::config::{HpeConfig, StrategyKind};

/// The dynamic-adjustment state machine.
#[derive(Debug)]
pub struct Adjuster {
    /// Dynamic adjustment reactions (Algorithm 1) are active.
    enabled: bool,
    /// A strategy was forced by configuration; classification must not
    /// override it (sensitivity-study mode).
    forced: bool,
    trigger: u32,
    search_jump: u32,
    small_footprint_sets: u32,
    category: Option<Category>,
    strategy: StrategyKind,
    jump: u32,
    small_footprint: bool,
    fifo_lru: EvictionWindow,
    fifo_mruc: EvictionWindow,
    wrong_count: u32,
    intervals_lru: u64,
    intervals_mruc: u64,
    switches: u64,
    timeline: Vec<(u64, StrategyKind)>,
    jump_events: Vec<(u64, u32)>,
}

impl Adjuster {
    /// Creates the adjuster from an HPE configuration.
    pub fn new(cfg: &HpeConfig) -> Self {
        let initial = cfg.forced_strategy.unwrap_or(StrategyKind::Lru);
        Adjuster {
            enabled: cfg.dynamic_adjustment && cfg.forced_strategy.is_none(),
            forced: cfg.forced_strategy.is_some(),
            trigger: cfg.wrong_eviction_trigger,
            search_jump: cfg.search_jump,
            small_footprint_sets: cfg.small_footprint_sets,
            category: None,
            strategy: initial,
            jump: 0,
            small_footprint: false,
            fifo_lru: EvictionWindow::new(cfg.fifo_depth as usize),
            fifo_mruc: EvictionWindow::new(cfg.fifo_depth as usize),
            wrong_count: 0,
            intervals_lru: 0,
            intervals_mruc: 0,
            switches: 0,
            timeline: vec![(0, initial)],
            jump_events: Vec::new(),
        }
    }

    /// The active eviction strategy.
    pub fn strategy(&self) -> StrategyKind {
        self.strategy
    }

    /// The current MRU-C search-point jump.
    pub fn jump(&self) -> u32 {
        self.jump
    }

    /// Number of strategy switches performed.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Intervals spent under each strategy `(LRU, MRU-C)`.
    pub fn interval_usage(&self) -> (u64, u64) {
        (self.intervals_lru, self.intervals_mruc)
    }

    /// `(fault_number, strategy)` at start and at every switch (Fig. 13).
    pub fn timeline(&self) -> &[(u64, StrategyKind)] {
        &self.timeline
    }

    /// `(fault_number, new_jump)` at every search-point jump (Fig. 13's
    /// "adjust search point" events).
    pub fn jump_events(&self) -> &[(u64, u32)] {
        &self.jump_events
    }

    /// Installs the classification result (called at first memory-full).
    /// `old_sets` is the number of page sets in the old partition at that
    /// moment, gating the regular-application jump rule.
    pub fn set_category(&mut self, category: Category, old_sets: usize, fault_num: u64) {
        self.category = Some(category);
        // The initial strategy follows the classification unless the
        // configuration forced one. This is independent of whether the
        // dynamic-adjustment *reactions* are enabled.
        if !self.forced && self.timeline.len() == 1 && self.timeline[0].0 == 0 {
            let s = match category {
                Category::Regular => StrategyKind::MruC,
                Category::Irregular1 | Category::Irregular2 => StrategyKind::Lru,
            };
            self.strategy = s;
            self.timeline[0] = (fault_num, s);
        }
        self.small_footprint = (old_sets as u32) < self.small_footprint_sets;
    }

    /// Records an eviction performed by the active strategy.
    pub fn on_eviction(&mut self, page: PageId) {
        match self.strategy {
            StrategyKind::Lru => self.fifo_lru.push(page),
            StrategyKind::MruC => self.fifo_mruc.push(page),
        }
    }

    /// Checks a page fault against the active strategy's FIFO; triggers an
    /// adjustment when the wrong-eviction count reaches the threshold.
    pub fn on_fault(&mut self, page: PageId, fault_num: u64) {
        if !self.enabled {
            return;
        }
        let wrong = match self.strategy {
            StrategyKind::Lru => self.fifo_lru.contains(page),
            StrategyKind::MruC => self.fifo_mruc.contains(page),
        };
        if !wrong {
            return;
        }
        self.count_wrong(fault_num);
    }

    /// Counts a wrong eviction directly, bypassing the FIFO membership
    /// test. Used for injected (spurious) wrong-eviction signals, which
    /// model a corrupted fault report reaching the driver: the adjustment
    /// machinery must react exactly as it would to a genuine one.
    pub fn force_wrong(&mut self, fault_num: u64) {
        if !self.enabled {
            return;
        }
        self.count_wrong(fault_num);
    }

    fn count_wrong(&mut self, fault_num: u64) {
        self.wrong_count += 1;
        if self.wrong_count >= self.trigger {
            self.wrong_count = 0;
            self.adjust(fault_num);
        }
    }

    /// Ends the current interval: credits it to the active strategy and
    /// resets the wrong-eviction counter.
    pub fn end_interval(&mut self) {
        match self.strategy {
            StrategyKind::Lru => self.intervals_lru += 1,
            StrategyKind::MruC => self.intervals_mruc += 1,
        }
        self.wrong_count = 0;
    }

    fn adjust(&mut self, fault_num: u64) {
        match self.category {
            Some(Category::Regular) if !self.small_footprint => {
                self.jump += self.search_jump;
                self.jump_events.push((fault_num, self.jump));
            }
            Some(Category::Regular) | Some(Category::Irregular1) => {}
            Some(Category::Irregular2) => {
                let (cur, other) = match self.strategy {
                    StrategyKind::Lru => (self.intervals_lru, self.intervals_mruc),
                    StrategyKind::MruC => (self.intervals_mruc, self.intervals_lru),
                };
                let switch = other == 0 || other >= cur;
                if switch {
                    self.strategy = match self.strategy {
                        StrategyKind::Lru => StrategyKind::MruC,
                        StrategyKind::MruC => StrategyKind::Lru,
                    };
                    self.switches += 1;
                    self.timeline.push((fault_num, self.strategy));
                }
            }
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HpeConfig {
        HpeConfig::paper_default()
    }

    fn adjuster_with(category: Category, old_sets: usize) -> Adjuster {
        let mut a = Adjuster::new(&cfg());
        a.set_category(category, old_sets, 0);
        a
    }

    /// Drives `n` wrong evictions: evict then re-fault the same page.
    fn wrong_evictions(a: &mut Adjuster, n: u32, fault_base: u64) {
        for i in 0..n {
            let p = PageId(1000 + u64::from(i));
            a.on_eviction(p);
            a.on_fault(p, fault_base + u64::from(i));
        }
    }

    #[test]
    fn classification_sets_initial_strategy() {
        assert_eq!(
            adjuster_with(Category::Regular, 100).strategy(),
            StrategyKind::MruC
        );
        assert_eq!(
            adjuster_with(Category::Irregular1, 100).strategy(),
            StrategyKind::Lru
        );
        assert_eq!(
            adjuster_with(Category::Irregular2, 100).strategy(),
            StrategyKind::Lru
        );
    }

    #[test]
    fn regular_large_footprint_jumps_search_point() {
        let mut a = adjuster_with(Category::Regular, 100);
        wrong_evictions(&mut a, 16, 0);
        assert_eq!(a.jump(), 16);
        assert_eq!(a.strategy(), StrategyKind::MruC);
        wrong_evictions(&mut a, 16, 100);
        assert_eq!(a.jump(), 32); // jumps accumulate
        assert_eq!(a.jump_events().len(), 2);
        assert_eq!(a.switches(), 0);
    }

    #[test]
    fn regular_small_footprint_never_jumps() {
        let mut a = adjuster_with(Category::Regular, 10); // < 64 sets
        wrong_evictions(&mut a, 48, 0);
        assert_eq!(a.jump(), 0);
    }

    #[test]
    fn irregular1_never_switches() {
        let mut a = adjuster_with(Category::Irregular1, 100);
        wrong_evictions(&mut a, 64, 0);
        assert_eq!(a.strategy(), StrategyKind::Lru);
        assert_eq!(a.switches(), 0);
    }

    #[test]
    fn irregular2_explores_then_prefers_longer_used() {
        let mut a = adjuster_with(Category::Irregular2, 100);
        // A few intervals under LRU.
        for _ in 0..5 {
            a.end_interval();
        }
        // Trigger: MRU-C untried -> explore it.
        wrong_evictions(&mut a, 16, 0);
        assert_eq!(a.strategy(), StrategyKind::MruC);
        assert_eq!(a.switches(), 1);
        // MRU-C runs only one interval, then triggers: LRU has been used
        // longer (5 > 1) -> switch back.
        a.end_interval();
        wrong_evictions(&mut a, 16, 100);
        assert_eq!(a.strategy(), StrategyKind::Lru);
        // Now LRU triggers again; MRU-C (1) < LRU (5) -> stay LRU.
        wrong_evictions(&mut a, 16, 200);
        assert_eq!(a.strategy(), StrategyKind::Lru);
        assert_eq!(a.switches(), 2);
    }

    #[test]
    fn wrong_count_resets_each_interval() {
        let mut a = adjuster_with(Category::Regular, 100);
        wrong_evictions(&mut a, 15, 0);
        a.end_interval();
        wrong_evictions(&mut a, 15, 100);
        assert_eq!(a.jump(), 0, "counts must not carry across intervals");
    }

    #[test]
    fn fifo_only_remembers_last_two_intervals_of_evictions() {
        let mut a = adjuster_with(Category::Regular, 100);
        let p = PageId(5);
        a.on_eviction(p);
        // Push 128 more evictions to overflow the FIFO (depth 128).
        for i in 0..128u64 {
            a.on_eviction(PageId(100 + i));
        }
        // p is gone from the FIFO: its re-fault is not "wrong".
        for _ in 0..32 {
            a.on_fault(p, 0);
        }
        assert_eq!(a.jump(), 0);
    }

    #[test]
    fn per_strategy_fifos_are_independent() {
        let mut a = adjuster_with(Category::Irregular2, 100);
        // Evictions under LRU fill the LRU FIFO; after a switch to MRU-C,
        // re-faults of those pages do not count against MRU-C.
        for i in 0..16u64 {
            a.on_eviction(PageId(i));
        }
        // Force a switch by wrong evictions.
        wrong_evictions(&mut a, 16, 0);
        assert_eq!(a.strategy(), StrategyKind::MruC);
        let switches_before = a.switches();
        for i in 0..16u64 {
            a.on_fault(PageId(i), 50 + i);
        }
        assert_eq!(a.switches(), switches_before);
    }

    #[test]
    fn disabled_adjustment_is_inert() {
        let mut c = cfg();
        c.dynamic_adjustment = false;
        let mut a = Adjuster::new(&c);
        a.set_category(Category::Irregular2, 100, 0);
        wrong_evictions(&mut a, 64, 0);
        assert_eq!(a.strategy(), StrategyKind::Lru);
        assert_eq!(a.switches(), 0);
    }

    #[test]
    fn forced_strategy_overrides_classification() {
        let mut c = cfg();
        c.forced_strategy = Some(StrategyKind::MruC);
        let mut a = Adjuster::new(&c);
        a.set_category(Category::Irregular2, 100, 0);
        assert_eq!(a.strategy(), StrategyKind::MruC);
        wrong_evictions(&mut a, 64, 0);
        assert_eq!(a.strategy(), StrategyKind::MruC);
    }

    #[test]
    fn spurious_signals_drive_adjustment_like_real_ones() {
        let mut a = adjuster_with(Category::Regular, 100);
        for i in 0..16 {
            a.force_wrong(i);
        }
        assert_eq!(a.jump(), 16, "16 spurious signals trigger one jump");
    }

    #[test]
    fn spurious_signals_ignored_when_adjustment_disabled() {
        let mut c = cfg();
        c.dynamic_adjustment = false;
        let mut a = Adjuster::new(&c);
        a.set_category(Category::Regular, 100, 0);
        for i in 0..64 {
            a.force_wrong(i);
        }
        assert_eq!(a.jump(), 0);
    }

    #[test]
    fn timeline_records_switches() {
        let mut a = adjuster_with(Category::Irregular2, 100);
        wrong_evictions(&mut a, 16, 7);
        let tl = a.timeline();
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[1].1, StrategyKind::MruC);
    }
}
