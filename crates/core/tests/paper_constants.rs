//! Pins the parameters the paper fixes in its evaluation (Table I,
//! Sections III-V, Table III) so an accidental retune shows up as a test
//! diff, plus behavioral checks that the two cadences those constants
//! imply — the HIR flush every 16th fault and the partition rotation
//! every 64th — actually fire on schedule.

use hpe_core::{Hpe, HpeConfig};
use uvm_policies::{ClockProConfig, EvictionPolicy};
use uvm_types::{HirGeometry, PageId, SimConfig};

#[test]
fn paper_default_matches_published_constants() {
    let cfg = HpeConfig::paper_default();
    // Structure: 16-page sets, 64-fault intervals, HIR drained every 16
    // faults.
    assert_eq!(cfg.page_set_size, 16);
    assert_eq!(cfg.interval_len, 64);
    assert_eq!(cfg.transfer_interval, 16);
    // Classification thresholds of Table III.
    assert_eq!(cfg.ratio1_threshold, 0.3);
    assert_eq!(cfg.ratio2_threshold, 2.0);
    // Per-set touch counters saturate at 64.
    assert_eq!(cfg.counter_max, 64);
    // Wrong-eviction window spans two intervals (128 faults) and the
    // adjustment trigger is one page set's worth of wrong evictions.
    assert_eq!(cfg.fifo_depth, 128);
    assert_eq!(cfg.fifo_depth, 2 * cfg.interval_len);
    assert_eq!(cfg.wrong_eviction_trigger, 16);
    assert_eq!(cfg.wrong_eviction_trigger, cfg.page_set_size);
    // MRU-C search-point jump and the small-footprint exemption
    // (4 x page set size).
    assert_eq!(cfg.search_jump, 16);
    assert_eq!(cfg.small_footprint_sets, 64);
    assert_eq!(cfg.small_footprint_sets, 4 * cfg.page_set_size);
    // All mechanisms on by default.
    assert!(cfg.use_hir);
    assert!(cfg.dynamic_adjustment);
    assert!(cfg.enable_division);
    assert!(cfg.enable_partitions);
    assert_eq!(cfg.forced_strategy, None);
}

#[test]
fn hir_geometry_matches_paper() {
    let hir = HirGeometry::paper_default();
    assert_eq!(hir.entries, 1024);
    assert_eq!(hir.ways, 8);
    assert_eq!(hir.counter_bits, 2);
    assert_eq!(hir.sets(), 128);
}

#[test]
fn sim_paper_default_matches_table_one() {
    let sim = SimConfig::paper_default();
    // L1 TLB: 128 entries, fully associative.
    assert_eq!(sim.l1_tlb.entries, 128);
    assert_eq!(sim.l1_tlb.ways, 128);
    // L2 TLB: 512 entries, 16-way.
    assert_eq!(sim.l2_tlb.entries, 512);
    assert_eq!(sim.l2_tlb.ways, 16);
    // A far-fault takes 20 us to service over a 16 GB/s PCIe link.
    assert_eq!(sim.fault_service_us, 20.0);
    assert_eq!(sim.pcie_gbps, 16.0);
    // The HPE structure the simulator hands the policy (Section IV).
    assert_eq!(sim.page_set_size, 16);
    assert_eq!(sim.interval_len, 64);
    assert_eq!(sim.transfer_interval, 16);
    assert_eq!(sim.hir, HirGeometry::paper_default());
}

#[test]
fn clockpro_cold_allocation_is_fixed_at_128_pages() {
    assert_eq!(ClockProConfig::default().m_c, 128);
}

#[test]
fn from_sim_ties_derived_parameters_to_sim_config() {
    let sim = SimConfig::paper_default();
    let cfg = HpeConfig::from_sim(&sim);
    assert_eq!(cfg.page_set_size, sim.page_set_size);
    assert_eq!(cfg.interval_len, sim.interval_len);
    assert_eq!(cfg.transfer_interval, sim.transfer_interval);
    assert_eq!(cfg.fifo_depth, 2 * sim.interval_len);
    assert_eq!(cfg.wrong_eviction_trigger, sim.page_set_size);
    assert_eq!(cfg.small_footprint_sets, 4 * sim.page_set_size);
    assert_eq!(cfg.hir, sim.hir);
}

#[test]
fn hir_flushes_every_sixteenth_fault() {
    let mut hpe = Hpe::new(HpeConfig::paper_default()).expect("valid HPE");
    for f in 1..=64u64 {
        // Keep the HIR non-empty so every due flush has something to drain.
        hpe.on_walk_hit(PageId(f % 32));
        hpe.on_fault(PageId(1000 + f), f);
        assert_eq!(
            hpe.stats().hir_flushes,
            f / 16,
            "flush count after fault {f}"
        );
    }
}

#[test]
fn interval_rotates_every_sixty_fourth_fault() {
    let mut hpe = Hpe::new(HpeConfig::paper_default()).expect("valid HPE");
    for f in 1..=256u64 {
        hpe.on_fault(PageId(f % 512), f);
        let s = hpe.stats();
        assert_eq!(
            s.intervals_lru + s.intervals_mruc,
            f / 64,
            "intervals completed after fault {f}"
        );
    }
}
