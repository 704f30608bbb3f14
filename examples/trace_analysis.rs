//! Analyze a simulation's event stream: run one application under HPE
//! with an [`EventLog`] and a [`Profiler`] attached, compute the trace
//! summaries (counters, a fault-windowed series, histograms) from the
//! recorded events, and read fault latencies off the profiler's spans.
//!
//! ```sh
//! cargo run --release --example trace_analysis           # STN
//! cargo run --release --example trace_analysis -- BFS    # any registered app
//! ```
//!
//! The same summaries work on a stream loaded from a JSONL file (see
//! `hpe-trace` in the bench crate); this example computes them
//! in-process through the facade only.

use std::num::NonZeroU64;

use hpe::core::{Hpe, HpeConfig};
use hpe::sim::{
    trace_for, EventCounters, EventLog, IntervalKey, IntervalSeries, ProfileConfig, Profiler,
    Simulation, TraceHistograms,
};
use hpe::types::{Oversubscription, SimConfig};
use hpe::workloads::registry;

fn main() {
    let abbr = std::env::args().nth(1).unwrap_or_else(|| "STN".to_string());
    let Some(app) = registry::by_abbr(&abbr) else {
        eprintln!("unknown app '{abbr}'; registered apps:");
        for a in registry::all() {
            eprintln!("  {}", a.abbr());
        }
        std::process::exit(2);
    };

    // Run the app under HPE at 75% oversubscription, recording the event
    // stream and profiling the fault lifecycles.
    let cfg = SimConfig::scaled_default();
    let trace = trace_for(&cfg, app);
    let capacity = Oversubscription::Rate75.capacity_pages(app.footprint_pages());
    let policy = Hpe::new(HpeConfig::from_sim(&cfg)).expect("valid HPE");
    let sim = Simulation::new(cfg, &trace, Box::new(policy), capacity).expect("valid sim");
    let outcome = sim
        .instrument((EventLog::new(), Profiler::new(ProfileConfig::default())))
        .run()
        .expect("run completes");
    let (log, profiler) = outcome.instrument;
    println!(
        "{}: {} events over {} cycles ({} faults, {} evictions)",
        app.abbr(),
        log.len(),
        outcome.stats.cycles,
        outcome.stats.faults(),
        outcome.stats.evictions(),
    );

    // Every summary is a function of the recorded stream.
    let counters = EventCounters::of(&log);
    let window = NonZeroU64::new(512).expect("nonzero");
    let by_fault = IntervalSeries::of(&log, IntervalKey::Faults(window));
    let hists = TraceHistograms::of(&log);

    println!(
        "\ncounters: {} faults raised / {} serviced, {} evictions ({} wrong), \
         {} page walks ({} hits), {} HIR flushes carrying {} entries",
        counters.faults_raised,
        counters.faults_serviced,
        counters.evictions,
        counters.wrong_evictions,
        counters.page_walks,
        counters.walk_hits,
        counters.hir_flushes,
        counters.hir_entries,
    );

    println!("\nper 512-fault window: faults evictions wrong hir switches");
    for (i, w) in by_fault.rows().iter().enumerate() {
        println!(
            "  window {i:>3}: {:>6} {:>9} {:>5} {:>4} {:>8}",
            w.faults, w.evictions, w.wrong_evictions, w.hir_entries, w.strategy_switches
        );
    }

    // Histograms render as ASCII bar charts; the same values serialize to
    // JSON via `ToJson` for machine consumption.
    println!("{}", hists.inter_fault().render());
    println!("{}", hists.victim_age().render());
    println!("{}", hists.search_comparisons().render());
    println!("{}", hists.hir_flush_entries().render());

    // Raise-to-service latencies come from the profiler's fault spans.
    let profile = profiler.finalize(outcome.stats.cycles, capacity);
    let first = profile
        .records
        .iter()
        .find_map(|s| Some((s.page, s.total_cycles()?)));
    if let Some((page, cycles)) = first {
        println!(
            "service latencies: {} spans, first page {:?} took {} cycles",
            profile.records.len(),
            page,
            cycles
        );
    }
}
