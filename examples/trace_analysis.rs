//! Analyze a simulation's event stream with the tracing layer: run one
//! application under HPE with an [`EventLog`] attached, then replay the
//! stream through the interval and histogram sinks.
//!
//! ```sh
//! cargo run --release --example trace_analysis           # STN
//! cargo run --release --example trace_analysis -- BFS    # any registered app
//! ```
//!
//! The same sinks accept a stream loaded from a JSONL file (see
//! `hpe-trace` in the bench crate); this example drives them in-process
//! through the facade only.

use hpe::core::{Hpe, HpeConfig};
use hpe::sim::{
    trace_for, EventCounters, EventLog, Instrument, IntervalCollector, IntervalKey, Simulation,
    TraceHistograms,
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

    // Run the app under HPE at 75% oversubscription with an event log.
    let cfg = SimConfig::scaled_default();
    let trace = trace_for(&cfg, app);
    let capacity = Oversubscription::Rate75.capacity_pages(app.footprint_pages());
    let policy = Hpe::new(HpeConfig::from_sim(&cfg)).expect("valid HPE");
    let sim = Simulation::new(cfg, &trace, Box::new(policy), capacity).expect("valid sim");
    let outcome = sim
        .instrument(EventLog::new())
        .run()
        .expect("run completes");
    let log = &outcome.instrument;
    println!(
        "{}: {} events over {} cycles ({} faults, {} evictions)",
        app.abbr(),
        log.events().len(),
        outcome.stats.cycles,
        outcome.stats.faults(),
        outcome.stats.evictions(),
    );

    // Replay the stream through the analysis sinks. Any instrument works
    // on a recorded stream, not just on a live simulation.
    let mut counters = EventCounters::default();
    let mut by_fault = IntervalCollector::new(IntervalKey::Faults(512));
    let mut hists = TraceHistograms::new();
    for &e in log.events() {
        counters.on_event(e);
        by_fault.on_event(e);
        hists.on_event(e);
    }

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

    // First-fault-to-service latency pairs come straight off the log.
    let latencies = log.service_latency_series();
    if let Some((page, lat)) = latencies.first() {
        println!(
            "service latencies: {} pairs, first page {:?} took {} cycles",
            latencies.len(),
            page,
            lat
        );
    }
}
