//! Extending the stack: plug a custom eviction policy into the simulator.
//!
//! Implements a tiny FIFO policy through `EvictionPolicy` and races it
//! against LRU and HPE on a region-moving workload — demonstrating the
//! trait surface a downstream experiment would use. Run with an
//! `EventLog`, the FIFO's victims are recorded as it stands: the engine
//! emits `VictimSelected` for every policy.
//!
//! ```sh
//! cargo run --release --example custom_policy
//! ```

use std::collections::VecDeque;

use hpe::core::{Hpe, HpeConfig};
use hpe::policies::{EvictionPolicy, FaultOutcome, Lru};
use hpe::sim::{trace_for, Simulation};
use hpe::types::{Oversubscription, PageId, SimConfig};
use hpe::workloads::registry;

/// First-in, first-out page eviction: the simplest possible policy.
#[derive(Debug, Default)]
struct Fifo {
    queue: VecDeque<PageId>,
}

impl EvictionPolicy for Fifo {
    fn name(&self) -> String {
        "FIFO".to_string()
    }

    fn on_fault(&mut self, page: PageId, _fault_num: u64) -> FaultOutcome {
        self.queue.push_back(page);
        FaultOutcome::default()
    }

    // Walk hits don't reorder a FIFO; the default no-op is exactly right.

    fn select_victim(&mut self) -> Option<PageId> {
        self.queue.pop_front()
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = SimConfig::scaled_default();
    let app = registry::by_abbr("B+T").expect("registered application");
    let trace = trace_for(&cfg, app);
    let capacity = Oversubscription::Rate75.capacity_pages(app.footprint_pages());

    println!("{app} ({}) at 75% oversubscription\n", app.pattern());

    let fifo = Simulation::new(cfg.clone(), &trace, Fifo::default(), capacity)?.run()?;
    let lru = Simulation::new(cfg.clone(), &trace, Lru::new(), capacity)?.run()?;
    let hpe = Simulation::new(
        cfg.clone(),
        &trace,
        Hpe::new(HpeConfig::from_sim(&cfg))?,
        capacity,
    )?
    .run()?;

    println!(
        "{:>6}  {:>9}  {:>9}  {:>12}",
        "policy", "faults", "evictions", "cycles"
    );
    for (name, s) in [
        ("FIFO", &fifo.stats),
        ("LRU", &lru.stats),
        ("HPE", &hpe.stats),
    ] {
        println!(
            "{name:>6}  {:>9}  {:>9}  {:>12}",
            s.faults(),
            s.evictions(),
            s.cycles
        );
    }
    Ok(())
}
