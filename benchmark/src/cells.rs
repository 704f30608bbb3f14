//! The four workloads: which cells each runs, how one pass runs them, and
//! the correctness checks on the `SimStats` they produce.

use std::io;
use std::time::{Duration, Instant};

use hpe_bench::perf::BENCH_SEED;
use hpe_bench::{rrip_config_for, run_campaign, run_policy, CampaignSpec, PolicyKind, PoolOptions};
use hpe_core::{Hpe, HpeConfig};
use uvm_policies::{ClockPro, ClockProConfig, EvictionPolicy, Lfu, Lru, RandomPolicy, Rrip};
use uvm_sim::{ideal_for, trace_for, Simulation};
use uvm_types::{Oversubscription, SimConfig, SimError, SimStats};
use uvm_util::{Rng, ToJson};
use uvm_workloads::{registry, App, Trace};

use crate::stats::fnv1a;

/// The two oversubscription rates of the paper's evaluation, in grid
/// order.
pub const RATES: [Oversubscription; 2] = [Oversubscription::Rate75, Oversubscription::Rate50];

/// One benchmark workload. Each is a closed loop in one process: the next
/// cell starts when a worker finishes the previous one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 322-cell clean campaign on one worker (`run_campaign`).
    GridSerial,
    /// The same campaign on two workers.
    GridParallel,
    /// HPE on every app at both rates, one `run_policy` at a time.
    HpeCells,
    /// LRU and Random on every app at both rates, one `run_policy` at a
    /// time: O(1) policies, so the engine dominates.
    LruEngine,
}

impl Workload {
    /// Every workload, in declaration order.
    pub const ALL: [Workload; 4] = [
        Workload::GridSerial,
        Workload::GridParallel,
        Workload::HpeCells,
        Workload::LruEngine,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridSerial => "grid-serial",
            Workload::GridParallel => "grid-parallel",
            Workload::HpeCells => "hpe-cells",
            Workload::LruEngine => "lru-engine",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The policies of the workload's cells, in grid order.
    pub fn policies(self) -> &'static [PolicyKind] {
        match self {
            Workload::GridSerial | Workload::GridParallel => &PolicyKind::ALL,
            Workload::HpeCells => &[PolicyKind::Hpe],
            Workload::LruEngine => &[PolicyKind::Lru, PolicyKind::Random],
        }
    }

    /// Whether a pass goes through `run_campaign` (else serial
    /// `run_policy` calls, each timed).
    pub fn is_grid(self) -> bool {
        matches!(self, Workload::GridSerial | Workload::GridParallel)
    }

    /// Worker threads of a pass.
    pub fn workers(self) -> usize {
        if self == Workload::GridParallel {
            2
        } else {
            1
        }
    }

    /// The cells of one pass, in grid order (apps x policies x rates, the
    /// order `run_campaign` merges in).
    pub fn cells(self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for app in registry::all() {
            for &policy in self.policies() {
                for rate in RATES {
                    cells.push(Cell { app, policy, rate });
                }
            }
        }
        cells
    }

    /// The clean campaign over this workload's cells.
    pub fn campaign(self) -> CampaignSpec {
        let apps = registry::all().iter().map(|a| a.abbr().to_string());
        let mut spec = CampaignSpec::clean_grid(apps.collect(), BENCH_SEED);
        spec.policies = self.policies().to_vec();
        spec
    }
}

/// One simulation: an app under a policy at a rate.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// The application.
    pub app: &'static App,
    /// The eviction policy.
    pub policy: PolicyKind,
    /// The oversubscription rate.
    pub rate: Oversubscription,
}

impl Cell {
    /// GPU memory capacity in pages.
    pub fn capacity(&self) -> u64 {
        self.rate.capacity_pages(self.app.footprint_pages())
    }

    /// `app/policy/rate`.
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}",
            self.app.abbr(),
            self.policy.label(),
            self.rate.label()
        )
    }
}

/// A generic continuation over a concrete policy type, so one
/// constructor table serves the setup and traced passes.
pub trait WithPolicy {
    /// What the continuation returns.
    type Output;
    /// Receives the constructed policy and its constructor's host time.
    fn call<P: EvictionPolicy>(self, policy: P, ctor: Duration) -> Result<Self::Output, SimError>;
}

/// Constructs `kind` for `app` exactly as `hpe_bench::run_policy` does
/// and hands it to `then`. A mismatch with `run_policy` would change the
/// cell's `SimStats`; the traced pass checks that it does not.
pub fn build_policy<W: WithPolicy>(
    cfg: &SimConfig,
    app: &App,
    trace: &Trace,
    kind: PolicyKind,
    then: W,
) -> Result<W::Output, SimError> {
    let start = Instant::now();
    match kind {
        PolicyKind::Lru => then.call(Lru::new(), start.elapsed()),
        PolicyKind::Random => then.call(RandomPolicy::seeded(app.seed()), start.elapsed()),
        PolicyKind::Lfu => then.call(Lfu::new(), start.elapsed()),
        PolicyKind::Rrip => then.call(Rrip::new(rrip_config_for(app)), start.elapsed()),
        PolicyKind::ClockPro => {
            then.call(ClockPro::new(ClockProConfig::default()), start.elapsed())
        }
        PolicyKind::Ideal => then.call(ideal_for(trace), start.elapsed()),
        PolicyKind::Hpe => then.call(Hpe::new(HpeConfig::from_sim(cfg))?, start.elapsed()),
    }
}

/// One pass over a workload's cells.
#[derive(Debug)]
pub struct Pass {
    /// Host wall time of the whole pass.
    pub wall: Duration,
    /// Per-cell host milliseconds: each `run_policy` call on serial
    /// workloads, the interval between successive completions on the
    /// campaign's progress stream on grid workloads.
    pub cell_ms: Vec<f64>,
    /// Each cell's statistics in grid order; `None` for a failed cell.
    pub stats: Vec<Option<SimStats>>,
}

/// Runs one pass. `order_seed` only permutes the dispatch order.
pub fn run_pass(w: Workload, cfg: &SimConfig, cells: &[Cell], order_seed: u64) -> Pass {
    if w.is_grid() {
        return run_grid(cfg, &w.campaign(), w.workers(), order_seed);
    }
    let mut order: Vec<usize> = (0..cells.len()).collect();
    Rng::seed_from_u64(order_seed).shuffle(&mut order);
    let mut stats = vec![None; cells.len()];
    let mut cell_ms = Vec::with_capacity(cells.len());
    let start = Instant::now();
    for i in order {
        let c = cells[i];
        let t = Instant::now();
        let result = run_policy(cfg, c.app, c.rate, c.policy);
        cell_ms.push(ms(t.elapsed()));
        stats[i] = result.ok().map(|r| r.stats);
    }
    Pass {
        wall: start.elapsed(),
        cell_ms,
        stats,
    }
}

/// Runs a clean campaign pass on `workers` threads.
pub fn run_grid(cfg: &SimConfig, spec: &CampaignSpec, workers: usize, order_seed: u64) -> Pass {
    let pool = PoolOptions {
        workers,
        shuffle: Some(order_seed),
        ..PoolOptions::default()
    };
    let mut ticks = Ticks(Vec::with_capacity(spec.grid_len()));
    let start = Instant::now();
    let outcome = run_campaign(cfg, spec, &pool, Some(&mut ticks));
    let wall = start.elapsed();
    let mut last = start;
    let cell_ms = ticks
        .0
        .iter()
        .map(|&t| ms(t - std::mem::replace(&mut last, t)))
        .collect();
    let stats = match outcome {
        Ok(o) if o.is_complete() => o
            .runs
            .into_iter()
            .map(|r| r.ok.then_some(r.stats))
            .collect(),
        _ => vec![None; spec.grid_len()],
    };
    Pass {
        wall,
        cell_ms,
        stats,
    }
}

/// Timestamps each line of the campaign's progress stream as it is
/// written, which is when the collector receives a finished cell.
struct Ticks(Vec<Instant>);

impl io::Write for Ticks {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let now = Instant::now();
        let lines = buf.iter().filter(|&&b| b == b'\n').count();
        self.0.extend(std::iter::repeat_n(now, lines));
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Builds every input of one pass from outside, as a cell's run would:
/// the trace, the Ideal oracle on Ideal cells, the policy and the
/// `Simulation`. Returns the host time.
pub fn setup_pass(cfg: &SimConfig, cells: &[Cell]) -> Result<Duration, SimError> {
    struct New<'a> {
        cfg: &'a SimConfig,
        trace: &'a Trace,
        capacity: u64,
    }
    impl WithPolicy for New<'_> {
        type Output = ();
        fn call<P: EvictionPolicy>(self, policy: P, _: Duration) -> Result<(), SimError> {
            let sim = Simulation::new(self.cfg.clone(), self.trace, policy, self.capacity)?;
            drop(std::hint::black_box(sim));
            Ok(())
        }
    }
    let start = Instant::now();
    for c in cells {
        let trace = trace_for(cfg, c.app);
        let new = New {
            cfg,
            trace: &trace,
            capacity: c.capacity(),
        };
        build_policy(cfg, c.app, &trace, c.policy, new)?;
    }
    Ok(start.elapsed())
}

/// FNV-1a over each cell's `SimStats` JSON, in grid order.
pub fn digest(stats: &[Option<SimStats>]) -> u64 {
    let mut text = String::new();
    for s in stats {
        match s {
            Some(s) => text.push_str(&s.to_json().to_string()),
            None => text.push_str("failed"),
        }
        text.push('\n');
    }
    fnv1a(text.as_bytes())
}

/// Checks a clean cell's statistics against accounting identities that
/// hold whatever the policy decides: every op of the trace completes,
/// every L1 miss is an L2 lookup, every L2 miss a walk, and residency
/// never exceeds capacity.
pub fn check_cell(cell: &Cell, ops: u64, s: &SimStats) -> Result<(), String> {
    let t = &s.tlb;
    let d = &s.driver;
    let migrated = d.faults_serviced + d.prefetched_pages;
    let checks = [
        (s.mem_accesses == ops, "mem_accesses != trace ops"),
        (t.l1_hits + t.l1_misses >= ops, "fewer L1 lookups than ops"),
        (
            t.l2_hits + t.l2_misses == t.l1_misses,
            "L2 lookups != L1 misses",
        ),
        (s.walks == t.l2_misses, "walks != L2 misses"),
        (s.walk_hits <= s.walks, "walk hits > walks"),
        (d.evictions <= migrated, "more evictions than migrations"),
        (
            migrated - d.evictions.min(migrated) <= cell.capacity(),
            "residency above capacity",
        ),
        (!s.resilience.any(), "resilience counters on a clean run"),
    ];
    match checks.iter().find(|(ok, _)| !ok) {
        Some((_, why)) => Err(format!("{}: {why}", cell.key())),
        None => Ok(()),
    }
}

/// Host milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
