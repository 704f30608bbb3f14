//! The traced pass and the per-layer metrics.
//!
//! The traced pass rebuilds every cell from public entry points, so each
//! layer can be timed from outside: `trace_for`, the policy constructor
//! (`ideal_for` on Ideal cells), `Simulation::new` and `Simulation::run`
//! get one span each, and the policy runs inside [`Timed`], which sums
//! `(calls, ns)` per callback per cell rather than recording one span per
//! call (a grid pass makes millions of callbacks). `Tlb` and `GpuMemory`
//! are timed by replaying each app's reference order through fresh
//! instances; their shares of a run are estimates (`est`), not measured
//! self times.

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use hpe_bench::PolicyKind;
use uvm_policies::EvictionPolicy;
use uvm_sim::{trace_for, GpuMemory, Simulation, Tlb};
use uvm_types::{PageId, SimConfig, SimError, SimStats, TlbConfig};
use uvm_util::{json, Json, Rng};
use uvm_workloads::{registry, Trace};

use crate::cells::{build_policy, Cell, WithPolicy, RATES};
use crate::timed::{Acc, Callback, Timed, TimerCost};

/// A `[start, end)` interval in nanoseconds since the traced pass began.
type Span = (u64, u64);

/// Everything the traced pass recorded about one cell.
#[derive(Debug)]
pub struct CellTrace {
    /// Worker thread that ran the cell.
    pub thread: usize,
    /// `trace_for`.
    pub trace_for: Span,
    /// The policy constructor (`ideal_for` on Ideal cells).
    pub ctor: Span,
    /// `Simulation::new`.
    pub sim_new: Span,
    /// `Simulation::run`.
    pub sim_run: Span,
    /// Ops in the cell's trace.
    pub ops: u64,
    /// Per-callback accumulators, indexed by [`Callback`].
    pub acc: [Acc; 5],
    /// The run's statistics.
    pub stats: SimStats,
}

/// Output of the traced pass: per-cell traces in grid order (`None` for
/// a failed cell) and the pass's wall time.
pub struct TracedPass {
    /// Per-cell traces, grid order.
    pub cells: Vec<Option<CellTrace>>,
    /// Host wall time of the pass.
    pub wall: Duration,
}

struct TimedRun<'a> {
    cfg: &'a SimConfig,
    trace: &'a Trace,
    capacity: u64,
    origin: Instant,
}

impl WithPolicy for TimedRun<'_> {
    type Output = (Duration, Span, Span, SimStats, [Acc; 5]);
    fn call<P: EvictionPolicy>(self, policy: P, ctor: Duration) -> Result<Self::Output, SimError> {
        let a = since(self.origin);
        let sim = Simulation::new(
            self.cfg.clone(),
            self.trace,
            Timed::new(policy),
            self.capacity,
        )?;
        let b = since(self.origin);
        let out = sim.run()?;
        let c = since(self.origin);
        Ok((ctor, (a, b), (b, c), out.stats, out.policy.acc()))
    }
}

fn since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

fn trace_cell(cfg: &SimConfig, cell: &Cell, origin: Instant, thread: usize) -> Option<CellTrace> {
    let t0 = since(origin);
    let trace = trace_for(cfg, cell.app);
    let t1 = since(origin);
    let run = TimedRun {
        cfg,
        trace: &trace,
        capacity: cell.capacity(),
        origin,
    };
    let (ctor, sim_new, sim_run, stats, acc) =
        build_policy(cfg, cell.app, &trace, cell.policy, run).ok()?;
    Some(CellTrace {
        thread,
        trace_for: (t0, t1),
        ctor: (t1, t1 + ctor.as_nanos() as u64),
        sim_new,
        sim_run,
        ops: trace.total_ops(),
        acc,
        stats,
    })
}

/// Runs every cell once under [`Timed`] on `workers` threads, in an
/// order permuted by `order_seed`.
pub fn traced_pass(cfg: &SimConfig, cells: &[Cell], workers: usize, order_seed: u64) -> TracedPass {
    let mut order: Vec<usize> = (0..cells.len()).collect();
    Rng::seed_from_u64(order_seed).shuffle(&mut order);
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<CellTrace>>> = Mutex::new((0..cells.len()).map(|_| None).collect());
    let origin = Instant::now();
    thread::scope(|s| {
        for thread in 0..workers.max(1) {
            let (cursor, order, slots) = (&cursor, &order, &slots);
            s.spawn(move || {
                while let Some(&i) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    let traced = trace_cell(cfg, &cells[i], origin, thread);
                    slots.lock().expect("no worker panics holding the lock")[i] = traced;
                }
            });
        }
    });
    TracedPass {
        wall: origin.elapsed(),
        cells: slots.into_inner().expect("workers joined"),
    }
}

/// Writes the traced pass as JSONL spans: the run, one span per cell, and
/// one per layer call within it, each with its parent and cell id.
pub fn write_spans(
    path: &Path,
    workload: &str,
    cells: &[Cell],
    pass: &TracedPass,
) -> io::Result<()> {
    let mut out = String::new();
    let mut line = |v: Json| {
        out.push_str(&v.to_string());
        out.push('\n');
    };
    line(json!({
        "id": 0u64, "parent": Json::Null, "name": "run", "workload": workload,
        "start_ns": 0u64, "end_ns": pass.wall.as_nanos() as u64,
    }));
    for (i, (cell, t)) in cells.iter().zip(&pass.cells).enumerate() {
        let Some(t) = t else { continue };
        let id = 1 + 5 * i as u64;
        let mut callbacks = Json::object();
        for cb in Callback::ALL {
            let a = t.acc[cb as usize];
            callbacks.insert(cb.label(), json!({ "calls": a.calls, "ns": a.ns }));
        }
        line(json!({
            "id": id, "parent": 0u64, "name": "cell", "cell": cell.key(),
            "thread": t.thread as u64, "start_ns": t.trace_for.0, "end_ns": t.sim_run.1,
            "callbacks": callbacks,
        }));
        let ctor = if cell.policy == PolicyKind::Ideal {
            "ideal_for"
        } else {
            "policy_new"
        };
        let children = [
            ("trace_for", t.trace_for),
            (ctor, t.ctor),
            ("sim_new", t.sim_new),
            ("sim_run", t.sim_run),
        ];
        for (k, (name, (start, end))) in children.into_iter().enumerate() {
            line(json!({
                "id": id + 1 + k as u64, "parent": id, "name": name, "cell": cell.key(),
                "start_ns": start, "end_ns": end,
            }));
        }
    }
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    fs::File::create(path)?.write_all(out.as_bytes())
}

/// Host nanoseconds per call of `lookup`, `fill` and `invalidate`.
type TlbNs = [f64; 3];
/// Host nanoseconds per call of `is_resident`, `insert` and `remove`.
type MemNs = [f64; 3];

/// Per-call costs of the engine's lookup structures, from replaying each
/// app's round-robin reference order through fresh public instances.
pub struct Replay {
    /// Per app (registry order): L1 geometry, L2 geometry.
    tlb: Vec<[TlbNs; 2]>,
    /// Per app and rate: a `GpuMemory` at the cell's capacity.
    mem: Vec<[MemNs; 2]>,
    /// Pooled ns per call over every replayed call (the reported costs).
    tlb_pooled: TlbNs,
    mem_pooled: MemNs,
}

/// Calls `f` on every page; returns `(total ns, calls)`.
fn time_each(seq: &[PageId], mut f: impl FnMut(PageId)) -> (f64, f64) {
    let start = Instant::now();
    for &p in seq {
        f(black_box(p));
    }
    (start.elapsed().as_nanos() as f64, seq.len() as f64)
}

fn replay_tlb(geometry: TlbConfig, seq: &[PageId]) -> [(f64, f64); 3] {
    let mut tlb = Tlb::new(geometry);
    for &p in seq {
        if !tlb.lookup(p) {
            tlb.fill(p);
        }
    }
    let lookup = time_each(seq, |p| {
        black_box(tlb.lookup(p));
    });
    let fill = time_each(seq, |p| tlb.fill(p));
    let invalidate = time_each(seq, |p| tlb.invalidate(p));
    [lookup, fill, invalidate]
}

fn replay_memory(capacity: u64, footprint: u64, seq: &[PageId]) -> [(f64, f64); 3] {
    let mut seen = vec![false; footprint as usize];
    let mut first: Vec<PageId> = Vec::new();
    for &p in seq {
        if first.len() as u64 == capacity {
            break;
        }
        if !std::mem::replace(&mut seen[p.0 as usize], true) {
            first.push(p);
        }
    }
    let mut mem = GpuMemory::new(capacity);
    let insert = time_each(&first, |p| {
        black_box(mem.insert(p)).expect("memory holds its first `capacity` pages");
    });
    let resident = time_each(seq, |p| {
        black_box(mem.is_resident(p));
    });
    let remove = time_each(&first, |p| {
        black_box(mem.remove(p));
    });
    [resident, insert, remove]
}

impl Replay {
    /// Replays every registered app.
    pub fn measure(cfg: &SimConfig) -> Replay {
        let mut tlb = Vec::new();
        let mut mem = Vec::new();
        let mut tlb_sum = [(0.0, 0.0); 3];
        let mut mem_sum = [(0.0, 0.0); 3];
        let ns = |sums: &mut [(f64, f64); 3], r: [(f64, f64); 3]| -> [f64; 3] {
            let mut out = [0.0; 3];
            for k in 0..3 {
                sums[k].0 += r[k].0;
                sums[k].1 += r[k].1;
                out[k] = r[k].0 / r[k].1.max(1.0);
            }
            out
        };
        for app in registry::all() {
            let trace = trace_for(cfg, app);
            let seq = trace.round_robin_interleave();
            let l1 = ns(&mut tlb_sum, replay_tlb(cfg.l1_tlb, &seq));
            let l2 = ns(&mut tlb_sum, replay_tlb(cfg.l2_tlb, &seq));
            tlb.push([l1, l2]);
            let footprint = app.footprint_pages();
            mem.push(RATES.map(|r| {
                let replay = replay_memory(r.capacity_pages(footprint), footprint, &seq);
                ns(&mut mem_sum, replay)
            }));
        }
        let pooled = |s: [(f64, f64); 3]| s.map(|(t, n)| t / n.max(1.0));
        Replay {
            tlb,
            mem,
            tlb_pooled: pooled(tlb_sum),
            mem_pooled: pooled(mem_sum),
        }
    }

    fn app_index(cell: &Cell) -> usize {
        registry::all()
            .iter()
            .position(|a| a.abbr() == cell.app.abbr())
            .expect("cells come from the registry")
    }

    /// Estimated `Tlb` nanoseconds of a run: replayed ns per call times
    /// the call counts its `SimStats` imply.
    fn tlb_est_ns(&self, cfg: &SimConfig, cell: &Cell, s: &SimStats) -> f64 {
        let [l1, l2] = self.tlb[Self::app_index(cell)];
        let t = &s.tlb;
        let ev = s.driver.evictions as f64;
        (t.l1_hits + t.l1_misses) as f64 * l1[0]
            + t.l1_misses as f64 * l2[0]
            + (t.l2_hits + s.walk_hits) as f64 * l1[1]
            + s.walk_hits as f64 * l2[1]
            + ev * f64::from(cfg.n_sms) * l1[2]
            + ev * l2[2]
    }

    /// Estimated `GpuMemory` nanoseconds of a run (two residency checks
    /// per walk, one insert per migrated page, one remove per eviction).
    fn mem_est_ns(&self, cell: &Cell, s: &SimStats) -> f64 {
        let rate = RATES.iter().position(|&r| r == cell.rate).unwrap_or(0);
        let m = self.mem[Self::app_index(cell)][rate];
        let d = &s.driver;
        2.0 * s.walks as f64 * m[0]
            + (d.faults_serviced + d.prefetched_pages) as f64 * m[1]
            + d.evictions as f64 * m[2]
    }
}

/// The metric prefix of a policy's layer.
pub fn layer_of(kind: PolicyKind) -> &'static str {
    match kind {
        PolicyKind::Lru => "policies.lru",
        PolicyKind::Random => "policies.random",
        PolicyKind::Lfu => "policies.lfu",
        PolicyKind::Rrip => "policies.rrip",
        PolicyKind::ClockPro => "policies.clockpro",
        PolicyKind::Ideal => "policies.ideal",
        PolicyKind::Hpe => "core.hpe",
    }
}

/// Measurements taken outside the traced pass that per-layer metrics
/// need.
pub struct Context<'a> {
    /// Simulator configuration.
    pub cfg: &'a SimConfig,
    /// Calibrated cost of a span.
    pub timer: TimerCost,
    /// Structure replays.
    pub replay: &'a Replay,
    /// Median untraced pass wall time, seconds.
    pub untraced_pass_s: f64,
    /// One-worker campaign pass over one two-worker pass, halved.
    pub parallel_efficiency: f64,
}

/// Computes every per-layer metric from a traced pass.
pub fn metrics(ctx: &Context, cells: &[Cell], pass: &TracedPass) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let ms = |ns: f64| ns / 1e6;
    let dur = |s: Span| (s.1 - s.0) as f64;
    // Corrected callback ns: what each span reported minus what an empty
    // span reports.
    let net = |a: Acc| (a.ns as f64 - a.calls as f64 * ctx.timer.inside_ns).max(0.0);

    let mut totals = Totals::default();
    let mut by_policy: BTreeMap<&str, PolicyTotals> = BTreeMap::new();
    for kind in PolicyKind::ALL {
        by_policy.insert(layer_of(kind), PolicyTotals::default());
    }
    for (cell, t) in cells.iter().zip(&pass.cells) {
        let Some(t) = t else { continue };
        let p = by_policy
            .get_mut(layer_of(cell.policy))
            .expect("every policy has a layer");
        for (k, a) in t.acc.iter().enumerate() {
            p.acc[k].merge(*a);
        }
        p.ctor_ns += dur(t.ctor);
        p.stats.push(&t.stats);
        totals.trace_ns += dur(t.trace_for);
        totals.ops += t.ops;
        totals.new_ns += dur(t.sim_new);
        totals.run_ns += dur(t.sim_run);
        totals.callbacks_ns += t.acc.iter().map(|&a| net(a)).sum::<f64>();
        totals.calls += t.acc.iter().map(|a| a.calls).sum::<u64>();
        totals.tlb_est_ns += ctx.replay.tlb_est_ns(ctx.cfg, cell, &t.stats);
        totals.mem_est_ns += ctx.replay.mem_est_ns(cell, &t.stats);
        totals.stats.push(&t.stats);
    }

    m.insert("workloads.trace_build.ms".into(), ms(totals.trace_ns));
    m.insert("workloads.trace.ops".into(), totals.ops as f64);
    for (layer, p) in &by_policy {
        let mut cbs = vec![
            Callback::SelectVictim,
            Callback::OnFault,
            Callback::OnWalkHit,
        ];
        let s = &p.stats;
        m.insert(
            format!("{layer}.comparisons_per_selection"),
            ratio(s.comparisons, s.selections),
        );
        if *layer == "core.hpe" {
            cbs.push(Callback::OnMemoryFull);
            m.insert(format!("{layer}.hir_flushes"), s.hir_flushes as f64);
            m.insert(
                format!("{layer}.hir_entries_per_flush"),
                ratio(s.hir_entries, s.hir_flushes),
            );
            m.insert(format!("{layer}.strategy_switches"), s.switches as f64);
        } else {
            cbs.push(Callback::OnAccess);
            let calls: u64 = p.acc.iter().map(|a| a.calls).sum();
            m.insert(format!("{layer}.calls"), calls as f64);
        }
        for cb in cbs {
            m.insert(
                format!("{layer}.{}.ms", cb.label()),
                ms(net(p.acc[cb as usize])),
            );
        }
    }
    m.insert(
        "policies.ideal.oracle_build.ms".into(),
        ms(by_policy["policies.ideal"].ctor_ns),
    );

    let s = &totals.stats;
    let engine_ns =
        totals.run_ns - totals.callbacks_ns - totals.calls as f64 * ctx.timer.outside_ns;
    m.insert("sim.new.ms".into(), ms(totals.new_ns));
    m.insert("sim.engine.self_ms".into(), ms(engine_ns));
    m.insert(
        "sim.engine.ns_per_access".into(),
        engine_ns / (s.accesses.max(1)) as f64,
    );
    m.insert("sim.accesses".into(), s.accesses as f64);
    m.insert("sim.walks".into(), s.walks as f64);
    m.insert("sim.faults".into(), s.faults as f64);
    m.insert("sim.evictions".into(), s.evictions as f64);
    m.insert("sim.wrong_evictions".into(), s.wrong_evictions as f64);
    m.insert("sim.tlb.l1_hit_rate".into(), ratio(s.l1_hits, s.l1_lookups));
    m.insert("sim.tlb.l2_hit_rate".into(), ratio(s.l2_hits, s.l2_lookups));
    let [lookup, fill, invalidate] = ctx.replay.tlb_pooled;
    m.insert("sim.tlb.lookup_ns".into(), lookup);
    m.insert("sim.tlb.fill_ns".into(), fill);
    m.insert("sim.tlb.invalidate_ns".into(), invalidate);
    m.insert("sim.tlb.est_ms".into(), ms(totals.tlb_est_ns));
    let [resident, insert, remove] = ctx.replay.mem_pooled;
    m.insert("sim.memory.is_resident_ns".into(), resident);
    m.insert("sim.memory.insert_ns".into(), insert);
    m.insert("sim.memory.remove_ns".into(), remove);
    m.insert("sim.memory.est_ms".into(), ms(totals.mem_est_ns));
    m.insert(
        "bench.campaign.parallel_efficiency".into(),
        ctx.parallel_efficiency,
    );
    m.insert("trace.timer_ns".into(), ctx.timer.outside_ns);
    m.insert(
        "trace.overhead_frac".into(),
        pass.wall.as_secs_f64() / ctx.untraced_pass_s - 1.0,
    );
    m
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Summed `SimStats` counters.
#[derive(Default)]
struct Counts {
    accesses: u64,
    walks: u64,
    faults: u64,
    evictions: u64,
    wrong_evictions: u64,
    l1_hits: u64,
    l1_lookups: u64,
    l2_hits: u64,
    l2_lookups: u64,
    selections: u64,
    comparisons: u64,
    hir_flushes: u64,
    hir_entries: u64,
    switches: u64,
}

impl Counts {
    fn push(&mut self, s: &SimStats) {
        self.accesses += s.mem_accesses;
        self.walks += s.walks;
        self.faults += s.driver.faults_serviced;
        self.evictions += s.driver.evictions;
        self.wrong_evictions += s.driver.wrong_evictions;
        self.l1_hits += s.tlb.l1_hits;
        self.l1_lookups += s.tlb.l1_hits + s.tlb.l1_misses;
        self.l2_hits += s.tlb.l2_hits;
        self.l2_lookups += s.tlb.l2_hits + s.tlb.l2_misses;
        self.selections += s.policy.selections;
        self.comparisons += s.policy.search_comparisons;
        self.hir_flushes += s.policy.hir_flushes;
        self.hir_entries += s.policy.hir_entries_transferred;
        self.switches += s.policy.strategy_switches;
    }
}

#[derive(Default)]
struct PolicyTotals {
    acc: [Acc; 5],
    ctor_ns: f64,
    stats: Counts,
}

#[derive(Default)]
struct Totals {
    trace_ns: f64,
    ops: u64,
    new_ns: f64,
    run_ns: f64,
    callbacks_ns: f64,
    calls: u64,
    tlb_est_ns: f64,
    mem_est_ns: f64,
    stats: Counts,
}
