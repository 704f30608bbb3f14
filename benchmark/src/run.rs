//! One benchmark run of one workload: an untimed warm-up pass, the setup
//! passes, the timed passes, the correctness gate and, when traced, the
//! per-layer pass.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use hpe_bench::perf::{latest, BenchSnapshot, SIM_TOLERANCE};
use hpe_bench::{bench_config, geomean, PolicyKind};
use uvm_sim::trace_for;
use uvm_types::{SimConfig, SimStats};
use uvm_util::{Rng, ToJson};
use uvm_workloads::registry;

use crate::cells::{check_cell, digest, run_grid, run_pass, setup_pass, Cell, Workload, RATES};
use crate::layers::{self, Context, Replay};
use crate::stats::{median, percentile};
use crate::timed::calibrate;

/// Setup passes per run; `setup_s` is their median.
const SETUP_PASSES: usize = 9;
/// Timed cell samples a run collects at least, so that `cell_p99_ms` has
/// ten samples beyond it.
const MIN_CELL_SAMPLES: usize = 1000;
/// The paper's geomean HPE-over-LRU speedups (Fig. 10) at 75% and 50%.
const PAPER_SPEEDUP: [f64; 2] = [1.34, 1.16];

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Permutes the dispatch order of every pass, nothing else.
    pub seed: u64,
    /// Timed passes continue until this many seconds have passed.
    pub seconds: f64,
    /// Also run the traced pass and compute per-layer metrics.
    pub trace: bool,
    /// One setup pass and one timed pass, no warm-up; always traced.
    pub smoke: bool,
}

/// What a run measured and found.
#[derive(Debug)]
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// Cells run (every pass, traced and campaign passes included).
    pub attempted: u64,
    /// Failed cells, cells breaking an accounting identity, and
    /// disagreements (digest mismatches, snapshot mismatches).
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
    /// Digest of the first pass's `SimStats`.
    pub digest: u64,
    /// Timed passes.
    pub passes: usize,
    /// Every metric computed, by name.
    pub metrics: BTreeMap<String, f64>,
    /// Raw pass and setup times, seconds.
    pub pass_samples: Vec<f64>,
    /// Setup-pass times, seconds.
    pub setup_samples: Vec<f64>,
    /// Grid workloads: `|speedup - paper| / paper` at 75% and 50%.
    pub paper_err: Option<[f64; 2]>,
}

impl Report {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// The correctness gate: every pass must produce the same `SimStats`,
/// and every cell must satisfy the accounting identities.
struct Gate<'a> {
    cells: &'a [Cell],
    ops: Vec<u64>,
    reference: Option<Vec<Option<SimStats>>>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Gate<'_> {
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    fn pass(&mut self, label: &str, stats: &[Option<SimStats>]) {
        self.attempted += stats.len() as u64;
        for (i, (cell, s)) in self.cells.iter().zip(stats).enumerate() {
            match s {
                None => self.fail(format!("{label}: {} failed", cell.key())),
                Some(s) => {
                    if let Err(e) = check_cell(cell, self.ops[i], s) {
                        self.fail(format!("{label}: {e}"));
                    }
                }
            }
        }
        let Some(reference) = &self.reference else {
            self.reference = Some(stats.to_vec());
            return;
        };
        if digest(reference) != digest(stats) {
            let at = reference.iter().zip(stats).position(|(a, b)| a != b);
            let key = at.map_or_else(String::new, |i| self.cells[i].key());
            self.fail(format!(
                "{label}: SimStats differ from the first pass at {key}"
            ));
        }
    }
}

/// Runs one workload.
pub fn run(opts: &Options) -> Result<Report, String> {
    let cfg = bench_config();
    let w = opts.workload;
    let cells = w.cells();
    let ops_by_app: BTreeMap<&str, u64> = registry::all()
        .iter()
        .map(|a| (a.abbr(), trace_for(&cfg, a).total_ops()))
        .collect();
    let mut gate = Gate {
        cells: &cells,
        ops: cells.iter().map(|c| ops_by_app[c.app.abbr()]).collect(),
        reference: None,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    let mut order_seeds = Rng::seed_from_u64(opts.seed);

    if !opts.smoke {
        let warm = run_pass(w, &cfg, &cells, order_seeds.next_u64());
        gate.pass("warm-up", &warm.stats);
    }
    let mut setup_samples = Vec::new();
    for _ in 0..if opts.smoke { 1 } else { SETUP_PASSES } {
        let t = setup_pass(&cfg, &cells).map_err(|e| format!("setup pass: {e}"))?;
        setup_samples.push(t.as_secs_f64());
    }
    let min_passes = if opts.smoke {
        1
    } else {
        MIN_CELL_SAMPLES.div_ceil(cells.len())
    };
    let mut passes = Vec::new();
    let timed = Instant::now();
    while passes.len() < min_passes || (!opts.smoke && timed.elapsed().as_secs_f64() < opts.seconds)
    {
        let pass = run_pass(w, &cfg, &cells, order_seeds.next_u64());
        gate.pass(&format!("pass {}", passes.len() + 1), &pass.stats);
        passes.push((pass.wall.as_secs_f64(), pass.cell_ms));
    }
    let pass_samples: Vec<f64> = passes.iter().map(|p| p.0).collect();

    let reference = gate.reference.clone().unwrap_or_default();
    let mut metrics = BTreeMap::new();
    // Every cell is deterministic, so interference from other tenants of
    // the host can only add time: the fastest pass, and the cell times of
    // the fastest passes that give enough samples, are the steadiest
    // estimates. On a shared 2-core host, ten grid-serial runs spread 17%
    // by their median pass and 8% by their fastest.
    passes.sort_by(|a, b| a.0.total_cmp(&b.0));
    let pass_s = passes[0].0;
    let mut cell_ms = Vec::new();
    for (_, ms) in &passes {
        if cell_ms.len() >= MIN_CELL_SAMPLES {
            break;
        }
        cell_ms.extend(ms);
    }
    let accesses: u64 = reference.iter().flatten().map(|s| s.mem_accesses).sum();
    metrics.insert("pass_s".to_string(), pass_s);
    metrics.insert("accesses_per_s".to_string(), accesses as f64 / pass_s);
    for (name, p) in [("cell_p50_ms", 50.0), ("cell_p99_ms", 99.0)] {
        match percentile(&cell_ms, p) {
            Ok(v) => {
                metrics.insert(name.to_string(), v);
            }
            Err(e) if opts.smoke => eprintln!("{}: {name} not reported: {e}", w.name()),
            Err(e) => return Err(format!("{name}: {e}")),
        }
    }
    metrics.insert("setup_s".to_string(), median(&setup_samples));
    metrics.insert("peak_rss_mb".to_string(), peak_rss_mib()?);

    let paper_err = if w.is_grid() {
        let (problems, err) = grid_check(&cells, &reference);
        for p in problems {
            gate.fail(p);
        }
        Some(err)
    } else {
        None
    };

    if opts.trace || opts.smoke {
        let typical_pass_s = median(&pass_samples);
        let layer = traced(&cfg, w, &cells, &mut gate, &mut order_seeds, typical_pass_s)?;
        metrics.extend(layer);
    }

    Ok(Report {
        workload: w,
        attempted: gate.attempted,
        failed: gate.failed,
        problems: gate.problems,
        digest: digest(&reference),
        passes: pass_samples.len(),
        metrics,
        pass_samples,
        setup_samples,
        paper_err,
    })
}

/// The traced pass, the campaign-scaling passes, the structure replays,
/// and the per-layer metrics they give.
fn traced(
    cfg: &SimConfig,
    w: Workload,
    cells: &[Cell],
    gate: &mut Gate,
    order_seeds: &mut Rng,
    untraced_pass_s: f64,
) -> Result<BTreeMap<String, f64>, String> {
    let timer = calibrate();
    let pass = layers::traced_pass(cfg, cells, w.workers(), order_seeds.next_u64());
    let stats: Vec<Option<SimStats>> = pass
        .cells
        .iter()
        .map(|c| c.as_ref().map(|c| c.stats.clone()))
        .collect();
    gate.pass("traced pass", &stats);
    let spans = out_dir().join(format!("spans-{}.jsonl", w.name()));
    layers::write_spans(&spans, w.name(), cells, &pass)
        .map_err(|e| format!("writing {}: {e}", spans.display()))?;

    // The same cells through `run_campaign` on one and on two workers:
    // the host's parallel efficiency, and a worker-count byte-identity
    // check against the workload's own passes.
    let spec = w.campaign();
    let one = run_grid(cfg, &spec, 1, order_seeds.next_u64());
    gate.pass("1-worker campaign", &one.stats);
    let two = run_grid(cfg, &spec, 2, order_seeds.next_u64());
    gate.pass("2-worker campaign", &two.stats);
    let ctx = Context {
        cfg,
        timer,
        replay: &Replay::measure(cfg),
        untraced_pass_s,
        parallel_efficiency: one.wall.as_secs_f64() / (2.0 * two.wall.as_secs_f64()),
    };
    Ok(layers::metrics(&ctx, cells, &pass))
}

/// Where spans and run records go: `target/benchmark/` of the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../target/benchmark"))
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| format!("VmHWM: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

/// Checks a grid's per-policy geomean slowdowns against Ideal against the
/// latest `benchmarks/BENCH_*.json`, and measures the HPE-over-LRU
/// speedup against the paper's. Returns the problems found and
/// `paper_err` at 75% and 50%.
fn grid_check(cells: &[Cell], stats: &[Option<SimStats>]) -> (Vec<String>, [f64; 2]) {
    let cycles = |app: &str, kind: PolicyKind, rate: usize| -> Option<f64> {
        cells
            .iter()
            .zip(stats)
            .find(|(c, _)| c.app.abbr() == app && c.policy == kind && c.rate == RATES[rate])
            .and_then(|(_, s)| s.as_ref())
            .map(|s| s.cycles as f64)
    };
    let geo_ratio = |num: PolicyKind, den: PolicyKind, rate: usize| -> f64 {
        let ratios: Vec<f64> = registry::all()
            .iter()
            .filter_map(|a| Some(cycles(a.abbr(), num, rate)? / cycles(a.abbr(), den, rate)?))
            .collect();
        geomean(&ratios)
    };
    let paper_err = [0, 1].map(|r| {
        let speedup = geo_ratio(PolicyKind::Lru, PolicyKind::Hpe, r);
        (speedup - PAPER_SPEEDUP[r]).abs() / PAPER_SPEEDUP[r]
    });

    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../benchmarks"));
    let snapshot = match latest(&dir).map(|p| BenchSnapshot::load(&p)) {
        Some(Ok(s)) => s,
        Some(Err(e)) => return (vec![e], paper_err),
        None => {
            return (
                vec![format!("no BENCH_*.json in {}", dir.display())],
                paper_err,
            )
        }
    };
    let mut problems = Vec::new();
    for base in &snapshot.policies {
        let Some(kind) = PolicyKind::parse(&base.policy) else {
            problems.push(format!("{}: unknown policy {}", snapshot.id, base.policy));
            continue;
        };
        for (r, want) in [base.slowdown_75, base.slowdown_50].into_iter().enumerate() {
            let got = geo_ratio(kind, PolicyKind::Ideal, r);
            if (got / want - 1.0).abs() > SIM_TOLERANCE.warn {
                problems.push(format!(
                    "{} slowdown at {} is {got}, {} pins {want}",
                    base.policy,
                    RATES[r].label(),
                    snapshot.id
                ));
            }
        }
    }
    (problems, paper_err)
}

/// The run record appended by `--record`: everything `compare` reads.
pub fn record_json(r: &Report, seed: u64, trace: bool) -> uvm_util::Json {
    let mut metrics = uvm_util::Json::object();
    for (k, v) in &r.metrics {
        metrics.insert(k.as_str(), v.to_json());
    }
    let mut rec = uvm_util::json!({
        "workload": r.workload.name(),
        "seed": seed,
        "trace": trace,
        "passes": r.passes as u64,
        "digest": format!("{:016x}", r.digest),
        "correct": r.correct(),
        "attempted": r.attempted,
        "failed": r.failed,
        "problems": r.problems.clone(),
        "pass_s_samples": r.pass_samples.clone(),
        "setup_s_samples": r.setup_samples.clone(),
        "metrics": metrics,
    });
    if let Some([e75, e50]) = r.paper_err {
        rec.insert("paper_err_75", e75.to_json());
        rec.insert("paper_err_50", e50.to_json());
    }
    rec
}
