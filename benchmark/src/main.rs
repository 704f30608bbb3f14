//! Host-time benchmark of the HPE reproduction.
//!
//! ```text
//! hpe-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--record FILE]
//! hpe-benchmark --smoke
//! hpe-benchmark compare A.jsonl B.jsonl
//! ```
//!
//! A workload run prints every metric by name with its unit, then, as the
//! last line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics of
//! `BENCHMARK.json` untraced, its per-layer metrics with `--trace 1`.
//! `--record FILE` appends the full run record (samples, digest,
//! `paper_err_*`) as one JSON line, which `compare` reads.
//!
//! Exit codes: 0 correct, 1 a correctness check failed (or `compare`
//! found a regression), 2 usage or I/O error.

mod cells;
mod compare;
mod layers;
mod run;
mod spec;
mod stats;
mod timed;

use std::collections::BTreeMap;
use std::env;
use std::fs::OpenOptions;
use std::io::Write;
use std::process::ExitCode;

use uvm_util::{json, Json};

use cells::Workload;
use run::{record_json, run, Options, Report};
use spec::{Metric, Spec};

const USAGE: &str = "usage: hpe-benchmark --workload NAME [--seed N] [--seconds S] \
                     [--trace 0|1] [--record FILE]\n       hpe-benchmark --smoke\n       \
                     hpe-benchmark compare A.jsonl B.jsonl";

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare::compare(&args[1], &args[2]),
        Some("--smoke") if args.len() == 1 => smoke(),
        _ => parse(&args).and_then(|(opts, record)| bench(&opts, record.as_deref())),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn parse(args: &[String]) -> Result<(Options, Option<String>), String> {
    let mut opts = Options {
        workload: Workload::GridSerial,
        seed: 2019,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut workload = None;
    let mut record = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload '{value}'"))?)
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds > 0.0 && opts.seconds <= 120.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--record" => record = Some(value.clone()),
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok((opts, record))
}

/// Runs one workload, prints it, and returns whether it was correct.
fn bench(opts: &Options, record: Option<&str>) -> Result<bool, String> {
    let spec = Spec::load()?;
    let report = run(opts)?;
    print_report(&spec, &report);
    let declared = if opts.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let line = result_line(&report, declared)?;
    if let Some(path) = record {
        let rec = record_json(&report, opts.seed, opts.trace);
        OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{rec}"))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{line}");
    Ok(report.correct())
}

/// The final stdout line: exactly the declared metrics, each with its
/// unit. A declared metric the run did not compute is an error.
fn result_line(report: &Report, declared: &[Metric]) -> Result<Json, String> {
    let mut metrics = Json::object();
    for m in declared {
        let v = report
            .metrics
            .get(&m.name)
            .ok_or(format!("metric {} was not computed", m.name))?;
        metrics.insert(
            m.name.as_str(),
            json!({ "value": *v, "unit": m.unit.as_str() }),
        );
    }
    Ok(json!({
        "correct": report.correct(),
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }))
}

fn print_report(spec: &Spec, r: &Report) {
    println!(
        "== {}: {} timed passes, digest {:016x}, {} of {} cells failed",
        r.workload.name(),
        r.passes,
        r.digest,
        r.failed,
        r.attempted
    );
    let samples: BTreeMap<&str, &[f64]> = BTreeMap::from([
        ("pass_s", &r.pass_samples[..]),
        ("setup_s", &r.setup_samples[..]),
    ]);
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        let Some(v) = r.metrics.get(&m.name) else {
            continue;
        };
        let mut line = format!("{:<40} {v:>16.6} {}", m.name, m.unit);
        if let Some(xs) = samples.get(m.name.as_str()) {
            let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let med = stats::median(xs);
            line.push_str(&format!(
                "  (n={}, min {min:.6}, median {med:.6}, max {max:.6})",
                xs.len()
            ));
        }
        println!("{line}");
    }
    if let Some([e75, e50]) = r.paper_err {
        println!("{:<40} {e75:>16.6} ratio  (exact)", "paper_err_75");
        println!("{:<40} {e50:>16.6} ratio  (exact)", "paper_err_50");
    }
    let frac = r.failed as f64 / r.attempted.max(1) as f64;
    println!("{:<40} {frac:>16.6} ratio", "failed_frac");
    for p in &r.problems {
        eprintln!("FAILED: {p}");
    }
}

/// One pass of every workload, traced, with every check; the two grid
/// workloads must also agree with each other.
fn smoke() -> Result<bool, String> {
    let spec = Spec::load()?;
    let mut ok = true;
    let mut grid_digests = Vec::new();
    for w in Workload::ALL {
        let opts = Options {
            workload: w,
            seed: 2019,
            seconds: 0.0,
            trace: true,
            smoke: true,
        };
        let report = run(&opts)?;
        print_report(&spec, &report);
        if let Some(m) = spec
            .per_layer
            .iter()
            .find(|m| !report.metrics.contains_key(&m.name))
        {
            return Err(format!("{}: per-layer metric {} missing", w.name(), m.name));
        }
        ok &= report.correct();
        if w.is_grid() {
            grid_digests.push(report.digest);
        }
    }
    if grid_digests.windows(2).any(|d| d[0] != d[1]) {
        eprintln!("FAILED: grid-serial and grid-parallel digests differ");
        ok = false;
    }
    println!("smoke: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_passes_every_check() {
        assert_eq!(smoke(), Ok(true));
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let (opts, record) = parse(&args("--workload hpe-cells --seed 7 --trace 1")).unwrap();
        assert_eq!(opts.workload, Workload::HpeCells);
        assert_eq!((opts.seed, opts.trace, record), (7, true, None));
        for bad in [
            "",
            "--workload nope",
            "--workload hpe-cells --trace 2",
            "--workload hpe-cells --seconds 0",
            "--workload hpe-cells --seed",
            "--workload hpe-cells --frobnicate 1",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
