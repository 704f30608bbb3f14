//! `compare A.jsonl B.jsonl`: two sets of run records (one JSON object
//! per line, as `--record` appends them), metric by metric and workload
//! by workload.
//!
//! Each timed end-to-end metric gets one verdict: within its bound, worse
//! by more than its bound, or unresolved when either side's quartile
//! spread is wider than the bound (unless every run of B beats every run
//! of A). A metric that repeats exactly across A's runs is a count: B
//! must repeat it exactly. Digests, `paper_err_*` and failures are
//! checked for exact agreement.

use std::collections::BTreeMap;
use std::fs;

use uvm_util::Json;

use crate::spec::{Better, Metric, Spec};
use crate::stats::{median, quartiles};

/// One side's records, by workload.
#[derive(Default)]
struct Side {
    /// Metric name -> one value per run.
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// Workload -> digests seen.
    digests: BTreeMap<String, Vec<String>>,
    /// Workload -> exact simulation-accuracy values seen.
    exact: BTreeMap<String, Vec<String>>,
    attempted: u64,
    failed: u64,
}

fn load(path: &str, spec: &Spec) -> Result<Side, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut side = Side::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = rec["workload"]
            .as_str()
            .ok_or(format!("{path}:{}: no workload", n + 1))?
            .to_string();
        // Untraced runs give the end-to-end metrics, traced runs the
        // per-layer ones.
        let traced = rec["trace"].as_bool().unwrap_or(false);
        let wanted = if traced {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        let values = side.values.entry(workload.clone()).or_default();
        for m in wanted {
            if let Some(v) = rec["metrics"][m.name.as_str()].as_f64() {
                values.entry(m.name.clone()).or_default().push(v);
            }
        }
        if let Some(d) = rec["digest"].as_str() {
            side.digests
                .entry(workload.clone())
                .or_default()
                .push(d.to_string());
        }
        if !rec["paper_err_75"].is_null() {
            let exact = format!("{} {}", rec["paper_err_75"], rec["paper_err_50"]);
            side.exact.entry(workload).or_default().push(exact);
        }
        side.attempted += rec["attempted"].as_u64().unwrap_or(0);
        side.failed += rec["failed"].as_u64().unwrap_or(0);
    }
    Ok(side)
}

/// Outcome of one metric comparison.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    Within,
    Better,
    Worse,
    Unresolved,
    Equal,
    Differs,
    Info,
}

impl Verdict {
    fn label(&self) -> &'static str {
        match self {
            Verdict::Within => "within bound",
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
            Verdict::Equal => "equal",
            Verdict::Differs => "DIFFERS",
            Verdict::Info => "-",
        }
    }

    fn is_failure(&self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Differs)
    }
}

fn verdict(m: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let repeats = |xs: &[f64]| xs.len() > 1 && xs.iter().all(|&x| x == xs[0]);
    if repeats(a) {
        return if b.iter().all(|&x| x == a[0]) {
            Verdict::Equal
        } else {
            Verdict::Differs
        };
    }
    let Some(bound) = m.bound else {
        return Verdict::Info;
    };
    let (Some(qa), Some(qb)) = (quartiles(a), quartiles(b)) else {
        return Verdict::Unresolved;
    };
    let base = median(a);
    let spread = (qa[2] - qa[0]).max(qb[2] - qb[0]) / base.abs();
    let sign = match m.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = sign * (median(b) - base) / base.abs();
    let b_beats_all_a = b.iter().all(|&y| a.iter().all(|&x| sign * (y - x) < 0.0));
    if b_beats_all_a {
        Verdict::Better
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

fn summary(xs: &[f64]) -> String {
    match quartiles(xs) {
        Some([q1, q2, q3]) => format!("{q2:>12.6} [{q1:.6}, {q3:.6}] n={}", xs.len()),
        None => format!("{:>12.6} n={}", median(xs), xs.len()),
    }
}

/// Runs the comparison and prints it; `Ok(true)` when nothing is worse
/// or differs.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let spec = Spec::load()?;
    let a = load(a_path, &spec)?;
    let b = load(b_path, &spec)?;
    let mut ok = true;
    println!("A = {a_path}\nB = {b_path}");
    println!(
        "{:<14} {:<38} {:>44} {:>44}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]"
    );
    for w in &spec.workloads {
        let (Some(va), Some(vb)) = (a.values.get(w), b.values.get(w)) else {
            continue;
        };
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            let (Some(xa), Some(xb)) = (va.get(&m.name), vb.get(&m.name)) else {
                continue;
            };
            let v = verdict(m, xa, xb);
            ok &= !v.is_failure();
            println!(
                "{w:<14} {:<38} {:>44} {:>44}  {}",
                format!("{} ({})", m.name, m.unit),
                summary(xa),
                summary(xb),
                v.label()
            );
        }
    }
    for (what, map_a, map_b) in [
        ("digest", &a.digests, &b.digests),
        ("paper_err", &a.exact, &b.exact),
    ] {
        for (w, seen) in map_a {
            let all: Vec<&String> = seen
                .iter()
                .chain(map_b.get(w).into_iter().flatten())
                .collect();
            let same = all.iter().all(|d| *d == all[0]);
            ok &= same;
            println!(
                "{w:<14} {what}: {}",
                if same {
                    all[0].as_str()
                } else {
                    "DIFFERS across runs"
                }
            );
        }
    }
    let grids: Vec<&String> = ["grid-serial", "grid-parallel"]
        .iter()
        .filter_map(|w| a.digests.get(*w).and_then(|d| d.first()))
        .collect();
    if grids.len() == 2 && grids[0] != grids[1] {
        ok = false;
        println!("grid-serial and grid-parallel digests DIFFER");
    }
    for (name, side) in [("A", &a), ("B", &b)] {
        let frac = side.failed as f64 / side.attempted.max(1) as f64;
        ok &= side.failed == 0;
        println!(
            "failed_frac {name}: {frac} ({} of {} cells)",
            side.failed, side.attempted
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: Option<f64>) -> Metric {
        Metric {
            name: "m".into(),
            unit: "s".into(),
            better,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let lower = metric(Better::Lower, Some(0.1));
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(
            verdict(&lower, &a, &[1.03, 1.04, 1.02, 1.05, 1.04]),
            Verdict::Within
        );
        assert_eq!(
            verdict(&lower, &a, &[1.2, 1.21, 1.22, 1.19, 1.2]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&lower, &a, &[0.5, 0.51, 0.5, 0.52, 0.5]),
            Verdict::Better
        );
        let noisy = [1.0, 1.5, 0.7, 1.3, 0.9];
        assert_eq!(verdict(&lower, &a, &noisy), Verdict::Unresolved);
        let higher = metric(Better::Higher, Some(0.1));
        assert_eq!(
            verdict(&higher, &a, &[1.2, 1.21, 1.22, 1.19, 1.2]),
            Verdict::Better
        );
        assert_eq!(
            verdict(&higher, &a, &[0.5, 0.51, 0.5, 0.52, 0.5]),
            Verdict::Worse
        );
    }

    #[test]
    fn repeated_values_are_counts_that_must_match() {
        let layer = metric(Better::Lower, None);
        assert_eq!(
            verdict(&layer, &[7.0, 7.0], &[7.0, 7.0, 7.0]),
            Verdict::Equal
        );
        assert_eq!(verdict(&layer, &[7.0, 7.0], &[7.0, 8.0]), Verdict::Differs);
        assert_eq!(verdict(&layer, &[1.0, 2.0], &[3.0, 4.0]), Verdict::Info);
    }
}
