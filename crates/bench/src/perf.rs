//! The pinned perf trajectory: `BENCH_*.json` snapshots.
//!
//! Each snapshot records per-policy geomean slowdowns versus the offline
//! Ideal (Belady-MIN) policy at both studied oversubscription rates,
//! over the full 23-app grid. These are *deterministic*: any drift
//! between snapshots means simulator or policy behavior changed. The
//! `benchmark/` package's smoke (`hpe-benchmark --smoke`, run by
//! `scripts/verify.sh`) fails when the latest snapshot's slowdowns drift
//! by more than [`SIM_TOLERANCE`]; host time is gated there too, by
//! `hpe-benchmark compare` and its measured noise bands.
//!
//! Snapshots live in-repo under `benchmarks/BENCH_NNNN.json`, one per
//! PR (`hpe-lab bench-snapshot`). Snapshots up to BENCH_0005 also carry
//! a `wall_clocks` array from an earlier schema; parsing ignores it
//! (`BenchSnapshot` is the one derived type whose field list ends in `..`).

use std::fs;
use std::path::{Path, PathBuf};

use uvm_util::{FromJson, Json};
use uvm_workloads::registry;

use crate::report::geomean;
use crate::runner::PolicyKind;
use crate::{bench_config, campaign};

/// Version tag of the `BENCH_*.json` schema.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Seed recorded in (and used to collect) every snapshot, so two
/// snapshots are comparable by construction.
pub const BENCH_SEED: u64 = 2019;

/// How far the deterministic simulation metrics may drift from the
/// latest snapshot before the benchmark smoke fails.
pub const SIM_TOLERANCE: Tolerance = Tolerance { warn: 0.005 };

/// A drift threshold on a snapshot metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Largest allowed fractional change from the snapshot value.
    pub warn: f64,
}

/// One policy's geomean slowdowns versus Ideal.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyPerf {
    /// Policy label ("LRU", "HPE", …).
    pub policy: String,
    /// Geomean of `cycles(policy) / cycles(Ideal)` over the app set at
    /// 75% oversubscription.
    pub slowdown_75: f64,
    /// Same at 50% oversubscription.
    pub slowdown_50: f64,
}

uvm_util::impl_json_struct!(PolicyPerf {
    policy = String::new(),
    slowdown_75 = 0.0,
    slowdown_50 = 0.0,
});

/// One point of the perf trajectory: the `BENCH_NNNN.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSnapshot {
    /// Schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema: u64,
    /// Snapshot id ("BENCH_0001").
    pub id: String,
    /// Collection seed.
    pub seed: u64,
    /// Application abbreviations the slowdowns are geomeaned over.
    pub apps: Vec<String>,
    /// Per-policy geomean slowdowns versus Ideal.
    pub policies: Vec<PolicyPerf>,
}

// Lenient at its own level (`..`): committed points carry keys this
// reader does not model, such as `wall_clocks`. `PolicyPerf` is strict.
uvm_util::impl_json_struct!(BenchSnapshot {
    schema = 0,
    id = String::new(),
    seed = 0,
    apps = Vec::new(),
    policies = Vec::new(),
    ..
});

impl BenchSnapshot {
    /// Structural validation beyond JSON well-formedness: schema version,
    /// id shape, non-empty metric sets, finite positive numbers.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "schema {} (expected {BENCH_SCHEMA_VERSION})",
                self.schema
            ));
        }
        if !self.id.starts_with("BENCH_") {
            return Err(format!("id '{}' does not start with BENCH_", self.id));
        }
        if self.apps.is_empty() {
            return Err("empty app set".into());
        }
        if self.policies.is_empty() {
            return Err("empty policy set".into());
        }
        for p in &self.policies {
            for (rate, v) in [("75%", p.slowdown_75), ("50%", p.slowdown_50)] {
                if !v.is_finite() || v <= 0.0 {
                    return Err(format!(
                        "policy {} slowdown at {rate} is {v} (must be finite and positive)",
                        p.policy
                    ));
                }
            }
        }
        Ok(())
    }

    /// Parses and validates a snapshot from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a description of the parse or validation failure.
    pub fn parse(text: &str) -> Result<Self, String> {
        let value = Json::parse(text).map_err(|e| e.to_string())?;
        let snap = BenchSnapshot::from_json(&value).map_err(|e| e.to_string())?;
        snap.validate()?;
        Ok(snap)
    }

    /// Loads and validates a snapshot file.
    ///
    /// # Errors
    ///
    /// Returns a description of the I/O, parse or validation failure.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The repo directory holding the pinned perf trajectory
/// (`benchmarks/`), created on first use.
pub fn bench_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Numbered `BENCH_NNNN.json` files in `dir`, sorted ascending by N.
fn snapshot_files(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut found = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return found;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(num) = name
            .strip_prefix("BENCH_")
            .and_then(|r| r.strip_suffix(".json"))
            .and_then(|n| n.parse::<u64>().ok())
        {
            found.push((num, entry.path()));
        }
    }
    found.sort_by_key(|(n, _)| *n);
    found
}

/// The id the next snapshot in `dir` should carry ("BENCH_0001", …).
pub fn next_id(dir: &Path) -> String {
    let next = snapshot_files(dir).last().map_or(1, |(n, _)| n + 1);
    format!("BENCH_{next:04}")
}

/// The highest-numbered snapshot in `dir`, if any.
pub fn latest(dir: &Path) -> Option<PathBuf> {
    snapshot_files(dir).pop().map(|(_, p)| p)
}

/// The policies a snapshot records, versus the Ideal baseline.
fn measured_policies() -> Vec<PolicyKind> {
    PolicyKind::ALL
        .into_iter()
        .filter(|k| *k != PolicyKind::Ideal)
        .collect()
}

/// Collects a fresh snapshot from the clean full-grid campaign, run on
/// `workers` threads.
///
/// # Errors
///
/// Returns a description of the failure if the campaign cannot run or
/// any grid cell fails.
pub fn collect(id: &str, workers: usize) -> Result<BenchSnapshot, String> {
    let cfg = bench_config();
    let apps: Vec<String> = registry::all()
        .iter()
        .map(|a| a.abbr().to_string())
        .collect();
    let spec = campaign::CampaignSpec::clean_grid(apps.clone(), BENCH_SEED);
    let pool = campaign::PoolOptions {
        workers,
        ..campaign::PoolOptions::default()
    };
    let outcome = campaign::run_campaign(&cfg, &spec, &pool, None)
        .map_err(|e| format!("bench campaign: {e}"))?;
    let report = outcome
        .report()
        .map_err(|e| format!("bench campaign: {e}"))?;
    if let Some(bad) = report.runs.iter().find(|r| !r.ok) {
        return Err(format!(
            "bench campaign cell {} failed: {}",
            bad.key, bad.error
        ));
    }

    let mut policies = Vec::new();
    for kind in measured_policies() {
        let mut slow = [Vec::new(), Vec::new()];
        for (i, rate) in ["75%", "50%"].iter().enumerate() {
            for app in &apps {
                let key = |p: PolicyKind| campaign::grid_key(app, p.label(), rate, "clean");
                let run = report.find(&key(kind));
                let ideal = report.find(&key(PolicyKind::Ideal));
                if let (Some(run), Some(ideal)) = (run, ideal) {
                    if run.ok && ideal.ok && ideal.stats.cycles > 0 {
                        slow[i].push(run.stats.cycles as f64 / ideal.stats.cycles as f64);
                    }
                }
            }
        }
        policies.push(PolicyPerf {
            policy: kind.label().to_string(),
            slowdown_75: geomean(&slow[0]),
            slowdown_50: geomean(&slow[1]),
        });
    }

    Ok(BenchSnapshot {
        schema: BENCH_SCHEMA_VERSION,
        id: id.to_string(),
        seed: BENCH_SEED,
        apps,
        policies,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_number_from_existing_files() {
        let dir = std::env::temp_dir().join(format!("hpe-perf-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        assert_eq!(next_id(&dir), "BENCH_0001");
        assert!(latest(&dir).is_none());
        fs::write(dir.join("BENCH_0001.json"), "{}").unwrap();
        fs::write(dir.join("BENCH_0003.json"), "{}").unwrap();
        fs::write(dir.join("not-a-snapshot.json"), "{}").unwrap();
        assert_eq!(next_id(&dir), "BENCH_0004");
        assert!(latest(&dir).unwrap().ends_with("BENCH_0003.json"));
        let _ = fs::remove_dir_all(&dir);
    }
}
