//! `BENCHMARK.json`: the workloads and metrics this benchmark promises.
//!
//! The file is compiled in, validated before any run, and is the single
//! source of metric units, directions and bounds: a run emits exactly the
//! metrics declared here, in declared order.

use uvm_util::Json;

/// The repository's `BENCHMARK.json`, as built.
const SPEC_TEXT: &str = include_str!("../../BENCHMARK.json");

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput, hit rates).
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`pass_s`, `core.hpe.select_victim.ms`, …).
    pub name: String,
    /// Unit label.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Allowed worsening as a share of the baseline median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed, validated benchmark declaration.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload names, in declared order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (untraced runs).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub per_layer: Vec<Metric>,
}

const MAX_WORKLOADS: usize = 8;
const MAX_E2E: usize = 16;
const MAX_LAYER: usize = 128;
const MAX_BOUND: f64 = 0.25;

impl Spec {
    /// The compiled-in declaration.
    pub fn load() -> Result<Spec, String> {
        Spec::parse(SPEC_TEXT).map_err(|e| format!("BENCHMARK.json: {e}"))
    }

    /// Parses and validates a declaration.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        exact_keys(
            &v,
            &[
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer",
            ],
            "top level",
        )?;
        let secs = v["run_seconds"].as_u64().unwrap_or(0);
        if !(1..=60).contains(&secs) {
            return Err(format!("run_seconds {secs} outside 1..=60"));
        }
        for key in ["command", "paths"] {
            let items = v[key].as_array().ok_or(format!("{key} is not a list"))?;
            if items.is_empty() || items.iter().any(|s| s.as_str().is_none()) {
                return Err(format!("{key} must be a non-empty list of strings"));
            }
        }

        let mut workloads = Vec::new();
        for w in list(&v, "workloads", 2, MAX_WORKLOADS)? {
            exact_keys(w, &["name", "why"], "workload")?;
            let why = w["why"].as_str().unwrap_or("");
            if why.is_empty() || why.contains('\n') || why.chars().count() > 200 {
                return Err("a workload's why must be one line of 1..=200 characters".into());
            }
            workloads.push(name(w)?);
        }
        let mut end_to_end = Vec::new();
        for m in list(&v, "end_to_end", 1, MAX_E2E)? {
            exact_keys(m, &["name", "unit", "better", "bound"], "end_to_end metric")?;
            let bound = m["bound"].as_f64().unwrap_or(-1.0);
            if !(bound > 0.0 && bound <= MAX_BOUND) {
                return Err(format!("bound {bound} outside (0, {MAX_BOUND}]"));
            }
            end_to_end.push(metric(m, Some(bound))?);
        }
        let mut per_layer = Vec::new();
        for m in list(&v, "per_layer", 1, MAX_LAYER)? {
            exact_keys(m, &["name", "unit", "better"], "per_layer metric")?;
            per_layer.push(metric(m, None)?);
        }

        let mut names: Vec<&str> = workloads.iter().map(String::as_str).collect();
        names.extend(end_to_end.iter().chain(&per_layer).map(|m| m.name.as_str()));
        names.sort_unstable();
        if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("name '{}' is used twice", w[0]));
        }
        let setup = end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .ok_or("no setup_s metric")?;
        if setup.unit != "s" || setup.better != Better::Lower {
            return Err("setup_s must be in s with better = lower".into());
        }
        if end_to_end.iter().any(|m| m.bound > setup.bound) {
            return Err("setup_s must carry the largest bound".into());
        }
        Ok(Spec {
            workloads,
            end_to_end,
            per_layer,
        })
    }
}

fn exact_keys(v: &Json, keys: &[&str], what: &str) -> Result<(), String> {
    let Json::Object(entries) = v else {
        return Err(format!("{what} is not an object"));
    };
    let mut found: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    let mut want = keys.to_vec();
    found.sort_unstable();
    want.sort_unstable();
    if found != want {
        return Err(format!("{what} has keys {found:?}, expected {want:?}"));
    }
    Ok(())
}

fn list<'a>(v: &'a Json, key: &str, min: usize, max: usize) -> Result<&'a [Json], String> {
    let items = v[key].as_array().ok_or(format!("{key} is not a list"))?;
    if !(min..=max).contains(&items.len()) {
        return Err(format!(
            "{key} has {} entries, expected {min}..={max}",
            items.len()
        ));
    }
    Ok(items)
}

fn name(v: &Json) -> Result<String, String> {
    let n = v["name"].as_str().unwrap_or("");
    let ok = n.len() <= 64
        && n.starts_with(|c: char| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'));
    if !ok {
        return Err(format!(
            "bad name '{n}' (want [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}})"
        ));
    }
    Ok(n.to_string())
}

fn metric(v: &Json, bound: Option<f64>) -> Result<Metric, String> {
    let name = name(v)?;
    let unit = v["unit"].as_str().unwrap_or("");
    let unit_ok = (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'));
    if !unit_ok {
        return Err(format!("metric {name}: bad unit '{unit}'"));
    }
    let better = match v["better"].as_str() {
        Some("lower") => Better::Lower,
        Some("higher") => Better::Higher,
        other => return Err(format!("metric {name}: better is {other:?}")),
    };
    Ok(Metric {
        name,
        unit: unit.to_string(),
        better,
        bound,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(workloads: &str, e2e: &str, layer: &str) -> String {
        format!(
            r#"{{"command": ["cargo"], "paths": ["benchmark"], "run_seconds": 10,
                "workloads": [{workloads}], "end_to_end": [{e2e}], "per_layer": [{layer}]}}"#
        )
    }

    const W2: &str = r#"{"name": "a", "why": "x"}, {"name": "b", "why": "y"}"#;
    const SETUP: &str = r#"{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}"#;
    const LAYER: &str = r#"{"name": "sim.new.ms", "unit": "ms", "better": "lower"}"#;

    #[test]
    fn repository_declaration_is_valid() {
        let spec = Spec::load().expect("BENCHMARK.json validates");
        assert_eq!(
            spec.workloads,
            ["grid-serial", "grid-parallel", "hpe-cells", "lru-engine"]
        );
    }

    #[test]
    fn minimal_declaration_parses() {
        let spec = Spec::parse(&doc(W2, SETUP, LAYER)).unwrap();
        assert_eq!(spec.per_layer[0].name, "sim.new.ms");
        assert_eq!(spec.per_layer[0].bound, None);
        assert_eq!(spec.end_to_end[0].bound, Some(0.25));
    }

    #[test]
    fn names_must_match_the_allowed_alphabet() {
        for bad in ["has space", "_lead", "", "é", &"x".repeat(65)] {
            let layer = format!(r#"{{"name": "{bad}", "unit": "ms", "better": "lower"}}"#);
            assert!(Spec::parse(&doc(W2, SETUP, &layer)).is_err(), "{bad:?}");
        }
        let dup = format!("{LAYER}, {LAYER}");
        assert!(Spec::parse(&doc(W2, SETUP, &dup)).is_err());
    }

    #[test]
    fn list_sizes_are_bounded() {
        let one = r#"{"name": "a", "why": "x"}"#;
        assert!(Spec::parse(&doc(one, SETUP, LAYER)).is_err());
        let nine: Vec<String> = (0..9)
            .map(|i| format!(r#"{{"name": "w{i}", "why": "x"}}"#))
            .collect();
        assert!(Spec::parse(&doc(&nine.join(","), SETUP, LAYER)).is_err());
        let mut e2e: Vec<String> = (0..16)
            .map(|i| format!(r#"{{"name": "e{i}", "unit": "s", "better": "lower", "bound": 0.1}}"#))
            .collect();
        e2e.push(SETUP.to_string());
        assert!(Spec::parse(&doc(W2, &e2e.join(","), LAYER)).is_err());
        let layers = |n: usize| -> String {
            (0..n)
                .map(|i| format!(r#"{{"name": "l{i}", "unit": "ms", "better": "lower"}}"#))
                .collect::<Vec<_>>()
                .join(",")
        };
        assert!(Spec::parse(&doc(W2, SETUP, &layers(128))).is_ok());
        assert!(Spec::parse(&doc(W2, SETUP, &layers(129))).is_err());
    }

    #[test]
    fn setup_s_must_exist_and_carry_the_largest_bound() {
        let other = r#"{"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.1}"#;
        assert!(Spec::parse(&doc(W2, other, LAYER)).is_err());
        let wider = r#"{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.05}"#;
        assert!(Spec::parse(&doc(W2, &format!("{wider}, {other}"), LAYER)).is_err());
        let too_wide = r#"{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.3}"#;
        assert!(Spec::parse(&doc(W2, too_wide, LAYER)).is_err());
    }

    #[test]
    fn extra_keys_are_refused() {
        let layer = r#"{"name": "x", "unit": "ms", "better": "lower", "moves": "pass_s"}"#;
        assert!(Spec::parse(&doc(W2, SETUP, layer)).is_err());
    }
}
