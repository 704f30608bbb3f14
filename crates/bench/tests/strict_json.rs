//! One property over every strict JSON document the tools read: the
//! inputs people hand-write (fault plans, explore specs, repro cases,
//! tenant mixes, traces) and the results the tools read back (explore
//! and tenant reports, campaign snapshots, checkpoints, and the
//! leniently read `BENCH_*.json` points).
//!
//! For one sample of each type, a byte-mutated document (truncated,
//! flipped, spliced or nested) never panics the decoder, and a decoded
//! one re-encodes stably; and a new key inserted into any object of the
//! document is an `Err` naming that key's full path.

use hpe_bench::campaign::{CampaignRun, CampaignSnapshot, CAMPAIGN_SNAPSHOT_SCHEMA};
use hpe_bench::{BenchSnapshot, PolicyPerf, BENCH_SCHEMA_VERSION};
use uvm_sim::{
    AdmissionControl, ArrivalProcess, Backoff, Checkpoint, Counterexample, ExploreReport,
    ExploreSpec, FaultFamily, FaultPlan, FaultWindow, ReproCase, RetryPolicy, TenantMix,
    TenantReport, TenantSpec, ALL_INVARIANTS,
};
use uvm_types::{SimStats, TenantId, TenantStats};
use uvm_util::prop::Checker;
use uvm_util::{FromJson, Json, JsonError, Rng, ToJson};
use uvm_workloads::Trace;

/// Decodes a document as `T` and encodes the result again.
type Reencode = fn(&Json) -> Result<Json, JsonError>;

/// A sample document: its type's name, the document, its decoder, and
/// whether every level of it is strict (`BenchSnapshot`'s top level is
/// lenient on purpose, so it takes the byte mutations only).
type Sample = (&'static str, Json, Reencode, bool);

fn reencode<T: FromJson + ToJson>(v: &Json) -> Result<Json, JsonError> {
    T::from_json(v).map(|t| t.to_json())
}

fn windowed_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        windows: vec![
            FaultWindow {
                family: FaultFamily::CompletionLoss,
                start: 1_000_000,
                width: 400_000,
            },
            FaultWindow {
                family: FaultFamily::HirOutage,
                start: 0,
                width: 65_536,
            },
        ],
        ..FaultPlan::completion_loss(seed)
    }
}

fn stats() -> SimStats {
    SimStats {
        cycles: 999_972,
        instructions: 1_234,
        ..SimStats::default()
    }
}

fn tenant_row(id: u64) -> TenantStats {
    TenantStats {
        tenant: TenantId(id),
        app: "STN".into(),
        quota_pages: 576,
        admission: "admitted".into(),
        ok: true,
        stats: stats(),
        ..TenantStats::default()
    }
}

/// One sample per strict document type, with every optional part
/// present so each nested object is in play.
fn samples() -> Vec<Sample> {
    let spec = ExploreSpec {
        fixtures: vec![windowed_plan(1), FaultPlan::livelock(2)],
        base_plan: windowed_plan(3),
        retry: Some(RetryPolicy::adaptive()),
        ..ExploreSpec::default()
    };
    let repro = ReproCase {
        app: "STN".into(),
        policy: "lru".into(),
        rate: 50,
        invariant: "completes".into(),
        error: "retries exhausted for page p3".into(),
        retry: Some(RetryPolicy::default()),
        sanitize_cadence: 256,
        checkpoint_at: 1_000_000,
        tenants: 2,
        tenant_target: 1,
        tenant_quota_pct: 75,
        plan: windowed_plan(4),
    };
    let mix = TenantMix {
        pool_pages: 1_024,
        tenants: vec![
            TenantSpec {
                id: 0,
                app: "STN".into(),
                quota_pages: 576,
                arrival: 0,
                lease_cycles: 1_000,
            },
            TenantSpec {
                id: 1,
                app: "MVT".into(),
                quota_pages: 768,
                arrival: 100,
                lease_cycles: 1_000,
            },
        ],
        ..TenantMix::default()
    };
    let tenant_report = TenantReport {
        fingerprint: "abc".into(),
        policy: "HPE".into(),
        hir_mode: "shared".into(),
        plan: "latency-storm".into(),
        fault_tenant: Some(1),
        makespan: 123,
        tenants: vec![tenant_row(0), tenant_row(1)],
        ..TenantReport::default()
    };
    let explore_report = ExploreReport {
        app: "STN".into(),
        policy: "hpe".into(),
        rate: 75,
        cases: 3,
        invariants: ALL_INVARIANTS.iter().map(|s| s.to_string()).collect(),
        counterexamples: vec![Counterexample {
            case: 0,
            label: "fixture:0".into(),
            invariant: "completes".into(),
            error: "completion for page p12 lost 8 times".into(),
            probes: 4,
            plan: windowed_plan(5),
        }],
        ..ExploreReport::default()
    };
    let snapshot = CampaignSnapshot {
        schema: CAMPAIGN_SNAPSHOT_SCHEMA,
        fingerprint: "x".into(),
        total: 4,
        completed: vec![
            CampaignRun {
                index: 0,
                key: "STN/LRU/75%/clean".into(),
                ok: true,
                stats: stats(),
                ..CampaignRun::default()
            },
            CampaignRun {
                index: 2,
                ..CampaignRun::default()
            },
        ],
    };
    let checkpoint = Checkpoint {
        cycle: 1_000_000,
        now: 999_972,
        stats: stats(),
        fault_rng: vec![1, 2, 3, 4],
        hir_down: true,
        ..Checkpoint::default()
    };
    let bench = BenchSnapshot {
        schema: BENCH_SCHEMA_VERSION,
        id: "BENCH_0001".into(),
        seed: 2019,
        apps: vec!["STN".into()],
        policies: vec![PolicyPerf {
            policy: "HPE".into(),
            slowdown_75: 1.25,
            slowdown_50: 1.5,
        }],
    };
    let trace = Trace::from_global(&[0, 1, 2, 1, 0], 3, 2, 2, 1);
    let strict: [(&'static str, Json, Reencode); 9] = [
        (
            "FaultPlan",
            windowed_plan(0).to_json(),
            reencode::<FaultPlan>,
        ),
        ("ExploreSpec", spec.to_json(), reencode::<ExploreSpec>),
        ("ReproCase", repro.to_json(), reencode::<ReproCase>),
        ("TenantMix", mix.to_json(), reencode::<TenantMix>),
        (
            "TenantReport",
            tenant_report.to_json(),
            reencode::<TenantReport>,
        ),
        (
            "ExploreReport",
            explore_report.to_json(),
            reencode::<ExploreReport>,
        ),
        (
            "CampaignSnapshot",
            snapshot.to_json(),
            reencode::<CampaignSnapshot>,
        ),
        ("Checkpoint", checkpoint.to_json(), reencode::<Checkpoint>),
        ("Trace", trace.to_json(), reencode::<Trace>),
    ];
    let mut samples: Vec<Sample> = strict
        .into_iter()
        .map(|(name, doc, decode)| (name, doc, decode, true))
        .collect();
    samples.push((
        "BenchSnapshot",
        bench.to_json(),
        reencode::<BenchSnapshot>,
        false,
    ));
    samples
}

/// Truncates, flips, splices or nests `text` at a random place. The
/// samples are ASCII, so every mutation keeps the text UTF-8.
fn mutate(rng: &mut Rng, text: &str) -> String {
    let mut text = text.as_bytes().to_vec();
    let at = rng.gen_range(0..text.len());
    match rng.gen_range(0u32..4) {
        0 => text.truncate(at),
        1 => {
            for _ in 0..rng.gen_range(1u32..4) {
                let i = rng.gen_range(0..text.len());
                text[i] = rng.gen_range(0u32..128) as u8;
            }
        }
        2 => {
            let from = rng.gen_range(0..text.len());
            let to = rng.gen_range(from..=text.len());
            let piece = text[from..to].to_vec();
            text.splice(at..at, piece);
        }
        _ => {
            let depth = rng.gen_range(1usize..300);
            let (open, close) = if rng.gen_bool(0.5) {
                ("[", "]")
            } else {
                ("{\"e\":", "}")
            };
            let nested = format!("{}{}", open.repeat(depth), close.repeat(depth));
            text.splice(at..at, nested.bytes());
        }
    }
    String::from_utf8(text).expect("ASCII mutations keep UTF-8")
}

/// One step from the document root to a nested value.
#[derive(Debug, Clone)]
enum Step {
    Key(String),
    Index(usize),
}

/// The route to every object in `v`, the root's (empty) included.
fn objects(v: &Json, route: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    match v {
        Json::Object(entries) => {
            out.push(route.clone());
            for (k, x) in entries {
                route.push(Step::Key(k.clone()));
                objects(x, route, out);
                route.pop();
            }
        }
        Json::Array(items) => {
            for (i, x) in items.iter().enumerate() {
                route.push(Step::Index(i));
                objects(x, route, out);
                route.pop();
            }
        }
        _ => {}
    }
}

fn walk<'a>(v: &'a mut Json, route: &[Step]) -> &'a mut Json {
    route.iter().fold(v, |v, step| match (step, v) {
        (Step::Key(k), Json::Object(entries)) => {
            &mut entries
                .iter_mut()
                .find(|(key, _)| key == k)
                .expect("route")
                .1
        }
        (Step::Index(i), Json::Array(items)) => &mut items[*i],
        _ => panic!("route leaves the document"),
    })
}

/// The route rendered as the decoder names it: `windows[0].width`.
fn render(route: &[Step], key: &str) -> String {
    let mut path = String::new();
    for step in route {
        match step {
            Step::Key(k) if path.is_empty() => path.push_str(k),
            Step::Key(k) => path.push_str(&format!(".{k}")),
            Step::Index(i) => path.push_str(&format!("[{i}]")),
        }
    }
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

fn lowercase(rng: &mut Rng) -> char {
    char::from(b'a' + rng.gen_range(0u32..26) as u8)
}

/// A key the object does not have: a one-letter typo of one of its
/// keys, or a fresh lowercase name.
fn new_key(rng: &mut Rng, object: &Json) -> String {
    let Json::Object(entries) = object else {
        unreachable!("routes lead to objects")
    };
    loop {
        let letter = lowercase(rng);
        let mut key: Vec<char> = match entries.is_empty() || rng.gen_bool(0.3) {
            true => (0..rng.gen_range(1usize..12))
                .map(|_| lowercase(rng))
                .collect(),
            false => {
                let base = &entries[rng.gen_range(0..entries.len())].0;
                base.chars().collect()
            }
        };
        let at = rng.gen_range(0..=key.len());
        match rng.gen_range(0u32..3) {
            0 if at < key.len() => {
                key.remove(at);
            }
            1 if at < key.len() => key[at] = letter,
            _ => key.insert(at, letter),
        }
        let key: String = key.into_iter().collect();
        if !key.is_empty() && entries.iter().all(|(k, _)| *k != key) {
            return key;
        }
    }
}

#[test]
fn strict_documents_survive_mutation_and_name_every_unknown_key() {
    let samples = samples();
    for (name, doc, decode, _) in &samples {
        assert!(doc.to_string().is_ascii(), "{name}");
        assert_eq!(decode(doc).as_ref(), Ok(doc), "{name} round-trips");
    }
    Checker::new().cases(512).run(
        |rng| {
            let which = rng.gen_range(0..samples.len());
            let (_, doc, _, _) = &samples[which];
            let text = if rng.gen_bool(0.5) {
                doc.to_string()
            } else {
                doc.pretty()
            };
            let mutated = mutate(rng, &text);
            let mut routes = Vec::new();
            objects(doc, &mut Vec::new(), &mut routes);
            let route = routes[rng.gen_range(0..routes.len())].clone();
            let key = new_key(rng, walk(&mut doc.clone(), &route));
            (which, mutated, route, key)
        },
        |(which, mutated, route, key)| {
            let (name, doc, decode, strict) = &samples[*which];
            // Mutated bytes: never a panic, and what decodes re-encodes
            // to a fixed point.
            if let Ok(v) = Json::parse(mutated) {
                if let Ok(again) = decode(&v) {
                    assert_eq!(decode(&again).as_ref(), Ok(&again), "{name}");
                }
            }
            // An inserted key: an error naming its full path.
            if !strict {
                return;
            }
            let mut extended = doc.clone();
            walk(&mut extended, route).insert(key.clone(), Json::UInt(1));
            let err = decode(&extended)
                .expect_err("an unknown key must be rejected")
                .to_string();
            let path = render(route, key);
            assert!(
                err.contains(&format!("unknown field `{path}`")),
                "{name}: {err}"
            );
        },
    );
}

/// `{}` decodes to `T::default()` for every fully defaulted type: the
/// field list's defaults and the type's `Default` are one set of values.
#[test]
fn an_empty_object_decodes_to_the_default() {
    fn check<T: FromJson + Default + PartialEq + std::fmt::Debug>(name: &str) {
        let decoded = T::from_json(&Json::object());
        assert_eq!(decoded.as_ref(), Ok(&T::default()), "{name}");
    }
    check::<ExploreSpec>("ExploreSpec");
    check::<FaultPlan>("FaultPlan");
    check::<TenantSpec>("TenantSpec");
    check::<ArrivalProcess>("ArrivalProcess");
    check::<AdmissionControl>("AdmissionControl");
    check::<TenantMix>("TenantMix");
    check::<Backoff>("Backoff");
    check::<TenantStats>("TenantStats");
    check::<ExploreReport>("ExploreReport");
    check::<TenantReport>("TenantReport");
    check::<Checkpoint>("Checkpoint");
    check::<PolicyPerf>("PolicyPerf");
    check::<CampaignRun>("CampaignRun");
    check::<CampaignSnapshot>("CampaignSnapshot");
}
