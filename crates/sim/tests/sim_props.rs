//! Property-based tests of the simulation engine's accounting invariants.

use std::collections::HashSet;
use uvm_policies::Lru;
use uvm_sim::{audit, parse_jsonl, trace_for, write_jsonl, EventLog, Simulation};
use uvm_types::{Oversubscription, SimConfig, TlbConfig};
use uvm_util::prop::Checker;
use uvm_workloads::{registry, Trace};

fn small_cfg(n_sms: u32, warps: u32) -> SimConfig {
    SimConfig::builder()
        .n_sms(n_sms)
        .warps_per_sm(warps)
        .l1_tlb(TlbConfig {
            entries: 4,
            ways: 4,
            latency_cycles: 1,
        })
        .l2_tlb(TlbConfig {
            entries: 8,
            ways: 4,
            latency_cycles: 10,
        })
        .build()
        .expect("valid config")
}

#[test]
fn accounting_invariants_hold() {
    Checker::new().cases(48).run(
        |rng| {
            (
                rng.gen_vec(1..400, |r| r.gen_range(0u64..40)),
                rng.gen_range(2u64..48),
                rng.gen_range(1u32..6),
                rng.gen_range(0u16..8),
            )
        },
        |(global, capacity, streams, compute)| {
            let (capacity, streams, compute) = (*capacity, *streams, *compute);
            let footprint = 40;
            let distinct = global.iter().collect::<HashSet<_>>().len() as u64;
            let trace = Trace::from_global(global, footprint, compute, streams, 3);
            let cfg = small_cfg(streams, 1);
            let stats = Simulation::new(cfg, &trace, Lru::new(), capacity)
                .expect("valid sim")
                .run()
                .expect("run completes")
                .stats;

            audit(&stats, global.len() as u64, capacity, None).expect("identities hold");
            assert_eq!(
                stats.instructions,
                global.len() as u64 * (1 + u64::from(compute))
            );
            // Faults: at least compulsory, at most one per reference.
            assert!(stats.faults() >= distinct);
            assert!(stats.faults() <= global.len() as u64);
            // Residency conservation: inserted - evicted = resident at end.
            let resident_end = stats.faults() - stats.evictions();
            assert!(resident_end <= capacity.min(distinct));
            assert!(resident_end >= 1);
            // Time moved forward and the driver was busy for every fault.
            assert!(stats.cycles > 0);
            assert!(stats.driver.busy_cycles >= stats.faults() * 28_000);
        },
    );
}

#[test]
fn simulation_is_deterministic() {
    Checker::new().cases(48).run(
        |rng| {
            (
                rng.gen_vec(1..200, |r| r.gen_range(0u64..30)),
                rng.gen_range(2u64..32),
            )
        },
        |(global, capacity)| {
            let trace = Trace::from_global(global, 30, 2, 3, 4);
            let cfg = small_cfg(3, 1);
            let run = || {
                Simulation::new(cfg.clone(), &trace, Lru::new(), *capacity)
                    .expect("valid sim")
                    .run()
                    .expect("run completes")
                    .stats
            };
            assert_eq!(run(), run());
        },
    );
}

#[test]
fn ample_capacity_faults_compulsory_only() {
    Checker::new().cases(48).run(
        |rng| rng.gen_vec(10..250, |r| r.gen_range(0u64..24)),
        |global| {
            // With memory at least as large as the footprint, every policy
            // takes exactly the compulsory faults and evicts nothing.
            let distinct = global.iter().collect::<HashSet<_>>().len() as u64;
            let trace = Trace::from_global(global, 24, 0, 2, 4);
            let cfg = small_cfg(2, 1);
            let stats = Simulation::new(cfg, &trace, Lru::new(), 24)
                .expect("valid sim")
                .run()
                .expect("run completes")
                .stats;
            assert_eq!(stats.faults(), distinct);
            assert_eq!(stats.evictions(), 0);
            assert_eq!(stats.driver.wrong_evictions, 0);
        },
    );
}

/// A recorded STN stream (LRU at 75%) as JSONL lines.
fn recorded_stn_jsonl() -> String {
    let cfg = SimConfig::scaled_default();
    let app = registry::by_abbr("STN").expect("registered app");
    let trace = trace_for(&cfg, app);
    let capacity = Oversubscription::Rate75.capacity_pages(app.footprint_pages());
    let sim = Simulation::new(cfg, &trace, Lru::new(), capacity).expect("valid sim");
    let log = sim
        .instrument(EventLog::new())
        .run()
        .expect("run completes");
    let mut jsonl = Vec::new();
    write_jsonl(&mut jsonl, &log.instrument).expect("in-memory write");
    String::from_utf8(jsonl).expect("JSONL is UTF-8")
}

#[test]
fn parse_jsonl_survives_mutated_streams() {
    // A 32-line window of a recorded stream, truncated, byte-flipped,
    // spliced or nested: `parse_jsonl` never panics, an `Err` names the
    // first line that does not parse, and an `Ok` stream round-trips
    // through `write_jsonl` unchanged.
    let recorded = recorded_stn_jsonl();
    let lines: Vec<&str> = recorded.lines().collect();
    Checker::new().run(
        |rng| {
            let start = rng.gen_range(0..lines.len() - 32);
            let mut text = lines[start..start + 32].join("\n").into_bytes();
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
                    let (head, tail) = nested.split_at(open.len() * depth);
                    text.splice(at..at, head.bytes().chain(tail.bytes()));
                }
            }
            String::from_utf8(text).expect("ASCII mutations keep UTF-8")
        },
        |text| match parse_jsonl(text) {
            Ok(events) => {
                let mut written = Vec::new();
                write_jsonl(&mut written, &events).unwrap();
                let again = parse_jsonl(std::str::from_utf8(&written).unwrap()).unwrap();
                assert_eq!(again, events);
            }
            Err(e) => {
                let message = e.to_string();
                let line: usize = message
                    .split_once("line ")
                    .and_then(|(_, rest)| rest.split_once(':'))
                    .and_then(|(n, _)| n.parse().ok())
                    .unwrap_or_else(|| panic!("no line number in {message:?}"));
                let lines: Vec<&str> = text.lines().collect();
                assert!((1..=lines.len()).contains(&line), "{message}");
                assert!(parse_jsonl(lines[line - 1]).is_err(), "{message}");
                assert!(
                    parse_jsonl(&lines[..line - 1].join("\n")).is_ok(),
                    "{message}"
                );
            }
        },
    );
}
