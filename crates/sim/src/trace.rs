//! Trace summaries: values computed from a recorded event stream.
//!
//! A run records its [`SimEvent`]s with an [`EventLog`](crate::EventLog)
//! attached (or reads them back with [`parse_jsonl`]); every summary here
//! is a fold over that slice:
//!
//! * [`EventCounters`] — one total per event kind;
//! * [`IntervalSeries`] — windowed time series (faults, evictions,
//!   wrong evictions, ... per cycle- or fault-count bucket);
//! * [`TraceHistograms`] — fixed-bucket distributions (inter-fault gap,
//!   page residency lifetime, victim age, search comparisons, HIR flush
//!   sizes) built on [`uvm_util::Histogram`].
//!
//! [`write_jsonl`] writes the stream as one compact JSON object per line
//! and [`parse_jsonl`] reads it back. Everything serializes through
//! [`uvm_util::json`], so the output is deterministic for a
//! deterministic simulation.

use std::collections::HashMap;
use std::io;
use std::num::NonZeroU64;

use uvm_types::PageId;
use uvm_util::{json, Histogram, Json, JsonError, ToJson};

use crate::instrument::SimEvent;

/// The number of events of each kind in a stream.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct EventCounters {
    /// `FaultRaised` events.
    pub faults_raised: u64,
    /// `FaultServiced` events.
    pub faults_serviced: u64,
    /// `Eviction` events.
    pub evictions: u64,
    /// `MemoryFull` events.
    pub memory_full: u64,
    /// `PageWalk` events.
    pub page_walks: u64,
    /// `PageWalk` events with `hit == true`.
    pub walk_hits: u64,
    /// `PrefetchIssued` events.
    pub prefetches: u64,
    /// `WrongEviction` events.
    pub wrong_evictions: u64,
    /// `VictimSelected` events.
    pub victims_selected: u64,
    /// `StrategySwitch` events.
    pub strategy_switches: u64,
    /// `HirFlush` events.
    pub hir_flushes: u64,
    /// Sum of `entries` across `HirFlush` events.
    pub hir_entries: u64,
    /// Sum of `dropped` across `HirFlush` events.
    pub hir_dropped: u64,
}

uvm_util::impl_json_struct!(EventCounters {
    faults_raised,
    faults_serviced,
    evictions,
    memory_full,
    page_walks,
    walk_hits,
    prefetches,
    wrong_evictions,
    victims_selected,
    strategy_switches,
    hir_flushes,
    hir_entries = 0,
    hir_dropped = 0,
});

impl EventCounters {
    /// Counts `events`.
    pub fn of(events: &[SimEvent]) -> Self {
        let mut c = EventCounters::default();
        for &event in events {
            match event {
                SimEvent::FaultRaised { .. } => c.faults_raised += 1,
                SimEvent::FaultServiced { .. } => c.faults_serviced += 1,
                SimEvent::Eviction { .. } => c.evictions += 1,
                SimEvent::MemoryFull { .. } => c.memory_full += 1,
                SimEvent::PageWalk { hit, .. } => {
                    c.page_walks += 1;
                    c.walk_hits += u64::from(hit);
                }
                SimEvent::PrefetchIssued { .. } => c.prefetches += 1,
                SimEvent::WrongEviction { .. } => c.wrong_evictions += 1,
                SimEvent::VictimSelected { .. } => c.victims_selected += 1,
                SimEvent::StrategySwitch { .. } => c.strategy_switches += 1,
                SimEvent::HirFlush {
                    entries, dropped, ..
                } => {
                    c.hir_flushes += 1;
                    c.hir_entries += entries;
                    c.hir_dropped += dropped;
                }
            }
        }
        c
    }

    /// Total events observed.
    pub fn total(&self) -> u64 {
        self.faults_raised
            + self.faults_serviced
            + self.evictions
            + self.memory_full
            + self.page_walks
            + self.prefetches
            + self.wrong_evictions
            + self.victims_selected
            + self.strategy_switches
            + self.hir_flushes
    }
}

/// How an [`IntervalSeries`] assigns events to windows. The width is a
/// [`NonZeroU64`], so a zero-wide window cannot be asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalKey {
    /// Fixed windows of this many simulated cycles.
    Cycles(NonZeroU64),
    /// Fixed windows of this many raised faults (the paper's interval
    /// clock: HPE rotates partitions every `interval_len` faults, so
    /// fault-indexed series line up with policy phases).
    Faults(NonZeroU64),
}

impl IntervalKey {
    fn width(self) -> NonZeroU64 {
        match self {
            IntervalKey::Cycles(w) | IntervalKey::Faults(w) => w,
        }
    }

    fn name(self) -> &'static str {
        match self {
            IntervalKey::Cycles(_) => "cycles",
            IntervalKey::Faults(_) => "faults",
        }
    }
}

/// One window of an [`IntervalSeries`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IntervalRow {
    /// Faults raised in the window.
    pub faults: u64,
    /// Pages made resident (demand + prefetch).
    pub serviced: u64,
    /// Evictions.
    pub evictions: u64,
    /// Wrong evictions (re-fault on a recently evicted page).
    pub wrong_evictions: u64,
    /// Prefetched pages.
    pub prefetches: u64,
    /// Page-table walks.
    pub walks: u64,
    /// Walks that hit a resident page.
    pub walk_hits: u64,
    /// HIR records flushed to the driver.
    pub hir_entries: u64,
    /// Strategy switches.
    pub strategy_switches: u64,
}

/// Windowed time series over an event stream.
///
/// Events fall into fixed-width buckets keyed by simulated cycle or by
/// running fault count ([`IntervalKey`]); each bucket accumulates an
/// [`IntervalRow`]. Serialization is columnar: one array per field, all
/// the same length, ready for plotting or diffing.
///
/// # Examples
///
/// ```
/// use std::num::NonZeroU64;
/// use uvm_sim::{IntervalKey, IntervalSeries, SimEvent};
/// use uvm_types::PageId;
///
/// let events = [
///     SimEvent::FaultRaised { time: 10, page: PageId(1) },
///     SimEvent::FaultRaised { time: 250, page: PageId(2) },
/// ];
/// let width = NonZeroU64::new(100).unwrap();
/// let iv = IntervalSeries::of(&events, IntervalKey::Cycles(width));
/// let faults: Vec<u64> = iv.rows().iter().map(|r| r.faults).collect();
/// assert_eq!(faults, vec![1, 0, 1]);
/// ```
#[derive(Debug)]
pub struct IntervalSeries {
    key: IntervalKey,
    rows: Vec<IntervalRow>,
}

impl IntervalSeries {
    /// Buckets `events` by `key`.
    pub fn of(events: &[SimEvent], key: IntervalKey) -> Self {
        let mut series = IntervalSeries {
            key,
            rows: Vec::new(),
        };
        let mut faults_seen = 0;
        for &event in events {
            let pos = match key {
                IntervalKey::Cycles(w) => event.time() / w,
                IntervalKey::Faults(w) => faults_seen / w,
            };
            match event {
                SimEvent::FaultRaised { .. } => {
                    series.row(pos).faults += 1;
                    faults_seen += 1;
                }
                SimEvent::FaultServiced { .. } => series.row(pos).serviced += 1,
                SimEvent::Eviction { .. } => series.row(pos).evictions += 1,
                SimEvent::MemoryFull { .. } | SimEvent::VictimSelected { .. } => {}
                SimEvent::PageWalk { hit, .. } => {
                    let row = series.row(pos);
                    row.walks += 1;
                    row.walk_hits += u64::from(hit);
                }
                SimEvent::PrefetchIssued { .. } => series.row(pos).prefetches += 1,
                SimEvent::WrongEviction { .. } => series.row(pos).wrong_evictions += 1,
                SimEvent::StrategySwitch { .. } => series.row(pos).strategy_switches += 1,
                SimEvent::HirFlush { entries, .. } => series.row(pos).hir_entries += entries,
            }
        }
        series
    }

    /// The windows, oldest first.
    pub fn rows(&self) -> &[IntervalRow] {
        &self.rows
    }

    fn row(&mut self, pos: u64) -> &mut IntervalRow {
        let pos = pos as usize;
        if pos >= self.rows.len() {
            self.rows.resize(pos + 1, IntervalRow::default());
        }
        &mut self.rows[pos]
    }
}

impl ToJson for IntervalSeries {
    fn to_json(&self) -> Json {
        macro_rules! column {
            ($field:ident) => {
                Json::Array(
                    self.rows
                        .iter()
                        .map(|r| Json::UInt(r.$field))
                        .collect::<Vec<_>>(),
                )
            };
        }
        json!({
            "key": self.key.name(),
            "width": self.key.width().get(),
            "intervals": self.rows.len() as u64,
            "series": json!({
                "faults": column!(faults),
                "serviced": column!(serviced),
                "evictions": column!(evictions),
                "wrong_evictions": column!(wrong_evictions),
                "prefetches": column!(prefetches),
                "walks": column!(walks),
                "walk_hits": column!(walk_hits),
                "hir_entries": column!(hir_entries),
                "strategy_switches": column!(strategy_switches),
            }),
        })
    }
}

/// Fixed-bucket histograms over an event stream.
///
/// Records five distributions:
///
/// * `inter_fault_cycles` — gap between consecutive `FaultRaised` events,
/// * `residency_cycles` — lifetime of a page from `FaultServiced` to its
///   `Eviction` (pages never evicted are not recorded),
/// * `victim_age_faults` — `victim_age` of each `VictimSelected`,
/// * `search_comparisons` — comparisons of each `VictimSelected`,
/// * `hir_flush_entries` — `entries` of each `HirFlush`.
///
/// The bucket geometry is sized for the scaled paper workloads (fault
/// service ≈ 28 k cycles).
#[derive(Debug)]
pub struct TraceHistograms {
    inter_fault: Histogram,
    residency: Histogram,
    victim_age: Histogram,
    search_comparisons: Histogram,
    hir_flush_entries: Histogram,
}

impl TraceHistograms {
    /// The distributions of `events`.
    pub fn of(events: &[SimEvent]) -> Self {
        let mut h = TraceHistograms {
            inter_fault: Histogram::new("inter_fault_cycles", 4_096, 64),
            residency: Histogram::new("residency_cycles", 65_536, 64),
            victim_age: Histogram::new("victim_age_faults", 16, 64),
            search_comparisons: Histogram::new("search_comparisons", 4, 64),
            hir_flush_entries: Histogram::new("hir_flush_entries", 4, 64),
        };
        let mut last_fault_time = None;
        let mut serviced_at: HashMap<PageId, u64> = HashMap::new();
        for &event in events {
            match event {
                SimEvent::FaultRaised { time, .. } => {
                    if let Some(last) = last_fault_time {
                        h.inter_fault.record(time.saturating_sub(last));
                    }
                    last_fault_time = Some(time);
                }
                SimEvent::FaultServiced { time, page } => {
                    serviced_at.insert(page, time);
                }
                SimEvent::Eviction { time, page } => {
                    if let Some(at) = serviced_at.remove(&page) {
                        h.residency.record(time.saturating_sub(at));
                    }
                }
                SimEvent::VictimSelected {
                    search_comparisons,
                    victim_age,
                    ..
                } => {
                    h.victim_age.record(victim_age);
                    h.search_comparisons.record(search_comparisons);
                }
                SimEvent::HirFlush { entries, .. } => h.hir_flush_entries.record(entries),
                _ => {}
            }
        }
        h
    }

    /// Gap between consecutive raised faults, in cycles.
    pub fn inter_fault(&self) -> &Histogram {
        &self.inter_fault
    }

    /// Page lifetime from service to eviction, in cycles.
    pub fn residency(&self) -> &Histogram {
        &self.residency
    }

    /// Victim ages, in faults since the victim became resident.
    pub fn victim_age(&self) -> &Histogram {
        &self.victim_age
    }

    /// Comparisons spent per victim search.
    pub fn search_comparisons(&self) -> &Histogram {
        &self.search_comparisons
    }

    /// Records transferred per HIR flush.
    pub fn hir_flush_entries(&self) -> &Histogram {
        &self.hir_flush_entries
    }
}

impl ToJson for TraceHistograms {
    fn to_json(&self) -> Json {
        json!({
            "inter_fault_cycles": self.inter_fault,
            "residency_cycles": self.residency,
            "victim_age_faults": self.victim_age,
            "search_comparisons": self.search_comparisons,
            "hir_flush_entries": self.hir_flush_entries,
        })
    }
}

/// Writes `events` to `out` as JSONL, one compact JSON object per line,
/// and flushes it; returns the number of lines. Identical streams give
/// byte-identical output.
///
/// # Errors
///
/// The first write or flush error.
pub fn write_jsonl(mut out: impl io::Write, events: &[SimEvent]) -> io::Result<u64> {
    for event in events {
        writeln!(out, "{}", event.to_json())?;
    }
    out.flush()?;
    Ok(events.len() as u64)
}

/// Parses a JSONL event stream produced by [`write_jsonl`]. Blank lines
/// are skipped.
///
/// # Errors
///
/// Returns [`JsonError`] naming the first malformed line (1-based).
pub fn parse_jsonl(text: &str) -> Result<Vec<SimEvent>, JsonError> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = Json::parse(line).map_err(|e| JsonError::new(format!("line {}: {e}", i + 1)))?;
        let e = uvm_util::FromJson::from_json(&v)
            .map_err(|e| JsonError::new(format!("line {}: {e}", i + 1)))?;
        events.push(e);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Instrument;
    use uvm_types::StrategyTag;
    use uvm_util::FromJson;

    fn width(w: u64) -> NonZeroU64 {
        NonZeroU64::new(w).unwrap()
    }

    fn sample_events() -> Vec<SimEvent> {
        vec![
            SimEvent::FaultRaised {
                time: 10,
                page: PageId(1),
            },
            SimEvent::PageWalk {
                time: 10,
                page: PageId(1),
                hit: false,
            },
            SimEvent::FaultServiced {
                time: 40,
                page: PageId(1),
            },
            SimEvent::FaultRaised {
                time: 120,
                page: PageId(2),
            },
            SimEvent::PrefetchIssued {
                time: 120,
                page: PageId(3),
            },
            SimEvent::VictimSelected {
                time: 150,
                page: PageId(1),
                strategy: StrategyTag::MruC,
                search_comparisons: 3,
                victim_age: 2,
            },
            SimEvent::Eviction {
                time: 150,
                page: PageId(1),
            },
            SimEvent::WrongEviction {
                time: 200,
                page: PageId(1),
                refault_distance: 1,
            },
            SimEvent::HirFlush {
                time: 220,
                entries: 5,
                dropped: 1,
            },
            SimEvent::StrategySwitch {
                time: 230,
                from: StrategyTag::MruC,
                to: StrategyTag::Lru,
                ratio1: 0.2,
                ratio2: 2.0,
                fault_num: 64,
            },
            SimEvent::MemoryFull { time: 240 },
        ]
    }

    #[test]
    fn counters_count_every_kind() {
        let c = EventCounters::of(&sample_events());
        assert_eq!(c.faults_raised, 2);
        assert_eq!(c.faults_serviced, 1);
        assert_eq!(c.evictions, 1);
        assert_eq!(c.memory_full, 1);
        assert_eq!(c.page_walks, 1);
        assert_eq!(c.walk_hits, 0);
        assert_eq!(c.prefetches, 1);
        assert_eq!(c.wrong_evictions, 1);
        assert_eq!(c.victims_selected, 1);
        assert_eq!(c.strategy_switches, 1);
        assert_eq!(c.hir_flushes, 1);
        assert_eq!(c.hir_entries, 5);
        assert_eq!(c.hir_dropped, 1);
        assert_eq!(c.total(), 11);
        let back = EventCounters::from_json(&c.to_json()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn event_log_counts_and_series() {
        // The recording instrument keeps the stream in order; counts and
        // the per-cycle fault series are computed from it.
        let mut log = crate::EventLog::new();
        log.on_event(SimEvent::FaultRaised {
            time: 5,
            page: PageId(1),
        });
        log.on_event(SimEvent::FaultServiced {
            time: 10,
            page: PageId(1),
        });
        log.on_event(SimEvent::Eviction {
            time: 12,
            page: PageId(0),
        });
        log.on_event(SimEvent::FaultRaised {
            time: 25,
            page: PageId(2),
        });
        assert_eq!(log.len(), 4);
        assert_eq!(log[0].time(), 5);
        let c = EventCounters::of(&log);
        assert_eq!((c.faults_raised, c.evictions, c.faults_serviced), (2, 1, 1));
        let iv = IntervalSeries::of(&log, IntervalKey::Cycles(width(10)));
        let faults: Vec<u64> = iv.rows().iter().map(|r| r.faults).collect();
        assert_eq!(faults, vec![1, 0, 1]);
    }

    #[test]
    fn interval_series_buckets_by_cycles() {
        let iv = IntervalSeries::of(&sample_events(), IntervalKey::Cycles(width(100)));
        // Buckets: [0,100) [100,200) [200,300).
        assert_eq!(iv.rows().len(), 3);
        assert_eq!(iv.rows()[0].faults, 1);
        assert_eq!(iv.rows()[1].faults, 1);
        assert_eq!(iv.rows()[1].evictions, 1);
        assert_eq!(iv.rows()[2].wrong_evictions, 1);
        assert_eq!(iv.rows()[2].hir_entries, 5);
        assert_eq!(iv.rows()[2].strategy_switches, 1);
        let j = iv.to_json();
        assert_eq!(j["key"].as_str(), Some("cycles"));
        assert_eq!(j["width"].as_u64(), Some(100));
        assert_eq!(j["intervals"].as_u64(), Some(3));
        let faults: Vec<u64> = Vec::from_json(&j["series"]["faults"]).unwrap();
        assert_eq!(faults, vec![1, 1, 0]);
    }

    #[test]
    fn interval_series_buckets_by_faults() {
        let events: Vec<SimEvent> = (0..5u64)
            .flat_map(|n| {
                [
                    SimEvent::FaultRaised {
                        time: n * 1000,
                        page: PageId(n),
                    },
                    SimEvent::Eviction {
                        time: n * 1000 + 1,
                        page: PageId(n),
                    },
                ]
            })
            .collect();
        let iv = IntervalSeries::of(&events, IntervalKey::Faults(width(2)));
        // 5 faults in windows of 2 -> 3 windows; evictions follow the
        // fault clock, with eviction n landing after fault n advanced it.
        let faults: Vec<u64> = iv.rows().iter().map(|r| r.faults).collect();
        assert_eq!(faults, vec![2, 2, 1]);
        let evictions: Vec<u64> = iv.rows().iter().map(|r| r.evictions).collect();
        assert_eq!(evictions.iter().sum::<u64>(), 5);
    }

    #[test]
    fn histograms_record_distributions() {
        let h = TraceHistograms::of(&sample_events());
        assert_eq!(h.inter_fault().count(), 1); // one gap between two faults
        assert_eq!(h.inter_fault().sum(), 110);
        assert_eq!(h.residency().count(), 1); // page 1: serviced 40, evicted 150
        assert_eq!(h.residency().sum(), 110);
        assert_eq!(h.victim_age().count(), 1);
        assert_eq!(h.search_comparisons().sum(), 3);
        assert_eq!(h.hir_flush_entries().sum(), 5);
        let j = h.to_json();
        assert_eq!(j["victim_age_faults"]["count"].as_u64(), Some(1));
    }

    #[test]
    fn jsonl_roundtrips_and_is_deterministic() {
        let write = || {
            let mut bytes = Vec::new();
            assert_eq!(write_jsonl(&mut bytes, &sample_events()).unwrap(), 11);
            bytes
        };
        let bytes = write();
        assert_eq!(bytes, write(), "same events -> byte-identical JSONL");
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 11);
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, sample_events());
    }

    #[test]
    fn parse_jsonl_reports_bad_line() {
        let err = parse_jsonl("{\"kind\":\"MemoryFull\",\"time\":1}\nnot json\n").unwrap_err();
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn empty_run_histograms_are_well_formed() {
        // A run that raises no events must still summarize and export
        // cleanly: zero counts, no quantiles, valid JSON and rendering.
        let h = TraceHistograms::of(&[]);
        assert_eq!(h.inter_fault().count(), 0);
        assert_eq!(h.residency().count(), 0);
        assert_eq!(h.victim_age().quantile(0.99), None);
        for hist in [
            h.inter_fault(),
            h.residency(),
            h.victim_age(),
            h.search_comparisons(),
            h.hir_flush_entries(),
        ] {
            let rendered = hist.render();
            assert!(rendered.contains("0 samples"), "rendered: {rendered}");
            assert!(rendered.contains("min -"), "rendered: {rendered}");
        }
        let j = h.to_json();
        assert_eq!(j["inter_fault_cycles"]["count"].as_u64(), Some(0));
    }

    #[test]
    fn parse_jsonl_accepts_empty_and_blank_input() {
        assert_eq!(parse_jsonl("").unwrap(), Vec::new());
        assert_eq!(parse_jsonl("\n  \n\n").unwrap(), Vec::new());
    }

    #[test]
    fn parse_jsonl_rejects_truncated_line() {
        // A stream cut off mid-object (crashed writer) names the line.
        let good = "{\"kind\":\"MemoryFull\",\"time\":1}\n";
        let truncated = format!("{good}{}", &good[..good.len() / 2]);
        let err = parse_jsonl(&truncated).unwrap_err();
        assert!(err.to_string().contains("line 2"), "error: {err}");
    }

    #[test]
    fn parse_jsonl_rejects_valid_json_of_the_wrong_shape() {
        // Structurally valid JSON lines that are not events: unknown
        // kind, missing fields, and a non-object. Each names its line.
        for (line, lineno) in [
            ("{\"kind\":\"NotAnEvent\",\"time\":1}", "line 1"),
            ("{\"kind\":\"FaultRaised\"}", "line 1"),
            ("[1,2,3]", "line 1"),
        ] {
            let err = parse_jsonl(line).unwrap_err();
            assert!(err.to_string().contains(lineno), "error: {err}");
        }
        // And after a good line, the bad line number advances.
        let err =
            parse_jsonl("{\"kind\":\"MemoryFull\",\"time\":1}\n{\"kind\":\"Nope\"}").unwrap_err();
        assert!(err.to_string().contains("line 2"), "error: {err}");
    }
}
