//! Trace sinks: composable instruments over the simulation event stream.
//!
//! Everything here implements [`Instrument`] and can be attached to a
//! [`Simulation`](crate::Simulation) directly or fanned out in a tuple:
//!
//! * [`EventCounters`] — counters only, one `u64` increment per event;
//!   the cheapest way to answer "how many of each kind".
//! * [`IntervalCollector`] — windowed time series (faults, evictions,
//!   wrong evictions, ... per cycle- or fault-count bucket).
//! * [`TraceHistograms`] — fixed-bucket distributions (inter-fault gap,
//!   page residency lifetime, victim age, search comparisons, HIR flush
//!   sizes) built on [`uvm_util::Histogram`].
//! * [`JsonlWriter`] — one compact JSON object per event, newline
//!   delimited; [`parse_jsonl`] reads the stream back.
//!
//! All sinks serialize through [`uvm_util::json`], so their output is
//! deterministic for a deterministic simulation.

use std::collections::HashMap;
use std::io;

use uvm_types::PageId;
use uvm_util::{json, Histogram, Json, JsonError, ToJson};

use crate::instrument::{Instrument, SimEvent};

/// A counters-only sink: one integer increment per event, no allocation.
///
/// This is the near-zero-cost way to watch a run; attach it when only
/// totals matter and the full [`EventLog`](crate::EventLog) would be
/// wasteful.
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

impl Instrument for EventCounters {
    fn on_event(&mut self, event: SimEvent) {
        match event {
            SimEvent::FaultRaised { .. } => self.faults_raised += 1,
            SimEvent::FaultServiced { .. } => self.faults_serviced += 1,
            SimEvent::Eviction { .. } => self.evictions += 1,
            SimEvent::MemoryFull { .. } => self.memory_full += 1,
            SimEvent::PageWalk { hit, .. } => {
                self.page_walks += 1;
                if hit {
                    self.walk_hits += 1;
                }
            }
            SimEvent::PrefetchIssued { .. } => self.prefetches += 1,
            SimEvent::WrongEviction { .. } => self.wrong_evictions += 1,
            SimEvent::VictimSelected { .. } => self.victims_selected += 1,
            SimEvent::StrategySwitch { .. } => self.strategy_switches += 1,
            SimEvent::HirFlush {
                entries, dropped, ..
            } => {
                self.hir_flushes += 1;
                self.hir_entries += entries;
                self.hir_dropped += dropped;
            }
        }
    }
}

/// How an [`IntervalCollector`] assigns events to windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalKey {
    /// Fixed windows of this many simulated cycles.
    Cycles(u64),
    /// Fixed windows of this many raised faults (the paper's interval
    /// clock: HPE rotates partitions every `interval_len` faults, so
    /// fault-indexed series line up with policy phases).
    Faults(u64),
}

impl IntervalKey {
    fn width(self) -> u64 {
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

/// One window of an [`IntervalCollector`] series.
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

/// Windowed time series over the event stream.
///
/// Events fall into fixed-width buckets keyed by simulated cycle or by
/// running fault count ([`IntervalKey`]); each bucket accumulates an
/// [`IntervalRow`]. Serialization is columnar: one array per field, all
/// the same length, ready for plotting or diffing.
///
/// # Examples
///
/// ```
/// use uvm_sim::{Instrument, IntervalCollector, IntervalKey, SimEvent};
/// use uvm_types::PageId;
///
/// let mut iv = IntervalCollector::new(IntervalKey::Cycles(100));
/// iv.on_event(SimEvent::FaultRaised { time: 10, page: PageId(1) });
/// iv.on_event(SimEvent::FaultRaised { time: 250, page: PageId(2) });
/// let faults: Vec<u64> = iv.rows().iter().map(|r| r.faults).collect();
/// assert_eq!(faults, vec![1, 0, 1]);
/// ```
#[derive(Debug)]
pub struct IntervalCollector {
    key: IntervalKey,
    rows: Vec<IntervalRow>,
    faults_seen: u64,
}

impl IntervalCollector {
    /// Creates a collector with the given bucketing.
    ///
    /// # Panics
    ///
    /// Panics if the window width is zero.
    pub fn new(key: IntervalKey) -> Self {
        assert!(key.width() > 0, "interval width must be nonzero");
        IntervalCollector {
            key,
            rows: Vec::new(),
            faults_seen: 0,
        }
    }

    /// The bucketing in use.
    pub fn key(&self) -> IntervalKey {
        self.key
    }

    /// The accumulated windows, oldest first.
    pub fn rows(&self) -> &[IntervalRow] {
        &self.rows
    }

    fn row(&mut self, time: u64) -> &mut IntervalRow {
        let pos = match self.key {
            IntervalKey::Cycles(w) => time / w,
            IntervalKey::Faults(w) => self.faults_seen / w,
        } as usize;
        if pos >= self.rows.len() {
            self.rows.resize(pos + 1, IntervalRow::default());
        }
        &mut self.rows[pos]
    }
}

impl Instrument for IntervalCollector {
    fn on_event(&mut self, event: SimEvent) {
        let time = event.time();
        match event {
            SimEvent::FaultRaised { .. } => {
                self.row(time).faults += 1;
                self.faults_seen += 1;
            }
            SimEvent::FaultServiced { .. } => self.row(time).serviced += 1,
            SimEvent::Eviction { .. } => self.row(time).evictions += 1,
            SimEvent::MemoryFull { .. } => {}
            SimEvent::PageWalk { hit, .. } => {
                let row = self.row(time);
                row.walks += 1;
                if hit {
                    row.walk_hits += 1;
                }
            }
            SimEvent::PrefetchIssued { .. } => self.row(time).prefetches += 1,
            SimEvent::WrongEviction { .. } => self.row(time).wrong_evictions += 1,
            SimEvent::VictimSelected { .. } => {}
            SimEvent::StrategySwitch { .. } => self.row(time).strategy_switches += 1,
            SimEvent::HirFlush { entries, .. } => self.row(time).hir_entries += entries,
        }
    }
}

impl ToJson for IntervalCollector {
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
            "width": self.key.width(),
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

/// Distribution sink: fixed-bucket histograms over the event stream.
///
/// Records five distributions:
///
/// * `inter_fault_cycles` — gap between consecutive `FaultRaised` events,
/// * `residency_cycles` — lifetime of a page from `FaultServiced` to its
///   `Eviction` (pages never evicted are not recorded),
/// * `victim_age_faults` — `victim_age` of each `VictimSelected`,
/// * `search_comparisons` — comparisons of each `VictimSelected`,
/// * `hir_flush_entries` — `entries` of each `HirFlush`.
#[derive(Debug)]
pub struct TraceHistograms {
    inter_fault: Histogram,
    residency: Histogram,
    victim_age: Histogram,
    search_comparisons: Histogram,
    hir_flush_entries: Histogram,
    last_fault_time: Option<u64>,
    serviced_at: HashMap<PageId, u64>,
}

impl TraceHistograms {
    /// Creates the sink with bucket geometry sized for the scaled paper
    /// workloads (fault service ≈ 28 k cycles).
    pub fn new() -> Self {
        TraceHistograms {
            inter_fault: Histogram::new("inter_fault_cycles", 4_096, 64),
            residency: Histogram::new("residency_cycles", 65_536, 64),
            victim_age: Histogram::new("victim_age_faults", 16, 64),
            search_comparisons: Histogram::new("search_comparisons", 4, 64),
            hir_flush_entries: Histogram::new("hir_flush_entries", 4, 64),
            last_fault_time: None,
            serviced_at: HashMap::new(),
        }
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

impl Default for TraceHistograms {
    fn default() -> Self {
        Self::new()
    }
}

impl Instrument for TraceHistograms {
    fn on_event(&mut self, event: SimEvent) {
        match event {
            SimEvent::FaultRaised { time, .. } => {
                if let Some(last) = self.last_fault_time {
                    self.inter_fault.record(time.saturating_sub(last));
                }
                self.last_fault_time = Some(time);
            }
            SimEvent::FaultServiced { time, page } => {
                self.serviced_at.insert(page, time);
            }
            SimEvent::Eviction { time, page } => {
                if let Some(at) = self.serviced_at.remove(&page) {
                    self.residency.record(time.saturating_sub(at));
                }
            }
            SimEvent::VictimSelected {
                search_comparisons,
                victim_age,
                ..
            } => {
                self.victim_age.record(victim_age);
                self.search_comparisons.record(search_comparisons);
            }
            SimEvent::HirFlush { entries, .. } => {
                self.hir_flush_entries.record(entries);
            }
            _ => {}
        }
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

/// Streams every event as one compact JSON object per line (JSONL).
///
/// Output is deterministic: a deterministic simulation produces
/// byte-identical files across runs. Write errors are held and reported
/// through [`JsonlWriter::take_error`] (the instrument callback cannot
/// fail); once an error occurs, further events are dropped.
pub struct JsonlWriter<W: io::Write> {
    out: W,
    lines: u64,
    error: Option<io::Error>,
}

impl<W: io::Write> JsonlWriter<W> {
    /// Wraps `out`.
    pub fn new(out: W) -> Self {
        JsonlWriter {
            out,
            lines: 0,
            error: None,
        }
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// The first write error, if any (taking it clears the fuse).
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }

    /// Flushes and unwraps the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns the first deferred write error or the flush error.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: io::Write> std::fmt::Debug for JsonlWriter<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlWriter")
            .field("lines", &self.lines)
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

impl<W: io::Write> Instrument for JsonlWriter<W> {
    fn on_event(&mut self, event: SimEvent) {
        if self.error.is_some() {
            return;
        }
        let line = event.to_json().to_string();
        if let Err(e) = writeln!(self.out, "{line}") {
            self.error = Some(e);
            return;
        }
        self.lines += 1;
    }
}

/// Parses a JSONL event stream produced by [`JsonlWriter`]. Blank lines
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
    use uvm_types::StrategyTag;
    use uvm_util::FromJson;

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
        let mut c = EventCounters::default();
        for e in sample_events() {
            c.on_event(e);
        }
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
    fn interval_collector_buckets_by_cycles() {
        let mut iv = IntervalCollector::new(IntervalKey::Cycles(100));
        for e in sample_events() {
            iv.on_event(e);
        }
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
    fn interval_collector_buckets_by_faults() {
        let mut iv = IntervalCollector::new(IntervalKey::Faults(2));
        for n in 0..5u64 {
            iv.on_event(SimEvent::FaultRaised {
                time: n * 1000,
                page: PageId(n),
            });
            iv.on_event(SimEvent::Eviction {
                time: n * 1000 + 1,
                page: PageId(n),
            });
        }
        // 5 faults in windows of 2 -> 3 windows; evictions follow the
        // fault clock, with eviction n landing after fault n advanced it.
        let faults: Vec<u64> = iv.rows().iter().map(|r| r.faults).collect();
        assert_eq!(faults, vec![2, 2, 1]);
        let evictions: Vec<u64> = iv.rows().iter().map(|r| r.evictions).collect();
        assert_eq!(evictions.iter().sum::<u64>(), 5);
    }

    #[test]
    #[should_panic(expected = "interval width must be nonzero")]
    fn interval_collector_rejects_zero_width() {
        IntervalCollector::new(IntervalKey::Faults(0));
    }

    #[test]
    fn histograms_record_distributions() {
        let mut h = TraceHistograms::new();
        for e in sample_events() {
            h.on_event(e);
        }
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
            let mut w = JsonlWriter::new(Vec::new());
            for e in sample_events() {
                w.on_event(e);
            }
            assert_eq!(w.lines(), 11);
            w.finish().unwrap()
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
        let h = TraceHistograms::new();
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
