//! Trace representation and distribution over per-warp streams.

use uvm_types::PageId;
use uvm_util::json::field;
use uvm_util::strict::reject_unknown_keys;
use uvm_util::{impl_json_struct, FromJson, Json, JsonError, ToJson};

use crate::App;

/// One simulated instruction bundle: a memory access to `page` followed by
/// `compute` compute instructions (one cycle each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Op {
    /// The virtual page touched by the memory access.
    pub page: PageId,
    /// Compute instructions executed after the access.
    pub compute: u16,
}

impl_json_struct!(Op { page, compute });

/// A workload trace: one op stream per simulated warp.
///
/// [`Trace::build`] distributes an application's global page-reference
/// sequence over `n_streams` streams in contiguous tiles dealt round-robin,
/// mimicking how consecutive GPU thread blocks cover consecutive portions
/// of a kernel's iteration space. With warps progressing at similar rates,
/// the aggregate reference order seen by the memory system approximates the
/// global sequence.
///
/// # Examples
///
/// ```
/// use uvm_workloads::{registry, Trace};
///
/// let app = registry::by_abbr("HOT").unwrap();
/// let trace = Trace::build(app, 4, 8);
/// let total: usize = trace.streams().iter().map(|s| s.len()).sum();
/// assert_eq!(total as u64, trace.total_ops());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    streams: Vec<Vec<Op>>,
    footprint_pages: u64,
    total_ops: u64,
}

impl ToJson for Trace {
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert("streams", self.streams.to_json());
        obj.insert("footprint_pages", self.footprint_pages.to_json());
        obj.insert("total_ops", self.total_ops.to_json());
        obj
    }
}

/// Holds a parsed trace to [`Trace::from_global`]'s invariants: every
/// page below the footprint, and `total_ops` equal to the ops present.
/// Simulators index per-page tables by page number on the strength of
/// the first.
impl FromJson for Trace {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        reject_unknown_keys(v, &["streams", "footprint_pages", "total_ops"])?;
        let streams: Vec<Vec<Op>> = field(v, "streams")?;
        let footprint_pages = field(v, "footprint_pages")?;
        let total_ops = field(v, "total_ops")?;
        if let Some(op) = streams
            .iter()
            .flatten()
            .find(|op| op.page.0 >= footprint_pages)
        {
            return Err(JsonError::new(format!(
                "page index {} outside footprint {footprint_pages}",
                op.page.0
            )));
        }
        if streams.iter().map(|s| s.len() as u64).sum::<u64>() != total_ops {
            return Err(JsonError::new("`total_ops` does not match the streams"));
        }
        Ok(Trace {
            streams,
            footprint_pages,
            total_ops,
        })
    }
}

impl Trace {
    /// Builds a trace for `app`, dealing tiles of `tile` consecutive global
    /// references round-robin to `n_streams` streams.
    ///
    /// # Panics
    ///
    /// Panics if `n_streams` or `tile` is zero.
    pub fn build(app: &App, n_streams: u32, tile: u32) -> Trace {
        let global = app.global_sequence();
        Self::from_global(
            &global,
            app.footprint_pages(),
            app.compute_per_op(),
            n_streams,
            tile,
        )
    }

    /// Builds a trace directly from a global page-index sequence.
    ///
    /// Exposed so tests and custom workloads can bypass the registry.
    ///
    /// # Panics
    ///
    /// Panics if `n_streams` or `tile` is zero, or if any page index is not
    /// below `footprint_pages`.
    pub fn from_global(
        global: &[u64],
        footprint_pages: u64,
        compute_per_op: u16,
        n_streams: u32,
        tile: u32,
    ) -> Trace {
        assert!(n_streams > 0, "n_streams must be nonzero");
        assert!(tile > 0, "tile must be nonzero");
        let mut streams: Vec<Vec<Op>> = vec![Vec::new(); n_streams as usize];
        for (chunk_idx, chunk) in global.chunks(tile as usize).enumerate() {
            let stream = &mut streams[chunk_idx % n_streams as usize];
            for &p in chunk {
                assert!(
                    p < footprint_pages,
                    "page index {p} outside footprint {footprint_pages}"
                );
                stream.push(Op {
                    page: PageId(p),
                    compute: compute_per_op,
                });
            }
        }
        Trace {
            streams,
            footprint_pages,
            total_ops: global.len() as u64,
        }
    }

    /// The per-warp op streams.
    pub fn streams(&self) -> &[Vec<Op>] {
        &self.streams
    }

    /// Footprint of the workload in pages.
    pub fn footprint_pages(&self) -> u64 {
        self.footprint_pages
    }

    /// Total number of ops across all streams.
    pub fn total_ops(&self) -> u64 {
        self.total_ops
    }

    /// Deterministic round-robin merge of the streams: round `r` yields the
    /// `r`-th op of each stream in stream order. This approximates the
    /// reference order of warps progressing in lockstep and is the order
    /// the Belady ("Ideal") oracle uses for next-use distances.
    pub fn round_robin_interleave(&self) -> Vec<PageId> {
        let mut out = Vec::with_capacity(self.total_ops as usize);
        let max_len = self.streams.iter().map(Vec::len).max().unwrap_or(0);
        for r in 0..max_len {
            for s in &self.streams {
                if let Some(op) = s.get(r) {
                    out.push(op.page);
                }
            }
        }
        out
    }

    /// Number of distinct pages actually referenced (compulsory faults
    /// under unconstrained memory).
    pub fn distinct_pages(&self) -> u64 {
        let mut seen = vec![false; self.footprint_pages as usize];
        let mut n = 0u64;
        for s in &self.streams {
            for op in s {
                let idx = op.page.0 as usize;
                if !seen[idx] {
                    seen[idx] = true;
                    n += 1;
                }
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_deal_round_robin() {
        let global: Vec<u64> = (0..10).collect();
        let t = Trace::from_global(&global, 10, 0, 2, 3);
        // Tiles: [0,1,2] [3,4,5] [6,7,8] [9] -> streams 0,1,0,1.
        let s0: Vec<u64> = t.streams()[0].iter().map(|o| o.page.0).collect();
        let s1: Vec<u64> = t.streams()[1].iter().map(|o| o.page.0).collect();
        assert_eq!(s0, vec![0, 1, 2, 6, 7, 8]);
        assert_eq!(s1, vec![3, 4, 5, 9]);
        assert_eq!(t.total_ops(), 10);
    }

    #[test]
    fn round_robin_interleave_contains_everything() {
        let global: Vec<u64> = (0..23).collect();
        let t = Trace::from_global(&global, 23, 0, 4, 2);
        let merged = t.round_robin_interleave();
        assert_eq!(merged.len(), 23);
        let mut sorted: Vec<u64> = merged.iter().map(|p| p.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn distinct_pages_counts_unique() {
        let global = vec![0, 1, 1, 2, 0];
        let t = Trace::from_global(&global, 3, 0, 1, 4);
        assert_eq!(t.distinct_pages(), 3);
    }

    #[test]
    #[should_panic(expected = "outside footprint")]
    fn rejects_out_of_footprint_page() {
        Trace::from_global(&[5], 5, 0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "n_streams must be nonzero")]
    fn rejects_zero_streams() {
        Trace::from_global(&[0], 1, 0, 0, 1);
    }

    #[test]
    fn compute_per_op_propagates() {
        let t = Trace::from_global(&[0, 1], 2, 7, 1, 1);
        assert!(t.streams()[0].iter().all(|o| o.compute == 7));
    }

    #[test]
    fn trace_json_roundtrip() {
        use uvm_util::{FromJson, Json, ToJson};
        let t = Trace::from_global(&[0, 1, 1, 2], 3, 5, 2, 1);
        let text = t.to_json().to_string();
        let back = Trace::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn trace_json_breaking_from_global_invariants_is_rejected() {
        use uvm_util::{FromJson, Json, ToJson};
        let text = Trace::from_global(&[0, 5], 6, 0, 1, 1)
            .to_json()
            .to_string();
        for (from, to) in [
            ("\"footprint_pages\":6", "\"footprint_pages\":2"),
            ("\"total_ops\":2", "\"total_ops\":99"),
        ] {
            let bad = text.replace(from, to);
            assert_ne!(bad, text, "field {from} not found in {text}");
            assert!(Trace::from_json(&Json::parse(&bad).unwrap()).is_err());
        }
    }

    #[test]
    fn empty_global_gives_empty_streams() {
        let t = Trace::from_global(&[], 0, 0, 3, 2);
        assert_eq!(t.total_ops(), 0);
        assert!(t.round_robin_interleave().is_empty());
        assert_eq!(t.distinct_pages(), 0);
    }
}
