//! Trace analysis: reuse (LRU stack) distances and touch statistics.
//!
//! These tools quantify whether a synthetic trace actually realizes the
//! access pattern it claims: streaming traces have no finite reuse
//! distances, thrashing traces have reuse distances clustered at the
//! footprint size, and windowed traces cluster at the window size.

use std::collections::{BTreeMap, HashMap};

/// A Fenwick (binary indexed) tree over `n` slots counting marked
/// positions; supports point update and prefix sum in O(log n).
#[derive(Debug, Clone)]
pub struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    /// Creates a tree over `n` positions (1-based internally).
    pub fn new(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    /// Adds `delta` at position `i` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn add(&mut self, i: usize, delta: i64) {
        let mut i = i + 1;
        assert!(i < self.tree.len(), "index out of range");
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta) as u64;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `0..=i` (0-based).
    pub fn prefix_sum(&self, i: usize) -> u64 {
        let mut i = (i + 1).min(self.tree.len() - 1);
        let mut s = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Total sum.
    pub fn total(&self) -> u64 {
        self.prefix_sum(self.tree.len().saturating_sub(2))
    }
}

/// Computes the LRU stack distance of every reference: the number of
/// *distinct* pages referenced since the previous reference to the same
/// page, or `None` for first touches.
///
/// A reference with stack distance `d` hits in an LRU memory of capacity
/// `> d`. O(n log n).
///
/// # Examples
///
/// ```
/// use uvm_workloads::analysis::stack_distances;
///
/// let d = stack_distances(&[1, 2, 3, 1, 1]);
/// assert_eq!(d, vec![None, None, None, Some(2), Some(0)]);
/// ```
pub fn stack_distances(global: &[u64]) -> Vec<Option<u64>> {
    let n = global.len();
    let mut fen = Fenwick::new(n);
    let mut last_pos: HashMap<u64, usize> = HashMap::new();
    let mut out = Vec::with_capacity(n);
    for (i, &page) in global.iter().enumerate() {
        match last_pos.get(&page).copied() {
            Some(prev) => {
                // Distinct pages touched in (prev, i) = marked positions.
                let between = fen.prefix_sum(i.saturating_sub(1))
                    - if prev == 0 {
                        0
                    } else {
                        fen.prefix_sum(prev - 1)
                    }
                    - 1; // exclude the page's own mark at prev
                out.push(Some(between));
                fen.add(prev, -1);
            }
            None => out.push(None),
        }
        fen.add(i, 1);
        last_pos.insert(page, i);
    }
    out
}

/// Summary statistics of a global reference trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceProfile {
    /// Total references.
    pub refs: u64,
    /// Distinct pages.
    pub distinct: u64,
    /// First-touch (compulsory) fraction of references.
    pub compulsory_fraction: f64,
    /// Median finite stack distance, if any reuse exists.
    pub median_reuse: Option<u64>,
    /// 90th-percentile finite stack distance.
    pub p90_reuse: Option<u64>,
    /// Maximum references to any single page.
    pub max_refs_per_page: u64,
}

/// Profiles a trace.
pub fn profile(global: &[u64]) -> TraceProfile {
    let distances = stack_distances(global);
    let mut finite: Vec<u64> = distances.iter().filter_map(|d| *d).collect();
    finite.sort_unstable();
    let mut per_page: BTreeMap<u64, u64> = BTreeMap::new();
    for &p in global {
        *per_page.entry(p).or_insert(0) += 1;
    }
    let firsts = distances.iter().filter(|d| d.is_none()).count() as u64;
    TraceProfile {
        refs: global.len() as u64,
        distinct: per_page.len() as u64,
        compulsory_fraction: if global.is_empty() {
            0.0
        } else {
            firsts as f64 / global.len() as f64
        },
        median_reuse: percentile(&finite, 0.50),
        p90_reuse: percentile(&finite, 0.90),
        max_refs_per_page: per_page.values().copied().max().unwrap_or(0),
    }
}

fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        None
    } else {
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        Some(sorted[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{patterns, registry};

    #[test]
    fn fenwick_prefix_sums() {
        let mut f = Fenwick::new(8);
        f.add(0, 1);
        f.add(3, 2);
        f.add(7, 5);
        assert_eq!(f.prefix_sum(0), 1);
        assert_eq!(f.prefix_sum(2), 1);
        assert_eq!(f.prefix_sum(3), 3);
        assert_eq!(f.prefix_sum(7), 8);
        assert_eq!(f.total(), 8);
        f.add(3, -2);
        assert_eq!(f.prefix_sum(7), 6);
    }

    #[test]
    fn stack_distance_textbook_example() {
        // a b c b a: b's reuse skips {c} -> 1; a's skips {b, c} -> 2.
        let d = stack_distances(&[0, 1, 2, 1, 0]);
        assert_eq!(d, vec![None, None, None, Some(1), Some(2)]);
    }

    #[test]
    fn immediate_reuse_has_distance_zero() {
        let d = stack_distances(&[5, 5, 5]);
        assert_eq!(d, vec![None, Some(0), Some(0)]);
    }

    #[test]
    fn streaming_has_no_reuse() {
        let s = patterns::streaming(64, 1);
        let p = profile(&s);
        assert_eq!(p.compulsory_fraction, 1.0);
        assert_eq!(p.median_reuse, None);
        assert_eq!(p.max_refs_per_page, 1);
    }

    #[test]
    fn thrashing_reuse_distance_equals_footprint() {
        // Cyclic sweep of k pages: every reuse skips exactly k-1 pages.
        let s = patterns::thrashing(50, 4);
        let d = stack_distances(&s);
        for dist in d.iter().flatten() {
            assert_eq!(*dist, 49);
        }
        let p = profile(&s);
        assert_eq!(p.median_reuse, Some(49));
        assert_eq!(p.max_refs_per_page, 4);
    }

    #[test]
    fn region_moving_reuse_bounded_by_region() {
        let s = patterns::region_moving(512, 4, 3);
        let p = profile(&s);
        assert_eq!(p.p90_reuse, Some(127), "reuse stays within a region");
    }

    #[test]
    fn registered_type_ii_apps_have_footprint_scale_reuse() {
        for abbr in ["SRD", "HSD"] {
            let app = registry::by_abbr(abbr).unwrap();
            let p = profile(&app.global_sequence());
            let median = p.median_reuse.expect("reuse exists") as f64;
            let footprint = app.footprint_pages() as f64;
            assert!(
                median > 0.9 * footprint,
                "{abbr}: median reuse {median} not at footprint scale {footprint}"
            );
        }
    }

    #[test]
    fn registered_streaming_apps_have_tiny_reuse() {
        for abbr in ["LEU", "2DC"] {
            let app = registry::by_abbr(abbr).unwrap();
            let p = profile(&app.global_sequence());
            assert!(
                p.median_reuse.is_none() || p.median_reuse == Some(0),
                "{abbr}: unexpected reuse {:?}",
                p.median_reuse
            );
        }
    }

    #[test]
    fn profile_of_empty_trace() {
        let p = profile(&[]);
        assert_eq!(p.refs, 0);
        assert_eq!(p.distinct, 0);
        assert_eq!(p.compulsory_fraction, 0.0);
    }
}
