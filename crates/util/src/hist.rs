//! A fixed-bucket histogram for trace analyses (inter-fault distances,
//! page residency lifetimes, victim ages, search comparisons).
//!
//! Buckets are uniform: value `v` lands in bucket `v / bucket_width`,
//! with everything past the last bucket accumulated in an overflow
//! bucket. The summary statistics (count/sum/min/max) are exact even for
//! overflowed samples, and serialization goes through [`crate::json`](mod@crate::json) so
//! histograms drop straight into bench reports and JSONL traces.
//!
//! # Examples
//!
//! ```
//! use uvm_util::Histogram;
//!
//! let mut h = Histogram::new("victim_age", 10, 4);
//! for v in [3, 17, 17, 99] {
//!     h.record(v);
//! }
//! assert_eq!(h.count(), 4);
//! assert_eq!(h.bucket_counts(), &[1, 2, 0, 0]);
//! assert_eq!(h.overflow(), 1); // 99 >= 4 * 10
//! assert_eq!(h.max(), Some(99));
//! ```

use crate::json::{field, Json, JsonError, ToJson};
use crate::FromJson;

/// A fixed-width-bucket histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    name: String,
    bucket_width: u64,
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram with `n_buckets` buckets of
    /// `bucket_width` each; samples at or beyond `n_buckets *
    /// bucket_width` land in the overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` or `n_buckets` is zero.
    pub fn new(name: impl Into<String>, bucket_width: u64, n_buckets: usize) -> Self {
        assert!(bucket_width > 0, "bucket_width must be nonzero");
        assert!(n_buckets > 0, "n_buckets must be nonzero");
        Histogram {
            name: name.into(),
            bucket_width,
            buckets: vec![0; n_buckets],
            overflow: 0,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = (value / self.bucket_width) as usize;
        match self.buckets.get_mut(idx) {
            Some(b) => *b += 1,
            None => self.overflow += 1,
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// The histogram's name (used as the JSON `name` field).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Width of each bucket.
    pub fn bucket_width(&self) -> u64 {
        self.bucket_width
    }

    /// Per-bucket sample counts (without the overflow bucket).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Samples beyond the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, if any were recorded.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any were recorded.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean of all samples, or 0 with none.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0.0..=1.0`), or `None` with no samples.
    ///
    /// The estimate walks the cumulative bucket counts and returns the
    /// *upper bound* of the bucket containing the `ceil(q * count)`-th
    /// sample — exact to within one `bucket_width`. When the quantile
    /// falls in the overflow bucket the exact recorded maximum is
    /// returned instead, so the tail is never under-reported; `q <= 0`
    /// likewise returns the exact minimum.
    ///
    /// # Panics
    ///
    /// Panics if `q` is NaN.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!(!q.is_nan(), "quantile must not be NaN");
        if self.count == 0 {
            return None;
        }
        if q <= 0.0 {
            return self.min();
        }
        let rank = ((q.min(1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                let hi = (i as u64 + 1) * self.bucket_width - 1;
                // Never report past the exact maximum (e.g. a single
                // sample of 3 in a width-64 bucket is p99 = 3, not 63).
                return Some(hi.min(self.max));
            }
        }
        // The rank lands in the overflow bucket.
        self.max()
    }

    /// Renders a one-line-per-bucket text view (for CLI output). Empty
    /// trailing buckets are elided.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}: {} samples, mean {:.1}, min {}, max {}",
            self.name,
            self.count,
            self.mean(),
            self.min().map_or("-".into(), |v| v.to_string()),
            self.max().map_or("-".into(), |v| v.to_string()),
        );
        let peak = self.buckets.iter().copied().max().unwrap_or(0).max(1);
        let last_used = self.buckets.iter().rposition(|&b| b > 0);
        if let Some(last) = last_used {
            for (i, &b) in self.buckets.iter().enumerate().take(last + 1) {
                let lo = i as u64 * self.bucket_width;
                let hi = lo + self.bucket_width - 1;
                let bar = "#".repeat(((b * 40).div_ceil(peak)) as usize);
                let _ = writeln!(out, "  [{lo:>8}..{hi:>8}] {b:>8} {bar}");
            }
        }
        if self.overflow > 0 {
            let _ = writeln!(
                out,
                "  [{:>8}..     inf] {:>8}",
                self.buckets.len() as u64 * self.bucket_width,
                self.overflow
            );
        }
        out
    }
}

impl ToJson for Histogram {
    fn to_json(&self) -> Json {
        crate::json!({
            "name": self.name,
            "bucket_width": self.bucket_width,
            "buckets": self.buckets,
            "overflow": self.overflow,
            "count": self.count,
            "sum": self.sum,
            "min": self.min(),
            "max": self.max(),
            "mean": self.mean(),
        })
    }
}

impl FromJson for Histogram {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        // `mean` is derived, so it is accepted and not read back.
        crate::strict::reject_unknown_keys(
            v,
            &[
                "name",
                "bucket_width",
                "buckets",
                "overflow",
                "count",
                "sum",
                "min",
                "max",
                "mean",
            ],
        )?;
        let buckets: Vec<u64> = field(v, "buckets")?;
        if buckets.is_empty() {
            return Err(JsonError::new("histogram needs at least one bucket").at_key("buckets"));
        }
        let count = field(v, "count")?;
        Ok(Histogram {
            name: field(v, "name")?,
            bucket_width: field::<u64>(v, "bucket_width")?.max(1),
            buckets,
            overflow: field(v, "overflow")?,
            count,
            sum: field(v, "sum")?,
            min: if count > 0 {
                field(v, "min")?
            } else {
                u64::MAX
            },
            max: if count > 0 { field(v, "max")? } else { 0 },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_buckets_and_overflow() {
        let mut h = Histogram::new("t", 100, 3);
        h.record(0);
        h.record(99);
        h.record(100);
        h.record(250);
        h.record(300); // first value past the last bucket
        h.record(1_000_000);
        assert_eq!(h.bucket_counts(), &[2, 1, 1]);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1_000_000));
    }

    #[test]
    fn empty_histogram_reports_no_extrema() {
        let h = Histogram::new("e", 1, 1);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
        assert!(h.render().contains("0 samples"));
    }

    #[test]
    fn json_roundtrip() {
        let mut h = Histogram::new("ifd", 50, 4);
        for v in [1, 2, 3, 77, 500] {
            h.record(v);
        }
        let back = Histogram::from_json(&h.to_json()).unwrap();
        assert_eq!(back, h);

        let empty = Histogram::new("none", 10, 2);
        assert_eq!(Histogram::from_json(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn render_shows_bars() {
        let mut h = Histogram::new("v", 10, 4);
        for _ in 0..5 {
            h.record(15);
        }
        h.record(100);
        let s = h.render();
        assert!(s.contains("#"));
        assert!(s.contains("inf"));
    }

    #[test]
    #[should_panic(expected = "bucket_width must be nonzero")]
    fn zero_width_rejected() {
        Histogram::new("x", 0, 4);
    }

    #[test]
    fn quantiles_walk_cumulative_buckets() {
        let mut h = Histogram::new("q", 10, 10);
        for v in 0..100 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(49)); // 50th sample is 49, bucket [40..49]
        assert_eq!(h.quantile(0.99), Some(99));
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(99));
    }

    #[test]
    fn quantile_all_equal_and_saturating_bucket() {
        // All-equal samples: every quantile (including clamped q > 1) is
        // the common value, never a bucket bound.
        let mut h = Histogram::new("eq", 8, 4);
        for _ in 0..32 {
            h.record(17);
        }
        for q in [0.0, 0.25, 0.5, 0.9, 1.0, 2.0] {
            assert_eq!(h.quantile(q), Some(17), "q={q}");
        }
        // Every sample past the last bucket: the cumulative walk finds
        // nothing and lands in the (saturated) overflow bucket, which
        // reports the exact recorded max — except q <= 0, the exact min.
        let mut o = Histogram::new("ovf", 4, 2);
        for v in [100, 200, 300] {
            o.record(v);
        }
        assert_eq!(o.overflow(), 3);
        assert_eq!(o.quantile(0.0), Some(100));
        assert_eq!(o.quantile(0.5), Some(300));
        assert_eq!(o.quantile(1.0), Some(300));
    }

    #[test]
    #[should_panic(expected = "quantile must not be NaN")]
    fn quantile_rejects_nan() {
        let _ = Histogram::new("n", 1, 1).quantile(f64::NAN);
    }

    #[test]
    fn quantile_clamps_to_exact_extrema() {
        let mut h = Histogram::new("q", 64, 4);
        h.record(3);
        // One sample: every quantile is that sample, not its bucket bound.
        assert_eq!(h.quantile(0.5), Some(3));
        assert_eq!(h.quantile(0.99), Some(3));
        // Overflow samples report the exact maximum.
        h.record(10_000);
        assert_eq!(h.quantile(1.0), Some(10_000));
        assert_eq!(Histogram::new("none", 1, 1).quantile(0.5), None);
    }
}
