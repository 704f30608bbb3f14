//! A micro-benchmark timer with a criterion-shaped API.
//!
//! Replaces `criterion` for `crates/bench/benches/*`: the same
//! [`Criterion::bench_function`] / [`Bencher::iter`] /
//! [`Bencher::iter_batched`] surface and the
//! [`criterion_group!`](crate::criterion_group) /
//! [`criterion_main!`](crate::criterion_main) macros, backed by a plain wall-clock sampler. Each
//! benchmark warms up briefly, then takes timed samples and prints the
//! median ns/iteration — enough to confirm the paper's "well under the
//! 20 µs fault penalty" claims without a statistics engine.
//!
//! Environment overrides:
//!
//! - `UVM_BENCH_MS` — target measurement time per benchmark in
//!   milliseconds (default 200).
//! - `UVM_BENCH_FAST=1` — one sample of one iteration, for smoke-testing
//!   that benches run at all.

#![expect(
    clippy::disallowed_methods,
    reason = "a benchmark timer reads the wall clock by design; simulation code never does"
)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How a batched benchmark's setup output is grouped per measurement.
/// Only the small-input shape is needed here; the variant exists for
/// call-site compatibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// One setup per timed iteration.
    SmallInput,
}

/// Collects and reports benchmark measurements.
#[derive(Debug)]
pub struct Criterion {
    target: Duration,
    fast: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        let ms = std::env::var("UVM_BENCH_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(200u64);
        let fast = std::env::var("UVM_BENCH_FAST").is_ok_and(|v| v == "1");
        Criterion {
            target: Duration::from_millis(ms),
            fast,
        }
    }
}

impl Criterion {
    /// Runs `f` with a [`Bencher`] and prints the median time per
    /// iteration under `name`.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        let mut b = Bencher {
            target: self.target,
            fast: self.fast,
            samples_ns: Vec::new(),
        };
        f(&mut b);
        b.report(name);
        self
    }
}

/// Times one benchmark routine.
#[derive(Debug)]
pub struct Bencher {
    target: Duration,
    fast: bool,
    samples_ns: Vec<f64>,
}

const SAMPLES: u32 = 24;

impl Bencher {
    /// Times `routine`, amortizing the clock reads over batches sized so
    /// the whole measurement takes roughly the target time.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        if self.fast {
            let t = Instant::now();
            black_box(routine());
            self.samples_ns = vec![t.elapsed().as_nanos() as f64];
            return;
        }
        // Calibrate: how many iterations fit in one sample slot?
        let slot = self.target / SAMPLES;
        let mut n: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..n {
                black_box(routine());
            }
            let took = t.elapsed();
            if took >= slot / 2 || n >= 1 << 30 {
                break;
            }
            n = if took.is_zero() {
                n * 64
            } else {
                (n * 2).max((slot.as_nanos() as u64 / took.as_nanos().max(1) as u64).min(n * 64))
            };
        }
        self.samples_ns = (0..SAMPLES)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..n {
                    black_box(routine());
                }
                t.elapsed().as_nanos() as f64 / n as f64
            })
            .collect();
    }

    /// Times `routine` on fresh inputs from `setup`; only the routine is
    /// inside the timed region.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        if self.fast {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            self.samples_ns = vec![t.elapsed().as_nanos() as f64];
            return;
        }
        let per_sample = (self.target / SAMPLES).max(Duration::from_micros(50));
        self.samples_ns = (0..SAMPLES)
            .map(|_| {
                let mut iters = 0u64;
                let mut spent = Duration::ZERO;
                while spent < per_sample {
                    let input = setup();
                    let t = Instant::now();
                    black_box(routine(input));
                    spent += t.elapsed();
                    iters += 1;
                }
                spent.as_nanos() as f64 / iters as f64
            })
            .collect();
    }

    fn report(&self, name: &str) {
        let mut xs = self.samples_ns.clone();
        if xs.is_empty() {
            println!("{name:<40} no samples");
            return;
        }
        xs.sort_by(|a, b| a.total_cmp(b));
        let median = xs[xs.len() / 2];
        let (lo, hi) = (xs[0], xs[xs.len() - 1]);
        println!(
            "{name:<40} median {} [{} .. {}] ({} samples)",
            fmt_ns(median),
            fmt_ns(lo),
            fmt_ns(hi),
            xs.len(),
        );
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Bundles benchmark functions into one runner function, mirroring
/// criterion's macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::bench::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Emits `main` for a bench binary, mirroring criterion's macro of the
/// same name.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_criterion() -> Criterion {
        Criterion {
            target: Duration::from_millis(2),
            fast: false,
        }
    }

    #[test]
    fn iter_measures_and_reports() {
        let mut c = fast_criterion();
        let mut count = 0u64;
        c.bench_function("unit_test_iter", |b| {
            b.iter(|| {
                count += 1;
                black_box(count)
            })
        });
        assert!(count > 0);
    }

    #[test]
    fn iter_batched_runs_setup_per_iteration() {
        let mut c = fast_criterion();
        let mut setups = 0u64;
        let mut runs = 0u64;
        c.bench_function("unit_test_batched", |b| {
            b.iter_batched(
                || {
                    setups += 1;
                    vec![1u32; 8]
                },
                |v| {
                    runs += 1;
                    v.iter().sum::<u32>()
                },
                BatchSize::SmallInput,
            )
        });
        assert_eq!(setups, runs);
        assert!(runs > 0);
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert!(fmt_ns(12.0).ends_with("ns"));
        assert!(fmt_ns(1.2e4).ends_with("us"));
        assert!(fmt_ns(3.4e6).ends_with("ms"));
    }
}
