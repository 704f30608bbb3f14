//! A deterministic, seed-reporting property-test harness.
//!
//! Replaces `proptest` for this workspace. Each property runs a fixed
//! number of cases; case `i` draws its input from an [`Rng`] seeded with a
//! value derived deterministically from the harness seed and `i`, so a
//! failure always prints a single `UVM_PROP_SEED` that reproduces it
//! exactly — on any machine, in any test order.
//!
//! Environment overrides:
//!
//! - `UVM_PROP_CASES` — cases per property (default 64).
//! - `UVM_PROP_SEED` — harness base seed (default 0). Set this to the seed
//!   printed by a failure to replay just that input first.
//!
//! # Examples
//!
//! ```
//! use uvm_util::prop::Checker;
//!
//! Checker::new().cases(32).run(
//!     |rng| rng.gen_vec(0..20, |r| r.gen_range(0u64..100)),
//!     |xs| {
//!         let mut sorted = xs.clone();
//!         sorted.sort_unstable();
//!         assert_eq!(sorted.len(), xs.len());
//!     },
//! );
//! ```

use std::fmt::Debug;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::rng::Rng;

/// Default number of cases per property.
pub const DEFAULT_CASES: u32 = 64;

/// Derives the per-case RNG seed from the harness seed and case index.
///
/// Frozen: failure seeds printed by past runs must keep reproducing.
fn case_seed(base: u64, case: u64) -> u64 {
    // SplitMix64 finalizer over (base, case) — decorrelates consecutive
    // cases even for base seeds 0, 1, 2, ...
    let mut z = base ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs seeded property tests.
#[derive(Debug, Clone)]
pub struct Checker {
    cases: u32,
    seed: u64,
    shrink_steps: u32,
}

impl Default for Checker {
    fn default() -> Self {
        Self::new()
    }
}

impl Checker {
    /// A checker with the default case count and seed, honouring the
    /// `UVM_PROP_CASES` / `UVM_PROP_SEED` environment overrides.
    pub fn new() -> Self {
        let cases = std::env::var("UVM_PROP_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_CASES);
        let seed = std::env::var("UVM_PROP_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        Checker {
            cases,
            seed,
            shrink_steps: 200,
        }
    }

    /// Sets the number of cases (environment override still wins).
    pub fn cases(mut self, cases: u32) -> Self {
        if std::env::var("UVM_PROP_CASES").is_err() {
            self.cases = cases;
        }
        self
    }

    /// Sets the base seed (environment override still wins).
    pub fn seed(mut self, seed: u64) -> Self {
        if std::env::var("UVM_PROP_SEED").is_err() {
            self.seed = seed;
        }
        self
    }

    /// Runs `prop` against `cases` inputs drawn from `gen`.
    ///
    /// # Panics
    ///
    /// Re-raises the property's panic after printing the case index, the
    /// reproducing seed and the failing input.
    pub fn run<T: Debug>(&self, mut gen: impl FnMut(&mut Rng) -> T, prop: impl Fn(&T)) {
        self.run_with_shrink(&mut gen, |_| Vec::new(), prop);
    }

    /// Like [`Checker::run`], but on failure also tries the candidates
    /// produced by `shrink` (repeatedly, keeping any that still fail) and
    /// reports the smallest failing input found.
    pub fn run_shrink<T: Debug>(
        &self,
        mut gen: impl FnMut(&mut Rng) -> T,
        shrink: impl Fn(&T) -> Vec<T>,
        prop: impl Fn(&T),
    ) {
        self.run_with_shrink(&mut gen, shrink, prop);
    }

    fn run_with_shrink<T: Debug>(
        &self,
        gen: &mut impl FnMut(&mut Rng) -> T,
        shrink: impl Fn(&T) -> Vec<T>,
        prop: impl Fn(&T),
    ) {
        for case in 0..self.cases {
            let seed = case_seed(self.seed, case as u64);
            let mut rng = Rng::seed_from_u64(seed);
            let input = gen(&mut rng);
            let outcome = catch_unwind(AssertUnwindSafe(|| prop(&input)));
            let Err(payload) = outcome else { continue };

            let mut minimal = input;
            let mut last_payload = payload;
            let mut budget = self.shrink_steps;
            'outer: while budget > 0 {
                for candidate in shrink(&minimal) {
                    budget = budget.saturating_sub(1);
                    match catch_unwind(AssertUnwindSafe(|| prop(&candidate))) {
                        Ok(()) => {}
                        Err(p) => {
                            minimal = candidate;
                            last_payload = p;
                            continue 'outer;
                        }
                    }
                    if budget == 0 {
                        break 'outer;
                    }
                }
                break;
            }

            eprintln!(
                "property failed at case {case}/{}; reproduce with \
                 UVM_PROP_SEED={seed} UVM_PROP_CASES=1\nfailing input: {minimal:?}",
                self.cases,
            );
            resume_unwind(last_payload);
        }
    }
}

/// Shrink candidates for a vector: empty, both halves, and the vector with
/// one element removed (first/middle/last). Pair with
/// [`Checker::run_shrink`] for sequence-shaped inputs.
#[expect(
    clippy::ptr_arg,
    reason = "passed bare as the `shrink` callback of `run_shrink`, whose input is the generator's `Vec<T>`"
)]
pub fn shrink_vec<T: Clone>(xs: &Vec<T>) -> Vec<Vec<T>> {
    let n = xs.len();
    if n == 0 {
        return Vec::new();
    }
    let mut out = vec![Vec::new()];
    if n > 1 {
        out.push(xs[..n / 2].to_vec());
        out.push(xs[n / 2..].to_vec());
        for cut in [0, n / 2, n - 1] {
            let mut shorter = xs.clone();
            shorter.remove(cut);
            out.push(shorter);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut seen = 0u32;
        Checker::new()
            .cases(10)
            .run(|rng| rng.gen_range(0u64..100), |_| {});
        // Count via the generator instead (prop is Fn, not FnMut).
        Checker::new().cases(10).run(
            |rng| {
                seen += 1;
                rng.gen_range(0u64..100)
            },
            |x| assert!(*x < 100),
        );
        assert_eq!(seen, 10);
    }

    #[test]
    fn inputs_are_deterministic_across_runs() {
        let collect = || {
            let mut inputs = Vec::new();
            Checker::new().cases(8).seed(42).run(
                |rng| {
                    let v = rng.gen_vec(0..10, |r| r.gen_range(0u32..50));
                    inputs.push(v.clone());
                    v
                },
                |_| {},
            );
            inputs
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn failure_reports_and_reraises() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            Checker::new().cases(20).run(
                |rng| rng.gen_range(0u64..1000),
                |x| assert!(*x < 5, "found big value {x}"),
            );
        }));
        assert!(result.is_err(), "property with failing cases must panic");
    }

    #[test]
    fn shrinking_finds_smaller_failure() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            Checker::new().cases(20).run_shrink(
                |rng| rng.gen_vec(5..30, |r| r.gen_range(0u64..100)),
                shrink_vec,
                |xs| assert!(!xs.iter().any(|&x| x > 10)),
            );
        }));
        assert!(result.is_err());
    }

    #[test]
    fn case_seed_decorrelates_neighbours() {
        let a = case_seed(0, 0);
        let b = case_seed(0, 1);
        let c = case_seed(1, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
