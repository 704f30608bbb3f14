//! Seeded, dependency-free pseudo-random number generation.
//!
//! [`Rng`] is a xoshiro256** generator whose state is expanded from a
//! single `u64` seed with SplitMix64 — the same construction the xoshiro
//! reference code recommends. The output stream for a given seed is part
//! of this workspace's determinism contract: every simulation, workload
//! and property test derives from it, so the algorithm is frozen.
//!
//! The surface mirrors the subset of `rand` the workspace actually used:
//! [`Rng::gen_range`] over half-open and inclusive integer ranges (plus
//! half-open `f64`), [`Rng::gen_bool`], [`Rng::shuffle`] and
//! [`Rng::choose`].
//!
//! # Examples
//!
//! ```
//! use uvm_util::Rng;
//!
//! let mut a = Rng::seed_from_u64(42);
//! let mut b = Rng::seed_from_u64(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! let x = a.gen_range(0u64..100);
//! assert!(x < 100);
//! ```

use std::ops::{Range, RangeInclusive};

/// A seeded xoshiro256** pseudo-random number generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

/// One step of SplitMix64 (used only to expand the seed).
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        Rng {
            s: [
                splitmix64(&mut x),
                splitmix64(&mut x),
                splitmix64(&mut x),
                splitmix64(&mut x),
            ],
        }
    }

    /// The raw xoshiro256** state words, for checkpointing a stream
    /// mid-flight. Feed the result back through [`Rng::from_state`] to
    /// resume the stream exactly where it left off.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a state captured by [`Rng::state`].
    ///
    /// The state is used verbatim (no SplitMix64 expansion); an all-zero
    /// state is degenerate for xoshiro and is remapped to the
    /// `seed_from_u64(0)` state instead.
    pub fn from_state(s: [u64; 4]) -> Self {
        if s == [0; 4] {
            return Rng::seed_from_u64(0);
        }
        Rng { s }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// The next 32 uniformly distributed bits (upper half of a 64-bit draw).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform `u64` in `[0, bound)` via Lemire's unbiased multiply-shift
    /// rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "Rng::below requires a nonzero bound");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform value from `range`, matching `rand`'s `gen_range` shape:
    /// half-open (`a..b`) and inclusive (`a..=b`) integer ranges, and
    /// half-open `f64` ranges.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability {p} not in [0, 1]"
        );
        self.gen_f64() < p
    }

    /// Fisher–Yates shuffles `xs` in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// A uniformly chosen element of `xs`, or `None` if empty.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.below(xs.len() as u64) as usize])
        }
    }

    /// An index into `weights` chosen with probability proportional to its
    /// weight (the `prop_oneof!`-style weighted pick).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    #[expect(
        clippy::unreachable,
        reason = "the roll is below the positive total asserted above"
    )]
    pub fn pick_weighted(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| w as u64).sum();
        assert!(total > 0, "pick_weighted requires a positive total weight");
        let mut roll = self.below(total);
        for (i, &w) in weights.iter().enumerate() {
            if roll < w as u64 {
                return i;
            }
            roll -= w as u64;
        }
        unreachable!("roll below total weight")
    }

    /// A vector whose length is drawn from `len` and whose elements come
    /// from `gen` (the `proptest::collection::vec` idiom).
    pub fn gen_vec<T>(&mut self, len: Range<usize>, mut gen: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        let n = self.gen_range(len);
        (0..n).map(|_| gen(self)).collect()
    }
}

/// Range shapes [`Rng::gen_range`] can sample from.
pub trait SampleRange {
    /// The element type produced.
    type Output;
    /// Draws one uniform value.
    fn sample(self, rng: &mut Rng) -> Self::Output;
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as u64) - (self.start as u64);
                self.start + rng.below(span) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi as u64) - (lo as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.below(span + 1) as $t
            }
        }
    )*};
}

impl_sample_int!(u16, u32, u64, usize);

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "empty range in gen_range");
        self.start + rng.gen_f64() * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(0x5EED);
        let mut b = Rng::seed_from_u64(0x5EED);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn reference_stream_is_frozen() {
        // Pinned first outputs for seed 0. If this test ever fails, the
        // generator changed and every golden snapshot in the workspace is
        // invalid — do not "fix" the constants, fix the generator.
        let mut r = Rng::seed_from_u64(0);
        let got: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        let mut again = Rng::seed_from_u64(0);
        let twice: Vec<u64> = (0..4).map(|_| again.next_u64()).collect();
        assert_eq!(got, twice);
        assert_eq!(
            got,
            vec![
                11091344671253066420,
                13793997310169335082,
                1900383378846508768,
                7684712102626143532,
            ]
        );
    }

    #[test]
    fn gen_range_bounds_hold() {
        let mut r = Rng::seed_from_u64(7);
        for _ in 0..2000 {
            let x = r.gen_range(10u64..20);
            assert!((10..20).contains(&x));
            let y = r.gen_range(3u32..=5);
            assert!((3..=5).contains(&y));
            let z = r.gen_range(0usize..1);
            assert_eq!(z, 0);
            let f = r.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_small_domain() {
        let mut r = Rng::seed_from_u64(11);
        let mut seen = [false; 6];
        for _ in 0..600 {
            seen[r.gen_range(0usize..6)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_extremes_and_rough_rate() {
        let mut r = Rng::seed_from_u64(3);
        assert!((0..100).all(|_| r.gen_bool(1.0)));
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        let hits = (0..10_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((2500..3500).contains(&hits), "p=0.3 hit rate {hits}/10000");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::seed_from_u64(9);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_and_weighted() {
        let mut r = Rng::seed_from_u64(5);
        assert_eq!(r.choose::<u8>(&[]), None);
        let xs = [10, 20, 30];
        for _ in 0..50 {
            assert!(xs.contains(r.choose(&xs).unwrap()));
        }
        // Weight 0 entries are never picked.
        for _ in 0..200 {
            assert_ne!(r.pick_weighted(&[3, 0, 1]), 1);
        }
    }

    #[test]
    fn gen_vec_respects_length_range() {
        let mut r = Rng::seed_from_u64(13);
        for _ in 0..100 {
            let v = r.gen_vec(2..6, |rng| rng.gen_range(0u64..10));
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Rng::seed_from_u64(0).gen_range(5u32..5);
    }

    #[test]
    fn state_roundtrip_resumes_stream() {
        let mut r = Rng::seed_from_u64(0xC0FFEE);
        for _ in 0..17 {
            r.next_u64();
        }
        let snap = r.state();
        let tail: Vec<u64> = (0..100).map(|_| r.next_u64()).collect();
        let mut resumed = Rng::from_state(snap);
        let replay: Vec<u64> = (0..100).map(|_| resumed.next_u64()).collect();
        assert_eq!(tail, replay);
    }

    #[test]
    fn zero_state_is_remapped_not_degenerate() {
        let mut r = Rng::from_state([0; 4]);
        assert_eq!(r.next_u64(), Rng::seed_from_u64(0).next_u64());
    }
}
