//! Deterministic pseudo-random number generation for the PageRank Pipeline
//! Benchmark.
//!
//! The Graph500 kernel-0 generator and the kernel-3 PageRank initialization
//! both consume streams of uniform random numbers (`rand`, `randperm` in the
//! paper's Matlab reference). For a *benchmark* the stream must be cheap,
//! seedable, and bit-reproducible across platforms, compilers and thread
//! counts, so the generators are implemented here from first principles
//! rather than pulled from an external crate:
//!
//! * [`SplitMix64`] — the stateless-jump workhorse used for seeding and for
//!   deterministic per-chunk streams in parallel generation.
//! * [`Xoshiro256pp`] — the default stream generator (xoshiro256++ 1.0).
//! * [`Pcg32`] — a compact alternative with a different failure profile,
//!   used in tests to cross-check distribution-level properties.
//!
//! All generators implement the [`Rng64`] trait, which also provides uniform
//! doubles in `[0, 1)`, unbiased bounded integers (Lemire rejection), and the
//! sequence utilities ([`seq::shuffle`], [`seq::random_permutation`]) that
//! stand in for Matlab's `randperm`.
//!
//! # Example
//!
//! ```
//! use ppbench_prng::{Rng64, SeedableRng64, Xoshiro256pp};
//!
//! let mut rng = Xoshiro256pp::seed_from_u64(42);
//! let x = rng.next_f64();
//! assert!((0.0..1.0).contains(&x));
//! // Re-seeding reproduces the stream exactly.
//! let mut rng2 = Xoshiro256pp::seed_from_u64(42);
//! assert_eq!(rng2.next_f64().to_bits(), x.to_bits());
//! ```

#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod batch;
mod pcg;
pub mod seq;
mod splitmix;
mod xoshiro;

pub use batch::{derive_stream_seed, fill_indexed};
pub use pcg::Pcg32;
pub use splitmix::SplitMix64;
pub use xoshiro::Xoshiro256pp;

/// A deterministic 64-bit pseudo-random generator.
///
/// Everything in the benchmark that needs randomness is written against this
/// trait so backends can be swapped without changing consumers.
pub trait Rng64 {
    /// Returns the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly distributed bits.
    ///
    /// Defaults to the high half of [`Rng64::next_u64`], which for the
    /// generators in this crate is the better-distributed half.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns a uniform double in `[0, 1)` with 53 random mantissa bits.
    fn next_f64(&mut self) -> f64 {
        // 53 high bits scaled by 2^-53: the standard conversion, exactly
        // representable, never returns 1.0.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, bound)` without modulo bias.
    ///
    /// Uses Lemire's multiply-shift rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            // threshold = 2^64 mod bound
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "next_range requires lo < hi");
        lo + self.next_below(hi - lo)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

impl<R: Rng64 + ?Sized> Rng64 for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Generators that can be constructed from a 64-bit seed.
pub trait SeedableRng64: Rng64 + Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;

    /// Builds a generator for a deterministic sub-stream.
    ///
    /// `(seed, stream)` pairs map to independent-looking streams; used to give
    /// each parallel chunk of work its own reproducible generator regardless
    /// of thread scheduling.
    fn seed_from_parts(seed: u64, stream: u64) -> Self {
        // Mix the pair through SplitMix64 so nearby (seed, stream) pairs do
        // not yield correlated initial states.
        let mut sm = SplitMix64::new(seed);
        let a = sm.next_u64();
        let mut sm2 = SplitMix64::new(a ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Self::seed_from_u64(sm2.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x), "f64 out of range: {x}");
        }
    }

    #[test]
    fn f64_mean_is_near_half() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let n = 100_000;
        let mean = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn next_below_is_in_range_for_all_generators() {
        let mut xo = Xoshiro256pp::seed_from_u64(7);
        let mut pc = Pcg32::seed_from_u64(7);
        let mut sm = SplitMix64::new(7);
        let gens: [(&str, &mut dyn Rng64); 3] = [
            ("xoshiro", &mut xo),
            ("pcg", &mut pc),
            ("splitmix", &mut sm),
        ];
        for (name, rng) in gens {
            for bound in [1u64, 2, 3, 7, 100, 1 << 33, u64::MAX] {
                for _ in 0..100 {
                    let v = rng.next_below(bound);
                    assert!(v < bound, "{name}: {v} >= {bound}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        Xoshiro256pp::seed_from_u64(0).next_below(0);
    }

    #[test]
    fn next_range_covers_small_range() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let v = rng.next_range(10, 15);
            assert!((10..15).contains(&v));
            seen[(v - 10) as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "not all values of a 5-wide range hit"
        );
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let bound = 10u64;
        let mut counts = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.next_below(bound) as usize] += 1;
        }
        let expect = n as f64 / bound as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.05, "bucket {i} deviates {dev:.3} from uniform");
        }
    }

    #[test]
    fn seed_from_parts_gives_distinct_streams() {
        let mut a = Xoshiro256pp::seed_from_parts(9, 0);
        let mut b = Xoshiro256pp::seed_from_parts(9, 1);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
        // And is itself reproducible.
        let mut a2 = Xoshiro256pp::seed_from_parts(9, 0);
        let va2: Vec<u64> = (0..8).map(|_| a2.next_u64()).collect();
        assert_eq!(va, va2);
    }

    #[test]
    fn next_bool_respects_probability() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.next_bool(0.3)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "p=0.3 produced frac {frac}");
        assert!((0..1000).all(|_| !rng.next_bool(0.0)));
        assert!((0..1000).all(|_| rng.next_bool(1.0)));
    }

    #[test]
    fn rng_by_mut_ref_works() {
        fn take_rng(mut r: impl Rng64) -> u64 {
            r.next_u64()
        }
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let a = take_rng(&mut rng);
        let b = take_rng(&mut rng);
        assert_ne!(a, b);
    }
}
