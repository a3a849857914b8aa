//! xoshiro256++ 1.0: the workspace's default stream generator.
//!
//! Reference: Blackman & Vigna, "Scrambled linear pseudorandom number
//! generators" (2019). 256 bits of state, period 2^256 − 1, excellent
//! statistical quality, and a `jump()` for cheap independent sub-sequences.

use crate::{Rng64, SeedableRng64, SplitMix64};

/// xoshiro256++ generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Creates a generator from raw state.
    ///
    /// # Panics
    ///
    /// Panics if the state is all zeros (the one forbidden state of the
    /// underlying linear engine).
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s.iter().any(|&w| w != 0), "xoshiro state must be nonzero");
        Self { s }
    }

    /// Advances the generator by 2^128 steps.
    ///
    /// Generators separated by a jump produce non-overlapping subsequences
    /// (up to 2^128 draws each), which is the textbook way to hand each
    /// worker thread its own stream.
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180e_c6d3_3cfd_0aba,
            0xd5a6_1266_f0c9_392c,
            0xa958_2618_e03f_c9aa,
            0x39ab_dc45_29b1_661c,
        ];
        let mut t = [0u64; 4];
        for j in JUMP {
            for b in 0..64 {
                if (j >> b) & 1 == 1 {
                    for (ti, si) in t.iter_mut().zip(self.s.iter()) {
                        *ti ^= si;
                    }
                }
                #[expect(
                    clippy::let_underscore_untyped,
                    reason = "jump() only needs the state transition; the output word is irrelevant by construction"
                )]
                let _ = self.next_u64();
            }
        }
        self.s = t;
    }

    /// Returns a clone advanced by `n` jumps (each 2^128 steps) without
    /// mutating `self`.
    pub fn jumped(&self, n: u32) -> Self {
        let mut out = self.clone();
        for _ in 0..n {
            out.jump();
        }
        out
    }
}

impl Rng64 for Xoshiro256pp {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

impl SeedableRng64 for Xoshiro256pp {
    fn seed_from_u64(seed: u64) -> Self {
        // Expand the 64-bit seed through SplitMix64, per Vigna's
        // recommendation; guarantees a nonzero state.
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Self::from_state(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known-answer test against the reference C implementation
    /// (`xoshiro256plusplus.c`) with state {1, 2, 3, 4}.
    #[test]
    fn reference_vector_state_1234() {
        let mut rng = Xoshiro256pp::from_state([1, 2, 3, 4]);
        let expect: [u64; 6] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
            9973669472204895162,
        ];
        for e in expect {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    #[should_panic(expected = "state must be nonzero")]
    fn zero_state_rejected() {
        let _ = Xoshiro256pp::from_state([0; 4]);
    }

    #[test]
    fn seeding_is_deterministic() {
        let mut a = Xoshiro256pp::seed_from_u64(123);
        let mut b = Xoshiro256pp::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<u64> = {
            let mut r = Xoshiro256pp::seed_from_u64(1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Xoshiro256pp::seed_from_u64(2);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn jump_changes_stream_but_is_deterministic() {
        let base = Xoshiro256pp::seed_from_u64(42);
        let mut j1 = base.jumped(1);
        let mut j1b = base.jumped(1);
        let mut j2 = base.jumped(2);
        let a: Vec<u64> = (0..8).map(|_| j1.next_u64()).collect();
        let ab: Vec<u64> = (0..8).map(|_| j1b.next_u64()).collect();
        let c: Vec<u64> = (0..8).map(|_| j2.next_u64()).collect();
        assert_eq!(a, ab);
        assert_ne!(a, c);
    }

    #[test]
    fn bit_balance_is_sane() {
        // Population count over many draws should hover around 32 per word.
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let n = 10_000;
        let ones: u64 = (0..n).map(|_| rng.next_u64().count_ones() as u64).sum();
        let mean = ones as f64 / n as f64;
        assert!((mean - 32.0).abs() < 0.3, "mean popcount {mean}");
    }
}
