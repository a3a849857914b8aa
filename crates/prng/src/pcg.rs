//! PCG32 (XSH-RR 64/32): O'Neill's permuted congruential generator.
//!
//! Kept alongside xoshiro so distribution-level tests can cross-check two
//! structurally different generators; a statistical bug in one is unlikely to
//! reproduce in the other.

use crate::{Rng64, SeedableRng64};

const MULTIPLIER: u64 = 6364136223846793005;
const DEFAULT_STREAM: u64 = 54;

/// PCG32 generator (64-bit LCG state, 32-bit XSH-RR output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

impl Pcg32 {
    /// Creates a generator from an initial state and stream selector,
    /// following the reference `pcg32_srandom` initialization.
    pub fn new(initstate: u64, initseq: u64) -> Self {
        let mut pcg = Self {
            state: 0,
            inc: (initseq << 1) | 1,
        };
        #[expect(
            clippy::let_underscore_untyped,
            reason = "reference pcg32_srandom steps the state and discards the output by design"
        )]
        let _ = pcg.next_raw32();
        pcg.state = pcg.state.wrapping_add(initstate);
        #[expect(
            clippy::let_underscore_untyped,
            reason = "reference pcg32_srandom steps the state and discards the output by design"
        )]
        let _ = pcg.next_raw32();
        pcg
    }

    /// One step of the reference pcg32 output function.
    #[inline]
    fn next_raw32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(MULTIPLIER).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }
}

impl Rng64 for Pcg32 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        // Two independent 32-bit outputs; high word drawn first.
        let hi = self.next_raw32() as u64;
        let lo = self.next_raw32() as u64;
        (hi << 32) | lo
    }

    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.next_raw32()
    }
}

impl SeedableRng64 for Pcg32 {
    fn seed_from_u64(seed: u64) -> Self {
        Self::new(seed, DEFAULT_STREAM)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known-answer test against the reference `pcg32_srandom(42, 54)`
    /// stream from the PCG check output.
    #[test]
    fn reference_vector_42_54() {
        let mut rng = Pcg32::new(42, 54);
        let expect: [u32; 6] = [
            0xa15c_02b7,
            0x7b47_f409,
            0xba1d_3330,
            0x83d2_f293,
            0xbfa4_784b,
            0xcbed_606e,
        ];
        for e in expect {
            assert_eq!(rng.next_u32(), e);
        }
    }

    #[test]
    fn streams_are_distinct() {
        let mut a = Pcg32::new(42, 1);
        let mut b = Pcg32::new(42, 2);
        let va: Vec<u32> = (0..8).map(|_| a.next_u32()).collect();
        let vb: Vec<u32> = (0..8).map(|_| b.next_u32()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn u64_combines_two_u32() {
        let mut a = Pcg32::new(7, 7);
        let mut b = Pcg32::new(7, 7);
        let hi = b.next_u32() as u64;
        let lo = b.next_u32() as u64;
        assert_eq!(a.next_u64(), (hi << 32) | lo);
    }

    #[test]
    fn f64_uses_full_width() {
        // With only 32-bit outputs naively scaled, doubles would be quantized
        // to multiples of 2^-32; the Rng64 default uses 53 bits.
        let mut rng = Pcg32::seed_from_u64(3);
        let quantized = (0..1000).all(|_| {
            let x = rng.next_f64();
            (x * (1u64 << 32) as f64).fract() == 0.0
        });
        assert!(!quantized, "doubles look quantized to 32 bits");
    }
}
