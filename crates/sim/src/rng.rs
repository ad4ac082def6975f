//! Deterministic seed derivation.
//!
//! Every stochastic decision in a simulation flows from one master seed;
//! sub-streams (network, per-agent, per-experiment-repetition) are derived
//! with a SplitMix64-style mix so that changing one consumer's draw count
//! does not perturb the others.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Derives independent seeds from a master seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSequence {
    master: u64,
}

impl SeedSequence {
    /// Creates a sequence from a master seed.
    pub fn new(master: u64) -> SeedSequence {
        SeedSequence { master }
    }

    /// Derives the seed for a named stream index (SplitMix64 finalizer).
    pub fn derive(&self, stream: u64) -> u64 {
        let mut z = self
            .master
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A ready-made RNG for a stream.
    pub fn rng(&self, stream: u64) -> StdRng {
        StdRng::seed_from_u64(self.derive(stream))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn streams_are_deterministic() {
        let a = SeedSequence::new(42);
        assert_eq!(a.derive(1), SeedSequence::new(42).derive(1));
    }

    #[test]
    fn streams_differ() {
        let s = SeedSequence::new(42);
        assert_ne!(s.derive(1), s.derive(2));
        assert_ne!(s.derive(1), SeedSequence::new(43).derive(1));
    }

    #[test]
    fn derived_rngs_are_independent_streams() {
        let s = SeedSequence::new(7);
        let mut r1 = s.rng(1);
        let mut r2 = s.rng(2);
        let a: Vec<u32> = (0..10).map(|_| r1.gen()).collect();
        let b: Vec<u32> = (0..10).map(|_| r2.gen()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn zero_stream_is_fine() {
        let s = SeedSequence::new(0);
        // SplitMix64 of 0 is not 0.
        assert_ne!(s.derive(0), 0);
    }
}
