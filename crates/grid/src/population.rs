//! Generation of heterogeneous household populations.
//!
//! "Consumers are all individuals with their own characteristics and needs"
//! (Section 2) — populations mix household sizes and usage intensities so
//! that the negotiation methods face realistic heterogeneity.

use crate::household::{Household, HouseholdId};
use crate::slab::PopulationSlab;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Probability weights for 1..=5 occupants: a Swedish-like household-size
/// distribution (many single and two-person homes).
const SIZE_WEIGHTS: [f64; 5] = [0.38, 0.31, 0.12, 0.13, 0.06];

/// Maps one uniform draw `pick ∈ [0, Σweights)` onto an occupant count
/// (bucket index + 1) by cumulative subtraction.
///
/// Float edge: the subtractions can accumulate enough rounding error
/// that `pick` ends up ≥ every remaining weight and the loop falls
/// through. The fallback is the **last positive-weight bucket** — the
/// one whose cumulative upper edge is the full total — never a
/// zero-weight bucket and never a silent `occupants = 1`.
fn pick_occupants(weights: &[f64; 5], mut pick: f64) -> u32 {
    for (k, &w) in weights.iter().enumerate() {
        if pick < w {
            return k as u32 + 1;
        }
        pick -= w;
    }
    let last = weights
        .iter()
        .rposition(|&w| w > 0.0)
        .expect("size weights are non-negative and not all zero");
    last as u32 + 1
}

/// Builder for a synthetic population of households.
///
/// # Example
///
/// ```
/// use powergrid::population::PopulationBuilder;
///
/// let homes = PopulationBuilder::new().households(50).build(42);
/// assert_eq!(homes.len(), 50);
/// // Deterministic: same seed, same population.
/// assert_eq!(homes, PopulationBuilder::new().households(50).build(42));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationBuilder {
    households: usize,
}

impl PopulationBuilder {
    /// Creates a builder for 100 households with a Swedish-like
    /// household-size distribution (many single and two-person homes).
    pub fn new() -> PopulationBuilder {
        PopulationBuilder { households: 100 }
    }

    /// Sets the number of households to generate.
    pub fn households(mut self, n: usize) -> PopulationBuilder {
        self.households = n;
        self
    }

    /// Generates the population deterministically from `seed`.
    pub fn build(&self, seed: u64) -> Vec<Household> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x00b5_e001);
        let total: f64 = SIZE_WEIGHTS.iter().sum();
        let mut homes = Vec::with_capacity(self.households);
        for i in 0..self.households {
            let pick = rng.gen_range(0.0..total);
            let occupants = pick_occupants(&SIZE_WEIGHTS, pick);
            homes.push(Household::standard(HouseholdId(i as u64), occupants));
        }
        homes
    }

    /// Generates the same population as [`PopulationBuilder::build`]
    /// directly into a [`PopulationSlab`]: identical RNG stream,
    /// byte-identical field values, but no per-household heap tree —
    /// the backend for city-scale runs. Each household size's standard
    /// template is built once, on its first draw, so the slab equals
    /// [`PopulationSlab::from_households`] of [`PopulationBuilder::build`]
    /// template for template, and a household costs its id and a
    /// template index.
    pub fn build_slab(&self, seed: u64) -> PopulationSlab {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x00b5_e001);
        let total: f64 = SIZE_WEIGHTS.iter().sum();
        let mut slab = PopulationSlab::with_capacity(self.households);
        let mut standard = [None; 5];
        for i in 0..self.households {
            let pick = rng.gen_range(0.0..total);
            let occupants = pick_occupants(&SIZE_WEIGHTS, pick);
            let id = HouseholdId(i as u64);
            let template = *standard[occupants as usize - 1]
                .get_or_insert_with(|| slab.push_template(&Household::standard(id, occupants)));
            slab.push(id, template);
        }
        slab
    }
}

impl Default for PopulationBuilder {
    fn default() -> Self {
        PopulationBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_requested_count() {
        let pop = PopulationBuilder::new().households(17).build(1);
        assert_eq!(pop.len(), 17);
    }

    #[test]
    fn deterministic_per_seed() {
        let b = PopulationBuilder::new().households(30);
        assert_eq!(b.build(5), b.build(5));
        assert_ne!(b.build(5), b.build(6));
    }

    #[test]
    fn ids_are_sequential_and_unique() {
        let pop = PopulationBuilder::new().households(10).build(0);
        for (i, h) in pop.iter().enumerate() {
            assert_eq!(h.id().0, i as u64);
        }
    }

    #[test]
    fn size_distribution_roughly_matches_weights() {
        let pop = PopulationBuilder::new().households(2000).build(99);
        let singles = pop.iter().filter(|h| h.occupants() == 1).count() as f64;
        let share = singles / 2000.0;
        assert!((0.30..0.46).contains(&share), "single share {share}");
    }

    #[test]
    fn fall_through_picks_last_positive_bucket_not_singles() {
        // Adversarial weights: `0.1 + 0.7` rounds to exactly the
        // cumulative edge, so after subtracting 0.1 the draw equals the
        // remaining weight 0.7, `pick < w` fails for every bucket
        // (buckets 3..5 have zero weight) and the loop falls through.
        // The fallback must be the last *positive* bucket (2 occupants),
        // not the zero-weight bucket 5 and not a silent 1.
        let weights = [0.1, 0.7, 0.0, 0.0, 0.0];
        assert_eq!(pick_occupants(&weights, 0.1 + 0.7), 2);
        // In-range draws are untouched by the fix.
        assert_eq!(pick_occupants(&weights, 0.05), 1);
        assert_eq!(pick_occupants(&weights, 0.3), 2);
        // A single-bucket distribution falls back to itself.
        assert_eq!(pick_occupants(&[0.0, 0.0, 1.0, 0.0, 0.0], 1.0), 3);
    }

    #[test]
    fn slab_backend_builds_identical_field_values() {
        use crate::slab::PopulationSlab;
        let b = PopulationBuilder::new().households(120);
        let homes = b.build(7);
        assert_eq!(b.build_slab(7), PopulationSlab::from_households(&homes));
        // All five household sizes occur, so both device templates
        // (laundry from two occupants up, none for singles) went into
        // the slab.
        for occupants in 1..=5 {
            assert!(homes.iter().any(|h| h.occupants() == occupants));
        }
    }

    #[test]
    fn slab_backend_is_deterministic_per_seed() {
        let b = PopulationBuilder::new().households(40);
        assert_eq!(b.build_slab(5), b.build_slab(5));
        assert_ne!(b.build_slab(5), b.build_slab(6));
    }
}
