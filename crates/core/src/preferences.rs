//! Customer preferences: the cut-down/required-reward table.
//!
//! "Within the Customer Agent, knowledge of the customer's preferences is
//! represented in the form of a cut-down-reward table. The cut-down-reward
//! table specifies the percentage with which a Customer Agent is willing
//! to decrease (cut-down) its electricity usage, given a specific level of
//! financial compensation" (Section 6.2).
//!
//! Every table a negotiation uses is the Figure-8 customer's table
//! ([`CustomerPreferences::paper_figure_8`]) with each required reward
//! multiplied by one scale factor: the calibrated paper population,
//! seeded random populations and the physically grounded households of
//! [`ScenarioBuilder::from_peak`](crate::session::ScenarioBuilder::from_peak)
//! differ only in that factor and in the physical ceiling. So
//! [`CustomerPreferences`] stores just the two numbers
//! ([`scale`](CustomerPreferences::scale) and
//! [`max_cutdown`](CustomerPreferences::max_cutdown), which is also all
//! a season archive writes) and reads the six levels — the cut-down
//! grid, [`LEVELS`] — with their base rewards from one static table. A
//! customer's preferences are a 16-byte `Copy` value rather than a
//! heap-allocated table, which is what lets a city-scale season
//! materialise and negotiate with hundreds of thousands of customers
//! without one heap object each. Each threshold is computed as the same
//! `base × scale` product a materialised table would store, so every
//! decision is bit-identical to one over that table. An announced
//! [`RewardTable`] pays one reward per level of the same grid, so a
//! customer decides by reading the table's six rewards by grid index
//! ([`CustomerPreferences::respond`]).

use crate::reward::{RewardTable, LEVELS};
use powergrid::units::{Fraction, Money};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// The Figure-8 customer's required reward at scale 1 for each level of
/// the cut-down grid, [`LEVELS`] (`0, 0.1, …, 0.5`), ascending.
const REQUIRED: [f64; LEVELS.len()] = [0.0, 2.0, 4.0, 10.0, 21.0, 30.0];

/// A customer's private required-reward thresholds per cut-down level:
/// the Figure-8 table scaled by a reluctance factor, under a physical
/// ceiling.
///
/// # Example
///
/// ```
/// use loadbal_core::preferences::CustomerPreferences;
/// use powergrid::units::{Fraction, Money};
///
/// // The Figure 8/9 customer: requires ≥ 10 for 0.3 and ≥ 21 for 0.4.
/// let prefs = CustomerPreferences::paper_figure_8();
/// assert_eq!(prefs.required_for(Fraction::clamped(0.3)), Some(Money(10.0)));
/// assert_eq!(prefs.required_for(Fraction::clamped(0.4)), Some(Money(21.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CustomerPreferences {
    /// The factor every Figure-8 threshold is multiplied by.
    scale: f64,
    /// Physical/comfort ceiling on cut-down (from the Resource Consumer
    /// Agents: "the amount of electricity that can be saved in a given
    /// time interval").
    max_cutdown: Fraction,
}

impl CustomerPreferences {
    /// The highlighted customer of Figures 8–9: thresholds
    /// 0→0, 0.1→2, 0.2→4, 0.3→10, 0.4→21, 0.5→30.
    pub fn paper_figure_8() -> CustomerPreferences {
        CustomerPreferences::from_base_scaled(1.0, Fraction::clamped(0.5))
    }

    /// The Figure-8 threshold shape scaled by `k` (population
    /// heterogeneity: `k < 1` = more flexible, `k > 1` = more reluctant),
    /// with the given physical cut-down ceiling.
    ///
    /// # Panics
    ///
    /// Panics if `k` is negative or non-finite.
    pub fn from_base_scaled(k: f64, max_cutdown: Fraction) -> CustomerPreferences {
        assert!(
            k >= 0.0 && k.is_finite(),
            "scale factor must be non-negative"
        );
        CustomerPreferences {
            scale: k,
            max_cutdown,
        }
    }

    /// Generates a heterogeneous population of preferences, seeded.
    ///
    /// Scale factors are drawn uniformly from `[k_min, k_max]` and
    /// physical ceilings from the levels {0.3, 0.4, 0.5}.
    ///
    /// # Panics
    ///
    /// Panics if `k_min > k_max` or either is negative.
    pub fn population(n: usize, k_min: f64, k_max: f64, seed: u64) -> Vec<CustomerPreferences> {
        assert!(
            0.0 <= k_min && k_min <= k_max,
            "bad scale range [{k_min}, {k_max}]"
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0c0f_fee0);
        (0..n)
            .map(|_| {
                let k = if (k_max - k_min).abs() < f64::EPSILON {
                    k_min
                } else {
                    rng.gen_range(k_min..=k_max)
                };
                let ceiling = [0.3, 0.4, 0.5][rng.gen_range(0..3usize)];
                CustomerPreferences::from_base_scaled(k, Fraction::clamped(ceiling))
            })
            .collect()
    }

    /// Grid level `k` and its threshold at this customer's scale.
    fn threshold(self, k: usize) -> (Fraction, Money) {
        (
            Fraction::clamped(LEVELS[k]),
            Money(REQUIRED[k] * self.scale),
        )
    }

    /// The thresholds, lazily, sorted by cut-down.
    fn entries(self) -> impl Iterator<Item = (Fraction, Money)> {
        (0..LEVELS.len()).map(move |k| self.threshold(k))
    }

    /// The thresholds, sorted by cut-down.
    pub fn thresholds(&self) -> [(Fraction, Money); LEVELS.len()] {
        std::array::from_fn(|k| self.threshold(k))
    }

    /// The factor every Figure-8 threshold is multiplied by: with
    /// [`max_cutdown`](CustomerPreferences::max_cutdown), the whole of
    /// the preferences, as
    /// [`from_base_scaled`](CustomerPreferences::from_base_scaled) takes
    /// them.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The physical/comfort ceiling on cut-downs.
    pub fn max_cutdown(&self) -> Fraction {
        self.max_cutdown
    }

    /// The required reward for an exact cut-down level (`None` if the
    /// level is not in the customer's table).
    pub fn required_for(&self, cutdown: Fraction) -> Option<Money> {
        self.entries().find(|&(c, _)| c == cutdown).map(|(_, r)| r)
    }

    /// Whether `cutdown` at `offered` reward is acceptable: the level is
    /// known, within the physical ceiling, and the offer meets the
    /// threshold.
    pub fn accepts(&self, cutdown: Fraction, offered: Money) -> bool {
        if cutdown > self.max_cutdown {
            return false;
        }
        match self.required_for(cutdown) {
            Some(required) => offered >= required,
            None => false,
        }
    }

    /// The customer's response to an announced reward table: "the
    /// Customer Agent chooses the highest acceptable cut-down as its
    /// preferred cut-down" (Section 6.2), never retreating below
    /// `previous_bid` (monotonic concession, §3.1).
    ///
    /// Decides as `cutdown > best && accepts(cutdown, offered)` over
    /// every entry would: the table's levels are the grid's, so the
    /// decision takes the grid levels above `previous_bid` and within the
    /// ceiling by index — the same decision a negotiating
    /// [`CustomerEngine`](crate::engine::CustomerEngine) makes — and the
    /// bid stands when none is accepted.
    pub fn respond(&self, table: &RewardTable, previous_bid: Fraction) -> Fraction {
        match self.best_level(table, self.open_levels(previous_bid)) {
            Some(k) => table.entries()[k].0,
            None => previous_bid,
        }
    }

    /// The grid levels this customer could bid above `previous_bid`: bit
    /// `k` is set when level `k` of [`LEVELS`] is above the bid and
    /// within the ceiling.
    pub(crate) fn open_levels(&self, previous_bid: Fraction) -> u32 {
        // The order of `Fraction`s: `total_cmp` of their values.
        let (bid, ceiling) = (previous_bid.value(), self.max_cutdown.value());
        let mut open = 0;
        for (k, level) in LEVELS.iter().enumerate() {
            let above = level.total_cmp(&bid).is_gt();
            let within = level.total_cmp(&ceiling).is_le();
            open |= u32::from(above & within) << k;
        }
        open
    }

    /// The highest of the `open` grid levels at which `table` pays at
    /// least this customer's threshold — the same `base × scale`
    /// product a materialised table would store. The six acceptance
    /// tests are combined as a mask, and the top bit wins.
    pub(crate) fn best_level(&self, table: &RewardTable, open: u32) -> Option<usize> {
        let mut accepted = 0;
        for (k, (&(_, offered), &required)) in table.entries().iter().zip(&REQUIRED).enumerate() {
            // `Money`'s order is its value's; comparing the values keeps
            // the test free of branches.
            accepted |= u32::from(offered.value() >= required * self.scale) << k;
        }
        let top = (accepted & open).checked_ilog2()?;
        Some(top as usize)
    }

    /// Total "effort cost" the customer attaches to a cut-down — its own
    /// threshold, used in surplus accounting ([`crate::outcome`]).
    pub fn effort_cost(&self, cutdown: Fraction) -> Money {
        self.required_for(cutdown).unwrap_or(Money::ZERO)
    }

    /// The effort cost of an *arbitrary* cut-down fraction: the threshold
    /// of the smallest tabled level that covers it. Returns `None` when
    /// the fraction exceeds the physical ceiling or every tabled level —
    /// the customer simply cannot implement it.
    ///
    /// Used by the offer and request-for-bids methods, where the required
    /// cut-down is dictated by `x_max` rather than chosen from a table.
    pub fn effort_for_fraction(&self, cutdown: Fraction) -> Option<Money> {
        if cutdown > self.max_cutdown {
            return None;
        }
        self.entries().find(|&(c, _)| c >= cutdown).map(|(_, r)| r)
    }

    /// The cut-down levels in the customer's table, ascending.
    pub fn levels(&self) -> impl Iterator<Item = Fraction> {
        self.entries().map(|(c, _)| c)
    }
}

impl fmt::Display for CustomerPreferences {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "max {} |", self.max_cutdown)?;
        for (c, r) in self.entries() {
            write!(f, " {c}⇒{:.1}", r.value())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reward::RewardTable;
    use powergrid::time::Interval;

    fn fr(v: f64) -> Fraction {
        Fraction::clamped(v)
    }

    fn round1_table() -> RewardTable {
        RewardTable::quadratic(Interval::new(72, 80), Money(17.0), fr(0.4))
    }

    #[test]
    fn figure_8_customer_thresholds() {
        let p = CustomerPreferences::paper_figure_8();
        assert_eq!(p.required_for(fr(0.3)), Some(Money(10.0)));
        assert_eq!(p.required_for(fr(0.4)), Some(Money(21.0)));
        assert_eq!(p.required_for(fr(0.15)), None);
    }

    #[test]
    fn figure_9_round_1_choice_is_0_2() {
        // Round 1 (Figure 9): table pinned at 17 for 0.4; the highlighted
        // customer accepts at most 0.2.
        let p = CustomerPreferences::paper_figure_8();
        let bid = p.respond(&round1_table(), Fraction::ZERO);
        assert_eq!(bid, fr(0.2));
    }

    #[test]
    fn figure_8_round_3_choice_is_0_4() {
        // Round 3 (Figure 8): reward(0.4) has grown to 24.8 ≥ 21, but
        // reward(0.5) has saturated below the 30 threshold (the logistic
        // factor caps it at max_reward = 30 only asymptotically).
        let p = CustomerPreferences::paper_figure_8();
        let table = RewardTable::new(
            Interval::new(72, 80),
            [0.0, 2.1, 9.1, 17.4, 24.8, 29.2].map(Money),
        );
        let bid = p.respond(&table, fr(0.2));
        assert_eq!(bid, fr(0.4));
    }

    #[test]
    fn respond_never_retreats() {
        let p = CustomerPreferences::paper_figure_8();
        // Previous bid 0.4; a table paying less than needed cannot pull
        // the bid back down.
        let stingy = RewardTable::quadratic(Interval::new(72, 80), Money(1.0), fr(0.4));
        assert_eq!(p.respond(&stingy, fr(0.4)), fr(0.4));
    }

    #[test]
    fn physical_ceiling_caps_bids() {
        let p = CustomerPreferences::from_base_scaled(0.1, fr(0.3));
        let generous = RewardTable::quadratic(Interval::new(72, 80), Money(30.0), fr(0.4));
        let bid = p.respond(&generous, Fraction::ZERO);
        assert_eq!(bid, fr(0.3), "cannot exceed physical ceiling");
    }

    #[test]
    fn accepts_logic() {
        let p = CustomerPreferences::paper_figure_8();
        assert!(p.accepts(fr(0.3), Money(10.0)));
        assert!(!p.accepts(fr(0.3), Money(9.9)));
        assert!(!p.accepts(fr(0.15), Money(100.0)), "unknown level");
        let capped = CustomerPreferences::from_base_scaled(1.0, fr(0.3));
        assert!(!capped.accepts(fr(0.4), Money(100.0)), "above ceiling");
    }

    #[test]
    fn scaled_preferences() {
        let cheap = CustomerPreferences::from_base_scaled(0.5, fr(0.5));
        assert_eq!(cheap.required_for(fr(0.4)), Some(Money(10.5)));
        // Round-1 table pays 26.56 for 0.5 ≥ the scaled threshold 15, so
        // the flexible customer concedes the maximum straight away.
        let bid = cheap.respond(&round1_table(), Fraction::ZERO);
        assert_eq!(bid, fr(0.5), "flexible customer concedes fully in round 1");
        // With a 0.4 physical ceiling the same customer bids 0.4.
        let capped = CustomerPreferences::from_base_scaled(0.5, fr(0.4));
        assert_eq!(capped.respond(&round1_table(), Fraction::ZERO), fr(0.4));
    }

    #[test]
    fn population_is_deterministic_and_heterogeneous() {
        let a = CustomerPreferences::population(50, 0.7, 1.5, 9);
        let b = CustomerPreferences::population(50, 0.7, 1.5, 9);
        assert_eq!(a, b);
        let distinct: std::collections::HashSet<String> = a.iter().map(|p| p.to_string()).collect();
        assert!(distinct.len() > 10, "population should be heterogeneous");
    }

    #[test]
    fn preferences_and_profiles_are_small_values() {
        fn copy<T: Copy>() {}
        copy::<CustomerPreferences>();
        assert_eq!(std::mem::size_of::<CustomerPreferences>(), 16);
        assert_eq!(std::mem::size_of::<crate::session::CustomerProfile>(), 32);
        assert!(std::mem::size_of::<crate::engine::CustomerEngine>() <= 64);
    }

    #[test]
    fn effort_cost_defaults_to_zero() {
        let p = CustomerPreferences::paper_figure_8();
        assert_eq!(p.effort_cost(fr(0.3)), Money(10.0));
        assert_eq!(p.effort_cost(fr(0.17)), Money::ZERO);
    }

    #[test]
    fn display_shows_thresholds() {
        let p = CustomerPreferences::paper_figure_8();
        assert!(p.to_string().contains("0.40⇒21.0"));
    }
}
