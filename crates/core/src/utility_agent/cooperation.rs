//! Cooperation management within the UA (Figure 3): accepting bids.
//!
//! Announcements are determined by the formula-driven update (the
//! prototype's behaviour, in
//! [`crate::utility_agent::RewardTableNegotiator`]).

use crate::reward::RewardTable;
use powergrid::units::Fraction;

/// Bid assessment (*monitor bid receipt* / *evaluate bids* / *select
/// bids*): in the prototype every bid consistent with the announced table
/// is accepted; inconsistent bids (levels never announced) are rejected.
///
/// Rejected bids are zeroed where they stand (they count as zero
/// cut-down), so the negotiation hot loop assesses each round's bid
/// vector without an extra allocation.
pub fn assess_bids_in_place(table: &RewardTable, bids: &mut [Fraction]) {
    for bid in bids {
        if *bid != Fraction::ZERO && !table.levels().any(|lvl| lvl == *bid) {
            *bid = Fraction::ZERO;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reward::DEFAULT_LEVELS;
    use powergrid::time::Interval;
    use powergrid::units::Money;

    fn fr(v: f64) -> Fraction {
        Fraction::clamped(v)
    }

    #[test]
    fn bid_assessment_rejects_off_table_levels() {
        let table =
            RewardTable::quadratic(Interval::new(0, 8), &DEFAULT_LEVELS, Money(17.0), fr(0.4));
        let mut accepted = [fr(0.4), fr(0.15), fr(0.0)];
        assess_bids_in_place(&table, &mut accepted);
        assert_eq!(accepted, [fr(0.4), fr(0.0), fr(0.0)]);
    }
}
