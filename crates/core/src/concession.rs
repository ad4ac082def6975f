//! The monotonic concession protocol (Rosenschein & Zlotkin), §3.1.
//!
//! "During a negotiation process all proposed deals must be equally or
//! more acceptable to the counter party than all previous deals proposed."
//! For load balancing this means: announced reward tables never pay less
//! than before, and customer bids never shrink. "The strength of this
//! protocol is that the negotiation process always converges."
//!
//! This module provides the protocol-level bookkeeping and validators,
//! which read a report's rounds; the E9 experiment runs them over
//! random populations.

use crate::session::RoundRecord;
use powergrid::units::Fraction;
use std::fmt;

/// Why a negotiation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminationReason {
    /// "(1) the peak is satisfactorily low for the Utility Agent (at most
    /// the maximal allowed overuse)".
    OveruseAcceptable,
    /// "(2) the reward values in the new reward table have (almost)
    /// reached the maximum value the Utility Agent can offer" — detected
    /// as a table step of at most ε.
    RewardSaturated,
    /// All customers stood still (request-for-bids method) — no deal can
    /// improve further.
    NoMovement,
    /// Single-round method (offer) completed.
    SingleRound,
    /// The marginal-cost stop rule fired: the next reward table would
    /// cost more than the expensive production still avoidable, so the
    /// Utility Agent settled on the current table instead of raising.
    EconomicStop,
}

impl fmt::Display for TerminationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TerminationReason::OveruseAcceptable => "overuse acceptable",
            TerminationReason::RewardSaturated => "reward table saturated",
            TerminationReason::NoMovement => "no customer movement",
            TerminationReason::SingleRound => "single-round method complete",
            TerminationReason::EconomicStop => "next table uneconomical",
        };
        f.write_str(s)
    }
}

/// Outcome status of a negotiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NegotiationStatus {
    /// The protocol terminated by its own rules.
    Converged(TerminationReason),
    /// The round budget ran out first (should not happen with the §6
    /// rule, whose saturation guarantees convergence).
    MaxRoundsExceeded,
}

impl NegotiationStatus {
    /// True if the protocol terminated by its own rules.
    pub fn is_converged(&self) -> bool {
        matches!(self, NegotiationStatus::Converged(_))
    }
}

impl fmt::Display for NegotiationStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NegotiationStatus::Converged(r) => write!(f, "converged ({r})"),
            NegotiationStatus::MaxRoundsExceeded => write!(f, "max rounds exceeded"),
        }
    }
}

/// A violation of the monotonic concession protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum ConcessionViolation {
    /// An announcement paid less than its predecessor somewhere.
    AnnouncementRegressed {
        /// Round of the offending announcement (1-based).
        round: usize,
    },
    /// A customer retreated to a smaller cut-down.
    BidRetreated {
        /// Round of the offending bid (1-based).
        round: usize,
        /// Index of the offending customer.
        customer: usize,
        /// The earlier, larger bid.
        previous: Fraction,
        /// The later, smaller bid.
        current: Fraction,
    },
}

impl fmt::Display for ConcessionViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConcessionViolation::AnnouncementRegressed { round } => {
                write!(
                    f,
                    "announcement in round {round} pays less than its predecessor"
                )
            }
            ConcessionViolation::BidRetreated {
                round,
                customer,
                previous,
                current,
            } => write!(
                f,
                "customer {customer} retreated from {previous} to {current} in round {round}"
            ),
        }
    }
}

impl std::error::Error for ConcessionViolation {}

/// Verifies that a report's announcements are monotone: each round's
/// reward table dominates the one announced in the round before.
///
/// # Errors
///
/// Returns the first [`ConcessionViolation::AnnouncementRegressed`].
pub fn verify_announcements(rounds: &[RoundRecord]) -> Result<(), ConcessionViolation> {
    for pair in rounds.windows(2) {
        if let (Some(previous), Some(next)) = (&pair[0].table, &pair[1].table) {
            if !next.dominates(previous) {
                return Err(ConcessionViolation::AnnouncementRegressed {
                    round: pair[1].round as usize,
                });
            }
        }
    }
    Ok(())
}

/// Verifies that no customer's bid retreats from one round of a report
/// to the next.
///
/// # Errors
///
/// Returns the first [`ConcessionViolation::BidRetreated`].
///
/// # Panics
///
/// Panics if two rounds' bids cover different numbers of customers.
pub fn verify_bids(rounds: &[RoundRecord]) -> Result<(), ConcessionViolation> {
    for pair in rounds.windows(2) {
        let (previous, next) = (&pair[0], &pair[1]);
        assert_eq!(
            previous.bids.len(),
            next.bids.len(),
            "bid rounds must cover the same customers"
        );
        for (c, (&prev, &cur)) in previous.bids.iter().zip(&next.bids).enumerate() {
            if cur < prev {
                return Err(ConcessionViolation::BidRetreated {
                    round: next.round as usize,
                    customer: c,
                    previous: prev,
                    current: cur,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reward::{RewardFormula, RewardTable};
    use powergrid::time::Interval;
    use powergrid::units::{KilowattHours, Money};
    use std::sync::Arc;

    fn fr(v: f64) -> Fraction {
        Fraction::clamped(v)
    }

    fn table(reward_at: f64) -> RewardTable {
        RewardTable::quadratic(Interval::new(0, 8), Money(reward_at), fr(0.4))
    }

    /// Round records numbered from 1, one per table announced.
    fn announced(tables: Vec<RewardTable>) -> Vec<RoundRecord> {
        tables
            .into_iter()
            .zip(1..)
            .map(|(table, round)| RoundRecord {
                round,
                table: Some(Arc::new(table)),
                bids: Vec::new(),
                predicted_total: KilowattHours::ZERO,
                messages: 0,
            })
            .collect()
    }

    /// Round records numbered from 1, one per round of bids.
    fn bid(rounds: &[&[f64]]) -> Vec<RoundRecord> {
        rounds
            .iter()
            .zip(1..)
            .map(|(bids, round)| RoundRecord {
                round,
                table: None,
                bids: bids.iter().map(|&b| fr(b)).collect(),
                predicted_total: KilowattHours::ZERO,
                messages: 0,
            })
            .collect()
    }

    #[test]
    fn monotone_announcements_pass() {
        let t0 = table(17.0);
        let t1 = t0.updated(&RewardFormula::paper(), 0.3, 2.0);
        let t2 = t1.updated(&RewardFormula::paper(), 0.2, 2.0);
        assert!(verify_announcements(&announced(vec![t0, t1, t2])).is_ok());
    }

    #[test]
    fn regressed_announcement_detected() {
        let err = verify_announcements(&announced(vec![table(20.0), table(17.0)])).unwrap_err();
        assert_eq!(err, ConcessionViolation::AnnouncementRegressed { round: 2 });
        assert!(err.to_string().contains("round 2"));
    }

    #[test]
    fn monotone_bids_pass() {
        let rounds = bid(&[&[0.0, 0.2], &[0.1, 0.2], &[0.1, 0.4]]);
        assert!(verify_bids(&rounds).is_ok());
    }

    #[test]
    fn retreating_bid_detected() {
        let err = verify_bids(&bid(&[&[0.3], &[0.2]])).unwrap_err();
        assert!(matches!(
            err,
            ConcessionViolation::BidRetreated {
                round: 2,
                customer: 0,
                ..
            }
        ));
    }

    #[test]
    #[should_panic(expected = "same customers")]
    fn inconsistent_rounds_panic() {
        let _ = verify_bids(&bid(&[&[0.1], &[0.1, 0.2]]));
    }

    #[test]
    fn status_and_reason_display() {
        let s = NegotiationStatus::Converged(TerminationReason::OveruseAcceptable);
        assert!(s.is_converged());
        assert!(s.to_string().contains("overuse acceptable"));
        assert!(!NegotiationStatus::MaxRoundsExceeded.is_converged());
        assert_eq!(
            TerminationReason::RewardSaturated.to_string(),
            "reward table saturated"
        );
    }

    #[test]
    fn empty_and_singleton_sequences_are_monotone() {
        assert!(verify_announcements(&[]).is_ok());
        assert!(verify_announcements(&announced(vec![table(17.0)])).is_ok());
        assert!(verify_bids(&[]).is_ok());
        assert!(verify_bids(&bid(&[&[0.2]])).is_ok());
    }
}
