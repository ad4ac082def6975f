//! Protocol messages exchanged in the distributed execution mode.
//!
//! The vocabulary follows §3.2 of the paper: announcements flow from the
//! Utility Agent to all Customer Agents, bids flow back, and awards
//! confirm accepted bids.

use crate::reward::RewardTable;
use powergrid::units::{Fraction, KilowattHours, Money};
use std::fmt;
use std::sync::Arc;

/// A protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    // ----- announce-reward-tables method (§3.2.3) -----
    /// UA → CA: a reward table for `round`.
    ///
    /// The table is behind an [`Arc`]: one round's announcement goes to
    /// *every* customer, so the negotiation hot loop shares one
    /// snapshot per round instead of cloning the entry vector per
    /// recipient.
    Announce {
        /// Negotiation round, 1-based.
        round: u32,
        /// The announced table (shared per-round snapshot).
        table: Arc<RewardTable>,
    },
    /// CA → UA: the chosen cut-down for `round`.
    Bid {
        /// Negotiation round the bid answers.
        round: u32,
        /// The chosen cut-down ("the highest acceptable cut-down").
        cutdown: Fraction,
    },
    /// UA → CA: the bid is accepted; the reward will be paid if the
    /// cut-down is implemented.
    Award {
        /// Final negotiation round.
        round: u32,
        /// The cut-down being rewarded.
        cutdown: Fraction,
        /// The reward due.
        reward: Money,
    },

    // ----- offer method (§3.2.1) -----
    /// UA → CA: take-it-or-leave-it offer — "use at most `x_max` of your
    /// allowance at the lower price; excess at the higher price".
    Offer {
        /// The fraction of allowed use covered by the lower price.
        x_max: Fraction,
    },
    /// CA → UA: "Customer Agents may only answer 'yes' or 'no'".
    OfferReply {
        /// The yes/no answer.
        accept: bool,
    },

    // ----- request-for-bids method (§3.2.2) -----
    /// UA → CA: request for bids in `round`.
    RequestBids {
        /// Negotiation round, 1-based.
        round: u32,
    },
    /// CA → UA: "how much electricity it really needs": `y_min`, plus the
    /// cut-down it corresponds to.
    NeedBid {
        /// Negotiation round the bid answers.
        round: u32,
        /// The electricity the customer commits to needing at most.
        y_min: KilowattHours,
        /// The equivalent cut-down fraction of allowed use.
        cutdown: Fraction,
    },
}

impl fmt::Display for Msg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Msg::Announce { round, table } => write!(f, "announce[r{round}] {table}"),
            Msg::Bid { round, cutdown } => write!(f, "bid[r{round}] {cutdown}"),
            Msg::Award {
                round,
                cutdown,
                reward,
            } => {
                write!(f, "award[r{round}] {cutdown} for {reward}")
            }
            Msg::Offer { x_max } => write!(f, "offer x_max={x_max}"),
            Msg::OfferReply { accept } => {
                write!(f, "offer-reply {}", if *accept { "yes" } else { "no" })
            }
            Msg::RequestBids { round } => write!(f, "request-bids[r{round}]"),
            Msg::NeedBid {
                round,
                y_min,
                cutdown,
            } => {
                write!(f, "need-bid[r{round}] y_min={y_min} ({cutdown})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fr(v: f64) -> Fraction {
        Fraction::clamped(v)
    }

    #[test]
    fn display_is_informative() {
        let m = Msg::Award {
            round: 3,
            cutdown: fr(0.4),
            reward: Money(24.8),
        };
        let s = m.to_string();
        assert!(s.contains("r3"));
        assert!(s.contains("24.8"));
    }
}
