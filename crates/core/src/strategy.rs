//! Negotiation-strategy selection knowledge (§3.2.4).
//!
//! "One solution is to allow agents to use all three methods (and maybe
//! even more) as different strategies. The agents can then decide
//! themselves which strategy to use and when. ... This depends, for
//! example, on the amount of time available for the negotiation process."

use crate::methods::AnnouncementMethod;

/// Situation features the selection knowledge conditions on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NegotiationContext {
    /// Communication rounds that fit before the peak arrives.
    pub rounds_available: u32,
    /// Predicted relative overuse (e.g. `0.35`).
    pub overuse: f64,
    /// Number of Customer Agents involved.
    pub customers: usize,
}

/// Selects an announcement method for the context, with the §3.2.4
/// rationale:
///
/// * almost no time (< 2 rounds) → **offer** — "very fast, because only
///   one round of negotiation is required";
/// * a moderate budget → **reward tables** — the structured intermediate,
///   customers keep influence but convergence is driven by the UA;
/// * plenty of time and a mild peak → **request for bids** — maximal
///   customer influence, but "a more complex and time consuming
///   negotiation process and therefore cannot be made shortly before a
///   peak is expected".
pub fn select_method(ctx: NegotiationContext) -> (AnnouncementMethod, &'static str) {
    if ctx.rounds_available < 2 {
        return (
            AnnouncementMethod::Offer,
            "peak imminent: only the one-round offer method fits",
        );
    }
    if ctx.rounds_available >= 10 && ctx.overuse < 0.25 {
        return (
            AnnouncementMethod::RequestForBids,
            "ample time and a mild peak: grant customers maximal influence",
        );
    }
    (
        AnnouncementMethod::RewardTables,
        "moderate time budget: reward tables converge fast with customer influence",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imminent_peak_forces_offer() {
        let (m, why) = select_method(NegotiationContext {
            rounds_available: 1,
            overuse: 0.4,
            customers: 1000,
        });
        assert_eq!(m, AnnouncementMethod::Offer);
        assert!(why.contains("one-round"));
    }

    #[test]
    fn ample_time_mild_peak_uses_request_for_bids() {
        let (m, _) = select_method(NegotiationContext {
            rounds_available: 20,
            overuse: 0.1,
            customers: 100,
        });
        assert_eq!(m, AnnouncementMethod::RequestForBids);
    }

    #[test]
    fn default_is_reward_tables() {
        let (m, _) = select_method(NegotiationContext {
            rounds_available: 5,
            overuse: 0.35,
            customers: 100,
        });
        assert_eq!(m, AnnouncementMethod::RewardTables);
        // Severe peak with lots of time still avoids the slow method.
        let (m2, _) = select_method(NegotiationContext {
            rounds_available: 20,
            overuse: 0.5,
            customers: 100,
        });
        assert_eq!(m2, AnnouncementMethod::RewardTables);
    }
}
