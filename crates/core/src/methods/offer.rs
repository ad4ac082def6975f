//! The offer method (§3.2.1): one-round take-it-or-leave-it.
//!
//! "The offer the Utility Agent proposes to its Customer Agents is that
//! if they only use x_max % of a given amount of electricity, they will
//! receive that electricity for a lower price. ... Customer Agents may
//! only answer 'yes' or 'no' to this offer."
//!
//! The accept/decline and billing-advantage logic lives in the shared
//! [`UtilityEngine`](crate::engine::UtilityEngine); a scenario selects
//! it with [`AnnouncementMethod::Offer`](super::AnnouncementMethod::Offer).

#[cfg(test)]
mod tests {
    use crate::methods::AnnouncementMethod;
    use crate::session::{NegotiationReport, ScenarioBuilder};
    use powergrid::units::Fraction;

    #[test]
    fn single_round_always() {
        let report = ScenarioBuilder::paper_figure_6()
            .method(AnnouncementMethod::Offer)
            .build()
            .run();
        assert_eq!(report.rounds().len(), 1);
        assert!(report.converged());
        assert_eq!(report.total_messages(), 40);
    }

    #[test]
    fn acceptors_reduce_overuse() {
        let report = ScenarioBuilder::random(100, 0.35, 5)
            .method(AnnouncementMethod::Offer)
            .build()
            .run();
        assert!(
            report.final_overuse() <= report.initial_overuse(),
            "offer must not worsen the peak"
        );
        // Someone accepts in a heterogeneous population.
        assert!(report.final_bids().iter().any(|b| b.value() > 0.0));
    }

    #[test]
    fn all_customers_get_identical_terms() {
        // §3.2.1: "all customers are treated in the same way" — the offer
        // itself has no per-customer parameters; verify settlements only
        // differ because predicted uses and preferences differ.
        let report = ScenarioBuilder::paper_figure_6()
            .method(AnnouncementMethod::Offer)
            .build()
            .run();
        // The two k=1.0 customers are identical, so their settlements are.
        assert_eq!(report.settlements()[0], report.settlements()[1]);
    }

    #[test]
    fn stricter_offer_cuts_more_but_fewer_accept() {
        let lenient = ScenarioBuilder::random(200, 0.35, 9)
            .config(
                crate::utility_agent::UtilityAgentConfig::paper()
                    .with_offer_x_max(Fraction::clamped(0.9)),
            )
            .method(AnnouncementMethod::Offer)
            .build()
            .run();
        let strict = ScenarioBuilder::random(200, 0.35, 9)
            .config(
                crate::utility_agent::UtilityAgentConfig::paper()
                    .with_offer_x_max(Fraction::clamped(0.5)),
            )
            .method(AnnouncementMethod::Offer)
            .build()
            .run();
        let acceptors =
            |r: &NegotiationReport| r.final_bids().iter().filter(|b| b.value() > 0.0).count();
        assert!(
            acceptors(&strict) <= acceptors(&lenient),
            "a harsher cap cannot attract more acceptors"
        );
    }
}
