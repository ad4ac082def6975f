//! The request-for-bids method (§3.2.2): iterated, maximal customer
//! influence.
//!
//! "Each Customer Agent is obliged to respond by saying how much
//! electricity it really needs when a reward is promised: y_min. ...
//! they respond by doing either the same bid again ('stand still') or by
//! doing a (slightly) better bid ('one step forward')."
//!
//! The stand-still/step-forward and settlement logic lives in the shared
//! [`UtilityEngine`](crate::engine::UtilityEngine); a scenario selects
//! it with
//! [`AnnouncementMethod::RequestForBids`](super::AnnouncementMethod::RequestForBids).

#[cfg(test)]
mod tests {
    use crate::concession::{verify_bids, NegotiationStatus, TerminationReason};
    use crate::methods::AnnouncementMethod;
    use crate::session::{Scenario, ScenarioBuilder};
    use powergrid::units::{Fraction, KilowattHours, Money};

    #[test]
    fn terminates_on_every_random_population() {
        for seed in 0..10 {
            let report = ScenarioBuilder::random(60, 0.35, seed)
                .method(AnnouncementMethod::RequestForBids)
                .build()
                .run();
            assert!(report.converged(), "seed {seed}: {report}");
        }
    }

    #[test]
    fn bids_step_forward_monotonically() {
        let report = ScenarioBuilder::random(40, 0.35, 3)
            .method(AnnouncementMethod::RequestForBids)
            .build()
            .run();
        assert!(verify_bids(report.rounds()).is_ok());
    }

    #[test]
    fn iterated_bidding_is_slower_than_the_one_shot_offer() {
        // §3.2.4: "this type of announcement may entail a more complex
        // and time consuming negotiation process". Whether it beats the
        // reward tables on *rounds* depends on the population; what holds
        // structurally is that the iterated method needs multiple rounds
        // (one tabled level per step) where the offer needs exactly one.
        for seed in 0..10 {
            let scenario = ScenarioBuilder::random(100, 0.35, seed).build();
            let rfb = Scenario {
                method: AnnouncementMethod::RequestForBids,
                ..scenario.clone()
            }
            .run();
            let offer = Scenario {
                method: AnnouncementMethod::Offer,
                ..scenario
            }
            .run();
            assert!(
                rfb.rounds().len() > offer.rounds().len(),
                "seed {seed}: request-for-bids ({}) should iterate past the \
                 single-round offer",
                rfb.rounds().len()
            );
            assert!(rfb.total_messages() > offer.total_messages(), "seed {seed}");
        }
    }

    #[test]
    fn no_movement_detected_with_rigid_population() {
        let mut b = ScenarioBuilder::new();
        for _ in 0..5 {
            b = b.customer(crate::session::CustomerProfile {
                predicted_use: KilowattHours(27.0),
                allowed_use: KilowattHours(27.0),
                preferences: crate::preferences::CustomerPreferences::from_base_scaled(
                    100.0,
                    Fraction::clamped(0.5),
                ),
            });
        }
        let report = b.method(AnnouncementMethod::RequestForBids).build().run();
        assert_eq!(
            report.status(),
            NegotiationStatus::Converged(TerminationReason::NoMovement)
        );
    }

    #[test]
    fn settlements_reflect_commitments() {
        let report = ScenarioBuilder::random(50, 0.3, 5)
            .method(AnnouncementMethod::RequestForBids)
            .build()
            .run();
        for (s, &final_bid) in report
            .settlements()
            .iter()
            .zip(&report.rounds().last().unwrap().bids)
        {
            assert_eq!(s.cutdown, final_bid);
            if s.cutdown > Fraction::ZERO {
                assert!(s.reward >= Money::ZERO);
            }
        }
    }
}
