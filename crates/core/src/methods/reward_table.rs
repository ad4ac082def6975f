//! The announce-reward-tables method (§3.2.3) — the paper's prototype.
//!
//! Each round: the UA announces a reward table to every CA (identical for
//! all, per Swedish law); every CA replies with its highest acceptable
//! cut-down (never retreating); the UA predicts the new balance with the
//! §6 formulae and either accepts or announces a dominating table.
//!
//! The round logic lives in the shared
//! [`UtilityEngine`](crate::engine::UtilityEngine), which drives the same
//! [`RewardTableNegotiator`](crate::utility_agent::RewardTableNegotiator)
//! in every execution mode; a scenario selects it with
//! [`AnnouncementMethod::RewardTables`](super::AnnouncementMethod::RewardTables).

#[cfg(test)]
mod tests {
    use crate::beta::BetaPolicy;
    use crate::concession::{
        verify_announcements, verify_bids, NegotiationStatus, TerminationReason,
    };
    use crate::session::ScenarioBuilder;
    use powergrid::units::{Fraction, KilowattHours};

    #[test]
    fn announcements_and_bids_are_monotone() {
        let report = ScenarioBuilder::paper_figure_6().build().run();
        assert!(verify_announcements(report.rounds()).is_ok());
        assert!(verify_bids(report.rounds()).is_ok());
    }

    #[test]
    fn always_converges_on_random_populations() {
        for seed in 0..20 {
            let report = ScenarioBuilder::random(50, 0.35, seed).build().run();
            assert!(report.converged(), "seed {seed} did not converge: {report}");
        }
    }

    #[test]
    fn overuse_never_increases_across_rounds() {
        let report = ScenarioBuilder::random(80, 0.4, 11).build().run();
        let mut prev = f64::INFINITY;
        for r in report.rounds() {
            let ou = r.overuse_fraction(report.normal_use());
            assert!(ou <= prev + 1e-12, "overuse increased: {ou} after {prev}");
            prev = ou;
        }
    }

    #[test]
    fn saturation_with_impossible_population() {
        // Customers so reluctant no reward below max can move them.
        let mut b = ScenarioBuilder::new();
        for _ in 0..10 {
            b = b.customer(crate::session::CustomerProfile {
                predicted_use: KilowattHours(13.5),
                allowed_use: KilowattHours(13.5),
                preferences: crate::preferences::CustomerPreferences::from_base_scaled(
                    50.0,
                    Fraction::clamped(0.5),
                ),
            });
        }
        let report = b.build().run();
        assert_eq!(
            report.status(),
            NegotiationStatus::Converged(TerminationReason::RewardSaturated)
        );
        // Overuse unchanged: nobody moved.
        assert!((report.final_overuse_fraction() - 0.35).abs() < 1e-9);
        assert_eq!(report.total_rewards(), powergrid::units::Money::ZERO);
    }

    #[test]
    fn higher_beta_converges_in_fewer_rounds() {
        let slow = ScenarioBuilder::random(50, 0.35, 3)
            .config(
                crate::utility_agent::UtilityAgentConfig::paper()
                    .with_beta_policy(BetaPolicy::constant(0.5)),
            )
            .build()
            .run();
        let fast = ScenarioBuilder::random(50, 0.35, 3)
            .config(
                crate::utility_agent::UtilityAgentConfig::paper()
                    .with_beta_policy(BetaPolicy::constant(4.0)),
            )
            .build()
            .run();
        assert!(
            fast.rounds().len() <= slow.rounds().len(),
            "β=4 ({}) should not need more rounds than β=0.5 ({})",
            fast.rounds().len(),
            slow.rounds().len()
        );
    }

    #[test]
    fn message_count_is_two_n_per_round_plus_awards() {
        let report = ScenarioBuilder::paper_figure_6().build().run();
        let n = 20u64;
        let expected = report.rounds().len() as u64 * 2 * n + n;
        assert_eq!(report.total_messages(), expected);
    }

    #[test]
    fn settlements_pay_final_table_rewards() {
        let report = ScenarioBuilder::paper_figure_6().build().run();
        let last = report.rounds().last().unwrap();
        let table = last.table.as_ref().unwrap();
        for (s, &bid) in report.settlements().iter().zip(&last.bids) {
            assert_eq!(s.cutdown, bid);
            assert_eq!(s.reward, table.reward_for(bid));
        }
    }
}
