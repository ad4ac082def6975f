//! Acceptance tests for the grid→negotiation pipeline: a realistic
//! `PopulationBuilder` population (≥ 200 households) runs a winter
//! campaign — every peak the predictor/detector finds is negotiated
//! through the sans-io engine, every negotiation converges, energy is
//! actually shaved, and the whole thing is byte-deterministic: a lone
//! run replays, and every cell of a fleet running the campaign twice
//! on two workers reports the same bytes. The closed-loop
//! and marginal-cost-stop policies are pinned here too: negotiated
//! cut-downs change the consumption the next prediction is trained on,
//! and the stop rule buys convergence for strictly less reward outlay.

mod common;

use common::twin_fleet;
use loadbal::core::campaign::{
    CampaignBuilder, CampaignRunner, ClosedLoop, FixedPredictor, MarginalCostStop,
};
use loadbal::prelude::*;
use powergrid::calendar::Horizon;
use powergrid::household::Household;
use powergrid::prediction::WeatherRegression;

fn homes(n: usize) -> Vec<Household> {
    PopulationBuilder::new().households(n).build(42)
}

fn winter_runner(homes: &[Household]) -> CampaignRunner<'_> {
    CampaignBuilder::new(
        homes,
        &WeatherModel::winter(),
        &Horizon::new(8, 0, Season::Winter),
    )
    .predictor(FixedPredictor(WeatherRegression::calibrated()))
    .build()
}

#[test]
fn day_campaign_over_200_households_negotiates_every_peak() {
    let homes = homes(220);
    let report = winter_runner(&homes).run();

    // Every detected peak is scheduled for negotiation, none skipped.
    let detected: usize = report.days.iter().map(|d| d.peaks.len()).sum();
    assert!(detected > 0, "a winter week must carry negotiable peaks");
    assert_eq!(
        report.negotiations(),
        detected,
        "every detected peak interval is negotiated"
    );

    // Every negotiation converges by protocol rules.
    assert!(report.all_converged(), "{report}");
    for outcome in &report.outcomes {
        assert!(
            outcome.report.converged(),
            "{}: {}",
            outcome.label,
            outcome.report
        );
        // The negotiated interval is exactly the detected peak interval.
        assert_eq!(outcome.peak.interval, {
            let r = &outcome.report;
            // Reward tables carry the interval in every announced table.
            r.rounds()[0]
                .table
                .as_ref()
                .expect("reward-table campaign")
                .interval()
        });
    }

    // The campaign reports real, positive energy savings.
    let shaved = report.total_energy_shaved();
    assert!(
        shaved.value() > 0.0,
        "campaign shaved {shaved} across {} peaks",
        report.negotiations()
    );
    // Per-outcome shavings sum to the total.
    let sum: KilowattHours = report.outcomes.iter().map(|o| o.energy_shaved()).sum();
    assert!((sum - shaved).value().abs() < 1e-9);
}

#[test]
fn campaign_is_byte_deterministic_across_execution_modes() {
    let homes = homes(200);
    let runner = winter_runner(&homes);
    let report = runner.run();
    assert_eq!(report, runner.run(), "a campaign run must replay");

    // Rebuilding the whole pipeline from the same seed replays exactly,
    // and so does every cell of the campaign run twice on two workers.
    assert_eq!(winter_runner(&homes).run(), report);
    let fleet = twin_fleet(|| winter_runner(&homes), 2);
    for cell in fleet.run().cells {
        assert_eq!(cell.report, report, "{}", cell.label);
    }
}

#[test]
fn pipeline_profiles_come_from_the_physical_model() {
    let homes = homes(200);
    let report = winter_runner(&homes).run();
    let scenario = report.outcomes[0]
        .scenario
        .as_ref()
        .expect("full-trace campaigns retain scenarios");
    assert_eq!(scenario.customers.len(), homes.len());
    // No customer can be asked for more than its physical ceiling, and
    // predicted use over the peak is strictly positive for every home.
    for c in &scenario.customers {
        assert!(c.predicted_use.value() > 0.0);
        assert!(c.allowed_use >= c.predicted_use);
        assert!(c.preferences.max_cutdown() <= Fraction::ONE);
    }
    // Settled cut-downs respect the physical ceilings.
    let settled = &report.outcomes[0].report;
    for (s, c) in settled.settlements().iter().zip(&scenario.customers) {
        assert!(
            s.cutdown <= c.preferences.max_cutdown(),
            "settled beyond physical saving potential"
        );
    }
}

#[test]
fn closed_loop_feeds_negotiated_cutdowns_into_the_next_prediction() {
    let homes = homes(220);
    let open = winter_runner(&homes).run();
    let closed = CampaignBuilder::new(
        &homes,
        &WeatherModel::winter(),
        &Horizon::new(8, 0, Season::Winter),
    )
    .predictor(FixedPredictor(WeatherRegression::calibrated()))
    .feedback(ClosedLoop)
    .build()
    .run();
    assert!(closed.all_converged(), "{closed}");

    // The feedback delta is reported per day: exactly the days whose
    // negotiations shaved energy fed a reduced series into history.
    assert!(closed.total_feedback().value() > 0.0);
    for day in &closed.days {
        let shaved_today: f64 = closed
            .outcomes
            .iter()
            .filter(|o| o.day == day.day)
            .map(|o| o.energy_shaved().value())
            .sum();
        assert_eq!(
            day.feedback_delta.value() > 0.0,
            shaved_today > 0.0,
            "day {}: feedback delta iff energy was shaved",
            day.day.index
        );
    }

    // Until the first negotiated day the two campaigns see identical
    // history, so their first day's peaks agree exactly (only the
    // feedback delta differs — the closed loop fed its shave back).
    assert_eq!(open.days[0].peaks, closed.days[0].peaks);
    assert_eq!(open.outcomes[0].report, closed.outcomes[0].report);

    // From then on the closed loop predicts post-negotiation (lower)
    // consumption: later peaks shrink, so the campaign shaves less in
    // total than the open loop that keeps re-detecting already-shaved
    // demand (fixed-seed regression for the feedback direction).
    assert!(
        closed.total_energy_shaved() < open.total_energy_shaved(),
        "closed {} !< open {}",
        closed.total_energy_shaved(),
        open.total_energy_shaved()
    );
    assert_eq!(open.total_feedback(), KilowattHours::ZERO);
}

#[test]
fn marginal_cost_stop_buys_convergence_for_strictly_less_outlay() {
    let homes = homes(220);
    let unconditional = winter_runner(&homes).run();
    let stopped = CampaignBuilder::new(
        &homes,
        &WeatherModel::winter(),
        &Horizon::new(8, 0, Season::Winter),
    )
    .predictor(FixedPredictor(WeatherRegression::calibrated()))
    .stop_rule(MarginalCostStop)
    .build()
    .run();

    // The stop rule fired somewhere and saved real money.
    assert!(
        stopped.economics.economic_stops > 0,
        "the stop rule must bite on this population: {stopped}"
    );
    assert!(
        stopped.total_rewards() < unconditional.total_rewards(),
        "stop outlay {} !< unconditional {}",
        stopped.total_rewards(),
        unconditional.total_rewards()
    );

    // Every negotiated interval still converges, and every interval ends
    // within the detector's tolerance of the capacity line: residual
    // overuse never reaches the threshold that makes a peak negotiable,
    // so no stopped peak would be re-detected.
    assert!(stopped.all_converged(), "{stopped}");
    for o in &stopped.outcomes {
        assert!(
            o.report.final_overuse_fraction() < 0.02,
            "{}: residual overuse {:.3} above the negotiable threshold",
            o.label,
            o.report.final_overuse_fraction()
        );
    }

    // The utility's net position (avoided expensive production minus
    // rewards) improves under the stop rule.
    assert!(
        stopped.economics.net_gain >= unconditional.economics.net_gain,
        "stop net gain {} < unconditional {}",
        stopped.economics.net_gain.value(),
        unconditional.economics.net_gain.value()
    );

    // The closed-loop + stop combination keeps both guarantees.
    let closed_stopped = CampaignBuilder::new(
        &homes,
        &WeatherModel::winter(),
        &Horizon::new(8, 0, Season::Winter),
    )
    .predictor(FixedPredictor(WeatherRegression::calibrated()))
    .feedback(ClosedLoop)
    .stop_rule(MarginalCostStop)
    .build()
    .run();
    assert!(closed_stopped.all_converged(), "{closed_stopped}");
    assert!(closed_stopped.total_feedback().value() > 0.0);
}
