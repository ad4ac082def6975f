//! Cross-crate integration: the full pipeline from physical households
//! through prediction and peak detection to a settled negotiation.

use loadbal::core::outcome::SettlementSummary;
use loadbal::core::producer_agent::ProducerAgent;
use loadbal::prelude::*;

fn history_for(homes: &[Household], axis: &TimeAxis, days: u64) -> Vec<Series> {
    let model = WeatherModel::winter();
    (0..days)
        .map(|day| {
            let weather = model.temperatures(axis, day);
            aggregate_demand(homes, &weather, axis, day)
                .series()
                .clone()
        })
        .collect()
}

#[test]
fn grid_to_negotiation_pipeline_shaves_the_peak() {
    let axis = TimeAxis::quarter_hourly();
    let homes = PopulationBuilder::new().households(200).build(11);
    let history = history_for(&homes, &axis, 5);
    let forecast = WeatherModel::winter()
        .with_anomaly(-4.0)
        .temperatures(&axis, 6);

    // UA agent-specific tasks (§5.1.2): predict the balance, then
    // evaluate the prediction. Capacity sits at 0.65 of the predicted
    // maximum, so day 6's physical demand over the peak is ~25 % over
    // capacity, beyond the paper UA's 15 % allowed band.
    let predicted = WeatherRegression::calibrated().predict(&history, &forecast);
    let capacity = Kilowatts(predicted.max() / axis.slot_hours() * 0.65);
    let production = ProductionModel::two_tier(capacity);
    let peak = PeakDetector::new(0.02)
        .detect(&predicted, &production)
        .expect("cold snap must produce a peak");
    assert!(peak.overuse_fraction() > 0.0);

    // Materialise the detected peak over the households' day-6 demand
    // and negotiate it.
    let slab = PopulationSlab::from_households(&homes);
    let mut scratch = DemandScratch::new();
    let scenario = ScenarioBuilder::from_peak(
        slab.view(),
        &axis,
        forecast.mean(),
        &peak,
        6,
        1.0,
        &mut scratch,
    )
    .build();
    let report = scenario.run();
    assert!(report.converged(), "{report}");
    assert!(
        report.final_overuse_fraction() < report.initial_overuse_fraction(),
        "negotiation must shave the peak: {report}"
    );

    // Settle: customers must not lose (their thresholds are honoured).
    let producer = ProducerAgent::new(production);
    let summary =
        SettlementSummary::compute(&scenario, &report, &producer, peak.interval.hours(axis));
    assert!(summary.customer_surplus.value() >= 0.0);
    assert!(summary.participants > 0);
}

#[test]
fn predictors_agree_on_stable_history() {
    let axis = TimeAxis::hourly();
    let homes = PopulationBuilder::new().households(50).build(5);
    let history = history_for(&homes, &axis, 4);
    let weather = WeatherModel::winter().temperatures(&axis, 9);
    let ma = MovingAverage::new(3).predict(&history, &weather);
    let wr = WeatherRegression::calibrated().predict(&history, &weather);
    // Same order of magnitude: the weather factor is a modest scaling.
    let ratio = wr.sum() / ma.sum();
    assert!(
        (0.7..1.4).contains(&ratio),
        "predictors diverge: ratio {ratio}"
    );
}

#[test]
fn stable_grid_never_triggers_negotiation() {
    let axis = TimeAxis::hourly();
    let homes = PopulationBuilder::new().households(50).build(3);
    let history = history_for(&homes, &axis, 3);
    let forecast = WeatherModel::winter().temperatures(&axis, 4);
    let predicted = MovingAverage::new(3).predict(&history, &forecast);
    // Ample capacity: double the observed peak.
    let capacity = Kilowatts(predicted.max() / axis.slot_hours() * 2.0);
    let production = ProductionModel::two_tier(capacity);
    assert!(
        PeakDetector::default()
            .detect(&predicted, &production)
            .is_none(),
        "no peak expected with double capacity"
    );
}

#[test]
fn all_methods_work_on_household_derived_scenarios() {
    let axis = TimeAxis::quarter_hourly();
    let homes = PopulationBuilder::new().households(80).build(21);
    let weather = WeatherModel::winter().temperatures(&axis, 21);
    let curve = aggregate_demand(&homes, &weather, &axis, 21);
    let peak = Peak {
        interval: curve.peak_interval(8),
        predicted_overuse: KilowattHours::ZERO,
        normal_use: KilowattHours::ZERO,
    };
    let slab = PopulationSlab::from_households(&homes);
    let mut scratch = DemandScratch::new();
    let mut scenario = ScenarioBuilder::from_peak(
        slab.view(),
        &axis,
        weather.mean(),
        &peak,
        21,
        1.0,
        &mut scratch,
    )
    .build();
    // Capacity at 0.8 of the interval's demand: 25 % overuse.
    scenario.normal_use = scenario.initial_total() * 0.8;
    for method in AnnouncementMethod::all() {
        let report = Scenario {
            method,
            ..scenario.clone()
        }
        .run();
        assert!(report.converged(), "{method}: {report}");
        assert!(
            report.final_overuse() <= report.initial_overuse(),
            "{method} must not worsen the peak"
        );
    }
}
