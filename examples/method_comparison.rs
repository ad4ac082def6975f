//! The full pipeline on a realistic population: synthesize households,
//! predict tomorrow's demand from history and weather, detect the peak,
//! let the UA pick a strategy (§3.2.4), materialise the peak over the
//! households with `ScenarioBuilder::from_peak`, and compare all three
//! announcement methods on the resulting scenario.
//!
//! ```text
//! cargo run --release --example method_comparison
//! ```

use loadbal::core::strategy::{select_method, NegotiationContext};
use loadbal::prelude::*;

fn main() {
    let axis = TimeAxis::quarter_hourly();
    let homes = PopulationBuilder::new().households(300).build(42);

    // History: the last five winter days.
    let model = WeatherModel::winter();
    let history: Vec<Series> = (0..5)
        .map(|day| {
            let weather = model.temperatures(&axis, day);
            aggregate_demand(&homes, &weather, &axis, day)
                .series()
                .clone()
        })
        .collect();

    // Tomorrow: a cold snap.
    let forecast = model.with_anomaly(-5.0).temperatures(&axis, 6);
    let predicted = WeatherRegression::calibrated().predict(&history, &forecast);

    // Production sized so the evening peak crosses into the expensive
    // band, far enough (~25 % over on the households' demand) for every
    // method to have overuse to negotiate.
    let capacity = Kilowatts(predicted.max() / axis.slot_hours() * 0.65);
    let production = ProductionModel::two_tier(capacity);

    let Some(peak) = PeakDetector::new(0.05).detect(&predicted, &production) else {
        println!("stable situation — no negotiation needed");
        return;
    };
    println!("predicted peak: {peak}\nstrategy selection (§3.2.4):");
    for rounds_available in [1u32, 5, 20] {
        let (method, rationale) = select_method(NegotiationContext {
            rounds_available,
            overuse: peak.overuse_fraction(),
        });
        println!("  {rounds_available:>2} rounds available → {method}: {rationale}");
    }

    // Materialise the peak over the households' demand on the forecast
    // day (6) and compare methods.
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
    println!(
        "\nscenario: {} customers, initial overuse {:.1} %",
        scenario.customers.len(),
        100.0 * scenario.initial_overuse_fraction()
    );
    println!(
        "{:<18} {:>6} {:>9} {:>11} {:>9}",
        "method", "rounds", "messages", "overuse %", "outlay"
    );
    // One sweep cell per announcement method, fanned across cores; each
    // cell's scenario names its method, and each report must equal a
    // direct run of that cell.
    let mut sweep = ScenarioSweep::new();
    for method in AnnouncementMethod::all() {
        let cell = Scenario {
            method,
            ..scenario.clone()
        };
        sweep = sweep.point(method.to_string(), cell);
    }
    for (outcome, point) in sweep.run().iter().zip(sweep.points()) {
        let report = &outcome.report;
        assert_eq!(
            *report,
            point.scenario.run(),
            "{}: sweep cell differs from a direct run",
            outcome.label
        );
        println!(
            "{:<18} {:>6} {:>9} {:>11.1} {:>9.1}",
            outcome.label,
            report.rounds().len(),
            report.total_messages(),
            100.0 * report.final_overuse_fraction(),
            report.total_rewards().value(),
        );
    }
}
