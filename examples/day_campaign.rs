//! The grid→negotiation pipeline on one simulated week: a 300-household
//! `powergrid` population's demand is predicted day by day, every
//! detected peak becomes a negotiation scenario whose customer profiles
//! are derived from the households' physical saving potential, and the
//! sans-io engine negotiates them all. Two copies of the campaign,
//! interleaved a day at a time on two fleet workers, each reproduce the
//! lone run byte for byte.
//!
//! The campaign runs twice: open-loop (prediction history holds the raw
//! simulated actuals) and closed-loop (each day's negotiated cut-downs
//! are applied to that day's consumption before it enters history), so
//! the printout shows how feedback shrinks the following days' peaks.
//!
//! ```text
//! cargo run --release --example day_campaign
//! ```

use loadbal::core::fleet::FleetRunner;
use loadbal::prelude::*;
use powergrid::calendar::Horizon;
use powergrid::prediction::WeatherRegression;
use std::num::NonZeroUsize;

fn main() {
    let homes = PopulationBuilder::new().households(300).build(42);
    let horizon = Horizon::new(8, 0, Season::Winter); // Monday-start week + 1
    let build = || {
        CampaignBuilder::new(&homes, &WeatherModel::winter(), &horizon)
            .predictor(FixedPredictor(WeatherRegression::calibrated()))
            .build()
    };
    let runner = build();
    let open = runner.run();
    println!(
        "open loop: {} negotiations over {} evaluated days \
         (normal capacity {:.0} kW)",
        open.negotiations(),
        open.days_evaluated(),
        runner.production().normal_capacity().value()
    );
    for day in &open.days {
        match day.peaks.as_slice() {
            [] => println!("  day {}: stable — no negotiable peak", day.day.index),
            peaks => {
                for p in peaks {
                    println!("  day {}: {}", day.day.index, p);
                }
            }
        }
    }

    let parallel = FleetRunner::new()
        .cell("first", build())
        .cell("second", build())
        .threads(NonZeroUsize::new(2).expect("2 > 0"))
        .run();
    for cell in &parallel.cells {
        assert_eq!(
            cell.report, open,
            "{}: a fleet cell must be byte-identical to the lone campaign",
            cell.label
        );
    }
    assert!(open.all_converged(), "every peak negotiation converges");

    println!();
    print!("{open}");

    // The same campaign closed-loop: negotiated cut-downs feed back into
    // the consumption the next prediction is trained on.
    let closed = CampaignBuilder::new(&homes, &WeatherModel::winter(), &horizon)
        .predictor(FixedPredictor(WeatherRegression::calibrated()))
        .feedback(ClosedLoop)
        .build()
        .run();
    assert!(closed.all_converged());
    println!();
    print!("{closed}");
    println!(
        "\nfeedback fed {:.1} kWh of cut-downs into prediction history; \
         shaved {:.1} kWh (open loop: {:.1} kWh)",
        closed.total_feedback().value(),
        closed.total_energy_shaved().value(),
        open.total_energy_shaved().value()
    );
    println!(
        "determinism check passed: parallel == sequential over {} negotiations",
        open.negotiations()
    );
}
