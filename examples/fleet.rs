//! A fleet of campaigns on one set of workers: two grid cells, three
//! evaluated days each, two workers — the CI smoke for the fleet layer
//! (grid → prediction → peaks → scenarios → campaign → fleet).
//!
//! The workers drain one queue of cells a day at a time: a worker pops
//! a cell, runs its next day (a cell's closed-loop days are
//! sequential) and pushes it back. The result is still byte-identical
//! to running each campaign alone.
//!
//! ```text
//! cargo run --release --example fleet
//! ```

use loadbal::core::fleet::FleetRunner;
use loadbal::prelude::*;
use powergrid::calendar::Horizon;
use powergrid::prediction::WeatherRegression;
use std::num::NonZeroUsize;

fn main() {
    // Two cells of one service area: distinct cohorts, shared weather.
    let north = PopulationBuilder::new().households(150).build(1);
    let south = PopulationBuilder::new().households(100).build(2);
    let weather = WeatherModel::winter();
    let horizon = Horizon::new(6, 0, Season::Winter); // 3 warmup + 3 evaluated
    let cell = |homes| {
        CampaignBuilder::new(homes, &weather, &horizon)
            .predictor(FixedPredictor(WeatherRegression::calibrated()))
            .feedback(ClosedLoop)
            .build()
    };

    let fleet = FleetRunner::new()
        .cell("north", cell(&north))
        .cell("south", cell(&south))
        .threads(NonZeroUsize::new(2).expect("2 > 0"));

    let report = fleet.run();
    print!("{report}");

    // The scheduling is free; the semantics are not.
    assert_eq!(
        report,
        fleet.run_sequential(),
        "interleaved fleet must be byte-identical to sequential"
    );
    for (cell, (label, campaign)) in report.cells.iter().zip(fleet.cells()) {
        assert_eq!(&cell.label, label);
        assert_eq!(
            cell.report,
            campaign.run(),
            "{label}: fleet cell must equal its standalone campaign"
        );
    }
    assert!(report.all_converged(), "every peak negotiation converges");
    assert!(
        report.negotiations() > 0,
        "winter evenings must peak above 90% capacity"
    );
    println!(
        "\nfleet == sequential == standalone campaigns: {} peaks across {} cells, all converged",
        report.negotiations(),
        report.len()
    );
}
