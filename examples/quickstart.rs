//! Quickstart: run the paper's calibrated negotiation and print the
//! result.
//!
//! `Scenario::run()` negotiates on a fresh `NegotiationScratch`, which
//! pumps `Effect`s between one sans-io `UtilityEngine` and the
//! `CustomerEngine`s and takes the report the utility engine builds. The
//! distributed and DESIRE-hosted modes drive the very same engines, so
//! what this example prints is what every mode produces.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use loadbal::prelude::*;

fn main() {
    // The Figure 6/7 scenario: normal capacity 100, predicted use 135.
    let scenario = ScenarioBuilder::paper_figure_6().build();
    println!(
        "Scenario: {} customers, predicted use {:.1}, capacity {:.1} ({:.0} % overuse)\n",
        scenario.customers.len(),
        scenario.initial_total().value(),
        scenario.normal_use.value(),
        100.0 * scenario.initial_overuse_fraction(),
    );

    // One round trip of the engine by hand, to make the sans-io shape
    // visible: the Utility side broadcasts its announcement, a customer
    // answers with its reply.
    let mut utility = UtilityEngine::new(&scenario);
    let mut first_customer = CustomerEngine::for_customer(&scenario, 0);
    utility.handle(Input::Start);
    while let Some(effect) = utility.poll_effect() {
        if let Effect::Broadcast { msg } = effect {
            println!("engine: UA → CA0   {msg}");
            if let Some(msg) = first_customer.answer(&msg) {
                println!("engine: CA0 → UA   {msg}");
            }
        }
    }
    println!();

    // The full negotiation through the synchronous pump.
    let report = scenario.run();
    println!("Outcome: {report}");
    for round in report.rounds() {
        let table = round
            .table
            .as_ref()
            .expect("reward-table rounds carry tables");
        println!(
            "  round {}: reward(0.4) = {:5.2}  predicted use = {:6.1}  overuse = {:5.1}",
            round.round,
            table.reward_for(Fraction::clamped(0.4)).value(),
            round.predicted_total.value(),
            (round.predicted_total - report.normal_use()).value(),
        );
    }

    // Settlement accounting: both sides must gain (§3.1). Peak energy is
    // expensive — the spread between the tiers is what cut-downs are
    // worth to the utility (rewards are in the paper's abstract units).
    let producer = loadbal::core::producer_agent::ProducerAgent::new(ProductionModel::with_costs(
        Kilowatts(50.0),
        PricePerKwh(0.3),
        PricePerKwh(12.0),
    ));
    let summary =
        loadbal::core::outcome::SettlementSummary::compute(&scenario, &report, &producer, 2.0);
    println!("\nSettlement: {summary}");
}
