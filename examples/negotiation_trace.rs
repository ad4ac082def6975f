//! Reproduces the paper's Figures 6–9 as terminal output: the Utility
//! Agent's view (capacity, predicted use, per-round reward tables) and
//! the highlighted Customer Agent's view (thresholds vs offers, chosen
//! cut-downs), then verifies the monotonic-concession invariants on the
//! recorded trace.
//!
//! ```text
//! cargo run --example negotiation_trace
//! ```

use loadbal::core::concession::{verify_announcements, verify_bids};
use loadbal::prelude::*;

fn main() {
    let scenario = ScenarioBuilder::paper_figure_6().build();
    let report = scenario.run();

    println!("=== Utility Agent view (Figures 6–7) ===");
    println!(
        "normal capacity 100.0 | predicted usage {:.1} | predicted overuse {:.1}",
        scenario.initial_total().value(),
        report.initial_overuse().value()
    );
    for round in report.rounds() {
        let table = round.table.as_ref().expect("table present");
        print!("round {} | rewards:", round.round);
        for (c, m) in table.entries() {
            print!(" {c}→{:.1}", m.value());
        }
        println!(
            " | predicted use {:.1} | overuse {:.1}",
            round.predicted_total.value(),
            (round.predicted_total - report.normal_use()).value()
        );
    }
    println!("outcome: {}\n", report.status());

    println!("=== Customer Agent view (Figures 8–9) ===");
    let prefs = &scenario.customers[0].preferences;
    println!("private table: {prefs}");
    for round in report.rounds() {
        let table = round.table.as_ref().expect("table present");
        println!("round {}:", round.round);
        for &(c, offered) in table.entries() {
            let Some(required) = prefs.required_for(c) else {
                continue;
            };
            println!(
                "  cut-down {c}: offered {:6.2} vs required {:6.2} → {}",
                offered.value(),
                required.value(),
                if prefs.accepts(c, offered) {
                    "acceptable"
                } else {
                    "not acceptable"
                }
            );
        }
        println!("  → preferred cut-down: {}", round.bids[0]);
    }

    println!("\n=== Protocol invariants (§3.1) ===");
    println!(
        "announcements monotone: {}",
        if verify_announcements(report.rounds()).is_ok() {
            "yes"
        } else {
            "VIOLATED"
        }
    );
    println!(
        "bids never retreat:     {}",
        if verify_bids(report.rounds()).is_ok() {
            "yes"
        } else {
            "VIOLATED"
        }
    );
}
