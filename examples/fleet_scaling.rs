//! Distributed negotiations at scale over imperfect networks: one
//! Utility Agent process versus up to thousands of Customer Agent
//! processes, with latency and message loss, fanned across CPU cores.
//!
//! ```text
//! cargo run --release --example fleet_scaling
//! ```

use loadbal::core::distributed::run_distributed;
use loadbal::massim::clock::SimDuration;
use loadbal::massim::network::NetworkModel;
use loadbal::prelude::*;
use std::num::NonZeroUsize;

fn main() {
    println!("distributed reward-table negotiations (latency 1–20 ticks)\n");
    println!(
        "{:>9} {:>9} {:>6} {:>10} {:>9} {:>11}",
        "customers", "drop %", "rounds", "delivered", "dropped", "final ou %"
    );
    for &n in &[50usize, 500, 2000] {
        for &drop in &[0.0, 0.1, 0.3] {
            let scenario = ScenarioBuilder::random(n, 0.35, n as u64).build();
            let network = if drop > 0.0 {
                NetworkModel::uniform(1, 20).with_drop_probability(drop)
            } else {
                NetworkModel::uniform(1, 20)
            };
            let outcome = run_distributed(&scenario, network, 7, SimDuration::from_ticks(200));
            println!(
                "{:>9} {:>9.0} {:>6} {:>10} {:>9} {:>11.1}",
                n,
                100.0 * drop,
                outcome.report.rounds().len(),
                outcome.traffic.messages_delivered,
                outcome.traffic.messages_dropped,
                100.0 * outcome.report.final_overuse_fraction(),
            );
        }
    }

    // Parameter sweep across seeds, in parallel, deterministic per seed.
    println!("\nparallel seed sweep (500 customers, 10 % loss): final overuse per seed");
    let threads = std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN);
    let results = fan_out(
        threads,
        8,
        || (),
        |(), i| {
            let seed = i as u64;
            let scenario = ScenarioBuilder::random(500, 0.35, seed).build();
            let outcome = run_distributed(
                &scenario,
                NetworkModel::uniform(1, 20).with_drop_probability(0.1),
                seed,
                SimDuration::from_ticks(200),
            );
            (seed, outcome.report.final_overuse_fraction())
        },
    );
    for (seed, overuse) in results {
        println!("  seed {seed}: {:.1} %", 100.0 * overuse);
    }
}
