//! Clean-vs-faulty season smoke (E18's shape, CI-sized): a 2-cell
//! winter fleet negotiates once over a *perfect* simulated network —
//! asserted byte-identical to the synchronous season, the paper's
//! location-transparency claim — and once over a lossy one, with the
//! resilience layer diffing the two peak by peak.
//!
//! ```text
//! cargo run --release --example fault_resilience
//! ```

use loadbal::core::fleet::FleetRunner;
use loadbal::prelude::*;
use powergrid::calendar::Horizon;
use powergrid::prediction::WeatherRegression;
use std::num::NonZeroUsize;

fn main() {
    let north = PopulationBuilder::new().households(80).build(1);
    let south = PopulationBuilder::new().households(60).build(2);
    let weather = WeatherModel::winter();
    let horizon = Horizon::new(6, 0, Season::Winter); // 3 warmup + 3 evaluated
    let seed = 42;
    let fleet = |mode: ExecutionMode| {
        let cell = |homes| {
            CampaignBuilder::new(homes, &weather, &horizon)
                .predictor(FixedPredictor(WeatherRegression::calibrated()))
                .feedback(ClosedLoop)
                .report_tier(ReportTier::Settlement)
                .execution(mode.clone())
                .build()
        };
        FleetRunner::new()
            .cell("north", cell(&north))
            .cell("south", cell(&south))
            .threads(NonZeroUsize::new(2).expect("2 > 0"))
    };

    // Distributed over a perfect network == in-process sync, byte for
    // byte: the execution substrate is invisible to the negotiation.
    let sync = fleet(ExecutionMode::sync()).run();
    let (clean, clean_traffic) =
        fleet(ExecutionMode::distributed_clean().with_seed(seed)).run_instrumented();
    assert_eq!(
        clean, sync,
        "distributed-clean season must be byte-identical to sync"
    );
    assert!(sync.negotiations() > 0, "winter evenings must carry peaks");
    println!(
        "clean == sync: {} peaks across {} cells, {} wire messages, 0 lost\n",
        clean.negotiations(),
        clean.len(),
        clean_traffic.iter().map(|t| t.messages_sent).sum::<u64>()
    );

    // One faulty class: 15 % message loss. Every campaign still
    // terminates; the report quantifies what the loss cost.
    let report = ResilienceReport::against_baseline(
        &clean,
        &clean_traffic,
        seed,
        &[FaultClass::Drop],
        |mode| fleet(mode).run_instrumented(),
    );
    print!("{report}");

    let drop = report.outcome(FaultClass::Drop).expect("drop injected");
    assert!(drop.matched_peaks() > 0, "faulty season must negotiate");
    assert!(
        drop.traffic().messages_dropped > 0,
        "a 15% lossy season must lose messages"
    );
    assert!(
        drop.traffic().deadline_forced_rounds > 0,
        "lost responses must force rounds onto the deadline"
    );
    println!(
        "\nfaulty season survived: {} peaks diffed, {} dropped messages, {} deadline-forced rounds",
        drop.matched_peaks(),
        drop.traffic().messages_dropped,
        drop.traffic().deadline_forced_rounds
    );
}
