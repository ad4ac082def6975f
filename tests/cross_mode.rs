//! The three execution modes — synchronous session, distributed massim
//! actors, DESIRE-hosted components — must agree on every outcome.
//!
//! Since the sans-io redesign all three are thin drivers over the same
//! `loadbal_core::engine` state machines, so agreement is by
//! construction; these tests pin that property against regressions in
//! the drivers' input/effect translation.

use loadbal::core::campaign::{CampaignBuilder, ClosedLoop, FixedPredictor};
use loadbal::core::desire_host::run_hosted;
use loadbal::core::distributed::{run_distributed, DistributedOutcome};
use loadbal::core::fleet::FleetRunner;
use loadbal::massim::clock::SimDuration;
use loadbal::massim::network::NetworkModel;
use loadbal::prelude::*;
use powergrid::calendar::Horizon;
use powergrid::prediction::MovingAverage;
use proptest::prelude::*;
use std::num::NonZeroUsize;

#[test]
fn three_modes_agree_on_the_paper_scenario() {
    let scenario = ScenarioBuilder::paper_figure_6().build();
    let sync = scenario.run();
    let dist = run_distributed(
        &scenario,
        NetworkModel::perfect(),
        1,
        SimDuration::from_ticks(100),
    );
    let hosted = run_hosted(&scenario);

    assert_eq!(sync.rounds().len(), 3);
    for other in [&dist.report, &hosted] {
        assert_eq!(other.rounds().len(), sync.rounds().len());
        assert_eq!(other.status(), sync.status());
        assert_eq!(other.final_bids(), sync.final_bids());
        assert_eq!(other.final_overuse(), sync.final_overuse());
    }
}

#[test]
fn three_modes_agree_on_random_scenarios() {
    for seed in [3u64, 17, 91] {
        let scenario = ScenarioBuilder::random(20, 0.35, seed).build();
        let sync = scenario.run();
        let dist = run_distributed(
            &scenario,
            NetworkModel::perfect(),
            seed,
            SimDuration::from_ticks(100),
        );
        let hosted = run_hosted(&scenario);
        assert_eq!(
            dist.report.final_bids(),
            sync.final_bids(),
            "seed {seed} (distributed)"
        );
        assert_eq!(
            hosted.final_bids(),
            sync.final_bids(),
            "seed {seed} (hosted)"
        );
        assert_eq!(dist.report.status(), sync.status(), "seed {seed}");
        assert_eq!(hosted.status(), sync.status(), "seed {seed}");
    }
}

#[test]
fn per_round_tables_agree_between_sync_and_distributed() {
    let scenario = ScenarioBuilder::random(25, 0.4, 7).build();
    let sync = scenario.run();
    let dist = run_distributed(
        &scenario,
        NetworkModel::perfect(),
        7,
        SimDuration::from_ticks(100),
    );
    for (a, b) in sync.rounds().iter().zip(dist.report.rounds()) {
        assert_eq!(a.round, b.round);
        assert_eq!(a.table, b.table);
        assert_eq!(a.bids, b.bids);
        assert_eq!(a.predicted_total, b.predicted_total);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The strengthened equivalence property: for random seeded
    /// scenarios the three drivers produce **identical**
    /// `NegotiationReport`s through the shared engine — not just the
    /// same final bids, but the same rounds, tables, message counts,
    /// settlements and status.
    #[test]
    fn all_three_drivers_produce_identical_reports(
        customers in 5usize..30,
        overuse in 0.2f64..0.5,
        seed in 0u64..10_000,
    ) {
        let scenario = ScenarioBuilder::random(customers, overuse, seed).build();
        let sync = scenario.run();

        // Distributed, perfect network: byte-identical report.
        let dist = run_distributed(
            &scenario,
            NetworkModel::perfect(),
            seed,
            SimDuration::from_ticks(100),
        );
        prop_assert_eq!(&dist.report, &sync);

        // DESIRE-hosted: identical report (announcements cross the
        // kernel's information links as micro-precision facts, but the
        // tabled levels and thresholds survive that encoding).
        let hosted = run_hosted(&scenario);
        prop_assert_eq!(&hosted, &sync);
    }

    /// The same property for the two non-prototype announcement methods,
    /// which the distributed driver gained with the shared engine.
    #[test]
    fn sync_and_distributed_agree_on_every_method(
        customers in 5usize..25,
        seed in 0u64..10_000,
    ) {
        for method in AnnouncementMethod::all() {
            let scenario = ScenarioBuilder::random(customers, 0.35, seed)
                .method(method)
                .build();
            let sync = scenario.run();
            let dist = run_distributed(
                &scenario,
                NetworkModel::perfect(),
                seed,
                SimDuration::from_ticks(100),
            );
            prop_assert_eq!(&dist.report, &sync, "method {}", method);
        }
    }

    /// The campaign hot path's distributed driver — the scratch-reusing
    /// [`NegotiationScratch::run_distributed`] — agrees with the sync
    /// pump at **every** report tier over a perfect network, through a
    /// scratch whose engine buffers were shaped by a previous
    /// negotiation.
    #[test]
    fn scratch_distributed_clean_matches_sync_at_any_tier(
        customers in 5usize..25,
        seed in 0u64..10_000,
        tier_ix in 0usize..3,
    ) {
        let tier =
            [ReportTier::Aggregate, ReportTier::Settlement, ReportTier::FullTrace][tier_ix];
        let scenario = ScenarioBuilder::random(customers, 0.35, seed).build();
        let mut scratch = NegotiationScratch::new();
        // Dirty the scratch first so the run goes through reset engines.
        let _ = scratch.run(
            &ScenarioBuilder::random(7, 0.4, 9)
                .method(AnnouncementMethod::RequestForBids)
                .build(),
            ReportTier::FullTrace,
        );
        let sync = scratch.run(&scenario, tier);
        let outcome = scratch.run_distributed(
            &scenario,
            tier,
            &NetworkModel::perfect(),
            seed,
            SimDuration::from_ticks(300),
        );
        prop_assert_eq!(&outcome.report, &sync, "tier {:?}", tier);
        prop_assert_eq!(outcome.deadline_forced_rounds, 0);
        prop_assert_eq!(outcome.metrics.messages_dropped, 0);
    }

    /// One scratch carries every transport: a random sequence of
    /// negotiations — each with its own size, seed, method and tier —
    /// alternates between the sync pump, a perfect network and a
    /// network that drops, duplicates and reorders, and every result
    /// equals the same negotiation on a fresh scratch. Engines checked
    /// out for a lossy run and checked back in must leak nothing into
    /// the next negotiation, whichever transport it takes.
    #[test]
    fn one_scratch_serves_every_transport_in_any_order(
        negotiations in prop::collection::vec(
            (1usize..46, 0u64..10_000, arb_method(), 0usize..3, 0usize..3),
            2..9,
        ),
    ) {
        let mut scratch = NegotiationScratch::new();
        for (i, &(customers, seed, method, tier_ix, transport)) in
            negotiations.iter().enumerate()
        {
            let tier = ReportTier::all()[tier_ix];
            let scenario = ScenarioBuilder::random(customers, 0.35, seed)
                .method(method)
                .build();
            let mut fresh_scratch = NegotiationScratch::new();
            let fresh = negotiate_over(&mut fresh_scratch, &scenario, tier, transport, seed);
            let reused = negotiate_over(&mut scratch, &scenario, tier, transport, seed);
            prop_assert_eq!(&reused, &fresh, "negotiation {}: {:?}", i, negotiations[i]);
        }
        prop_assert_eq!(scratch.negotiations(), negotiations.len() as u64);
    }
}

fn arb_method() -> impl Strategy<Value = AnnouncementMethod> {
    prop_oneof![
        Just(AnnouncementMethod::RewardTables),
        Just(AnnouncementMethod::Offer),
        Just(AnnouncementMethod::RequestForBids),
    ]
}

/// What one negotiation yields on its transport.
#[derive(Debug, PartialEq)]
enum Negotiated {
    Sync(NegotiationReport),
    Distributed(DistributedOutcome),
}

/// Negotiates `scenario` through `scratch` over transport `0` (the sync
/// pump), `1` (a perfect network) or `2` (a network that drops,
/// duplicates and reorders messages).
fn negotiate_over(
    scratch: &mut NegotiationScratch,
    scenario: &Scenario,
    tier: ReportTier,
    transport: usize,
    seed: u64,
) -> Negotiated {
    let network = match transport {
        0 => return Negotiated::Sync(scratch.run(scenario, tier)),
        1 => NetworkModel::perfect(),
        _ => NetworkModel::uniform(1, 15)
            .with_drop_probability(0.15)
            .with_duplicate_probability(0.1)
            .with_reordering(0.2, 20),
    };
    Negotiated::Distributed(scratch.run_distributed(
        scenario,
        tier,
        &network,
        seed,
        SimDuration::from_ticks(300),
    ))
}

#[test]
fn fleet_distributed_clean_is_byte_identical_to_sync_at_every_tier() {
    // The transparency claim at the top of the stack: a whole fleet —
    // shared workers, interleaved scheduling, closed-loop feedback —
    // reports the same bytes whether its peaks negotiate in-process or
    // as seeded simulations over a perfect network.
    let north = PopulationBuilder::new().households(35).build(1);
    let south = PopulationBuilder::new().households(25).build(2);
    let weather = WeatherModel::winter();
    let horizon = Horizon::new(5, 0, Season::Winter);
    for tier in [
        ReportTier::Aggregate,
        ReportTier::Settlement,
        ReportTier::FullTrace,
    ] {
        let fleet = |mode: ExecutionMode| {
            let cell = |homes| {
                CampaignBuilder::new(homes, &weather, &horizon)
                    .warmup_days(2)
                    .predictor(FixedPredictor(MovingAverage::new(2)))
                    .feedback(ClosedLoop)
                    .report_tier(tier)
                    .execution(mode.clone())
                    .build()
            };
            FleetRunner::new()
                .cell("north", cell(&north))
                .cell("south", cell(&south))
                .threads(NonZeroUsize::new(3).expect("3 > 0"))
        };
        let sync = fleet(ExecutionMode::sync()).run();
        let distributed = fleet(ExecutionMode::distributed_clean().with_seed(7));
        let (interleaved, traffic) = distributed.run_instrumented();
        assert_eq!(interleaved, sync, "{tier:?}: interleaved");
        assert_eq!(
            distributed.run_sequential(),
            sync,
            "{tier:?}: sequential distributed"
        );
        // Real messages crossed the wire; none were lost or forced.
        let total: u64 = traffic.iter().map(|t| t.messages_sent).sum();
        assert!(total > 0, "{tier:?}: no wire traffic recorded");
        assert!(traffic.iter().all(|t| t.messages_dropped == 0));
        assert!(traffic.iter().all(|t| t.deadline_forced_rounds == 0));
    }
}
