//! Property tests pinning the PR-1 determinism claim: a
//! [`ScenarioSweep`] run in parallel is *byte-identical* to sequential
//! execution — for arbitrary grids, seeds, methods and thread counts —
//! and the grid-backed campaign runner inherits the same guarantee,
//! open- and closed-loop (where each day's negotiated cut-downs feed
//! the next day's prediction, so any nondeterminism would compound).
//! A lone campaign is one fleet queue entry, run by one worker at any
//! thread count, so a campaign runs at a chosen thread count as two
//! cells of one fleet, each held to the lone run. Under all of these
//! sits `fan_out`, whose contract is pinned here too.

mod common;

use common::twin_fleet;
use loadbal::core::campaign::{CampaignBuilder, ClosedLoop, FixedPredictor, MarginalCostStop};
use loadbal::prelude::*;
use powergrid::calendar::Horizon;
use powergrid::prediction::MovingAverage;
use proptest::prelude::*;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

fn arb_method() -> impl Strategy<Value = AnnouncementMethod> {
    prop_oneof![
        Just(AnnouncementMethod::RewardTables),
        Just(AnnouncementMethod::Offer),
        Just(AnnouncementMethod::RequestForBids),
    ]
}

fn arb_cell() -> impl Strategy<Value = (usize, f64, u64, AnnouncementMethod)> {
    (2usize..25, 0.05f64..0.6, 0u64..1000, arb_method())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The core claim: for any grid and any worker-thread count, the
    /// parallel sweep returns exactly what the sequential one does —
    /// labels, order, and every byte of every report.
    #[test]
    fn parallel_sweep_is_byte_identical_to_sequential(
        cells in prop::collection::vec(arb_cell(), 1..12),
        threads in 1usize..9,
    ) {
        let mut sweep = ScenarioSweep::new()
            .threads(NonZeroUsize::new(threads).expect("threads ≥ 1"));
        for (i, (n, overuse, seed, method)) in cells.iter().enumerate() {
            sweep = sweep.point(
                format!("cell{i}"),
                ScenarioBuilder::random(*n, *overuse, *seed)
                    .method(*method)
                    .build(),
            );
        }
        let parallel = sweep.run();
        let sequential = sweep.run_sequential();
        prop_assert_eq!(&parallel, &sequential);
        // And re-running is a pure replay.
        prop_assert_eq!(&parallel, &sweep.run());
    }

    /// The same grid fanned with different thread counts always agrees:
    /// parallelism is an execution detail, never an input.
    #[test]
    fn thread_count_never_changes_outcomes(
        n in 5usize..30,
        overuse in 0.1f64..0.5,
        seeds in 1u64..6,
    ) {
        let base = ScenarioSweep::new().seeded_grid("grid", n, overuse, 0..seeds, |b| b);
        let reference = base.run_sequential();
        for threads in [1usize, 2, 4, 7] {
            let sweep = base.clone().threads(NonZeroUsize::new(threads).expect("≥1"));
            prop_assert_eq!(&sweep.run(), &reference, "threads = {}", threads);
        }
    }

    /// The campaign runner inherits byte-determinism end to end
    /// (population → prediction → peaks → negotiations).
    #[test]
    fn campaign_parallel_equals_sequential(
        households in 20usize..60,
        pop_seed in 0u64..50,
        threads in 1usize..5,
    ) {
        let homes = PopulationBuilder::new().households(households).build(pop_seed);
        let horizon = Horizon::new(5, 0, Season::Winter);
        let build = || {
            CampaignBuilder::new(&homes, &WeatherModel::winter(), &horizon)
                .warmup_days(2)
                .predictor(FixedPredictor(MovingAverage::new(2)))
                .build()
        };
        let fleet = twin_fleet(build, threads);
        let parallel = fleet.run();
        prop_assert_eq!(&parallel, &fleet.run_sequential());
        let reference = build().run();
        prop_assert_eq!(&reference, &build().run(), "a lone run replays");
        for cell in &parallel.cells {
            prop_assert_eq!(&cell.report, &reference);
        }
    }

    /// The execution-mode transparency claim at the campaign layer: a
    /// campaign whose peaks negotiate as seeded simulations over a
    /// *perfect* network produces the **same bytes** as the in-process
    /// sync campaign — for any grid, any report tier, any thread count,
    /// any base seed. Per-peak seeds derive from (day, peak) positions,
    /// so worker scheduling can never leak into the result.
    #[test]
    fn distributed_clean_campaign_is_byte_identical_to_sync(
        households in 20usize..50,
        pop_seed in 0u64..50,
        threads in 1usize..5,
        tier_ix in 0usize..3,
        base_seed in 0u64..1000,
    ) {
        let tier = [ReportTier::Aggregate, ReportTier::Settlement, ReportTier::FullTrace][tier_ix];
        let homes = PopulationBuilder::new().households(households).build(pop_seed);
        let horizon = Horizon::new(5, 0, Season::Winter);
        let build = |mode: ExecutionMode| {
            CampaignBuilder::new(&homes, &WeatherModel::winter(), &horizon)
                .warmup_days(2)
                .predictor(FixedPredictor(MovingAverage::new(2)))
                .feedback(ClosedLoop)
                .report_tier(tier)
                .execution(mode)
                .build()
        };
        let sync = build(ExecutionMode::sync()).run();
        let distributed = twin_fleet(
            || build(ExecutionMode::distributed_clean().with_seed(base_seed)),
            threads,
        );
        let (parallel, traffic) = distributed.run_instrumented();
        for cell in &parallel.cells {
            prop_assert_eq!(&cell.report, &sync, "tier {:?}, threads {}", tier, threads);
        }
        for cell in &distributed.run_sequential().cells {
            prop_assert_eq!(&cell.report, &sync);
        }
        // The perfect network carried real messages and lost nothing.
        for traffic in traffic {
            prop_assert_eq!(traffic.negotiations as usize, sync.negotiations());
            if traffic.negotiations > 0 {
                prop_assert!(traffic.messages_sent > 0);
            }
            prop_assert_eq!(traffic.messages_dropped, 0);
            prop_assert_eq!(traffic.deadline_forced_rounds, 0);
        }
    }

    /// A *closed-loop* campaign — later days depend on earlier outcomes
    /// through the feedback into prediction history — is byte-identical
    /// across thread counts, with and without the marginal-cost stop.
    #[test]
    fn closed_loop_campaign_is_byte_identical_across_thread_counts(
        households in 20usize..60,
        pop_seed in 0u64..50,
        stop_flag in 0u8..2,
    ) {
        let stop = stop_flag == 1;
        let homes = PopulationBuilder::new().households(households).build(pop_seed);
        let horizon = Horizon::new(5, 0, Season::Winter);
        let build = || {
            let b = CampaignBuilder::new(&homes, &WeatherModel::winter(), &horizon)
                .warmup_days(2)
                .predictor(FixedPredictor(MovingAverage::new(2)))
                .feedback(ClosedLoop);
            if stop { b.stop_rule(MarginalCostStop).build() } else { b.build() }
        };
        let reference = build().run();
        prop_assert_eq!(&build().run(), &reference, "a lone run replays");
        for threads in [1usize, 2, 4, 7] {
            let fleet = twin_fleet(build, threads);
            for cell in &fleet.run().cells {
                prop_assert_eq!(&cell.report, &reference, "threads = {}", threads);
            }
            for cell in &fleet.run_sequential().cells {
                prop_assert_eq!(&cell.report, &reference);
            }
        }
    }

    /// The full adaptive stack — rolling predictor re-selection,
    /// same-day renegotiation and experience-tuned β — is byte-identical
    /// across thread counts: all three self-tuning loops live in the
    /// sequential day boundary, never inside a day's negotiations.
    #[test]
    fn adaptive_campaign_is_byte_identical_across_thread_counts(
        households in 20usize..60,
        pop_seed in 0u64..50,
        window in 2usize..5,
        every in 1usize..4,
        passes in 1usize..4,
    ) {
        let homes = PopulationBuilder::new().households(households).build(pop_seed);
        let horizon = Horizon::new(6, 0, Season::Winter);
        let build = || {
            CampaignBuilder::new(&homes, &WeatherModel::winter(), &horizon)
                .warmup_days(2)
                .predictor(RollingWindow::standard(window, every))
                .feedback(RenegotiateResidual::new(passes, 0.005))
                .tuning(AdaptiveTuning)
                .stop_rule(MarginalCostStop)
                .build()
        };
        let reference = build().run();
        prop_assert_eq!(&build().run(), &reference, "a lone run replays");
        for threads in [1usize, 2, 4, 7] {
            let fleet = twin_fleet(build, threads);
            for cell in &fleet.run().cells {
                prop_assert_eq!(&cell.report, &reference, "threads = {}", threads);
            }
            for cell in &fleet.run_sequential().cells {
                prop_assert_eq!(&cell.report, &reference);
            }
        }
    }

    /// An adaptive campaign on the clean distributed driver reproduces
    /// the sync season byte for byte: the day-boundary loops (tuning,
    /// renegotiation staging, predictor re-selection) see identical
    /// settlement reports whichever driver negotiated them.
    #[test]
    fn adaptive_distributed_clean_campaign_is_byte_identical_to_sync(
        households in 20usize..50,
        pop_seed in 0u64..50,
        threads in 1usize..5,
        base_seed in 0u64..1000,
    ) {
        let homes = PopulationBuilder::new().households(households).build(pop_seed);
        let horizon = Horizon::new(6, 0, Season::Winter);
        let build = |mode: ExecutionMode| {
            CampaignBuilder::new(&homes, &WeatherModel::winter(), &horizon)
                .warmup_days(2)
                .predictor(RollingWindow::standard(3, 2))
                .feedback(RenegotiateResidual::new(2, 0.005))
                .tuning(AdaptiveTuning)
                .stop_rule(MarginalCostStop)
                .execution(mode)
                .build()
        };
        let sync = build(ExecutionMode::sync()).run();
        let distributed = twin_fleet(
            || build(ExecutionMode::distributed_clean().with_seed(base_seed)),
            threads,
        );
        for cell in &distributed.run().cells {
            prop_assert_eq!(&cell.report, &sync);
        }
        for cell in &distributed.run_sequential().cells {
            prop_assert_eq!(&cell.report, &sync);
        }
    }

    /// Renegotiation regression: every pass label stays within the
    /// configured bound, and no negotiation — primary or renegotiated —
    /// ever increases the overuse it was asked to remove.
    #[test]
    fn renegotiation_is_bounded_and_never_increases_overuse(
        households in 20usize..60,
        pop_seed in 0u64..50,
        passes in 1usize..4,
    ) {
        let homes = PopulationBuilder::new().households(households).build(pop_seed);
        let horizon = Horizon::new(6, 0, Season::Winter);
        let report = CampaignBuilder::new(&homes, &WeatherModel::winter(), &horizon)
            .warmup_days(2)
            .predictor(FixedPredictor(MovingAverage::new(2)))
            .feedback(RenegotiateResidual::new(passes, 0.0))
            .stop_rule(MarginalCostStop)
            .build()
            .run();
        for o in &report.outcomes {
            if let Some(ix) = o.label.find("#r") {
                let pass: usize = o.label[ix + 2..].parse().expect("pass suffix");
                prop_assert!(pass >= 1 && pass <= passes, "label {}", o.label);
            }
            prop_assert!(
                o.report.final_overuse().value() <= o.report.initial_overuse().value() + 1e-9,
                "{} increased overuse",
                o.label
            );
        }
    }

    /// A renegotiation rule whose threshold no residual can reach is
    /// exactly the closed loop: the delegation changes nothing until a
    /// residual peak actually qualifies.
    #[test]
    fn unreachable_renegotiation_threshold_is_plain_closed_loop(
        households in 20usize..60,
        pop_seed in 0u64..50,
    ) {
        let homes = PopulationBuilder::new().households(households).build(pop_seed);
        let horizon = Horizon::new(5, 0, Season::Winter);
        let renegotiated = CampaignBuilder::new(&homes, &WeatherModel::winter(), &horizon)
            .warmup_days(2)
            .predictor(FixedPredictor(MovingAverage::new(2)))
            .feedback(RenegotiateResidual::new(3, 10.0))
            .build()
            .run();
        let plain = CampaignBuilder::new(&homes, &WeatherModel::winter(), &horizon)
            .warmup_days(2)
            .predictor(FixedPredictor(MovingAverage::new(2)))
            .feedback(ClosedLoop)
            .build()
            .run();
        prop_assert_eq!(&renegotiated, &plain);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The executor's contract under every sweep and fleet run: for any
    /// thread cap, task count and set of panicking tasks, every index
    /// runs exactly once; without panics the result is the sequential
    /// map, and with panics the lowest panicking index's own payload
    /// resurfaces.
    #[test]
    fn fan_out_runs_every_task_once_and_resurfaces_the_lowest_panic(
        threads in 1usize..9,
        count in 0usize..65,
        panicking in prop::collection::btree_set(0usize..65, 0..6),
    ) {
        let runs: Vec<AtomicUsize> = (0..count).map(|_| AtomicUsize::new(0)).collect();
        let value = |i: usize| i * 7 + 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            fan_out(
                NonZeroUsize::new(threads).expect("threads ≥ 1"),
                count,
                || (),
                |(), i| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    if panicking.contains(&i) {
                        panic!("task {i}");
                    }
                    value(i)
                },
            )
        }));
        match panicking.range(..count).next() {
            None => {
                let out = outcome.expect("no task panicked");
                prop_assert_eq!(out, (0..count).map(value).collect::<Vec<_>>());
            }
            Some(lowest) => {
                let payload = outcome.expect_err("a task panicked");
                prop_assert_eq!(
                    payload.downcast_ref::<String>(),
                    Some(&format!("task {lowest}"))
                );
            }
        }
        for (i, ran) in runs.iter().enumerate() {
            prop_assert_eq!(ran.load(Ordering::Relaxed), 1, "task {} ran once", i);
        }
    }
}
