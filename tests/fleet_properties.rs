//! Property tests pinning the fleet-layer determinism claim: a
//! [`FleetRunner`] whose workers drain one queue of cells, a cell-day
//! at a time, is *byte-identical* to running every campaign alone, one
//! after another — for arbitrary cell counts, population mixes, policy
//! combinations and thread counts. Nondeterministic scheduling, fully
//! deterministic results: each cell's result lands at its own index,
//! whichever cell finishes first. That includes *when* each cell's
//! deferred demand synthesis runs: before the run or on a cell's first
//! visit by a worker. A panic in any cell's work resurfaces its
//! original payload once the other workers have drained the queue,
//! never a hang.

use loadbal::core::campaign::{
    CampaignBuilder, CampaignRunner, ClosedLoop, FixedPredictor, MarginalCostStop,
};
use loadbal::core::fleet::FleetRunner;
use loadbal::prelude::*;
use powergrid::calendar::Horizon;
use powergrid::household::Household;
use powergrid::prediction::MovingAverage;
use powergrid::slab::PopulationSlab;
use proptest::prelude::*;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn build_cell(
    homes: &[Household],
    weather: &WeatherModel,
    closed: bool,
    stop: bool,
) -> CampaignRunner<'static> {
    let horizon = Horizon::new(5, 0, Season::Winter);
    configure(CampaignBuilder::new(homes, weather, &horizon), closed, stop)
}

fn configure(builder: CampaignBuilder<'_>, closed: bool, stop: bool) -> CampaignRunner<'_> {
    let mut b = builder
        .warmup_days(2)
        .predictor(FixedPredictor(MovingAverage::new(2)));
    if closed {
        b = b.feedback(ClosedLoop);
    }
    if stop {
        b = b.stop_rule(MarginalCostStop);
    }
    b.build()
}

fn build_adaptive_cell(homes: &[Household], weather: &WeatherModel) -> CampaignRunner<'static> {
    let horizon = Horizon::new(6, 0, Season::Winter);
    CampaignBuilder::new(homes, weather, &horizon)
        .warmup_days(2)
        .predictor(RollingWindow::standard(3, 2))
        .feedback(RenegotiateResidual::new(2, 0.005))
        .tuning(AdaptiveTuning)
        .stop_rule(MarginalCostStop)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The core claim: one set of workers over many campaigns returns
    /// exactly what back-to-back sequential runs do — per-cell reports,
    /// order, economics, every byte — for any cell mix and thread count.
    #[test]
    fn fleet_is_byte_identical_to_sequential(
        cells in prop::collection::vec(
            (15usize..45, 0u64..40, any::<bool>(), any::<bool>()),
            1..5,
        ),
        threads in 1usize..9,
    ) {
        let weather = WeatherModel::winter();
        let populations: Vec<Vec<Household>> = cells
            .iter()
            .map(|(n, seed, _, _)| PopulationBuilder::new().households(*n).build(*seed))
            .collect();
        let mut fleet = FleetRunner::new()
            .threads(NonZeroUsize::new(threads).expect("threads ≥ 1"));
        for (i, ((_, _, closed, stop), homes)) in cells.iter().zip(&populations).enumerate() {
            fleet = fleet.cell(format!("cell{i}"), build_cell(homes, &weather, *closed, *stop));
        }
        let interleaved = fleet.run();
        let sequential = fleet.run_sequential();
        prop_assert_eq!(&interleaved, &sequential);
        // Re-running is a pure replay.
        prop_assert_eq!(&interleaved, &fleet.run());
        // And every cell matches its standalone campaign, so the fleet
        // layer adds scheduling, never semantics.
        for (cell, (label, runner)) in interleaved.cells.iter().zip(fleet.cells()) {
            prop_assert_eq!(&cell.label, label);
            prop_assert_eq!(&cell.report, &runner.run());
        }
    }

    /// One `FleetRunner` reused across two consecutive `run` calls —
    /// each run fans out its own workers, with a *different* cell mix
    /// the second time — stays byte-identical to fresh sequential runs:
    /// nothing a run leaves in the runner or its cells (memoised
    /// preparation included) leaks any state from the first season
    /// into the second.
    #[test]
    fn fleet_reused_across_runs_stays_byte_identical(
        first in prop::collection::vec((15usize..40, 0u64..30, any::<bool>()), 1..3),
        extra in prop::collection::vec((15usize..40, 30u64..60, any::<bool>()), 1..3),
        threads in 2usize..7,
    ) {
        let weather = WeatherModel::winter();
        let populations: Vec<Vec<Household>> = first
            .iter()
            .chain(&extra)
            .map(|(n, seed, _)| PopulationBuilder::new().households(*n).build(*seed))
            .collect();
        let mut fleet = FleetRunner::new()
            .threads(NonZeroUsize::new(threads).expect("threads ≥ 1"));
        for (i, ((_, _, closed), homes)) in first.iter().zip(&populations).enumerate() {
            fleet = fleet.cell(format!("cell{i}"), build_cell(homes, &weather, *closed, false));
        }
        // First run: its workers are joined before it returns.
        let run1 = fleet.run();
        prop_assert_eq!(&run1, &fleet.run_sequential());
        // Grow the mix: the same runner negotiates a different fleet on
        // its second run.
        for (j, ((_, _, closed), homes)) in
            extra.iter().zip(&populations[first.len()..]).enumerate()
        {
            fleet = fleet.cell(format!("extra{j}"), build_cell(homes, &weather, *closed, true));
        }
        let run2 = fleet.run();
        prop_assert_eq!(&run2, &fleet.run_sequential());
        // The original cells' reports are bit-for-bit unaffected by the
        // runner reuse and the new neighbours.
        for (a, b) in run1.cells.iter().zip(&run2.cells) {
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(run2.len(), first.len() + extra.len());
    }

    /// Thread count is an execution detail: the same fleet fanned over
    /// 1, 2, 4 and 7 workers always agrees with the single-thread run.
    #[test]
    fn fleet_thread_count_never_changes_outcomes(
        n in 15usize..40,
        seeds in 1u64..5,
    ) {
        let weather = WeatherModel::winter();
        let populations: Vec<Vec<Household>> = (0..seeds)
            .map(|s| PopulationBuilder::new().households(n).build(s))
            .collect();
        let build_fleet = |threads: usize| {
            let mut fleet = FleetRunner::new()
                .threads(NonZeroUsize::new(threads).expect("threads ≥ 1"));
            for (i, homes) in populations.iter().enumerate() {
                // Mixed policies: odd cells closed-loop so later days
                // depend on earlier negotiations inside each cell.
                fleet = fleet.cell(
                    format!("cell{i}"),
                    build_cell(homes, &weather, i % 2 == 1, false),
                );
            }
            fleet
        };
        let reference = build_fleet(1).run();
        for threads in [2usize, 4, 7] {
            prop_assert_eq!(&build_fleet(threads).run(), &reference, "threads = {}", threads);
        }
    }

    /// Adaptive cells keep the fleet guarantee: campaigns running all
    /// three self-tuning loops (rolling predictor re-selection,
    /// same-day renegotiation, experience-tuned β), interleaved with
    /// plain cells on one set of workers, are byte-identical to their
    /// standalone sequential runs — each cell's tuned state is its own.
    #[test]
    fn fleet_with_adaptive_cells_is_byte_identical_to_sequential(
        cells in prop::collection::vec((15usize..40, 0u64..40, any::<bool>()), 1..4),
        threads in 1usize..7,
    ) {
        let weather = WeatherModel::winter();
        let populations: Vec<Vec<Household>> = cells
            .iter()
            .map(|(n, seed, _)| PopulationBuilder::new().households(*n).build(*seed))
            .collect();
        let mut fleet = FleetRunner::new()
            .threads(NonZeroUsize::new(threads).expect("threads ≥ 1"));
        for (i, ((_, _, adaptive), homes)) in cells.iter().zip(&populations).enumerate() {
            let cell = if *adaptive {
                build_adaptive_cell(homes, &weather)
            } else {
                build_cell(homes, &weather, true, false)
            };
            fleet = fleet.cell(format!("cell{i}"), cell);
        }
        let interleaved = fleet.run();
        prop_assert_eq!(&interleaved, &fleet.run_sequential());
        for (cell, (label, runner)) in interleaved.cells.iter().zip(fleet.cells()) {
            prop_assert_eq!(&cell.label, label);
            prop_assert_eq!(&cell.report, &runner.run());
        }
    }

    /// Demand synthesis is deferred out of `CampaignBuilder::build` and
    /// memoised on first use. Whether a caller prepares some cells
    /// before the fleet runs (by reading `production()`/`ua_config()`)
    /// or every cell is prepared by the first worker to reach it, over
    /// converted or borrowed slabs, the fleet reports byte-identically
    /// to the sequential reference, and the accessors read the same
    /// values before and after a run.
    #[test]
    fn preparation_order_never_changes_outcomes(
        cells in prop::collection::vec(
            (15usize..40, 0u64..40, any::<bool>(), any::<bool>()),
            1..5,
        ),
        threads in 1usize..5,
    ) {
        let weather = WeatherModel::winter();
        let builders: Vec<PopulationBuilder> = cells
            .iter()
            .map(|(n, _, _, _)| PopulationBuilder::new().households(*n))
            .collect();
        let objects: Vec<Vec<Household>> = cells
            .iter()
            .zip(&builders)
            .map(|((_, seed, _, _), b)| b.build(*seed))
            .collect();
        let slabs: Vec<PopulationSlab> = cells
            .iter()
            .zip(&builders)
            .map(|((_, seed, _, _), b)| b.build_slab(*seed))
            .collect();
        let horizon = Horizon::new(5, 0, Season::Winter);
        let build_fleet = || {
            let mut fleet = FleetRunner::new()
                .threads(NonZeroUsize::new(threads).expect("threads ≥ 1"));
            for (i, (_, _, slab, _)) in cells.iter().enumerate() {
                let builder = if *slab {
                    CampaignBuilder::new_ref(slabs[i].view(), &weather, &horizon)
                } else {
                    CampaignBuilder::new(&objects[i], &weather, &horizon)
                };
                // Odd cells price a stop rule into their UA config.
                fleet = fleet.cell(format!("cell{i}"), configure(builder, true, i % 2 == 1));
            }
            fleet
        };
        let eager = build_fleet();
        let lazy = build_fleet();
        // Prepare some cells of `eager` up front (always the first);
        // `lazy` is left entirely to the fleet's workers.
        let before: Vec<_> = eager
            .cells()
            .iter()
            .zip(&cells)
            .enumerate()
            .filter(|(i, (_, (_, _, _, early)))| *early || *i == 0)
            .map(|(i, ((_, runner), _))| {
                (i, runner.production().clone(), runner.ua_config().clone())
            })
            .collect();
        let reference = build_fleet().run_sequential();
        prop_assert_eq!(&eager.run(), &reference);
        prop_assert_eq!(&lazy.run(), &reference);
        for (i, production, config) in &before {
            let (_, runner) = &eager.cells()[*i];
            prop_assert_eq!(runner.production(), production);
            prop_assert_eq!(runner.ua_config(), config);
        }
        for ((_, e), (_, l)) in eager.cells().iter().zip(lazy.cells()) {
            prop_assert_eq!(e.production(), l.production());
            prop_assert_eq!(e.ua_config(), l.ua_config());
            // The accessor reads the configuration the days start from.
            prop_assert_eq!(l.ua_config(), l.progress().ua_config());
        }
    }
}

/// A predictor policy that panics when asked to choose — inside
/// `CampaignRunner::progress`, i.e. on a cell's first visit by a worker
/// (the claim path).
#[derive(Debug)]
struct PanickingPredictor;

impl PredictorPolicy for PanickingPredictor {
    fn choose<'s>(&'s self, _actuals: &[Series], _weathers: &[Series]) -> &'s dyn LoadPredictor {
        panic!("predictor policy exploded");
    }
}

/// A feedback policy that panics once a day with negotiated outcomes
/// completes — inside `complete_day` after the day's last negotiation,
/// i.e. where a worker ends its cell-day (the store path). Stable days
/// pass.
#[derive(Debug)]
struct PanickingFeedback;

impl FeedbackPolicy for PanickingFeedback {
    fn history_entry(&self, actual: &Series, outcomes: &[IntervalOutcome]) -> Series {
        if !outcomes.is_empty() {
            panic!("feedback policy exploded");
        }
        actual.clone()
    }
}

/// Runs `run` on its own thread and returns its panic message. Fails if
/// `run` returns normally or is still running after two minutes (the
/// hung thread is then left behind; every other run is joined).
fn panic_message(run: impl FnOnce() + Send + 'static) -> String {
    let (sender, receiver) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let message = catch_unwind(AssertUnwindSafe(run)).err().map(|payload| {
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string payload>".to_string())
        });
        sender.send(message).expect("the test is waiting");
    });
    let message = receiver
        .recv_timeout(Duration::from_secs(120))
        .expect("the run hung");
    handle.join().expect("the panic was caught on the thread");
    message.expect("the run returned instead of panicking")
}

/// The scheduler's panic contract. A cell whose policy panics — on the
/// claim path (`progress()`) or the store path (`complete_day`) — makes
/// the whole run panic with the policy's own message. This holds next
/// to a healthy cell at 1, 2 and 4 threads and for a lone
/// `CampaignRunner::run`. A second run of the same value panics the
/// same way, so no lock is left poisoned.
#[test]
fn panicking_policies_resurface_their_original_payload() {
    let weather = WeatherModel::winter();
    let healthy = PopulationBuilder::new().households(30).build(1);
    let faulty = PopulationBuilder::new().households(40).build(11);
    let faulty_cell = |claim_path: bool| {
        let builder = CampaignBuilder::new(&faulty, &weather, &Horizon::new(5, 0, Season::Winter))
            .warmup_days(2);
        if claim_path {
            builder.predictor(PanickingPredictor).build()
        } else {
            builder
                .predictor(FixedPredictor(MovingAverage::new(2)))
                .feedback(PanickingFeedback)
                .build()
        }
    };
    // The store path needs a negotiated day to complete.
    let twin = build_cell(&faulty, &weather, false, false).run();
    assert!(twin.negotiations() > 0, "the faulty cell must negotiate");

    for (claim_path, expected) in [
        (true, "predictor policy exploded"),
        (false, "feedback policy exploded"),
    ] {
        let lone = Arc::new(faulty_cell(claim_path));
        for run in 0..2 {
            let lone = Arc::clone(&lone);
            let message = panic_message(move || {
                lone.run();
            });
            assert_eq!(message, expected, "lone campaign, run {run}");
        }
        for threads in [1usize, 2, 4] {
            let fleet = Arc::new(
                FleetRunner::new()
                    .cell("healthy", build_cell(&healthy, &weather, true, false))
                    .cell("faulty", faulty_cell(claim_path))
                    .threads(NonZeroUsize::new(threads).expect("threads ≥ 1")),
            );
            for run in 0..2 {
                let fleet = Arc::clone(&fleet);
                let message = panic_message(move || {
                    fleet.run();
                });
                assert_eq!(message, expected, "threads {threads}, run {run}");
            }
        }
    }
}
