//! Parallel scenario sweeps: fan a grid of negotiations across cores.
//!
//! The β-sensitivity and scaling experiments run hundreds of
//! *independent* negotiations. Each [`Scenario`] is a pure value — its
//! population is fixed by a seed at build time and
//! [`Scenario::run`] is deterministic — so a sweep parallelizes
//! perfectly: [`ScenarioSweep::run`] fans the grid out with
//! [`fan_out`] (borrowing the scenarios, results in input order) and is
//! **byte-identical** to [`ScenarioSweep::run_sequential`].
//!
//! [`fan_out`] is the crate's one parallel executor, an
//! index-addressed task runner shared by the sweep and the
//! [`fleet`](crate::fleet) campaign scheduler (which also runs every
//! lone campaign, as a one-cell fleet). It runs on scoped threads that
//! live exactly as long as one call: every caller submits one batch
//! per run, so there is nothing for parked threads to amortise.
//!
//! # Example
//!
//! ```
//! use loadbal_core::sweep::ScenarioSweep;
//! use loadbal_core::session::ScenarioBuilder;
//!
//! let sweep = ScenarioSweep::new()
//!     .point("n=10", ScenarioBuilder::random(10, 0.35, 1).build())
//!     .point("n=20", ScenarioBuilder::random(20, 0.35, 2).build());
//! let outcomes = sweep.run();
//! assert_eq!(outcomes.len(), 2);
//! assert!(outcomes.iter().all(|o| o.report.converged()));
//! ```

use crate::session::{NegotiationReport, ReportTier, Scenario};
use crate::sync_driver::NegotiationScratch;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `count` index-addressed tasks on up to `threads` executors and
/// returns their results in index order: element `i` is `task(_, i)`.
///
/// The calling thread is one executor and `min(threads, count) − 1`
/// scoped threads are the rest; they live only for this call. Every
/// executor claims indices from one shared counter, so the *schedule*
/// is nondeterministic but the returned `Vec` never is.
///
/// Each executor builds one `S` with `init` and threads it through all
/// the tasks it claims — how the sweep and the fleet scheduler reuse
/// one [`NegotiationScratch`] per executor instead of allocating fresh
/// engines per task. A task that panics may leave its `S`
/// half-mutated, so its executor builds a fresh one before claiming
/// again.
///
/// # Panics
///
/// Task panics are caught and every other task still runs. Once every
/// executor has stopped, the panic of the lowest-index panicking task
/// resurfaces on the calling thread with its original payload, so a
/// panicking task reads exactly like a panicking sequential run. A
/// panic in `init` resurfaces the same way when no task panicked.
pub fn fan_out<S, T, I, F>(threads: NonZeroUsize, count: usize, init: I, task: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    // The claim counter publishes no data: results travel back through
    // the joins, which order every executor's writes before our reads.
    let next = AtomicUsize::new(0);
    let executor = || execute(&next, count, &init, &task);
    let helpers = threads.get().min(count).saturating_sub(1);
    let executed: Vec<Executed<T>> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (0..helpers).map(|_| scope.spawn(executor)).collect();
        std::iter::once(executor())
            .chain(helpers.into_iter().map(|helper| {
                helper
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload))
            }))
            .collect()
    });

    // Results back in index order; the lowest-index task panic wins,
    // ahead of any `init` panic.
    let mut slots: Vec<Option<std::thread::Result<T>>> = (0..count).map(|_| None).collect();
    let mut init_panic = None;
    for done in executed {
        for (i, result) in done.results {
            slots[i] = Some(result);
        }
        init_panic = init_panic.or(done.init_panic);
    }
    let mut out = Vec::with_capacity(count);
    let mut task_panic = None;
    for result in slots.into_iter().flatten() {
        match result {
            Ok(value) => out.push(value),
            Err(payload) => {
                task_panic.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = task_panic.or(init_panic) {
        resume_unwind(payload);
    }
    assert_eq!(out.len(), count, "every task ran exactly once");
    out
}

/// What one executor of [`fan_out`] did: its claimed tasks' results
/// (panics caught) and the panic that stopped it building an `S`.
struct Executed<T> {
    results: Vec<(usize, std::thread::Result<T>)>,
    init_panic: Option<Box<dyn std::any::Any + Send>>,
}

/// One executor's claim loop: build an `S`, run claimed tasks through
/// it until the counter passes `count`, and start over with a fresh `S`
/// after a task panics.
fn execute<S, T, I, F>(next: &AtomicUsize, count: usize, init: &I, task: &F) -> Executed<T>
where
    I: Fn() -> S,
    F: Fn(&mut S, usize) -> T,
{
    let mut results = Vec::new();
    loop {
        let mut scratch = match catch_unwind(AssertUnwindSafe(init)) {
            Ok(scratch) => scratch,
            Err(payload) => {
                return Executed {
                    results,
                    init_panic: Some(payload),
                }
            }
        };
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                return Executed {
                    results,
                    init_panic: None,
                };
            }
            let result = catch_unwind(AssertUnwindSafe(|| task(&mut scratch, i)));
            let panicked = result.is_err();
            results.push((i, result));
            if panicked {
                break;
            }
        }
    }
}

/// The machine's available parallelism, or one thread where that is
/// unavailable — the default of every `threads` knob in this crate.
pub(crate) fn machine_threads() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

/// One cell of the sweep grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Human-readable cell label (policy, size, seed, ...).
    pub label: String,
    /// The scenario to negotiate, with its configured method.
    pub scenario: Scenario,
}

/// One finished cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// The cell's label.
    pub label: String,
    /// The negotiation report.
    pub report: NegotiationReport,
}

/// A grid of independent negotiations with a parallel runner.
#[derive(Debug, Clone, Default)]
pub struct ScenarioSweep {
    points: Vec<SweepPoint>,
    threads: Option<NonZeroUsize>,
}

impl ScenarioSweep {
    /// An empty sweep.
    pub fn new() -> ScenarioSweep {
        ScenarioSweep::default()
    }

    /// Adds a cell running the scenario's configured method.
    pub fn point(mut self, label: impl Into<String>, scenario: Scenario) -> ScenarioSweep {
        self.points.push(SweepPoint {
            label: label.into(),
            scenario,
        });
        self
    }

    /// Adds one seeded random-population cell per seed — the common
    /// "same configuration, many populations" experiment axis. The
    /// per-cell scenario (and therefore the whole sweep) is a pure
    /// function of `(customers, overuse, seed)`.
    pub fn seeded_grid(
        mut self,
        label_prefix: &str,
        customers: usize,
        overuse: f64,
        seeds: impl IntoIterator<Item = u64>,
        configure: impl Fn(crate::session::ScenarioBuilder) -> crate::session::ScenarioBuilder,
    ) -> ScenarioSweep {
        for seed in seeds {
            let builder = crate::session::ScenarioBuilder::random(customers, overuse, seed);
            self = self.point(
                format!("{label_prefix}/seed{seed}"),
                configure(builder).build(),
            );
        }
        self
    }

    /// Caps the worker-thread count (defaults to the machine's available
    /// parallelism).
    pub fn threads(mut self, threads: NonZeroUsize) -> ScenarioSweep {
        self.threads = Some(threads);
        self
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the sweep has no cells.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The configured cells.
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// Consumes the sweep, handing back its cells (grid order) — lets a
    /// caller that built scenarios into the sweep recover them after
    /// running without having kept clones.
    pub fn into_points(self) -> Vec<SweepPoint> {
        self.points
    }

    /// Runs every cell in parallel with [`fan_out`] on the configured
    /// thread cap (or machine parallelism); outcomes come back in grid
    /// order and are byte-identical to [`ScenarioSweep::run_sequential`].
    ///
    /// The executors borrow the grid directly — no scenario is cloned,
    /// however large the sweep — and each reuses one
    /// [`NegotiationScratch`] across every cell it claims. A panicking
    /// cell resurfaces its original panic payload here (see
    /// [`fan_out`]), exactly as a sequential run would.
    pub fn run(&self) -> Vec<SweepOutcome> {
        let threads = self.threads.unwrap_or_else(machine_threads);
        fan_out(
            threads,
            self.points.len(),
            NegotiationScratch::new,
            |scratch, i| {
                let point = &self.points[i];
                SweepOutcome {
                    label: point.label.clone(),
                    report: scratch.run(&point.scenario, ReportTier::FullTrace),
                }
            },
        )
    }

    /// Runs every cell on the calling thread (the reference order for
    /// equivalence checks and debugging), threading one
    /// [`NegotiationScratch`] through the whole grid.
    pub fn run_sequential(&self) -> Vec<SweepOutcome> {
        let mut scratch = NegotiationScratch::new();
        self.points
            .iter()
            .map(|p| SweepOutcome {
                label: p.label.clone(),
                report: scratch.run(&p.scenario, ReportTier::FullTrace),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::AnnouncementMethod;
    use crate::session::ScenarioBuilder;

    #[test]
    fn parallel_equals_sequential() {
        let sweep = ScenarioSweep::new().seeded_grid("rt", 30, 0.35, 0..12, |b| b);
        assert_eq!(sweep.len(), 12);
        let parallel = sweep.run();
        let sequential = sweep.run_sequential();
        assert_eq!(
            parallel, sequential,
            "parallel sweep must be byte-identical"
        );
    }

    #[test]
    fn labels_and_order_are_stable() {
        let sweep = ScenarioSweep::new()
            .point("a", ScenarioBuilder::random(10, 0.3, 1).build())
            .point(
                "b",
                ScenarioBuilder::random(10, 0.3, 2)
                    .method(AnnouncementMethod::Offer)
                    .build(),
            );
        let outcomes = sweep.threads(NonZeroUsize::new(2).expect("2 > 0")).run();
        assert_eq!(outcomes[0].label, "a");
        assert_eq!(outcomes[1].label, "b");
        assert_eq!(outcomes[1].report.method(), AnnouncementMethod::Offer);
        assert_eq!(outcomes[1].report.rounds().len(), 1);
    }

    /// `fan_out` without per-executor state.
    fn run<T: Send>(threads: usize, count: usize, task: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let threads = NonZeroUsize::new(threads).expect("threads > 0");
        fan_out(threads, count, || (), |(), i| task(i))
    }

    #[test]
    fn fan_out_returns_results_in_index_order() {
        let squares = run(4, 100, |i| i * i);
        assert_eq!(squares, (0..100).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(run(4, 0, |i| i), Vec::<usize>::new());
        // One task runs on the calling thread.
        assert_eq!(run(4, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn fan_out_gives_each_executor_its_own_scratch() {
        // Scratch = per-executor task counter; every task sees a value
        // at least 1 (its own increment) and results stay index-exact.
        // Without panics, each of the 3 executors builds one scratch.
        let inits = AtomicUsize::new(0);
        let out = fan_out(
            NonZeroUsize::new(3).expect("3 > 0"),
            40,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |calls, i| {
                *calls += 1;
                (i, *calls >= 1)
            },
        );
        assert_eq!(out.len(), 40);
        for (idx, (i, ok)) in out.iter().enumerate() {
            assert_eq!(*i, idx);
            assert!(ok);
        }
        assert!(inits.into_inner() <= 3, "one scratch per executor");
    }

    #[test]
    fn fan_out_resurfaces_the_original_panic_payload() {
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run(3, 8, |i| {
                if i == 5 {
                    panic!("cell 5 exploded");
                }
                i
            })
        }))
        .expect_err("the worker panic must resurface");
        let message = caught
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| caught.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("payload is the original panic message");
        assert_eq!(message, "cell 5 exploded");
    }

    #[test]
    fn fan_out_reports_the_lowest_index_panic_of_many() {
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run(4, 16, |i| {
                if i % 2 == 1 {
                    panic!("odd cell {i}");
                }
                i
            })
        }))
        .expect_err("panics must resurface");
        let message = caught
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert_eq!(message, "odd cell 1");
    }

    #[test]
    fn every_task_runs_in_an_all_panic_batch() {
        // An executor whose task panicked builds a fresh scratch and
        // keeps claiming, so no task is ever dropped silently: all of
        // them run, and the panic is raised, not swallowed.
        let ran = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run(4, 12, |i| -> usize {
                ran.fetch_add(1, Ordering::Relaxed);
                panic!("boom {i}")
            })
        }))
        .expect_err("an all-panic batch must raise");
        let message = caught
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert_eq!(message, "boom 0", "lowest index first, deterministically");
        assert_eq!(ran.into_inner(), 12, "every task ran");
    }

    #[test]
    fn panicking_init_resurfaces_its_payload() {
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            fan_out(
                NonZeroUsize::new(2).expect("2 > 0"),
                4,
                || -> usize { panic!("no scratch for you") },
                |_, i| i,
            )
        }))
        .expect_err("the init panic must resurface");
        assert_eq!(
            caught.downcast_ref::<&str>(),
            Some(&"no scratch for you"),
            "original payload"
        );
        assert_eq!(run(2, 3, |i| i), vec![0, 1, 2], "later runs unaffected");
    }

    #[test]
    fn sweep_with_a_panicking_cell_resurfaces_the_payload() {
        // A deliberately panicking cell: a hand-built scenario with no
        // customers trips the engine's own validation inside a worker.
        // The sweep must die with that original message, not a
        // misleading executor-internal one.
        let good = ScenarioBuilder::random(10, 0.3, 1).build();
        let mut empty = good.clone();
        empty.customers.clear();
        let sweep = ScenarioSweep::new()
            .point("ok", good)
            .point("boom", empty)
            .threads(NonZeroUsize::new(2).expect("2 > 0"));
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| sweep.run()))
            .expect_err("the panicking cell must resurface");
        let message = caught
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| caught.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("original payload");
        assert!(
            message.contains("settling"),
            "must be the engine's own message, not an executor-internal one: {message}"
        );
        // And a sweep of the surviving cell still runs.
        let survivors = ScenarioSweep::new()
            .point("ok", ScenarioBuilder::random(10, 0.3, 1).build())
            .threads(NonZeroUsize::new(2).expect("2 > 0"));
        assert_eq!(survivors.run().len(), 1);
    }

    #[test]
    fn methods_can_vary_per_cell() {
        let scenario = ScenarioBuilder::random(15, 0.35, 3).build();
        let mut sweep = ScenarioSweep::new();
        for method in AnnouncementMethod::all() {
            let cell = Scenario {
                method,
                ..scenario.clone()
            };
            sweep = sweep.point(method.to_string(), cell);
        }
        let outcomes = sweep.run();
        for ((o, p), m) in outcomes
            .iter()
            .zip(sweep.points())
            .zip(AnnouncementMethod::all())
        {
            assert_eq!(o.report.method(), m);
            assert_eq!(o.report, p.scenario.run(), "sweep must match a direct run");
        }
    }
}
