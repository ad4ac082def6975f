//! Parallel scenario sweeps: fan a grid of negotiations across cores.
//!
//! The β-sensitivity and scaling experiments run hundreds of
//! *independent* negotiations. Each [`Scenario`] is a pure value — its
//! population is fixed by a seed at build time and
//! [`Scenario::run`] is deterministic — so a sweep parallelizes
//! perfectly: [`ScenarioSweep::run`] fans the grid across a
//! [`WorkerPool`] (borrowing the scenarios, results in input order)
//! and is **byte-identical** to [`ScenarioSweep::run_sequential`].
//!
//! The fan-out machinery itself lives in [`WorkerPool`], a reusable
//! index-addressed task runner shared by the sweep and the
//! [`fleet`](crate::fleet) campaign scheduler (which also runs every
//! lone campaign, as a one-cell fleet) — one pool type, every parallel
//! surface of the crate. The pool is **persistent**: worker threads
//! spawn once, park on a condition variable between batches, and every
//! [`WorkerPool::run`] call only publishes a batch descriptor — no
//! per-call thread spawn, however many sweeps or seasons a pool runs.
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
use std::sync::OnceLock;

pub use pool::WorkerPool;

/// The persistent worker pool. The lifetime-erased batch hand-off this
/// needs is the only `unsafe` in the crate, so it lives in its own
/// module with the safety argument spelled out in one place.
#[allow(unsafe_code)]
mod pool {
    use std::num::NonZeroUsize;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::thread::JoinHandle;

    /// A worker's per-batch task runner: claims task `i`, returns `true`
    /// if the task panicked (the payload is already recorded).
    type Runner<'a> = Box<dyn FnMut(usize) -> bool + 'a>;

    type PanicPayload = Box<dyn std::any::Any + Send>;

    /// One submitted batch, living in the submitting `run_with` frame.
    ///
    /// Workers reach it through a lifetime-erased raw pointer
    /// ([`Job`]); the submitter guarantees the frame outlives every
    /// access (see the safety argument on [`WorkerPool::run_with`]).
    struct Batch<'a> {
        /// Builds a per-worker runner (each worker gets its own scratch
        /// state; the runner writes results into the batch's slots).
        make: &'a (dyn Fn() -> Runner<'a> + Sync),
        /// Next unclaimed task index.
        next: AtomicUsize,
        /// Total tasks in the batch.
        count: usize,
        /// A panic that escaped *outside* a task (e.g. a panicking
        /// scratch constructor). Task panics land in their result slot
        /// instead, so they resurface in deterministic index order.
        stray_panic: Mutex<Option<PanicPayload>>,
    }

    /// The injector's view of a batch: a lifetime-erased pointer plus
    /// the epoch that tells parked workers it is new work.
    #[derive(Clone, Copy)]
    struct Job {
        batch: *const Batch<'static>,
        epoch: u64,
    }

    // SAFETY: the pointer is only dereferenced by workers while the
    // submitting frame keeps the batch alive (see `run_with`).
    unsafe impl Send for Job {}

    struct PoolState {
        job: Option<Job>,
        epoch: u64,
        /// Workers currently holding a reference to the published batch.
        attached: usize,
        shutdown: bool,
    }

    struct PoolShared {
        state: Mutex<PoolState>,
        /// Workers park here between batches.
        work_ready: Condvar,
        /// The submitter parks here until every worker detached.
        batch_done: Condvar,
    }

    fn lock(m: &Mutex<PoolState>) -> MutexGuard<'_, PoolState> {
        m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// A reusable fan-out worker pool over **persistent** std threads.
    ///
    /// # Lifecycle
    ///
    /// * **Spawn once** — `threads − 1` worker threads are spawned
    ///   lazily on the first parallel [`WorkerPool::run`] and then kept
    ///   for the pool's whole life (the calling thread is the final
    ///   executor, so `threads` tasks run concurrently).
    /// * **Park** — between batches the workers block on a condition
    ///   variable; an idle pool costs nothing but the parked threads.
    /// * **Respawn on panic** — a worker that dies executing a batch
    ///   (its task panicked, or its scratch constructor did) is
    ///   replaced before the next batch, so one poisoned negotiation
    ///   never shrinks the pool.
    /// * **Join on drop** — dropping the pool wakes and joins every
    ///   worker.
    ///
    /// Two surfaces of the crate submit to it:
    /// [`ScenarioSweep`](super::ScenarioSweep) for a grid of
    /// negotiations, and the fleet scheduler — behind
    /// [`FleetRunner::run`](crate::fleet::FleetRunner::run) and every
    /// lone [`CampaignRunner::run`](crate::campaign::CampaignRunner::run)
    /// — for whole campaigns. Results always come back in task-index
    /// order, independent of scheduling.
    ///
    /// Worker panics are caught per task and the **original payload**
    /// is resurfaced on the calling thread once the batch has drained
    /// (lowest task index wins when several tasks panic), so a
    /// panicking cell reads exactly like a panicking sequential run.
    pub struct WorkerPool {
        threads: NonZeroUsize,
        shared: Arc<PoolShared>,
        workers: Mutex<Vec<JoinHandle<()>>>,
        /// Serializes submissions: one batch in flight per pool. A
        /// submitter finding it busy (concurrent or re-entrant `run`)
        /// falls back to running its batch inline.
        submit: Mutex<()>,
    }

    impl WorkerPool {
        /// A pool with an explicit worker cap.
        pub fn new(threads: NonZeroUsize) -> WorkerPool {
            WorkerPool {
                threads,
                shared: Arc::new(PoolShared {
                    state: Mutex::new(PoolState {
                        job: None,
                        epoch: 0,
                        attached: 0,
                        shutdown: false,
                    }),
                    work_ready: Condvar::new(),
                    batch_done: Condvar::new(),
                }),
                workers: Mutex::new(Vec::new()),
                submit: Mutex::new(()),
            }
        }

        /// A pool sized to the machine (`std::thread::available_parallelism`,
        /// falling back to one worker where that is unavailable).
        pub fn with_available_parallelism() -> WorkerPool {
            WorkerPool::new(
                std::thread::available_parallelism()
                    .unwrap_or(NonZeroUsize::new(1).expect("1 > 0")),
            )
        }

        /// A pool with the given cap, or machine parallelism when `None` —
        /// the convention every `threads(...)` builder knob in this crate
        /// follows.
        pub fn sized(threads: Option<NonZeroUsize>) -> WorkerPool {
            threads.map_or_else(WorkerPool::with_available_parallelism, WorkerPool::new)
        }

        /// The worker cap.
        pub fn threads(&self) -> NonZeroUsize {
            self.threads
        }

        /// Runs `count` index-addressed tasks across the pool's workers
        /// and returns their results in index order.
        ///
        /// Workers claim indices from a shared atomic counter, so the
        /// *schedule* is nondeterministic but the returned `Vec` never
        /// is: element `i` is `task(i)`. With one worker (or one task)
        /// the tasks run directly on the calling thread.
        ///
        /// # Panics
        ///
        /// If a task panics, the panic is caught, the remaining tasks
        /// still run, and the original payload is re-raised on the
        /// calling thread after the batch has drained.
        pub fn run<T, F>(&self, count: usize, task: F) -> Vec<T>
        where
            T: Send,
            F: Fn(usize) -> T + Sync,
        {
            self.run_with(count, || (), |(), i| task(i))
        }

        /// [`WorkerPool::run`] with **per-worker scratch state**: every
        /// executor (each worker thread plus the calling thread) builds
        /// one `S` with `init` and threads it through all the tasks it
        /// claims — how the sweep and the fleet scheduler reuse one
        /// [`NegotiationScratch`](crate::sync_driver::NegotiationScratch)
        /// per worker instead of allocating fresh engines per task.
        ///
        /// A task that panics poisons its executor's scratch; the
        /// executor abandons it (a worker thread dies and is respawned
        /// before the next batch; the calling thread builds a fresh
        /// scratch), so later tasks never see a half-mutated `S`.
        pub fn run_with<S, T, I, F>(&self, count: usize, init: I, task: F) -> Vec<T>
        where
            T: Send,
            I: Fn() -> S + Sync,
            F: Fn(&mut S, usize) -> T + Sync,
        {
            let inline = |init: &I, task: &F| {
                let mut scratch = init();
                (0..count).map(|i| task(&mut scratch, i)).collect()
            };
            if self.threads.get() == 1 || count <= 1 {
                return inline(&init, &task);
            }
            // One batch in flight per pool: a concurrent (or re-entrant)
            // submitter runs inline rather than queueing or deadlocking.
            // A *poisoned* lock is different — a previous batch's panic
            // resurfaced through the guard; recover it, or the pool
            // would silently degrade to inline execution forever.
            let _submission = match self.submit.try_lock() {
                Ok(guard) => guard,
                Err(std::sync::TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
                Err(std::sync::TryLockError::WouldBlock) => return inline(&init, &task),
            };
            self.ensure_workers();

            let mut slots: Vec<Option<std::thread::Result<T>>> = (0..count).map(|_| None).collect();
            let slots_ptr = SlotTable(slots.as_mut_ptr());
            let make = || {
                let mut scratch = init();
                let task = &task;
                let runner: Runner<'_> = Box::new(move |i: usize| {
                    let result = catch_unwind(AssertUnwindSafe(|| task(&mut scratch, i)));
                    let panicked = result.is_err();
                    // SAFETY: `i` came out of the batch's `fetch_add`
                    // claim counter, so no two executors ever write the
                    // same slot, and the submitting frame keeps `slots`
                    // alive until every executor is done (teardown
                    // below waits for `attached == 0`).
                    unsafe { slots_ptr.write(i, result) };
                    panicked
                });
                runner
            };
            let batch = Batch {
                make: &make,
                next: AtomicUsize::new(0),
                count,
                stray_panic: Mutex::new(None),
            };
            // Publish. The lifetime erasure is sound because this frame
            // does not return (and does not touch `slots` again) until
            // the teardown below has (a) taken the job back so no new
            // worker can attach and (b) observed `attached == 0` under
            // the state lock, which orders every worker's slot writes
            // before our reads.
            {
                let mut state = lock(&self.shared.state);
                state.epoch += 1;
                state.job = Some(Job {
                    batch: std::ptr::from_ref(&batch).cast::<Batch<'static>>(),
                    epoch: state.epoch,
                });
                self.shared.work_ready.notify_all();
            }
            // The calling thread is an executor too: claim tasks until
            // the queue drains. A panicking scratch constructor must
            // still go through teardown, so catch and re-raise after.
            let caller = catch_unwind(AssertUnwindSafe(|| {
                let mut runner = make();
                loop {
                    let i = batch.next.fetch_add(1, Ordering::Relaxed);
                    if i >= batch.count {
                        break;
                    }
                    if runner(i) {
                        // The task panicked into this scratch; start a
                        // fresh one for the remaining tasks.
                        runner = make();
                    }
                }
            }));
            // Teardown: retract the job, then wait for every attached
            // worker to finish its claimed tasks and let go of `batch`.
            {
                let mut state = lock(&self.shared.state);
                state.job = None;
                while state.attached > 0 {
                    state = self
                        .shared
                        .batch_done
                        .wait(state)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            }
            if let Err(payload) = caller {
                std::panic::resume_unwind(payload);
            }
            // Collect in index order; the lowest-index task panic wins,
            // ahead of any stray (non-task) worker panic.
            let mut out = Vec::with_capacity(count);
            let mut panic: Option<PanicPayload> = None;
            for slot in slots {
                match slot.expect("every task was claimed and ran exactly once") {
                    Ok(value) => out.push(value),
                    Err(payload) => {
                        panic.get_or_insert(payload);
                    }
                }
            }
            let panic = panic.or_else(|| {
                batch
                    .stray_panic
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .take()
            });
            if let Some(payload) = panic {
                std::panic::resume_unwind(payload);
            }
            assert_eq!(out.len(), count, "every task ran exactly once");
            out
        }

        /// Tops the worker set back up to `threads − 1` live threads,
        /// replacing any that died on a previous batch's panic.
        fn ensure_workers(&self) {
            let mut workers = self
                .workers
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            workers.retain(|handle| !handle.is_finished());
            while workers.len() + 1 < self.threads.get() {
                let shared = Arc::clone(&self.shared);
                workers.push(
                    std::thread::Builder::new()
                        .name("loadbal-pool-worker".into())
                        .spawn(move || worker_loop(&shared))
                        .expect("worker thread spawn"),
                );
            }
        }
    }

    /// The parked-worker loop: wait for an unseen batch, attach, drain,
    /// detach — and die (to be respawned) if a task panicked, since the
    /// per-worker scratch state is suspect afterwards.
    fn worker_loop(shared: &PoolShared) {
        let mut seen_epoch = 0u64;
        loop {
            let job = {
                let mut state = lock(&shared.state);
                loop {
                    if state.shutdown {
                        return;
                    }
                    match state.job {
                        Some(job) if job.epoch != seen_epoch => {
                            state.attached += 1;
                            break job;
                        }
                        _ => {
                            state = shared
                                .work_ready
                                .wait(state)
                                .unwrap_or_else(|poisoned| poisoned.into_inner());
                        }
                    }
                }
            };
            seen_epoch = job.epoch;
            // SAFETY: attaching happened under the state lock while the
            // job was still published, and the submitter cannot pass
            // its teardown (observe `attached == 0`) until this worker
            // detaches below — so the batch (and everything it borrows)
            // is alive for the whole region between attach and detach.
            let batch = unsafe { &*job.batch };
            let died = catch_unwind(AssertUnwindSafe(|| {
                let mut runner = (batch.make)();
                loop {
                    let i = batch.next.fetch_add(1, Ordering::Relaxed);
                    if i >= batch.count {
                        return false;
                    }
                    if runner(i) {
                        // Task panic: payload already in its slot. This
                        // worker's scratch is suspect — stop claiming
                        // and retire; the caller drains the rest.
                        return true;
                    }
                }
            }))
            .unwrap_or_else(|payload| {
                // A panic outside any task (scratch construction).
                batch
                    .stray_panic
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .get_or_insert(payload);
                true
            });
            {
                let mut state = lock(&shared.state);
                state.attached -= 1;
                if state.attached == 0 {
                    shared.batch_done.notify_all();
                }
            }
            if died {
                return; // respawned by `ensure_workers` before the next batch
            }
        }
    }

    /// A `Send + Sync` wrapper for the result-slot base pointer; safety
    /// rests on the disjoint-index claim protocol (see `run_with`).
    /// Writes go through [`SlotTable::write`] so closures capture the
    /// whole wrapper (with its `Sync` bound), never the raw pointer
    /// field alone.
    struct SlotTable<T>(*mut Option<std::thread::Result<T>>);

    impl<T> SlotTable<T> {
        /// Stores one executor's result.
        ///
        /// # Safety
        ///
        /// `i` must be a uniquely claimed in-bounds task index and the
        /// slot buffer must still be alive (the submitting frame does
        /// not return before every executor is done).
        unsafe fn write(&self, i: usize, value: std::thread::Result<T>) {
            *self.0.add(i) = Some(value);
        }
    }

    // Not derived: `derive(Clone, Copy)` would demand `T: Clone/Copy`,
    // but the table is a pointer — copying it never copies a `T`.
    #[allow(clippy::expl_impl_clone_on_copy)]
    impl<T> Clone for SlotTable<T> {
        fn clone(&self) -> Self {
            *self
        }
    }
    impl<T> Copy for SlotTable<T> {}

    // SAFETY: the table is a raw pointer into the submitting frame's
    // slot buffer; sending it to a worker is sound because every
    // executor writes only the slots whose indices it uniquely
    // claimed, and the submitter does not read (or free) the buffer
    // until all executors are done.
    unsafe impl<T: Send> Send for SlotTable<T> {}
    // SAFETY: sharing the table between executors is sound for the
    // same reason — disjoint claimed indices mean no two threads ever
    // touch the same slot, so `&SlotTable` hands out no aliased `&mut`.
    unsafe impl<T: Send> Sync for SlotTable<T> {}

    impl Drop for WorkerPool {
        fn drop(&mut self) {
            {
                let mut state = lock(&self.shared.state);
                state.shutdown = true;
                self.shared.work_ready.notify_all();
            }
            for handle in self
                .workers
                .get_mut()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .drain(..)
            {
                let _ = handle.join();
            }
        }
    }

    impl std::fmt::Debug for WorkerPool {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            let live = self
                .workers
                .lock()
                .map(|w| w.iter().filter(|h| !h.is_finished()).count())
                .unwrap_or(0);
            f.debug_struct("WorkerPool")
                .field("threads", &self.threads)
                .field("live_workers", &live)
                .finish()
        }
    }

    impl Default for WorkerPool {
        /// A machine-sized pool.
        fn default() -> Self {
            WorkerPool::with_available_parallelism()
        }
    }
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
#[derive(Debug, Default)]
pub struct ScenarioSweep {
    points: Vec<SweepPoint>,
    threads: Option<NonZeroUsize>,
    /// The persistent pool, built on first use so a sweep that only
    /// ever runs sequentially never spawns a thread.
    pool: OnceLock<WorkerPool>,
}

impl Clone for ScenarioSweep {
    /// Clones the grid configuration; the clone gets its own (lazily
    /// spawned) worker pool.
    fn clone(&self) -> ScenarioSweep {
        ScenarioSweep {
            points: self.points.clone(),
            threads: self.threads,
            pool: OnceLock::new(),
        }
    }
}

impl ScenarioSweep {
    /// An empty sweep.
    pub fn new() -> ScenarioSweep {
        ScenarioSweep {
            points: Vec::new(),
            threads: None,
            pool: OnceLock::new(),
        }
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
    /// parallelism). Call before the first `run`; the pool is built
    /// once.
    pub fn threads(mut self, threads: NonZeroUsize) -> ScenarioSweep {
        self.threads = Some(threads);
        self.pool = OnceLock::new();
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

    /// Runs every cell in parallel over the sweep's [`WorkerPool`];
    /// outcomes come back in grid order and are byte-identical to
    /// [`ScenarioSweep::run_sequential`].
    ///
    /// The pool's workers borrow the grid directly — no scenario is
    /// cloned, however large the sweep — and each worker reuses one
    /// [`NegotiationScratch`] across every cell it claims. A panicking
    /// cell resurfaces its original panic payload here (see
    /// [`WorkerPool::run`]), exactly as a sequential run would.
    pub fn run(&self) -> Vec<SweepOutcome> {
        self.pool()
            .run_with(self.points.len(), NegotiationScratch::new, |scratch, i| {
                let point = &self.points[i];
                SweepOutcome {
                    label: point.label.clone(),
                    report: scratch.run(&point.scenario, ReportTier::FullTrace),
                }
            })
    }

    /// The persistent pool the sweep fans out on: the configured cap,
    /// or machine parallelism. Built (threads spawned) on first use and
    /// reused by every subsequent [`ScenarioSweep::run`].
    fn pool(&self) -> &WorkerPool {
        self.pool.get_or_init(|| WorkerPool::sized(self.threads))
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
    use std::panic::AssertUnwindSafe;

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

    #[test]
    fn pool_returns_results_in_index_order() {
        let pool = WorkerPool::new(NonZeroUsize::new(4).expect("4 > 0"));
        let squares = pool.run(100, |i| i * i);
        assert_eq!(squares, (0..100).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(pool.run(0, |i| i), Vec::<usize>::new());
        // One task runs on the calling thread.
        assert_eq!(pool.run(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn pool_is_reused_across_batches() {
        // The whole point of the persistent rebuild: many batches, one
        // set of parked workers, results always in index order.
        let pool = WorkerPool::new(NonZeroUsize::new(4).expect("4 > 0"));
        for batch in 0..50usize {
            let out = pool.run(batch % 7 + 1, |i| i * batch);
            assert_eq!(
                out,
                (0..batch % 7 + 1).map(|i| i * batch).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn run_with_gives_each_executor_its_own_scratch() {
        let pool = WorkerPool::new(NonZeroUsize::new(3).expect("3 > 0"));
        // Scratch = per-executor task counter; every task sees a value
        // at least 1 (its own increment) and results stay index-exact.
        let out = pool.run_with(
            40,
            || 0usize,
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
    }

    #[test]
    fn pool_resurfaces_the_original_panic_payload() {
        let pool = WorkerPool::new(NonZeroUsize::new(3).expect("3 > 0"));
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |i| {
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
    fn pool_reports_the_lowest_index_panic_of_many() {
        let pool = WorkerPool::new(NonZeroUsize::new(4).expect("4 > 0"));
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(16, |i| {
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
    fn pool_survives_a_panicked_batch() {
        // The respawn-on-panic contract: a batch whose every task
        // panics kills any worker that claimed one — yet the same pool
        // value must run the next batch at full strength, with dead
        // workers replaced and results still index-exact. No task may
        // ever be dropped silently: the panic is raised, not swallowed.
        let pool = WorkerPool::new(NonZeroUsize::new(4).expect("4 > 0"));
        for round in 0..3 {
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(12, |i| -> usize { panic!("boom {round}/{i}") })
            }))
            .expect_err("an all-panic batch must raise");
            let message = caught
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert_eq!(
                message,
                &format!("boom {round}/0"),
                "lowest index first, deterministically"
            );
            // The pool is immediately usable again.
            let ok = pool.run(25, |i| i + round);
            assert_eq!(ok, (0..25).map(|i| i + round).collect::<Vec<_>>());
        }
        // And still *parallel*: the resurfaced panics must not have
        // poisoned the submission path into a permanent inline
        // fallback — a post-panic batch is executed by more than one
        // thread.
        let ids = pool.run(32, |i| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            (i, std::thread::current().id())
        });
        let distinct: std::collections::HashSet<_> = ids.iter().map(|(_, id)| *id).collect();
        assert!(
            distinct.len() > 1,
            "post-panic batches must still fan out across workers"
        );
    }

    #[test]
    fn scratch_constructor_panics_resurface_and_spare_the_pool() {
        let pool = WorkerPool::new(NonZeroUsize::new(2).expect("2 > 0"));
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_with(4, || -> usize { panic!("no scratch for you") }, |_, i| i)
        }))
        .expect_err("the stray panic must resurface");
        assert_eq!(
            caught.downcast_ref::<&str>(),
            Some(&"no scratch for you"),
            "original payload"
        );
        assert_eq!(pool.run(3, |i| i), vec![0, 1, 2], "pool still works");
    }

    #[test]
    fn concurrent_runs_on_one_pool_fall_back_inline() {
        // Two threads submitting to the same pool must both complete
        // correctly (the second submission runs inline).
        let pool = WorkerPool::new(NonZeroUsize::new(3).expect("3 > 0"));
        std::thread::scope(|scope| {
            let a = scope.spawn(|| pool.run(200, |i| i));
            let b = scope.spawn(|| pool.run(200, |i| i * 2));
            assert_eq!(a.join().expect("a"), (0..200).collect::<Vec<_>>());
            assert_eq!(
                b.join().expect("b"),
                (0..200).map(|i| i * 2).collect::<Vec<_>>()
            );
        });
    }

    #[test]
    fn sweep_with_a_panicking_cell_resurfaces_the_payload() {
        // A deliberately panicking cell: a hand-built scenario with no
        // customers trips the engine's own validation inside a worker.
        // The sweep must die with that original message, not a
        // misleading pool-internal one.
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
            "must be the engine's own message, not a pool-internal one: {message}"
        );
        // And the sweep (same pool) still runs its surviving cells.
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
