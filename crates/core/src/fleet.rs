//! Fleet execution: many campaigns, one set of workers.
//!
//! A season-long study is not one campaign but many — one per grid
//! cell, feeder or household cohort — and while the *days* inside a
//! campaign are sequential (closed-loop feedback makes day *d* depend
//! on day *d − 1*), the campaigns themselves are embarrassingly
//! parallel. Running them back to back wastes cores whenever one
//! campaign's day carries fewer peaks than the machine has threads;
//! running each on its own threads oversubscribes the machine N-fold.
//!
//! [`FleetRunner`] does neither: it drives every campaign through the
//! [`CampaignProgress`] stepping API and schedules *individual peak
//! negotiations* from all campaigns onto **one** set of workers, fanned
//! out with [`fan_out`] for the length of the run. While campaign A is
//! between days (its feedback bookkeeping is sequential), the workers
//! drain campaign B's peaks — cores never idle as long as any cell
//! anywhere has negotiable work. Per-cell startup runs on the workers
//! too: the first worker to reach a cell calls
//! [`CampaignRunner::progress`], which synthesises the cell's
//! whole-horizon demand (deferred out of
//! [`CampaignBuilder::build`](crate::campaign::CampaignBuilder::build))
//! and chooses its predictor, so a city's cells synthesise in parallel
//! rather than serially before the workers start. The echo of the
//! paper's DESIRE lineage is deliberate: many independent agent
//! societies, one execution substrate.
//!
//! This is the crate's only campaign scheduler: a lone
//! [`CampaignRunner::run`] is a one-cell fleet at machine parallelism.
//! The fleet adds scheduling and nothing else —
//! each cell's report tier and execution mode are whatever its
//! [`CampaignBuilder`](crate::campaign::CampaignBuilder) chose, and the
//! thread count is [`FleetRunner::threads`].
//!
//! Scheduling is nondeterministic; results never are. Every
//! negotiation is a pure function of its (cell, day, peak) coordinate,
//! and each cell's feedback is applied in strict day order from the
//! stored results, so [`FleetRunner::run`] is **byte-identical** to
//! [`FleetRunner::run_sequential`] for any thread count and any cell
//! mix (pinned by proptests in `tests/fleet_properties.rs`).
//!
//! # Example
//!
//! ```
//! use loadbal_core::campaign::{CampaignBuilder, ClosedLoop, FixedPredictor};
//! use loadbal_core::fleet::FleetRunner;
//! use powergrid::calendar::Horizon;
//! use powergrid::population::PopulationBuilder;
//! use powergrid::prediction::MovingAverage;
//! use powergrid::weather::{Season, WeatherModel};
//!
//! // Two grid cells over one shared population model.
//! let north = PopulationBuilder::new().households(40).build(1);
//! let south = PopulationBuilder::new().households(30).build(2);
//! let horizon = Horizon::new(5, 0, Season::Winter);
//! let weather = WeatherModel::winter();
//! let build = |homes| {
//!     CampaignBuilder::new(homes, &weather, &horizon)
//!         .warmup_days(2)
//!         .predictor(FixedPredictor(MovingAverage::new(2)))
//!         .feedback(ClosedLoop)
//!         .build()
//! };
//! let fleet = FleetRunner::new()
//!     .cell("north", build(&north))
//!     .cell("south", build(&south));
//! let report = fleet.run(); // one set of workers across both campaigns
//! assert_eq!(report.len(), 2);
//! assert_eq!(report, fleet.run_sequential()); // byte-identical
//! ```

use crate::campaign::{
    CampaignEconomics, CampaignProgress, CampaignReport, CampaignRunner, DayPlan,
};
use crate::execution::NetworkTraffic;
use crate::session::{NegotiationReport, ReportTier};
use crate::sweep::{fan_out, machine_threads};
use crate::sync_driver::NegotiationScratch;
use powergrid::slab::{PopulationSlab, SlabView};
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Many campaigns over a shared grid, executed on one set of workers.
///
/// Build with [`FleetRunner::new`] and [`FleetRunner::cell`]; run with
/// [`FleetRunner::run`] (shared workers, interleaved) or
/// [`FleetRunner::run_sequential`] (the reference order). Both produce
/// the same [`FleetReport`], byte for byte.
#[derive(Debug, Default)]
pub struct FleetRunner<'a> {
    cells: Vec<(String, CampaignRunner<'a>)>,
    threads: Option<NonZeroUsize>,
}

impl<'a> FleetRunner<'a> {
    /// An empty fleet.
    pub fn new() -> FleetRunner<'a> {
        FleetRunner {
            cells: Vec::new(),
            threads: None,
        }
    }

    /// Adds a grid cell: a label and its configured campaign (typically
    /// several [`CampaignBuilder`](crate::campaign::CampaignBuilder)s
    /// over one shared household/production grid).
    pub fn cell(mut self, label: impl Into<String>, runner: CampaignRunner<'a>) -> Self {
        self.cells.push((label.into(), runner));
        self
    }

    /// Shards one [`PopulationSlab`] across `cells` contiguous,
    /// zero-copy [`SlabView`]s (via
    /// [`PopulationSlab::shards`]) and adds one campaign cell per shard,
    /// labelled `shard-<i>`. `configure` builds each shard's
    /// [`CampaignRunner`] from its population view — typically
    /// `CampaignBuilder::new_ref(shard, ...)` plus whatever policies the
    /// season needs. This is how a city-scale population (~10⁶
    /// households) becomes a fleet without duplicating a single byte of
    /// population data.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is zero (via [`PopulationSlab::shards`]).
    pub fn sharded_slab(
        mut self,
        slab: &'a PopulationSlab,
        cells: usize,
        mut configure: impl FnMut(SlabView<'a>, usize) -> CampaignRunner<'a>,
    ) -> Self {
        for (i, shard) in slab.shards(cells).into_iter().enumerate() {
            let runner = configure(shard, i);
            self = self.cell(format!("shard-{i}"), runner);
        }
        self
    }

    /// Caps the worker count of each run (default: machine
    /// parallelism) — the one thread knob of campaign execution: a
    /// single campaign at a chosen thread count is a one-cell fleet.
    pub fn threads(mut self, threads: NonZeroUsize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if no cells were added.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The configured cells.
    pub fn cells(&self) -> &[(String, CampaignRunner<'a>)] {
        &self.cells
    }

    /// Runs every campaign to completion on one set of workers, which
    /// [`fan_out`] spawns for this run and joins before it returns.
    ///
    /// Workers hunt for negotiable peaks across *all* cells: a claimed
    /// peak is negotiated without holding any lock, a cell whose day
    /// just completed has its feedback applied and its next day
    /// materialised by whichever worker finished it, and a worker that
    /// finds every cell busy steals from the next one over. Cores only
    /// idle when fewer negotiations remain than workers exist.
    ///
    /// Byte-identical to [`FleetRunner::run_sequential`] for any thread
    /// count. A panicking negotiation resurfaces its original payload
    /// here, as with [`fan_out`].
    pub fn run(&self) -> FleetReport {
        self.run_instrumented().0
    }

    /// [`FleetRunner::run`] plus each cell's accumulated
    /// [`NetworkTraffic`] (cell order) — all-zero under
    /// [`ExecutionMode::Sync`](crate::execution::ExecutionMode::Sync).
    /// The report is byte-identical to [`FleetRunner::run`]'s, and the
    /// traffic is deterministic for a given mode (order-independent
    /// sums over per-peak seeded simulations), for any thread count.
    pub fn run_instrumented(&self) -> (FleetReport, Vec<NetworkTraffic>) {
        let runners: Vec<&CampaignRunner<'a>> = self.cells.iter().map(|(_, r)| r).collect();
        let threads = self.threads.unwrap_or_else(machine_threads);
        self.labelled(schedule(threads, &runners))
    }

    /// Runs every campaign back to back on the calling thread — the
    /// reference order for determinism checks.
    pub fn run_sequential(&self) -> FleetReport {
        self.run_sequential_instrumented().0
    }

    /// [`FleetRunner::run_instrumented`] in the sequential reference
    /// order.
    pub fn run_sequential_instrumented(&self) -> (FleetReport, Vec<NetworkTraffic>) {
        self.labelled(
            self.cells
                .iter()
                .map(|(_, runner)| runner.run_sequential_instrumented())
                .collect(),
        )
    }

    /// Labels per-cell results (cell order) into the fleet report.
    fn labelled(
        &self,
        results: Vec<(CampaignReport, NetworkTraffic)>,
    ) -> (FleetReport, Vec<NetworkTraffic>) {
        let (cells, traffic) = results
            .into_iter()
            .zip(&self.cells)
            .map(|((report, traffic), (label, _))| {
                let label = label.clone();
                (CellReport { label, report }, traffic)
            })
            .unzip();
        (FleetReport::assemble(cells), traffic)
    }
}

// ---------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------

/// The crate's one campaign scheduler: runs every runner to completion
/// on `threads` workers and returns each campaign's report and traffic,
/// in runner order. [`FleetRunner::run`] schedules its cells here (and
/// documents how workers share them); [`CampaignRunner::run`] schedules
/// itself as a one-cell fleet.
///
/// One worker runs each campaign's sequential reference loop instead.
/// A panic in any cell's work resurfaces its original payload on the
/// calling thread once every worker has stopped.
pub(crate) fn schedule(
    threads: NonZeroUsize,
    runners: &[&CampaignRunner<'_>],
) -> Vec<(CampaignReport, NetworkTraffic)> {
    // The unit of parallelism is the peak negotiation, not the cell:
    // even a single campaign keeps several workers busy on a
    // multi-peak day, so the worker count is not capped by cells.
    let workers = threads.get();
    if workers <= 1 || runners.is_empty() {
        return runners
            .iter()
            .map(|runner| runner.run_sequential_instrumented())
            .collect();
    }
    let cells: Vec<CellExec<'_>> = runners
        .iter()
        .map(|&runner| CellExec::new(runner))
        .collect();
    let unfinished = AtomicUsize::new(cells.len());
    let abort = AtomicBool::new(false);
    let panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let cursor = AtomicUsize::new(0);
    // `fan_out` drives one scheduler loop per worker, each threading
    // its own NegotiationScratch through every peak it claims; its own
    // panic capture is bypassed because the loop never panics — cell
    // work is caught below so no worker dies with peaks outstanding
    // (which would deadlock the others).
    fan_out(threads, workers, NegotiationScratch::new, |scratch, _| {
        loop {
            if abort.load(Ordering::Relaxed) || unfinished.load(Ordering::Acquire) == 0 {
                break;
            }
            let start = cursor.fetch_add(1, Ordering::Relaxed) % cells.len();
            let mut claimed = false;
            for offset in 0..cells.len() {
                let cell = &cells[(start + offset) % cells.len()];
                match cell.try_step(&unfinished, scratch) {
                    Ok(stepped) => {
                        if stepped {
                            claimed = true;
                            break;
                        }
                    }
                    Err(payload) => {
                        panic
                            .lock()
                            .unwrap_or_else(|poisoned| poisoned.into_inner())
                            .get_or_insert(payload);
                        abort.store(true, Ordering::Relaxed);
                        claimed = true; // skip the yield; exit on re-check
                        break;
                    }
                }
            }
            if !claimed {
                // Every remaining peak is already claimed by another worker;
                // yield until one completes (negotiations are ms-scale, so
                // this is a short wait, not a spin).
                std::thread::yield_now();
            }
        }
    });
    if let Some(payload) = panic.into_inner().unwrap_or_else(|p| p.into_inner()) {
        resume_unwind(payload);
    }
    cells.into_iter().map(CellExec::into_parts).collect()
}

/// A cell's in-flight day: the plan (Arc-shared so workers negotiate
/// its scenarios without holding the cell lock, and without cloning any
/// scenario — ownership is recovered intact once the day completes) and
/// the result slots the workers fill.
struct ActiveDay {
    plan: Arc<DayPlan>,
    results: Vec<Option<NegotiationReport>>,
    /// Next unclaimed scenario index.
    next: usize,
    /// Scenarios still in flight or unclaimed.
    remaining: usize,
}

/// One cell under the fleet scheduler.
struct CellExec<'r> {
    state: Mutex<CellState<'r>>,
}

struct CellState<'r> {
    runner: &'r CampaignRunner<'r>,
    /// Created lazily by the first worker to reach the cell, so
    /// per-cell startup work — the whole horizon's demand synthesis and
    /// capacity sizing (the runner's deferred preparation) plus warmup
    /// predictor selection (a full backtest under
    /// [`BacktestSelected`](crate::campaign::BacktestSelected)) —
    /// parallelises across cells instead of running serially before the
    /// workers start.
    progress: Option<CampaignProgress<'r>>,
    active: Option<ActiveDay>,
    report: Option<(CampaignReport, NetworkTraffic)>,
}

enum Claim {
    /// A scenario to negotiate: (day-plan handle, scenario index).
    Negotiate(Arc<DayPlan>, usize),
    /// The cell advanced (started / day completed / campaign finished)
    /// — work was done, nothing to run outside the lock.
    Advanced,
    /// Nothing claimable here right now.
    Busy,
}

impl<'r> CellExec<'r> {
    fn new(runner: &'r CampaignRunner<'r>) -> CellExec<'r> {
        CellExec {
            state: Mutex::new(CellState {
                runner,
                progress: None,
                active: None,
                report: None,
            }),
        }
    }

    /// Tries to make progress on this cell. Returns `Ok(true)` if any
    /// work was done, `Ok(false)` if the cell is finished, mid-advance
    /// under another worker, or has all peaks claimed; `Err` carries a
    /// panic payload from cell work. The negotiation runs through the
    /// calling worker's own `scratch` (engine reuse, byte-identical).
    fn try_step(
        &self,
        unfinished: &AtomicUsize,
        scratch: &mut NegotiationScratch,
    ) -> Result<bool, Box<dyn std::any::Any + Send>> {
        let claim = {
            // A busy lock means another worker is advancing this cell —
            // steal elsewhere instead of queueing up behind it.
            let Ok(mut state) = self.state.try_lock() else {
                return Ok(false);
            };
            Self::claim(&mut state, unfinished)?
        };
        match claim {
            Claim::Busy => Ok(false),
            Claim::Advanced => Ok(true),
            Claim::Negotiate(plan, index) => {
                let result = catch_unwind(AssertUnwindSafe(|| plan.negotiate(index, scratch)));
                // Release this worker's plan handle *before* storing:
                // every store therefore happens with the storing
                // worker's handle already dropped, so the day-completing
                // store sees the cell's own handle as the last one and
                // can recover the plan intact.
                drop(plan);
                let report = result?;
                let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
                Self::store(&mut state, index, report)?;
                Ok(true)
            }
        }
    }

    /// Claims work under the cell lock: an unclaimed peak if one exists,
    /// otherwise starts the campaign or advances through (possibly
    /// several stable) days until the cell has peaks or finishes.
    fn claim(
        state: &mut CellState<'r>,
        unfinished: &AtomicUsize,
    ) -> Result<Claim, Box<dyn std::any::Any + Send>> {
        if state.report.is_some() {
            return Ok(Claim::Busy); // finished
        }
        if let Some(active) = &mut state.active {
            if active.next < active.plan.scenarios().len() {
                let index = active.next;
                active.next += 1;
                return Ok(Claim::Negotiate(Arc::clone(&active.plan), index));
            }
            return Ok(Claim::Busy); // all peaks claimed, day still in flight
        }
        // No active day: start or advance. The first `progress()`
        // synthesises the cell's horizon demand and chooses the
        // predictor (a full backtest under `BacktestSelected`), and
        // `next_day` runs prediction, detection and scenario
        // materialisation — real work, done here by a fleet worker
        // rather than some coordinator thread.
        let runner = state.runner;
        catch_unwind(AssertUnwindSafe(|| loop {
            let progress = state.progress.get_or_insert_with(|| runner.progress());
            match progress.next_day() {
                Some(plan) if plan.is_stable() => {
                    progress.complete_day(plan, Vec::new());
                }
                Some(plan) => {
                    let count = plan.scenarios().len();
                    state.active = Some(ActiveDay {
                        plan: Arc::new(plan),
                        results: (0..count).map(|_| None).collect(),
                        next: 0,
                        remaining: count,
                    });
                    break;
                }
                None => {
                    let progress = state.progress.take().expect("just inserted");
                    let traffic = progress.traffic();
                    state.report = Some((progress.finish(), traffic));
                    unfinished.fetch_sub(1, Ordering::Release);
                    break;
                }
            }
        }))?;
        Ok(Claim::Advanced)
    }

    /// Stores a finished negotiation; the worker that completes the
    /// day's last peak applies the feedback and leaves the cell ready
    /// for its next advance.
    fn store(
        state: &mut CellState<'r>,
        index: usize,
        report: NegotiationReport,
    ) -> Result<(), Box<dyn std::any::Any + Send>> {
        let active = state.active.as_mut().expect("day in flight");
        debug_assert!(active.results[index].is_none(), "peak negotiated once");
        active.results[index] = Some(report);
        active.remaining -= 1;
        if active.remaining > 0 {
            return Ok(());
        }
        let active = state.active.take().expect("day in flight");
        let reports: Vec<NegotiationReport> = active
            .results
            .into_iter()
            .map(|r| r.expect("all peaks negotiated"))
            .collect();
        // All workers of this day dropped their handles before their
        // stores (serialised by the cell lock), so the cell's handle is
        // the last and the plan comes back without copying a scenario.
        let plan = Arc::try_unwrap(active.plan)
            .unwrap_or_else(|_| unreachable!("all plan handles dropped before the last store"));
        catch_unwind(AssertUnwindSafe(|| {
            state
                .progress
                .as_mut()
                .expect("campaign in flight")
                .complete_day(plan, reports);
        }))?;
        Ok(())
    }

    fn into_parts(self) -> (CampaignReport, NetworkTraffic) {
        self.state
            .into_inner()
            .unwrap_or_else(|p| p.into_inner())
            .report
            .expect("fleet ran every cell to completion")
    }
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

/// One finished cell of the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// The cell's label.
    pub label: String,
    /// The campaign's full report.
    pub report: CampaignReport,
}

/// Aggregate result of a fleet run: per-cell campaign reports in cell
/// order plus cross-cell economics.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// One report per cell, in the order cells were added.
    pub cells: Vec<CellReport>,
    /// The cells' economics summed — fleet-wide rewards, shaved energy
    /// and net gain against each cell's own producer pricing.
    pub economics: CampaignEconomics,
}

impl FleetReport {
    fn assemble(cells: Vec<CellReport>) -> FleetReport {
        let economics = cells.iter().map(|c| c.report.economics).sum();
        FleetReport { cells, economics }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True for an empty fleet.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cell with the given label, if present.
    pub fn cell(&self, label: &str) -> Option<&CellReport> {
        self.cells.iter().find(|c| c.label == label)
    }

    /// Peaks negotiated across all cells.
    pub fn negotiations(&self) -> usize {
        self.cells.iter().map(|c| c.report.negotiations()).sum()
    }

    /// Days evaluated across all cells.
    pub fn days_evaluated(&self) -> usize {
        self.cells.iter().map(|c| c.report.days_evaluated()).sum()
    }

    /// True if every negotiation in every cell converged.
    pub fn all_converged(&self) -> bool {
        self.cells.iter().all(|c| c.report.all_converged())
    }

    /// Total energy shaved across all cells.
    pub fn total_energy_shaved(&self) -> powergrid::units::KilowattHours {
        self.cells
            .iter()
            .map(|c| c.report.total_energy_shaved())
            .sum()
    }

    /// Total reward outlay across all cells.
    pub fn total_rewards(&self) -> powergrid::units::Money {
        self.cells.iter().map(|c| c.report.total_rewards()).sum()
    }

    /// Copies the whole fleet report down to `tier` (see
    /// [`CampaignReport::at_tier`]); the fleet economics are scalars and
    /// survive unchanged.
    pub fn at_tier(&self, tier: ReportTier) -> FleetReport {
        FleetReport {
            cells: self
                .cells
                .iter()
                .map(|c| CellReport {
                    label: c.label.clone(),
                    report: c.report.at_tier(tier),
                })
                .collect(),
            economics: self.economics,
        }
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet: {} cells, {} days evaluated, {} peaks negotiated, \
             {:.1} kWh shaved, net gain {:.1}",
            self.len(),
            self.days_evaluated(),
            self.negotiations(),
            self.total_energy_shaved().value(),
            self.economics.net_gain.value()
        )?;
        for cell in &self.cells {
            writeln!(
                f,
                "  {:<12} {:>3} peaks | {:>8.1} kWh shaved | {:>8.1} rewards | net {:>8.1}",
                cell.label,
                cell.report.negotiations(),
                cell.report.total_energy_shaved().value(),
                cell.report.total_rewards().value(),
                cell.report.economics.net_gain.value()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignBuilder, ClosedLoop, FixedPredictor, MarginalCostStop};
    use powergrid::calendar::Horizon;
    use powergrid::household::Household;
    use powergrid::population::PopulationBuilder;
    use powergrid::prediction::MovingAverage;
    use powergrid::weather::{Season, WeatherModel};

    fn homes(n: usize, seed: u64) -> Vec<Household> {
        PopulationBuilder::new().households(n).build(seed)
    }

    fn runner<'a>(
        homes: &'a [Household],
        weather: &WeatherModel,
        closed: bool,
    ) -> CampaignRunner<'a> {
        let horizon = Horizon::new(5, 0, Season::Winter);
        let b = CampaignBuilder::new(homes, weather, &horizon)
            .warmup_days(2)
            .predictor(FixedPredictor(MovingAverage::new(2)));
        if closed {
            b.feedback(ClosedLoop).stop_rule(MarginalCostStop).build()
        } else {
            b.build()
        }
    }

    #[test]
    fn sharded_slab_fleet_matches_object_slice_fleet() {
        let weather = WeatherModel::winter();
        let horizon = Horizon::new(5, 0, Season::Winter);
        let builder = PopulationBuilder::new().households(23);
        let slab = builder.build_slab(9);
        let homes = builder.build(9);
        fn build(builder: CampaignBuilder<'_>) -> CampaignRunner<'_> {
            builder
                .warmup_days(2)
                .predictor(FixedPredictor(MovingAverage::new(2)))
                .feedback(ClosedLoop)
                .build()
        }
        let slab_fleet = FleetRunner::new().sharded_slab(&slab, 3, |shard, _| {
            build(CampaignBuilder::new_ref(shard, &weather, &horizon))
        });
        // Same cells, each converting its own contiguous household slice
        // (at the same offsets) into an owned slab — ownership and shard
        // offsets must not change a byte.
        let mut object_fleet = FleetRunner::new();
        let mut start = 0;
        for (i, shard) in slab.shards(3).into_iter().enumerate() {
            let end = start + shard.len();
            object_fleet = object_fleet.cell(
                format!("shard-{i}"),
                build(CampaignBuilder::new(&homes[start..end], &weather, &horizon)),
            );
            start = end;
        }
        assert_eq!(start, homes.len());
        let report = slab_fleet.run();
        assert_eq!(report.len(), 3);
        assert_eq!(report.cells[0].label, "shard-0");
        assert_eq!(report.cells[2].label, "shard-2");
        assert_eq!(report, object_fleet.run());
        assert!(report.all_converged());
    }

    #[test]
    fn fleet_matches_sequential_and_per_cell_runs() {
        let weather = WeatherModel::winter();
        let north = homes(40, 11);
        let south = homes(25, 3);
        let west = homes(30, 7);
        let fleet = FleetRunner::new()
            .cell("north", runner(&north, &weather, false))
            .cell("south", runner(&south, &weather, true))
            .cell("west", runner(&west, &weather, false))
            .threads(NonZeroUsize::new(4).expect("4 > 0"));
        let report = fleet.run();
        assert_eq!(report, fleet.run_sequential());
        assert_eq!(report.len(), 3);
        // Each cell is exactly what a standalone campaign run produces.
        for (cell, (label, campaign)) in report.cells.iter().zip(fleet.cells()) {
            assert_eq!(&cell.label, label);
            assert_eq!(cell.report, campaign.run_sequential());
        }
        assert!(report.negotiations() > 0);
        assert!(report.all_converged());
        assert_eq!(report.cell("south").expect("present").label, "south");
        assert!(report.cell("east").is_none());
    }

    #[test]
    fn economics_aggregate_across_cells() {
        let weather = WeatherModel::winter();
        let a = homes(40, 11);
        let b = homes(35, 5);
        let fleet = FleetRunner::new()
            .cell("a", runner(&a, &weather, false))
            .cell("b", runner(&b, &weather, true))
            .threads(NonZeroUsize::new(2).expect("2 > 0"));
        let report = fleet.run();
        let rewards: f64 = report
            .cells
            .iter()
            .map(|c| c.report.economics.rewards_paid.value())
            .sum();
        assert!((report.economics.rewards_paid.value() - rewards).abs() < 1e-9);
        let stops: usize = report
            .cells
            .iter()
            .map(|c| c.report.economics.economic_stops)
            .sum();
        assert_eq!(report.economics.economic_stops, stops);
        assert_eq!(
            report.total_rewards(),
            report.cells.iter().map(|c| c.report.total_rewards()).sum()
        );
        let text = report.to_string();
        assert!(text.contains("fleet: 2 cells"));
        assert!(text.contains("a "), "per-cell lines present");
    }

    #[test]
    fn single_cell_fleet_equals_the_campaign() {
        let weather = WeatherModel::winter();
        let pop = homes(40, 11);
        let fleet = FleetRunner::new().cell("solo", runner(&pop, &weather, false));
        let report = fleet.run();
        assert_eq!(report.cells[0].report, runner(&pop, &weather, false).run());
        assert_eq!(report, fleet.run_sequential());
    }

    #[test]
    fn empty_fleet_reports_nothing() {
        let fleet = FleetRunner::new();
        assert!(fleet.is_empty());
        let report = fleet.run();
        assert!(report.is_empty());
        assert_eq!(report.negotiations(), 0);
        assert_eq!(report.economics.economic_stops, 0);
    }

    #[test]
    fn more_threads_than_work_is_fine() {
        let weather = WeatherModel::winter();
        let pop = homes(25, 2);
        let fleet = FleetRunner::new()
            .cell("tiny", runner(&pop, &weather, false))
            .threads(NonZeroUsize::new(16).expect("16 > 0"));
        assert_eq!(fleet.run(), fleet.run_sequential());
    }

    #[test]
    fn identical_cells_produce_identical_reports() {
        // Two cells over the same population must settle identically —
        // the shared workers' interleaving leaks nothing between cells.
        let weather = WeatherModel::winter();
        let pop = homes(30, 1);
        let fleet = FleetRunner::new()
            .cell("first", runner(&pop, &weather, false))
            .cell("second", runner(&pop, &weather, false))
            .threads(NonZeroUsize::new(3).expect("3 > 0"));
        let report = fleet.run();
        assert_eq!(report.cells[0].report, report.cells[1].report);
        assert_eq!(report, fleet.run_sequential());
    }
}
