//! Fleet execution: many campaigns, one queue of cell-days.
//!
//! A season-long study is not one campaign but many — one per grid
//! cell, feeder or household cohort — and while the *days* inside a
//! campaign are sequential (closed-loop feedback makes day *d* depend
//! on day *d − 1*, §5.1.2's daily cycle), the campaigns themselves are
//! embarrassingly parallel. Running each on its own threads
//! oversubscribes the machine N-fold; handing each worker whole cells
//! leaves the last worker finishing a whole cell alone.
//!
//! [`FleetRunner`] keeps **one** FIFO queue of cells instead, drained
//! by `min(threads, cells)` workers that [`fan_out`] spawns for the
//! length of the run. A worker pops the front cell and runs that cell's
//! next day: [`CampaignProgress::next_day`], each of the day's
//! scenarios through
//! [`DayPlan::negotiate`](crate::campaign::DayPlan::negotiate) on the
//! worker's own [`NegotiationScratch`], then
//! [`CampaignProgress::complete_day`]. It then pushes the cell to the
//! back of the queue, or — once `next_day` has nothing left — finishes
//! it into the cell's result slot. So the unit of work is a cell-day:
//! cells advance in turn, a day at a time, and finish close together
//! instead of leaving one worker with a whole cell at the end.
//!
//! Per-cell startup runs on the workers too: a cell's first visit
//! calls [`CampaignRunner::progress`], which synthesises the cell's
//! whole-horizon demand (deferred out of
//! [`CampaignBuilder::build`](crate::campaign::CampaignBuilder::build))
//! and chooses its predictor, so a city's cells synthesise in parallel
//! rather than serially before the workers start. The echo of the
//! paper's DESIRE lineage is deliberate: many independent agent
//! societies, one execution substrate.
//!
//! A worker that finds the queue empty stops. Every unfinished cell is
//! then held by another worker, and a cell's days run one after
//! another anyway, so nothing is left that it could run. The peaks of
//! one day negotiate one after another on the worker that holds the
//! cell.
//!
//! This is the crate's only campaign scheduler: a lone
//! [`CampaignRunner::run`] is a one-cell fleet — one queue entry, one
//! worker. The fleet adds scheduling and nothing else —
//! each cell's report tier and execution mode are whatever its
//! [`CampaignBuilder`](crate::campaign::CampaignBuilder) chose, and the
//! thread count is [`FleetRunner::threads`].
//!
//! Scheduling is nondeterministic; results never are. Each cell's days
//! run in order whichever workers run them, every negotiation is a pure
//! function of its (cell, day, peak) coordinate, and each cell's result
//! is stored at the cell's index, never in completion order, so
//! [`FleetRunner::run`] is **byte-identical** to
//! [`FleetRunner::run_sequential`] for any thread count and any cell
//! mix (pinned by proptests in `tests/fleet_properties.rs`).
//!
//! A panic in a cell's work ends the worker's loop and takes that cell
//! out of the queue. The run does not abort early: the other workers
//! drain the queue, and once every worker has stopped the original
//! payload resurfaces on the calling thread, as with [`fan_out`]. The
//! queue's lock is held only to pop and push, so no lock is poisoned
//! and the same fleet can run again.
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

use crate::campaign::{CampaignEconomics, CampaignProgress, CampaignReport, CampaignRunner};
use crate::execution::NetworkTraffic;
use crate::session::ReportTier;
use crate::sweep::{fan_out, machine_threads};
use crate::sync_driver::NegotiationScratch;
use powergrid::slab::{PopulationSlab, SlabView};
use std::collections::VecDeque;
use std::fmt;
use std::num::NonZeroUsize;
use std::sync::Mutex;

/// Many campaigns over a shared grid, executed on one set of workers.
///
/// Build with [`FleetRunner::new`] and [`FleetRunner::cell`]; run with
/// [`FleetRunner::run`] (every cell interleaved through one queue of
/// cell-days) or [`FleetRunner::run_sequential`] (each cell alone, in
/// order — the tests' reference). Both produce the same
/// [`FleetReport`], byte for byte.
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
    /// parallelism) — the one thread knob of campaign execution. A run
    /// uses at most one worker per cell, because a cell's days run one
    /// after another.
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

    /// Runs every campaign to completion on `min(threads, cells)`
    /// workers, which [`fan_out`] spawns for this run and joins before
    /// it returns. The workers drain one FIFO queue of cells a day at a
    /// time (see the module doc), and a worker stops when it finds the
    /// queue empty.
    ///
    /// Byte-identical to [`FleetRunner::run_sequential`] for any thread
    /// count. A panic in any cell's work resurfaces its original
    /// payload here, as with [`fan_out`], once the other workers have
    /// drained the queue: a panic does not abort the run early.
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

    /// Runs every campaign alone, one after another, each through
    /// [`CampaignRunner::run_instrumented`] — the reference the tests
    /// hold [`FleetRunner::run`] to, which instead interleaves every
    /// cell through one queue.
    pub fn run_sequential(&self) -> FleetReport {
        let results = self
            .cells
            .iter()
            .map(|(_, runner)| runner.run_instrumented())
            .collect();
        self.labelled(results).0
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
/// on `min(threads, runners)` workers draining one FIFO queue of cells
/// (the module doc describes it), and returns each campaign's report
/// and traffic in runner order. [`FleetRunner::run`] schedules its
/// cells here; [`CampaignRunner::run`] schedules itself as a one-cell
/// fleet.
pub(crate) fn schedule(
    threads: NonZeroUsize,
    runners: &[&CampaignRunner<'_>],
) -> Vec<(CampaignReport, NetworkTraffic)> {
    // Each entry is a cell's index and its campaign in flight, `None`
    // until the cell's first visit prepares it.
    let queue: Mutex<VecDeque<(usize, Option<CampaignProgress<'_>>)>> =
        Mutex::new((0..runners.len()).map(|cell| (cell, None)).collect());
    let lock = || {
        queue
            .lock()
            .expect("the queue lock is held only to pop or push, never across cell work")
    };
    // A `while let` over `lock().pop_front()` would hold the guard
    // through the whole day; `pop` drops it before the body runs.
    let pop = || lock().pop_front();
    let workers = threads.get().min(runners.len());
    let finished = fan_out(threads, workers, NegotiationScratch::new, |scratch, _| {
        let mut finished = Vec::new();
        // An empty queue means every unfinished cell is held by another
        // worker, whose days run one after another anyway: stop.
        while let Some((cell, progress)) = pop() {
            let mut progress = progress.unwrap_or_else(|| runners[cell].progress());
            match progress.next_day() {
                Some(plan) => {
                    let reports = (0..plan.scenarios().len())
                        .map(|i| plan.negotiate(i, scratch))
                        .collect();
                    progress.complete_day(plan, reports);
                    lock().push_back((cell, Some(progress)));
                }
                None => {
                    let traffic = progress.traffic();
                    finished.push((cell, (progress.finish(), traffic)));
                }
            }
        }
        finished
    });
    // Each result goes to its cell's slot, never in completion order.
    let mut slots: Vec<Option<(CampaignReport, NetworkTraffic)>> =
        runners.iter().map(|_| None).collect();
    for (cell, result) in finished.into_iter().flatten() {
        slots[cell] = Some(result);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every cell finished"))
        .collect()
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
            assert_eq!(cell.report, campaign.run());
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
