//! One season — build every cell, run the fleet, write the archive and
//! read it back — timed as a whole, or stepped cell by cell under spans.

use crate::alloc;
use crate::host;
use crate::trace::Tracer;
use crate::workload::{Bench, Population};
use loadbal_archive::{write_fleet, SeasonArchive};
use loadbal_core::campaign::{CampaignReport, DayOutcome};
use loadbal_core::execution::NetworkTraffic;
use loadbal_core::fleet::{CellReport, FleetReport};
use loadbal_core::sync_driver::NegotiationScratch;
use std::error::Error;
use std::io::{Read, Seek};
use std::num::NonZeroUsize;
use std::path::Path;
use std::time::{Duration, Instant};

pub type Result<T> = std::result::Result<T, Box<dyn Error>>;

/// What a season produced; every season of a run must produce the same.
pub struct Output {
    pub report: FleetReport,
    pub traffic: Vec<NetworkTraffic>,
    /// `read_fleet` of the archive written from `report`.
    pub decoded: FleetReport,
    /// `read_day` of every (cell, day) in report order, when read.
    pub days: Vec<DayOutcome>,
}

/// What one season cost: wall-clock parts and CPU in seconds, and
/// allocations.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub wall: f64,
    /// Σ `CampaignBuilder::build` (demand synthesis included).
    pub build: f64,
    /// `FleetRunner::run_instrumented`, pool spawn included.
    pub run: f64,
    /// Process CPU seconds during `run`.
    pub run_cpu: f64,
    pub allocations: u64,
}

/// A season as users run it: nothing but the calls themselves between
/// the clock readings.
pub fn timed(
    bench: &Bench,
    population: &Population,
    threads: NonZeroUsize,
    archive: &Path,
) -> Result<(Timing, Output)> {
    let allocations = alloc::allocations();
    let start = Instant::now();
    let mut build = Duration::ZERO;
    let fleet = bench.fleet(population, threads, &mut |_, builder| {
        let t = Instant::now();
        let runner = builder.build();
        build += t.elapsed();
        runner
    });
    let cpu = host::process_cpu_seconds();
    let t = Instant::now();
    let (report, traffic) = fleet.run_instrumented();
    let run = t.elapsed();
    let run_cpu = host::process_cpu_seconds()
        .zip(cpu)
        .map_or(0.0, |(b, a)| b - a);
    drop(fleet);
    write_fleet(archive, &report, bench.workload.tier())?;
    let mut reader = SeasonArchive::open(archive)?;
    let decoded = reader.read_fleet()?;
    let days = if bench.workload.reads_days() {
        read_every_day(&mut reader, &report, None)?
    } else {
        Vec::new()
    };
    let wall = start.elapsed().as_secs_f64();
    let timing = Timing {
        wall,
        build: build.as_secs_f64(),
        run: run.as_secs_f64(),
        run_cpu,
        allocations: alloc::allocations() - allocations,
    };
    Ok((
        timing,
        Output {
            report,
            traffic,
            decoded,
            days,
        },
    ))
}

/// `read_day` of every (cell, day) of `report`, each under a span when
/// a tracer is given.
fn read_every_day<R: Read + Seek>(
    archive: &mut SeasonArchive<R>,
    report: &FleetReport,
    mut tracer: Option<&mut Tracer>,
) -> Result<Vec<DayOutcome>> {
    let mut days = Vec::new();
    for (c, cell) in report.cells.iter().enumerate() {
        for day in &cell.report.days {
            let span = tracer
                .as_deref_mut()
                .map(|t| t.enter("archive.read_day", Some(c)));
            days.push(archive.read_day(c, day.day.index)?);
            if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
                t.exit(id);
            }
        }
    }
    Ok(days)
}

/// One negotiation of a traced season.
#[derive(Debug, Clone, Copy)]
pub struct Negotiation {
    pub span: usize,
    pub allocations: u64,
    pub customers: usize,
    pub rounds: u32,
    pub messages: u64,
}

/// What the spans and counters saw in a traced season.
pub struct Traced {
    /// The season's root span.
    pub root: usize,
    pub wall: f64,
    pub negotiations: Vec<Negotiation>,
    pub renegotiation_passes: usize,
    pub customers_materialised: usize,
    /// Live heap growth from the built cells to the assembled report.
    pub retained_bytes: i64,
    pub archive_bytes: u64,
    /// Mean seconds per `read_day`.
    pub seek_read: f64,
}

/// A one-thread season driven through the public stepping API, cell by
/// cell — the same work `FleetRunner::run` does at one thread, with a
/// span around every call. Every (cell, day) is read back from the
/// archive too; outside the season unless the workload reads days.
pub fn traced(
    bench: &Bench,
    population: &Population,
    tracer: &mut Tracer,
    archive: &Path,
) -> Result<(Traced, Output)> {
    let root = tracer.enter("season", None);
    let one = NonZeroUsize::MIN;
    let fleet = bench.fleet(population, one, &mut |c, builder| {
        let span = tracer.enter("campaign.build", Some(c));
        let runner = builder.build();
        tracer.exit(span);
        runner
    });

    let live = alloc::live_bytes() as i64;
    let mut negotiations = Vec::new();
    let (mut renegotiation_passes, mut customers_materialised) = (0, 0);
    let mut cells = Vec::with_capacity(fleet.len());
    let mut traffic = Vec::with_capacity(fleet.len());
    for (c, (label, runner)) in fleet.cells().iter().enumerate() {
        let cell = Some(c);
        // The cell's whole stepping loop, scratch teardown included.
        let cell_span = tracer.enter("campaign", cell);
        let mut scratch = NegotiationScratch::new();
        let span = tracer.enter("campaign.progress", cell);
        let mut progress = runner.progress();
        tracer.exit(span);
        let mut last_day = None;
        loop {
            let span = tracer.enter("campaign.plan", cell);
            let plan = progress.next_day();
            tracer.exit(span);
            let Some(plan) = plan else { break };
            if last_day == Some(plan.day().index) {
                renegotiation_passes += 1;
            }
            last_day = Some(plan.day().index);
            let mut reports = Vec::with_capacity(plan.scenarios().len());
            for (i, (_, scenario)) in plan.scenarios().iter().enumerate() {
                customers_materialised += scenario.customers.len();
                let span = tracer.enter("negotiate", cell);
                let before = alloc::allocations();
                let report = plan.negotiate(i, &mut scratch);
                let allocations = alloc::allocations() - before;
                tracer.exit(span);
                negotiations.push(Negotiation {
                    span,
                    allocations,
                    customers: scenario.customers.len(),
                    rounds: report.digest().rounds,
                    messages: report.total_messages(),
                });
                reports.push(report);
            }
            let span = tracer.enter("campaign.complete_day", cell);
            progress.complete_day(plan, reports);
            tracer.exit(span);
        }
        traffic.push(progress.traffic());
        let span = tracer.enter("campaign.finish", cell);
        let report: CampaignReport = progress.finish();
        tracer.exit(span);
        cells.push(CellReport {
            label: label.clone(),
            report,
        });
        drop(scratch);
        tracer.exit(cell_span);
    }
    let report = FleetReport {
        economics: cells.iter().map(|c| c.report.economics).sum(),
        cells,
    };
    let retained_bytes = alloc::live_bytes() as i64 - live;
    drop(fleet);

    let span = tracer.enter("archive.write", None);
    let stats = write_fleet(archive, &report, bench.workload.tier())?;
    tracer.exit(span);
    let span = tracer.enter("archive.open", None);
    let mut reader = SeasonArchive::open(archive)?;
    tracer.exit(span);
    let span = tracer.enter("archive.read", None);
    let decoded = reader.read_fleet()?;
    tracer.exit(span);
    let reads_in_season = bench.workload.reads_days();
    if !reads_in_season {
        tracer.exit(root);
    }
    let start = Instant::now();
    let days = read_every_day(&mut reader, &report, Some(tracer))?;
    let seek_read = start.elapsed().as_secs_f64() / days.len().max(1) as f64;
    if reads_in_season {
        tracer.exit(root);
    }
    let traced = Traced {
        root,
        wall: tracer.spans()[root].secs(),
        negotiations,
        renegotiation_passes,
        customers_materialised,
        retained_bytes,
        archive_bytes: stats.bytes_written,
        seek_read,
    };
    let output = Output {
        report,
        traffic,
        decoded,
        days,
    };
    Ok((traced, output))
}
