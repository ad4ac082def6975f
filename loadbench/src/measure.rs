//! One workload end to end: set-up, warm-up, the timed seasons at T and
//! at one thread, the traced seasons, the output checks, and every
//! metric computed from them.

use crate::alloc;
use crate::metrics::Value;
use crate::season::{self, Output, Result, Timing, Traced};
use crate::stats::{median, samples_for_percentile, tail_percentile};
use crate::trace::{self, Stage, Tracer};
use crate::workload::{Bench, Population, Workload};
use loadbal_core::execution::NetworkTraffic;
use std::collections::BTreeMap;
use std::fs;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One round of a run: the population rebuilt [`SETUPS_PER_ROUND`]
/// times, then [`T_PER_ROUND`] seasons at T threads and one at one
/// thread. Interleaving spreads every kind of sample over the whole run,
/// so a burst of contention from other tenants of the host moves them
/// all alike instead of swallowing one phase.
const SETUPS_PER_ROUND: usize = 3;
const T_PER_ROUND: usize = 4;

/// How many rounds a run takes at least (rounds continue until
/// `--seconds` have elapsed), and how many traced seasons follow.
#[derive(Debug, Clone, Copy)]
pub struct Sampling {
    pub rounds: usize,
    pub traced: usize,
}

impl Sampling {
    /// Enough T-thread seasons for a p75 with ten samples beyond it, and
    /// enough traced seasons for a negotiation p90 on every workload.
    pub fn full() -> Sampling {
        Sampling {
            rounds: samples_for_percentile(75.0).div_ceil(T_PER_ROUND),
            traced: 3,
        }
    }

    #[cfg(test)]
    pub fn toy() -> Sampling {
        Sampling {
            rounds: 1,
            traced: 1,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub toy: bool,
    pub sampling: Sampling,
    /// Where the archive and the Chrome trace are written.
    pub out_dir: PathBuf,
}

pub struct Measured {
    pub workload: Workload,
    pub threads: NonZeroUsize,
    pub metrics: BTreeMap<&'static str, Value>,
    /// Negotiations attempted across every season of the run.
    pub attempted: u64,
    /// Non-converged negotiations plus failed checks.
    pub failed: u64,
    /// One line per failed check (the first twenty).
    pub failures: Vec<String>,
    /// Per-stage medians over the traced seasons.
    pub stages: Vec<Stage>,
    /// Heap bytes of the built population (computed by the allocator).
    pub population_bytes: usize,
}

/// The fleet thread count: two where the host has two cores or more.
pub fn fleet_threads() -> NonZeroUsize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    NonZeroUsize::new(cores.min(2)).expect("at least one core")
}

pub fn run(workload: Workload, opts: &Options) -> Result<Measured> {
    let bench = Bench::new(workload, opts.toy, opts.seed);
    let threads = fleet_threads();
    fs::create_dir_all(&opts.out_dir)?;
    let archive = opts.out_dir.join(format!("{}.lbsa", workload.name()));
    let mut setup = Setup::new(&bench);

    let mut checks = Checks::default();
    let (_, reference) = season::timed(&bench, &setup.population, threads, &archive)?;
    checks.season("warm-up", &reference, &reference);
    let (mut seasons, mut seasons_1t) = (Vec::new(), Vec::new());
    alloc::reset_peak();
    let start = Instant::now();
    for round in 0.. {
        if round >= opts.sampling.rounds && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
        for _ in 0..SETUPS_PER_ROUND {
            setup.rebuild(&bench);
        }
        for k in 0..=T_PER_ROUND {
            let (n, timings) = if k < T_PER_ROUND {
                (threads, &mut seasons)
            } else {
                (NonZeroUsize::MIN, &mut seasons_1t)
            };
            let (timing, out) = season::timed(&bench, &setup.population, n, &archive)?;
            checks.season(
                &format!("round {round}, {n}-thread season"),
                &reference,
                &out,
            );
            timings.push(timing);
        }
    }
    let peak_heap = alloc::peak_bytes();
    let ledger = if opts.trace {
        Some(Ledger::record(
            &bench,
            &setup.population,
            opts,
            &archive,
            &reference,
            &mut checks,
        )?)
    } else {
        None
    };
    fs::remove_file(&archive)?;

    let runs = Runs {
        bench: &bench,
        threads,
        setup: &setup,
        reference: &reference,
        seasons,
        seasons_1t,
        peak_heap,
    };
    let mut m = Metrics::default();
    runs.end_to_end(&checks, &mut m);
    if let Some(ledger) = &ledger {
        runs.layers(ledger, &mut m);
    }
    Ok(Measured {
        workload,
        threads,
        metrics: m.0,
        attempted: checks.attempted,
        failed: checks.failed,
        failures: checks.failures,
        stages: ledger.map_or_else(Vec::new, |l| l.stages()),
        population_bytes: setup.bytes,
    })
}

/// The population, rebuilt and timed once per set-up sample.
struct Setup {
    population: Population,
    times: Vec<f64>,
    /// Live heap growth of the last build.
    bytes: usize,
}

impl Setup {
    fn new(bench: &Bench) -> Setup {
        let mut setup = Setup {
            population: Population::Cells(Vec::new()),
            times: Vec::new(),
            bytes: 0,
        };
        setup.rebuild(bench);
        setup
    }

    fn rebuild(&mut self, bench: &Bench) {
        // Release the previous build first: one population at a time.
        self.population = Population::Cells(Vec::new());
        let live = alloc::live_bytes();
        let t = Instant::now();
        self.population = bench.population();
        self.times.push(t.elapsed().as_secs_f64());
        // Saturating: under `cargo test` other threads allocate too.
        self.bytes = alloc::live_bytes().saturating_sub(live);
    }
}

/// Correctness bookkeeping shared by every season of a run.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checks {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// Counts a season's negotiations and compares its output against
    /// the warm-up season's.
    fn season(&mut self, label: &str, reference: &Output, out: &Output) {
        let negotiations = out.report.negotiations() as u64;
        let converged: u64 = out
            .report
            .cells
            .iter()
            .map(|c| c.report.converged() as u64)
            .sum();
        self.attempted += negotiations;
        self.failed += negotiations - converged;
        if out.report != reference.report {
            self.fail(format!("{label}: report differs from the warm-up season's"));
        }
        if out.traffic != reference.traffic {
            self.fail(format!(
                "{label}: network traffic differs from the warm-up season's"
            ));
        }
        if out.decoded != out.report {
            self.fail(format!("{label}: read_fleet does not decode to the report"));
        }
        let days = out.report.cells.iter().flat_map(|c| &c.report.days);
        if !out.days.is_empty() && !out.days.iter().eq(days) {
            self.fail(format!(
                "{label}: read_day does not decode to the report's days"
            ));
        }
    }
}

/// The traced seasons: spans, per-season stage tables and the tracing
/// overhead against paired untraced seasons.
struct Ledger {
    tracer: Tracer,
    traced: Vec<Traced>,
    per_season: Vec<Vec<Stage>>,
    overheads: Vec<f64>,
}

impl Ledger {
    fn record(
        bench: &Bench,
        population: &Population,
        opts: &Options,
        archive: &Path,
        reference: &Output,
        checks: &mut Checks,
    ) -> Result<Ledger> {
        let mut tracer = Tracer::new();
        let mut traced = Vec::new();
        let mut overheads = Vec::new();
        for k in 0..opts.sampling.traced {
            if k > 0 {
                tracer.next_season();
            }
            // An untraced one-thread season right before each traced one:
            // the pair shares the host's momentary state, so their ratio
            // isolates what tracing costs.
            let (plain, out) = season::timed(bench, population, NonZeroUsize::MIN, archive)?;
            checks.season(&format!("paired season {k}"), reference, &out);
            drop(out);
            let (t, out) = season::traced(bench, population, &mut tracer, archive)?;
            // Equal reports mean the stepped cells equal the fleet's.
            checks.season(&format!("traced season {k}"), reference, &out);
            overheads.push(t.wall / plain.wall - 1.0);
            traced.push(t);
        }
        let name = bench.workload.name();
        fs::write(
            opts.out_dir.join(format!("{name}.trace.json")),
            tracer.chrome_json(name),
        )?;
        let per_season = traced
            .iter()
            .map(|t| trace::stages(tracer.spans(), t.root))
            .collect();
        Ok(Ledger {
            tracer,
            traced,
            per_season,
            overheads,
        })
    }

    /// Median over the traced seasons of `f` of the named stage (zero in
    /// a season without it).
    fn stage(&self, name: &str, f: fn(&Stage) -> f64) -> Option<f64> {
        let values: Vec<f64> = self
            .per_season
            .iter()
            .map(|st| st.iter().find(|s| s.name == name).map_or(0.0, f))
            .collect();
        median(&values)
    }

    fn total(&self, name: &str) -> Option<f64> {
        self.stage(name, |s| s.total)
    }

    /// The stage table: per-stage medians, in first-season order.
    fn stages(&self) -> Vec<Stage> {
        let Some(first) = self.per_season.first() else {
            return Vec::new();
        };
        first
            .iter()
            .map(|s| Stage {
                name: s.name,
                calls: s.calls,
                total: self.total(s.name).unwrap_or(0.0),
                self_time: self.stage(s.name, |s| s.self_time).unwrap_or(0.0),
            })
            .collect()
    }

    fn median_of(&self, f: impl Fn(&Traced) -> f64) -> Option<f64> {
        median(&self.traced.iter().map(f).collect::<Vec<_>>())
    }
}

/// Everything measured in a run, for computing the metrics.
struct Runs<'a> {
    bench: &'a Bench,
    threads: NonZeroUsize,
    setup: &'a Setup,
    reference: &'a Output,
    seasons: Vec<Timing>,
    seasons_1t: Vec<Timing>,
    peak_heap: usize,
}

fn median_of(timings: &[Timing], f: impl Fn(&Timing) -> f64) -> Option<f64> {
    median(&timings.iter().map(f).collect::<Vec<_>>())
}

impl Runs<'_> {
    fn end_to_end(&self, checks: &Checks, m: &mut Metrics) {
        let walls: Vec<f64> = self.seasons.iter().map(|t| t.wall).collect();
        let n = walls.len();
        m.put("season_s", median(&walls), n);
        m.put("season_p75_s", tail_percentile(&walls, 75.0), n);
        m.put(
            "season_1t_s",
            median_of(&self.seasons_1t, |t| t.wall),
            self.seasons_1t.len(),
        );
        m.put("setup_s", median(&self.setup.times), self.setup.times.len());
        m.put("peak_heap_mb", Some(self.peak_heap as f64 / 1e6), n);
        let economics = self.reference.report.economics;
        m.count("net_gain", economics.net_gain.value());
        let failure_rate = checks.failed as f64 / checks.attempted.max(1) as f64;
        m.put(
            "failure_rate",
            Some(failure_rate),
            checks.attempted as usize,
        );
    }

    fn layers(&self, ledger: &Ledger, m: &mut Metrics) {
        self.population_and_demand(m);
        self.campaign(ledger, m);
        self.negotiate(ledger, m);
        self.fleet(ledger, m);
        self.archive(ledger, m);
        m.put(
            "report.retained_bytes",
            ledger.traced.first().map(|t| t.retained_bytes as f64),
            1,
        );
        m.put(
            "season.allocations",
            median_of(&self.seasons_1t, |t| t.allocations as f64),
            self.seasons_1t.len(),
        );
        let n = ledger.traced.len();
        let coverage = ledger.median_of(|t| trace::coverage(ledger.tracer.spans(), t.root));
        m.put("trace.coverage", coverage, n);
        m.put("trace.overhead", median(&ledger.overheads), n);
    }

    fn population_and_demand(&self, m: &mut Metrics) {
        let households = self.setup.population.households();
        let setup = &self.setup.times;
        m.put("population.build_s", median(setup), setup.len());
        m.count(
            "population.bytes_per_household",
            self.setup.bytes as f64 / households as f64,
        );
        let build = median_of(&self.seasons, |t| t.build);
        let household_days = households as f64 * self.bench.shape.days as f64;
        m.put("campaign.build_s", build, self.seasons.len());
        m.put(
            "demand.ns_per_household_day",
            build.map(|b| b * 1e9 / household_days),
            self.seasons.len(),
        );
        let serial = median_of(&self.seasons_1t, |t| t.build / t.wall);
        m.put("fleet.serial_share", serial, self.seasons_1t.len());
    }

    fn campaign(&self, ledger: &Ledger, m: &mut Metrics) {
        let n = ledger.traced.len();
        for (metric, stage) in [
            ("campaign.progress_s", "campaign.progress"),
            ("campaign.plan_s", "campaign.plan"),
            ("campaign.complete_day_s", "campaign.complete_day"),
            ("campaign.finish_s", "campaign.finish"),
        ] {
            m.put(metric, ledger.total(stage), n);
        }
        let first = ledger.traced.first();
        let customers = first.map_or(0, |t| t.customers_materialised);
        m.put(
            "campaign.us_per_customer",
            ledger
                .total("campaign.plan")
                .map(|p| p * 1e6 / customers.max(1) as f64),
            n,
        );
        m.count("campaign.customers_materialised", customers as f64);
        m.count(
            "campaign.renegotiation_passes",
            first.map_or(0, |t| t.renegotiation_passes) as f64,
        );

        let cells = &self.reference.report.cells;
        let days = || cells.iter().flat_map(|c| &c.report.days);
        let switches: usize = cells
            .iter()
            .map(|c| {
                c.report
                    .days
                    .windows(2)
                    .filter(|w| w[0].predictor != w[1].predictor)
                    .count()
            })
            .sum();
        let overuse_removed: f64 = cells
            .iter()
            .flat_map(|c| &c.report.outcomes)
            .map(|o| (o.report.initial_overuse() - o.report.final_overuse()).value())
            .map(|kwh| kwh.max(0.0))
            .sum();
        let economics = self.reference.report.economics;
        m.count(
            "campaign.peaks",
            days().map(|d| d.peaks.len()).sum::<usize>() as f64,
        );
        m.count("campaign.predictor_switches", switches as f64);
        m.count(
            "campaign.stable_days",
            days().filter(|d| d.peaks.is_empty()).count() as f64,
        );
        m.count("campaign.overuse_removed_kwh", overuse_removed);
        m.count(
            "campaign.energy_shaved_kwh",
            economics.energy_shaved.value(),
        );
        m.count("campaign.rewards_paid", economics.rewards_paid.value());
        m.count("campaign.economic_stops", economics.economic_stops as f64);
        m.count("campaign.net_gain", economics.net_gain.value());
    }

    fn negotiate(&self, ledger: &Ledger, m: &mut Metrics) {
        let spans = ledger.tracer.spans();
        let all: Vec<&season::Negotiation> =
            ledger.traced.iter().flat_map(|t| &t.negotiations).collect();
        let n = all.len();
        let us: Vec<f64> = all.iter().map(|x| spans[x.span].secs() * 1e6).collect();
        let sum = |f: fn(&season::Negotiation) -> f64| all.iter().map(|x| f(x)).sum::<f64>();
        let total_s = us.iter().sum::<f64>() / 1e6;
        let rounds = sum(|x| f64::from(x.rounds));
        let per = |total: f64| total / (n.max(1) as f64);
        m.put(
            "negotiate.s",
            ledger.total("negotiate"),
            ledger.traced.len(),
        );
        m.put("negotiate.p50_us", median(&us), n);
        m.put("negotiate.p90_us", tail_percentile(&us, 90.0), n);
        m.put("negotiate.rounds_per_negotiation", Some(per(rounds)), n);
        let customer_rounds = sum(|x| x.customers as f64 * f64::from(x.rounds));
        m.put(
            "negotiate.ns_per_customer_round",
            Some(total_s * 1e9 / customer_rounds.max(1.0)),
            n,
        );
        let messages = sum(|x| x.messages as f64);
        m.put(
            "negotiate.ns_per_message",
            Some(total_s * 1e9 / messages.max(1.0)),
            n,
        );
        m.put(
            "negotiate.allocs_per_negotiation",
            Some(per(sum(|x| x.allocations as f64))),
            n,
        );

        let traffic = self
            .reference
            .traffic
            .iter()
            .fold(NetworkTraffic::ZERO, |a, &b| a + b);
        m.count("distributed.messages_sent", traffic.messages_sent as f64);
        m.count(
            "distributed.messages_delivered",
            traffic.messages_delivered as f64,
        );
        m.count(
            "distributed.messages_dropped",
            traffic.messages_dropped as f64,
        );
        m.count("distributed.timers_fired", traffic.timers_fired as f64);
        m.count(
            "distributed.deadline_forced",
            traffic.deadline_forced_rounds as f64,
        );
        let season_rounds = rounds / ledger.traced.len().max(1) as f64;
        m.count(
            "distributed.forced_round_share",
            traffic.deadline_forced_rounds as f64 / season_rounds.max(1.0),
        );
    }

    fn fleet(&self, ledger: &Ledger, m: &mut Metrics) {
        let (n, n_1t) = (self.seasons.len(), self.seasons_1t.len());
        let run = median_of(&self.seasons, |t| t.run);
        let run_1t = median_of(&self.seasons_1t, |t| t.run);
        m.put("fleet.run_s", run, n);
        m.put("fleet.run_1t_s", run_1t, n_1t);
        m.put("fleet.speedup", run_1t.zip(run).map(|(a, b)| a / b), n);
        let cpu: f64 = self.seasons.iter().map(|t| t.run_cpu).sum();
        let wall: f64 = self.seasons.iter().map(|t| t.run).sum();
        m.put(
            "fleet.cpu_util",
            Some(cpu / (wall * self.threads.get() as f64)),
            n,
        );
        // The cells' stepping loops are the work `run` does at one thread.
        let useful = ledger
            .total("campaign")
            .zip(median_of(&self.seasons, |t| t.run_cpu).filter(|&c| c > 0.0))
            .map(|(stepping, cpu)| stepping / cpu);
        m.put("fleet.useful_cpu_ratio", useful, n);
    }

    fn archive(&self, ledger: &Ledger, m: &mut Metrics) {
        let n = ledger.traced.len();
        let bytes = ledger
            .traced
            .first()
            .map_or(0.0, |t| t.archive_bytes as f64);
        let stored_days: usize = self
            .reference
            .report
            .cells
            .iter()
            .map(|c| c.report.days.len())
            .sum();
        m.count("archive.bytes", bytes);
        m.count("archive.bytes_per_day", bytes / stored_days.max(1) as f64);
        for (metric, stage) in [
            ("archive.write_s", "archive.write"),
            ("archive.open_s", "archive.open"),
            ("archive.read_s", "archive.read"),
        ] {
            m.put(metric, ledger.total(stage), n);
        }
        m.put(
            "archive.seek_read_us",
            ledger.median_of(|t| t.seek_read * 1e6),
            n,
        );
        let rate = |stage: &str| ledger.total(stage).map(|s| bytes / 1e6 / s);
        m.put("archive.write_mb_per_s", rate("archive.write"), n);
        m.put("archive.read_mb_per_s", rate("archive.read"), n);
    }
}

#[derive(Default)]
struct Metrics(BTreeMap<&'static str, Value>);

impl Metrics {
    fn put(&mut self, name: &str, value: Option<f64>, samples: usize) {
        let spec = crate::metrics::find(name).unwrap_or_else(|| panic!("unknown metric {name}"));
        self.0.insert(spec.name, Value { value, samples });
    }

    /// A deterministic value read off one season.
    fn count(&mut self, name: &str, value: f64) {
        self.put(name, Some(value), 1);
    }
}
