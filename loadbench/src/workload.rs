//! The four season workloads: who builds the population, how each cell's
//! campaign is configured, and how the cells become one fleet.

use loadbal_core::adaptive::{AdaptiveTuning, RenegotiateResidual, RollingWindow};
use loadbal_core::beta::BetaPolicy;
use loadbal_core::campaign::{
    CampaignBuilder, CampaignRunner, ClosedLoop, FixedPredictor, MarginalCostStop,
};
use loadbal_core::fleet::FleetRunner;
use loadbal_core::resilience::FaultClass;
use loadbal_core::reward::RewardFormula;
use loadbal_core::session::ReportTier;
use loadbal_core::utility_agent::UtilityAgentConfig;
use powergrid::calendar::Horizon;
use powergrid::household::Household;
use powergrid::population::PopulationBuilder;
use powergrid::prediction::{MovingAverage, WeatherRegression};
use powergrid::slab::PopulationSlab;
use powergrid::units::Money;
use powergrid::weather::{Season, WeatherModel};
use std::num::NonZeroUsize;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One city slab in shards: demand synthesis and scenario
    /// materialisation dominate.
    City,
    /// Many small object-tree cells under all three self-tuning loops:
    /// day boundaries and the fleet scheduler's per-task overhead.
    Adaptive,
    /// The negotiation engine over a lossy simulated network.
    Faulty,
    /// Full-trace reports written to and read back from the archive.
    FullTrace,
}

/// How big a workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub cells: usize,
    /// Households per cell (the city slab holds `cells × households`).
    pub households: usize,
    pub days: u64,
    pub warmup: usize,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::City,
        Workload::Adaptive,
        Workload::Faulty,
        Workload::FullTrace,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::City => "city-season",
            Workload::Adaptive => "adaptive-season",
            Workload::Faulty => "faulty-network",
            Workload::FullTrace => "full-trace-archive",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The measured shape, or a toy one that exercises the same code in
    /// a fraction of a second.
    pub fn shape(self, toy: bool) -> Shape {
        let (cells, households, days, warmup) = match (self, toy) {
            (Workload::City, false) => (32, 6_250, 7, 2),
            (Workload::City, true) => (4, 500, 4, 2),
            (Workload::Adaptive, false) => (24, 250, 30, 4),
            (Workload::Adaptive, true) => (3, 60, 8, 4),
            (Workload::Faulty, false) => (12, 150, 20, 4),
            (Workload::Faulty, true) => (2, 40, 6, 4),
            (Workload::FullTrace, false) => (16, 200, 30, 4),
            (Workload::FullTrace, true) => (2, 40, 6, 4),
        };
        Shape {
            cells,
            households,
            days,
            warmup,
        }
    }

    pub fn tier(self) -> ReportTier {
        match self {
            Workload::FullTrace => ReportTier::FullTrace,
            _ => ReportTier::Settlement,
        }
    }

    /// Whether the season reads every (cell, day) record back from the
    /// archive after reopening it.
    pub fn reads_days(self) -> bool {
        self == Workload::FullTrace
    }
}

/// A workload's households: one slab for the city, one object-tree
/// population per cell otherwise.
pub enum Population {
    Slab(PopulationSlab),
    Cells(Vec<Vec<Household>>),
}

impl Population {
    pub fn households(&self) -> usize {
        match self {
            Population::Slab(slab) => slab.len(),
            Population::Cells(cells) => cells.iter().map(Vec::len).sum(),
        }
    }
}

/// A workload instantiated for one seed.
pub struct Bench {
    pub workload: Workload,
    pub shape: Shape,
    pub seed: u64,
    weather: WeatherModel,
    horizon: Horizon,
}

impl Bench {
    pub fn new(workload: Workload, toy: bool, seed: u64) -> Bench {
        let shape = workload.shape(toy);
        Bench {
            workload,
            shape,
            seed,
            weather: WeatherModel::winter(),
            horizon: Horizon::new(shape.days, 0, Season::Winter),
        }
    }

    /// Builds the population from the seed.
    pub fn population(&self) -> Population {
        let Shape {
            cells, households, ..
        } = self.shape;
        match self.workload {
            Workload::City => Population::Slab(
                PopulationBuilder::new()
                    .households(cells * households)
                    .build_slab(self.seed),
            ),
            // Cell seeds spread by an odd multiplier: `seed ^ cell` would
            // hand nearby seeds the same cell populations in another order.
            _ => Population::Cells(
                (0..cells as u64)
                    .map(|c| {
                        PopulationBuilder::new().households(households).build(
                            self.seed
                                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                                .wrapping_add(c),
                        )
                    })
                    .collect(),
            ),
        }
    }

    /// Configures every cell's campaign and assembles the fleet. `build`
    /// receives each cell's index and configured builder and must call
    /// [`CampaignBuilder::build`], so callers can time or trace it.
    pub fn fleet<'a>(
        &'a self,
        population: &'a Population,
        threads: NonZeroUsize,
        build: &mut dyn FnMut(usize, CampaignBuilder<'a>) -> CampaignRunner<'a>,
    ) -> FleetRunner<'a> {
        let fleet = FleetRunner::new().threads(threads);
        match population {
            Population::Slab(slab) => fleet.sharded_slab(slab, self.shape.cells, |shard, i| {
                let builder = CampaignBuilder::new_ref(shard, &self.weather, &self.horizon);
                build(i, self.configure(builder))
            }),
            Population::Cells(cells) => {
                cells.iter().enumerate().fold(fleet, |fleet, (i, homes)| {
                    let builder = CampaignBuilder::new(homes, &self.weather, &self.horizon);
                    fleet.cell(format!("cell{i}"), build(i, self.configure(builder)))
                })
            }
        }
    }

    fn configure<'a>(&self, builder: CampaignBuilder<'a>) -> CampaignBuilder<'a> {
        let builder = builder
            .warmup_days(self.shape.warmup)
            .report_tier(self.workload.tier());
        match self.workload {
            Workload::City => builder
                .predictor(FixedPredictor(MovingAverage::new(2)))
                .feedback(ClosedLoop),
            Workload::Adaptive => builder
                .predictor(RollingWindow::standard(6, 2))
                .feedback(RenegotiateResidual::new(2, 0.005))
                .tuning(AdaptiveTuning)
                .stop_rule(MarginalCostStop),
            Workload::Faulty => builder
                .predictor(FixedPredictor(WeatherRegression::calibrated()))
                .feedback(ClosedLoop)
                .ua_config(patient_ua())
                .execution(FaultClass::Drop.mode(self.seed)),
            Workload::FullTrace => builder
                .predictor(FixedPredictor(WeatherRegression::calibrated()))
                .feedback(ClosedLoop)
                .ua_config(patient_ua()),
        }
    }
}

/// A gentle β, a fine convergence threshold and a tight overuse ceiling
/// stretch every negotiation over many small concession rounds — the
/// regime where the engine, the transport and the full-trace report
/// carry the season.
fn patient_ua() -> UtilityAgentConfig {
    UtilityAgentConfig {
        beta_policy: BetaPolicy::Constant { beta: 0.5 },
        max_allowed_overuse: 0.02,
        formula: RewardFormula {
            beta: 0.5,
            max_reward: Money(60.0),
            epsilon: Money(0.05),
        },
        ..UtilityAgentConfig::paper()
    }
}
