//! Policy-driven negotiation campaigns: negotiate the peaks that
//! `powergrid` predicts, day by day, with feedback.
//!
//! The paper's premise is a *daily cycle*: the Utility Agent predicts
//! tomorrow's balance, negotiates the peaks that warrant the effort
//! (§5.1.2), and the settled cut-downs change the consumption the next
//! prediction is trained on. A campaign is that cycle over a calendar
//! [`Horizon`], configured by a fluent [`CampaignBuilder`] and three
//! pluggable policies:
//!
//! * **[`PredictorPolicy`]** — which [`LoadPredictor`] forecasts each
//!   day: a fixed model ([`FixedPredictor`]) or one picked per campaign
//!   from warmup accuracy by rolling backtest ([`BacktestSelected`],
//!   via [`powergrid::prediction::select_best`]);
//! * **[`FeedbackPolicy`]** — what enters prediction history: the
//!   simulated actuals untouched ([`OpenLoop`]) or with each day's
//!   negotiated cut-downs applied ([`ClosedLoop`]), so predictors train
//!   on post-negotiation consumption and later days depend on earlier
//!   outcomes;
//! * **[`StopPolicy`]** — when the UA stops raising reward tables:
//!   never before its protocol rules fire ([`Unconditional`]) or as
//!   soon as the next table would cost more than the expensive
//!   production still avoidable ([`MarginalCostStop`], priced through
//!   [`ProducerAgent::peak_saving_value`]).
//!
//! The [`CampaignRunner`] produced by [`CampaignBuilder::build`]
//! executes days **sequentially** (closed-loop feedback makes day *d*
//! depend on day *d − 1*), so only campaigns run in parallel:
//! [`CampaignRunner::run`] is a one-cell
//! [`FleetRunner`](crate::fleet::FleetRunner) — one queue entry, which
//! one worker runs day by day — and re-running it replays the same
//! bytes. To run *many* campaigns on one set of workers, make them
//! cells of a `FleetRunner`, whose queue steps each one day at a time
//! through [`CampaignRunner::progress`] and is byte-identical to
//! running the cells one after another.
//! Everything else about how a campaign runs — its report tier and
//! execution mode included — is set once, on its builder.
//!
//! ```
//! use loadbal_core::campaign::{CampaignBuilder, ClosedLoop, FixedPredictor};
//! use powergrid::calendar::Horizon;
//! use powergrid::population::PopulationBuilder;
//! use powergrid::prediction::MovingAverage;
//! use powergrid::weather::{Season, WeatherModel};
//!
//! let homes = PopulationBuilder::new().households(60).build(7);
//! let horizon = Horizon::new(6, 0, Season::Winter);
//! let runner = CampaignBuilder::new(&homes, &WeatherModel::winter(), &horizon)
//!     .predictor(FixedPredictor(MovingAverage::new(3)))
//!     .feedback(ClosedLoop)
//!     .build();
//! let report = runner.run();
//! assert_eq!(report.negotiations(), report.outcomes.len());
//! assert_eq!(report, runner.run()); // a pure replay
//! ```

use crate::adaptive::{RenegotiationRule, StaticTuning, TuningPolicy};
use crate::beta::BetaPolicy;
use crate::execution::{peak_seed, ExecutionMode, NetworkTraffic};
use crate::producer_agent::ProducerAgent;
use crate::session::{NegotiationReport, ReportTier, Scenario, ScenarioBuilder};
use crate::sync_driver::NegotiationScratch;
use crate::utility_agent::own_process_control::OwnProcessControl;
use crate::utility_agent::{EconomicStopRule, UtilityAgentConfig};
use powergrid::calendar::{CalendarDay, Horizon};
use powergrid::demand::simulate_horizon;
use powergrid::household::Household;
use powergrid::peak::{Peak, PeakDetector};
use powergrid::prediction::{
    select_best, HoltTrend, LoadPredictor, MovingAverage, SeasonalNaive, WeatherRegression,
};
use powergrid::production::ProductionModel;
use powergrid::series::Series;
use powergrid::slab::{DemandScratch, PopulationSlab, SlabView};
use powergrid::time::TimeAxis;
use powergrid::units::{KilowattHours, Kilowatts, Money, PricePerKwh};
use powergrid::weather::WeatherModel;
use std::borrow::Cow;
use std::cell::Cell;
use std::fmt;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::OnceLock;

// ---------------------------------------------------------------------
// Policies
// ---------------------------------------------------------------------

/// Chooses the campaign's load predictor from its warmup window.
///
/// Policies are `Send + Sync` so a fleet can drive many campaigns from
/// shared worker threads.
pub trait PredictorPolicy: fmt::Debug + Send + Sync {
    /// Warmup days the policy needs before it can choose (validated by
    /// [`CampaignBuilder::build`]).
    fn min_warmup_days(&self) -> usize {
        1
    }

    /// Chooses the predictor from the warmup window (`actuals` and
    /// `weathers` hold exactly the warmup days, oldest first).
    fn choose<'s>(&'s self, actuals: &[Series], weathers: &[Series]) -> &'s dyn LoadPredictor;

    /// Re-considers the choice at a day boundary, after `days_evaluated`
    /// post-warmup days have completed. `history` holds the campaign's
    /// feedback-adjusted prediction history (warmup plus evaluated days,
    /// oldest first) and `weathers` the aligned weather series. `None`
    /// keeps the current predictor; the default policy never re-selects
    /// — [`crate::adaptive::RollingWindow`] closes this loop.
    ///
    /// Called in the sequential day boundary, never inside a day's
    /// negotiations, so re-selection cannot perturb byte-identity across
    /// thread counts or execution modes.
    fn reselect<'s>(
        &'s self,
        days_evaluated: usize,
        history: &[Series],
        weathers: &[Series],
    ) -> Option<&'s dyn LoadPredictor> {
        let _ = (days_evaluated, history, weathers);
        None
    }
}

/// The trivial predictor policy: always the given model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedPredictor<P: LoadPredictor>(pub P);

impl<P: LoadPredictor> PredictorPolicy for FixedPredictor<P> {
    fn choose<'s>(&'s self, _actuals: &[Series], _weathers: &[Series]) -> &'s dyn LoadPredictor {
        &self.0
    }
}

/// Picks the campaign predictor by rolling backtest over the warmup
/// window: the first half of the warmup seeds each candidate, the rest
/// scores it, and the lowest mean MAPE wins (ties to the earliest
/// candidate — selection is deterministic).
#[derive(Debug)]
pub struct BacktestSelected {
    candidates: Vec<Box<dyn LoadPredictor>>,
}

impl BacktestSelected {
    /// A policy choosing among the given candidates.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn new(candidates: Vec<Box<dyn LoadPredictor>>) -> BacktestSelected {
        assert!(
            !candidates.is_empty(),
            "backtest selection needs at least one candidate"
        );
        BacktestSelected { candidates }
    }

    /// The standard candidate set: moving average, seasonal naïve,
    /// calibrated weather regression, and Holt's linear trend.
    pub fn standard() -> BacktestSelected {
        BacktestSelected::new(vec![
            Box::new(MovingAverage::new(3)),
            Box::new(SeasonalNaive),
            Box::new(WeatherRegression::calibrated()),
            Box::new(HoltTrend::new(0.5, 0.2)),
        ])
    }

    /// The candidate models.
    pub fn candidates(&self) -> &[Box<dyn LoadPredictor>] {
        &self.candidates
    }
}

impl PredictorPolicy for BacktestSelected {
    fn min_warmup_days(&self) -> usize {
        2 // the backtest needs a split: seed days plus scored days
    }

    fn choose<'s>(&'s self, actuals: &[Series], weathers: &[Series]) -> &'s dyn LoadPredictor {
        let refs: Vec<&dyn LoadPredictor> = self.candidates.iter().map(|b| b.as_ref()).collect();
        let split = (actuals.len() / 2).max(1);
        select_best(&refs, actuals, weathers, split)
            .expect("warmup length validated by CampaignBuilder::build")
    }
}

/// Decides what a day's consumption looks like once its negotiations
/// have settled — the series appended to prediction history.
///
/// Policies are `Send + Sync` so a fleet can drive many campaigns from
/// shared worker threads.
pub trait FeedbackPolicy: fmt::Debug + Send + Sync {
    /// The history entry for a day, given the day's simulated actual
    /// series and its negotiated outcomes (empty on stable days).
    fn history_entry(&self, actual: &Series, outcomes: &[IntervalOutcome]) -> Series;

    /// Whether (and how) the campaign revisits residual overuse the
    /// same day: `Some(rule)` makes the day loop re-detect peaks on the
    /// post-negotiation predicted profile after each pass and
    /// renegotiate them before the calendar advances, for at most
    /// `rule.max_passes` extra passes. The default never renegotiates —
    /// [`crate::adaptive::RenegotiateResidual`] closes this loop.
    fn renegotiate(&self) -> Option<RenegotiationRule> {
        None
    }
}

/// Open loop: prediction history holds the simulated actuals untouched,
/// as if no customer implemented a cut-down (the pre-feedback campaign
/// behaviour).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenLoop;

impl FeedbackPolicy for OpenLoop {
    fn history_entry(&self, actual: &Series, _outcomes: &[IntervalOutcome]) -> Series {
        actual.clone()
    }
}

/// Closed loop: each negotiated peak's aggregate cut
/// ([`NegotiationReport::shaved_fraction`]) is applied to the day's
/// actual consumption over the peak interval before the day enters
/// prediction history — predictors train on post-negotiation
/// consumption, so the next day's forecast reflects the deals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClosedLoop;

impl FeedbackPolicy for ClosedLoop {
    fn history_entry(&self, actual: &Series, outcomes: &[IntervalOutcome]) -> Series {
        let mut entry = actual.clone();
        let len = entry.len();
        for o in outcomes {
            let keep = 1.0 - o.report.shaved_fraction();
            for i in o
                .peak
                .interval
                .intersect(powergrid::time::Interval::new(0, len))
            {
                entry.values_mut()[i] *= keep;
            }
        }
        entry
    }
}

/// Decides whether the Utility Agent negotiates each peak to the
/// protocol's own end or under an economic stop rule.
///
/// Policies are `Send + Sync` so a fleet can drive many campaigns from
/// shared worker threads.
pub trait StopPolicy: fmt::Debug + Send + Sync {
    /// The stop rule injected into the UA configuration, priced against
    /// the campaign's producer (`None` = unconditional).
    fn economic_stop(&self, producer: &ProducerAgent) -> Option<EconomicStopRule>;
}

/// Negotiate every peak to the protocol's own termination rules — the
/// paper's prototype behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Unconditional;

impl StopPolicy for Unconditional {
    fn economic_stop(&self, _producer: &ProducerAgent) -> Option<EconomicStopRule> {
        None
    }
}

/// Stop raising reward tables once the next table — priced at the bids
/// customers have already committed to — would cost more than the
/// expensive production still avoidable, valued at the producer's cost
/// spread ([`ProducerAgent::peak_saving_value`]). Stopped negotiations
/// settle on the current table and count as converged
/// ([`crate::concession::TerminationReason::EconomicStop`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MarginalCostStop;

impl StopPolicy for MarginalCostStop {
    fn economic_stop(&self, producer: &ProducerAgent) -> Option<EconomicStopRule> {
        Some(EconomicStopRule::for_producer(producer))
    }
}

// ---------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------

/// Normal production capacity as a fraction of the highest per-slot
/// demand observed during warmup — below 1.0, so days like the warmup
/// days peak above the capacity line.
const CAPACITY_FACTOR: f64 = 0.90;

/// Minimum overuse fraction that makes a peak worth negotiating.
const PEAK_THRESHOLD: f64 = 0.02;

/// A campaign's households: a range of a borrowed slab (a zero-copy
/// fleet shard) or of one converted once from [`Household`]s.
#[derive(Debug)]
struct Population<'a> {
    slab: Cow<'a, PopulationSlab>,
    households: Range<usize>,
}

impl Population<'_> {
    fn view(&self) -> SlabView<'_> {
        self.slab
            .view_range(self.households.start, self.households.end)
    }
}

/// Fluent configuration of a campaign; [`CampaignBuilder::build`]
/// validates it and produces a ready [`CampaignRunner`].
#[derive(Debug)]
pub struct CampaignBuilder<'a> {
    population: Population<'a>,
    weather_model: WeatherModel,
    horizon: Horizon,
    warmup_days: usize,
    ua_config: UtilityAgentConfig,
    report_tier: ReportTier,
    execution: ExecutionMode,
    normal_cost: PricePerKwh,
    expensive_cost: PricePerKwh,
    predictor: Box<dyn PredictorPolicy + 'a>,
    feedback: Box<dyn FeedbackPolicy + 'a>,
    stop: Box<dyn StopPolicy + 'a>,
    tuning: Box<dyn TuningPolicy + 'a>,
}

impl<'a> CampaignBuilder<'a> {
    /// A builder with the campaign defaults: three warmup days, the
    /// grid-recalibrated paper UA configuration (the
    /// campaign UA negotiates until the peak is back *under the capacity
    /// line* — `max_allowed_overuse` 0, since grid peaks are a few
    /// percent of capacity, far below the Figure-6 scenario's 15 %
    /// tolerance — and β rescaled to 14 for the ~5 % overuse a real
    /// peak carries, because the §6 increment is β·overuse·… and the
    /// paper β saturates below ε before rewards ever move), a
    /// calibrated weather-regression predictor, open-loop
    /// feedback and unconditional negotiation. Every peak negotiates
    /// with reward tables, the method [`MarginalCostStop`] and
    /// [`OwnProcessControl::tune`] act on. Every campaign simulates
    /// quarter-hour slots, sizes normal capacity at 90 % of the warmup
    /// peak and negotiates peaks whose overuse is at least 2 %.
    ///
    /// The households are converted once into an owned
    /// [`PopulationSlab`] (through [`PopulationSlab::from_households`]),
    /// the only population representation a campaign reads; use
    /// [`CampaignBuilder::new_ref`] to run over a slab that already
    /// exists without copying it.
    pub fn new(
        households: &[Household],
        weather_model: &WeatherModel,
        horizon: &Horizon,
    ) -> CampaignBuilder<'a> {
        let slab = PopulationSlab::from_households(households);
        let population = Population {
            households: 0..slab.len(),
            slab: Cow::Owned(slab),
        };
        CampaignBuilder::over(population, weather_model, horizon)
    }

    /// [`CampaignBuilder::new`] over a borrowed [`SlabView`] — a whole
    /// [`PopulationSlab`] (`slab.view()`) or one zero-copy shard of it
    /// ([`FleetRunner::sharded_slab`](crate::fleet::FleetRunner::sharded_slab)):
    /// nothing is copied, and the campaign negotiates byte-identically
    /// to one built with [`CampaignBuilder::new`] from the same
    /// households.
    pub fn new_ref(
        population: SlabView<'a>,
        weather_model: &WeatherModel,
        horizon: &Horizon,
    ) -> CampaignBuilder<'a> {
        let (slab, households) = population.parts();
        let population = Population {
            slab: Cow::Borrowed(slab),
            households,
        };
        CampaignBuilder::over(population, weather_model, horizon)
    }

    /// The builder defaults over a resolved population.
    fn over(
        population: Population<'a>,
        weather_model: &WeatherModel,
        horizon: &Horizon,
    ) -> CampaignBuilder<'a> {
        CampaignBuilder {
            population,
            weather_model: weather_model.clone(),
            horizon: *horizon,
            warmup_days: 3,
            ua_config: UtilityAgentConfig::paper()
                .with_max_allowed_overuse(0.0)
                .with_beta_policy(BetaPolicy::constant(14.0)),
            report_tier: ReportTier::FullTrace,
            execution: ExecutionMode::Sync,
            normal_cost: ProductionModel::DEFAULT_NORMAL_COST,
            expensive_cost: ProductionModel::DEFAULT_EXPENSIVE_COST,
            predictor: Box::new(FixedPredictor(WeatherRegression::calibrated())),
            feedback: Box::new(OpenLoop),
            stop: Box::new(Unconditional),
            tuning: Box::new(StaticTuning),
        }
    }

    /// Days of history accumulated before the first prediction; must be
    /// at least one (and enough for the predictor policy) and smaller
    /// than the horizon.
    pub fn warmup_days(mut self, days: usize) -> Self {
        self.warmup_days = days;
        self
    }

    /// The Utility Agent configuration (a configured [`StopPolicy`] may
    /// still install its economic stop rule on top).
    pub fn ua_config(mut self, config: UtilityAgentConfig) -> Self {
        self.ua_config = config;
        self
    }

    /// How much of each negotiation the campaign's reports retain
    /// (default [`ReportTier::FullTrace`]). Lower tiers negotiate
    /// identically — every scalar in the report and economics is
    /// unchanged — but the per-round records (and, below `FullTrace`,
    /// the materialised scenarios) are streamed away at the source
    /// instead of accumulated, which is what makes season- and
    /// fleet-scale campaigns fit in memory. This is the only place the
    /// tier is chosen: a [`FleetRunner`](crate::fleet::FleetRunner)
    /// runs each cell at its builder's tier.
    pub fn report_tier(mut self, tier: ReportTier) -> Self {
        self.report_tier = tier;
        self
    }

    /// How each peak's negotiation actually executes (default
    /// [`ExecutionMode::Sync`]): the in-process pump, or one seeded run
    /// per peak over a simulated network. A
    /// distributed-*clean* campaign reports byte-identically to a sync
    /// one at every tier (the byte-identity suites pin this); a faulty
    /// network degrades the season measurably, with the wire activity
    /// accumulated as [`NetworkTraffic`] (see
    /// [`CampaignRunner::run_instrumented`]). This is the only place
    /// the mode is chosen: a [`FleetRunner`](crate::fleet::FleetRunner)
    /// runs each cell in its builder's mode, so one fleet may mix modes.
    pub fn execution(mut self, mode: ExecutionMode) -> Self {
        self.execution = mode;
        self
    }

    /// Production costs per kWh for the two tiers — the economics the
    /// producer agent reports and the stop rule prices against.
    ///
    /// # Panics
    ///
    /// Panics if `expensive` is below `normal` — checked by
    /// [`CampaignBuilder::build`], before any production model exists.
    pub fn production_costs(mut self, normal: PricePerKwh, expensive: PricePerKwh) -> Self {
        self.normal_cost = normal;
        self.expensive_cost = expensive;
        self
    }

    /// The predictor-selection policy.
    pub fn predictor(mut self, policy: impl PredictorPolicy + 'a) -> Self {
        self.predictor = Box::new(policy);
        self
    }

    /// The demand-feedback policy.
    pub fn feedback(mut self, policy: impl FeedbackPolicy + 'a) -> Self {
        self.feedback = Box::new(policy);
        self
    }

    /// The economic stop policy.
    pub fn stop_rule(mut self, policy: impl StopPolicy + 'a) -> Self {
        self.stop = Box::new(policy);
        self
    }

    /// The day-boundary tuning policy: how each completed day's
    /// settlement experience (recorded into the campaign's
    /// [`OwnProcessControl`]) shapes the *next* day's
    /// [`UtilityAgentConfig`]. The default [`StaticTuning`] keeps the
    /// built configuration all season;
    /// [`AdaptiveTuning`](crate::adaptive::AdaptiveTuning) closes the
    /// paper's §7 experience loop.
    pub fn tuning(mut self, policy: impl TuningPolicy + 'a) -> Self {
        self.tuning = Box::new(policy);
        self
    }

    /// Validates the configuration and produces the runner. Nothing is
    /// simulated here: the horizon's demand synthesis, the capacity
    /// sizing from the warmup days and the stop-rule pricing are
    /// deferred to the runner's first [`CampaignRunner::progress`] (or
    /// [`CampaignRunner::production`] / [`CampaignRunner::producer`] /
    /// [`CampaignRunner::ua_config`]) and memoised there — so a
    /// [`FleetRunner`](crate::fleet::FleetRunner) synthesises its cells
    /// in parallel on its workers.
    ///
    /// # Panics
    ///
    /// Panics if `households` is empty, `warmup_days` is zero or below
    /// the predictor policy's minimum, the horizon is not longer than
    /// the warmup, or the expensive production cost is below the normal
    /// cost. Every configuration panic fires here, never in the deferred
    /// synthesis.
    pub fn build(self) -> CampaignRunner<'a> {
        assert!(
            !self.population.view().is_empty(),
            "a campaign needs households"
        );
        assert!(self.warmup_days > 0, "prediction needs warmup history");
        assert!(
            self.horizon.len() as usize > self.warmup_days,
            "horizon of {} days leaves nothing to evaluate after {} warmup days",
            self.horizon.len(),
            self.warmup_days
        );
        assert!(
            self.warmup_days >= self.predictor.min_warmup_days(),
            "{:?} needs at least {} warmup days, got {}",
            self.predictor,
            self.predictor.min_warmup_days(),
            self.warmup_days
        );
        // The deferred `ProductionModel::with_costs` must not panic.
        assert!(
            self.expensive_cost >= self.normal_cost,
            "expensive production should not be cheaper than normal production"
        );

        CampaignRunner {
            population: self.population,
            weather_model: self.weather_model,
            horizon: self.horizon,
            axis: TimeAxis::quarter_hourly(),
            warmup_days: self.warmup_days,
            base_ua_config: self.ua_config,
            report_tier: self.report_tier,
            execution: self.execution,
            normal_cost: self.normal_cost,
            expensive_cost: self.expensive_cost,
            predictor: self.predictor,
            feedback: self.feedback,
            stop: self.stop,
            tuning: self.tuning,
            prepared: OnceLock::new(),
        }
    }
}

// ---------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------

/// A validated campaign ready to execute: the day-by-day
/// predict → detect → negotiate → feed-back cycle.
///
/// Days run sequentially (closed-loop feedback makes them dependent).
/// [`CampaignRunner::run`] runs the campaign as a one-cell
/// [`FleetRunner`](crate::fleet::FleetRunner), and as a cell of a
/// larger fleet it reports the same bytes. Runs are pure: re-running
/// produces byte-identical [`CampaignReport`]s.
///
/// The runner is cheap to build: the horizon's simulated demand and
/// weather, the producer sized from the warmup days and the UA
/// configuration with its stop rule installed are prepared once, by
/// whichever of [`CampaignRunner::progress`],
/// [`CampaignRunner::production`], [`CampaignRunner::producer`] or
/// [`CampaignRunner::ua_config`] comes first, and memoised for every
/// later call and run. Each day's curve is a pure function of
/// (population, weather model, day, axis), so *when* — and on which
/// thread — preparation happens never changes a byte.
#[derive(Debug)]
pub struct CampaignRunner<'a> {
    population: Population<'a>,
    weather_model: WeatherModel,
    horizon: Horizon,
    /// Slot resolution of the simulated days: quarter-hourly.
    axis: TimeAxis,
    warmup_days: usize,
    /// The builder's UA configuration, before the stop policy installs
    /// its rule (see [`Prepared::ua_config`]).
    base_ua_config: UtilityAgentConfig,
    report_tier: ReportTier,
    execution: ExecutionMode,
    normal_cost: PricePerKwh,
    expensive_cost: PricePerKwh,
    predictor: Box<dyn PredictorPolicy + 'a>,
    feedback: Box<dyn FeedbackPolicy + 'a>,
    stop: Box<dyn StopPolicy + 'a>,
    tuning: Box<dyn TuningPolicy + 'a>,
    /// Everything derived from the simulated horizon, built on first use.
    prepared: OnceLock<Prepared>,
}

/// A campaign's simulated horizon and what is sized from it — built
/// once per runner by [`CampaignRunner::prepared`].
#[derive(Debug)]
struct Prepared {
    /// Simulated demand per horizon day (kWh per slot).
    actuals: Vec<Series>,
    /// Temperature series per horizon day, aligned with `actuals`.
    weathers: Vec<Series>,
    /// Producer with capacity sized from the warmup days.
    producer: ProducerAgent,
    /// The UA configuration with the stop policy's rule installed.
    ua_config: UtilityAgentConfig,
}

impl CampaignRunner<'_> {
    /// The production model capacity was sized against (prepares the
    /// campaign on first call).
    pub fn production(&self) -> &ProductionModel {
        self.prepared().producer.production()
    }

    /// The producer agent pricing the campaign's economics (prepares
    /// the campaign on first call).
    pub fn producer(&self) -> &ProducerAgent {
        &self.prepared().producer
    }

    /// The Utility Agent configuration each peak is negotiated with
    /// (stop rule already installed; prepares the campaign on first
    /// call).
    pub fn ua_config(&self) -> &UtilityAgentConfig {
        &self.prepared().ua_config
    }

    /// The memoised preparation: simulates the horizon's demand, sizes
    /// capacity from the warmup days and prices the stop rule — on the
    /// first call only, on the calling thread.
    fn prepared(&self) -> &Prepared {
        self.prepared.get_or_init(|| {
            let (actuals, weathers): (Vec<Series>, Vec<Series>) = simulate_horizon(
                self.population.view(),
                &self.weather_model,
                &self.horizon,
                &self.axis,
            )
            .into_iter()
            .map(|(curve, weather)| (curve.into_series(), weather))
            .unzip();

            // Capacity sized from the warmup days' highest slot demand.
            let warmup_peak_kwh = actuals[..self.warmup_days]
                .iter()
                .map(|s| s.max())
                .fold(0.0f64, f64::max);
            let normal = Kilowatts(warmup_peak_kwh / self.axis.slot_hours() * CAPACITY_FACTOR);
            let producer = ProducerAgent::new(ProductionModel::with_costs(
                normal,
                self.normal_cost,
                self.expensive_cost,
            ));
            let ua_config = self
                .base_ua_config
                .with_economic_stop(self.stop.economic_stop(&producer));
            Prepared {
                actuals,
                weathers,
                producer,
                ua_config,
            }
        })
    }

    /// Runs the campaign as a one-cell
    /// [`FleetRunner`](crate::fleet::FleetRunner): one queue entry, which
    /// one worker — the calling thread — runs day by day, each day's
    /// peaks one after another through one reused
    /// [`NegotiationScratch`]. Re-running replays the same bytes. A
    /// panicking policy or negotiation resurfaces its original payload
    /// here.
    pub fn run(&self) -> CampaignReport {
        self.run_instrumented().0
    }

    /// [`CampaignRunner::run`] plus the season's accumulated
    /// [`NetworkTraffic`] — all-zero under [`ExecutionMode::Sync`],
    /// wire/drop/deadline counters under a distributed mode. The report
    /// is byte-identical to [`CampaignRunner::run`]'s; the traffic is
    /// deterministic for a given mode (order-independent sums over
    /// per-peak seeded simulations).
    pub fn run_instrumented(&self) -> (CampaignReport, NetworkTraffic) {
        crate::fleet::schedule(NonZeroUsize::MIN, &[self])
            .pop()
            .expect("one campaign, one result")
    }

    /// Begins stepping the campaign day by day — the resumable form of
    /// [`CampaignRunner::run`] that the
    /// [`FleetRunner`](crate::fleet::FleetRunner) queue interleaves with
    /// other campaigns, a day at a time, on one set of workers: call
    /// [`CampaignProgress::next_day`] for the day's negotiable work,
    /// negotiate the scenarios however you like, hand the reports back
    /// through [`CampaignProgress::complete_day`], and
    /// [`CampaignProgress::finish`] once `next_day` returns `None`.
    ///
    /// Stepping is pure bookkeeping: any driver that negotiates each
    /// scenario with [`DayPlan::negotiate`] produces a report
    /// byte-identical to [`CampaignRunner::run`].
    ///
    /// The first call (of this or a preparing accessor) also runs the
    /// campaign's deferred preparation — the whole horizon's demand
    /// synthesis — on the calling thread; later calls reuse it.
    pub fn progress(&self) -> CampaignProgress<'_> {
        let warmup = self.warmup_days;
        let prepared = self.prepared();
        CampaignProgress {
            runner: self,
            prepared,
            predictor: self
                .predictor
                .choose(&prepared.actuals[..warmup], &prepared.weathers[..warmup]),
            detector: PeakDetector::new(PEAK_THRESHOLD),
            history: prepared.actuals[..warmup].to_vec(),
            scratch: DemandScratch::new(&self.axis),
            next_index: warmup as u64,
            ua_config: prepared.ua_config,
            control: OwnProcessControl::new(),
            pending: None,
            outcomes: Vec::new(),
            days: Vec::new(),
            traffic: NetworkTraffic::ZERO,
        }
    }
}

// ---------------------------------------------------------------------
// Stepping
// ---------------------------------------------------------------------

/// One day's negotiable work, produced by [`CampaignProgress::next_day`]:
/// the detected peaks and their materialised scenarios (label +
/// [`Scenario`]), in time order. Days without peaks carry an empty
/// scenario list and are completed with no reports.
#[derive(Debug)]
pub struct DayPlan {
    day: CalendarDay,
    peaks: Vec<Peak>,
    scenarios: Vec<(String, Scenario)>,
    tier: ReportTier,
    mode: ExecutionMode,
    /// Scenarios already negotiated for this day by earlier passes —
    /// offsets the per-peak distributed seeds so a renegotiation pass
    /// never replays the primary pass's network randomness (zero for
    /// the primary plan, which keeps pre-adaptive seeds unchanged).
    seed_base: u64,
    /// Wire activity of this day's distributed negotiations, folded in
    /// by [`DayPlan::negotiate`]. A plan stays on the thread that
    /// negotiates it, so a [`Cell`] suffices, and `negotiate` keeps
    /// taking `&self`.
    traffic: Cell<NetworkTraffic>,
}

impl DayPlan {
    /// The calendar day this work belongs to.
    pub fn day(&self) -> CalendarDay {
        self.day
    }

    /// The labelled scenarios to negotiate, in peak order.
    pub fn scenarios(&self) -> &[(String, Scenario)] {
        &self.scenarios
    }

    /// True if the day is stable — nothing to negotiate.
    pub fn is_stable(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Negotiates scenario `index` of this plan through `scratch`,
    /// honouring the campaign's [`ExecutionMode`]: the in-process sync
    /// pump, or one seeded run over the mode's simulated network
    /// (its per-peak seed fixed by the plan's day and the scenario's
    /// position — never by which worker runs it). Distributed wire
    /// activity accumulates on the plan and reaches the campaign's
    /// [`NetworkTraffic`] when the plan is handed back through
    /// [`CampaignProgress::complete_day`].
    ///
    /// The fleet queue behind [`CampaignRunner::run`] and
    /// [`FleetRunner::run`](crate::fleet::FleetRunner::run) negotiates
    /// through this method, as should any external stepper, so the mode
    /// is honoured everywhere.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range of
    /// [`DayPlan::scenarios`].
    pub fn negotiate(&self, index: usize, scratch: &mut NegotiationScratch) -> NegotiationReport {
        let (_, scenario) = &self.scenarios[index];
        match &self.mode {
            ExecutionMode::Sync => scratch.run(scenario, self.tier),
            ExecutionMode::Distributed {
                network,
                deadline,
                seed,
            } => {
                let outcome = scratch.run_distributed(
                    scenario,
                    self.tier,
                    network,
                    peak_seed(*seed, self.day.index, self.seed_base + index as u64),
                    *deadline,
                );
                self.traffic.set(self.traffic.get() + outcome.traffic);
                outcome.report
            }
        }
    }
}

/// A campaign in flight: the predict → detect → materialise → feed-back
/// bookkeeping of [`CampaignRunner::run`], exposed one day at a time so
/// the fleet's queue can interleave the days of many campaigns while
/// each campaign's days stay strictly sequential.
///
/// One [`DemandScratch`] lives inside the progress and is reused across
/// every household of every peak of every day — the campaign's scenario
/// derivation allocates no per-device series.
///
/// The progress also owns the campaign's **adaptive state** — the
/// current [`UtilityAgentConfig`], the [`OwnProcessControl`] recording
/// every settlement, the live predictor and any staged renegotiation
/// pass. All of it advances only inside
/// [`CampaignProgress::complete_day`], i.e. in the sequential day
/// boundary, which is why adaptive campaigns stay byte-identical across
/// thread counts and execution modes.
#[derive(Debug)]
pub struct CampaignProgress<'r> {
    runner: &'r CampaignRunner<'r>,
    /// The runner's prepared horizon (demand, weather, producer).
    prepared: &'r Prepared,
    predictor: &'r dyn LoadPredictor,
    detector: PeakDetector,
    history: Vec<Series>,
    scratch: DemandScratch,
    next_index: u64,
    /// The UA configuration the *next* plan's scenarios negotiate with —
    /// starts as the runner's and drifts under the tuning policy.
    ua_config: UtilityAgentConfig,
    /// Evaluation of every settlement completed so far (the paper's own
    /// process control), fed to the tuning policy at each day boundary.
    control: OwnProcessControl,
    /// The calendar day whose passes are still in flight — holds the
    /// day's predicted profile, accumulated outcomes and any staged
    /// renegotiation peaks until the day is finalised.
    pending: Option<PendingDay>,
    outcomes: Vec<IntervalOutcome>,
    days: Vec<DayOutcome>,
    traffic: NetworkTraffic,
}

/// Bookkeeping for the day currently being negotiated: created by
/// [`CampaignProgress::next_day`] when the calendar advances, grown by
/// each completed pass, consumed when the day finalises.
#[derive(Debug)]
struct PendingDay {
    day: CalendarDay,
    /// The profile the day's peaks were detected on — renegotiation
    /// re-detects on this series with the settled cut-downs applied.
    predicted: Series,
    outcomes: Vec<IntervalOutcome>,
    peaks: Vec<Peak>,
    /// Negotiation passes completed for this day (primary included).
    passes_done: usize,
    /// Residual peaks staged for the next renegotiation pass, each with
    /// the fraction of the originally predicted interval energy still
    /// standing (the pass's demand scale).
    staged: Vec<(Peak, f64)>,
}

impl CampaignProgress<'_> {
    /// Predicts, detects and materialises the next day's work, or `None`
    /// once the horizon is exhausted. Each returned plan must be handed
    /// back through [`CampaignProgress::complete_day`] before the next
    /// call.
    ///
    /// When the feedback policy renegotiates
    /// ([`FeedbackPolicy::renegotiate`]) and the previous pass left
    /// residual peaks staged, the returned plan is a **renegotiation
    /// pass over the same calendar day** (labels carry a `#r<pass>`
    /// suffix) rather than the next day — external drivers need no
    /// special handling, pass plans flow through the same
    /// negotiate/complete cycle.
    pub fn next_day(&mut self) -> Option<DayPlan> {
        if let Some(plan) = self.next_pass_plan() {
            return Some(plan);
        }
        let day = self.runner.horizon.day(self.next_index)?;
        self.next_index += 1;
        let d = day.index as usize;
        let predicted = self
            .predictor
            .predict(&self.history, &self.prepared.weathers[d]);
        let peaks = self
            .detector
            .detect_all(&predicted, self.prepared.producer.production());
        self.pending = Some(PendingDay {
            day,
            predicted,
            outcomes: Vec::new(),
            peaks: Vec::new(),
            passes_done: 0,
            staged: Vec::new(),
        });
        Some(self.plan(day, peaks, std::iter::repeat(1.0), self.ua_config, "", 0))
    }

    /// Materialises the staged renegotiation pass, if any: the residual
    /// peaks re-detected by the last [`CampaignProgress::complete_day`],
    /// each scenario scaled down to the demand still standing after the
    /// passes already settled, negotiated against the current UA
    /// configuration with the rule's threshold as the allowed-overuse
    /// band (so a completed pass leaves nothing it would re-detect).
    fn next_pass_plan(&mut self) -> Option<DayPlan> {
        let (day, pass, seed_base, staged) = self.pending.as_mut().and_then(|p| {
            if p.staged.is_empty() {
                None
            } else {
                Some((
                    p.day,
                    p.passes_done,
                    p.outcomes.len() as u64,
                    std::mem::take(&mut p.staged),
                ))
            }
        })?;
        let rule = self
            .runner
            .feedback
            .renegotiate()
            .expect("staged residual peaks imply a renegotiation rule");
        let config = self.ua_config.with_max_allowed_overuse(rule.threshold);
        let (peaks, scales): (Vec<Peak>, Vec<f64>) = staged.into_iter().unzip();
        let suffix = format!("#r{pass}");
        Some(self.plan(day, peaks, scales, config, &suffix, seed_base))
    }

    /// One pass over `day`'s `peaks`: each peak's scenario materialised
    /// at its demand scale (a factor on the day type's intensity; 1.0 on
    /// the primary pass) and negotiated with `config`, labelled
    /// `day<index>/<interval>` plus `suffix`.
    fn plan(
        &mut self,
        day: CalendarDay,
        peaks: Vec<Peak>,
        scales: impl IntoIterator<Item = f64>,
        config: UtilityAgentConfig,
        suffix: &str,
        seed_base: u64,
    ) -> DayPlan {
        let d = day.index as usize;
        let scenarios = peaks
            .iter()
            .zip(scales)
            .map(|(peak, scale)| {
                let scenario = ScenarioBuilder::from_peak(
                    self.runner.population.view(),
                    &self.runner.axis,
                    self.prepared.weathers[d].mean(),
                    peak,
                    day.index,
                    day.day_type.intensity_factor() * scale,
                    &mut self.scratch,
                )
                .config(config)
                .build();
                (
                    format!("day{}/{}{suffix}", day.index, peak.interval),
                    scenario,
                )
            })
            .collect();
        DayPlan {
            day,
            peaks,
            scenarios,
            tier: self.runner.report_tier,
            mode: self.runner.execution.clone(),
            seed_base,
            traffic: Cell::new(NetworkTraffic::ZERO),
        }
    }

    /// The Utility Agent configuration the next plan's scenarios will
    /// negotiate with — the runner's until a tuning policy moves it.
    pub fn ua_config(&self) -> &UtilityAgentConfig {
        &self.ua_config
    }

    /// Records a completed pass: `reports` must hold one
    /// [`NegotiationReport`] per plan scenario, in plan order. Every
    /// settlement is evaluated into the campaign's
    /// [`OwnProcessControl`]; then either a renegotiation pass is staged
    /// (residual peaks re-detected on the post-negotiation profile, see
    /// [`FeedbackPolicy::renegotiate`]) or the day finalises — feedback
    /// enters prediction history, the tuning policy shapes the next
    /// day's UA configuration and the predictor policy may re-select.
    ///
    /// # Panics
    ///
    /// Panics if `reports.len()` differs from `plan.scenarios().len()`.
    pub fn complete_day(&mut self, plan: DayPlan, reports: Vec<NegotiationReport>) {
        assert_eq!(
            reports.len(),
            plan.scenarios.len(),
            "one report per scenario of the day plan"
        );
        let DayPlan {
            day,
            peaks,
            scenarios,
            tier,
            traffic,
            ..
        } = plan;
        self.traffic += traffic.into_inner();
        let day_outcomes: Vec<IntervalOutcome> = scenarios
            .into_iter()
            .zip(reports)
            .zip(&peaks)
            .map(|(((label, scenario), report), peak)| IntervalOutcome {
                day,
                peak: *peak,
                label,
                // The materialised scenario (its customer profiles
                // dominate an outcome's footprint) is only worth
                // carrying when the full trace is: the digest already
                // holds everything feedback and economics read.
                scenario: tier.keeps_rounds().then(|| Box::new(scenario)),
                report,
            })
            .collect();
        for o in &day_outcomes {
            self.control.record(&o.report);
        }
        let pass_shaved = day_outcomes
            .iter()
            .any(|o| o.report.energy_shaved().value() > 1e-9);
        let pending = self
            .pending
            .as_mut()
            .expect("complete_day follows next_day");
        debug_assert_eq!(pending.day, day, "plans complete in order");
        pending.outcomes.extend(day_outcomes);
        pending.peaks.extend(peaks);
        pending.passes_done += 1;

        // Loop 2: stage an intra-day renegotiation pass while the rule
        // allows one, the last pass still moved energy, and the settled
        // cut-downs leave residual peaks on the predicted profile.
        if let Some(rule) = self.runner.feedback.renegotiate() {
            if pass_shaved && pending.passes_done <= rule.max_passes {
                let residual = ClosedLoop.history_entry(&pending.predicted, &pending.outcomes);
                let staged: Vec<(Peak, f64)> = PeakDetector::new(rule.threshold)
                    .detect_all(&residual, self.prepared.producer.production())
                    .into_iter()
                    .filter_map(|peak| {
                        let before = pending.predicted.energy_over(peak.interval).value();
                        let after = residual.energy_over(peak.interval).value();
                        // Only renegotiate intervals that still carry
                        // real demand; the scale re-materialises the
                        // households at the consumption still standing.
                        (before > 1e-9 && after > 1e-9)
                            .then(|| (peak, (after / before).clamp(1e-6, 1.0)))
                    })
                    .collect();
                if !staged.is_empty() {
                    pending.staged = staged;
                    return; // next_day serves the pass before the calendar moves
                }
            }
        }

        // The day is settled: apply feedback and close the day boundary.
        let done = self.pending.take().expect("pending day just updated");
        let d = day.index as usize;
        let entry = self
            .runner
            .feedback
            .history_entry(&self.prepared.actuals[d], &done.outcomes);
        let feedback_delta =
            (self.prepared.actuals[d].total() - entry.total()).clamp_non_negative();
        let negotiated = !done.outcomes.is_empty();
        self.history.push(entry);
        let mut peaks = done.peaks;
        peaks.shrink_to_fit();
        self.days.push(DayOutcome {
            day,
            predictor: self.predictor.name(),
            peaks,
            feedback_delta,
        });
        self.outcomes.extend(done.outcomes);

        // Loop 1: tomorrow's UA configuration from today's experience —
        // only when the day brought new experience, so stable days
        // cannot compound an adjustment out of stale evaluations.
        if negotiated {
            self.ua_config = self
                .runner
                .tuning
                .next_config(&self.control, &self.ua_config);
        }
        // Loop 3: the predictor policy may re-select on the updated
        // feedback-adjusted history.
        if let Some(p) = self.runner.predictor.reselect(
            self.days.len(),
            &self.history,
            &self.prepared.weathers[..self.history.len()],
        ) {
            self.predictor = p;
        }
    }

    /// The [`NetworkTraffic`] accumulated over the days completed so
    /// far — all-zero for a sync campaign. Read before
    /// [`CampaignProgress::finish`].
    pub fn traffic(&self) -> NetworkTraffic {
        self.traffic
    }

    /// Assembles the finished [`CampaignReport`], its vectors trimmed to
    /// their length (a season's report outlives the campaign that grew
    /// it).
    ///
    /// Call after [`CampaignProgress::next_day`] returns `None`; calling
    /// earlier yields a report over the days completed so far.
    pub fn finish(mut self) -> CampaignReport {
        let economics =
            CampaignEconomics::compute(&self.outcomes, &self.prepared.producer, self.runner.axis);
        self.outcomes.shrink_to_fit();
        self.days.shrink_to_fit();
        CampaignReport {
            outcomes: self.outcomes,
            days: self.days,
            economics,
        }
    }
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

/// One evaluated day of the campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct DayOutcome {
    /// The calendar day.
    pub day: CalendarDay,
    /// The predictor that forecast this day (the campaign's choice).
    pub predictor: &'static str,
    /// Peaks detected in the day's predicted demand, in time order.
    pub peaks: Vec<Peak>,
    /// Energy the feedback policy removed from this day's actual series
    /// before it entered prediction history (zero open-loop).
    pub feedback_delta: KilowattHours,
}

/// The result of negotiating one detected peak.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalOutcome {
    /// The day the peak fell on.
    pub day: CalendarDay,
    /// The peak that triggered the negotiation.
    pub peak: Peak,
    /// The sweep-cell label (`day<i>/<interval>`).
    pub label: String,
    /// The materialised scenario (physically grounded customer
    /// profiles) — retained only at
    /// [`ReportTier::FullTrace`]. Boxed, so the tiers that drop it pay
    /// one pointer per outcome rather than an inline scenario.
    pub scenario: Option<Box<Scenario>>,
    /// The negotiation's report, at the campaign's tier.
    pub report: NegotiationReport,
}

impl IntervalOutcome {
    /// Energy the negotiation took out of this peak interval.
    pub fn energy_shaved(&self) -> KilowattHours {
        self.report.energy_shaved()
    }

    /// Copies this outcome down to `tier` (see
    /// [`NegotiationReport::at_tier`]): the report is downgraded and the
    /// scenario dropped below
    /// [`ReportTier::FullTrace`].
    pub fn at_tier(&self, tier: ReportTier) -> IntervalOutcome {
        IntervalOutcome {
            day: self.day,
            peak: self.peak,
            label: self.label.clone(),
            scenario: if tier.keeps_rounds() {
                self.scenario.clone()
            } else {
                None
            },
            report: self.report.at_tier(tier),
        }
    }

    /// True if the marginal-cost stop rule ended this negotiation.
    fn stopped_economically(&self) -> bool {
        self.report.status()
            == crate::concession::NegotiationStatus::Converged(
                crate::concession::TerminationReason::EconomicStop,
            )
    }
}

/// Stop-rule accounting for a campaign, priced by its producer agent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignEconomics {
    /// Total reward outlay across every negotiated peak.
    pub rewards_paid: Money,
    /// Total energy shaved out of the peaks.
    pub energy_shaved: KilowattHours,
    /// Production cost avoided by not serving the shaved overuse at the
    /// expensive tier ([`ProducerAgent::cost_of_energy`] before minus
    /// after, per peak) — gross, before the forgone normal-rate revenue
    /// of the unsold energy.
    pub production_cost_avoided: Money,
    /// The shaved overuse priced at the producer's cost spread
    /// ([`ProducerAgent::peak_saving_value`]) — the *same* per-kWh value
    /// the marginal-cost stop rule negotiates against, so stop decisions
    /// and report accounting agree.
    pub peak_saving: Money,
    /// Peak saving minus rewards paid.
    pub net_gain: Money,
    /// Negotiations the marginal-cost stop rule ended.
    pub economic_stops: usize,
}

impl CampaignEconomics {
    fn compute(outcomes: &[IntervalOutcome], producer: &ProducerAgent, axis: TimeAxis) -> Self {
        let mut rewards_paid = Money::ZERO;
        let mut energy_shaved = KilowattHours::ZERO;
        let mut production_cost_avoided = Money::ZERO;
        let mut overuse_removed = KilowattHours::ZERO;
        let mut economic_stops = 0;
        for o in outcomes {
            rewards_paid += o.report.total_rewards();
            energy_shaved += o.energy_shaved();
            let hours = o.peak.interval.hours(axis);
            let before =
                producer.cost_of_energy(o.report.normal_use() + o.report.initial_overuse(), hours);
            let after =
                producer.cost_of_energy(o.report.normal_use() + o.report.final_overuse(), hours);
            production_cost_avoided += (before - after).clamp_non_negative();
            overuse_removed +=
                (o.report.initial_overuse() - o.report.final_overuse()).clamp_non_negative();
            if o.stopped_economically() {
                economic_stops += 1;
            }
        }
        let peak_saving = overuse_removed * producer.peak_saving_value();
        CampaignEconomics {
            rewards_paid,
            energy_shaved,
            production_cost_avoided,
            peak_saving,
            net_gain: peak_saving - rewards_paid,
            economic_stops,
        }
    }
}

impl CampaignEconomics {
    /// The zero element — what an empty campaign (or empty fleet) sums
    /// to.
    pub const ZERO: CampaignEconomics = CampaignEconomics {
        rewards_paid: Money::ZERO,
        energy_shaved: KilowattHours::ZERO,
        production_cost_avoided: Money::ZERO,
        peak_saving: Money::ZERO,
        net_gain: Money::ZERO,
        economic_stops: 0,
    };
}

impl std::iter::Sum for CampaignEconomics {
    /// Field-wise aggregation — how a
    /// [`FleetReport`](crate::fleet::FleetReport) rolls per-cell
    /// economics up to the fleet (each cell's savings stay priced by its
    /// own producer).
    fn sum<I: Iterator<Item = CampaignEconomics>>(iter: I) -> CampaignEconomics {
        iter.fold(CampaignEconomics::ZERO, |acc, e| CampaignEconomics {
            rewards_paid: acc.rewards_paid + e.rewards_paid,
            energy_shaved: acc.energy_shaved + e.energy_shaved,
            production_cost_avoided: acc.production_cost_avoided + e.production_cost_avoided,
            peak_saving: acc.peak_saving + e.peak_saving,
            net_gain: acc.net_gain + e.net_gain,
            economic_stops: acc.economic_stops + e.economic_stops,
        })
    }
}

/// Aggregate result of a day- or season-campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// One outcome per negotiated peak, in day order.
    pub outcomes: Vec<IntervalOutcome>,
    /// One record per evaluated day (peaks or not), in order.
    pub days: Vec<DayOutcome>,
    /// Stop-rule accounting against the campaign's producer.
    pub economics: CampaignEconomics,
}

impl CampaignReport {
    /// Number of peaks negotiated.
    pub fn negotiations(&self) -> usize {
        self.outcomes.len()
    }

    /// Days the campaign evaluated (post-warmup), peaks or not.
    pub fn days_evaluated(&self) -> usize {
        self.days.len()
    }

    /// Number of negotiations that converged by protocol rules.
    pub fn converged(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.report.converged())
            .count()
    }

    /// True if every negotiated peak converged.
    pub fn all_converged(&self) -> bool {
        self.converged() == self.negotiations()
    }

    /// Total energy shaved across every negotiated peak.
    pub fn total_energy_shaved(&self) -> KilowattHours {
        self.outcomes.iter().map(|o| o.energy_shaved()).sum()
    }

    /// Total reward outlay across every negotiated peak.
    pub fn total_rewards(&self) -> Money {
        self.outcomes.iter().map(|o| o.report.total_rewards()).sum()
    }

    /// Total energy the feedback policy removed from the actual series
    /// entering prediction history (zero for an open-loop campaign).
    pub fn total_feedback(&self) -> KilowattHours {
        self.days.iter().map(|d| d.feedback_delta).sum()
    }

    /// Mean rounds per negotiation (zero for an empty campaign).
    pub fn mean_rounds(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes
            .iter()
            .map(|o| f64::from(o.report.digest().rounds))
            .sum::<f64>()
            / self.outcomes.len() as f64
    }

    /// The predictor the campaign chose (None if nothing was evaluated).
    pub fn predictor(&self) -> Option<&'static str> {
        self.days.first().map(|d| d.predictor)
    }

    /// Copies the whole report down to `tier` — equal to what running
    /// the campaign with
    /// [`CampaignBuilder::report_tier`] at `tier` produces, which the
    /// tier-equivalence tests pin and the archive writer uses to
    /// downgrade on the way out.
    pub fn at_tier(&self, tier: ReportTier) -> CampaignReport {
        CampaignReport {
            outcomes: self.outcomes.iter().map(|o| o.at_tier(tier)).collect(),
            days: self.days.clone(),
            economics: self.economics,
        }
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "campaign: {} days evaluated, {} peaks negotiated ({} converged), \
             {:.1} kWh shaved, {:.1} rewards paid, {:.2} mean rounds",
            self.days_evaluated(),
            self.negotiations(),
            self.converged(),
            self.total_energy_shaved().value(),
            self.total_rewards().value(),
            self.mean_rounds()
        )?;
        if let Some(name) = self.predictor() {
            writeln!(
                f,
                "  predictor {} | feedback {:.1} kWh | {} economic stops | net gain {:.1}",
                name,
                self.total_feedback().value(),
                self.economics.economic_stops,
                self.economics.net_gain.value()
            )?;
        }
        for o in &self.outcomes {
            writeln!(
                f,
                "  {:<16} {:>2} rounds | overuse {:>5.1}% → {:>5.1}% | shaved {:>7.2} kWh | {}",
                o.label,
                o.report.digest().rounds,
                100.0 * o.report.initial_overuse_fraction(),
                100.0 * o.report.final_overuse_fraction(),
                o.energy_shaved().value(),
                o.report.status()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concession::NegotiationStatus;
    use powergrid::population::PopulationBuilder;
    use powergrid::prediction::SeasonalNaive;
    use powergrid::weather::Season;

    fn slab(n: usize, seed: u64) -> PopulationSlab {
        PopulationBuilder::new().households(n).build_slab(seed)
    }

    fn small_runner(pop: &PopulationSlab) -> CampaignRunner<'_> {
        let horizon = Horizon::new(6, 0, Season::Winter);
        CampaignBuilder::new_ref(pop.view(), &WeatherModel::winter(), &horizon)
            .predictor(FixedPredictor(MovingAverage::new(3)))
            .build()
    }

    #[test]
    fn report_covers_every_detected_peak() {
        let pop = slab(40, 11);
        let report = small_runner(&pop).run();
        let total_peaks: usize = report.days.iter().map(|d| d.peaks.len()).sum();
        assert_eq!(report.negotiations(), total_peaks);
        assert_eq!(report.days_evaluated(), 3, "6-day horizon minus 3 warmup");
        assert!(
            report.negotiations() > 0,
            "winter evenings must peak above 90 % capacity"
        );
        assert!(report.predictor().is_some());
    }

    #[test]
    fn run_replays_and_equals_every_fleet_cell() {
        let pop = slab(40, 11);
        let runner = small_runner(&pop);
        let report = runner.run();
        assert_eq!(report, runner.run());
        let fleet = crate::fleet::FleetRunner::new()
            .cell("first", small_runner(&pop))
            .cell("second", small_runner(&pop))
            .threads(NonZeroUsize::new(2).expect("2 > 0"));
        for cell in fleet.run().cells {
            assert_eq!(cell.report, report);
        }
    }

    #[test]
    fn campaign_converges_and_shaves_energy() {
        let pop = slab(40, 11);
        let report = small_runner(&pop).run();
        assert!(report.all_converged(), "{report}");
        assert!(report.total_energy_shaved().value() > 0.0, "{report}");
        assert!(report.days.iter().any(|d| !d.peaks.is_empty()));
        assert_eq!(report.total_feedback(), KilowattHours::ZERO, "open loop");
        let text = report.to_string();
        assert!(text.contains("peaks negotiated"));
        assert!(text.contains("predictor moving-average"));
    }

    #[test]
    fn campaigns_are_deterministic() {
        let pop = slab(40, 11);
        let a = small_runner(&pop).run();
        let b = small_runner(&pop).run();
        assert_eq!(a, b);
    }

    #[test]
    fn predictor_choice_changes_the_plan_not_the_guarantees() {
        let pop = slab(30, 5);
        let horizon = Horizon::new(5, 2, Season::Winter);
        let report = CampaignBuilder::new_ref(pop.view(), &WeatherModel::winter(), &horizon)
            .predictor(FixedPredictor(SeasonalNaive))
            .build()
            .run();
        assert!(report.all_converged(), "{report}");
    }

    #[test]
    fn backtest_policy_picks_a_candidate_and_reports_it() {
        let pop = slab(30, 5);
        let horizon = Horizon::new(8, 0, Season::Winter);
        let report = CampaignBuilder::new_ref(pop.view(), &WeatherModel::winter(), &horizon)
            .warmup_days(4)
            .predictor(BacktestSelected::standard())
            .build()
            .run();
        let chosen = report.predictor().expect("days evaluated");
        let names: Vec<&str> = BacktestSelected::standard()
            .candidates()
            .iter()
            .map(|c| c.name())
            .collect();
        assert!(names.contains(&chosen), "{chosen} not a candidate");
        for day in &report.days {
            assert_eq!(day.predictor, chosen, "one choice per campaign");
        }
    }

    #[test]
    fn closed_loop_reports_feedback_on_negotiated_days() {
        let pop = slab(40, 11);
        let horizon = Horizon::new(6, 0, Season::Winter);
        let report = CampaignBuilder::new_ref(pop.view(), &WeatherModel::winter(), &horizon)
            .predictor(FixedPredictor(MovingAverage::new(3)))
            .feedback(ClosedLoop)
            .build()
            .run();
        assert!(report.total_feedback().value() > 0.0, "{report}");
        for day in &report.days {
            let negotiated: Vec<_> = report
                .outcomes
                .iter()
                .filter(|o| o.day == day.day && o.energy_shaved().value() > 0.0)
                .collect();
            if negotiated.is_empty() {
                assert_eq!(day.feedback_delta, KilowattHours::ZERO);
            } else {
                assert!(day.feedback_delta.value() > 0.0);
            }
        }
    }

    #[test]
    fn economic_stop_status_is_counted() {
        let pop = slab(40, 11);
        let horizon = Horizon::new(6, 0, Season::Winter);
        let report = CampaignBuilder::new_ref(pop.view(), &WeatherModel::winter(), &horizon)
            .predictor(FixedPredictor(MovingAverage::new(3)))
            .stop_rule(MarginalCostStop)
            .build()
            .run();
        let counted = report
            .outcomes
            .iter()
            .filter(|o| {
                o.report.status()
                    == NegotiationStatus::Converged(
                        crate::concession::TerminationReason::EconomicStop,
                    )
            })
            .count();
        assert_eq!(report.economics.economic_stops, counted);
        assert!(report.all_converged(), "economic stops are converged");
    }

    #[test]
    #[should_panic(expected = "leaves nothing to evaluate")]
    fn short_horizon_panics() {
        let pop = slab(5, 1);
        let horizon = Horizon::new(3, 0, Season::Winter);
        let _ = CampaignBuilder::new_ref(pop.view(), &WeatherModel::winter(), &horizon).build();
    }

    #[test]
    #[should_panic(expected = "needs households")]
    fn empty_population_panics() {
        let horizon = Horizon::new(6, 0, Season::Winter);
        let _ = CampaignBuilder::new(&[], &WeatherModel::winter(), &horizon).build();
    }

    #[test]
    #[should_panic(expected = "warmup days")]
    fn backtest_selection_needs_two_warmup_days() {
        let pop = slab(5, 1);
        let horizon = Horizon::new(4, 0, Season::Winter);
        let _ = CampaignBuilder::new_ref(pop.view(), &WeatherModel::winter(), &horizon)
            .warmup_days(1)
            .predictor(BacktestSelected::standard())
            .build();
    }

    #[test]
    #[should_panic(expected = "needs warmup history")]
    fn zero_warmup_panics() {
        let pop = slab(5, 1);
        let horizon = Horizon::new(4, 0, Season::Winter);
        let _ = CampaignBuilder::new_ref(pop.view(), &WeatherModel::winter(), &horizon)
            .warmup_days(0)
            .build();
    }

    #[test]
    #[should_panic(expected = "should not be cheaper")]
    fn inverted_production_costs_panic_at_build() {
        let pop = slab(5, 1);
        let horizon = Horizon::new(6, 0, Season::Winter);
        let _ = CampaignBuilder::new_ref(pop.view(), &WeatherModel::winter(), &horizon)
            .production_costs(PricePerKwh(0.30), PricePerKwh(0.10))
            .build();
    }

    #[test]
    fn preparation_runs_once_per_runner() {
        let pop = slab(40, 11);
        let runner = small_runner(&pop);
        let producer = runner.producer();
        let _ = runner.run();
        assert!(std::ptr::eq(producer, runner.producer()));
        assert!(std::ptr::eq(producer, &runner.progress().prepared.producer));
    }
}
