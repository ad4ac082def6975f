//! `loadbal-core` — negotiating agents for load balancing of electricity
//! use, after Brazier, Cornelissen, Gustavsson, Jonker, Lindeberg, Polak
//! and Treur, *Agents Negotiating for Load Balancing of Electricity Use*,
//! ICDCS 1998.
//!
//! One **Utility Agent** negotiates with many **Customer Agents** to shave
//! a predicted demand peak. Three announcement methods are implemented
//! (Section 3.2 of the paper):
//!
//! * [`methods::offer`] — one-round take-it-or-leave-it offer;
//! * [`methods::request_bids`] — iterated request for bids;
//! * [`methods::reward_table`] — the paper's prototype strategy:
//!   announced reward tables under the monotonic concession protocol,
//!   with the Section-6 update rule
//!   `new_reward = reward + β · overuse · (1 − reward/max_reward) · reward`.
//!
//! The Utility Agent's reward tables and the customers' cut-down-reward
//! tables share one grid of cut-downs, [`reward::LEVELS`] (0, 0.1, …,
//! 0.5): a table is six rewards over the grid, and customers read an
//! announced table's rewards by grid index.
//!
//! The protocol itself lives in **one place**: the sans-io [`engine`]
//! ([`engine::UtilityEngine`] / [`engine::CustomerEngine`]), a pure
//! state machine fed with [`engine::Input`]s and drained of
//! [`engine::Effect`]s. Three thin drivers execute it:
//!
//! 1. **Synchronous** ([`sync_driver::NegotiationScratch::run`], behind
//!    [`session::Scenario::run`]) — an in-process direct exchange with
//!    no message per customer, used by the experiment harness and the
//!    parallel [`sweep`] runner;
//! 2. **Distributed** ([`distributed`], driven by
//!    [`sync_driver::NegotiationScratch::run_distributed`]) — the same
//!    engines exchanging [`message::Msg`] over a seeded, lossy
//!    [`massim::network::NetworkModel`], with response deadlines in
//!    virtual time;
//! 3. **DESIRE-hosted** ([`desire_host`]) — the same engines executed
//!    inside the [`desire`] compositional framework, mirroring the
//!    paper's Figures 2–5 process hierarchies.
//!
//! Because every mode drives the same engine, their outcomes agree by
//! construction (`tests/cross_mode.rs` checks this property on random
//! scenarios). Each negotiation's announcement method is named once, as
//! [`session::Scenario::method`]; no run path takes it as an argument.
//!
//! # Quickstart
//!
//! ```
//! use loadbal_core::prelude::*;
//!
//! // The calibrated Figure 6/7 scenario: capacity 100, predicted use 135.
//! let scenario = ScenarioBuilder::paper_figure_6().build();
//! let report = scenario.run(); // a fresh NegotiationScratch over the sans-io engine
//! assert!(report.converged());
//! assert!(report.final_overuse() < report.initial_overuse());
//! ```
//!
//! Driving the engine by hand (what every driver does internally):
//!
//! ```
//! use loadbal_core::prelude::*;
//!
//! let scenario = ScenarioBuilder::paper_figure_6().build();
//! let mut utility = UtilityEngine::new(&scenario);
//! let mut customers: Vec<CustomerEngine> = (0..scenario.customers.len())
//!     .map(|i| CustomerEngine::for_customer(&scenario, i))
//!     .collect();
//!
//! utility.handle(Input::Start);
//! let mut settled = false;
//! while let Some(effect) = utility.poll_effect() {
//!     // Each customer answers at most once per message it receives.
//!     let mut deliver = |utility: &mut UtilityEngine, i: usize, msg: Msg| {
//!         if let Some(reply) = customers[i].handle(Input::Received { from: Peer::Utility, msg }) {
//!             utility.handle(Input::Received { from: Peer::Customer(i), msg: reply });
//!         }
//!     };
//!     match effect {
//!         // A round's announcement reaches every customer, in order.
//!         Effect::Broadcast { msg } => {
//!             for i in 0..scenario.customers.len() {
//!                 deliver(&mut utility, i, msg.clone());
//!             }
//!         }
//!         Effect::Send { to: Peer::Customer(i), msg } => deliver(&mut utility, i, msg),
//!         Effect::Settled { status, .. } => settled = status.is_converged(),
//!         _ => {} // timers are unnecessary when every reply arrives
//!     }
//! }
//! assert!(settled);
//! ```
//!
//! Fanning a scenario grid across cores:
//!
//! ```
//! use loadbal_core::prelude::*;
//!
//! let sweep = ScenarioSweep::new()
//!     .seeded_grid("β-sweep", 20, 0.35, 0..4, |b| b);
//! let outcomes = sweep.run(); // parallel, byte-identical to sequential
//! assert!(outcomes.iter().all(|o| o.report.converged()));
//! ```
//!
//! # The `powergrid` → `Scenario` pipeline
//!
//! Scenarios need not be synthetic: the [`campaign`] module wires the
//! physical model into the negotiation core as a day-by-day *feedback*
//! cycle, driven by a [`campaign::CampaignRunner`] whose behaviour is
//! fixed by three pluggable policies on its
//! [`campaign::CampaignBuilder`] —
//!
//! 1. **Simulate** — a [`powergrid::population::PopulationBuilder`]
//!    population under a [`powergrid::weather::WeatherModel`] over a
//!    [`powergrid::calendar::Horizon`] yields per-slot demand for every
//!    day ([`powergrid::demand::simulate_horizon`]). A campaign reads
//!    its population only as a [`powergrid::slab::SlabView`] of a
//!    template-encoded [`powergrid::slab::PopulationSlab`], whose
//!    batched kernels make city-scale populations practical on one
//!    box: [`campaign::CampaignBuilder::new_ref`] borrows a slab range
//!    zero-copy, and [`campaign::CampaignBuilder::new`] converts a
//!    [`powergrid::household::Household`] slice into an owned slab
//!    once. Synthesis does not run in
//!    [`campaign::CampaignBuilder::build`], which only validates: it
//!    runs once, memoised, on the runner's first
//!    [`campaign::CampaignRunner::progress`] — in a fleet, on the
//!    worker that first reaches the cell, so cells synthesise in
//!    parallel;
//! 2. **Select** — a [`campaign::PredictorPolicy`] fixes the campaign's
//!    [`powergrid::prediction::LoadPredictor`]: a given model
//!    ([`campaign::FixedPredictor`]) or the warmup-backtest winner
//!    ([`campaign::BacktestSelected`], via
//!    [`powergrid::prediction::select_best`]);
//! 3. **Predict** — the chosen predictor forecasts each post-warmup day
//!    from its (possibly feedback-adjusted) history and the weather
//!    forecast (§5.1.2 *determine predicted balance*);
//! 4. **Detect** — [`powergrid::peak::PeakDetector::detect_all`] finds
//!    every interval whose predicted overuse warrants the effort of
//!    negotiating (§5.1.2 *evaluate prediction*);
//! 5. **Materialise** — each peak becomes a [`session::Scenario`] via
//!    [`session::ScenarioBuilder::from_peak`]: per-customer predicted
//!    use is the household's demand over the peak interval, and its
//!    private preferences are *physically grounded* — the cut-down
//!    ceiling is `saving_potential / interval usage`
//!    ([`powergrid::household::Household::max_cutdown`]), the
//!    reluctance scale falls with that flexibility; no random betas;
//! 6. **Negotiate** — the day's peaks negotiate one after another on
//!    the fleet worker that holds the cell for that day, through the
//!    worker's own reusable negotiation scratch (a lone
//!    [`campaign::CampaignRunner::run`] is a one-cell
//!    [`fleet::FleetRunner`]), each under the campaign's
//!    [`campaign::StopPolicy`]:
//!    unconditionally to the protocol's own end, or stopping
//!    reward-table raises once the next table costs more than the
//!    expensive production still avoidable
//!    ([`campaign::MarginalCostStop`], priced by the
//!    [`producer_agent::ProducerAgent`]). *How* each peak negotiates is
//!    the campaign's [`execution::ExecutionMode`]
//!    ([`campaign::CampaignBuilder::execution`]): the in-process sync
//!    pump, or one seeded run per peak over a simulated
//!    [`massim::network::NetworkModel`] — byte-identical to sync when
//!    the network is clean, measurably degraded when it is faulty, with
//!    wire activity accumulated as [`execution::NetworkTraffic`] and
//!    clean-vs-faulty seasons compared per fault class by
//!    [`resilience::ResilienceReport`];
//! 7. **Feed back** — the campaign's [`campaign::FeedbackPolicy`]
//!    decides what enters prediction history: the simulated actuals
//!    untouched ([`campaign::OpenLoop`]) or with the day's negotiated
//!    cut-downs applied ([`campaign::ClosedLoop`]), so the next day's
//!    forecast reflects the deals. Days therefore run sequentially,
//!    and the [`campaign::CampaignReport`] records per-day predictor
//!    choice, feedback deltas and stop-rule accounting
//!    ([`campaign::CampaignEconomics`]);
//! 8. **Adapt** — the [`adaptive`] subsystem closes the paper's three
//!    self-tuning loops at the sequential day boundary: every
//!    settlement is evaluated into an
//!    [`utility_agent::own_process_control::OwnProcessControl`] whose
//!    experience shapes the next day's β and allowed-overuse band
//!    ([`adaptive::AdaptiveTuning`], a [`adaptive::TuningPolicy`] —
//!    §7's "dynamically varying the value of beta on the basis of
//!    experience"); residual overuse left by an economic stop is
//!    re-detected on the post-negotiation profile and renegotiated the
//!    *same* day on a fresh reward ladder
//!    ([`adaptive::RenegotiateResidual`]); and the predictor choice is
//!    re-run on a sliding window of feedback-adjusted history as the
//!    season drifts ([`adaptive::RollingWindow`]). Because all three
//!    loops live between [`campaign::CampaignProgress::complete_day`]
//!    and the next plan — never inside a day's negotiations —
//!    adaptive campaigns keep every byte-identity guarantee;
//! 9. **Fleet** — a whole service area is many campaigns (one per grid
//!    cell or household cohort), embarrassingly parallel across cells
//!    even though days within a cell are sequential. The
//!    [`fleet::FleetRunner`] keeps **one** FIFO queue of cells, drained
//!    by `min(threads, cells)` [`sweep::fan_out`] workers: a worker
//!    pops a cell, runs its next day through the
//!    [`campaign::CampaignProgress`] stepping API and pushes it back or
//!    finishes it, and stops when it finds the queue empty — every
//!    unfinished cell is then held by another worker. Each cell's
//!    result is stored at its index, so the [`fleet::FleetReport`]
//!    (per-cell reports + cross-cell economics) is byte-identical for
//!    any thread count; a panic in one cell resurfaces its own payload
//!    once the other workers have drained the queue. Each cell's demand
//!    synthesis and predictor choice run on those workers as well, on
//!    the cell's first visit. One city-scale slab shards
//!    across cells zero-copy by offset range
//!    ([`fleet::FleetRunner::sharded_slab`], E20: a ~10⁶-household
//!    settlement-tier season, synthesis included);
//! 10. **Report** — how much of all that a season *retains* is a policy,
//!     not a constant: a [`session::ReportTier`] chosen per campaign
//!     ([`campaign::CampaignBuilder::report_tier`]) and enforced at the
//!     source in the report assembler. [`session::ReportTier::Aggregate`] keeps digest
//!     scalars only, [`session::ReportTier::Settlement`] adds per-customer
//!     settlements and economics, [`session::ReportTier::FullTrace`] keeps
//!     every round, table and bid. Lower tiers never *store* the dropped
//!     detail (E17 pins the retained-memory ratio), yet every tier
//!     reports identical digest scalars and economics, and streaming at a
//!     tier equals downgrading a full-trace report via
//!     [`session::NegotiationReport::at_tier`] after the fact. Season
//!     reports persist to compact versioned binary archives — seekable
//!     per cell and per day without decoding the season — via the
//!     `loadbal-archive` crate and its `season-inspect` CLI.
//!
//! Both hot loops under this pipeline are allocation-lean. The one
//! parallel executor, [`sweep::fan_out`], serves the sweep and the
//! fleet scheduler: it spawns its scoped threads once per run, never
//! per day or per peak, and joins them before it returns. Each worker
//! threads a reusable [`sync_driver::NegotiationScratch`] through the
//! peaks it negotiates ([`campaign::DayPlan::negotiate`]), so the utility
//! engine is reset in place instead of rebuilt per negotiation, rounds
//! move their bid vectors into the report instead of cloning them, and each
//! round's reward table is snapshotted exactly once (shared `Arc` in
//! one [`engine::Effect::Broadcast`] of [`message::Msg::Announce`] and
//! in the [`session::RoundRecord`]). Per-customer negotiation state is
//! fixed-size values with no heap part: a
//! [`preferences::CustomerPreferences`] is a `Copy` scale and ceiling
//! over the static Figure-8 table, a [`session::CustomerProfile`] is
//! 32 bytes, and an [`engine::CustomerEngine`] returns its one reply
//! instead of queueing it — so a scenario's customers are one vector,
//! and so are the scratch's customer engines (E20 bounds the season's
//! heap high-water per household). The demand
//! hot path underneath — the [`powergrid::slab`] kernels — sweeps the
//! slab's contiguous columns against one reusable
//! [`powergrid::slab::DemandScratch`] per campaign stage (duty shapes
//! computed once per resolution, per-household accumulators reused),
//! so neither horizon synthesis nor scenario derivation allocates per
//! device per household per day (E20 times the kernel against the
//! allocating `Household` reference fold).
//!
//! The full pipeline: grid → prediction → peaks → scenarios → campaign
//! → fleet → **tiered report / archive**.
//!
//! # Determinism & safety invariants
//!
//! Every byte-identity guarantee above (parallel == sequential,
//! distributed-clean == sync, adaptive runs identical across thread
//! counts) rests on source-level discipline that the type system does
//! not enforce. The workspace therefore carries its own static
//! analysis pass, `loadbal-lint` (`crates/lint`), which walks every
//! first-party source file and enforces:
//!
//! * **Determinism** — no `HashMap`/`HashSet` (iteration order is
//!   seeded per process), no `Instant::now`/`SystemTime` wall clocks,
//!   no `std::env` reads and no OS-entropy or thread-identity APIs in
//!   non-test code of this crate, `powergrid`, `massim`,
//!   `loadbal-archive` and `desire`. Ordered collections, the
//!   scenario's seeded RNG and caller-supplied configuration are the
//!   sanctioned alternatives.
//! * **No unsafe in the libraries** — every library crate root,
//!   this one included, carries `#![forbid(unsafe_code)]`, which no
//!   local `allow` can override. The only `unsafe` in the workspace
//!   is the benchmark binaries' counting allocators, each block
//!   waived with a reason and preceded by a `// SAFETY:` comment.
//! * **Panic discipline** — the archive decode paths return typed
//!   errors (`loadbal_archive::ArchiveError`) instead of
//!   `unwrap`/`expect`/indexing, so a corrupt season file can never
//!   take down a fleet run.
//!
//! The pass runs three ways and must stay clean in all of them: the
//! `loadbal-lint --workspace` binary, the CI `lint-invariants` job,
//! and the tier-1 test `tests/lint_conformance.rs` under plain
//! `cargo test -q`. Violations that are genuinely sanctioned carry an
//! inline `// lint: allow(<rule>) reason="…"` waiver; a waiver
//! without a reason is itself a finding.
//!
//! ```
//! use loadbal_core::prelude::*;
//! use powergrid::calendar::Horizon;
//! use powergrid::population::PopulationBuilder;
//! use powergrid::prediction::MovingAverage;
//! use powergrid::weather::{Season, WeatherModel};
//!
//! let homes = PopulationBuilder::new().households(50).build(42);
//! let runner = CampaignBuilder::new(
//!     &homes,
//!     &WeatherModel::winter(),
//!     &Horizon::new(6, 0, Season::Winter),
//! )
//! .predictor(FixedPredictor(MovingAverage::new(3)))
//! .feedback(ClosedLoop)
//! .build();
//! let report = runner.run();
//! assert!(report.all_converged());
//! assert!(report.total_energy_shaved().value() > 0.0);
//! assert!(report.total_feedback().value() > 0.0); // closed loop fed back
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod beta;
pub mod campaign;
pub mod category;
pub mod concession;
pub mod desire_host;
pub mod distributed;
pub mod engine;
pub mod execution;
pub mod fleet;
pub mod market;
pub mod message;
pub mod methods;
pub mod outcome;
pub mod preferences;
pub mod producer_agent;
pub mod resilience;
pub mod reward;
pub mod session;
pub mod strategy;
pub mod sweep;
pub mod sync_driver;

pub mod customer_agent;
pub mod utility_agent;

/// The most frequently used items.
pub mod prelude {
    pub use crate::adaptive::{
        AdaptiveTuning, RenegotiateResidual, RenegotiationRule, RollingWindow, StaticTuning,
        TuningPolicy,
    };
    pub use crate::beta::BetaPolicy;
    pub use crate::campaign::{
        BacktestSelected, CampaignBuilder, CampaignEconomics, CampaignReport, CampaignRunner,
        ClosedLoop, DayOutcome, FeedbackPolicy, FixedPredictor, IntervalOutcome, MarginalCostStop,
        OpenLoop, PredictorPolicy, StopPolicy, Unconditional,
    };
    pub use crate::concession::{NegotiationStatus, TerminationReason};
    pub use crate::engine::{CustomerEngine, Effect, Input, Peer, UtilityEngine};
    pub use crate::execution::{ExecutionMode, NetworkTraffic};
    pub use crate::fleet::{CellReport, FleetReport, FleetRunner};
    pub use crate::message::Msg;
    pub use crate::methods::AnnouncementMethod;
    pub use crate::outcome::SettlementSummary;
    pub use crate::preferences::CustomerPreferences;
    pub use crate::resilience::{CellResilience, FaultClass, FaultOutcome, ResilienceReport};
    pub use crate::reward::{RewardFormula, RewardTable};
    pub use crate::session::{
        CustomerProfile, NegotiationReport, ReportTier, RoundDigest, RoundRecord, Scenario,
        ScenarioBuilder,
    };
    pub use crate::strategy::select_method;
    pub use crate::sweep::{fan_out, ScenarioSweep, SweepOutcome};
    pub use crate::sync_driver::NegotiationScratch;
    pub use crate::utility_agent::UtilityAgentConfig;
}
