//! The experiment implementations (E1–E9).

use loadbal_core::beta::BetaPolicy;
use loadbal_core::campaign::{
    CampaignBuilder, CampaignReport, ClosedLoop, FixedPredictor, MarginalCostStop, OpenLoop,
    Unconditional,
};
use loadbal_core::concession::{verify_announcements, verify_bids};
use loadbal_core::distributed::run_distributed;
use loadbal_core::execution::ExecutionMode;
use loadbal_core::methods::AnnouncementMethod;
use loadbal_core::outcome::SettlementSummary;
use loadbal_core::producer_agent::ProducerAgent;
use loadbal_core::resilience::{FaultClass, ResilienceReport};
use loadbal_core::reward::RewardFormula;
use loadbal_core::session::{NegotiationReport, ReportTier, Scenario, ScenarioBuilder};
use loadbal_core::sweep::{fan_out, ScenarioSweep};
use loadbal_core::utility_agent::UtilityAgentConfig;
use massim::clock::SimDuration;
use massim::network::NetworkModel;
use powergrid::prelude::*;
use std::fmt;
use std::num::NonZeroUsize;
use std::time::Instant;

// ---------------------------------------------------------------------
// E1 — Figure 1: demand curve with peak
// ---------------------------------------------------------------------

/// Result of the Figure 1 experiment.
#[derive(Debug, Clone)]
pub struct Fig1Result {
    /// The aggregate demand curve (kWh per slot).
    pub curve: DemandCurve,
    /// Normal capacity per slot (the horizontal line in Figure 1).
    pub normal_capacity_per_slot: f64,
    /// Slots served partly by expensive production.
    pub expensive_slots: Vec<usize>,
    /// Energy above normal capacity (the shaded peak area).
    pub energy_above_normal: KilowattHours,
    /// The maximal-energy 2-hour window.
    pub peak_interval: Interval,
}

/// E1: regenerates Figure 1 — a winter-weekday demand curve for a
/// synthetic population, crossing into the expensive-production band in
/// the evening.
pub fn fig1_demand(households: usize, seed: u64) -> Fig1Result {
    let axis = TimeAxis::quarter_hourly();
    let homes = PopulationBuilder::new().households(households).build(seed);
    let weather = WeatherModel::winter().temperatures(&axis, seed);
    let curve = aggregate_demand(&homes, &weather, &axis, seed);
    // Normal capacity at 90 % of the observed peak slot: the evening peak
    // (and only the peak) needs expensive production, as in Figure 1.
    let peak_kwh = curve.series().max();
    let normal = Kilowatts(peak_kwh / axis.slot_hours() * 0.90);
    let production = ProductionModel::two_tier(normal);
    Fig1Result {
        expensive_slots: curve.slots_above_normal(&production),
        energy_above_normal: curve.energy_above_normal(&production),
        normal_capacity_per_slot: production.normal_capacity_per_slot(axis).value(),
        peak_interval: curve.peak_interval(8),
        curve,
    }
}

impl fmt::Display for Fig1Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let axis = self.curve.axis();
        writeln!(
            f,
            "E1 / Figure 1 — daily demand curve (kWh per 15-min slot)"
        )?;
        writeln!(f, "  {}", self.curve.series().sparkline())?;
        writeln!(
            f,
            "  peak window {} ({}–{}), normal capacity {:.1} kWh/slot",
            self.peak_interval,
            axis.start_of(self.peak_interval.start()),
            axis.start_of(self.peak_interval.end() - 1),
            self.normal_capacity_per_slot,
        )?;
        writeln!(
            f,
            "  expensive production in {} slots, {:.1} kWh above normal",
            self.expensive_slots.len(),
            self.energy_above_normal.value()
        )?;
        writeln!(f, "  slot,time,demand_kwh,above_normal")?;
        for (i, &v) in self.curve.series().values().iter().enumerate() {
            writeln!(
                f,
                "  {},{},{:.3},{}",
                i,
                axis.start_of(i),
                v,
                if v > self.normal_capacity_per_slot {
                    1
                } else {
                    0
                }
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// E3 — Figures 6–7: the Utility Agent's trace
// ---------------------------------------------------------------------

/// Result of the Figure 6/7 experiment: the UA's view per round.
#[derive(Debug, Clone)]
pub struct Fig67Result {
    /// The underlying report.
    pub report: NegotiationReport,
    /// reward(0.4) announced in round 1 (paper: 17).
    pub round1_reward_04: f64,
    /// reward(0.4) announced in the final round (paper: 24.8).
    pub final_reward_04: f64,
    /// Predicted overuse before negotiation (paper: 35).
    pub initial_overuse: f64,
    /// Predicted overuse after the final round (paper: 13).
    pub final_overuse: f64,
}

/// E3: runs the calibrated Figure 6/7 scenario and extracts the
/// checkpoints the screenshots show.
pub fn fig6_7_trace() -> Fig67Result {
    let report = ScenarioBuilder::paper_figure_6().build().run();
    let reward_04 = |idx: usize| {
        report.rounds()[idx]
            .table
            .as_ref()
            .expect("reward-table rounds carry tables")
            .reward_for(Fraction::clamped(0.4))
            .value()
    };
    Fig67Result {
        round1_reward_04: reward_04(0),
        final_reward_04: reward_04(report.rounds().len() - 1),
        initial_overuse: report.initial_overuse().value(),
        final_overuse: report.final_overuse().value(),
        report,
    }
}

impl fmt::Display for Fig67Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E3 / Figures 6–7 — Utility Agent during the negotiation")?;
        writeln!(
            f,
            "  normal capacity 100.0 | predicted usage {:.1} | predicted overuse {:.1}",
            100.0 + self.initial_overuse,
            self.initial_overuse
        )?;
        for r in self.report.rounds() {
            let table = r.table.as_ref().expect("table present");
            write!(f, "  round {} | rewards:", r.round)?;
            for (c, m) in table.entries() {
                write!(f, " {c}→{:.1}", m.value())?;
            }
            writeln!(
                f,
                " | predicted use {:.1} | overuse {:.1}",
                r.predicted_total.value(),
                (r.predicted_total - self.report.normal_use()).value()
            )?;
        }
        writeln!(f, "  outcome: {}", self.report.status())?;
        writeln!(
            f,
            "  checkpoints: r1 reward(0.4) = {:.2} (paper 17) | final reward(0.4) = {:.2} (paper 24.8) | overuse {:.1} → {:.1} (paper 35 → 13)",
            self.round1_reward_04, self.final_reward_04, self.initial_overuse, self.final_overuse
        )
    }
}

// ---------------------------------------------------------------------
// E4 — Figures 8–9: the Customer Agent's trace
// ---------------------------------------------------------------------

/// One round from the highlighted customer's perspective.
#[derive(Debug, Clone)]
pub struct CustomerRound {
    /// Round number.
    pub round: u32,
    /// `(cutdown, offered, required, acceptable)` per level.
    pub comparison: Vec<(f64, f64, f64, bool)>,
    /// The bid chosen.
    pub bid: f64,
}

/// Result of the Figure 8/9 experiment.
#[derive(Debug, Clone)]
pub struct Fig89Result {
    /// Per-round view of customer 0 (the Figure 8/9 customer).
    pub rounds: Vec<CustomerRound>,
}

/// E4: the highlighted Figure 8/9 customer's view of the calibrated
/// negotiation — thresholds 10 at 0.3 and 21 at 0.4; bids 0.2 / 0.4 / 0.4.
pub fn fig8_9_customer() -> Fig89Result {
    let scenario = ScenarioBuilder::paper_figure_6().build();
    let report = scenario.run();
    let prefs = &scenario.customers[0].preferences;
    let rounds = report
        .rounds()
        .iter()
        .map(|r| {
            let table = r.table.as_ref().expect("table present");
            let comparison = table
                .entries()
                .iter()
                .map(|&(c, offered)| {
                    let required = prefs.required_for(c).map(|m| m.value()).unwrap_or(f64::NAN);
                    (
                        c.value(),
                        offered.value(),
                        required,
                        prefs.accepts(c, offered),
                    )
                })
                .collect();
            CustomerRound {
                round: r.round,
                comparison,
                bid: r.bids[0].value(),
            }
        })
        .collect();
    Fig89Result { rounds }
}

impl fmt::Display for Fig89Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E4 / Figures 8–9 — Customer Agent during the negotiation"
        )?;
        for r in &self.rounds {
            writeln!(f, "  round {}:", r.round)?;
            writeln!(f, "    cutdown  offered  required  acceptable")?;
            for (c, offered, required, ok) in &r.comparison {
                writeln!(
                    f,
                    "    {:>7.2}  {:>7.2}  {:>8.2}  {}",
                    c,
                    offered,
                    required,
                    if *ok { "yes" } else { "no" }
                )?;
            }
            writeln!(f, "    → preferred cut-down: {:.2}", r.bid)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// E5 — §3.2.4: method comparison
// ---------------------------------------------------------------------

/// One row of the method-comparison table.
#[derive(Debug, Clone)]
pub struct MethodRow {
    /// The method.
    pub method: AnnouncementMethod,
    /// Rounds used.
    pub rounds: usize,
    /// Messages exchanged.
    pub messages: u64,
    /// Final relative overuse.
    pub final_overuse: f64,
    /// Reward / billing-advantage outlay.
    pub outlay: f64,
    /// Customers with non-zero cut-down.
    pub participants: usize,
    /// Utility net gain (avoided expensive production − outlay).
    pub utility_net_gain: f64,
}

/// Result of the method comparison.
#[derive(Debug, Clone)]
pub struct MethodsResult {
    /// One row per method, in paper order.
    pub rows: Vec<MethodRow>,
    /// Initial relative overuse of the shared scenario.
    pub initial_overuse: f64,
}

/// E5: quantifies the qualitative §3.2.4 trade-off table by running all
/// three methods on one scenario.
pub fn methods_comparison(customers: usize, seed: u64) -> MethodsResult {
    let scenario = ScenarioBuilder::random(customers, 0.35, seed).build();
    let producer = ProducerAgent::new(ProductionModel::with_costs(
        Kilowatts(scenario.normal_use.value() / 2.0),
        PricePerKwh(0.3),
        PricePerKwh(4.0),
    ));
    let rows = AnnouncementMethod::all()
        .into_iter()
        .map(|method| {
            let report = Scenario {
                method,
                ..scenario.clone()
            }
            .run();
            let summary = SettlementSummary::compute(&scenario, &report, &producer, 2.0);
            MethodRow {
                method,
                rounds: report.rounds().len(),
                messages: report.total_messages(),
                final_overuse: report.final_overuse_fraction(),
                outlay: report.total_rewards().value(),
                participants: summary.participants,
                utility_net_gain: summary.utility_net_gain.value(),
            }
        })
        .collect();
    MethodsResult {
        rows,
        initial_overuse: scenario.initial_overuse_fraction(),
    }
}

impl fmt::Display for MethodsResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E5 / §3.2.4 — announcement methods on one scenario (initial overuse {:.1} %)",
            100.0 * self.initial_overuse
        )?;
        writeln!(
            f,
            "  {:<18} {:>6} {:>9} {:>11} {:>9} {:>13} {:>12}",
            "method", "rounds", "messages", "overuse %", "outlay", "participants", "utility gain"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<18} {:>6} {:>9} {:>11.1} {:>9.1} {:>13} {:>12.1}",
                r.method.to_string(),
                r.rounds,
                r.messages,
                100.0 * r.final_overuse,
                r.outlay,
                r.participants,
                r.utility_net_gain
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// E6 — §6: the reward formula
// ---------------------------------------------------------------------

/// One trajectory of the §6 update rule.
#[derive(Debug, Clone)]
pub struct FormulaRow {
    /// Fixed relative overuse driving the updates.
    pub overuse: f64,
    /// Starting reward.
    pub reward0: f64,
    /// Steps until the increment drops to ε.
    pub steps_to_saturation: usize,
    /// Final reward (≤ max_reward).
    pub final_reward: f64,
    /// Size of the first update step (the "reward increases more when
    /// the predicted overuse is higher" claim).
    pub first_step: f64,
}

/// Result of the formula sweep.
#[derive(Debug, Clone)]
pub struct FormulaResult {
    /// One row per (overuse, reward₀) pair.
    pub rows: Vec<FormulaRow>,
    /// The formula used.
    pub formula: RewardFormula,
}

/// E6: sweeps the §6 rule over overuse levels and starting rewards,
/// demonstrating logistic saturation below `max_reward` and faster
/// growth under higher overuse.
pub fn formula_sweep() -> FormulaResult {
    let formula = RewardFormula::paper();
    let mut rows = Vec::new();
    for &overuse in &[0.05, 0.1, 0.2, 0.35, 0.5] {
        for &reward0 in &[5.0, 10.0, 17.0, 25.0] {
            let mut reward = Money(reward0);
            let first_step = (formula.next_reward(reward, overuse, formula.beta) - reward).value();
            let mut steps = 0;
            loop {
                let next = formula.next_reward(reward, overuse, formula.beta);
                steps += 1;
                if (next - reward).abs() <= formula.epsilon || steps > 500 {
                    reward = next;
                    break;
                }
                reward = next;
            }
            rows.push(FormulaRow {
                overuse,
                reward0,
                steps_to_saturation: steps,
                final_reward: reward.value(),
                first_step,
            });
        }
    }
    FormulaResult { rows, formula }
}

impl fmt::Display for FormulaResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E6 / §6 — reward-update trajectories (β = {}, max = {}, ε = {})",
            self.formula.beta,
            self.formula.max_reward.value(),
            self.formula.epsilon.value()
        )?;
        writeln!(
            f,
            "  {:>8} {:>8} {:>11} {:>6} {:>12}",
            "overuse", "reward0", "first step", "steps", "final"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:>8.2} {:>8.1} {:>11.2} {:>6} {:>12.2}",
                r.overuse, r.reward0, r.first_step, r.steps_to_saturation, r.final_reward
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// E7 — §7: β sensitivity (constant vs dynamic)
// ---------------------------------------------------------------------

/// One row of the β sweep.
#[derive(Debug, Clone)]
pub struct BetaRow {
    /// Policy description.
    pub policy: String,
    /// Mean rounds to convergence.
    pub mean_rounds: f64,
    /// Mean final relative overuse.
    pub mean_final_overuse: f64,
    /// Mean reward outlay.
    pub mean_outlay: f64,
    /// Convergence rate over the seeds.
    pub converged: f64,
}

/// Result of the β sweep.
#[derive(Debug, Clone)]
pub struct BetaResult {
    /// One row per policy.
    pub rows: Vec<BetaRow>,
    /// Seeds per policy.
    pub repetitions: usize,
}

/// E7: the §7 future-work experiment — constant β at several values plus
/// the two dynamic policies, averaged over seeded populations.
///
/// The full policy × seed grid is built once as a [`ScenarioSweep`] and
/// fanned across cores; the sweep's determinism guarantee (outcomes
/// byte-identical to a sequential run) keeps the aggregates replayable.
pub fn beta_sweep(customers: usize, repetitions: usize) -> BetaResult {
    let mut policies: Vec<BetaPolicy> = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        .iter()
        .map(|&b| BetaPolicy::constant(b))
        .collect();
    policies.push(BetaPolicy::adaptive(1.0));
    policies.push(BetaPolicy::annealing(4.0, 0.7));

    let sweep = policies
        .iter()
        .fold(ScenarioSweep::new(), |sweep, &policy| {
            sweep.seeded_grid(
                &policy.to_string(),
                customers,
                0.35,
                0..repetitions as u64,
                move |builder| builder.config(UtilityAgentConfig::paper().with_beta_policy(policy)),
            )
        });
    let outcomes = sweep.run();

    let rows = policies
        .iter()
        .zip(outcomes.chunks(repetitions.max(1)))
        .map(|(policy, chunk)| {
            let n = chunk.len() as f64;
            BetaRow {
                policy: policy.to_string(),
                mean_rounds: chunk
                    .iter()
                    .map(|o| o.report.rounds().len() as f64)
                    .sum::<f64>()
                    / n,
                mean_final_overuse: chunk
                    .iter()
                    .map(|o| o.report.final_overuse_fraction())
                    .sum::<f64>()
                    / n,
                mean_outlay: chunk
                    .iter()
                    .map(|o| o.report.total_rewards().value())
                    .sum::<f64>()
                    / n,
                converged: chunk.iter().filter(|o| o.report.converged()).count() as f64 / n,
            }
        })
        .collect();
    BetaResult { rows, repetitions }
}

impl fmt::Display for BetaResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E7 / §7 — β sensitivity ({} seeded populations per policy)",
            self.repetitions
        )?;
        writeln!(
            f,
            "  {:<42} {:>7} {:>11} {:>9} {:>10}",
            "policy", "rounds", "overuse %", "outlay", "converged"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<42} {:>7.2} {:>11.1} {:>9.1} {:>9.0}%",
                r.policy,
                r.mean_rounds,
                100.0 * r.mean_final_overuse,
                r.mean_outlay,
                100.0 * r.converged
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// E8 — scalability
// ---------------------------------------------------------------------

/// One row of the scaling experiment.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Number of Customer Agents.
    pub customers: usize,
    /// Rounds to convergence.
    pub rounds: usize,
    /// Messages exchanged (protocol level).
    pub messages: u64,
    /// Wall-clock of the synchronous run, microseconds.
    pub sync_us: u128,
    /// Wall-clock of the run over the simulated network, microseconds.
    pub distributed_us: u128,
    /// Virtual end-time of the distributed run (ticks).
    pub virtual_ticks: u64,
    /// Whether the distributed report equals the synchronous one
    /// (asserted: latency alone changes no outcome).
    pub identical: bool,
}

/// Result of the scaling experiment.
#[derive(Debug, Clone)]
pub struct ScalingResult {
    /// One row per population size.
    pub rows: Vec<ScalingRow>,
}

/// E8: rounds, message volume and wall-clock versus population size, in
/// both execution modes, asserting that the two reports are identical:
/// the network only delays messages (1–10 ticks against a 100-tick
/// deadline), so the synchronous direct exchange and the message path
/// must settle alike at every size.
///
/// Scenario construction (population synthesis — the embarrassingly
/// parallel part) fans across cores with [`fan_out`]; the *measured*
/// negotiations then run sequentially, so each row's microsecond
/// figures are wall-clock free of co-runner core contention — the
/// scaling shape is the experiment's entire point.
pub fn scaling(sizes: &[usize], seed: u64) -> ScalingResult {
    let threads = std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN);
    let scenarios = fan_out(
        threads,
        sizes.len(),
        || (),
        |(), i| ScenarioBuilder::random(sizes[i], 0.35, seed).build(),
    );

    let rows = sizes
        .iter()
        .zip(scenarios)
        .map(|(&n, scenario)| {
            let t0 = Instant::now();
            let sync = scenario.run();
            let sync_us = t0.elapsed().as_micros();
            let t1 = Instant::now();
            let dist = run_distributed(
                &scenario,
                NetworkModel::uniform(1, 10),
                seed,
                SimDuration::from_ticks(100),
            );
            let distributed_us = t1.elapsed().as_micros();
            let identical = dist.report == sync;
            assert!(
                identical,
                "{n} customers: the distributed report drifted from the synchronous one"
            );
            ScalingRow {
                customers: n,
                rounds: sync.rounds().len(),
                messages: sync.total_messages(),
                sync_us,
                distributed_us,
                virtual_ticks: dist.end_time.ticks(),
                identical,
            }
        })
        .collect();
    ScalingResult { rows }
}

impl fmt::Display for ScalingResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E8 — scalability with population size")?;
        writeln!(
            f,
            "  {:>9} {:>6} {:>10} {:>10} {:>13} {:>13} {:>9}",
            "customers",
            "rounds",
            "messages",
            "sync µs",
            "network µs",
            "virtual ticks",
            "identical"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:>9} {:>6} {:>10} {:>10} {:>13} {:>13} {:>9}",
                r.customers,
                r.rounds,
                r.messages,
                r.sync_us,
                r.distributed_us,
                r.virtual_ticks,
                if r.identical { "yes" } else { "NO" }
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// E9 — concession invariants
// ---------------------------------------------------------------------

/// Result of the invariant check.
#[derive(Debug, Clone)]
pub struct InvariantsResult {
    /// Populations checked.
    pub checked: usize,
    /// Announcement-monotonicity violations found.
    pub announcement_violations: usize,
    /// Bid-monotonicity violations found.
    pub bid_violations: usize,
    /// Negotiations that failed to converge.
    pub non_convergent: usize,
}

/// E9: verifies the §3.1 monotonic-concession invariants over seeded
/// random populations (the proptests cover the same ground generatively),
/// and asserts that none is violated and every negotiation converges —
/// release builds compile out the negotiator's own `debug_assert!`.
pub fn invariants(populations: usize) -> InvariantsResult {
    let mut result = InvariantsResult {
        checked: populations,
        announcement_violations: 0,
        bid_violations: 0,
        non_convergent: 0,
    };
    for seed in 0..populations as u64 {
        let report = ScenarioBuilder::random(40, 0.3 + (seed % 3) as f64 * 0.1, seed)
            .build()
            .run();
        let tables: Vec<_> = report
            .rounds()
            .iter()
            .filter_map(|r| r.table.as_deref().cloned())
            .collect();
        if verify_announcements(&tables).is_err() {
            result.announcement_violations += 1;
        }
        let bids: Vec<_> = report.rounds().iter().map(|r| r.bids.clone()).collect();
        if verify_bids(&bids).is_err() {
            result.bid_violations += 1;
        }
        if !report.converged() {
            result.non_convergent += 1;
        }
    }
    assert_eq!(
        (
            result.announcement_violations,
            result.bid_violations,
            result.non_convergent
        ),
        (0, 0, 0),
        "§3.1 violations (announcements, bids) or non-convergent negotiations"
    );
    result
}

impl fmt::Display for InvariantsResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E9 / §3.1 — monotonic-concession invariants")?;
        writeln!(f, "  populations checked:        {}", self.checked)?;
        writeln!(
            f,
            "  announcement violations:    {}",
            self.announcement_violations
        )?;
        writeln!(f, "  bid-retreat violations:     {}", self.bid_violations)?;
        writeln!(f, "  non-convergent negotiations: {}", self.non_convergent)
    }
}

// ---------------------------------------------------------------------
// E10 — §7 ref [12]: computational market vs reward tables
// ---------------------------------------------------------------------

/// One row of the market-vs-protocol comparison.
#[derive(Debug, Clone)]
pub struct MarketRow {
    /// Strategy name.
    pub strategy: String,
    /// Quote/announcement iterations.
    pub iterations: usize,
    /// Messages exchanged.
    pub messages: u64,
    /// Final relative overuse.
    pub final_overuse: f64,
    /// Money paid to customers.
    pub paid: f64,
}

/// Result of the market comparison.
#[derive(Debug, Clone)]
pub struct MarketResult {
    /// Reward-table and market rows.
    pub rows: Vec<MarketRow>,
    /// Initial relative overuse.
    pub initial_overuse: f64,
}

/// E10: the computational-market strategy (§7, ref \[12\]) versus the
/// prototype's reward tables, on the same population.
pub fn market_comparison(customers: usize, seed: u64) -> MarketResult {
    use loadbal_core::market::{run_market, AuctionConfig};
    let scenario = ScenarioBuilder::random(customers, 0.35, seed).build();
    let tables = scenario.run();
    let market = run_market(&scenario, AuctionConfig::default());
    let rows = vec![
        MarketRow {
            strategy: "reward-tables (§3.2.3)".into(),
            iterations: tables.rounds().len(),
            messages: tables.total_messages(),
            final_overuse: tables.final_overuse_fraction(),
            paid: tables.total_rewards().value(),
        },
        MarketRow {
            strategy: "computational market [12]".into(),
            iterations: market.iterations.len(),
            messages: market.messages,
            final_overuse: market.final_overuse_fraction(scenario.normal_use),
            paid: market.payments.value(),
        },
    ];
    MarketResult {
        rows,
        initial_overuse: scenario.initial_overuse_fraction(),
    }
}

impl fmt::Display for MarketResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E10 / §7 [12] — reward tables vs computational market (initial overuse {:.1} %)",
            100.0 * self.initial_overuse
        )?;
        writeln!(
            f,
            "  {:<28} {:>10} {:>9} {:>11} {:>9}",
            "strategy", "iterations", "messages", "overuse %", "paid"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<28} {:>10} {:>9} {:>11.1} {:>9.1}",
                r.strategy,
                r.iterations,
                r.messages,
                100.0 * r.final_overuse,
                r.paid
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// E11 — §3.2.1: categorized vs uniform offers
// ---------------------------------------------------------------------

/// One row of the offer-targeting comparison.
#[derive(Debug, Clone)]
pub struct OfferRow {
    /// Variant name.
    pub variant: String,
    /// Final relative overuse.
    pub final_overuse: f64,
    /// Customers accepting.
    pub acceptors: usize,
    /// Billing advantage granted.
    pub outlay: f64,
}

/// Result of the offer-targeting comparison.
#[derive(Debug, Clone)]
pub struct OfferResult {
    /// Uniform and categorized rows.
    pub rows: Vec<OfferRow>,
    /// Initial relative overuse.
    pub initial_overuse: f64,
}

/// E11: the §3.2.1 refinement — dividing customers into consumption
/// categories with per-category `x_max` — against the uniform offer.
/// Two categorization policies are compared: a naive "stricter caps for
/// heavier users" heuristic, and per-category `x_max` optimization. A
/// categorized row runs each category's offer scenario
/// ([`categorized_offers`](loadbal_core::category::categorized_offers))
/// and sums the parts' final totals, acceptors and outlays.
pub fn offer_categories(customers: usize, seed: u64) -> OfferResult {
    use loadbal_core::category::{
        categorized_offers, consumption_categories, optimized_categories, Category,
    };
    use loadbal_core::reward::overuse_fraction;
    use powergrid::units::Fraction;
    let scenario = ScenarioBuilder::random(customers, 0.35, seed).build();
    let uniform = Scenario {
        method: AnnouncementMethod::Offer,
        ..scenario.clone()
    }
    .run();
    let acceptors = |report: &NegotiationReport| {
        report
            .final_bids()
            .iter()
            .filter(|b| b.value() > 0.0)
            .count()
    };
    let mut rows = vec![OfferRow {
        variant: "uniform offer".into(),
        final_overuse: uniform.final_overuse_fraction(),
        acceptors: acceptors(&uniform),
        outlay: uniform.total_rewards().value(),
    }];
    let categorized_row = |variant: String, categories: &[Category]| {
        let parts: Vec<NegotiationReport> = categorized_offers(&scenario, categories)
            .iter()
            .map(Scenario::run)
            .collect();
        let final_total = parts.iter().map(NegotiationReport::final_total).sum();
        OfferRow {
            variant,
            final_overuse: overuse_fraction(final_total, scenario.normal_use),
            acceptors: parts.iter().map(acceptors).sum(),
            outlay: parts.iter().map(|r| r.total_rewards().value()).sum(),
        }
    };
    let candidates: Vec<Fraction> = [0.5, 0.6, 0.7, 0.8, 0.9]
        .iter()
        .map(|&v| Fraction::clamped(v))
        .collect();
    for buckets in [2usize, 3, 5] {
        let naive = consumption_categories(&scenario, buckets);
        rows.push(categorized_row(
            format!("{buckets} naive categories"),
            &naive,
        ));
        let optimized = optimized_categories(&scenario, buckets, &candidates);
        rows.push(categorized_row(
            format!("{buckets} optimized categories"),
            &optimized,
        ));
    }
    OfferResult {
        rows,
        initial_overuse: scenario.initial_overuse_fraction(),
    }
}

impl fmt::Display for OfferResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E11 / §3.2.1 — offer targeting (initial overuse {:.1} %)",
            100.0 * self.initial_overuse
        )?;
        writeln!(
            f,
            "  {:<24} {:>11} {:>10} {:>9}",
            "variant", "overuse %", "acceptors", "outlay"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<24} {:>11.1} {:>10} {:>9.1}",
                r.variant,
                100.0 * r.final_overuse,
                r.acceptors,
                r.outlay
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// E12 — ablation: initial-table shape (quadratic vs linear)
// ---------------------------------------------------------------------

/// One row of the table-shape ablation.
#[derive(Debug, Clone)]
pub struct ShapeRow {
    /// Shape name.
    pub shape: String,
    /// The Figure-8 customer's round-1 bid under this shape (paper: 0.2).
    pub fig8_round1_bid: f64,
    /// Mean rounds over random populations.
    pub mean_rounds: f64,
    /// Mean final overuse over random populations.
    pub mean_final_overuse: f64,
    /// Mean reward outlay over random populations.
    pub mean_outlay: f64,
}

/// Result of the shape ablation.
#[derive(Debug, Clone)]
pub struct ShapeResult {
    /// Quadratic and linear rows.
    pub rows: Vec<ShapeRow>,
    /// Random populations per shape.
    pub repetitions: usize,
}

/// E12: ablates the quadratic initial reward table (the Figure 6
/// calibration, DESIGN.md §5) against a linear one. The quadratic shape
/// is what makes the highlighted customer open at 0.2 (Figure 9): linear
/// pricing overpays small cut-downs, pulling the opening bid up.
pub fn shape_ablation(customers: usize, repetitions: usize) -> ShapeResult {
    use loadbal_core::utility_agent::TableShape;
    let rows = [TableShape::Quadratic, TableShape::Linear]
        .into_iter()
        .map(|shape| {
            let config_for = || {
                let mut c = UtilityAgentConfig::paper();
                c.table_shape = shape;
                c
            };
            // The Figure-8 customer's opening bid under this shape.
            let paper = ScenarioBuilder::paper_figure_6()
                .config(config_for())
                .build();
            let paper_report = paper.run();
            let fig8_round1_bid = paper_report.rounds()[0].bids[0].value();
            // Aggregate behaviour over random populations.
            let mut rounds = 0.0;
            let mut overuse = 0.0;
            let mut outlay = 0.0;
            for seed in 0..repetitions as u64 {
                let report = ScenarioBuilder::random(customers, 0.35, seed)
                    .config(config_for())
                    .build()
                    .run();
                rounds += report.rounds().len() as f64;
                overuse += report.final_overuse_fraction();
                outlay += report.total_rewards().value();
            }
            let n = repetitions as f64;
            ShapeRow {
                shape: format!("{shape:?}").to_lowercase(),
                fig8_round1_bid,
                mean_rounds: rounds / n,
                mean_final_overuse: overuse / n,
                mean_outlay: outlay / n,
            }
        })
        .collect();
    ShapeResult { rows, repetitions }
}

impl fmt::Display for ShapeResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E12 — initial-table shape ablation ({} populations per shape)",
            self.repetitions
        )?;
        writeln!(
            f,
            "  {:<11} {:>14} {:>7} {:>11} {:>9}",
            "shape", "fig8 r1 bid", "rounds", "overuse %", "outlay"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<11} {:>14.2} {:>7.2} {:>11.1} {:>9.1}",
                r.shape,
                r.fig8_round1_bid,
                r.mean_rounds,
                100.0 * r.mean_final_overuse,
                r.mean_outlay
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// E13 — the grid→negotiation pipeline: season × population campaigns
// ---------------------------------------------------------------------

/// One cell of the campaign grid.
#[derive(Debug, Clone)]
pub struct CampaignRow {
    /// The season simulated.
    pub season: Season,
    /// Households in the population.
    pub households: usize,
    /// Days evaluated after warmup.
    pub days: usize,
    /// Peaks detected and negotiated.
    pub peaks: usize,
    /// Negotiations that converged.
    pub converged: usize,
    /// Total energy shaved out of the peaks.
    pub energy_shaved: f64,
    /// Total reward outlay.
    pub outlay: f64,
    /// Mean rounds per negotiation.
    pub mean_rounds: f64,
}

/// Result of the campaign-grid experiment.
#[derive(Debug, Clone)]
pub struct CampaignGridResult {
    /// One row per season × population-size cell.
    pub rows: Vec<CampaignRow>,
    /// Days per campaign (including warmup).
    pub horizon_days: u64,
}

/// E13: the full physical pipeline — population → weather → demand →
/// prediction → peak detection → one negotiation per peak — swept over
/// a season × population-size grid. Each cell runs through the fleet
/// scheduler (inside
/// [`CampaignRunner::run`](loadbal_core::campaign::CampaignRunner::run),
/// a one-cell fleet), and the determinism guarantee (any thread count
/// byte-identical to each cell run alone) keeps each cell replayable.
pub fn campaign_grid(sizes: &[usize], seasons: &[Season], seed: u64) -> CampaignGridResult {
    let horizon_days = 10;
    let rows = seasons
        .iter()
        .flat_map(|&season| {
            sizes.iter().map(move |&households| {
                let homes = PopulationBuilder::new().households(households).build(seed);
                let horizon = Horizon::new(horizon_days, 0, season);
                let report = CampaignBuilder::new(&homes, &WeatherModel::new(season), &horizon)
                    .predictor(FixedPredictor(WeatherRegression::calibrated()))
                    .build()
                    .run();
                CampaignRow {
                    season,
                    households,
                    days: report.days_evaluated(),
                    peaks: report.negotiations(),
                    converged: report.converged(),
                    energy_shaved: report.total_energy_shaved().value(),
                    outlay: report.total_rewards().value(),
                    mean_rounds: report.mean_rounds(),
                }
            })
        })
        .collect();
    CampaignGridResult { rows, horizon_days }
}

impl fmt::Display for CampaignGridResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E13 — grid→negotiation campaigns ({}-day horizons, warmup 3)",
            self.horizon_days
        )?;
        writeln!(
            f,
            "  {:<8} {:>10} {:>5} {:>6} {:>10} {:>12} {:>9} {:>7}",
            "season", "households", "days", "peaks", "converged", "shaved kWh", "outlay", "rounds"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<8} {:>10} {:>5} {:>6} {:>10} {:>12.1} {:>9.1} {:>7.2}",
                r.season.to_string(),
                r.households,
                r.days,
                r.peaks,
                r.converged,
                r.energy_shaved,
                r.outlay,
                r.mean_rounds
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// E14 — the campaign feedback loop: open vs closed, unconditional vs
// marginal-cost stop
// ---------------------------------------------------------------------

/// One policy combination of the campaign-loop experiment.
#[derive(Debug, Clone)]
pub struct CampaignLoopRow {
    /// Policy combination name.
    pub policy: String,
    /// Peaks detected and negotiated.
    pub peaks: usize,
    /// Negotiations that converged.
    pub converged: usize,
    /// Total energy shaved out of the peaks.
    pub energy_shaved: f64,
    /// Total reward outlay.
    pub outlay: f64,
    /// Energy the feedback policy removed from prediction history.
    pub feedback: f64,
    /// Negotiations the marginal-cost stop rule ended.
    pub economic_stops: usize,
    /// Avoided expensive-production cost minus reward outlay.
    pub net_gain: f64,
}

/// Result of the campaign-loop experiment.
#[derive(Debug, Clone)]
pub struct CampaignLoopResult {
    /// One row per feedback × stop-rule combination.
    pub rows: Vec<CampaignLoopRow>,
    /// Days per campaign (including warmup).
    pub horizon_days: u64,
}

/// E14: the campaign feedback loop — the same winter population run
/// through every feedback × stop-rule combination. Closed-loop
/// campaigns train their predictor on post-negotiation consumption, so
/// later days carry smaller peaks and the campaign shaves (and spends)
/// less; the marginal-cost stop additionally refuses reward-table
/// raises that cost more than the expensive production they could
/// avoid, trading residual overuse within the detector's tolerance for
/// strictly lower outlay.
pub fn campaign_loop(households: usize, seed: u64) -> CampaignLoopResult {
    let horizon_days = 8;
    let homes = PopulationBuilder::new().households(households).build(seed);
    let horizon = Horizon::new(horizon_days, 0, Season::Winter);
    let weather = WeatherModel::winter();
    let run = |label: &str, closed: bool, stop: bool| {
        let builder = CampaignBuilder::new(&homes, &weather, &horizon)
            .predictor(FixedPredictor(WeatherRegression::calibrated()));
        let builder = if closed {
            builder.feedback(ClosedLoop)
        } else {
            builder.feedback(OpenLoop)
        };
        let builder = if stop {
            builder.stop_rule(MarginalCostStop)
        } else {
            builder.stop_rule(Unconditional)
        };
        let report: CampaignReport = builder.build().run();
        CampaignLoopRow {
            policy: label.to_string(),
            peaks: report.negotiations(),
            converged: report.converged(),
            energy_shaved: report.total_energy_shaved().value(),
            outlay: report.total_rewards().value(),
            feedback: report.total_feedback().value(),
            economic_stops: report.economics.economic_stops,
            net_gain: report.economics.net_gain.value(),
        }
    };
    CampaignLoopResult {
        rows: vec![
            run("open / unconditional", false, false),
            run("open / marginal-cost stop", false, true),
            run("closed / unconditional", true, false),
            run("closed / marginal-cost stop", true, true),
        ],
        horizon_days,
    }
}

impl fmt::Display for CampaignLoopResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E14 — campaign feedback loop ({}-day horizon, warmup 3)",
            self.horizon_days
        )?;
        writeln!(
            f,
            "  {:<28} {:>6} {:>10} {:>12} {:>9} {:>10} {:>6} {:>10}",
            "policy", "peaks", "converged", "shaved kWh", "outlay", "feedback", "stops", "net gain"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<28} {:>6} {:>10} {:>12.1} {:>9.1} {:>10.1} {:>6} {:>10.1}",
                r.policy,
                r.peaks,
                r.converged,
                r.energy_shaved,
                r.outlay,
                r.feedback,
                r.economic_stops,
                r.net_gain
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Shared BENCH_E*.json metadata
// ---------------------------------------------------------------------

/// Runtime context stamped into every perf-tracked `BENCH_E*.json`
/// record, so cross-PR comparisons know what each run measured: the
/// report tier the season ran at, the worker threads involved, the
/// host's core count (so a thread count above it reads as
/// oversubscribed), whether the counting allocator was feeding
/// [`crate::alloc_probe`] (it is only installed in the experiments
/// binary, so library test runs record `false`), and whether the
/// source tree passed the `loadbal-lint` invariants
/// ([`crate::lint_check`]) — timings from a tree that violates the
/// determinism rules are not comparable across PRs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchMeta {
    /// Report tier the measured season ran at.
    pub report_tier: ReportTier,
    /// Worker threads the experiment used (largest count tested).
    pub threads: usize,
    /// The host's available parallelism
    /// (`std::thread::available_parallelism`, 1 when unavailable).
    pub nproc: usize,
    /// True when allocation figures come from the counting allocator.
    pub alloc_probe: bool,
    /// True when the workspace lint pass reported no findings.
    pub lint_clean: bool,
}

impl BenchMeta {
    /// Captures the context for an experiment run.
    pub fn capture(report_tier: ReportTier, threads: usize) -> BenchMeta {
        BenchMeta {
            report_tier,
            threads,
            nproc: std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            alloc_probe: crate::alloc_probe::installed(),
            lint_clean: crate::lint_check::lint_clean(),
        }
    }

    /// The `"meta":{...}` JSON fragment (no trailing comma).
    pub fn to_json(&self) -> String {
        format!(
            "\"meta\":{{\"report_tier\":\"{}\",\"threads\":{},\"nproc\":{},\"alloc_probe\":{},\
             \"lint_clean\":{}}}",
            self.report_tier, self.threads, self.nproc, self.alloc_probe, self.lint_clean
        )
    }
}

impl fmt::Display for BenchMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "host: nproc {}, {} threads, {} tier",
            self.nproc, self.threads, self.report_tier
        )
    }
}

// ---------------------------------------------------------------------
// E15 — fleet scaling: many campaigns on one set of workers
// ---------------------------------------------------------------------

/// One thread-count row of the fleet-scaling experiment.
#[derive(Debug, Clone)]
pub struct FleetScalingRow {
    /// Worker threads the fleet ran on.
    pub threads: usize,
    /// True when `threads` exceeds the host's core count
    /// ([`BenchMeta::nproc`]): the row times contention, not scaling.
    pub oversubscribed: bool,
    /// Wall-clock of the interleaved fleet run, microseconds.
    pub fleet_us: u128,
    /// True if this run was byte-identical to the sequential reference.
    pub matches_reference: bool,
}

/// Result of the fleet-scaling experiment.
#[derive(Debug, Clone)]
pub struct FleetScalingResult {
    /// Grid cells (campaigns) in the fleet.
    pub cells: usize,
    /// Households per cell.
    pub households: usize,
    /// Wall-clock of running every campaign back to back on one thread.
    pub sequential_us: u128,
    /// One row per thread count.
    pub rows: Vec<FleetScalingRow>,
    /// Peaks negotiated fleet-wide.
    pub negotiations: usize,
    /// Runtime context for the JSON record.
    pub meta: BenchMeta,
}

/// E15: the fleet layer — `cells` campaigns over distinct populations
/// of `households` homes, interleaved on one set of workers at
/// increasing thread counts, each run checked byte-identical against
/// the sequential reference. Rows with more threads than the host has
/// cores are flagged as oversubscribed.
pub fn fleet_scaling(cells: usize, households: usize, seed: u64) -> FleetScalingResult {
    use loadbal_core::fleet::FleetRunner;
    let horizon = Horizon::new(6, 0, Season::Winter);
    let weather = WeatherModel::winter();
    let populations: Vec<Vec<Household>> = (0..cells as u64)
        .map(|c| {
            PopulationBuilder::new()
                .households(households)
                .build(seed ^ c)
        })
        .collect();
    let build_fleet = |threads: Option<usize>| {
        let mut fleet = FleetRunner::new();
        if let Some(t) = threads {
            fleet = fleet.threads(std::num::NonZeroUsize::new(t).expect("threads ≥ 1"));
        }
        for (i, homes) in populations.iter().enumerate() {
            let runner = CampaignBuilder::new(homes, &weather, &horizon)
                .predictor(FixedPredictor(WeatherRegression::calibrated()))
                .feedback(ClosedLoop)
                .build();
            fleet = fleet.cell(format!("cell{i}"), runner);
        }
        fleet
    };

    let reference_fleet = build_fleet(Some(1));
    let t0 = Instant::now();
    let reference = reference_fleet.run_sequential();
    let sequential_us = t0.elapsed().as_micros();

    let meta = BenchMeta::capture(ReportTier::FullTrace, 8);
    let rows = [2usize, 4, 8]
        .iter()
        .map(|&threads| {
            let fleet = build_fleet(Some(threads));
            let t = Instant::now();
            let report = fleet.run();
            let fleet_us = t.elapsed().as_micros();
            FleetScalingRow {
                threads,
                oversubscribed: threads > meta.nproc,
                fleet_us,
                matches_reference: report == reference,
            }
        })
        .collect();

    FleetScalingResult {
        cells,
        households,
        sequential_us,
        rows,
        negotiations: reference.negotiations(),
        meta,
    }
}

impl fmt::Display for FleetScalingResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E15 — fleet scaling ({} cells × {} households, {} peaks fleet-wide)",
            self.cells, self.households, self.negotiations
        )?;
        writeln!(f, "  {}", self.meta)?;
        writeln!(
            f,
            "  {:>8} {:>12} {:>9} {:>14}",
            "threads", "wall µs", "identical", "oversubscribed"
        )?;
        writeln!(
            f,
            "  {:>8} {:>12} {:>9} {:>14}",
            "seq", self.sequential_us, "-", "-"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:>8} {:>12} {:>9} {:>14}",
                r.threads,
                r.fleet_us,
                if r.matches_reference { "yes" } else { "NO" },
                if r.oversubscribed { "yes" } else { "no" }
            )?;
        }
        Ok(())
    }
}

impl FleetScalingResult {
    /// A machine-readable record of the timings, for `BENCH_E15.json`
    /// (the experiment binary's `--json` flag) — the cross-PR perf
    /// trajectory file.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"threads\":{},\"oversubscribed\":{},\"fleet_us\":{},\"identical\":{}}}",
                    r.threads, r.oversubscribed, r.fleet_us, r.matches_reference
                )
            })
            .collect();
        format!(
            "{{\"experiment\":\"E15\",{},\"cells\":{},\"households\":{},\"negotiations\":{},\
             \"sequential_us\":{},\"rows\":[{}]}}",
            self.meta.to_json(),
            self.cells,
            self.households,
            self.negotiations,
            self.sequential_us,
            rows.join(",")
        )
    }
}

// ---------------------------------------------------------------------
// E16 — the negotiation hot loop: a season as one fleet, and
// scratch-reusing vs fresh-engine negotiation
// ---------------------------------------------------------------------

/// Result of the hot-loop experiment.
#[derive(Debug, Clone)]
pub struct HotLoopResult {
    /// Grid cells (campaigns).
    pub cells: usize,
    /// Households per cell.
    pub households: usize,
    /// Horizon length in days (warmup 3).
    pub days: u64,
    /// Worker threads the season's fleet ran on.
    pub threads: usize,
    /// Peaks negotiated across all cells.
    pub peaks: usize,
    /// True if the season, run as one fleet at `threads` workers, was
    /// byte-identical to the sequential reference (asserted — this is
    /// the CI smoke).
    pub identical: bool,
    /// Negotiations in the engine micro-comparison.
    pub micro_peaks: usize,
    /// Repetitions of the micro-comparison.
    pub micro_reps: usize,
    /// Negotiating every peak with fresh engines per peak, microseconds.
    pub fresh_us: u128,
    /// The same peaks through one reused
    /// [`NegotiationScratch`](loadbal_core::sync_driver::NegotiationScratch),
    /// microseconds.
    pub scratch_us: u128,
    /// `fresh_us / scratch_us`.
    pub negotiation_speedup: f64,
    /// Heap allocations per negotiated peak, fresh-engine path (`None`
    /// when the counting allocator is not installed — it lives in the
    /// experiments binary, not the library).
    pub fresh_allocs_per_peak: Option<f64>,
    /// Heap allocations per negotiated peak through the scratch.
    pub scratch_allocs_per_peak: Option<f64>,
    /// Runtime context for the JSON record.
    pub meta: BenchMeta,
}

/// E16: the other half of the hot path, after E15 made demand
/// simulation allocation-free — the *negotiation* inner loop.
///
/// Every negotiation once built fresh engines (bid vectors,
/// reward-table snapshots, effect queues) per peak. This experiment
/// runs a ≥20-day, multi-cell season as one fleet at `threads` workers
/// and asserts **byte identity** with the sequential reference, then
/// micro-times clone-vs-scratch negotiation over the season's real peak
/// scenarios (with per-peak allocation counts when the instrumented
/// binary runs it).
pub fn hot_loop(
    cells: usize,
    households: usize,
    days: u64,
    threads: usize,
    seed: u64,
) -> HotLoopResult {
    use loadbal_core::fleet::FleetRunner;
    use loadbal_core::sync_driver::NegotiationScratch;

    let horizon = Horizon::new(days, 0, Season::Winter);
    let weather = WeatherModel::winter();
    let populations: Vec<Vec<Household>> = (0..cells as u64)
        .map(|c| {
            PopulationBuilder::new()
                .households(households)
                .build(seed ^ c)
        })
        .collect();
    let mut fleet = FleetRunner::new().threads(NonZeroUsize::new(threads.max(1)).expect("≥ 1"));
    for (i, homes) in populations.iter().enumerate() {
        let runner = CampaignBuilder::new(homes, &weather, &horizon)
            .predictor(FixedPredictor(WeatherRegression::calibrated()))
            .feedback(ClosedLoop)
            .build();
        fleet = fleet.cell(format!("cell{i}"), runner);
    }

    let reference = fleet.run_sequential();
    assert_eq!(
        fleet.run(),
        reference,
        "the season as one fleet at {threads} threads must be byte-identical to sequential"
    );
    let peaks = reference.negotiations();

    // --- clone-vs-scratch negotiation, on the season's real peaks ----
    let micro: Vec<Scenario> = reference.cells[0]
        .report
        .outcomes
        .iter()
        .map(|o| *o.scenario.clone().expect("full-trace campaign"))
        .collect();
    let micro_reps = 3;
    let allocs_before = crate::alloc_probe::count();
    let t2 = Instant::now();
    let mut fresh_reports = Vec::new();
    for _ in 0..micro_reps {
        fresh_reports.clear();
        fresh_reports.extend(micro.iter().map(|s| s.run()));
    }
    let fresh_us = t2.elapsed().as_micros();
    let fresh_allocs = crate::alloc_probe::count() - allocs_before;

    let mut scratch = NegotiationScratch::new();
    let allocs_before = crate::alloc_probe::count();
    let t3 = Instant::now();
    let mut scratch_reports = Vec::new();
    for _ in 0..micro_reps {
        scratch_reports.clear();
        scratch_reports.extend(micro.iter().map(|s| scratch.run(s, ReportTier::FullTrace)));
    }
    let scratch_us = t3.elapsed().as_micros();
    let scratch_allocs = crate::alloc_probe::count() - allocs_before;
    assert_eq!(
        fresh_reports, scratch_reports,
        "scratch negotiation must be byte-identical to fresh engines"
    );

    let per_peak = |allocs: u64| {
        // 0 means the counting allocator is absent (library test run).
        (allocs > 0).then(|| allocs as f64 / (micro.len().max(1) * micro_reps) as f64)
    };
    HotLoopResult {
        cells,
        households,
        days,
        threads,
        peaks,
        identical: true, // asserted above
        micro_peaks: micro.len(),
        micro_reps,
        fresh_us,
        scratch_us,
        negotiation_speedup: fresh_us as f64 / scratch_us.max(1) as f64,
        fresh_allocs_per_peak: per_peak(fresh_allocs),
        scratch_allocs_per_peak: per_peak(scratch_allocs),
        meta: BenchMeta::capture(ReportTier::FullTrace, threads),
    }
}

impl HotLoopResult {
    /// A machine-readable record of the timings, for `BENCH_E16.json`
    /// (the experiment binary's `--json` flag) — the cross-PR perf
    /// trajectory file.
    pub fn to_json(&self) -> String {
        let opt = |v: Option<f64>| {
            v.map(|x| format!("{x:.2}"))
                .unwrap_or_else(|| "null".into())
        };
        format!(
            "{{\"experiment\":\"E16\",{},\"cells\":{},\"households\":{},\"days\":{},\"threads\":{},\
             \"peaks\":{},\"identical\":{},\"micro_peaks\":{},\"micro_reps\":{},\"fresh_us\":{},\
             \"scratch_us\":{},\"negotiation_speedup\":{:.4},\"fresh_allocs_per_peak\":{},\
             \"scratch_allocs_per_peak\":{}}}",
            self.meta.to_json(),
            self.cells,
            self.households,
            self.days,
            self.threads,
            self.peaks,
            self.identical,
            self.micro_peaks,
            self.micro_reps,
            self.fresh_us,
            self.scratch_us,
            self.negotiation_speedup,
            opt(self.fresh_allocs_per_peak),
            opt(self.scratch_allocs_per_peak),
        )
    }
}

impl fmt::Display for HotLoopResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E16 — negotiation hot loop ({} cells × {} households, \
             {}-day season, {} peaks, {} threads)",
            self.cells, self.households, self.days, self.peaks, self.threads
        )?;
        writeln!(f, "  {}", self.meta)?;
        writeln!(
            f,
            "  season:           one fleet at {} threads == sequential: {}",
            self.threads,
            if self.identical { "yes" } else { "NO" }
        )?;
        writeln!(
            f,
            "  negotiation:      fresh engines {} µs vs scratch {} µs ({:.2}×) over {} peaks × {} reps",
            self.fresh_us, self.scratch_us, self.negotiation_speedup, self.micro_peaks, self.micro_reps
        )?;
        match (self.fresh_allocs_per_peak, self.scratch_allocs_per_peak) {
            (Some(fresh), Some(scratch)) => writeln!(
                f,
                "  allocations/peak: fresh {fresh:.1} vs scratch {scratch:.1} ({:.2}×)",
                fresh / scratch.max(1e-9)
            ),
            _ => writeln!(
                f,
                "  allocations/peak: (not instrumented — run the experiments binary)"
            ),
        }
    }
}

// ---------------------------------------------------------------------
// E17 — report tiers: peak report memory and archive bytes per day
// ---------------------------------------------------------------------

/// One tier's row of the report-tier experiment.
#[derive(Debug, Clone)]
pub struct TierRow {
    /// The tier the season ran at.
    pub tier: ReportTier,
    /// Wall-clock of the sequential season, microseconds (the cells
    /// are prepared beforehand, see `prepared_bytes`).
    pub run_us: u128,
    /// Bytes the cells' memoised preparation holds — the simulated
    /// horizon, producer and UA configuration each runner builds on
    /// first use, the same at every tier (live-bytes delta across
    /// preparation; `None` without the counting allocator).
    pub prepared_bytes: Option<i64>,
    /// Bytes the finished [`FleetReport`](loadbal_core::fleet::FleetReport)
    /// retains (live-bytes delta across the run of the prepared cells;
    /// `None` without the counting allocator).
    pub retained_bytes: Option<i64>,
    /// Heap allocations the run performed (`None` without the counting
    /// allocator).
    pub allocations: Option<u64>,
    /// Round records stored across every outcome (must be 0 below
    /// [`ReportTier::FullTrace`] — the tier-enforcement guard).
    pub rounds_stored: usize,
    /// Settlements stored across every outcome.
    pub settlements_stored: usize,
    /// Scenarios retained across every outcome (full-trace only).
    pub scenarios_stored: usize,
    /// Season-archive size at this tier, bytes.
    pub archive_bytes: u64,
    /// `archive_bytes / (cells × evaluated days)`.
    pub archive_bytes_per_day: f64,
    /// True if the written archive decoded back equal to the report.
    pub roundtrip_ok: bool,
}

/// Result of the report-tier experiment.
#[derive(Debug, Clone)]
pub struct ReportTiersResult {
    /// Grid cells (campaigns) in the fleet.
    pub cells: usize,
    /// Households per cell.
    pub households: usize,
    /// Horizon length in days.
    pub days: u64,
    /// One row per tier, [`ReportTier::Aggregate`] first.
    pub rows: Vec<TierRow>,
    /// True if every tier produced identical digest scalars and
    /// economics to the full-trace run (the tiers drop storage, never
    /// results).
    pub scalars_identical: bool,
    /// `settlement retained bytes / full-trace retained bytes` — report
    /// storage only, preparation excluded (`None` without the counting
    /// allocator). The acceptance headline: must stay ≤ 0.1, which the
    /// experiments binary asserts.
    pub settlement_memory_ratio: Option<f64>,
    /// Runtime context for the JSON record.
    pub meta: BenchMeta,
}

/// E17: what each [`ReportTier`] costs. The same `cells`-cell,
/// `days`-day season runs sequentially (determinism — every tier sees
/// identical negotiations) once per tier. Every cell is prepared before
/// the measured run, so the allocation probe's live-bytes delta around
/// the run measures only what the finished report *retains*; the
/// preparation is measured apart. Each report is then archived with
/// [`loadbal_archive::write_fleet_to`] and read back to measure bytes
/// per stored day and verify the round trip.
///
/// Two guards are asserted here (not just reported): below
/// `FullTrace` no outcome stores a single round record, and every
/// tier's digest scalars and economics are identical to the
/// full-trace run's.
pub fn report_tiers(cells: usize, households: usize, days: u64, seed: u64) -> ReportTiersResult {
    use loadbal_archive::{write_fleet_to, SeasonArchive};
    use loadbal_core::fleet::FleetRunner;
    use std::io::Cursor;

    let horizon = Horizon::new(days, 0, Season::Winter);
    let weather = WeatherModel::winter();
    let populations: Vec<Vec<Household>> = (0..cells as u64)
        .map(|c| {
            PopulationBuilder::new()
                .households(households)
                .build(seed ^ c)
        })
        .collect();
    // A patient negotiator: a gentle β with a fine convergence
    // threshold ε and a tight overuse ceiling stretches every
    // negotiation across many small concession steps, so the
    // full-trace tier faces a season's worth of round records — the
    // storage regime the lower tiers exist to avoid.
    let ua = UtilityAgentConfig {
        beta_policy: BetaPolicy::Constant { beta: 0.5 },
        max_allowed_overuse: 0.02,
        formula: RewardFormula {
            beta: 0.5,
            max_reward: Money(60.0),
            epsilon: Money(0.05),
        },
        ..UtilityAgentConfig::paper()
    };
    let build_fleet = |tier: ReportTier| {
        let mut fleet = FleetRunner::new();
        for (i, homes) in populations.iter().enumerate() {
            let runner = CampaignBuilder::new(homes, &weather, &horizon)
                .predictor(FixedPredictor(WeatherRegression::calibrated()))
                .feedback(ClosedLoop)
                .ua_config(ua)
                .report_tier(tier)
                .build();
            fleet = fleet.cell(format!("cell{i}"), runner);
        }
        fleet
    };

    let probe = crate::alloc_probe::installed();
    let reference = build_fleet(ReportTier::FullTrace).run_sequential();

    let mut rows = Vec::with_capacity(ReportTier::all().len());
    let mut scalars_identical = true;
    for tier in ReportTier::all() {
        let fleet = build_fleet(tier);
        // Each runner memoises its horizon on first use; preparing here
        // keeps that memory, identical at every tier, out of the
        // report-storage delta below.
        let live_before = crate::alloc_probe::live_bytes();
        for (_, runner) in fleet.cells() {
            runner.producer();
        }
        let prepared = crate::alloc_probe::live_bytes() - live_before;
        let live_before = crate::alloc_probe::live_bytes();
        let allocs_before = crate::alloc_probe::count();
        let t0 = Instant::now();
        let report = fleet.run_sequential();
        let run_us = t0.elapsed().as_micros();
        let allocations = crate::alloc_probe::count() - allocs_before;
        let retained = crate::alloc_probe::live_bytes() - live_before;

        let mut rounds_stored = 0;
        let mut settlements_stored = 0;
        let mut scenarios_stored = 0;
        for cell in &report.cells {
            for o in &cell.report.outcomes {
                rounds_stored += o.report.rounds().len();
                settlements_stored += o.report.settlements().len();
                scenarios_stored += usize::from(o.scenario.is_some());
            }
        }
        assert!(
            tier.keeps_rounds() || rounds_stored == 0,
            "{tier}: the assembler stored {rounds_stored} round records below full-trace"
        );
        assert!(
            tier.keeps_rounds() || scenarios_stored == 0,
            "{tier}: {scenarios_stored} scenarios retained below full-trace"
        );

        // The tiers must change storage, never results: digest scalars
        // and economics are identical to the full-trace run's.
        let same = report.cells.len() == reference.cells.len()
            && report.economics == reference.economics
            && report.cells.iter().zip(&reference.cells).all(|(a, b)| {
                a.report.outcomes.len() == b.report.outcomes.len()
                    && a.report.economics == b.report.economics
                    && a.report
                        .outcomes
                        .iter()
                        .zip(&b.report.outcomes)
                        .all(|(x, y)| x.report.digest() == y.report.digest())
            });
        assert!(same, "{tier}: digest scalars diverged from full-trace");
        scalars_identical &= same;

        let mut bytes = Vec::new();
        write_fleet_to(&mut bytes, &report, tier).expect("write archive to Vec");
        let archive_bytes = bytes.len() as u64;
        let roundtrip_ok = SeasonArchive::from_reader(Cursor::new(bytes))
            .and_then(|mut a| a.read_fleet())
            .map(|decoded| decoded == report)
            .unwrap_or(false);
        let stored_days: usize = report.cells.iter().map(|c| c.report.days.len()).sum();

        rows.push(TierRow {
            tier,
            run_us,
            prepared_bytes: probe.then_some(prepared),
            retained_bytes: probe.then_some(retained),
            allocations: probe.then_some(allocations),
            rounds_stored,
            settlements_stored,
            scenarios_stored,
            archive_bytes,
            archive_bytes_per_day: archive_bytes as f64 / stored_days.max(1) as f64,
            roundtrip_ok,
        });
    }

    let retained_of = |tier: ReportTier| {
        rows.iter()
            .find(|r| r.tier == tier)
            .and_then(|r| r.retained_bytes)
    };
    let settlement_memory_ratio = match (
        retained_of(ReportTier::Settlement),
        retained_of(ReportTier::FullTrace),
    ) {
        (Some(s), Some(f)) if f > 0 => Some(s as f64 / f as f64),
        _ => None,
    };

    ReportTiersResult {
        cells,
        households,
        days,
        rows,
        scalars_identical,
        settlement_memory_ratio,
        meta: BenchMeta::capture(ReportTier::FullTrace, 1),
    }
}

impl fmt::Display for ReportTiersResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E17 — report tiers ({} cells × {} households, {}-day season, sequential)",
            self.cells, self.households, self.days
        )?;
        for r in &self.rows {
            let retained = r
                .retained_bytes
                .map(|b| format!("{b} B retained"))
                .unwrap_or_else(|| "retained n/a (no probe)".into());
            let prepared = r
                .prepared_bytes
                .map(|b| format!("{b} B prepared"))
                .unwrap_or_else(|| "prepared n/a".into());
            writeln!(
                f,
                "  {:<11} {:>8} µs  {:>20}  {:>18}  rounds={} settlements={} scenarios={} \
                 archive={} B ({:.1} B/day) roundtrip={}",
                r.tier.to_string(),
                r.run_us,
                retained,
                prepared,
                r.rounds_stored,
                r.settlements_stored,
                r.scenarios_stored,
                r.archive_bytes,
                r.archive_bytes_per_day,
                if r.roundtrip_ok { "ok" } else { "FAILED" }
            )?;
        }
        writeln!(
            f,
            "  scalars identical across tiers: {}",
            if self.scalars_identical { "yes" } else { "NO" }
        )?;
        match self.settlement_memory_ratio {
            Some(ratio) => writeln!(
                f,
                "  settlement / full-trace retained memory: {ratio:.4} (target ≤ 0.1)"
            ),
            None => writeln!(
                f,
                "  settlement / full-trace retained memory: n/a (counting allocator absent)"
            ),
        }
    }
}

impl ReportTiersResult {
    /// A machine-readable record for `BENCH_E17.json` (the experiment
    /// binary's `--json` flag) — the cross-PR memory/size trajectory of
    /// the reporting tiers.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let opt_i =
                    |v: Option<i64>| v.map(|x| x.to_string()).unwrap_or_else(|| "null".into());
                let opt_u =
                    |v: Option<u64>| v.map(|x| x.to_string()).unwrap_or_else(|| "null".into());
                format!(
                    "{{\"tier\":\"{}\",\"run_us\":{},\"prepared_bytes\":{},\"retained_bytes\":{},\
                     \"allocations\":{},\"rounds_stored\":{},\"settlements_stored\":{},\
                     \"scenarios_stored\":{},\"archive_bytes\":{},\"archive_bytes_per_day\":{:.1},\
                     \"roundtrip_ok\":{}}}",
                    r.tier,
                    r.run_us,
                    opt_i(r.prepared_bytes),
                    opt_i(r.retained_bytes),
                    opt_u(r.allocations),
                    r.rounds_stored,
                    r.settlements_stored,
                    r.scenarios_stored,
                    r.archive_bytes,
                    r.archive_bytes_per_day,
                    r.roundtrip_ok
                )
            })
            .collect();
        let ratio = self
            .settlement_memory_ratio
            .map(|x| format!("{x:.4}"))
            .unwrap_or_else(|| "null".into());
        format!(
            "{{\"experiment\":\"E17\",{},\"cells\":{},\"households\":{},\"days\":{},\
             \"rows\":[{}],\"scalars_identical\":{},\"settlement_memory_ratio\":{}}}",
            self.meta.to_json(),
            self.cells,
            self.households,
            self.days,
            rows.join(","),
            self.scalars_identical,
            ratio
        )
    }
}

// ---------------------------------------------------------------------
// E18 — fault resilience: clean vs faulty distributed seasons
// ---------------------------------------------------------------------

/// One fault class's row of the resilience experiment.
#[derive(Debug, Clone)]
pub struct FaultResilienceRow {
    /// The injected fault class.
    pub class: FaultClass,
    /// Mean `|Δ cut-down|` across matched settlements.
    pub mean_drift: f64,
    /// Largest single settlement drift.
    pub max_drift: f64,
    /// Faulty minus clean reward outlay (positive: faults cost money).
    pub reward_delta: f64,
    /// Faulty minus clean negotiation rounds.
    pub extra_rounds: i64,
    /// Faulty minus clean protocol messages.
    pub extra_messages: i64,
    /// Rounds the UA concluded on its deadline.
    pub deadline_forced: u64,
    /// Messages the network dropped.
    pub dropped: u64,
    /// Messages the network duplicated.
    pub duplicated: u64,
    /// Peaks matched against the clean season.
    pub matched_peaks: usize,
    /// Peaks present in only one season (closed-loop divergence).
    pub unmatched_peaks: usize,
    /// Wall-clock of the faulty season, microseconds.
    pub wall_us: u128,
}

/// Result of the fault-resilience experiment.
#[derive(Debug, Clone)]
pub struct FaultResilienceResult {
    /// Grid cells (campaigns) in the fleet.
    pub cells: usize,
    /// Households per cell.
    pub households: usize,
    /// Horizon length in days.
    pub days: u64,
    /// True if the distributed-clean season's
    /// [`FleetReport`](loadbal_core::fleet::FleetReport) was
    /// byte-identical to the sync season's — the §3.2 transparency
    /// claim, asserted end to end.
    pub clean_identical_to_sync: bool,
    /// Peaks negotiated in the clean season.
    pub negotiations: usize,
    /// Wall-clock of the sync season, microseconds.
    pub sync_wall_us: u128,
    /// Wall-clock of the distributed-clean season, microseconds.
    pub clean_wall_us: u128,
    /// Messages the clean season put on the (perfect) wire.
    pub clean_messages: u64,
    /// One row per injected fault class.
    pub rows: Vec<FaultResilienceRow>,
    /// Runtime context for the JSON record.
    pub meta: BenchMeta,
}

/// E18: what an unreliable network costs a season. The same
/// `cells`-cell winter fleet runs once synchronously, once distributed
/// over a perfect network (asserted byte-identical — the paper's
/// location-transparency claim), and once per [`FaultClass`] over that
/// class's stock faulty network; the [`ResilienceReport`] diffs each
/// faulty season against the clean one peak by peak.
///
/// Settlement tier: drift needs settlements, and this is the tier a
/// season-scale study would actually run at.
pub fn fault_resilience(
    cells: usize,
    households: usize,
    days: u64,
    seed: u64,
) -> FaultResilienceResult {
    use loadbal_core::fleet::FleetRunner;
    let horizon = Horizon::new(days, 0, Season::Winter);
    let weather = WeatherModel::winter();
    let populations: Vec<Vec<Household>> = (0..cells as u64)
        .map(|c| {
            PopulationBuilder::new()
                .households(households)
                .build(seed ^ c)
        })
        .collect();
    let threads = std::num::NonZeroUsize::new(4).expect("4 > 0");
    let build_fleet = |mode: ExecutionMode| {
        let mut fleet = FleetRunner::new().threads(threads);
        for (i, homes) in populations.iter().enumerate() {
            let runner = CampaignBuilder::new(homes, &weather, &horizon)
                .predictor(FixedPredictor(WeatherRegression::calibrated()))
                .feedback(ClosedLoop)
                .report_tier(ReportTier::Settlement)
                .execution(mode.clone())
                .build();
            fleet = fleet.cell(format!("cell{i}"), runner);
        }
        fleet
    };

    let t0 = Instant::now();
    let sync = build_fleet(ExecutionMode::sync()).run();
    let sync_wall_us = t0.elapsed().as_micros();

    let t0 = Instant::now();
    let (clean, clean_traffic) =
        build_fleet(ExecutionMode::distributed_clean().with_seed(seed)).run_instrumented();
    let clean_wall_us = t0.elapsed().as_micros();
    let clean_identical_to_sync = clean == sync;
    assert!(
        clean_identical_to_sync,
        "distributed-clean season drifted from sync"
    );

    let mut walls = Vec::new();
    let report = ResilienceReport::against_baseline(
        &clean,
        &clean_traffic,
        seed,
        &FaultClass::all(),
        |mode| {
            let t = Instant::now();
            let out = build_fleet(mode).run_instrumented();
            walls.push(t.elapsed().as_micros());
            out
        },
    );

    let rows = report
        .outcomes()
        .iter()
        .zip(walls)
        .map(|(o, wall_us)| FaultResilienceRow {
            class: o.class,
            mean_drift: o.mean_drift(),
            max_drift: o.max_drift(),
            reward_delta: o.reward_delta().value(),
            extra_rounds: o.extra_rounds(),
            extra_messages: o.extra_messages(),
            deadline_forced: o.traffic().deadline_forced_rounds,
            dropped: o.traffic().messages_dropped,
            duplicated: o.traffic().messages_duplicated,
            matched_peaks: o.matched_peaks(),
            unmatched_peaks: o.unmatched_peaks(),
            wall_us,
        })
        .collect();

    FaultResilienceResult {
        cells,
        households,
        days,
        clean_identical_to_sync,
        negotiations: clean.negotiations(),
        sync_wall_us,
        clean_wall_us,
        clean_messages: report.clean_traffic().messages_sent,
        rows,
        meta: BenchMeta::capture(ReportTier::Settlement, threads.get()),
    }
}

impl fmt::Display for FaultResilienceResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E18 — fault resilience ({} cells × {} households, {}-day season, {} peaks)",
            self.cells, self.households, self.days, self.negotiations
        )?;
        writeln!(
            f,
            "  sync {} µs | distributed-clean {} µs ({} wire messages), identical: {}",
            self.sync_wall_us,
            self.clean_wall_us,
            self.clean_messages,
            if self.clean_identical_to_sync {
                "yes"
            } else {
                "NO"
            }
        )?;
        writeln!(
            f,
            "  {:>9} {:>10} {:>9} {:>9} {:>7} {:>7} {:>8} {:>7} {:>7} {:>9} {:>10}",
            "class",
            "drift mean",
            "max",
            "Δrewards",
            "+rounds",
            "+msgs",
            "forced",
            "dropped",
            "dup'd",
            "unmatched",
            "wall µs"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:>9} {:>10.4} {:>9.4} {:>9.2} {:>7} {:>7} {:>8} {:>7} {:>7} {:>9} {:>10}",
                r.class.name(),
                r.mean_drift,
                r.max_drift,
                r.reward_delta,
                r.extra_rounds,
                r.extra_messages,
                r.deadline_forced,
                r.dropped,
                r.duplicated,
                r.unmatched_peaks,
                r.wall_us
            )?;
        }
        Ok(())
    }
}

impl FaultResilienceResult {
    /// A machine-readable record for `BENCH_E18.json` (the experiment
    /// binary's `--json` flag) — per-class settlement drift, reward
    /// loss and wire counters for the cross-PR trajectory.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"class\":\"{}\",\"mean_drift\":{:.6},\"max_drift\":{:.6},\
                     \"reward_delta\":{:.4},\"extra_rounds\":{},\"extra_messages\":{},\
                     \"deadline_forced\":{},\"dropped\":{},\"duplicated\":{},\
                     \"matched_peaks\":{},\"unmatched_peaks\":{},\"wall_us\":{}}}",
                    r.class.name(),
                    r.mean_drift,
                    r.max_drift,
                    r.reward_delta,
                    r.extra_rounds,
                    r.extra_messages,
                    r.deadline_forced,
                    r.dropped,
                    r.duplicated,
                    r.matched_peaks,
                    r.unmatched_peaks,
                    r.wall_us
                )
            })
            .collect();
        format!(
            "{{\"experiment\":\"E18\",{},\"cells\":{},\"households\":{},\"days\":{},\
             \"negotiations\":{},\"clean_identical_to_sync\":{},\"sync_wall_us\":{},\
             \"clean_wall_us\":{},\"clean_messages\":{},\"rows\":[{}]}}",
            self.meta.to_json(),
            self.cells,
            self.households,
            self.days,
            self.negotiations,
            self.clean_identical_to_sync,
            self.sync_wall_us,
            self.clean_wall_us,
            self.clean_messages,
            rows.join(",")
        )
    }
}

// ---------------------------------------------------------------------
// E19 — adaptive loops: static vs self-tuning campaign economics
// ---------------------------------------------------------------------

/// One policy's season of the adaptive-loops experiment.
#[derive(Debug, Clone)]
pub struct AdaptiveLoopsRow {
    /// `"static"` or `"adaptive"`.
    pub policy: String,
    /// Peaks negotiated (renegotiation passes included).
    pub negotiations: usize,
    /// Total energy shaved out of the peaks (overshoot included).
    pub energy_shaved: f64,
    /// Overuse actually eliminated: energy brought from above the
    /// capacity line back under it — the load-balancing value the
    /// utility buys. The gap to [`AdaptiveLoopsRow::energy_shaved`] is
    /// curtailment that balanced nothing (profile cut below the line),
    /// paid for all the same.
    pub overuse_removed: f64,
    /// Total reward outlay.
    pub rewards: f64,
    /// Peak saving minus rewards paid.
    pub net_gain: f64,
    /// Negotiations the marginal-cost stop rule ended.
    pub economic_stops: usize,
    /// Wall-clock of the parallel season, microseconds.
    pub wall_us: u128,
}

/// Result of the adaptive-loops experiment.
#[derive(Debug, Clone)]
pub struct AdaptiveLoopsResult {
    /// Households in the cell.
    pub households: usize,
    /// Horizon length in days.
    pub days: u64,
    /// The static-policy season, then the adaptive season.
    pub rows: Vec<AdaptiveLoopsRow>,
    /// Intra-day renegotiation passes the adaptive season ran
    /// (outcome labels carrying a `#r` suffix).
    pub renegotiation_passes: usize,
    /// Day boundaries at which the rolling predictor policy switched
    /// models mid-season.
    pub predictor_switches: usize,
    /// The tuned β (the beta policy's base) after the last day.
    pub final_beta: f64,
    /// The tuned allowed-overuse band after the last day.
    pub final_band: f64,
    /// Adaptive removed at least as much overuse for at most the
    /// static season's reward outlay (asserted).
    pub economics_no_worse: bool,
    /// The adaptive season was byte-identical in every cell of a
    /// two-cell fleet at 2 and 4 threads, and on a replay (asserted).
    pub identical_across_threads: bool,
    /// The adaptive distributed-clean season was byte-identical to the
    /// sync season (asserted).
    pub clean_identical_to_sync: bool,
    /// Runtime context for the JSON record.
    pub meta: BenchMeta,
}

/// E19: what closing the three self-tuning loops buys. The same seeded
/// winter season runs once with the static policy set (warmup-backtest
/// predictor, closed loop, marginal-cost stop — the E14 winner) and
/// once with all three adaptive loops on
/// ([`loadbal_core::adaptive::RollingWindow`] predictor re-selection,
/// [`loadbal_core::adaptive::RenegotiateResidual`] intra-day
/// renegotiation, [`loadbal_core::adaptive::AdaptiveTuning`] β/band
/// tuning, same stop rule).
///
/// The experiment **asserts** the adaptive economics are no worse: at
/// least as much *overuse removed* — energy brought from above the
/// capacity line back under it, the load-balancing value the utility
/// actually buys — at no more than the static reward outlay. Raw
/// curtailment (`energy_shaved`) is reported alongside: the static
/// season's high fixed β jumps the reward table past the crossing
/// point, over-curtailing the whole profile (energy cut below the line
/// balances nothing but is paid for at crossing-round prices), while
/// experience tuning flattens β after those overspent instant deals so
/// later ladders settle nearer the line, renegotiation passes recover
/// residual the same day on fresh entry-priced ladders, and predictor
/// re-selection keeps finding real peaks as closed-loop feedback
/// drifts the season away from the warmup backtest's pick.
///
/// It also **asserts** the project's core invariant survives the new
/// subsystem: the adaptive season is byte-identical on a replay, in
/// every cell of a two-cell fleet at 2 and 4 worker threads, to a
/// hand-stepped run, and between sync and distributed-clean execution.
pub fn adaptive_loops(households: usize, days: u64, seed: u64) -> AdaptiveLoopsResult {
    use loadbal_core::adaptive::{AdaptiveTuning, RenegotiateResidual, RollingWindow};
    use loadbal_core::campaign::BacktestSelected;
    use loadbal_core::fleet::FleetRunner;
    use loadbal_core::sync_driver::NegotiationScratch;

    let homes = PopulationBuilder::new().households(households).build(seed);
    let horizon = Horizon::new(days, 0, Season::Winter);
    let weather = WeatherModel::winter();
    let warmup = 4;

    let static_build = || {
        CampaignBuilder::new(&homes, &weather, &horizon)
            .warmup_days(warmup)
            .predictor(BacktestSelected::standard())
            .feedback(ClosedLoop)
            .stop_rule(MarginalCostStop)
            .build()
    };
    let adaptive_build_in = |mode: ExecutionMode| {
        CampaignBuilder::new(&homes, &weather, &horizon)
            .warmup_days(warmup)
            .predictor(RollingWindow::standard(6, 2))
            .feedback(RenegotiateResidual::new(2, 0.005))
            .tuning(AdaptiveTuning)
            .stop_rule(MarginalCostStop)
            .execution(mode)
            .build()
    };
    let adaptive_build = || adaptive_build_in(ExecutionMode::sync());

    let t0 = Instant::now();
    let static_report = static_build().run();
    let static_wall_us = t0.elapsed().as_micros();

    let t0 = Instant::now();
    let adaptive_report = adaptive_build().run();
    let adaptive_wall_us = t0.elapsed().as_micros();

    // Byte-identity on a replay, across thread counts — a lone campaign
    // is one queue entry whatever the thread count, so the same season
    // runs as two cells that the workers interleave — and between sync
    // and distributed-clean execution.
    let reference = adaptive_build().run();
    let identical_across_threads = [2usize, 4].iter().all(|&n| {
        let fleet = FleetRunner::new()
            .cell("first", adaptive_build())
            .cell("second", adaptive_build())
            .threads(std::num::NonZeroUsize::new(n).expect("thread counts are positive"));
        fleet
            .run()
            .cells
            .iter()
            .all(|cell| cell.report == reference)
    }) && adaptive_report == reference;
    let (clean_season, _) =
        adaptive_build_in(ExecutionMode::distributed_clean().with_seed(seed)).run_instrumented();
    let clean_identical_to_sync = clean_season == reference;

    // Step the adaptive season once more, sequentially, to read the
    // tuned state the campaign ended on (identical to the runs above —
    // stepping is the same cycle).
    let runner = adaptive_build();
    let mut progress = runner.progress();
    let mut scratch = NegotiationScratch::new();
    while let Some(plan) = progress.next_day() {
        let reports = (0..plan.scenarios().len())
            .map(|i| plan.negotiate(i, &mut scratch))
            .collect();
        progress.complete_day(plan, reports);
    }
    let final_beta = progress.ua_config().beta_policy.base_beta();
    let final_band = progress.ua_config().max_allowed_overuse;
    let stepped = progress.finish();
    assert_eq!(stepped, reference, "stepping is the same cycle");

    let renegotiation_passes = adaptive_report
        .outcomes
        .iter()
        .filter(|o| o.label.contains("#r"))
        .count();
    let predictor_switches = adaptive_report
        .days
        .windows(2)
        .filter(|w| w[0].predictor != w[1].predictor)
        .count();

    let row = |policy: &str, report: &CampaignReport, wall_us: u128| {
        let overuse_removed: f64 = report
            .outcomes
            .iter()
            .map(|o| {
                (o.report.initial_overuse() - o.report.final_overuse())
                    .value()
                    .max(0.0)
            })
            .sum();
        AdaptiveLoopsRow {
            policy: policy.to_string(),
            negotiations: report.negotiations(),
            energy_shaved: report.total_energy_shaved().value(),
            overuse_removed,
            rewards: report.total_rewards().value(),
            net_gain: report.economics.net_gain.value(),
            economic_stops: report.economics.economic_stops,
            wall_us,
        }
    };
    let static_row = row("static", &static_report, static_wall_us);
    let adaptive_row = row("adaptive", &adaptive_report, adaptive_wall_us);

    let economics_no_worse = adaptive_row.overuse_removed >= static_row.overuse_removed - 1e-9
        && adaptive_row.rewards <= static_row.rewards + 1e-9;
    assert!(
        economics_no_worse,
        "adaptive must remove >= {:.1} kWh of overuse (got {:.1}) at rewards <= {:.1} (got {:.1})",
        static_row.overuse_removed,
        adaptive_row.overuse_removed,
        static_row.rewards,
        adaptive_row.rewards
    );
    assert!(identical_across_threads, "adaptive byte-identity broke");
    assert!(
        clean_identical_to_sync,
        "distributed-clean drifted from sync"
    );

    AdaptiveLoopsResult {
        households,
        days,
        rows: vec![static_row, adaptive_row],
        renegotiation_passes,
        predictor_switches,
        final_beta,
        final_band,
        economics_no_worse,
        identical_across_threads,
        clean_identical_to_sync,
        meta: BenchMeta::capture(ReportTier::FullTrace, 4),
    }
}

impl fmt::Display for AdaptiveLoopsResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E19 — adaptive loops ({} households, {}-day season, warmup 4)",
            self.households, self.days
        )?;
        writeln!(
            f,
            "  {:<10} {:>6} {:>12} {:>12} {:>10} {:>10} {:>6} {:>10}",
            "policy",
            "peaks",
            "removed kWh",
            "shaved kWh",
            "rewards",
            "net gain",
            "stops",
            "wall µs"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<10} {:>6} {:>12.1} {:>12.1} {:>10.1} {:>10.1} {:>6} {:>10}",
                r.policy,
                r.negotiations,
                r.overuse_removed,
                r.energy_shaved,
                r.rewards,
                r.net_gain,
                r.economic_stops,
                r.wall_us
            )?;
        }
        writeln!(
            f,
            "  {} renegotiation passes | {} predictor switches | final β {:.2}, band {:.3}",
            self.renegotiation_passes, self.predictor_switches, self.final_beta, self.final_band
        )?;
        writeln!(
            f,
            "  economics no worse: {} | identical across threads: {} | clean == sync: {}",
            if self.economics_no_worse { "yes" } else { "NO" },
            if self.identical_across_threads {
                "yes"
            } else {
                "NO"
            },
            if self.clean_identical_to_sync {
                "yes"
            } else {
                "NO"
            }
        )
    }
}

impl AdaptiveLoopsResult {
    /// A machine-readable record for `BENCH_E19.json` (the experiment
    /// binary's `--json` flag) — static vs adaptive season economics
    /// plus the three loop counters for the cross-PR trajectory.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"policy\":\"{}\",\"negotiations\":{},\"overuse_removed\":{:.3},\
                     \"energy_shaved\":{:.3},\"rewards\":{:.3},\"net_gain\":{:.3},\
                     \"economic_stops\":{},\"wall_us\":{}}}",
                    r.policy,
                    r.negotiations,
                    r.overuse_removed,
                    r.energy_shaved,
                    r.rewards,
                    r.net_gain,
                    r.economic_stops,
                    r.wall_us
                )
            })
            .collect();
        format!(
            "{{\"experiment\":\"E19\",{},\"households\":{},\"days\":{},\
             \"renegotiation_passes\":{},\"predictor_switches\":{},\"final_beta\":{:.4},\
             \"final_band\":{:.4},\"economics_no_worse\":{},\"identical_across_threads\":{},\
             \"clean_identical_to_sync\":{},\"rows\":[{}]}}",
            self.meta.to_json(),
            self.households,
            self.days,
            self.renegotiation_passes,
            self.predictor_switches,
            self.final_beta,
            self.final_band,
            self.economics_no_worse,
            self.identical_across_threads,
            self.clean_identical_to_sync,
            rows.join(",")
        )
    }
}

// ---------------------------------------------------------------------
// E20 — city scale: one template-encoded population, a sharded fleet
// ---------------------------------------------------------------------

/// Result of the city-scale experiment.
#[derive(Debug, Clone)]
pub struct CityScaleResult {
    /// Households in the city (one slab).
    pub households: usize,
    /// Grid cells the slab was sharded into (zero-copy views).
    pub cells: usize,
    /// Horizon length in days (including warm-up).
    pub days: u64,
    /// Device entries across the whole slab.
    pub device_entries: usize,
    /// Wall-clock of [`PopulationBuilder::build_slab`], microseconds.
    pub build_slab_us: u128,
    /// Bytes the slab's arrays retain for the whole city.
    pub slab_bytes: usize,
    /// `slab_bytes / households`.
    pub bytes_per_household: f64,
    /// One-day demand synthesis over the full city through the
    /// per-slot physics fold — one allocated
    /// [`Household::demand_profile`] per household, summed slot by
    /// slot — microseconds.
    pub object_demand_us: u128,
    /// Same day via the batched slab kernel
    /// ([`aggregate_demand_slab`]), microseconds.
    pub slab_demand_us: u128,
    /// `object_demand_us / slab_demand_us` — the acceptance headline
    /// (must be ≥ 5).
    pub speedup_vs_object: f64,
    /// Wall-clock of the sharded Settlement-tier season, microseconds —
    /// [`FleetRunner::run`](loadbal_core::fleet::FleetRunner::run) from
    /// built cells to the report, so every cell's whole-horizon demand
    /// synthesis (deferred out of `CampaignBuilder::build` onto the
    /// fleet's workers) is inside the timer, next to the negotiations.
    pub season_us: u128,
    /// Peak negotiations the season carried across all shards.
    pub negotiations: usize,
    /// True if every negotiation converged.
    pub all_converged: bool,
    /// Live-bytes delta across the one-thread season run (`None`
    /// without the counting allocator).
    pub season_retained_bytes: Option<i64>,
    /// The one-thread season's own heap high-water mark above the live
    /// bytes it started from — the transient state negotiating the city
    /// costs on top of the slab (`None` without the counting allocator).
    /// One thread runs each cell's sequential reference loop, so the
    /// figure is the same on every run; a parallel run's depends on how
    /// the workers' cells overlap.
    pub season_peak_heap_bytes: Option<i64>,
    /// `season_peak_heap_bytes / households`.
    pub season_peak_heap_bytes_per_household: Option<f64>,
    /// Runtime context for the JSON record.
    pub meta: BenchMeta,
}

/// E20: negotiating a season for a whole city on one box. One
/// [`PopulationSlab`] holds every household as its id and the index of
/// its template (each distinct household, devices included, is stored
/// once: a standard city has five);
/// [`FleetRunner::sharded_slab`](loadbal_core::fleet::FleetRunner::sharded_slab)
/// splits it into `cells` contiguous zero-copy views and negotiates a
/// `days`-day winter season at [`ReportTier::Settlement`] on the
/// fleet's shared workers.
///
/// Three things are measured and one asserted:
///
/// * **Season** — the whole sharded season on the fleet's workers (one
///   per available core, recorded as `meta.threads`): each
///   cell's demand synthesis plus prediction, detection and
///   negotiation. Building the cells only validates them, so nothing
///   of the season runs outside the timer.
/// * **Throughput** — one day of demand synthesis over the full city
///   through the per-slot physics fold (summing every household's
///   allocated `Household::demand_profile`) and through the slab
///   kernel's per-kind fold. Each slab slot is asserted within 1e-12
///   relative of the per-slot fold, and the slab curve is asserted
///   equal, untimed, to the per-kind household reference
///   [`aggregate_demand`]. The slab must be ≥ 5× the per-slot fold at
///   full scale (asserted by the experiment binary, where timings are
///   meaningful — library smoke runs only record the figures).
/// * **Memory** — the slab's retained bytes per household (12 B: an
///   id and a template index; the experiment binary's smoke asserts
///   ≤ 16), plus the season's live-bytes delta and its own heap
///   high-water mark above the pre-season live bytes when the counting
///   allocator is installed. Both come from a second, untimed run of
///   a freshly built copy of the same sharded fleet at one thread,
///   whose one worker drains the fleet's queue of cell-days, synthesis
///   included: at two or more threads the high-water depends on how
///   the workers' cells overlap (the 50k-household smoke once read 160
///   or 280 B/household on identical input). The household objects built
///   for the reference folds are dropped before the seasons and the
///   high-water mark is reset before the measured run, so the figure is
///   that season's alone.
pub fn city_scale(households: usize, cells: usize, days: u64, seed: u64) -> CityScaleResult {
    use loadbal_core::fleet::FleetRunner;
    use powergrid::demand::aggregate_demand;
    use powergrid::slab::aggregate_demand_slab;

    let axis = TimeAxis::quarter_hourly();
    let horizon = Horizon::new(days, 0, Season::Winter);
    let weather_model = WeatherModel::winter();
    let builder = PopulationBuilder::new().households(households);

    // --- build the slab (object trees only for the reference folds) ---
    let t0 = Instant::now();
    let slab = builder.build_slab(seed);
    let build_slab_us = t0.elapsed().as_micros();
    let homes = builder.build(seed);
    let slab_bytes = slab.retained_bytes();

    // --- one-day demand synthesis over the full city, both paths ---
    let weather = weather_model.temperatures(&axis, seed);
    let t0 = Instant::now();
    let mut per_slot = Series::zeros(axis);
    for h in &homes {
        per_slot.accumulate(&h.demand_profile(&axis, weather.mean(), seed));
    }
    let object_demand_us = t0.elapsed().as_micros().max(1);
    let t0 = Instant::now();
    let slab_curve = aggregate_demand_slab(slab.view(), &weather, &axis, seed);
    let slab_demand_us = t0.elapsed().as_micros().max(1);
    let slab_values = slab_curve.series().values();
    for (slot, (&a, &b)) in slab_values.iter().zip(per_slot.values()).enumerate() {
        assert!(
            (a - b).abs() <= 1e-12 * b.abs(),
            "slot {slot}: slab demand {a} strays from the per-slot household fold {b}"
        );
    }
    assert_eq!(
        slab_curve,
        aggregate_demand(&homes, &weather, &axis, seed),
        "slab demand kernel diverged from the per-kind household reference"
    );
    let speedup_vs_object = object_demand_us as f64 / slab_demand_us as f64;
    // The object trees exist only for the reference folds; the season
    // reads the slab.
    drop(homes);

    // --- the sharded Settlement-tier season ---
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let sharded_fleet = || {
        FleetRunner::new().sharded_slab(&slab, cells, |shard, _| {
            CampaignBuilder::new_ref(shard, &weather_model, &horizon)
                .warmup_days(2)
                .predictor(FixedPredictor(MovingAverage::new(2)))
                .feedback(ClosedLoop)
                .report_tier(ReportTier::Settlement)
                .build()
        })
    };
    let fleet = sharded_fleet();
    let t0 = Instant::now();
    let report = fleet.run();
    let season_us = t0.elapsed().as_micros();
    let negotiations = report.negotiations();
    let all_converged = report.all_converged();
    assert_eq!(report.len(), cells);
    drop(report);
    drop(fleet);

    // --- the same season at one thread, for a deterministic heap figure ---
    // A fresh fleet, because a run memoises each cell's synthesised
    // horizon: the measured season synthesises its demand again.
    let fleet = sharded_fleet().threads(NonZeroUsize::MIN);
    let probe = crate::alloc_probe::installed();
    let live_before = crate::alloc_probe::live_bytes();
    crate::alloc_probe::reset_peak();
    let report = fleet.run();
    let season_retained = crate::alloc_probe::live_bytes() - live_before;
    let season_peak = crate::alloc_probe::peak_bytes() - live_before;
    drop(report);

    CityScaleResult {
        households,
        cells,
        days,
        device_entries: slab.device_entries(),
        build_slab_us,
        slab_bytes,
        bytes_per_household: slab_bytes as f64 / households.max(1) as f64,
        object_demand_us,
        slab_demand_us,
        speedup_vs_object,
        season_us,
        negotiations,
        all_converged,
        season_retained_bytes: probe.then_some(season_retained),
        season_peak_heap_bytes: probe.then_some(season_peak),
        season_peak_heap_bytes_per_household: probe
            .then(|| season_peak as f64 / households.max(1) as f64),
        meta: BenchMeta::capture(ReportTier::Settlement, threads),
    }
}

impl fmt::Display for CityScaleResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E20 — city scale ({} households as one slab, {} shards, {}-day winter season, \
             settlement tier)",
            self.households, self.cells, self.days
        )?;
        writeln!(
            f,
            "  slab: {} device entries, {} B retained ({:.1} B/household), built in {} µs",
            self.device_entries, self.slab_bytes, self.bytes_per_household, self.build_slab_us
        )?;
        writeln!(
            f,
            "  one-day demand synthesis: per-slot household fold {} µs | slab {} µs \
             ({:.1}× faster, target ≥ 5)",
            self.object_demand_us, self.slab_demand_us, self.speedup_vs_object
        )?;
        let retained = self
            .season_retained_bytes
            .map(|b| format!("{b} B retained"))
            .unwrap_or_else(|| "retained n/a (no probe)".into());
        let peak = match (
            self.season_peak_heap_bytes,
            self.season_peak_heap_bytes_per_household,
        ) {
            (Some(b), Some(per)) => {
                format!("{b} B season heap high-water ({per:.0} B/household)")
            }
            _ => "high-water n/a (no probe)".into(),
        };
        writeln!(
            f,
            "  season (demand synthesis + negotiation, {} threads): {} µs, {} negotiations, \
             converged: {}",
            self.meta.threads,
            self.season_us,
            self.negotiations,
            if self.all_converged { "all" } else { "NOT ALL" }
        )?;
        writeln!(f, "  same season at 1 thread: {retained}, {peak}")
    }
}

impl CityScaleResult {
    /// A machine-readable record for `BENCH_E20.json` (the experiment
    /// binary's `--json` flag) — the cross-PR city-scale trajectory.
    pub fn to_json(&self) -> String {
        let opt = |v: Option<i64>| v.map(|x| x.to_string()).unwrap_or_else(|| "null".into());
        format!(
            "{{\"experiment\":\"E20\",{},\"households\":{},\"cells\":{},\"days\":{},\
             \"device_entries\":{},\"build_slab_us\":{},\"slab_bytes\":{},\
             \"bytes_per_household\":{:.1},\"object_demand_us\":{},\"slab_demand_us\":{},\
             \"speedup_vs_object\":{:.2},\"season_us\":{},\"season_includes_synthesis\":true,\
             \"negotiations\":{},\"all_converged\":{},\"season_retained_bytes\":{},\
             \"season_peak_heap_bytes\":{},\"season_peak_heap_bytes_per_household\":{}}}",
            self.meta.to_json(),
            self.households,
            self.cells,
            self.days,
            self.device_entries,
            self.build_slab_us,
            self.slab_bytes,
            self.bytes_per_household,
            self.object_demand_us,
            self.slab_demand_us,
            self.speedup_vs_object,
            self.season_us,
            self.negotiations,
            self.all_converged,
            opt(self.season_retained_bytes),
            opt(self.season_peak_heap_bytes),
            self.season_peak_heap_bytes_per_household
                .map(|v| format!("{v:.1}"))
                .unwrap_or_else(|| "null".into())
        )
    }
}

/// Convenience used by the Figure 6/7 bench: the calibrated scenario.
pub fn paper_scenario() -> Scenario {
    ScenarioBuilder::paper_figure_6().build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_has_evening_peak_and_expensive_band() {
        let r = fig1_demand(200, 7);
        assert!(!r.expensive_slots.is_empty());
        assert!(r.energy_above_normal.value() > 0.0);
        let start = r.curve.axis().start_of(r.peak_interval.start());
        assert!((16..=20).contains(&start.hour()), "peak at {start}");
        let text = r.to_string();
        assert!(text.contains("Figure 1"));
    }

    #[test]
    fn e3_checkpoints_match_paper() {
        let r = fig6_7_trace();
        assert!((r.round1_reward_04 - 17.0).abs() < 1e-9);
        assert!(
            (23.5..=26.0).contains(&r.final_reward_04),
            "{}",
            r.final_reward_04
        );
        assert!((r.initial_overuse - 35.0).abs() < 1e-9);
        assert!(
            (10.0..=16.0).contains(&r.final_overuse),
            "{}",
            r.final_overuse
        );
        assert_eq!(r.report.rounds().len(), 3);
    }

    #[test]
    fn e4_customer_bids_match_figures() {
        let r = fig8_9_customer();
        let bids: Vec<f64> = r.rounds.iter().map(|x| x.bid).collect();
        assert_eq!(bids, vec![0.2, 0.4, 0.4]);
        // Round 1: 0.3 not acceptable (9.56 < 10), 0.2 acceptable.
        let round1 = &r.rounds[0];
        let at = |c: f64| {
            round1
                .comparison
                .iter()
                .find(|e| (e.0 - c).abs() < 1e-9)
                .expect("level present")
        };
        assert!(!at(0.3).3);
        assert!(at(0.2).3);
    }

    #[test]
    fn e5_orders_methods_as_paper_claims() {
        let r = methods_comparison(200, 5);
        let row = |m: AnnouncementMethod| r.rows.iter().find(|x| x.method == m).unwrap();
        let offer = row(AnnouncementMethod::Offer);
        let rfb = row(AnnouncementMethod::RequestForBids);
        let rt = row(AnnouncementMethod::RewardTables);
        // Offer: exactly one round, fewest messages.
        assert_eq!(offer.rounds, 1);
        assert!(offer.messages <= rt.messages);
        assert!(rt.messages <= rfb.messages || rt.rounds <= rfb.rounds);
        // All methods reduce the peak.
        for x in &r.rows {
            assert!(x.final_overuse <= r.initial_overuse + 1e-9);
        }
    }

    #[test]
    fn e6_saturates_below_max() {
        let r = formula_sweep();
        for row in &r.rows {
            assert!(row.final_reward <= 30.0 + 1e-9);
            assert!(row.steps_to_saturation < 500);
        }
        // "The reward value increases more when the predicted overuse is
        // higher": the first step grows with overuse (same reward0), and
        // the trajectory climbs closer to max_reward before the ε rule
        // stops it.
        let low = r
            .rows
            .iter()
            .find(|x| x.overuse == 0.05 && x.reward0 == 17.0)
            .unwrap();
        let high = r
            .rows
            .iter()
            .find(|x| x.overuse == 0.5 && x.reward0 == 17.0)
            .unwrap();
        assert!(high.first_step > low.first_step);
        assert!(high.final_reward >= low.final_reward);
    }

    #[test]
    fn e7_beta_trades_outlay_for_peak_reduction() {
        let r = beta_sweep(60, 3);
        let row = |p: &str| r.rows.iter().find(|x| x.policy.contains(p)).unwrap();
        let timid = row("β=0.25");
        let bold = row("β=8");
        // A timid β saturates early (ε rule) and leaves more overuse; a
        // bold β buys the peak down.
        assert!(bold.mean_final_overuse <= timid.mean_final_overuse);
        assert!(r.rows.iter().all(|x| x.converged == 1.0));
    }

    #[test]
    fn e8_scaling_messages_grow_linearly_in_n() {
        let r = scaling(&[10, 100], 3);
        assert_eq!(r.rows.len(), 2);
        let small = &r.rows[0];
        let large = &r.rows[1];
        // Messages scale roughly with N × rounds.
        let per_n_small = small.messages as f64 / small.customers as f64;
        let per_n_large = large.messages as f64 / large.customers as f64;
        assert!(per_n_small > 0.0 && per_n_large > 0.0);
        assert!(large.messages > small.messages);
        assert!(r.rows.iter().all(|row| row.identical));
    }

    #[test]
    fn e9_no_violations() {
        let r = invariants(10);
        assert_eq!(r.announcement_violations, 0);
        assert_eq!(r.bid_violations, 0);
        assert_eq!(r.non_convergent, 0);
    }

    #[test]
    fn e10_both_strategies_shave_the_peak() {
        let r = market_comparison(150, 7);
        assert_eq!(r.rows.len(), 2);
        for row in &r.rows {
            assert!(
                row.final_overuse < r.initial_overuse,
                "{} failed to reduce the peak",
                row.strategy
            );
        }
        assert!(r.to_string().contains("market"));
    }

    #[test]
    fn e12_quadratic_shape_is_what_reproduces_figure_9() {
        let r = shape_ablation(60, 3);
        let quad = r.rows.iter().find(|x| x.shape == "quadratic").unwrap();
        let lin = r.rows.iter().find(|x| x.shape == "linear").unwrap();
        assert!(
            (quad.fig8_round1_bid - 0.2).abs() < 1e-9,
            "paper opening bid"
        );
        assert!(
            lin.fig8_round1_bid > 0.2,
            "linear pricing overpays small cut-downs, pulling the opening bid up: {}",
            lin.fig8_round1_bid
        );
    }

    #[test]
    fn e13_winter_campaigns_negotiate_and_shave() {
        let r = campaign_grid(&[40, 80], &[Season::Winter, Season::Summer], 7);
        assert_eq!(r.rows.len(), 4);
        for row in &r.rows {
            assert_eq!(
                row.converged, row.peaks,
                "{} n={}: every negotiated peak converges",
                row.season, row.households
            );
        }
        // Winter campaigns carry the heating-driven evening peaks.
        let winter: Vec<_> = r
            .rows
            .iter()
            .filter(|x| x.season == Season::Winter)
            .collect();
        assert!(winter.iter().all(|x| x.peaks > 0));
        assert!(winter.iter().all(|x| x.energy_shaved > 0.0));
        assert!(r.to_string().contains("E13"));
    }

    #[test]
    fn e14_feedback_shrinks_later_peaks_and_stop_cuts_outlay() {
        let r = campaign_loop(120, 7);
        assert_eq!(r.rows.len(), 4);
        let row = |p: &str| r.rows.iter().find(|x| x.policy == p).unwrap();
        let open = row("open / unconditional");
        let open_stop = row("open / marginal-cost stop");
        let closed = row("closed / unconditional");
        // Every policy combination converges everywhere.
        for x in &r.rows {
            assert_eq!(x.converged, x.peaks, "{}: all converge", x.policy);
        }
        // Closed loop feeds negotiated cut-downs into prediction history
        // and therefore shaves no more than the open loop.
        assert!(closed.feedback > 0.0);
        assert_eq!(open.feedback, 0.0);
        assert!(closed.energy_shaved <= open.energy_shaved + 1e-9);
        // The marginal-cost stop never spends more than unconditional
        // negotiation and improves the utility's net position.
        assert!(open_stop.outlay <= open.outlay + 1e-9);
        assert!(open_stop.net_gain >= open.net_gain - 1e-9);
        assert!(r.to_string().contains("E14"));
    }

    #[test]
    fn e15_fleet_is_byte_identical_at_every_pool_size() {
        let r = fleet_scaling(3, 40, 7);
        assert_eq!(r.rows.len(), 3);
        for row in &r.rows {
            assert!(
                row.matches_reference,
                "{} threads diverged from the sequential reference",
                row.threads
            );
        }
        assert!(r.negotiations > 0, "winter cells must carry peaks");
        assert!(r.to_string().contains("E15"));
    }

    #[test]
    fn e16_hot_loop_is_byte_identical_and_reports() {
        // Small season, 2 threads — the CI smoke shape: the experiment
        // itself asserts the 2-thread fleet == sequential.
        let r = hot_loop(2, 40, 7, 2, 7);
        assert!(r.identical);
        assert!(r.peaks > 0, "winter cells must carry peaks");
        assert!(r.micro_peaks > 0);
        // Timing figures exist (no speed assertion — CI machines vary).
        assert!(r.fresh_us > 0 && r.scratch_us > 0);
        let text = r.to_string();
        assert!(text.contains("E16"));
        assert!(text.contains("one fleet at 2 threads == sequential: yes"));
        let json = r.to_json();
        assert!(json.contains("\"experiment\":\"E16\""));
        assert!(json.contains("\"identical\":true"));
        // E15's record is machine-readable too.
        let e15 = fleet_scaling(2, 40, 7);
        let json = e15.to_json();
        assert!(json.contains("\"experiment\":\"E15\""));
        assert!(json.contains("\"rows\":["));
    }

    #[test]
    fn bench_records_carry_runtime_metadata() {
        // Every perf-tracked BENCH_E*.json record states the report
        // tier, the thread count, the host's core count, and whether
        // the counting allocator fed the figures (false here: the
        // library is uninstrumented).
        let e16 = hot_loop(2, 40, 7, 2, 7);
        let e15 = fleet_scaling(2, 40, 7);
        let e17 = report_tiers(2, 40, 7, 7);
        for json in [e15.to_json(), e16.to_json(), e17.to_json()] {
            assert!(json.contains("\"meta\":{"), "missing meta: {json}");
            assert!(json.contains("\"report_tier\":\""), "missing tier: {json}");
            assert!(json.contains("\"threads\":"), "missing threads: {json}");
            assert!(json.contains("\"nproc\":"), "missing nproc: {json}");
            assert!(
                json.contains("\"alloc_probe\":false"),
                "probe must be reported absent in library tests: {json}"
            );
            assert!(
                json.contains("\"lint_clean\":true"),
                "the landed tree must benchmark lint-clean: {json}"
            );
        }
        assert!(e16.to_json().contains("\"threads\":2"));
        // E15 flags every row with more threads than cores.
        for row in &e15.rows {
            assert_eq!(row.oversubscribed, row.threads > e15.meta.nproc);
        }
        assert!(e15.to_json().contains("\"oversubscribed\":"));
    }

    #[test]
    fn e17_tiers_drop_storage_but_not_results() {
        // The experiment itself asserts the two guards (zero round
        // storage below full-trace, identical digests); here we also
        // pin the row shape and the archive round trips.
        let r = report_tiers(2, 40, 7, 7);
        assert_eq!(r.rows.len(), 3);
        assert!(r.scalars_identical);
        assert!(r.settlement_memory_ratio.is_none(), "no probe in tests");
        let full = r.rows.iter().find(|x| x.tier == ReportTier::FullTrace);
        let settlement = r.rows.iter().find(|x| x.tier == ReportTier::Settlement);
        let aggregate = r.rows.iter().find(|x| x.tier == ReportTier::Aggregate);
        let (full, settlement, aggregate) = (
            full.expect("full row"),
            settlement.expect("settlement row"),
            aggregate.expect("aggregate row"),
        );
        assert!(full.rounds_stored > 0, "winter season must negotiate");
        assert_eq!(settlement.rounds_stored, 0);
        assert_eq!(aggregate.rounds_stored, 0);
        assert_eq!(aggregate.settlements_stored, 0);
        assert!(settlement.settlements_stored > 0);
        for row in &r.rows {
            assert!(row.roundtrip_ok, "{}: archive did not round-trip", row.tier);
            assert!(row.archive_bytes > 0);
        }
        // Storage monotonicity on disk mirrors the in-memory tiers.
        assert!(aggregate.archive_bytes < settlement.archive_bytes);
        assert!(settlement.archive_bytes < full.archive_bytes);
        let json = r.to_json();
        assert!(json.contains("\"experiment\":\"E17\""));
        assert!(json.contains("\"scalars_identical\":true"));
        assert!(json.contains("\"prepared_bytes\":null"));
    }

    #[test]
    fn e18_clean_is_sync_and_faults_degrade_measurably() {
        // The CI smoke shape: a small 2-cell winter season, every class.
        let r = fault_resilience(2, 30, 5, 7);
        assert!(
            r.clean_identical_to_sync,
            "distributed-clean must reproduce the sync season byte for byte"
        );
        assert!(r.negotiations > 0, "winter cells must carry peaks");
        assert!(r.clean_messages > 0);
        assert_eq!(r.rows.len(), 4);
        let row = |class: FaultClass| {
            r.rows
                .iter()
                .find(|x| x.class == class)
                .expect("every class benchmarked")
        };
        // Each class leaves exactly its own fingerprint on the wire.
        let drop = row(FaultClass::Drop);
        assert!(drop.dropped > 0);
        assert_eq!(drop.duplicated, 0);
        assert!(
            drop.deadline_forced > 0,
            "15 % loss must force rounds onto the deadline"
        );
        let dup = row(FaultClass::Duplicate);
        assert!(dup.duplicated > 0);
        assert_eq!(dup.dropped, 0);
        let reorder = row(FaultClass::Reorder);
        assert_eq!(reorder.dropped, 0);
        assert_eq!(reorder.duplicated, 0);
        let outage = row(FaultClass::Outage);
        assert!(outage.dropped > 0, "messages sent in the window are lost");
        // Every season terminated and was diffed peak by peak.
        for x in &r.rows {
            assert!(x.matched_peaks > 0, "{}: no peaks matched", x.class);
            assert!(x.mean_drift >= 0.0 && x.max_drift >= x.mean_drift);
        }
        let text = r.to_string();
        assert!(text.contains("E18"));
        assert!(text.contains("identical: yes"));
        let json = r.to_json();
        assert!(json.contains("\"experiment\":\"E18\""));
        assert!(json.contains("\"clean_identical_to_sync\":true"));
        assert!(json.contains("\"class\":\"outage\""));
        assert!(json.contains("\"meta\":{"));
    }

    #[test]
    fn e19_adaptive_loops_close_and_stay_deterministic() {
        // The CI smoke shape: a small winter season, run as a lone
        // campaign and as two fleet cells — `adaptive_loops` itself
        // asserts the economics and the byte-identity invariants, so
        // reaching the checks below means all three loops closed
        // without breaking determinism.
        let r = adaptive_loops(100, 16, 11);
        assert!(r.economics_no_worse);
        assert!(r.identical_across_threads);
        assert!(r.clean_identical_to_sync);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].policy, "static");
        assert_eq!(r.rows[1].policy, "adaptive");
        for row in &r.rows {
            assert!(row.negotiations > 0, "{}: no peaks negotiated", row.policy);
            assert!(row.overuse_removed > 0.0);
            assert!(row.overuse_removed <= row.energy_shaved + 1e-9);
        }
        assert!(
            (loadbal_core::utility_agent::own_process_control::BETA_MIN
                ..=loadbal_core::utility_agent::own_process_control::BETA_MAX)
                .contains(&r.final_beta),
            "tuned β {} escaped its clamp",
            r.final_beta
        );
        let text = r.to_string();
        assert!(text.contains("E19"));
        assert!(text.contains("removed kWh"));
        let json = r.to_json();
        assert!(json.contains("\"experiment\":\"E19\""));
        assert!(json.contains("\"overuse_removed\""));
        assert!(json.contains("\"economics_no_worse\":true"));
        assert!(json.contains("\"meta\":{"));
    }

    #[test]
    fn e20_city_scale_smoke_is_identical_and_reports() {
        // The CI smoke shape scaled far below the 10⁶-household
        // acceptance run: the experiment itself asserts the slab kernel
        // equals the per-kind household reference and stays within
        // 1e-12 of the per-slot household fold, slot for slot.
        let r = city_scale(600, 2, 5, 7);
        assert!(r.all_converged);
        assert!(r.negotiations > 0, "winter shards must carry peaks");
        // Every standard household has 7 or 8 devices.
        assert!((r.device_entries as f64 / r.households as f64) >= 7.0);
        assert!(r.slab_bytes > 0 && r.bytes_per_household > 0.0);
        // Timing figures exist (no speed assertion — CI machines vary;
        // the ≥5× claim is asserted at full scale by the binary).
        assert!(r.slab_demand_us > 0 && r.object_demand_us > 0);
        assert!(r.season_retained_bytes.is_none(), "no probe in tests");
        assert!(r.season_peak_heap_bytes.is_none());
        assert!(r.season_peak_heap_bytes_per_household.is_none());
        let text = r.to_string();
        assert!(text.contains("E20"));
        assert!(text.contains("per-slot household fold"));
        let json = r.to_json();
        assert!(json.contains("\"experiment\":\"E20\""));
        assert!(json.contains("\"speedup_vs_object\":"));
    }

    #[test]
    fn e11_optimized_categories_beat_or_match_uniform() {
        let r = offer_categories(200, 11);
        let uniform = &r.rows[0];
        for row in r.rows.iter().filter(|x| x.variant.contains("optimized")) {
            assert!(
                row.final_overuse <= uniform.final_overuse + 1e-9,
                "{}: {} vs uniform {}",
                row.variant,
                row.final_overuse,
                uniform.final_overuse
            );
        }
    }
}
