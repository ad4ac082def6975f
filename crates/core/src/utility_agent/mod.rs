//! The Utility Agent (UA): configuration and the reward-table negotiator
//! state machine, plus [`own_process_control`] — negotiation evaluation
//! and the experience-based tuning it feeds (Figure 2). Figure 3's bid
//! assessment — a bid at a level the table never announced is rejected
//! to zero cut-down — happens as each bid reaches the
//! [`UtilityEngine`](crate::engine::UtilityEngine) and is mapped to its
//! table level.
//!
//! The §5.1.2 agent-specific tasks — *determine predicted balance* and
//! *evaluate prediction* — are
//! [`powergrid::prediction::LoadPredictor::predict`] and
//! [`powergrid::peak::PeakDetector::detect_all`], which campaigns call
//! directly.

pub mod own_process_control;

use crate::beta::BetaPolicy;
use crate::concession::TerminationReason;
use crate::producer_agent::ProducerAgent;
use crate::reward::{RewardFormula, RewardTable, DEFAULT_LEVELS};
use powergrid::time::Interval;
use powergrid::units::{Fraction, KilowattHours, Money, PricePerKwh};
use std::sync::Arc;

/// Shape of the initial reward table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableShape {
    /// Rewards grow quadratically in the cut-down (the Figure-6
    /// calibration).
    Quadratic,
    /// Rewards grow linearly in the cut-down.
    Linear,
}

/// The marginal-cost stop rule for reward-table negotiations.
///
/// Before announcing a §6-raised table, the Utility Agent prices it at
/// the bids the customers have already committed to (monotonic
/// concession means those bids can only grow, so this is a floor on what
/// settling under the raised table will cost) and compares against the
/// most continuing can be worth: the value of eliminating every kWh
/// still predicted above normal capacity, at `value_per_kwh`. If the
/// next table's outlay exceeds that saving, the UA settles on the
/// current table instead — [`TerminationReason::EconomicStop`], a
/// converged outcome.
///
/// This is deliberately a *budget* test on the whole next-table
/// commitment, not a marginal-rate test on the raise alone
/// (`outlay(next) − outlay(current)` vs the saving): the UA refuses to
/// keep a table in play whose guaranteed cost already exceeds what the
/// remaining avoidable production is worth, which bounds the outlay a
/// single peak can absorb. The marginal-rate form never fires on grid
/// campaigns — committed bids are near zero until the crossing round,
/// so its left-hand side stays at zero while the overshoot happens.
///
/// Campaigns derive `value_per_kwh` from the producer's economics
/// ([`EconomicStopRule::for_producer`]); the rule is `None` by default,
/// preserving the paper's unconditional behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EconomicStopRule {
    /// What a kWh of negotiated cut-down is worth to the utility.
    pub value_per_kwh: PricePerKwh,
}

impl EconomicStopRule {
    /// Prices the rule from a producer agent: a kWh shaved off the peak
    /// is worth the producer's
    /// [`peak_saving_value`](ProducerAgent::peak_saving_value) — the
    /// expensive/normal cost spread, i.e. the marginal production cost
    /// the utility avoids.
    pub fn for_producer(producer: &ProducerAgent) -> EconomicStopRule {
        EconomicStopRule {
            value_per_kwh: producer.peak_saving_value(),
        }
    }
}

/// Full configuration of a Utility Agent.
///
/// # Example
///
/// ```
/// use loadbal_core::utility_agent::UtilityAgentConfig;
///
/// let config = UtilityAgentConfig::paper();
/// assert_eq!(config.formula.beta, 2.0);
/// assert_eq!(config.max_allowed_overuse, 0.15);
/// assert!(config.economic_stop.is_none());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UtilityAgentConfig {
    /// The §6 update rule parameters.
    pub formula: RewardFormula,
    /// How β evolves across rounds (constant in the prototype).
    pub beta_policy: BetaPolicy,
    /// "The maximal allowed overuse": the relative overuse the UA will
    /// accept without further negotiation.
    pub max_allowed_overuse: f64,
    /// Cut-down levels offered in reward tables.
    pub levels: Vec<f64>,
    /// Reward pinned at [`UtilityAgentConfig::pin`] in the initial table.
    pub initial_reward_at: Money,
    /// The cut-down level the initial reward is pinned to.
    pub pin: Fraction,
    /// Shape of the initial table.
    pub table_shape: TableShape,
    /// `x_max` for the offer method (§3.2.1).
    pub offer_x_max: Fraction,
    /// Round budget (a protocol safety net, not a convergence mechanism).
    pub max_rounds: u32,
    /// The marginal-cost stop rule (`None` = negotiate unconditionally,
    /// as the paper's prototype does).
    pub economic_stop: Option<EconomicStopRule>,
}

impl UtilityAgentConfig {
    /// The Figure 6/7 calibration: β = 2, max reward 30, ε = 1, quadratic
    /// initial table pinned at 17 for cut-down 0.4, 15 % allowed overuse.
    pub fn paper() -> UtilityAgentConfig {
        UtilityAgentConfig {
            formula: RewardFormula::paper(),
            beta_policy: BetaPolicy::paper(),
            max_allowed_overuse: 0.15,
            levels: DEFAULT_LEVELS.to_vec(),
            initial_reward_at: Money(17.0),
            pin: Fraction::clamped(0.4),
            table_shape: TableShape::Quadratic,
            offer_x_max: Fraction::clamped(0.8),
            max_rounds: 50,
            economic_stop: None,
        }
    }

    /// Replaces the β policy (builder style).
    pub fn with_beta_policy(mut self, policy: BetaPolicy) -> UtilityAgentConfig {
        self.beta_policy = policy;
        self
    }

    /// Replaces the allowed-overuse threshold (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative.
    pub fn with_max_allowed_overuse(mut self, threshold: f64) -> UtilityAgentConfig {
        assert!(threshold >= 0.0, "overuse threshold must be non-negative");
        self.max_allowed_overuse = threshold;
        self
    }

    /// Replaces the offer-method `x_max` (builder style).
    pub fn with_offer_x_max(mut self, x_max: Fraction) -> UtilityAgentConfig {
        self.offer_x_max = x_max;
        self
    }

    /// Installs (or clears) the marginal-cost stop rule (builder style).
    pub fn with_economic_stop(mut self, rule: Option<EconomicStopRule>) -> UtilityAgentConfig {
        self.economic_stop = rule;
        self
    }

    /// Builds the initial reward table for a cut-down interval.
    pub fn initial_table(&self, interval: Interval) -> RewardTable {
        match self.table_shape {
            TableShape::Quadratic => {
                RewardTable::quadratic(interval, &self.levels, self.initial_reward_at, self.pin)
            }
            TableShape::Linear => {
                RewardTable::linear(interval, &self.levels, self.initial_reward_at, self.pin)
            }
        }
    }
}

impl Default for UtilityAgentConfig {
    fn default() -> Self {
        UtilityAgentConfig::paper()
    }
}

/// The UA's verdict after evaluating a round of bids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UaDecision {
    /// Stop: the protocol's own termination rules fired.
    Converged(TerminationReason),
    /// Continue: announce the (dominating) table now current on the
    /// negotiator — read it through
    /// [`RewardTableNegotiator::current_table`]; the decision itself
    /// stays allocation-free.
    NextTable,
}

/// The reward-table negotiation state machine on the UA side.
///
/// Drives §3.2.3: announce, collect bids, predict the new balance, then
/// either accept or announce a dominating table. The synchronous pump
/// and the distributed event loop run this same machine inside the
/// [`UtilityEngine`](crate::engine::UtilityEngine), so their outcomes
/// agree by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct RewardTableNegotiator {
    config: UtilityAgentConfig,
    /// Shared, so that each round's announcement and record take it
    /// without copying it.
    current: Arc<RewardTable>,
    round: u32,
    stall_rounds: u32,
    prev_overuse: Option<f64>,
}

impl RewardTableNegotiator {
    /// Starts a negotiation over `interval` with the initial table
    /// announced as round 1.
    pub fn new(config: UtilityAgentConfig, interval: Interval) -> RewardTableNegotiator {
        let current = Arc::new(config.initial_table(interval));
        RewardTableNegotiator {
            config,
            current,
            round: 1,
            stall_rounds: 0,
            prev_overuse: None,
        }
    }

    /// The table announced for the current round.
    pub fn current_table(&self) -> &RewardTable {
        &self.current
    }

    /// The current round's table as a shared snapshot: a later round's
    /// table replaces it and leaves the snapshot as it was.
    pub(crate) fn shared_table(&self) -> Arc<RewardTable> {
        Arc::clone(&self.current)
    }

    /// The current round number (1-based).
    pub fn round(&self) -> u32 {
        self.round
    }

    /// The configuration in use.
    pub fn config(&self) -> &UtilityAgentConfig {
        &self.config
    }

    /// Evaluates the predicted relative overuse after this round's bids
    /// and decides whether to stop or announce a new table.
    ///
    /// Termination (§3.2.3 / §6): overuse at or below the allowed
    /// maximum; the table step at most ε ("difference ... less than or
    /// equal to 1"); the round budget spent; or — when an
    /// [`EconomicStopRule`] is configured — the next table priced at the
    /// committed bids (`outlay_at`) exceeding the value of the
    /// `remaining_overuse` still avoidable.
    pub fn evaluate_with_outlay(
        &mut self,
        overuse: f64,
        remaining_overuse: KilowattHours,
        outlay_at: impl FnOnce(&RewardTable) -> Money,
    ) -> UaDecision {
        if overuse <= self.config.max_allowed_overuse {
            return UaDecision::Converged(TerminationReason::OveruseAcceptable);
        }
        if self.round >= self.config.max_rounds {
            // Round budget spent; treat as saturation for reporting — the
            // session maps this onto MaxRoundsExceeded.
            return UaDecision::Converged(TerminationReason::RewardSaturated);
        }
        // Track progress for adaptive β policies.
        if let Some(prev) = self.prev_overuse {
            let progress = prev - overuse;
            if progress < self.config.beta_policy.min_progress() {
                self.stall_rounds += 1;
            } else {
                self.stall_rounds = 0;
            }
        }
        self.prev_overuse = Some(overuse);

        let beta = self
            .config
            .beta_policy
            .beta(self.round - 1, self.stall_rounds);
        let next = self.current.updated(&self.config.formula, overuse, beta);
        if next.max_delta(&self.current) <= self.config.formula.epsilon {
            return UaDecision::Converged(TerminationReason::RewardSaturated);
        }
        if let Some(rule) = &self.config.economic_stop {
            let saving = remaining_overuse.clamp_non_negative() * rule.value_per_kwh;
            if outlay_at(&next) > saving {
                return UaDecision::Converged(TerminationReason::EconomicStop);
            }
        }
        debug_assert!(next.dominates(&self.current), "§3.1 monotonic concession");
        self.current = Arc::new(next);
        self.round += 1;
        UaDecision::NextTable
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interval() -> Interval {
        Interval::new(72, 80)
    }

    /// The decision with no remaining overuse to price, so a configured
    /// economic stop never fires.
    fn evaluate(n: &mut RewardTableNegotiator, overuse: f64) -> UaDecision {
        n.evaluate_with_outlay(overuse, KilowattHours::ZERO, |_| Money::ZERO)
    }

    #[test]
    fn initial_table_matches_figure_6() {
        let n = RewardTableNegotiator::new(UtilityAgentConfig::paper(), interval());
        assert_eq!(n.round(), 1);
        assert_eq!(
            n.current_table().reward_for(Fraction::clamped(0.4)),
            Money(17.0)
        );
    }

    #[test]
    fn low_overuse_converges_immediately() {
        let mut n = RewardTableNegotiator::new(UtilityAgentConfig::paper(), interval());
        let d = evaluate(&mut n, 0.10);
        assert_eq!(
            d,
            UaDecision::Converged(TerminationReason::OveruseAcceptable)
        );
    }

    #[test]
    fn high_overuse_announces_dominating_table() {
        let mut n = RewardTableNegotiator::new(UtilityAgentConfig::paper(), interval());
        let first = n.current_table().clone();
        match evaluate(&mut n, 0.35) {
            UaDecision::NextTable => {
                assert!(n.current_table().dominates(&first));
                assert_eq!(n.round(), 2);
            }
            other => panic!("expected next table, got {other:?}"),
        }
    }

    #[test]
    fn saturation_terminates_despite_high_overuse() {
        let mut n = RewardTableNegotiator::new(UtilityAgentConfig::paper(), interval());
        let mut rounds = 0;
        loop {
            rounds += 1;
            match evaluate(&mut n, 0.5) {
                UaDecision::NextTable => continue,
                UaDecision::Converged(TerminationReason::RewardSaturated) => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(
            rounds < 60,
            "saturation within a reasonable horizon, got {rounds}"
        );
    }

    #[test]
    fn round_budget_is_a_backstop() {
        let mut config = UtilityAgentConfig::paper();
        config.max_rounds = 2;
        let mut n = RewardTableNegotiator::new(config, interval());
        assert!(matches!(evaluate(&mut n, 0.5), UaDecision::NextTable));
        assert!(matches!(evaluate(&mut n, 0.5), UaDecision::Converged(_)));
    }

    #[test]
    fn builders() {
        let c = UtilityAgentConfig::paper()
            .with_max_allowed_overuse(0.05)
            .with_beta_policy(BetaPolicy::constant(1.0))
            .with_offer_x_max(Fraction::clamped(0.7));
        assert_eq!(c.max_allowed_overuse, 0.05);
        assert_eq!(c.beta_policy, BetaPolicy::constant(1.0));
        assert_eq!(c.offer_x_max, Fraction::clamped(0.7));
    }

    #[test]
    fn economic_stop_fires_when_next_table_outprices_the_saving() {
        let config = UtilityAgentConfig::paper().with_economic_stop(Some(EconomicStopRule {
            value_per_kwh: PricePerKwh(1.0),
        }));
        let mut n = RewardTableNegotiator::new(config, interval());
        // 10 kWh still above capacity is worth 10; a next table priced at
        // 25 for the committed bids is uneconomical — settle now.
        let d = n.evaluate_with_outlay(0.35, KilowattHours(10.0), |_| Money(25.0));
        assert_eq!(d, UaDecision::Converged(TerminationReason::EconomicStop));
        assert_eq!(n.round(), 1, "no table was raised");
    }

    #[test]
    fn economic_stop_spares_a_raise_still_worth_it() {
        let config = UtilityAgentConfig::paper().with_economic_stop(Some(EconomicStopRule {
            value_per_kwh: PricePerKwh(1.0),
        }));
        let mut n = RewardTableNegotiator::new(config, interval());
        // 100 kWh of avoidable expensive production is worth 100 — more
        // than the 25 the next table commits to, so the UA keeps raising.
        let d = n.evaluate_with_outlay(0.35, KilowattHours(100.0), |_| Money(25.0));
        assert!(matches!(d, UaDecision::NextTable));
        assert_eq!(n.round(), 2);
    }

    #[test]
    fn no_rule_means_unconditional_negotiation() {
        let mut with_ctx = RewardTableNegotiator::new(UtilityAgentConfig::paper(), interval());
        let mut plain = RewardTableNegotiator::new(UtilityAgentConfig::paper(), interval());
        // Even an absurdly expensive next table is announced when no rule
        // is configured, and evaluating with nothing to price agrees.
        let a = with_ctx.evaluate_with_outlay(0.35, KilowattHours(1e-6), |_| Money(1e9));
        let b = evaluate(&mut plain, 0.35);
        assert_eq!(a, b);
        assert!(matches!(a, UaDecision::NextTable));
    }

    #[test]
    fn stop_rule_pricing_comes_from_the_producer() {
        use powergrid::production::ProductionModel;
        use powergrid::units::Kilowatts;
        let producer = ProducerAgent::new(ProductionModel::with_costs(
            Kilowatts(100.0),
            PricePerKwh(0.3),
            PricePerKwh(1.1),
        ));
        let rule = EconomicStopRule::for_producer(&producer);
        assert_eq!(rule.value_per_kwh, producer.peak_saving_value());
        assert!((rule.value_per_kwh.value() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn linear_shape_builds_linear_table() {
        let mut config = UtilityAgentConfig::paper();
        config.table_shape = TableShape::Linear;
        let t = config.initial_table(interval());
        let r02 = t.reward_for(Fraction::clamped(0.2)).value();
        assert!(
            (r02 - 8.5).abs() < 1e-9,
            "linear at 0.2 should be 8.5, got {r02}"
        );
    }
}
