//! Synchronous negotiation sessions: scenarios, round records and
//! reports.
//!
//! A [`Scenario`] fixes everything a negotiation needs — the normal-use
//! capacity, the customer population, the Utility Agent configuration
//! and the announcement method — and [`Scenario::run`] executes that
//! method round by round, producing a [`NegotiationReport`]
//! with the full per-round history (exactly the quantities the paper's
//! GUI screenshots in Figures 6–9 display).

use crate::concession::NegotiationStatus;
use crate::methods::AnnouncementMethod;
use crate::preferences::CustomerPreferences;
use crate::reward::{overuse_fraction, RewardTable};
use crate::utility_agent::UtilityAgentConfig;
use powergrid::slab::{interval_flexibility_slab, DemandScratch, SlabView};
use powergrid::time::Interval;
use powergrid::units::{Fraction, KilowattHours, Money};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::Arc;

/// One customer in a scenario: the physical quantities and private
/// preferences its Customer Agent negotiates with.
///
/// A 32-byte value with no heap part (the preferences are a `Copy`
/// scale and ceiling), so materialising a peak's scenario costs one
/// vector for the whole population rather than one table per customer.
#[derive(Debug, Clone, PartialEq)]
pub struct CustomerProfile {
    /// Predicted consumption during the peak interval, absent any deal.
    pub predicted_use: KilowattHours,
    /// Contracted allowance for the interval (`allowed_use(c)` in §6).
    pub allowed_use: KilowattHours,
    /// The private cut-down/required-reward table.
    pub preferences: CustomerPreferences,
}

/// A complete negotiation scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Normal production capacity over the interval (`normal_use` in §6).
    pub normal_use: KilowattHours,
    /// The cut-down interval announced in reward tables.
    pub interval: Interval,
    /// The customer population.
    pub customers: Vec<CustomerProfile>,
    /// Utility Agent configuration.
    pub config: UtilityAgentConfig,
    /// The announcement method to use — the only place a negotiation
    /// names it: every run path reads it from here. An offer or a
    /// request for bids settles under the one §3.2 tariff,
    /// [`Tariff::default_scheme`](powergrid::tariff::Tariff::default_scheme).
    pub method: AnnouncementMethod,
}

impl Scenario {
    /// Total predicted consumption before any negotiation.
    pub fn initial_total(&self) -> KilowattHours {
        self.customers.iter().map(|c| c.predicted_use).sum()
    }

    /// Initial relative overuse.
    pub fn initial_overuse_fraction(&self) -> f64 {
        overuse_fraction(self.initial_total(), self.normal_use)
    }

    /// Runs the configured announcement method on a fresh
    /// [`NegotiationScratch`](crate::sync_driver::NegotiationScratch)
    /// at [`ReportTier::FullTrace`] — the one-shot form of
    /// [`NegotiationScratch::run`](crate::sync_driver::NegotiationScratch::run),
    /// which hot loops call with one reused scratch per worker.
    pub fn run(&self) -> NegotiationReport {
        crate::sync_driver::NegotiationScratch::new().run(self, ReportTier::FullTrace)
    }
}

/// How much of a negotiation a report *retains*.
///
/// The tier never changes what is negotiated — every scalar accessor
/// ([`NegotiationReport::final_total`],
/// [`NegotiationReport::total_rewards`], …) answers identically at every
/// tier, because the [`UtilityEngine`](crate::engine::UtilityEngine)
/// folds each concluded round and its settlement into the
/// [`RoundDigest`] as the negotiation runs. What differs is the storage
/// kept behind the accessors:
///
/// * [`ReportTier::Aggregate`] — per-negotiation scalars only (the
///   digest); no round records, no settlements, no scenario.
/// * [`ReportTier::Settlement`] — the digest plus the final per-customer
///   [`Settlement`]s; no round records, no scenario.
/// * [`ReportTier::FullTrace`] — everything: every [`RoundRecord`]
///   (tables, bids) and, in a campaign, the materialised [`Scenario`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum ReportTier {
    /// Per-day/per-peak scalars only.
    Aggregate,
    /// Final settlements and economics, no round records.
    Settlement,
    /// The complete per-round history.
    #[default]
    FullTrace,
}

impl ReportTier {
    /// All tiers, cheapest first.
    pub fn all() -> [ReportTier; 3] {
        [
            ReportTier::Aggregate,
            ReportTier::Settlement,
            ReportTier::FullTrace,
        ]
    }

    /// True if reports at this tier keep per-round records.
    pub fn keeps_rounds(self) -> bool {
        self == ReportTier::FullTrace
    }

    /// True if reports at this tier keep per-customer settlements.
    pub fn keeps_settlements(self) -> bool {
        self >= ReportTier::Settlement
    }

    /// The stable kebab-case name (archive headers, BENCH records, CLI).
    pub fn name(self) -> &'static str {
        match self {
            ReportTier::Aggregate => "aggregate",
            ReportTier::Settlement => "settlement",
            ReportTier::FullTrace => "full-trace",
        }
    }

    /// Parses [`ReportTier::name`] back (CLI flags, archive tooling).
    pub fn from_name(name: &str) -> Option<ReportTier> {
        ReportTier::all().into_iter().find(|t| t.name() == name)
    }
}

impl fmt::Display for ReportTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The per-negotiation scalars that survive every [`ReportTier`] — the
/// streaming fold of the round records and settlements a lower tier
/// drops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundDigest {
    /// Rounds the negotiation ran.
    pub rounds: u32,
    /// Messages exchanged across all rounds (excluding awards).
    pub messages: u64,
    /// Σ predicted use after the final round (the initial total if no
    /// round completed).
    pub final_total: KilowattHours,
    /// Total reward outlay across settlements.
    pub total_rewards: Money,
    /// Customers settled with.
    pub customers: u32,
}

impl RoundDigest {
    /// The digest of a negotiation that has not completed any round:
    /// `final_total` starts at the initial prediction.
    pub fn starting_at(initial_total: KilowattHours) -> RoundDigest {
        RoundDigest {
            rounds: 0,
            messages: 0,
            final_total: initial_total,
            total_rewards: Money::ZERO,
            customers: 0,
        }
    }

    /// Folds one completed round, of `messages` messages and with
    /// predicted total `predicted_total`, into the digest.
    pub(crate) fn observe_round(&mut self, messages: u64, predicted_total: KilowattHours) {
        self.rounds += 1;
        self.messages += messages;
        self.final_total = predicted_total;
    }

    /// Folds the final settlements into the digest.
    pub(crate) fn observe_settlements(&mut self, settlements: &[Settlement]) {
        self.total_rewards = settlements.iter().map(|s| s.reward).sum();
        self.customers = settlements.len() as u32;
    }
}

/// Everything that happened in one negotiation round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Round number, 1-based.
    pub round: u32,
    /// The announced reward table (reward-table method only). Shared
    /// with the round's announcement messages through an [`Arc`]: the
    /// engine snapshots each round's table exactly once (serialization
    /// and `Debug`/`PartialEq` are transparent).
    pub table: Option<Arc<RewardTable>>,
    /// Accepted cut-down per customer after this round.
    pub bids: Vec<Fraction>,
    /// Σ `predicted_use_with_cutdown` over customers (§6).
    pub predicted_total: KilowattHours,
    /// Messages exchanged this round.
    pub messages: u64,
}

impl RoundRecord {
    /// Relative overuse implied by this round's prediction.
    pub fn overuse_fraction(&self, normal_use: KilowattHours) -> f64 {
        overuse_fraction(self.predicted_total, normal_use)
    }
}

/// One customer's final settlement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Settlement {
    /// The implemented cut-down.
    pub cutdown: Fraction,
    /// The reward paid (reward-table method) or billing advantage
    /// granted (offer / request-for-bids).
    pub reward: Money,
}

/// The complete result of one negotiation.
///
/// What the report *stores* depends on its [`ReportTier`]; what it can
/// *answer* does not — every scalar accessor reads the [`RoundDigest`]
/// that survives all tiers, so campaign feedback and economics work
/// identically whether the rounds were kept or streamed away.
#[derive(Debug, Clone, PartialEq)]
pub struct NegotiationReport {
    method: AnnouncementMethod,
    normal_use: KilowattHours,
    initial_total: KilowattHours,
    tier: ReportTier,
    digest: RoundDigest,
    rounds: Vec<RoundRecord>,
    status: NegotiationStatus,
    settlements: Vec<Settlement>,
    extra_messages: u64,
}

impl NegotiationReport {
    /// Reassembles a report from its stored parts — the
    /// `loadbal-archive` decoder's entry point. The caller vouches for
    /// consistency (a tier below `FullTrace` carries empty `rounds`; the
    /// digest matches whatever was folded at assembly time); nothing is
    /// recomputed and nothing panics.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        method: AnnouncementMethod,
        normal_use: KilowattHours,
        initial_total: KilowattHours,
        tier: ReportTier,
        digest: RoundDigest,
        rounds: Vec<RoundRecord>,
        status: NegotiationStatus,
        settlements: Vec<Settlement>,
        extra_messages: u64,
    ) -> NegotiationReport {
        NegotiationReport {
            method,
            normal_use,
            initial_total,
            tier,
            digest,
            rounds,
            status,
            settlements,
            extra_messages,
        }
    }

    /// Copies this report down to `tier`, dropping whatever the lower
    /// tier does not keep (a tier at or above the report's own is a
    /// plain clone). Streaming a negotiation at `tier` and downgrading a
    /// `FullTrace` report with `at_tier` produce equal reports — the
    /// archive writer and the tier-equivalence tests rely on it.
    pub fn at_tier(&self, tier: ReportTier) -> NegotiationReport {
        let tier = tier.min(self.tier);
        NegotiationReport {
            method: self.method,
            normal_use: self.normal_use,
            initial_total: self.initial_total,
            tier,
            digest: self.digest,
            rounds: if tier.keeps_rounds() {
                self.rounds.clone()
            } else {
                Vec::new()
            },
            status: self.status,
            settlements: if tier.keeps_settlements() {
                self.settlements.clone()
            } else {
                Vec::new()
            },
            extra_messages: self.extra_messages,
        }
    }

    /// The tier this report was assembled at — what it stores, not what
    /// it can answer.
    pub fn tier(&self) -> ReportTier {
        self.tier
    }

    /// The tier-independent scalar fold of the negotiation.
    pub fn digest(&self) -> RoundDigest {
        self.digest
    }

    /// Messages beyond the per-round counts (awards/confirmations).
    pub fn extra_messages(&self) -> u64 {
        self.extra_messages
    }

    /// The announcement method used.
    pub fn method(&self) -> AnnouncementMethod {
        self.method
    }

    /// The per-round history — empty below [`ReportTier::FullTrace`]
    /// (the count survives in [`NegotiationReport::digest`]).
    pub fn rounds(&self) -> &[RoundRecord] {
        &self.rounds
    }

    /// Protocol outcome.
    pub fn status(&self) -> NegotiationStatus {
        self.status
    }

    /// True if the protocol terminated by its own rules.
    pub fn converged(&self) -> bool {
        self.status.is_converged()
    }

    /// Per-customer settlements — empty below
    /// [`ReportTier::Settlement`] (the total survives in
    /// [`NegotiationReport::digest`]).
    pub fn settlements(&self) -> &[Settlement] {
        &self.settlements
    }

    /// The normal-use capacity.
    pub fn normal_use(&self) -> KilowattHours {
        self.normal_use
    }

    /// Total predicted consumption before negotiation.
    pub fn initial_total(&self) -> KilowattHours {
        self.initial_total
    }

    /// Total predicted consumption after the final round.
    pub fn final_total(&self) -> KilowattHours {
        self.digest.final_total
    }

    /// Energy the negotiation took out of the peak interval: the drop in
    /// total predicted consumption from the initial prediction to the
    /// final round (unlike [`NegotiationReport::final_overuse`], not
    /// clamped at the capacity line, so cut-downs below capacity count).
    pub fn energy_shaved(&self) -> KilowattHours {
        (self.initial_total - self.final_total()).clamp_non_negative()
    }

    /// The negotiated aggregate cut as a fraction of the demand that
    /// entered negotiation, in `[0, 1]` — what a closed-loop campaign
    /// applies to the interval's actual consumption (zero for an empty
    /// population).
    pub fn shaved_fraction(&self) -> f64 {
        if self.initial_total.value() <= f64::EPSILON {
            return 0.0;
        }
        (self.energy_shaved() / self.initial_total).clamp(0.0, 1.0)
    }

    /// Predicted overuse before negotiation, in energy.
    pub fn initial_overuse(&self) -> KilowattHours {
        (self.initial_total - self.normal_use).clamp_non_negative()
    }

    /// Predicted overuse after the final round, in energy.
    pub fn final_overuse(&self) -> KilowattHours {
        (self.digest.final_total - self.normal_use).clamp_non_negative()
    }

    /// Initial relative overuse.
    pub fn initial_overuse_fraction(&self) -> f64 {
        overuse_fraction(self.initial_total, self.normal_use)
    }

    /// Final relative overuse.
    pub fn final_overuse_fraction(&self) -> f64 {
        overuse_fraction(self.digest.final_total, self.normal_use)
    }

    /// Total reward outlay across settlements.
    pub fn total_rewards(&self) -> Money {
        self.digest.total_rewards
    }

    /// Total messages exchanged (rounds plus awards/confirmations).
    pub fn total_messages(&self) -> u64 {
        self.digest.messages + self.extra_messages
    }

    /// Final accepted cut-down per customer.
    pub fn final_bids(&self) -> Vec<Fraction> {
        self.settlements.iter().map(|s| s.cutdown).collect()
    }
}

impl fmt::Display for NegotiationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} | {} rounds | overuse {:.1} → {:.1} | rewards {:.1} | msgs {} | {}",
            self.method,
            self.digest.rounds,
            self.initial_overuse().value(),
            self.final_overuse().value(),
            self.total_rewards().value(),
            self.total_messages(),
            self.status
        )
    }
}

/// Builds scenarios: the calibrated paper trace, seeded random
/// populations, or one detected peak over a `powergrid` population
/// ([`ScenarioBuilder::from_peak`]).
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    normal_use: KilowattHours,
    interval: Interval,
    customers: Vec<CustomerProfile>,
    config: UtilityAgentConfig,
    method: AnnouncementMethod,
}

impl ScenarioBuilder {
    /// An empty builder with paper defaults (no customers yet).
    pub fn new() -> ScenarioBuilder {
        ScenarioBuilder {
            normal_use: KilowattHours(100.0),
            interval: Interval::new(72, 80),
            customers: Vec::new(),
            config: UtilityAgentConfig::paper(),
            method: AnnouncementMethod::RewardTables,
        }
    }

    /// The calibrated Figure 6–9 scenario: normal capacity 100, predicted
    /// use 135 (20 customers × 6.75), a population whose thresholds make
    /// the negotiation follow the published trace — overuse 35 → ≈13 in
    /// three rounds, reward(0.4): 17 → ≈24.8 — and whose two most
    /// flexible members are the highlighted Figure 8/9 customer (bids
    /// 0.2, then 0.4, then 0.4).
    pub fn paper_figure_6() -> ScenarioBuilder {
        // Scale factors of the required-reward tables; ceilings chosen so
        // physical limits never distort the trace. Calibrated against §6
        // (see DESIGN.md §5): k = 1.0 customers are the Figure 8/9 ones.
        const POPULATION: [(f64, f64, usize); 5] = [
            // (k, ceiling, count)
            (1.0, 0.5, 2),
            (1.6, 0.4, 4),
            (1.7, 0.4, 2),
            (2.2, 0.3, 3),
            (3.0, 0.3, 9),
        ];
        let mut customers = Vec::new();
        for &(k, ceiling, count) in &POPULATION {
            for _ in 0..count {
                customers.push(CustomerProfile {
                    predicted_use: KilowattHours(6.75),
                    allowed_use: KilowattHours(6.75),
                    preferences: CustomerPreferences::from_base_scaled(
                        k,
                        Fraction::clamped(ceiling),
                    ),
                });
            }
        }
        let mut b = ScenarioBuilder::new();
        b.customers = customers;
        b
    }

    /// A seeded random population of `n` customers with total predicted
    /// use set to `(1 + overuse)` times the normal capacity of 100 per
    /// customer-20 equivalent (scaled with `n`).
    pub fn random(n: usize, overuse: f64, seed: u64) -> ScenarioBuilder {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ce0_a110);
        let prefs = CustomerPreferences::population(n, 0.8, 3.0, seed);
        let mut customers = Vec::with_capacity(n);
        let mut total = 0.0;
        for p in prefs {
            let predicted = rng.gen_range(4.0..9.0);
            let allowed = predicted * rng.gen_range(0.95..1.10);
            total += predicted;
            customers.push(CustomerProfile {
                predicted_use: KilowattHours(predicted),
                allowed_use: KilowattHours(allowed),
                preferences: p,
            });
        }
        let mut b = ScenarioBuilder::new();
        b.normal_use = KilowattHours(total / (1.0 + overuse.max(0.0)));
        b.customers = customers;
        b
    }

    /// Derives a scenario for one *detected* peak: per-customer predicted
    /// use is each household's demand over the peak interval, the
    /// normal-use capacity is the grid capacity the peak was detected
    /// against, and the private preferences are physically grounded —
    /// the cut-down ceiling is the household's `saving_potential` over
    /// its interval usage (`max_cutdown`), and its reluctance scale `k`
    /// falls with that flexibility (a household whose load is mostly
    /// shiftable is cheap to convince; one with only rigid load demands
    /// more per cut-down level). No random betas: the same population,
    /// weather and peak always produce byte-identical scenarios.
    ///
    /// `demand_scale` is the day-type intensity factor the aggregate
    /// curve the peak was detected on carried
    /// ([`powergrid::calendar::DayType::intensity_factor`]: 1.0 on
    /// weekdays, 1.08 on weekends) — without it, weekend scenarios would
    /// understate the demand that caused the peak.
    ///
    /// Each household's `(usage, potential)` comes from the batched
    /// [`interval_flexibility_slab`] kernel in one pass over its device
    /// entries (each kind's duty is integrated over the peak once per
    /// call), against a `scratch` the caller reuses across peaks and
    /// days (a campaign keeps one per cell). A household whose prorated
    /// allowance falls below its usage `u` gets `allowed_use = u`, so
    /// an offer's implied cut-down `(u − x_max·u) / u` falls within a
    /// few ulps of `1 − x_max` (the grid level 0.2 at the default
    /// `x_max` of 0.8), on either side as `u`'s last bits fall, and one
    /// ulp above a grid level is charged the next level's effort.
    #[allow(clippy::too_many_arguments)]
    pub fn from_peak(
        population: SlabView<'_>,
        axis: &powergrid::time::TimeAxis,
        mean_temp: f64,
        peak: &powergrid::peak::Peak,
        seed: u64,
        demand_scale: f64,
        scratch: &mut DemandScratch,
    ) -> ScenarioBuilder {
        assert!(
            demand_scale > 0.0 && demand_scale.is_finite(),
            "demand scale must be positive, got {demand_scale}"
        );
        let interval = peak.interval;
        let day_share = interval.hours(*axis) / 24.0;
        let mut customers = Vec::with_capacity(population.len());
        interval_flexibility_slab(
            population,
            axis,
            mean_temp,
            seed,
            interval,
            scratch,
            |i, usage, potential| {
                let (usage, potential) = (usage * demand_scale, potential * demand_scale);
                let flexibility = if usage.value() > f64::EPSILON {
                    (potential / usage).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                let ceiling = Fraction::clamped(flexibility);
                // k ∈ [0.6, 2.8]: fully flexible households sit near the
                // cheap end of the Figure-8 threshold family, rigid ones at
                // the reluctant end.
                let k = (2.8 - 2.2 * flexibility).clamp(0.6, 2.8);
                // The prorated allowance carries the same day-type scale as
                // demand, or the `.max(usage)` floor would silently erase
                // weekend households' consumption headroom.
                let allowed = population.allowed_use(i) * day_share * demand_scale;
                customers.push(CustomerProfile {
                    predicted_use: usage,
                    allowed_use: allowed.max(usage),
                    preferences: CustomerPreferences::from_base_scaled(k, ceiling),
                });
            },
        );
        let mut b = ScenarioBuilder::new();
        b.interval = interval;
        b.normal_use = peak.normal_use;
        b.customers = customers;
        b
    }

    /// Overrides the UA configuration.
    pub fn config(mut self, config: UtilityAgentConfig) -> ScenarioBuilder {
        self.config = config;
        self
    }

    /// Overrides the announcement method.
    pub fn method(mut self, method: AnnouncementMethod) -> ScenarioBuilder {
        self.method = method;
        self
    }

    /// Overrides the normal-use capacity.
    pub fn normal_use(mut self, normal_use: KilowattHours) -> ScenarioBuilder {
        self.normal_use = normal_use;
        self
    }

    /// Adds a customer.
    pub fn customer(mut self, profile: CustomerProfile) -> ScenarioBuilder {
        self.customers.push(profile);
        self
    }

    /// Finalises the scenario.
    ///
    /// # Panics
    ///
    /// Panics if no customers were added.
    pub fn build(self) -> Scenario {
        assert!(!self.customers.is_empty(), "a scenario needs customers");
        Scenario {
            normal_use: self.normal_use,
            interval: self.interval,
            customers: self.customers,
            config: self.config,
            method: self.method,
        }
    }
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        ScenarioBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concession::TerminationReason;

    #[test]
    fn figure_6_scenario_has_paper_numbers() {
        let s = ScenarioBuilder::paper_figure_6().build();
        assert_eq!(s.customers.len(), 20);
        assert!((s.initial_total().value() - 135.0).abs() < 1e-9);
        assert!((s.initial_overuse_fraction() - 0.35).abs() < 1e-9);
    }

    #[test]
    fn figure_6_trace_matches_paper() {
        let report = ScenarioBuilder::paper_figure_6().build().run();
        // Three rounds, as in Figures 6–7.
        assert_eq!(
            report.rounds().len(),
            3,
            "paper trace has 3 rounds: {report}"
        );
        assert_eq!(
            report.status(),
            NegotiationStatus::Converged(TerminationReason::OveruseAcceptable)
        );
        // Round 1: reward(0.4) = 17 (Figure 6).
        let r1 = report.rounds()[0].table.as_ref().unwrap();
        assert!((r1.reward_for(Fraction::clamped(0.4)).value() - 17.0).abs() < 1e-9);
        // Round 3: reward(0.4) ≈ 24.8 (Figure 7; we land at 24.65).
        let r3 = report.rounds()[2].table.as_ref().unwrap();
        let r3_04 = r3.reward_for(Fraction::clamped(0.4)).value();
        assert!(
            (23.5..=26.0).contains(&r3_04),
            "round-3 reward(0.4) = {r3_04}"
        );
        // Final overuse ≈ 13 (Figure 7; we land at 13.4).
        let final_overuse = report.final_overuse().value();
        assert!(
            (10.0..=16.0).contains(&final_overuse),
            "final overuse {final_overuse}"
        );
    }

    #[test]
    fn figure_8_customer_bids_match_paper() {
        let report = ScenarioBuilder::paper_figure_6().build().run();
        // Customers 0 and 1 are the k = 1.0 Figure 8/9 customers.
        let per_round: Vec<Fraction> = report.rounds().iter().map(|r| r.bids[0]).collect();
        assert_eq!(
            per_round,
            vec![
                Fraction::clamped(0.2),
                Fraction::clamped(0.4),
                Fraction::clamped(0.4)
            ],
            "Figure 8/9: bids 0.2 in round 1, 0.4 in rounds 2 and 3"
        );
    }

    #[test]
    fn random_scenarios_are_deterministic() {
        let a = ScenarioBuilder::random(30, 0.35, 7).build();
        let b = ScenarioBuilder::random(30, 0.35, 7).build();
        assert_eq!(a, b);
        assert!((a.initial_overuse_fraction() - 0.35).abs() < 1e-9);
    }

    #[test]
    fn builder_overrides() {
        let s = ScenarioBuilder::paper_figure_6()
            .method(AnnouncementMethod::Offer)
            .normal_use(KilowattHours(120.0))
            .build();
        assert_eq!(s.method, AnnouncementMethod::Offer);
        assert_eq!(s.normal_use, KilowattHours(120.0));
    }

    #[test]
    #[should_panic(expected = "needs customers")]
    fn empty_scenario_panics() {
        let _ = ScenarioBuilder::new().build();
    }

    #[test]
    fn from_peak_is_deterministic_and_physically_grounded() {
        use powergrid::peak::Peak;
        use powergrid::population::PopulationBuilder;
        use powergrid::slab::PopulationSlab;
        use powergrid::time::{TimeAxis, TimeOfDay};
        use powergrid::units::KilowattHours;
        let axis = TimeAxis::quarter_hourly();
        let homes = PopulationBuilder::new().households(25).build(4);
        let slab = PopulationSlab::from_households(&homes);
        let interval = axis.between(TimeOfDay::hm(17, 0).unwrap(), TimeOfDay::hm(20, 0).unwrap());
        let peak = Peak {
            interval,
            predicted_overuse: KilowattHours(30.0),
            normal_use: KilowattHours(100.0),
        };
        // One scratch across consecutive peaks, as a campaign reuses it.
        let mut scratch = DemandScratch::new();
        let mut from_peak = |scale| {
            ScenarioBuilder::from_peak(slab.view(), &axis, -4.0, &peak, 9, scale, &mut scratch)
                .build()
        };
        let a = from_peak(1.0);
        let b = from_peak(1.0);
        assert_eq!(a, b, "same population + peak ⇒ identical scenario");
        let weekend = from_peak(1.08);
        // The weekend intensity factor scales predicted demand (the
        // ceiling fraction is scale-invariant).
        for (w, c) in weekend.customers.iter().zip(&a.customers) {
            assert!(
                (w.predicted_use.value() - 1.08 * c.predicted_use.value()).abs() < 1e-9,
                "weekend demand carries the 1.08 factor"
            );
            // The ceiling fraction is scale-invariant (up to rounding).
            assert!(
                (w.preferences.max_cutdown().value() - c.preferences.max_cutdown().value()).abs()
                    < 1e-12
            );
        }
        assert_eq!(a.normal_use, peak.normal_use);
        assert_eq!(a.interval, interval);
        for (c, h) in a.customers.iter().zip(&homes) {
            // Predicted use is the household's demand over the peak: bit
            // for bit its per-kind reference, and within 1e-12 relative
            // of its per-slot physical demand.
            let (usage, _) = h.interval_flexibility(&axis, -4.0, 9, interval);
            assert_eq!(c.predicted_use, usage);
            let physical = h.demand_profile(&axis, -4.0, 9).energy_over(interval);
            assert!((usage - physical).value().abs() <= 1e-12 * physical.value());
            // The preference ceiling is the household's physical max cut-down.
            assert_eq!(
                c.preferences.max_cutdown(),
                h.max_cutdown(&axis, -4.0, 9, interval)
            );
            assert!(c.allowed_use >= c.predicted_use);
        }
        // More flexible households are cheaper to convince (smaller k ⇒
        // lower required reward at every level).
        let mut pairs: Vec<_> = a
            .customers
            .iter()
            .map(|c| {
                (
                    c.preferences.max_cutdown(),
                    c.preferences.required_for(Fraction::clamped(0.3)).unwrap(),
                )
            })
            .collect();
        pairs.sort_by_key(|x| x.0);
        for w in pairs.windows(2) {
            assert!(
                w[0].1 >= w[1].1,
                "flexibility up ⇒ required reward down: {pairs:?}"
            );
        }
    }

    #[test]
    fn energy_shaved_matches_round_history() {
        let report = ScenarioBuilder::paper_figure_6().build().run();
        let last = report.rounds().last().unwrap().predicted_total;
        assert_eq!(report.final_total(), last);
        assert_eq!(report.initial_total(), KilowattHours(135.0));
        assert!(
            (report.energy_shaved() - (KilowattHours(135.0) - last))
                .value()
                .abs()
                < 1e-12
        );
        assert!(report.energy_shaved().value() > 0.0);
    }

    #[test]
    fn report_accessors_consistent() {
        let report = ScenarioBuilder::paper_figure_6().build().run();
        assert_eq!(report.method(), AnnouncementMethod::RewardTables);
        assert_eq!(report.final_bids().len(), 20);
        assert!(report.total_messages() > 0);
        assert!(report.total_rewards() > Money::ZERO);
        assert!(report.to_string().contains("reward-tables"));
        let frac = report.final_overuse_fraction();
        assert!((frac - report.final_overuse().value() / 100.0).abs() < 1e-9);
    }
}
