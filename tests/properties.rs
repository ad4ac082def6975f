//! Property-based tests (proptest) on the core invariants:
//! the §3.1 monotonic concession protocol, the §6 reward formula, the
//! §3.2.1 categorized offer, and message conservation and
//! deterministic replay over the simulated network.

use loadbal::core::beta::BetaPolicy;
use loadbal::core::category::{categorized_offers, consumption_categories, optimized_categories};
use loadbal::core::concession::{verify_announcements, verify_bids};
use loadbal::core::customer_agent::{decide_offer, rfb_step};
use loadbal::core::distributed::run_distributed;
use loadbal::core::execution::DEFAULT_DEADLINE_TICKS;
use loadbal::core::market::demand_response;
use loadbal::core::methods::AnnouncementMethod;
use loadbal::core::preferences::CustomerPreferences;
use loadbal::core::resilience::FaultClass;
use loadbal::core::reward::{
    overuse_fraction, predicted_use_with_cutdown, RewardFormula, RewardTable, LEVELS,
};
use loadbal::core::session::{CustomerProfile, Scenario, ScenarioBuilder};
use loadbal::core::utility_agent::UtilityAgentConfig;
use loadbal::massim::clock::SimDuration;
use loadbal::massim::network::NetworkModel;
use powergrid::tariff::Tariff;
use powergrid::time::Interval;
use powergrid::units::{Fraction, KilowattHours, Money, PricePerKwh};
use proptest::prelude::*;

fn arb_customer() -> impl Strategy<Value = CustomerProfile> {
    (0.2f64..5.0, 0.3f64..1.0, 3.0f64..9.0, 1.0f64..1.2).prop_map(
        |(k, ceiling, predicted, allowance)| CustomerProfile {
            predicted_use: KilowattHours(predicted),
            allowed_use: KilowattHours(predicted * allowance),
            preferences: CustomerPreferences::from_base_scaled(k, Fraction::clamped(ceiling)),
        },
    )
}

fn arb_beta_policy() -> impl Strategy<Value = BetaPolicy> {
    prop_oneof![
        (0.1f64..8.0).prop_map(BetaPolicy::constant),
        (0.1f64..4.0).prop_map(BetaPolicy::adaptive),
        ((0.5f64..8.0), (0.3f64..1.0)).prop_map(|(b, d)| BetaPolicy::annealing(b, d)),
    ]
}

/// The reference for [`CustomerPreferences`]: the preference table
/// materialised as a vector of `(cut-down, required reward)` entries,
/// with every decision written directly over that vector.
struct MaterialisedPreferences {
    thresholds: Vec<(Fraction, Money)>,
    max_cutdown: Fraction,
}

impl MaterialisedPreferences {
    /// The Figure-8 table with every reward multiplied by `k`.
    fn figure_8_scaled(k: f64, max_cutdown: Fraction) -> MaterialisedPreferences {
        let base = [
            (0.0, 0.0),
            (0.1, 2.0),
            (0.2, 4.0),
            (0.3, 10.0),
            (0.4, 21.0),
            (0.5, 30.0),
        ];
        MaterialisedPreferences {
            thresholds: base
                .iter()
                .map(|&(c, r)| (Fraction::clamped(c), Money(r * k)))
                .collect(),
            max_cutdown,
        }
    }

    fn required_for(&self, cutdown: Fraction) -> Option<Money> {
        self.thresholds
            .iter()
            .find(|&&(c, _)| c == cutdown)
            .map(|&(_, r)| r)
    }

    fn accepts(&self, cutdown: Fraction, offered: Money) -> bool {
        cutdown <= self.max_cutdown
            && self
                .required_for(cutdown)
                .is_some_and(|required| offered >= required)
    }

    fn respond(&self, table: &RewardTable, previous_bid: Fraction) -> Fraction {
        let mut best = previous_bid;
        for &(cutdown, offered) in table.entries() {
            if cutdown > best && self.accepts(cutdown, offered) {
                best = cutdown;
            }
        }
        best
    }

    fn effort_for_fraction(&self, cutdown: Fraction) -> Option<Money> {
        if cutdown > self.max_cutdown {
            return None;
        }
        self.thresholds
            .iter()
            .find(|&&(c, _)| c >= cutdown)
            .map(|&(_, r)| r)
    }

    fn decide_offer(
        &self,
        predicted_use: KilowattHours,
        allowed_use: KilowattHours,
        x_max: Fraction,
        tariff: &Tariff,
    ) -> bool {
        let limit = x_max * allowed_use;
        let needed = if predicted_use <= limit || predicted_use.value() <= f64::EPSILON {
            Fraction::ZERO
        } else {
            Fraction::clamped((predicted_use - limit) / predicted_use)
        };
        let Some(effort) = self.effort_for_fraction(needed) else {
            return false;
        };
        let capped_use = predicted_use.min(limit);
        let saving = tariff.bill_normal(predicted_use) - tariff.bill_with_limit(capped_use, limit);
        saving >= effort
    }

    fn rfb_step(
        &self,
        current: Fraction,
        predicted_use: KilowattHours,
        allowed_use: KilowattHours,
        tariff: &Tariff,
    ) -> Fraction {
        let mut target = Fraction::ZERO;
        for &(level, _) in &self.thresholds {
            if level > self.max_cutdown {
                break;
            }
            let y_min = level.complement() * allowed_use;
            let committed_use = predicted_use.min(y_min);
            let saving =
                tariff.bill_normal(predicted_use) - tariff.bill_with_limit(committed_use, y_min);
            let effort = self.required_for(level).unwrap_or(Money::ZERO);
            if saving >= effort && level > target {
                target = level;
            }
        }
        if target <= current {
            return current;
        }
        self.thresholds
            .iter()
            .map(|&(level, _)| level)
            .find(|&level| level > current)
            .map(|level| level.min(target))
            .unwrap_or(current)
    }

    fn demand_response(&self, predicted_use: KilowattHours, price: PricePerKwh) -> Fraction {
        let mut best = Fraction::ZERO;
        for &(cutdown, required) in &self.thresholds {
            if cutdown > self.max_cutdown {
                break;
            }
            let payment = Money(price.value() * cutdown.value() * predicted_use.value());
            if payment >= required && cutdown > best {
                best = cutdown;
            }
        }
        best
    }
}

/// Bit patterns, so `-0.0` and `0.0` (or two NaNs) never compare equal
/// by accident.
fn fraction_bits(f: Fraction) -> u64 {
    f.value().to_bits()
}

fn money_bits(m: Option<Money>) -> Option<u64> {
    m.map(|m| m.value().to_bits())
}

/// Cut-downs a probe may use: every grid level plus levels between and
/// beyond them.
const CANDIDATE_LEVELS: [f64; 11] = [0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.35, 0.4, 0.5, 0.6, 0.8];

/// A monotone reward table: the grid's levels with rewards rising by
/// random steps.
fn arb_reward_table() -> impl Strategy<Value = RewardTable> {
    prop::collection::vec(0.0f64..12.0, LEVELS.len()).prop_map(|steps| {
        let mut reward = 0.0;
        RewardTable::new(
            Interval::new(0, 8),
            std::array::from_fn(|k| {
                reward += steps[k];
                Money(reward)
            }),
        )
    })
}

/// A cut-down probe: a candidate level, or any fraction.
fn arb_probe() -> impl Strategy<Value = Fraction> {
    prop_oneof![
        (0..CANDIDATE_LEVELS.len()).prop_map(|i| Fraction::clamped(CANDIDATE_LEVELS[i])),
        (0.0f64..=1.0).prop_map(Fraction::clamped),
    ]
}

fn arb_tariff() -> impl Strategy<Value = Tariff> {
    (0.0f64..2.0, 0.0f64..2.0, 0.0f64..2.0).prop_map(|(a, b, c)| {
        let mut prices = [a, b, c];
        prices.sort_by(f64::total_cmp);
        Tariff::new(
            PricePerKwh(prices[0]),
            PricePerKwh(prices[1]),
            PricePerKwh(prices[2]),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parametric preferences decide exactly as the materialised
    /// table they stand for, bit for bit: every threshold is the same
    /// `base × scale` product the table stores.
    #[test]
    fn parametric_preferences_match_a_materialised_table(
        k in 0.0f64..=50.0,
        ceiling in arb_probe(),
        table in arb_reward_table(),
        previous_bid in arb_probe(),
        probe in arb_probe(),
        offered in 0.0f64..1600.0,
        (predicted, allowance) in (0.0f64..12.0, 0.5f64..1.5),
        x_max in 0.0f64..=1.0,
        tariff in arb_tariff(),
        price in 0.0f64..400.0,
    ) {
        let prefs = CustomerPreferences::from_base_scaled(k, ceiling);
        let reference = MaterialisedPreferences::figure_8_scaled(k, ceiling);
        let thresholds: Vec<(u64, u64)> = prefs
            .thresholds()
            .iter()
            .map(|&(c, r)| (fraction_bits(c), r.value().to_bits()))
            .collect();
        let expected: Vec<(u64, u64)> = reference
            .thresholds
            .iter()
            .map(|&(c, r)| (fraction_bits(c), r.value().to_bits()))
            .collect();
        prop_assert_eq!(thresholds, expected);
        prop_assert_eq!(
            fraction_bits(prefs.respond(&table, previous_bid)),
            fraction_bits(reference.respond(&table, previous_bid))
        );
        prop_assert_eq!(
            prefs.accepts(probe, Money(offered)),
            reference.accepts(probe, Money(offered))
        );
        prop_assert_eq!(
            money_bits(prefs.required_for(probe)),
            money_bits(reference.required_for(probe))
        );
        prop_assert_eq!(
            money_bits(prefs.effort_for_fraction(probe)),
            money_bits(reference.effort_for_fraction(probe))
        );
        let (predicted, allowed) = (KilowattHours(predicted), KilowattHours(predicted * allowance));
        let x_max = Fraction::clamped(x_max);
        prop_assert_eq!(
            decide_offer(&prefs, predicted, allowed, x_max, &tariff),
            reference.decide_offer(predicted, allowed, x_max, &tariff)
        );
        prop_assert_eq!(
            fraction_bits(rfb_step(&prefs, previous_bid, predicted, allowed, &tariff)),
            fraction_bits(reference.rfb_step(previous_bid, predicted, allowed, &tariff))
        );
        prop_assert_eq!(
            fraction_bits(demand_response(&prefs, predicted, PricePerKwh(price))),
            fraction_bits(reference.demand_response(predicted, PricePerKwh(price)))
        );
    }
}

/// The entry-by-entry decision `CustomerPreferences::respond` must
/// equal: every announced entry checked through `accepts`, the highest
/// acceptable cut-down above the previous bid kept.
fn respond_entry_by_entry(
    prefs: &CustomerPreferences,
    table: &RewardTable,
    previous_bid: Fraction,
) -> Fraction {
    let mut best = previous_bid;
    for &(cutdown, offered) in table.entries() {
        if cutdown > best && prefs.accepts(cutdown, offered) {
            best = cutdown;
        }
    }
    best
}

/// Ceilings and previous bids for the one-pass response: `-0.0`, every
/// grid level, levels between them and levels above the grid's 0.5.
const RESPONSE_LEVELS: [f64; 15] = [
    -0.0, 0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.8, 1.0,
];

/// A ceiling or previous bid: a response level (`-0.0` included), or
/// any fraction.
fn arb_response_level() -> impl Strategy<Value = Fraction> {
    prop_oneof![
        (0..RESPONSE_LEVELS.len()).prop_map(|i| Fraction::clamped(RESPONSE_LEVELS[i])),
        (0.0f64..=1.0).prop_map(Fraction::clamped),
    ]
}

/// A scale and a monotone table over the grid. Rewards rise by random
/// steps, and some sit exactly on the scaled Figure-8 threshold of
/// their level, so `offered >= required` is probed at equality.
fn arb_scaled_response_table() -> impl Strategy<Value = (f64, RewardTable)> {
    (
        prop_oneof![Just(0.0), Just(1.0), 0.0f64..5.0],
        prop::collection::vec((any::<bool>(), 0.0f64..15.0), LEVELS.len()),
    )
        .prop_map(|(scale, picks)| {
            let at_scale = CustomerPreferences::from_base_scaled(scale, Fraction::ONE);
            let mut reward = 0.0f64;
            let rewards = std::array::from_fn(|k| {
                let (exact, step) = picks[k];
                let candidate = match at_scale.required_for(Fraction::clamped(LEVELS[k])) {
                    Some(required) if exact => required.value(),
                    _ => reward + step,
                };
                reward = reward.max(candidate);
                Money(reward)
            });
            (scale, RewardTable::new(Interval::new(0, 8), rewards))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The one-pass response walk decides exactly as checking every
    /// entry through `accepts`, bit for bit — with ceilings and previous
    /// bids on and off the grid, `-0.0` and above the grid included.
    #[test]
    fn one_pass_response_matches_the_entry_by_entry_decision(
        (scale, table) in arb_scaled_response_table(),
        ceiling in arb_response_level(),
        previous_bid in arb_response_level(),
    ) {
        let prefs = CustomerPreferences::from_base_scaled(scale, ceiling);
        prop_assert_eq!(
            fraction_bits(prefs.respond(&table, previous_bid)),
            fraction_bits(respond_entry_by_entry(&prefs, &table, previous_bid))
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// §3.1: every reward-table negotiation terminates, announcements
    /// dominate their predecessors, and bids never retreat — for any
    /// population and β policy.
    #[test]
    fn concession_invariants_hold(
        customers in prop::collection::vec(arb_customer(), 1..40),
        policy in arb_beta_policy(),
        margin in 0.6f64..1.0,
    ) {
        let total: f64 = customers.iter().map(|c| c.predicted_use.value()).sum();
        let mut builder = ScenarioBuilder::new()
            .normal_use(KilowattHours(total * margin))
            .config(UtilityAgentConfig::paper().with_beta_policy(policy));
        for c in customers {
            builder = builder.customer(c);
        }
        let report = builder.build().run();
        prop_assert!(report.converged());
        let tables: Vec<_> = report.rounds().iter().filter_map(|r| r.table.as_deref().cloned()).collect();
        prop_assert!(verify_announcements(&tables).is_ok());
        let bids: Vec<_> = report.rounds().iter().map(|r| r.bids.clone()).collect();
        prop_assert!(verify_bids(&bids).is_ok());
        // Overuse is non-increasing round over round.
        let mut prev = f64::INFINITY;
        for r in report.rounds() {
            let ou = r.overuse_fraction(report.normal_use());
            prop_assert!(ou <= prev + 1e-9);
            prev = ou;
        }
    }

    /// §3.2.1: a categorized offer is one `Offer` scenario per non-empty
    /// category. The parts hold each customer exactly once, in scenario
    /// order, under the cap of the first category that contains it, and
    /// every member settles bit for bit as it does when the whole
    /// population gets a uniform offer at that cap.
    #[test]
    fn categorized_offers_settle_like_uniform_offers_at_each_cap(
        customers in 1usize..80,
        seed in 0u64..10_000,
        buckets in 1usize..6,
        optimized in any::<bool>(),
        candidates in prop::collection::vec(0.5f64..=0.9, 1..6),
    ) {
        let scenario = ScenarioBuilder::random(customers, 0.35, seed).build();
        let categories = if optimized {
            let candidates: Vec<Fraction> =
                candidates.iter().map(|&v| Fraction::clamped(v)).collect();
            optimized_categories(&scenario, buckets, &candidates)
        } else {
            consumption_categories(&scenario, buckets)
        };
        let category_of: Vec<usize> = scenario
            .customers
            .iter()
            .map(|c| {
                categories
                    .iter()
                    .position(|cat| cat.contains(c.predicted_use))
                    .expect("consumption bands cover the population")
            })
            .collect();
        let expected: Vec<(usize, Vec<usize>)> = (0..categories.len())
            .map(|k| (k, (0..customers).filter(|&i| category_of[i] == k).collect::<Vec<_>>()))
            .filter(|(_, members)| !members.is_empty())
            .collect();
        let parts = categorized_offers(&scenario, &categories);
        prop_assert_eq!(parts.len(), expected.len());
        let held: usize = parts.iter().map(|p| p.customers.len()).sum();
        prop_assert_eq!(held, customers);
        for (part, (k, members)) in parts.iter().zip(&expected) {
            let x_max = categories[*k].x_max;
            prop_assert_eq!(part.method, AnnouncementMethod::Offer);
            prop_assert_eq!(part.config.offer_x_max, x_max);
            prop_assert_eq!(part.normal_use, scenario.normal_use);
            let in_order: Vec<CustomerProfile> =
                members.iter().map(|&i| scenario.customers[i].clone()).collect();
            prop_assert_eq!(&part.customers, &in_order);

            let report = part.run();
            let uniform = Scenario {
                method: AnnouncementMethod::Offer,
                config: scenario.config.with_offer_x_max(x_max),
                ..scenario.clone()
            }
            .run();
            prop_assert_eq!(report.settlements().len(), members.len());
            for (got, &i) in report.settlements().iter().zip(members) {
                let want = uniform.settlements()[i];
                prop_assert_eq!(fraction_bits(got.cutdown), fraction_bits(want.cutdown));
                prop_assert_eq!(got.reward.value().to_bits(), want.reward.value().to_bits());
            }
        }
    }

    /// §6: the update rule never exceeds max_reward, never decreases, and
    /// is monotone in overuse and β.
    #[test]
    fn reward_formula_properties(
        reward in 0.0f64..30.0,
        overuse in 0.0f64..2.0,
        beta in 0.0f64..10.0,
    ) {
        let f = RewardFormula::paper();
        let next = f.next_reward(Money(reward), overuse, beta);
        prop_assert!(next.value() <= f.max_reward.value() + 1e-9);
        prop_assert!(next.value() + 1e-12 >= reward);
        // Monotone in overuse.
        let more = f.next_reward(Money(reward), overuse + 0.1, beta);
        prop_assert!(more >= next);
        // Monotone in beta.
        let steeper = f.next_reward(Money(reward), overuse, beta + 0.5);
        prop_assert!(steeper >= next);
    }

    /// §6: `predicted_use_with_cutdown` is bounded by both inputs and
    /// non-increasing in the cut-down.
    #[test]
    fn predicted_use_properties(
        predicted in 0.0f64..20.0,
        allowed in 0.0f64..20.0,
        cut_a in 0.0f64..1.0,
        cut_b in 0.0f64..1.0,
    ) {
        let p = KilowattHours(predicted);
        let a = KilowattHours(allowed);
        let lo = Fraction::clamped(cut_a.min(cut_b));
        let hi = Fraction::clamped(cut_a.max(cut_b));
        let at_lo = predicted_use_with_cutdown(p, a, lo);
        let at_hi = predicted_use_with_cutdown(p, a, hi);
        prop_assert!(at_lo <= p);
        prop_assert!(at_hi <= at_lo + KilowattHours(1e-12));
        prop_assert!(at_lo.value() >= 0.0);
    }

    /// Customer responses always come from the announced table, never
    /// retreat, and respect the physical ceiling.
    #[test]
    fn customer_response_properties(
        k in 0.1f64..5.0,
        ceiling in 0.0f64..1.0,
        reward_at in 1.0f64..30.0,
        prev in 0.0f64..0.5,
    ) {
        let prefs = CustomerPreferences::from_base_scaled(k, Fraction::clamped(ceiling));
        let table =
            RewardTable::quadratic(Interval::new(0, 8), Money(reward_at), Fraction::clamped(0.4));
        let prev = Fraction::clamped((prev * 10.0).round() / 10.0);
        let bid = prefs.respond(&table, prev);
        prop_assert!(bid >= prev);
        if bid > prev {
            prop_assert!(table.entries().iter().any(|&(l, _)| l == bid));
            prop_assert!(bid <= prefs.max_cutdown());
        }
    }

    /// Distributed replay: identical seeds produce identical outcomes
    /// even over lossy, high-latency networks.
    #[test]
    fn distributed_replay_is_deterministic(seed in 0u64..500) {
        let scenario = ScenarioBuilder::random(15, 0.35, seed).build();
        let net = NetworkModel::uniform(1, 25).with_drop_probability(0.15);
        let a = run_distributed(&scenario, net.clone(), seed, SimDuration::from_ticks(150));
        let b = run_distributed(&scenario, net, seed, SimDuration::from_ticks(150));
        prop_assert_eq!(a, b);
    }

    /// Overuse-fraction algebra: consistent with its definition.
    #[test]
    fn overuse_fraction_definition(total in 0.0f64..500.0, normal in 0.1f64..500.0) {
        let f = overuse_fraction(KilowattHours(total), KilowattHours(normal));
        prop_assert!((f - (total - normal) / normal).abs() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Message conservation over every faulty network: each message
    /// handed to the network is lost, delivered once, or duplicated and
    /// delivered twice, and the run drains until all of them land. Every
    /// round arms one deadline, which fires even after its round
    /// concluded, so timers fired bound the deadline-forced rounds. The
    /// same seed replays the same outcome, counters included.
    #[test]
    fn distributed_runs_conserve_messages(
        customers in 2usize..30,
        seed in 0u64..10_000,
        method_ix in 0usize..3,
        network_ix in 0usize..5,
    ) {
        let method = AnnouncementMethod::all()[method_ix];
        let scenario = ScenarioBuilder::random(customers, 0.35, seed).method(method).build();
        let network = match FaultClass::all().get(network_ix) {
            Some(class) => class.network(),
            None => NetworkModel::uniform(1, 15)
                .with_drop_probability(0.15)
                .with_duplicate_probability(0.15)
                .with_reordering(0.25, 30),
        };
        let deadline = SimDuration::from_ticks(DEFAULT_DEADLINE_TICKS);
        let outcome = run_distributed(&scenario, network.clone(), seed, deadline);
        let t = outcome.traffic;
        prop_assert_eq!(t.negotiations, 1);
        prop_assert_eq!(
            t.messages_delivered,
            t.messages_sent - t.messages_dropped + t.messages_duplicated,
            "{} over network {}", method, network_ix
        );
        prop_assert!(t.timers_fired >= t.deadline_forced_rounds, "{:?}", t);
        prop_assert_eq!(t.timers_fired, outcome.report.rounds().len() as u64);
        prop_assert_eq!(outcome, run_distributed(&scenario, network, seed, deadline));
    }
}

#[test]
fn scenario_clone_equality() {
    let scenario = ScenarioBuilder::paper_figure_6().build();
    let copy = scenario.clone();
    assert_eq!(scenario, copy);
    // Cloned scenarios run to identical reports (pure functions of the
    // scenario value).
    assert_eq!(scenario.run(), copy.run());
}

#[test]
fn reward_table_clone_equality() {
    let t = RewardTable::quadratic(
        Interval::new(72, 80),
        powergrid::units::Money(17.0),
        Fraction::clamped(0.4),
    );
    assert_eq!(t.clone(), t);
}
