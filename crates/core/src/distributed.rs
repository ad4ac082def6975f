//! Distributed execution: the sans-io engines over a simulated network.
//!
//! The paper's vision is "large open distributed industrial systems"
//! (§7): one Utility Agent process negotiating with thousands of Customer
//! Agent processes over a real network. This module drives the shared
//! [`crate::engine`] state machines through a seeded discrete-event
//! loop over a [`NetworkModel`] — latency, loss, duplication,
//! reordering, outages and response deadlines included. The loop
//! contains **no protocol logic**: it carries engine [`Effect`]s over
//! the network, hands what arrives to the engines and, once the network
//! falls quiet, takes the utility engine's report, so on a perfect
//! network the outcome is identical to [`Scenario::run`] by
//! construction. A broadcast is kept once per run and every customer's
//! copy reads it by reference.
//!
//! Every message and every deadline is an event at a virtual tick, and
//! events run in `(tick, scheduling sequence)` order: the order is
//! total, so a run is a pure function of its scenario, network, seed
//! and deadline.
//!
//! The loop keeps its pending events in a delivery ring held by the
//! [`NegotiationScratch`], so its buffers outlive each negotiation. A
//! message is scheduled at most [`NetworkModel::max_delay`] ticks after
//! the tick it was sent at, so every pending delivery lies within
//! `max_delay + 1` ticks of the present: the ring keeps one FIFO per
//! tick of that window, and a FIFO fills in scheduling order. Every
//! round deadline is the same delay after its announcement, so
//! deadlines come due in the order they were scheduled and wait in one
//! FIFO beside the ring. The next event is the earlier of the first
//! delivery of the first non-empty tick and the first deadline, a tie
//! on the tick going to the lower scheduling sequence; with no delivery
//! pending the loop jumps straight to the next deadline. That is
//! exactly the `(tick, sequence)` order a priority queue would give.

use crate::engine::{Effect, Input, UtilityEngine};
use crate::execution::NetworkTraffic;
use crate::message::Msg;
use crate::session::{NegotiationReport, ReportTier, Scenario};
use crate::sync_driver::NegotiationScratch;
use massim::clock::{SimDuration, SimTime};
use massim::network::{Delivery, NetworkModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Events one negotiation may process before it is declared a message
/// loop — orders of magnitude above any terminating negotiation.
const EVENT_BUDGET: u64 = 10_000_000;

/// Result of a distributed run: the report plus what the network did.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedOutcome {
    /// The negotiation report (same shape as the synchronous one).
    pub report: NegotiationReport,
    /// This negotiation's wire counters, deadline timers fired and
    /// rounds the UA concluded on its deadline instead of a full
    /// response set (zero on a clean network).
    pub traffic: NetworkTraffic,
    /// Virtual time of the run's last event.
    pub end_time: SimTime,
}

/// What an event does when its tick comes.
#[derive(Debug, Clone)]
enum Event {
    /// Customer `i`'s copy of the run's `b`-th broadcast reaches it: the
    /// message itself is kept once, in [`DeliveryRing::broadcasts`].
    Broadcast(usize, usize),
    /// A message the Utility Agent addressed to customer `i` alone (an
    /// award) reaches it.
    ToCustomer(usize, Msg),
    /// Customer `i`'s reply reaches the Utility Agent.
    ToUtility(usize, Msg),
    /// The UA's response deadline for the round `token` names fires.
    Deadline(u64),
}

/// The pending events of a distributed run: a ring of per-tick delivery
/// FIFOs over the network's delay window, and the round deadlines in
/// scheduling order. Each entry carries its scheduling sequence, which
/// orders a delivery and a deadline due on the same tick.
#[derive(Debug, Default)]
pub(crate) struct DeliveryRing {
    /// Slot `tick & (window - 1)` holds the deliveries due at `tick`.
    slots: Vec<VecDeque<(u64, Event)>>,
    /// The slots in use: `max_delay + 1` rounded up to a power of two.
    window: usize,
    /// Deliveries waiting in `slots`.
    pending: usize,
    /// `(tick, sequence, token)` of each armed deadline.
    deadlines: VecDeque<(SimTime, u64, u64)>,
    /// The run's broadcasts, which every customer reads by reference.
    broadcasts: Vec<Msg>,
}

impl DeliveryRing {
    /// Empties the ring and sizes its window for `network`.
    ///
    /// # Panics
    ///
    /// Panics if the network's delay window does not fit in memory.
    fn reset(&mut self, network: &NetworkModel) {
        self.window = usize::try_from(network.max_delay())
            .ok()
            .and_then(|delay| delay.checked_add(1)?.checked_next_power_of_two())
            .expect("the network's maximum delay exceeds the delivery ring");
        if self.slots.len() < self.window {
            self.slots.resize_with(self.window, VecDeque::new);
        }
        for slot in &mut self.slots {
            slot.clear();
        }
        self.pending = 0;
        self.deadlines.clear();
        self.broadcasts.clear();
    }

    fn slot(&mut self, at: SimTime) -> &mut VecDeque<(u64, Event)> {
        // Truncation is the point: the slot is the tick modulo the window.
        &mut self.slots[at.ticks() as usize & (self.window - 1)]
    }

    /// Removes and returns the earliest event at or after `now`, the
    /// tick of the last event taken.
    fn pop(&mut self, now: SimTime) -> Option<(SimTime, Event)> {
        if self.pending == 0 {
            let (at, _, token) = self.deadlines.pop_front()?;
            return Some((at, Event::Deadline(token)));
        }
        let mut at = now;
        while self.slot(at).is_empty() {
            at = at + SimDuration::from_ticks(1);
        }
        if let Some(&(due, seq, token)) = self.deadlines.front() {
            let (first, _) = self.slot(at).front().expect("found non-empty above");
            if (due, seq) < (at, *first) {
                self.deadlines.pop_front();
                return Some((due, Event::Deadline(token)));
            }
        }
        self.pending -= 1;
        let (_, event) = self.slot(at).pop_front().expect("found non-empty above");
        Some((at, event))
    }
}

/// The simulated network of one run: virtual time, the seeded RNG that
/// decides each message's fate, the pending events and the counters.
struct Wire<'a> {
    model: &'a NetworkModel,
    rng: StdRng,
    deadline: SimDuration,
    now: SimTime,
    scheduled: u64,
    ring: &'a mut DeliveryRing,
    traffic: NetworkTraffic,
}

impl Wire<'_> {
    /// Queues a delivery `after` ticks from now (at least one tick, so
    /// it lands inside the ring's window ahead of the present).
    fn schedule(&mut self, after: SimDuration, event: Event) {
        let seq = self.scheduled;
        self.scheduled += 1;
        self.ring.pending += 1;
        self.ring.slot(self.now + after).push_back((seq, event));
    }

    /// Hands one message to the network: a single
    /// [`NetworkModel::route_at`] draw loses it, delivers it, or
    /// delivers two copies (the first copy scheduled first).
    fn send(&mut self, delivery: Event) {
        self.traffic.messages_sent += 1;
        match self.model.route_at(&mut self.rng, self.now) {
            Delivery::Drop => self.traffic.messages_dropped += 1,
            Delivery::After(latency) => self.schedule(latency, delivery),
            Delivery::Duplicate(first, second) => {
                self.traffic.messages_duplicated += 1;
                self.schedule(first, delivery.clone());
                self.schedule(second, delivery);
            }
        }
    }

    /// Performs the utility engine's pending effects in the order they
    /// come: a broadcast goes out as one send per customer in index
    /// order, so the network draws latencies and losses in that order;
    /// a timer arms the round's deadline.
    fn pump(&mut self, utility: &mut UtilityEngine, customers: usize) {
        while let Some(effect) = utility.poll_effect() {
            match effect {
                Effect::Send { to, msg } => self.send(Event::ToCustomer(to, msg)),
                Effect::Broadcast { msg } => {
                    let b = self.ring.broadcasts.len();
                    self.ring.broadcasts.push(msg);
                    for i in 0..customers {
                        self.send(Event::Broadcast(i, b));
                    }
                }
                Effect::SetTimer { token } => {
                    let seq = self.scheduled;
                    self.scheduled += 1;
                    self.ring
                        .deadlines
                        .push_back((self.now + self.deadline, seq, token));
                }
            }
        }
    }
}

/// Runs the scenario's configured announcement method over a simulated
/// network, on a fresh [`NegotiationScratch`] at
/// [`ReportTier::FullTrace`] — the one-shot form of
/// [`NegotiationScratch::run_distributed`].
///
/// `deadline` is the UA's per-round response deadline; it must exceed a
/// network round trip or every round concludes empty. On a perfect
/// network the outcome is identical to [`Scenario::run`] — both drive
/// the same [`crate::engine`].
///
/// # Panics
///
/// Panics if the run exhausts its event budget (a message loop —
/// impossible for terminating negotiations).
pub fn run_distributed(
    scenario: &Scenario,
    network: NetworkModel,
    seed: u64,
    deadline: SimDuration,
) -> DistributedOutcome {
    NegotiationScratch::new().run_distributed(
        scenario,
        ReportTier::FullTrace,
        &network,
        seed,
        deadline,
    )
}

impl NegotiationScratch {
    /// Runs `scenario` (its configured
    /// [`method`](crate::session::Scenario::method)) over `network`,
    /// seeded by `seed`, reusing the scratch's engines and retaining only
    /// what `tier` keeps — the distributed twin of
    /// [`NegotiationScratch::run`].
    ///
    /// The Utility Agent starts at tick 0. Each message goes through one
    /// [`NetworkModel::route_at`] draw at its send time; a customer
    /// answers what reaches it and the UA handles what reaches it, and
    /// every round's deadline fires `deadline` ticks after its
    /// announcement. The run drains to quiescence, so awards, late
    /// replies and deadlines after settlement are still delivered and
    /// counted. Byte-identical to a fresh scratch for the same scenario,
    /// tier, network, seed and deadline.
    ///
    /// # Panics
    ///
    /// Panics if the run exhausts its event budget (a message loop —
    /// impossible for terminating negotiations).
    pub fn run_distributed(
        &mut self,
        scenario: &Scenario,
        tier: ReportTier,
        network: &NetworkModel,
        seed: u64,
        deadline: SimDuration,
    ) -> DistributedOutcome {
        self.reset(scenario, tier);
        let (utility, customers) = (&mut self.utility, &mut self.customers[..]);
        self.ring.reset(network);
        let mut wire = Wire {
            model: network,
            rng: StdRng::seed_from_u64(seed),
            deadline,
            now: SimTime::ZERO,
            scheduled: 0,
            ring: &mut self.ring,
            traffic: NetworkTraffic {
                negotiations: 1,
                ..NetworkTraffic::ZERO
            },
        };
        utility.handle(Input::Start);
        wire.pump(utility, customers.len());
        let mut budget = EVENT_BUDGET;
        while let Some((at, event)) = wire.ring.pop(wire.now) {
            assert!(
                budget > 0,
                "negotiation exhausted its budget of {EVENT_BUDGET} events (message loop?)"
            );
            budget -= 1;
            wire.now = at;
            match event {
                Event::Broadcast(i, b) => {
                    wire.traffic.messages_delivered += 1;
                    if let Some(reply) = customers[i].answer(&wire.ring.broadcasts[b]) {
                        wire.send(Event::ToUtility(i, reply));
                    }
                }
                Event::ToCustomer(i, msg) => {
                    wire.traffic.messages_delivered += 1;
                    if let Some(reply) = customers[i].answer(&msg) {
                        wire.send(Event::ToUtility(i, reply));
                    }
                }
                Event::ToUtility(i, msg) => {
                    wire.traffic.messages_delivered += 1;
                    utility.receive(i, msg);
                    wire.pump(utility, customers.len());
                }
                Event::Deadline(token) => {
                    wire.traffic.timers_fired += 1;
                    utility.handle(Input::TimerFired { token });
                    wire.pump(utility, customers.len());
                }
            }
        }
        let mut traffic = wire.traffic;
        traffic.deadline_forced_rounds = utility.deadline_forced_rounds();
        DistributedOutcome {
            report: utility.take_report(),
            traffic,
            end_time: wire.now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::AnnouncementMethod;
    use crate::session::ScenarioBuilder;

    fn deadline() -> SimDuration {
        SimDuration::from_ticks(100)
    }

    #[test]
    fn ring_pops_in_tick_then_sequence_order() {
        // Random interleavings of deliveries (1..=max_delay ticks ahead),
        // deadlines (a fixed delay ahead, sometimes on a delivery's tick)
        // and pops: every pop must be the smallest pending
        // (tick, sequence) pair, as a priority queue would give.
        use rand::Rng;
        let network = NetworkModel::uniform(1, 10).with_reordering(0.5, 3);
        let mut ring = DeliveryRing::default();
        for (seed, deadline) in [(1u64, 13u64), (2, 10), (3, 1), (4, 0)] {
            ring.reset(&network);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut now = SimTime::ZERO;
            let mut seq = 0u64;
            let mut reference: Vec<(SimTime, u64)> = Vec::new();
            for step in 0..5_000 {
                let pop = step > 4_000 || rng.gen_range(0..3) == 0;
                if !pop {
                    if rng.gen_range(0..4) == 0 {
                        let due = now + SimDuration::from_ticks(deadline);
                        ring.deadlines.push_back((due, seq, seq));
                        reference.push((due, seq));
                    } else {
                        let delay = rng.gen_range(1..=network.max_delay());
                        let at = now + SimDuration::from_ticks(delay);
                        let msg = Msg::RequestBids { round: 1 };
                        ring.pending += 1;
                        ring.slot(at)
                            .push_back((seq, Event::ToUtility(seq as usize, msg)));
                        reference.push((at, seq));
                    }
                    seq += 1;
                    continue;
                }
                let expected = reference.iter().copied().min();
                let popped = ring.pop(now).map(|(at, event)| match event {
                    Event::Deadline(token) => (at, token),
                    Event::ToUtility(i, _) => (at, i as u64),
                    Event::Broadcast(..) | Event::ToCustomer(..) => {
                        unreachable!("none scheduled")
                    }
                });
                assert_eq!(popped, expected, "seed {seed} step {step}");
                if let Some(next) = expected {
                    reference.retain(|&e| e != next);
                    now = next.0;
                }
            }
        }
    }

    #[test]
    fn perfect_network_matches_synchronous_run() {
        let scenario = ScenarioBuilder::paper_figure_6().build();
        let sync = scenario.run();
        let dist = run_distributed(&scenario, NetworkModel::perfect(), 1, deadline());
        assert_eq!(dist.report.rounds().len(), sync.rounds().len());
        assert_eq!(dist.report.status(), sync.status());
        assert_eq!(dist.report.final_bids(), sync.final_bids());
        assert_eq!(dist.report.final_overuse(), sync.final_overuse());
    }

    #[test]
    fn perfect_network_matches_on_random_populations() {
        for seed in 0..5 {
            let scenario = ScenarioBuilder::random(40, 0.35, seed).build();
            let sync = scenario.run();
            let dist = run_distributed(&scenario, NetworkModel::perfect(), seed, deadline());
            assert_eq!(
                dist.report.final_bids(),
                sync.final_bids(),
                "seed {seed} diverged"
            );
            assert_eq!(dist.report.status(), sync.status());
        }
    }

    #[test]
    fn other_methods_also_match_their_synchronous_runs() {
        // The engine behind the wire is method-agnostic, so the network
        // runs all three §3.2 methods, not just reward tables.
        for method in [
            AnnouncementMethod::Offer,
            AnnouncementMethod::RequestForBids,
        ] {
            let scenario = ScenarioBuilder::random(25, 0.35, 11).method(method).build();
            let sync = scenario.run();
            let dist = run_distributed(&scenario, NetworkModel::perfect(), 3, deadline());
            assert_eq!(dist.report.method(), method);
            assert_eq!(dist.report.final_bids(), sync.final_bids(), "{method}");
            assert_eq!(dist.report.status(), sync.status(), "{method}");
            assert_eq!(
                dist.report.total_messages(),
                sync.total_messages(),
                "{method}"
            );
        }
    }

    #[test]
    fn latency_does_not_change_outcome() {
        let scenario = ScenarioBuilder::paper_figure_6().build();
        let sync = scenario.run();
        let dist = run_distributed(
            &scenario,
            NetworkModel::uniform(1, 30),
            7,
            SimDuration::from_ticks(200),
        );
        assert_eq!(dist.report.final_bids(), sync.final_bids());
    }

    #[test]
    fn lossy_network_still_converges() {
        let scenario = ScenarioBuilder::random(30, 0.35, 3).build();
        let dist = run_distributed(
            &scenario,
            NetworkModel::uniform(1, 10).with_drop_probability(0.2),
            9,
            SimDuration::from_ticks(200),
        );
        assert!(dist.report.converged(), "{}", dist.report);
        assert!(
            dist.traffic.messages_dropped > 0,
            "loss should actually occur"
        );
        // Overuse still improves despite losses.
        assert!(dist.report.final_overuse() <= dist.report.initial_overuse());
    }

    #[test]
    fn customers_receive_awards() {
        let scenario = ScenarioBuilder::paper_figure_6().build();
        let mut scratch = NegotiationScratch::new();
        let outcome = scratch.run_distributed(
            &scenario,
            ReportTier::FullTrace,
            &NetworkModel::perfect(),
            1,
            deadline(),
        );
        assert_eq!(scratch.customers.len(), scenario.customers.len());
        for (engine, settlement) in scratch.customers.iter().zip(outcome.report.settlements()) {
            assert_eq!(
                engine.awarded(),
                Some(settlement),
                "every CA gets its award message"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let scenario = ScenarioBuilder::random(25, 0.35, 4).build();
        let net = NetworkModel::uniform(1, 20).with_drop_probability(0.1);
        let a = run_distributed(&scenario, net.clone(), 42, SimDuration::from_ticks(300));
        let b = run_distributed(&scenario, net, 42, SimDuration::from_ticks(300));
        assert_eq!(a, b);
    }

    #[test]
    fn scratch_distributed_matches_fresh_engines() {
        // One scratch across mixed sizes, methods and networks — the
        // reset engines must behave exactly like fresh ones, faults
        // included.
        let mut scratch = NegotiationScratch::new();
        let nets = [
            NetworkModel::perfect(),
            NetworkModel::uniform(1, 15)
                .with_drop_probability(0.15)
                .with_duplicate_probability(0.1)
                .with_reordering(0.2, 20),
        ];
        for &(n, seed) in &[(30usize, 1u64), (12, 2), (30, 1), (45, 3)] {
            for method in AnnouncementMethod::all() {
                let scenario = ScenarioBuilder::random(n, 0.35, seed)
                    .method(method)
                    .build();
                for net in &nets {
                    let fresh =
                        run_distributed(&scenario, net.clone(), seed, SimDuration::from_ticks(300));
                    let reused = scratch.run_distributed(
                        &scenario,
                        ReportTier::FullTrace,
                        net,
                        seed,
                        SimDuration::from_ticks(300),
                    );
                    assert_eq!(fresh, reused, "n={n} seed={seed} {method}");
                }
            }
        }
    }

    #[test]
    fn lossy_runs_report_deadline_forced_rounds() {
        let scenario = ScenarioBuilder::random(30, 0.35, 3).build();
        let clean = run_distributed(
            &scenario,
            NetworkModel::perfect(),
            9,
            SimDuration::from_ticks(200),
        );
        assert_eq!(
            clean.traffic.deadline_forced_rounds, 0,
            "clean runs never force"
        );
        let lossy = run_distributed(
            &scenario,
            NetworkModel::uniform(1, 10).with_drop_probability(0.3),
            9,
            SimDuration::from_ticks(200),
        );
        assert!(
            lossy.traffic.deadline_forced_rounds > 0,
            "30% loss must force at least one round"
        );
    }
}
