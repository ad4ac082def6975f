//! Distributed execution: the sans-io engines over a simulated network.
//!
//! The paper's vision is "large open distributed industrial systems"
//! (§7): one Utility Agent process negotiating with thousands of Customer
//! Agent processes over a real network. This module drives the shared
//! [`crate::engine`] state machines through a seeded discrete-event
//! loop over a [`NetworkModel`] — latency, loss, duplication,
//! reordering, outages and response deadlines included. The loop
//! contains **no protocol logic**: it carries engine [`Effect`]s over
//! the network and hands what arrives back to the engines as
//! [`Input`]s, so on a perfect network the outcome is identical to
//! [`Scenario::run`] by construction.
//!
//! Every message and every deadline is an event at a virtual tick, and
//! events run in `(tick, scheduling sequence)` order: the order is
//! total, so a run is a pure function of its scenario, network, seed
//! and deadline.

use crate::engine::{CustomerEngine, Effect, Input, Peer, ReportAssembler, UtilityEngine};
use crate::execution::NetworkTraffic;
use crate::message::Msg;
use crate::session::{NegotiationReport, ReportTier, Scenario};
use crate::sync_driver::NegotiationScratch;
use massim::clock::{SimDuration, SimTime};
use massim::network::{Delivery, NetworkModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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

/// What a scheduled event does when its tick comes.
#[derive(Clone)]
enum Event {
    /// A message from the Utility Agent reaches customer `i`.
    ToCustomer(usize, Msg),
    /// Customer `i`'s reply reaches the Utility Agent.
    ToUtility(usize, Msg),
    /// The UA's response deadline for the round `token` names fires.
    Deadline(u64),
}

/// An event at virtual tick `at`. `seq` counts the events scheduled
/// before it, so two events never tie. Equality and ordering ignore the
/// payload ([`Msg`] carries `f64`s), and the order is reversed so that
/// the max-heap [`BinaryHeap`] pops the earliest event first.
struct Scheduled {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for Scheduled {}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
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
    events: BinaryHeap<Scheduled>,
    traffic: NetworkTraffic,
}

impl Wire<'_> {
    fn schedule(&mut self, after: SimDuration, event: Event) {
        self.events.push(Scheduled {
            at: self.now + after,
            seq: self.scheduled,
            event,
        });
        self.scheduled += 1;
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
    /// come. Observations move into the assembler; a broadcast goes out
    /// as one send per customer in index order, so the network draws
    /// latencies and losses in that order; a timer arms the round's
    /// deadline.
    fn pump(
        &mut self,
        utility: &mut UtilityEngine,
        assembler: &mut ReportAssembler,
        customers: usize,
    ) {
        while let Some(effect) = utility.poll_effect() {
            match assembler.observe(effect) {
                Some(Effect::Send {
                    to: Peer::Customer(i),
                    msg,
                }) => self.send(Event::ToCustomer(i, msg)),
                Some(Effect::Broadcast { msg }) => {
                    for i in 0..customers {
                        self.send(Event::ToCustomer(i, msg.clone()));
                    }
                }
                Some(Effect::SetTimer { token }) => {
                    self.schedule(self.deadline, Event::Deadline(token));
                }
                _ => {}
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
        let mut utility = self.checkout(scenario);
        let customers: &mut [CustomerEngine] = &mut self.customers;
        let mut assembler = ReportAssembler::for_engine_at(&utility, tier);
        let mut wire = Wire {
            model: network,
            rng: StdRng::seed_from_u64(seed),
            deadline,
            now: SimTime::ZERO,
            scheduled: 0,
            events: BinaryHeap::new(),
            traffic: NetworkTraffic {
                negotiations: 1,
                ..NetworkTraffic::ZERO
            },
        };
        utility.handle(Input::Start);
        wire.pump(&mut utility, &mut assembler, customers.len());
        let mut budget = EVENT_BUDGET;
        while let Some(Scheduled { at, event, .. }) = wire.events.pop() {
            assert!(
                budget > 0,
                "negotiation exhausted its budget of {EVENT_BUDGET} events (message loop?)"
            );
            budget -= 1;
            wire.now = at;
            match event {
                Event::ToCustomer(i, msg) => {
                    wire.traffic.messages_delivered += 1;
                    let reply = customers[i].handle(Input::Received {
                        from: Peer::Utility,
                        msg,
                    });
                    if let Some(reply) = reply {
                        wire.send(Event::ToUtility(i, reply));
                    }
                }
                Event::ToUtility(i, msg) => {
                    wire.traffic.messages_delivered += 1;
                    utility.handle(Input::Received {
                        from: Peer::Customer(i),
                        msg,
                    });
                    wire.pump(&mut utility, &mut assembler, customers.len());
                }
                Event::Deadline(token) => {
                    wire.traffic.timers_fired += 1;
                    utility.handle(Input::TimerFired { token });
                    wire.pump(&mut utility, &mut assembler, customers.len());
                }
            }
        }
        let mut traffic = wire.traffic;
        traffic.deadline_forced_rounds = utility.deadline_forced_rounds();
        let end_time = wire.now;
        self.check_in(utility);
        DistributedOutcome {
            report: assembler.finish(),
            traffic,
            end_time,
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
        // checked-out/recovered engines must behave exactly like fresh
        // ones, faults included.
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
