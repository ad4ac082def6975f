//! Distributed execution: the sans-io engine behind message-passing
//! actors.
//!
//! The paper's vision is "large open distributed industrial systems"
//! (§7): one Utility Agent process negotiating with thousands of Customer
//! Agent processes over a real network. This module adapts the shared
//! [`crate::engine`] state machines to the [`massim`] runtime — latency,
//! loss and response deadlines included. The adapters contain **no
//! protocol logic**: they translate runtime callbacks into engine
//! [`Input`]s and engine [`Effect`]s into runtime calls, so on a perfect
//! network the outcome is identical to [`Scenario::run`] by
//! construction.

use crate::concession::NegotiationStatus;
use crate::engine::{CustomerEngine, Effect, Input, Peer, ReportAssembler, UtilityEngine};
use crate::message::Msg;
use crate::session::{NegotiationReport, ReportTier, RoundRecord, Scenario, Settlement};
use crate::sync_driver::NegotiationScratch;
use massim::agent::{Agent, AgentId, Context, TimerToken};
use massim::clock::SimDuration;
use massim::metrics::Metrics;
use massim::network::NetworkModel;
use massim::runtime::Simulation;
use std::collections::BTreeMap;

/// A Customer Agent process: a [`CustomerEngine`] on the wire.
#[derive(Debug)]
pub struct CustomerProcess {
    engine: CustomerEngine,
}

impl CustomerProcess {
    /// Creates the process around a customer engine.
    pub fn new(engine: CustomerEngine) -> CustomerProcess {
        CustomerProcess { engine }
    }

    /// The award received at the end, if any.
    pub fn awarded(&self) -> Option<&Settlement> {
        self.engine.awarded()
    }
}

impl Agent<Msg> for CustomerProcess {
    fn on_message(&mut self, from: AgentId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        let reply = self.engine.handle(Input::Received {
            from: Peer::Utility,
            msg,
        });
        if let Some(msg) = reply {
            ctx.send(from, msg);
        }
    }
}

/// The Utility Agent process: a [`UtilityEngine`] on the wire, with the
/// per-round response deadline realised as a runtime timer.
#[derive(Debug)]
pub struct UtilityProcess {
    engine: UtilityEngine,
    assembler: ReportAssembler,
    /// Customer agent ids, scenario order (`Peer::Customer(i)` ↔ `customers[i]`).
    customers: Vec<AgentId>,
    index_of: BTreeMap<AgentId, usize>,
    deadline: SimDuration,
}

impl UtilityProcess {
    /// Creates the UA process around an already-built engine, assembling
    /// the report at `tier` — so the scratch-reusing hot path neither
    /// rebuilds engines nor retains more than its tier keeps.
    /// `customers` must be the already-registered Customer Agent ids, in
    /// scenario order.
    pub fn with_engine_at(
        engine: UtilityEngine,
        customers: Vec<AgentId>,
        deadline: SimDuration,
        tier: ReportTier,
    ) -> UtilityProcess {
        let assembler = ReportAssembler::for_engine_at(&engine, tier);
        let index_of = customers
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        UtilityProcess {
            engine,
            assembler,
            customers,
            index_of,
            deadline,
        }
    }

    /// Unwraps the process into its engine and finished report — how the
    /// hot loop recovers the UA engine for reuse after a run.
    fn into_engine_and_report(self) -> (UtilityEngine, NegotiationReport) {
        let report = self.assembler.finish();
        (self.engine, report)
    }

    /// The per-round history collected so far.
    pub fn rounds(&self) -> &[RoundRecord] {
        self.assembler.rounds()
    }

    /// The final status once the negotiation is over.
    pub fn status(&self) -> Option<NegotiationStatus> {
        self.assembler.status()
    }

    fn pump(&mut self, ctx: &mut Context<'_, Msg>) {
        while let Some(effect) = self.engine.poll_effect() {
            // Observations (round records, settlements) move into the
            // assembler; transport effects come back to go on the wire.
            // The simulation drains naturally after settlement so the
            // award messages still reach the customers. A broadcast goes
            // out as one send per customer in index order, so the
            // network draws its latencies and losses in that order.
            match self.assembler.observe(effect) {
                Some(Effect::Send {
                    to: Peer::Customer(i),
                    msg,
                }) => ctx.send(self.customers[i], msg),
                Some(Effect::Broadcast { msg }) => ctx.broadcast(&self.customers, msg),
                Some(Effect::SetTimer { token }) => {
                    ctx.set_timer(TimerToken(token), self.deadline);
                }
                _ => {}
            }
        }
    }
}

impl Agent<Msg> for UtilityProcess {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        self.engine.handle(Input::Start);
        self.pump(ctx);
    }

    fn on_message(&mut self, from: AgentId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        let Some(&i) = self.index_of.get(&from) else {
            return; // not one of our customers
        };
        self.engine.handle(Input::Received {
            from: Peer::Customer(i),
            msg,
        });
        self.pump(ctx);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, Msg>) {
        self.engine.handle(Input::TimerFired { token: token.0 });
        self.pump(ctx);
    }
}

/// Result of a distributed run: the report plus runtime metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedOutcome {
    /// The negotiation report (same shape as the synchronous one).
    pub report: NegotiationReport,
    /// Runtime metrics: real message counts, drops, virtual end time.
    pub metrics: Metrics,
    /// Rounds the UA concluded on its response deadline instead of a
    /// full response set — zero on a clean network.
    pub deadline_forced_rounds: u64,
}

/// Runs the scenario's configured announcement method as a distributed
/// simulation, on a fresh [`NegotiationScratch`] at
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
/// Panics if the simulation fails (event-budget exhaustion — impossible
/// for terminating negotiations).
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
    /// [`method`](crate::session::Scenario::method)) through a seeded
    /// [`massim`] simulation over `network`, reusing the scratch's
    /// engines and retaining only what `tier` keeps — the distributed
    /// twin of [`NegotiationScratch::run`]. The utility engine is checked
    /// out of the scratch, moved into the simulation's UA process, and
    /// recovered afterwards via [`Simulation::take_agent`], so a
    /// campaign fanning thousands of peaks through the network keeps its
    /// per-worker buffers; the customer engines own no heap memory and
    /// are built straight into their processes.
    /// Byte-identical to a fresh scratch for the same scenario, tier,
    /// network, seed and deadline.
    ///
    /// # Panics
    ///
    /// Panics if the simulation fails (event-budget exhaustion —
    /// impossible for terminating negotiations).
    pub fn run_distributed(
        &mut self,
        scenario: &Scenario,
        tier: ReportTier,
        network: &NetworkModel,
        seed: u64,
        deadline: SimDuration,
    ) -> DistributedOutcome {
        let utility = self.checkout(scenario);
        let mut sim: Simulation<Msg> = Simulation::with_network(seed, network.clone());
        sim.set_logging(false);
        // Customers register first, in scenario order, then the UA: the
        // seeded event interleaving (and so every distributed golden)
        // depends on this order.
        let customer_ids: Vec<AgentId> = (0..scenario.customers.len())
            .map(|i| {
                sim.add_agent(CustomerProcess::new(CustomerEngine::for_customer(
                    scenario, i,
                )))
            })
            .collect();
        let ua = sim.add_agent(UtilityProcess::with_engine_at(
            utility,
            customer_ids,
            deadline,
            tier,
        ));
        sim.run().expect("negotiation simulation terminates");

        let metrics = *sim.metrics();
        let (utility, report) = sim
            .take_agent::<UtilityProcess>(ua)
            .expect("UA process exists")
            .into_engine_and_report();
        let deadline_forced_rounds = utility.deadline_forced_rounds();
        self.check_in(utility);
        DistributedOutcome {
            report,
            metrics,
            deadline_forced_rounds,
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
        // The engine behind the wire is method-agnostic, so the actors
        // now run all three §3.2 methods, not just reward tables.
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
            dist.metrics.messages_dropped > 0,
            "loss should actually occur"
        );
        // Overuse still improves despite losses.
        assert!(dist.report.final_overuse() <= dist.report.initial_overuse());
    }

    #[test]
    fn customers_receive_awards() {
        let scenario = ScenarioBuilder::paper_figure_6().build();
        let mut sim: Simulation<Msg> = Simulation::new(1);
        let ids: Vec<AgentId> = (0..scenario.customers.len())
            .map(|i| {
                sim.add_agent(CustomerProcess::new(CustomerEngine::for_customer(
                    &scenario, i,
                )))
            })
            .collect();
        let _ua = sim.add_agent(UtilityProcess::with_engine_at(
            UtilityEngine::new(&scenario),
            ids.clone(),
            deadline(),
            ReportTier::FullTrace,
        ));
        sim.run().unwrap();
        let awarded = ids
            .iter()
            .filter(|&&id| {
                sim.agent::<CustomerProcess>(id)
                    .and_then(|c| c.awarded())
                    .is_some()
            })
            .count();
        assert_eq!(awarded, ids.len(), "every CA gets an award message");
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
        assert_eq!(clean.deadline_forced_rounds, 0, "clean runs never force");
        let lossy = run_distributed(
            &scenario,
            NetworkModel::uniform(1, 10).with_drop_probability(0.3),
            9,
            SimDuration::from_ticks(200),
        );
        assert!(
            lossy.deadline_forced_rounds > 0,
            "30% loss must force at least one round"
        );
    }
}
