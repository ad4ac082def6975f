//! The synchronous driver: an in-process exchange over the sans-io
//! engine.
//!
//! This is the fastest of the three execution modes — no simulated
//! network, no kernel rounds, just function calls — and what
//! [`Scenario::run`](crate::session::Scenario::run) and the experiment
//! harness use. Every round trip is a direct exchange between the
//! [`UtilityEngine`] and each [`CustomerEngine`], with no message
//! between them: a reward-table announcement reaches each customer by
//! reference, and the customer's bid, the grid index of its level, goes
//! straight into the engine's column for the round, which
//! concludes once every customer has answered — the same conclusion a
//! round of [`Msg::Bid`]s reaches. An offer or a bid request reaches
//! each customer by reference too and its reply goes straight to the
//! engine; an award reaches its customer the same way and is recorded
//! without a reply. Timers are ignored because every response always
//! arrives. Once the engine settles, the pump takes its report
//! ([`UtilityEngine::take_report`]).
//!
//! [`NegotiationScratch`] is the one driver of this pump and of the
//! [distributed](crate::distributed) transport: it holds the engines
//! across negotiations and [resets](UtilityEngine::reset) them per
//! scenario, the utility engine at the run's report tier, so a campaign worker negotiating thousands of peaks reuses
//! its buffers instead of allocating per peak. A one-shot
//! [`Scenario::run`](crate::session::Scenario::run) is simply a fresh
//! scratch; the sweep/campaign/fleet hot loops thread one scratch per
//! worker, exactly like `powergrid`'s `DemandScratch`.

use crate::distributed::DeliveryRing;
use crate::engine::{CustomerEngine, Effect, Input, UtilityEngine};
use crate::message::Msg;
use crate::session::{NegotiationReport, ReportTier, Scenario};

/// Pumps a utility engine and its customers to completion and takes
/// the engine's report — the single synchronous execution loop behind
/// [`NegotiationScratch::run`].
///
/// # Panics
///
/// Panics if the engine stops emitting effects before settling —
/// impossible for the shipped announcement methods, whose termination
/// the concession protocol guarantees.
fn pump(utility: &mut UtilityEngine, customers: &mut [CustomerEngine]) -> NegotiationReport {
    utility.handle(Input::Start);
    // Timers never fire (all responses arrive).
    while let Some(effect) = utility.poll_effect() {
        match effect {
            Effect::Broadcast {
                msg: Msg::Announce { round, table },
            } => utility.exchange_round(round, &table, customers),
            Effect::Broadcast { msg } => {
                for (i, customer) in customers.iter_mut().enumerate() {
                    exchange(utility, customer, i, &msg);
                }
            }
            // An award, which the customer records without a reply.
            Effect::Send { to, msg } => exchange(utility, &mut customers[to], to, &msg),
            Effect::SetTimer { .. } => {}
        }
    }
    assert!(
        utility.is_settled(),
        "engine ran out of effects before settling"
    );
    utility.take_report()
}

/// Hands `msg` to customer `i` and its reply, if any, straight back to
/// the utility engine.
fn exchange(utility: &mut UtilityEngine, customer: &mut CustomerEngine, i: usize, msg: &Msg) {
    if let Some(reply) = customer.answer(msg) {
        utility.receive(i, reply);
    }
}

/// Reusable engine buffers for the negotiation hot loop.
///
/// A campaign negotiates thousands of peaks; building a fresh
/// [`UtilityEngine`] for every peak churns through profile, response
/// and effect buffers that are all the same shape each time, and the
/// customer engines need one vector slot per customer. A
/// `NegotiationScratch` holds the utility engine and the customer-engine
/// vector across negotiations and [resets](UtilityEngine::reset) them
/// onto each new scenario, so the buffers (and their capacity) are
/// reused. Customer engines own no heap memory, so re-aiming them is
/// just overwriting each slot.
///
/// Every negotiation runs through a scratch: [`NegotiationScratch::run`]
/// over the in-process pump,
/// [`NegotiationScratch::run_distributed`] over a simulated network,
/// each reading the announcement method from the scenario. Results are
/// **byte-identical** to a fresh scratch's — a reset engine is
/// behaviourally indistinguishable from a new one — which the
/// sweep/campaign/fleet byte-identity suites pin. One scratch per
/// worker (never shared): [`fan_out`] hands each executor its own,
/// exactly like `powergrid`'s `DemandScratch` in the demand loop.
///
/// [`fan_out`]: crate::sweep::fan_out
#[derive(Debug, Default)]
pub struct NegotiationScratch {
    /// The utility engine, reset onto each scenario.
    pub(crate) utility: UtilityEngine,
    /// One engine per customer of the scenario last negotiated.
    pub(crate) customers: Vec<CustomerEngine>,
    /// The distributed transport's pending events, kept so their
    /// buffers serve every negotiation.
    pub(crate) ring: DeliveryRing,
    /// Negotiations run through this scratch (diagnostics).
    negotiations: u64,
}

impl NegotiationScratch {
    /// An empty scratch; buffers are created on first use.
    pub fn new() -> NegotiationScratch {
        NegotiationScratch::default()
    }

    /// Negotiations that have reused this scratch so far.
    pub fn negotiations(&self) -> u64 {
        self.negotiations
    }

    /// Runs `scenario` (its configured
    /// [`method`](crate::session::Scenario::method)) through the
    /// synchronous pump, reusing the scratch's engines, and retains only
    /// what `tier` keeps — the negotiation itself is identical at every
    /// tier; the engine simply stops storing what the tier drops.
    /// Byte-identical to a fresh scratch, so at
    /// [`ReportTier::FullTrace`] to
    /// [`Scenario::run`](crate::session::Scenario::run).
    ///
    /// # Panics
    ///
    /// Panics if the engine stops emitting effects before settling —
    /// impossible for the shipped announcement methods, whose
    /// termination the concession protocol guarantees.
    pub fn run(&mut self, scenario: &Scenario, tier: ReportTier) -> NegotiationReport {
        self.reset(scenario, tier);
        pump(&mut self.utility, &mut self.customers)
    }

    /// Re-aims the customer engines and the utility engine, which then
    /// reports at `tier`, at `scenario`, reusing their buffers.
    pub(crate) fn reset(&mut self, scenario: &Scenario, tier: ReportTier) {
        self.negotiations += 1;
        self.customers.clear();
        self.customers.extend(
            (0..scenario.customers.len()).map(|i| CustomerEngine::for_customer(scenario, i)),
        );
        self.utility.reset(scenario, tier);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concession::NegotiationStatus;
    use crate::methods::AnnouncementMethod;
    use crate::session::ScenarioBuilder;

    #[test]
    fn drives_the_paper_trace() {
        let scenario = ScenarioBuilder::paper_figure_6().build();
        let report = NegotiationScratch::new().run(&scenario, ReportTier::FullTrace);
        assert_eq!(report.rounds().len(), 3);
        assert!(report.converged());
    }

    #[test]
    fn all_methods_settle_on_random_populations() {
        for seed in 0..5 {
            for method in AnnouncementMethod::all() {
                let report = ScenarioBuilder::random(30, 0.35, seed)
                    .method(method)
                    .build()
                    .run();
                assert!(
                    matches!(
                        report.status(),
                        NegotiationStatus::Converged(_) | NegotiationStatus::MaxRoundsExceeded
                    ),
                    "seed {seed} {method}: {report}"
                );
                assert_eq!(report.method(), method);
                assert_eq!(report.settlements().len(), 30);
            }
        }
    }

    #[test]
    fn scratch_reuse_is_byte_identical_to_fresh_engines() {
        // One scratch across mixed scenario sizes and every method —
        // growing, shrinking and re-aiming the engine buffers must
        // never leak state between negotiations.
        let mut scratch = NegotiationScratch::new();
        let sizes_and_seeds = [(30usize, 1u64), (12, 2), (30, 1), (45, 3), (12, 2)];
        for &(n, seed) in &sizes_and_seeds {
            for method in AnnouncementMethod::all() {
                let scenario = ScenarioBuilder::random(n, 0.35, seed)
                    .method(method)
                    .build();
                let fresh = scenario.run();
                let reused = scratch.run(&scenario, ReportTier::FullTrace);
                assert_eq!(fresh, reused, "n={n} seed={seed} {method}");
            }
        }
        assert_eq!(
            scratch.negotiations(),
            (sizes_and_seeds.len() * AnnouncementMethod::all().len()) as u64
        );
    }

    #[test]
    fn scratch_matches_the_paper_trace() {
        let scenario = ScenarioBuilder::paper_figure_6().build();
        let mut scratch = NegotiationScratch::new();
        // Run a different negotiation first so the paper trace goes
        // through *reset* engines, not fresh ones.
        let _ = scratch.run(
            &ScenarioBuilder::random(7, 0.4, 9)
                .method(AnnouncementMethod::RequestForBids)
                .build(),
            ReportTier::FullTrace,
        );
        let report = scratch.run(&scenario, ReportTier::FullTrace);
        assert_eq!(report, scenario.run());
    }

    #[test]
    fn customers_learn_their_awards() {
        let scenario = ScenarioBuilder::paper_figure_6().build();
        let mut scratch = NegotiationScratch::new();
        let report = scratch.run(&scenario, ReportTier::FullTrace);
        assert_eq!(scratch.customers.len(), report.settlements().len());
        for (engine, settlement) in scratch.customers.iter().zip(report.settlements()) {
            assert_eq!(engine.awarded(), Some(settlement));
        }
    }
}
