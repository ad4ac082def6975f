//! DESIRE-hosted execution and the Figures 2–5 process hierarchies.
//!
//! The paper's prototype was "(fully) specified and (automatically)
//! implemented in the DESIRE software environment" (§6). This module does
//! the same with our [`desire`] re-implementation:
//!
//! * [`ua_own_process_control_tree`], [`ua_cooperation_tree`],
//!   [`ca_own_process_control_tree`], [`ca_cooperation_tree`] build the
//!   exact process-abstraction hierarchies of Figures 2–5 (rendered by
//!   `examples/process_tree.rs`);
//! * [`run_hosted`] executes a reward-table negotiation *inside* the
//!   DESIRE kernel — the Utility Agent and the Customer Agents are
//!   calculation components exchanging facts over information links —
//!   and is cross-validated against the native synchronous session.

use crate::engine::{CustomerEngine, Effect, Input, UtilityEngine};
use crate::message::Msg;
use crate::reward::{RewardTable, LEVELS};
use crate::session::{NegotiationReport, Scenario};
use desire::component::{Component, FnCalculation};
use desire::engine::{FactBase, TruthValue};
use desire::kb::KnowledgeBase;
use desire::link::{Endpoint, InfoLink};
use desire::system::System;
use desire::task_control::TaskControl;
use desire::term::{Atom, Term};
use powergrid::time::Interval;
use powergrid::units::{Fraction, Money};
use std::cell::RefCell;
use std::rc::Rc;

fn leaf(name: &str) -> Component {
    Component::primitive(name, KnowledgeBase::new(name))
}

/// Figure 2: process abstraction levels within *own process control* of
/// the UA.
pub fn ua_own_process_control_tree() -> Component {
    let determine = Component::composed(
        "determine_general_negotiation_strategy",
        vec![
            leaf("determine_announcement_method"),
            leaf("determine_bid_acceptance_strategy"),
        ],
        vec![],
        TaskControl::new(),
    );
    Component::composed(
        "own_process_control",
        vec![determine, leaf("evaluate_negotiation_process")],
        vec![],
        TaskControl::new(),
    )
}

/// Figure 3: process abstraction levels within *cooperation management*
/// of the UA.
///
/// The *generate and select* leaves (`generate_announcements`,
/// `evaluate_prediction_for_announcements`, `select_announcement`) are
/// the paper's labels only: no model runs behind them, since the UA
/// determines each announcement with the §6 update rule.
pub fn ua_cooperation_tree() -> Component {
    let generate_select = Component::composed(
        "determine_announcement_by_generate_and_select",
        vec![
            leaf("generate_announcements"),
            leaf("evaluate_prediction_for_announcements"),
            leaf("select_announcement"),
        ],
        vec![],
        TaskControl::new(),
    );
    let determine_announcement = Component::composed(
        "determine_announcement",
        vec![
            generate_select,
            leaf("determine_announcement_by_statistical_analysis_and_optimisation"),
        ],
        vec![],
        TaskControl::new(),
    );
    let determine_bid_acceptance = Component::composed(
        "determine_bid_acceptance",
        vec![
            leaf("monitor_bid_receipt"),
            leaf("evaluate_bids"),
            leaf("select_bids"),
        ],
        vec![],
        TaskControl::new(),
    );
    Component::composed(
        "cooperation_management",
        vec![determine_announcement, determine_bid_acceptance],
        vec![],
        TaskControl::new(),
    )
}

/// Figure 4: process abstraction levels within *own process control* of
/// the CA.
pub fn ca_own_process_control_tree() -> Component {
    let determine = Component::composed(
        "determine_general_negotiation_strategies",
        vec![
            leaf("determine_general_resource_allocation_strategy"),
            leaf("determine_general_bidding_strategy"),
        ],
        vec![],
        TaskControl::new(),
    );
    let evaluate = Component::composed(
        "evaluate_processes",
        vec![
            leaf("evaluate_resource_allocation_process"),
            leaf("evaluate_bidding_process"),
        ],
        vec![],
        TaskControl::new(),
    );
    Component::composed(
        "own_process_control",
        vec![determine, evaluate],
        vec![],
        TaskControl::new(),
    )
}

/// Figure 5: process abstraction levels within *cooperation management*
/// of the CA.
pub fn ca_cooperation_tree() -> Component {
    let determine_resource_consumers = Component::composed(
        "determine_resource_consumers",
        vec![
            leaf("determine_needs_of_resource_consumers"),
            leaf("determine_implementation_instructions"),
            leaf("interpret_monitoring_results_of_resource_allocation"),
        ],
        vec![],
        TaskControl::new(),
    );
    let choose = Component::composed(
        "choose_appropriate_bid",
        vec![leaf("calculate_expected_gain")],
        vec![],
        TaskControl::new(),
    );
    let determine_bid = Component::composed(
        "determine_bid",
        vec![
            leaf("generate_bids"),
            choose,
            leaf("select_bid"),
            leaf("evaluate_bid"),
            leaf("interpret_monitoring_results_of_bids"),
        ],
        vec![],
        TaskControl::new(),
    );
    Component::composed(
        "cooperation_management",
        vec![determine_resource_consumers, determine_bid],
        vec![],
        TaskControl::new(),
    )
}

/// The full generic agent model (§5) for the UA: the seven generic agent
/// tasks of reference \[4\], assembled by [`desire::agent_model`] with
/// its standard information-flow wiring, refined by the Figure 2/3
/// hierarchies and the §5.1.2 agent-specific tasks.
pub fn utility_agent_tree() -> Component {
    use desire::agent_model::{GenericAgentBuilder, GenericTask};
    GenericAgentBuilder::new("utility_agent")
        .with_task(
            GenericTask::OwnProcessControl,
            ua_own_process_control_tree(),
        )
        .with_task(
            GenericTask::AgentSpecificTask,
            Component::composed(
                "agent_specific_task",
                vec![
                    leaf("determine_predicted_balance_consumption_production"),
                    leaf("evaluate_prediction"),
                ],
                vec![],
                TaskControl::new(),
            ),
        )
        .with_task(GenericTask::CooperationManagement, ua_cooperation_tree())
        .build()
}

/// The full generic agent model (§5) for the CA, assembled like
/// [`utility_agent_tree`] with the Figure 4/5 refinements.
pub fn customer_agent_tree() -> Component {
    use desire::agent_model::{GenericAgentBuilder, GenericTask};
    GenericAgentBuilder::new("customer_agent")
        .with_task(
            GenericTask::OwnProcessControl,
            ca_own_process_control_tree(),
        )
        .with_task(GenericTask::CooperationManagement, ca_cooperation_tree())
        .build()
}

// ---------------------------------------------------------------------
// The negotiation ontology (§4.2: information types)
// ---------------------------------------------------------------------

/// The information type (ontology) of the negotiation
/// vocabulary: the predicates flowing over the `announce` and `bids`
/// information links, with their argument sorts. "An information type
/// defines an ontology (lexicon, vocabulary) to describe objects or
/// terms, their sorts, and the relations or functions that can be
/// defined on these objects" (§4.2.1).
fn negotiation_info_type() -> desire::info::InfoType {
    desire::info::InfoType::new("load_balancing_negotiation")
        // announce_round(Round)
        .with_predicate("announce_round", &["number"])
        // announced(Round, Cutdown, Reward)
        .with_predicate("announced", &["number", "number", "number"])
        // bid(CustomerIndex, Round, Cutdown)
        .with_predicate("bid", &["number", "number", "number"])
        // negotiation_ended(Round)
        .with_predicate("negotiation_ended", &["number"])
}

// ---------------------------------------------------------------------
// Hosted execution
// ---------------------------------------------------------------------

fn table_to_facts(round: u32, table: &RewardTable) -> Vec<(Atom, TruthValue)> {
    let mut facts = vec![(
        Atom::new("announce_round", vec![Term::number(f64::from(round))]),
        TruthValue::True,
    )];
    for &(cutdown, reward) in table.entries() {
        facts.push((
            Atom::new(
                "announced",
                vec![
                    Term::number(f64::from(round)),
                    Term::number(cutdown.value()),
                    Term::number(reward.value()),
                ],
            ),
            TruthValue::True,
        ));
    }
    facts
}

/// The table announced for `round`: one reward per grid level, or
/// `None` unless every level of the grid is announced.
fn facts_to_table(facts: &FactBase, round: u32, interval: Interval) -> Option<RewardTable> {
    let mut rewards = [None; LEVELS.len()];
    for (atom, value) in facts.with_predicate(&"announced".into()) {
        if value != TruthValue::True || atom.args.len() != 3 {
            continue;
        }
        let (Some(r), Some(c), Some(reward)) = (
            atom.args[0].as_number(),
            atom.args[1].as_number(),
            atom.args[2].as_number(),
        ) else {
            continue;
        };
        if (r - f64::from(round)).abs() < 1e-9 {
            if let Some(k) = LEVELS.iter().position(|&level| level == c) {
                rewards[k] = Some(Money(reward));
            }
        }
    }
    let rewards: Vec<Money> = rewards.into_iter().collect::<Option<_>>()?;
    Some(RewardTable::new(interval, rewards.try_into().ok()?))
}

/// Runs the reward-table negotiation inside the DESIRE kernel.
///
/// Convenience wrapper around [`run_hosted_traced`] discarding the
/// execution trace.
///
/// # Panics
///
/// See [`run_hosted_traced`].
pub fn run_hosted(scenario: &Scenario) -> NegotiationReport {
    run_hosted_traced(scenario).0
}

/// Runs the reward-table negotiation inside the DESIRE kernel,
/// returning both the report and the kernel's execution trace (for
/// compositional verification with [`desire::verify`]).
///
/// The composition has two calculation children, `utility_agent` and
/// `customer_agents`, whose interfaces are connected by information
/// links `announce` (UA output → CA input) and `bids` (CA output → UA
/// input). The kernel's macro-rounds carry the negotiation until
/// quiescence.
///
/// # Panics
///
/// Panics if the kernel fails to reach quiescence (cannot happen for
/// terminating negotiations within the task-control round budget).
pub fn run_hosted_traced(scenario: &Scenario) -> (NegotiationReport, desire::trace::Trace) {
    // --- Utility Agent calculation component -------------------------
    // The component is pure fact-translation glue: facts in → engine
    // inputs, engine effects → facts out. All §3.2.3 round logic lives
    // in the shared sans-io engine. The method is pinned to reward
    // tables regardless of `scenario.method`: the hosted composition's
    // ontology and links only model announce/bid traffic, and this
    // function's contract is the paper-prototype strategy.
    let scenario = &Scenario {
        method: crate::methods::AnnouncementMethod::RewardTables,
        ..scenario.clone()
    };
    let engine = Rc::new(RefCell::new(UtilityEngine::new(scenario)));
    let ua_engine = Rc::clone(&engine);
    let mut started = false;
    let ua_calc = FnCalculation::new("ua_round", move |input: &FactBase| {
        let mut engine = ua_engine.borrow_mut();
        if engine.is_settled() {
            return Vec::new();
        }
        if !started {
            started = true;
            engine.handle(Input::Start);
        } else {
            // Feed this round's bids: bid(index, round, cutdown). Facts
            // persist across kernel rounds; the engine ignores stale and
            // duplicate deliveries, so re-feeding is harmless.
            for (atom, value) in input.with_predicate(&"bid".into()) {
                if value != TruthValue::True || atom.args.len() != 3 {
                    continue;
                }
                let (Some(i), Some(r), Some(c)) = (
                    atom.args[0].as_number(),
                    atom.args[1].as_number(),
                    atom.args[2].as_number(),
                ) else {
                    continue;
                };
                engine.handle(Input::Received {
                    from: i as usize,
                    msg: Msg::Bid {
                        round: r as u32,
                        cutdown: Fraction::clamped(c),
                    },
                });
            }
        }
        let mut out = Vec::new();
        while let Some(effect) = engine.poll_effect() {
            // A round's announcement broadcast becomes one round of
            // table facts, which the link carries to every customer.
            // Awards are counted in the engine's report; timers are
            // meaningless under the kernel's quiescence semantics.
            if let Effect::Broadcast {
                msg: Msg::Announce { round, table },
            } = effect
            {
                out.extend(table_to_facts(round, &table));
            }
        }
        if engine.is_settled() {
            out.push((
                Atom::new(
                    "negotiation_ended",
                    vec![Term::number(f64::from(engine.current_round()))],
                ),
                TruthValue::True,
            ));
        }
        out
    });
    let utility =
        Component::calculation("utility_agent", ua_calc).with_typed_input(negotiation_info_type());

    // --- Customer Agents calculation component ------------------------
    let mut engines: Vec<CustomerEngine> = (0..scenario.customers.len())
        .map(|i| CustomerEngine::for_customer(scenario, i))
        .collect();
    let interval = scenario.interval;
    let mut responded_round = 0u32;
    let ca_calc = FnCalculation::new("ca_respond", move |input: &FactBase| {
        // Highest announced round not yet answered.
        let mut latest = 0u32;
        for (atom, value) in input.with_predicate(&"announce_round".into()) {
            if value == TruthValue::True && atom.args.len() == 1 {
                if let Some(r) = atom.args[0].as_number() {
                    latest = latest.max(r as u32);
                }
            }
        }
        if latest == 0 || latest <= responded_round {
            return Vec::new();
        }
        let Some(table) = facts_to_table(input, latest, interval) else {
            return Vec::new();
        };
        // One announcement, which every customer reads.
        let announce = Msg::Announce {
            round: latest,
            table: std::sync::Arc::new(table),
        };
        responded_round = latest;
        engines
            .iter_mut()
            .enumerate()
            .filter_map(|(i, engine)| {
                let Some(Msg::Bid { round, cutdown }) = engine.answer(&announce) else {
                    return None;
                };
                Some((
                    Atom::new(
                        "bid",
                        vec![
                            Term::number(f64::from(i as u32)),
                            Term::number(f64::from(round)),
                            Term::number(cutdown.value()),
                        ],
                    ),
                    TruthValue::True,
                ))
            })
            .collect()
    });
    let customers = Component::calculation("customer_agents", ca_calc)
        .with_typed_input(negotiation_info_type());

    // --- Composition ---------------------------------------------------
    let links = vec![
        InfoLink::new(
            "announce",
            Endpoint::ChildOutput("utility_agent".into()),
            Endpoint::ChildInput("customer_agents".into()),
        )
        .with_mapping("announce_round", "announce_round")
        .with_mapping("announced", "announced"),
        InfoLink::new(
            "bids",
            Endpoint::ChildOutput("customer_agents".into()),
            Endpoint::ChildInput("utility_agent".into()),
        )
        .with_mapping("bid", "bid"),
    ];
    let root = Component::composed(
        "load_balancing_negotiation",
        vec![utility, customers],
        links,
        TaskControl::new().with_max_rounds(500),
    );
    let mut system = System::new(root);
    system
        .run()
        .expect("DESIRE-hosted negotiation reaches quiescence");

    let report = engine.borrow_mut().take_report();
    (report, system.trace().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ScenarioBuilder;
    use desire::render::render_tree;

    #[test]
    fn figure_trees_have_paper_components() {
        let fig2 = render_tree(&ua_own_process_control_tree());
        assert!(fig2.contains("determine_general_negotiation_strategy"));
        assert!(fig2.contains("determine_announcement_method"));
        assert!(fig2.contains("evaluate_negotiation_process"));

        let fig3 = render_tree(&ua_cooperation_tree());
        assert!(fig3.contains("generate_announcements"));
        assert!(fig3.contains("select_announcement"));
        assert!(fig3.contains("monitor_bid_receipt"));

        let fig4 = render_tree(&ca_own_process_control_tree());
        assert!(fig4.contains("determine_general_bidding_strategy"));
        assert!(fig4.contains("evaluate_resource_allocation_process"));

        let fig5 = render_tree(&ca_cooperation_tree());
        assert!(fig5.contains("determine_needs_of_resource_consumers"));
        assert!(fig5.contains("calculate_expected_gain"));
    }

    #[test]
    fn full_agent_trees_cover_generic_tasks() {
        let ua = render_tree(&utility_agent_tree());
        for task in [
            "own_process_control",
            "cooperation_management",
            "agent_interaction_management",
            "world_interaction_management",
            "maintenance_of_agent_information",
            "maintenance_of_world_information",
        ] {
            assert!(ua.contains(task), "UA tree missing {task}");
        }
        let ca = render_tree(&customer_agent_tree());
        assert!(ca.contains("determine_bid"));
    }

    #[test]
    fn hosted_run_matches_native_on_paper_scenario() {
        let scenario = ScenarioBuilder::paper_figure_6().build();
        let native = scenario.run();
        let hosted = run_hosted(&scenario);
        assert_eq!(hosted.rounds().len(), native.rounds().len());
        assert_eq!(hosted.status(), native.status());
        assert_eq!(hosted.final_bids(), native.final_bids());
        // Reward tables agree to micro precision (fact encoding).
        let native_r3 = native.rounds()[2].table.as_ref().unwrap();
        let hosted_r3 = hosted.rounds()[2].table.as_ref().unwrap();
        for (a, b) in native_r3.entries().iter().zip(hosted_r3.entries()) {
            assert_eq!(a.0, b.0);
            assert!((a.1.value() - b.1.value()).abs() < 2e-3);
        }
    }

    #[test]
    fn negotiation_facts_conform_to_the_ontology() {
        let info = negotiation_info_type();
        let scenario = ScenarioBuilder::paper_figure_6().build();
        let table = scenario.config.initial_table(scenario.interval);
        for (atom, _) in table_to_facts(1, &table) {
            assert!(info.check_atom(&atom).is_ok(), "ill-typed fact {atom}");
        }
        let bid = Atom::new(
            "bid",
            vec![Term::number(0.0), Term::number(1.0), Term::number(0.2)],
        );
        assert!(info.check_atom(&bid).is_ok());
        // Off-vocabulary predicates are rejected.
        assert!(info.check_atom(&Atom::prop("retract")).is_err());
        // Wrong arity is rejected.
        assert!(info
            .check_atom(&Atom::new("bid", vec![Term::number(1.0)]))
            .is_err());
    }

    #[test]
    fn typed_interfaces_reject_ill_typed_external_input() {
        let component = Component::calculation(
            "ua",
            desire::component::FnCalculation::new("noop", |_: &desire::engine::FactBase| {
                Vec::new()
            }),
        )
        .with_typed_input(negotiation_info_type());
        let mut component = component;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            component.input_mut().assert(
                Atom::prop("malicious_injection"),
                desire::engine::TruthValue::True,
            );
        }));
        assert!(
            result.is_err(),
            "off-vocabulary input must be rejected loudly"
        );
    }

    #[test]
    fn hosted_run_pins_reward_tables_regardless_of_scenario_method() {
        use crate::methods::AnnouncementMethod;
        // The hosted composition only models announce/bid traffic, so
        // run_hosted must negotiate with reward tables even when the
        // scenario is configured for another method — not quiesce into
        // an empty degenerate report.
        let scenario = ScenarioBuilder::random(10, 0.35, 1)
            .method(AnnouncementMethod::Offer)
            .build();
        let hosted = run_hosted(&scenario);
        let native = Scenario {
            method: AnnouncementMethod::RewardTables,
            ..scenario.clone()
        }
        .run();
        assert_eq!(hosted.method(), AnnouncementMethod::RewardTables);
        assert!(!hosted.rounds().is_empty());
        assert_eq!(hosted.final_bids(), native.final_bids());
        assert_eq!(hosted.status(), native.status());
    }

    #[test]
    fn hosted_run_matches_native_on_random_scenarios() {
        for seed in [1, 2] {
            let scenario = ScenarioBuilder::random(15, 0.35, seed).build();
            let native = scenario.run();
            let hosted = run_hosted(&scenario);
            assert_eq!(hosted.final_bids(), native.final_bids(), "seed {seed}");
            assert_eq!(hosted.status(), native.status(), "seed {seed}");
        }
    }
}
