//! The generic agent model (Brazier, Jonker & Treur, ATAL'96 — the
//! paper's reference \[4\]).
//!
//! "In this agent model, an agent performs the following generic agent
//! tasks: own process control, agent specific task, cooperation
//! management, agent interaction management, world interaction
//! management, maintenance of world information, maintenance of agent
//! information" (§5). [`GenericAgentBuilder`] assembles those seven
//! tasks into one composed component with the model's standard
//! information-flow wiring:
//!
//! ```text
//!  parent.input ──────────────► agent_interaction.input   (incoming communication)
//!  parent.input ──────────────► world_interaction.input   (observations)
//!  agent_interaction.output ──► cooperation.input          (received proposals)
//!  agent_interaction.output ──► maintenance_agent.input    (observed behaviour)
//!  world_interaction.output ──► maintenance_world.input    (observed world facts)
//!  maintenance_world.output ──► agent_specific.input       (world model)
//!  maintenance_agent.output ──► cooperation.input          (models of agents)
//!  agent_specific.output ─────► own_process_control.input  (assessments)
//!  own_process_control.output ► cooperation.input          (strategy)
//!  cooperation.output ────────► agent_interaction.input    (outgoing proposals)
//!  agent_interaction.output ──► parent.output              (communication out)
//! ```
//!
//! Tasks left unset default to empty reasoning components, so partial
//! agents (e.g. a Producer Agent that only needs interaction management
//! and an agent-specific task) build cleanly.

use crate::component::Component;
use crate::ident::Name;
use crate::kb::KnowledgeBase;
use crate::link::{Endpoint, InfoLink};
use crate::task_control::TaskControl;

/// The seven generic tasks of the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GenericTask {
    /// Controlling the agent's own reasoning processes.
    OwnProcessControl,
    /// The agent's domain task (e.g. predicting the load balance).
    AgentSpecificTask,
    /// Managing cooperation (negotiation content).
    CooperationManagement,
    /// Communicating with other agents.
    AgentInteractionManagement,
    /// Observing and acting in the external world.
    WorldInteractionManagement,
    /// Storing and updating world knowledge.
    MaintenanceOfWorldInformation,
    /// Storing and updating models of other agents.
    MaintenanceOfAgentInformation,
}

impl GenericTask {
    /// All seven tasks, in the order the paper lists them.
    pub fn all() -> [GenericTask; 7] {
        [
            GenericTask::OwnProcessControl,
            GenericTask::AgentSpecificTask,
            GenericTask::CooperationManagement,
            GenericTask::AgentInteractionManagement,
            GenericTask::WorldInteractionManagement,
            GenericTask::MaintenanceOfWorldInformation,
            GenericTask::MaintenanceOfAgentInformation,
        ]
    }

    /// The component name used for the task.
    fn component_name(self) -> &'static str {
        match self {
            GenericTask::OwnProcessControl => "own_process_control",
            GenericTask::AgentSpecificTask => "agent_specific_task",
            GenericTask::CooperationManagement => "cooperation_management",
            GenericTask::AgentInteractionManagement => "agent_interaction_management",
            GenericTask::WorldInteractionManagement => "world_interaction_management",
            GenericTask::MaintenanceOfWorldInformation => "maintenance_of_world_information",
            GenericTask::MaintenanceOfAgentInformation => "maintenance_of_agent_information",
        }
    }
}

/// Builder assembling a generic agent from task components.
#[derive(Debug, Default)]
pub struct GenericAgentBuilder {
    name: Name,
    tasks: Vec<(GenericTask, Component)>,
}

impl GenericAgentBuilder {
    /// Starts building an agent with the given name.
    pub fn new(name: impl Into<Name>) -> GenericAgentBuilder {
        GenericAgentBuilder {
            name: name.into(),
            tasks: Vec::new(),
        }
    }

    /// Provides the component refining one generic task. The component is
    /// renamed to the task's canonical name if it differs.
    ///
    /// # Panics
    ///
    /// Panics if the task was already provided.
    pub fn with_task(mut self, task: GenericTask, component: Component) -> GenericAgentBuilder {
        assert!(
            self.tasks.iter().all(|(t, _)| *t != task),
            "task {task:?} provided twice"
        );
        self.tasks.push((task, component));
        self
    }

    /// Builds the composed agent with the model's standard wiring.
    /// Unprovided tasks become empty reasoning components.
    pub fn build(self) -> Component {
        // Seven canonical slots, placeholders first...
        let mut children: Vec<Component> = GenericTask::all()
            .into_iter()
            .map(|task| placeholder(task.component_name()))
            .collect();
        // ...then the provided components take their slots.
        for (task, component) in self.tasks {
            let canonical = task.component_name();
            let slot = children
                .iter()
                .position(|c| c.name().as_str() == canonical)
                .expect("canonical slot exists");
            children[slot] = rename_if_needed(component, canonical);
        }
        Component::composed(self.name, children, standard_links(), TaskControl::new())
    }
}

fn placeholder(name: &str) -> Component {
    Component::primitive(name, KnowledgeBase::new(name))
}

fn rename_if_needed(component: Component, canonical: &str) -> Component {
    if component.name().as_str() == canonical {
        component
    } else {
        // Components carry their name immutably; wrap in a composition
        // with the canonical name and an identity pass-through.
        let inner = component.name().clone();
        Component::composed(
            canonical,
            vec![component],
            vec![
                InfoLink::identity(
                    "in",
                    Endpoint::ParentInput,
                    Endpoint::ChildInput(inner.clone()),
                ),
                InfoLink::identity("out", Endpoint::ChildOutput(inner), Endpoint::ParentOutput),
            ],
            TaskControl::new(),
        )
    }
}

fn standard_links() -> Vec<InfoLink> {
    let child_in = |n: &str| Endpoint::ChildInput(Name::from(n));
    let child_out = |n: &str| Endpoint::ChildOutput(Name::from(n));
    vec![
        InfoLink::identity(
            "communication_in",
            Endpoint::ParentInput,
            child_in("agent_interaction_management"),
        ),
        InfoLink::identity(
            "observation_in",
            Endpoint::ParentInput,
            child_in("world_interaction_management"),
        ),
        InfoLink::identity(
            "received_info",
            child_out("agent_interaction_management"),
            child_in("cooperation_management"),
        ),
        InfoLink::identity(
            "observed_behaviour",
            child_out("agent_interaction_management"),
            child_in("maintenance_of_agent_information"),
        ),
        InfoLink::identity(
            "observed_world",
            child_out("world_interaction_management"),
            child_in("maintenance_of_world_information"),
        ),
        InfoLink::identity(
            "world_model",
            child_out("maintenance_of_world_information"),
            child_in("agent_specific_task"),
        ),
        InfoLink::identity(
            "agent_models",
            child_out("maintenance_of_agent_information"),
            child_in("cooperation_management"),
        ),
        InfoLink::identity(
            "assessments",
            child_out("agent_specific_task"),
            child_in("own_process_control"),
        ),
        InfoLink::identity(
            "strategy",
            child_out("own_process_control"),
            child_in("cooperation_management"),
        ),
        InfoLink::identity(
            "outgoing_proposals",
            child_out("cooperation_management"),
            child_in("agent_interaction_management"),
        ),
        InfoLink::identity(
            "communication_out",
            child_out("agent_interaction_management"),
            Endpoint::ParentOutput,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{check_design, Severity};
    use crate::engine::TruthValue;
    use crate::system::System;
    use crate::term::Atom;

    fn reasoning(name: &str, rules: &[&str]) -> Component {
        Component::primitive(name, KnowledgeBase::new(name).with_rules(rules))
    }

    #[test]
    fn empty_agent_builds_with_all_seven_tasks() {
        let agent = GenericAgentBuilder::new("ua").build();
        assert_eq!(agent.children().len(), 7);
        for task in GenericTask::all() {
            assert!(
                agent.child(task.component_name()).is_some(),
                "missing {task:?}"
            );
        }
    }

    #[test]
    fn no_design_errors_in_generic_wiring() {
        let agent = GenericAgentBuilder::new("ua").build();
        let errors: Vec<_> = check_design(&agent)
            .into_iter()
            .filter(|i| i.severity == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn communication_flows_through_the_standard_wiring() {
        // Interaction management annotates incoming messages; cooperation
        // turns them into proposals; interaction sends them out.
        let interaction = reasoning(
            "agent_interaction_management",
            &[
                "announce_received => received(announcement)",
                "send(Proposal) => out(Proposal)",
            ],
        );
        let cooperation = reasoning(
            "cooperation_management",
            &["received(announcement) => send(bid)"],
        );
        let agent = GenericAgentBuilder::new("ca")
            .with_task(GenericTask::AgentInteractionManagement, interaction)
            .with_task(GenericTask::CooperationManagement, cooperation)
            .build();
        let mut system = System::new(agent);
        system
            .root_mut()
            .input_mut()
            .assert(Atom::prop("announce_received"), TruthValue::True);
        system.run().unwrap();
        assert!(
            system
                .root()
                .output()
                .holds(&Atom::parse("out(bid)").unwrap()),
            "bid must flow: interaction → cooperation → interaction → output"
        );
    }

    #[test]
    fn world_observations_reach_the_agent_specific_task() {
        let world = reasoning(
            "world_interaction_management",
            &["temperature_drops => observed(cold)"],
        );
        let maintenance = reasoning(
            "maintenance_of_world_information",
            &["observed(cold) => world(cold)"],
        );
        let specific = reasoning("agent_specific_task", &["world(cold) => predict(peak)"]);
        let agent = GenericAgentBuilder::new("ua")
            .with_task(GenericTask::WorldInteractionManagement, world)
            .with_task(GenericTask::MaintenanceOfWorldInformation, maintenance)
            .with_task(GenericTask::AgentSpecificTask, specific)
            .build();
        let mut system = System::new(agent);
        system
            .root_mut()
            .input_mut()
            .assert(Atom::prop("temperature_drops"), TruthValue::True);
        system.run().unwrap();
        let specific = system.root().child("agent_specific_task").unwrap();
        assert!(specific
            .output()
            .holds(&Atom::parse("predict(peak)").unwrap()));
    }

    #[test]
    fn differently_named_components_are_wrapped() {
        let custom = reasoning("my_cooperation", &["received(X) => send(X)"]);
        let agent = GenericAgentBuilder::new("a")
            .with_task(GenericTask::CooperationManagement, custom)
            .build();
        let coop = agent
            .child("cooperation_management")
            .expect("canonical name");
        assert!(coop.child("my_cooperation").is_some(), "wrapped inside");
    }

    #[test]
    #[should_panic(expected = "provided twice")]
    fn duplicate_task_panics() {
        let _ = GenericAgentBuilder::new("a")
            .with_task(
                GenericTask::OwnProcessControl,
                placeholder("own_process_control"),
            )
            .with_task(
                GenericTask::OwnProcessControl,
                placeholder("own_process_control"),
            );
    }

    #[test]
    fn task_names_are_the_papers() {
        assert_eq!(
            GenericTask::MaintenanceOfAgentInformation.component_name(),
            "maintenance_of_agent_information"
        );
        assert_eq!(GenericTask::all().len(), 7);
    }
}
