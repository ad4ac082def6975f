//! A Rust re-implementation of the run-time semantics of **DESIRE**
//! (framework for DEsign and Specification of Interacting REasoning
//! components), the compositional multi-agent development method used by
//! Brazier et al. to build the load-balancing prototype (Section 4 of the
//! paper).
//!
//! DESIRE designs consist of three kinds of knowledge, all modelled here:
//!
//! * **Process composition** ([`component`], [`link`], [`task_control`]):
//!   components at different abstraction levels, either *primitive*
//!   (reasoning on a knowledge base, or a calculation) or *composed* of
//!   sub-components; information links exchange facts between component
//!   interfaces under task control.
//! * **Knowledge composition** ([`info`], [`term`], [`kb`]): information
//!   types (ontologies) and knowledge bases of rules.
//! * **The relation between the two** ([`engine`], [`system`]): which
//!   knowledge is used by which process; a forward-chaining three-valued
//!   inference engine executes primitive reasoning components and the
//!   [`system::System`] kernel drives whole composed systems to quiescence.
//!
//! Execution produces a [`trace::Trace`] against which temporal properties
//! can be checked ([`verify`]) — the compositional-verification story of
//! the companion ICMAS'98 paper. [`render`] prints component hierarchies
//! as trees, reproducing Figures 2–5 of the paper.
//!
//! # Example
//!
//! ```
//! use desire::prelude::*;
//!
//! // A primitive reasoning component: "if overuse is high, negotiate".
//! let kb = KnowledgeBase::new("decide")
//!     .with_rule(Rule::parse("high_overuse => start_negotiation").unwrap());
//! let mut component = Component::primitive("evaluate_prediction", kb);
//! component.input_mut().assert(Atom::prop("high_overuse"), TruthValue::True);
//! let mut system = System::new(component);
//! system.run().unwrap();
//! assert_eq!(
//!     system.root().output().truth(&Atom::prop("start_negotiation")),
//!     TruthValue::True
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent_model;
pub mod checker;
pub mod component;
pub mod engine;
pub mod ident;
pub mod info;
pub mod kb;
pub mod link;
pub mod render;
pub mod system;
pub mod task_control;
pub mod term;
pub mod trace;
pub mod verify;

/// The most frequently used items of the framework.
pub mod prelude {
    pub use crate::agent_model::{GenericAgentBuilder, GenericTask};
    pub use crate::checker::{check_design, DesignIssue, Severity};
    pub use crate::component::{Component, Interface, InterfaceKind};
    pub use crate::engine::{Engine, FactBase, TruthValue};
    pub use crate::ident::Name;
    pub use crate::info::InfoType;
    pub use crate::kb::{KnowledgeBase, Literal, Rule};
    pub use crate::link::{Endpoint, InfoLink};
    pub use crate::render::render_tree;
    pub use crate::system::System;
    pub use crate::task_control::TaskControl;
    pub use crate::term::{Atom, Term};
    pub use crate::trace::{Trace, TraceEvent};
    pub use crate::verify::{Property, Verdict};
}
