//! Components: the units of DESIRE's process composition.
//!
//! "The identified processes are modelled as components. For each process
//! the input and output information types are modelled. ... components may
//! be composed of other components or they may be primitive. Primitive
//! components may be either reasoning components (i.e., based on a
//! knowledge base), or, components capable of performing tasks such as
//! calculation, information retrieval, optimisation" (Section 4.1.1).

use crate::engine::{FactBase, TruthValue};
use crate::ident::Name;
use crate::info::InfoType;
use crate::kb::KnowledgeBase;
use crate::link::InfoLink;
use crate::task_control::TaskControl;
use crate::term::Atom;
use std::fmt;

/// Which interface of a component an endpoint refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterfaceKind {
    /// The input interface.
    Input,
    /// The output interface.
    Output,
}

impl fmt::Display for InterfaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InterfaceKind::Input => "input",
            InterfaceKind::Output => "output",
        })
    }
}

/// An interface: a fact base plus an optional information type that facts
/// are checked against.
#[derive(Debug, Default)]
pub struct Interface {
    facts: FactBase,
    info_type: Option<InfoType>,
}

impl Interface {
    /// Creates an untyped interface.
    pub fn new() -> Interface {
        Interface::default()
    }

    /// Creates an interface whose facts must conform to `info_type`.
    fn typed(info_type: InfoType) -> Interface {
        Interface {
            facts: FactBase::new(),
            info_type: Some(info_type),
        }
    }

    /// Asserts a fact.
    ///
    /// # Panics
    ///
    /// Panics if the atom is not ground, or if the interface is typed and
    /// the atom fails signature checking — a modelling error, caught loud.
    pub fn assert(&mut self, atom: Atom, value: TruthValue) {
        if let Some(info) = &self.info_type {
            if let Err(e) = info.check_atom(&atom) {
                panic!("ill-typed fact {atom} on interface: {e}");
            }
        }
        self.facts.assert(atom, value);
    }

    /// The truth value of an atom.
    pub fn truth(&self, atom: &Atom) -> TruthValue {
        self.facts.truth(atom)
    }

    /// True if the atom is known true.
    pub fn holds(&self, atom: &Atom) -> bool {
        self.facts.holds(atom)
    }

    /// Read access to the underlying fact base.
    pub fn facts(&self) -> &FactBase {
        &self.facts
    }

    /// Mutable access to the underlying fact base (bypasses typing —
    /// intended for the kernel and links, which transfer already-checked
    /// facts).
    pub(crate) fn facts_mut(&mut self) -> &mut FactBase {
        &mut self.facts
    }
}

/// A calculation body: a non-reasoning primitive component (numeric
/// prediction, optimisation, table construction...).
pub trait Calculation: fmt::Debug {
    /// Computes output facts from the input fact base.
    fn compute(&mut self, input: &FactBase) -> Vec<(Atom, TruthValue)>;
}

/// Wraps a closure as a [`Calculation`].
pub struct FnCalculation<F> {
    name: &'static str,
    f: F,
}

impl<F> FnCalculation<F>
where
    F: FnMut(&FactBase) -> Vec<(Atom, TruthValue)>,
{
    /// Creates a calculation from a closure; `name` appears in `Debug`.
    pub fn new(name: &'static str, f: F) -> FnCalculation<F> {
        FnCalculation { name, f }
    }
}

impl<F> fmt::Debug for FnCalculation<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FnCalculation({})", self.name)
    }
}

impl<F> Calculation for FnCalculation<F>
where
    F: FnMut(&FactBase) -> Vec<(Atom, TruthValue)>,
{
    fn compute(&mut self, input: &FactBase) -> Vec<(Atom, TruthValue)> {
        (self.f)(input)
    }
}

/// The body of a component.
#[derive(Debug)]
pub enum Body {
    /// A reasoning primitive: forward chaining over a knowledge base.
    Reasoning(KnowledgeBase),
    /// A calculation primitive.
    Calculation(Box<dyn Calculation>),
    /// A composed component.
    Composed(Composition),
}

/// The internals of a composed component: sub-components, information
/// links and task-control knowledge (Section 4.1.2).
#[derive(Debug, Default)]
pub struct Composition {
    /// Sub-components in declaration order.
    pub children: Vec<Component>,
    /// Information links between interfaces.
    pub links: Vec<InfoLink>,
    /// Task-control knowledge.
    pub task_control: TaskControl,
}

/// A process component with input and output interfaces.
///
/// # Example
///
/// ```
/// use desire::prelude::*;
///
/// let kb = KnowledgeBase::new("k")
///     .with_rule(Rule::parse("peak_expected => announce").unwrap());
/// let mut c = Component::primitive("determine_announcement", kb);
/// c.input_mut().assert(Atom::prop("peak_expected"), TruthValue::True);
/// let mut system = System::new(c);
/// system.run().unwrap();
/// assert!(system.root().output().holds(&Atom::prop("announce")));
/// ```
#[derive(Debug)]
pub struct Component {
    name: Name,
    input: Interface,
    output: Interface,
    body: Body,
}

impl Component {
    /// Creates a reasoning primitive from a knowledge base.
    pub fn primitive(name: impl Into<Name>, kb: KnowledgeBase) -> Component {
        Component {
            name: name.into(),
            input: Interface::new(),
            output: Interface::new(),
            body: Body::Reasoning(kb),
        }
    }

    /// Creates a calculation primitive.
    pub fn calculation(name: impl Into<Name>, calc: impl Calculation + 'static) -> Component {
        Component {
            name: name.into(),
            input: Interface::new(),
            output: Interface::new(),
            body: Body::Calculation(Box::new(calc)),
        }
    }

    /// Creates a composed component.
    ///
    /// # Panics
    ///
    /// Panics if child names are not unique, or if a link refers to an
    /// unknown child (modelling errors).
    pub fn composed(
        name: impl Into<Name>,
        children: Vec<Component>,
        links: Vec<InfoLink>,
        task_control: TaskControl,
    ) -> Component {
        let name = name.into();
        for (i, a) in children.iter().enumerate() {
            for b in &children[i + 1..] {
                assert!(
                    a.name != b.name,
                    "duplicate child '{}' in composed component '{name}'",
                    a.name
                );
            }
        }
        let child_names: Vec<&Name> = children.iter().map(|c| &c.name).collect();
        for link in &links {
            for endpoint_child in link.referenced_children() {
                assert!(
                    child_names.contains(&endpoint_child),
                    "link '{}' refers to unknown child '{endpoint_child}' of '{name}'",
                    link.name()
                );
            }
        }
        Component {
            name,
            input: Interface::new(),
            output: Interface::new(),
            body: Body::Composed(Composition {
                children,
                links,
                task_control,
            }),
        }
    }

    /// The component's name.
    pub fn name(&self) -> &Name {
        &self.name
    }

    /// Replaces the input interface with a typed one.
    pub fn with_typed_input(mut self, info: InfoType) -> Component {
        self.input = Interface::typed(info);
        self
    }

    /// The input interface.
    pub fn input(&self) -> &Interface {
        &self.input
    }

    /// Mutable input interface.
    pub fn input_mut(&mut self) -> &mut Interface {
        &mut self.input
    }

    /// The output interface.
    pub fn output(&self) -> &Interface {
        &self.output
    }

    /// Mutable output interface.
    pub fn output_mut(&mut self) -> &mut Interface {
        &mut self.output
    }

    /// The component's body.
    pub fn body(&self) -> &Body {
        &self.body
    }

    /// Child component by name (for composed components).
    pub fn child(&self, name: &str) -> Option<&Component> {
        match &self.body {
            Body::Composed(c) => c.children.iter().find(|ch| ch.name.as_str() == name),
            _ => None,
        }
    }

    /// The children of a composed component (empty for primitives).
    pub fn children(&self) -> &[Component] {
        match &self.body {
            Body::Composed(c) => &c.children,
            _ => &[],
        }
    }

    /// Crate-internal simultaneous borrow of interfaces and body, needed
    /// by the kernel.
    pub(crate) fn split_fields(&mut self) -> (&mut Interface, &mut Interface, &mut Body) {
        (&mut self.input, &mut self.output, &mut self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::Rule;
    use crate::system::System;
    use crate::term::Term;

    #[test]
    fn reasoning_primitive_derives_to_output() {
        let kb = KnowledgeBase::new("k").with_rules(&["a => b"]);
        let mut c = Component::primitive("p", kb);
        c.input_mut().assert(Atom::prop("a"), TruthValue::True);
        let mut system = System::new(c);
        let derived = system.run().unwrap();
        assert_eq!(derived, 1);
        assert!(system.root().output().holds(&Atom::prop("b")));
        // Inputs are visible on the output closure as well.
        assert!(system.root().output().holds(&Atom::prop("a")));
    }

    #[test]
    fn calculation_primitive_computes() {
        let calc = FnCalculation::new("double", |input: &FactBase| {
            let mut out = Vec::new();
            for (atom, v) in input.iter() {
                if atom.predicate.as_str() == "value" && v == TruthValue::True {
                    if let Some(x) = atom.args[0].as_number() {
                        out.push((
                            Atom::new("doubled", vec![Term::number(2.0 * x)]),
                            TruthValue::True,
                        ));
                    }
                }
            }
            out
        });
        let mut c = Component::calculation("doubler", calc);
        c.input_mut()
            .assert(Atom::parse("value(21)").unwrap(), TruthValue::True);
        let mut system = System::new(c);
        system.run().unwrap();
        assert!(system
            .root()
            .output()
            .holds(&Atom::parse("doubled(42)").unwrap()));
    }

    #[test]
    fn typed_interface_rejects_bad_facts() {
        let info = InfoType::new("i").with_predicate("p", &[]);
        let mut iface = Interface::typed(info);
        iface.assert(Atom::prop("p"), TruthValue::True);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            iface.assert(Atom::prop("q"), TruthValue::True);
        }))
        .is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate child")]
    fn duplicate_children_panic() {
        let a = Component::primitive("x", KnowledgeBase::new("k"));
        let b = Component::primitive("x", KnowledgeBase::new("k"));
        let _ = Component::composed("parent", vec![a, b], vec![], TaskControl::default());
    }

    #[test]
    fn child_lookup() {
        let a = Component::primitive("a", KnowledgeBase::new("k"));
        let parent = Component::composed("p", vec![a], vec![], TaskControl::default());
        assert!(parent.child("a").is_some());
        assert!(parent.child("zz").is_none());
        assert_eq!(parent.children().len(), 1);
    }

    #[test]
    fn reactivation_is_idempotent() {
        let kb = KnowledgeBase::new("k").with_rule(Rule::parse("a => b").unwrap());
        let mut c = Component::primitive("p", kb);
        c.input_mut().assert(Atom::prop("a"), TruthValue::True);
        let mut system = System::new(c);
        let first = system.run().unwrap();
        let second = system.run().unwrap();
        assert_eq!(first, 1);
        assert_eq!(second, 0, "second activation derives nothing new");
    }
}
