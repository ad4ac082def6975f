//! Information links: the static view of process composition.
//!
//! "This composition of processes is described by a specification of the
//! possibilities for information exchange between processes" (Section
//! 4.1.2). A link copies facts from a source interface to a destination
//! interface, optionally renaming predicates (the "mediating" role links
//! play between a parent's vocabulary and a child's).

use crate::engine::FactBase;
use crate::ident::Name;
use std::fmt;

/// One end of an information link, relative to the composed component the
/// link lives in.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// The composed component's own input interface.
    ParentInput,
    /// The composed component's own output interface.
    ParentOutput,
    /// A child's input interface.
    ChildInput(Name),
    /// A child's output interface.
    ChildOutput(Name),
}

impl Endpoint {
    /// The child name this endpoint refers to, if any.
    pub fn child(&self) -> Option<&Name> {
        match self {
            Endpoint::ChildInput(n) | Endpoint::ChildOutput(n) => Some(n),
            _ => None,
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::ParentInput => write!(f, "parent.input"),
            Endpoint::ParentOutput => write!(f, "parent.output"),
            Endpoint::ChildInput(n) => write!(f, "{n}.input"),
            Endpoint::ChildOutput(n) => write!(f, "{n}.output"),
        }
    }
}

/// A predicate rename applied while facts cross a link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomMapping {
    /// Predicate name on the source interface.
    pub from: Name,
    /// Predicate name asserted on the destination interface.
    pub to: Name,
}

/// An information link between two interfaces of a composition.
///
/// With no mappings the link is an *identity link*: every fact is
/// transferred unchanged. With mappings, only facts whose predicate
/// appears in a mapping are transferred, renamed accordingly.
///
/// # Example
///
/// ```
/// use desire::link::{Endpoint, InfoLink};
///
/// let link = InfoLink::new(
///     "announce_to_customer",
///     Endpoint::ChildOutput("utility_agent".into()),
///     Endpoint::ChildInput("customer_agent".into()),
/// )
/// .with_mapping("announced_reward", "offered_reward");
/// assert_eq!(link.name().as_str(), "announce_to_customer");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfoLink {
    name: Name,
    from: Endpoint,
    to: Endpoint,
    mappings: Vec<AtomMapping>,
}

impl InfoLink {
    /// Creates a link.
    ///
    /// # Panics
    ///
    /// Panics on self-loops (same endpoint on both sides) and on the
    /// directions DESIRE forbids: into a parent *input* or out of a parent
    /// *output* (those interfaces face the outside world).
    pub fn new(name: impl Into<Name>, from: Endpoint, to: Endpoint) -> InfoLink {
        let name = name.into();
        assert!(from != to, "link '{name}' connects an interface to itself");
        assert!(
            to != Endpoint::ParentInput,
            "link '{name}' may not write to the parent's input interface"
        );
        assert!(
            from != Endpoint::ParentOutput,
            "link '{name}' may not read from the parent's output interface"
        );
        InfoLink {
            name,
            from,
            to,
            mappings: Vec::new(),
        }
    }

    /// An identity link transferring all facts unchanged.
    pub fn identity(name: impl Into<Name>, from: Endpoint, to: Endpoint) -> InfoLink {
        InfoLink::new(name, from, to)
    }

    /// Adds a predicate mapping (builder style). Once any mapping is
    /// present, only mapped predicates are transferred.
    pub fn with_mapping(mut self, from: impl Into<Name>, to: impl Into<Name>) -> InfoLink {
        self.mappings.push(AtomMapping {
            from: from.into(),
            to: to.into(),
        });
        self
    }

    /// The link's name.
    pub fn name(&self) -> &Name {
        &self.name
    }

    /// Source endpoint.
    pub fn from(&self) -> &Endpoint {
        &self.from
    }

    /// Destination endpoint.
    pub fn to(&self) -> &Endpoint {
        &self.to
    }

    /// Child names referenced by either endpoint.
    pub fn referenced_children(&self) -> impl Iterator<Item = &Name> {
        self.from.child().into_iter().chain(self.to.child())
    }

    /// Transfers facts from `source` into `destination`, returning how
    /// many facts changed the destination (new or updated values).
    pub fn transfer(&self, source: &FactBase, destination: &mut FactBase) -> usize {
        let mut changed = 0;
        if self.mappings.is_empty() {
            for (atom, value) in source.iter() {
                if destination.truth(atom) != value {
                    destination.assert(atom.clone(), value);
                    changed += 1;
                }
            }
        } else {
            for mapping in &self.mappings {
                for (atom, value) in source.with_predicate(&mapping.from) {
                    let renamed = atom.renamed(mapping.to.clone());
                    if destination.truth(&renamed) != value {
                        destination.assert(renamed, value);
                        changed += 1;
                    }
                }
            }
        }
        changed
    }
}

impl fmt::Display for InfoLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} → {}", self.name, self.from, self.to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TruthValue;
    use crate::term::Atom;

    fn facts(items: &[(&str, TruthValue)]) -> FactBase {
        items
            .iter()
            .map(|(t, v)| (Atom::parse(t).unwrap(), *v))
            .collect()
    }

    #[test]
    fn identity_link_transfers_everything() {
        let src = facts(&[("a", TruthValue::True), ("b(1)", TruthValue::False)]);
        let mut dst = FactBase::new();
        let link = InfoLink::identity(
            "l",
            Endpoint::ChildOutput("x".into()),
            Endpoint::ChildInput("y".into()),
        );
        let n = link.transfer(&src, &mut dst);
        assert_eq!(n, 2);
        assert_eq!(dst.truth(&Atom::prop("a")), TruthValue::True);
        assert_eq!(dst.truth(&Atom::parse("b(1)").unwrap()), TruthValue::False);
    }

    #[test]
    fn mapped_link_renames_and_filters() {
        let src = facts(&[
            ("announced(17)", TruthValue::True),
            ("noise", TruthValue::True),
        ]);
        let mut dst = FactBase::new();
        let link = InfoLink::new(
            "l",
            Endpoint::ChildOutput("ua".into()),
            Endpoint::ChildInput("ca".into()),
        )
        .with_mapping("announced", "offered");
        let n = link.transfer(&src, &mut dst);
        assert_eq!(n, 1);
        assert!(dst.holds(&Atom::parse("offered(17)").unwrap()));
        assert_eq!(dst.truth(&Atom::prop("noise")), TruthValue::Unknown);
    }

    #[test]
    fn transfer_is_idempotent() {
        let src = facts(&[("a", TruthValue::True)]);
        let mut dst = FactBase::new();
        let link = InfoLink::identity("l", Endpoint::ParentInput, Endpoint::ChildInput("y".into()));
        assert_eq!(link.transfer(&src, &mut dst), 1);
        assert_eq!(link.transfer(&src, &mut dst), 0, "no change on re-transfer");
    }

    #[test]
    #[should_panic(expected = "itself")]
    fn self_loop_panics() {
        let _ = InfoLink::new("l", Endpoint::ParentInput, Endpoint::ParentInput);
    }

    #[test]
    #[should_panic(expected = "parent's input")]
    fn writing_parent_input_panics() {
        let _ = InfoLink::new(
            "l",
            Endpoint::ChildOutput("x".into()),
            Endpoint::ParentInput,
        );
    }

    #[test]
    #[should_panic(expected = "parent's output")]
    fn reading_parent_output_panics() {
        let _ = InfoLink::new(
            "l",
            Endpoint::ParentOutput,
            Endpoint::ChildInput("x".into()),
        );
    }

    #[test]
    fn endpoint_accessors() {
        let e = Endpoint::ChildInput("ca".into());
        assert_eq!(e.child().unwrap().as_str(), "ca");
        assert!(Endpoint::ParentInput.child().is_none());
        assert_eq!(e.to_string(), "ca.input");
    }

    #[test]
    fn display_link() {
        let link = InfoLink::identity(
            "flow",
            Endpoint::ParentInput,
            Endpoint::ChildInput("a".into()),
        );
        assert_eq!(link.to_string(), "flow: parent.input → a.input");
    }

    #[test]
    fn referenced_children() {
        let link = InfoLink::new(
            "l",
            Endpoint::ChildOutput("a".into()),
            Endpoint::ChildInput("b".into()),
        );
        let kids: Vec<_> = link.referenced_children().map(|n| n.as_str()).collect();
        assert_eq!(kids, vec!["a", "b"]);
    }
}
