//! Execution traces: everything the kernel did, in order.
//!
//! Traces are the raw material of compositional verification (the
//! companion ICMAS'98 paper verifies the load-balancing system by proving
//! temporal properties over exactly this kind of execution history).

use crate::engine::TruthValue;
use crate::ident::{ComponentPath, Name};
use crate::term::Atom;
use std::fmt;

/// A single event in an execution trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A component was activated and derived `derived` new facts.
    Activated {
        /// Path of the component.
        path: ComponentPath,
        /// Number of facts newly derived during the activation.
        derived: usize,
    },
    /// An information link transferred facts.
    LinkFired {
        /// Path of the composed component owning the link.
        path: ComponentPath,
        /// The link's name.
        link: Name,
        /// Facts that changed the destination.
        transferred: usize,
    },
    /// A fact became newly known at a component's output interface.
    FactDerived {
        /// Path of the component.
        path: ComponentPath,
        /// The fact.
        atom: Atom,
        /// Its new truth value.
        value: TruthValue,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Activated { path, derived } => {
                write!(f, "activate {path} (+{derived})")
            }
            TraceEvent::LinkFired {
                path,
                link,
                transferred,
            } => {
                write!(f, "link {path}::{link} (→{transferred})")
            }
            TraceEvent::FactDerived { path, atom, value } => {
                write!(f, "derive {path}: {atom} = {value}")
            }
        }
    }
}

/// An append-only execution history.
///
/// # Example
///
/// ```
/// use desire::trace::{Trace, TraceEvent};
/// use desire::ident::ComponentPath;
///
/// let mut trace = Trace::new();
/// trace.push(TraceEvent::Activated { path: ComponentPath::root(), derived: 2 });
/// assert_eq!(trace.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Appends an event.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// The events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Index of the first `FactDerived` event whose atom equals `atom`
    /// (at any component), if any.
    pub fn first_derivation(&self, atom: &Atom) -> Option<usize> {
        self.events
            .iter()
            .position(|e| matches!(e, TraceEvent::FactDerived { atom: a, .. } if a == atom))
    }

    /// Number of activations of components whose leaf name equals
    /// `component`.
    pub fn activation_count(&self, component: &Name) -> usize {
        self.events
            .iter()
            .filter(|e| {
                matches!(e, TraceEvent::Activated { path, .. } if path.leaf() == Some(component))
            })
            .count()
    }

    /// Renders the trace as one event per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, e) in self.events.iter().enumerate() {
            out.push_str(&format!("{i:4}  {e}\n"));
        }
        out
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(leaf: &str) -> ComponentPath {
        ComponentPath::root().child(leaf.into())
    }

    fn derived(leaf: &str, atom: &str) -> TraceEvent {
        TraceEvent::FactDerived {
            path: path(leaf),
            atom: Atom::parse(atom).unwrap(),
            value: TruthValue::True,
        }
    }

    #[test]
    fn push_and_query() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        t.push(derived("ua", "announce(17)"));
        t.push(derived("ca", "bid(0.2)"));
        t.push(TraceEvent::Activated {
            path: path("ua"),
            derived: 1,
        });
        assert_eq!(t.len(), 3);
        assert_eq!(
            t.first_derivation(&Atom::parse("bid(0.2)").unwrap()),
            Some(1)
        );
        assert_eq!(t.first_derivation(&Atom::prop("missing")), None);
    }

    #[test]
    fn activation_count() {
        let mut t = Trace::new();
        t.push(TraceEvent::Activated {
            path: path("ua"),
            derived: 0,
        });
        t.push(TraceEvent::Activated {
            path: path("ua"),
            derived: 2,
        });
        t.push(TraceEvent::Activated {
            path: path("ca"),
            derived: 1,
        });
        assert_eq!(t.activation_count(&"ua".into()), 2);
        assert_eq!(t.activation_count(&"zz".into()), 0);
    }

    #[test]
    fn render_contains_events() {
        let mut t = Trace::new();
        t.push(TraceEvent::LinkFired {
            path: path("sys"),
            link: "l1".into(),
            transferred: 3,
        });
        let text = t.to_string();
        assert!(text.contains("l1"));
        assert!(text.contains("→3"));
    }
}
