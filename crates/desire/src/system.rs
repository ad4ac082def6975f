//! The execution kernel: drives composed components to quiescence.
//!
//! This is the Rust equivalent of DESIRE's "implementation generator"
//! output: given a fully specified design (components + links + task
//! control), the kernel executes it. One *macro-round* of a composed
//! component fires all links, activates the scheduled children, and fires
//! all links again; rounds repeat until no interface changes.

use crate::component::{Body, Component, Interface};
use crate::engine::{Engine, EngineError, FactBase};
use crate::ident::{ComponentPath, Name};
use crate::link::{Endpoint, InfoLink};
use crate::trace::{Trace, TraceEvent};
use std::fmt;

/// Error from running a system.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemError {
    /// A reasoning component failed.
    Engine {
        /// Path of the failing component.
        path: ComponentPath,
        /// The underlying engine error.
        source: EngineError,
    },
    /// A composed component did not reach quiescence within its
    /// task-control round limit.
    NonQuiescent {
        /// Path of the component.
        path: ComponentPath,
        /// The round limit that was exhausted.
        rounds: usize,
    },
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::Engine { path, source } => {
                write!(f, "engine error in {path}: {source}")
            }
            SystemError::NonQuiescent { path, rounds } => {
                write!(
                    f,
                    "component {path} still active after {rounds} macro-rounds"
                )
            }
        }
    }
}

impl std::error::Error for SystemError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SystemError::Engine { source, .. } => Some(source),
            SystemError::NonQuiescent { .. } => None,
        }
    }
}

/// Activates `component` at `path`, recording into `trace`. Returns the
/// number of facts that newly appeared on interfaces of the component
/// (and, recursively, its children).
///
/// # Errors
///
/// Returns [`SystemError`] on engine failures or non-quiescence.
pub(crate) fn activate_at(
    component: &mut Component,
    engine: &Engine,
    trace: &mut Trace,
    path: &ComponentPath,
) -> Result<usize, SystemError> {
    // Split borrows: we need the body and both interfaces independently.
    let name = component.name().clone();
    let child_path = path.child(name);
    match component_parts(component) {
        Parts::Reasoning { kb, input, output } => {
            let mut working = output.facts().clone();
            working.absorb(input.facts());
            let before = working.clone();
            let kb = kb.clone();
            engine
                .infer(&kb, &mut working)
                .map_err(|source| SystemError::Engine {
                    path: child_path.clone(),
                    source,
                })?;
            let mut derived = 0;
            for (atom, value) in working.iter() {
                if before.truth(atom) != value {
                    trace.push(TraceEvent::FactDerived {
                        path: child_path.clone(),
                        atom: atom.clone(),
                        value,
                    });
                    derived += 1;
                }
            }
            *output.facts_mut() = working;
            trace.push(TraceEvent::Activated {
                path: child_path,
                derived,
            });
            Ok(derived)
        }
        Parts::Calculation {
            calc,
            input,
            output,
        } => {
            let results = calc.compute(input.facts());
            let mut derived = 0;
            for (atom, value) in results {
                if output.facts().truth(&atom) != value {
                    trace.push(TraceEvent::FactDerived {
                        path: child_path.clone(),
                        atom: atom.clone(),
                        value,
                    });
                    output.facts_mut().assert(atom, value);
                    derived += 1;
                }
            }
            trace.push(TraceEvent::Activated {
                path: child_path,
                derived,
            });
            Ok(derived)
        }
        Parts::Composed {
            composition,
            input,
            output,
        } => {
            let max_rounds = composition.task_control.max_rounds();
            let schedule: Vec<Name> = composition
                .children
                .iter()
                .map(|c| c.name().clone())
                .collect();
            let mut total_changed = 0;
            let mut quiescent = false;
            for _round in 0..max_rounds {
                let mut changed = 0;
                changed += fire_links(
                    &composition.links,
                    &mut composition.children,
                    input,
                    output,
                    trace,
                    &child_path,
                );
                for child_name in &schedule {
                    if let Some(condition) = composition.task_control.condition_for(child_name) {
                        if !input.holds(condition) {
                            continue;
                        }
                    }
                    let child = composition
                        .children
                        .iter_mut()
                        .find(|c| c.name() == child_name)
                        .expect("scheduled child exists");
                    changed += activate_at(child, engine, trace, &child_path)?;
                }
                changed += fire_links(
                    &composition.links,
                    &mut composition.children,
                    input,
                    output,
                    trace,
                    &child_path,
                );
                total_changed += changed;
                if changed == 0 {
                    quiescent = true;
                    break;
                }
            }
            if !quiescent {
                return Err(SystemError::NonQuiescent {
                    path: child_path,
                    rounds: max_rounds,
                });
            }
            trace.push(TraceEvent::Activated {
                path: child_path,
                derived: total_changed,
            });
            Ok(total_changed)
        }
    }
}

/// Borrow-splitting view of a component.
enum Parts<'a> {
    Reasoning {
        kb: &'a crate::kb::KnowledgeBase,
        input: &'a Interface,
        output: &'a mut Interface,
    },
    Calculation {
        calc: &'a mut dyn crate::component::Calculation,
        input: &'a Interface,
        output: &'a mut Interface,
    },
    Composed {
        composition: &'a mut crate::component::Composition,
        input: &'a mut Interface,
        output: &'a mut Interface,
    },
}

fn component_parts(component: &mut Component) -> Parts<'_> {
    // Component exposes only interface accessors publicly; the kernel
    // needs simultaneous borrows, provided by this crate-private splitter.
    let (input, output, body) = component.split_fields();
    match body {
        Body::Reasoning(kb) => Parts::Reasoning { kb, input, output },
        Body::Calculation(calc) => Parts::Calculation {
            calc: calc.as_mut(),
            input,
            output,
        },
        Body::Composed(composition) => Parts::Composed {
            composition,
            input,
            output,
        },
    }
}

fn fire_links(
    links: &[InfoLink],
    children: &mut [Component],
    parent_input: &mut Interface,
    parent_output: &mut Interface,
    trace: &mut Trace,
    path: &ComponentPath,
) -> usize {
    let mut total = 0;
    for link in links {
        // Snapshot the source fact base (cheap: BTreeMap clone), then
        // write into the destination — avoids aliasing borrows.
        let source: FactBase = match link.from() {
            Endpoint::ParentInput => parent_input.facts().clone(),
            Endpoint::ParentOutput => unreachable!("forbidden by InfoLink::new"),
            Endpoint::ChildInput(n) => match find_child(children, n) {
                Some(c) => c.input().facts().clone(),
                None => continue,
            },
            Endpoint::ChildOutput(n) => match find_child(children, n) {
                Some(c) => c.output().facts().clone(),
                None => continue,
            },
        };
        let destination: &mut FactBase = match link.to() {
            Endpoint::ParentInput => unreachable!("forbidden by InfoLink::new"),
            Endpoint::ParentOutput => parent_output.facts_mut(),
            Endpoint::ChildInput(n) => match find_child_mut(children, n) {
                Some(c) => c.input_mut().facts_mut(),
                None => continue,
            },
            Endpoint::ChildOutput(n) => match find_child_mut(children, n) {
                Some(c) => c.output_mut().facts_mut(),
                None => continue,
            },
        };
        let transferred = link.transfer(&source, destination);
        if transferred > 0 {
            trace.push(TraceEvent::LinkFired {
                path: path.clone(),
                link: link.name().clone(),
                transferred,
            });
            total += transferred;
        }
    }
    total
}

fn find_child<'a>(children: &'a [Component], name: &Name) -> Option<&'a Component> {
    children.iter().find(|c| c.name() == name)
}

fn find_child_mut<'a>(children: &'a mut [Component], name: &Name) -> Option<&'a mut Component> {
    children.iter_mut().find(|c| c.name() == name)
}

/// A complete runnable DESIRE system: a root component plus an engine and
/// a trace.
///
/// # Example
///
/// ```
/// use desire::prelude::*;
///
/// let kb = KnowledgeBase::new("k")
///     .with_rule(Rule::parse("ping => pong").unwrap());
/// let mut root = Component::primitive("echo", kb);
/// root.input_mut().assert(Atom::prop("ping"), TruthValue::True);
/// let mut system = System::new(root);
/// system.run().unwrap();
/// assert!(system.root().output().holds(&Atom::prop("pong")));
/// ```
#[derive(Debug)]
pub struct System {
    root: Component,
    engine: Engine,
    trace: Trace,
}

impl System {
    /// Creates a system with the default engine.
    pub fn new(root: Component) -> System {
        System {
            root,
            engine: Engine::new(),
            trace: Trace::new(),
        }
    }

    /// The root component.
    pub fn root(&self) -> &Component {
        &self.root
    }

    /// Mutable root component (e.g. to feed input facts between runs).
    pub fn root_mut(&mut self) -> &mut Component {
        &mut self.root
    }

    /// The accumulated execution trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Runs the root component to quiescence.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] on engine failure or non-quiescence.
    pub fn run(&mut self) -> Result<usize, SystemError> {
        activate_at(
            &mut self.root,
            &self.engine,
            &mut self.trace,
            &ComponentPath::root(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TruthValue;
    use crate::kb::KnowledgeBase;
    use crate::task_control::TaskControl;
    use crate::term::Atom;

    fn reasoning(name: &str, rules: &[&str]) -> Component {
        Component::primitive(name, KnowledgeBase::new(name).with_rules(rules))
    }

    #[test]
    fn pipeline_of_two_children() {
        // parent.input --> a.input; a.output --> b.input; b.output --> parent.output
        let a = reasoning("a", &["x => y"]);
        let b = reasoning("b", &["y => z"]);
        let links = vec![
            InfoLink::identity(
                "in_a",
                Endpoint::ParentInput,
                Endpoint::ChildInput("a".into()),
            ),
            InfoLink::identity(
                "a_b",
                Endpoint::ChildOutput("a".into()),
                Endpoint::ChildInput("b".into()),
            ),
            InfoLink::identity(
                "b_out",
                Endpoint::ChildOutput("b".into()),
                Endpoint::ParentOutput,
            ),
        ];
        let root = Component::composed("pipe", vec![a, b], links, TaskControl::new());
        let mut system = System::new(root);
        system
            .root_mut()
            .input_mut()
            .assert(Atom::prop("x"), TruthValue::True);
        system.run().unwrap();
        assert!(system.root().output().holds(&Atom::prop("z")));
    }

    #[test]
    fn mapped_links_translate_vocabulary() {
        let speaker = reasoning("speaker", &["greet => said(hello)"]);
        let listener = reasoning("listener", &["heard(hello) => reply(hi)"]);
        let links = vec![
            InfoLink::identity(
                "in",
                Endpoint::ParentInput,
                Endpoint::ChildInput("speaker".into()),
            ),
            InfoLink::new(
                "voice",
                Endpoint::ChildOutput("speaker".into()),
                Endpoint::ChildInput("listener".into()),
            )
            .with_mapping("said", "heard"),
            InfoLink::identity(
                "out",
                Endpoint::ChildOutput("listener".into()),
                Endpoint::ParentOutput,
            ),
        ];
        let root = Component::composed("conv", vec![speaker, listener], links, TaskControl::new());
        let mut system = System::new(root);
        system
            .root_mut()
            .input_mut()
            .assert(Atom::prop("greet"), TruthValue::True);
        system.run().unwrap();
        assert!(system
            .root()
            .output()
            .holds(&Atom::parse("reply(hi)").unwrap()));
    }

    #[test]
    fn conditions_gate_children() {
        let worker = reasoning("worker", &["go => done"]);
        let links = vec![
            InfoLink::identity(
                "in",
                Endpoint::ParentInput,
                Endpoint::ChildInput("worker".into()),
            ),
            InfoLink::identity(
                "out",
                Endpoint::ChildOutput("worker".into()),
                Endpoint::ParentOutput,
            ),
        ];
        let tc = TaskControl::new().with_condition("worker", Atom::prop("enabled"));
        let root = Component::composed("sys", vec![worker], links, tc);
        let mut system = System::new(root);
        system
            .root_mut()
            .input_mut()
            .assert(Atom::prop("go"), TruthValue::True);
        system.run().unwrap();
        // Gate closed: worker never ran.
        assert_eq!(
            system.root().output().truth(&Atom::prop("done")),
            TruthValue::Unknown
        );

        // Open the gate and re-run.
        system
            .root_mut()
            .input_mut()
            .assert(Atom::prop("enabled"), TruthValue::True);
        system.run().unwrap();
        assert!(system.root().output().holds(&Atom::prop("done")));
    }

    #[test]
    fn nested_composition() {
        let inner_child = reasoning("leaf", &["a => b"]);
        let inner = Component::composed(
            "inner",
            vec![inner_child],
            vec![
                InfoLink::identity(
                    "in",
                    Endpoint::ParentInput,
                    Endpoint::ChildInput("leaf".into()),
                ),
                InfoLink::identity(
                    "out",
                    Endpoint::ChildOutput("leaf".into()),
                    Endpoint::ParentOutput,
                ),
            ],
            TaskControl::new(),
        );
        let outer = Component::composed(
            "outer",
            vec![inner],
            vec![
                InfoLink::identity(
                    "in",
                    Endpoint::ParentInput,
                    Endpoint::ChildInput("inner".into()),
                ),
                InfoLink::identity(
                    "out",
                    Endpoint::ChildOutput("inner".into()),
                    Endpoint::ParentOutput,
                ),
            ],
            TaskControl::new(),
        );
        let mut system = System::new(outer);
        system
            .root_mut()
            .input_mut()
            .assert(Atom::prop("a"), TruthValue::True);
        system.run().unwrap();
        assert!(system.root().output().holds(&Atom::prop("b")));
    }

    #[test]
    fn trace_records_activations_and_links() {
        let a = reasoning("a", &["x => y"]);
        let links = vec![
            InfoLink::identity(
                "in",
                Endpoint::ParentInput,
                Endpoint::ChildInput("a".into()),
            ),
            InfoLink::identity(
                "out",
                Endpoint::ChildOutput("a".into()),
                Endpoint::ParentOutput,
            ),
        ];
        let root = Component::composed("sys", vec![a], links, TaskControl::new());
        let mut system = System::new(root);
        system
            .root_mut()
            .input_mut()
            .assert(Atom::prop("x"), TruthValue::True);
        system.run().unwrap();
        let trace = system.trace();
        assert!(trace.activation_count(&"a".into()) >= 1);
        assert!(trace.first_derivation(&Atom::prop("y")).is_some());
    }

    #[test]
    fn rerun_is_quiescent() {
        let a = reasoning("a", &["x => y"]);
        let links = vec![InfoLink::identity(
            "in",
            Endpoint::ParentInput,
            Endpoint::ChildInput("a".into()),
        )];
        let root = Component::composed("sys", vec![a], links, TaskControl::new());
        let mut system = System::new(root);
        system
            .root_mut()
            .input_mut()
            .assert(Atom::prop("x"), TruthValue::True);
        let first = system.run().unwrap();
        let second = system.run().unwrap();
        assert!(first > 0);
        assert_eq!(second, 0);
    }

    #[test]
    fn engine_error_carries_path() {
        let bad = reasoning("bad", &["a => q(X)"]);
        let links = vec![InfoLink::identity(
            "in",
            Endpoint::ParentInput,
            Endpoint::ChildInput("bad".into()),
        )];
        let root = Component::composed("sys", vec![bad], links, TaskControl::new());
        let mut system = System::new(root);
        system
            .root_mut()
            .input_mut()
            .assert(Atom::prop("a"), TruthValue::True);
        let err = system.run().unwrap_err();
        match err {
            SystemError::Engine { path, .. } => {
                assert!(path.to_string().contains("bad"));
            }
            other => panic!("expected engine error, got {other}"),
        }
    }
}
