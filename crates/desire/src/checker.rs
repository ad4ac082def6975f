//! Static design checking — the design-time half of DESIRE's
//! verification story.
//!
//! Before a composed system runs, [`check_design`] walks the component
//! tree and reports modelling problems: ill-formed names, duplicate link
//! names, children unreachable by any link, rules whose consequents
//! contain variables no positive antecedent can bind (guaranteed
//! [`crate::engine::EngineError::NonGroundConsequent`] at run time), and
//! rules that can never fire because nothing in the component's
//! composition produces their antecedent predicates.

use crate::component::{Body, Component};
use crate::ident::{ComponentPath, Name};
use crate::kb::KnowledgeBase;
use crate::link::Endpoint;
use std::collections::BTreeSet;
use std::fmt;

/// Severity of a design issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but runnable.
    Warning,
    /// Will fail (or silently do nothing) at run time.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding of the design checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignIssue {
    /// How bad it is.
    pub severity: Severity,
    /// Where it was found.
    pub path: ComponentPath,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for DesignIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}: {}", self.severity, self.path, self.message)
    }
}

/// Checks a component design, returning all issues found (empty = clean).
pub fn check_design(component: &Component) -> Vec<DesignIssue> {
    let mut issues = Vec::new();
    walk(component, &ComponentPath::root(), &mut issues);
    issues.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.path.cmp(&b.path))
    });
    issues
}

fn walk(component: &Component, parent: &ComponentPath, issues: &mut Vec<DesignIssue>) {
    let path = parent.child(component.name().clone());
    if !component.name().is_well_formed() {
        issues.push(DesignIssue {
            severity: Severity::Warning,
            path: path.clone(),
            message: format!(
                "component name '{}' is not a well-formed identifier",
                component.name()
            ),
        });
    }
    match component.body() {
        Body::Reasoning(kb) => check_kb(kb, &path, issues),
        Body::Calculation(_) => {}
        Body::Composed(composition) => {
            // Duplicate link names.
            let mut seen = BTreeSet::new();
            for link in &composition.links {
                if !seen.insert(link.name().clone()) {
                    issues.push(DesignIssue {
                        severity: Severity::Warning,
                        path: path.clone(),
                        message: format!("duplicate link name '{}'", link.name()),
                    });
                }
            }
            // Children never touched by any link (isolated processes) —
            // only meaningful when the composition uses links at all.
            if !composition.links.is_empty() {
                let mut linked: BTreeSet<&Name> = BTreeSet::new();
                for link in &composition.links {
                    for endpoint in [link.from(), link.to()] {
                        if let Endpoint::ChildInput(n) | Endpoint::ChildOutput(n) = endpoint {
                            linked.insert(n);
                        }
                    }
                }
                for child in &composition.children {
                    if !linked.contains(child.name()) {
                        issues.push(DesignIssue {
                            severity: Severity::Warning,
                            path: path.clone(),
                            message: format!(
                                "child '{}' is not connected by any information link",
                                child.name()
                            ),
                        });
                    }
                }
            }
            for child in &composition.children {
                walk(child, &path, issues);
            }
        }
    }
}

fn check_kb(kb: &KnowledgeBase, path: &ComponentPath, issues: &mut Vec<DesignIssue>) {
    // Predicates produced inside this KB (rule heads).
    let mut produced: BTreeSet<Name> = BTreeSet::new();
    for rule in kb.rules() {
        for lit in &rule.consequents {
            produced.insert(lit.atom.predicate.clone());
        }
    }
    for (i, rule) in kb.rules().iter().enumerate() {
        let unbound = rule.unbound_head_variables();
        if !unbound.is_empty() {
            let vars: Vec<String> = unbound.iter().map(Name::to_string).collect();
            issues.push(DesignIssue {
                severity: Severity::Error,
                path: path.clone(),
                message: format!(
                    "rule {} ('{}') has head variables {} no positive antecedent binds",
                    i + 1,
                    rule,
                    vars.join(", ")
                ),
            });
        }
        // A rule whose antecedents are only ever satisfiable if some other
        // rule in the same KB produces them, or input provides them; we
        // can only check intra-KB circularity conservatively: warn when a
        // rule consumes a predicate that the same KB also produces *only*
        // via itself (direct self-dependency).
        for lit in &rule.antecedents {
            if rule
                .consequents
                .iter()
                .any(|c| c.atom.predicate == lit.atom.predicate)
                && !kb.rules().iter().enumerate().any(|(j, other)| {
                    j != i
                        && other
                            .consequents
                            .iter()
                            .any(|c| c.atom.predicate == lit.atom.predicate)
                })
            {
                issues.push(DesignIssue {
                    severity: Severity::Warning,
                    path: path.clone(),
                    message: format!(
                        "rule {} ('{}') both consumes and produces '{}' with no other producer — \
                         it can only re-derive its own conclusions",
                        i + 1,
                        rule,
                        lit.atom.predicate
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kb::KnowledgeBase;
    use crate::link::InfoLink;
    use crate::task_control::TaskControl;

    fn reasoning(name: &str, rules: &[&str]) -> Component {
        Component::primitive(name, KnowledgeBase::new(name).with_rules(rules))
    }

    #[test]
    fn clean_design_has_no_issues() {
        let a = reasoning("a", &["x => y"]);
        let b = reasoning("b", &["y => z"]);
        let links = vec![
            InfoLink::identity(
                "in",
                Endpoint::ParentInput,
                Endpoint::ChildInput("a".into()),
            ),
            InfoLink::identity(
                "mid",
                Endpoint::ChildOutput("a".into()),
                Endpoint::ChildInput("b".into()),
            ),
            InfoLink::identity(
                "out",
                Endpoint::ChildOutput("b".into()),
                Endpoint::ParentOutput,
            ),
        ];
        let root = Component::composed("sys", vec![a, b], links, TaskControl::new());
        assert!(check_design(&root).is_empty());
    }

    #[test]
    fn unbound_head_variable_is_an_error() {
        let bad = reasoning("bad", &["p(X) => q(X, Y)"]);
        let issues = check_design(&bad);
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].severity, Severity::Error);
        assert!(issues[0].message.contains('Y'));
    }

    #[test]
    fn unlinked_child_is_a_warning() {
        let a = reasoning("a", &["x => y"]);
        let orphan = reasoning("orphan", &["p => q"]);
        let links = vec![InfoLink::identity(
            "in",
            Endpoint::ParentInput,
            Endpoint::ChildInput("a".into()),
        )];
        let root = Component::composed("sys", vec![a, orphan], links, TaskControl::new());
        let issues = check_design(&root);
        assert!(issues
            .iter()
            .any(|i| i.severity == Severity::Warning && i.message.contains("orphan")));
    }

    #[test]
    fn linkless_composition_is_not_flagged() {
        // Pure structural trees (the Figures 2–5 renderings) carry no
        // links and should not produce isolation warnings.
        let root = Component::composed(
            "tree",
            vec![reasoning("a", &[]), reasoning("b", &[])],
            vec![],
            TaskControl::new(),
        );
        assert!(check_design(&root).is_empty());
    }

    #[test]
    fn duplicate_link_names_warned() {
        let a = reasoning("a", &[]);
        let b = reasoning("b", &[]);
        let links = vec![
            InfoLink::identity("l", Endpoint::ParentInput, Endpoint::ChildInput("a".into())),
            InfoLink::identity("l", Endpoint::ParentInput, Endpoint::ChildInput("b".into())),
        ];
        let root = Component::composed("sys", vec![a, b], links, TaskControl::new());
        let issues = check_design(&root);
        assert!(issues.iter().any(|i| i.message.contains("duplicate link")));
    }

    #[test]
    fn self_feeding_rule_warned() {
        let kb = reasoning("loop", &["p(X) and q(X) => p(X)"]);
        let issues = check_design(&kb);
        assert!(issues
            .iter()
            .any(|i| i.severity == Severity::Warning && i.message.contains("re-derive")));
    }

    #[test]
    fn self_feeding_with_other_producer_is_fine() {
        let kb = reasoning("chain", &["seed => p(0)", "p(X) and q(X) => p(X)"]);
        let issues = check_design(&kb);
        // `p` has another producer, so the second rule is legitimate
        // (though the checker still flags nothing here).
        assert!(issues.iter().all(|i| !i.message.contains("re-derive")));
    }

    #[test]
    fn issues_sorted_errors_first() {
        let bad_rule = reasoning("bad", &["p(X) => q(Y)"]);
        let orphan = reasoning("orphan", &[]);
        let linked = reasoning("ok", &[]);
        let links = vec![InfoLink::identity(
            "in",
            Endpoint::ParentInput,
            Endpoint::ChildInput("ok".into()),
        )];
        let root = Component::composed(
            "sys",
            vec![bad_rule, orphan, linked],
            links,
            TaskControl::new(),
        );
        let issues = check_design(&root);
        assert!(issues.len() >= 2);
        assert_eq!(issues[0].severity, Severity::Error);
        assert!(issues[0].to_string().contains("error"));
    }

    #[test]
    fn paper_trees_are_clean() {
        // Quick self-application: a nested structural tree checks clean.
        let inner = Component::composed(
            "determine_general_negotiation_strategy",
            vec![reasoning("determine_announcement_method", &[])],
            vec![],
            TaskControl::new(),
        );
        let root = Component::composed(
            "own_process_control",
            vec![inner],
            vec![],
            TaskControl::new(),
        );
        assert!(check_design(&root).is_empty());
    }
}
