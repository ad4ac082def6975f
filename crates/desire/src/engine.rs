//! Three-valued forward-chaining inference engine.
//!
//! DESIRE's primitive reasoning components draw conclusions from their
//! input interface using a knowledge base. Facts are three-valued —
//! `true`, `false` or `unknown` — reflecting DESIRE's epistemic states
//! (an agent may not know yet whether a customer accepts a cut-down).
//!
//! Negative antecedents (`not p`) hold only when `p` is **known false**,
//! not merely unknown; this is the cautious semantics a negotiation agent
//! needs (absence of a bid is not a rejection).

use crate::ident::Name;
use crate::kb::{KnowledgeBase, Literal};
use crate::term::{unify_atoms, Atom, Substitution};
use std::collections::BTreeMap;
use std::fmt;

/// Epistemic truth value of a fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TruthValue {
    /// Known to hold.
    True,
    /// Known not to hold.
    False,
    /// Not (yet) known either way.
    #[default]
    Unknown,
}

impl TruthValue {
    /// The truth value asserted by a literal's polarity.
    fn of_polarity(positive: bool) -> TruthValue {
        if positive {
            TruthValue::True
        } else {
            TruthValue::False
        }
    }
}

impl fmt::Display for TruthValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TruthValue::True => "true",
            TruthValue::False => "false",
            TruthValue::Unknown => "unknown",
        };
        f.write_str(s)
    }
}

/// A set of ground facts with truth values, indexed by predicate.
///
/// Iteration order is deterministic (BTreeMaps throughout), which makes
/// whole-system runs reproducible.
///
/// # Example
///
/// ```
/// use desire::engine::{FactBase, TruthValue};
/// use desire::term::Atom;
///
/// let mut facts = FactBase::new();
/// facts.assert(Atom::parse("bid(c1, 0.4)").unwrap(), TruthValue::True);
/// assert_eq!(facts.truth(&Atom::parse("bid(c1, 0.4)").unwrap()), TruthValue::True);
/// assert_eq!(facts.truth(&Atom::parse("bid(c2, 0.4)").unwrap()), TruthValue::Unknown);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FactBase {
    by_predicate: BTreeMap<Name, BTreeMap<Atom, TruthValue>>,
}

impl FactBase {
    /// Creates an empty fact base.
    pub fn new() -> FactBase {
        FactBase::default()
    }

    /// Asserts a ground fact, overwriting any previous value. Returns the
    /// previous truth value.
    ///
    /// # Panics
    ///
    /// Panics if the atom is not ground — interfaces carry information,
    /// not queries.
    pub fn assert(&mut self, atom: Atom, value: TruthValue) -> TruthValue {
        assert!(atom.is_ground(), "cannot assert non-ground atom {atom}");
        self.by_predicate
            .entry(atom.predicate.clone())
            .or_default()
            .insert(atom, value)
            .unwrap_or(TruthValue::Unknown)
    }

    /// The truth value of an atom ([`TruthValue::Unknown`] if absent).
    pub fn truth(&self, atom: &Atom) -> TruthValue {
        self.by_predicate
            .get(&atom.predicate)
            .and_then(|m| m.get(atom).copied())
            .unwrap_or(TruthValue::Unknown)
    }

    /// True if the atom is known true.
    pub fn holds(&self, atom: &Atom) -> bool {
        self.truth(atom) == TruthValue::True
    }

    /// Number of stored facts (including known-false ones).
    pub fn len(&self) -> usize {
        self.by_predicate.values().map(BTreeMap::len).sum()
    }

    /// True if no facts are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all facts in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&Atom, TruthValue)> {
        self.by_predicate
            .values()
            .flat_map(|m| m.iter().map(|(a, &v)| (a, v)))
    }

    /// Iterates over facts with the given predicate.
    pub fn with_predicate<'a>(
        &'a self,
        predicate: &Name,
    ) -> impl Iterator<Item = (&'a Atom, TruthValue)> + 'a {
        self.by_predicate
            .get(predicate)
            .into_iter()
            .flat_map(|m| m.iter().map(|(a, &v)| (a, v)))
    }

    /// All substitutions under which `pattern` matches a stored fact with
    /// truth value `wanted`, extending `base`.
    fn matches(
        &self,
        pattern: &Atom,
        wanted: TruthValue,
        base: &Substitution,
    ) -> Vec<Substitution> {
        self.with_predicate(&pattern.predicate)
            .filter(|&(_, v)| v == wanted)
            .filter_map(|(fact, _)| unify_atoms(pattern, fact, base))
            .collect()
    }

    /// Copies every fact of `other` into `self` (later wins).
    pub fn absorb(&mut self, other: &FactBase) {
        for (atom, value) in other.iter() {
            self.assert(atom.clone(), value);
        }
    }
}

impl FromIterator<(Atom, TruthValue)> for FactBase {
    fn from_iter<I: IntoIterator<Item = (Atom, TruthValue)>>(iter: I) -> FactBase {
        let mut fb = FactBase::new();
        for (a, v) in iter {
            fb.assert(a, v);
        }
        fb
    }
}

/// Error produced during inference.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A rule fired with a non-ground consequent (unbound variable).
    NonGroundConsequent {
        /// The offending rule, rendered.
        rule: String,
        /// The offending consequent after substitution.
        consequent: String,
    },
    /// A derived fact contradicts an already known fact.
    Contradiction {
        /// The atom concerned.
        atom: String,
        /// The previously known value.
        known: TruthValue,
        /// The newly derived value.
        derived: TruthValue,
    },
    /// The fixpoint iteration limit was exceeded (runaway rule set).
    IterationLimit {
        /// The limit that was hit.
        limit: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NonGroundConsequent { rule, consequent } => {
                write!(
                    f,
                    "rule '{rule}' derived non-ground consequent '{consequent}'"
                )
            }
            EngineError::Contradiction {
                atom,
                known,
                derived,
            } => {
                write!(
                    f,
                    "contradiction on '{atom}': known {known}, derived {derived}"
                )
            }
            EngineError::IterationLimit { limit } => {
                write!(
                    f,
                    "inference did not reach a fixpoint within {limit} rounds"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Built-in comparison predicates, evaluated over ground numeric terms.
const BUILTINS: [&str; 6] = ["gt", "gte", "lt", "lte", "eq_num", "neq_num"];

fn is_builtin(name: &Name) -> bool {
    BUILTINS.contains(&name.as_str())
}

fn eval_builtin(atom: &Atom) -> Option<bool> {
    if atom.args.len() != 2 {
        return None;
    }
    let a = atom.args[0].as_number()?;
    let b = atom.args[1].as_number()?;
    let result = match atom.predicate.as_str() {
        "gt" => a > b,
        "gte" => a >= b,
        "lt" => a < b,
        "lte" => a <= b,
        "eq_num" => (a - b).abs() < 1e-9,
        "neq_num" => (a - b).abs() >= 1e-9,
        _ => return None,
    };
    Some(result)
}

/// Forward-chaining engine with a fixpoint iteration limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Engine {
    max_rounds: usize,
}

/// Statistics of one inference run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InferenceStats {
    /// Fixpoint rounds executed.
    pub rounds: usize,
    /// Facts newly derived (not counting re-derivations).
    pub derived: usize,
}

impl Engine {
    /// Creates an engine with the default round limit (1000).
    pub fn new() -> Engine {
        Engine { max_rounds: 1000 }
    }

    /// Sets the fixpoint round limit.
    ///
    /// # Panics
    ///
    /// Panics if `max_rounds` is zero.
    pub fn with_max_rounds(max_rounds: usize) -> Engine {
        assert!(max_rounds > 0, "round limit must be positive");
        Engine { max_rounds }
    }

    /// Runs `kb` to fixpoint over `facts`, asserting derived consequents
    /// in place.
    ///
    /// # Errors
    ///
    /// * [`EngineError::NonGroundConsequent`] if a consequent has unbound
    ///   variables when its rule fires;
    /// * [`EngineError::Contradiction`] if a derivation flips a known
    ///   truth value;
    /// * [`EngineError::IterationLimit`] if no fixpoint is reached.
    pub fn infer(
        &self,
        kb: &KnowledgeBase,
        facts: &mut FactBase,
    ) -> Result<InferenceStats, EngineError> {
        let mut stats = InferenceStats::default();
        for round in 0..=self.max_rounds {
            if round == self.max_rounds {
                return Err(EngineError::IterationLimit {
                    limit: self.max_rounds,
                });
            }
            let mut changed = false;
            for rule in kb.rules() {
                for subst in self.satisfy(&rule.antecedents, facts) {
                    for consequent in &rule.consequents {
                        let grounded = consequent.apply(&subst);
                        if !grounded.atom.is_ground() {
                            return Err(EngineError::NonGroundConsequent {
                                rule: rule.to_string(),
                                consequent: grounded.atom.to_string(),
                            });
                        }
                        let derived = TruthValue::of_polarity(grounded.positive);
                        match facts.truth(&grounded.atom) {
                            TruthValue::Unknown => {
                                facts.assert(grounded.atom, derived);
                                stats.derived += 1;
                                changed = true;
                            }
                            known if known == derived => {}
                            known => {
                                return Err(EngineError::Contradiction {
                                    atom: grounded.atom.to_string(),
                                    known,
                                    derived,
                                });
                            }
                        }
                    }
                }
            }
            stats.rounds = round + 1;
            if !changed {
                break;
            }
        }
        Ok(stats)
    }

    /// Enumerates substitutions satisfying all antecedents, in
    /// deterministic order.
    fn satisfy(&self, antecedents: &[Literal], facts: &FactBase) -> Vec<Substitution> {
        let mut candidates = vec![Substitution::new()];
        for literal in antecedents {
            let mut next = Vec::new();
            for subst in &candidates {
                let pattern = literal.atom.apply(subst);
                if is_builtin(&pattern.predicate) {
                    // Builtins filter bindings; they hold positively when
                    // the comparison is true, negatively when false.
                    if let Some(result) = eval_builtin(&pattern) {
                        if result == literal.positive {
                            next.push(subst.clone());
                        }
                    }
                    continue;
                }
                let wanted = TruthValue::of_polarity(literal.positive);
                if pattern.is_ground() {
                    if facts.truth(&pattern) == wanted {
                        next.push(subst.clone());
                    }
                } else {
                    next.extend(facts.matches(&pattern, wanted, subst));
                }
            }
            candidates = next;
            if candidates.is_empty() {
                break;
            }
        }
        candidates
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn infer(rules: &[&str], facts: &[(&str, TruthValue)]) -> FactBase {
        let kb = KnowledgeBase::new("test").with_rules(rules);
        let mut fb = FactBase::new();
        for (text, v) in facts {
            fb.assert(Atom::parse(text).unwrap(), *v);
        }
        Engine::new()
            .infer(&kb, &mut fb)
            .expect("inference should succeed");
        fb
    }

    #[test]
    fn propositional_chaining() {
        let fb = infer(&["a => b", "b => c"], &[("a", TruthValue::True)]);
        assert!(fb.holds(&Atom::prop("c")));
    }

    #[test]
    fn unknown_is_not_false() {
        // `not q` must NOT fire when q is merely unknown.
        let fb = infer(&["a and not q => r"], &[("a", TruthValue::True)]);
        assert_eq!(fb.truth(&Atom::prop("r")), TruthValue::Unknown);
        // ...but fires when q is known false.
        let fb2 = infer(
            &["a and not q => r"],
            &[("a", TruthValue::True), ("q", TruthValue::False)],
        );
        assert!(fb2.holds(&Atom::prop("r")));
    }

    #[test]
    fn variable_join() {
        let fb = infer(
            &["offered(C, R) and required(C, M) and gte(R, M) => acceptable(C)"],
            &[
                ("offered(c1, 17)", TruthValue::True),
                ("required(c1, 21)", TruthValue::True),
                ("offered(c2, 17)", TruthValue::True),
                ("required(c2, 10)", TruthValue::True),
            ],
        );
        assert!(!fb.holds(&Atom::parse("acceptable(c1)").unwrap()));
        assert!(fb.holds(&Atom::parse("acceptable(c2)").unwrap()));
    }

    #[test]
    fn builtins_all_work() {
        let cases = [
            ("gt(2, 1)", true),
            ("gt(1, 2)", false),
            ("gte(2, 2)", true),
            ("lt(1, 2)", true),
            ("lte(3, 2)", false),
            ("eq_num(2, 2)", true),
            ("neq_num(2, 3)", true),
        ];
        for (text, expected) in cases {
            let atom = Atom::parse(text).unwrap();
            assert_eq!(eval_builtin(&atom), Some(expected), "{text}");
        }
    }

    #[test]
    fn negated_builtin() {
        let fb = infer(
            &["v(X) and not gt(X, 10) => small(X)"],
            &[("v(3)", TruthValue::True), ("v(12)", TruthValue::True)],
        );
        assert!(fb.holds(&Atom::parse("small(3)").unwrap()));
        assert!(!fb.holds(&Atom::parse("small(12)").unwrap()));
    }

    #[test]
    fn negative_consequents_assert_false() {
        let fb = infer(&["a => not b"], &[("a", TruthValue::True)]);
        assert_eq!(fb.truth(&Atom::prop("b")), TruthValue::False);
    }

    #[test]
    fn contradiction_detected() {
        let kb = KnowledgeBase::new("t").with_rules(&["a => b", "a => not b"]);
        let mut fb = FactBase::new();
        fb.assert(Atom::prop("a"), TruthValue::True);
        let err = Engine::new().infer(&kb, &mut fb).unwrap_err();
        assert!(matches!(err, EngineError::Contradiction { .. }));
    }

    #[test]
    fn non_ground_consequent_rejected() {
        let kb = KnowledgeBase::new("t").with_rules(&["a => q(X)"]);
        let mut fb = FactBase::new();
        fb.assert(Atom::prop("a"), TruthValue::True);
        let err = Engine::new().infer(&kb, &mut fb).unwrap_err();
        assert!(matches!(err, EngineError::NonGroundConsequent { .. }));
    }

    #[test]
    fn fixpoint_terminates_and_counts() {
        let kb = KnowledgeBase::new("t").with_rules(&["a => b", "b => c", "c => d"]);
        let mut fb = FactBase::new();
        fb.assert(Atom::prop("a"), TruthValue::True);
        let stats = Engine::new().infer(&kb, &mut fb).unwrap();
        assert_eq!(stats.derived, 3);
        assert!(stats.rounds >= 2);
    }

    #[test]
    fn rederivation_is_stable() {
        let kb = KnowledgeBase::new("t").with_rules(&["a => b", "b => a"]);
        let mut fb = FactBase::new();
        fb.assert(Atom::prop("a"), TruthValue::True);
        let stats = Engine::new().infer(&kb, &mut fb).unwrap();
        assert_eq!(stats.derived, 1);
    }

    #[test]
    fn factbase_matches_and_absorb() {
        let mut a = FactBase::new();
        a.assert(Atom::parse("bid(c1, 0.2)").unwrap(), TruthValue::True);
        a.assert(Atom::parse("bid(c2, 0.4)").unwrap(), TruthValue::True);
        a.assert(Atom::parse("bid(c3, 0.4)").unwrap(), TruthValue::False);
        let pattern = Atom::parse("bid(C, F)").unwrap();
        let hits = a.matches(&pattern, TruthValue::True, &Substitution::new());
        assert_eq!(hits.len(), 2);

        let mut b = FactBase::new();
        b.absorb(&a);
        assert_eq!(b.len(), 3);
    }

    #[test]
    #[should_panic(expected = "non-ground")]
    fn asserting_pattern_panics() {
        let mut fb = FactBase::new();
        fb.assert(Atom::parse("bid(C, 0.2)").unwrap(), TruthValue::True);
    }

    #[test]
    fn iteration_limit_enforced() {
        // counter(N) and builtin-free growth is impossible in this rule
        // language without function symbols in heads; simulate runaway by
        // a tiny limit and a 2-step chain.
        let kb = KnowledgeBase::new("t").with_rules(&["a => b", "b => c"]);
        let mut fb = FactBase::new();
        fb.assert(Atom::prop("a"), TruthValue::True);
        let err = Engine::with_max_rounds(1).infer(&kb, &mut fb);
        assert!(matches!(err, Err(EngineError::IterationLimit { limit: 1 })));
    }

    #[test]
    fn from_iterator_builds_factbase() {
        let fb: FactBase = vec![
            (Atom::prop("x"), TruthValue::True),
            (Atom::prop("y"), TruthValue::False),
        ]
        .into_iter()
        .collect();
        assert_eq!(fb.len(), 2);
    }
}
