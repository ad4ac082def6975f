//! Knowledge bases: rules over atoms.
//!
//! "A knowledge base defines a part of the knowledge that is used in one
//! or more of the processes. Knowledge is represented by formulae in
//! order-sorted predicate logic, which can be normalised by a standard
//! transformation into rules" (Section 4.2.1). This module holds the
//! normalised rule form; [`crate::engine`] executes it.

use crate::ident::Name;
use crate::term::{Atom, ParseError, Parser, Substitution};
use std::fmt;

/// A possibly negated atom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Literal {
    /// The atom.
    pub atom: Atom,
    /// `true` for a positive literal, `false` for `not atom`.
    pub positive: bool,
}

impl Literal {
    /// Creates a positive literal.
    pub fn pos(atom: Atom) -> Literal {
        Literal {
            atom,
            positive: true,
        }
    }

    /// Creates a negative literal.
    fn neg(atom: Atom) -> Literal {
        Literal {
            atom,
            positive: false,
        }
    }

    /// Applies a substitution to the underlying atom.
    pub fn apply(&self, subst: &Substitution) -> Literal {
        Literal {
            atom: self.atom.apply(subst),
            positive: self.positive,
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.positive {
            write!(f, "{}", self.atom)
        } else {
            write!(f, "not {}", self.atom)
        }
    }
}

/// A rule `a₁ and … and aₙ => c₁ and … and cₘ`.
///
/// Antecedents may be negated (`not p(X)`: `p(X)` is *known false*) and
/// may use the built-in comparison predicates of the engine (`gt`, `gte`,
/// `lt`, `lte`, `eq_num`, `neq_num`). Consequents may be negated, in which
/// case the engine asserts the atom as false.
///
/// # Example
///
/// ```
/// use desire::kb::Rule;
///
/// let r = Rule::parse(
///     "offered(C, R) and required(C, M) and gte(R, M) => acceptable(C)"
/// ).unwrap();
/// assert_eq!(r.antecedents.len(), 3);
/// assert_eq!(r.consequents.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Conjunctive body.
    pub antecedents: Vec<Literal>,
    /// Conjunctive head.
    pub consequents: Vec<Literal>,
}

impl Rule {
    /// Creates a rule from literal lists.
    ///
    /// # Panics
    ///
    /// Panics if the head is empty (a rule must conclude something).
    pub fn new(antecedents: Vec<Literal>, consequents: Vec<Literal>) -> Rule {
        assert!(
            !consequents.is_empty(),
            "a rule must have at least one consequent"
        );
        Rule {
            antecedents,
            consequents,
        }
    }

    /// Parses `lit and lit and ... => lit and lit`. An empty body
    /// (`=> p`) is a fact.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on malformed input.
    pub fn parse(input: &str) -> Result<Rule, ParseError> {
        let mut parser = Parser::new(input);
        let mut antecedents = Vec::new();
        if !parser.eat_str("=>") {
            loop {
                antecedents.push(parse_literal(&mut parser)?);
                if parser.eat_str("=>") {
                    break;
                }
                if !parser.eat_str("and") {
                    return Err(parser.error("expected 'and' or '=>'"));
                }
            }
        }
        let mut consequents = Vec::new();
        loop {
            consequents.push(parse_literal(&mut parser)?);
            if parser.at_end() {
                break;
            }
            if !parser.eat_str("and") {
                return Err(parser.error("expected 'and' or end of rule"));
            }
        }
        parser.expect_end()?;
        Ok(Rule {
            antecedents,
            consequents,
        })
    }

    /// All variables occurring in the consequents but not in any positive
    /// antecedent — these would be unbound at derivation time.
    pub fn unbound_head_variables(&self) -> Vec<Name> {
        let mut bound = Vec::new();
        for lit in self.antecedents.iter().filter(|l| l.positive) {
            for v in lit.atom.variables() {
                if !bound.contains(&v) {
                    bound.push(v);
                }
            }
        }
        let mut unbound = Vec::new();
        for lit in &self.consequents {
            for v in lit.atom.variables() {
                if !bound.contains(&v) && !unbound.contains(&v) {
                    unbound.push(v);
                }
            }
        }
        unbound
    }
}

fn parse_literal(parser: &mut Parser<'_>) -> Result<Literal, ParseError> {
    if parser.eat_str("not ") {
        Ok(Literal::neg(parser.atom()?))
    } else {
        Ok(Literal::pos(parser.atom()?))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.antecedents.iter().enumerate() {
            if i > 0 {
                write!(f, " and ")?;
            }
            write!(f, "{a}")?;
        }
        if !self.antecedents.is_empty() {
            write!(f, " ")?;
        }
        write!(f, "=> ")?;
        for (i, c) in self.consequents.iter().enumerate() {
            if i > 0 {
                write!(f, " and ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// A named collection of rules.
///
/// # Example
///
/// ```
/// use desire::kb::{KnowledgeBase, Rule};
///
/// let kb = KnowledgeBase::new("ca_decide")
///     .with_rule(Rule::parse("acceptable(F) => consider(F)").unwrap());
/// assert_eq!(kb.rules().len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KnowledgeBase {
    name: Name,
    rules: Vec<Rule>,
}

impl KnowledgeBase {
    /// Creates an empty knowledge base.
    pub fn new(name: impl Into<Name>) -> KnowledgeBase {
        KnowledgeBase {
            name: name.into(),
            rules: Vec::new(),
        }
    }

    /// The knowledge base's name.
    pub fn name(&self) -> &Name {
        &self.name
    }

    /// Adds a rule (builder style).
    pub fn with_rule(mut self, rule: Rule) -> KnowledgeBase {
        self.rules.push(rule);
        self
    }

    /// Adds several parsed rules (builder style).
    ///
    /// # Panics
    ///
    /// Panics if any rule text fails to parse — intended for rule sets
    /// written as string literals in agent definitions.
    pub fn with_rules(mut self, rules: &[&str]) -> KnowledgeBase {
        for text in rules {
            let rule = Rule::parse(text).unwrap_or_else(|e| panic!("invalid rule '{text}': {e}"));
            self.rules.push(rule);
        }
        self
    }

    /// Adds a rule in place.
    pub fn push(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// The rules, in declaration order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// True if no rules are present.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_rule() {
        let r = Rule::parse("a => b").unwrap();
        assert_eq!(r.antecedents.len(), 1);
        assert_eq!(r.consequents.len(), 1);
        assert!(r.antecedents[0].positive);
    }

    #[test]
    fn parse_negation_and_conjunction() {
        let r = Rule::parse("p(X) and not q(X) => r(X) and not s(X)").unwrap();
        assert!(r.antecedents[0].positive);
        assert!(!r.antecedents[1].positive);
        assert!(r.consequents[0].positive);
        assert!(!r.consequents[1].positive);
    }

    #[test]
    fn parse_fact_rule() {
        let r = Rule::parse("=> ready").unwrap();
        assert!(r.antecedents.is_empty());
        assert_eq!(r.consequents[0].atom, Atom::prop("ready"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Rule::parse("a =>").is_err());
        assert!(Rule::parse("a b => c").is_err());
        assert!(Rule::parse("").is_err());
        assert!(Rule::parse("a => b extra").is_err());
    }

    #[test]
    fn display_roundtrip() {
        for text in [
            "a => b",
            "p(X) and not q(X) => r(X)",
            "offered(C, R) and gte(R, 10) => ok(C)",
        ] {
            let r = Rule::parse(text).unwrap();
            assert_eq!(Rule::parse(&r.to_string()).unwrap(), r);
        }
    }

    #[test]
    fn unbound_head_variables_detected() {
        let r = Rule::parse("p(X) => q(X, Y)").unwrap();
        assert_eq!(r.unbound_head_variables(), vec![Name::from("Y")]);
        let ok = Rule::parse("p(X) and r(Y) => q(X, Y)").unwrap();
        assert!(ok.unbound_head_variables().is_empty());
        // Negative antecedents do not bind.
        let neg = Rule::parse("not p(X) => q(X)").unwrap();
        assert_eq!(neg.unbound_head_variables(), vec![Name::from("X")]);
    }

    #[test]
    #[should_panic(expected = "at least one consequent")]
    fn empty_head_panics() {
        let _ = Rule::new(vec![], vec![]);
    }

    #[test]
    #[should_panic(expected = "invalid rule")]
    fn with_rules_panics_on_bad_text() {
        let _ = KnowledgeBase::new("bad").with_rules(&["=>"]);
    }

    #[test]
    fn literal_display() {
        let lit = Literal::neg(Atom::prop("busy"));
        assert_eq!(lit.to_string(), "not busy");
    }
}
