//! Order-sorted terms, atoms, substitutions and unification.
//!
//! DESIRE represents knowledge "by formulae in order-sorted predicate
//! logic, which can be normalised by a standard transformation into rules".
//! This module provides the term language those rules range over.
//!
//! Conventions follow logic-programming practice: identifiers starting
//! with an uppercase letter are variables, everything else is a constant
//! or function symbol. Numbers are a distinguished constant kind so that
//! calculation components can exchange quantitative facts (reward values,
//! cut-down fractions) with reasoning components.

use crate::ident::Name;
use std::collections::BTreeMap;
use std::fmt;

/// A first-order term.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A variable, e.g. `Cutdown`.
    Var(Name),
    /// A symbolic constant, e.g. `utility_agent`.
    Const(Name),
    /// A numeric constant in fixed-point micro-units (so terms stay `Eq`
    /// and hashable); `Term::number(17.0)` stores `17_000_000`.
    Num(i64),
    /// A compound term, e.g. `reward_for(0.4)`.
    App(Name, Vec<Term>),
}

impl Term {
    /// Numeric scaling factor for [`Term::Num`] (micro-units).
    pub const NUM_SCALE: f64 = 1_000_000.0;

    /// Creates a variable term.
    pub fn var(name: impl Into<Name>) -> Term {
        Term::Var(name.into())
    }

    /// Creates a constant term.
    pub fn constant(name: impl Into<Name>) -> Term {
        Term::Const(name.into())
    }

    /// Creates a numeric term (rounded to micro-unit precision).
    pub fn number(value: f64) -> Term {
        Term::Num((value * Self::NUM_SCALE).round() as i64)
    }

    /// Creates a compound term.
    pub fn app(functor: impl Into<Name>, args: Vec<Term>) -> Term {
        Term::App(functor.into(), args)
    }

    /// The numeric value if this is a [`Term::Num`].
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Term::Num(n) => Some(*n as f64 / Self::NUM_SCALE),
            _ => None,
        }
    }

    /// True if the term contains no variables.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) => false,
            Term::Const(_) | Term::Num(_) => true,
            Term::App(_, args) => args.iter().all(Term::is_ground),
        }
    }

    /// Collects the variables occurring in the term into `out`.
    pub fn variables(&self, out: &mut Vec<Name>) {
        match self {
            Term::Var(v) => {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            Term::Const(_) | Term::Num(_) => {}
            Term::App(_, args) => {
                for a in args {
                    a.variables(out);
                }
            }
        }
    }

    /// Applies a substitution, replacing bound variables.
    pub fn apply(&self, subst: &Substitution) -> Term {
        match self {
            Term::Var(v) => subst.get(v).cloned().unwrap_or_else(|| self.clone()),
            Term::Const(_) | Term::Num(_) => self.clone(),
            Term::App(f, args) => {
                Term::App(f.clone(), args.iter().map(|a| a.apply(subst)).collect())
            }
        }
    }

    /// Parses a term. Uppercase-initial identifiers become variables,
    /// numeric literals become [`Term::Num`], `f(a, B)` becomes an
    /// application.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the offending position.
    pub fn parse(input: &str) -> Result<Term, ParseError> {
        let mut parser = Parser::new(input);
        let term = parser.term()?;
        parser.expect_end()?;
        Ok(term)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
            Term::Num(n) => {
                let value = *n as f64 / Term::NUM_SCALE;
                if (value - value.round()).abs() < 1e-9 {
                    write!(f, "{}", value.round() as i64)
                } else {
                    write!(f, "{value}")
                }
            }
            Term::App(functor, args) => {
                write!(f, "{functor}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// An atomic formula: predicate applied to terms.
///
/// # Example
///
/// ```
/// use desire::term::{Atom, Term};
///
/// let a = Atom::parse("willing_to_cutdown(customer_3, 0.4)").unwrap();
/// assert_eq!(a.predicate.as_str(), "willing_to_cutdown");
/// assert_eq!(a.args[1], Term::number(0.4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Atom {
    /// The predicate symbol.
    pub predicate: Name,
    /// Argument terms.
    pub args: Vec<Term>,
}

impl Atom {
    /// Creates an atom.
    pub fn new(predicate: impl Into<Name>, args: Vec<Term>) -> Atom {
        Atom {
            predicate: predicate.into(),
            args,
        }
    }

    /// Creates a propositional (0-ary) atom.
    pub fn prop(predicate: impl Into<Name>) -> Atom {
        Atom::new(predicate, Vec::new())
    }

    /// True if all arguments are ground.
    pub fn is_ground(&self) -> bool {
        self.args.iter().all(Term::is_ground)
    }

    /// Collects variables from all arguments.
    pub fn variables(&self) -> Vec<Name> {
        let mut out = Vec::new();
        for a in &self.args {
            a.variables(&mut out);
        }
        out
    }

    /// Applies a substitution to all arguments.
    pub fn apply(&self, subst: &Substitution) -> Atom {
        Atom {
            predicate: self.predicate.clone(),
            args: self.args.iter().map(|a| a.apply(subst)).collect(),
        }
    }

    /// Renames the predicate, keeping the arguments — the core of an
    /// information-link mapping.
    pub fn renamed(&self, predicate: impl Into<Name>) -> Atom {
        Atom {
            predicate: predicate.into(),
            args: self.args.clone(),
        }
    }

    /// Parses an atom such as `p`, `p(a, 1.5, X)`.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on malformed input.
    pub fn parse(input: &str) -> Result<Atom, ParseError> {
        let mut parser = Parser::new(input);
        let atom = parser.atom()?;
        parser.expect_end()?;
        Ok(atom)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.args.is_empty() {
            return write!(f, "{}", self.predicate);
        }
        write!(f, "{}(", self.predicate)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// A variable binding produced by unification.
///
/// Deterministic iteration (BTreeMap) keeps engine runs reproducible.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Substitution {
    bindings: BTreeMap<Name, Term>,
}

impl Substitution {
    /// The empty substitution.
    pub fn new() -> Substitution {
        Substitution::default()
    }

    /// Looks up a variable's binding.
    pub fn get(&self, var: &Name) -> Option<&Term> {
        self.bindings.get(var)
    }

    /// Binds `var` to `term`, following existing bindings (no occurs
    /// check needed for our function-free-recursion usage, but performed
    /// anyway for safety).
    ///
    /// Returns `false` (leaving the substitution unchanged) if the binding
    /// would conflict with an existing one or fail the occurs check.
    fn bind(&mut self, var: Name, term: Term) -> bool {
        let resolved = term.apply(self);
        if let Some(existing) = self.bindings.get(&var) {
            return existing == &resolved;
        }
        let mut vars = Vec::new();
        resolved.variables(&mut vars);
        if vars.contains(&var) {
            // Occurs check failure (X bound to f(X)).
            return matches!(resolved, Term::Var(ref v) if *v == var);
        }
        self.bindings.insert(var, resolved);
        true
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// True if no variables are bound.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// Iterates over bindings in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&Name, &Term)> {
        self.bindings.iter()
    }
}

impl fmt::Display for Substitution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (v, t)) in self.bindings.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v} ↦ {t}")?;
        }
        write!(f, "}}")
    }
}

/// Unifies two terms under an existing substitution, extending it in
/// place. Returns `false` and may leave partial bindings on failure —
/// callers clone the substitution first (see [`unify_atoms`]).
fn unify_terms(a: &Term, b: &Term, subst: &mut Substitution) -> bool {
    let a = a.apply(subst);
    let b = b.apply(subst);
    match (&a, &b) {
        (Term::Var(v), _) => subst.bind(v.clone(), b.clone()),
        (_, Term::Var(v)) => subst.bind(v.clone(), a.clone()),
        (Term::Const(x), Term::Const(y)) => x == y,
        (Term::Num(x), Term::Num(y)) => x == y,
        (Term::App(f, xs), Term::App(g, ys)) => {
            f == g
                && xs.len() == ys.len()
                && xs.iter().zip(ys).all(|(x, y)| unify_terms(x, y, subst))
        }
        _ => false,
    }
}

/// Attempts to unify two atoms, returning the extending substitution.
///
/// # Example
///
/// ```
/// use desire::term::{unify_atoms, Atom, Substitution, Term};
///
/// let pattern = Atom::parse("bid(Customer, Cutdown)").unwrap();
/// let fact = Atom::parse("bid(c3, 0.4)").unwrap();
/// let subst = unify_atoms(&pattern, &fact, &Substitution::new()).unwrap();
/// assert_eq!(subst.get(&"Customer".into()), Some(&Term::constant("c3")));
/// ```
pub fn unify_atoms(a: &Atom, b: &Atom, base: &Substitution) -> Option<Substitution> {
    if a.predicate != b.predicate || a.args.len() != b.args.len() {
        return None;
    }
    let mut subst = base.clone();
    for (x, y) in a.args.iter().zip(&b.args) {
        if !unify_terms(x, y, &mut subst) {
            return None;
        }
    }
    Some(subst)
}

/// Error produced when parsing terms, atoms or rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte position of the error in the input.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A small recursive-descent parser shared by [`Term::parse`],
/// [`Atom::parse`] and `Rule::parse`.
pub(crate) struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    pub(crate) fn new(input: &'a str) -> Parser<'a> {
        Parser { input, pos: 0 }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    pub(crate) fn skip_ws(&mut self) {
        let trimmed = self.rest().trim_start();
        self.pos = self.input.len() - trimmed.len();
    }

    pub(crate) fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            position: self.pos,
            message: message.into(),
        }
    }

    pub(crate) fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.rest().chars().next()
    }

    pub(crate) fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.pos += c.len_utf8();
            true
        } else {
            false
        }
    }

    pub(crate) fn eat_str(&mut self, s: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    pub(crate) fn expect(&mut self, c: char) -> Result<(), ParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.error(format!("expected '{c}'")))
        }
    }

    pub(crate) fn expect_end(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.rest().is_empty() {
            Ok(())
        } else {
            Err(self.error("trailing input"))
        }
    }

    pub(crate) fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.rest().is_empty()
    }

    fn identifier(&mut self) -> Result<&'a str, ParseError> {
        self.skip_ws();
        let rest = self.rest();
        let len = rest
            .char_indices()
            .take_while(|&(_, c)| c.is_ascii_alphanumeric() || c == '_' || c == '-')
            .map(|(i, c)| i + c.len_utf8())
            .last()
            .unwrap_or(0);
        if len == 0 {
            return Err(self.error("expected identifier"));
        }
        let ident = &rest[..len];
        if !ident
            .chars()
            .next()
            .map(|c| c.is_ascii_alphabetic())
            .unwrap_or(false)
        {
            return Err(self.error("identifier must start with a letter"));
        }
        self.pos += len;
        Ok(ident)
    }

    fn number(&mut self) -> Result<f64, ParseError> {
        self.skip_ws();
        let rest = self.rest();
        let mut len = 0;
        let bytes = rest.as_bytes();
        if len < bytes.len() && (bytes[len] == b'-' || bytes[len] == b'+') {
            len += 1;
        }
        let digits_start = len;
        while len < bytes.len() && (bytes[len].is_ascii_digit() || bytes[len] == b'.') {
            len += 1;
        }
        if len == digits_start {
            return Err(self.error("expected number"));
        }
        let text = &rest[..len];
        let value: f64 = text
            .parse()
            .map_err(|_| self.error(format!("malformed number '{text}'")))?;
        self.pos += len;
        Ok(value)
    }

    pub(crate) fn term(&mut self) -> Result<Term, ParseError> {
        match self.peek() {
            Some(c) if c.is_ascii_digit() || c == '-' || c == '+' => {
                Ok(Term::number(self.number()?))
            }
            Some(c) if c.is_ascii_alphabetic() => {
                let ident = self.identifier()?;
                if self.eat('(') {
                    let mut args = Vec::new();
                    if !self.eat(')') {
                        loop {
                            args.push(self.term()?);
                            if self.eat(')') {
                                break;
                            }
                            self.expect(',')?;
                        }
                    }
                    Ok(Term::app(ident, args))
                } else if c.is_ascii_uppercase() {
                    Ok(Term::var(ident))
                } else {
                    Ok(Term::constant(ident))
                }
            }
            _ => Err(self.error("expected term")),
        }
    }

    pub(crate) fn atom(&mut self) -> Result<Atom, ParseError> {
        let ident = self.identifier()?;
        let mut args = Vec::new();
        if self.eat('(') && !self.eat(')') {
            loop {
                args.push(self.term()?);
                if self.eat(')') {
                    break;
                }
                self.expect(',')?;
            }
        }
        Ok(Atom::new(ident, args))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_terms() {
        assert_eq!(Term::parse("abc").unwrap(), Term::constant("abc"));
        assert_eq!(Term::parse("Xyz").unwrap(), Term::var("Xyz"));
        assert_eq!(Term::parse("1.5").unwrap(), Term::number(1.5));
        assert_eq!(Term::parse("-2").unwrap(), Term::number(-2.0));
        assert_eq!(
            Term::parse("f(a, X, 3)").unwrap(),
            Term::app(
                "f",
                vec![Term::constant("a"), Term::var("X"), Term::number(3.0)]
            )
        );
        assert!(Term::parse("f(a,,b)").is_err());
        assert!(Term::parse("f(a) junk").is_err());
        assert!(Term::parse("").is_err());
    }

    #[test]
    fn parse_nested_terms() {
        let t = Term::parse("g(f(X), h(1, c))").unwrap();
        assert_eq!(t.to_string(), "g(f(X), h(1, c))");
        assert!(!t.is_ground());
    }

    #[test]
    fn numbers_are_fixed_point() {
        assert_eq!(Term::number(0.4), Term::number(0.4000000001));
        assert_eq!(Term::number(17.0).as_number(), Some(17.0));
        assert_eq!(Term::constant("x").as_number(), None);
    }

    #[test]
    fn parse_atoms() {
        let a = Atom::parse("p").unwrap();
        assert!(a.args.is_empty());
        let b = Atom::parse("bid(c3, 0.4)").unwrap();
        assert_eq!(b.args.len(), 2);
        assert!(b.is_ground());
        let c = Atom::parse("bid(C, F)").unwrap();
        assert!(!c.is_ground());
        assert_eq!(c.variables().len(), 2);
    }

    #[test]
    fn display_roundtrip() {
        for text in ["p", "bid(c3, 0.4)", "f(g(X), 2)", "q(a, B, c)"] {
            let atom_or_term = Atom::parse(text);
            if let Ok(a) = atom_or_term {
                assert_eq!(Atom::parse(&a.to_string()).unwrap(), a, "roundtrip {text}");
            }
        }
    }

    #[test]
    fn ground_substitution_application() {
        let mut subst = Substitution::new();
        assert!(subst.bind("X".into(), Term::constant("c3")));
        let atom = Atom::parse("bid(X, 0.4)").unwrap();
        assert_eq!(atom.apply(&subst), Atom::parse("bid(c3, 0.4)").unwrap());
    }

    #[test]
    fn bind_conflicts_are_rejected() {
        let mut subst = Substitution::new();
        assert!(subst.bind("X".into(), Term::constant("a")));
        assert!(subst.bind("X".into(), Term::constant("a")));
        assert!(!subst.bind("X".into(), Term::constant("b")));
        assert_eq!(subst.len(), 1);
    }

    #[test]
    fn occurs_check() {
        let mut subst = Substitution::new();
        assert!(!subst.bind("X".into(), Term::app("f", vec![Term::var("X")])));
    }

    #[test]
    fn unify_ground_atoms() {
        let a = Atom::parse("p(a, 1)").unwrap();
        assert!(unify_atoms(&a, &a, &Substitution::new()).is_some());
        let b = Atom::parse("p(a, 2)").unwrap();
        assert!(unify_atoms(&a, &b, &Substitution::new()).is_none());
        let c = Atom::parse("q(a, 1)").unwrap();
        assert!(unify_atoms(&a, &c, &Substitution::new()).is_none());
    }

    #[test]
    fn unify_with_variables() {
        let pattern = Atom::parse("bid(Customer, Cutdown)").unwrap();
        let fact = Atom::parse("bid(c7, 0.3)").unwrap();
        let subst = unify_atoms(&pattern, &fact, &Substitution::new()).unwrap();
        assert_eq!(subst.get(&"Customer".into()), Some(&Term::constant("c7")));
        assert_eq!(subst.get(&"Cutdown".into()), Some(&Term::number(0.3)));
    }

    #[test]
    fn unify_repeated_variable() {
        let pattern = Atom::parse("eq(X, X)").unwrap();
        let same = Atom::parse("eq(a, a)").unwrap();
        let diff = Atom::parse("eq(a, b)").unwrap();
        assert!(unify_atoms(&pattern, &same, &Substitution::new()).is_some());
        assert!(unify_atoms(&pattern, &diff, &Substitution::new()).is_none());
    }

    #[test]
    fn unify_compound_args() {
        let pattern = Atom::parse("holds(at(X, T))").unwrap();
        let fact = Atom::parse("holds(at(home, 5))").unwrap();
        let subst = unify_atoms(&pattern, &fact, &Substitution::new()).unwrap();
        assert_eq!(subst.get(&"X".into()), Some(&Term::constant("home")));
        assert_eq!(subst.get(&"T".into()), Some(&Term::number(5.0)));
    }

    #[test]
    fn unify_extends_base_substitution() {
        let mut base = Substitution::new();
        base.bind("C".into(), Term::constant("c1"));
        let pattern = Atom::parse("bid(C, F)").unwrap();
        let fact1 = Atom::parse("bid(c1, 0.2)").unwrap();
        let fact2 = Atom::parse("bid(c2, 0.2)").unwrap();
        assert!(unify_atoms(&pattern, &fact1, &base).is_some());
        assert!(unify_atoms(&pattern, &fact2, &base).is_none());
    }

    #[test]
    fn substitution_display() {
        let mut s = Substitution::new();
        s.bind("X".into(), Term::number(1.0));
        assert!(s.to_string().contains("X ↦ 1"));
    }

    #[test]
    fn parse_error_display() {
        let err = Term::parse("(").unwrap_err();
        assert!(err.to_string().contains("parse error"));
    }
}
