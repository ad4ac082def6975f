//! Information types: the ontologies of DESIRE's knowledge composition.
//!
//! "An information type defines an ontology (lexicon, vocabulary) to
//! describe objects or terms, their sorts, and the relations or functions
//! that can be defined on these objects" (Section 4.2.1). An information
//! type here declares predicates and the sorts of their arguments. The
//! built-in [`NUMBER_SORT`] is the one sort a ground term carries and no
//! constants are declared, so a ground argument checks only as a number
//! at a number position.

use crate::ident::Name;
use crate::term::{Atom, Term};
use std::collections::BTreeMap;
use std::fmt;

/// An ontology: predicates and the sorts of their arguments.
///
/// # Example
///
/// ```
/// use desire::info::InfoType;
/// use desire::term::Atom;
///
/// let info = InfoType::new("bids").with_predicate("bid", &["number", "number"]);
/// let atom = Atom::parse("bid(3, 0.4)").unwrap();
/// assert!(info.check_atom(&atom).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InfoType {
    name: Name,
    /// Argument sorts per declared predicate (empty for propositions).
    predicates: BTreeMap<Name, Vec<Name>>,
}

/// The built-in sort of numeric terms.
pub const NUMBER_SORT: &str = "number";

/// Error from signature checking an atom against an [`InfoType`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SignatureError {
    /// The predicate is not declared.
    UnknownPredicate(Name),
    /// Wrong number of arguments.
    ArityMismatch {
        /// The predicate.
        predicate: Name,
        /// Declared arity.
        expected: usize,
        /// Actual arity.
        actual: usize,
    },
    /// A constant is not declared.
    UnknownConstant(Name),
    /// An argument's sort does not match the declared sort.
    SortMismatch {
        /// The predicate.
        predicate: Name,
        /// Argument position (0-based).
        position: usize,
        /// Declared sort.
        expected: Name,
        /// Actual sort.
        actual: Name,
    },
}

impl fmt::Display for SignatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignatureError::UnknownPredicate(p) => write!(f, "unknown predicate '{p}'"),
            SignatureError::ArityMismatch {
                predicate,
                expected,
                actual,
            } => write!(
                f,
                "predicate '{predicate}' takes {expected} arguments, got {actual}"
            ),
            SignatureError::UnknownConstant(c) => write!(f, "unknown constant '{c}'"),
            SignatureError::SortMismatch {
                predicate,
                position,
                expected,
                actual,
            } => write!(
                f,
                "argument {position} of '{predicate}' must be sort '{expected}', got '{actual}'"
            ),
        }
    }
}

impl std::error::Error for SignatureError {}

impl InfoType {
    /// Creates an empty information type.
    pub fn new(name: impl Into<Name>) -> InfoType {
        InfoType {
            name: name.into(),
            predicates: BTreeMap::new(),
        }
    }

    /// The information type's name.
    pub fn name(&self) -> &Name {
        &self.name
    }

    /// Adds a predicate declaration.
    pub fn with_predicate(mut self, name: impl Into<Name>, arg_sorts: &[&str]) -> InfoType {
        self.predicates.insert(
            name.into(),
            arg_sorts.iter().map(|s| Name::from(*s)).collect(),
        );
        self
    }

    /// Checks an atom against the signature.
    ///
    /// Variables and compound arguments are accepted at any position
    /// (rule patterns are checked only where ground).
    ///
    /// # Errors
    ///
    /// See [`SignatureError`] for the failure cases.
    pub fn check_atom(&self, atom: &Atom) -> Result<(), SignatureError> {
        let arg_sorts = self
            .predicates
            .get(&atom.predicate)
            .ok_or_else(|| SignatureError::UnknownPredicate(atom.predicate.clone()))?;
        if arg_sorts.len() != atom.args.len() {
            return Err(SignatureError::ArityMismatch {
                predicate: atom.predicate.clone(),
                expected: arg_sorts.len(),
                actual: atom.args.len(),
            });
        }
        for (i, (arg, expected)) in atom.args.iter().zip(arg_sorts).enumerate() {
            match arg {
                Term::Const(c) => return Err(SignatureError::UnknownConstant(c.clone())),
                Term::Num(_) if expected.as_str() != NUMBER_SORT => {
                    return Err(SignatureError::SortMismatch {
                        predicate: atom.predicate.clone(),
                        position: i,
                        expected: expected.clone(),
                        actual: NUMBER_SORT.into(),
                    });
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bids_info() -> InfoType {
        InfoType::new("bids")
            .with_predicate("bid", &["customer", "number"])
            .with_predicate("active", &["number"])
    }

    #[test]
    fn check_valid_atom() {
        let info = bids_info();
        assert!(info.check_atom(&Atom::parse("active(3)").unwrap()).is_ok());
    }

    #[test]
    fn number_rejected_at_another_sort_position() {
        let info = bids_info();
        let err = info
            .check_atom(&Atom::parse("bid(3, 0.4)").unwrap())
            .unwrap_err();
        assert!(matches!(
            err,
            SignatureError::SortMismatch { position: 0, .. }
        ));
    }

    #[test]
    fn unknown_predicate_and_constant() {
        let info = bids_info();
        assert!(matches!(
            info.check_atom(&Atom::parse("frob(3)").unwrap()),
            Err(SignatureError::UnknownPredicate(_))
        ));
        assert!(matches!(
            info.check_atom(&Atom::parse("active(zeta)").unwrap()),
            Err(SignatureError::UnknownConstant(_))
        ));
    }

    #[test]
    fn arity_mismatch() {
        let info = bids_info();
        let err = info
            .check_atom(&Atom::parse("bid(C)").unwrap())
            .unwrap_err();
        assert!(matches!(
            err,
            SignatureError::ArityMismatch {
                expected: 2,
                actual: 1,
                ..
            }
        ));
        assert!(err.to_string().contains("takes 2 arguments"));
    }

    #[test]
    fn variables_pass_checking() {
        let info = bids_info();
        assert!(info.check_atom(&Atom::parse("bid(C, F)").unwrap()).is_ok());
    }

    #[test]
    fn number_sort_is_builtin() {
        let info = InfoType::new("n").with_predicate("val", &[NUMBER_SORT]);
        assert!(info.check_atom(&Atom::parse("val(3.5)").unwrap()).is_ok());
    }
}
