//! Names and hierarchical component paths.

use std::fmt;
use std::sync::Arc;

/// An interned identifier: component, predicate, sort or variable name.
///
/// Cheap to clone (shared `Arc<str>`), compared by content.
///
/// # Example
///
/// ```
/// use desire::ident::Name;
///
/// let a = Name::from("own_process_control");
/// let b: Name = "own_process_control".into();
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name(Arc<str>);

impl Default for Name {
    /// The empty name — useful only as a placeholder.
    fn default() -> Self {
        Name(Arc::from(""))
    }
}

impl Name {
    /// Creates a name from any string-like value.
    pub fn new(s: impl AsRef<str>) -> Name {
        Name(Arc::from(s.as_ref()))
    }

    /// The underlying string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// True if the name is a well-formed identifier: non-empty, starting
    /// with a letter, containing only alphanumerics, `_` and `-`.
    pub fn is_well_formed(&self) -> bool {
        let mut chars = self.0.chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() => {}
            _ => return false,
        }
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name::new(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name::new(s)
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// A path through the component hierarchy, e.g.
/// `utility_agent/own_process_control/evaluate_negotiation_process`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ComponentPath(Vec<Name>);

impl ComponentPath {
    /// The empty path (the system root).
    pub fn root() -> ComponentPath {
        ComponentPath(Vec::new())
    }

    /// Appends a child segment, returning the extended path.
    pub fn child(&self, name: Name) -> ComponentPath {
        let mut segments = self.0.clone();
        segments.push(name);
        ComponentPath(segments)
    }

    /// Nesting depth (root = 0).
    pub fn depth(&self) -> usize {
        self.0.len()
    }

    /// The final segment, if any.
    pub fn leaf(&self) -> Option<&Name> {
        self.0.last()
    }
}

impl fmt::Display for ComponentPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return f.write_str("/");
        }
        for segment in &self.0 {
            write!(f, "/{segment}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_compare_by_content() {
        assert_eq!(Name::from("abc"), Name::new(String::from("abc")));
        assert_ne!(Name::from("abc"), Name::from("abd"));
        assert_eq!(Name::from("abc").as_str(), "abc");
    }

    #[test]
    fn well_formedness() {
        assert!(Name::from("own_process_control").is_well_formed());
        assert!(Name::from("a-b_c9").is_well_formed());
        assert!(!Name::from("").is_well_formed());
        assert!(!Name::from("9abc").is_well_formed());
        assert!(!Name::from("a b").is_well_formed());
    }

    #[test]
    fn paths_display_like_filesystem() {
        let p = ComponentPath::root()
            .child("utility_agent".into())
            .child("own_process_control".into());
        assert_eq!(p.to_string(), "/utility_agent/own_process_control");
        assert_eq!(ComponentPath::root().to_string(), "/");
        assert_eq!(p.depth(), 2);
        assert_eq!(p.leaf().unwrap().as_str(), "own_process_control");
    }
}
