//! Task-control knowledge: the dynamic view of process composition.
//!
//! "...and a specification of task control knowledge used to control
//! processes and information exchange (dynamic view on the composition)"
//! (Section 4.1.2). Task control decides which children are activated,
//! and under which conditions, each macro-round of a composed component's
//! execution; activated children run in declaration order.

use crate::ident::Name;
use crate::term::Atom;

/// Condition gating a child's activation: the atom must have the given
/// truth on the *parent's input* interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivationCondition {
    /// The gated child.
    pub child: Name,
    /// The atom inspected on the parent input interface.
    pub condition: Atom,
}

/// Task-control knowledge of one composed component.
///
/// The kernel executes macro-rounds: links fire, then each activated
/// child runs, then links fire again; rounds repeat until the composition
/// is quiescent (no interface changed) or `max_rounds` is hit.
///
/// # Example
///
/// ```
/// use desire::task_control::TaskControl;
///
/// let tc = TaskControl::new().with_max_rounds(10);
/// assert_eq!(tc.max_rounds(), 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskControl {
    /// Conditions gating individual children.
    conditions: Vec<ActivationCondition>,
    /// Maximum macro-rounds before the kernel reports non-quiescence.
    max_rounds: usize,
}

impl TaskControl {
    /// Default task control: declaration order, no conditions, 100 rounds.
    pub fn new() -> TaskControl {
        TaskControl {
            conditions: Vec::new(),
            max_rounds: 100,
        }
    }

    /// Gates `child` on `condition` holding (true) on the parent input.
    pub fn with_condition(mut self, child: impl Into<Name>, condition: Atom) -> TaskControl {
        self.conditions.push(ActivationCondition {
            child: child.into(),
            condition,
        });
        self
    }

    /// Sets the macro-round limit.
    ///
    /// # Panics
    ///
    /// Panics if `max_rounds` is zero.
    pub fn with_max_rounds(mut self, max_rounds: usize) -> TaskControl {
        assert!(max_rounds > 0, "round limit must be positive");
        self.max_rounds = max_rounds;
        self
    }

    /// The macro-round limit.
    pub fn max_rounds(&self) -> usize {
        self.max_rounds
    }

    /// Condition on `child`, if any.
    pub fn condition_for(&self, child: &Name) -> Option<&Atom> {
        self.conditions
            .iter()
            .find(|c| &c.child == child)
            .map(|c| &c.condition)
    }
}

impl Default for TaskControl {
    fn default() -> Self {
        TaskControl::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conditions_lookup() {
        let tc = TaskControl::new().with_condition("announce", Atom::prop("peak_expected"));
        assert_eq!(
            tc.condition_for(&"announce".into()),
            Some(&Atom::prop("peak_expected"))
        );
        assert!(tc.condition_for(&"other".into()).is_none());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rounds_panics() {
        let _ = TaskControl::new().with_max_rounds(0);
    }
}
