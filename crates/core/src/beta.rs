//! β policies: constant (the prototype) and dynamic (the §7 future work).
//!
//! "in the prototype implementation the factor beta which determines the
//! speed of negotiation has a constant value. The effects of dynamically
//! varying the value of beta on the basis of experience, should be
//! examined" (Section 7). [`BetaPolicy`] implements both, and the E7
//! experiment compares them.

use std::fmt;

/// How β evolves over the course of a negotiation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BetaPolicy {
    /// The prototype: a constant β.
    Constant {
        /// The fixed value.
        beta: f64,
    },
    /// β grows when progress stalls: `beta · (1 + gain · stall_rounds)`,
    /// where a *stall round* is one in which overuse did not improve by
    /// at least `min_progress` (relative).
    Adaptive {
        /// Base value.
        beta: f64,
        /// Multiplier increment per stalled round.
        gain: f64,
        /// Minimum relative overuse improvement that counts as progress.
        min_progress: f64,
    },
    /// β anneals geometrically: `beta · decay^round` — fast early
    /// concessions, careful refinement later.
    Annealing {
        /// Initial value.
        beta: f64,
        /// Per-round decay in `(0, 1]`.
        decay: f64,
    },
}

impl BetaPolicy {
    /// The paper's constant policy with β = 2 (Figure 6/7 calibration).
    pub fn paper() -> BetaPolicy {
        BetaPolicy::Constant { beta: 2.0 }
    }

    /// A constant policy.
    ///
    /// # Panics
    ///
    /// Panics if `beta` is negative or non-finite.
    pub fn constant(beta: f64) -> BetaPolicy {
        assert!(beta >= 0.0 && beta.is_finite(), "beta must be non-negative");
        BetaPolicy::Constant { beta }
    }

    /// The default adaptive policy of the E7 experiment.
    pub fn adaptive(beta: f64) -> BetaPolicy {
        assert!(beta >= 0.0 && beta.is_finite(), "beta must be non-negative");
        BetaPolicy::Adaptive {
            beta,
            gain: 0.5,
            min_progress: 0.02,
        }
    }

    /// The default annealing policy of the E7 experiment.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < decay ≤ 1`.
    pub fn annealing(beta: f64, decay: f64) -> BetaPolicy {
        assert!(beta >= 0.0 && beta.is_finite(), "beta must be non-negative");
        assert!(decay > 0.0 && decay <= 1.0, "decay must be in (0, 1]");
        BetaPolicy::Annealing { beta, decay }
    }

    /// The base β the policy starts a negotiation from — the value
    /// experience-based tuning
    /// ([`crate::utility_agent::own_process_control::OwnProcessControl::tune`])
    /// adjusts between campaign days.
    pub fn base_beta(&self) -> f64 {
        match *self {
            BetaPolicy::Constant { beta }
            | BetaPolicy::Adaptive { beta, .. }
            | BetaPolicy::Annealing { beta, .. } => beta,
        }
    }

    /// The same policy shape with its base β replaced.
    ///
    /// # Panics
    ///
    /// Panics if `beta` is negative or non-finite.
    pub fn with_base_beta(self, beta: f64) -> BetaPolicy {
        assert!(beta >= 0.0 && beta.is_finite(), "beta must be non-negative");
        match self {
            BetaPolicy::Constant { .. } => BetaPolicy::Constant { beta },
            BetaPolicy::Adaptive {
                gain, min_progress, ..
            } => BetaPolicy::Adaptive {
                beta,
                gain,
                min_progress,
            },
            BetaPolicy::Annealing { decay, .. } => BetaPolicy::Annealing { beta, decay },
        }
    }

    /// The β to use in `round` (0-based), given the negotiation history.
    ///
    /// `stall_rounds` counts consecutive rounds without meaningful
    /// overuse improvement (maintained by the session).
    pub fn beta(&self, round: u32, stall_rounds: u32) -> f64 {
        match *self {
            BetaPolicy::Constant { beta } => beta,
            BetaPolicy::Adaptive { beta, gain, .. } => {
                beta * (1.0 + gain * f64::from(stall_rounds))
            }
            BetaPolicy::Annealing { beta, decay } => beta * decay.powi(round as i32),
        }
    }

    /// The relative-improvement threshold below which a round counts as
    /// stalled (only meaningful for [`BetaPolicy::Adaptive`]).
    pub fn min_progress(&self) -> f64 {
        match *self {
            BetaPolicy::Adaptive { min_progress, .. } => min_progress,
            _ => 0.0,
        }
    }

    /// Short name for experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            BetaPolicy::Constant { .. } => "constant",
            BetaPolicy::Adaptive { .. } => "adaptive",
            BetaPolicy::Annealing { .. } => "annealing",
        }
    }
}

impl Default for BetaPolicy {
    fn default() -> Self {
        BetaPolicy::paper()
    }
}

impl fmt::Display for BetaPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BetaPolicy::Constant { beta } => write!(f, "constant(β={beta})"),
            BetaPolicy::Adaptive {
                beta,
                gain,
                min_progress,
            } => {
                write!(
                    f,
                    "adaptive(β={beta}, gain={gain}, min_progress={min_progress})"
                )
            }
            BetaPolicy::Annealing { beta, decay } => {
                write!(f, "annealing(β={beta}, decay={decay})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let p = BetaPolicy::constant(2.0);
        assert_eq!(p.beta(0, 0), 2.0);
        assert_eq!(p.beta(10, 5), 2.0);
    }

    #[test]
    fn adaptive_grows_on_stall() {
        let p = BetaPolicy::adaptive(2.0);
        assert_eq!(p.beta(3, 0), 2.0);
        assert!(p.beta(3, 2) > p.beta(3, 1));
        assert!(p.min_progress() > 0.0);
    }

    #[test]
    fn annealing_decays() {
        let p = BetaPolicy::annealing(4.0, 0.5);
        assert_eq!(p.beta(0, 0), 4.0);
        assert_eq!(p.beta(1, 0), 2.0);
        assert_eq!(p.beta(2, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_beta_panics() {
        let _ = BetaPolicy::constant(-1.0);
    }

    #[test]
    #[should_panic(expected = "decay")]
    fn bad_decay_panics() {
        let _ = BetaPolicy::annealing(1.0, 1.5);
    }

    #[test]
    fn names_and_display() {
        assert_eq!(BetaPolicy::paper().name(), "constant");
        assert_eq!(BetaPolicy::adaptive(1.0).name(), "adaptive");
        assert!(BetaPolicy::annealing(1.0, 0.9).to_string().contains("0.9"));
    }
}
