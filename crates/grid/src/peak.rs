//! Peak detection and overuse computation.
//!
//! Section 5.1.2: the Utility Agent's decision to start a negotiation
//! "depends on level of predicted overuse: whether the predicted overuse is
//! high enough to warrant the effort involved". This module turns a
//! predicted demand curve and a production model into that decision input.

use crate::production::ProductionModel;
use crate::series::Series;
use crate::time::Interval;
use crate::units::KilowattHours;

/// A detected demand peak: where it is and how much overuse it carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Slots during which predicted demand exceeds normal capacity.
    pub interval: Interval,
    /// Predicted energy above normal capacity within the interval.
    pub predicted_overuse: KilowattHours,
    /// Normal-capacity energy over the interval ("normal_use" of §6).
    pub normal_use: KilowattHours,
}

impl Peak {
    /// Relative overuse `predicted_overuse / normal_use` — the `overuse`
    /// quantity in the paper's reward-update formula.
    pub fn overuse_fraction(&self) -> f64 {
        if self.normal_use.value() <= f64::EPSILON {
            0.0
        } else {
            self.predicted_overuse / self.normal_use
        }
    }
}

impl std::fmt::Display for Peak {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "peak {} overuse {} ({:.1}% of normal use {})",
            self.interval,
            self.predicted_overuse,
            100.0 * self.overuse_fraction(),
            self.normal_use
        )
    }
}

/// Detects peaks in predicted demand and judges whether they warrant a
/// negotiation.
///
/// # Example
///
/// ```
/// use powergrid::peak::PeakDetector;
/// use powergrid::production::ProductionModel;
/// use powergrid::series::Series;
/// use powergrid::time::TimeAxis;
/// use powergrid::units::Kilowatts;
///
/// let axis = TimeAxis::hourly();
/// let mut demand = Series::constant(axis, 80.0);
/// demand.values_mut()[18] = 130.0; // evening spike above 100 kW capacity
/// let production = ProductionModel::two_tier(Kilowatts(100.0));
/// let detector = PeakDetector::new(0.05);
/// let peak = detector.detect(&demand, &production).expect("peak expected");
/// assert!(peak.interval.contains(18));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeakDetector {
    /// Minimum overuse fraction that makes negotiation worth the effort.
    threshold: f64,
}

impl PeakDetector {
    /// Creates a detector that reports peaks whose overuse fraction is at
    /// least `threshold` (e.g. `0.05` = 5 % above normal capacity).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative or not finite.
    pub fn new(threshold: f64) -> PeakDetector {
        assert!(
            threshold >= 0.0 && threshold.is_finite(),
            "threshold must be ≥ 0"
        );
        PeakDetector { threshold }
    }

    /// The configured overuse threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Finds the largest-excess peak among [`PeakDetector::detect_all`]'s
    /// candidates (ties go to the earliest run).
    ///
    /// Returns `None` in a "stable situation" (§5.1.2): no slot exceeds
    /// capacity, or no peak is big enough to warrant negotiation. Note
    /// the threshold applies *per run*: a sharp spike above threshold is
    /// reported even when a milder, larger-excess run elsewhere in the
    /// day falls below it.
    pub fn detect(&self, predicted: &Series, production: &ProductionModel) -> Option<Peak> {
        self.detect_all(predicted, production)
            .into_iter()
            .fold(None, |best: Option<Peak>, p| match best {
                Some(b) if b.predicted_overuse >= p.predicted_overuse => Some(b),
                _ => Some(p),
            })
    }

    /// Finds *every* maximal contiguous run of slots where `predicted`
    /// exceeds normal capacity whose overuse fraction reaches the
    /// threshold, in time order.
    ///
    /// A day can carry more than one negotiable peak (a morning ramp and
    /// the evening spike); the campaign pipeline negotiates each one as
    /// its own [`Scenario`](https://docs.rs/loadbal-core) while
    /// [`PeakDetector::detect`] keeps the single-peak view of §5.1.2.
    pub fn detect_all(&self, predicted: &Series, production: &ProductionModel) -> Vec<Peak> {
        let cap = production
            .normal_capacity_per_slot(predicted.axis())
            .value();
        let values = predicted.values();
        let mut peaks = Vec::new();
        let mut i = 0;
        while i < values.len() {
            if values[i] > cap {
                let start = i;
                let mut excess = 0.0;
                while i < values.len() && values[i] > cap {
                    excess += values[i] - cap;
                    i += 1;
                }
                let interval = Interval::new(start, i);
                let peak = Peak {
                    interval,
                    predicted_overuse: KilowattHours(excess),
                    normal_use: KilowattHours(cap * interval.len() as f64),
                };
                if peak.overuse_fraction() >= self.threshold {
                    peaks.push(peak);
                }
            } else {
                i += 1;
            }
        }
        peaks
    }
}

impl Default for PeakDetector {
    /// A detector with a 5 % overuse threshold.
    fn default() -> Self {
        PeakDetector::new(0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimeAxis;
    use crate::units::Kilowatts;

    fn production() -> ProductionModel {
        ProductionModel::two_tier(Kilowatts(100.0))
    }

    fn axis() -> TimeAxis {
        TimeAxis::hourly()
    }

    #[test]
    fn no_peak_in_stable_situation() {
        let demand = Series::constant(axis(), 80.0);
        assert!(PeakDetector::default()
            .detect(&demand, &production())
            .is_none());
    }

    #[test]
    fn detects_single_peak() {
        let mut demand = Series::constant(axis(), 80.0);
        for h in 17..21 {
            demand.values_mut()[h] = 130.0;
        }
        let peak = PeakDetector::default()
            .detect(&demand, &production())
            .unwrap();
        assert_eq!(peak.interval, Interval::new(17, 21));
        assert!((peak.predicted_overuse.value() - 120.0).abs() < 1e-9);
        assert!((peak.normal_use.value() - 400.0).abs() < 1e-9);
        assert!((peak.overuse_fraction() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn picks_largest_of_multiple_peaks() {
        let mut demand = Series::constant(axis(), 80.0);
        demand.values_mut()[8] = 110.0; // small morning bump: excess 10
        for h in 18..20 {
            demand.values_mut()[h] = 140.0; // evening: excess 80
        }
        let peak = PeakDetector::new(0.0)
            .detect(&demand, &production())
            .unwrap();
        assert_eq!(peak.interval, Interval::new(18, 20));
    }

    #[test]
    fn threshold_filters_small_peaks() {
        let mut demand = Series::constant(axis(), 80.0);
        demand.values_mut()[18] = 102.0; // 2 % overuse in that slot
        assert!(PeakDetector::new(0.05)
            .detect(&demand, &production())
            .is_none());
        assert!(PeakDetector::new(0.01)
            .detect(&demand, &production())
            .is_some());
    }

    #[test]
    fn detect_all_returns_every_peak_in_time_order() {
        let mut demand = Series::constant(axis(), 80.0);
        for h in 7..9 {
            demand.values_mut()[h] = 120.0; // morning ramp: excess 40
        }
        for h in 18..20 {
            demand.values_mut()[h] = 140.0; // evening: excess 80
        }
        let peaks = PeakDetector::new(0.0).detect_all(&demand, &production());
        assert_eq!(peaks.len(), 2);
        assert_eq!(peaks[0].interval, Interval::new(7, 9));
        assert_eq!(peaks[1].interval, Interval::new(18, 20));
        // `detect` keeps the single-largest view of §5.1.2.
        let best = PeakDetector::new(0.0)
            .detect(&demand, &production())
            .unwrap();
        assert_eq!(best.interval, Interval::new(18, 20));
        // The threshold filters each run independently.
        let strict = PeakDetector::new(0.3).detect_all(&demand, &production());
        assert_eq!(strict.len(), 1);
        assert_eq!(strict[0].interval, Interval::new(18, 20));
    }

    #[test]
    fn equal_excess_ties_go_to_the_earliest_run() {
        let mut demand = Series::constant(axis(), 80.0);
        demand.values_mut()[8] = 130.0; // morning: excess 30
        demand.values_mut()[19] = 130.0; // evening: excess 30
        let peak = PeakDetector::new(0.0)
            .detect(&demand, &production())
            .unwrap();
        assert_eq!(peak.interval, Interval::new(8, 9));
    }

    #[test]
    fn slot_exactly_at_capacity_is_not_overuse() {
        // Detection is strict: `values[i] > cap`. A slot sitting exactly
        // on the capacity line is served by normal production and must
        // neither open a peak nor extend a neighbouring one.
        let mut demand = Series::constant(axis(), 80.0);
        demand.values_mut()[12] = 100.0; // exactly at capacity
        assert!(
            PeakDetector::new(0.0)
                .detect_all(&demand, &production())
                .is_empty(),
            "a slot at exactly the capacity line is not a peak"
        );
        // At-capacity slots split what would otherwise be one run.
        demand.values_mut()[11] = 120.0;
        demand.values_mut()[13] = 120.0;
        let peaks = PeakDetector::new(0.0).detect_all(&demand, &production());
        assert_eq!(peaks.len(), 2, "the at-capacity slot splits the run");
        assert_eq!(peaks[0].interval, Interval::new(11, 12));
        assert_eq!(peaks[1].interval, Interval::new(13, 14));
    }

    #[test]
    fn zero_threshold_reports_any_positive_excess() {
        let mut demand = Series::constant(axis(), 80.0);
        demand.values_mut()[6] = 100.0 + 1e-9; // barely above capacity
        let peaks = PeakDetector::new(0.0).detect_all(&demand, &production());
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].interval, Interval::new(6, 7));
        assert!(peaks[0].predicted_overuse.value() > 0.0);
        // The same excess vanishes under any positive threshold.
        assert!(PeakDetector::new(0.01)
            .detect_all(&demand, &production())
            .is_empty());
    }

    #[test]
    fn run_ending_at_the_last_slot_is_closed() {
        // A peak still rising at midnight must be closed at the day
        // boundary with its full excess, not dropped or truncated.
        let mut demand = Series::constant(axis(), 80.0);
        for h in 22..24 {
            demand.values_mut()[h] = 130.0;
        }
        let peaks = PeakDetector::new(0.0).detect_all(&demand, &production());
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].interval, Interval::new(22, 24));
        assert!((peaks[0].predicted_overuse.value() - 60.0).abs() < 1e-9);
        assert!((peaks[0].normal_use.value() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn paper_scenario_numbers() {
        // Figures 6–7: normal capacity 100, predicted usage 135 → overuse 35.
        let axis = TimeAxis::hourly();
        let mut demand = Series::constant(axis, 50.0);
        demand.values_mut()[18] = 135.0;
        let peak = PeakDetector::default()
            .detect(&demand, &production())
            .unwrap();
        assert!((peak.predicted_overuse.value() - 35.0).abs() < 1e-9);
        assert!((peak.overuse_fraction() - 0.35).abs() < 1e-9);
    }

    #[test]
    fn display_is_informative() {
        let peak = Peak {
            interval: Interval::new(18, 20),
            predicted_overuse: KilowattHours(35.0),
            normal_use: KilowattHours(100.0),
        };
        let s = peak.to_string();
        assert!(s.contains("35.0"));
        assert!(s.contains('%'));
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn negative_threshold_panics() {
        let _ = PeakDetector::new(-0.1);
    }

    #[test]
    fn zero_normal_use_gives_zero_fraction() {
        let peak = Peak {
            interval: Interval::new(0, 0),
            predicted_overuse: KilowattHours::ZERO,
            normal_use: KilowattHours::ZERO,
        };
        assert_eq!(peak.overuse_fraction(), 0.0);
    }
}
