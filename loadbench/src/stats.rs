//! Sample statistics and regression-bound semantics.

/// Samples that must lie beyond a reported percentile: a tail figure
/// resting on fewer is noise, not a measurement.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The median (mean of the middle pair for an even count); `None` when
/// there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The 1-based nearest rank of the `p`-th percentile among `n` samples,
/// if at least [`MIN_TAIL_SAMPLES`] samples lie above it.
fn supported_rank(n: usize, p: f64) -> Option<usize> {
    let rank = (p * n as f64 / 100.0).ceil() as usize;
    (rank >= 1 && rank <= n && n - rank >= MIN_TAIL_SAMPLES).then_some(rank)
}

/// The nearest-rank `p`-th percentile, reported only when at least
/// [`MIN_TAIL_SAMPLES`] samples lie above it.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let rank = supported_rank(samples.len(), p)?;
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank - 1])
}

/// Samples needed before [`tail_percentile`] reports the `p`-th
/// percentile.
pub fn samples_for_percentile(p: f64) -> usize {
    (1..)
        .find(|&n| supported_rank(n, p).is_some())
        .expect("p < 100")
}

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How far a metric may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Worse by more than `share` of the baseline and by more than
    /// `floor` in the metric's own unit.
    Relative { share: f64, floor: f64 },
    /// Deterministic: any worsening at all.
    Exact,
    /// Explanatory only; never a regression.
    Unbounded,
}

impl Bound {
    /// True if `candidate` is worse than `baseline` beyond this bound.
    pub fn regressed(self, better: Better, baseline: f64, candidate: f64) -> bool {
        let worse_by = match better {
            Better::Lower => candidate - baseline,
            Better::Higher => baseline - candidate,
        };
        match self {
            Bound::Relative { share, floor } => worse_by > (share * baseline.abs()).max(floor),
            Bound::Exact => worse_by > 0.0,
            Bound::Unbounded => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 40 samples: p75 is the 30th value, with exactly ten above it.
        assert_eq!(tail_percentile(&ramp(40), 75.0), Some(30.0));
        assert_eq!(tail_percentile(&ramp(39), 75.0), None);
        // p90 needs 100 samples.
        assert_eq!(tail_percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(tail_percentile(&ramp(99), 90.0), None);
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn sample_minimums_follow_the_tail_rule() {
        assert_eq!(samples_for_percentile(50.0), 20);
        assert_eq!(samples_for_percentile(75.0), 40);
        assert_eq!(samples_for_percentile(90.0), 100);
        for p in [50.0, 75.0, 90.0, 95.0] {
            let n = samples_for_percentile(p);
            assert!(tail_percentile(&ramp(n), p).is_some(), "p={p}");
            assert!(tail_percentile(&ramp(n - 1), p).is_none(), "p={p}");
        }
    }

    #[test]
    fn relative_bound_respects_direction() {
        let b = Bound::Relative {
            share: 0.1,
            floor: 0.0,
        };
        // Lower is better: only growth beyond 10 % regresses.
        assert!(!b.regressed(Better::Lower, 1.0, 1.09));
        assert!(b.regressed(Better::Lower, 1.0, 1.11));
        assert!(!b.regressed(Better::Lower, 1.0, 0.5));
        // Higher is better: only a drop beyond 10 % regresses.
        assert!(!b.regressed(Better::Higher, 100.0, 91.0));
        assert!(b.regressed(Better::Higher, 100.0, 89.0));
        assert!(!b.regressed(Better::Higher, 100.0, 150.0));
        // A negative baseline is scaled by its magnitude.
        assert!(!b.regressed(Better::Higher, -100.0, -109.0));
        assert!(b.regressed(Better::Higher, -100.0, -111.0));
    }

    #[test]
    fn absolute_floor_absorbs_small_baselines() {
        let b = Bound::Relative {
            share: 0.1,
            floor: 0.005,
        };
        // 2 ms → 6 ms is +200 % but only 4 ms: within the 5 ms floor.
        assert!(!b.regressed(Better::Lower, 0.002, 0.006));
        assert!(b.regressed(Better::Lower, 0.002, 0.0075));
        // Above the floor the relative share governs.
        assert!(!b.regressed(Better::Lower, 1.0, 1.09));
        assert!(b.regressed(Better::Lower, 1.0, 1.2));
    }

    #[test]
    fn exact_bound_flags_any_worsening_only() {
        assert!(Bound::Exact.regressed(Better::Higher, 10.0, 9.999));
        assert!(!Bound::Exact.regressed(Better::Higher, 10.0, 10.0));
        assert!(!Bound::Exact.regressed(Better::Higher, 10.0, 11.0));
        assert!(Bound::Exact.regressed(Better::Lower, 0.0, 1.0));
        assert!(!Bound::Unbounded.regressed(Better::Lower, 1.0, 1e9));
    }
}
