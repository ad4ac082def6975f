//! The adaptive-control subsystem: the campaign's three self-tuning
//! loops, closed behind the existing policy traits.
//!
//! The paper's Utility Agent carries an *own process control* component
//! (Figure 2) that evaluates every finished negotiation and feeds the
//! experience back into strategy determination — §7 names "dynamically
//! varying the value of beta on the basis of experience" as the open
//! extension. This module wires that evaluation, and two further
//! feedback paths, into the campaign day loop:
//!
//! 1. **Experience-tuned strategy** ([`AdaptiveTuning`], a
//!    [`TuningPolicy`]) — every settled report of a day is recorded
//!    into the campaign's [`OwnProcessControl`], and
//!    [`OwnProcessControl::tune`] adjusts the *next* day's
//!    [`UtilityAgentConfig`]: β steepens after long negotiations and
//!    flattens after overspent instant ones (clamped to
//!    [`BETA_MIN`](crate::utility_agent::own_process_control::BETA_MIN)..[`BETA_MAX`](crate::utility_agent::own_process_control::BETA_MAX)),
//!    and the allowed-overuse band drifts toward the residual overuse
//!    negotiations actually settle at (clamped to
//!    [`BAND_MAX`](crate::utility_agent::own_process_control::BAND_MAX)).
//! 2. **Intra-day renegotiation** ([`RenegotiateResidual`], a
//!    [`FeedbackPolicy`]) — when a day's negotiations leave residual
//!    overuse behind (typically after an economic stop under
//!    [`MarginalCostStop`](crate::campaign::MarginalCostStop)), peaks
//!    are re-detected on the *post-negotiation* predicted profile and
//!    renegotiated the **same day** on a fresh reward ladder, for a
//!    bounded number of passes.
//! 3. **Rolling predictor re-selection** ([`RollingWindow`], a
//!    [`PredictorPolicy`]) — instead of choosing one predictor from the
//!    warmup and keeping it for the season,
//!    [`powergrid::prediction::select_best`] re-runs every few days on
//!    a sliding window of the feedback-adjusted history, so the model
//!    follows the season as negotiated cut-downs (and weather drift)
//!    reshape consumption.
//!
//! All three loops live in the **sequential day boundary** of
//! [`CampaignProgress`](crate::campaign::CampaignProgress) — between
//! [`complete_day`](crate::campaign::CampaignProgress::complete_day)
//! and the next
//! [`next_day`](crate::campaign::CampaignProgress::next_day) — never
//! inside a day's negotiations. Adaptive campaigns therefore keep
//! the project's core invariant: byte-identical reports for any worker
//! thread count and for sync vs distributed-clean execution (pinned by
//! proptests in `tests/sweep_properties.rs`).
//!
//! ```
//! use loadbal_core::adaptive::{AdaptiveTuning, RenegotiateResidual, RollingWindow};
//! use loadbal_core::campaign::{CampaignBuilder, MarginalCostStop};
//! use powergrid::calendar::Horizon;
//! use powergrid::population::PopulationBuilder;
//! use powergrid::weather::{Season, WeatherModel};
//!
//! let homes = PopulationBuilder::new().households(40).build(11);
//! let horizon = Horizon::new(7, 0, Season::Winter);
//! let runner = CampaignBuilder::new(&homes, &WeatherModel::winter(), &horizon)
//!     .predictor(RollingWindow::standard(4, 2))
//!     .feedback(RenegotiateResidual::new(2, 0.005))
//!     .tuning(AdaptiveTuning)
//!     .stop_rule(MarginalCostStop)
//!     .build();
//! let report = runner.run();
//! assert_eq!(report, runner.run()); // a pure replay
//! ```

use crate::campaign::{ClosedLoop, FeedbackPolicy, IntervalOutcome, PredictorPolicy};
use crate::utility_agent::own_process_control::OwnProcessControl;
use crate::utility_agent::UtilityAgentConfig;
use powergrid::prediction::{
    select_best, HoltTrend, LoadPredictor, MovingAverage, SeasonalNaive, WeatherRegression,
};
use powergrid::series::Series;
use std::fmt;

// ---------------------------------------------------------------------
// Loop 1 — experience-tuned β and allowed-overuse band
// ---------------------------------------------------------------------

/// Decides the Utility Agent configuration for the *next* campaign day
/// from the campaign's own-process-control experience.
///
/// Called once per completed day in the sequential day boundary, after
/// every one of the day's settlement reports has been recorded into the
/// campaign's [`OwnProcessControl`]. Policies are `Send + Sync` so a
/// fleet can drive many campaigns from shared worker threads.
pub trait TuningPolicy: fmt::Debug + Send + Sync {
    /// The UA configuration for the next day, given the experience
    /// accumulated so far and the configuration used today.
    fn next_config(
        &self,
        control: &OwnProcessControl,
        current: &UtilityAgentConfig,
    ) -> UtilityAgentConfig;
}

/// The identity tuning policy (the default): every day negotiates with
/// the configuration the campaign was built with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StaticTuning;

impl TuningPolicy for StaticTuning {
    fn next_config(
        &self,
        _control: &OwnProcessControl,
        current: &UtilityAgentConfig,
    ) -> UtilityAgentConfig {
        *current
    }
}

/// Experience-based tuning: each day boundary applies
/// [`OwnProcessControl::tune`] to the configuration, so β and the
/// allowed-overuse band adapt from the campaign's own settlement
/// history — bounded by
/// [`BETA_MIN`](crate::utility_agent::own_process_control::BETA_MIN),
/// [`BETA_MAX`](crate::utility_agent::own_process_control::BETA_MAX) and
/// [`BAND_MAX`](crate::utility_agent::own_process_control::BAND_MAX).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveTuning;

impl TuningPolicy for AdaptiveTuning {
    fn next_config(
        &self,
        control: &OwnProcessControl,
        current: &UtilityAgentConfig,
    ) -> UtilityAgentConfig {
        control.tune(*current)
    }
}

// ---------------------------------------------------------------------
// Loop 2 — intra-day renegotiation of residual overuse
// ---------------------------------------------------------------------

/// How a campaign revisits residual overuse the same day: up to
/// `max_passes` extra negotiation rounds per day, each re-detecting
/// peaks on the post-negotiation predicted profile with `threshold` as
/// both the detection threshold and the pass's allowed-overuse band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenegotiationRule {
    /// Renegotiation passes allowed per day beyond the primary one.
    pub max_passes: usize,
    /// Minimum residual overuse fraction that warrants another pass —
    /// also the band the pass negotiates down to, so a completed pass
    /// leaves nothing it would itself re-detect.
    pub threshold: f64,
}

impl RenegotiationRule {
    /// A validated rule.
    ///
    /// # Panics
    ///
    /// Panics if `max_passes` is zero, or `threshold` is negative or
    /// not finite.
    pub fn new(max_passes: usize, threshold: f64) -> RenegotiationRule {
        assert!(max_passes > 0, "renegotiation needs at least one pass");
        assert!(
            threshold >= 0.0 && threshold.is_finite(),
            "renegotiation threshold must be ≥ 0, got {threshold}"
        );
        RenegotiationRule {
            max_passes,
            threshold,
        }
    }
}

/// Closed-loop feedback plus intra-day renegotiation: after a day's
/// negotiations settle (including the paper's economic stop leaving
/// sub-threshold residual overuse behind), the campaign re-detects
/// peaks on the post-negotiation predicted profile and renegotiates
/// them the **same day** — on a fresh reward ladder, so the residual is
/// shaved at entry-level reward rates rather than by escalating the
/// already-expensive table further. Bounded by the rule's `max_passes`;
/// a pass that shaves nothing ends the day's renegotiation early.
///
/// History entries are [`ClosedLoop`]: every pass's settled cut-downs
/// (primary and renegotiated) feed the next day's prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenegotiateResidual {
    rule: RenegotiationRule,
}

impl RenegotiateResidual {
    /// Closed-loop feedback with up to `max_passes` renegotiation
    /// passes per day over residual peaks of at least `threshold`
    /// overuse fraction (see [`RenegotiationRule::new`] for
    /// validation).
    pub fn new(max_passes: usize, threshold: f64) -> RenegotiateResidual {
        RenegotiateResidual {
            rule: RenegotiationRule::new(max_passes, threshold),
        }
    }
}

impl FeedbackPolicy for RenegotiateResidual {
    fn history_entry(&self, actual: &Series, outcomes: &[IntervalOutcome]) -> Series {
        ClosedLoop.history_entry(actual, outcomes)
    }

    fn renegotiate(&self) -> Option<RenegotiationRule> {
        Some(self.rule)
    }
}

// ---------------------------------------------------------------------
// Loop 3 — rolling predictor re-selection
// ---------------------------------------------------------------------

/// Re-runs [`select_best`] every `every` evaluated days on a sliding
/// window of the last `window` days of feedback-adjusted history, so
/// the campaign's predictor follows the season instead of being fixed
/// by the warmup — [`BacktestSelected`](crate::campaign::BacktestSelected)
/// with the choice kept live.
///
/// Re-selection happens in the sequential day boundary
/// ([`PredictorPolicy::reselect`]); each
/// [`DayOutcome`](crate::campaign::DayOutcome) records the predictor
/// that actually forecast it.
#[derive(Debug)]
pub struct RollingWindow {
    candidates: Vec<Box<dyn LoadPredictor>>,
    window: usize,
    every: usize,
}

impl RollingWindow {
    /// A rolling policy over the given candidates.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty, `window` is below 2 (the
    /// backtest needs a seed/score split) or `every` is zero.
    pub fn new(candidates: Vec<Box<dyn LoadPredictor>>, window: usize, every: usize) -> Self {
        assert!(
            !candidates.is_empty(),
            "rolling selection needs at least one candidate"
        );
        assert!(window >= 2, "the rolling backtest window needs ≥ 2 days");
        assert!(every > 0, "re-selection cadence must be ≥ 1 day");
        RollingWindow {
            candidates,
            window,
            every,
        }
    }

    /// The standard candidate set (moving average, seasonal naïve,
    /// calibrated weather regression, Holt's linear trend) over a
    /// `window`-day sliding window, re-selected every `every` days.
    pub fn standard(window: usize, every: usize) -> RollingWindow {
        RollingWindow::new(
            vec![
                Box::new(MovingAverage::new(3)),
                Box::new(SeasonalNaive),
                Box::new(WeatherRegression::calibrated()),
                Box::new(HoltTrend::new(0.5, 0.2)),
            ],
            window,
            every,
        )
    }

    /// The candidate models.
    pub fn candidates(&self) -> &[Box<dyn LoadPredictor>] {
        &self.candidates
    }

    /// [`select_best`] over the last `window` days of the given aligned
    /// history/weather series (`None` if the tail is too short to
    /// split).
    fn select<'s>(
        &'s self,
        history: &[Series],
        weathers: &[Series],
    ) -> Option<&'s dyn LoadPredictor> {
        let len = history.len().min(weathers.len());
        let tail = len.min(self.window);
        if tail < 2 {
            return None;
        }
        let refs: Vec<&dyn LoadPredictor> = self.candidates.iter().map(|b| b.as_ref()).collect();
        let split = (tail / 2).max(1);
        select_best(
            &refs,
            &history[len - tail..len],
            &weathers[len - tail..len],
            split,
        )
        .ok()
    }
}

impl PredictorPolicy for RollingWindow {
    fn min_warmup_days(&self) -> usize {
        2 // the first backtest needs a seed/score split
    }

    fn choose<'s>(&'s self, actuals: &[Series], weathers: &[Series]) -> &'s dyn LoadPredictor {
        self.select(actuals, weathers)
            .expect("warmup length validated by CampaignBuilder::build")
    }

    fn reselect<'s>(
        &'s self,
        days_evaluated: usize,
        history: &[Series],
        weathers: &[Series],
    ) -> Option<&'s dyn LoadPredictor> {
        if days_evaluated == 0 || !days_evaluated.is_multiple_of(self.every) {
            return None;
        }
        self.select(history, weathers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignBuilder, MarginalCostStop};
    use powergrid::calendar::Horizon;
    use powergrid::population::PopulationBuilder;
    use powergrid::time::TimeAxis;
    use powergrid::weather::{Season, WeatherModel};

    #[test]
    fn static_tuning_is_identity_and_adaptive_delegates() {
        let control = OwnProcessControl::new();
        let config = UtilityAgentConfig::paper();
        assert_eq!(StaticTuning.next_config(&control, &config), config);
        assert_eq!(
            AdaptiveTuning.next_config(&control, &config),
            control.tune(config)
        );
    }

    #[test]
    #[should_panic(expected = "at least one pass")]
    fn renegotiation_rule_rejects_zero_passes() {
        let _ = RenegotiationRule::new(0, 0.01);
    }

    #[test]
    #[should_panic(expected = "threshold must be ≥ 0")]
    fn renegotiation_rule_rejects_nan_threshold() {
        let _ = RenegotiationRule::new(1, f64::NAN);
    }

    #[test]
    fn renegotiate_residual_feeds_back_like_closed_loop() {
        let policy = RenegotiateResidual::new(2, 0.005);
        let rule = policy.renegotiate().expect("a renegotiation rule");
        assert_eq!(rule.max_passes, 2);
        let actual = Series::constant(TimeAxis::hourly(), 5.0);
        // With no outcomes the entry is the actual series untouched —
        // exactly ClosedLoop's behaviour.
        assert_eq!(
            policy.history_entry(&actual, &[]),
            ClosedLoop.history_entry(&actual, &[])
        );
    }

    #[test]
    #[should_panic(expected = "window needs ≥ 2")]
    fn rolling_window_rejects_tiny_window() {
        let _ = RollingWindow::standard(1, 1);
    }

    #[test]
    fn rolling_window_selects_from_the_tail() {
        let policy = RollingWindow::standard(4, 2);
        let axis = TimeAxis::quarter_hourly();
        let history: Vec<Series> = (0..8)
            .map(|d| Series::constant(axis, 4.0 + d as f64 * 0.1))
            .collect();
        let weathers: Vec<Series> = (0..8).map(|_| Series::constant(axis, 2.0)).collect();
        // Off-cadence days keep the current predictor.
        assert!(policy.reselect(0, &history, &weathers).is_none());
        assert!(policy.reselect(3, &history, &weathers).is_none());
        // On-cadence days re-select deterministically.
        let a = policy
            .reselect(2, &history, &weathers)
            .expect("cadence hit");
        let b = policy
            .reselect(2, &history, &weathers)
            .expect("cadence hit");
        assert_eq!(a.name(), b.name());
        let names: Vec<&str> = policy.candidates().iter().map(|c| c.name()).collect();
        assert!(names.contains(&a.name()));
        // A too-short tail declines rather than panicking.
        assert!(policy.reselect(2, &history[..1], &weathers[..1]).is_none());
    }

    #[test]
    fn adaptive_campaign_doc_example_is_deterministic() {
        let homes = PopulationBuilder::new().households(30).build(7);
        let horizon = Horizon::new(6, 0, Season::Winter);
        let build = || {
            CampaignBuilder::new(&homes, &WeatherModel::winter(), &horizon)
                .warmup_days(2)
                .predictor(RollingWindow::standard(3, 1))
                .feedback(RenegotiateResidual::new(2, 0.005))
                .tuning(AdaptiveTuning)
                .stop_rule(MarginalCostStop)
                .build()
        };
        let a = build().run();
        let b = build().run();
        assert_eq!(a, b);
    }
}
