//! Own process control within the UA (Figure 2): *evaluate negotiation
//! process*, and the experience-based tuning it feeds — the "on the
//! basis of experience" adaptation the paper flags as future work for β.
//! The §3.2.4 *determine general negotiation strategy* knowledge is
//! [`crate::strategy::select_method`].

use crate::methods::AnnouncementMethod;
use crate::session::NegotiationReport;
use crate::utility_agent::UtilityAgentConfig;

/// The *evaluate negotiation process* output for one finished
/// negotiation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NegotiationEvaluation {
    /// Method used.
    pub method: AnnouncementMethod,
    /// Rounds executed.
    pub rounds: u32,
    /// Relative overuse at the start.
    pub initial_overuse: f64,
    /// Relative overuse at the end.
    pub final_overuse: f64,
}

impl NegotiationEvaluation {
    /// Summarises a finished negotiation report. Reads only digest
    /// scalars, so evaluations (and the tuning built on them) are
    /// identical at every [`ReportTier`](crate::session::ReportTier).
    fn from_report(report: &NegotiationReport) -> NegotiationEvaluation {
        NegotiationEvaluation {
            method: report.method(),
            rounds: report.digest().rounds,
            initial_overuse: report.initial_overuse_fraction(),
            final_overuse: report.final_overuse_fraction(),
        }
    }
}

/// The UA's own-process-control state: the evaluation history
/// [`OwnProcessControl::tune`] adapts from.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OwnProcessControl {
    history: Vec<NegotiationEvaluation>,
}

/// Lower bound [`OwnProcessControl::tune`] clamps β to. Below this the
/// §6 increment `β·overuse·…` is smaller than ε for any realistic
/// overuse and tables stop moving.
pub const BETA_MIN: f64 = 0.25;

/// Upper bound [`OwnProcessControl::tune`] clamps β to — a little over
/// four of the ×1.5 steepening steps from the campaign default (14.0).
/// Uncapped, a long season of slow negotiations compounds β without
/// limit and a single table raise overshoots every customer ceiling.
pub const BETA_MAX: f64 = 64.0;

/// Upper bound [`OwnProcessControl::tune`] clamps the adapted
/// allowed-overuse band to — the paper's Figure-6 tolerance (15 %).
pub const BAND_MAX: f64 = 0.15;

/// Recent evaluations [`OwnProcessControl::tune`] adapts from, and all
/// that [`OwnProcessControl`] retains: the oldest is dropped first.
pub const TUNE_WINDOW: usize = 5;

/// Relative overuse above the allowed band [`OwnProcessControl::tune`]
/// treats as a failure to finish: settlements leaving more residual
/// than `max_allowed_overuse + RESIDUAL_MARGIN` steepen β instead of
/// letting an instant-convergence reading flatten it further.
pub const RESIDUAL_MARGIN: f64 = 0.01;

impl OwnProcessControl {
    /// Creates an empty history.
    pub fn new() -> OwnProcessControl {
        OwnProcessControl::default()
    }

    /// Records one finished negotiation. The history is windowed at
    /// [`TUNE_WINDOW`] evaluations: once full, the oldest is dropped.
    pub fn record(&mut self, report: &NegotiationReport) {
        if self.history.len() == TUNE_WINDOW {
            self.history.remove(0);
        }
        self.history
            .push(NegotiationEvaluation::from_report(report));
    }

    /// Experience-based tuning (§7 "dynamically varying the value of beta
    /// on the basis of experience"), over the last [`TUNE_WINDOW`]
    /// reward-table evaluations:
    ///
    /// * **β** — if recent negotiations ran long, saturated without
    ///   removing any overuse (a β too flat to move the table past ε
    ///   before anyone accepts), or kept settling with residual overuse
    ///   more than [`RESIDUAL_MARGIN`] above the allowed band (a β too
    ///   flat to finish the job before ε), steepen by ×1.5; if they
    ///   closed in very few rounds while clearing the peak to within
    ///   the band, flatten by ×0.75 — instant deals overspend.
    ///   Negotiations whose peak materialised with nothing to remove
    ///   carry no β signal and are ignored. Both
    ///   `formula.beta` and the
    ///   [`BetaPolicy`](crate::beta::BetaPolicy)'s base β move (the
    ///   session negotiates from the policy), clamped to
    ///   `[`[`BETA_MIN`]`, `[`BETA_MAX`]`]` so a long season cannot
    ///   compound β to absurd values.
    /// * **allowed-overuse band** — `max_allowed_overuse` moves halfway
    ///   toward the mean *final* overuse recent negotiations actually
    ///   settled at, clamped to `[0, `[`BAND_MAX`]`]`: the UA learns what
    ///   residual overuse is attainable and stops paying for the last
    ///   few unattainable percent (an intra-day renegotiation loop can
    ///   then revisit the residual on a fresh, cheap reward ladder).
    ///
    /// Returns the adjusted config; without reward-table history it is
    /// the identity.
    pub fn tune(&self, mut config: UtilityAgentConfig) -> UtilityAgentConfig {
        let recent: Vec<&NegotiationEvaluation> = self
            .history
            .iter()
            .rev()
            .take(TUNE_WINDOW)
            .filter(|e| e.method == AnnouncementMethod::RewardTables)
            .collect();
        if recent.is_empty() {
            return config;
        }
        // Only negotiations that had overuse to remove carry a β signal
        // (a peak that materialised under capacity settles instantly
        // whatever β is).
        let informative: Vec<&&NegotiationEvaluation> =
            recent.iter().filter(|e| e.initial_overuse > 0.0).collect();
        let factor = if informative.is_empty() {
            1.0
        } else {
            let n = informative.len() as f64;
            let mean_rounds: f64 = informative.iter().map(|e| f64::from(e.rounds)).sum::<f64>() / n;
            let mean_removed: f64 = informative
                .iter()
                .map(|e| (e.initial_overuse - e.final_overuse).max(0.0))
                .sum::<f64>()
                / n;
            let mean_final: f64 = informative.iter().map(|e| e.final_overuse).sum::<f64>() / n;
            let within_band = mean_final <= config.max_allowed_overuse + RESIDUAL_MARGIN;
            if mean_rounds > 6.0 || mean_removed <= 1e-9 || !within_band {
                // Long hauls, tables saturating before any customer
                // accepts (the low-β death spiral), or settlements that
                // keep leaving overuse above the band (a β too flat to
                // clear the peak before ε) — all call for a steeper
                // ladder.
                1.5
            } else if mean_rounds < 2.5 {
                // Instant deals overspend: a gentler ladder stops lower.
                0.75
            } else {
                1.0
            }
        };
        // The session reads its per-round β from the beta *policy*
        // (`formula.beta` is the default callers pass when driving the
        // update rule by hand) — tune both so the adaptation reaches
        // every path.
        config.formula.beta = (config.formula.beta * factor).clamp(BETA_MIN, BETA_MAX);
        config.beta_policy = config
            .beta_policy
            .with_base_beta((config.beta_policy.base_beta() * factor).clamp(BETA_MIN, BETA_MAX));
        let mean_final: f64 =
            recent.iter().map(|e| e.final_overuse).sum::<f64>() / recent.len() as f64;
        config.max_allowed_overuse =
            (0.5 * (config.max_allowed_overuse + mean_final)).clamp(0.0, BAND_MAX);
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ScenarioBuilder;

    #[test]
    fn evaluation_from_real_report() {
        let scenario = ScenarioBuilder::paper_figure_6().build();
        let report = scenario.run();
        let eval = NegotiationEvaluation::from_report(&report);
        assert!(eval.initial_overuse > eval.final_overuse);
    }

    #[test]
    fn history_records() {
        let scenario = ScenarioBuilder::paper_figure_6().build();
        let report = scenario.run();
        let mut opc = OwnProcessControl::new();
        opc.record(&report);
        assert_eq!(opc.history.len(), 1);
    }

    #[test]
    fn tuning_steepens_beta_after_long_negotiations() {
        let mut opc = OwnProcessControl::new();
        for _ in 0..5 {
            opc.history.push(NegotiationEvaluation {
                method: AnnouncementMethod::RewardTables,
                rounds: 10,
                initial_overuse: 0.35,
                final_overuse: 0.14,
            });
        }
        let base = UtilityAgentConfig::paper();
        let tuned = opc.tune(base);
        assert!(tuned.formula.beta > base.formula.beta);
        assert!(
            tuned.beta_policy.base_beta() > base.beta_policy.base_beta(),
            "the session's negotiation β (the policy) must adapt too"
        );
    }

    #[test]
    fn tuning_flattens_beta_after_instant_convergence() {
        let mut opc = OwnProcessControl::new();
        for _ in 0..5 {
            opc.history.push(NegotiationEvaluation {
                method: AnnouncementMethod::RewardTables,
                rounds: 1,
                initial_overuse: 0.2,
                final_overuse: 0.1,
            });
        }
        let base = UtilityAgentConfig::paper();
        let tuned = opc.tune(base);
        assert!(tuned.formula.beta < base.formula.beta);
    }

    #[test]
    fn tuning_steepens_beta_when_residual_stays_above_band() {
        // Instant convergence would normally flatten β — but these
        // settlements keep leaving 5 % overuse against a 0 % band, so
        // the ladder is too flat to finish the job and must steepen.
        let mut opc = OwnProcessControl::new();
        for _ in 0..TUNE_WINDOW {
            opc.history.push(NegotiationEvaluation {
                method: AnnouncementMethod::RewardTables,
                rounds: 1,
                initial_overuse: 0.2,
                final_overuse: 0.05,
            });
        }
        let base = UtilityAgentConfig::paper().with_max_allowed_overuse(0.0);
        let tuned = opc.tune(base);
        assert!(tuned.formula.beta > base.formula.beta);
        assert!(tuned.beta_policy.base_beta() > base.beta_policy.base_beta());
    }

    #[test]
    fn tuning_without_history_is_identity() {
        let opc = OwnProcessControl::new();
        let base = UtilityAgentConfig::paper();
        assert_eq!(opc.tune(base), base);
    }

    fn long_negotiation() -> NegotiationEvaluation {
        NegotiationEvaluation {
            method: AnnouncementMethod::RewardTables,
            rounds: 10,
            initial_overuse: 0.35,
            final_overuse: 0.14,
        }
    }

    #[test]
    fn beta_is_clamped_under_repeated_tuning() {
        let mut opc = OwnProcessControl::new();
        for _ in 0..TUNE_WINDOW {
            opc.history.push(long_negotiation());
        }
        // Steepening compounds ×1.5 per call; the clamp must hold it.
        let mut config = UtilityAgentConfig::paper();
        for _ in 0..50 {
            config = opc.tune(config);
            assert!(config.formula.beta <= BETA_MAX, "{}", config.formula.beta);
        }
        assert_eq!(config.formula.beta, BETA_MAX);
        // And the flattening direction bottoms out at BETA_MIN.
        let mut opc = OwnProcessControl::new();
        for _ in 0..TUNE_WINDOW {
            opc.history.push(NegotiationEvaluation {
                rounds: 1,
                ..long_negotiation()
            });
        }
        for _ in 0..50 {
            config = opc.tune(config);
            assert!(config.formula.beta >= BETA_MIN, "{}", config.formula.beta);
        }
        assert_eq!(config.formula.beta, BETA_MIN);
    }

    #[test]
    fn band_adapts_toward_achieved_overuse_and_is_clamped() {
        let mut opc = OwnProcessControl::new();
        for _ in 0..TUNE_WINDOW {
            opc.history.push(NegotiationEvaluation {
                // Mid-length rounds and residual within the band leave β
                // untouched: isolate the band rule.
                rounds: 4,
                final_overuse: 0.04,
                ..long_negotiation()
            });
        }
        let base = UtilityAgentConfig::paper().with_max_allowed_overuse(0.08);
        let tuned = opc.tune(base);
        assert_eq!(tuned.formula.beta, base.formula.beta);
        assert!((tuned.max_allowed_overuse - 0.06).abs() < 1e-12);
        // Converging toward the achieved residual, never past BAND_MAX.
        let mut config = base;
        for _ in 0..50 {
            config = opc.tune(config);
            assert!(config.max_allowed_overuse <= BAND_MAX);
        }
        assert!((config.max_allowed_overuse - 0.04).abs() < 1e-9);
        // Fully converging negotiations pull the band back to zero.
        let mut opc = OwnProcessControl::new();
        for _ in 0..TUNE_WINDOW {
            opc.history.push(NegotiationEvaluation {
                rounds: 4,
                final_overuse: 0.0,
                ..long_negotiation()
            });
        }
        for _ in 0..60 {
            config = opc.tune(config);
        }
        assert!(config.max_allowed_overuse < 1e-9);
    }

    #[test]
    fn history_is_windowed_at_tune_window() {
        let scenario = ScenarioBuilder::paper_figure_6().build();
        let report = scenario.run();
        let mut opc = OwnProcessControl::new();
        for _ in 0..(TUNE_WINDOW + 10) {
            opc.record(&report);
        }
        assert_eq!(opc.history.len(), TUNE_WINDOW);
    }
}
