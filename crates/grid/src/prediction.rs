//! Statistical load predictors.
//!
//! Section 5.1.2: "To predict the balance between consumption and
//! production, available information is analysed and predictions are
//! calculated on the basis of statistical models." The Utility Agent can be
//! configured with any of the predictors here; accuracy metrics allow the
//! experiments to compare them.

use crate::series::Series;
use crate::time::TimeAxis;
use std::fmt;

/// A statistical model predicting today's demand curve from recent history
/// and (optionally) today's weather forecast.
///
/// Predictors are `Send + Sync`: campaign and fleet runners share one
/// chosen predictor across worker threads (prediction itself is pure).
pub trait LoadPredictor: fmt::Debug + Send + Sync {
    /// Predicts today's demand (kWh per slot).
    ///
    /// `history` holds the most recent full days, oldest first; `weather`
    /// is today's forecast temperature series on the same axis.
    ///
    /// # Panics
    ///
    /// Implementations panic if `history` is empty or series axes disagree.
    fn predict(&self, history: &[Series], weather: &Series) -> Series;

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;
}

fn check_history(history: &[Series], axis: TimeAxis) {
    assert!(
        !history.is_empty(),
        "predictor needs at least one day of history"
    );
    for day in history {
        assert_eq!(
            day.axis(),
            axis,
            "history days must share the forecast axis"
        );
    }
}

/// Predicts the mean of the last `window` days.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MovingAverage {
    window: usize,
}

impl MovingAverage {
    /// Creates a moving-average predictor.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> MovingAverage {
        assert!(window > 0, "window must be positive");
        MovingAverage { window }
    }
}

impl LoadPredictor for MovingAverage {
    fn predict(&self, history: &[Series], weather: &Series) -> Series {
        check_history(history, weather.axis());
        let days = &history[history.len().saturating_sub(self.window)..];
        let mut acc = Series::zeros(weather.axis());
        for day in days {
            acc.accumulate(day);
        }
        acc.scale(1.0 / days.len() as f64)
    }

    fn name(&self) -> &'static str {
        "moving-average"
    }
}

/// Predicts a repeat of the most recent day (seasonal naïve with period 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SeasonalNaive;

impl LoadPredictor for SeasonalNaive {
    fn predict(&self, history: &[Series], weather: &Series) -> Series {
        check_history(history, weather.axis());
        history.last().expect("non-empty history").clone()
    }

    fn name(&self) -> &'static str {
        "seasonal-naive"
    }
}

/// Scales the recent average by a linear temperature-sensitivity term
/// fitted implicitly: colder forecast ⇒ higher prediction.
///
/// The model is `pred = avg · (1 + k · (T_ref − T_forecast))` with
/// reference temperature `t_ref` and sensitivity `k` per °C.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeatherRegression {
    base: MovingAverage,
    t_ref: f64,
    sensitivity: f64,
}

impl WeatherRegression {
    /// Creates a weather-sensitive predictor over a `window`-day average.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `sensitivity` is negative.
    pub fn new(window: usize, t_ref: f64, sensitivity: f64) -> WeatherRegression {
        assert!(sensitivity >= 0.0, "sensitivity must be non-negative");
        WeatherRegression {
            base: MovingAverage::new(window),
            t_ref,
            sensitivity,
        }
    }

    /// A predictor calibrated to the household heating model of this crate
    /// (reference 0 °C, ~1.5 %/°C aggregate sensitivity).
    pub fn calibrated() -> WeatherRegression {
        WeatherRegression::new(3, 0.0, 0.015)
    }
}

impl LoadPredictor for WeatherRegression {
    fn predict(&self, history: &[Series], weather: &Series) -> Series {
        let avg = self.base.predict(history, weather);
        let t_forecast = weather.mean();
        let factor = (1.0 + self.sensitivity * (self.t_ref - t_forecast)).max(0.0);
        avg.scale(factor)
    }

    fn name(&self) -> &'static str {
        "weather-regression"
    }
}

/// Holt's linear-trend method applied per slot: level and trend are
/// updated day over day, and the forecast extrapolates one day ahead.
/// Captures demand drifting with a cold spell where plain smoothing lags.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoltTrend {
    alpha: f64,
    beta: f64,
}

impl HoltTrend {
    /// Creates a Holt predictor with level gain `alpha` and trend gain
    /// `beta`.
    ///
    /// # Panics
    ///
    /// Panics unless both gains are in `(0, 1]`.
    pub fn new(alpha: f64, beta: f64) -> HoltTrend {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0, 1], got {alpha}"
        );
        assert!(
            beta > 0.0 && beta <= 1.0,
            "beta must be in (0, 1], got {beta}"
        );
        HoltTrend { alpha, beta }
    }
}

impl LoadPredictor for HoltTrend {
    fn predict(&self, history: &[Series], weather: &Series) -> Series {
        check_history(history, weather.axis());
        let n = weather.axis().slots_per_day();
        let mut level: Vec<f64> = history[0].values().to_vec();
        let mut trend = vec![0.0f64; n];
        for day in &history[1..] {
            for i in 0..n {
                let prev_level = level[i];
                level[i] = self.alpha * day[i] + (1.0 - self.alpha) * (prev_level + trend[i]);
                trend[i] = self.beta * (level[i] - prev_level) + (1.0 - self.beta) * trend[i];
            }
        }
        let values = (0..n).map(|i| (level[i] + trend[i]).max(0.0)).collect();
        Series::from_values(weather.axis(), values)
    }

    fn name(&self) -> &'static str {
        "holt-trend"
    }
}

/// Prediction-accuracy metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Accuracy {
    /// Root-mean-squared error, kWh per slot.
    rmse: f64,
    /// Mean absolute percentage error, in `[0, ∞)`.
    mape: f64,
}

/// Computes accuracy of `predicted` against `actual`.
///
/// Slots whose actual value is zero are excluded from the MAPE (their
/// percentage error is undefined); on a day with **no** nonzero slot — a
/// blackout — the MAPE is defined as `0.0` rather than `0.0 / 0.0`, so
/// downstream ranking ([`backtest`]'s sort, [`select_best`]) never meets
/// a NaN score and never panics mid-campaign.
///
/// # Panics
///
/// Panics if the series axes differ.
fn accuracy(predicted: &Series, actual: &Series) -> Accuracy {
    assert_eq!(
        predicted.axis(),
        actual.axis(),
        "accuracy over mismatched axes"
    );
    let n = actual.len() as f64;
    let mut se = 0.0;
    let mut ape = 0.0;
    let mut ape_n = 0.0;
    for (&p, &a) in predicted.values().iter().zip(actual.values()) {
        se += (p - a).powi(2);
        if a.abs() > f64::EPSILON {
            ape += ((p - a) / a).abs();
            ape_n += 1.0;
        }
    }
    Accuracy {
        rmse: (se / n).sqrt(),
        mape: if ape_n > 0.0 { ape / ape_n } else { 0.0 },
    }
}

/// Backtest report for one predictor over a rolling evaluation.
#[derive(Debug, Clone)]
pub struct BacktestRow {
    /// Predictor name.
    pub name: &'static str,
    /// Mean RMSE across evaluation days.
    pub mean_rmse: f64,
    /// Mean MAPE across evaluation days.
    pub mean_mape: f64,
    /// Days evaluated.
    pub days: usize,
}

/// Why a backtest (or [`select_best`]) could not be evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BacktestError {
    /// `warmup` was zero: the first prediction needs at least one day of
    /// history.
    NoWarmup,
    /// The data ends inside the warmup: nothing is left to score.
    InsufficientDays {
        /// Days of data supplied.
        days: usize,
        /// Warmup requested.
        warmup: usize,
    },
    /// The weather series list does not cover the actuals one-to-one.
    WeatherMismatch {
        /// Days of actual demand supplied.
        actuals: usize,
        /// Weather series supplied.
        weather: usize,
    },
    /// No candidate predictors were supplied.
    NoCandidates,
}

impl fmt::Display for BacktestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BacktestError::NoWarmup => write!(f, "backtest needs at least one warmup day"),
            BacktestError::InsufficientDays { days, warmup } => write!(
                f,
                "{days} days leave nothing to evaluate after {warmup} warmup days"
            ),
            BacktestError::WeatherMismatch { actuals, weather } => write!(
                f,
                "weather must cover every day: {actuals} actuals vs {weather} weather series"
            ),
            BacktestError::NoCandidates => write!(f, "no candidate predictors supplied"),
        }
    }
}

impl std::error::Error for BacktestError {}

fn check_backtest(
    predictors: &[&dyn LoadPredictor],
    actuals: &[Series],
    weather: &[Series],
    warmup: usize,
) -> Result<(), BacktestError> {
    if predictors.is_empty() {
        return Err(BacktestError::NoCandidates);
    }
    if warmup == 0 {
        return Err(BacktestError::NoWarmup);
    }
    if actuals.len() <= warmup {
        return Err(BacktestError::InsufficientDays {
            days: actuals.len(),
            warmup,
        });
    }
    if actuals.len() != weather.len() {
        return Err(BacktestError::WeatherMismatch {
            actuals: actuals.len(),
            weather: weather.len(),
        });
    }
    Ok(())
}

fn score(
    p: &dyn LoadPredictor,
    actuals: &[Series],
    weather: &[Series],
    warmup: usize,
) -> BacktestRow {
    let mut rmse = 0.0;
    let mut mape = 0.0;
    let mut days = 0;
    for d in warmup..actuals.len() {
        let pred = p.predict(&actuals[..d], &weather[d]);
        let acc = accuracy(&pred, &actuals[d]);
        rmse += acc.rmse;
        mape += acc.mape;
        days += 1;
    }
    BacktestRow {
        name: p.name(),
        mean_rmse: rmse / days as f64,
        mean_mape: mape / days as f64,
        days,
    }
}

/// Rolling-origin backtest: for each day `d ≥ warmup`, predict day `d`
/// from days `0..d` and score against the actual. Returns one row per
/// predictor, sorted by MAPE (best first).
///
/// # Errors
///
/// Returns a [`BacktestError`] when no predictors are supplied, `warmup`
/// is zero, `actuals.len() <= warmup`, or the weather series list does
/// not match the actuals.
pub fn backtest(
    predictors: &[&dyn LoadPredictor],
    actuals: &[Series],
    weather: &[Series],
    warmup: usize,
) -> Result<Vec<BacktestRow>, BacktestError> {
    check_backtest(predictors, actuals, weather, warmup)?;
    let mut rows: Vec<BacktestRow> = predictors
        .iter()
        .map(|p| score(*p, actuals, weather, warmup))
        .collect();
    rows.sort_by(|a, b| {
        a.mean_mape
            .partial_cmp(&b.mean_mape)
            .expect("finite scores")
    });
    Ok(rows)
}

/// Picks the candidate with the lowest rolling-backtest MAPE over the
/// given window (ties go to the earliest candidate, so selection is
/// deterministic even among equally accurate models).
///
/// This is the library form of the hand-rolled "backtest, then match on
/// the winner's name" loop campaigns used to carry; a campaign's
/// predictor policy calls it once over the warmup window.
///
/// # Errors
///
/// Returns a [`BacktestError`] under the same conditions as [`backtest`].
pub fn select_best<'a>(
    candidates: &[&'a dyn LoadPredictor],
    actuals: &[Series],
    weather: &[Series],
    warmup: usize,
) -> Result<&'a dyn LoadPredictor, BacktestError> {
    check_backtest(candidates, actuals, weather, warmup)?;
    let best = candidates
        .iter()
        .map(|p| score(*p, actuals, weather, warmup).mean_mape)
        .enumerate()
        .fold(None, |best: Option<(usize, f64)>, (i, mape)| match best {
            Some((_, b)) if b <= mape => best,
            _ => Some((i, mape)),
        })
        .expect("candidates checked non-empty")
        .0;
    Ok(candidates[best])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::aggregate_demand;
    use crate::population::PopulationBuilder;
    use crate::weather::WeatherModel;

    fn axis() -> TimeAxis {
        TimeAxis::hourly()
    }

    fn history_and_today() -> (Vec<Series>, Series, Series) {
        let homes = PopulationBuilder::new().households(40).build(11);
        let model = WeatherModel::winter();
        let mut history = Vec::new();
        for day in 0..5 {
            let weather = model.temperatures(&axis(), day);
            history.push(
                aggregate_demand(&homes, &weather, &axis(), day)
                    .series()
                    .clone(),
            );
        }
        let today_weather = model.temperatures(&axis(), 5);
        let today = aggregate_demand(&homes, &today_weather, &axis(), 5)
            .series()
            .clone();
        (history, today_weather, today)
    }

    #[test]
    fn moving_average_of_constant_history() {
        let history = vec![Series::constant(axis(), 2.0); 4];
        let weather = Series::constant(axis(), -4.0);
        let pred = MovingAverage::new(3).predict(&history, &weather);
        assert!((pred.sum() - 48.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one day")]
    fn empty_history_panics() {
        let weather = Series::constant(axis(), 0.0);
        let _ = MovingAverage::new(3).predict(&[], &weather);
    }

    #[test]
    fn seasonal_naive_repeats_yesterday() {
        let (history, weather, _) = history_and_today();
        let pred = SeasonalNaive.predict(&history, &weather);
        assert_eq!(&pred, history.last().unwrap());
    }

    #[test]
    fn weather_regression_raises_prediction_on_cold_forecast() {
        let history = vec![Series::constant(axis(), 5.0); 3];
        let reg = WeatherRegression::new(3, 0.0, 0.02);
        let cold = reg.predict(&history, &Series::constant(axis(), -10.0));
        let warm = reg.predict(&history, &Series::constant(axis(), 10.0));
        assert!(cold.sum() > warm.sum());
    }

    #[test]
    fn predictors_have_reasonable_accuracy_on_real_series() {
        let (history, weather, today) = history_and_today();
        let predictors: Vec<Box<dyn LoadPredictor>> = vec![
            Box::new(MovingAverage::new(3)),
            Box::new(SeasonalNaive),
            Box::new(WeatherRegression::calibrated()),
        ];
        for p in &predictors {
            let pred = p.predict(&history, &weather);
            let acc = accuracy(&pred, &today);
            assert!(
                acc.mape < 0.25,
                "{} MAPE {} too high for stable winter demand",
                p.name(),
                acc.mape
            );
        }
    }

    #[test]
    fn accuracy_of_perfect_prediction_is_zero() {
        let s = Series::constant(axis(), 3.0);
        let acc = accuracy(&s, &s);
        assert_eq!(acc.rmse, 0.0);
        assert_eq!(acc.mape, 0.0);
    }

    #[test]
    fn predictor_names_are_distinct() {
        let names = [
            MovingAverage::new(1).name(),
            SeasonalNaive.name(),
            WeatherRegression::calibrated().name(),
            HoltTrend::new(0.5, 0.3).name(),
        ];
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn holt_tracks_a_linear_trend() {
        // Demand rising 1 kWh/slot per day: Holt extrapolates, the plain
        // moving average lags behind.
        let history: Vec<Series> = (0..6)
            .map(|d| Series::constant(axis(), 10.0 + d as f64))
            .collect();
        let actual_next = Series::constant(axis(), 16.0);
        let weather = Series::constant(axis(), 0.0);
        let holt = HoltTrend::new(0.6, 0.4).predict(&history, &weather);
        let ma = MovingAverage::new(3).predict(&history, &weather);
        let holt_err = accuracy(&holt, &actual_next).rmse;
        let ma_err = accuracy(&ma, &actual_next).rmse;
        assert!(
            holt_err < ma_err,
            "Holt {holt_err} should beat MA {ma_err} on a trend"
        );
    }

    #[test]
    fn holt_never_predicts_negative() {
        let history: Vec<Series> = (0..4)
            .map(|d| Series::constant(axis(), (3 - d) as f64))
            .collect();
        let weather = Series::constant(axis(), 0.0);
        let pred = HoltTrend::new(0.9, 0.9).predict(&history, &weather);
        assert!(pred.min() >= 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn holt_validates_gains() {
        let _ = HoltTrend::new(0.0, 0.5);
    }

    #[test]
    fn backtest_ranks_predictors() {
        let (history, _, _) = history_and_today();
        let homes = PopulationBuilder::new().households(40).build(11);
        let model = WeatherModel::winter();
        let mut actuals = history.clone();
        let mut weathers: Vec<Series> = (0..actuals.len() as u64)
            .map(|d| model.temperatures(&axis(), d))
            .collect();
        for day in 5..9u64 {
            let w = model.temperatures(&axis(), day);
            actuals.push(aggregate_demand(&homes, &w, &axis(), day).series().clone());
            weathers.push(w);
        }
        let ma = MovingAverage::new(3);
        let naive = SeasonalNaive;
        let holt = HoltTrend::new(0.5, 0.2);
        let rows = backtest(&[&ma, &naive, &holt], &actuals, &weathers, 3).expect("enough days");
        assert_eq!(rows.len(), 3);
        // Sorted best-first.
        for pair in rows.windows(2) {
            assert!(pair[0].mean_mape <= pair[1].mean_mape);
        }
        for row in &rows {
            assert!(row.days == actuals.len() - 3);
            assert!(
                row.mean_mape < 0.5,
                "{} wildly off: {}",
                row.name,
                row.mean_mape
            );
        }
    }

    #[test]
    fn backtest_needs_evaluation_days() {
        let actuals = vec![Series::constant(axis(), 1.0); 2];
        let weathers = vec![Series::constant(axis(), 0.0); 2];
        let ma = MovingAverage::new(1);
        let err = backtest(&[&ma], &actuals, &weathers, 2).unwrap_err();
        assert_eq!(err, BacktestError::InsufficientDays { days: 2, warmup: 2 });
        assert!(err.to_string().contains("nothing to evaluate"));
        // The other misuse modes are errors too, never panics.
        assert_eq!(
            backtest(&[&ma], &actuals, &weathers, 0).unwrap_err(),
            BacktestError::NoWarmup
        );
        assert_eq!(
            backtest(&[], &actuals, &weathers, 1).unwrap_err(),
            BacktestError::NoCandidates
        );
        let short_weather = vec![Series::constant(axis(), 0.0); 1];
        assert_eq!(
            backtest(&[&ma], &actuals, &short_weather, 1).unwrap_err(),
            BacktestError::WeatherMismatch {
                actuals: 2,
                weather: 1
            }
        );
    }

    #[test]
    fn select_best_returns_the_lowest_mape_candidate() {
        let (history, _, _) = history_and_today();
        let homes = PopulationBuilder::new().households(40).build(11);
        let model = WeatherModel::winter();
        let mut actuals = history;
        let mut weathers: Vec<Series> = (0..actuals.len() as u64)
            .map(|d| model.temperatures(&axis(), d))
            .collect();
        for day in 5..9u64 {
            let w = model.temperatures(&axis(), day);
            actuals.push(aggregate_demand(&homes, &w, &axis(), day).series().clone());
            weathers.push(w);
        }
        let ma = MovingAverage::new(3);
        let naive = SeasonalNaive;
        let holt = HoltTrend::new(0.5, 0.2);
        let candidates: [&dyn LoadPredictor; 3] = [&ma, &naive, &holt];
        let best = select_best(&candidates, &actuals, &weathers, 3).expect("enough days");
        let rows = backtest(&candidates, &actuals, &weathers, 3).expect("enough days");
        assert_eq!(
            best.name(),
            rows[0].name,
            "select_best must agree with the backtest ranking"
        );
        // Errors propagate exactly as for `backtest`.
        assert_eq!(
            select_best(&candidates, &actuals[..3], &weathers[..3], 3).unwrap_err(),
            BacktestError::InsufficientDays { days: 3, warmup: 3 }
        );
    }

    #[test]
    fn blackout_day_yields_zero_mape_not_nan() {
        // Regression: an all-zero actual day has ape_n == 0; the MAPE
        // must be defined as 0.0, not NaN, or `backtest`'s score sort and
        // `select_best` panic on `.expect("finite scores")` mid-campaign.
        let blackout = Series::zeros(axis());
        let pred = Series::constant(axis(), 3.0);
        let acc = accuracy(&pred, &blackout);
        assert_eq!(acc.mape, 0.0, "blackout MAPE is defined as zero");
        assert!(acc.rmse.is_finite());
    }

    #[test]
    fn backtest_and_selection_survive_a_blackout_day() {
        // A grid-wide outage in the scored window: every predictor's MAPE
        // stays finite, ranking still works, and selection is
        // deterministic — no NaN poisoning the sort.
        let mut actuals = vec![Series::constant(axis(), 5.0); 3];
        actuals.push(Series::zeros(axis())); // the blackout day, scored
        actuals.push(Series::constant(axis(), 5.0));
        let weathers = vec![Series::constant(axis(), -2.0); actuals.len()];
        let ma = MovingAverage::new(2);
        let naive = SeasonalNaive;
        let candidates: [&dyn LoadPredictor; 2] = [&ma, &naive];
        let rows = backtest(&candidates, &actuals, &weathers, 2).expect("enough days");
        for row in &rows {
            assert!(row.mean_mape.is_finite(), "{}: {}", row.name, row.mean_mape);
            assert!(row.mean_rmse.is_finite());
        }
        let best = select_best(&candidates, &actuals, &weathers, 2).expect("enough days");
        assert_eq!(best.name(), rows[0].name);
    }

    #[test]
    fn select_best_breaks_ties_deterministically() {
        // Two copies of the same model score identically; the earliest
        // candidate must win so campaign predictor selection is replayable.
        let history = vec![Series::constant(axis(), 2.0); 5];
        let weather = vec![Series::constant(axis(), 0.0); 5];
        let a = MovingAverage::new(2);
        let b = MovingAverage::new(2);
        let c = MovingAverage::new(3);
        let candidates: [&dyn LoadPredictor; 3] = [&a, &b, &c];
        let best = select_best(&candidates, &history, &weather, 2).expect("enough days");
        assert!(std::ptr::eq(
            best as *const dyn LoadPredictor as *const u8,
            &a as *const MovingAverage as *const u8
        ));
    }
}
