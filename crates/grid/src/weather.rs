//! Weather model driving temperature-sensitive demand.
//!
//! The paper's Utility Agent "acquires information from the External World
//! (e.g., weather conditions)" to predict demand. We model daily temperature
//! as a seasonal base level plus a sinusoidal diurnal cycle plus seeded
//! noise, which is enough structure for the weather-regression predictor to
//! have signal to exploit.

use crate::series::Series;
use crate::time::TimeAxis;
use crate::units::Celsius;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Half of the day/night temperature swing, in °C.
const DIURNAL_AMPLITUDE: f64 = 3.0;
/// Standard deviation of the per-slot noise, in °C.
const NOISE_SD: f64 = 0.5;

/// Season of the year, selecting a base temperature regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Season {
    /// Cold, heating-dominated demand (the paper's peak scenario).
    Winter,
    /// Mild shoulder season.
    Spring,
    /// Warm, low heating demand.
    Summer,
    /// Mild shoulder season.
    Autumn,
}

impl Season {
    /// Mean daily temperature for the season (northern-European climate).
    fn base_temperature(self) -> Celsius {
        match self {
            Season::Winter => Celsius(-4.0),
            Season::Spring => Celsius(8.0),
            Season::Summer => Celsius(19.0),
            Season::Autumn => Celsius(7.0),
        }
    }

    /// All four seasons.
    pub fn all() -> [Season; 4] {
        [
            Season::Winter,
            Season::Spring,
            Season::Summer,
            Season::Autumn,
        ]
    }
}

impl std::fmt::Display for Season {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Season::Winter => "winter",
            Season::Spring => "spring",
            Season::Summer => "summer",
            Season::Autumn => "autumn",
        };
        f.write_str(name)
    }
}

/// A parametric daily temperature model.
///
/// # Example
///
/// ```
/// use powergrid::weather::WeatherModel;
/// use powergrid::time::TimeAxis;
///
/// let axis = TimeAxis::hourly();
/// let temps = WeatherModel::winter().temperatures(&axis, 1);
/// assert_eq!(temps.len(), 24);
/// // Winter days stay cold.
/// assert!(temps.max() < 10.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WeatherModel {
    season: Season,
    /// Offset added to the seasonal base (cold snaps, warm spells).
    anomaly: f64,
}

impl WeatherModel {
    /// Creates a model for a season: a ±3 °C diurnal swing around the
    /// season's base temperature, plus Gaussian noise of 0.5 °C standard
    /// deviation per slot.
    pub fn new(season: Season) -> WeatherModel {
        WeatherModel {
            season,
            anomaly: 0.0,
        }
    }

    /// Winter model (the Figure 1 peak scenario).
    pub fn winter() -> WeatherModel {
        WeatherModel::new(Season::Winter)
    }

    /// Adds a temperature anomaly (e.g. `-6.0` for a cold snap).
    pub fn with_anomaly(mut self, anomaly: f64) -> WeatherModel {
        self.anomaly = anomaly;
        self
    }

    /// The season this model describes.
    pub fn season(&self) -> Season {
        self.season
    }

    /// Generates the day's temperature series (°C per slot), seeded for
    /// reproducibility: the same seed always yields the same weather.
    pub fn temperatures(&self, axis: &TimeAxis, seed: u64) -> Series {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_5eed);
        let base = self.season.base_temperature().value() + self.anomaly;
        Series::from_fn(*axis, |t| {
            // Coldest around 05:00, warmest around 15:00.
            let phase = (t - 15.0 / 24.0) * std::f64::consts::TAU;
            let diurnal = DIURNAL_AMPLITUDE * phase.cos();
            // Box-Muller on two uniform draws keeps us independent of
            // rand_distr, which is not in the sanctioned crate set.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let noise = NOISE_SD * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            base + diurnal + noise
        })
    }
}

impl Default for WeatherModel {
    fn default() -> Self {
        WeatherModel::winter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seasons_have_expected_ordering() {
        assert!(Season::Winter.base_temperature() < Season::Spring.base_temperature());
        assert!(Season::Spring.base_temperature() < Season::Summer.base_temperature());
        assert_eq!(Season::all().len(), 4);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let axis = TimeAxis::hourly();
        let model = WeatherModel::winter();
        assert_eq!(model.temperatures(&axis, 1), model.temperatures(&axis, 1));
        assert_ne!(model.temperatures(&axis, 1), model.temperatures(&axis, 2));
    }

    #[test]
    fn winter_colder_than_summer() {
        let axis = TimeAxis::hourly();
        let w = WeatherModel::winter().temperatures(&axis, 3).mean();
        let s = WeatherModel::new(Season::Summer)
            .temperatures(&axis, 3)
            .mean();
        assert!(w < s);
    }

    #[test]
    fn anomaly_shifts_mean() {
        let axis = TimeAxis::hourly();
        // Same seed, same noise draws: only the base level moves.
        let normal = WeatherModel::winter().temperatures(&axis, 0).mean();
        let snap = WeatherModel::winter()
            .with_anomaly(-6.0)
            .temperatures(&axis, 0)
            .mean();
        assert!((normal - snap - 6.0).abs() < 1e-9);
    }

    #[test]
    fn diurnal_cycle_peaks_in_afternoon() {
        // Summed over many seeded days the noise averages out and the
        // diurnal cycle shows.
        let axis = TimeAxis::hourly();
        let mut temps = Series::zeros(axis);
        for seed in 0..64 {
            temps.accumulate(&WeatherModel::winter().temperatures(&axis, seed));
        }
        let warmest = temps.argmax();
        assert!((14..=16).contains(&warmest), "warmest hour was {warmest}");
    }

    #[test]
    fn every_slot_stays_within_the_swing_plus_the_noise_bound() {
        // Box-Muller's largest draw is sqrt(-2 ln ε) standard deviations.
        let bound = DIURNAL_AMPLITUDE + NOISE_SD * (-2.0 * f64::EPSILON.ln()).sqrt();
        let base = Season::Winter.base_temperature().value();
        let axis = TimeAxis::quarter_hourly();
        for seed in 0..16 {
            let temps = WeatherModel::winter().temperatures(&axis, seed);
            for i in 0..temps.len() {
                assert!((temps[i] - base).abs() <= bound, "slot {i}: {}", temps[i]);
            }
        }
    }
}
