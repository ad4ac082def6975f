//! Household devices and their consumption behaviour.
//!
//! Section 2 of the paper notes that consumers "all have devices that
//! consume electricity to various degrees" and that consumer models are
//! "partially defined by the type of equipment they use within their homes".
//! Each device contributes a time-of-day load shape; part of that load is
//! *flexible* (sheddable or deferrable), which is what a Resource Consumer
//! Agent can offer as saving potential during a cut-down interval.

use crate::series::Series;
use crate::time::{Interval, TimeAxis};
use crate::units::{Fraction, KilowattHours, Kilowatts};

/// Categories of domestic electrical equipment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Electric space heating — temperature sensitive, highly flexible.
    SpaceHeating,
    /// Hot-water boiler — storage makes it deferrable.
    WaterHeater,
    /// Refrigerator/freezer — constant base load, briefly deferrable.
    Refrigeration,
    /// Lighting — evening-peaked, barely flexible.
    Lighting,
    /// Stove and oven — sharp dinner peak, inflexible (comfort critical).
    Cooking,
    /// Washing machine, dryer, dishwasher — fully deferrable.
    Laundry,
    /// TV and electronics — evening use, inflexible.
    Entertainment,
    /// Everything else (standby, pumps, ...).
    Other,
}

impl DeviceKind {
    /// All device kinds.
    pub fn all() -> [DeviceKind; 8] {
        [
            DeviceKind::SpaceHeating,
            DeviceKind::WaterHeater,
            DeviceKind::Refrigeration,
            DeviceKind::Lighting,
            DeviceKind::Cooking,
            DeviceKind::Laundry,
            DeviceKind::Entertainment,
            DeviceKind::Other,
        ]
    }

    /// Typical rated power for the kind.
    fn typical_power(self) -> Kilowatts {
        match self {
            DeviceKind::SpaceHeating => Kilowatts(3.0),
            DeviceKind::WaterHeater => Kilowatts(2.0),
            DeviceKind::Refrigeration => Kilowatts(0.15),
            DeviceKind::Lighting => Kilowatts(0.4),
            DeviceKind::Cooking => Kilowatts(2.5),
            DeviceKind::Laundry => Kilowatts(2.0),
            DeviceKind::Entertainment => Kilowatts(0.3),
            DeviceKind::Other => Kilowatts(0.2),
        }
    }

    /// Fraction of the kind's load that can be shed or deferred during a
    /// cut-down interval without unacceptable discomfort.
    fn typical_flexibility(self) -> Fraction {
        let f = match self {
            DeviceKind::SpaceHeating => 0.6,
            DeviceKind::WaterHeater => 0.8,
            DeviceKind::Refrigeration => 0.3,
            DeviceKind::Lighting => 0.1,
            DeviceKind::Cooking => 0.05,
            DeviceKind::Laundry => 1.0,
            DeviceKind::Entertainment => 0.05,
            DeviceKind::Other => 0.2,
        };
        Fraction::clamped(f)
    }

    /// True if the load rises when outdoor temperature falls.
    fn is_temperature_sensitive(self) -> bool {
        matches!(self, DeviceKind::SpaceHeating | DeviceKind::WaterHeater)
    }

    /// The load multiplier a day with mean outdoor temperature
    /// `mean_temp` °C applies to the kind: heating demand grows roughly
    /// linearly below a 16 °C balance point, ~4.5% extra load per degree
    /// below it; other kinds ignore the weather.
    pub(crate) fn temperature_factor(self, mean_temp: f64) -> f64 {
        if self.is_temperature_sensitive() {
            1.0f64.max(1.0 + 0.045 * (16.0 - mean_temp))
        } else {
            1.0
        }
    }

    /// Fills `shape` with the duty cycle evaluated at each slot midpoint
    /// of a day discretised into `shape.len()` slots — the same
    /// evaluation grid as [`Series::from_fn`]. The shape depends only on
    /// the kind and the resolution, never on weather or household, so
    /// the slab kernels compute it once per kind and reuse it all season
    /// (see [`crate::slab::DemandScratch`]).
    pub fn duty_shape_into(self, shape: &mut [f64]) {
        let n = shape.len();
        for (i, slot) in shape.iter_mut().enumerate() {
            *slot = self.duty_cycle((i as f64 + 0.5) / n as f64);
        }
    }

    /// Normalised time-of-day duty-cycle shape, evaluated at fractional day
    /// position `t ∈ [0, 1)`. Values in `[0, 1]`, representing the fraction
    /// of rated power drawn on an average day.
    pub fn duty_cycle(self, t: f64) -> f64 {
        // Helper: smooth bump centred at `c` (fraction of day) with width `w`.
        fn bump(t: f64, c: f64, w: f64) -> f64 {
            // Wrap-around distance on the daily circle.
            let mut d = (t - c).abs();
            if d > 0.5 {
                d = 1.0 - d;
            }
            (-0.5 * (d / w).powi(2)).exp()
        }
        match self {
            // Heating runs all day, dips at night (setback), rises morning
            // and evening when people are home.
            DeviceKind::SpaceHeating => {
                0.35 + 0.25 * bump(t, 7.5 / 24.0, 1.5 / 24.0)
                    + 0.40 * bump(t, 19.0 / 24.0, 2.5 / 24.0)
            }
            // Boiler reheats after morning showers and evening use.
            DeviceKind::WaterHeater => {
                0.10 + 0.55 * bump(t, 7.0 / 24.0, 1.0 / 24.0)
                    + 0.45 * bump(t, 21.0 / 24.0, 1.5 / 24.0)
            }
            DeviceKind::Refrigeration => 1.0,
            DeviceKind::Lighting => {
                0.05 + 0.30 * bump(t, 7.0 / 24.0, 1.0 / 24.0)
                    + 0.85 * bump(t, 19.5 / 24.0, 2.0 / 24.0)
            }
            DeviceKind::Cooking => {
                0.35 * bump(t, 12.0 / 24.0, 0.7 / 24.0) + 0.95 * bump(t, 18.0 / 24.0, 0.8 / 24.0)
            }
            DeviceKind::Laundry => {
                0.25 * bump(t, 10.0 / 24.0, 1.5 / 24.0) + 0.45 * bump(t, 18.5 / 24.0, 1.5 / 24.0)
            }
            DeviceKind::Entertainment => 0.10 + 0.75 * bump(t, 20.0 / 24.0, 1.8 / 24.0),
            DeviceKind::Other => 0.5,
        }
    }
}

/// The energy (kWh) one kilowatt of rated power draws over `interval`
/// under the duty shape `shape` (one value per slot of a day whose
/// slots last `slot_hours`): `Σ duty × slot hours` over the interval's
/// slots within the day, summed left to right. Interval demand is
/// linear in device power, so a device's energy over the interval is
/// its power times this integral. The one definition that
/// [`Household::interval_flexibility`] and the slab kernel
/// [`interval_flexibility_slab`] share, which keeps the two bit for bit
/// equal.
///
/// [`Household::interval_flexibility`]: crate::household::Household::interval_flexibility
/// [`interval_flexibility_slab`]: crate::slab::interval_flexibility_slab
pub(crate) fn duty_integral(shape: &[f64], slot_hours: f64, interval: Interval) -> f64 {
    let n = shape.len();
    let clipped = interval.intersect(Interval::new(0, n));
    // An interval entirely beyond the day clips to an empty range whose
    // bounds still sit past `n`; clamp so the slice stays in range.
    shape[clipped.start().min(n)..clipped.end().min(n)]
        .iter()
        .fold(0.0, |acc, &duty| acc + duty * slot_hours)
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            DeviceKind::SpaceHeating => "space heating",
            DeviceKind::WaterHeater => "water heater",
            DeviceKind::Refrigeration => "refrigeration",
            DeviceKind::Lighting => "lighting",
            DeviceKind::Cooking => "cooking",
            DeviceKind::Laundry => "laundry",
            DeviceKind::Entertainment => "entertainment",
            DeviceKind::Other => "other",
        };
        f.write_str(name)
    }
}

/// A concrete device instance in a household.
///
/// # Example
///
/// ```
/// use powergrid::device::{Device, DeviceKind};
/// use powergrid::time::TimeAxis;
///
/// let heater = Device::typical(DeviceKind::SpaceHeating);
/// let axis = TimeAxis::hourly();
/// let load = heater.load_profile(&axis, -5.0, 1.0);
/// assert!(load.total().value() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    kind: DeviceKind,
    rated_power: Kilowatts,
    flexibility: Fraction,
}

impl Device {
    /// Creates a device with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `rated_power` is negative or non-finite.
    pub fn new(kind: DeviceKind, rated_power: Kilowatts, flexibility: Fraction) -> Device {
        assert!(
            rated_power.value() >= 0.0 && rated_power.is_finite(),
            "rated power must be a non-negative finite number, got {rated_power}"
        );
        Device {
            kind,
            rated_power,
            flexibility,
        }
    }

    /// Creates a device with the kind's typical power and flexibility.
    pub fn typical(kind: DeviceKind) -> Device {
        Device::new(kind, kind.typical_power(), kind.typical_flexibility())
    }

    /// The device category.
    pub fn kind(&self) -> DeviceKind {
        self.kind
    }

    /// Rated (nameplate) power.
    pub fn rated_power(&self) -> Kilowatts {
        self.rated_power
    }

    /// Sheddable fraction of the device's load.
    pub fn flexibility(&self) -> Fraction {
        self.flexibility
    }

    /// The device's load (kWh per slot) for a day with mean outdoor
    /// temperature `mean_temp` °C; `intensity` scales overall usage
    /// (occupancy, habits).
    pub fn load_profile(&self, axis: &TimeAxis, mean_temp: f64, intensity: f64) -> Series {
        let power = self.power(mean_temp, intensity);
        let slot_hours = axis.slot_hours();
        Series::from_fn(*axis, |t| power * self.kind.duty_cycle(t) * slot_hours)
    }

    /// The power (kW) the device's duty cycle scales on a day with mean
    /// outdoor temperature `mean_temp` °C at usage `intensity`:
    /// `rated × intensity × temperature factor`, left-associated.
    pub(crate) fn power(&self, mean_temp: f64, intensity: f64) -> f64 {
        self.rated_power.value() * intensity * self.kind.temperature_factor(mean_temp)
    }

    /// Energy this device could save over `interval` on a day with the
    /// given load profile: flexibility × its energy during the interval
    /// (clipped to the day).
    pub fn saving_potential(&self, load: &Series, interval: Interval) -> KilowattHours {
        self.flexibility * load.energy_over(interval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimeOfDay;

    #[test]
    fn typical_devices_are_constructible() {
        for kind in DeviceKind::all() {
            let d = Device::typical(kind);
            assert_eq!(d.kind(), kind);
            assert!(d.rated_power().value() > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_power_panics() {
        let _ = Device::new(DeviceKind::Other, Kilowatts(-1.0), Fraction::ZERO);
    }

    #[test]
    fn duty_cycles_are_bounded() {
        for kind in DeviceKind::all() {
            for i in 0..96 {
                let t = i as f64 / 96.0;
                let d = kind.duty_cycle(t);
                assert!((0.0..=1.2).contains(&d), "{kind} duty {d} at {t}");
            }
        }
    }

    #[test]
    fn cooking_peaks_at_dinner() {
        let axis = TimeAxis::quarter_hourly();
        let stove = Device::typical(DeviceKind::Cooking);
        let load = stove.load_profile(&axis, 0.0, 1.0);
        let peak_slot = load.argmax();
        let dinner = axis.slot_of(TimeOfDay::hm(18, 0).unwrap());
        assert!(
            (peak_slot as i64 - dinner as i64).abs() <= 4,
            "peak at slot {peak_slot}"
        );
    }

    #[test]
    fn heating_increases_when_colder() {
        let axis = TimeAxis::hourly();
        let heater = Device::typical(DeviceKind::SpaceHeating);
        let mild = heater.load_profile(&axis, 10.0, 1.0).total();
        let cold = heater.load_profile(&axis, -10.0, 1.0).total();
        assert!(cold > mild);
    }

    #[test]
    fn non_sensitive_device_ignores_temperature() {
        let axis = TimeAxis::hourly();
        let tv = Device::typical(DeviceKind::Entertainment);
        let a = tv.load_profile(&axis, 10.0, 1.0).total();
        let b = tv.load_profile(&axis, -10.0, 1.0).total();
        assert!((a.value() - b.value()).abs() < 1e-12);
    }

    #[test]
    fn intensity_scales_linearly() {
        let axis = TimeAxis::hourly();
        let lamp = Device::typical(DeviceKind::Lighting);
        let one = lamp.load_profile(&axis, 5.0, 1.0).total();
        let two = lamp.load_profile(&axis, 5.0, 2.0).total();
        assert!((two.value() - 2.0 * one.value()).abs() < 1e-9);
    }

    #[test]
    fn saving_potential_respects_flexibility() {
        let axis = TimeAxis::hourly();
        let rigid = Device::new(DeviceKind::Cooking, Kilowatts(2.0), Fraction::ZERO);
        let load = rigid.load_profile(&axis, 0.0, 1.0);
        let evening = Interval::new(17, 21);
        assert_eq!(rigid.saving_potential(&load, evening), KilowattHours::ZERO);

        let flexible = Device::new(DeviceKind::Laundry, Kilowatts(2.0), Fraction::ONE);
        let load2 = flexible.load_profile(&axis, 0.0, 1.0);
        let potential = flexible.saving_potential(&load2, evening);
        assert_eq!(potential, load2.energy_over(evening));
    }

    #[test]
    fn fridge_is_flat() {
        let axis = TimeAxis::hourly();
        let fridge = Device::typical(DeviceKind::Refrigeration);
        let load = fridge.load_profile(&axis, 5.0, 1.0);
        assert!((load.max() - load.min()).abs() < 1e-12);
    }
}
