//! Aggregate demand curves — the substrate behind Figure 1 of the paper.
//!
//! Summing household profiles over a winter weekday produces the classic
//! demand curve with an evening peak; where it exceeds normal production
//! capacity, the expensive production band of Figure 1 is entered.

use crate::device::DeviceKind;
use crate::household::Household;
use crate::production::ProductionModel;
use crate::series::Series;
use crate::slab::{aggregate_demand_slab_with, kind_pos, DemandScratch, SlabView};
use crate::time::{Interval, TimeAxis};
use crate::units::KilowattHours;
use crate::weather::WeatherModel;

/// Aggregates household demand for a day with the given weather.
///
/// The returned series is in kWh per slot over all households. Demand
/// is linear in device power, so it is folded per device kind: each
/// device's power (one jitter draw per device, in device-list order) is
/// added into its kind's total in (household, device) order, and each
/// slot is the sum over [`DeviceKind::all`] of `(kind total × duty) ×
/// slot hours`. It is the reference the slab kernel
/// ([`aggregate_demand_slab`](crate::slab::aggregate_demand_slab)) is
/// pinned byte-identical to; pipelines synthesise through the kernel.
/// Summing [`Household::demand_profile`] slot by slot is the physics
/// oracle, which this fold matches within 1e-12 relative per slot.
pub fn aggregate_demand(
    households: &[Household],
    weather: &Series,
    axis: &TimeAxis,
    seed: u64,
) -> DemandCurve {
    let mean_temp = weather.mean();
    let mut per_kind = [0.0f64; 8];
    for h in households {
        for (dev, intensity) in h.jittered_devices(seed) {
            per_kind[usize::from(kind_pos(dev.kind()))] += dev.power(mean_temp, intensity);
        }
    }
    let slot_hours = axis.slot_hours();
    DemandCurve::new(Series::from_fn(*axis, |t| {
        DeviceKind::all()
            .iter()
            .zip(per_kind)
            .fold(0.0, |acc, (kind, power)| {
                acc + (power * kind.duty_cycle(t)) * slot_hours
            })
    }))
}

/// A demand curve (kWh per slot, aggregated over consumers).
///
/// # Example
///
/// ```
/// use powergrid::prelude::*;
///
/// let axis = TimeAxis::hourly();
/// let homes = PopulationBuilder::new().households(20).build(7);
/// let weather = WeatherModel::winter().temperatures(&axis, 7);
/// let curve = aggregate_demand(&homes, &weather, &axis, 7);
/// let peak = curve.peak_interval(4);
/// assert_eq!(peak.len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DemandCurve {
    series: Series,
}

impl DemandCurve {
    /// Wraps a per-slot energy series as a demand curve.
    pub fn new(series: Series) -> DemandCurve {
        DemandCurve { series }
    }

    /// The underlying series (kWh per slot).
    pub fn series(&self) -> &Series {
        &self.series
    }

    /// Unwraps the underlying series without copying it.
    pub fn into_series(self) -> Series {
        self.series
    }

    /// The time axis of the curve.
    pub fn axis(&self) -> TimeAxis {
        self.series.axis()
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True if the curve has no slots.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Total energy over the day.
    pub fn total(&self) -> KilowattHours {
        self.series.total()
    }

    /// Energy over an interval.
    pub fn energy_over(&self, interval: Interval) -> KilowattHours {
        self.series.energy_over(interval)
    }

    /// The contiguous window of `width` slots with maximal energy — the
    /// demand peak the Utility Agent wants to shave.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds the day length.
    pub fn peak_interval(&self, width: usize) -> Interval {
        let n = self.len();
        assert!(
            width > 0 && width <= n,
            "peak width {width} out of range (1..={n})"
        );
        let values = self.series.values();
        let mut window: f64 = values[..width].iter().sum();
        let mut best = window;
        let mut best_start = 0;
        for start in 1..=(n - width) {
            window += values[start + width - 1] - values[start - 1];
            if window > best {
                best = window;
                best_start = start;
            }
        }
        Interval::new(best_start, best_start + width)
    }

    /// Slots whose demand exceeds the normal capacity of `production`,
    /// i.e. the slots served by expensive production in Figure 1.
    pub fn slots_above_normal(&self, production: &ProductionModel) -> Vec<usize> {
        let cap = production.normal_capacity_per_slot(self.axis());
        self.series
            .values()
            .iter()
            .enumerate()
            .filter(|(_, &v)| v > cap.value())
            .map(|(i, _)| i)
            .collect()
    }

    /// Energy above normal capacity over the whole day (the shaded peak
    /// area of Figure 1).
    pub fn energy_above_normal(&self, production: &ProductionModel) -> KilowattHours {
        let cap = production.normal_capacity_per_slot(self.axis()).value();
        KilowattHours(
            self.series
                .values()
                .iter()
                .map(|&v| (v - cap).max(0.0))
                .sum(),
        )
    }
}

/// Simulates the viewed households' demand over a multi-day
/// [`Horizon`](crate::calendar::Horizon): one curve per day, with
/// weekday/weekend intensity factors applied and the day index seeding
/// per-day weather and jitter. The caller's [`DemandScratch`] serves
/// every day, so the duty shapes are computed at most once per horizon,
/// and the caller keeps them for its next kernel.
///
/// Returns `(demand, weather)` series pairs, one per day.
pub fn simulate_horizon(
    population: SlabView<'_>,
    model: &WeatherModel,
    horizon: &crate::calendar::Horizon,
    axis: &TimeAxis,
    scratch: &mut DemandScratch,
) -> Vec<(DemandCurve, Series)> {
    horizon
        .days()
        .map(|day| {
            let weather = model.temperatures(axis, day.index);
            let base = aggregate_demand_slab_with(population, &weather, axis, day.index, scratch);
            let curve = DemandCurve::new(base.series().scale(day.day_type.intensity_factor()));
            (curve, weather)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calendar::Horizon;
    use crate::population::PopulationBuilder;
    use crate::production::ProductionModel;
    use crate::units::Kilowatts;
    use crate::weather::Season;

    fn curve() -> DemandCurve {
        let axis = TimeAxis::quarter_hourly();
        let homes = PopulationBuilder::new().households(100).build(7);
        let weather = WeatherModel::winter().temperatures(&axis, 7);
        aggregate_demand(&homes, &weather, &axis, 7)
    }

    #[test]
    fn aggregate_is_sum_of_households() {
        let axis = TimeAxis::hourly();
        let homes = PopulationBuilder::new().households(5).build(1);
        let weather = WeatherModel::winter().temperatures(&axis, 1);
        let curve = aggregate_demand(&homes, &weather, &axis, 1);
        let mean = weather.mean();
        let by_hand: f64 = homes
            .iter()
            .map(|h| h.demand_profile(&axis, mean, 1).sum())
            .sum();
        assert!((curve.total().value() - by_hand).abs() < 1e-9);
    }

    #[test]
    fn into_series_equals_the_borrowed_series() {
        let c = curve();
        let copied = c.series().clone();
        assert_eq!(c.into_series(), copied);
    }

    #[test]
    fn peak_is_in_the_evening() {
        let c = curve();
        let peak = c.peak_interval(8); // 2 hours
        let start = c.axis().start_of(peak.start());
        assert!(
            (16..=20).contains(&start.hour()),
            "peak starts at {start}, expected evening (Figure 1 shape)"
        );
    }

    #[test]
    fn peak_window_is_maximal() {
        let c = curve();
        let peak = c.peak_interval(8);
        let peak_energy = c.energy_over(peak);
        for start in 0..(c.len() - 8) {
            let window = c.energy_over(Interval::new(start, start + 8));
            assert!(window <= peak_energy + KilowattHours(1e-9));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_width_peak_panics() {
        let _ = curve().peak_interval(0);
    }

    #[test]
    fn expensive_band_appears_when_capacity_below_peak() {
        let c = curve();
        // Set normal capacity just below the peak slot demand.
        let axis = c.axis();
        let peak_kwh_per_slot = c.series().max();
        let cap = Kilowatts(peak_kwh_per_slot / axis.slot_hours() * 0.8);
        let production = ProductionModel::two_tier(cap);
        assert!(!c.slots_above_normal(&production).is_empty());
        assert!(c.energy_above_normal(&production).value() > 0.0);
    }

    #[test]
    fn no_expensive_band_with_ample_capacity() {
        let c = curve();
        let production = ProductionModel::two_tier(Kilowatts(1e9));
        assert!(c.slots_above_normal(&production).is_empty());
        assert_eq!(c.energy_above_normal(&production), KilowattHours::ZERO);
    }

    #[test]
    fn horizon_simulation_produces_one_curve_per_day() {
        let axis = TimeAxis::hourly();
        let builder = PopulationBuilder::new().households(20);
        let slab = builder.build_slab(5);
        let (horizon, model) = (Horizon::new(7, 0, Season::Winter), WeatherModel::winter());
        let mut scratch = DemandScratch::new();
        let days = simulate_horizon(slab.view(), &model, &horizon, &axis, &mut scratch);
        assert_eq!(days.len(), 7);
        for (curve, weather) in &days {
            assert_eq!(curve.len(), 24);
            assert_eq!(weather.len(), 24);
            assert!(curve.total().value() > 0.0);
        }
        // Weekend days (indices 5, 6 from a Monday start) carry the
        // weekend intensity factor versus the same-seed weekday baseline.
        let weather = WeatherModel::winter().temperatures(&axis, 5);
        let weekday_equivalent = aggregate_demand(&builder.build(5), &weather, &axis, 5);
        assert!(days[5].0.total() > weekday_equivalent.total());
    }

    #[test]
    fn horizon_simulation_is_deterministic_and_matches_the_oracle() {
        let axis = TimeAxis::hourly();
        let builder = PopulationBuilder::new().households(10);
        let slab = builder.build_slab(1);
        let homes = builder.build(1);
        let (horizon, model) = (Horizon::new(3, 2, Season::Autumn), WeatherModel::winter());
        let mut scratch = DemandScratch::new();
        let a = simulate_horizon(slab.view(), &model, &horizon, &axis, &mut scratch);
        // Again, over the scratch the first run filled.
        let b = simulate_horizon(slab.view(), &model, &horizon, &axis, &mut scratch);
        assert_eq!(a, b);
        // One scratch threaded through every day leaks nothing between
        // them: each day is the household reference's curve, scaled.
        for (day, (curve, weather)) in horizon.days().zip(&a) {
            let oracle = aggregate_demand(&homes, weather, &axis, day.index);
            let scaled = oracle.series().scale(day.day_type.intensity_factor());
            assert_eq!(curve.series(), &scaled);
        }
    }
}
