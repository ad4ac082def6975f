//! Daily time series over a [`TimeAxis`].
//!
//! Demand curves, temperature profiles and predictions are all series of
//! `f64` values, one per slot. The unit carried by a series is documented at
//! each use site (kWh per slot for demand, °C for temperature).

use crate::time::{Interval, TimeAxis};
use crate::units::KilowattHours;
use std::ops::{Add, Index, Mul, Sub};

/// A time series with one value per slot of its [`TimeAxis`].
///
/// # Example
///
/// ```
/// use powergrid::series::Series;
/// use powergrid::time::TimeAxis;
///
/// let axis = TimeAxis::hourly();
/// let s = Series::constant(axis, 2.0);
/// assert_eq!(s.sum(), 48.0);
/// assert_eq!(s.max(), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    axis: TimeAxis,
    values: Vec<f64>,
}

impl Series {
    /// Creates a series from raw per-slot values.
    ///
    /// # Panics
    ///
    /// Panics if the number of values differs from `axis.slots_per_day()`.
    pub fn from_values(axis: TimeAxis, values: Vec<f64>) -> Series {
        assert_eq!(
            values.len(),
            axis.slots_per_day(),
            "series length {} does not match axis with {} slots",
            values.len(),
            axis.slots_per_day()
        );
        Series { axis, values }
    }

    /// A series of zeros.
    pub fn zeros(axis: TimeAxis) -> Series {
        Series::constant(axis, 0.0)
    }

    /// A series with every slot equal to `value`.
    pub fn constant(axis: TimeAxis, value: f64) -> Series {
        Series {
            axis,
            values: vec![value; axis.slots_per_day()],
        }
    }

    /// Builds a series by evaluating `f` at the fractional day position of
    /// each slot midpoint (`0.0` = midnight, `0.5` = noon).
    pub fn from_fn(axis: TimeAxis, mut f: impl FnMut(f64) -> f64) -> Series {
        let n = axis.slots_per_day();
        let values = (0..n).map(|i| f((i as f64 + 0.5) / n as f64)).collect();
        Series { axis, values }
    }

    /// The axis this series is defined on.
    pub fn axis(&self) -> TimeAxis {
        self.axis
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the series has no slots (never happens for valid axes).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Per-slot values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to per-slot values.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Sum over all slots.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Sum over the slots in `interval` (clipped to the series length).
    pub fn sum_over(&self, interval: Interval) -> f64 {
        interval
            .intersect(Interval::new(0, self.len()))
            .iter()
            .map(|i| self.values[i])
            .sum()
    }

    /// Maximum slot value (`0.0` for an empty series).
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            .max(f64::NEG_INFINITY)
    }

    /// Minimum slot value.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Mean slot value.
    ///
    /// # Panics
    ///
    /// Panics if the series is empty.
    pub fn mean(&self) -> f64 {
        assert!(!self.values.is_empty(), "mean of empty series");
        self.sum() / self.len() as f64
    }

    /// Index of the maximum slot (first one on ties).
    ///
    /// # Panics
    ///
    /// Panics if the series is empty — consistent with [`Series::mean`]
    /// and unlike a silent `0`, which would be an out-of-range index.
    pub fn argmax(&self) -> usize {
        self.values
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("series values are finite"))
            .map(|(i, _)| i)
            .expect("argmax of empty series")
    }

    /// Applies `f` to every slot value, producing a new series.
    pub fn map(&self, f: impl FnMut(f64) -> f64) -> Series {
        Series {
            axis: self.axis,
            values: self.values.iter().copied().map(f).collect(),
        }
    }

    /// Scales every slot by `factor`.
    pub fn scale(&self, factor: f64) -> Series {
        self.map(|v| v * factor)
    }

    /// Pointwise combination of two series on the same axis.
    ///
    /// # Panics
    ///
    /// Panics if the axes differ.
    fn zip_with(&self, other: &Series, mut f: impl FnMut(f64, f64) -> f64) -> Series {
        assert_eq!(
            self.axis,
            other.axis,
            "time axes differ: {}-minute vs {}-minute slots",
            self.axis.slot_minutes(),
            other.axis.slot_minutes()
        );
        Series {
            axis: self.axis,
            values: self
                .values
                .iter()
                .zip(&other.values)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Adds `other` into this series in place.
    ///
    /// # Panics
    ///
    /// Panics if the axes differ.
    pub fn accumulate(&mut self, other: &Series) {
        assert_eq!(
            self.axis, other.axis,
            "cannot accumulate series on different axes"
        );
        for (a, b) in self.values.iter_mut().zip(&other.values) {
            *a += b;
        }
    }

    /// Centered moving average with window `2 * half + 1`, clamped at the
    /// day boundaries. `half == 0` returns a clone.
    ///
    /// Windows **saturate** at the series edges — they never wrap around
    /// midnight. The window for slot `i` is `[i - half, i + half]`
    /// intersected with `[0, len)`, so edge slots average over fewer
    /// values (the first slot's window is `[0, half]`); each window is
    /// divided by its *own* length, which is why a constant series stays
    /// constant at the edges.
    pub fn smooth(&self, half: usize) -> Series {
        if half == 0 {
            return self.clone();
        }
        let n = self.len();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(n);
            let window = &self.values[lo..hi];
            out.push(window.iter().sum::<f64>() / window.len() as f64);
        }
        Series {
            axis: self.axis,
            values: out,
        }
    }

    /// Total energy when this series is interpreted as kWh per slot.
    pub fn total(&self) -> KilowattHours {
        KilowattHours(self.sum())
    }

    /// Energy over `interval` when interpreted as kWh per slot.
    pub fn energy_over(&self, interval: Interval) -> KilowattHours {
        KilowattHours(self.sum_over(interval))
    }

    /// Renders a compact ASCII sparkline of the series, useful for showing
    /// demand curves (Figure 1) in terminal output.
    pub fn sparkline(&self) -> String {
        const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let lo = self.min();
        let hi = self.max();
        let span = if (hi - lo).abs() < f64::EPSILON {
            1.0
        } else {
            hi - lo
        };
        self.values
            .iter()
            .map(|&v| {
                let t = ((v - lo) / span * 7.0).round() as usize;
                BARS[t.min(7)]
            })
            .collect()
    }
}

impl Index<usize> for Series {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.values[i]
    }
}

impl Add<&Series> for &Series {
    type Output = Series;
    /// # Panics
    ///
    /// Panics if the axes differ.
    fn add(self, rhs: &Series) -> Series {
        self.zip_with(rhs, |a, b| a + b)
    }
}

impl Sub<&Series> for &Series {
    type Output = Series;
    /// # Panics
    ///
    /// Panics if the axes differ.
    fn sub(self, rhs: &Series) -> Series {
        self.zip_with(rhs, |a, b| a - b)
    }
}

impl Mul<f64> for &Series {
    type Output = Series;
    fn mul(self, rhs: f64) -> Series {
        self.scale(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimeAxis;

    fn axis() -> TimeAxis {
        TimeAxis::hourly()
    }

    #[test]
    fn construction_and_len() {
        let s = Series::zeros(axis());
        assert_eq!(s.len(), 24);
        assert!(!s.is_empty());
        assert_eq!(s.sum(), 0.0);
    }

    #[test]
    #[should_panic(expected = "does not match axis")]
    fn wrong_length_panics() {
        let _ = Series::from_values(axis(), vec![1.0; 10]);
    }

    #[test]
    fn from_fn_midpoints() {
        let s = Series::from_fn(axis(), |t| t);
        // First slot midpoint is 0.5/24, last is 23.5/24.
        assert!((s[0] - 0.5 / 24.0).abs() < 1e-12);
        assert!((s[23] - 23.5 / 24.0).abs() < 1e-12);
    }

    #[test]
    fn stats() {
        let mut v = vec![1.0; 24];
        v[18] = 5.0;
        let s = Series::from_values(axis(), v);
        assert_eq!(s.max(), 5.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.argmax(), 18);
        assert!((s.mean() - (23.0 + 5.0) / 24.0).abs() < 1e-12);
    }

    #[test]
    fn sum_over_clips() {
        let s = Series::constant(axis(), 2.0);
        assert_eq!(s.sum_over(Interval::new(0, 12)), 24.0);
        assert_eq!(s.sum_over(Interval::new(20, 100)), 8.0);
    }

    #[test]
    fn map_scale_zip() {
        let a = Series::constant(axis(), 2.0);
        let b = Series::constant(axis(), 3.0);
        assert_eq!(a.scale(2.0).sum(), 96.0);
        let c = a.zip_with(&b, |x, y| x * y);
        assert_eq!(c[0], 6.0);
        let d = &a + &b;
        assert_eq!(d.sum(), 120.0);
        let e = &b - &a;
        assert_eq!(e[5], 1.0);
        let f = &a * 0.5;
        assert_eq!(f[0], 1.0);
    }

    #[test]
    #[should_panic(expected = "time axes differ: 60-minute vs 15-minute slots")]
    fn axis_mismatch_panics() {
        let a = Series::zeros(TimeAxis::hourly());
        let b = Series::zeros(TimeAxis::quarter_hourly());
        let _ = &a + &b;
    }

    #[test]
    fn accumulate_adds() {
        let mut a = Series::constant(axis(), 1.0);
        let b = Series::constant(axis(), 2.0);
        a.accumulate(&b);
        assert_eq!(a.sum(), 72.0);
    }

    #[test]
    #[should_panic(expected = "argmax of empty series")]
    fn argmax_of_empty_series_panics() {
        // An empty series is unconstructible through the public API
        // (`from_values` validates the length), but deserialization and
        // future constructors must still get a clear panic rather than a
        // silent out-of-range index 0.
        let empty = Series {
            axis: axis(),
            values: Vec::new(),
        };
        let _ = empty.argmax();
    }

    #[test]
    fn smoothing_windows_saturate_at_edges() {
        // First slot's window is [0, half] — never wrapping to the end of
        // the day. With a spike at the last slot, the first slot must
        // stay untouched.
        let mut v = vec![0.0; 24];
        v[23] = 12.0;
        let s = Series::from_values(axis(), v);
        let sm = s.smooth(2);
        assert_eq!(sm[0], 0.0, "no wrap-around from the end of the day");
        // The edge slot averages over its truncated window [21, 23] and
        // is divided by that window's own length (3, not 5).
        assert!((sm[23] - 4.0).abs() < 1e-12);
        assert!((sm[21] - 12.0 / 5.0).abs() < 1e-12);
        assert_eq!(sm[20], 0.0);
    }

    #[test]
    fn smoothing_preserves_constant() {
        let s = Series::constant(axis(), 3.0);
        let sm = s.smooth(2);
        for i in 0..24 {
            assert!((sm[i] - 3.0).abs() < 1e-12);
        }
        assert_eq!(s.smooth(0), s);
    }

    #[test]
    fn smoothing_reduces_peak() {
        let mut v = vec![0.0; 24];
        v[12] = 10.0;
        let s = Series::from_values(axis(), v);
        let sm = s.smooth(1);
        assert!(sm[12] < 10.0);
        assert!(sm[11] > 0.0);
        // Smoothing conserves mass away from boundaries.
        assert!((sm.sum() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn energy_interpretation() {
        let s = Series::constant(axis(), 1.5);
        assert_eq!(s.total(), KilowattHours(36.0));
        assert_eq!(s.energy_over(Interval::new(0, 2)), KilowattHours(3.0));
    }

    #[test]
    fn sparkline_has_one_char_per_slot() {
        let s = Series::from_fn(axis(), |t| (t * std::f64::consts::TAU).sin());
        let line = s.sparkline();
        assert_eq!(line.chars().count(), 24);
    }
}
