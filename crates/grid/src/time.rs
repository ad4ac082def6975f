//! Discretised daily time axis, times of day and half-open intervals.
//!
//! The paper's reward tables carry "a time interval" during which cut-downs
//! apply. We model one day at a configurable slot resolution (15 minutes by
//! default), which is the resolution at which demand curves and predictions
//! operate.

use std::fmt;

/// Minutes in one day.
pub const MINUTES_PER_DAY: u32 = 24 * 60;

/// A wall-clock time of day with minute resolution.
///
/// # Example
///
/// ```
/// use powergrid::time::TimeOfDay;
///
/// let t = TimeOfDay::hm(18, 30).unwrap();
/// assert_eq!(t.hour(), 18);
/// assert_eq!(t.to_string(), "18:30");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeOfDay {
    minutes: u32,
}

/// Error returned for out-of-range wall-clock components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidTimeError {
    /// Offending hour.
    pub hour: u32,
    /// Offending minute.
    pub minute: u32,
}

impl fmt::Display for InvalidTimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid time of day {:02}:{:02}", self.hour, self.minute)
    }
}

impl std::error::Error for InvalidTimeError {}

impl TimeOfDay {
    /// Midnight.
    pub const MIDNIGHT: TimeOfDay = TimeOfDay { minutes: 0 };

    /// Creates a time of day from hour and minute.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidTimeError`] if `hour >= 24` or `minute >= 60`.
    pub fn hm(hour: u32, minute: u32) -> Result<TimeOfDay, InvalidTimeError> {
        if hour >= 24 || minute >= 60 {
            Err(InvalidTimeError { hour, minute })
        } else {
            Ok(TimeOfDay {
                minutes: hour * 60 + minute,
            })
        }
    }

    /// Creates a time of day from minutes since midnight, wrapping at 24h.
    fn from_minutes(minutes: u32) -> TimeOfDay {
        TimeOfDay {
            minutes: minutes % MINUTES_PER_DAY,
        }
    }

    /// Minutes since midnight.
    fn minutes(self) -> u32 {
        self.minutes
    }

    /// Hour component (0–23).
    pub fn hour(self) -> u32 {
        self.minutes / 60
    }

    /// Minute component (0–59).
    fn minute(self) -> u32 {
        self.minutes % 60
    }
}

impl fmt::Display for TimeOfDay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02}:{:02}", self.hour(), self.minute())
    }
}

/// A uniform discretisation of one day into equal slots.
///
/// # Example
///
/// ```
/// use powergrid::time::{TimeAxis, TimeOfDay};
///
/// let axis = TimeAxis::quarter_hourly();
/// assert_eq!(axis.slots_per_day(), 96);
/// assert_eq!(axis.slot_of(TimeOfDay::hm(18, 20).unwrap()), 73);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeAxis {
    slot_minutes: u32,
}

impl TimeAxis {
    /// Creates an axis with the given slot length in minutes.
    ///
    /// # Panics
    ///
    /// Panics if `slot_minutes` is zero or does not evenly divide a day.
    pub fn new(slot_minutes: u32) -> TimeAxis {
        assert!(
            slot_minutes > 0 && MINUTES_PER_DAY.is_multiple_of(slot_minutes),
            "slot length {slot_minutes} must evenly divide {MINUTES_PER_DAY} minutes"
        );
        TimeAxis { slot_minutes }
    }

    /// 15-minute slots (96 per day) — the resolution used in experiments.
    pub fn quarter_hourly() -> TimeAxis {
        TimeAxis::new(15)
    }

    /// 60-minute slots (24 per day).
    pub fn hourly() -> TimeAxis {
        TimeAxis::new(60)
    }

    /// Slot length in minutes.
    pub fn slot_minutes(self) -> u32 {
        self.slot_minutes
    }

    /// Slot length in hours (e.g. `0.25` for quarter-hour slots).
    pub fn slot_hours(self) -> f64 {
        f64::from(self.slot_minutes) / 60.0
    }

    /// Number of slots in one day.
    pub fn slots_per_day(self) -> usize {
        (MINUTES_PER_DAY / self.slot_minutes) as usize
    }

    /// The slot index containing the given time of day.
    pub fn slot_of(self, t: TimeOfDay) -> usize {
        (t.minutes() / self.slot_minutes) as usize
    }

    /// The wall-clock start of slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range for this axis.
    pub fn start_of(self, i: usize) -> TimeOfDay {
        assert!(i < self.slots_per_day(), "slot {i} out of range");
        TimeOfDay::from_minutes(i as u32 * self.slot_minutes)
    }

    /// Interval covering `[from, to)` in wall-clock time. If `to <= from`
    /// the interval is empty.
    pub fn between(self, from: TimeOfDay, to: TimeOfDay) -> Interval {
        let a = self.slot_of(from);
        let b = self.slot_of(to);
        Interval::new(a, b.max(a))
    }
}

impl Default for TimeAxis {
    fn default() -> Self {
        TimeAxis::quarter_hourly()
    }
}

/// A half-open range of slot indices `[start, end)`.
///
/// # Example
///
/// ```
/// use powergrid::time::Interval;
///
/// let i = Interval::new(72, 88);
/// assert_eq!(i.len(), 16);
/// assert!(i.contains(80));
/// assert!(!i.contains(88));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Interval {
    start: usize,
    end: usize,
}

impl Interval {
    /// Creates the interval `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn new(start: usize, end: usize) -> Interval {
        assert!(end >= start, "interval end {end} before start {start}");
        Interval { start, end }
    }

    /// Start slot (inclusive).
    pub fn start(self) -> usize {
        self.start
    }

    /// End slot (exclusive).
    pub fn end(self) -> usize {
        self.end
    }

    /// Number of slots covered.
    pub fn len(self) -> usize {
        self.end - self.start
    }

    /// True if the interval covers no slots.
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }

    /// True if slot `i` lies inside the interval.
    pub fn contains(self, i: usize) -> bool {
        i >= self.start && i < self.end
    }

    /// Iterator over covered slot indices.
    pub fn iter(self) -> std::ops::Range<usize> {
        self.start..self.end
    }

    /// The intersection of two intervals (possibly empty).
    pub fn intersect(self, other: Interval) -> Interval {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end).max(start);
        Interval { start, end }
    }

    /// Duration of this interval in hours on the given axis.
    pub fn hours(self, axis: TimeAxis) -> f64 {
        self.len() as f64 * axis.slot_hours()
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

impl IntoIterator for Interval {
    type Item = usize;
    type IntoIter = std::ops::Range<usize>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_of_day_construction() {
        assert!(TimeOfDay::hm(23, 59).is_ok());
        assert!(TimeOfDay::hm(24, 0).is_err());
        assert!(TimeOfDay::hm(0, 60).is_err());
        assert_eq!(TimeOfDay::hm(6, 30).unwrap().minutes(), 390);
    }

    #[test]
    fn time_of_day_wraps() {
        let t = TimeOfDay::from_minutes(MINUTES_PER_DAY + 30);
        assert_eq!(t, TimeOfDay::hm(0, 30).unwrap());
    }

    #[test]
    fn axis_slots() {
        let axis = TimeAxis::quarter_hourly();
        assert_eq!(axis.slots_per_day(), 96);
        assert_eq!(axis.slot_hours(), 0.25);
        assert_eq!(axis.slot_of(TimeOfDay::MIDNIGHT), 0);
        assert_eq!(axis.slot_of(TimeOfDay::hm(23, 59).unwrap()), 95);
        assert_eq!(axis.start_of(4), TimeOfDay::hm(1, 0).unwrap());
    }

    #[test]
    fn hourly_axis() {
        let axis = TimeAxis::hourly();
        assert_eq!(axis.slots_per_day(), 24);
        assert_eq!(axis.slot_of(TimeOfDay::hm(18, 45).unwrap()), 18);
    }

    #[test]
    #[should_panic(expected = "evenly divide")]
    fn axis_rejects_uneven_slots() {
        let _ = TimeAxis::new(7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn start_of_out_of_range_panics() {
        let axis = TimeAxis::hourly();
        let _ = axis.start_of(24);
    }

    #[test]
    fn interval_basics() {
        let i = Interval::new(10, 20);
        assert_eq!(i.len(), 10);
        assert!(!i.is_empty());
        assert!(i.contains(10));
        assert!(!i.contains(20));
        assert_eq!(i.iter().count(), 10);
    }

    #[test]
    fn interval_intersection() {
        let a = Interval::new(0, 10);
        let b = Interval::new(5, 15);
        assert_eq!(a.intersect(b), Interval::new(5, 10));
        let c = Interval::new(12, 20);
        assert!(a.intersect(c).is_empty());
    }

    #[test]
    fn interval_hours() {
        let axis = TimeAxis::quarter_hourly();
        assert_eq!(Interval::new(0, 8).hours(axis), 2.0);
    }

    #[test]
    fn between_produces_expected_interval() {
        let axis = TimeAxis::quarter_hourly();
        let peak = axis.between(TimeOfDay::hm(18, 0).unwrap(), TimeOfDay::hm(20, 0).unwrap());
        assert_eq!(peak, Interval::new(72, 80));
        // Reversed bounds produce an empty interval rather than panicking.
        let empty = axis.between(TimeOfDay::hm(20, 0).unwrap(), TimeOfDay::hm(18, 0).unwrap());
        assert!(empty.is_empty());
    }

    #[test]
    fn interval_display() {
        assert_eq!(Interval::new(72, 80).to_string(), "[72, 80)");
    }
}
