//! Calendar structure: day types and multi-day horizons.
//!
//! Demand differs between weekdays and weekends (people are home at
//! different hours); the Utility Agent's statistical models need to know
//! which kind of day they are predicting. A [`Horizon`] enumerates
//! consecutive days with their types and seasonal context.

use crate::weather::Season;
use std::fmt;

/// The type of a day, as it affects household behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DayType {
    /// Monday–Friday: morning/evening occupancy peaks.
    Weekday,
    /// Saturday–Sunday: flatter, home-all-day demand.
    Weekend,
}

impl DayType {
    /// Usage-intensity multiplier relative to a weekday.
    pub fn intensity_factor(self) -> f64 {
        match self {
            DayType::Weekday => 1.0,
            DayType::Weekend => 1.08,
        }
    }
}

impl fmt::Display for DayType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DayType::Weekday => "weekday",
            DayType::Weekend => "weekend",
        })
    }
}

/// One calendar day: its index, type and season.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CalendarDay {
    /// Day number since the horizon start (also the weather seed offset).
    pub index: u64,
    /// Weekday or weekend.
    pub day_type: DayType,
    /// The season the day falls in.
    pub season: Season,
}

/// A run of consecutive days starting on a given weekday offset.
///
/// # Example
///
/// ```
/// use powergrid::calendar::{DayType, Horizon};
/// use powergrid::weather::Season;
///
/// // A fortnight starting on a Monday.
/// let horizon = Horizon::new(14, 0, Season::Winter);
/// let weekends = horizon.days().filter(|d| d.day_type == DayType::Weekend).count();
/// assert_eq!(weekends, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Horizon {
    days: u64,
    /// 0 = Monday … 6 = Sunday.
    start_weekday: u8,
    season: Season,
}

impl Horizon {
    /// Creates a horizon of `days` days starting at weekday
    /// `start_weekday` (0 = Monday).
    ///
    /// # Panics
    ///
    /// Panics if `start_weekday > 6` or `days` is zero.
    pub fn new(days: u64, start_weekday: u8, season: Season) -> Horizon {
        assert!(
            start_weekday <= 6,
            "weekday must be 0..=6, got {start_weekday}"
        );
        assert!(days > 0, "a horizon needs at least one day");
        Horizon {
            days,
            start_weekday,
            season,
        }
    }

    /// Number of days covered.
    pub fn len(&self) -> u64 {
        self.days
    }

    /// True if the horizon is empty (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.days == 0
    }

    /// The day at `index`, if within the horizon.
    pub fn day(&self, index: u64) -> Option<CalendarDay> {
        if index >= self.days {
            return None;
        }
        let weekday = (u64::from(self.start_weekday) + index) % 7;
        let day_type = if weekday >= 5 {
            DayType::Weekend
        } else {
            DayType::Weekday
        };
        Some(CalendarDay {
            index,
            day_type,
            season: self.season,
        })
    }

    /// Iterates over the days in order.
    pub fn days(&self) -> impl Iterator<Item = CalendarDay> + '_ {
        (0..self.days).map(move |i| self.day(i).expect("index in range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn week_structure() {
        let h = Horizon::new(7, 0, Season::Winter);
        let types: Vec<DayType> = h.days().map(|d| d.day_type).collect();
        assert_eq!(
            types,
            vec![
                DayType::Weekday,
                DayType::Weekday,
                DayType::Weekday,
                DayType::Weekday,
                DayType::Weekday,
                DayType::Weekend,
                DayType::Weekend,
            ]
        );
    }

    #[test]
    fn start_offset_shifts_weekend() {
        // Starting on a Saturday.
        let h = Horizon::new(3, 5, Season::Summer);
        let types: Vec<DayType> = h.days().map(|d| d.day_type).collect();
        assert_eq!(
            types,
            vec![DayType::Weekend, DayType::Weekend, DayType::Weekday]
        );
    }

    #[test]
    fn out_of_range_day_is_none() {
        let h = Horizon::new(5, 0, Season::Winter);
        assert!(h.day(4).is_some());
        assert!(h.day(5).is_none());
        assert_eq!(h.len(), 5);
        assert!(!h.is_empty());
    }

    #[test]
    #[should_panic(expected = "weekday must be")]
    fn bad_weekday_panics() {
        let _ = Horizon::new(7, 7, Season::Winter);
    }

    #[test]
    fn weekend_intensity_above_weekday() {
        assert!(DayType::Weekend.intensity_factor() > DayType::Weekday.intensity_factor());
        assert_eq!(DayType::Weekend.to_string(), "weekend");
    }
}
