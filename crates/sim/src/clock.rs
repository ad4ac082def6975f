//! Virtual time.
//!
//! Simulation time is measured in abstract *ticks* (the experiments treat
//! one tick as one millisecond of wall-clock communication time, but
//! nothing depends on that interpretation).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from raw ticks.
    pub fn from_ticks(ticks: u64) -> SimTime {
        SimTime(ticks)
    }

    /// Raw tick count.
    pub fn ticks(self) -> u64 {
        self.0
    }

    /// Time elapsed since `earlier` (saturating).
    fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw ticks.
    pub fn from_ticks(ticks: u64) -> SimDuration {
        SimDuration(ticks)
    }

    /// Raw tick count.
    pub fn ticks(self) -> u64 {
        self.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    /// Saturating difference.
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ticks", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ticks(10);
        let d = SimDuration::from_ticks(5);
        assert_eq!(t + d, SimTime::from_ticks(15));
        assert_eq!((t + d) - t, d);
        assert_eq!(t - (t + d), SimDuration::ZERO, "saturating");
        assert_eq!(d + d, SimDuration::from_ticks(10));
    }

    #[test]
    fn add_assign() {
        let mut t = SimTime::ZERO;
        t += SimDuration::from_ticks(7);
        assert_eq!(t.ticks(), 7);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_ticks(1) < SimTime::from_ticks(2));
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_ticks(3).to_string(), "t=3");
        assert_eq!(SimDuration::from_ticks(3).to_string(), "3 ticks");
    }
}
