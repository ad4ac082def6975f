//! Virtual time.
//!
//! Simulation time is measured in abstract *ticks* (the experiments treat
//! one tick as one millisecond of wall-clock communication time, but
//! nothing depends on that interpretation).

use std::ops::Add;

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
}

impl SimDuration {
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
    /// Saturating: the end of time stays the end of time.
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
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
        assert_eq!((t + d).ticks(), 15);
        assert_eq!(d.ticks(), 5);
        assert_eq!(
            SimTime::from_ticks(u64::MAX) + d,
            SimTime::from_ticks(u64::MAX),
            "saturating"
        );
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_ticks(1) < SimTime::from_ticks(2));
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }
}
