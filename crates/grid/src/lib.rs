//! Electricity-grid domain substrate for the load-balancing multi-agent
//! system of Brazier et al. (ICDCS 1998).
//!
//! The paper's prototype was driven by real utility data (Sydkraft) that is
//! not available; this crate provides a synthetic but behaviourally faithful
//! replacement:
//!
//! * typed physical quantities ([`units`]),
//! * a discretised day ([`time`]) and time series over it ([`series`]),
//! * weather ([`weather`]) driving device-level household demand
//!   ([`device`], [`household`], [`population`]),
//! * aggregate demand curves with evening peaks ([`demand`]) against a
//!   two-tier production-cost model ([`production`]) — together these
//!   regenerate Figure 1 of the paper,
//! * statistical load predictors ([`prediction`]) and peak detection
//!   ([`peak`]) used by the Utility Agent,
//! * the lower/normal/higher price scheme ([`tariff`]) of Section 3.2.
//!
//! # Populations
//!
//! A population has one representation in the pipeline and one
//! reference beside it:
//!
//! * **The slab is the pipeline.** [`slab::PopulationSlab`] is a
//!   dictionary: each household is its id and the index of its
//!   template, and each distinct template (occupants, intensity,
//!   allowance and device entries) is stored once — a standard
//!   population has at most five, so a household costs 12 bytes
//!   ([`PopulationBuilder::build_slab`]). Its batched kernels
//!   ([`slab::aggregate_demand_slab`] and friends) sweep each
//!   household's template entries as contiguous slices,
//!   [`demand::simulate_horizon`] synthesises a horizon from a
//!   [`slab::SlabView`], and [`slab::PopulationSlab::shards`] splits one
//!   city across fleet cells with zero copying.
//! * **Households are an input type and the oracle.** `Vec<Household>`,
//!   each household owning its `Vec<Device>`
//!   ([`PopulationBuilder::build`]), is the natural shape for hand-built
//!   fixtures and per-household inspection;
//!   [`slab::PopulationSlab::from_households`] converts it once,
//!   interning households that are equal bit for bit but for their id
//!   into one template. Its folds are the readable references the
//!   proptests pin the kernels against. [`demand::aggregate_demand`]
//!   folds demand per device kind, as the slab kernel does, and is
//!   pinned byte for byte (same jitter streams, same per-kind powers
//!   in the same order, same eight products per slot).
//!   [`household::Household::interval_flexibility`] integrates each
//!   device kind's duty over the interval, as the flexibility kernel
//!   does, and is pinned byte for byte. Summing
//!   [`household::Household::demand_profile`] slot by slot is the
//!   physics oracle: the per-kind demand stays within 1e-12 relative
//!   of it per slot, and the per-kind interval flexibility within
//!   1e-12 relative of the per-slot sweep
//!   [`household::Household::interval_flexibility_per_slot`].
//!
//! [`PopulationBuilder::build`]: population::PopulationBuilder::build
//! [`PopulationBuilder::build_slab`]: population::PopulationBuilder::build_slab
//!
//! # Example
//!
//! ```
//! use powergrid::prelude::*;
//!
//! let axis = TimeAxis::quarter_hourly();
//! let weather = WeatherModel::winter().temperatures(&axis, 7);
//! let population = PopulationBuilder::new().households(100).build(42);
//! let demand = aggregate_demand(&population, &weather, &axis, 42);
//! assert_eq!(demand.len(), axis.slots_per_day());
//! assert!(demand.total().0 > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calendar;
pub mod demand;
pub mod device;
pub mod household;
pub mod peak;
pub mod population;
pub mod prediction;
pub mod production;
pub mod series;
pub mod slab;
pub mod tariff;
pub mod time;
pub mod units;
pub mod weather;

/// Convenient glob-import of the most frequently used items.
pub mod prelude {
    pub use crate::calendar::{CalendarDay, DayType, Horizon};
    pub use crate::demand::{aggregate_demand, simulate_horizon, DemandCurve};
    pub use crate::device::{Device, DeviceKind};
    pub use crate::household::{Household, HouseholdId};
    pub use crate::peak::{Peak, PeakDetector};
    pub use crate::population::PopulationBuilder;
    pub use crate::prediction::{
        backtest, HoltTrend, LoadPredictor, MovingAverage, SeasonalNaive, WeatherRegression,
    };
    pub use crate::production::ProductionModel;
    pub use crate::series::Series;
    pub use crate::slab::{
        aggregate_demand_slab, interval_flexibility_slab, saving_potential_slab, DemandScratch,
        PopulationSlab, SlabView,
    };
    pub use crate::tariff::Tariff;
    pub use crate::time::{Interval, TimeAxis, TimeOfDay};
    pub use crate::units::{Celsius, Fraction, KilowattHours, Kilowatts, Money, PricePerKwh};
    pub use crate::weather::{Season, WeatherModel};
}
