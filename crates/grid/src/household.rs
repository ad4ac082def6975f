//! Households: collections of devices with occupancy and contract data.
//!
//! A household is the physical counterpart of one Customer Agent. Its
//! `allowed_use` is the contracted consumption that cut-down fractions in
//! the paper's formulae refer to (`(1 - cutdown(c)) * allowed_use(c)`).

use crate::device::{duty_integral, Device, DeviceKind};
use crate::series::Series;
use crate::time::{Interval, TimeAxis};
use crate::units::{Fraction, KilowattHours};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::OnceLock;

/// Opaque identifier of a household / its Customer Agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct HouseholdId(pub u64);

impl fmt::Display for HouseholdId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "household-{}", self.0)
    }
}

/// The per-household jitter RNG: one draw per device, in device-list
/// order. Shared by the [`Household`] reference folds and the slab
/// kernels, so both see the same stream.
pub(crate) fn jitter_rng(seed: u64, id: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(id))
}

/// The shared standard equipment list for a household of `occupants`:
/// the 7-device base set, plus laundry for multi-person homes. Built
/// once per process and cloned per household, so population
/// construction does not re-derive every `Device::typical` from kind
/// constants a million times over. Device-list *order* is load-bearing:
/// the per-household jitter stream draws one value per device in this
/// order, so it is pinned by the byte-identity suites.
pub(crate) fn standard_devices(occupants: u32) -> &'static [Device] {
    static TEMPLATES: OnceLock<[Vec<Device>; 2]> = OnceLock::new();
    let [single, multi] = TEMPLATES.get_or_init(|| {
        let base = vec![
            Device::typical(DeviceKind::SpaceHeating),
            Device::typical(DeviceKind::WaterHeater),
            Device::typical(DeviceKind::Refrigeration),
            Device::typical(DeviceKind::Lighting),
            Device::typical(DeviceKind::Cooking),
            Device::typical(DeviceKind::Entertainment),
            Device::typical(DeviceKind::Other),
        ];
        let mut with_laundry = base.clone();
        with_laundry.push(Device::typical(DeviceKind::Laundry));
        [base, with_laundry]
    });
    if occupants >= 2 {
        multi
    } else {
        single
    }
}

/// A domestic consumer: occupants, equipment and contract.
///
/// # Example
///
/// ```
/// use powergrid::household::Household;
/// use powergrid::time::TimeAxis;
///
/// let home = Household::standard(powergrid::household::HouseholdId(1), 3);
/// let axis = TimeAxis::hourly();
/// let demand = home.demand_profile(&axis, -4.0, 7);
/// assert!(demand.total().value() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Household {
    id: HouseholdId,
    occupants: u32,
    devices: Vec<Device>,
    /// Contracted daily consumption; cut-downs are fractions of this.
    allowed_use: KilowattHours,
    /// Multiplier for overall usage intensity (habits).
    intensity: f64,
}

impl Household {
    /// Creates a household with an explicit device list.
    ///
    /// # Panics
    ///
    /// Panics if `occupants` is zero or `allowed_use` is negative.
    pub fn new(
        id: HouseholdId,
        occupants: u32,
        devices: Vec<Device>,
        allowed_use: KilowattHours,
        intensity: f64,
    ) -> Household {
        assert!(occupants > 0, "a household has at least one occupant");
        assert!(
            allowed_use.value() >= 0.0,
            "allowed use must be non-negative, got {allowed_use}"
        );
        assert!(
            intensity > 0.0,
            "intensity must be positive, got {intensity}"
        );
        Household {
            id,
            occupants,
            devices,
            allowed_use,
            intensity,
        }
    }

    /// Creates a household with the standard equipment set for its size.
    ///
    /// One-person households own fewer and smaller devices than larger
    /// households — Section 3.2.1 points out exactly this disparity as the
    /// weakness of the take-it-or-leave-it offer method.
    pub fn standard(id: HouseholdId, occupants: u32) -> Household {
        let occupants = occupants.max(1);
        let devices = standard_devices(occupants).to_vec();
        let intensity = 0.6 + 0.2 * f64::from(occupants);
        // Contracted allowance: generous margin above typical winter use.
        let allowed = KilowattHours(18.0 + 9.0 * f64::from(occupants));
        Household::new(id, occupants, devices, allowed, intensity)
    }

    /// The household's identifier.
    pub fn id(&self) -> HouseholdId {
        self.id
    }

    /// Number of occupants.
    pub fn occupants(&self) -> u32 {
        self.occupants
    }

    /// The installed devices.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Contracted daily consumption allowance.
    pub fn allowed_use(&self) -> KilowattHours {
        self.allowed_use
    }

    /// Usage-intensity multiplier.
    pub fn intensity(&self) -> f64 {
        self.intensity
    }

    /// The household's demand (kWh per slot) for a day with mean outdoor
    /// temperature `mean_temp` °C. Seeded per-household jitter makes
    /// different households differ even with identical equipment.
    ///
    /// This is the readable physics oracle: one allocated
    /// [`Device::load_profile`] per device, summed slot by slot in
    /// device-list order. Aggregate demand is synthesised per device
    /// kind instead ([`aggregate_demand`](crate::demand::aggregate_demand)
    /// and the [`crate::slab`] kernel); the proptests pin the sum of
    /// these profiles to it within 1e-12 relative per slot.
    pub fn demand_profile(&self, axis: &TimeAxis, mean_temp: f64, seed: u64) -> Series {
        let mut total = Series::zeros(*axis);
        for (_, load) in self.device_loads(axis, mean_temp, seed) {
            total.accumulate(&load);
        }
        total
    }

    /// Each device with its usage intensity for the day: the
    /// household's intensity times one jitter draw per device, in
    /// device-list order.
    pub(crate) fn jittered_devices(&self, seed: u64) -> impl Iterator<Item = (&Device, f64)> + '_ {
        let mut rng = jitter_rng(seed, self.id.0);
        self.devices.iter().map(move |dev| {
            let jitter = rng.gen_range(0.85..1.15);
            (dev, self.intensity * jitter)
        })
    }

    /// Each device with its load profile for the day, in device-list
    /// order.
    fn device_loads<'s>(
        &'s self,
        axis: &'s TimeAxis,
        mean_temp: f64,
        seed: u64,
    ) -> impl Iterator<Item = (&'s Device, Series)> + 's {
        self.jittered_devices(seed)
            .map(move |(dev, intensity)| (dev, dev.load_profile(axis, mean_temp, intensity)))
    }

    /// Energy the household could shed over `interval` given its devices'
    /// flexibility — the aggregate answer its Resource Consumer Agents give
    /// to "how much can be saved in this time interval?" (Section 3.2.3).
    pub fn saving_potential(
        &self,
        axis: &TimeAxis,
        mean_temp: f64,
        seed: u64,
        interval: Interval,
    ) -> KilowattHours {
        self.interval_flexibility(axis, mean_temp, seed, interval).1
    }

    /// Interval demand and saving potential in one pass over the
    /// devices, returning `(usage, potential)`.
    ///
    /// Interval demand is linear in device power, so each device's
    /// energy over the interval is its power times its kind's duty
    /// integral (`Σ duty × slot hours` over the interval's slots within
    /// the day); usage sums those energies and potential their
    /// flexible shares, both in device-list order. This is the
    /// reference the scenario-derivation kernel
    /// [`interval_flexibility_slab`](crate::slab::interval_flexibility_slab)
    /// is pinned byte-identical to (both take the integral from one
    /// definition), and it stays within 1e-12 relative of the per-slot
    /// physics, [`Household::interval_flexibility_per_slot`].
    pub fn interval_flexibility(
        &self,
        axis: &TimeAxis,
        mean_temp: f64,
        seed: u64,
        interval: Interval,
    ) -> (KilowattHours, KilowattHours) {
        let slot_hours = axis.slot_hours();
        let mut duty = vec![0.0; axis.slots_per_day()];
        let mut usage = KilowattHours::ZERO;
        let mut potential = KilowattHours::ZERO;
        for (dev, intensity) in self.jittered_devices(seed) {
            dev.kind().duty_shape_into(&mut duty);
            let integral = duty_integral(&duty, slot_hours, interval);
            let energy = KilowattHours(dev.power(mean_temp, intensity) * integral);
            usage += energy;
            potential += dev.flexibility() * energy;
        }
        (usage, potential)
    }

    /// The per-slot physics that [`Household::interval_flexibility`]
    /// factorises, returning `(usage, potential)`: one allocated
    /// [`Device::load_profile`] per device, usage the household's
    /// summed profile over the interval
    /// ([`Household::demand_profile`], then [`Series::energy_over`])
    /// and potential each device's [`Device::saving_potential`], summed
    /// in device-list order. The readable oracle the proptests and E20
    /// hold the per-kind pair within 1e-12 relative of.
    pub fn interval_flexibility_per_slot(
        &self,
        axis: &TimeAxis,
        mean_temp: f64,
        seed: u64,
        interval: Interval,
    ) -> (KilowattHours, KilowattHours) {
        let mut total = Series::zeros(*axis);
        let mut potential = KilowattHours::ZERO;
        for (dev, load) in self.device_loads(axis, mean_temp, seed) {
            potential += dev.saving_potential(&load, interval);
            total.accumulate(&load);
        }
        (total.energy_over(interval), potential)
    }

    /// The largest cut-down fraction of interval usage the household can
    /// physically implement: saving potential / interval usage.
    pub fn max_cutdown(
        &self,
        axis: &TimeAxis,
        mean_temp: f64,
        seed: u64,
        interval: Interval,
    ) -> Fraction {
        let (usage, potential) = self.interval_flexibility(axis, mean_temp, seed, interval);
        if usage.value() <= f64::EPSILON {
            return Fraction::ZERO;
        }
        Fraction::clamped(potential / usage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimeOfDay;

    fn axis() -> TimeAxis {
        TimeAxis::quarter_hourly()
    }

    fn evening(axis: TimeAxis) -> Interval {
        axis.between(TimeOfDay::hm(17, 0).unwrap(), TimeOfDay::hm(21, 0).unwrap())
    }

    #[test]
    fn standard_household_scales_with_occupants() {
        let one = Household::standard(HouseholdId(1), 1);
        let four = Household::standard(HouseholdId(1), 4);
        let a = one.demand_profile(&axis(), -4.0, 7).total();
        let b = four.demand_profile(&axis(), -4.0, 7).total();
        assert!(
            b > a,
            "four-person home ({b}) should out-consume single ({a})"
        );
        assert!(four.allowed_use() > one.allowed_use());
    }

    #[test]
    #[should_panic(expected = "at least one occupant")]
    fn zero_occupants_panics() {
        let _ = Household::new(HouseholdId(0), 0, vec![], KilowattHours(10.0), 1.0);
    }

    #[test]
    fn demand_is_deterministic_per_seed() {
        let h = Household::standard(HouseholdId(9), 3);
        assert_eq!(
            h.demand_profile(&axis(), -4.0, 7),
            h.demand_profile(&axis(), -4.0, 7)
        );
        assert_ne!(
            h.demand_profile(&axis(), -4.0, 7),
            h.demand_profile(&axis(), -4.0, 8)
        );
    }

    #[test]
    fn different_households_differ() {
        let a = Household::standard(HouseholdId(1), 3).demand_profile(&axis(), -4.0, 7);
        let b = Household::standard(HouseholdId(2), 3).demand_profile(&axis(), -4.0, 7);
        assert_ne!(a, b);
    }

    #[test]
    fn evening_peak_exists() {
        let h = Household::standard(HouseholdId(5), 3);
        let demand = h.demand_profile(&axis(), -4.0, 7);
        let peak_slot = demand.argmax();
        let t = axis().start_of(peak_slot);
        assert!(
            (17..=21).contains(&t.hour()),
            "household peak at {t}, expected early evening"
        );
    }

    #[test]
    fn saving_potential_positive_but_partial() {
        let h = Household::standard(HouseholdId(3), 3);
        let iv = evening(axis());
        let potential = h.saving_potential(&axis(), -4.0, 7, iv);
        let usage = h.demand_profile(&axis(), -4.0, 7).energy_over(iv);
        assert!(potential.value() > 0.0);
        assert!(potential < usage, "cannot shed more than is used");
    }

    #[test]
    fn max_cutdown_in_unit_range() {
        let h = Household::standard(HouseholdId(3), 2);
        let f = h.max_cutdown(&axis(), -4.0, 7, evening(axis()));
        assert!(f > Fraction::ZERO);
        assert!(f < Fraction::ONE);
    }

    #[test]
    fn interval_flexibility_agrees_with_the_per_slot_physics() {
        let h = Household::standard(HouseholdId(7), 3);
        let iv = evening(axis());
        let (usage, potential) = h.interval_flexibility(&axis(), -4.0, 7, iv);
        assert_eq!(potential, h.saving_potential(&axis(), -4.0, 7, iv));
        let (slot_usage, slot_potential) = h.interval_flexibility_per_slot(&axis(), -4.0, 7, iv);
        assert_eq!(
            slot_usage,
            h.demand_profile(&axis(), -4.0, 7).energy_over(iv)
        );
        for (a, b) in [(usage, slot_usage), (potential, slot_potential)] {
            assert!(
                (a.value() - b.value()).abs() <= 1e-12 * b.value().abs(),
                "{a} vs {b}"
            );
        }
    }

    #[test]
    fn empty_interval_has_no_potential() {
        let h = Household::standard(HouseholdId(3), 2);
        let f = h.max_cutdown(&axis(), -4.0, 7, Interval::new(10, 10));
        assert_eq!(f, Fraction::ZERO);
    }

    #[test]
    fn colder_day_increases_demand() {
        let h = Household::standard(HouseholdId(3), 3);
        let mild = h.demand_profile(&axis(), 5.0, 7).total();
        let cold = h.demand_profile(&axis(), -15.0, 7).total();
        assert!(cold > mild);
    }

    #[test]
    fn display_id() {
        assert_eq!(HouseholdId(42).to_string(), "household-42");
    }
}
