//! Property tests pinning the template-encoded population's central
//! claim: for any population, axis, weather and seed, the batched slab
//! kernels produce **byte-identical** results to their allocating
//! `Household` references — the per-kind `aggregate_demand` fold for
//! demand synthesis, the per-kind `Household::interval_flexibility`
//! fold for interval flexibility and saving potential — and both stay
//! within 1e-12 relative of the per-slot physics (the sum of
//! `Household::demand_profile` per slot, and
//! `Household::interval_flexibility_per_slot` per household). Every slab accessor returns the
//! household's own field bits, and a whole negotiated season is the
//! same whether a cell borrows a slab shard or converts its own
//! households, at any thread count.

use loadbal::core::campaign::{CampaignBuilder, CampaignRunner, ClosedLoop, FixedPredictor};
use loadbal::core::fleet::FleetRunner;
use powergrid::calendar::Horizon;
use powergrid::demand::aggregate_demand;
use powergrid::device::{Device, DeviceKind};
use powergrid::household::{Household, HouseholdId};
use powergrid::population::PopulationBuilder;
use powergrid::prediction::MovingAverage;
use powergrid::series::Series;
use powergrid::slab::{
    aggregate_demand_slab, interval_flexibility_slab, saving_potential_slab, DemandScratch,
    PopulationSlab,
};
use powergrid::time::{Interval, TimeAxis};
use powergrid::units::{Fraction, KilowattHours, Kilowatts};
use powergrid::weather::{Season, WeatherModel};
use proptest::prelude::*;
use std::num::NonZeroUsize;

fn arb_axis() -> impl Strategy<Value = TimeAxis> {
    prop_oneof![Just(TimeAxis::hourly()), Just(TimeAxis::quarter_hourly()),]
}

/// Value sets for hand-built households: small, so that households
/// repeat exactly, and with `0.0` beside `-0.0` wherever a household
/// accepts both.
const POWERS: [f64; 4] = [0.0, -0.0, 0.4, 2.0];
const FLEXIBILITIES: [f64; 4] = [0.0, -0.0, 0.3, 1.0];
const ALLOWANCES: [f64; 4] = [0.0, -0.0, 18.0, 27.0];
const INTENSITIES: [f64; 3] = [0.6, 1.0, 1.4];

/// Everything a hand-built household holds but its id.
#[derive(Debug, Clone)]
struct Shape {
    occupants: u32,
    devices: Vec<Device>,
    allowance: f64,
    intensity: f64,
}

impl Shape {
    fn household(&self, id: u64) -> Household {
        Household::new(
            HouseholdId(id),
            self.occupants,
            self.devices.clone(),
            KilowattHours(self.allowance),
            self.intensity,
        )
    }

    /// The shape with the sign of every zero flipped: equal under
    /// `f64 ==`, and a different household bit for bit whenever the
    /// shape holds a zero.
    fn twin(&self) -> Shape {
        let flip = |x: f64| if x == 0.0 { -x } else { x };
        Shape {
            devices: self
                .devices
                .iter()
                .map(|d| {
                    Device::new(
                        d.kind(),
                        Kilowatts(flip(d.rated_power().value())),
                        Fraction::clamped(flip(d.flexibility().value())),
                    )
                })
                .collect(),
            allowance: flip(self.allowance),
            ..self.clone()
        }
    }
}

/// A `Household::new` shape: 0–9 devices whose kinds may repeat.
fn arb_shape() -> impl Strategy<Value = Shape> {
    (
        1u32..4,
        prop::collection::vec((0..8usize, 0..POWERS.len(), 0..FLEXIBILITIES.len()), 0..10),
        0..ALLOWANCES.len(),
        0..INTENSITIES.len(),
    )
        .prop_map(|(occupants, devices, allowance, intensity)| Shape {
            occupants,
            devices: devices
                .into_iter()
                .map(|(kind, power, flexibility)| {
                    Device::new(
                        DeviceKind::all()[kind],
                        Kilowatts(POWERS[power]),
                        Fraction::clamped(FLEXIBILITIES[flexibility]),
                    )
                })
                .collect(),
            allowance: ALLOWANCES[allowance],
            intensity: INTENSITIES[intensity],
        })
}

/// Standard households of every size mixed with hand-built ones, under
/// non-contiguous ids — the slab must reproduce any mix, not just
/// builder output. Each case draws up to three shapes plus their
/// signed-zero twins and reuses them, so households repeat exactly and
/// households that differ only in the sign of a zero sit side by side.
fn arb_households() -> impl Strategy<Value = Vec<Household>> {
    (
        prop::collection::vec(arb_shape(), 1..4),
        prop::collection::vec((0u64..1_000_000, 0usize..11), 1..40),
    )
        .prop_map(|(shapes, specs)| {
            let twins = shapes.iter().map(Shape::twin).collect::<Vec<_>>();
            let shapes = [shapes, twins].concat();
            specs
                .into_iter()
                .map(|(id, pick)| match pick {
                    0..=4 => Household::standard(HouseholdId(id), pick as u32 + 1),
                    _ => shapes[pick % shapes.len()].household(id),
                })
                .collect()
        })
}

/// A device's kind and its two values as bit patterns.
fn device_bits(d: &Device) -> (DeviceKind, u64, u64) {
    (
        d.kind(),
        d.rated_power().value().to_bits(),
        d.flexibility().value().to_bits(),
    )
}

/// An interval that may be empty, interior, or overhang the day (the
/// kernels clip; the reference fold sweeps the whole day — results
/// must still agree bit for bit).
fn arb_interval(max_slots: usize) -> impl Strategy<Value = Interval> {
    (0..=max_slots, 0..=max_slots * 2).prop_map(|(a, b)| {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        Interval::new(lo, hi)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One day of aggregate demand: the slab kernel returns bit for
    /// bit the curve the per-kind `aggregate_demand` reference folds
    /// over the household objects (same jitter streams, same per-kind
    /// powers in the same order, same eight products per slot).
    #[test]
    fn slab_demand_is_byte_identical_to_object_demand(
        homes in arb_households(),
        axis in arb_axis(),
        mean_seed in 0u64..1000,
        seed in 0u64..1000,
    ) {
        let slab = PopulationSlab::from_households(&homes);
        let weather = WeatherModel::winter().temperatures(&axis, mean_seed);
        let oracle = aggregate_demand(&homes, &weather, &axis, seed);
        prop_assert_eq!(oracle, aggregate_demand_slab(slab.view(), &weather, &axis, seed));
    }

    /// The per-kind fold against the physics it factorises: every slot
    /// of the slab curve is within 1e-12 relative of summing each
    /// household's `Household::demand_profile` slot by slot (one load
    /// per device per slot). Every load is ≥ 0, so nothing cancels and
    /// a zero slot must match exactly.
    #[test]
    fn slab_demand_is_within_1e_12_of_the_per_slot_physics(
        homes in arb_households(),
        axis in arb_axis(),
        mean_seed in 0u64..1000,
        seed in 0u64..1000,
    ) {
        let slab = PopulationSlab::from_households(&homes);
        let weather = WeatherModel::winter().temperatures(&axis, mean_seed);
        let mut physics = Series::zeros(axis);
        for h in &homes {
            physics.accumulate(&h.demand_profile(&axis, weather.mean(), seed));
        }
        let curve = aggregate_demand_slab(slab.view(), &weather, &axis, seed);
        prop_assert_eq!(curve.len(), physics.len());
        for (slot, (&a, &b)) in curve.series().values().iter().zip(physics.values()).enumerate() {
            prop_assert!(
                (a - b).abs() <= 1e-12 * b.abs(),
                "slot {}: per-kind {} vs per-slot {}", slot, a, b
            );
        }
    }

    /// Interval flexibility and saving potential: per household, the
    /// per-kind kernel delivers exactly the `(usage, potential)` pair
    /// the reference fold computes, and the slab fold equals the
    /// household fold.
    #[test]
    fn slab_flexibility_is_byte_identical_per_household(
        homes in arb_households(),
        axis in arb_axis(),
        mean_temp in -12.0f64..22.0,
        seed in 0u64..1000,
        interval in arb_interval(96),
    ) {
        let slab = PopulationSlab::from_households(&homes);
        let mut scratch = DemandScratch::new();
        let mut pairs = Vec::with_capacity(homes.len());
        interval_flexibility_slab(
            slab.view(), &axis, mean_temp, seed, interval, &mut scratch,
            |i, usage, potential| pairs.push((i, usage, potential)),
        );
        prop_assert_eq!(pairs.len(), homes.len());
        for (h, (i, usage, potential)) in homes.iter().zip(&pairs) {
            let clipped = interval.intersect(Interval::new(0, axis.slots_per_day()));
            let (obj_usage, obj_potential) =
                h.interval_flexibility(&axis, mean_temp, seed, clipped);
            prop_assert_eq!(homes[*i].id(), h.id());
            prop_assert_eq!(usage.value().to_bits(), obj_usage.value().to_bits());
            prop_assert_eq!(potential.value().to_bits(), obj_potential.value().to_bits());
        }
        let slab_total =
            saving_potential_slab(slab.view(), &axis, mean_temp, seed, interval, &mut scratch);
        let object_total = homes.iter().fold(KilowattHours::ZERO, |acc, h| {
            acc + h.saving_potential(&axis, mean_temp, seed, interval)
        });
        prop_assert_eq!(slab_total.value().to_bits(), object_total.value().to_bits());
    }

    /// The per-kind interval fold against the physics it factorises:
    /// every household's `(usage, potential)` from the kernel is within
    /// 1e-12 relative of the per-slot sweep (one load per device per
    /// slot, summed over the interval). Every load is ≥ 0, so nothing
    /// cancels and a zero must match exactly.
    #[test]
    fn slab_flexibility_is_within_1e_12_of_the_per_slot_physics(
        homes in arb_households(),
        axis in arb_axis(),
        mean_temp in -12.0f64..22.0,
        seed in 0u64..1000,
        interval in arb_interval(96),
    ) {
        let slab = PopulationSlab::from_households(&homes);
        let mut pairs = Vec::with_capacity(homes.len());
        interval_flexibility_slab(
            slab.view(), &axis, mean_temp, seed, interval, &mut DemandScratch::new(),
            |_, usage, potential| pairs.push((usage, potential)),
        );
        prop_assert_eq!(pairs.len(), homes.len());
        for (h, (usage, potential)) in homes.iter().zip(pairs) {
            let (slot_usage, slot_potential) =
                h.interval_flexibility_per_slot(&axis, mean_temp, seed, interval);
            for (what, a, b) in [
                ("usage", usage, slot_usage),
                ("potential", potential, slot_potential),
            ] {
                let (a, b) = (a.value(), b.value());
                prop_assert!(
                    (a - b).abs() <= 1e-12 * b.abs(),
                    "{} {}: per-kind {} vs per-slot {}", h.id(), what, a, b
                );
            }
        }
    }

    /// Every `SlabView` accessor returns the object household's field
    /// bit for bit: interning never merges `-0.0` into `0.0`, and never
    /// drops or reorders a device.
    #[test]
    fn slab_accessors_return_every_field_bit_for_bit(homes in arb_households()) {
        let slab = PopulationSlab::from_households(&homes);
        let view = slab.view();
        prop_assert_eq!(view.len(), homes.len());
        prop_assert_eq!(
            slab.device_entries(),
            homes.iter().map(|h| h.devices().len()).sum::<usize>()
        );
        for (i, h) in homes.iter().enumerate() {
            prop_assert_eq!(view.id(i), h.id());
            prop_assert_eq!(view.occupants(i), h.occupants());
            prop_assert_eq!(view.intensity(i).to_bits(), h.intensity().to_bits());
            prop_assert_eq!(
                view.allowed_use(i).value().to_bits(),
                h.allowed_use().value().to_bits()
            );
            prop_assert_eq!(
                view.devices(i).map(|d| device_bits(&d)).collect::<Vec<_>>(),
                h.devices().iter().map(device_bits).collect::<Vec<_>>()
            );
        }
    }

    /// The builder's two exits agree: `build_slab(seed)` is exactly
    /// the slab of `build(seed)` — same RNG stream, same field values.
    #[test]
    fn build_slab_equals_slab_of_build(
        households in 1usize..120,
        seed in 0u64..1000,
    ) {
        let builder = PopulationBuilder::new().households(households);
        prop_assert_eq!(
            builder.build_slab(seed),
            PopulationSlab::from_households(&builder.build(seed))
        );
    }
}

fn season_cell(builder: CampaignBuilder<'_>) -> CampaignRunner<'_> {
    builder
        .warmup_days(2)
        .predictor(FixedPredictor(MovingAverage::new(2)))
        .feedback(ClosedLoop)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A whole negotiated fleet season is ownership-agnostic: one slab
    /// sharded zero-copy across cells returns byte for byte what cells
    /// converting the same households' contiguous slices into owned
    /// slabs do — for any shard count and any worker count, parallel
    /// or sequential.
    #[test]
    fn fleet_season_is_backend_agnostic_across_thread_counts(
        households in 20usize..60,
        cells in 1usize..4,
        threads in 1usize..5,
        seed in 0u64..40,
    ) {
        let weather = WeatherModel::winter();
        let horizon = Horizon::new(5, 0, Season::Winter);
        let builder = PopulationBuilder::new().households(households);
        let slab = builder.build_slab(seed);
        let homes = builder.build(seed);
        let threads = NonZeroUsize::new(threads).expect("non-zero");

        let slab_fleet = FleetRunner::new()
            .sharded_slab(&slab, cells, |shard, _| {
                season_cell(CampaignBuilder::new_ref(shard, &weather, &horizon))
            })
            .threads(threads);
        let mut object_fleet = FleetRunner::new();
        let mut start = 0;
        for (i, shard) in slab.shards(cells).into_iter().enumerate() {
            let end = start + shard.len();
            object_fleet = object_fleet.cell(
                format!("shard-{i}"),
                season_cell(CampaignBuilder::new(&homes[start..end], &weather, &horizon)),
            );
            start = end;
        }
        prop_assert_eq!(start, homes.len());
        let object_fleet = object_fleet.threads(threads);

        let slab_report = slab_fleet.run();
        prop_assert_eq!(&slab_report, &object_fleet.run());
        prop_assert_eq!(&slab_report, &slab_fleet.run_sequential());
    }
}
