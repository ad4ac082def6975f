//! Property tests pinning the struct-of-arrays population's central
//! claim: for any population, axis, weather and seed, the batched slab
//! kernels produce **byte-identical** results to the allocating
//! `Household` reference folds — demand synthesis, interval flexibility
//! and saving potential — and a whole negotiated season is the same
//! whether a cell borrows a slab shard or converts its own households,
//! at any thread count.

use loadbal::core::campaign::{CampaignBuilder, CampaignRunner, ClosedLoop, FixedPredictor};
use loadbal::core::fleet::FleetRunner;
use powergrid::calendar::Horizon;
use powergrid::demand::aggregate_demand;
use powergrid::household::{Household, HouseholdId};
use powergrid::population::PopulationBuilder;
use powergrid::prediction::MovingAverage;
use powergrid::slab::{
    aggregate_demand_slab, interval_flexibility_slab, saving_potential_slab, DemandScratch,
    PopulationSlab,
};
use powergrid::time::{Interval, TimeAxis};
use powergrid::units::KilowattHours;
use powergrid::weather::{Season, WeatherModel};
use proptest::prelude::*;
use std::num::NonZeroUsize;

fn arb_axis() -> impl Strategy<Value = TimeAxis> {
    prop_oneof![Just(TimeAxis::hourly()), Just(TimeAxis::quarter_hourly()),]
}

/// Standard households with arbitrary occupancies and non-contiguous
/// ids — the slab must reproduce any mix, not just builder output.
fn arb_households() -> impl Strategy<Value = Vec<Household>> {
    prop::collection::vec((0u64..1_000_000, 1u32..6), 1..40).prop_map(|specs| {
        specs
            .into_iter()
            .map(|(id, occupants)| Household::standard(HouseholdId(id), occupants))
            .collect()
    })
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

    /// One day of aggregate demand: the register-blocked slab kernel
    /// returns bit-for-bit the curve the `Household::demand_profile`
    /// oracle fold sums.
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

    /// Interval flexibility and saving potential: per household, the
    /// fused clipped-interval sweep delivers exactly the `(usage,
    /// potential)` pair the reference fold computes, and the slab fold
    /// equals the household fold.
    #[test]
    fn slab_flexibility_is_byte_identical_per_household(
        homes in arb_households(),
        axis in arb_axis(),
        mean_temp in -12.0f64..22.0,
        seed in 0u64..1000,
        interval in arb_interval(96),
    ) {
        let slab = PopulationSlab::from_households(&homes);
        let mut scratch = DemandScratch::new(&axis);
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
