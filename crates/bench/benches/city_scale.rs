//! E20 bench: the slab kernels against the allocating household
//! reference folds.
//!
//! Two claims under the stopwatch, mirroring the `city_scale`
//! experiment. First, one day of demand synthesis over a large
//! population is far cheaper through the batched, register-blocked
//! slab kernel than through the [`Household::demand_profile`] fold —
//! byte-identical curves either way. Second, scenario derivation
//! (interval flexibility over a detected peak) benefits again from the
//! slab's clipped-interval sweep, which touches only the peak's slots
//! instead of materialising whole-day profiles.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use powergrid::demand::aggregate_demand;
use powergrid::prelude::*;
use powergrid::slab::{aggregate_demand_slab, saving_potential_slab, DemandScratch};

fn bench_demand_synthesis(c: &mut Criterion) {
    let mut group = c.benchmark_group("demand_synthesis");
    let axis = TimeAxis::quarter_hourly();
    let weather = WeatherModel::winter().temperatures(&axis, 42);
    for &households in &[10_000usize, 100_000] {
        let builder = PopulationBuilder::new().households(households);
        let homes = builder.build(42);
        let slab = builder.build_slab(42);
        group.bench_with_input(
            BenchmarkId::new("household_reference", households),
            &homes,
            |b, homes| {
                b.iter(|| std::hint::black_box(aggregate_demand(homes, &weather, &axis, 42)))
            },
        );
        group.bench_with_input(BenchmarkId::new("slab", households), &slab, |b, slab| {
            b.iter(|| std::hint::black_box(aggregate_demand_slab(slab.view(), &weather, &axis, 42)))
        });
    }
    group.finish();
}

fn bench_scenario_derivation(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_derivation");
    let axis = TimeAxis::quarter_hourly();
    // A 2-hour evening peak: the clipped sweep does 8/96ths of the work.
    let peak = Interval::new(72, 80);
    for &households in &[10_000usize, 100_000] {
        let builder = PopulationBuilder::new().households(households);
        let homes = builder.build(42);
        let slab = builder.build_slab(42);
        group.bench_with_input(
            BenchmarkId::new("household_reference", households),
            &homes,
            |b, homes| {
                b.iter(|| {
                    let total = homes.iter().fold(KilowattHours::ZERO, |acc, h| {
                        acc + h.saving_potential(&axis, -2.0, 42, peak)
                    });
                    std::hint::black_box(total)
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("slab", households), &slab, |b, slab| {
            b.iter(|| {
                let mut scratch = DemandScratch::new(&axis);
                std::hint::black_box(saving_potential_slab(
                    slab.view(),
                    &axis,
                    -2.0,
                    42,
                    peak,
                    &mut scratch,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_demand_synthesis, bench_scenario_derivation);
criterion_main!(benches);
