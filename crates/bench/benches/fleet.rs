//! E15 bench: the fleet layer.
//!
//! `FleetRunner` interleaving N campaigns' peak negotiations on one
//! shared `WorkerPool` beats running the same campaigns back to back,
//! because a campaign's sequential day-bookkeeping no longer leaves
//! cores idle. (The demand kernels are timed in `city_scale.rs`.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use loadbal_core::campaign::{CampaignBuilder, CampaignRunner, ClosedLoop, FixedPredictor};
use loadbal_core::fleet::FleetRunner;
use powergrid::calendar::Horizon;
use powergrid::household::Household;
use powergrid::population::PopulationBuilder;
use powergrid::prediction::WeatherRegression;
use powergrid::weather::{Season, WeatherModel};
use std::num::NonZeroUsize;

fn cell<'a>(homes: &'a [Household], horizon: &Horizon, weather: &WeatherModel) -> CampaignRunner<'a> {
    CampaignBuilder::new(homes, weather, horizon)
        .predictor(FixedPredictor(WeatherRegression::calibrated()))
        .feedback(ClosedLoop)
        .build()
}

fn bench_fleet(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet");
    let weather = WeatherModel::winter();
    let horizon = Horizon::new(8, 0, Season::Winter);
    for &cells in &[4usize, 8, 16] {
        let populations: Vec<Vec<Household>> = (0..cells as u64)
            .map(|s| PopulationBuilder::new().households(120).build(42 ^ s))
            .collect();
        let build = |threads: Option<usize>| {
            let mut fleet = FleetRunner::new();
            if let Some(t) = threads {
                fleet = fleet.threads(NonZeroUsize::new(t).expect("≥ 1"));
            }
            for (i, homes) in populations.iter().enumerate() {
                fleet = fleet.cell(format!("cell{i}"), cell(homes, &horizon, &weather));
            }
            fleet
        };
        // Back-to-back campaigns (the pre-fleet execution model)...
        group.bench_with_input(
            BenchmarkId::new("sequential_cells", cells),
            &build(Some(1)),
            |b, fleet| b.iter(|| std::hint::black_box(fleet.run_sequential())),
        );
        // ...versus one shared pool interleaving all cells' peaks.
        group.bench_with_input(
            BenchmarkId::new("shared_pool", cells),
            &build(None),
            |b, fleet| b.iter(|| std::hint::black_box(fleet.run())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fleet);
criterion_main!(benches);
