//! Struct-of-arrays populations: the representation the pipeline reads.
//!
//! A million [`Household`]s owning a `Vec<Device>` each are a million
//! tiny heap trees and a pointer-chase per demand sweep. This module
//! stores the same population as one contiguous array per field —
//! [`PopulationSlab`], households delimited by device-entry offsets —
//! plus batched kernels that reuse a [`DemandScratch`] (duty shapes
//! computed once per resolution) and stream fused multiply-add passes
//! over slices:
//!
//! * [`aggregate_demand_slab`] — one day of aggregate demand,
//! * [`interval_flexibility_slab`] — per-household `(usage, potential)`
//!   over a peak interval (the scenario-derivation hot path, swept over
//!   the clipped interval only),
//! * [`saving_potential_slab`] — aggregate shed capacity over an
//!   interval.
//!
//! Every kernel is **byte-identical** to folding the corresponding
//! allocating [`Household`] reference over the same population: same
//! per-household jitter stream, same left-associated multiplications,
//! same accumulation order (per-device, then per-household, then
//! grand). This is pinned by proptests in `tests/slab_properties.rs`,
//! which is why campaigns read only slabs without re-blessing a single
//! golden report.
//!
//! Shards for fleet work come from [`PopulationSlab::shards`]: borrowed
//! [`SlabView`]s over contiguous household ranges, no copying.

use crate::demand::DemandCurve;
use crate::device::DeviceKind;
use crate::household::{jitter_rng, standard_devices, Household, HouseholdId};
use crate::series::Series;
use crate::time::{Interval, TimeAxis};
use crate::units::KilowattHours;
use rand::Rng;
use std::ops::Range;

/// The position of `kind` in [`DeviceKind::all`] — the slab's per-entry
/// kind encoding.
fn kind_pos(kind: DeviceKind) -> u8 {
    DeviceKind::all()
        .iter()
        .position(|k| *k == kind)
        .expect("every kind appears in DeviceKind::all()") as u8
}

/// A population stored as struct-of-arrays: one contiguous array per
/// field, households delimited by entry offsets.
///
/// Field values are bit-for-bit those of the object backend —
/// [`PopulationBuilder::build_slab`](crate::population::PopulationBuilder::build_slab)
/// and [`PopulationSlab::from_households`] produce identical slabs for
/// the same seed.
///
/// # Example
///
/// ```
/// use powergrid::population::PopulationBuilder;
/// use powergrid::slab::PopulationSlab;
///
/// let builder = PopulationBuilder::new().households(40);
/// let slab = builder.build_slab(42);
/// assert_eq!(slab.len(), 40);
/// assert_eq!(slab, PopulationSlab::from_households(&builder.build(42)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationSlab {
    /// Raw household ids, in population order.
    ids: Vec<u64>,
    /// Occupants per household.
    occupants: Vec<u32>,
    /// Usage-intensity multiplier per household.
    intensity: Vec<f64>,
    /// Contracted daily allowance (kWh) per household.
    allowed_use: Vec<f64>,
    /// Device-entry ranges: household `h` owns entries
    /// `offsets[h]..offsets[h + 1]`. Always `len() + 1` long.
    offsets: Vec<u32>,
    /// Per-entry device kind, as an index into [`DeviceKind::all`].
    /// Entries keep each household's device-list order — the jitter
    /// stream draws one value per entry in this order.
    kind_index: Vec<u8>,
    /// Per-entry rated power (kW).
    rated_power: Vec<f64>,
    /// Per-entry shedable fraction, in `[0, 1]`.
    flexibility: Vec<f64>,
}

impl PopulationSlab {
    /// An empty slab.
    pub fn new() -> PopulationSlab {
        PopulationSlab::with_capacity(0)
    }

    /// An empty slab with room for `households` standard households.
    pub fn with_capacity(households: usize) -> PopulationSlab {
        let mut offsets = Vec::with_capacity(households + 1);
        offsets.push(0);
        PopulationSlab {
            ids: Vec::with_capacity(households),
            occupants: Vec::with_capacity(households),
            intensity: Vec::with_capacity(households),
            allowed_use: Vec::with_capacity(households),
            offsets,
            // Standard households own 7 or 8 devices.
            kind_index: Vec::with_capacity(households * 8),
            rated_power: Vec::with_capacity(households * 8),
            flexibility: Vec::with_capacity(households * 8),
        }
    }

    /// Converts an object population, preserving household and
    /// device-list order (and therefore the jitter stream).
    pub fn from_households(households: &[Household]) -> PopulationSlab {
        let mut slab = PopulationSlab::with_capacity(households.len());
        for h in households {
            slab.push(h);
        }
        slab
    }

    /// Appends one object household.
    pub fn push(&mut self, h: &Household) {
        self.ids.push(h.id().0);
        self.occupants.push(h.occupants());
        self.intensity.push(h.intensity());
        self.allowed_use.push(h.allowed_use().value());
        for dev in h.devices() {
            self.kind_index.push(kind_pos(dev.kind()));
            self.rated_power.push(dev.rated_power().value());
            self.flexibility.push(dev.flexibility().value());
        }
        self.offsets.push(self.kind_index.len() as u32);
    }

    /// Appends a standard household of `occupants` without materialising
    /// a [`Household`]: same field values as pushing
    /// [`Household::standard`], no per-household heap tree.
    pub(crate) fn push_standard(&mut self, id: HouseholdId, occupants: u32) {
        let occupants = occupants.max(1);
        self.ids.push(id.0);
        self.occupants.push(occupants);
        // Field formulas mirror `Household::standard`; pinned equal by
        // the `build_slab` == `from_households(build)` tests.
        self.intensity.push(0.6 + 0.2 * f64::from(occupants));
        self.allowed_use.push(18.0 + 9.0 * f64::from(occupants));
        for dev in standard_devices(occupants) {
            self.kind_index.push(kind_pos(dev.kind()));
            self.rated_power.push(dev.rated_power().value());
            self.flexibility.push(dev.flexibility().value());
        }
        self.offsets.push(self.kind_index.len() as u32);
    }

    /// Number of households.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if the slab holds no households.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of device entries across all households.
    pub fn device_entries(&self) -> usize {
        self.kind_index.len()
    }

    /// Heap bytes retained by the slab's arrays (capacity, not length) —
    /// the footprint figure E20 reports against the object backend.
    pub fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ids.capacity() * size_of::<u64>()
            + self.occupants.capacity() * size_of::<u32>()
            + self.intensity.capacity() * size_of::<f64>()
            + self.allowed_use.capacity() * size_of::<f64>()
            + self.offsets.capacity() * size_of::<u32>()
            + self.kind_index.capacity() * size_of::<u8>()
            + self.rated_power.capacity() * size_of::<f64>()
            + self.flexibility.capacity() * size_of::<f64>()
    }

    /// A borrowed view of the whole population.
    pub fn view(&self) -> SlabView<'_> {
        SlabView {
            slab: self,
            start: 0,
            end: self.len(),
        }
    }

    /// A borrowed view of households `start..end` (population order).
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > len()`.
    pub fn view_range(&self, start: usize, end: usize) -> SlabView<'_> {
        assert!(
            start <= end && end <= self.len(),
            "view {start}..{end} out of range for {} households",
            self.len()
        );
        SlabView {
            slab: self,
            start,
            end,
        }
    }

    /// Splits the population into `parts` contiguous shards (sizes
    /// differing by at most one, earlier shards larger) — zero-copy
    /// cells for a fleet. Households keep their global ids, so a
    /// sharded season's jitter streams match the unsharded ones.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is zero.
    pub fn shards(&self, parts: usize) -> Vec<SlabView<'_>> {
        assert!(parts > 0, "cannot shard into zero parts");
        let n = self.len();
        let base = n / parts;
        let extra = n % parts;
        let mut start = 0;
        (0..parts)
            .map(|p| {
                let size = base + usize::from(p < extra);
                let view = self.view_range(start, start + size);
                start += size;
                view
            })
            .collect()
    }
}

impl Default for PopulationSlab {
    fn default() -> Self {
        PopulationSlab::new()
    }
}

/// A borrowed contiguous household range of a [`PopulationSlab`] —
/// what kernels and fleet cells operate on. `Copy`, so passing one
/// around costs nothing.
#[derive(Debug, Clone, Copy)]
pub struct SlabView<'a> {
    slab: &'a PopulationSlab,
    start: usize,
    end: usize,
}

impl<'a> SlabView<'a> {
    /// Number of households in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the view holds no households.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The id of the view's `i`-th household.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn id(&self, i: usize) -> HouseholdId {
        HouseholdId(self.slab.ids[self.index(i)])
    }

    /// Occupants of the view's `i`-th household.
    pub fn occupants(&self, i: usize) -> u32 {
        self.slab.occupants[self.index(i)]
    }

    /// Contracted daily allowance of the view's `i`-th household.
    pub fn allowed_use(&self, i: usize) -> KilowattHours {
        KilowattHours(self.slab.allowed_use[self.index(i)])
    }

    /// Usage-intensity multiplier of the view's `i`-th household.
    pub fn intensity(&self, i: usize) -> f64 {
        self.slab.intensity[self.index(i)]
    }

    /// The slab this view borrows and the household range it covers —
    /// what a holder needs to keep the view's population beside an
    /// owned one.
    pub fn parts(&self) -> (&'a PopulationSlab, Range<usize>) {
        (self.slab, self.start..self.end)
    }

    fn index(&self, i: usize) -> usize {
        assert!(
            i < self.len(),
            "household {i} out of view of {}",
            self.len()
        );
        self.start + i
    }
}

/// Reusable buffers for the slab kernels.
///
/// A kernel sweep allocates nothing per household once a scratch lives
/// outside the loop: each device kind's duty shape (the transcendental
/// time-of-day math, a pure function of kind and resolution) is
/// computed once and shared across households, days and peaks, and the
/// per-household accumulators are reused. A campaign keeps one scratch
/// for its horizon synthesis and one for its scenario derivation.
///
/// The buffers follow the axis they are used with, so one scratch can
/// serve axes of different resolutions; a change of resolution
/// recomputes the shapes.
#[derive(Debug, Clone, Default)]
pub struct DemandScratch {
    /// One household's demand over the swept slots (kWh per slot).
    total: Vec<f64>,
    /// One household's per-entry powers (kW), in device-list order.
    powers: Vec<f64>,
    /// One duty shape per [`DeviceKind::all`] entry at the resolution of
    /// `total`; empty until a kernel first needs them.
    shapes: Vec<Vec<f64>>,
}

impl DemandScratch {
    /// Scratch buffers sized for `axis`.
    pub fn new(axis: &TimeAxis) -> DemandScratch {
        DemandScratch {
            total: vec![0.0; axis.slots_per_day()],
            powers: Vec::new(),
            shapes: Vec::new(),
        }
    }

    /// Sizes the buffers for `n` slots per day, dropping shapes cached
    /// at another resolution.
    fn ensure(&mut self, n: usize) {
        if self.total.len() != n {
            self.total.resize(n, 0.0);
            self.shapes.clear();
        }
    }
}

/// Per-kernel-call tables: one temperature factor and one cached duty
/// shape per device kind, so the per-entry loop is pure arithmetic.
struct KindTables<'s> {
    temp_factor: [f64; 8],
    shapes: [&'s [f64]; 8],
}

/// Computes the duty shapes into the scratch on first use at this
/// resolution (their values are pure functions of `(kind, n)`, so
/// caching never changes an output) and snapshots the per-kind
/// temperature factors [`Device::load_profile`] applies.
///
/// [`Device::load_profile`]: crate::device::Device::load_profile
fn kind_tables(shapes: &mut Vec<Vec<f64>>, mean_temp: f64, n: usize) -> KindTables<'_> {
    let kinds = DeviceKind::all();
    if shapes.is_empty() {
        shapes.extend(kinds.iter().map(|kind| {
            let mut shape = vec![0.0; n];
            kind.duty_shape_into(&mut shape);
            shape
        }));
    }
    let shapes: &Vec<Vec<f64>> = shapes;
    KindTables {
        temp_factor: kinds.map(|kind| kind.temperature_factor(mean_temp)),
        shapes: std::array::from_fn(move |k| shapes[k].as_slice()),
    }
}

/// One day of aggregate demand over a slab view — the batched form of
/// [`aggregate_demand`](crate::demand::aggregate_demand), byte-identical
/// to it on the same population.
pub fn aggregate_demand_slab(
    view: SlabView<'_>,
    weather: &Series,
    axis: &TimeAxis,
    seed: u64,
) -> DemandCurve {
    let mut scratch = DemandScratch::new(axis);
    aggregate_demand_slab_with(view, weather, axis, seed, &mut scratch)
}

/// [`aggregate_demand_slab`] against a reusable [`DemandScratch`] (for
/// its duty-shape cache and per-household accumulator) — the form day
/// loops call so repeated days allocate only their output curve.
pub fn aggregate_demand_slab_with(
    view: SlabView<'_>,
    weather: &Series,
    axis: &TimeAxis,
    seed: u64,
    scratch: &mut DemandScratch,
) -> DemandCurve {
    let mean_temp = weather.mean();
    let n = axis.slots_per_day();
    scratch.ensure(n);
    let mut grand = Series::zeros(*axis);
    let out = grand.values_mut();
    let slot_hours = axis.slot_hours();
    let DemandScratch { powers, shapes, .. } = scratch;
    let tables = kind_tables(shapes, mean_temp, n);
    let slab = view.slab;
    // The register-blocked sweep: the household's slot totals live in a
    // stack block while every device entry accumulates into it, instead
    // of round-tripping a heap buffer through store-to-load forwarding
    // once per entry per slot. Each block slot sees the same additions
    // in the same (device-list) order as `Household::demand_profile`, so the totals
    // are bit-for-bit identical; only then does the block fold into the
    // grand curve, household by household, exactly like
    // `aggregate_demand` (f64 addition is not associative, so the
    // two-level order is load-bearing).
    const BLOCK: usize = 32;
    for h in view.start..view.end {
        let mut rng = jitter_rng(seed, slab.ids[h]);
        let intensity = slab.intensity[h];
        let entries = slab.offsets[h] as usize..slab.offsets[h + 1] as usize;
        let k = entries.len();
        if powers.len() < k {
            powers.resize(k, 0.0);
        }
        // One jitter draw per entry in device-list order — the stream
        // never interleaves with the slot math, so hoisting the power
        // computation out of the sweep changes no value.
        for (j, e) in entries.clone().enumerate() {
            let jitter = rng.gen_range(0.85..1.15);
            // Left-associated exactly as `Device::load_profile`: rated
            // * (household intensity * jitter), then * temp factor.
            powers[j] = slab.rated_power[e]
                * (intensity * jitter)
                * tables.temp_factor[slab.kind_index[e] as usize];
        }
        let powers = &powers[..k];
        let kinds = &slab.kind_index[entries];
        let mut s = 0;
        while s + BLOCK <= n {
            let mut acc = [0.0f64; BLOCK];
            for (&power, &kind) in powers.iter().zip(kinds) {
                let shape = &tables.shapes[kind as usize][s..s + BLOCK];
                for (slot, &duty) in acc.iter_mut().zip(shape) {
                    *slot += (power * duty) * slot_hours;
                }
            }
            for (g, &t) in out[s..s + BLOCK].iter_mut().zip(acc.iter()) {
                *g += t;
            }
            s += BLOCK;
        }
        // Scalar tail for axes whose day length is not a block multiple.
        while s < n {
            let mut acc = 0.0;
            for (&power, &kind) in powers.iter().zip(kinds) {
                acc += (power * tables.shapes[kind as usize][s]) * slot_hours;
            }
            out[s] += acc;
            s += 1;
        }
    }
    DemandCurve::new(grand)
}

/// `(usage, potential)` over `interval` for every household of the
/// view, in order, delivered as `sink(index, usage, potential)` — the
/// batched form of [`Household::interval_flexibility`], byte-identical
/// to calling it per household.
///
/// Only the interval's slots are swept (the outputs never read the
/// rest of the day), so scenario derivation over a 2-hour peak does a
/// twelfth of the full-day work.
pub fn interval_flexibility_slab(
    view: SlabView<'_>,
    axis: &TimeAxis,
    mean_temp: f64,
    seed: u64,
    interval: Interval,
    scratch: &mut DemandScratch,
    mut sink: impl FnMut(usize, KilowattHours, KilowattHours),
) {
    let n = axis.slots_per_day();
    scratch.ensure(n);
    let slot_hours = axis.slot_hours();
    let clipped = interval.intersect(Interval::new(0, n));
    // An interval entirely beyond the day clips to an empty range whose
    // bounds still sit past `n`; clamp so the slices stay in range.
    let (lo, hi) = (clipped.start().min(n), clipped.end().min(n));
    let DemandScratch { total, shapes, .. } = scratch;
    let tables = kind_tables(shapes, mean_temp, n);
    let slab = view.slab;
    let house = &mut total[lo..hi];
    for (local, h) in (view.start..view.end).enumerate() {
        let mut rng = jitter_rng(seed, slab.ids[h]);
        let intensity = slab.intensity[h];
        house.fill(0.0);
        let mut potential = KilowattHours::ZERO;
        for e in slab.offsets[h] as usize..slab.offsets[h + 1] as usize {
            let jitter = rng.gen_range(0.85..1.15);
            let kind = slab.kind_index[e] as usize;
            let power = slab.rated_power[e] * (intensity * jitter) * tables.temp_factor[kind];
            let shape = &tables.shapes[kind][lo..hi];
            // One fused pass per entry: the reference fold materialises
            // the device profile once and reads it twice (potential,
            // then total); the load value and both accumulation orders
            // are bit-for-bit the same.
            let mut entry_sum = 0.0;
            for (slot, &duty) in house.iter_mut().zip(shape) {
                let load = (power * duty) * slot_hours;
                entry_sum += load;
                *slot += load;
            }
            potential += KilowattHours(slab.flexibility[e] * entry_sum);
        }
        let usage = KilowattHours(house.iter().sum());
        sink(local, usage, potential);
    }
}

/// Aggregate energy the viewed households could shed over `interval` —
/// the batched form of summing [`Household::saving_potential`] in
/// population order.
pub fn saving_potential_slab(
    view: SlabView<'_>,
    axis: &TimeAxis,
    mean_temp: f64,
    seed: u64,
    interval: Interval,
    scratch: &mut DemandScratch,
) -> KilowattHours {
    let mut acc = KilowattHours::ZERO;
    interval_flexibility_slab(view, axis, mean_temp, seed, interval, scratch, |_, _, p| {
        acc += p;
    });
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::aggregate_demand;
    use crate::population::PopulationBuilder;
    use crate::time::TimeOfDay;
    use crate::weather::WeatherModel;

    fn axis() -> TimeAxis {
        TimeAxis::quarter_hourly()
    }

    fn evening(axis: TimeAxis) -> Interval {
        axis.between(TimeOfDay::hm(17, 0).unwrap(), TimeOfDay::hm(21, 0).unwrap())
    }

    #[test]
    fn from_households_preserves_every_field() {
        let homes = PopulationBuilder::new().households(25).build(9);
        let slab = PopulationSlab::from_households(&homes);
        assert_eq!(slab.len(), homes.len());
        let view = slab.view();
        for (i, h) in homes.iter().enumerate() {
            assert_eq!(view.id(i), h.id());
            assert_eq!(view.occupants(i), h.occupants());
            assert_eq!(view.intensity(i).to_bits(), h.intensity().to_bits());
            assert_eq!(view.allowed_use(i), h.allowed_use());
        }
        assert_eq!(
            slab.device_entries(),
            homes.iter().map(|h| h.devices().len()).sum::<usize>()
        );
    }

    #[test]
    fn aggregate_demand_matches_household_oracle_bit_for_bit() {
        let homes = PopulationBuilder::new().households(60).build(3);
        let slab = PopulationSlab::from_households(&homes);
        let weather = WeatherModel::winter().temperatures(&axis(), 3);
        let object = aggregate_demand(&homes, &weather, &axis(), 3);
        let batched = aggregate_demand_slab(slab.view(), &weather, &axis(), 3);
        assert_eq!(object, batched);
    }

    #[test]
    fn interval_flexibility_matches_household_oracle_bit_for_bit() {
        let homes = PopulationBuilder::new().households(40).build(11);
        let slab = PopulationSlab::from_households(&homes);
        let iv = evening(axis());
        let mut scratch = DemandScratch::new(&axis());
        let mut got = Vec::new();
        interval_flexibility_slab(
            slab.view(),
            &axis(),
            -6.0,
            5,
            iv,
            &mut scratch,
            |i, u, p| got.push((i, u, p)),
        );
        assert_eq!(got.len(), homes.len());
        for (h, (i, usage, potential)) in homes.iter().zip(&got) {
            assert_eq!(homes[*i].id(), h.id());
            let expect = h.interval_flexibility(&axis(), -6.0, 5, iv);
            assert_eq!((*usage, *potential), expect);
        }
    }

    #[test]
    fn saving_potential_matches_object_fold() {
        let homes = PopulationBuilder::new().households(30).build(7);
        let slab = PopulationSlab::from_households(&homes);
        let iv = evening(axis());
        let mut scratch = DemandScratch::new(&axis());
        let batched = saving_potential_slab(slab.view(), &axis(), -4.0, 7, iv, &mut scratch);
        let mut object = KilowattHours::ZERO;
        for h in &homes {
            object += h.saving_potential(&axis(), -4.0, 7, iv);
        }
        assert_eq!(batched, object);
    }

    #[test]
    fn one_scratch_serves_every_axis_in_turn() {
        let homes = PopulationBuilder::new().households(12).build(4);
        let slab = PopulationSlab::from_households(&homes);
        let mut scratch = DemandScratch::new(&TimeAxis::hourly());
        for axis in [
            TimeAxis::hourly(),
            TimeAxis::quarter_hourly(),
            TimeAxis::hourly(),
        ] {
            let weather = WeatherModel::winter().temperatures(&axis, 4);
            assert_eq!(
                aggregate_demand_slab_with(slab.view(), &weather, &axis, 4, &mut scratch),
                aggregate_demand(&homes, &weather, &axis, 4)
            );
            let iv = evening(axis);
            let mut seen = 0;
            interval_flexibility_slab(
                slab.view(),
                &axis,
                -3.0,
                4,
                iv,
                &mut scratch,
                |i, usage, potential| {
                    assert_eq!(
                        (usage, potential),
                        homes[i].interval_flexibility(&axis, -3.0, 4, iv)
                    );
                    seen += 1;
                },
            );
            assert_eq!(seen, homes.len());
        }
    }

    #[test]
    fn shards_partition_without_copying() {
        let slab = PopulationBuilder::new().households(23).build(1).pipe_slab();
        let shards = slab.shards(4);
        assert_eq!(shards.len(), 4);
        assert_eq!(shards.iter().map(SlabView::len).sum::<usize>(), 23);
        // Sizes differ by at most one, earlier shards larger.
        assert_eq!(
            shards.iter().map(SlabView::len).collect::<Vec<_>>(),
            vec![6, 6, 6, 5]
        );
        // Global ids survive sharding.
        assert_eq!(shards[1].id(0), HouseholdId(6));
    }

    #[test]
    fn sharded_demand_sums_to_whole_population_demand() {
        let homes = PopulationBuilder::new().households(50).build(2);
        let slab = PopulationSlab::from_households(&homes);
        let weather = WeatherModel::winter().temperatures(&axis(), 2);
        let whole = aggregate_demand_slab(slab.view(), &weather, &axis(), 2);
        let total: f64 = slab
            .shards(3)
            .into_iter()
            .map(|shard| {
                aggregate_demand_slab(shard, &weather, &axis(), 2)
                    .total()
                    .value()
            })
            .sum();
        assert!((whole.total().value() - total).abs() < 1e-9);
    }

    #[test]
    fn empty_interval_yields_zero_flexibility() {
        let slab = PopulationBuilder::new().households(5).build(1).pipe_slab();
        let mut scratch = DemandScratch::new(&axis());
        let p = saving_potential_slab(
            slab.view(),
            &axis(),
            -4.0,
            1,
            Interval::new(10, 10),
            &mut scratch,
        );
        assert_eq!(p, KilowattHours::ZERO);
    }

    #[test]
    fn interval_entirely_beyond_the_day_yields_zero_flexibility() {
        // Regression: such an interval clips to an empty range whose
        // bounds still sit past the day length — the sweep must treat
        // it as empty rather than slice out of bounds.
        let slab = PopulationBuilder::new().households(5).build(1).pipe_slab();
        let n = axis().slots_per_day();
        let mut scratch = DemandScratch::new(&axis());
        let p = saving_potential_slab(
            slab.view(),
            &axis(),
            -4.0,
            1,
            Interval::new(n + 3, n + 9),
            &mut scratch,
        );
        assert_eq!(p, KilowattHours::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn view_range_bounds_checked() {
        let slab = PopulationBuilder::new().households(5).build(1).pipe_slab();
        let _ = slab.view_range(2, 6);
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn zero_shards_panics() {
        let slab = PopulationSlab::new();
        let _ = slab.shards(0);
    }

    /// Test-local convenience: object population → slab.
    trait PipeSlab {
        fn pipe_slab(&self) -> PopulationSlab;
    }
    impl PipeSlab for Vec<Household> {
        fn pipe_slab(&self) -> PopulationSlab {
            PopulationSlab::from_households(self)
        }
    }
}
