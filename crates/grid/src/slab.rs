//! Dictionary-encoded populations: the representation the pipeline reads.
//!
//! A million [`Household`]s owning a `Vec<Device>` each are a million
//! tiny heap trees and a pointer-chase per demand sweep — and most of
//! them are copies: apart from its id, a household is one of a handful
//! of distinct shapes (every standard household of one size is the
//! same). This module stores a population as [`PopulationSlab`]: per
//! household only its id and the index of its *template*, and each
//! distinct template (occupants, intensity, allowance and a run of
//! device entries) once. Batched kernels reuse a [`DemandScratch`]
//! (duty shapes computed once per resolution) and walk each
//! household's template entries:
//!
//! * [`aggregate_demand_slab`] — one day of aggregate demand, folded per
//!   device kind: demand is linear in device power, so the kernel sums
//!   each kind's power over the population and builds every slot from
//!   eight products (kind power × duty),
//! * [`interval_flexibility_slab`] — per-household `(usage, potential)`
//!   over a peak interval (the scenario-derivation hot path): interval
//!   demand is linear in device power too, so the kernel integrates
//!   each kind's duty over the interval once per call and makes one
//!   pass per household over its entries,
//! * [`saving_potential_slab`] — aggregate shed capacity over an
//!   interval.
//!
//! Every kernel is **byte-identical** to its allocating reference over
//! the same population: same per-household jitter stream (seeded by
//! the household's own id), same left-associated multiplications, same
//! accumulation order. Demand is pinned to the per-kind fold
//! [`aggregate_demand`](crate::demand::aggregate_demand) (powers per
//! kind in household, entry order, then kinds per slot), and agrees
//! with the per-slot physics — summing [`Household::demand_profile`] —
//! within 1e-12 relative per slot. Interval flexibility is pinned to
//! [`Household::interval_flexibility`] (each device's power times its
//! kind's duty integral, one definition both call), and agrees with
//! the per-slot sweep,
//! [`Household::interval_flexibility_per_slot`], within 1e-12
//! relative per household. The proptests in `tests/slab_properties.rs`
//! pin all four.
//!
//! Shards for fleet work come from [`PopulationSlab::shards`]: borrowed
//! [`SlabView`]s over contiguous household ranges, no copying.

use crate::demand::DemandCurve;
use crate::device::{duty_integral, Device, DeviceKind};
use crate::household::{jitter_rng, Household, HouseholdId};
use crate::series::Series;
use crate::time::{Interval, TimeAxis};
use crate::units::{Fraction, KilowattHours, Kilowatts};
use rand::Rng;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// The position of `kind` in [`DeviceKind::all`] — the slab's per-entry
/// kind encoding.
pub(crate) fn kind_pos(kind: DeviceKind) -> u8 {
    DeviceKind::all()
        .iter()
        .position(|k| *k == kind)
        .expect("every kind appears in DeviceKind::all()") as u8
}

/// A column length as a `u32` index.
fn index_u32(len: usize) -> u32 {
    u32::try_from(len).expect("slab columns index with u32")
}

/// One distinct household: everything a household holds but its id.
/// A slab stores each template once, however many households share it.
#[derive(Debug, Clone, PartialEq)]
struct Template {
    occupants: u32,
    /// Usage-intensity multiplier.
    intensity: f64,
    /// Contracted daily allowance (kWh).
    allowed_use: f64,
    /// The template's run of the per-entry columns, in device-list
    /// order — the jitter stream draws one value per entry in this
    /// order.
    entries: Range<u32>,
}

impl Template {
    /// The template's entries as column indices.
    fn entries(&self) -> Range<usize> {
        self.entries.start as usize..self.entries.end as usize
    }
}

/// A household keyed by everything its template holds, compared bit
/// for bit: occupants and device kinds exactly, every `f64` by its bit
/// pattern. `f64 ==` would merge `-0.0` into `0.0` (both are valid
/// allowances and rated powers) and change the bits the slab returns.
struct Shape<'a>(&'a Household);

impl Ord for Shape<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        let scalars = |h: &Household| {
            (
                h.occupants(),
                h.intensity().to_bits(),
                h.allowed_use().value().to_bits(),
            )
        };
        let device = |d: &Device| {
            (
                d.kind() as u8,
                d.rated_power().value().to_bits(),
                d.flexibility().value().to_bits(),
            )
        };
        let (a, b) = (self.0, other.0);
        scalars(a).cmp(&scalars(b)).then_with(|| {
            let b_devices = b.devices().iter().map(device);
            a.devices().iter().map(device).cmp(b_devices)
        })
    }
}

impl PartialOrd for Shape<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Shape<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Shape<'_> {}

/// A population stored as a dictionary: per household only its id and
/// the index of its template; each distinct template (occupants,
/// intensity, allowance and a run of device entries) once. A household
/// costs 12 bytes, and a standard population holds at most five
/// templates, one per household size.
///
/// Field values are bit-for-bit those of the object backend —
/// [`PopulationBuilder::build_slab`](crate::population::PopulationBuilder::build_slab)
/// and [`PopulationSlab::from_households`] produce identical slabs for
/// the same seed (both number templates in order of first appearance).
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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PopulationSlab {
    /// Raw household ids, in population order.
    ids: Vec<u64>,
    /// Each household's index into `templates`.
    template: Vec<u32>,
    /// The distinct templates, in order of first appearance.
    templates: Vec<Template>,
    /// Per-entry device kind, as an index into [`DeviceKind::all`].
    kind_index: Vec<u8>,
    /// Per-entry rated power (kW).
    rated_power: Vec<f64>,
    /// Per-entry shedable fraction, in `[0, 1]`.
    flexibility: Vec<f64>,
}

impl PopulationSlab {
    /// An empty slab.
    pub fn new() -> PopulationSlab {
        PopulationSlab::default()
    }

    /// An empty slab with room for `households` households. Template
    /// storage grows as templates appear: a population holds few.
    pub(crate) fn with_capacity(households: usize) -> PopulationSlab {
        PopulationSlab {
            ids: Vec::with_capacity(households),
            template: Vec::with_capacity(households),
            ..PopulationSlab::default()
        }
    }

    /// Converts an object population, preserving household and
    /// device-list order (and therefore the jitter stream). Households
    /// equal in everything but their id, bit for bit, share one
    /// template; an ordered map local to the call finds it in
    /// logarithmic time in the number of templates.
    pub fn from_households(households: &[Household]) -> PopulationSlab {
        let mut slab = PopulationSlab::with_capacity(households.len());
        let mut interned = BTreeMap::new();
        for h in households {
            let template = *interned
                .entry(Shape(h))
                .or_insert_with(|| slab.push_template(h));
            slab.push(h.id(), template);
        }
        slab
    }

    /// Stores `h`'s template — everything but its id — and returns its
    /// index.
    pub(crate) fn push_template(&mut self, h: &Household) -> u32 {
        let start = index_u32(self.kind_index.len());
        for dev in h.devices() {
            self.kind_index.push(kind_pos(dev.kind()));
            self.rated_power.push(dev.rated_power().value());
            self.flexibility.push(dev.flexibility().value());
        }
        self.templates.push(Template {
            occupants: h.occupants(),
            intensity: h.intensity(),
            allowed_use: h.allowed_use().value(),
            entries: start..index_u32(self.kind_index.len()),
        });
        index_u32(self.templates.len() - 1)
    }

    /// Appends household `id` of template `template`.
    pub(crate) fn push(&mut self, id: HouseholdId, template: u32) {
        self.ids.push(id.0);
        self.template.push(template);
    }

    /// The template of household `h` (population order).
    fn template_of(&self, h: usize) -> &Template {
        &self.templates[self.template[h] as usize]
    }

    /// Number of households.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if the slab holds no households.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of device entries across all households: each household
    /// counts its template's devices, however many households share
    /// the template.
    pub fn device_entries(&self) -> usize {
        (0..self.len())
            .map(|h| self.template_of(h).entries.len())
            .sum()
    }

    /// Heap bytes retained by the slab's arrays (capacity, not length) —
    /// the footprint figure E20 reports against the object backend.
    pub fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ids.capacity() * size_of::<u64>()
            + self.template.capacity() * size_of::<u32>()
            + self.templates.capacity() * size_of::<Template>()
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
        self.template(i).occupants
    }

    /// Contracted daily allowance of the view's `i`-th household.
    pub fn allowed_use(&self, i: usize) -> KilowattHours {
        KilowattHours(self.template(i).allowed_use)
    }

    /// Usage-intensity multiplier of the view's `i`-th household.
    pub fn intensity(&self, i: usize) -> f64 {
        self.template(i).intensity
    }

    /// The devices of the view's `i`-th household, in device-list
    /// order.
    pub fn devices(&self, i: usize) -> impl ExactSizeIterator<Item = Device> + 'a {
        let slab = self.slab;
        self.template(i).entries().map(move |e| {
            Device::new(
                DeviceKind::all()[usize::from(slab.kind_index[e])],
                Kilowatts(slab.rated_power[e]),
                Fraction::clamped(slab.flexibility[e]),
            )
        })
    }

    /// The slab this view borrows and the household range it covers —
    /// what a holder needs to keep the view's population beside an
    /// owned one.
    pub fn parts(&self) -> (&'a PopulationSlab, Range<usize>) {
        (self.slab, self.start..self.end)
    }

    fn template(&self, i: usize) -> &'a Template {
        self.slab.template_of(self.index(i))
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
/// computed once and shared across households, days and peaks. Demand
/// synthesis reads the shapes slot by slot; interval flexibility
/// integrates each over the interval once per call. A clone shares its
/// shapes instead of copying them, so a campaign computes them once:
/// its horizon synthesis fills a scratch, and its scenario derivation
/// starts from a clone.
///
/// The shapes follow the axis they are used with, so one scratch can
/// serve axes of different resolutions; a change of resolution
/// recomputes them.
#[derive(Debug, Clone, Default)]
pub struct DemandScratch {
    /// One duty shape per [`DeviceKind::all`] entry, at the resolution
    /// of the axis last used; empty until a kernel first needs them.
    shapes: Vec<Arc<[f64]>>,
}

impl DemandScratch {
    /// An empty scratch; the shapes are computed on first use.
    pub fn new() -> DemandScratch {
        DemandScratch::default()
    }

    /// The per-kind tables for a day of `n` slots with mean outdoor
    /// temperature `mean_temp` °C. The duty shapes are computed on first
    /// use at this resolution (their values are pure functions of
    /// `(kind, n)`, so caching never changes an output); the
    /// temperature factors are the ones [`Device::load_profile`]
    /// applies.
    ///
    /// [`Device::load_profile`]: crate::device::Device::load_profile
    fn tables(&mut self, mean_temp: f64, n: usize) -> KindTables<'_> {
        let kinds = DeviceKind::all();
        if self.shapes.first().map(|shape| shape.len()) != Some(n) {
            self.shapes.clear();
            self.shapes.extend(kinds.iter().map(|kind| {
                let mut shape = vec![0.0; n];
                kind.duty_shape_into(&mut shape);
                Arc::from(shape)
            }));
        }
        let shapes = &self.shapes;
        KindTables {
            temp_factor: kinds.map(|kind| kind.temperature_factor(mean_temp)),
            shapes: std::array::from_fn(|k| &*shapes[k]),
        }
    }
}

/// Per-kernel-call tables: one temperature factor and one cached duty
/// shape per device kind, so the per-entry loop is pure arithmetic.
struct KindTables<'s> {
    temp_factor: [f64; 8],
    shapes: [&'s [f64]; 8],
}

/// One day of aggregate demand over a slab view — the batched form of
/// [`aggregate_demand`](crate::demand::aggregate_demand), byte-identical
/// to it on the same population, and within 1e-12 relative per slot of
/// summing [`Household::demand_profile`] over it.
pub fn aggregate_demand_slab(
    view: SlabView<'_>,
    weather: &Series,
    axis: &TimeAxis,
    seed: u64,
) -> DemandCurve {
    aggregate_demand_slab_with(view, weather, axis, seed, &mut DemandScratch::new())
}

/// [`aggregate_demand_slab`] against a reusable [`DemandScratch`] (for
/// its duty-shape cache) — the form day loops call so repeated days
/// allocate only their output curve.
///
/// Demand is linear in device power, so the kernel folds per kind:
/// each entry's power (one jitter draw per entry, in device-list order)
/// is added into its kind's total in (household, entry) order, and each
/// slot is then the sum over the eight kinds, in [`DeviceKind::all`]
/// order, of `(kind total × duty) × slot hours`: one addition per
/// device entry plus eight products per slot.
pub fn aggregate_demand_slab_with(
    view: SlabView<'_>,
    weather: &Series,
    axis: &TimeAxis,
    seed: u64,
    scratch: &mut DemandScratch,
) -> DemandCurve {
    let tables = scratch.tables(weather.mean(), axis.slots_per_day());
    let slab = view.slab;
    let mut per_kind = [0.0f64; 8];
    for h in view.start..view.end {
        let mut rng = jitter_rng(seed, slab.ids[h]);
        let template = slab.template_of(h);
        let intensity = template.intensity;
        for e in template.entries() {
            let jitter = rng.gen_range(0.85..1.15);
            let kind = slab.kind_index[e] as usize;
            // Left-associated exactly as `Device::power`: rated
            // * (household intensity * jitter), then * temp factor.
            per_kind[kind] += slab.rated_power[e] * (intensity * jitter) * tables.temp_factor[kind];
        }
    }
    let slot_hours = axis.slot_hours();
    let mut grand = Series::zeros(*axis);
    for (s, slot) in grand.values_mut().iter_mut().enumerate() {
        *slot = per_kind
            .iter()
            .zip(tables.shapes)
            .fold(0.0, |acc, (&power, shape)| {
                acc + (power * shape[s]) * slot_hours
            });
    }
    DemandCurve::new(grand)
}

/// `(usage, potential)` over `interval` for every household of the
/// view, in order, delivered as `sink(index, usage, potential)` — the
/// batched form of [`Household::interval_flexibility`], byte-identical
/// to calling it per household.
///
/// Interval demand is linear in device power, so the kernel integrates
/// each kind's duty shape over the interval once per call (`Σ duty ×
/// slot hours` over the interval's slots within the day), then makes
/// one pass per household over its template entries: each entry's
/// energy is its power (one jitter draw per entry, in device-list
/// order) times its kind's integral, usage sums the energies and
/// potential their flexible shares, in entry order. A household costs
/// its jitter draws and a few products per entry, whatever the
/// interval's length.
pub fn interval_flexibility_slab(
    view: SlabView<'_>,
    axis: &TimeAxis,
    mean_temp: f64,
    seed: u64,
    interval: Interval,
    scratch: &mut DemandScratch,
    mut sink: impl FnMut(usize, KilowattHours, KilowattHours),
) {
    let slot_hours = axis.slot_hours();
    let tables = scratch.tables(mean_temp, axis.slots_per_day());
    let integral = tables
        .shapes
        .map(|shape| duty_integral(shape, slot_hours, interval));
    let slab = view.slab;
    for (local, h) in (view.start..view.end).enumerate() {
        let mut rng = jitter_rng(seed, slab.ids[h]);
        let template = slab.template_of(h);
        let intensity = template.intensity;
        let (mut usage, mut potential) = (0.0, 0.0);
        for e in template.entries() {
            let jitter = rng.gen_range(0.85..1.15);
            let kind = slab.kind_index[e] as usize;
            // Left-associated exactly as `Device::power`, then × the
            // kind's integral, as the household reference computes it.
            let power = slab.rated_power[e] * (intensity * jitter) * tables.temp_factor[kind];
            let energy = power * integral[kind];
            usage += energy;
            potential += slab.flexibility[e] * energy;
        }
        sink(local, KilowattHours(usage), KilowattHours(potential));
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
            assert!(view.devices(i).eq(h.devices().iter().cloned()));
        }
        assert_eq!(
            slab.device_entries(),
            homes.iter().map(|h| h.devices().len()).sum::<usize>()
        );
    }

    #[test]
    fn a_standard_population_stores_one_template_per_household_size() {
        let homes = PopulationBuilder::new().households(2_000).build(5);
        let slab = PopulationBuilder::new().households(2_000).build_slab(5);
        assert_eq!(slab.templates.len(), 5);
        assert_eq!(
            slab.device_entries(),
            homes.iter().map(|h| h.devices().len()).sum::<usize>()
        );
        // An id and a template index per household; the five templates
        // and their 39 entries are a fixed kilobyte or two.
        assert!(slab.retained_bytes() <= 2_000 * 12 + 2_048);
    }

    #[test]
    fn interning_shares_exact_duplicates_and_keeps_signed_zeros_apart() {
        let home = |id, allowance, power| {
            let lamp = Device::new(DeviceKind::Lighting, Kilowatts(power), Fraction::ONE);
            Household::new(
                HouseholdId(id),
                2,
                vec![lamp],
                KilowattHours(allowance),
                1.0,
            )
        };
        let homes = [
            home(0, 0.0, 0.4),
            home(1, -0.0, 0.4),
            home(2, 0.0, 0.4),
            home(3, 0.0, -0.0),
            home(4, 0.0, 0.0),
        ];
        let slab = PopulationSlab::from_households(&homes);
        assert_eq!(slab.template, vec![0, 1, 0, 2, 3]);
        let view = slab.view();
        assert_eq!(view.allowed_use(1).value().to_bits(), (-0.0f64).to_bits());
        let power = |i| view.devices(i).next().unwrap().rated_power().value();
        assert_eq!(power(3).to_bits(), (-0.0f64).to_bits());
        assert_eq!(power(4).to_bits(), 0.0f64.to_bits());
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
        let mut scratch = DemandScratch::new();
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
        let mut scratch = DemandScratch::new();
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
        let mut scratch = DemandScratch::new();
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
        let mut scratch = DemandScratch::new();
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
        let mut scratch = DemandScratch::new();
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
