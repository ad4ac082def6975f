//! Property-based tests of the time-series algebra and domain
//! substrate invariants.

use powergrid::prelude::*;
use powergrid::time::Interval;
use proptest::prelude::*;

fn arb_axis() -> impl Strategy<Value = TimeAxis> {
    prop_oneof![
        Just(TimeAxis::hourly()),
        Just(TimeAxis::quarter_hourly()),
        Just(TimeAxis::new(30))
    ]
}

fn arb_series() -> impl Strategy<Value = Series> {
    arb_axis().prop_flat_map(|axis| {
        prop::collection::vec(0.0f64..100.0, axis.slots_per_day())
            .prop_map(move |values| Series::from_values(axis, values))
    })
}

proptest! {
    /// Addition of series is commutative and sums pointwise.
    #[test]
    fn series_addition_commutative(a in arb_series()) {
        let b = a.map(|v| v * 0.5 + 1.0);
        let ab = &a + &b;
        let ba = &b + &a;
        prop_assert_eq!(&ab, &ba);
        prop_assert!((ab.sum() - (a.sum() + b.sum())).abs() < 1e-6);
    }

    /// Scaling scales the sum linearly.
    #[test]
    fn series_scaling_linear(s in arb_series(), k in 0.0f64..10.0) {
        let scaled = s.scale(k);
        prop_assert!((scaled.sum() - k * s.sum()).abs() < 1e-6 * (1.0 + s.sum()));
    }

    /// Smoothing preserves total mass within boundary effects and never
    /// exceeds the original extremes.
    #[test]
    fn smoothing_bounded_by_extremes(s in arb_series(), half in 0usize..4) {
        let smoothed = s.smooth(half);
        prop_assert!(smoothed.max() <= s.max() + 1e-9);
        prop_assert!(smoothed.min() >= s.min() - 1e-9);
    }

    /// `sum_over` of the whole day equals `sum`, and splitting the day
    /// into two intervals is additive.
    #[test]
    fn interval_sums_are_additive(s in arb_series(), split_frac in 0.0f64..1.0) {
        let n = s.len();
        let split = ((n as f64) * split_frac) as usize;
        let left = s.sum_over(Interval::new(0, split));
        let right = s.sum_over(Interval::new(split, n));
        prop_assert!((left + right - s.sum()).abs() < 1e-6);
    }

    /// The peak interval really is maximal among all windows of its width.
    #[test]
    fn peak_interval_is_argmax(s in arb_series(), width_frac in 0.05f64..0.5) {
        let n = s.len();
        let width = ((n as f64 * width_frac) as usize).max(1);
        let curve = DemandCurve::new(s);
        let peak = curve.peak_interval(width);
        let best = curve.energy_over(peak);
        for start in 0..=(n - width) {
            let window = curve.energy_over(Interval::new(start, start + width));
            prop_assert!(window <= best + KilowattHours(1e-9));
        }
    }

    /// Fractions stay in [0, 1] under clamping and complement.
    #[test]
    fn fraction_invariants(raw in -10.0f64..10.0) {
        let f = Fraction::clamped(raw);
        prop_assert!((0.0..=1.0).contains(&f.value()));
        prop_assert!((0.0..=1.0).contains(&f.complement().value()));
        prop_assert!((f.value() + f.complement().value() - 1.0).abs() < 1e-12);
    }

    /// Tariff billing: accepting a limit at or above the predicted use is
    /// always at least as cheap as the normal price (the lower price is a
    /// pure discount).
    #[test]
    fn generous_limit_never_costs_more(used in 0.0f64..50.0, slack in 0.0f64..20.0) {
        let t = Tariff::default_scheme();
        let used = KilowattHours(used);
        let limit = used + KilowattHours(slack);
        prop_assert!(t.bill_with_limit(used, limit) <= t.bill_normal(used));
    }

    /// Production cost is monotone in demanded energy.
    #[test]
    fn production_cost_monotone(a in 0.0f64..200.0, b in 0.0f64..200.0) {
        let m = ProductionModel::two_tier(Kilowatts(100.0));
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(
            m.cost_of_energy(KilowattHours(lo), 1.0) <= m.cost_of_energy(KilowattHours(hi), 1.0)
        );
    }

    /// Household demand is deterministic per seed and strictly positive
    /// for standard households.
    #[test]
    fn household_demand_reproducible(occupants in 1u32..6, seed in 0u64..100) {
        let axis = TimeAxis::hourly();
        let h = Household::standard(HouseholdId(1), occupants);
        let a = h.demand_profile(&axis, -4.0, seed);
        let b = h.demand_profile(&axis, -4.0, seed);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.sum() > 0.0);
    }
}
