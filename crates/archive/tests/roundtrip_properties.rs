//! Archive round-trip properties: encode → decode is the identity (at
//! every tier, for arbitrary campaign and fleet reports), and damaged
//! archives — truncated, bit-flipped, wrong version, wrong magic —
//! always fail with a typed [`ArchiveError`], never a panic.

use loadbal_archive::{write_campaign_to, write_fleet_to, ArchiveError, SeasonArchive};
use loadbal_core::beta::BetaPolicy;
use loadbal_core::campaign::{CampaignEconomics, CampaignReport, DayOutcome, IntervalOutcome};
use loadbal_core::concession::{NegotiationStatus, TerminationReason};
use loadbal_core::fleet::{CellReport, FleetReport};
use loadbal_core::methods::AnnouncementMethod;
use loadbal_core::preferences::CustomerPreferences;
use loadbal_core::reward::{RewardFormula, RewardTable, LEVELS};
use loadbal_core::session::{
    CustomerProfile, NegotiationReport, ReportTier, RoundDigest, RoundRecord, Scenario, Settlement,
};
use loadbal_core::utility_agent::{EconomicStopRule, TableShape, UtilityAgentConfig};
use powergrid::calendar::{CalendarDay, DayType};
use powergrid::peak::Peak;
use powergrid::time::Interval;
use powergrid::units::{Fraction, KilowattHours, Money, PricePerKwh};
use powergrid::weather::Season;
use proptest::prelude::*;
use std::io::Cursor;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Strategies: arbitrary (but invariant-respecting) reports
// ---------------------------------------------------------------------

fn arb_fraction() -> impl Strategy<Value = Fraction> {
    (0.0f64..=1.0).prop_map(Fraction::clamped)
}

fn arb_interval() -> impl Strategy<Value = Interval> {
    (0usize..96, 1usize..12).prop_map(|(s, len)| Interval::new(s, s + len))
}

/// One non-decreasing reward per grid level, built from non-negative
/// increments so the core constructor's assertion holds.
fn arb_rewards() -> impl Strategy<Value = [Money; LEVELS.len()]> {
    prop::collection::vec(0.0f64..8.0, LEVELS.len()).prop_map(|increments| {
        let mut reward = 0.0;
        std::array::from_fn(|k| {
            reward += increments[k];
            Money(reward)
        })
    })
}

/// Every preference table a campaign builds is the Figure-8 table at
/// some scale, so that is what the archive must round-trip.
fn arb_preferences() -> impl Strategy<Value = CustomerPreferences> {
    (0.0f64..50.0, arb_fraction())
        .prop_map(|(scale, max)| CustomerPreferences::from_base_scaled(scale, max))
}

fn arb_table() -> impl Strategy<Value = RewardTable> {
    (arb_interval(), arb_rewards()).prop_map(|(i, r)| RewardTable::new(i, r))
}

fn arb_method() -> impl Strategy<Value = AnnouncementMethod> {
    prop_oneof![
        Just(AnnouncementMethod::Offer),
        Just(AnnouncementMethod::RequestForBids),
        Just(AnnouncementMethod::RewardTables),
    ]
}

fn arb_status() -> impl Strategy<Value = NegotiationStatus> {
    prop_oneof![
        Just(NegotiationStatus::Converged(
            TerminationReason::OveruseAcceptable
        )),
        Just(NegotiationStatus::Converged(
            TerminationReason::RewardSaturated
        )),
        Just(NegotiationStatus::Converged(TerminationReason::NoMovement)),
        Just(NegotiationStatus::Converged(TerminationReason::SingleRound)),
        Just(NegotiationStatus::Converged(
            TerminationReason::EconomicStop
        )),
        Just(NegotiationStatus::MaxRoundsExceeded),
    ]
}

fn arb_beta_policy() -> impl Strategy<Value = BetaPolicy> {
    prop_oneof![
        (0.1f64..8.0).prop_map(|beta| BetaPolicy::Constant { beta }),
        (0.1f64..4.0, 0.0f64..2.0, 0.0f64..0.2).prop_map(|(beta, gain, min_progress)| {
            BetaPolicy::Adaptive {
                beta,
                gain,
                min_progress,
            }
        }),
        (0.5f64..8.0, 0.3f64..1.0).prop_map(|(beta, decay)| BetaPolicy::Annealing { beta, decay }),
    ]
}

fn arb_config() -> impl Strategy<Value = UtilityAgentConfig> {
    let formula =
        (0.0f64..6.0, 0.5f64..40.0, 0.0f64..2.0).prop_map(|(beta, max, eps)| RewardFormula {
            beta,
            max_reward: Money(max),
            epsilon: Money(eps),
        });
    let shape = prop_oneof![Just(TableShape::Quadratic), Just(TableShape::Linear)];
    let stop = prop_oneof![
        Just(None),
        (0.1f64..3.0).prop_map(|v| Some(EconomicStopRule {
            value_per_kwh: PricePerKwh(v),
        })),
    ];
    let scalars = (
        arb_fraction(),
        0.1f64..30.0,
        arb_fraction(),
        1u32..40,
        0.0f64..0.5,
    );
    (formula, arb_beta_policy(), shape, stop, scalars).prop_map(
        |(formula, beta_policy, table_shape, economic_stop, scalars)| {
            let (pin, reward_at, offer_x_max, max_rounds, max_allowed_overuse) = scalars;
            UtilityAgentConfig {
                formula,
                beta_policy,
                max_allowed_overuse,
                initial_reward_at: Money(reward_at),
                pin,
                table_shape,
                offer_x_max,
                max_rounds,
                economic_stop,
            }
        },
    )
}

fn arb_customer() -> impl Strategy<Value = CustomerProfile> {
    (0.2f64..6.0, 1.0f64..1.3, arb_preferences()).prop_map(|(predicted, slack, preferences)| {
        CustomerProfile {
            predicted_use: KilowattHours(predicted),
            allowed_use: KilowattHours(predicted * slack),
            preferences,
        }
    })
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        0.5f64..50.0,
        arb_interval(),
        prop::collection::vec(arb_customer(), 1..4),
        arb_config(),
        arb_method(),
    )
        .prop_map(|(normal, interval, customers, config, method)| Scenario {
            normal_use: KilowattHours(normal),
            interval,
            customers,
            config,
            method,
        })
}

/// Half the draws hold a handful of items, as a small cell's rounds
/// do; the other half hold 250–299 distinct values, mostly past the 255
/// a dictionary run can index, so the raw fallback round-trips too.
fn arb_run<S: Strategy + 'static>(item: impl Fn() -> S) -> impl Strategy<Value = Vec<S::Value>> {
    prop_oneof![
        prop::collection::vec(item(), 0..5),
        prop::collection::vec(item(), 250..300),
    ]
}

fn arb_settlement() -> impl Strategy<Value = Settlement> {
    (arb_fraction(), 0.0f64..40.0).prop_map(|(cutdown, reward)| Settlement {
        cutdown,
        reward: Money(reward),
    })
}

fn arb_round() -> impl Strategy<Value = RoundRecord> {
    (
        0u32..30,
        prop_oneof![Just(None), arb_table().prop_map(|t| Some(Arc::new(t)))],
        arb_run(arb_fraction),
        any::<f64>(),
        0u64..500,
    )
        .prop_map(|(round, table, bids, total, messages)| RoundRecord {
            round,
            table,
            bids,
            predicted_total: KilowattHours(total),
            messages,
        })
}

fn arb_digest() -> impl Strategy<Value = RoundDigest> {
    (0u32..60, 0u64..5000, any::<f64>(), any::<f64>(), 0u32..50).prop_map(
        |(rounds, messages, total, rewards, customers)| RoundDigest {
            rounds,
            messages,
            final_total: KilowattHours(total),
            total_rewards: Money(rewards),
            customers,
        },
    )
}

fn arb_report() -> impl Strategy<Value = NegotiationReport> {
    (
        (arb_method(), any::<f64>(), any::<f64>()),
        arb_digest(),
        prop::collection::vec(arb_round(), 0..5),
        arb_status(),
        arb_run(arb_settlement),
        0u64..100,
    )
        .prop_map(
            |((method, normal, initial), digest, rounds, status, settlements, extra)| {
                NegotiationReport::from_parts(
                    method,
                    KilowattHours(normal),
                    KilowattHours(initial),
                    ReportTier::FullTrace,
                    digest,
                    rounds,
                    status,
                    settlements,
                    extra,
                )
            },
        )
}

fn arb_calendar_day() -> impl Strategy<Value = CalendarDay> {
    (0u64..200, any::<bool>(), 0u8..4).prop_map(|(index, weekend, season)| CalendarDay {
        index,
        day_type: if weekend {
            DayType::Weekend
        } else {
            DayType::Weekday
        },
        season: match season {
            0 => Season::Winter,
            1 => Season::Spring,
            2 => Season::Summer,
            _ => Season::Autumn,
        },
    })
}

fn arb_peak() -> impl Strategy<Value = Peak> {
    (arb_interval(), any::<f64>(), any::<f64>()).prop_map(|(interval, overuse, normal)| Peak {
        interval,
        predicted_overuse: KilowattHours(overuse),
        normal_use: KilowattHours(normal),
    })
}

fn arb_day_outcome() -> impl Strategy<Value = DayOutcome> {
    const PREDICTORS: [&str; 4] = [
        "moving-average",
        "seasonal-naive",
        "weather-regression",
        "holt-trend",
    ];
    (
        arb_calendar_day(),
        0usize..PREDICTORS.len(),
        prop::collection::vec(arb_peak(), 0..4),
        any::<f64>(),
    )
        .prop_map(|(day, predictor, peaks, delta)| DayOutcome {
            day,
            predictor: PREDICTORS[predictor],
            peaks,
            feedback_delta: KilowattHours(delta),
        })
}

fn arb_interval_outcome() -> impl Strategy<Value = IntervalOutcome> {
    (
        arb_calendar_day(),
        arb_peak(),
        prop_oneof![Just(None), arb_scenario().prop_map(|s| Some(Box::new(s)))],
        arb_report(),
    )
        .prop_map(|(day, peak, scenario, report)| IntervalOutcome {
            label: format!("day{}/{}", day.index, peak.interval),
            day,
            peak,
            scenario,
            report,
        })
}

fn arb_economics() -> impl Strategy<Value = CampaignEconomics> {
    (
        (any::<f64>(), any::<f64>(), any::<f64>()),
        (any::<f64>(), any::<f64>()),
        0usize..40,
    )
        .prop_map(
            |((paid, shaved, avoided), (saving, gain), stops)| CampaignEconomics {
                rewards_paid: Money(paid),
                energy_shaved: KilowattHours(shaved),
                production_cost_avoided: Money(avoided),
                peak_saving: Money(saving),
                net_gain: Money(gain),
                economic_stops: stops,
            },
        )
}

fn arb_campaign_report() -> impl Strategy<Value = CampaignReport> {
    (
        prop::collection::vec(arb_interval_outcome(), 0..4),
        prop::collection::vec(arb_day_outcome(), 0..5),
        arb_economics(),
    )
        .prop_map(|(outcomes, days, economics)| CampaignReport {
            outcomes,
            days,
            economics,
        })
}

fn arb_fleet_report() -> impl Strategy<Value = FleetReport> {
    (
        prop::collection::vec(arb_campaign_report(), 1..4),
        arb_economics(),
    )
        .prop_map(|(reports, economics)| FleetReport {
            cells: reports
                .into_iter()
                .enumerate()
                .map(|(i, report)| CellReport {
                    label: format!("cell-{i}"),
                    report,
                })
                .collect(),
            economics,
        })
}

fn arb_tier() -> impl Strategy<Value = ReportTier> {
    prop_oneof![
        Just(ReportTier::Aggregate),
        Just(ReportTier::Settlement),
        Just(ReportTier::FullTrace),
    ]
}

// ---------------------------------------------------------------------
// Round-trip identity
// ---------------------------------------------------------------------

fn campaign_bytes(report: &CampaignReport, tier: ReportTier) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_campaign_to(&mut bytes, report, tier).expect("write to Vec cannot fail");
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Encode → decode is the identity at every tier: the decoded
    /// campaign equals the in-memory downgrade `at_tier(tier)`.
    #[test]
    fn campaign_roundtrips_at_every_tier(report in arb_campaign_report()) {
        for tier in ReportTier::all() {
            let bytes = campaign_bytes(&report, tier);
            let mut archive = SeasonArchive::from_reader(Cursor::new(bytes)).expect("open");
            prop_assert_eq!(archive.tier(), tier);
            let decoded = archive.read_campaign().expect("decode");
            prop_assert_eq!(decoded, report.at_tier(tier));
        }
    }

    /// Same identity for fleet archives, via `read_fleet`.
    #[test]
    fn fleet_roundtrips_at_every_tier(report in arb_fleet_report()) {
        for tier in ReportTier::all() {
            let mut bytes = Vec::new();
            write_fleet_to(&mut bytes, &report, tier).expect("write");
            let mut archive = SeasonArchive::from_reader(Cursor::new(bytes)).expect("open");
            let decoded = archive.read_fleet().expect("decode");
            prop_assert_eq!(decoded, report.at_tier(tier));
        }
    }

    /// Writing an already-downgraded report at a higher archive tier
    /// cannot resurrect detail: the stored tier is the minimum.
    #[test]
    fn downgraded_reports_stay_downgraded(
        report in arb_campaign_report(),
        pre in arb_tier(),
    ) {
        let downgraded = report.at_tier(pre);
        let bytes = campaign_bytes(&downgraded, ReportTier::FullTrace);
        let mut archive = SeasonArchive::from_reader(Cursor::new(bytes)).expect("open");
        let decoded = archive.read_campaign().expect("decode");
        prop_assert_eq!(decoded, downgraded);
    }

    /// Single-day seeks return exactly what the whole-report decode
    /// holds, without touching other blocks.
    #[test]
    fn day_seeks_match_full_decode(report in arb_campaign_report()) {
        let bytes = campaign_bytes(&report, ReportTier::FullTrace);
        let mut archive = SeasonArchive::from_reader(Cursor::new(bytes)).expect("open");
        let mut seen = std::collections::HashSet::new();
        for day in &report.days {
            // Duplicate day indices can occur in arbitrary reports; the
            // seek contract returns the first stored record.
            if !seen.insert(day.day.index) {
                continue;
            }
            let read = archive.read_day(0, day.day.index).expect("day seek");
            prop_assert_eq!(&read, day);
        }
        for outcome in &report.outcomes {
            let from_day = archive
                .read_day_outcomes(0, outcome.day.index)
                .expect("outcome seek");
            let expected: Vec<&IntervalOutcome> = report
                .outcomes
                .iter()
                .filter(|o| o.day.index == outcome.day.index)
                .collect();
            prop_assert_eq!(from_day.len(), expected.len());
            for (got, want) in from_day.iter().zip(expected) {
                prop_assert_eq!(got, want);
            }
        }
    }

    /// Random single-byte corruption anywhere in the file, at any tier
    /// (only full-trace archives hold bid runs and preferences), decodes
    /// to `Ok` or a typed error — never a panic, never unbounded work.
    #[test]
    fn corrupt_bytes_never_panic(
        report in arb_campaign_report(),
        tier in arb_tier(),
        position in any::<usize>(),
        value in 0u8..=255,
    ) {
        let mut bytes = campaign_bytes(&report, tier);
        let position = position % bytes.len();
        bytes[position] = value;
        // Any outcome is acceptable except a panic or a hang.
        let result = SeasonArchive::from_reader(Cursor::new(bytes)).and_then(|mut a| {
            let days: Vec<u64> = a.index().cells.iter()
                .flat_map(|c| c.days.iter().map(|d| d.day_index))
                .collect();
            for day in days {
                a.read_day(0, day)?;
                a.read_day_outcomes(0, day)?;
            }
            a.read_campaign()
        });
        drop(result);
    }
}

// ---------------------------------------------------------------------
// Damage with deterministic, typed outcomes
// ---------------------------------------------------------------------

/// A small real season (not synthetic) for the deterministic damage
/// tests, so the bytes exercised look like production archives.
fn fixture() -> CampaignReport {
    use loadbal_core::campaign::{CampaignBuilder, FixedPredictor};
    use powergrid::calendar::Horizon;
    use powergrid::population::PopulationBuilder;
    use powergrid::prediction::MovingAverage;
    use powergrid::weather::WeatherModel;

    let homes = PopulationBuilder::new().households(12).build(5);
    let campaign = CampaignBuilder::new(
        &homes,
        &WeatherModel::winter(),
        &Horizon::new(4, 0, Season::Winter),
    )
    .warmup_days(2)
    .predictor(FixedPredictor(MovingAverage::new(2)))
    .build();
    campaign.run()
}

#[test]
fn every_truncation_fails_with_typed_error() {
    // Settlement tier keeps the byte count small enough to try every
    // truncation point.
    let bytes = campaign_bytes(&fixture(), ReportTier::Settlement);
    for len in 0..bytes.len() {
        let result = SeasonArchive::from_reader(Cursor::new(bytes[..len].to_vec()));
        assert!(
            result.is_err(),
            "truncation to {len}/{} bytes must not open cleanly",
            bytes.len()
        );
    }
}

#[test]
fn wrong_version_is_rejected_by_name() {
    // A future version, and the retired version 1.
    for version in [9u16, 1] {
        let mut bytes = campaign_bytes(&fixture(), ReportTier::Settlement);
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        match SeasonArchive::from_reader(Cursor::new(bytes)) {
            Err(ArchiveError::UnsupportedVersion(v)) if v == version => {}
            other => panic!(
                "expected UnsupportedVersion({version}), got {other:?}",
                other = other.err()
            ),
        }
    }
}

#[test]
fn foreign_files_are_rejected_as_bad_magic() {
    let mut bytes = campaign_bytes(&fixture(), ReportTier::Settlement);
    bytes[0..4].copy_from_slice(b"GZIP");
    assert!(matches!(
        SeasonArchive::from_reader(Cursor::new(bytes)),
        Err(ArchiveError::BadMagic)
    ));
    // Far too short for even a header.
    assert!(matches!(
        SeasonArchive::from_reader(Cursor::new(b"LB".to_vec())),
        Err(ArchiveError::Truncated { .. })
    ));
}

#[test]
fn kind_and_coordinate_errors_are_typed() {
    let report = fixture();
    let bytes = campaign_bytes(&report, ReportTier::FullTrace);
    let mut archive = SeasonArchive::from_reader(Cursor::new(bytes)).expect("open");

    assert!(matches!(
        archive.read_fleet(),
        Err(ArchiveError::WrongKind { .. })
    ));
    assert!(matches!(
        archive.read_day(7, 0),
        Err(ArchiveError::CellOutOfRange { cell: 7, .. })
    ));
    assert!(matches!(
        archive.read_day(0, 9999),
        Err(ArchiveError::DayNotFound { day: 9999, .. })
    ));

    let fleet = FleetReport {
        cells: vec![CellReport {
            label: "solo".to_string(),
            report,
        }],
        economics: CampaignEconomics {
            rewards_paid: Money(0.0),
            energy_shaved: KilowattHours(0.0),
            production_cost_avoided: Money(0.0),
            peak_saving: Money(0.0),
            net_gain: Money(0.0),
            economic_stops: 0,
        },
    };
    let mut bytes = Vec::new();
    write_fleet_to(&mut bytes, &fleet, ReportTier::Settlement).expect("write fleet");
    let mut archive = SeasonArchive::from_reader(Cursor::new(bytes)).expect("open fleet");
    assert!(matches!(
        archive.read_campaign(),
        Err(ArchiveError::WrongKind { .. })
    ));
}
