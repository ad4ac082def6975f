//! Golden-report regression corpus: the *full* [`NegotiationReport`]
//! (every round, table, bid, settlement and total) of a fixed set of
//! scenario × method pairs is snapshotted under `tests/golden/`. Any
//! protocol drift — a changed reward update, a different round count, a
//! reordered settlement — fails loudly with a diff-friendly rendering.
//!
//! To re-bless after an *intentional* protocol change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --test golden_reports
//! ```
//!
//! then commit the rewritten `tests/golden/*.golden` files alongside the
//! change that motivated them.

use loadbal::core::campaign::{
    CampaignBuilder, CampaignReport, ClosedLoop, FixedPredictor, MarginalCostStop,
};
use loadbal::core::distributed::run_distributed;
use loadbal::core::session::{NegotiationReport, ReportTier, Scenario};
use loadbal::massim::clock::SimDuration;
use loadbal::massim::network::NetworkModel;
use loadbal::prelude::*;
use powergrid::calendar::Horizon;
use powergrid::prediction::MovingAverage;
use std::fmt::Write as _;
use std::path::PathBuf;

/// A stable, diff-friendly rendering of everything a report contains.
fn render(report: &NegotiationReport) -> String {
    let mut out = String::new();
    writeln!(out, "method: {}", report.method()).unwrap();
    writeln!(out, "normal_use: {:.6}", report.normal_use().value()).unwrap();
    writeln!(out, "initial_total: {:.6}", report.initial_total().value()).unwrap();
    writeln!(out, "status: {}", report.status()).unwrap();
    writeln!(out, "rounds: {}", report.rounds().len()).unwrap();
    for r in report.rounds() {
        writeln!(
            out,
            "round {}: messages={} predicted_total={:.6}",
            r.round,
            r.messages,
            r.predicted_total.value()
        )
        .unwrap();
        match &r.table {
            Some(table) => {
                let entries: Vec<String> = table
                    .entries()
                    .iter()
                    .map(|(c, m)| format!("{:.2}->{:.6}", c.value(), m.value()))
                    .collect();
                writeln!(out, "  table [{}]: {}", table.interval(), entries.join(" ")).unwrap();
            }
            None => writeln!(out, "  table: none").unwrap(),
        }
        let bids: Vec<String> = r.bids.iter().map(|b| format!("{:.2}", b.value())).collect();
        writeln!(out, "  bids: {}", bids.join(" ")).unwrap();
    }
    for (i, s) in report.settlements().iter().enumerate() {
        writeln!(
            out,
            "settlement {i}: cutdown={:.2} reward={:.6}",
            s.cutdown.value(),
            s.reward.value()
        )
        .unwrap();
    }
    writeln!(out, "total_messages: {}", report.total_messages()).unwrap();
    writeln!(out, "total_rewards: {:.6}", report.total_rewards().value()).unwrap();
    writeln!(out, "energy_shaved: {:.6}", report.energy_shaved().value()).unwrap();
    out
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Compares (or, under `GOLDEN_BLESS=1`, rewrites) one rendered snapshot.
fn check_rendered(name: &str, rendered: &str) {
    let path = golden_dir().join(format!("{name}.golden"));
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, rendered).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {path:?} ({e}); \
             run `GOLDEN_BLESS=1 cargo test --test golden_reports` to create it"
        )
    });
    assert_eq!(
        expected, rendered,
        "\ndrift detected for '{name}'.\n\
         If this change is intentional, re-bless with\n\
         `GOLDEN_BLESS=1 cargo test --test golden_reports`\n\
         and commit the updated tests/golden/{name}.golden"
    );
}

/// Snapshot-checks one negotiation report.
fn check(name: &str, report: &NegotiationReport) {
    check_rendered(name, &render(report));
}

/// The fixed corpus: the calibrated paper scenario, a seeded random
/// population, and a grid-pipeline scenario — each under all three §3.2
/// announcement methods.
fn corpus() -> Vec<(String, Scenario)> {
    let mut scenarios = vec![
        (
            "fig6".to_string(),
            ScenarioBuilder::paper_figure_6().build(),
        ),
        (
            "random30-s7".to_string(),
            ScenarioBuilder::random(30, 0.35, 7).build(),
        ),
    ];
    // One scenario straight out of the powergrid pipeline: the first
    // peak a small winter campaign detects.
    let homes = PopulationBuilder::new().households(40).build(11);
    // Three days = two warmup + one evaluated: the runner negotiates
    // only the day whose first peak the corpus wants, and that peak's
    // scenario is independent of any longer horizon (open loop).
    let report = CampaignBuilder::new(
        &homes,
        &WeatherModel::winter(),
        &Horizon::new(3, 0, Season::Winter),
    )
    .warmup_days(2)
    .predictor(FixedPredictor(MovingAverage::new(2)))
    .build()
    .run();
    let first_peak = report
        .outcomes
        .first()
        .expect("winter campaign detects at least one peak")
        .scenario
        .clone()
        .expect("full-trace campaigns retain scenarios");
    scenarios.push(("grid-peak".to_string(), *first_peak));
    scenarios
}

#[test]
fn reports_match_golden_corpus() {
    for (name, scenario) in corpus() {
        for method in AnnouncementMethod::all() {
            let report = Scenario {
                method,
                ..scenario.clone()
            }
            .run();
            check(&format!("{name}__{method}"), &report);
        }
    }
}

/// A stable, diff-friendly rendering of a whole campaign: per-day
/// predictor choice, peaks and feedback deltas, per-peak negotiation
/// summaries, and the stop-rule accounting.
fn render_campaign(report: &CampaignReport) -> String {
    let mut out = String::new();
    writeln!(out, "days_evaluated: {}", report.days_evaluated()).unwrap();
    for d in &report.days {
        writeln!(
            out,
            "day {} ({}): predictor={} peaks={} feedback_delta={:.6}",
            d.day.index,
            d.day.day_type,
            d.predictor,
            d.peaks.len(),
            d.feedback_delta.value()
        )
        .unwrap();
    }
    for o in &report.outcomes {
        writeln!(
            out,
            "outcome {}: rounds={} initial_total={:.6} final_total={:.6} rewards={:.6} status={}",
            o.label,
            o.report.rounds().len(),
            o.report.initial_total().value(),
            o.report.final_total().value(),
            o.report.total_rewards().value(),
            o.report.status()
        )
        .unwrap();
    }
    let e = &report.economics;
    writeln!(out, "rewards_paid: {:.6}", e.rewards_paid.value()).unwrap();
    writeln!(out, "energy_shaved: {:.6}", e.energy_shaved.value()).unwrap();
    writeln!(
        out,
        "production_cost_avoided: {:.6}",
        e.production_cost_avoided.value()
    )
    .unwrap();
    writeln!(out, "peak_saving: {:.6}", e.peak_saving.value()).unwrap();
    writeln!(out, "net_gain: {:.6}", e.net_gain.value()).unwrap();
    writeln!(out, "economic_stops: {}", e.economic_stops).unwrap();
    out
}

/// Snapshot-checks one campaign report.
fn check_campaign(name: &str, report: &CampaignReport) {
    check_rendered(name, &render_campaign(report));
}

/// The tier-golden rendering: everything [`render_campaign`] shows plus
/// what distinguishes the tiers — the stored tier and the retained
/// settlements — so the `aggregate` and `settlement` snapshots differ
/// where (and only where) the tiers do.
fn render_campaign_at_tier(report: &CampaignReport) -> String {
    let mut out = render_campaign(report);
    for o in &report.outcomes {
        writeln!(out, "outcome {}: tier={}", o.label, o.report.tier()).unwrap();
        for (i, s) in o.report.settlements().iter().enumerate() {
            writeln!(
                out,
                "  settlement {i}: cutdown={:.2} reward={:.6}",
                s.cutdown.value(),
                s.reward.value()
            )
            .unwrap();
        }
    }
    out
}

/// The closed-loop fixture shared by the full-trace golden and the
/// per-tier goldens, run at `tier`.
fn closed_loop_fixture(tier: ReportTier) -> CampaignReport {
    let homes = PopulationBuilder::new().households(40).build(11);
    CampaignBuilder::new(
        &homes,
        &WeatherModel::winter(),
        &Horizon::new(6, 0, Season::Winter),
    )
    .predictor(FixedPredictor(MovingAverage::new(3)))
    .feedback(ClosedLoop)
    .stop_rule(MarginalCostStop)
    .report_tier(tier)
    .build()
    .run()
}

#[test]
fn closed_loop_campaign_matches_golden() {
    // One closed-loop campaign under the marginal-cost stop: pins the
    // whole feedback cycle — predictor choice, per-day feedback deltas,
    // per-peak settlements and the stop-rule accounting.
    let report = closed_loop_fixture(ReportTier::FullTrace);
    // The snapshot is only meaningful if the run is pure.
    assert_eq!(report, closed_loop_fixture(ReportTier::FullTrace));
    check_campaign("campaign-closed-loop", &report);
}

#[test]
fn tiered_campaigns_match_goldens_and_downgrades() {
    // The same fixture at the two lower tiers: pins what each tier
    // keeps (settlements but no rounds at Settlement; scalars only at
    // Aggregate) and that streaming at a tier equals downgrading a
    // full-trace run after the fact.
    let full = closed_loop_fixture(ReportTier::FullTrace);
    for tier in [ReportTier::Aggregate, ReportTier::Settlement] {
        let streamed = closed_loop_fixture(tier);
        assert_eq!(
            streamed,
            full.at_tier(tier),
            "streaming at {tier} diverged from at_tier({tier}) downgrade"
        );
        assert_eq!(streamed, closed_loop_fixture(tier));
        for outcome in &streamed.outcomes {
            assert_eq!(outcome.report.tier(), tier);
            assert!(outcome.report.rounds().is_empty(), "{tier} kept rounds");
            assert_eq!(outcome.scenario.is_some(), tier.keeps_rounds());
            assert_eq!(
                !outcome.report.settlements().is_empty(),
                tier.keeps_settlements(),
                "{tier} settlements retention wrong"
            );
        }
        check_rendered(
            &format!("campaign-closed-loop__{tier}"),
            &render_campaign_at_tier(&streamed),
        );
    }
}

/// The adaptive fixture: the closed-loop campaign's grid with all
/// three self-tuning loops closed — rolling predictor re-selection,
/// same-day residual renegotiation and experience-tuned β/band.
fn adaptive_fixture() -> CampaignReport {
    let homes = PopulationBuilder::new().households(40).build(11);
    CampaignBuilder::new(
        &homes,
        &WeatherModel::winter(),
        &Horizon::new(6, 0, Season::Winter),
    )
    .predictor(RollingWindow::standard(3, 2))
    .feedback(RenegotiateResidual::new(2, 0.005))
    .tuning(AdaptiveTuning)
    .stop_rule(MarginalCostStop)
    .build()
    .run()
}

#[test]
fn adaptive_campaign_matches_golden() {
    // The full adaptive stack on the closed-loop grid: pins the tuned
    // configs' effect on every settlement, the renegotiation pass
    // labels and the re-selected predictor trail, so any drift in the
    // three day-boundary loops fails loudly.
    let report = adaptive_fixture();
    assert_eq!(report, adaptive_fixture(), "adaptive run not pure");
    check_campaign("campaign-adaptive", &report);
}

/// The distributed-faulty fixture: the closed-loop campaign's grid and
/// policies, but with every peak negotiated as a seeded simulation over
/// the drop-class faulty network. Settlement tier — the tier a faulty
/// season study would actually run at.
fn distributed_faulty_fixture() -> (CampaignReport, NetworkTraffic) {
    let homes = PopulationBuilder::new().households(40).build(11);
    CampaignBuilder::new(
        &homes,
        &WeatherModel::winter(),
        &Horizon::new(6, 0, Season::Winter),
    )
    .predictor(FixedPredictor(MovingAverage::new(3)))
    .feedback(ClosedLoop)
    .stop_rule(MarginalCostStop)
    .report_tier(ReportTier::Settlement)
    .execution(FaultClass::Drop.mode(23))
    .build()
    .run_instrumented()
}

#[test]
fn distributed_faulty_campaign_matches_golden() {
    // A faulty distributed season is still a pure function of its seed:
    // lost messages, deadline-forced rounds and all. The snapshot pins
    // the degraded settlements *and* the wire counters, so any drift in
    // the network model, the per-peak seeding or the deadline handling
    // fails loudly.
    let (report, traffic) = distributed_faulty_fixture();
    let (replay_report, replay_traffic) = distributed_faulty_fixture();
    assert_eq!(report, replay_report, "faulty replay diverged");
    assert_eq!(traffic, replay_traffic, "traffic counters diverged");
    assert!(traffic.messages_dropped > 0, "the drop fault must bite");
    let mut rendered = render_campaign_at_tier(&report);
    writeln!(rendered, "traffic: {traffic}").unwrap();
    check_rendered("campaign-distributed-faulty", &rendered);
}

#[test]
fn golden_corpus_is_replayable() {
    // The corpus relies on runs being pure; pin that here so a golden
    // failure always means protocol drift, never nondeterminism.
    for (name, scenario) in corpus() {
        let a = scenario.run();
        let b = scenario.run();
        assert_eq!(a, b, "{name}: re-run diverged");
        assert_eq!(render(&a), render(&b), "{name}: rendering diverged");
    }
}

/// Renders `values` bit for bit: each distinct bit pattern once, in
/// order of first appearance, then every value as its index into that
/// list.
fn render_bits(out: &mut String, label: &str, values: impl IntoIterator<Item = f64>) {
    let mut distinct: Vec<u64> = Vec::new();
    let mut indices: Vec<String> = Vec::new();
    for bits in values.into_iter().map(f64::to_bits) {
        let index = distinct.iter().position(|&d| d == bits).unwrap_or_else(|| {
            distinct.push(bits);
            distinct.len() - 1
        });
        indices.push(index.to_string());
    }
    let patterns: Vec<String> = distinct.iter().map(|b| format!("{b:016x}")).collect();
    writeln!(
        out,
        "  {label}: [{}] {}",
        patterns.join(" "),
        indices.join(" ")
    )
    .unwrap();
}

#[test]
fn wire_order_matches_golden() {
    // Every event the simulated network orders — deliveries, duplicate
    // copies, held-back messages and round deadlines — shows up in the
    // wire counters, the virtual end time and the settlements. A
    // 10-tick deadline equals the stock maximum latency, so deadlines
    // and deliveries share ticks and the scheduling-sequence tie-break
    // decides their order; 3 ticks forces most rounds, 300 forces none
    // on a lossless network.
    let scenario = ScenarioBuilder::random(40, 0.35, 7).build();
    let mut networks: Vec<(String, NetworkModel)> = FaultClass::all()
        .into_iter()
        .map(|class| (class.name().to_string(), class.network()))
        .collect();
    networks.push((
        "mixed".to_string(),
        NetworkModel::uniform(1, 10)
            .with_drop_probability(0.1)
            .with_duplicate_probability(0.15)
            .with_reordering(0.2, 12),
    ));
    let mut out = String::new();
    for (name, network) in &networks {
        for deadline in [3, 10, 300] {
            for method in AnnouncementMethod::all() {
                let scenario = Scenario {
                    method,
                    ..scenario.clone()
                };
                let outcome = run_distributed(
                    &scenario,
                    network.clone(),
                    7,
                    SimDuration::from_ticks(deadline),
                );
                let report = &outcome.report;
                let t = &outcome.traffic;
                writeln!(
                    out,
                    "{name} deadline={deadline} {method}: negotiations={} sent={} delivered={} \
                     dropped={} duplicated={} timers={} forced={} end_time={} status={} rounds={}",
                    t.negotiations,
                    t.messages_sent,
                    t.messages_delivered,
                    t.messages_dropped,
                    t.messages_duplicated,
                    t.timers_fired,
                    t.deadline_forced_rounds,
                    outcome.end_time.ticks(),
                    report.status(),
                    report.rounds().len()
                )
                .unwrap();
                let last = report.rounds().last().expect("a settled run has rounds");
                render_bits(&mut out, "bids", last.bids.iter().map(|b| b.value()));
                render_bits(
                    &mut out,
                    "settlements",
                    report
                        .settlements()
                        .iter()
                        .flat_map(|s| [s.cutdown.value(), s.reward.value()]),
                );
            }
        }
    }
    check_rendered("wire-order", &out);
}
