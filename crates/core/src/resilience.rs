//! Clean-vs-faulty season benchmarking: how much does an unreliable
//! network actually cost?
//!
//! The paper argues (§4) that the load-balancing society *degrades
//! gracefully* under communication failure: a lost bid costs a round,
//! not a settlement. This module turns that claim into numbers. A
//! [`ResilienceReport`] runs the **same fleet plan** twice — once under
//! [`ExecutionMode::distributed_clean`] (real message passing, perfect
//! network) and once per [`FaultClass`] over that class's stock faulty
//! [`NetworkModel`] — and diffs the outcomes peak by peak:
//!
//! * **settlement drift** — mean/max `|Δ cut-down|` across matched
//!   settlements (needs [`ReportTier::Settlement`] or above; zero
//!   figures otherwise);
//! * **reward delta** — faulty minus clean reward outlay, the money the
//!   faults cost (or saved, when deadline-forced rounds under-settle);
//! * **extra rounds / messages** — the protocol-level price of
//!   retransmission-free recovery;
//! * **deadline-forced rounds, drops, duplicates** — straight off the
//!   faulty run's [`NetworkTraffic`].
//!
//! Peaks are matched by their campaign label (`day<i>/<interval>`):
//! under closed-loop feedback a faulty early day can shift which later
//! peaks even exist, so unmatched peaks are *counted*, never silently
//! dropped.
//!
//! Everything here is deterministic: both runs derive per-peak RNG
//! seeds from the same base via [`peak_seed`](crate::execution::peak_seed),
//! so a resilience report is exactly reproducible for a given seed —
//! the fault-matrix suite in `tests/fault_injection.rs` pins this.
//!
//! [`ReportTier::Settlement`]: crate::session::ReportTier::Settlement

use crate::campaign::CampaignReport;
use crate::execution::{ExecutionMode, NetworkTraffic};
use crate::fleet::FleetReport;
use crate::session::NegotiationReport;
use massim::network::NetworkModel;
use powergrid::units::Money;
use std::collections::BTreeMap;
use std::fmt;

/// One class of communication failure, with a stock [`NetworkModel`]
/// exhibiting it (latency is always present — a fault on a zero-latency
/// network is invisible to timers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Messages vanish (15 % loss).
    Drop,
    /// Messages arrive twice (20 % duplication).
    Duplicate,
    /// Messages overtake each other (25 % held back up to 20 ticks).
    Reorder,
    /// A network partition: every message sent during the outage
    /// window is lost.
    Outage,
}

impl FaultClass {
    /// Every fault class, in benchmark order.
    pub fn all() -> [FaultClass; 4] {
        [
            FaultClass::Drop,
            FaultClass::Duplicate,
            FaultClass::Reorder,
            FaultClass::Outage,
        ]
    }

    /// A stable lowercase name (benchmark JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::Drop => "drop",
            FaultClass::Duplicate => "duplicate",
            FaultClass::Reorder => "reorder",
            FaultClass::Outage => "outage",
        }
    }

    /// The stock faulty network for this class: uniform 1–10-tick
    /// latency plus exactly one kind of fault, so observed degradation
    /// is attributable.
    pub fn network(self) -> NetworkModel {
        let base = NetworkModel::uniform(1, 10);
        match self {
            FaultClass::Drop => base.with_drop_probability(0.15),
            FaultClass::Duplicate => base.with_duplicate_probability(0.2),
            FaultClass::Reorder => base.with_reordering(0.25, 20),
            // Mid-negotiation: with 1–10-tick latency the early rounds'
            // traffic falls in [15, 45), so every negotiation crosses
            // the partition (later windows would miss short sessions,
            // which settle within ~60 ticks).
            FaultClass::Outage => base.with_outage(15, 45),
        }
    }

    /// The [`ExecutionMode`] that benchmarks this class: distributed
    /// over [`FaultClass::network`] with the given base seed.
    pub fn mode(self, seed: u64) -> ExecutionMode {
        ExecutionMode::distributed_faulty(self.network()).with_seed(seed)
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How one fleet cell fared under a fault class, against its clean run.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResilience {
    /// The cell's label.
    pub label: String,
    /// Peaks present in both runs (matched by campaign label).
    pub matched_peaks: usize,
    /// Peaks present in only one run — closed-loop divergence.
    pub unmatched_peaks: usize,
    /// Mean `|Δ cut-down|` across matched settlements (`0` when the
    /// tier keeps no settlements).
    pub mean_drift: f64,
    /// Largest single `|Δ cut-down|` (`0` without settlements).
    pub max_drift: f64,
    /// Faulty minus clean reward outlay over matched peaks.
    pub reward_delta: Money,
    /// Faulty minus clean negotiation rounds over matched peaks.
    pub extra_rounds: i64,
    /// Faulty minus clean protocol messages over matched peaks (engine
    /// messages, not wire traffic — duplicates don't inflate this).
    pub extra_messages: i64,
    /// The faulty run's wire activity for this cell.
    pub traffic: NetworkTraffic,
}

impl CellResilience {
    /// Diffs one cell's faulty campaign against its clean twin.
    fn compare(
        label: &str,
        clean: &CampaignReport,
        faulty: &CampaignReport,
        traffic: NetworkTraffic,
    ) -> CellResilience {
        let clean_by_label: BTreeMap<&str, &NegotiationReport> = clean
            .outcomes
            .iter()
            .map(|o| (o.label.as_str(), &o.report))
            .collect();
        let mut matched = 0usize;
        let mut drift_sum = 0.0f64;
        let mut drift_count = 0usize;
        let mut max_drift = 0.0f64;
        let mut reward_delta = Money::ZERO;
        let mut extra_rounds = 0i64;
        let mut extra_messages = 0i64;
        for outcome in &faulty.outcomes {
            let Some(clean_report) = clean_by_label.get(outcome.label.as_str()) else {
                continue;
            };
            matched += 1;
            let faulty_report = &outcome.report;
            for (c, f) in clean_report
                .settlements()
                .iter()
                .zip(faulty_report.settlements())
            {
                let drift = (f.cutdown.value() - c.cutdown.value()).abs();
                drift_sum += drift;
                drift_count += 1;
                max_drift = max_drift.max(drift);
            }
            reward_delta += faulty_report.total_rewards() - clean_report.total_rewards();
            extra_rounds +=
                i64::from(faulty_report.digest().rounds) - i64::from(clean_report.digest().rounds);
            extra_messages +=
                faulty_report.total_messages() as i64 - clean_report.total_messages() as i64;
        }
        // Peaks only one side has: total distinct labels minus those in
        // both, counted from each side's surplus over the matched set.
        let unmatched = (clean.outcomes.len() - matched) + (faulty.outcomes.len() - matched);
        CellResilience {
            label: label.to_string(),
            matched_peaks: matched,
            unmatched_peaks: unmatched,
            mean_drift: if drift_count == 0 {
                0.0
            } else {
                drift_sum / drift_count as f64
            },
            max_drift,
            reward_delta,
            extra_rounds,
            extra_messages,
            traffic,
        }
    }
}

/// A whole fleet's degradation under one [`FaultClass`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultOutcome {
    /// The injected fault class.
    pub class: FaultClass,
    /// Per-cell diffs, in fleet cell order.
    pub cells: Vec<CellResilience>,
}

impl FaultOutcome {
    /// Diffs a faulty fleet run against the clean baseline, cell by
    /// cell (cells matched by label; `traffic` is the faulty run's
    /// per-cell wire activity, in cell order).
    pub fn compare(
        class: FaultClass,
        clean: &FleetReport,
        faulty: &FleetReport,
        traffic: &[NetworkTraffic],
    ) -> FaultOutcome {
        let cells = faulty
            .cells
            .iter()
            .zip(
                traffic
                    .iter()
                    .copied()
                    .chain(std::iter::repeat(NetworkTraffic::ZERO)),
            )
            .map(|(cell, cell_traffic)| {
                let clean_campaign = clean
                    .cell(&cell.label)
                    .map(|c| &c.report)
                    .unwrap_or(&cell.report);
                CellResilience::compare(&cell.label, clean_campaign, &cell.report, cell_traffic)
            })
            .collect();
        FaultOutcome { class, cells }
    }

    /// Peaks matched across all cells.
    pub fn matched_peaks(&self) -> usize {
        self.cells.iter().map(|c| c.matched_peaks).sum()
    }

    /// Peaks present in only one run, across all cells.
    pub fn unmatched_peaks(&self) -> usize {
        self.cells.iter().map(|c| c.unmatched_peaks).sum()
    }

    /// Mean settlement drift across cells, weighted by matched peaks.
    pub fn mean_drift(&self) -> f64 {
        let peaks: usize = self.cells.iter().map(|c| c.matched_peaks).sum();
        if peaks == 0 {
            return 0.0;
        }
        self.cells
            .iter()
            .map(|c| c.mean_drift * c.matched_peaks as f64)
            .sum::<f64>()
            / peaks as f64
    }

    /// Largest settlement drift anywhere in the fleet.
    pub fn max_drift(&self) -> f64 {
        self.cells.iter().map(|c| c.max_drift).fold(0.0, f64::max)
    }

    /// Fleet-wide reward delta (faulty minus clean).
    pub fn reward_delta(&self) -> Money {
        self.cells.iter().map(|c| c.reward_delta).sum()
    }

    /// Fleet-wide extra rounds.
    pub fn extra_rounds(&self) -> i64 {
        self.cells.iter().map(|c| c.extra_rounds).sum()
    }

    /// Fleet-wide extra protocol messages.
    pub fn extra_messages(&self) -> i64 {
        self.cells.iter().map(|c| c.extra_messages).sum()
    }

    /// Fleet-wide wire activity of the faulty run.
    pub fn traffic(&self) -> NetworkTraffic {
        self.cells
            .iter()
            .fold(NetworkTraffic::ZERO, |sum, c| sum + c.traffic)
    }
}

impl fmt::Display for FaultOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<9} drift mean {:.4} max {:.4} | Δrewards {:>8.2} | \
             +{} rounds +{} msgs | {} deadline-forced, {} dropped, {} duplicated",
            self.class,
            self.mean_drift(),
            self.max_drift(),
            self.reward_delta().value(),
            self.extra_rounds(),
            self.extra_messages(),
            self.traffic().deadline_forced_rounds,
            self.traffic().messages_dropped,
            self.traffic().messages_duplicated,
        )
    }
}

/// Clean-vs-faulty benchmark over one fleet plan: the clean baseline's
/// traffic plus one [`FaultOutcome`] per injected class.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    clean_traffic: NetworkTraffic,
    outcomes: Vec<FaultOutcome>,
}

impl ResilienceReport {
    /// Runs the benchmark: `run` executes the fleet plan under the
    /// [`ExecutionMode`] it is handed (build the fleet inside the
    /// closure, handing the mode to each cell's
    /// [`CampaignBuilder::execution`](crate::campaign::CampaignBuilder::execution),
    /// then call
    /// [`run_instrumented`](crate::fleet::FleetRunner::run_instrumented))
    /// and returns the report plus per-cell traffic. Called once with
    /// the clean mode, then once per class in `classes`, every mode
    /// carrying the same `base_seed` so clean and faulty runs share
    /// per-peak seeds and the whole report is reproducible.
    pub fn measure<F>(base_seed: u64, classes: &[FaultClass], mut run: F) -> ResilienceReport
    where
        F: FnMut(ExecutionMode) -> (FleetReport, Vec<NetworkTraffic>),
    {
        let (clean, clean_traffic) = run(ExecutionMode::distributed_clean().with_seed(base_seed));
        ResilienceReport::against_baseline(&clean, &clean_traffic, base_seed, classes, run)
    }

    /// [`ResilienceReport::measure`] with the clean baseline already
    /// run — for callers (the E18 experiment) that need the clean
    /// [`FleetReport`] itself, e.g. to assert it byte-identical to a
    /// sync run. `run` is called once per class; every mode must carry
    /// the same `base_seed` the clean run used.
    pub fn against_baseline<F>(
        clean: &FleetReport,
        clean_traffic: &[NetworkTraffic],
        base_seed: u64,
        classes: &[FaultClass],
        mut run: F,
    ) -> ResilienceReport
    where
        F: FnMut(ExecutionMode) -> (FleetReport, Vec<NetworkTraffic>),
    {
        let clean_traffic = clean_traffic
            .iter()
            .fold(NetworkTraffic::ZERO, |sum, &t| sum + t);
        let outcomes = classes
            .iter()
            .map(|&class| {
                let (faulty, traffic) = run(class.mode(base_seed));
                FaultOutcome::compare(class, clean, &faulty, &traffic)
            })
            .collect();
        ResilienceReport {
            clean_traffic,
            outcomes,
        }
    }

    /// The clean baseline's fleet-wide wire activity.
    pub fn clean_traffic(&self) -> NetworkTraffic {
        self.clean_traffic
    }

    /// One outcome per injected fault class, in `classes` order.
    pub fn outcomes(&self) -> &[FaultOutcome] {
        &self.outcomes
    }

    /// The outcome for `class`, if it was injected.
    pub fn outcome(&self, class: FaultClass) -> Option<&FaultOutcome> {
        self.outcomes.iter().find(|o| o.class == class)
    }
}

impl fmt::Display for ResilienceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "resilience vs clean ({})", self.clean_traffic)?;
        for outcome in &self.outcomes {
            writeln!(f, "  {outcome}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignBuilder, ClosedLoop, FixedPredictor};
    use crate::fleet::FleetRunner;
    use crate::session::ReportTier;
    use powergrid::calendar::Horizon;
    use powergrid::population::PopulationBuilder;
    use powergrid::prediction::MovingAverage;
    use powergrid::weather::{Season, WeatherModel};

    fn measure_at(tier: ReportTier) -> ResilienceReport {
        let weather = WeatherModel::winter();
        let horizon = Horizon::new(4, 0, Season::Winter);
        let homes = PopulationBuilder::new().households(12).build(5);
        ResilienceReport::measure(7, &[FaultClass::Drop, FaultClass::Duplicate], |mode| {
            let runner = CampaignBuilder::new(&homes, &weather, &horizon)
                .warmup_days(2)
                .predictor(FixedPredictor(MovingAverage::new(2)))
                .feedback(ClosedLoop)
                .report_tier(tier)
                .execution(mode)
                .build();
            FleetRunner::new().cell("solo", runner).run_instrumented()
        })
    }

    #[test]
    fn class_presets_inject_exactly_one_fault() {
        for class in FaultClass::all() {
            let net = class.network();
            assert!(class.mode(3).is_distributed());
            assert_ne!(net, NetworkModel::perfect(), "{class} must be faulty");
        }
        assert_eq!(FaultClass::Drop.network().drop_probability(), 0.15);
        assert_eq!(FaultClass::Drop.network().duplicate_probability(), 0.0);
        assert_eq!(FaultClass::Duplicate.network().drop_probability(), 0.0);
        assert_eq!(FaultClass::Reorder.network().reordering().1, 20);
        assert_eq!(FaultClass::Outage.name(), "outage");
    }

    #[test]
    fn measures_degradation_against_a_clean_baseline() {
        let report = measure_at(ReportTier::Settlement);
        assert_eq!(report.outcomes().len(), 2);
        // The clean baseline talked but lost nothing.
        let clean = report.clean_traffic();
        assert!(clean.negotiations > 0);
        assert!(clean.messages_sent > 0);
        assert_eq!(clean.messages_dropped, 0);
        assert_eq!(clean.deadline_forced_rounds, 0);
        // The drop run lost messages and those losses forced rounds.
        let drop = report.outcome(FaultClass::Drop).expect("drop injected");
        assert!(drop.traffic().messages_dropped > 0);
        assert!(drop.matched_peaks() > 0);
        assert!(drop.mean_drift() >= 0.0);
        // Duplication is absorbed: duplicates on the wire, but engines
        // are idempotent so rounds and settlements barely move.
        let dup = report.outcome(FaultClass::Duplicate).expect("dup injected");
        assert!(dup.traffic().messages_duplicated > 0);
        assert_eq!(dup.traffic().messages_dropped, 0);
        assert!(report.outcome(FaultClass::Outage).is_none());
        assert!(report.to_string().contains("drop"));
    }

    #[test]
    fn reports_are_reproducible_for_a_seed() {
        let a = measure_at(ReportTier::Settlement);
        let b = measure_at(ReportTier::Settlement);
        assert_eq!(a, b);
    }

    #[test]
    fn settlement_tier_matches_full_trace_figures() {
        // Drift needs settlements; everything else comes off the digest.
        // Both survive down to Settlement tier, so the resilience
        // figures must not depend on carrying full traces.
        let full = measure_at(ReportTier::FullTrace);
        let settlement = measure_at(ReportTier::Settlement);
        assert_eq!(full, settlement);
    }

    #[test]
    fn aggregate_tier_still_reports_costs_without_drift() {
        let report = measure_at(ReportTier::Aggregate);
        let drop = report.outcome(FaultClass::Drop).expect("drop injected");
        // No settlements at Aggregate → drift is defined as zero...
        assert_eq!(drop.mean_drift(), 0.0);
        assert_eq!(drop.max_drift(), 0.0);
        // ...but digest-level costs and wire counters still measure.
        assert!(drop.traffic().messages_dropped > 0);
        let full = measure_at(ReportTier::FullTrace);
        let full_drop = full.outcome(FaultClass::Drop).expect("drop injected");
        assert_eq!(drop.extra_rounds(), full_drop.extra_rounds());
        assert_eq!(drop.extra_messages(), full_drop.extra_messages());
        assert_eq!(drop.reward_delta(), full_drop.reward_delta());
        assert_eq!(drop.traffic(), full_drop.traffic());
    }
}
