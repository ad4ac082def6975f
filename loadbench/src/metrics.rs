//! Every metric the benchmark reports: name, unit, direction and
//! regression bound, plus the comparison of two sets of printed runs.

use crate::stats::{median, Better, Bound};
use std::collections::BTreeMap;

/// Where a metric is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// What a user of the system sees; bounded in `BENCHMARK.json`.
    EndToEnd,
    /// The season's result rather than its cost: printed with the
    /// end-to-end metrics, compared exactly, but not a timing.
    Outcome,
    /// One layer, from the traced run; explains the end-to-end metrics.
    Layer,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    pub class: Class,
}

const fn spec(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Bound,
    class: Class,
) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound,
        class,
    }
}

const fn timing(name: &'static str, share: f64, floor: f64) -> Spec {
    spec(
        name,
        "s",
        Better::Lower,
        Bound::Relative { share, floor },
        Class::EndToEnd,
    )
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Spec {
    spec(name, unit, better, Bound::Unbounded, Class::Layer)
}

/// A deterministic layer count: any change is visible, any worsening a
/// regression.
const fn count(name: &'static str, unit: &'static str, better: Better) -> Spec {
    spec(name, unit, better, Bound::Exact, Class::Layer)
}

use Better::{Higher, Lower};

pub const SPECS: &[Spec] = &[
    // Timing bounds are the largest the benchmark runner accepts: on a
    // host whose other tenants slow it in bursts, ten quiet runs spread
    // by 4–15 % (README.md, "Calibration and baseline").
    timing("season_s", 0.25, 0.0),
    timing("season_p75_s", 0.25, 0.0),
    timing("season_1t_s", 0.25, 0.0),
    timing("setup_s", 0.25, 0.005),
    spec(
        "peak_heap_mb",
        "MB",
        Lower,
        Bound::Relative {
            share: 0.15,
            floor: 0.0,
        },
        Class::EndToEnd,
    ),
    spec("net_gain", "money", Higher, Bound::Exact, Class::Outcome),
    spec("failure_rate", "ratio", Lower, Bound::Exact, Class::Outcome),
    // grid population / slab
    layer("population.build_s", "s", Lower),
    count("population.bytes_per_household", "B", Lower),
    // grid demand via CampaignBuilder::build
    layer("campaign.build_s", "s", Lower),
    layer("demand.ns_per_household_day", "ns", Lower),
    layer("fleet.serial_share", "ratio", Lower),
    // core campaign stepping
    layer("campaign.progress_s", "s", Lower),
    layer("campaign.plan_s", "s", Lower),
    layer("campaign.complete_day_s", "s", Lower),
    layer("campaign.finish_s", "s", Lower),
    layer("campaign.us_per_customer", "us", Lower),
    count("campaign.peaks", "count", Lower),
    count("campaign.customers_materialised", "count", Lower),
    count("campaign.renegotiation_passes", "count", Lower),
    count("campaign.predictor_switches", "count", Lower),
    count("campaign.stable_days", "count", Higher),
    // campaign economics
    count("campaign.overuse_removed_kwh", "kWh", Higher),
    count("campaign.energy_shaved_kwh", "kWh", Higher),
    count("campaign.rewards_paid", "money", Lower),
    count("campaign.economic_stops", "count", Lower),
    count("campaign.net_gain", "money", Higher),
    // core engine / sync driver
    layer("negotiate.s", "s", Lower),
    layer("negotiate.p50_us", "us", Lower),
    layer("negotiate.p90_us", "us", Lower),
    count("negotiate.rounds_per_negotiation", "count", Lower),
    layer("negotiate.ns_per_customer_round", "ns", Lower),
    layer("negotiate.ns_per_message", "ns", Lower),
    layer("negotiate.allocs_per_negotiation", "count", Lower),
    // core distributed + massim
    count("distributed.messages_sent", "count", Lower),
    count("distributed.messages_delivered", "count", Lower),
    count("distributed.messages_dropped", "count", Lower),
    count("distributed.timers_fired", "count", Lower),
    count("distributed.deadline_forced", "count", Lower),
    count("distributed.forced_round_share", "ratio", Lower),
    // core fleet + sweep::WorkerPool
    layer("fleet.run_s", "s", Lower),
    layer("fleet.run_1t_s", "s", Lower),
    layer("fleet.speedup", "ratio", Higher),
    layer("fleet.cpu_util", "ratio", Higher),
    layer("fleet.useful_cpu_ratio", "ratio", Higher),
    // loadbal-archive
    count("archive.bytes", "B", Lower),
    count("archive.bytes_per_day", "B", Lower),
    layer("archive.write_s", "s", Lower),
    layer("archive.open_s", "s", Lower),
    layer("archive.read_s", "s", Lower),
    layer("archive.seek_read_us", "us", Lower),
    layer("archive.write_mb_per_s", "MB/s", Higher),
    layer("archive.read_mb_per_s", "MB/s", Higher),
    // core session tiers
    layer("report.retained_bytes", "B", Lower),
    layer("season.allocations", "count", Lower),
    // the ledger itself
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead", "ratio", Lower),
];

pub fn find(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One measured metric: its value (`None` where too few samples exist)
/// and how many samples it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: Option<f64>,
    pub samples: usize,
}

/// Medians per (workload, metric) over printed result lines of the form
/// `<workload> <metric> <value> <unit> [n=<samples>]`; other lines are
/// ignored.
pub fn parse_lines(text: &str) -> BTreeMap<(String, String), f64> {
    let mut seen: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [workload, metric, value, unit, ..] = fields[..] else {
            continue;
        };
        let (Some(spec), Ok(value)) = (find(metric), value.parse::<f64>()) else {
            continue;
        };
        if spec.unit == unit && crate::workload::Workload::parse(workload).is_some() {
            seen.entry((workload.to_string(), metric.to_string()))
                .or_default()
                .push(value);
        }
    }
    seen.into_iter()
        .filter_map(|(k, v)| Some((k, median(&v)?)))
        .collect()
}

/// One metric present in both sets.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub workload: String,
    pub metric: &'static str,
    pub baseline: f64,
    pub candidate: f64,
    pub regressed: bool,
}

/// Compares the medians of two sets of printed runs metric by metric
/// under each metric's bound.
pub fn compare(baseline: &str, candidate: &str) -> Vec<Verdict> {
    let base = parse_lines(baseline);
    let cand = parse_lines(candidate);
    base.iter()
        .filter_map(|((workload, metric), &b)| {
            let spec = find(metric)?;
            let c = *cand.get(&(workload.clone(), metric.clone()))?;
            Some(Verdict {
                workload: workload.clone(),
                metric: spec.name,
                baseline: b,
                candidate: c,
                regressed: spec.bound.regressed(spec.better, b, c),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        for (i, s) in SPECS.iter().enumerate() {
            assert!(
                SPECS[..i].iter().all(|t| t.name != s.name),
                "{} twice",
                s.name
            );
            assert!(s.name.len() <= 64 && s.unit.len() <= 16, "{}", s.name);
            assert!(s.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(s
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn benchmark_manifest_matches_the_end_to_end_table() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json at the repo root");
        let compact: String = text.split_whitespace().collect();
        for s in SPECS.iter().filter(|s| s.class == Class::EndToEnd) {
            let Bound::Relative { share, .. } = s.bound else {
                panic!("{}: end-to-end metrics carry a relative bound", s.name);
            };
            let better = match s.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\",\"bound\":{share}}}",
                s.name, s.unit
            );
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in crate::workload::Workload::ALL {
            assert!(
                compact.contains(&format!("{{\"name\":\"{}\",", w.name())),
                "BENCHMARK.json lacks workload {}",
                w.name()
            );
        }
    }

    #[test]
    fn compare_takes_medians_and_applies_bounds() {
        let base = "# stamp line\n\
            city-season season_s 1.00 s\n\
            city-season season_s 1.02 s\n\
            city-season season_s 0.98 s\n\
            city-season net_gain 5 money\n\
            city-season season_s 9 ms\n";
        let cand = "city-season season_s 1.30 s\n\
            city-season net_gain 5 money\n\
            unknown-workload season_s 1 s\n";
        let verdicts = compare(base, cand);
        assert_eq!(verdicts.len(), 2);
        let season = verdicts.iter().find(|v| v.metric == "season_s").unwrap();
        assert_eq!(
            season.baseline, 1.0,
            "median of the three well-formed lines"
        );
        assert!(season.regressed);
        let gain = verdicts.iter().find(|v| v.metric == "net_gain").unwrap();
        assert!(!gain.regressed);
    }
}
