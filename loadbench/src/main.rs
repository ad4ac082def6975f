//! `loadbench`: whole seasons of the load-balancing system, timed end to
//! end and attributed to stages by a traced run.
//!
//! ```text
//! cargo run --release --manifest-path loadbench/Cargo.toml -- --seed 42
//! cargo run --release --manifest-path loadbench/Cargo.toml -- \
//!     --workload city-season --seed 7 --seconds 20 --trace 1 --json out.json
//! cargo run --release --manifest-path loadbench/Cargo.toml -- --compare base.txt new.txt
//! ```
//!
//! Every metric is printed as `<workload> <metric> <value> <unit> n=<samples>`;
//! the last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `README.md` for the
//! workloads, the metrics and their bounds.

#![deny(unsafe_code)]

mod alloc;
mod host;
mod measure;
mod metrics;
mod season;
mod stats;
mod trace;
mod workload;

use measure::{Measured, Options, Sampling};
use metrics::{Class, SPECS};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::Workload;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str =
    "usage: loadbench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--json PATH]
       loadbench --compare BASELINE CANDIDATE
  workloads: city-season adaptive-season faulty-network full-trace-archive (default: all)
  --seconds: minimum measuring time per workload (default 0: the minimum of 10 rounds)
  --trace:   0 reports end-to-end metrics only, 1 per-layer metrics only (default: both)
  --compare: medians of two files of printed runs, checked against each metric's bound";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    json: Option<PathBuf>,
}

enum Command {
    Measure(Args),
    Compare(PathBuf, PathBuf),
}

fn parse(args: &[String]) -> Result<Command, String> {
    if let [flag, base, cand] = args {
        if flag == "--compare" {
            return Ok(Command::Compare(base.into(), cand.into()));
        }
    }
    let mut out = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: 0.0,
        trace: None,
        json: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.workloads
                    .push(Workload::parse(name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds >= 0.0 && out.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                out.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                })
            }
            "--json" => out.json = Some(value()?.into()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if out.workloads.is_empty() {
        out.workloads = Workload::ALL.to_vec();
    }
    Ok(Command::Measure(out))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Command::Measure(args)) => measure_all(&args),
        Ok(Command::Compare(base, cand)) => compare(&base, &cand),
        Err(e) => {
            eprintln!("loadbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn measure_all(args: &Args) -> ExitCode {
    let host = host::Host::probe();
    let threads = measure::fleet_threads();
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace != Some(false),
        toy: false,
        sampling: Sampling::full(),
        out_dir: PathBuf::from("target/loadbench"),
    };
    let llc_mb = host.llc_bytes.map(|b| b as f64 / 1e6);
    println!(
        "# loadbench seed={} nproc={} threads={} cpu=\"{}\" llc_mb={} git={} alloc=counting",
        args.seed,
        host.nproc,
        threads,
        host.cpu_model,
        llc_mb.map_or("unknown".into(), |m| format!("{m:.1}")),
        host.git_head.as_deref().unwrap_or("unavailable"),
    );
    let mut results = Vec::new();
    for &workload in &args.workloads {
        match measure::run(workload, &opts) {
            Ok(r) => {
                print_result(&r, llc_mb, args.trace);
                results.push(r);
            }
            Err(e) => {
                eprintln!("loadbench: {}: {e}", workload.name());
                return ExitCode::from(2);
            }
        }
    }
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, results_json(&host, args, &results)) {
            eprintln!("loadbench: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", summary_line(&results, args.trace));
    if results.iter().all(|r| r.failed == 0) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The metrics a `--trace` setting reports.
fn reported(class: Class, trace: Option<bool>) -> bool {
    match trace {
        Some(false) => class == Class::EndToEnd,
        Some(true) => class == Class::Layer,
        None => true,
    }
}

fn value_str(v: Option<f64>) -> String {
    v.map_or("null".into(), |v| v.to_string())
}

fn print_result(r: &Measured, llc_mb: Option<f64>, trace: Option<bool>) {
    let name = r.workload.name();
    let population_mb = r.population_bytes as f64 / 1e6;
    let fits = match llc_mb {
        Some(llc) if population_mb < llc => "fits in",
        Some(_) => "exceeds",
        None => "unknown against",
    };
    println!(
        "# {name}: population {population_mb:.1} MB {fits} the LLC; this is not a \
         DRAM-bandwidth measurement and byte figures are computed, not measured"
    );
    for spec in SPECS.iter().filter(|s| reported(s.class, trace)) {
        if let Some(v) = r.metrics.get(spec.name) {
            println!(
                "{name} {} {} {} n={}",
                spec.name,
                value_str(v.value),
                spec.unit,
                v.samples
            );
        }
    }
    if !r.stages.is_empty() {
        let season = r
            .stages
            .iter()
            .find(|s| s.name == "season")
            .map(|s| s.total);
        println!("# {name} traced stages at 1 thread (median of traced seasons):");
        println!(
            "#   {:<22} {:>7} {:>11} {:>11} {:>7}",
            "stage", "calls", "total_s", "self_s", "self%"
        );
        for s in &r.stages {
            let share = season.map_or(0.0, |w| 100.0 * s.self_time / w);
            println!(
                "#   {:<22} {:>7} {:>11.6} {:>11.6} {:>6.1}%",
                s.name, s.calls, s.total, s.self_time, share
            );
        }
    }
    for f in &r.failures {
        println!("# {name} CHECK FAILED: {f}");
    }
    println!(
        "# {name} checks: {} failed of {} negotiations attempted on {} fleet threads",
        r.failed, r.attempted, r.threads
    );
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line for benchmark runners: every metric of the `--trace`
/// setting, prefixed with its workload when several ran.
fn summary_line(results: &[Measured], trace: Option<bool>) -> String {
    let mut metrics = Vec::new();
    for r in results {
        for spec in SPECS.iter().filter(|s| reported(s.class, trace)) {
            let Some(v) = r.metrics.get(spec.name) else {
                continue;
            };
            let key = if results.len() == 1 {
                spec.name.to_string()
            } else {
                format!("{}/{}", r.workload.name(), spec.name)
            };
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&key),
                value_str(v.value),
                json_str(spec.unit)
            ));
        }
    }
    let correct = results.iter().all(|r| r.failures.is_empty());
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        results.iter().map(|r| r.attempted).sum::<u64>(),
        results.iter().map(|r| r.failed).sum::<u64>(),
        metrics.join(", ")
    )
}

/// The `--json` document: the host and run stamp, then every workload's
/// metrics with units and sample counts, checks and traced stages.
fn results_json(host: &host::Host, args: &Args, results: &[Measured]) -> String {
    let mut out = format!(
        "{{\"stamp\": {{\"seed\": {}, \"nproc\": {}, \"threads\": {}, \"cpu\": {}, \
         \"llc_bytes\": {}, \"git_head\": {}, \"allocator\": \"counting\", \
         \"seconds\": {}}},\n\"workloads\": [",
        args.seed,
        host.nproc,
        measure::fleet_threads(),
        json_str(&host.cpu_model),
        host.llc_bytes.map_or("null".into(), |b| b.to_string()),
        host.git_head.as_deref().map_or("null".into(), json_str),
        args.seconds,
    );
    for (i, r) in results.iter().enumerate() {
        let metrics: Vec<String> = SPECS
            .iter()
            .filter_map(|s| {
                let v = r.metrics.get(s.name)?;
                Some(format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                    json_str(s.name),
                    value_str(v.value),
                    json_str(s.unit),
                    v.samples
                ))
            })
            .collect();
        let stages: Vec<String> = r
            .stages
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": {}, \"calls\": {}, \"total_s\": {}, \"self_s\": {}}}",
                    json_str(s.name),
                    s.calls,
                    s.total,
                    s.self_time
                )
            })
            .collect();
        let failures: Vec<String> = r.failures.iter().map(|f| json_str(f)).collect();
        write!(
            out,
            "{}\n{{\"name\": {}, \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \
             \"population_bytes\": {}, \"metrics\": {{{}}}, \"stages\": [{}]}}",
            if i > 0 { "," } else { "" },
            json_str(r.workload.name()),
            r.attempted,
            r.failed,
            failures.join(", "),
            r.population_bytes,
            metrics.join(", "),
            stages.join(", ")
        )
        .expect("String write");
    }
    out.push_str("\n]}\n");
    out
}

fn compare(base: &PathBuf, cand: &PathBuf) -> ExitCode {
    let read =
        |p: &PathBuf| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let (base, cand) = match (read(base), read(cand)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("loadbench: {e}");
            return ExitCode::from(2);
        }
    };
    let verdicts = metrics::compare(&base, &cand);
    for v in &verdicts {
        println!(
            "{} {} {} -> {} {}",
            v.workload,
            v.metric,
            v.baseline,
            v.candidate,
            if v.regressed { "REGRESSED" } else { "ok" }
        );
    }
    let regressed = verdicts.iter().filter(|v| v.regressed).count();
    println!("# {regressed} of {} metrics regressed", verdicts.len());
    if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_runs_at_toy_size_with_every_metric_and_no_failure() {
        let out_dir = std::env::temp_dir().join(format!("loadbench-smoke-{}", std::process::id()));
        let opts = Options {
            seed: 3,
            seconds: 0.0,
            trace: true,
            toy: true,
            sampling: Sampling::toy(),
            out_dir: out_dir.clone(),
        };
        for workload in Workload::ALL {
            let r = measure::run(workload, &opts).expect("toy season runs");
            assert_eq!(r.failures, Vec::<String>::new(), "{}", workload.name());
            assert_eq!(r.failed, 0, "{}", workload.name());
            assert!(r.attempted > 0, "{} negotiates", workload.name());
            for spec in SPECS {
                assert!(
                    r.metrics.contains_key(spec.name),
                    "{} lacks {}",
                    workload.name(),
                    spec.name
                );
            }
            let line = summary_line(std::slice::from_ref(&r), Some(false));
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            assert!(line.contains("\"setup_s\": {\"value\": "));
            assert!(!line.contains("negotiate.s"), "end-to-end line only");
        }
        std::fs::remove_dir_all(out_dir).expect("smoke output removed");
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let Ok(Command::Measure(a)) = parse(&args(
            "--workload faulty-network --seed 9 --seconds 20 --trace 0",
        )) else {
            panic!("runner arguments parse");
        };
        assert_eq!(a.workloads, [Workload::Faulty]);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 20.0, Some(false)));
        let Ok(Command::Measure(all)) = parse(&[]) else {
            panic!("no arguments means every workload");
        };
        assert_eq!(all.workloads, Workload::ALL);
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds -1",
            "--seed",
            "--frob",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
