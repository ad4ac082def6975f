//! Experiment runner: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p loadbal-bench --bin experiments -- all
//! cargo run --release -p loadbal-bench --bin experiments -- fig6_7
//! cargo run --release -p loadbal-bench --bin experiments -- --json fleet_scaling hot_loop
//! ```
//!
//! `--json` additionally writes machine-readable timing records for the
//! perf-tracked experiments (`BENCH_E15.json`, `BENCH_E16.json`,
//! `BENCH_E17.json`) into the current directory, so the performance
//! trajectory is comparable across PRs.

use loadbal_bench::experiments;
use loadbal_core::session::ReportTier;
use std::alloc::{GlobalAlloc, Layout, System};

/// The system allocator with count + byte accounting on top, feeding
/// [`loadbal_bench::alloc_probe`]. Installed only in this binary — the
/// library stays uninstrumented — so E16 can report real
/// allocations-per-negotiation figures and E17 real retained-bytes
/// figures per report tier.
struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter updates allocate
// nothing (relaxed atomic arithmetic).
// lint: allow(unsafe-pool) reason="GlobalAlloc is an unsafe trait; the counting allocator exists only in this binary so library runs stay uninstrumented"
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System::alloc`, to which this defers
    // unchanged after bumping the (allocation-free) counters.
    // lint: allow(unsafe-pool) reason="required signature of the GlobalAlloc trait"
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        loadbal_bench::alloc_probe::record_alloc(layout.size());
        System.alloc(layout)
    }

    // SAFETY: same contract as `System::dealloc`; `ptr` is passed
    // through untouched.
    // lint: allow(unsafe-pool) reason="required signature of the GlobalAlloc trait"
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        loadbal_bench::alloc_probe::record_dealloc(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: experiments [--json] <id>...
  ids: fig1 | fig2_5 | fig6_7 | fig8_9 | methods | formula | beta | scaling |
       invariants | market | categories | shapes | campaign | campaign_loop |
       fleet_scaling | hot_loop | report_tiers | fault_resilience |
       adaptive_loops | city_scale | city_scale_smoke | all
  --json: also write BENCH_E15.json / BENCH_E16.json / BENCH_E17.json /
          BENCH_E18.json / BENCH_E19.json / BENCH_E20.json records";

fn write_json(path: &str, json: &str) {
    match std::fs::write(path, format!("{json}\n")) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

fn run(id: &str, json: bool) -> bool {
    match id {
        "fig1" => println!("{}", experiments::fig1_demand(1000, 42)),
        "fig2_5" => {
            println!("E2 / Figures 2–5 — process abstraction hierarchies\n");
            println!("Figure 2 (UA own process control):");
            println!(
                "{}",
                desire::render::render_tree(
                    &loadbal_core::desire_host::ua_own_process_control_tree()
                )
            );
            println!("Figure 3 (UA cooperation management):");
            println!(
                "{}",
                desire::render::render_tree(&loadbal_core::desire_host::ua_cooperation_tree())
            );
            println!("Figure 4 (CA own process control):");
            println!(
                "{}",
                desire::render::render_tree(
                    &loadbal_core::desire_host::ca_own_process_control_tree()
                )
            );
            println!("Figure 5 (CA cooperation management):");
            println!(
                "{}",
                desire::render::render_tree(&loadbal_core::desire_host::ca_cooperation_tree())
            );
        }
        "fig6_7" => println!("{}", experiments::fig6_7_trace()),
        "fig8_9" => println!("{}", experiments::fig8_9_customer()),
        "methods" => println!("{}", experiments::methods_comparison(500, 42)),
        "formula" => println!("{}", experiments::formula_sweep()),
        "beta" => println!("{}", experiments::beta_sweep(200, 10)),
        "scaling" => println!("{}", experiments::scaling(&[10, 100, 1000, 10000], 42)),
        "invariants" => println!("{}", experiments::invariants(50)),
        "market" => println!("{}", experiments::market_comparison(500, 42)),
        "categories" => println!("{}", experiments::offer_categories(500, 42)),
        "shapes" => println!("{}", experiments::shape_ablation(200, 10)),
        "campaign" => println!(
            "{}",
            experiments::campaign_grid(&[100, 250, 500], &powergrid::weather::Season::all(), 42)
        ),
        "campaign_loop" => println!("{}", experiments::campaign_loop(220, 42)),
        "fleet_scaling" => {
            let r = experiments::fleet_scaling(8, 120, 42);
            println!("{r}");
            if json {
                write_json("BENCH_E15.json", &r.to_json());
            }
        }
        "hot_loop" => {
            // ≥20-day, ≥4-cell winter season at 4 threads: the fleet
            // must equal the sequential reference byte for byte.
            let r = experiments::hot_loop(4, 100, 24, 4, 42);
            println!("{r}");
            if json {
                write_json("BENCH_E16.json", &r.to_json());
            }
        }
        "report_tiers" => {
            // The acceptance shape: a 4-cell × 24-day season per tier,
            // sequential so every tier negotiates identically. Archive
            // v2 stores bids and settlements as dictionary runs and
            // preferences as (scale, ceiling): the full-trace archive
            // reads ≈ 7,600 B/day and the settlement archive ≈ 420
            // (raw runs read ≈ 28,700 and ≈ 1,960), so a return to raw
            // runs breaks the archive bounds.
            let r = experiments::report_tiers(4, 100, 24, 42);
            println!("{r}");
            if let Some(ratio) = r.settlement_memory_ratio {
                assert!(
                    ratio <= 0.1,
                    "settlement / full-trace retained memory {ratio:.4} (acceptance: ≤ 0.1)"
                );
            }
            for (tier, bound) in [
                (ReportTier::FullTrace, 10_000.0),
                (ReportTier::Settlement, 600.0),
            ] {
                let per_day = r
                    .rows
                    .iter()
                    .find(|row| row.tier == tier)
                    .map_or(f64::INFINITY, |row| row.archive_bytes_per_day);
                assert!(
                    per_day <= bound,
                    "{tier} archive {per_day:.1} B/day (acceptance: ≤ {bound})"
                );
            }
            if json {
                write_json("BENCH_E17.json", &r.to_json());
            }
        }
        "fault_resilience" => {
            // The acceptance shape: a 3-cell × 10-day winter season run
            // sync, distributed-clean (asserted byte-identical) and once
            // per fault class, diffed peak by peak.
            let r = experiments::fault_resilience(3, 60, 10, 42);
            println!("{r}");
            if json {
                write_json("BENCH_E18.json", &r.to_json());
            }
        }
        "adaptive_loops" => {
            // The acceptance shape: the same seeded winter season run
            // static and with all three self-tuning loops on, adaptive
            // economics asserted no worse and byte-identity asserted on
            // a replay, across threads over two cells and across
            // sync/distributed-clean modes.
            let r = experiments::adaptive_loops(220, 16, 42);
            println!("{r}");
            if json {
                write_json("BENCH_E19.json", &r.to_json());
            }
        }
        "city_scale" => {
            // The acceptance shape: one million households as a single
            // template-encoded slab, sharded zero-copy across 64 cells,
            // a 5-day winter season at settlement tier. At this scale
            // the ≥5× claim for slab demand synthesis against the
            // per-slot household fold is asserted, not just recorded.
            let r = experiments::city_scale(1_000_000, 64, 5, 42);
            println!("{r}");
            assert!(
                r.speedup_vs_object >= 5.0,
                "slab demand synthesis only {:.1}× the per-slot household fold (acceptance: ≥5×)",
                r.speedup_vs_object
            );
            if json {
                write_json("BENCH_E20.json", &r.to_json());
            }
        }
        "city_scale_smoke" => {
            // The CI shape: 50k households across 2 shards — exercises
            // the identical machinery (sharding, settlement season,
            // kernel-vs-reference demand agreement, the interval
            // flexibility kernel against its per-slot sweep) in seconds
            // rather than minutes. A household is an id and a template index
            // (12 B), so a return of per-household field or device
            // copies breaks the footprint bound. Negotiation state is
            // fixed-size values per customer (a 64-B customer engine), so
            // the one-thread season's own heap high-water reads the same
            // 77 B per household (3,836,728 B) on every run; per-customer
            // heap objects (tables, queues, histories) read ≈ 440, and
            // any growth of more than ~73 B per household breaks the
            // season bound.
            let r = experiments::city_scale(50_000, 2, 5, 42);
            println!("{r}");
            assert!(
                r.bytes_per_household <= 16.0,
                "slab footprint {:.1} B/household (acceptance: ≤ 16)",
                r.bytes_per_household
            );
            if let Some(per_household) = r.season_peak_heap_bytes_per_household {
                assert!(
                    per_household <= 150.0,
                    "season heap high-water {per_household:.0} B/household at 1 thread \
                     (acceptance: ≤ 150)"
                );
            }
        }
        "all" => {
            for id in [
                "fig1",
                "fig2_5",
                "fig6_7",
                "fig8_9",
                "methods",
                "formula",
                "beta",
                "scaling",
                "invariants",
                "market",
                "categories",
                "shapes",
                "campaign",
                "campaign_loop",
                "fleet_scaling",
                "hot_loop",
                "report_tiers",
                "fault_resilience",
                "adaptive_loops",
                "city_scale",
            ] {
                run(id, json);
                println!();
            }
        }
        _ => return false,
    }
    true
}

fn main() {
    // Fail fast on an unclean tree: every record stamps `lint_clean`,
    // and perf numbers from a tree violating the determinism/safety
    // invariants are not comparable across PRs.
    loadbal_bench::lint_check::assert_clean();
    let mut json = false;
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| {
            if a == "--json" {
                json = true;
                false
            } else {
                true
            }
        })
        .collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    for id in &args {
        if !run(id, json) {
            eprintln!("unknown experiment '{id}'\n{USAGE}");
            std::process::exit(2);
        }
    }
}
