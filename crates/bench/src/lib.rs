//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each experiment (see `DESIGN.md` §4 for the full index) is a pure
//! function returning a result struct with a `Display` implementation
//! that prints the same quantities the paper reports. The `experiments`
//! binary dispatches on experiment id; the season benchmark lives in
//! the separate `loadbench` package.
//!
//! | id | paper artefact | function |
//! |----|----------------|----------|
//! | E1 | Figure 1 (demand curve with peak) | [`experiments::fig1_demand`] |
//! | E2 | Figures 2–5 (process trees) | `loadbal_core::desire_host` + `examples/process_tree.rs` |
//! | E3 | Figures 6–7 (UA trace) | [`experiments::fig6_7_trace`] |
//! | E4 | Figures 8–9 (CA trace) | [`experiments::fig8_9_customer`] |
//! | E5 | §3.2.4 method comparison | [`experiments::methods_comparison`] |
//! | E6 | §6 reward formula | [`experiments::formula_sweep`] |
//! | E7 | §7 β sensitivity | [`experiments::beta_sweep`] |
//! | E8 | §1/§7 scalability | [`experiments::scaling`] |
//! | E9 | §3.1 concession invariants | [`experiments::invariants`] |
//! | E13 | grid→negotiation campaigns | [`experiments::campaign_grid`] |
//! | E14 | campaign feedback loop | [`experiments::campaign_loop`] |
//! | E15 | fleet scaling | [`experiments::fleet_scaling`] |
//! | E16 | negotiation hot loop: fleet == sequential, scratch vs fresh engines | [`experiments::hot_loop`] |
//! | E17 | report tiers: retained memory + archive bytes/day | [`experiments::report_tiers`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod lint_check;

/// Allocation accounting hooks for the experiment binary.
///
/// The library never installs a global allocator (that would tax every
/// test run); the `experiments` *binary* wraps the system allocator and
/// funnels each allocation through [`alloc_probe::record_alloc`] and
/// each deallocation through [`alloc_probe::record_dealloc`]. An
/// experiment reads count / byte deltas around a timed or retained
/// section — in uninstrumented contexts (unit tests) the counters stay
/// at zero, [`alloc_probe::installed`] reports `false`, and the
/// experiment reports the measurement as unavailable.
pub mod alloc_probe {
    use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);
    static LIVE: AtomicI64 = AtomicI64::new(0);
    static PEAK: AtomicI64 = AtomicI64::new(0);

    /// Called by the instrumented global allocator on every allocation
    /// of `bytes` bytes.
    pub fn record_alloc(bytes: usize) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
        let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    /// Called by the instrumented global allocator on every
    /// deallocation of `bytes` bytes.
    pub fn record_dealloc(bytes: usize) {
        LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
    }

    /// Allocations recorded so far (0 when not instrumented).
    pub fn count() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Cumulative bytes allocated so far (0 when not instrumented).
    pub fn bytes() -> u64 {
        BYTES.load(Ordering::Relaxed)
    }

    /// Bytes currently live (allocated minus freed). Deltas of this
    /// around building a long-lived value measure what that value
    /// *retains*, as opposed to what building it churned through.
    pub fn live_bytes() -> i64 {
        LIVE.load(Ordering::Relaxed)
    }

    /// High-water mark of [`live_bytes`] since the process started or
    /// the last [`reset_peak`].
    pub fn peak_bytes() -> i64 {
        PEAK.load(Ordering::Relaxed)
    }

    /// Restarts the high-water mark at the current [`live_bytes`], so a
    /// later [`peak_bytes`] measures one section of the run rather than
    /// the whole process lifetime.
    pub fn reset_peak() {
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// True when a counting allocator is feeding the probe (any
    /// allocation has been recorded — in the instrumented binary that
    /// is always the case long before an experiment starts).
    pub fn installed() -> bool {
        count() > 0
    }
}
