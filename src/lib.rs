//! Facade crate for the load-balancing multi-agent system — a Rust
//! reproduction of Brazier et al., *Agents Negotiating for Load Balancing
//! of Electricity Use* (ICDCS 1998).
//!
//! This crate re-exports the five member crates:
//!
//! * [`desire`] — the compositional agent framework (DESIRE) the paper's
//!   prototype was built in,
//! * [`powergrid`] — the electricity-domain substrate (households, demand,
//!   production, prediction),
//! * [`massim`] — virtual time and the seeded network model (latency,
//!   loss, duplication, reordering, outages) that distributed runs
//!   cross,
//! * [`core`] (crate `loadbal-core`) — the sans-io
//!   [`NegotiationEngine`](loadbal_core::engine) protocol core, the three
//!   drivers that execute it (synchronous, distributed, DESIRE-hosted),
//!   the three §3.2 announcement methods, and the parallel
//!   [`ScenarioSweep`](loadbal_core::sweep::ScenarioSweep) runner,
//! * [`archive`] (crate `loadbal-archive`) — compact versioned binary
//!   season archives for tiered campaign/fleet reports
//!   ([`ReportTier`](loadbal_core::session::ReportTier)), seekable per
//!   cell and per day, with the `season-inspect` CLI to list, dump and
//!   diff them (see `examples/season_archive.rs`).
//!
//! # Quickstart
//!
//! ```
//! use loadbal::prelude::*;
//!
//! // A small peak scenario: capacity 100, predicted use 135. `run()`
//! // drives the sans-io engine through the synchronous driver; the
//! // distributed and DESIRE-hosted modes execute the same engine.
//! let scenario = ScenarioBuilder::paper_figure_6().build();
//! let report = scenario.run();
//! assert!(report.converged());
//! assert!(report.final_overuse() < report.initial_overuse());
//! ```
//!
//! Sweeping a grid of scenarios across cores:
//!
//! ```
//! use loadbal::prelude::*;
//!
//! let outcomes = ScenarioSweep::new()
//!     .seeded_grid("demo", 15, 0.35, 0..4, |b| b)
//!     .run(); // std-thread parallel, byte-identical to sequential
//! assert_eq!(outcomes.len(), 4);
//! ```

#![forbid(unsafe_code)]

pub use desire;
pub use loadbal_archive as archive;
pub use loadbal_core as core;
pub use massim;
pub use powergrid;

/// The most frequently used items across all member crates.
pub mod prelude {
    pub use loadbal_core::prelude::*;
    pub use powergrid::prelude::*;
}
