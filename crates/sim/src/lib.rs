//! `massim` — a deterministic discrete-event message-passing runtime for
//! multi-agent systems.
//!
//! The paper's prototype ran inside the DESIRE environment on a single
//! machine; a modern reproduction needs a substrate on which one Utility
//! Agent negotiates with thousands of Customer Agents. The repro hint
//! suggests `tokio`, but an async runtime gives nondeterministic
//! interleavings; experiments must be replayable bit-for-bit. This crate
//! instead provides:
//!
//! * a **deterministic simulator** ([`runtime::Simulation`]): virtual
//!   time, a seeded RNG, and a total order on events — same seed, same
//!   trace, always;
//! * a **network model** ([`network`]) with latency and loss for fault
//!   injection (lost bids, late bids);
//! * **metrics** ([`metrics`]) and an **event log** ([`log`]) that the
//!   experiment harness reads.
//!
//! A simulation is single-threaded and deterministic; independent runs
//! fan across cores on the caller's threads (`loadbal-core`'s
//! `sweep::fan_out`).
//!
//! # Example
//!
//! ```
//! use massim::prelude::*;
//!
//! #[derive(Debug, Clone)]
//! enum Msg { Ping, Pong }
//!
//! struct Echo;
//! impl Agent<Msg> for Echo {
//!     fn on_message(&mut self, from: AgentId, msg: Msg, ctx: &mut Context<'_, Msg>) {
//!         if matches!(msg, Msg::Ping) {
//!             ctx.send(from, Msg::Pong);
//!         }
//!     }
//! }
//!
//! struct Caller { echo: AgentId, got_pong: bool }
//! impl Agent<Msg> for Caller {
//!     fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
//!         ctx.send(self.echo, Msg::Ping);
//!     }
//!     fn on_message(&mut self, _from: AgentId, msg: Msg, _ctx: &mut Context<'_, Msg>) {
//!         self.got_pong = matches!(msg, Msg::Pong);
//!     }
//! }
//!
//! let mut sim = Simulation::new(42);
//! let echo = sim.add_agent(Echo);
//! let caller = sim.add_agent(Caller { echo, got_pong: false });
//! sim.run().unwrap();
//! assert!(sim.agent::<Caller>(caller).unwrap().got_pong);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod clock;
pub mod event;
pub mod log;
pub mod metrics;
pub mod network;
pub mod rng;
pub mod runtime;

/// The most frequently used items.
pub mod prelude {
    pub use crate::agent::{Agent, AgentId, Context};
    pub use crate::clock::{SimDuration, SimTime};
    pub use crate::event::Envelope;
    pub use crate::log::EventLog;
    pub use crate::metrics::Metrics;
    pub use crate::network::NetworkModel;
    pub use crate::runtime::{RunOutcome, Simulation};
}
