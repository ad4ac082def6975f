//! `massim` — virtual time and a seeded network model for deterministic
//! message-passing simulations.
//!
//! The paper's prototype ran inside the DESIRE environment on a single
//! machine; a modern reproduction needs a substrate on which one Utility
//! Agent negotiates with thousands of Customer Agents over an unreliable
//! network. An async runtime gives nondeterministic interleavings, but
//! experiments must be replayable bit for bit. This crate provides the
//! two pieces a deterministic event loop needs:
//!
//! * **virtual time** ([`clock`]): ticks, instants and spans;
//! * a **network model** ([`network`]) that decides each message's fate
//!   — latency, loss, duplication, reordering and outage windows — from
//!   a caller-owned seeded RNG, for fault injection (lost bids, late
//!   bids).
//!
//! The event loop lives with the agents it drives: `loadbal-core`'s
//! distributed run schedules every delivery and deadline by
//! `(tick, scheduling sequence)` and draws one
//! [`NetworkModel::route_at`](network::NetworkModel::route_at) per
//! message, so the same seed always yields the same run.
//!
//! # Example
//!
//! ```
//! use massim::clock::SimTime;
//! use massim::network::{Delivery, NetworkModel};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let net = NetworkModel::uniform(1, 10).with_drop_probability(0.2);
//! let mut rng = StdRng::seed_from_u64(42);
//! let fates: Vec<Delivery> = (0..100)
//!     .map(|_| net.route_at(&mut rng, SimTime::ZERO))
//!     .collect();
//! assert!(fates.contains(&Delivery::Drop));
//! // Same seed, same fates.
//! let mut again = StdRng::seed_from_u64(42);
//! assert!(fates.iter().all(|&f| f == net.route_at(&mut again, SimTime::ZERO)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod network;
