//! Execution modes: *how* a campaign's negotiations actually run.
//!
//! The paper's §3.2 promise is that the same negotiation runs unchanged
//! whether the agents share a process or talk over an unreliable
//! network. [`ExecutionMode`] makes that a per-campaign switch, set on
//! the campaign's builder
//! ([`CampaignBuilder::execution`](crate::campaign::CampaignBuilder::execution)):
//!
//! * [`ExecutionMode::Sync`] — the in-process
//!   [`NegotiationScratch`](crate::sync_driver::NegotiationScratch)
//!   pump; fastest, timers never fire.
//! * [`ExecutionMode::Distributed`] — every peak's negotiation runs
//!   over a seeded simulated [`NetworkModel`]
//!   ([`NegotiationScratch::run_distributed`](crate::sync_driver::NegotiationScratch::run_distributed)):
//!   every message between the Utility Agent and a customer crosses
//!   the network, and each round's response deadline is a timer in
//!   virtual time. On a
//!   *clean* (perfect) network the resulting reports are byte-identical
//!   to the sync path — the byte-identity suites pin this — while a
//!   *faulty* network degrades them in measurable ways that the
//!   [`resilience`](crate::resilience) layer quantifies.
//!
//! Each peak draws its own deterministic RNG seed from the mode's base
//! seed and the peak's (day, index) position via [`peak_seed`], so
//! results are independent of worker scheduling: a fleet at any thread
//! count and a lone campaign all see the same per-peak seeds.
//!
//! [`NetworkTraffic`] is the side channel for what the network *did*
//! (wire counts, drops, duplicates, deadline-forced rounds). It rides
//! next to the untouched report types instead of inside them, so report
//! equality, golden snapshots and the archive codec are unaffected by
//! the execution mode.

use massim::clock::SimDuration;
use massim::network::NetworkModel;
use std::fmt;
use std::ops::{Add, AddAssign};

/// Default per-round response deadline for distributed negotiations, in
/// ticks: comfortably above a round trip on every stock network model
/// (max latency tens of ticks, reorder hold-backs included), so clean
/// and lightly-faulty runs never conclude a round early by accident.
pub const DEFAULT_DEADLINE_TICKS: u64 = 300;

/// How a campaign runs each peak's negotiation.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ExecutionMode {
    /// In-process synchronous pump — no simulated network, no timers.
    #[default]
    Sync,
    /// Each negotiation is a seeded discrete-event run over `network`,
    /// with the UA's per-round response deadline as a timer in virtual
    /// time.
    Distributed {
        /// The network between the UA and its customers.
        network: NetworkModel,
        /// Per-round response deadline; must exceed a network round
        /// trip or every round concludes empty.
        deadline: SimDuration,
        /// Base RNG seed; each peak derives its own via [`peak_seed`].
        seed: u64,
    },
}

impl ExecutionMode {
    /// The synchronous in-process mode (the default).
    pub fn sync() -> ExecutionMode {
        ExecutionMode::Sync
    }

    /// Distributed execution over a *perfect* network: real message
    /// passing, zero faults — reports byte-identical to [`sync`](ExecutionMode::sync).
    pub fn distributed_clean() -> ExecutionMode {
        ExecutionMode::distributed_faulty(NetworkModel::perfect())
    }

    /// Distributed execution over the given (typically faulty) network,
    /// with the default deadline and a zero base seed. Chain
    /// [`with_seed`](ExecutionMode::with_seed) to adjust the seed.
    pub fn distributed_faulty(network: NetworkModel) -> ExecutionMode {
        ExecutionMode::Distributed {
            network,
            deadline: SimDuration::from_ticks(DEFAULT_DEADLINE_TICKS),
            seed: 0,
        }
    }

    /// Sets the base RNG seed (no effect on [`ExecutionMode::Sync`],
    /// which draws no randomness).
    pub fn with_seed(mut self, base: u64) -> ExecutionMode {
        if let ExecutionMode::Distributed { seed, .. } = &mut self {
            *seed = base;
        }
        self
    }

    /// True for either distributed variant.
    pub fn is_distributed(&self) -> bool {
        matches!(self, ExecutionMode::Distributed { .. })
    }
}

impl fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionMode::Sync => write!(f, "sync"),
            ExecutionMode::Distributed { network, .. } => {
                if *network == NetworkModel::perfect() {
                    write!(f, "distributed-clean")
                } else {
                    write!(f, "distributed-faulty")
                }
            }
        }
    }
}

/// The deterministic per-peak seed: a splitmix64-style mix of the
/// mode's base seed with the peak's `(day, index)` position in its
/// campaign. Depends only on *where* the peak is, never on which worker
/// negotiates it or in what order, so parallel, sequential and
/// fleet-scheduled runs of the same plan are identical.
pub fn peak_seed(base: u64, day: u64, peak: u64) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    mix(base ^ mix(day.wrapping_mul(0x0165_667b_19e3_779f) ^ mix(peak)))
}

/// What the network did across some set of distributed negotiations —
/// the side channel next to the (unchanged) negotiation reports. One
/// negotiation's record is its
/// [`DistributedOutcome::traffic`](crate::distributed::DistributedOutcome::traffic);
/// campaigns, fleets and the resilience layer sum those.
///
/// All-zero for [`ExecutionMode::Sync`] seasons, where no simulated
/// network exists. Sums are order-independent, so the figures are
/// deterministic under any worker scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetworkTraffic {
    /// Negotiations that ran distributed.
    pub negotiations: u64,
    /// Messages handed to the network.
    pub messages_sent: u64,
    /// Messages actually delivered (duplicates delivered twice).
    pub messages_delivered: u64,
    /// Messages the network dropped (loss and outages).
    pub messages_dropped: u64,
    /// Messages the network duplicated.
    pub messages_duplicated: u64,
    /// Deadline timers that fired.
    pub timers_fired: u64,
    /// Rounds the UA concluded on its deadline instead of a full
    /// response set — zero on a clean network.
    pub deadline_forced_rounds: u64,
}

impl NetworkTraffic {
    /// The all-zero traffic record.
    pub const ZERO: NetworkTraffic = NetworkTraffic {
        negotiations: 0,
        messages_sent: 0,
        messages_delivered: 0,
        messages_dropped: 0,
        messages_duplicated: 0,
        timers_fired: 0,
        deadline_forced_rounds: 0,
    };
}

impl AddAssign for NetworkTraffic {
    fn add_assign(&mut self, rhs: NetworkTraffic) {
        self.negotiations += rhs.negotiations;
        self.messages_sent += rhs.messages_sent;
        self.messages_delivered += rhs.messages_delivered;
        self.messages_dropped += rhs.messages_dropped;
        self.messages_duplicated += rhs.messages_duplicated;
        self.timers_fired += rhs.timers_fired;
        self.deadline_forced_rounds += rhs.deadline_forced_rounds;
    }
}

impl Add for NetworkTraffic {
    type Output = NetworkTraffic;
    fn add(mut self, rhs: NetworkTraffic) -> NetworkTraffic {
        self += rhs;
        self
    }
}

impl fmt::Display for NetworkTraffic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} negotiations, {} sent / {} delivered ({} dropped, {} duplicated), \
             {} timers, {} deadline-forced rounds",
            self.negotiations,
            self.messages_sent,
            self.messages_delivered,
            self.messages_dropped,
            self.messages_duplicated,
            self.timers_fired,
            self.deadline_forced_rounds,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sync() {
        assert_eq!(ExecutionMode::default(), ExecutionMode::Sync);
        assert!(!ExecutionMode::Sync.is_distributed());
        assert!(ExecutionMode::distributed_clean().is_distributed());
    }

    #[test]
    fn builders_compose() {
        let mode = ExecutionMode::distributed_faulty(
            NetworkModel::uniform(1, 10).with_drop_probability(0.1),
        )
        .with_seed(42);
        let ExecutionMode::Distributed { seed, .. } = mode else {
            panic!("distributed mode expected");
        };
        assert_eq!(seed, 42);
        // The seed setter is inert on Sync.
        assert_eq!(ExecutionMode::sync().with_seed(9), ExecutionMode::Sync);
    }

    #[test]
    fn display_names_the_mode() {
        assert_eq!(ExecutionMode::sync().to_string(), "sync");
        assert_eq!(
            ExecutionMode::distributed_clean().to_string(),
            "distributed-clean"
        );
        assert_eq!(
            ExecutionMode::distributed_faulty(
                NetworkModel::uniform(1, 5).with_drop_probability(0.2)
            )
            .to_string(),
            "distributed-faulty"
        );
    }

    #[test]
    fn peak_seeds_are_position_determined_and_spread() {
        assert_eq!(peak_seed(7, 3, 1), peak_seed(7, 3, 1));
        // Any coordinate change moves the seed.
        let base = peak_seed(7, 3, 1);
        assert_ne!(base, peak_seed(8, 3, 1));
        assert_ne!(base, peak_seed(7, 4, 1));
        assert_ne!(base, peak_seed(7, 3, 2));
        // No collisions across a season-sized grid of positions.
        let mut seen = std::collections::BTreeSet::new();
        for day in 0..100u64 {
            for peak in 0..24u64 {
                assert!(seen.insert(peak_seed(1234, day, peak)));
            }
        }
    }

    #[test]
    fn traffic_sums() {
        let a = NetworkTraffic {
            negotiations: 1,
            messages_sent: 10,
            messages_delivered: 9,
            messages_dropped: 1,
            messages_duplicated: 0,
            timers_fired: 2,
            deadline_forced_rounds: 1,
        };
        let total = a + a;
        assert_eq!(total.negotiations, 2);
        assert_eq!(total.messages_sent, 20);
        assert_eq!(NetworkTraffic::ZERO + a, a);
        assert!(a.to_string().contains("10 sent / 9 delivered"));
    }
}
