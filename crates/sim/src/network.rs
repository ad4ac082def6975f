//! Network models: latency, loss, duplication and reordering between
//! agents.
//!
//! The paper assumes "emerging technologies allowing two-way
//! communication between utility companies and their customers" — i.e. a
//! real WAN. Each fault class has a distinct, observable effect on a
//! negotiation run over this network:
//!
//! * **Latency** ([`NetworkModel::uniform`]) spreads bids over virtual
//!   time but changes no outcome: every response still arrives before
//!   the round deadline, so settlements are identical to the
//!   synchronous run.
//! * **Loss** ([`NetworkModel::with_drop_probability`]) makes customers
//!   fall silent for a round. The Utility Agent's deadline timer then
//!   concludes the round with each missing responder held at its last
//!   known bid (monotonic concession makes that safe), so negotiations
//!   take extra rounds, settlements drift toward earlier — more
//!   conservative — cut-downs, and some conclude deadline-forced.
//! * **Duplication** ([`NetworkModel::with_duplicate_probability`])
//!   delivers a message twice. The engines are idempotent per round
//!   (a repeated bid or announcement is ignored), so duplication alone
//!   never changes a settlement — only the wire counters.
//! * **Reordering** ([`NetworkModel::with_reordering`]) holds a message
//!   back so later traffic overtakes it. A bid that slips past its
//!   round's deadline is treated exactly like a lost one (the round
//!   concludes without it, stale arrivals are discarded), so heavy
//!   reordering shows up as deadline-forced rounds and drifted
//!   settlements, lighter than outright loss at the same probability.
//! * **Outages** ([`NetworkModel::with_outage`]) drop *everything* in a
//!   virtual-time window (backhaul outage, concentrator reboot). Rounds
//!   that straddle the window conclude empty on the deadline timer and
//!   the protocol re-converges afterwards from the held bid floor.

use crate::clock::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;

/// How the network treats one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Deliver after the given latency.
    After(SimDuration),
    /// Deliver *two* copies, after the two given latencies (an
    /// at-least-once transport retransmitting spuriously).
    Duplicate(SimDuration, SimDuration),
    /// Silently drop the message.
    Drop,
}

/// A stochastic network model, optionally with total-outage windows.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkModel {
    min_latency: u64,
    max_latency: u64,
    drop_probability: f64,
    /// Probability a message is delivered twice.
    duplicate_probability: f64,
    /// Probability a message is held back by up to `reorder_extra` extra
    /// ticks, letting later messages overtake it.
    reorder_probability: f64,
    /// Maximum extra delay of a reordered message, in ticks.
    reorder_extra: u64,
    /// Half-open virtual-time windows `[from, to)` during which every
    /// message is lost (backhaul outage, concentrator reboot, ...).
    outages: Vec<(u64, u64)>,
}

impl NetworkModel {
    /// A perfect network: 1-tick latency, no loss.
    pub fn perfect() -> NetworkModel {
        NetworkModel::uniform(1, 1)
    }

    /// Uniform latency in `[min, max]` ticks, no loss.
    ///
    /// # Panics
    ///
    /// Panics if `min > max` or `min` is zero (zero-latency messages make
    /// same-instant feedback loops possible).
    pub fn uniform(min: u64, max: u64) -> NetworkModel {
        assert!(min > 0, "latency must be at least one tick");
        assert!(min <= max, "min latency {min} exceeds max {max}");
        NetworkModel {
            min_latency: min,
            max_latency: max,
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            reorder_probability: 0.0,
            reorder_extra: 0,
            outages: Vec::new(),
        }
    }

    /// Adds a total-outage window: every message sent at a virtual time
    /// in `[from, to)` ticks is dropped.
    ///
    /// # Panics
    ///
    /// Panics unless `from < to`.
    pub fn with_outage(mut self, from: u64, to: u64) -> NetworkModel {
        assert!(from < to, "outage window [{from}, {to}) is empty");
        self.outages.push((from, to));
        self
    }

    /// Validates a fault probability: any value in the closed range
    /// `[0, 1]` is legal (`1.0` means "every message"); anything else —
    /// including NaN — is a configuration bug worth failing loudly on.
    fn checked_probability(p: f64, what: &str) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "{what} probability must be within [0, 1], got {p}"
        );
        p
    }

    /// Adds i.i.d. message loss with probability `p`. `p = 1.0` is a
    /// total blackout: every message is dropped.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1` (NaN rejected).
    pub fn with_drop_probability(mut self, p: f64) -> NetworkModel {
        self.drop_probability = NetworkModel::checked_probability(p, "drop");
        self
    }

    /// Adds i.i.d. message duplication with probability `p`: a duplicated
    /// message is delivered twice, each copy with its own latency.
    /// `p = 1.0` duplicates every message.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1` (NaN rejected).
    pub fn with_duplicate_probability(mut self, p: f64) -> NetworkModel {
        self.duplicate_probability = NetworkModel::checked_probability(p, "duplicate");
        self
    }

    /// Adds i.i.d. reordering: with probability `p` a message is held
    /// back by an extra `1..=extra` ticks on top of its drawn latency, so
    /// messages sent later can overtake it. `p = 1.0` holds back every
    /// message.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1` (NaN rejected) and `extra ≥ 1`.
    pub fn with_reordering(mut self, p: f64, extra: u64) -> NetworkModel {
        assert!(extra >= 1, "reordering needs at least one extra tick");
        self.reorder_probability = NetworkModel::checked_probability(p, "reorder");
        self.reorder_extra = extra;
        self
    }

    /// The configured loss probability.
    pub fn drop_probability(&self) -> f64 {
        self.drop_probability
    }

    /// The configured duplication probability.
    pub fn duplicate_probability(&self) -> f64 {
        self.duplicate_probability
    }

    /// The configured reordering `(probability, max extra ticks)`.
    pub fn reordering(&self) -> (f64, u64) {
        (self.reorder_probability, self.reorder_extra)
    }

    /// The longest a message can take: the largest latency plus the
    /// reordering hold-back, in ticks. Every copy [`route_at`](Self::route_at)
    /// delivers arrives between one and `max_delay` ticks after it was
    /// sent, so a driver that queues deliveries by tick needs a window of
    /// `max_delay + 1` ticks.
    pub fn max_delay(&self) -> u64 {
        self.max_latency + self.reorder_extra
    }

    /// Decides the fate of one message sent at `now`. An outage window
    /// drops it without a draw; otherwise loss, the latency (with its
    /// reordering hold-back) and duplication (with the second copy's
    /// latency) draw from `rng` in that order, each only where
    /// configured.
    pub fn route_at(&self, rng: &mut StdRng, now: SimTime) -> Delivery {
        let t = now.ticks();
        if self.outages.iter().any(|&(from, to)| t >= from && t < to) {
            return Delivery::Drop;
        }
        if self.drop_probability > 0.0 && rng.gen_range(0.0..1.0) < self.drop_probability {
            return Delivery::Drop;
        }
        let first = self.sample_latency(rng);
        if self.duplicate_probability > 0.0 && rng.gen_range(0.0..1.0) < self.duplicate_probability
        {
            let second = self.sample_latency(rng);
            return Delivery::Duplicate(first, second);
        }
        Delivery::After(first)
    }

    /// One latency draw, including the reordering hold-back.
    fn sample_latency(&self, rng: &mut StdRng) -> SimDuration {
        let mut latency = if self.min_latency == self.max_latency {
            self.min_latency
        } else {
            rng.gen_range(self.min_latency..=self.max_latency)
        };
        if self.reorder_probability > 0.0 && rng.gen_range(0.0..1.0) < self.reorder_probability {
            latency += rng.gen_range(1..=self.reorder_extra);
        }
        SimDuration::from_ticks(latency)
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel::perfect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// The fate of a message sent at tick zero, before any outage.
    fn route(net: &NetworkModel, rng: &mut StdRng) -> Delivery {
        net.route_at(rng, SimTime::ZERO)
    }

    #[test]
    fn perfect_network_always_one_tick() {
        let net = NetworkModel::perfect();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(
                route(&net, &mut rng),
                Delivery::After(SimDuration::from_ticks(1))
            );
        }
    }

    #[test]
    fn uniform_latency_in_bounds() {
        let net = NetworkModel::uniform(3, 9);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            match route(&net, &mut rng) {
                Delivery::After(d) => assert!((3..=9).contains(&d.ticks())),
                other => panic!("fault-free network produced {other:?}"),
            }
        }
    }

    #[test]
    fn drop_rate_roughly_matches() {
        let net = NetworkModel::uniform(1, 1).with_drop_probability(0.3);
        let mut rng = StdRng::seed_from_u64(3);
        let drops = (0..10_000)
            .filter(|_| matches!(route(&net, &mut rng), Delivery::Drop))
            .count();
        let rate = drops as f64 / 10_000.0;
        assert!((0.25..0.35).contains(&rate), "observed drop rate {rate}");
    }

    #[test]
    fn deterministic_given_seed() {
        let net = NetworkModel::uniform(1, 10).with_drop_probability(0.1);
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..50).map(|_| route(&net, &mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    #[should_panic(expected = "at least one tick")]
    fn zero_latency_panics() {
        let _ = NetworkModel::uniform(0, 5);
    }

    #[test]
    #[should_panic(expected = "drop probability must be within [0, 1]")]
    fn negative_drop_probability_panics() {
        let _ = NetworkModel::perfect().with_drop_probability(-0.1);
    }

    #[test]
    #[should_panic(expected = "drop probability must be within [0, 1]")]
    fn nan_drop_probability_panics() {
        let _ = NetworkModel::perfect().with_drop_probability(f64::NAN);
    }

    #[test]
    fn total_drop_probability_drops_everything() {
        let net = NetworkModel::perfect().with_drop_probability(1.0);
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..100 {
            assert_eq!(route(&net, &mut rng), Delivery::Drop);
        }
    }

    #[test]
    fn total_duplicate_probability_duplicates_everything() {
        let net = NetworkModel::perfect().with_duplicate_probability(1.0);
        let mut rng = StdRng::seed_from_u64(14);
        for _ in 0..100 {
            assert!(matches!(route(&net, &mut rng), Delivery::Duplicate(_, _)));
        }
    }

    #[test]
    fn accessors() {
        let net = NetworkModel::uniform(2, 4)
            .with_drop_probability(0.05)
            .with_duplicate_probability(0.1)
            .with_reordering(0.2, 7);
        assert!((net.drop_probability() - 0.05).abs() < 1e-12);
        assert!((net.duplicate_probability() - 0.1).abs() < 1e-12);
        assert_eq!(net.reordering(), (0.2, 7));
        assert_eq!(net.max_delay(), 11);
        assert_eq!(NetworkModel::uniform(1, 10).max_delay(), 10);
    }

    #[test]
    fn duplicate_rate_roughly_matches() {
        let net = NetworkModel::perfect().with_duplicate_probability(0.25);
        let mut rng = StdRng::seed_from_u64(4);
        let dups = (0..10_000)
            .filter(|_| matches!(route(&net, &mut rng), Delivery::Duplicate(_, _)))
            .count();
        let rate = dups as f64 / 10_000.0;
        assert!((0.2..0.3).contains(&rate), "observed duplicate rate {rate}");
    }

    #[test]
    fn duplicate_copies_have_independent_latencies() {
        let net = NetworkModel::uniform(1, 20).with_duplicate_probability(0.9);
        let mut rng = StdRng::seed_from_u64(5);
        let mut differing = 0;
        for _ in 0..200 {
            if let Delivery::Duplicate(a, b) = route(&net, &mut rng) {
                assert!((1..=20).contains(&a.ticks()));
                assert!((1..=20).contains(&b.ticks()));
                if a != b {
                    differing += 1;
                }
            }
        }
        assert!(differing > 0, "copies should not be latency-locked");
    }

    #[test]
    fn reordering_extends_latency_within_bounds() {
        let net = NetworkModel::uniform(3, 3).with_reordering(0.5, 10);
        let mut rng = StdRng::seed_from_u64(6);
        let mut held_back = 0;
        for _ in 0..1000 {
            match route(&net, &mut rng) {
                Delivery::After(d) => {
                    assert!((3..=13).contains(&d.ticks()), "latency {d:?}");
                    if d.ticks() > 3 {
                        held_back += 1;
                    }
                }
                other => panic!("lossless network produced {other:?}"),
            }
        }
        assert!(
            (300..700).contains(&held_back),
            "≈half the messages held back, got {held_back}"
        );
    }

    #[test]
    fn every_copy_arrives_within_the_maximum_delay() {
        let net = NetworkModel::uniform(2, 9)
            .with_duplicate_probability(0.3)
            .with_reordering(0.4, 6);
        let mut rng = StdRng::seed_from_u64(8);
        let mut longest = 0;
        for _ in 0..2000 {
            let copies = match route(&net, &mut rng) {
                Delivery::After(d) => vec![d],
                Delivery::Duplicate(a, b) => vec![a, b],
                Delivery::Drop => panic!("lossless network dropped a message"),
            };
            for d in copies {
                assert!((1..=net.max_delay()).contains(&d.ticks()), "delay {d:?}");
                longest = longest.max(d.ticks());
            }
        }
        assert_eq!(longest, net.max_delay(), "the bound is reached");
    }

    #[test]
    fn faulty_network_is_deterministic_per_seed() {
        let net = NetworkModel::uniform(1, 10)
            .with_drop_probability(0.1)
            .with_duplicate_probability(0.2)
            .with_reordering(0.3, 15);
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..100).map(|_| route(&net, &mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    #[should_panic(expected = "duplicate probability must be within [0, 1]")]
    fn bad_duplicate_probability_panics() {
        let _ = NetworkModel::perfect().with_duplicate_probability(1.5);
    }

    #[test]
    #[should_panic(expected = "reorder probability must be within [0, 1]")]
    fn bad_reorder_probability_panics() {
        let _ = NetworkModel::perfect().with_reordering(2.0, 5);
    }

    #[test]
    #[should_panic(expected = "extra tick")]
    fn zero_reorder_extra_panics() {
        let _ = NetworkModel::perfect().with_reordering(0.5, 0);
    }

    #[test]
    fn outage_window_drops_everything_inside() {
        let net = NetworkModel::perfect().with_outage(10, 20);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            net.route_at(&mut rng, SimTime::from_ticks(9)),
            Delivery::After(_)
        ));
        assert_eq!(
            net.route_at(&mut rng, SimTime::from_ticks(10)),
            Delivery::Drop
        );
        assert_eq!(
            net.route_at(&mut rng, SimTime::from_ticks(19)),
            Delivery::Drop
        );
        assert!(matches!(
            net.route_at(&mut rng, SimTime::from_ticks(20)),
            Delivery::After(_)
        ));
    }

    #[test]
    fn multiple_outages() {
        let net = NetworkModel::perfect()
            .with_outage(0, 5)
            .with_outage(50, 60);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(
            net.route_at(&mut rng, SimTime::from_ticks(2)),
            Delivery::Drop
        );
        assert!(matches!(
            net.route_at(&mut rng, SimTime::from_ticks(30)),
            Delivery::After(_)
        ));
        assert_eq!(
            net.route_at(&mut rng, SimTime::from_ticks(55)),
            Delivery::Drop
        );
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_outage_panics() {
        let _ = NetworkModel::perfect().with_outage(7, 7);
    }
}
