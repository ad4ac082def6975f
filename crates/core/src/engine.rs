//! The sans-io negotiation engine: one protocol core, every transport.
//!
//! The paper defines a single negotiation protocol (§3.2 announcement
//! methods under monotonic concession), but a system that must run it
//! synchronously (experiments), over a lossy network (production), and
//! inside the DESIRE kernel (verification) cannot afford three
//! implementations. This module holds the protocol as a pair of pure
//! state machines in the *sans-io* style of production Rust protocol
//! crates: no clocks, no sockets, no threads — callers feed [`Input`]s
//! with [`UtilityEngine::handle`] and drain [`Effect`]s with
//! [`UtilityEngine::poll_effect`], and the *driver* decides what a
//! "send", a "broadcast" or a "timer" physically means.
//!
//! * [`UtilityEngine`] — the Utility Agent half, parameterized by
//!   [`AnnouncementMethod`]; reuses [`RewardTableNegotiator`] (the §6
//!   reward/concession logic). Each round's announcement is one
//!   [`Effect::Broadcast`] to every customer (§6.1: all Customer Agents
//!   get the same announcement); awards are per-customer
//!   [`Effect::Send`]s. A customer of either iterated method bids a
//!   level of the one cut-down grid, [`LEVELS`], whether it answers a
//!   reward table or a request for bids, so both keep their rounds in
//!   per-customer columns of grid indices — this round's bid and the
//!   last accepted one. A bid off the network is mapped to its grid
//!   index once, on receipt (a bid off the grid leaves the customer's
//!   floor in place), and one pass over the columns concludes a round
//!   with each accepted level, the predicted total and whether any
//!   level moved; a reward-table round then reads the stop rule's
//!   outlay and the settlements from its table at those indices.
//! * [`CustomerEngine`] — the Customer Agent half: its preferences, the
//!   grid index of its bid (a reward-table bid and a request-for-bids
//!   commitment alike) behind one answered-round guard, and the
//!   §3.2.1/§3.2.2 decision functions of [`crate::customer_agent`]. It
//!   answers a reward table with the grid index of the level it bids,
//!   reading the table's six rewards and deciding over the grid levels
//!   it can still bid ([`CustomerPreferences::respond`] makes the same
//!   decision). A customer answers each input with at most one message,
//!   so [`CustomerEngine::handle`] simply *returns* its reply to the
//!   Utility Agent: the engine is a 64-byte value that owns no heap
//!   buffer, so the customer side of a city-scale negotiation is one
//!   flat vector of engines.
//!
//! Offers and bid requests settle under the one §3.2 tariff,
//! [`Tariff::default_scheme`], which both engines read rather than copy.
//!
//! [`CustomerPreferences::respond`]: crate::preferences::CustomerPreferences::respond
//!
//! Three drivers ship with the crate:
//!
//! 1. [`NegotiationScratch::run`](crate::sync_driver::NegotiationScratch::run)
//!    — in-process direct exchange, behind
//!    [`Scenario::run`](crate::session::Scenario::run): a reward-table
//!    announcement reaches each customer by reference and its bid, a
//!    grid index, goes straight into the round's columns, with no
//!    message in between;
//! 2. [`NegotiationScratch::run_distributed`](crate::sync_driver::NegotiationScratch::run_distributed)
//!    in [`crate::distributed`] — the same engines over a seeded
//!    simulated network, with round deadlines in virtual time;
//! 3. the DESIRE component glue in [`crate::desire_host`].
//!
//! Every driver takes the announcement method from
//! [`Scenario::method`](crate::session::Scenario::method): the engine
//! is built and reset from the scenario alone.
//!
//! All three produce their
//! [`NegotiationReport`](crate::session::NegotiationReport) through the shared
//! [`ReportAssembler`], so outcomes agree *by construction* — the
//! property `tests/cross_mode.rs` checks over random scenarios.

use crate::concession::{NegotiationStatus, TerminationReason};
use crate::customer_agent::{decide_offer, rfb_step, y_min_for};
use crate::message::Msg;
use crate::methods::AnnouncementMethod;
use crate::preferences::CustomerPreferences;
use crate::reward::{
    grid_index, overuse_fraction, predicted_use_with_cutdown, RewardTable, LEVELS,
};
use crate::session::{RoundRecord, Scenario, Settlement};
use crate::utility_agent::{RewardTableNegotiator, UaDecision, UtilityAgentConfig};
use powergrid::tariff::Tariff;
use powergrid::units::{Fraction, KilowattHours, Money};
use std::collections::VecDeque;

/// The counterparty an engine addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Peer {
    /// The (single) Utility Agent.
    Utility,
    /// Customer `i`, in scenario order.
    Customer(usize),
}

/// Everything the outside world can tell an engine.
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    /// Begin the negotiation (Utility side only; customers are reactive).
    Start,
    /// A protocol message arrived from `from`.
    Received {
        /// The message's sender.
        from: Peer,
        /// The message.
        msg: Msg,
    },
    /// A timer set through [`Effect::SetTimer`] fired.
    TimerFired {
        /// The token the timer was set with.
        token: u64,
    },
}

/// Everything the [`UtilityEngine`] can ask the outside world to do.
///
/// `Send`, `Broadcast` and `SetTimer` are *transport* effects the driver
/// must perform; `RoundComplete` and `Settled` are *observations* it
/// feeds to a [`ReportAssembler`].
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Deliver `msg` to `to`.
    Send {
        /// The recipient.
        to: Peer,
        /// The message.
        msg: Msg,
    },
    /// Deliver `msg` to every customer, in index order `0..n` — one
    /// effect per announcement round rather than one send per customer.
    Broadcast {
        /// The message every customer receives.
        msg: Msg,
    },
    /// Arm a round deadline. Drivers without real time (the synchronous
    /// pump, the DESIRE kernel) may ignore this: conclusion then happens
    /// when every response has arrived.
    SetTimer {
        /// Token identifying the round; echoed in [`Input::TimerFired`].
        token: u64,
    },
    /// One negotiation round concluded.
    RoundComplete(RoundRecord),
    /// The negotiation is over.
    Settled {
        /// Protocol outcome.
        status: NegotiationStatus,
        /// Per-customer settlements (the monetary
        /// [`SettlementSummary`](crate::outcome::SettlementSummary) is
        /// derived from these by [`crate::outcome`]).
        settlements: Vec<Settlement>,
    },
}

// ---------------------------------------------------------------------
// Utility side
// ---------------------------------------------------------------------

/// Per-method protocol state of the [`UtilityEngine`].
#[derive(Debug, Clone, PartialEq)]
enum MethodState {
    /// §3.2.3 — driven by the shared [`RewardTableNegotiator`].
    RewardTables { negotiator: RewardTableNegotiator },
    /// §3.2.1 — the yes/no replies received so far (index = customer).
    Offer { accepts: Vec<Option<bool>> },
    /// §3.2.2 — current round number.
    RequestForBids { round: u32 },
}

/// Marks a customer not yet heard from in the current round.
const UNHEARD: u32 = u32::MAX;

/// An iterated negotiation's bids as grid indices, one column entry per
/// customer: index `k` is level `k` of the cut-down grid, [`LEVELS`].
/// Every reward table of a negotiation prices the grid's levels and a
/// request-for-bids customer commits to one of them, so an index names
/// the same cut-down in every round and a round concludes by reading
/// its columns.
#[derive(Debug, Clone, PartialEq, Default)]
struct LevelColumns {
    /// This round's bid per customer, already held to the customer's
    /// floor; [`UNHEARD`] until one arrives.
    responses: Vec<u32>,
    /// Each customer's accepted level after the last concluded round —
    /// the floor a missing responder keeps (monotonic concession).
    accepted: Vec<u32>,
}

impl LevelColumns {
    /// Aims the columns at a negotiation with `customers` customers,
    /// every one at zero cut-down (grid index 0).
    fn reset(&mut self, customers: usize) {
        self.responses.clear();
        self.accepted.clear();
        self.responses.resize(customers, UNHEARD);
        self.accepted.resize(customers, 0);
    }

    /// Customer `i`'s bid of `cutdown` off the network, as a grid index:
    /// a grid level above the customer's floor takes its level, and any
    /// other bid — at or below the floor, or off the grid — leaves the
    /// floor in place.
    fn level_of_bid(&self, i: usize, cutdown: Fraction) -> u32 {
        let floor = self.accepted[i];
        match grid_index(cutdown) {
            Some(k) if k as u32 > floor => k as u32,
            _ => floor,
        }
    }

    /// Records customer `i`'s bid for this round; true if it is the
    /// customer's first this round.
    fn record(&mut self, i: usize, level: u32) -> bool {
        let first = self.responses[i] == UNHEARD;
        self.responses[i] = level;
        first
    }

    /// Closes a round in one pass over the customers: each one heard
    /// from accepts this round's bid, and a missing responder keeps its
    /// floor. Returns the round's predicted use, summed in customer
    /// order, and whether any accepted level moved.
    fn conclude(&mut self, profiles: &[(KilowattHours, KilowattHours)]) -> (KilowattHours, bool) {
        let levels = LEVELS.map(Fraction::clamped);
        let mut predicted_total = KilowattHours::ZERO;
        let mut moved = false;
        for ((response, accepted), &(predicted, allowed)) in self
            .responses
            .iter_mut()
            .zip(&mut self.accepted)
            .zip(profiles)
        {
            if *response != UNHEARD {
                moved |= *response != *accepted;
                *accepted = std::mem::replace(response, UNHEARD);
            }
            let cutdown = levels[*accepted as usize];
            predicted_total += predicted_use_with_cutdown(predicted, allowed, cutdown);
        }
        (predicted_total, moved)
    }

    /// The accepted levels' cut-downs, in customer order.
    fn cutdowns(&self) -> impl Iterator<Item = Fraction> + '_ {
        let levels = LEVELS.map(Fraction::clamped);
        self.accepted
            .iter()
            .map(move |&level| levels[level as usize])
    }

    /// What `table` pays for the accepted levels, summed in customer
    /// order.
    fn outlay(&self, table: &RewardTable) -> Money {
        let entries = table.entries();
        self.accepted
            .iter()
            .map(|&level| entries[level as usize].1)
            .sum()
    }
}

/// The Utility Agent as a sans-io state machine.
///
/// Feed it [`Input`]s, drain [`Effect`]s; it never blocks, allocates per
/// round only what the round records need, and is identical under every
/// driver. A finished engine can be [`UtilityEngine::reset`] onto the
/// next scenario, reusing its internal buffers — what the
/// [`NegotiationScratch`](crate::sync_driver::NegotiationScratch) hot
/// path does for every peak of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilityEngine {
    method: AnnouncementMethod,
    config: UtilityAgentConfig,
    /// `(predicted_use, allowed_use)` per customer, scenario order.
    profiles: Vec<(KilowattHours, KilowattHours)>,
    normal_use: KilowattHours,
    initial_total: KilowattHours,
    state: MethodState,
    /// Distinct customers heard from this round.
    responded: usize,
    /// The iterated methods' rounds as per-customer columns of grid
    /// indices.
    levels: LevelColumns,
    /// Whether each round record carries every customer's cut-down
    /// ([`RoundRecord::bids`]); a report below
    /// [`ReportTier::FullTrace`](crate::session::ReportTier::FullTrace)
    /// drops the records, so its driver spares the engine building them.
    keep_bids: bool,
    rounds_run: u32,
    concluded_round: u32,
    /// Rounds concluded by the response deadline firing rather than by
    /// every customer answering — always zero under the synchronous
    /// driver (where timers never fire) and on a clean network; the
    /// resilience layer reads it as a degradation signal.
    deadline_forced: u64,
    status: Option<NegotiationStatus>,
    effects: VecDeque<Effect>,
    /// A settlement whose awards are still being polled.
    awarding: Option<Awarding>,
}

/// A settled negotiation's award messages, polled one per customer in
/// index order and then its [`Effect::Settled`]: made on demand from the
/// settlements once every earlier effect is out, instead of queued,
/// since a settlement awards every customer.
#[derive(Debug, Clone, PartialEq)]
struct Awarding {
    round: u32,
    /// The customer whose award is polled next.
    next: usize,
    status: NegotiationStatus,
    settlements: Vec<Settlement>,
}

impl UtilityEngine {
    /// An engine for `scenario`'s configured method: an engine with no
    /// customers, [reset](UtilityEngine::reset) onto the scenario.
    pub fn new(scenario: &Scenario) -> UtilityEngine {
        let mut engine = UtilityEngine {
            method: AnnouncementMethod::RequestForBids,
            config: UtilityAgentConfig::default(),
            profiles: Vec::new(),
            normal_use: KilowattHours::ZERO,
            initial_total: KilowattHours::ZERO,
            state: MethodState::RequestForBids { round: 1 },
            responded: 0,
            levels: LevelColumns::default(),
            keep_bids: true,
            rounds_run: 0,
            concluded_round: 0,
            deadline_forced: 0,
            status: None,
            effects: VecDeque::new(),
            awarding: None,
        };
        engine.reset(scenario);
        engine
    }

    /// Re-aims the engine at a fresh scenario, reusing every internal
    /// buffer (profiles, level columns, effect queue) — behaviourally
    /// identical to [`UtilityEngine::new(scenario)`](UtilityEngine::new)
    /// without the per-negotiation allocations.
    pub fn reset(&mut self, scenario: &Scenario) {
        let n = scenario.customers.len();
        self.method = scenario.method;
        self.config = scenario.config;
        self.profiles.clear();
        self.profiles.extend(
            scenario
                .customers
                .iter()
                .map(|c| (c.predicted_use, c.allowed_use)),
        );
        self.normal_use = scenario.normal_use;
        self.initial_total = scenario.initial_total();
        self.state = match scenario.method {
            AnnouncementMethod::RewardTables => MethodState::RewardTables {
                negotiator: RewardTableNegotiator::new(scenario.config, scenario.interval),
            },
            AnnouncementMethod::Offer => MethodState::Offer {
                accepts: vec![None; n],
            },
            AnnouncementMethod::RequestForBids => MethodState::RequestForBids { round: 1 },
        };
        self.levels.reset(n);
        self.keep_bids = true;
        self.responded = 0;
        self.rounds_run = 0;
        self.concluded_round = 0;
        self.deadline_forced = 0;
        self.status = None;
        self.effects.clear();
        self.awarding = None;
    }

    /// Whether the round records carry the customers' bids: on for a
    /// new or reset engine, off for a driver whose report does not keep
    /// round records.
    pub(crate) fn keep_bids(&mut self, keep: bool) {
        self.keep_bids = keep;
    }

    /// The announcement method being run.
    pub fn method(&self) -> AnnouncementMethod {
        self.method
    }

    /// The normal-use capacity.
    pub fn normal_use(&self) -> KilowattHours {
        self.normal_use
    }

    /// Total predicted consumption before negotiation.
    pub fn initial_total(&self) -> KilowattHours {
        self.initial_total
    }

    /// The negotiation round currently being collected (1-based).
    pub fn current_round(&self) -> u32 {
        match &self.state {
            MethodState::RewardTables { negotiator } => negotiator.round(),
            MethodState::Offer { .. } => 1,
            MethodState::RequestForBids { round } => *round,
        }
    }

    /// The final status, once settled.
    pub fn status(&self) -> Option<NegotiationStatus> {
        self.status
    }

    /// Rounds this engine concluded because the response deadline fired
    /// before every customer answered (always zero under the
    /// synchronous driver and on a clean network).
    pub fn deadline_forced_rounds(&self) -> u64 {
        self.deadline_forced
    }

    /// True once a [`Effect::Settled`] has been emitted.
    pub fn is_settled(&self) -> bool {
        self.status.is_some()
    }

    /// Feeds one input; resulting effects are queued for
    /// [`UtilityEngine::poll_effect`].
    pub fn handle(&mut self, input: Input) {
        match input {
            Input::Start => self.announce_round(),
            Input::Received {
                from: Peer::Customer(i),
                msg,
            } => self.receive(i, msg),
            Input::Received {
                from: Peer::Utility,
                ..
            } => {}
            Input::TimerFired { token } => self.on_timer(token),
        }
    }

    /// The next pending effect, if any.
    #[inline]
    pub fn poll_effect(&mut self) -> Option<Effect> {
        if let Some(effect) = self.effects.pop_front() {
            return Some(effect);
        }
        let awarding = self.awarding.as_mut()?;
        if let Some(s) = awarding.settlements.get(awarding.next) {
            let i = awarding.next;
            awarding.next += 1;
            return Some(Effect::Send {
                to: Peer::Customer(i),
                msg: Msg::Award {
                    round: awarding.round,
                    cutdown: s.cutdown,
                    reward: s.reward,
                },
            });
        }
        let Awarding {
            status,
            settlements,
            ..
        } = self.awarding.take()?;
        Some(Effect::Settled {
            status,
            settlements,
        })
    }

    fn n(&self) -> usize {
        self.profiles.len()
    }

    /// Queues this round's announcement broadcast (plus the round
    /// deadline).
    ///
    /// The reward-table method shares the negotiator's current table
    /// between the broadcast (see [`Msg::Announce`]) and the round
    /// record, however many customers receive it.
    fn announce_round(&mut self) {
        let round = self.current_round();
        let msg = match &self.state {
            MethodState::RewardTables { negotiator } => Msg::Announce {
                round,
                table: negotiator.shared_table(),
            },
            MethodState::Offer { .. } => Msg::Offer {
                x_max: self.config.offer_x_max,
            },
            MethodState::RequestForBids { .. } => Msg::RequestBids { round },
        };
        self.effects.push_back(Effect::Broadcast { msg });
        self.effects.push_back(Effect::SetTimer {
            token: u64::from(round),
        });
    }

    /// Handles a message from customer `from`: a response to the
    /// current round is recorded (a bid as its grid level), a stale or
    /// off-protocol one is dropped.
    pub(crate) fn receive(&mut self, from: usize, msg: Msg) {
        if self.status.is_some() || from >= self.n() {
            return;
        }
        let current = self.current_round();
        let first = match (&mut self.state, msg) {
            (MethodState::RewardTables { .. }, Msg::Bid { round, cutdown })
            | (MethodState::RequestForBids { .. }, Msg::NeedBid { round, cutdown, .. })
                if round == current =>
            {
                let level = self.levels.level_of_bid(from, cutdown);
                self.levels.record(from, level)
            }
            (MethodState::Offer { accepts }, Msg::OfferReply { accept }) => {
                accepts[from].replace(accept).is_none()
            }
            _ => return, // stale round or off-protocol message
        };
        self.heard(first);
    }

    /// Round `round`'s reward table, handed to every customer by the
    /// synchronous driver: each customer decides on it directly
    /// ([`CustomerEngine::bid_on`]) and its bid, a grid index, goes into
    /// this round's column as its [`Msg::Bid`] would, without the
    /// message; then the round concludes.
    pub(crate) fn exchange_round(
        &mut self,
        round: u32,
        table: &RewardTable,
        customers: &mut [CustomerEngine],
    ) {
        if self.status.is_some()
            || round != self.current_round()
            || customers.len() != self.n()
            || customers.is_empty()
            || !matches!(self.state, MethodState::RewardTables { .. })
        {
            return;
        }
        let columns = &mut self.levels;
        for ((customer, response), &floor) in customers
            .iter_mut()
            .zip(&mut columns.responses)
            .zip(&columns.accepted)
        {
            *response = match customer.bid_on(round, table) {
                Some(level) => (level as u32).max(floor),
                None => floor,
            };
        }
        self.responded = customers.len();
        self.conclude_round();
    }

    /// Counts a response (a customer heard again this round counts once)
    /// and concludes the round once every customer is heard.
    fn heard(&mut self, first: bool) {
        if first {
            self.responded += 1;
        }
        if self.responded == self.n() {
            self.conclude_round();
        }
    }

    fn on_timer(&mut self, token: u64) {
        let round = token as u32;
        if round == self.current_round() && self.concluded_round < round && self.status.is_none() {
            self.deadline_forced += 1;
            self.conclude_round();
        }
    }

    /// Closes the current round with whatever responses arrived (missing
    /// responders keep their last known bid — monotonic concession makes
    /// this safe) and either settles or opens the next round.
    fn conclude_round(&mut self) {
        let round = self.current_round();
        self.concluded_round = round;
        self.rounds_run += 1;
        match &self.state {
            MethodState::RewardTables { .. } => self.conclude_reward_tables(round),
            MethodState::Offer { .. } => self.conclude_offer(),
            MethodState::RequestForBids { .. } => self.conclude_request_for_bids(round),
        }
        self.responded = 0;
    }

    fn push_round(&mut self, record: RoundRecord) {
        self.effects.push_back(Effect::RoundComplete(record));
    }

    /// A round record's bids: `cutdowns`, collected only when the
    /// record keeps them.
    fn round_bids(&self, cutdowns: impl Iterator<Item = Fraction>) -> Vec<Fraction> {
        if self.keep_bids {
            cutdowns.collect()
        } else {
            Vec::new()
        }
    }

    /// Settles: the award messages, polled on demand (see [`Awarding`]),
    /// and then the settled effect.
    fn settle(
        &mut self,
        round: u32,
        status: NegotiationStatus,
        settlements: Vec<Settlement>,
        announce_awards: bool,
    ) {
        self.status = Some(status);
        if announce_awards {
            self.awarding = Some(Awarding {
                round,
                next: 0,
                status,
                settlements,
            });
        } else {
            self.effects.push_back(Effect::Settled {
                status,
                settlements,
            });
        }
    }

    fn conclude_reward_tables(&mut self, round: u32) {
        let n = self.n();
        let MethodState::RewardTables { negotiator } = &mut self.state else {
            unreachable!("reward-table conclusion in reward-table state");
        };
        // The announced table, until the negotiator moves on below; the
        // round record shares it.
        let table = negotiator.shared_table();
        let entries = table.entries();
        let columns = &mut self.levels;
        let (predicted_total, _) = columns.conclude(&self.profiles);
        let overuse = overuse_fraction(predicted_total, self.normal_use);
        // The economic context for the marginal-cost stop rule: the
        // energy still predicted above capacity, and a pricer for the
        // candidate table at the bids customers have already committed
        // to (a floor on its cost — §3.1 bids never retreat).
        let remaining = (predicted_total - self.normal_use).clamp_non_negative();
        let decision =
            negotiator.evaluate_with_outlay(overuse, remaining, |next| columns.outlay(next));
        let settlements = match decision {
            UaDecision::Converged(_) => Some(
                columns
                    .accepted
                    .iter()
                    .map(|&level| {
                        let (cutdown, reward) = entries[level as usize];
                        Settlement { cutdown, reward }
                    })
                    .collect::<Vec<Settlement>>(),
            ),
            UaDecision::NextTable => None,
        };
        let bids = self.round_bids(self.levels.cutdowns());
        self.push_round(RoundRecord {
            round,
            table: Some(table),
            bids,
            predicted_total,
            messages: 2 * n as u64,
        });
        match decision {
            UaDecision::Converged(reason) => {
                // The round budget is a backstop, not a protocol rule:
                // report it as such when the peak is still too high.
                let status = if self.rounds_run >= self.config.max_rounds
                    && overuse > self.config.max_allowed_overuse
                {
                    NegotiationStatus::MaxRoundsExceeded
                } else {
                    NegotiationStatus::Converged(reason)
                };
                self.settle(round, status, settlements.expect("built above"), true);
            }
            UaDecision::NextTable => self.announce_round(),
        }
    }

    fn conclude_offer(&mut self) {
        let MethodState::Offer { accepts } = &self.state else {
            unreachable!("offer conclusion in offer state");
        };
        let x_max = self.config.offer_x_max;
        let tariff = Tariff::default_scheme();
        let n = self.n();
        let mut settlements = Vec::with_capacity(n);
        let mut predicted_total = KilowattHours::ZERO;
        for (accept, &(predicted, allowed)) in accepts.iter().zip(&self.profiles) {
            // A reply lost in transit counts as a decline.
            let (new_use, settlement) =
                offer_outcome(predicted, allowed, x_max, &tariff, accept.unwrap_or(false));
            predicted_total += new_use;
            settlements.push(settlement);
        }
        let bids = self.round_bids(settlements.iter().map(|s| s.cutdown));
        self.push_round(RoundRecord {
            round: 1,
            table: None,
            bids,
            predicted_total,
            messages: 2 * n as u64,
        });
        self.settle(
            1,
            NegotiationStatus::Converged(TerminationReason::SingleRound),
            settlements,
            false,
        );
    }

    fn conclude_request_for_bids(&mut self, round: u32) {
        let n = self.n();
        let (predicted_total, moved) = self.levels.conclude(&self.profiles);
        let overuse = overuse_fraction(predicted_total, self.normal_use);
        let status = if overuse <= self.config.max_allowed_overuse {
            Some(NegotiationStatus::Converged(
                TerminationReason::OveruseAcceptable,
            ))
        } else if !moved && self.responded == n {
            // Unanimous stand-still, with every customer heard from. A
            // missing reply (lost on the network, deadline fired) is
            // indistinguishable from a concession we did not see, so a
            // round with absent responders must not terminate the
            // negotiation; the round budget bounds persistent loss.
            Some(NegotiationStatus::Converged(TerminationReason::NoMovement))
        } else if round >= self.config.max_rounds {
            Some(NegotiationStatus::MaxRoundsExceeded)
        } else {
            None
        };
        let settlements = status.map(|_| {
            let tariff = Tariff::default_scheme();
            self.profiles
                .iter()
                .zip(self.levels.cutdowns())
                .map(|(&(predicted, allowed), cutdown)| {
                    if cutdown == Fraction::ZERO {
                        return Settlement {
                            cutdown,
                            reward: Money::ZERO,
                        };
                    }
                    let y_min = cutdown.complement() * allowed;
                    let committed_use = predicted.min(y_min);
                    let reward = tariff.bill_normal(predicted)
                        - tariff.bill_with_limit(committed_use, y_min);
                    Settlement {
                        cutdown,
                        reward: reward.max(Money::ZERO),
                    }
                })
                .collect::<Vec<Settlement>>()
        });
        let bids = self.round_bids(self.levels.cutdowns());
        self.push_round(RoundRecord {
            round,
            table: None,
            bids,
            predicted_total,
            messages: 2 * n as u64,
        });
        match status {
            Some(status) => {
                self.settle(round, status, settlements.expect("built above"), true);
            }
            None => {
                let MethodState::RequestForBids { round } = &mut self.state else {
                    unreachable!();
                };
                *round += 1;
                self.announce_round();
            }
        }
    }
}

/// The §3.2.1 outcome of one customer's accept/decline on an offer
/// capping cheap-rate consumption at `x_max · allowed_use`: the new
/// predicted use and the settlement (implied cut-down plus billing
/// advantage). Its one caller is the engine's offer conclusion; a
/// §3.2.1 categorized offer reaches it the same way, one
/// [`categorized_offers`](crate::category::categorized_offers) part at
/// a time.
fn offer_outcome(
    predicted: KilowattHours,
    allowed: KilowattHours,
    x_max: Fraction,
    tariff: &Tariff,
    accept: bool,
) -> (KilowattHours, Settlement) {
    if !accept {
        return (
            predicted,
            Settlement {
                cutdown: Fraction::ZERO,
                reward: Money::ZERO,
            },
        );
    }
    let limit = x_max * allowed;
    let new_use = predicted.min(limit);
    // The implied cut-down, as a fraction of predicted use.
    let cutdown = if predicted.value() > f64::EPSILON {
        Fraction::clamped((predicted - new_use) / predicted)
    } else {
        Fraction::ZERO
    };
    // The "reward" is the billing advantage the utility grants.
    let reward = tariff.bill_normal(predicted) - tariff.bill_with_limit(new_use, limit);
    (
        new_use,
        Settlement {
            cutdown,
            reward: reward.max(Money::ZERO),
        },
    )
}

// ---------------------------------------------------------------------
// Customer side
// ---------------------------------------------------------------------

/// One Customer Agent as a sans-io state machine: reacts to
/// announcements, offers and bid requests with the §5.2/§6.2 decision
/// logic, and records its award.
///
/// A 64-byte value that owns no heap buffer: its preferences are a
/// `Copy` [`CustomerPreferences`], its bid is a grid index, and
/// [`CustomerEngine::handle`] returns the (at most one) reply instead of
/// queueing it.
#[derive(Debug, Clone, PartialEq)]
pub struct CustomerEngine {
    preferences: CustomerPreferences,
    predicted_use: KilowattHours,
    allowed_use: KilowattHours,
    awarded: Option<Settlement>,
    /// The newest round answered (0 = none). A duplicated or
    /// reordered-stale announcement or bid request (at-least-once,
    /// out-of-order transport) must re-send the bid, not concede
    /// another step.
    answered: u32,
    /// The grid index of the cut-down bid so far — a reward-table bid
    /// or a request-for-bids commitment, which monotonic concession
    /// (§3.1) never lets a later bid undercut; zero before the first.
    bid: u8,
    /// The grid levels still open to a bid, as
    /// [`CustomerPreferences::open_levels`] gives them for the bid:
    /// kept, so a reward-table round reads them instead of comparing
    /// levels.
    open: u8,
}

impl CustomerEngine {
    /// An engine for customer `index` of `scenario`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn for_customer(scenario: &Scenario, index: usize) -> CustomerEngine {
        let c = &scenario.customers[index];
        CustomerEngine {
            preferences: c.preferences,
            predicted_use: c.predicted_use,
            allowed_use: c.allowed_use,
            awarded: None,
            answered: 0,
            bid: 0,
            // Six grid levels fit in a byte.
            open: c.preferences.open_levels(Fraction::ZERO) as u8,
        }
    }

    /// The settlement awarded at the end, if any arrived.
    pub fn awarded(&self) -> Option<&Settlement> {
        self.awarded.as_ref()
    }

    /// Feeds one input and returns the customer's reply to the Utility
    /// Agent, if the input calls for one. Customers are purely reactive:
    /// only [`Input::Received`] announcements, offers and bid requests
    /// are answered.
    pub fn handle(&mut self, input: Input) -> Option<Msg> {
        let Input::Received { msg, .. } = input else {
            return None;
        };
        self.answer(&msg)
    }

    /// The cut-down bid so far.
    fn cutdown(&self) -> Fraction {
        Fraction::clamped(LEVELS[usize::from(self.bid)])
    }

    /// Whether round `round` is newer than every round answered, which
    /// it then becomes. A duplicated *or reordered-stale* round (`round
    /// ≤` the newest answered) concedes nothing and never regresses the
    /// high-water mark, or a later duplicate of the newest round would
    /// re-concede.
    fn first_answer(&mut self, round: u32) -> bool {
        let first = round > self.answered;
        self.answered = self.answered.max(round);
        first
    }

    /// Bids grid level `k`: only the levels above it stay open.
    fn concede(&mut self, k: usize) {
        self.bid = k as u8;
        self.open &= !((2u32 << k) - 1) as u8;
    }

    /// This customer's answer to round `round`'s reward table (§3.1,
    /// §6.2): the grid index of the cut-down it now bids, the highest
    /// acceptable one, or `None` when none exceeds its bid, which then
    /// stands, or when it has answered this round already.
    pub(crate) fn bid_on(&mut self, round: u32, table: &RewardTable) -> Option<usize> {
        if !self.first_answer(round) {
            return None;
        }
        let k = self.preferences.best_level(table, u32::from(self.open))?;
        self.concede(k);
        Some(k)
    }

    /// Records the settlement an award confirms.
    pub(crate) fn award(&mut self, settlement: Settlement) {
        self.awarded = Some(settlement);
    }

    /// The reply to one message from the Utility Agent, if it calls for
    /// one.
    pub(crate) fn answer(&mut self, msg: &Msg) -> Option<Msg> {
        match *msg {
            Msg::Announce { round, ref table } => {
                // Bid the new level, or the previous bid where it stands.
                self.bid_on(round, table);
                Some(Msg::Bid {
                    round,
                    cutdown: self.cutdown(),
                })
            }
            Msg::Offer { x_max } => Some(Msg::OfferReply {
                accept: decide_offer(
                    &self.preferences,
                    self.predicted_use,
                    self.allowed_use,
                    x_max,
                    &Tariff::default_scheme(),
                ),
            }),
            Msg::RequestBids { round } => {
                if self.first_answer(round) {
                    let next = rfb_step(
                        &self.preferences,
                        self.cutdown(),
                        self.predicted_use,
                        self.allowed_use,
                        &Tariff::default_scheme(),
                    );
                    // A step lands on a grid level.
                    if let Some(k) = grid_index(next) {
                        self.concede(k);
                    }
                }
                let cutdown = self.cutdown();
                Some(Msg::NeedBid {
                    round,
                    y_min: y_min_for(cutdown, self.allowed_use),
                    cutdown,
                })
            }
            Msg::Award {
                cutdown, reward, ..
            } => {
                self.award(Settlement { cutdown, reward });
                None
            }
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Shared report assembly
// ---------------------------------------------------------------------

/// Folds the observation effects of a [`UtilityEngine`] into the
/// [`NegotiationReport`](crate::session::NegotiationReport) every driver
/// returns — the tier-aware sink of the reporting subsystem.
///
/// Drivers pass each polled effect through [`ReportAssembler::observe`],
/// which **consumes** the observation effects (round records and
/// settlements move straight into the report — they are never cloned)
/// and hands the transport effects back for the driver to perform.
/// Call [`ReportAssembler::finish`] once the engine settles.
///
/// The assembler enforces the
/// [`ReportTier`](crate::session::ReportTier) *at the source*: every
/// observation is folded into the running
/// [`RoundDigest`](crate::session::RoundDigest), but a round record is
/// only *stored* at [`ReportTier::FullTrace`] and settlements only at
/// [`ReportTier::Settlement`] or above — below those tiers the payloads
/// are dropped on the spot, so a `Settlement`-tier season never
/// accumulates per-round storage at all (pinned by the `report_tiers`
/// bench experiment's allocation guard).
///
/// [`ReportTier`]: crate::session::ReportTier
/// [`ReportTier::FullTrace`]: crate::session::ReportTier::FullTrace
/// [`ReportTier::Settlement`]: crate::session::ReportTier::Settlement
#[derive(Debug, Clone)]
pub struct ReportAssembler {
    method: AnnouncementMethod,
    normal_use: KilowattHours,
    initial_total: KilowattHours,
    tier: crate::session::ReportTier,
    digest: crate::session::RoundDigest,
    rounds: Vec<RoundRecord>,
    outcome: Option<(NegotiationStatus, Vec<Settlement>)>,
    award_messages: u64,
}

impl ReportAssembler {
    /// An assembler for the given engine retaining only what `tier`
    /// keeps.
    pub fn for_engine_at(
        engine: &UtilityEngine,
        tier: crate::session::ReportTier,
    ) -> ReportAssembler {
        let initial_total = engine.initial_total();
        ReportAssembler {
            method: engine.method(),
            normal_use: engine.normal_use(),
            initial_total,
            tier,
            digest: crate::session::RoundDigest::starting_at(initial_total),
            rounds: Vec::new(),
            outcome: None,
            award_messages: 0,
        }
    }

    /// Records what an effect means for the report (awards count as the
    /// extra confirmation messages of §3.2.3).
    ///
    /// Observation effects ([`Effect::RoundComplete`],
    /// [`Effect::Settled`]) are consumed — their payloads are folded
    /// into the digest, then moved into the report under construction
    /// or dropped, as the tier dictates. Transport effects come back
    /// out for the driver to perform.
    #[inline]
    pub fn observe(&mut self, effect: Effect) -> Option<Effect> {
        match effect {
            Effect::RoundComplete(record) => {
                self.digest.observe_round(&record);
                if self.tier.keeps_rounds() {
                    self.rounds.push(record);
                }
                None
            }
            Effect::Settled {
                status,
                settlements,
            } => {
                self.digest.observe_settlements(&settlements);
                let settlements = if self.tier.keeps_settlements() {
                    settlements
                } else {
                    Vec::new()
                };
                self.outcome = Some((status, settlements));
                None
            }
            effect => {
                if let Effect::Send {
                    msg: Msg::Award { .. },
                    ..
                } = &effect
                {
                    self.award_messages += 1;
                }
                Some(effect)
            }
        }
    }

    /// Builds the report. An unsettled engine (e.g. a driver stopping a
    /// simulation early) reports [`NegotiationStatus::MaxRoundsExceeded`]
    /// with empty settlements.
    pub fn finish(self) -> crate::session::NegotiationReport {
        let (status, settlements) = self
            .outcome
            .unwrap_or((NegotiationStatus::MaxRoundsExceeded, Vec::new()));
        crate::session::NegotiationReport::from_parts(
            self.method,
            self.normal_use,
            self.initial_total,
            self.tier,
            self.digest,
            self.rounds,
            status,
            settlements,
            self.award_messages,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ScenarioBuilder;
    use std::sync::Arc;

    #[test]
    fn utility_engine_starts_by_announcing_to_everyone() {
        // One broadcast reaches all 20 customers: the round's
        // announcement is a single effect, not one send per customer.
        let scenario = ScenarioBuilder::paper_figure_6().build();
        let mut ua = UtilityEngine::new(&scenario);
        ua.handle(Input::Start);
        let mut broadcasts = 0;
        let mut timers = 0;
        while let Some(e) = ua.poll_effect() {
            match e {
                Effect::Broadcast {
                    msg: Msg::Announce { round: 1, .. },
                } => {
                    broadcasts += 1;
                }
                Effect::SetTimer { token: 1 } => timers += 1,
                other => panic!("unexpected effect {other:?}"),
            }
        }
        assert_eq!(broadcasts, 1);
        assert_eq!(timers, 1);
    }

    #[test]
    fn customer_engine_bids_from_the_announced_table() {
        let scenario = ScenarioBuilder::paper_figure_6().build();
        let table = Arc::new(scenario.config.initial_table(scenario.interval));
        let mut ca = CustomerEngine::for_customer(&scenario, 0);
        let reply = ca.handle(Input::Received {
            from: Peer::Utility,
            msg: Msg::Announce { round: 1, table },
        });
        let Some(Msg::Bid { round: 1, cutdown }) = reply else {
            panic!("expected a bid, got {reply:?}");
        };
        // The Figure 8/9 customer opens at 0.2.
        assert_eq!(cutdown, Fraction::clamped(0.2));
        // Awards are not answered.
        let award = Msg::Award {
            round: 1,
            cutdown,
            reward: Money(4.0),
        };
        assert_eq!(
            ca.handle(Input::Received {
                from: Peer::Utility,
                msg: award,
            }),
            None
        );
    }

    #[test]
    fn customer_engine_bids_rise_monotonically() {
        // The Figure 8/9 customer under tables the §6 logistic update
        // raises (quadratic extrapolation would overpay the 0.5 level).
        let scenario = ScenarioBuilder::paper_figure_6().build();
        let mut ca = CustomerEngine::for_customer(&scenario, 0);
        let t1 = scenario.config.initial_table(scenario.interval);
        let t2 = t1.updated(&scenario.config.formula, 0.323, 2.0);
        let t3 = t2.updated(&scenario.config.formula, 0.242, 2.0);
        assert_eq!(ca.bid_on(1, &t1), Some(2), "the 0.2 level");
        assert_eq!(ca.bid_on(2, &t2), Some(4), "reward(0.4) ≈ 21.76 ≥ 21");
        assert_eq!(ca.bid_on(3, &t3), None, "0.4 stands");
        assert_eq!(ca.cutdown(), Fraction::clamped(0.4));
    }

    #[test]
    fn duplicated_announcements_are_idempotent() {
        let scenario = ScenarioBuilder::paper_figure_6().build();
        let table = Arc::new(scenario.config.initial_table(scenario.interval));
        let mut ca = CustomerEngine::for_customer(&scenario, 0);
        let replies: Vec<Option<Msg>> = (0..3)
            .map(|_| {
                ca.handle(Input::Received {
                    from: Peer::Utility,
                    msg: Msg::Announce {
                        round: 1,
                        table: Arc::clone(&table),
                    },
                })
            })
            .collect();
        // Three replies, all identical, from a single concession:
        // round 1 stays answered.
        let bid = Some(Msg::Bid {
            round: 1,
            cutdown: Fraction::clamped(0.2),
        });
        assert_eq!(replies, vec![bid; 3]);
        assert_eq!(ca.bid_on(1, &table), None);
    }

    #[test]
    fn duplicated_bid_requests_do_not_double_concede() {
        let scenario = ScenarioBuilder::random(6, 0.35, 3)
            .method(AnnouncementMethod::RequestForBids)
            .build();
        let mut ca = CustomerEngine::for_customer(&scenario, 0);
        let reply = |ca: &mut CustomerEngine, round: u32| {
            let Some(Msg::NeedBid { cutdown, .. }) = ca.handle(Input::Received {
                from: Peer::Utility,
                msg: Msg::RequestBids { round },
            }) else {
                panic!("expected a NeedBid reply");
            };
            cutdown
        };
        let first = reply(&mut ca, 1);
        let duplicate = reply(&mut ca, 1);
        assert_eq!(
            first, duplicate,
            "a duplicated round-1 request must not advance the concession"
        );
        // The next *round* still concedes as usual.
        let cutdown = reply(&mut ca, 2);
        assert!(cutdown >= first, "monotonic concession across rounds");
    }

    #[test]
    fn reordered_stale_requests_do_not_concede_or_regress_the_guard() {
        // A reordered network can deliver an *old* round's message after
        // a newer round was already answered. The customer must neither
        // concede on the stale message nor let it regress the
        // duplicate guard (or a later copy of the newest round would
        // re-concede).
        let scenario = ScenarioBuilder::random(6, 0.35, 3)
            .method(AnnouncementMethod::RequestForBids)
            .build();
        let mut ca = CustomerEngine::for_customer(&scenario, 0);
        let reply = |ca: &mut CustomerEngine, round: u32| {
            let Some(Msg::NeedBid { cutdown, .. }) = ca.handle(Input::Received {
                from: Peer::Utility,
                msg: Msg::RequestBids { round },
            }) else {
                panic!("expected a NeedBid reply");
            };
            cutdown
        };
        let r1 = reply(&mut ca, 1);
        let r2 = reply(&mut ca, 2);
        // Held-back copy of round 1 arrives late: idempotent reply,
        // commitment untouched.
        let stale = reply(&mut ca, 1);
        assert_eq!(stale, r2, "stale request must re-send the commitment");
        // And a duplicate of round 2 afterwards is still idempotent.
        let dup2 = reply(&mut ca, 2);
        assert_eq!(dup2, r2, "guard must not regress to the stale round");
        let _ = r1;

        // Same for reward-table announcements.
        let rt = ScenarioBuilder::paper_figure_6().build();
        let table = Arc::new(rt.config.initial_table(rt.interval));
        let mut ca = CustomerEngine::for_customer(&rt, 0);
        let announce = |ca: &mut CustomerEngine, round: u32| {
            let Some(Msg::Bid { cutdown, .. }) = ca.handle(Input::Received {
                from: Peer::Utility,
                msg: Msg::Announce {
                    round,
                    table: Arc::clone(&table),
                },
            }) else {
                panic!("expected a bid");
            };
            cutdown
        };
        let b1 = announce(&mut ca, 1);
        let b2 = announce(&mut ca, 2);
        let stale = announce(&mut ca, 1);
        assert_eq!(stale, b2, "stale announcement re-sends the current bid");
        assert_eq!(ca.answered, 2, "no concession on stale rounds");
        let dup = announce(&mut ca, 2);
        assert_eq!(dup, b2);
        assert_eq!(ca.answered, 2);
        let _ = b1;
    }

    #[test]
    fn duplicated_bids_at_the_utility_are_idempotent() {
        let scenario = ScenarioBuilder::random(4, 0.35, 1).build();
        let mut ua = UtilityEngine::new(&scenario);
        ua.handle(Input::Start);
        while ua.poll_effect().is_some() {}
        // Customer 0's bid arrives three times (retransmitting network);
        // the round must conclude only once all four *distinct* customers
        // are heard, and with the same bids a single delivery produces.
        for _ in 0..3 {
            ua.handle(Input::Received {
                from: Peer::Customer(0),
                msg: Msg::Bid {
                    round: 1,
                    cutdown: Fraction::clamped(0.2),
                },
            });
        }
        assert!(
            std::iter::from_fn(|| ua.poll_effect()).all(|e| !matches!(e, Effect::RoundComplete(_))),
            "duplicates of one customer must not conclude the round"
        );
        for i in 1..4 {
            ua.handle(Input::Received {
                from: Peer::Customer(i),
                msg: Msg::Bid {
                    round: 1,
                    cutdown: Fraction::ZERO,
                },
            });
        }
        let mut rounds = 0;
        let mut first_bid = None;
        while let Some(e) = ua.poll_effect() {
            if let Effect::RoundComplete(r) = e {
                rounds += 1;
                first_bid = Some(r.bids[0]);
            }
        }
        assert_eq!(rounds, 1, "exactly one conclusion despite duplicates");
        assert_eq!(first_bid, Some(Fraction::clamped(0.2)));
    }

    #[test]
    fn off_table_bids_are_rejected_to_zero() {
        // Bid assessment, in both methods whose customers bid grid
        // levels: a cut-down off the grid, which no table lists, counts
        // as no cut-down at all in round 1 and leaves a customer's floor
        // in place later, so it can never make a bid retreat (§3.1).
        for method in [
            AnnouncementMethod::RewardTables,
            AnnouncementMethod::RequestForBids,
        ] {
            let scenario = ScenarioBuilder::random(3, 0.35, 1).method(method).build();
            let mut ua = UtilityEngine::new(&scenario);
            ua.handle(Input::Start);
            let mut bid_round = |round, cutdowns: [f64; 3]| {
                for (i, cutdown) in cutdowns.map(Fraction::clamped).into_iter().enumerate() {
                    let msg = match method {
                        AnnouncementMethod::RewardTables => Msg::Bid { round, cutdown },
                        _ => Msg::NeedBid {
                            round,
                            y_min: KilowattHours::ZERO,
                            cutdown,
                        },
                    };
                    ua.receive(i, msg);
                }
                std::iter::from_fn(|| ua.poll_effect())
                    .find_map(|e| match e {
                        Effect::RoundComplete(r) => Some(r),
                        _ => None,
                    })
                    .expect("every customer answered the round")
            };
            let rounds = [
                bid_round(1, [0.3, 0.15, 0.0]),
                bid_round(2, [0.35, 0.15, 0.2]),
            ];
            assert_eq!(rounds[0].bids, [0.3, 0.0, 0.0].map(Fraction::clamped));
            assert_eq!(rounds[1].bids, [0.3, 0.0, 0.2].map(Fraction::clamped));
            assert_eq!(crate::concession::verify_bids(&rounds), Ok(()), "{method}");
        }
    }

    #[test]
    fn stale_bids_are_ignored() {
        let scenario = ScenarioBuilder::paper_figure_6().build();
        let mut ua = UtilityEngine::new(&scenario);
        ua.handle(Input::Start);
        while ua.poll_effect().is_some() {}
        ua.handle(Input::Received {
            from: Peer::Customer(0),
            msg: Msg::Bid {
                round: 7,
                cutdown: Fraction::clamped(0.4),
            },
        });
        assert!(
            ua.poll_effect().is_none(),
            "bid for a future round must be dropped"
        );
        assert_eq!(ua.current_round(), 1);
    }

    /// Drives `ua` to settlement with `scenario`'s own customers, every
    /// message delivered in order, and returns its round records.
    fn round_records(scenario: &Scenario, ua: &mut UtilityEngine) -> Vec<RoundRecord> {
        let mut customers: Vec<CustomerEngine> = (0..scenario.customers.len())
            .map(|i| CustomerEngine::for_customer(scenario, i))
            .collect();
        let mut rounds = Vec::new();
        ua.handle(Input::Start);
        while let Some(effect) = ua.poll_effect() {
            match effect {
                Effect::RoundComplete(record) => rounds.push(record),
                Effect::Broadcast { msg } => {
                    for (i, customer) in customers.iter_mut().enumerate() {
                        if let Some(reply) = customer.answer(&msg) {
                            ua.receive(i, reply);
                        }
                    }
                }
                _ => {}
            }
        }
        assert!(ua.is_settled());
        rounds
    }

    #[test]
    fn an_engine_not_keeping_bids_records_the_same_rounds_without_them() {
        for method in AnnouncementMethod::all() {
            let scenario = ScenarioBuilder::random(12, 0.35, 3).method(method).build();
            let kept = round_records(&scenario, &mut UtilityEngine::new(&scenario));
            let mut ua = UtilityEngine::new(&scenario);
            ua.keep_bids(false);
            let skipped = round_records(&scenario, &mut ua);
            assert_eq!(kept.len(), skipped.len(), "{method}");
            for (k, s) in kept.iter().zip(&skipped) {
                assert_eq!(k.bids.len(), scenario.customers.len(), "{method}");
                assert_eq!(
                    *s,
                    RoundRecord {
                        bids: Vec::new(),
                        ..k.clone()
                    },
                    "{method}"
                );
            }
            // A reset engine keeps the bids again, as a new one does.
            ua.reset(&scenario);
            assert_eq!(round_records(&scenario, &mut ua), kept, "{method}");
        }
    }

    #[test]
    fn timer_concludes_a_round_with_missing_bids() {
        let scenario = ScenarioBuilder::random(4, 0.35, 1).build();
        let mut ua = UtilityEngine::new(&scenario);
        ua.handle(Input::Start);
        while ua.poll_effect().is_some() {}
        // Only customer 0 answers; the deadline closes the round anyway.
        ua.handle(Input::Received {
            from: Peer::Customer(0),
            msg: Msg::Bid {
                round: 1,
                cutdown: Fraction::clamped(0.2),
            },
        });
        ua.handle(Input::TimerFired { token: 1 });
        let mut saw_round = None;
        while let Some(e) = ua.poll_effect() {
            if let Effect::RoundComplete(r) = e {
                saw_round = Some(r);
            }
        }
        let r = saw_round.expect("round concluded on deadline");
        assert_eq!(r.round, 1);
        assert_eq!(r.bids[0], Fraction::clamped(0.2));
        // Missing responders keep their previous (zero) bid.
        assert!(r.bids[1..].iter().all(|&b| b == Fraction::ZERO));
        // A late timer for the same round is a no-op.
        ua.handle(Input::TimerFired { token: 1 });
        let leftover: Vec<Effect> = std::iter::from_fn(|| ua.poll_effect()).collect();
        assert!(
            leftover
                .iter()
                .all(|e| !matches!(e, Effect::RoundComplete(_))),
            "duplicate deadline must not re-conclude: {leftover:?}"
        );
    }

    #[test]
    fn rfb_round_with_no_responses_is_not_stand_still() {
        // Every reply of a round lost on the network: the deadline fires
        // with an empty inbox. That must open the next round, not
        // terminate as Converged(NoMovement).
        let scenario = ScenarioBuilder::random(5, 0.35, 2)
            .method(AnnouncementMethod::RequestForBids)
            .build();
        let mut ua = UtilityEngine::new(&scenario);
        ua.handle(Input::Start);
        while ua.poll_effect().is_some() {}
        ua.handle(Input::TimerFired { token: 1 });
        assert!(
            !ua.is_settled(),
            "an all-lost round must not settle the negotiation"
        );
        assert_eq!(ua.current_round(), 2, "the next round opens instead");
        let mut requested = 0;
        while let Some(e) = ua.poll_effect() {
            if let Effect::Broadcast {
                msg: Msg::RequestBids { round: 2 },
            } = e
            {
                requested += 1;
            }
        }
        assert_eq!(
            requested, 1,
            "round 2 re-requests bids from everyone in one broadcast"
        );
        // A partial round — one stand-still reply, four lost — is not
        // unanimity either: the lost replies may have been concessions.
        ua.handle(Input::Received {
            from: Peer::Customer(0),
            msg: Msg::NeedBid {
                round: 2,
                y_min: KilowattHours(1.0),
                cutdown: Fraction::ZERO,
            },
        });
        ua.handle(Input::TimerFired { token: 2 });
        assert!(
            !ua.is_settled(),
            "a partially-heard stand-still round must not settle as NoMovement"
        );
        // Whereas a round where everyone replied with their old bid IS
        // unanimous stand-still (here: nobody has conceded past zero
        // because nobody was asked anything they would accept — use a
        // fresh engine whose customers all reply with cutdown zero).
        let mut ua2 = UtilityEngine::new(&scenario);
        ua2.handle(Input::Start);
        while ua2.poll_effect().is_some() {}
        for i in 0..5 {
            ua2.handle(Input::Received {
                from: Peer::Customer(i),
                msg: Msg::NeedBid {
                    round: 1,
                    y_min: KilowattHours(1.0),
                    cutdown: Fraction::ZERO,
                },
            });
        }
        assert!(
            ua2.is_settled(),
            "unanimous stand-still with replies settles"
        );
        assert_eq!(
            ua2.status(),
            Some(NegotiationStatus::Converged(TerminationReason::NoMovement))
        );
    }

    #[test]
    fn offer_engine_settles_in_one_round_without_awards() {
        let scenario = ScenarioBuilder::paper_figure_6()
            .method(AnnouncementMethod::Offer)
            .build();
        let mut ua = UtilityEngine::new(&scenario);
        let mut assembler =
            ReportAssembler::for_engine_at(&ua, crate::session::ReportTier::FullTrace);
        ua.handle(Input::Start);
        let mut offers = 0;
        while let Some(e) = ua.poll_effect() {
            match assembler.observe(e) {
                Some(Effect::Broadcast {
                    msg: Msg::Offer { .. },
                }) => offers += 1,
                Some(Effect::SetTimer { .. }) => {}
                other => panic!("unexpected effect {other:?}"),
            }
        }
        assert_eq!(offers, 1, "one broadcast offers every customer");
        for i in 0..20 {
            ua.handle(Input::Received {
                from: Peer::Customer(i),
                msg: Msg::OfferReply { accept: false },
            });
        }
        while let Some(e) = ua.poll_effect() {
            let _ = assembler.observe(e);
        }
        let report = assembler.finish();
        assert_eq!(report.rounds().len(), 1);
        assert_eq!(
            report.total_messages(),
            40,
            "no award confirmations for the offer method"
        );
        assert!(report.converged());
    }
}
