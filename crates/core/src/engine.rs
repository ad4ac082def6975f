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
//! "send", a "broadcast" or a "timer" physically means. The effects are
//! only the wire: the engine reports its own negotiation, and a driver
//! ends by taking the report with [`UtilityEngine::take_report`].
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
//!   decision). A customer answers each message with at most one,
//!   so [`CustomerEngine::answer`] simply *returns* its reply to the
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
//! All three take their
//! [`NegotiationReport`] from the engine they drive, so outcomes agree
//! *by construction* — the property `tests/cross_mode.rs` checks over
//! random scenarios.

use crate::concession::{NegotiationStatus, TerminationReason};
use crate::customer_agent::{decide_offer, rfb_step, y_min_for};
use crate::message::Msg;
use crate::methods::AnnouncementMethod;
use crate::preferences::CustomerPreferences;
use crate::reward::{
    grid_index, overuse_fraction, predicted_use_with_cutdown, RewardTable, LEVELS,
};
use crate::session::{
    NegotiationReport, ReportTier, RoundDigest, RoundRecord, Scenario, Settlement,
};
use crate::utility_agent::{RewardTableNegotiator, UaDecision, UtilityAgentConfig};
use powergrid::tariff::Tariff;
use powergrid::units::{Fraction, KilowattHours, Money};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

/// Everything the outside world can tell a [`UtilityEngine`]. A
/// [`CustomerEngine`] is purely reactive: it only hears the Utility
/// Agent's messages, which it [answers](CustomerEngine::answer).
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    /// Begin the negotiation.
    Start,
    /// A protocol message arrived from customer `from`.
    Received {
        /// The sender's customer index, in scenario order.
        from: usize,
        /// The message.
        msg: Msg,
    },
    /// A timer set through [`Effect::SetTimer`] fired.
    TimerFired {
        /// The token the timer was set with.
        token: u64,
    },
}

/// Everything the [`UtilityEngine`] can ask the outside world to do:
/// only the wire, which the driver performs. What the negotiation
/// concludes goes into the engine's own report
/// ([`UtilityEngine::take_report`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Deliver `msg` to customer `to` alone — the engine addresses one
    /// customer only to award it.
    Send {
        /// The recipient's customer index, in scenario order.
        to: usize,
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
/// driver. It reports its own negotiation at the [`ReportTier`] it is
/// reset with: each concluded round folds into the report's
/// [`RoundDigest`], a [`RoundRecord`] is built only when the tier keeps
/// rounds, and a driver ends with [`UtilityEngine::take_report`]. A
/// finished engine can be [`UtilityEngine::reset`] onto the next
/// scenario, reusing its internal buffers — what the
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
    concluded_round: u32,
    /// Rounds concluded by the response deadline firing rather than by
    /// every customer answering — always zero under the synchronous
    /// driver (where timers never fire) and on a clean network; the
    /// resilience layer reads it as a degradation signal.
    deadline_forced: u64,
    status: Option<NegotiationStatus>,
    effects: VecDeque<Effect>,
    /// What the report retains.
    tier: ReportTier,
    /// The report's scalars, folded as rounds conclude and the
    /// negotiation settles.
    digest: RoundDigest,
    /// The report's round records, built only when the tier keeps
    /// rounds.
    rounds: Vec<RoundRecord>,
    /// The settlements once settled: the awards read them, and the
    /// report keeps them when the tier does.
    settlements: Vec<Settlement>,
    /// The customers whose awards are still to be polled. A settlement
    /// of an iterated method awards every customer, so the awards are
    /// made on demand from the settlements instead of queued; the
    /// range's end counts them.
    awards: Range<usize>,
}

impl Default for UtilityEngine {
    /// An engine with no customers, to be
    /// [reset](UtilityEngine::reset) onto a scenario.
    fn default() -> UtilityEngine {
        UtilityEngine {
            method: AnnouncementMethod::RequestForBids,
            config: UtilityAgentConfig::default(),
            profiles: Vec::new(),
            normal_use: KilowattHours::ZERO,
            initial_total: KilowattHours::ZERO,
            state: MethodState::RequestForBids { round: 1 },
            responded: 0,
            levels: LevelColumns::default(),
            concluded_round: 0,
            deadline_forced: 0,
            status: None,
            effects: VecDeque::new(),
            tier: ReportTier::FullTrace,
            digest: RoundDigest::starting_at(KilowattHours::ZERO),
            rounds: Vec::new(),
            settlements: Vec::new(),
            awards: 0..0,
        }
    }
}

impl UtilityEngine {
    /// An engine for `scenario`'s configured method, reporting at
    /// [`ReportTier::FullTrace`]: an engine with no customers,
    /// [reset](UtilityEngine::reset) onto the scenario.
    pub fn new(scenario: &Scenario) -> UtilityEngine {
        let mut engine = UtilityEngine::default();
        engine.reset(scenario, ReportTier::FullTrace);
        engine
    }

    /// Re-aims the engine at a fresh scenario, reporting at `tier`, and
    /// reuses every internal buffer (profiles, level columns, effect
    /// queue) — behaviourally identical to
    /// [`UtilityEngine::new(scenario)`](UtilityEngine::new) at
    /// [`ReportTier::FullTrace`], without the per-negotiation
    /// allocations.
    pub fn reset(&mut self, scenario: &Scenario, tier: ReportTier) {
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
        self.responded = 0;
        self.concluded_round = 0;
        self.deadline_forced = 0;
        self.status = None;
        self.effects.clear();
        self.tier = tier;
        self.digest = RoundDigest::starting_at(self.initial_total);
        // A report's vectors are its own: they start unallocated, never
        // with an earlier report's capacity.
        self.rounds = Vec::new();
        self.settlements = Vec::new();
        self.awards = 0..0;
    }

    /// The negotiation's report at the tier the engine was reset with.
    /// It moves the round records and settlements out, so take it once,
    /// after the engine settles and its effects are drained; an
    /// unsettled engine (a driver stopping a simulation early) reports
    /// [`NegotiationStatus::MaxRoundsExceeded`] with no settlements.
    pub fn take_report(&mut self) -> NegotiationReport {
        let settlements = std::mem::take(&mut self.settlements);
        NegotiationReport::from_parts(
            self.method,
            self.normal_use,
            self.initial_total,
            self.tier,
            self.digest,
            std::mem::take(&mut self.rounds),
            self.status.unwrap_or(NegotiationStatus::MaxRoundsExceeded),
            if self.tier.keeps_settlements() {
                settlements
            } else {
                Vec::new()
            },
            self.awards.end as u64,
        )
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

    /// True once the negotiation has settled.
    pub fn is_settled(&self) -> bool {
        self.status.is_some()
    }

    /// Feeds one input; resulting effects are queued for
    /// [`UtilityEngine::poll_effect`].
    pub fn handle(&mut self, input: Input) {
        match input {
            Input::Start => self.announce_round(),
            Input::Received { from, msg } => self.receive(from, msg),
            Input::TimerFired { token } => self.on_timer(token),
        }
    }

    /// The next pending effect, if any: the queued ones, and then each
    /// customer's award once every earlier effect is out.
    #[inline]
    pub fn poll_effect(&mut self) -> Option<Effect> {
        if let Some(effect) = self.effects.pop_front() {
            return Some(effect);
        }
        let to = self.awards.next()?;
        let Settlement { cutdown, reward } = *self.settlements.get(to)?;
        Some(Effect::Send {
            to,
            msg: Msg::Award {
                round: self.concluded_round,
                cutdown,
                reward,
            },
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
        match &self.state {
            MethodState::RewardTables { .. } => self.conclude_reward_tables(round),
            MethodState::Offer { .. } => self.conclude_offer(),
            MethodState::RequestForBids { .. } => self.conclude_request_for_bids(round),
        }
        self.responded = 0;
    }

    /// Folds concluded round `round` into the report: into the digest
    /// always, and as a round record, with `table` and the bids `bids`
    /// reads, only when the tier keeps rounds.
    fn report_round(
        &mut self,
        round: u32,
        table: Option<Arc<RewardTable>>,
        predicted_total: KilowattHours,
        bids: impl FnOnce(&LevelColumns) -> Vec<Fraction>,
    ) {
        let messages = 2 * self.n() as u64;
        self.digest.observe_round(messages, predicted_total);
        if self.tier.keeps_rounds() {
            self.rounds.push(RoundRecord {
                round,
                table,
                bids: bids(&self.levels),
                predicted_total,
                messages,
            });
        }
    }

    /// Settles with `settlements`, folding them into the digest; an
    /// iterated method then awards every customer
    /// ([`UtilityEngine::poll_effect`]).
    fn settle(&mut self, status: NegotiationStatus, settlements: Vec<Settlement>, award: bool) {
        self.status = Some(status);
        self.digest.observe_settlements(&settlements);
        if award {
            self.awards = 0..settlements.len();
        }
        self.settlements = settlements;
    }

    fn conclude_reward_tables(&mut self, round: u32) {
        let MethodState::RewardTables { negotiator } = &mut self.state else {
            unreachable!("reward-table conclusion in reward-table state");
        };
        // The announced table, until the negotiator moves on below; the
        // round record shares it.
        let table = negotiator.shared_table();
        let columns = &mut self.levels;
        let (predicted_total, _) = columns.conclude(&self.profiles);
        let overuse = overuse_fraction(predicted_total, self.normal_use);
        // The economic context for the marginal-cost stop rule: the
        // energy still predicted above capacity, and a pricer for the
        // candidate table at the bids customers have already committed
        // to (a floor on its cost — §3.1 bids never retreat).
        let remaining = (predicted_total - self.normal_use).clamp_non_negative();
        match negotiator.evaluate_with_outlay(overuse, remaining, |next| columns.outlay(next)) {
            UaDecision::Converged(reason) => {
                let entries = table.entries();
                let settlements = columns
                    .accepted
                    .iter()
                    .map(|&level| {
                        let (cutdown, reward) = entries[level as usize];
                        Settlement { cutdown, reward }
                    })
                    .collect();
                // The round budget is a backstop, not a protocol rule:
                // report it as such when the peak is still too high.
                let status = if round >= self.config.max_rounds
                    && overuse > self.config.max_allowed_overuse
                {
                    NegotiationStatus::MaxRoundsExceeded
                } else {
                    NegotiationStatus::Converged(reason)
                };
                self.settle(status, settlements, true);
            }
            UaDecision::NextTable => self.announce_round(),
        }
        self.report_round(round, Some(table), predicted_total, |levels| {
            levels.cutdowns().collect()
        });
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
        self.report_round(1, None, predicted_total, |_| {
            settlements.iter().map(|s| s.cutdown).collect()
        });
        self.settle(
            NegotiationStatus::Converged(TerminationReason::SingleRound),
            settlements,
            false,
        );
    }

    fn conclude_request_for_bids(&mut self, round: u32) {
        let (predicted_total, moved) = self.levels.conclude(&self.profiles);
        let overuse = overuse_fraction(predicted_total, self.normal_use);
        let status = if overuse <= self.config.max_allowed_overuse {
            Some(NegotiationStatus::Converged(
                TerminationReason::OveruseAcceptable,
            ))
        } else if !moved && self.responded == self.n() {
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
        self.report_round(round, None, predicted_total, |levels| {
            levels.cutdowns().collect()
        });
        match status {
            Some(status) => {
                let tariff = Tariff::default_scheme();
                let settlements = self
                    .profiles
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
                    .collect();
                self.settle(status, settlements, true);
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
/// [`CustomerEngine::answer`] returns the (at most one) reply instead of
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

    /// This customer's reply to one message from the Utility Agent, if
    /// it calls for one: a bid to an announcement or a bid request, and
    /// a yes or no to an offer. An award is recorded, not answered.
    pub fn answer(&mut self, msg: &Msg) -> Option<Msg> {
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
                self.awarded = Some(Settlement { cutdown, reward });
                None
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ScenarioBuilder;

    #[test]
    fn effects_carry_only_the_wire() {
        // Every announcement and timer passes through the effect queue;
        // an observation payload put back on it would grow every effect.
        assert!(std::mem::size_of::<Effect>() <= 32);
    }

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
        let reply = ca.answer(&Msg::Announce { round: 1, table });
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
        assert_eq!(ca.answer(&award), None);
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
        let announce = Msg::Announce {
            round: 1,
            table: Arc::clone(&table),
        };
        let replies: Vec<Option<Msg>> = (0..3).map(|_| ca.answer(&announce)).collect();
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
            let Some(Msg::NeedBid { cutdown, .. }) = ca.answer(&Msg::RequestBids { round }) else {
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
            let Some(Msg::NeedBid { cutdown, .. }) = ca.answer(&Msg::RequestBids { round }) else {
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
            let Some(Msg::Bid { cutdown, .. }) = ca.answer(&Msg::Announce {
                round,
                table: Arc::clone(&table),
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
                from: 0,
                msg: Msg::Bid {
                    round: 1,
                    cutdown: Fraction::clamped(0.2),
                },
            });
        }
        assert!(
            ua.clone().take_report().rounds().is_empty(),
            "duplicates of one customer must not conclude the round"
        );
        for i in 1..4 {
            ua.handle(Input::Received {
                from: i,
                msg: Msg::Bid {
                    round: 1,
                    cutdown: Fraction::ZERO,
                },
            });
        }
        let report = ua.take_report();
        assert_eq!(
            report.rounds().len(),
            1,
            "exactly one conclusion despite duplicates"
        );
        assert_eq!(report.rounds()[0].bids[0], Fraction::clamped(0.2));
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
            };
            bid_round(1, [0.3, 0.15, 0.0]);
            bid_round(2, [0.35, 0.15, 0.2]);
            let report = ua.take_report();
            let rounds = report.rounds();
            assert_eq!(rounds.len(), 2, "every customer answered both rounds");
            assert_eq!(rounds[0].bids, [0.3, 0.0, 0.0].map(Fraction::clamped));
            assert_eq!(rounds[1].bids, [0.3, 0.0, 0.2].map(Fraction::clamped));
            assert_eq!(crate::concession::verify_bids(rounds), Ok(()), "{method}");
        }
    }

    #[test]
    fn stale_bids_are_ignored() {
        let scenario = ScenarioBuilder::paper_figure_6().build();
        let mut ua = UtilityEngine::new(&scenario);
        ua.handle(Input::Start);
        while ua.poll_effect().is_some() {}
        ua.handle(Input::Received {
            from: 0,
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
    /// message delivered in order, and takes its report.
    fn drive(scenario: &Scenario, ua: &mut UtilityEngine) -> NegotiationReport {
        let mut customers: Vec<CustomerEngine> = (0..scenario.customers.len())
            .map(|i| CustomerEngine::for_customer(scenario, i))
            .collect();
        ua.handle(Input::Start);
        while let Some(effect) = ua.poll_effect() {
            match effect {
                Effect::Broadcast { msg } => {
                    for (i, customer) in customers.iter_mut().enumerate() {
                        if let Some(reply) = customer.answer(&msg) {
                            ua.receive(i, reply);
                        }
                    }
                }
                Effect::Send { to, msg } => assert_eq!(customers[to].answer(&msg), None),
                Effect::SetTimer { .. } => {}
            }
        }
        assert!(ua.is_settled());
        ua.take_report()
    }

    #[test]
    fn an_engine_reports_at_the_tier_it_is_reset_with() {
        for method in AnnouncementMethod::all() {
            let scenario = ScenarioBuilder::random(12, 0.35, 3).method(method).build();
            let full = drive(&scenario, &mut UtilityEngine::new(&scenario));
            assert_eq!(full.tier(), ReportTier::FullTrace, "{method}");
            assert_eq!(full.rounds().len() as u32, full.digest().rounds, "{method}");
            assert_eq!(full.settlements().len(), scenario.customers.len());
            // One engine reset through every tier, cheapest first: the
            // last reset, at full trace, reports what a new engine does.
            let mut ua = UtilityEngine::new(&scenario);
            for tier in ReportTier::all() {
                ua.reset(&scenario, tier);
                assert_eq!(
                    drive(&scenario, &mut ua),
                    full.at_tier(tier),
                    "{method} {tier}"
                );
            }
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
            from: 0,
            msg: Msg::Bid {
                round: 1,
                cutdown: Fraction::clamped(0.2),
            },
        });
        ua.handle(Input::TimerFired { token: 1 });
        assert_eq!(
            ua.clone().take_report().rounds().len(),
            1,
            "round concluded on deadline"
        );
        // A late timer for the same round is a no-op.
        ua.handle(Input::TimerFired { token: 1 });
        let report = ua.take_report();
        let [r] = report.rounds() else {
            panic!(
                "duplicate deadline must not re-conclude: {:?}",
                report.rounds()
            );
        };
        assert_eq!(r.round, 1);
        assert_eq!(r.bids[0], Fraction::clamped(0.2));
        // Missing responders keep their previous (zero) bid.
        assert!(r.bids[1..].iter().all(|&b| b == Fraction::ZERO));
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
            from: 0,
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
                from: i,
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
        ua.handle(Input::Start);
        let mut offers = 0;
        while let Some(e) = ua.poll_effect() {
            match e {
                Effect::Broadcast {
                    msg: Msg::Offer { .. },
                } => offers += 1,
                Effect::SetTimer { .. } => {}
                other => panic!("unexpected effect {other:?}"),
            }
        }
        assert_eq!(offers, 1, "one broadcast offers every customer");
        for i in 0..20 {
            ua.handle(Input::Received {
                from: i,
                msg: Msg::OfferReply { accept: false },
            });
        }
        let leftover: Vec<Effect> = std::iter::from_fn(|| ua.poll_effect()).collect();
        assert_eq!(leftover, [], "no award confirmations for the offer method");
        let report = ua.take_report();
        assert_eq!(report.rounds().len(), 1);
        assert_eq!(
            report.total_messages(),
            40,
            "no award confirmations for the offer method"
        );
        assert!(report.converged());
    }
}
