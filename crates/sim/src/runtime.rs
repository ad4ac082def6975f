//! The deterministic simulation loop.

use crate::agent::{Agent, AgentId, Context, Effect, TimerToken};
use crate::clock::SimTime;
use crate::event::{Envelope, EventKind, EventQueue};
use crate::log::{EventLog, LogEntry};
use crate::metrics::Metrics;
use crate::network::{Delivery, NetworkModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::fmt;

/// Sender id used for messages injected from outside the simulation
/// (the "External World" of the paper's agent model).
pub const EXTERNAL: AgentId = AgentId(u64::MAX);

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained: no agent has anything left to do.
    Quiescent,
    /// An agent called [`Context::halt`].
    Halted,
    /// The time horizon passed (`run_until`).
    Horizon,
}

/// Error from a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The event budget was exhausted — almost certainly a message loop.
    EventLimit {
        /// The budget that was exhausted.
        limit: u64,
    },
    /// A message addressed a non-existent agent.
    UnknownRecipient {
        /// The bad address.
        to: AgentId,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::EventLimit { limit } => {
                write!(f, "event budget of {limit} exhausted (message loop?)")
            }
            RunError::UnknownRecipient { to } => write!(f, "message to unknown agent {to}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Object-safe wrapper adding downcasting to [`Agent`].
trait AnyAgent<M>: Agent<M> {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<M, T: Agent<M> + 'static> AnyAgent<M> for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Placeholder left behind by [`Simulation::take_agent`]: absorbs any
/// message or timer addressed to the vacated id.
struct TakenAgent;

impl<M> Agent<M> for TakenAgent {
    fn on_message(&mut self, _from: AgentId, _msg: M, _ctx: &mut Context<'_, M>) {}
}

/// A deterministic discrete-event simulation over messages of type `M`.
///
/// Same seed + same agent set ⇒ identical execution, event for event.
/// See the crate docs for a complete example.
pub struct Simulation<M: 'static> {
    agents: Vec<Box<dyn AnyAgent<M>>>,
    queue: EventQueue<M>,
    now: SimTime,
    rng: StdRng,
    network: NetworkModel,
    metrics: Metrics,
    log: Option<EventLog<M>>,
    started: bool,
    halted: bool,
    max_events: u64,
    /// The effect buffer every callback's [`Context`] borrows and the
    /// runtime drains afterwards — one allocation per simulation rather
    /// than one per callback that emits anything.
    effects: Vec<Effect<M>>,
}

impl<M: Clone + 'static> Simulation<M> {
    /// Creates a simulation with a perfect network and logging enabled.
    pub fn new(seed: u64) -> Simulation<M> {
        Simulation::with_network(seed, NetworkModel::perfect())
    }

    /// Creates a simulation with an explicit network model.
    pub fn with_network(seed: u64, network: NetworkModel) -> Simulation<M> {
        Simulation {
            agents: Vec::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng: StdRng::seed_from_u64(seed),
            network,
            metrics: Metrics::new(),
            log: Some(EventLog::new()),
            started: false,
            halted: false,
            max_events: 10_000_000,
            effects: Vec::new(),
        }
    }

    /// Enables or disables payload logging (disable for large sweeps).
    pub fn set_logging(&mut self, enabled: bool) {
        if enabled {
            if self.log.is_none() {
                self.log = Some(EventLog::new());
            }
        } else {
            self.log = None;
        }
    }

    /// Registers an agent, returning its id. Ids are assigned densely in
    /// registration order.
    pub fn add_agent(&mut self, agent: impl Agent<M> + 'static) -> AgentId {
        let id = AgentId(self.agents.len() as u64);
        self.agents.push(Box::new(agent));
        id
    }

    /// Downcasts an agent to its concrete type.
    pub fn agent<T: 'static>(&self, id: AgentId) -> Option<&T> {
        self.agents
            .get(id.0 as usize)
            .and_then(|a| a.as_any().downcast_ref::<T>())
    }

    /// Mutable downcast of an agent.
    pub fn agent_mut<T: 'static>(&mut self, id: AgentId) -> Option<&mut T> {
        self.agents
            .get_mut(id.0 as usize)
            .and_then(|a| a.as_any_mut().downcast_mut::<T>())
    }

    /// Moves an agent out of the simulation, leaving an inert
    /// placeholder at its id (ids stay dense; later traffic to the slot
    /// is absorbed). `None` if the id is unknown or the concrete type
    /// does not match — the original agent stays in place in that case.
    ///
    /// The intended use is recovering agent state after a run — e.g. the
    /// negotiation engines a hot loop wants to reuse for the next
    /// simulation instead of rebuilding.
    pub fn take_agent<T: 'static>(&mut self, id: AgentId) -> Option<T> {
        let slot = self.agents.get_mut(id.0 as usize)?;
        if !slot.as_any().is::<T>() {
            return None;
        }
        let taken = std::mem::replace(slot, Box::new(TakenAgent));
        taken.into_any().downcast::<T>().ok().map(|boxed| *boxed)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The event log, if logging is enabled.
    pub fn log(&self) -> Option<&EventLog<M>> {
        self.log.as_ref()
    }

    /// Injects a message from the external world, delivered through the
    /// network model like any other message.
    ///
    /// # Panics
    ///
    /// Panics if `to` does not name a registered agent.
    pub fn send_external(&mut self, to: AgentId, msg: M) {
        assert!(
            (to.0 as usize) < self.agents.len(),
            "external message to unknown agent {to}"
        );
        self.route(Envelope {
            from: EXTERNAL,
            to,
            msg,
        });
    }

    /// Runs until quiescence or halt.
    ///
    /// # Errors
    ///
    /// See [`RunError`].
    pub fn run(&mut self) -> Result<RunOutcome, RunError> {
        self.run_until(SimTime::from_ticks(u64::MAX))
    }

    /// Runs until quiescence, halt, or the first event past `horizon`.
    ///
    /// # Errors
    ///
    /// See [`RunError`].
    fn run_until(&mut self, horizon: SimTime) -> Result<RunOutcome, RunError> {
        if !self.started {
            self.started = true;
            for i in 0..self.agents.len() {
                self.run_callback(AgentId(i as u64), CallbackKind::Start)?;
                if self.halted {
                    return Ok(RunOutcome::Halted);
                }
            }
        }
        let mut budget = self.max_events;
        while let Some(at) = self.queue.peek_time() {
            if at > horizon {
                self.now = horizon;
                self.metrics.end_time = self.now;
                return Ok(RunOutcome::Horizon);
            }
            if budget == 0 {
                return Err(RunError::EventLimit {
                    limit: self.max_events,
                });
            }
            budget -= 1;
            let event = self.queue.pop().expect("peeked event exists");
            self.now = event.at;
            match event.kind {
                EventKind::Deliver(env) => {
                    if env.to == EXTERNAL {
                        // Replies to the external world are absorbed by
                        // the environment.
                        self.metrics.messages_delivered += 1;
                        if let Some(log) = &mut self.log {
                            log.push(LogEntry::Delivered {
                                at: self.now,
                                from: env.from,
                                to: env.to,
                                msg: env.msg.clone(),
                            });
                        }
                        continue;
                    }
                    if (env.to.0 as usize) >= self.agents.len() {
                        return Err(RunError::UnknownRecipient { to: env.to });
                    }
                    self.metrics.messages_delivered += 1;
                    if let Some(log) = &mut self.log {
                        log.push(LogEntry::Delivered {
                            at: self.now,
                            from: env.from,
                            to: env.to,
                            msg: env.msg.clone(),
                        });
                    }
                    self.run_callback(env.to, CallbackKind::Message(env.from, env.msg))?;
                }
                EventKind::Timer { agent, token } => {
                    if (agent.0 as usize) >= self.agents.len() {
                        return Err(RunError::UnknownRecipient { to: agent });
                    }
                    self.metrics.timers_fired += 1;
                    if let Some(log) = &mut self.log {
                        log.push(LogEntry::TimerFired {
                            at: self.now,
                            agent,
                            token,
                        });
                    }
                    self.run_callback(agent, CallbackKind::Timer(token))?;
                }
            }
            if self.halted {
                self.metrics.end_time = self.now;
                return Ok(RunOutcome::Halted);
            }
        }
        self.metrics.end_time = self.now;
        Ok(RunOutcome::Quiescent)
    }

    fn run_callback(&mut self, id: AgentId, kind: CallbackKind<M>) -> Result<(), RunError> {
        self.metrics.callbacks += 1;
        let mut ctx = Context {
            self_id: id,
            now: self.now,
            rng: &mut self.rng,
            effects: std::mem::take(&mut self.effects),
        };
        {
            let agent = self
                .agents
                .get_mut(id.0 as usize)
                .ok_or(RunError::UnknownRecipient { to: id })?;
            match kind {
                CallbackKind::Start => agent.on_start(&mut ctx),
                CallbackKind::Message(from, msg) => agent.on_message(from, msg, &mut ctx),
                CallbackKind::Timer(token) => agent.on_timer(token, &mut ctx),
            }
        }
        let mut effects = ctx.effects;
        for effect in effects.drain(..) {
            match effect {
                Effect::Send(env) => self.route(env),
                Effect::Timer { token, after } => {
                    self.queue
                        .schedule(self.now + after, EventKind::Timer { agent: id, token });
                }
                Effect::Halt => self.halted = true,
            }
        }
        self.effects = effects;
        Ok(())
    }

    fn route(&mut self, env: Envelope<M>) {
        self.metrics.messages_sent += 1;
        match self.network.route_at(&mut self.rng, self.now) {
            Delivery::Drop => {
                self.metrics.messages_dropped += 1;
                if let Some(log) = &mut self.log {
                    log.push(LogEntry::Dropped {
                        at: self.now,
                        from: env.from,
                        to: env.to,
                    });
                }
            }
            Delivery::After(latency) => {
                self.queue
                    .schedule(self.now + latency, EventKind::Deliver(env));
            }
            Delivery::Duplicate(first, second) => {
                self.metrics.messages_duplicated += 1;
                self.queue
                    .schedule(self.now + first, EventKind::Deliver(env.clone()));
                self.queue
                    .schedule(self.now + second, EventKind::Deliver(env));
            }
        }
    }
}

enum CallbackKind<M> {
    Start,
    Message(AgentId, M),
    Timer(TimerToken),
}

impl<M: 'static> fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("agents", &self.agents.len())
            .field("now", &self.now)
            .field("pending_events", &self.queue.len())
            .field("halted", &self.halted)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimDuration;

    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    struct Echo {
        seen: Vec<u32>,
    }

    impl Agent<Msg> for Echo {
        fn on_message(&mut self, from: AgentId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            if let Msg::Ping(n) = msg {
                self.seen.push(n);
                ctx.send(from, Msg::Pong(n));
            }
        }
    }

    struct Pinger {
        target: AgentId,
        rounds: u32,
        pongs: Vec<u32>,
    }

    impl Agent<Msg> for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.send(self.target, Msg::Ping(0));
        }
        fn on_message(&mut self, from: AgentId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            if let Msg::Pong(n) = msg {
                self.pongs.push(n);
                if n + 1 < self.rounds {
                    ctx.send(from, Msg::Ping(n + 1));
                } else {
                    ctx.halt();
                }
            }
        }
    }

    #[test]
    fn ping_pong_runs_to_halt() {
        let mut sim = Simulation::new(1);
        let echo = sim.add_agent(Echo { seen: Vec::new() });
        let pinger = sim.add_agent(Pinger {
            target: echo,
            rounds: 5,
            pongs: Vec::new(),
        });
        let outcome = sim.run().unwrap();
        assert_eq!(outcome, RunOutcome::Halted);
        assert_eq!(sim.agent::<Echo>(echo).unwrap().seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(
            sim.agent::<Pinger>(pinger).unwrap().pongs,
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(sim.metrics().messages_delivered, 10);
    }

    #[test]
    fn quiescence_when_no_replies() {
        struct Silent;
        impl Agent<Msg> for Silent {
            fn on_message(&mut self, _: AgentId, _: Msg, _: &mut Context<'_, Msg>) {}
        }
        let mut sim = Simulation::new(1);
        let silent = sim.add_agent(Silent);
        sim.send_external(silent, Msg::Ping(9));
        let outcome = sim.run().unwrap();
        assert_eq!(outcome, RunOutcome::Quiescent);
        assert_eq!(sim.metrics().messages_delivered, 1);
    }

    #[test]
    fn identical_seeds_identical_runs() {
        fn run(seed: u64) -> (u64, u64) {
            let mut sim: Simulation<Msg> =
                Simulation::with_network(seed, NetworkModel::uniform(1, 20));
            let echo = sim.add_agent(Echo { seen: Vec::new() });
            let _ = sim.add_agent(Pinger {
                target: echo,
                rounds: 10,
                pongs: Vec::new(),
            });
            sim.run().unwrap();
            (sim.now().ticks(), sim.metrics().messages_delivered)
        }
        assert_eq!(run(99), run(99));
        assert_ne!(
            run(99).0,
            run(100).0,
            "different seeds give different timings"
        );
    }

    #[test]
    fn lossy_network_drops_messages() {
        let mut sim: Simulation<Msg> =
            Simulation::with_network(5, NetworkModel::uniform(1, 1).with_drop_probability(0.5));
        let echo = sim.add_agent(Echo { seen: Vec::new() });
        for n in 0..100 {
            sim.send_external(echo, Msg::Ping(n));
        }
        sim.run().unwrap();
        let m = sim.metrics();
        assert!(m.messages_dropped > 10, "dropped {}", m.messages_dropped);
        // Echo replies to delivered pings; those replies can drop too.
        assert!(m.messages_delivered < 200);
    }

    #[test]
    fn duplicating_network_delivers_twice() {
        let mut sim: Simulation<Msg> = Simulation::with_network(
            9,
            NetworkModel::uniform(1, 1).with_duplicate_probability(0.5),
        );
        let echo = sim.add_agent(Echo { seen: Vec::new() });
        for n in 0..100 {
            sim.send_external(echo, Msg::Ping(n));
        }
        sim.run().unwrap();
        let m = sim.metrics();
        assert!(
            m.messages_duplicated > 10,
            "duplicated {}",
            m.messages_duplicated
        );
        // Every duplicated ping is seen twice (and its pong can be
        // duplicated too), so deliveries exceed the send count.
        let seen = &sim.agent::<Echo>(echo).unwrap().seen;
        assert!(seen.len() > 100, "echo saw {} pings", seen.len());
    }

    #[test]
    fn reordering_network_inverts_delivery_order() {
        // Two pings injected back to back on a constant-latency network:
        // without reordering the first always arrives first; with heavy
        // reordering some seeds invert them.
        fn order(with_reorder: bool, seed: u64) -> Vec<u32> {
            let net = if with_reorder {
                NetworkModel::uniform(1, 1).with_reordering(0.9, 50)
            } else {
                NetworkModel::uniform(1, 1)
            };
            let mut sim: Simulation<Msg> = Simulation::with_network(seed, net);
            let echo = sim.add_agent(Echo { seen: Vec::new() });
            sim.send_external(echo, Msg::Ping(1));
            sim.send_external(echo, Msg::Ping(2));
            sim.run().unwrap();
            sim.agent::<Echo>(echo).unwrap().seen.clone()
        }
        assert_eq!(order(false, 3), vec![1, 2]);
        let inverted = (0..20).any(|seed| order(true, seed) == vec![2, 1]);
        assert!(inverted, "heavy reordering must invert some pair");
    }

    #[test]
    fn timers_fire_in_order() {
        struct Timed {
            fired: Vec<u64>,
        }
        impl Agent<Msg> for Timed {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(TimerToken(2), SimDuration::from_ticks(20));
                ctx.set_timer(TimerToken(1), SimDuration::from_ticks(10));
            }
            fn on_message(&mut self, _: AgentId, _: Msg, _: &mut Context<'_, Msg>) {}
            fn on_timer(&mut self, token: TimerToken, _: &mut Context<'_, Msg>) {
                self.fired.push(token.0);
            }
        }
        let mut sim: Simulation<Msg> = Simulation::new(0);
        let id = sim.add_agent(Timed { fired: Vec::new() });
        sim.run().unwrap();
        assert_eq!(sim.agent::<Timed>(id).unwrap().fired, vec![1, 2]);
        assert_eq!(sim.metrics().timers_fired, 2);
    }

    #[test]
    fn event_limit_detects_loops() {
        struct Looper {
            peer: Option<AgentId>,
        }
        impl Agent<Msg> for Looper {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                if let Some(p) = self.peer {
                    ctx.send(p, Msg::Ping(0));
                }
            }
            fn on_message(&mut self, from: AgentId, _: Msg, ctx: &mut Context<'_, Msg>) {
                ctx.send(from, Msg::Ping(0));
            }
        }
        let mut sim = Simulation::new(0);
        let a = sim.add_agent(Looper { peer: None });
        sim.agent_mut::<Looper>(a).unwrap();
        let b = sim.add_agent(Looper { peer: Some(a) });
        let _ = b;
        sim.max_events = 1000;
        let err = sim.run().unwrap_err();
        assert_eq!(err, RunError::EventLimit { limit: 1000 });
    }

    #[test]
    fn horizon_stops_early() {
        let mut sim = Simulation::with_network(3, NetworkModel::uniform(50, 50));
        let echo = sim.add_agent(Echo { seen: Vec::new() });
        sim.send_external(echo, Msg::Ping(1));
        let outcome = sim.run_until(SimTime::from_ticks(10)).unwrap();
        assert_eq!(outcome, RunOutcome::Horizon);
        assert_eq!(sim.metrics().messages_delivered, 0);
        // Continue past the horizon.
        let outcome = sim.run().unwrap();
        assert_eq!(outcome, RunOutcome::Quiescent);
        assert_eq!(sim.agent::<Echo>(echo).unwrap().seen, vec![1]);
    }

    #[test]
    fn log_records_deliveries() {
        let mut sim = Simulation::new(1);
        let echo = sim.add_agent(Echo { seen: Vec::new() });
        sim.send_external(echo, Msg::Ping(7));
        sim.run().unwrap();
        let log = sim.log().unwrap();
        assert!(log
            .deliveries()
            .any(|(_, from, to, msg)| *from == EXTERNAL && *to == echo && *msg == Msg::Ping(7)));
    }

    #[test]
    fn logging_can_be_disabled() {
        let mut sim = Simulation::new(1);
        let echo = sim.add_agent(Echo { seen: Vec::new() });
        sim.set_logging(false);
        sim.send_external(echo, Msg::Ping(7));
        sim.run().unwrap();
        assert!(sim.log().is_none());
    }

    #[test]
    fn downcast_to_wrong_type_is_none() {
        let mut sim: Simulation<Msg> = Simulation::new(1);
        let echo = sim.add_agent(Echo { seen: Vec::new() });
        assert!(sim.agent::<Pinger>(echo).is_none());
        assert!(sim.agent::<Echo>(AgentId(99)).is_none());
    }

    #[test]
    #[should_panic(expected = "unknown agent")]
    fn external_to_unknown_agent_panics() {
        let mut sim: Simulation<Msg> = Simulation::new(1);
        sim.send_external(AgentId(0), Msg::Ping(0));
    }

    #[test]
    fn take_agent_moves_state_out() {
        let mut sim = Simulation::new(1);
        let echo = sim.add_agent(Echo { seen: Vec::new() });
        sim.send_external(echo, Msg::Ping(3));
        sim.run().unwrap();
        assert!(
            sim.take_agent::<Pinger>(echo).is_none(),
            "wrong type must leave the agent in place"
        );
        let taken = sim.take_agent::<Echo>(echo).unwrap();
        assert_eq!(taken.seen, vec![3]);
        // The slot is now inert: a second take finds nothing and later
        // traffic to the id is absorbed rather than erroring.
        assert!(sim.take_agent::<Echo>(echo).is_none());
        assert!(sim.take_agent::<Echo>(AgentId(99)).is_none());
        sim.send_external(echo, Msg::Ping(4));
        assert!(sim.run().is_ok());
    }
}
