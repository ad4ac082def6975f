//! The agent trait and the context handed to agent callbacks.

use crate::clock::{SimDuration, SimTime};
use crate::event::Envelope;
use rand::rngs::StdRng;
use std::fmt;

/// Identifier of an agent within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AgentId(pub u64);

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "agent-{}", self.0)
    }
}

/// A timer token, echoed back in [`Agent::on_timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimerToken(pub u64);

/// Behaviour of one simulated agent over messages of type `M`.
///
/// All callbacks receive a [`Context`] through which the agent observes
/// virtual time, draws deterministic randomness and emits messages or
/// timers. Default implementations do nothing, so minimal agents
/// implement only [`Agent::on_message`].
pub trait Agent<M>: 'static {
    /// Called once when the simulation starts.
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        let _ = ctx;
    }

    /// Called for each delivered message.
    fn on_message(&mut self, from: AgentId, msg: M, ctx: &mut Context<'_, M>);

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, M>) {
        let _ = (token, ctx);
    }
}

/// Effects requested by an agent during a callback.
#[derive(Debug)]
pub(crate) enum Effect<M> {
    Send(Envelope<M>),
    Timer {
        token: TimerToken,
        after: SimDuration,
    },
    Halt,
}

/// The execution context passed to agent callbacks.
///
/// Sending is *buffered*: messages are queued and scheduled by the
/// runtime after the callback returns, so re-entrancy is impossible and
/// delivery order is fully determined by the event queue.
pub struct Context<'a, M> {
    pub(crate) self_id: AgentId,
    pub(crate) now: SimTime,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) effects: Vec<Effect<M>>,
}

impl<'a, M> Context<'a, M> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Deterministic per-simulation random number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Queues a message to another agent (or to itself).
    pub fn send(&mut self, to: AgentId, msg: M) {
        self.effects.push(Effect::Send(Envelope {
            from: self.self_id,
            to,
            msg,
        }));
    }

    /// Queues the same message to many recipients.
    pub fn broadcast(&mut self, recipients: &[AgentId], msg: M)
    where
        M: Clone,
    {
        for &to in recipients {
            self.send(to, msg.clone());
        }
    }

    /// Requests a timer callback `after` ticks from now.
    pub fn set_timer(&mut self, token: TimerToken, after: SimDuration) {
        self.effects.push(Effect::Timer { token, after });
    }

    /// Requests the whole simulation to halt after this callback (used by
    /// coordinator agents when a negotiation concludes).
    pub fn halt(&mut self) {
        self.effects.push(Effect::Halt);
    }
}

impl<M> fmt::Debug for Context<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("self_id", &self.self_id)
            .field("now", &self.now)
            .field("pending_effects", &self.effects.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn context(rng: &mut StdRng) -> Context<'_, u32> {
        Context {
            self_id: AgentId(7),
            now: SimTime::from_ticks(5),
            rng,
            effects: Vec::new(),
        }
    }

    #[test]
    fn send_buffers_envelopes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = context(&mut rng);
        ctx.send(AgentId(1), 42);
        ctx.send(AgentId(2), 43);
        assert_eq!(ctx.effects.len(), 2);
        match &ctx.effects[0] {
            Effect::Send(env) => {
                assert_eq!(env.from, AgentId(7));
                assert_eq!(env.to, AgentId(1));
                assert_eq!(env.msg, 42);
            }
            other => panic!("unexpected effect {other:?}"),
        }
    }

    #[test]
    fn broadcast_clones_to_all() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = context(&mut rng);
        ctx.broadcast(&[AgentId(1), AgentId(2), AgentId(3)], 9);
        assert_eq!(ctx.effects.len(), 3);
    }

    #[test]
    fn timer_and_halt_effects() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = context(&mut rng);
        ctx.set_timer(TimerToken(1), SimDuration::from_ticks(10));
        ctx.halt();
        assert!(matches!(
            ctx.effects[0],
            Effect::Timer {
                token: TimerToken(1),
                ..
            }
        ));
        assert!(matches!(ctx.effects[1], Effect::Halt));
    }

    #[test]
    fn accessors() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = context(&mut rng);
        assert_eq!(ctx.now(), SimTime::from_ticks(5));
        let _ = ctx.rng();
        assert!(
            format!("{ctx:?}").contains("agent-7") || format!("{ctx:?}").contains("AgentId(7)")
        );
    }

    #[test]
    fn agent_id_display() {
        assert_eq!(AgentId(3).to_string(), "agent-3");
    }
}
