//! Event log: a replayable record of everything delivered.

use crate::agent::{AgentId, TimerToken};
use crate::clock::SimTime;
use std::fmt;

/// One logged occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogEntry<M> {
    /// A message was delivered.
    Delivered {
        /// Virtual delivery time.
        at: SimTime,
        /// Sender.
        from: AgentId,
        /// Recipient.
        to: AgentId,
        /// The payload.
        msg: M,
    },
    /// A message was dropped by the network.
    Dropped {
        /// Virtual send time.
        at: SimTime,
        /// Sender.
        from: AgentId,
        /// Intended recipient.
        to: AgentId,
    },
    /// A timer fired.
    TimerFired {
        /// Virtual time.
        at: SimTime,
        /// Owner of the timer.
        agent: AgentId,
        /// The token.
        token: TimerToken,
    },
}

impl<M> LogEntry<M> {
    /// Virtual time of the entry.
    pub fn time(&self) -> SimTime {
        match self {
            LogEntry::Delivered { at, .. }
            | LogEntry::Dropped { at, .. }
            | LogEntry::TimerFired { at, .. } => *at,
        }
    }
}

/// An append-only log of [`LogEntry`] values.
///
/// Logging message payloads requires `M: Clone`; simulations can disable
/// logging entirely for large runs (see
/// [`crate::runtime::Simulation::set_logging`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventLog<M> {
    entries: Vec<LogEntry<M>>,
}

impl<M> EventLog<M> {
    /// Creates an empty log.
    pub fn new() -> EventLog<M> {
        EventLog {
            entries: Vec::new(),
        }
    }

    /// Appends an entry.
    pub fn push(&mut self, entry: LogEntry<M>) {
        self.entries.push(entry);
    }

    /// The entries in order.
    pub fn entries(&self) -> &[LogEntry<M>] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over delivered messages only.
    pub fn deliveries(&self) -> impl Iterator<Item = (&SimTime, &AgentId, &AgentId, &M)> {
        self.entries.iter().filter_map(|e| match e {
            LogEntry::Delivered { at, from, to, msg } => Some((at, from, to, msg)),
            _ => None,
        })
    }
}

impl<M> Default for EventLog<M> {
    fn default() -> Self {
        EventLog::new()
    }
}

impl<M: fmt::Debug> fmt::Display for EventLog<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.entries {
            match e {
                LogEntry::Delivered { at, from, to, msg } => {
                    writeln!(f, "{at}  {from} → {to}: {msg:?}")?;
                }
                LogEntry::Dropped { at, from, to } => {
                    writeln!(f, "{at}  {from} → {to}: DROPPED")?;
                }
                LogEntry::TimerFired { at, agent, token } => {
                    writeln!(f, "{at}  {agent} timer {token:?}")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_filter() {
        let mut log = EventLog::new();
        log.push(LogEntry::Delivered {
            at: SimTime::from_ticks(1),
            from: AgentId(0),
            to: AgentId(1),
            msg: "hello",
        });
        log.push(LogEntry::Dropped {
            at: SimTime::from_ticks(2),
            from: AgentId(0),
            to: AgentId(2),
        });
        log.push(LogEntry::Delivered {
            at: SimTime::from_ticks(3),
            from: AgentId(1),
            to: AgentId(0),
            msg: "reply",
        });
        assert_eq!(log.len(), 3);
        assert_eq!(log.deliveries().count(), 2);
    }

    #[test]
    fn entry_time() {
        let e: LogEntry<u8> = LogEntry::TimerFired {
            at: SimTime::from_ticks(9),
            agent: AgentId(1),
            token: TimerToken(0),
        };
        assert_eq!(e.time(), SimTime::from_ticks(9));
    }

    #[test]
    fn display_render() {
        let mut log = EventLog::new();
        log.push(LogEntry::Delivered {
            at: SimTime::from_ticks(1),
            from: AgentId(0),
            to: AgentId(1),
            msg: 7u8,
        });
        let text = log.to_string();
        assert!(text.contains("agent-0 → agent-1"));
    }
}
