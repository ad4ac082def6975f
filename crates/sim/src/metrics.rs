//! Counters collected during a simulation run.

use crate::clock::SimTime;
use std::fmt;

/// Aggregate metrics of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Metrics {
    /// Messages handed to the network.
    pub messages_sent: u64,
    /// Messages delivered to recipients.
    pub messages_delivered: u64,
    /// Messages dropped by the network model.
    pub messages_dropped: u64,
    /// Messages the network model delivered twice.
    pub messages_duplicated: u64,
    /// Timer events fired.
    pub timers_fired: u64,
    /// Agent callbacks executed (start + message + timer).
    pub callbacks: u64,
    /// Virtual time at the end of the run.
    pub end_time: SimTime,
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Metrics {
        Metrics::default()
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sent {} delivered {} dropped {} duplicated {} timers {} callbacks {} end {}",
            self.messages_sent,
            self.messages_delivered,
            self.messages_dropped,
            self.messages_duplicated,
            self.timers_fired,
            self.callbacks,
            self.end_time
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_counts() {
        let m = Metrics {
            messages_sent: 5,
            ..Metrics::new()
        };
        assert!(m.to_string().contains("sent 5"));
    }
}
