//! The three announcement methods of §3.2.
//!
//! | Method | Rounds | Customer influence | §3.2.4 verdict |
//! |---|---|---|---|
//! | [`offer`] | 1 | yes/no only | "very fast", coarse targeting |
//! | [`request_bids`] | many | maximal | "complex and time consuming" |
//! | [`reward_table`] | few | chooses from table | the prototype's strategy |

pub mod offer;
pub mod request_bids;
pub mod reward_table;

use std::fmt;

/// Which announcement method a negotiation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnnouncementMethod {
    /// §3.2.1 — one-round take-it-or-leave-it offer.
    Offer,
    /// §3.2.2 — iterated request for bids.
    RequestForBids,
    /// §3.2.3 — announced reward tables (the prototype).
    RewardTables,
}

impl AnnouncementMethod {
    /// All three methods, in paper order.
    pub fn all() -> [AnnouncementMethod; 3] {
        [
            AnnouncementMethod::Offer,
            AnnouncementMethod::RequestForBids,
            AnnouncementMethod::RewardTables,
        ]
    }
}

impl fmt::Display for AnnouncementMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AnnouncementMethod::Offer => "offer",
            AnnouncementMethod::RequestForBids => "request-for-bids",
            AnnouncementMethod::RewardTables => "reward-tables",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_distinct_methods() {
        let all = AnnouncementMethod::all();
        assert_eq!(all.len(), 3);
        let names: std::collections::HashSet<String> = all.iter().map(|m| m.to_string()).collect();
        assert_eq!(names.len(), 3);
    }
}
