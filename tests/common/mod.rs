//! Helpers shared by the integration tests.

use loadbal::core::campaign::CampaignRunner;
use loadbal::core::fleet::FleetRunner;
use std::num::NonZeroUsize;

/// A lone campaign as a one-cell fleet capped at `threads` workers —
/// how a single campaign runs at a chosen thread count.
pub fn one_cell_fleet(runner: CampaignRunner<'_>, threads: usize) -> FleetRunner<'_> {
    FleetRunner::new()
        .cell("campaign", runner)
        .threads(NonZeroUsize::new(threads).expect("threads ≥ 1"))
}
