//! Helpers shared by the integration tests.

use loadbal::core::campaign::CampaignRunner;
use loadbal::core::fleet::FleetRunner;
use std::num::NonZeroUsize;

/// One campaign at a chosen thread count: two cells built by the same
/// `build`, on a fleet capped at `threads` workers. A lone campaign is
/// one queue entry, which one worker runs whatever the cap, so the
/// second cell is what gives a second worker something to interleave.
/// Every cell must report exactly what the campaign reports alone.
pub fn twin_fleet<'a>(build: impl Fn() -> CampaignRunner<'a>, threads: usize) -> FleetRunner<'a> {
    FleetRunner::new()
        .cell("first", build())
        .cell("second", build())
        .threads(NonZeroUsize::new(threads).expect("threads ≥ 1"))
}
