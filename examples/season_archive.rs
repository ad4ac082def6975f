//! Tiered season reporting + binary archives: a two-cell fleet runs a
//! winter season at the `Settlement` tier (per-customer settlements and
//! economics, no round-by-round trace), writes the season to a compact
//! binary archive, and reads it back — the CI smoke for the reporting
//! layer (fleet → tiered report → archive → `season-inspect`).
//!
//! ```text
//! cargo run --release --example season_archive [OUT.lbsa]
//! ```
//!
//! The archive path defaults to `season.lbsa` in the temp directory;
//! pass a path to keep the file for `season-inspect list|dump|diff`.

use loadbal::archive::{write_fleet, SeasonArchive};
use loadbal::core::fleet::FleetRunner;
use loadbal::core::session::ReportTier;
use loadbal::prelude::*;
use powergrid::calendar::Horizon;
use powergrid::prediction::WeatherRegression;

fn main() {
    let path = std::env::args()
        .nth(1)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("season.lbsa"));

    // Two cells of one service area, as in `examples/fleet.rs`, but
    // retaining only what a season of record-keeping needs: the
    // Settlement tier stores who cut down by how much for what reward,
    // and drops the round-by-round negotiation trace at the source.
    let north = PopulationBuilder::new().households(150).build(1);
    let south = PopulationBuilder::new().households(100).build(2);
    let weather = WeatherModel::winter();
    let horizon = Horizon::new(6, 0, Season::Winter); // 3 warmup + 3 evaluated
    let cell = |homes| {
        CampaignBuilder::new(homes, &weather, &horizon)
            .predictor(FixedPredictor(WeatherRegression::calibrated()))
            .feedback(ClosedLoop)
            .report_tier(ReportTier::Settlement)
            .build()
    };
    let fleet = FleetRunner::new()
        .cell("north", cell(&north))
        .cell("south", cell(&south));

    let report = fleet.run();
    for cell in &report.cells {
        for outcome in &cell.report.outcomes {
            assert!(
                outcome.report.rounds().is_empty(),
                "the settlement tier must not store round records"
            );
            assert!(
                !outcome.report.settlements().is_empty(),
                "the settlement tier must store settlements"
            );
        }
    }

    let stats = write_fleet(&path, &report, ReportTier::Settlement).expect("write archive");

    // Reading the archive back yields the report exactly — the binary
    // codec is bit-faithful, including every f64.
    let mut archive = SeasonArchive::open(&path).expect("open archive");
    assert_eq!(archive.tier(), ReportTier::Settlement);
    let decoded = archive.read_fleet().expect("decode fleet season");
    assert_eq!(decoded, report, "archive round trip must be exact");

    // Single days are seekable without decoding the season.
    let first_cell = &archive.index().cells[0];
    let first_day = first_cell.days[0].day_index;
    let day = archive.read_day(0, first_day).expect("seek one day");
    assert_eq!(day, report.cells[0].report.days[0]);

    println!(
        "season archive: {} cells, {} days, {} outcomes, {} bytes -> {}",
        stats.cells,
        stats.days,
        stats.outcomes,
        stats.bytes_written,
        path.display()
    );
    println!(
        "round trip exact at tier {}; inspect with: season-inspect list {}",
        archive.tier(),
        path.display()
    );
}
