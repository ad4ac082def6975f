//! Tiered season archives: a compact, versioned, *seekable* binary
//! format for [`CampaignReport`](loadbal_core::campaign::CampaignReport)s
//! and [`FleetReport`](loadbal_core::fleet::FleetReport)s, plus the
//! `season-inspect` CLI that lists, dumps and diffs them.
//!
//! The crate carries its own codec, the workspace's only one: a
//! hand-written little-endian format designed for the two things a
//! season archive is actually used for — *pulling one day back out
//! without decoding the season*, and *storing low-tier seasons in a few
//! hundred bytes per day*.
//!
//! # What goes in
//!
//! Archives are written at a [`ReportTier`](loadbal_core::session::ReportTier):
//! the writer downgrades on the way out, so a
//! [`ReportTier::Settlement`](loadbal_core::session::ReportTier::Settlement)
//! archive of a full-trace season simply never encodes round records or
//! materialised scenarios — no intermediate clone, no wasted bytes.
//! Reading an archive yields exactly what
//! [`CampaignReport::at_tier`](loadbal_core::campaign::CampaignReport::at_tier)
//! would have produced in memory.
//!
//! # On-disk format (version 2)
//!
//! All integers are little-endian; `f64` is stored as its IEEE-754 bit
//! pattern (`to_bits`, little-endian), so round-trips are bit-exact.
//! Strings are a `u32` byte length followed by UTF-8. A file has four
//! sections:
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────────┐
//! │ HEADER (12 bytes)                                              │
//! │   magic     [u8; 4] = "LBSA"                                   │
//! │   version   u16     = 2                                        │
//! │   tier      u8        0=aggregate 1=settlement 2=full-trace    │
//! │   kind      u8        0=campaign 1=fleet                       │
//! │   cells     u32       number of cells (1 for a campaign)       │
//! ├────────────────────────────────────────────────────────────────┤
//! │ DATA: per cell, in cell order:                                 │
//! │   one BLOCK per evaluated day   (codec: DayOutcome)            │
//! │   one BLOCK per negotiated peak (codec: IntervalOutcome)       │
//! │ where BLOCK = payload_len: u32, payload: [u8; payload_len]     │
//! ├────────────────────────────────────────────────────────────────┤
//! │ INDEX (one blob, decoded on open)                              │
//! │   fleet economics               -- fleet archives only         │
//! │   cell_count u32, then per cell:                               │
//! │     label: str                                                 │
//! │     economics (5 × f64 + u64)                                  │
//! │     day_count u32,     day entries     (day u64, off u64, len  │
//! │                                         u32)                   │
//! │     outcome_count u32, outcome entries (day u64, start u64,    │
//! │                                         end u64, off u64, len  │
//! │                                         u32)                   │
//! ├────────────────────────────────────────────────────────────────┤
//! │ TRAILER (16 bytes)                                             │
//! │   index_offset u64, index_len u32, magic [u8; 4] = "LBIX"      │
//! └────────────────────────────────────────────────────────────────┘
//! ```
//!
//! Offsets in the index are absolute file offsets of a block's length
//! prefix; the prefix is cross-checked against the index `len` on every
//! read. [`SeasonArchive::open`] parses only header + trailer + index,
//! so `list` and single-day reads are O(index) regardless of season
//! size. The trailer-at-the-end layout is what lets the *writer* run
//! over a plain [`Write`](std::io::Write) sink with no seeking.
//!
//! Inside the blocks, the model's values are stored as the model holds
//! them:
//!
//! - A customer's **preferences** are two `f64`s, 16 bytes: the scale of
//!   the Figure-8 table and the cut-down ceiling
//!   ([`CustomerPreferences::scale`](loadbal_core::preferences::CustomerPreferences::scale)
//!   and `max_cutdown`).
//! - A round's **bids** and a report's **settlements** are each a
//!   *dictionary run* of fixed-width records. A bid is one `f64`
//!   (8 bytes); a settlement is a (cut-down, reward) pair of `f64`s
//!   (16 bytes). A run is laid out as:
//!
//!   ```text
//!   count  u32
//!   -- nothing more when count = 0 (a tier that drops settlements
//!      stores an empty run: its count alone)
//!   tag    u8
//!   tag 1 (dictionary, ≤ 255 distinct records):
//!     k        u8        distinct records, in first-appearance order
//!     records  k × record
//!     indices  count × u8, each < k
//!   tag 0 (raw, > 255 distinct records):
//!     records  count × record
//!   ```
//!
//!   Records are compared by bit pattern, so `-0.0` and `0.0` are
//!   distinct entries. A round answers one announced table, so its bids
//!   take a few distinct values; only per-customer offer cut-downs and
//!   offer or request-for-bids billing rewards exceed 255, and only in
//!   a cell of more than 255 customers.
//!
//! # Failure behaviour
//!
//! Decoding never panics. Foreign files fail with
//! [`ArchiveError::BadMagic`], any other version (older or newer) with
//! [`ArchiveError::UnsupportedVersion`], cut-off files with
//! [`ArchiveError::Truncated`], and bit-rot with
//! [`ArchiveError::Corrupt`] — every count is bounds-checked against
//! the remaining bytes before allocation, every dictionary index
//! against its dictionary, and every value range a core constructor
//! asserts is validated before that constructor runs.
//!
//! # Example
//!
//! ```
//! use loadbal_archive::{write_fleet, SeasonArchive};
//! use loadbal_core::campaign::{CampaignBuilder, FixedPredictor};
//! use loadbal_core::fleet::FleetRunner;
//! use loadbal_core::session::ReportTier;
//! use powergrid::calendar::Horizon;
//! use powergrid::population::PopulationBuilder;
//! use powergrid::prediction::MovingAverage;
//! use powergrid::weather::{Season, WeatherModel};
//!
//! let homes = PopulationBuilder::new().households(12).build(5);
//! let runner = CampaignBuilder::new(
//!     &homes,
//!     &WeatherModel::winter(),
//!     &Horizon::new(3, 0, Season::Winter),
//! )
//! .warmup_days(2)
//! .predictor(FixedPredictor(MovingAverage::new(2)))
//! .report_tier(ReportTier::Settlement)
//! .build();
//! let report = FleetRunner::new().cell("cell0", runner).run();
//!
//! let dir = std::env::temp_dir().join("loadbal-archive-doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("doc-season.lbsa");
//! write_fleet(&path, &report, ReportTier::Settlement).unwrap();
//!
//! let mut archive = SeasonArchive::open(&path).unwrap();
//! assert_eq!(archive.read_fleet().unwrap(), report);
//! std::fs::remove_file(&path).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
pub mod error;
pub mod format;
pub mod reader;
pub mod writer;

pub use error::{ArchiveError, ArchiveKind};
pub use reader::{ArchiveIndex, CellIndex, DayEntry, OutcomeEntry, SeasonArchive};
pub use writer::{write_campaign_to, write_fleet, write_fleet_to, WriteStats};
