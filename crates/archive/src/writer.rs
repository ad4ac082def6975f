//! Season-archive writers: stream a [`CampaignReport`] or
//! [`FleetReport`] into the versioned binary format.
//!
//! The writer needs only [`Write`] — no seeking — because every offset
//! the index records is tracked by a byte-counting wrapper as blocks go
//! out. Reports are *downgraded on write*: pass a tier below the
//! report's own and the rounds/settlements/scenarios that tier drops
//! are simply never encoded (no intermediate clone is built).

use crate::codec;
use crate::error::{ArchiveError, ArchiveKind};
use crate::format::{KIND_CAMPAIGN, KIND_FLEET, MAGIC, TRAILER_MAGIC, VERSION};
use loadbal_core::campaign::{CampaignEconomics, CampaignReport};
use loadbal_core::fleet::FleetReport;
use loadbal_core::session::ReportTier;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// What a write produced, for logs and benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteStats {
    /// Total archive size (header + blocks + index + trailer).
    pub bytes_written: u64,
    /// Cells stored (1 for a campaign archive).
    pub cells: usize,
    /// Day records stored across all cells.
    pub days: usize,
    /// Negotiated-peak outcomes stored across all cells.
    pub outcomes: usize,
}

/// [`Write`] adapter that tracks the absolute byte position, so block
/// offsets can be recorded without seeking.
struct Counting<W: Write> {
    inner: W,
    pos: u64,
}

impl<W: Write> Counting<W> {
    fn put(&mut self, bytes: &[u8]) -> Result<(), ArchiveError> {
        self.inner.write_all(bytes)?;
        self.pos += bytes.len() as u64;
        Ok(())
    }

    /// Writes one length-prefixed block, returning the offset of its
    /// length prefix.
    fn put_block(&mut self, payload: &[u8]) -> Result<u64, ArchiveError> {
        let offset = self.pos;
        self.put(&(payload.len() as u32).to_le_bytes())?;
        self.put(payload)?;
        Ok(offset)
    }
}

struct DayAt {
    day_index: u64,
    offset: u64,
    len: u32,
}

struct OutcomeAt {
    day_index: u64,
    interval_start: u64,
    interval_end: u64,
    offset: u64,
    len: u32,
}

struct CellAt<'a> {
    label: &'a str,
    economics: &'a CampaignEconomics,
    days: Vec<DayAt>,
    outcomes: Vec<OutcomeAt>,
}

/// Writes a campaign archive to any [`Write`] sink.
///
/// # Errors
///
/// Propagates I/O failures as [`ArchiveError::Io`].
pub fn write_campaign_to<W: Write>(
    sink: W,
    report: &CampaignReport,
    tier: ReportTier,
) -> Result<WriteStats, ArchiveError> {
    write_archive(sink, ArchiveKind::Campaign, tier, None, &[("", report)])
}

/// Writes a fleet archive to `path` (created or truncated).
///
/// # Errors
///
/// Propagates I/O failures as [`ArchiveError::Io`].
pub fn write_fleet(
    path: impl AsRef<Path>,
    report: &FleetReport,
    tier: ReportTier,
) -> Result<WriteStats, ArchiveError> {
    let mut file = BufWriter::new(File::create(path)?);
    let stats = write_fleet_to(&mut file, report, tier)?;
    file.flush()?;
    Ok(stats)
}

/// Writes a fleet archive to any [`Write`] sink.
///
/// # Errors
///
/// Propagates I/O failures as [`ArchiveError::Io`].
pub fn write_fleet_to<W: Write>(
    sink: W,
    report: &FleetReport,
    tier: ReportTier,
) -> Result<WriteStats, ArchiveError> {
    let cells: Vec<(&str, &CampaignReport)> = report
        .cells
        .iter()
        .map(|c| (c.label.as_str(), &c.report))
        .collect();
    write_archive(
        sink,
        ArchiveKind::Fleet,
        tier,
        Some(&report.economics),
        &cells,
    )
}

fn write_archive<W: Write>(
    sink: W,
    kind: ArchiveKind,
    tier: ReportTier,
    fleet_economics: Option<&CampaignEconomics>,
    cells: &[(&str, &CampaignReport)],
) -> Result<WriteStats, ArchiveError> {
    let mut out = Counting {
        inner: sink,
        pos: 0,
    };

    // Header.
    let mut head = Vec::with_capacity(12);
    head.extend_from_slice(MAGIC);
    codec::put_u16(&mut head, VERSION);
    codec::put_tier(&mut head, tier);
    codec::put_u8(
        &mut head,
        match kind {
            ArchiveKind::Campaign => KIND_CAMPAIGN,
            ArchiveKind::Fleet => KIND_FLEET,
        },
    );
    codec::put_u32(&mut head, cells.len() as u32);
    out.put(&head)?;

    // Data section: per cell, day blocks then outcome blocks, each
    // length-prefixed so single blocks are seekable and checkable.
    let mut placed: Vec<CellAt<'_>> = Vec::with_capacity(cells.len());
    let mut buf = Vec::new();
    for (label, report) in cells {
        let mut days = Vec::with_capacity(report.days.len());
        for day in &report.days {
            buf.clear();
            codec::put_day_outcome(&mut buf, day);
            let offset = out.put_block(&buf)?;
            days.push(DayAt {
                day_index: day.day.index,
                offset,
                len: buf.len() as u32,
            });
        }
        let mut outcomes = Vec::with_capacity(report.outcomes.len());
        for outcome in &report.outcomes {
            buf.clear();
            codec::put_interval_outcome(&mut buf, outcome, tier);
            let offset = out.put_block(&buf)?;
            outcomes.push(OutcomeAt {
                day_index: outcome.day.index,
                interval_start: outcome.peak.interval.start() as u64,
                interval_end: outcome.peak.interval.end() as u64,
                offset,
                len: buf.len() as u32,
            });
        }
        placed.push(CellAt {
            label,
            economics: &report.economics,
            days,
            outcomes,
        });
    }

    // Index: everything `list` and per-day reads need without touching
    // the data section — labels, economics, and block locations.
    let mut index = Vec::new();
    if let Some(economics) = fleet_economics {
        codec::put_economics(&mut index, economics);
    }
    codec::put_u32(&mut index, placed.len() as u32);
    for cell in &placed {
        codec::put_str(&mut index, cell.label);
        codec::put_economics(&mut index, cell.economics);
        codec::put_u32(&mut index, cell.days.len() as u32);
        for d in &cell.days {
            codec::put_u64(&mut index, d.day_index);
            codec::put_u64(&mut index, d.offset);
            codec::put_u32(&mut index, d.len);
        }
        codec::put_u32(&mut index, cell.outcomes.len() as u32);
        for o in &cell.outcomes {
            codec::put_u64(&mut index, o.day_index);
            codec::put_u64(&mut index, o.interval_start);
            codec::put_u64(&mut index, o.interval_end);
            codec::put_u64(&mut index, o.offset);
            codec::put_u32(&mut index, o.len);
        }
    }
    let index_offset = out.pos;
    out.put(&index)?;

    // Trailer: fixed 16 bytes at the very end so a reader can find the
    // index with one seek.
    let mut trailer = Vec::with_capacity(16);
    codec::put_u64(&mut trailer, index_offset);
    codec::put_u32(&mut trailer, index.len() as u32);
    trailer.extend_from_slice(TRAILER_MAGIC);
    out.put(&trailer)?;

    Ok(WriteStats {
        bytes_written: out.pos,
        cells: placed.len(),
        days: placed.iter().map(|c| c.days.len()).sum(),
        outcomes: placed.iter().map(|c| c.outcomes.len()).sum(),
    })
}
