//! Season-archive reader: open, list, and decode archives written by
//! [`crate::writer`], a single day at a time or wholesale.
//!
//! Opening parses only the 12-byte header and the index (found through
//! the fixed trailer) — the data section is never touched until a
//! specific block is requested, so listing a multi-megabyte season or
//! pulling one day out of it stays O(index), not O(archive).

use crate::codec::{self, Dec};
use crate::error::{corrupt, ArchiveError, ArchiveKind};
use crate::format::{
    HEADER_LEN, KIND_CAMPAIGN, KIND_FLEET, MAGIC, TRAILER_LEN, TRAILER_MAGIC, VERSION,
};
use loadbal_core::campaign::{CampaignEconomics, CampaignReport, DayOutcome, IntervalOutcome};
use loadbal_core::fleet::{CellReport, FleetReport};
use loadbal_core::session::ReportTier;
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::Path;

/// Location of one day record in the data section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DayEntry {
    /// Calendar day index the record describes.
    pub day_index: u64,
    /// Payload length in bytes.
    pub len: u32,
    pub(crate) offset: u64,
}

/// Location of one negotiated-peak outcome in the data section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutcomeEntry {
    /// Calendar day index the peak fell on.
    pub day_index: u64,
    /// First interval slot of the peak.
    pub interval_start: u64,
    /// One-past-the-last interval slot of the peak.
    pub interval_end: u64,
    /// Payload length in bytes.
    pub len: u32,
    pub(crate) offset: u64,
}

/// Everything the index stores for one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellIndex {
    /// The cell's label (empty for a campaign archive).
    pub label: String,
    /// The cell's stop-rule accounting.
    pub economics: CampaignEconomics,
    /// One entry per stored day, in written order.
    pub days: Vec<DayEntry>,
    /// One entry per stored outcome, in written order.
    pub outcomes: Vec<OutcomeEntry>,
}

/// The decoded archive index: cells plus (for fleets) fleet economics.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveIndex {
    /// Fleet-level economics; `None` in a campaign archive.
    pub fleet_economics: Option<CampaignEconomics>,
    /// One index per cell.
    pub cells: Vec<CellIndex>,
}

/// An open season archive: parsed header and index over a seekable
/// reader, with on-demand block decoding.
pub struct SeasonArchive<R: Read + Seek> {
    reader: R,
    tier: ReportTier,
    kind: ArchiveKind,
    index: ArchiveIndex,
}

impl SeasonArchive<BufReader<File>> {
    /// Opens an archive file.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::Io`] on filesystem failure, [`ArchiveError::BadMagic`] /
    /// [`ArchiveError::UnsupportedVersion`] for foreign files, and
    /// [`ArchiveError::Truncated`] / [`ArchiveError::Corrupt`] for
    /// damaged ones.
    pub fn open(path: impl AsRef<Path>) -> Result<SeasonArchive<BufReader<File>>, ArchiveError> {
        SeasonArchive::from_reader(BufReader::new(File::open(path)?))
    }
}

impl<R: Read + Seek> SeasonArchive<R> {
    /// Opens an archive over any seekable reader.
    ///
    /// # Errors
    ///
    /// Same contract as [`SeasonArchive::open`].
    pub fn from_reader(mut reader: R) -> Result<SeasonArchive<R>, ArchiveError> {
        let total = reader.seek(SeekFrom::End(0))?;
        if total < HEADER_LEN + TRAILER_LEN {
            return Err(ArchiveError::Truncated {
                context: "file shorter than header + trailer",
            });
        }

        // Header.
        reader.seek(SeekFrom::Start(0))?;
        let mut head = [0u8; HEADER_LEN as usize];
        reader.read_exact(&mut head)?;
        let Some((magic, head_rest)) = head.split_first_chunk::<4>() else {
            return Err(ArchiveError::Truncated { context: "header" });
        };
        if magic != MAGIC {
            return Err(ArchiveError::BadMagic);
        }
        let mut d = Dec::new(head_rest, "header");
        let version = d.u16()?;
        if version != VERSION {
            return Err(ArchiveError::UnsupportedVersion(version));
        }
        let tier = codec::tier(&mut d)?;
        let kind = match d.u8()? {
            KIND_CAMPAIGN => ArchiveKind::Campaign,
            KIND_FLEET => ArchiveKind::Fleet,
            _ => return Err(corrupt("unknown archive-kind tag")),
        };
        let cell_count = d.u32()? as usize;

        // Trailer → index location.
        reader.seek(SeekFrom::End(-(TRAILER_LEN as i64)))?;
        let mut tail = [0u8; TRAILER_LEN as usize];
        reader.read_exact(&mut tail)?;
        let Some((tail_rest, trailer_magic)) = tail.split_last_chunk::<4>() else {
            return Err(ArchiveError::Truncated { context: "trailer" });
        };
        if trailer_magic != TRAILER_MAGIC {
            return Err(corrupt("trailer magic missing"));
        }
        let mut d = Dec::new(tail_rest, "trailer");
        let index_offset = d.u64()?;
        let index_len = u64::from(d.u32()?);
        if index_offset < HEADER_LEN || index_offset + index_len + TRAILER_LEN != total {
            return Err(corrupt("index location disagrees with file size"));
        }

        // Index.
        reader.seek(SeekFrom::Start(index_offset))?;
        let mut raw = vec![0u8; index_len as usize];
        reader.read_exact(&mut raw)?;
        let index = parse_index(&raw, kind, cell_count, index_offset)?;

        Ok(SeasonArchive {
            reader,
            tier,
            kind,
            index,
        })
    }

    /// The tier the archive was written at — an upper bound on what any
    /// report read out of it can contain.
    pub fn tier(&self) -> ReportTier {
        self.tier
    }

    /// Whether this is a campaign or a fleet archive.
    pub fn kind(&self) -> ArchiveKind {
        self.kind
    }

    /// The parsed index: labels, economics and block locations.
    pub fn index(&self) -> &ArchiveIndex {
        &self.index
    }

    fn cell(&self, cell: usize) -> Result<&CellIndex, ArchiveError> {
        self.index
            .cells
            .get(cell)
            .ok_or(ArchiveError::CellOutOfRange {
                cell,
                cells: self.index.cells.len(),
            })
    }

    /// Seeks to one block, cross-checks its length prefix against the
    /// index, and returns the payload.
    fn block(&mut self, offset: u64, len: u32) -> Result<Vec<u8>, ArchiveError> {
        self.reader.seek(SeekFrom::Start(offset))?;
        let mut prefix = [0u8; 4];
        self.reader.read_exact(&mut prefix)?;
        if u32::from_le_bytes(prefix) != len {
            return Err(corrupt("block length prefix disagrees with index"));
        }
        let mut payload = vec![0u8; len as usize];
        self.reader.read_exact(&mut payload)?;
        Ok(payload)
    }

    /// Reads one day's record from one cell without decoding anything
    /// else.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::CellOutOfRange`] / [`ArchiveError::DayNotFound`]
    /// for bad coordinates, plus the open-time error contract.
    pub fn read_day(&mut self, cell: usize, day_index: u64) -> Result<DayOutcome, ArchiveError> {
        let entry = *self
            .cell(cell)?
            .days
            .iter()
            .find(|d| d.day_index == day_index)
            .ok_or(ArchiveError::DayNotFound {
                cell,
                day: day_index,
            })?;
        let payload = self.block(entry.offset, entry.len)?;
        let mut d = Dec::new(&payload, "day record");
        let day = codec::day_outcome(&mut d)?;
        d.finish()?;
        Ok(day)
    }

    /// Reads every negotiated-peak outcome that fell on one day of one
    /// cell (empty if the day had no peaks).
    ///
    /// # Errors
    ///
    /// [`ArchiveError::CellOutOfRange`] for a bad cell, plus the
    /// open-time error contract.
    pub fn read_day_outcomes(
        &mut self,
        cell: usize,
        day_index: u64,
    ) -> Result<Vec<IntervalOutcome>, ArchiveError> {
        let entries: Vec<OutcomeEntry> = self
            .cell(cell)?
            .outcomes
            .iter()
            .filter(|o| o.day_index == day_index)
            .copied()
            .collect();
        let mut out = Vec::with_capacity(entries.len());
        for entry in entries {
            let payload = self.block(entry.offset, entry.len)?;
            let mut d = Dec::new(&payload, "outcome record");
            out.push(codec::interval_outcome(&mut d)?);
            d.finish()?;
        }
        Ok(out)
    }

    /// Decodes one whole cell back into a [`CampaignReport`].
    ///
    /// # Errors
    ///
    /// [`ArchiveError::CellOutOfRange`] for a bad cell, plus the
    /// open-time error contract.
    fn read_cell(&mut self, cell: usize) -> Result<CampaignReport, ArchiveError> {
        let (economics, day_entries, outcome_entries) = {
            let c = self.cell(cell)?;
            (c.economics, c.days.clone(), c.outcomes.clone())
        };
        let mut days = Vec::with_capacity(day_entries.len());
        for entry in day_entries {
            let payload = self.block(entry.offset, entry.len)?;
            let mut d = Dec::new(&payload, "day record");
            days.push(codec::day_outcome(&mut d)?);
            d.finish()?;
        }
        let mut outcomes = Vec::with_capacity(outcome_entries.len());
        for entry in outcome_entries {
            let payload = self.block(entry.offset, entry.len)?;
            let mut d = Dec::new(&payload, "outcome record");
            outcomes.push(codec::interval_outcome(&mut d)?);
            d.finish()?;
        }
        Ok(CampaignReport {
            outcomes,
            days,
            economics,
        })
    }

    /// Decodes a campaign archive back into its [`CampaignReport`].
    ///
    /// # Errors
    ///
    /// [`ArchiveError::WrongKind`] on a fleet archive, plus the
    /// open-time error contract.
    pub fn read_campaign(&mut self) -> Result<CampaignReport, ArchiveError> {
        if self.kind != ArchiveKind::Campaign {
            return Err(ArchiveError::WrongKind {
                expected: ArchiveKind::Campaign,
                found: self.kind,
            });
        }
        self.read_cell(0)
    }

    /// Decodes a fleet archive back into its [`FleetReport`].
    ///
    /// # Errors
    ///
    /// [`ArchiveError::WrongKind`] on a campaign archive, plus the
    /// open-time error contract.
    pub fn read_fleet(&mut self) -> Result<FleetReport, ArchiveError> {
        if self.kind != ArchiveKind::Fleet {
            return Err(ArchiveError::WrongKind {
                expected: ArchiveKind::Fleet,
                found: self.kind,
            });
        }
        let economics = self
            .index
            .fleet_economics
            .ok_or(corrupt("fleet archive missing fleet economics"))?;
        let labels: Vec<String> = self
            .index
            .cells
            .iter()
            .map(|cell| cell.label.clone())
            .collect();
        let mut cells = Vec::with_capacity(labels.len());
        for (i, label) in labels.into_iter().enumerate() {
            cells.push(CellReport {
                label,
                report: self.read_cell(i)?,
            });
        }
        Ok(FleetReport { cells, economics })
    }
}

fn parse_index(
    raw: &[u8],
    kind: ArchiveKind,
    header_cells: usize,
    index_offset: u64,
) -> Result<ArchiveIndex, ArchiveError> {
    let mut d = Dec::new(raw, "index");
    let fleet_economics = match kind {
        ArchiveKind::Campaign => None,
        ArchiveKind::Fleet => Some(codec::economics(&mut d)?),
    };
    let cell_count = d.count(14)?;
    if cell_count != header_cells {
        return Err(corrupt("index cell count disagrees with header"));
    }
    let mut cells = Vec::with_capacity(cell_count);
    for _ in 0..cell_count {
        let label = d.str()?;
        let economics = codec::economics(&mut d)?;
        let day_count = d.count(20)?;
        let mut days = Vec::with_capacity(day_count);
        for _ in 0..day_count {
            let entry = DayEntry {
                day_index: d.u64()?,
                offset: d.u64()?,
                len: d.u32()?,
            };
            check_block_span(entry.offset, entry.len, index_offset)?;
            days.push(entry);
        }
        let outcome_count = d.count(36)?;
        let mut outcomes = Vec::with_capacity(outcome_count);
        for _ in 0..outcome_count {
            let entry = OutcomeEntry {
                day_index: d.u64()?,
                interval_start: d.u64()?,
                interval_end: d.u64()?,
                offset: d.u64()?,
                len: d.u32()?,
            };
            check_block_span(entry.offset, entry.len, index_offset)?;
            outcomes.push(entry);
        }
        cells.push(CellIndex {
            label,
            economics,
            days,
            outcomes,
        });
    }
    d.finish()?;
    Ok(ArchiveIndex {
        fleet_economics,
        cells,
    })
}

/// Every indexed block (length prefix + payload) must sit fully inside
/// the data section, between the header and the index.
fn check_block_span(offset: u64, len: u32, index_offset: u64) -> Result<(), ArchiveError> {
    let end = offset
        .checked_add(4)
        .and_then(|p| p.checked_add(u64::from(len)));
    match end {
        Some(end) if offset >= HEADER_LEN && end <= index_offset => Ok(()),
        _ => Err(corrupt("indexed block outside the data section")),
    }
}
