//! Fixed constants of the on-disk format. The layout itself is
//! documented at the crate root.

/// First four bytes of every season archive: `LBSA`.
pub const MAGIC: &[u8; 4] = b"LBSA";

/// Last four bytes of every season archive: `LBIX`.
pub const TRAILER_MAGIC: &[u8; 4] = b"LBIX";

/// Format version this build writes and the only one it reads: a file
/// of any other version, older or newer, fails with
/// [`UnsupportedVersion`](crate::ArchiveError::UnsupportedVersion).
/// Version 2 stores preferences as (scale, ceiling) and bids and
/// settlements as dictionary runs.
pub const VERSION: u16 = 2;

/// Header `kind` byte for a single-campaign archive.
pub(crate) const KIND_CAMPAIGN: u8 = 0;

/// Header `kind` byte for a fleet archive.
pub(crate) const KIND_FLEET: u8 = 1;

/// Bytes in the fixed header: magic, version, tier, kind, cell count.
pub const HEADER_LEN: u64 = 12;

/// Bytes in the fixed trailer: index offset, index length, magic.
pub const TRAILER_LEN: u64 = 16;
