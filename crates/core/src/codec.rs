//! Versioned, crash-safe binary persistence for the inventory.
//!
//! ## On-disk layout (version 2)
//!
//! ```text
//! magic    b"POLINV2\0"                                   8 bytes
//! header   u32 LE section length                          4 bytes
//!          resolution u8, total-record varint,
//!          entry-count varint                              (length bytes)
//!          u64 LE CRC-64/XZ of the section bytes           8 bytes
//! entries  u64 LE section length                           8 bytes
//!          per entry: tagged GroupKey + CellStats
//!          sketches in fixed order                         (length bytes)
//!          u64 LE CRC-64/XZ of the section bytes           8 bytes
//! footer   u64 LE total file length, b"POLSEAL\0"         16 bytes
//! ```
//!
//! Every section carries its own [`pol_sketch::crc64`] checksum, and the
//! footer seals the file: a load first proves the file *ends* correctly
//! (magic + recorded length), so truncation from a torn write is
//! detected before any section is trusted, then proves each section's
//! bytes are the bytes that were written. Any single bit flip anywhere
//! in the file surfaces as a typed [`CodecError`] — property-tested in
//! `tests/codec_corruption.rs`, audited on demand by `polinv verify`.
//!
//! ## Crash-safe writes
//!
//! [`save`] never exposes a half-written inventory: bytes go to a
//! sibling temp file, which is fsynced, atomically renamed over the
//! destination, and the directory entry is then fsynced. A crash (or an
//! injected `codec.save.*` failpoint) at any step leaves either the old
//! complete file or the new complete file, never a torn one, and the
//! temp file is removed on every failure path.
//!
//! Everything round-trips by property test.

pub mod columnar;
pub mod manifest;
pub mod wal;

use crate::features::{CellStats, GroupKey};
use crate::inventory::Inventory;
use pol_ais::types::MarketSegment;
use pol_hexgrid::{CellIndex, Resolution};
use pol_sketch::crc64::crc64;
use pol_sketch::hash::FxHashMap;
use pol_sketch::wire::{get_varint, put_varint, Wire, WireError};
use std::fmt;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// File magic (format version 2: checksummed sections, sealed footer).
pub const MAGIC: &[u8; 8] = b"POLINV2\0";

/// Footer seal magic — the last 8 bytes of every complete inventory file.
pub const FOOTER_MAGIC: &[u8; 8] = b"POLSEAL\0";

/// A conservative lower bound on the serialized size of one inventory
/// entry (tagged key + all sixteen statistics in their empty form). An
/// empty [`CellStats`] alone encodes to over 70 bytes (checked by a
/// regression test); 64 keeps headroom for future slimmer encodings while
/// still bounding allocation to `input_len / 64` entries.
pub const MIN_ENTRY_BYTES: usize = 64;

/// Errors from loading or verifying an inventory.
#[derive(Debug)]
pub enum CodecError {
    /// I/O failure.
    Io(io::Error),
    /// Structural failure inside a checksummed section (an encoder bug
    /// or an impossibly collided checksum, not ordinary corruption).
    Wire(WireError),
    /// Wrong magic / unsupported version.
    BadHeader,
    /// The footer seal is missing or inconsistent: the file was
    /// truncated or torn mid-write and must not be trusted.
    Unsealed,
    /// A section's bytes do not match their recorded CRC-64: bit rot or
    /// in-place corruption.
    Checksum {
        /// Which section failed (`"header"` or `"entries"` for v2 files;
        /// `"cell"`, `"cell-type"`, `"cell-route"` or `"lat-index"` for
        /// columnar v3 files).
        section: &'static str,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "inventory io error: {e}"),
            Self::Wire(e) => write!(f, "inventory decode error: {e}"),
            Self::BadHeader => write!(f, "not a patterns-of-life inventory file"),
            Self::Unsealed => write!(
                f,
                "inventory file is unsealed: truncated or torn by an interrupted write"
            ),
            Self::Checksum { section } => {
                write!(f, "inventory {section} section failed its CRC-64 check")
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<WireError> for CodecError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

/// Appends the canonical encoding of a [`GroupKey`] to `out`.
///
/// Public so transports other than the inventory file (e.g. the
/// `pol-serve` wire protocol) can reuse the exact on-disk key encoding.
pub fn encode_group_key(key: &GroupKey, out: &mut Vec<u8>) {
    match key {
        GroupKey::Cell(c) => {
            out.push(0);
            put_varint(out, c.raw());
        }
        GroupKey::CellType(c, seg) => {
            out.push(1);
            put_varint(out, c.raw());
            out.push(seg.id());
        }
        GroupKey::CellRoute(c, o, d, seg) => {
            out.push(2);
            put_varint(out, c.raw());
            put_varint(out, *o as u64);
            put_varint(out, *d as u64);
            out.push(seg.id());
        }
    }
}

/// Decodes a [`GroupKey`], advancing `input` past it.
pub fn decode_group_key(input: &mut &[u8]) -> Result<GroupKey, WireError> {
    let (&tag, rest) = input.split_first().ok_or(WireError("key truncated"))?;
    *input = rest;
    let cell = CellIndex::from_raw(get_varint(input)?).map_err(|_| WireError("bad cell index"))?;
    let seg = |input: &mut &[u8]| -> Result<MarketSegment, WireError> {
        let (&id, rest) = input.split_first().ok_or(WireError("segment truncated"))?;
        *input = rest;
        MarketSegment::from_id(id).ok_or(WireError("bad segment id"))
    };
    match tag {
        0 => Ok(GroupKey::Cell(cell)),
        1 => Ok(GroupKey::CellType(cell, seg(input)?)),
        2 => {
            let o = get_varint(input)? as u16;
            let d = get_varint(input)? as u16;
            Ok(GroupKey::CellRoute(cell, o, d, seg(input)?))
        }
        _ => Err(WireError("bad key tag")),
    }
}

/// Appends the canonical encoding of a [`CellStats`] to `out`.
///
/// The encoding is deterministic (sketches with set semantics sort their
/// contents), so equal statistics always produce identical bytes — the
/// serving layer relies on this to compare summaries by encoding.
pub fn encode_cell_stats(s: &CellStats, out: &mut Vec<u8>) {
    put_varint(out, s.records);
    s.ships.encode(out);
    s.trips.encode(out);
    s.speed.encode(out);
    s.speed_q.encode(out);
    s.course.encode(out);
    s.course_bins.encode(out);
    s.heading.encode(out);
    s.heading_bins.encode(out);
    s.eto.encode(out);
    s.eto_q.encode(out);
    s.ata.encode(out);
    s.ata_q.encode(out);
    s.origins.encode(out);
    s.destinations.encode(out);
    s.transitions.encode(out);
}

/// Decodes a [`CellStats`], advancing `input` past it.
pub fn decode_cell_stats(input: &mut &[u8]) -> Result<CellStats, WireError> {
    Ok(CellStats {
        records: get_varint(input)?,
        ships: Wire::decode(input)?,
        trips: Wire::decode(input)?,
        speed: Wire::decode(input)?,
        speed_q: Wire::decode(input)?,
        course: Wire::decode(input)?,
        course_bins: Wire::decode(input)?,
        heading: Wire::decode(input)?,
        heading_bins: Wire::decode(input)?,
        eto: Wire::decode(input)?,
        eto_q: Wire::decode(input)?,
        ata: Wire::decode(input)?,
        ata_q: Wire::decode(input)?,
        origins: Wire::decode(input)?,
        destinations: Wire::decode(input)?,
        transitions: Wire::decode(input)?,
    })
}

/// Serializes an inventory to its complete file image (magic through
/// sealed footer).
pub fn to_bytes(inv: &Inventory) -> Vec<u8> {
    // Header section.
    let mut header = Vec::with_capacity(16);
    header.push(inv.resolution().level());
    put_varint(&mut header, inv.total_records());
    put_varint(&mut header, inv.len() as u64);

    // Entries section. Deterministic output: sort by key.
    let mut body = Vec::new();
    let mut entries: Vec<(&GroupKey, &CellStats)> = inv.iter().collect();
    entries.sort_by_key(|(k, _)| **k);
    for (k, s) in entries {
        encode_group_key(k, &mut body);
        encode_cell_stats(s, &mut body);
    }

    let mut out = Vec::with_capacity(MAGIC.len() + header.len() + body.len() + 52);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(header.len() as u32).to_le_bytes());
    out.extend_from_slice(&header);
    out.extend_from_slice(&crc64(&header).to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc64(&body).to_le_bytes());
    let file_len = out.len() as u64 + 16; // footer included
    out.extend_from_slice(&file_len.to_le_bytes());
    out.extend_from_slice(FOOTER_MAGIC);
    out
}

/// The validated sections of a version-2 file image: decoded header
/// fields, the raw entries bytes, and both section checksums.
struct Sections<'a> {
    resolution: Resolution,
    total_records: u64,
    declared_entries: usize,
    entries_bytes: &'a [u8],
    header_crc: u64,
    entries_crc: u64,
}

/// Structurally validates a file image: magic, footer seal, section
/// framing, and both CRCs. Does **not** decode the entries.
fn parse_sections(bytes: &[u8]) -> Result<Sections<'_>, CodecError> {
    // Magic first: "this is not an inventory at all" must win over
    // "this inventory is damaged" for arbitrary non-inventory input.
    if !bytes.starts_with(MAGIC) {
        return Err(CodecError::BadHeader);
    }

    // Footer seal: the file must end with its own length and the seal
    // magic, proving the write that produced it ran to completion.
    if bytes.len() < MAGIC.len() + 16 {
        return Err(CodecError::Unsealed);
    }
    let seal_at = bytes.len() - FOOTER_MAGIC.len();
    if &bytes[seal_at..] != FOOTER_MAGIC {
        return Err(CodecError::Unsealed);
    }
    let len_at = seal_at - 8;
    let recorded = u64::from_le_bytes(
        bytes[len_at..seal_at]
            .try_into()
            .map_err(|_| CodecError::Unsealed)?,
    );
    if recorded != bytes.len() as u64 {
        return Err(CodecError::Unsealed);
    }

    // Header section.
    let mut at = MAGIC.len();
    let take = |at: &mut usize, n: usize| -> Result<&[u8], CodecError> {
        let end = at.checked_add(n).ok_or(CodecError::Unsealed)?;
        if end > len_at {
            return Err(CodecError::Unsealed);
        }
        let s = &bytes[*at..end];
        *at = end;
        Ok(s)
    };
    let header_len = u32::from_le_bytes(
        take(&mut at, 4)?
            .try_into()
            .map_err(|_| CodecError::Unsealed)?,
    ) as usize;
    let header = take(&mut at, header_len)?;
    let header_crc = u64::from_le_bytes(
        take(&mut at, 8)?
            .try_into()
            .map_err(|_| CodecError::Unsealed)?,
    );
    if crc64(header) != header_crc {
        return Err(CodecError::Checksum { section: "header" });
    }
    let mut h = header;
    let (&res_raw, rest) = h.split_first().ok_or(CodecError::BadHeader)?;
    h = rest;
    let resolution = Resolution::new(res_raw).ok_or(CodecError::BadHeader)?;
    let total_records = get_varint(&mut h).map_err(CodecError::Wire)?;
    let declared_entries = get_varint(&mut h).map_err(CodecError::Wire)? as usize;
    if !h.is_empty() {
        return Err(CodecError::Wire(WireError("trailing header bytes")));
    }

    // Entries section.
    let entries_len = u64::from_le_bytes(
        take(&mut at, 8)?
            .try_into()
            .map_err(|_| CodecError::Unsealed)?,
    );
    let entries_len = usize::try_from(entries_len).map_err(|_| CodecError::Unsealed)?;
    let entries_bytes = take(&mut at, entries_len)?;
    let entries_crc = u64::from_le_bytes(
        take(&mut at, 8)?
            .try_into()
            .map_err(|_| CodecError::Unsealed)?,
    );
    if at != len_at {
        return Err(CodecError::Unsealed);
    }
    if crc64(entries_bytes) != entries_crc {
        return Err(CodecError::Checksum { section: "entries" });
    }

    // Hostile-input guard: the declared entry count must be achievable
    // in the bytes that actually follow, otherwise a corrupt (or
    // malicious) header could make us allocate gigabytes before the
    // first decode error. Every entry is at least MIN_ENTRY_BYTES long.
    if declared_entries > entries_bytes.len() / MIN_ENTRY_BYTES {
        return Err(CodecError::Wire(WireError("entry count exceeds buffer")));
    }

    Ok(Sections {
        resolution,
        total_records,
        declared_entries,
        entries_bytes,
        header_crc,
        entries_crc,
    })
}

/// Deserializes an inventory from a complete file image.
pub fn from_bytes(bytes: &[u8]) -> Result<Inventory, CodecError> {
    let sections = parse_sections(bytes)?;
    let mut input = sections.entries_bytes;
    let mut entries = FxHashMap::default();
    entries.reserve(sections.declared_entries);
    for _ in 0..sections.declared_entries {
        let key = decode_group_key(&mut input)?;
        let stats = decode_cell_stats(&mut input)?;
        entries.insert(key, stats);
    }
    if !input.is_empty() {
        return Err(CodecError::Wire(WireError("trailing bytes")));
    }
    Ok(Inventory::from_entries(
        sections.resolution,
        entries,
        sections.total_records,
    ))
}

/// What [`verify`] found in a structurally sound inventory file.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// Total file length in bytes, as recorded in the sealed footer.
    pub file_len: u64,
    /// The header section's CRC-64 (verified against its bytes).
    pub header_crc: u64,
    /// The entries section's CRC-64 (verified against its bytes).
    pub entries_crc: u64,
    /// Grid resolution level of the stored inventory.
    pub resolution: u8,
    /// Input records summarised by the stored inventory.
    pub total_records: u64,
    /// Group-identifier entries decoded from the entries section.
    pub entries: usize,
}

/// Audits a file image end to end: footer seal, section CRCs, and a full
/// decode of every entry (catching logical corruption a checksum of
/// buggy bytes would bless). Returns what was found; any failure is the
/// same typed [`CodecError`] a [`load`] would produce.
pub fn verify_bytes(bytes: &[u8]) -> Result<VerifyReport, CodecError> {
    let sections = parse_sections(bytes)?;
    let inv = from_bytes(bytes)?;
    Ok(VerifyReport {
        file_len: bytes.len() as u64,
        header_crc: sections.header_crc,
        entries_crc: sections.entries_crc,
        resolution: sections.resolution.level(),
        total_records: sections.total_records,
        entries: inv.len(),
    })
}

/// Audits an inventory file on disk (see [`verify_bytes`]).
pub fn verify(path: &Path) -> Result<VerifyReport, CodecError> {
    let mut buf = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut buf)?;
    verify_bytes(&buf)
}

/// Writes an inventory's complete file image to a writer.
pub fn write_to<W: Write>(inv: &Inventory, mut w: W) -> io::Result<()> {
    w.write_all(&to_bytes(inv))
}

/// Reads an inventory from a reader.
pub fn read_from<R: Read>(mut r: R) -> Result<Inventory, CodecError> {
    let mut buf = Vec::new();
    r.read_to_end(&mut buf)?;
    from_bytes(&buf)
}

/// Distinguishes temp files of concurrent saves within one process.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_sibling(path: &Path) -> PathBuf {
    let stem = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "inventory".to_string());
    let unique = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    path.with_file_name(format!(".{stem}.tmp.{}.{unique}", std::process::id()))
}

fn chaos_io(what: &str) -> io::Error {
    io::Error::other(format!("chaos: injected {what} failure"))
}

/// Saves an inventory to a file, crash-safely: the bytes are written to
/// a sibling temp file, fsynced, atomically renamed into place, and the
/// directory entry is fsynced. Readers of `path` observe either the old
/// complete file or the new complete file, never a torn one. On any
/// failure the temp file is removed and `path` is untouched.
pub fn save(inv: &Inventory, path: &Path) -> io::Result<()> {
    save_bytes(&to_bytes(inv), path)
}

/// Crash-safely writes a complete file image to `path` using the same
/// temp-sibling + fsync + atomic-rename discipline as [`save`]. Shared
/// by every snapshot format (v2 here, columnar v3 in
/// [`columnar::save`]) so the durability guarantees — and the
/// `codec.save.*` chaos failpoints — cover both.
pub fn save_bytes(bytes: &[u8], path: &Path) -> io::Result<()> {
    let tmp = temp_sibling(path);
    let result = write_rename_sync(bytes, &tmp, path);
    if result.is_err() {
        // Failure must not leave a half-written sibling behind.
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

fn write_rename_sync(bytes: &[u8], tmp: &Path, path: &Path) -> io::Result<()> {
    let mut f = std::fs::File::create(tmp)?;
    if pol_chaos::fire("codec.save.write") {
        return Err(chaos_io("write"));
    }
    f.write_all(bytes)?;
    // fsync before rename: the rename must never publish a name whose
    // bytes are still only in the page cache.
    f.sync_all()?;
    drop(f);
    if pol_chaos::fire("codec.save.rename") {
        return Err(chaos_io("rename"));
    }
    std::fs::rename(tmp, path)?;
    // Make the rename itself durable by fsyncing the directory entry.
    // Best-effort: not every platform/filesystem lets a directory be
    // opened for syncing, and the data itself is already safe on disk.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Loads an inventory from a file, verifying the footer seal and every
/// section checksum before trusting a byte of it.
pub fn load(path: &Path) -> Result<Inventory, CodecError> {
    read_from(io::BufReader::new(std::fs::File::open(path)?))
}

/// Which snapshot format a file's leading magic bytes announce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotFormat {
    /// Row-oriented POLINV2 (full decode on load).
    V2,
    /// Columnar POLINV3 (mmap-friendly, lazily decoded).
    V3,
    /// POLMAN1 delta-chain manifest (base + deltas, merged on load).
    Manifest,
}

/// Identifies the snapshot format from a byte prefix (at least 8
/// bytes). `None` when the prefix names no known format.
pub fn sniff_format(prefix: &[u8]) -> Option<SnapshotFormat> {
    if prefix.len() < MAGIC.len() {
        return None;
    }
    match &prefix[..MAGIC.len()] {
        m if m == MAGIC => Some(SnapshotFormat::V2),
        m if m == columnar::MAGIC_V3 => Some(SnapshotFormat::V3),
        m if m == manifest::MAGIC_MANIFEST => Some(SnapshotFormat::Manifest),
        _ => None,
    }
}

/// Reads a file's magic and identifies its snapshot format.
pub fn sniff_file(path: &Path) -> Result<Option<SnapshotFormat>, io::Error> {
    let mut magic = [0u8; 8];
    let mut f = std::fs::File::open(path)?;
    match f.read_exact(&mut magic) {
        Ok(()) => Ok(sniff_format(&magic)),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(None),
        Err(e) => Err(e),
    }
}

/// Loads an inventory from a file of either supported format, sniffing
/// the magic first — the transparent path for tools that only need a
/// heap [`Inventory`] and do not care how it was stored.
pub fn load_any(path: &Path) -> Result<Inventory, CodecError> {
    match sniff_file(path)? {
        Some(SnapshotFormat::V3) => columnar::load(path),
        Some(SnapshotFormat::Manifest) => Ok(manifest::load_chain(path)?.0),
        // Unknown magic still goes through the v2 loader so the error
        // is the same typed BadHeader a v2 load would produce.
        _ => load(path),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{CellPoint, TripPoint};
    use pol_ais::types::Mmsi;
    use pol_geo::LatLon;
    use pol_hexgrid::cell_at;

    fn sample_inventory(n: usize) -> Inventory {
        let res = Resolution::new(6).unwrap();
        let mut entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
        for i in 0..n {
            let pos = LatLon::new(10.0 + (i % 50) as f64, (i % 120) as f64).unwrap();
            let cell = cell_at(pos, res);
            let cp = CellPoint {
                point: TripPoint {
                    mmsi: Mmsi(100 + (i % 9) as u32),
                    timestamp: i as i64,
                    pos,
                    sog_knots: Some(8.0 + (i % 10) as f64),
                    cog_deg: Some((i * 17 % 360) as f64),
                    heading_deg: Some((i * 13 % 360) as f64),
                    segment: MarketSegment::from_id((i % 6) as u8).unwrap(),
                    trip_id: (i % 12) as u64,
                    origin: (i % 4) as u16,
                    dest: (i % 5) as u16,
                    eto_secs: i as i64 * 60,
                    ata_secs: (n - i) as i64 * 60,
                },
                cell,
                next_cell: (i % 3 == 0).then(|| {
                    cell_at(
                        LatLon::new(10.5 + (i % 50) as f64, (i % 120) as f64).unwrap(),
                        res,
                    )
                }),
            };
            for key in [
                GroupKey::Cell(cell),
                GroupKey::CellType(cell, cp.point.segment),
                GroupKey::CellRoute(cell, cp.point.origin, cp.point.dest, cp.point.segment),
            ] {
                entries
                    .entry(key)
                    .or_insert_with(|| CellStats::new(0.02, 8))
                    .observe(&cp);
            }
        }
        Inventory::from_entries(res, entries, n as u64)
    }

    #[test]
    fn round_trip_preserves_everything_observable() {
        let inv = sample_inventory(500);
        let bytes = to_bytes(&inv);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.resolution(), inv.resolution());
        assert_eq!(back.total_records(), inv.total_records());
        assert_eq!(back.len(), inv.len());
        for (key, stats) in inv.iter() {
            let b = back.get(key).unwrap_or_else(|| panic!("missing {key:?}"));
            assert_eq!(b.records, stats.records);
            assert_eq!(b.ships.estimate(), stats.ships.estimate());
            assert_eq!(b.trips.estimate(), stats.trips.estimate());
            assert_eq!(b.speed.mean(), stats.speed.mean());
            assert_eq!(b.course_bins.counts(), stats.course_bins.counts());
            assert_eq!(b.top_destinations(3), stats.top_destinations(3));
            let mut bq = b.speed_q.clone();
            let mut sq = stats.speed_q.clone();
            assert_eq!(bq.quantile(0.5), sq.quantile(0.5));
        }
        let (ca, cb) = (inv.coverage(), back.coverage());
        assert_eq!(ca, cb);
    }

    #[test]
    fn deterministic_bytes() {
        let a = to_bytes(&sample_inventory(300));
        let b = to_bytes(&sample_inventory(300));
        assert_eq!(a, b, "serialization must be canonical");
    }

    #[test]
    fn file_image_is_sealed() {
        let bytes = to_bytes(&sample_inventory(20));
        assert_eq!(&bytes[..8], MAGIC);
        assert_eq!(&bytes[bytes.len() - 8..], FOOTER_MAGIC);
        let len = u64::from_le_bytes(bytes[bytes.len() - 16..bytes.len() - 8].try_into().unwrap());
        assert_eq!(len, bytes.len() as u64);
    }

    #[test]
    fn rejects_garbage_truncation_and_extension() {
        assert!(matches!(
            from_bytes(b"not an inventory"),
            Err(CodecError::BadHeader)
        ));
        let bytes = to_bytes(&sample_inventory(50));
        let truncated = &bytes[..bytes.len() - 10];
        assert!(matches!(from_bytes(truncated), Err(CodecError::Unsealed)));
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(from_bytes(&extended), Err(CodecError::Unsealed)));
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        // The acceptance property in miniature (the full sweep is a
        // proptest): flip one bit anywhere, get a typed error.
        let bytes = to_bytes(&sample_inventory(10));
        for byte in (0..bytes.len()).step_by(11) {
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 1 << (byte % 8);
            assert!(
                from_bytes(&corrupt).is_err(),
                "bit flip at byte {byte} went undetected"
            );
        }
    }

    #[test]
    fn body_corruption_reports_the_entries_section() {
        let bytes = to_bytes(&sample_inventory(50));
        // Flip a bit well inside the entries section (past magic +
        // header, before the trailer).
        let mut corrupt = bytes.clone();
        let mid = bytes.len() / 2;
        corrupt[mid] ^= 0x10;
        match from_bytes(&corrupt).err() {
            Some(CodecError::Checksum { section: "entries" }) => {}
            other => panic!("expected entries checksum failure, got {other:?}"),
        }
    }

    #[test]
    fn min_entry_bound_is_sound() {
        // The allocation guard divides by MIN_ENTRY_BYTES, so the bound
        // must never exceed the true minimum entry size.
        let mut buf = Vec::new();
        let smallest_key = GroupKey::Cell(cell_at(
            LatLon::new(0.0, 0.0).unwrap(),
            Resolution::new(0).unwrap(),
        ));
        encode_group_key(&smallest_key, &mut buf);
        encode_cell_stats(&CellStats::new(0.02, 8), &mut buf);
        assert!(
            buf.len() >= MIN_ENTRY_BYTES,
            "empty entry is {} bytes, below MIN_ENTRY_BYTES={MIN_ENTRY_BYTES}",
            buf.len()
        );
    }

    /// Builds a structurally valid v2 image around explicit header and
    /// entries bytes (CRCs and footer computed for the caller, so tests
    /// can forge *semantically* hostile but *checksum-valid* files).
    fn forge_image(header: &[u8], entries: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(header.len() as u32).to_le_bytes());
        out.extend_from_slice(header);
        out.extend_from_slice(&crc64(header).to_le_bytes());
        out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        out.extend_from_slice(entries);
        out.extend_from_slice(&crc64(entries).to_le_bytes());
        let file_len = out.len() as u64 + 16;
        out.extend_from_slice(&file_len.to_le_bytes());
        out.extend_from_slice(FOOTER_MAGIC);
        out
    }

    #[test]
    fn hostile_entry_count_rejected_before_allocating() {
        // A checksum-valid header declaring 2^60 entries over a tiny
        // body must fail fast with a typed error instead of reserving a
        // huge map (CRCs prove integrity, not honesty).
        let mut header = vec![6u8]; // resolution
        put_varint(&mut header, 0); // total records
        put_varint(&mut header, 1 << 60); // declared entry count
        let bytes = forge_image(&header, &[0u8; 32]);
        match from_bytes(&bytes).err() {
            Some(CodecError::Wire(WireError(msg))) => {
                assert!(msg.contains("entry count"), "unexpected error: {msg}")
            }
            other => panic!("expected entry-count error, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_headers_rejected() {
        // Empty input, short input, wrong magic (the retired POLINV1
        // among them), truncated after magic, bad resolution byte: all
        // typed, never panics.
        assert!(matches!(from_bytes(&[]), Err(CodecError::BadHeader)));
        assert!(matches!(
            from_bytes(&MAGIC[..4]),
            Err(CodecError::BadHeader)
        ));
        for wrong_magic in [b"XOLINV2\0\x06", b"POLINV1\0\x06"] {
            assert!(matches!(
                from_bytes(wrong_magic),
                Err(CodecError::BadHeader)
            ));
        }
        assert!(matches!(from_bytes(&MAGIC[..]), Err(CodecError::Unsealed)));
        let bad_res = forge_image(&[99], &[]); // resolution out of range
        assert!(matches!(from_bytes(&bad_res), Err(CodecError::BadHeader)));
    }

    #[test]
    fn truncated_at_every_offset_is_typed_error() {
        let bytes = to_bytes(&sample_inventory(50));
        // Chop the stream at many offsets: every prefix must decode to a
        // typed error (BadHeader inside the magic, Unsealed after).
        for cut in (0..bytes.len() - 1).step_by(7) {
            match from_bytes(&bytes[..cut]).err() {
                Some(CodecError::BadHeader) | Some(CodecError::Unsealed) => {}
                other => panic!("prefix of {cut} bytes: expected typed error, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_inventory_round_trips() {
        let inv = Inventory::from_entries(Resolution::new(7).unwrap(), FxHashMap::default(), 0);
        let back = from_bytes(&to_bytes(&inv)).unwrap();
        assert_eq!(back.len(), 0);
        assert_eq!(back.resolution().level(), 7);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("pol-codec-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inv.pol");
        let inv = sample_inventory(100);
        save(&inv, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.len(), inv.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_overwrites_atomically_and_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join("pol-codec-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inv.pol");
        save(&sample_inventory(30), &path).unwrap();
        let first_len = std::fs::metadata(&path).unwrap().len();
        save(&sample_inventory(120), &path).unwrap();
        let second_len = std::fs::metadata(&path).unwrap().len();
        assert!(second_len > first_len);
        assert!(load(&path).is_ok());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_save_cleans_up_temp_and_preserves_target() {
        // Force a rename failure without failpoints: renaming a file
        // over an existing *directory* fails on every platform.
        let dir = std::env::temp_dir().join("pol-codec-failpath-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(dir.join("target.pol")).unwrap();
        let err = save(&sample_inventory(10), &dir.join("target.pol"));
        assert!(err.is_err(), "rename onto a directory must fail");
        assert!(
            dir.join("target.pol").is_dir(),
            "failed save must not clobber the destination"
        );
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_passes_fresh_and_flags_flipped() {
        let inv = sample_inventory(80);
        let bytes = to_bytes(&inv);
        let report = verify_bytes(&bytes).unwrap();
        assert_eq!(report.entries, inv.len());
        assert_eq!(report.total_records, inv.total_records());
        assert_eq!(report.resolution, inv.resolution().level());
        assert_eq!(report.file_len, bytes.len() as u64);

        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x01;
        assert!(verify_bytes(&corrupt).is_err());
    }

    #[test]
    fn compact_relative_to_records() {
        // The "compact data model" claim: serialized size per input record
        // shrinks as records concentrate in cells.
        let inv = sample_inventory(5_000);
        let bytes = to_bytes(&inv);
        // 5 000 records × ~64 B raw ≈ 320 kB; the inventory should not be
        // wildly larger than the raw data at this tiny scale and becomes
        // far smaller at real scale (cells saturate, records keep growing).
        assert!(
            bytes.len() < 5_000 * 200,
            "serialized {} bytes",
            bytes.len()
        );
    }
}
