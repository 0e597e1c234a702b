//! Crash-safe binary persistence for the inventory: what every on-disk
//! format shares.
//!
//! An inventory is stored as one POLINV3 file ([`columnar`]) — the file
//! `polinv build` writes is the file `pol-serve` maps — or as a POLMAN2
//! chain ([`manifest`]) linking a POLINV3 base to its POLINV3 deltas;
//! [`wal`] is the ingest journal. This module holds the pieces those
//! formats have in common: the typed [`CodecError`], the canonical
//! [`GroupKey`] and [`CellStats`] encodings, the footer seal, the
//! crash-safe [`save_bytes`] write, and magic sniffing ([`load_any`]).
//!
//! ## The footer seal
//!
//! Every sealed image ends `u64 LE total file length, b"POLSEAL\0"`, and
//! every section inside it carries its own [`pol_sketch::crc64`]
//! checksum. A load first proves the file *ends* correctly, so
//! truncation from a torn write is detected before any section is
//! trusted, then proves each section's bytes are the bytes that were
//! written. Any single bit flip anywhere in a file surfaces as a typed
//! [`CodecError`] — property-tested in `tests/codec_columnar.rs`,
//! audited on demand by `polinv verify`.
//!
//! ## Crash-safe writes
//!
//! [`save_bytes`] never exposes a half-written file: bytes go to a
//! sibling temp file, which is fsynced, atomically renamed over the
//! destination, and the directory entry is then fsynced. A crash (or an
//! injected `codec.save.*` failpoint) at any step leaves either the old
//! complete file or the new complete file, never a torn one, and the
//! temp file is removed on every failure path.

pub mod columnar;
pub mod manifest;
pub mod wal;

use crate::features::{CellStats, GroupKey};
use crate::inventory::Inventory;
use pol_ais::types::MarketSegment;
use pol_hexgrid::CellIndex;
use pol_sketch::wire::{get_varint, put_varint, skip_varint, Wire, WireError};
use pol_sketch::{AngleHistogram, Circular, Distinct, GkSketch, SpaceSaving, Welford};
use std::fmt;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

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
        /// Which section failed (`"header"` or a
        /// [`columnar::SectionKind::name`] for POLINV3 files,
        /// `"manifest"` or `"chain-file"` for POLMAN2 chains).
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

/// Walks `input` past the fields [`encode_cell_stats`] writes before
/// `ata`: every length is read and bounds-checked as a decode would,
/// nothing is built.
fn skip_to_ata(input: &mut &[u8]) -> Result<(), WireError> {
    skip_varint(input)?; // records
    Distinct::skip(input)?; // ships
    Distinct::skip(input)?; // trips
    Welford::skip(input)?; // speed
    GkSketch::skip(input)?; // speed_q
    Circular::skip(input)?; // course
    AngleHistogram::skip(input)?; // course_bins
    Circular::skip(input)?; // heading
    AngleHistogram::skip(input)?; // heading_bins
    Welford::skip(input)?; // eto
    GkSketch::skip(input) // eto_q
}

/// The `ata` and `ata_q` fields of an encoded [`CellStats`] — what an
/// ETA estimate reads — equal to those of [`decode_cell_stats`] on the
/// same bytes. The eleven fields before them are walked past and the
/// three after them are not looked at.
pub fn decode_arrival(mut input: &[u8]) -> Result<(Welford, GkSketch), WireError> {
    skip_to_ata(&mut input)?;
    Ok((Wire::decode(&mut input)?, Wire::decode(&mut input)?))
}

/// The `destinations` field of an encoded [`CellStats`] — what a
/// destination prediction reads — equal to that of
/// [`decode_cell_stats`] on the same bytes.
pub fn decode_destinations(mut input: &[u8]) -> Result<SpaceSaving<u64>, WireError> {
    skip_to_ata(&mut input)?;
    Welford::skip(&mut input)?; // ata
    GkSketch::skip(&mut input)?; // ata_q
    SpaceSaving::<u64>::skip(&mut input)?; // origins
    Wire::decode(&mut input)
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

/// Crash-safely writes a complete file image to `path`: the bytes are
/// written to a sibling temp file, fsynced, atomically renamed into
/// place, and the directory entry is fsynced. Readers of `path` observe
/// either the old complete file or the new complete file, never a torn
/// one. On any failure the temp file is removed and `path` is untouched.
/// Shared by every format (POLINV3 in [`columnar::save`], POLMAN2
/// manifests, stream checkpoints) so the durability guarantees — and
/// the `codec.save.*` chaos failpoints — cover them all.
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

/// Which snapshot format a file's leading magic bytes announce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotFormat {
    /// Columnar POLINV3 (mmap-friendly, lazily decoded).
    V3,
    /// POLMAN2 delta-chain manifest (base + deltas).
    Manifest,
}

/// Identifies the snapshot format from a byte prefix (at least 8
/// bytes). `None` when the prefix names no known format.
pub fn sniff_format(prefix: &[u8]) -> Option<SnapshotFormat> {
    match prefix.first_chunk::<8>()? {
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
/// heap [`Inventory`] and do not care how it was stored. Any other
/// magic, a retired format's included, is [`CodecError::BadHeader`].
pub fn load_any(path: &Path) -> Result<Inventory, CodecError> {
    match sniff_file(path)? {
        Some(SnapshotFormat::V3) => columnar::load(path),
        Some(SnapshotFormat::Manifest) => Ok(manifest::load_chain(path)?.0),
        None => Err(CodecError::BadHeader),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::CellStats;
    use crate::records::{CellPoint, TripPoint};
    use pol_ais::types::Mmsi;
    use pol_geo::LatLon;
    use pol_hexgrid::{cell_at, Resolution};
    use pol_sketch::hash::FxHashMap;

    /// The fixture of every codec unit test: `n` records spread over
    /// both hemispheres, all three grouping-set levels, some transitions.
    pub(super) fn sample_inventory(n: usize) -> Inventory {
        let res = Resolution::new(6).unwrap();
        let mut entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
        for i in 0..n {
            let (lat, lon) = (
                -50.0 + 2.0 * (i % 50) as f64,
                -120.0 + 2.0 * (i % 120) as f64,
            );
            let pos = LatLon::new(lat, lon).unwrap();
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
                next_cell: (i % 3 == 0).then(|| cell_at(LatLon::new(lat + 0.5, lon).unwrap(), res)),
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

    /// `inv` with its smallest key's speed moments replaced by others of
    /// the same observation count: every field keeps its width, so the
    /// two POLINV3 images share their layout and differ in one statistic.
    pub(super) fn one_statistic_apart(inv: &Inventory) -> Inventory {
        let mut entries: FxHashMap<GroupKey, CellStats> =
            inv.iter().map(|(k, s)| (*k, s.clone())).collect();
        let first = entries.keys().min().copied().unwrap();
        let stats = entries.get_mut(&first).unwrap();
        let mut speed = pol_sketch::Welford::new();
        for _ in 0..stats.speed.count() {
            speed.add(99.0);
        }
        stats.speed = speed;
        Inventory::from_entries(inv.resolution(), entries, inv.total_records())
    }

    /// The canonical encoding of one entry: tagged key, then statistics.
    fn entry_bytes(key: &GroupKey, stats: &CellStats) -> Vec<u8> {
        let mut out = Vec::new();
        encode_group_key(key, &mut out);
        encode_cell_stats(stats, &mut out);
        out
    }

    /// A scratch directory of this test's own.
    pub(super) fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pol-codec-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn temp_files_in(dir: &Path) -> Vec<std::ffi::OsString> {
        std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name())
            .filter(|n| n.to_string_lossy().contains(".tmp."))
            .collect()
    }

    #[test]
    fn round_trip_preserves_everything_observable() {
        let inv = sample_inventory(500);
        for (key, stats) in inv.iter() {
            let bytes = entry_bytes(key, stats);
            let mut input = &bytes[..];
            assert_eq!(decode_group_key(&mut input).unwrap(), *key);
            let b = decode_cell_stats(&mut input).unwrap();
            assert!(input.is_empty(), "trailing bytes after {key:?}");
            assert_eq!(b.records, stats.records);
            assert_eq!(b.ships.estimate(), stats.ships.estimate());
            assert_eq!(b.trips.estimate(), stats.trips.estimate());
            assert_eq!(b.speed.mean(), stats.speed.mean());
            assert_eq!(b.course_bins.counts(), stats.course_bins.counts());
            assert_eq!(b.top_destinations(3), stats.top_destinations(3));
            let mut bq = b.speed_q.clone();
            let mut sq = stats.speed_q.clone();
            assert_eq!(bq.quantile(0.5), sq.quantile(0.5));
            // Canonical fixed point: re-encoding the decoded entry gives
            // the bytes it was decoded from.
            assert_eq!(entry_bytes(key, &b), bytes);
        }
    }

    #[test]
    fn deterministic_bytes() {
        // Two independently built inventories (different hash-map
        // histories) encode every entry to identical bytes.
        let (a, b) = (sample_inventory(300), sample_inventory(300));
        assert_eq!(a.len(), b.len());
        for (key, stats) in a.iter() {
            let other = b.get(key).unwrap_or_else(|| panic!("missing {key:?}"));
            assert_eq!(
                entry_bytes(key, stats),
                entry_bytes(key, other),
                "serialization must be canonical"
            );
        }
    }

    #[test]
    fn file_image_is_sealed() {
        // Both sealed formats end with their own length and the seal.
        let inv = sample_inventory(20);
        let man = manifest::Manifest {
            entries: vec![manifest::ManifestEntry {
                generation: 0,
                file_len: 1,
                crc: 2,
                name: "base.pol".into(),
            }],
        };
        for bytes in [columnar::to_bytes(&inv), manifest::to_bytes(&man)] {
            let (body, seal) = bytes.split_at(bytes.len() - 8);
            assert_eq!(seal, FOOTER_MAGIC);
            let len = u64::from_le_bytes(body[body.len() - 8..].try_into().unwrap());
            assert_eq!(len, bytes.len() as u64);
        }
    }

    #[test]
    fn min_entry_bound_is_sound() {
        // The allocation guard divides by MIN_ENTRY_BYTES, so the bound
        // must never exceed the true minimum entry size.
        let smallest_key = GroupKey::Cell(cell_at(
            LatLon::new(0.0, 0.0).unwrap(),
            Resolution::new(0).unwrap(),
        ));
        let len = entry_bytes(&smallest_key, &CellStats::new(0.02, 8)).len();
        assert!(
            len >= MIN_ENTRY_BYTES,
            "empty entry is {len} bytes, below MIN_ENTRY_BYTES={MIN_ENTRY_BYTES}"
        );
    }

    #[test]
    fn hostile_entry_count_rejected_before_allocating() {
        // A checksum-valid header declaring a huge count over a tiny
        // body must fail fast with a typed error (CRCs prove integrity,
        // not honesty): the MIN_ENTRY_BYTES guard. In an empty
        // inventory's header every directory field is one byte —
        // resolution, total, section count, then `kind, count, offset,
        // length` per section — so section `k`'s count sits at `4 + 4k`;
        // patch it, re-seal, parse.
        let inv = Inventory::from_entries(Resolution::new(6).unwrap(), FxHashMap::default(), 0);
        let clean = columnar::to_bytes(&inv);
        let header_len = u32::from_le_bytes(clean[8..12].try_into().unwrap()) as usize;
        let (header, area) = clean[12..clean.len() - 16].split_at(header_len);
        for k in 0..columnar::SectionKind::ALL.len() {
            for claimed in [1u64 << 20, 1 << 60, u64::MAX] {
                let at = 4 + 4 * k;
                assert_eq!(header[at], 0, "section {k} of an empty inventory is empty");
                let mut forged_header = header[..at].to_vec();
                put_varint(&mut forged_header, claimed);
                forged_header.extend_from_slice(&header[at + 1..]);
                let mut forged = columnar::MAGIC_V3.to_vec();
                forged.extend_from_slice(&(forged_header.len() as u32).to_le_bytes());
                forged.extend_from_slice(&forged_header);
                forged.extend_from_slice(&pol_sketch::crc64::crc64(&forged_header).to_le_bytes());
                forged.extend_from_slice(&area[8..]); // past the old header CRC
                forged.extend_from_slice(&(forged.len() as u64 + 16).to_le_bytes());
                forged.extend_from_slice(FOOTER_MAGIC);
                match columnar::from_bytes(&forged).err() {
                    Some(CodecError::Wire(_)) => {}
                    other => panic!("section {k} claiming {claimed}: got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn corrupt_headers_rejected() {
        // Empty file, short file, wrong magic — the two retired row
        // formats and the retired POLMAN1 manifest among them: nothing
        // decodes them any more, so each is the same typed BadHeader as
        // arbitrary bytes, never a panic.
        let dir = temp_dir("headers");
        let path = dir.join("inv.pol");
        let inputs: [&[u8]; 6] = [
            b"",
            b"POLI",
            b"XOLINV3\0\x06",
            b"POLINV1\0\x06padding past the magic",
            b"POLINV2\0\x06padding past the magic",
            b"POLMAN1\0\x06padding past the magic",
        ];
        for bytes in inputs {
            assert_eq!(sniff_format(bytes), None);
            std::fs::write(&path, bytes).unwrap();
            assert!(matches!(sniff_file(&path), Ok(None)));
            assert!(
                matches!(load_any(&path), Err(CodecError::BadHeader)),
                "{bytes:?} must be BadHeader"
            );
        }
        assert!(matches!(
            load_any(&dir.join("absent.pol")),
            Err(CodecError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_garbage_truncation_and_extension() {
        let dir = temp_dir("damage");
        let path = dir.join("inv.pol");
        std::fs::write(&path, b"not an inventory").unwrap();
        assert!(matches!(load_any(&path), Err(CodecError::BadHeader)));
        let bytes = columnar::to_bytes(&sample_inventory(50));
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        assert!(matches!(load_any(&path), Err(CodecError::Unsealed)));
        let mut extended = bytes.clone();
        extended.push(0);
        std::fs::write(&path, &extended).unwrap();
        assert!(matches!(load_any(&path), Err(CodecError::Unsealed)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_at_every_offset_is_typed_error() {
        // Exhaustive where the proptests sample: no strict prefix loads.
        let bytes = columnar::to_bytes(&sample_inventory(8));
        for cut in 0..bytes.len() {
            match columnar::from_bytes(&bytes[..cut]).err() {
                Some(CodecError::BadHeader | CodecError::Unsealed) => {}
                other => panic!("prefix {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let mut bytes = columnar::to_bytes(&sample_inventory(8));
        for at in 0..bytes.len() {
            bytes[at] ^= 1 << (at % 8);
            let loaded = columnar::from_bytes(&bytes);
            assert!(loaded.is_err(), "bit flip at byte {at} went undetected");
            bytes[at] ^= 1 << (at % 8);
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = temp_dir("round-trip");
        let path = dir.join("inv.pol");
        let inv = sample_inventory(100);
        columnar::save(&inv, &path).unwrap();
        assert_eq!(sniff_file(&path).unwrap(), Some(SnapshotFormat::V3));
        let back = load_any(&path).unwrap();
        assert_eq!(columnar::to_bytes(&back), columnar::to_bytes(&inv));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_overwrites_atomically_and_leaves_no_temp_files() {
        let dir = temp_dir("atomic");
        let path = dir.join("inv.pol");
        columnar::save(&sample_inventory(30), &path).unwrap();
        let first_len = std::fs::metadata(&path).unwrap().len();
        columnar::save(&sample_inventory(120), &path).unwrap();
        let second_len = std::fs::metadata(&path).unwrap().len();
        assert!(second_len > first_len);
        assert!(columnar::load(&path).is_ok());
        let leftovers = temp_files_in(&dir);
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
        let dir = temp_dir("failpath");
        std::fs::create_dir_all(dir.join("target.pol")).unwrap();
        let err = columnar::save(&sample_inventory(10), &dir.join("target.pol"));
        assert!(err.is_err(), "rename onto a directory must fail");
        assert!(
            dir.join("target.pol").is_dir(),
            "failed save must not clobber the destination"
        );
        let leftovers = temp_files_in(&dir);
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_relative_to_records() {
        // The "compact data model" claim: serialized size per input record
        // shrinks as records concentrate in cells.
        let inv = sample_inventory(5_000);
        let bytes = columnar::to_bytes(&inv);
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
