//! Crash-safe binary persistence for the inventory: what every on-disk
//! format shares.
//!
//! An inventory is stored as one POLINV4 file ([`columnar`]) — the file
//! `polinv build` writes is the file `pol-serve` maps — or as a POLMAN2
//! chain ([`manifest`]) linking a POLINV4 base to its POLINV4 deltas;
//! [`wal`] is the ingest journal. This module holds the pieces those
//! formats have in common: the typed [`CodecError`], the canonical
//! [`CellStats`] encoding, the footer seal and magic sniffing
//! ([`load_any`]). How a file reaches the disk — [`save_bytes`]'s atomic
//! replace, the append-only files, the directory rule — is [`durable`]'s
//! alone.
//!
//! ## The footer seal
//!
//! Every sealed image ends `u64 LE total file length, b"POLSEAL\0"`, and
//! every section inside it carries its own [`pol_sketch::crc64`]
//! checksum. [`seal`] writes that footer for every sealed format —
//! POLINV4, POLMAN2, the POLCKP2 checkpoint head and a sealed POLWAL1
//! segment — and [`unseal`] proves it. A load first proves the file
//! *ends* correctly, so truncation from a torn write is detected before
//! any section is trusted, then proves each section's bytes are the
//! bytes that were written. Any single bit flip anywhere in a file
//! surfaces as a typed [`CodecError`] — property-tested in
//! `tests/codec_columnar.rs`, audited on demand by `polinv verify`.

pub mod columnar;
pub mod durable;
pub mod manifest;
pub mod wal;

pub use durable::save_bytes;

use crate::features::CellStats;
use crate::inventory::Inventory;
use pol_sketch::tally::Heaviest;
use pol_sketch::wire::{
    get_varint, loghist_quantiles_counted, put_varint, skip_varint, tally_heaviest, Wire, WireError,
};
use pol_sketch::{
    AngleHistogram, Circular, Distinct, LogHistogram, SecondsMoments, SpeedMoments, Tally,
};
use std::fmt;
use std::io::{self, Read};
use std::path::Path;

/// Footer seal magic — the last 8 bytes of every complete inventory file.
pub const FOOTER_MAGIC: &[u8; 8] = b"POLSEAL\0";

/// Bytes of the footer seal: the recorded file length and
/// [`FOOTER_MAGIC`].
const FOOTER_LEN: usize = 16;

/// Appends the footer seal to `out`, the bytes of a file from offset
/// `start` on: the file's length once the footer is written, then
/// [`FOOTER_MAGIC`].
pub fn seal(out: &mut Vec<u8>, start: u64) {
    let file_len = start + (out.len() + FOOTER_LEN) as u64;
    out.extend_from_slice(&file_len.to_le_bytes());
    out.extend_from_slice(FOOTER_MAGIC);
}

/// Proves a sealed file image — its leading `magic`, its footer seal
/// and the file length the seal records — and hands back the bytes in
/// between. Another magic is [`CodecError::BadHeader`]; a missing,
/// broken or misplaced seal is [`CodecError::Unsealed`].
pub fn unseal<'a>(bytes: &'a [u8], magic: &[u8; 8]) -> Result<&'a [u8], CodecError> {
    let rest = bytes
        .strip_prefix(magic.as_slice())
        .ok_or(CodecError::BadHeader)?;
    let (inner, footer) = rest
        .split_last_chunk::<FOOTER_LEN>()
        .ok_or(CodecError::Unsealed)?;
    let (recorded, seal) = footer.split_at(8);
    if seal != FOOTER_MAGIC || recorded != (bytes.len() as u64).to_le_bytes() {
        return Err(CodecError::Unsealed);
    }
    Ok(inner)
}

/// A conservative lower bound on the serialized size of one inventory
/// entry (its key + all sixteen statistics in their empty form). An
/// empty [`CellStats`] alone encodes to 43 bytes (checked by a
/// regression test); 32 keeps headroom for future slimmer encodings while
/// still bounding allocation to `input_len / 32` entries.
pub const MIN_ENTRY_BYTES: usize = 32;

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
        /// [`columnar::SectionKind::name`] for POLINV4 files,
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

/// Appends the canonical encoding of a [`CellStats`] to `out`.
///
/// The encoding is deterministic (sketches with set semantics sort their
/// contents, and no field is a float), so equal statistics always
/// produce identical bytes — the serving layer relies on this to compare
/// summaries by encoding — and, since every merge is exact, so do any
/// two folds of the same records.
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
    SpeedMoments::skip(input)?; // speed
    LogHistogram::skip(input)?; // speed_q
    Circular::skip(input)?; // course
    AngleHistogram::skip(input)?; // course_bins
    Circular::skip(input)?; // heading
    AngleHistogram::skip(input)?; // heading_bins
    SecondsMoments::skip(input)?; // eto
    LogHistogram::skip(input) // eto_q
}

/// `ata` and the quantiles `phis` of `ata_q` of an encoded
/// [`CellStats`] — what an ETA estimate reads — equal to those fields of
/// [`decode_cell_stats`] and then [`LogHistogram::quantiles`], with the
/// eleven fields before them walked past, the quantile summary read off
/// the bytes, not built, and the three fields after not looked at.
pub(crate) fn decode_arrival_quantiles<const N: usize>(
    mut input: &[u8],
    phis: [f64; N],
) -> Result<(SecondsMoments, [Option<f64>; N]), WireError> {
    skip_to_ata(&mut input)?;
    let ata: SecondsMoments = Wire::decode(&mut input)?;
    // Every record adds to both `ata` and `ata_q`, so the summary counts
    // `ata.count()` values: one walk answers.
    Ok((
        ata,
        loghist_quantiles_counted(&mut input, ata.count(), phis)?,
    ))
}

/// Walks `input` past the fields [`encode_cell_stats`] writes before
/// `destinations`.
fn skip_to_destinations(input: &mut &[u8]) -> Result<(), WireError> {
    skip_to_ata(input)?;
    SecondsMoments::skip(input)?; // ata
    LogHistogram::skip(input)?; // ata_q
    Tally::skip(input) // origins
}

/// The `destinations` field of an encoded [`CellStats`] — what a
/// destination prediction reads — equal to that of
/// [`decode_cell_stats`] on the same bytes.
pub fn decode_destinations(mut input: &[u8]) -> Result<Tally, WireError> {
    skip_to_destinations(&mut input)?;
    Wire::decode(&mut input)
}

/// The `N` heaviest `destinations` of an encoded [`CellStats`], equal to
/// [`decode_destinations`] and then [`Tally::top`]`(N)`, read off
/// the bytes: no tally and no vector is built.
pub(crate) fn decode_heaviest_destinations<const N: usize>(
    mut input: &[u8],
) -> Result<Heaviest<N>, WireError> {
    skip_to_destinations(&mut input)?;
    tally_heaviest(&mut input)
}

/// Which snapshot format a file's leading magic bytes announce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotFormat {
    /// Columnar POLINV4 (mmap-friendly, lazily decoded).
    V4,
    /// POLMAN2 delta-chain manifest (base + deltas).
    Manifest,
}

/// Identifies the snapshot format from a byte prefix (at least 8
/// bytes). `None` when the prefix names no known format.
pub fn sniff_format(prefix: &[u8]) -> Option<SnapshotFormat> {
    match prefix.first_chunk::<8>()? {
        m if m == columnar::MAGIC_V4 => Some(SnapshotFormat::V4),
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
        Some(SnapshotFormat::V4) => columnar::load(path),
        Some(SnapshotFormat::Manifest) => Ok(manifest::load_chain(path)?.0),
        None => Err(CodecError::BadHeader),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::GroupKey;
    use crate::records::{CellPoint, TripPoint};
    use pol_ais::types::{MarketSegment, Mmsi};
    use pol_geo::LatLon;
    use pol_hexgrid::{cell_at, Resolution};
    use pol_sketch::hash::FxHashMap;
    use std::path::PathBuf;

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

    /// `inv` with one course observation of its smallest key moved to
    /// the next 30° bin: every count stays a one-byte varint, so the two
    /// POLINV4 images share their layout and differ in one statistic.
    pub(super) fn one_statistic_apart(inv: &Inventory) -> Inventory {
        let mut entries: FxHashMap<GroupKey, CellStats> =
            inv.iter().map(|(k, s)| (*k, s.clone())).collect();
        let first = entries.keys().min().copied().unwrap();
        let stats = entries.get_mut(&first).unwrap();
        let mut counts = stats.course_bins.counts();
        let from = counts.iter().position(|&c| c > 0).unwrap();
        let to = (from + 1) % counts.len();
        assert!(counts[to] < 127, "the moved count stays one byte");
        counts[from] -= 1;
        counts[to] += 1;
        stats.course_bins = pol_sketch::AngleHistogram::from_counts(counts);
        Inventory::from_entries(inv.resolution(), entries, inv.total_records())
    }

    /// The canonical encoding of one entry's statistics.
    fn stats_bytes(stats: &CellStats) -> Vec<u8> {
        let mut out = Vec::new();
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
            let bytes = stats_bytes(stats);
            let mut input = &bytes[..];
            let b = decode_cell_stats(&mut input).unwrap();
            assert!(input.is_empty(), "trailing bytes after {key:?}");
            assert_eq!(b.records, stats.records);
            assert_eq!(b.ships.estimate(), stats.ships.estimate());
            assert_eq!(b.trips.estimate(), stats.trips.estimate());
            assert_eq!(b.speed.mean(), stats.speed.mean());
            assert_eq!(b.course_bins.counts(), stats.course_bins.counts());
            assert_eq!(b.top_destinations(3), stats.top_destinations(3));
            assert_eq!(&b, stats);
            // Canonical fixed point: re-encoding the decoded entry gives
            // the bytes it was decoded from.
            assert_eq!(stats_bytes(&b), bytes);
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
                stats_bytes(stats),
                stats_bytes(other),
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
        // must never exceed the true minimum entry size: the statistics
        // alone, before the entry's key.
        let len = stats_bytes(&CellStats::new(0.02, 8)).len();
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
                let mut forged = columnar::MAGIC_V4.to_vec();
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
        // formats, the retired POLINV3 columnar format (its summaries
        // held floats) and the retired POLMAN1 manifest among them:
        // nothing decodes them any more, so each is the same typed
        // BadHeader as arbitrary bytes, never a panic.
        let dir = temp_dir("headers");
        let path = dir.join("inv.pol");
        let inputs: [&[u8]; 7] = [
            b"",
            b"POLI",
            b"XOLINV4\0\x06",
            b"POLINV3\0\x06padding past the magic",
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
        assert_eq!(sniff_file(&path).unwrap(), Some(SnapshotFormat::V4));
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
