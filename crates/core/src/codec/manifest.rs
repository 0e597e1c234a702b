//! POLMAN2 — the delta-chain manifest tying a base snapshot to its
//! incremental deltas.
//!
//! Streaming ingestion (`pol-stream`) emits periodic delta snapshots:
//! small POLINV4 files summarising only the trips finalized since the
//! previous emission. A manifest names the base snapshot plus every
//! delta in generation order. `pol-serve` maps the links and merges on
//! read; [`load_chain`] merges them into one heap inventory.
//!
//! ## On-disk layout
//!
//! ```text
//! magic    b"POLMAN2\0"                               8 bytes
//! body     entry-count varint, then per entry:
//!            generation varint, file-length varint,
//!            u64 LE content check of the link,
//!            name-length varint + relative file name
//! crc      u64 LE CRC-64/XZ of the body bytes         8 bytes
//! footer   u64 LE total file length, b"POLSEAL\0"     16 bytes
//! ```
//!
//! A link's content check is a CRC-64/XZ over its POLINV4 header CRC and
//! then its five section CRCs ([`Layout::content_crc`]). A CRC over the
//! whole file would not do: each block of a POLINV4 image is followed by
//! its own CRC, and a CRC run over `block ‖ crc(block)` ends in a state
//! fixed by the block's length, so two images one statistic apart share
//! their whole-file CRC. POLMAN1 recorded exactly that, and is refused
//! as [`CodecError::BadHeader`].
//!
//! Entry 0 is the base (generation 0); subsequent entries are deltas
//! with strictly ascending generations. Names are plain file names
//! resolved against the manifest's own directory — path separators are
//! rejected so a hostile manifest cannot reach outside it.
//!
//! ## Crash safety
//!
//! The manifest is the *commit record* of the chain. Writers persist the
//! new delta file first (via the crash-safe [`save_bytes`]
//! discipline, which also hosts the `codec.save.*` chaos failpoints) and
//! only then rewrite the manifest. A crash between the two leaves the
//! previous manifest naming only complete, verified files; a crash during
//! the manifest rewrite leaves the old manifest (atomic rename). Because
//! every entry records the referenced file's exact length and content
//! check, a manifest can never *silently* bless a torn, stale or swapped
//! file: every reader of a link ([`check_link`]) parses its layout —
//! every section CRC verified — and compares before using a byte of it.

use super::columnar::{self, Layout};
use super::{save_bytes, CodecError, FOOTER_MAGIC};
use crate::inventory::Inventory;
use pol_sketch::crc64::crc64;
use pol_sketch::wire::{get_varint, put_varint, WireError};
use std::io::{self, Read};
use std::path::Path;

/// File magic of the delta-chain manifest.
pub const MAGIC_MANIFEST: &[u8; 8] = b"POLMAN2\0";

/// The smallest possible serialized entry: one-byte generation, one-byte
/// length, 8-byte check, one-byte name length, one-byte name. Bounds the
/// entry count a hostile manifest can claim.
const MIN_MANIFEST_ENTRY_BYTES: usize = 12;

/// Longest accepted entry name — manifests name sibling files, not
/// arbitrary paths.
const MAX_NAME_BYTES: usize = 255;

/// One link of a delta chain: a snapshot file the manifest vouches for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestEntry {
    /// 0 for the base snapshot, then strictly ascending per delta.
    pub generation: u64,
    /// Exact byte length of the referenced file.
    pub file_len: u64,
    /// The referenced file's content check: [`Layout::content_crc`].
    pub crc: u64,
    /// Plain file name, resolved against the manifest's directory.
    pub name: String,
}

impl ManifestEntry {
    /// The entry naming `bytes`, a complete POLINV4 image, as link
    /// `generation` under file name `name`.
    pub fn for_link(generation: u64, name: String, bytes: &[u8]) -> Result<Self, CodecError> {
        Ok(ManifestEntry {
            generation,
            file_len: bytes.len() as u64,
            crc: Layout::parse(bytes)?.content_crc(),
            name,
        })
    }
}

/// A parsed delta-chain manifest: the base entry followed by deltas in
/// strictly ascending generation order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Chain entries; index 0 is the base (generation 0).
    pub entries: Vec<ManifestEntry>,
}

/// What a chain load found: the merged inventory's lineage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainInfo {
    /// Generation of the newest delta merged (0 = base only).
    pub generation: u64,
    /// Files in the chain, base included.
    pub chain_len: u64,
}

fn wire(msg: &'static str) -> CodecError {
    CodecError::Wire(WireError(msg))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_NAME_BYTES
        && !name.contains('/')
        && !name.contains('\\')
        && name != "."
        && name != ".."
}

/// Serializes a manifest to its complete sealed file image.
/// Deterministic: equal manifests always produce identical bytes.
pub fn to_bytes(man: &Manifest) -> Vec<u8> {
    let mut body = Vec::with_capacity(16 + man.entries.len() * 32);
    put_varint(&mut body, man.entries.len() as u64);
    for e in &man.entries {
        put_varint(&mut body, e.generation);
        put_varint(&mut body, e.file_len);
        body.extend_from_slice(&e.crc.to_le_bytes());
        put_varint(&mut body, e.name.len() as u64);
        body.extend_from_slice(e.name.as_bytes());
    }
    let mut out = Vec::with_capacity(MAGIC_MANIFEST.len() + body.len() + 24);
    out.extend_from_slice(MAGIC_MANIFEST);
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc64(&body).to_le_bytes());
    let file_len = out.len() as u64 + 16; // footer included
    out.extend_from_slice(&file_len.to_le_bytes());
    out.extend_from_slice(FOOTER_MAGIC);
    out
}

/// Parses and fully validates a manifest file image: magic, footer
/// seal, body CRC, entry-count allocation bound, base generation 0,
/// strictly ascending delta generations, and sibling-only names.
pub fn from_bytes(bytes: &[u8]) -> Result<Manifest, CodecError> {
    if bytes.len() < MAGIC_MANIFEST.len() || &bytes[..MAGIC_MANIFEST.len()] != MAGIC_MANIFEST {
        return Err(CodecError::BadHeader);
    }
    // Footer seal first, as everywhere else: prove the file *ends*
    // correctly before trusting anything in the middle.
    if bytes.len() < MAGIC_MANIFEST.len() + 24 {
        return Err(CodecError::Unsealed);
    }
    let seal_at = bytes.len() - FOOTER_MAGIC.len();
    if &bytes[seal_at..] != FOOTER_MAGIC {
        return Err(CodecError::Unsealed);
    }
    let len_at = seal_at - 8;
    let recorded = bytes
        .get(len_at..seal_at)
        .and_then(|b| Some(u64::from_le_bytes(b.try_into().ok()?)))
        .ok_or(CodecError::Unsealed)?;
    if recorded != bytes.len() as u64 {
        return Err(CodecError::Unsealed);
    }
    let crc_at = len_at - 8;
    let body = &bytes[MAGIC_MANIFEST.len()..crc_at];
    let body_crc = bytes
        .get(crc_at..len_at)
        .and_then(|b| Some(u64::from_le_bytes(b.try_into().ok()?)))
        .ok_or(CodecError::Unsealed)?;
    if crc64(body) != body_crc {
        return Err(CodecError::Checksum {
            section: "manifest",
        });
    }

    let mut input = body;
    let count = get_varint(&mut input)? as usize;
    if count == 0 {
        return Err(wire("manifest names no base"));
    }
    // Allocation guard: a count claiming more entries than the body
    // could physically hold is hostile.
    if count > body.len() / MIN_MANIFEST_ENTRY_BYTES + 1 {
        return Err(wire("manifest entry count exceeds buffer"));
    }
    let mut entries = Vec::with_capacity(count);
    let mut prev_gen: Option<u64> = None;
    for i in 0..count {
        let generation = get_varint(&mut input)?;
        match (i, prev_gen) {
            (0, _) if generation != 0 => return Err(wire("base generation must be 0")),
            (_, Some(p)) if generation <= p => return Err(wire("delta generations not ascending")),
            _ => {}
        }
        prev_gen = Some(generation);
        let file_len = get_varint(&mut input)?;
        let crc = input
            .get(..8)
            .and_then(|b| Some(u64::from_le_bytes(b.try_into().ok()?)))
            .ok_or(wire("manifest entry truncated"))?;
        input = &input[8..];
        let name_len = get_varint(&mut input)? as usize;
        if name_len > MAX_NAME_BYTES {
            return Err(wire("manifest name too long"));
        }
        let name_bytes = input
            .get(..name_len)
            .ok_or(wire("manifest name truncated"))?;
        input = &input[name_len..];
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| wire("manifest name not utf-8"))?
            .to_string();
        if !valid_name(&name) {
            return Err(wire("manifest name escapes directory"));
        }
        entries.push(ManifestEntry {
            generation,
            file_len,
            crc,
            name,
        });
    }
    if !input.is_empty() {
        return Err(wire("trailing manifest bytes"));
    }
    Ok(Manifest { entries })
}

/// Crash-safely writes a manifest (temp sibling + fsync + atomic
/// rename, same discipline and chaos failpoints as every snapshot
/// save).
pub fn save(man: &Manifest, path: &Path) -> io::Result<()> {
    save_bytes(&to_bytes(man), path)
}

/// Loads and validates a manifest file.
pub fn load(path: &Path) -> Result<Manifest, CodecError> {
    let mut buf = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut buf)?;
    from_bytes(&buf)
}

/// Checks `bytes`, the file `entry` names, before any of it is used:
/// its length, its layout ([`Layout::parse`]: seal, every section CRC,
/// sortedness) and then the entry's content check. A torn, stale or
/// swapped file is a typed error; a sound one hands back its layout.
pub fn check_link(bytes: &[u8], entry: &ManifestEntry) -> Result<Layout, CodecError> {
    if bytes.len() as u64 != entry.file_len {
        return Err(wire("chain file length mismatch"));
    }
    let layout = Layout::parse(bytes)?;
    if layout.content_crc() != entry.crc {
        return Err(CodecError::Checksum {
            section: "chain-file",
        });
    }
    Ok(layout)
}

/// How many of `served`'s entries a reader holding them may keep when it
/// moves to `entries`: all of them when they are a strict,
/// field-for-field prefix (same generation, length, check and name, and
/// at least one link more), otherwise none — a shorter or diverged
/// manifest, the same manifest again, or nothing served. The kept links'
/// files are not read again: the manifest's matching length and check
/// are the evidence they have not been republished.
pub fn kept_prefix(served: &[ManifestEntry], entries: &[ManifestEntry]) -> usize {
    let extends = !served.is_empty()
        && served.len() < entries.len()
        && entries.get(..served.len()) == Some(served);
    if extends {
        served.len()
    } else {
        0
    }
}

/// The full chain walk behind [`load_chain`] and [`verify_chain`]: every
/// link checked ([`check_link`]), decoded and merged onto the ones
/// before it, in ascending generation order — the first link adopted,
/// each later one merged in with [`Inventory::merge`]. Every summary
/// merge is exact and commutative, so the order is only the walk's:
/// `pol-serve`'s merge-on-read and `pol_stream`'s `merge_chain` give the
/// same bytes.
fn walk(path: &Path) -> Result<(Inventory, Vec<ChainEntryReport>), CodecError> {
    let man = load(path)?;
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let mut merged: Option<Inventory> = None;
    let mut links = Vec::with_capacity(man.entries.len());
    for e in man.entries {
        let mut bytes = Vec::new();
        std::fs::File::open(dir.join(&e.name))?.read_to_end(&mut bytes)?;
        let link = columnar::decode(&bytes, &check_link(&bytes, &e)?)?;
        links.push(ChainEntryReport {
            entries: link.len(),
            name: e.name,
            generation: e.generation,
            file_len: e.file_len,
            crc: e.crc,
        });
        match &mut merged {
            None => merged = Some(link),
            Some(inv) if link.resolution() != inv.resolution() => {
                return Err(wire("chain resolution mismatch"));
            }
            Some(inv) => inv.merge(&link),
        }
    }
    Ok((merged.ok_or(wire("manifest names no base"))?, links))
}

/// Loads a full delta chain into one heap inventory.
pub fn load_chain(path: &Path) -> Result<(Inventory, ChainInfo), CodecError> {
    let (inventory, links) = walk(path)?;
    let info = ChainInfo {
        generation: links.last().map_or(0, |l| l.generation),
        chain_len: links.len() as u64,
    };
    Ok((inventory, info))
}

/// What [`verify_chain`] found in one chain file.
#[derive(Clone, Debug)]
pub struct ChainEntryReport {
    /// The entry's file name.
    pub name: String,
    /// The entry's generation.
    pub generation: u64,
    /// Verified byte length of the file.
    pub file_len: u64,
    /// Verified content check of the file ([`Layout::content_crc`]).
    pub crc: u64,
    /// Group-identifier entries decoded from the file.
    pub entries: usize,
}

/// What [`verify_chain`] found in a sound chain.
#[derive(Clone, Debug)]
pub struct ChainReport {
    /// Newest generation in the chain.
    pub generation: u64,
    /// Per-file findings, base first.
    pub files: Vec<ChainEntryReport>,
    /// Entries in the merged inventory.
    pub merged_entries: usize,
}

/// Audits a delta chain end to end: manifest validation, every file's
/// length + layout + content check + full decode, and the merge itself —
/// one walk, each file read once. Any failure is the same typed
/// [`CodecError`] a load would produce.
pub fn verify_chain(path: &Path) -> Result<ChainReport, CodecError> {
    let (inventory, files) = walk(path)?;
    Ok(ChainReport {
        generation: files.last().map_or(0, |f| f.generation),
        merged_entries: inventory.len(),
        files,
    })
}

#[cfg(test)]
mod tests {
    use super::super::tests::{one_statistic_apart, sample_inventory, temp_dir};
    use super::*;

    fn entry_for(dir: &Path, generation: u64, name: &str, inv: &Inventory) -> ManifestEntry {
        let bytes = columnar::to_bytes(inv);
        save_bytes(&bytes, &dir.join(name)).unwrap();
        ManifestEntry::for_link(generation, name.to_string(), &bytes).unwrap()
    }

    #[test]
    fn manifest_round_trips() {
        let man = Manifest {
            entries: vec![
                ManifestEntry {
                    generation: 0,
                    file_len: 123,
                    crc: 7,
                    name: "base.pol3".into(),
                },
                ManifestEntry {
                    generation: 3,
                    file_len: 5,
                    crc: 9,
                    name: "delta-3.pol3".into(),
                },
            ],
        };
        assert_eq!(from_bytes(&to_bytes(&man)).unwrap(), man);
        // Deterministic bytes.
        assert_eq!(to_bytes(&man), to_bytes(&man));
    }

    #[test]
    fn rejects_structural_corruption() {
        assert!(matches!(
            from_bytes(b"not a manifest at all"),
            Err(CodecError::BadHeader)
        ));
        let man = Manifest {
            entries: vec![ManifestEntry {
                generation: 0,
                file_len: 1,
                crc: 2,
                name: "base.pol3".into(),
            }],
        };
        let bytes = to_bytes(&man);
        for cut in 0..bytes.len() - 1 {
            assert!(from_bytes(&bytes[..cut]).is_err(), "prefix {cut} accepted");
        }
        for byte in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 1;
            assert!(
                from_bytes(&corrupt).is_err(),
                "bit flip at byte {byte} went undetected"
            );
        }
    }

    #[test]
    fn rejects_hostile_shapes() {
        // Escaping names.
        for name in ["../evil", "a/b", "", "..", "x\\y"] {
            let man = Manifest {
                entries: vec![ManifestEntry {
                    generation: 0,
                    file_len: 0,
                    crc: 0,
                    name: name.into(),
                }],
            };
            assert!(
                from_bytes(&to_bytes(&man)).is_err(),
                "name {name:?} accepted"
            );
        }
        // Non-zero base generation.
        let man = Manifest {
            entries: vec![ManifestEntry {
                generation: 1,
                file_len: 0,
                crc: 0,
                name: "b".into(),
            }],
        };
        assert!(from_bytes(&to_bytes(&man)).is_err());
        // Non-ascending delta generations.
        let man = Manifest {
            entries: vec![
                ManifestEntry {
                    generation: 0,
                    file_len: 0,
                    crc: 0,
                    name: "b".into(),
                },
                ManifestEntry {
                    generation: 2,
                    file_len: 0,
                    crc: 0,
                    name: "d2".into(),
                },
                ManifestEntry {
                    generation: 2,
                    file_len: 0,
                    crc: 0,
                    name: "d2b".into(),
                },
            ],
        };
        assert!(from_bytes(&to_bytes(&man)).is_err());
    }

    #[test]
    fn chain_load_merges_in_generation_order() {
        let dir = temp_dir("chain");
        let base = sample_inventory(60);
        let d1 = sample_inventory(40);
        let d2 = sample_inventory(30);
        let man = Manifest {
            entries: vec![
                entry_for(&dir, 0, "base.pol3", &base),
                entry_for(&dir, 1, "delta-1.pol3", &d1),
                entry_for(&dir, 2, "delta-2.pol3", &d2),
            ],
        };
        let man_path = dir.join("chain.polman");
        save(&man, &man_path).unwrap();

        let (merged, info) = load_chain(&man_path).unwrap();
        assert_eq!(
            info,
            ChainInfo {
                generation: 2,
                chain_len: 3
            }
        );
        // `sample_inventory` is deterministic: rebuild the expected merge.
        let mut want = sample_inventory(60);
        want.merge(&d1);
        want.merge(&d2);
        assert_eq!(columnar::to_bytes(&merged), columnar::to_bytes(&want));

        let report = verify_chain(&man_path).unwrap();
        assert_eq!(report.generation, 2);
        assert_eq!(report.files.len(), 3);
        assert_eq!(report.merged_entries, merged.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chain_rejects_tampered_or_missing_files() {
        let dir = temp_dir("tamper");
        let base = sample_inventory(50);
        let d1 = sample_inventory(20);
        let man = Manifest {
            entries: vec![
                entry_for(&dir, 0, "base.pol3", &base),
                entry_for(&dir, 1, "delta-1.pol3", &d1),
            ],
        };
        let man_path = dir.join("chain.polman");
        save(&man, &man_path).unwrap();
        assert!(load_chain(&man_path).is_ok());

        // Swap the delta for a different (valid!) snapshot: the CRC in
        // the manifest catches it even though the file itself decodes.
        columnar::save(&sample_inventory(21), &dir.join("delta-1.pol3")).unwrap();
        assert!(matches!(
            load_chain(&man_path),
            Err(CodecError::Checksum { .. }) | Err(CodecError::Wire(_))
        ));

        // Missing file.
        std::fs::remove_file(dir.join("delta-1.pol3")).unwrap();
        assert!(matches!(load_chain(&man_path), Err(CodecError::Io(_))));

        // A chain file must be POLINV4: one of the length the manifest
        // records under any other magic is BadHeader.
        let retired = b"POLINV2\0 and whatever a retired writer put after it";
        save_bytes(retired, &dir.join("base.pol")).unwrap();
        let man = Manifest {
            entries: vec![ManifestEntry {
                generation: 0,
                file_len: retired.len() as u64,
                crc: 0,
                name: "base.pol".into(),
            }],
        };
        save(&man, &man_path).unwrap();
        assert!(matches!(load_chain(&man_path), Err(CodecError::BadHeader)));
        assert!(matches!(
            verify_chain(&man_path),
            Err(CodecError::BadHeader)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// What POLMAN1 could not see: a link swapped for another of the same
    /// layout, one statistic apart. The two images have one length and
    /// one whole-file CRC, and each is sound on its own; the manifest's
    /// content check tells them apart.
    #[test]
    fn a_swapped_link_of_the_same_layout_is_refused() {
        let dir = temp_dir("same-layout");
        let base = sample_inventory(50);
        let (d1, swapped) = (
            sample_inventory(20),
            one_statistic_apart(&sample_inventory(20)),
        );
        let (first, second) = (columnar::to_bytes(&d1), columnar::to_bytes(&swapped));
        assert_eq!(first.len(), second.len());
        assert_eq!(crc64(&first), crc64(&second), "one whole-file CRC");
        let man = Manifest {
            entries: vec![
                entry_for(&dir, 0, "base.pol3", &base),
                entry_for(&dir, 1, "delta-1.pol3", &d1),
            ],
        };
        let man_path = dir.join("chain.polman");
        save(&man, &man_path).unwrap();
        assert!(load_chain(&man_path).is_ok());

        save_bytes(&second, &dir.join("delta-1.pol3")).unwrap();
        for refused in [
            load_chain(&man_path).map(|_| ()),
            verify_chain(&man_path).map(|_| ()),
            check_link(&second, &man.entries[1]).map(|_| ()),
        ] {
            assert!(matches!(
                refused,
                Err(CodecError::Checksum {
                    section: "chain-file"
                })
            ));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
