//! POLMAN1 — the delta-chain manifest tying a base snapshot to its
//! incremental deltas.
//!
//! Streaming ingestion ([`pol-stream`]) emits periodic delta snapshots:
//! small POLINV3 files summarising only the trips finalized since the
//! previous emission. A manifest names the base snapshot plus every
//! delta in generation order, and a serving process loads the *chain* —
//! base merged with each delta — as one inventory.
//!
//! ## On-disk layout
//!
//! ```text
//! magic    b"POLMAN1\0"                               8 bytes
//! body     entry-count varint, then per entry:
//!            generation varint, file-length varint,
//!            u64 LE CRC-64/XZ of the whole file,
//!            name-length varint + relative file name
//! crc      u64 LE CRC-64/XZ of the body bytes         8 bytes
//! footer   u64 LE total file length, b"POLSEAL\0"     16 bytes
//! ```
//!
//! Entry 0 is the base (generation 0); subsequent entries are deltas
//! with strictly ascending generations. Names are plain file names
//! resolved against the manifest's own directory — path separators are
//! rejected so a hostile manifest cannot reach outside it.
//!
//! ## Crash safety
//!
//! The manifest is the *commit record* of the chain. Writers persist the
//! new delta file first (via the crash-safe [`save_bytes`](super::save_bytes)
//! discipline, which also hosts the `codec.save.*` chaos failpoints) and
//! only then rewrite the manifest. A crash between the two leaves the
//! previous manifest naming only complete, verified files; a crash during
//! the manifest rewrite leaves the old manifest (atomic rename). Because
//! every entry records the referenced file's exact length and CRC-64/XZ,
//! a manifest can never *silently* bless a torn or stale file: the chain
//! walker ([`extend_chain`], the one function behind [`load_chain`],
//! [`verify_chain`] and `pol-serve`'s hot reload) re-hashes every file it
//! reads before decoding a byte of it.

use super::{columnar, save_bytes, CodecError, FOOTER_MAGIC};
use crate::inventory::Inventory;
use pol_sketch::crc64::crc64;
use pol_sketch::wire::{get_varint, put_varint, WireError};
use std::io::{self, Read};
use std::path::Path;

/// File magic of the delta-chain manifest.
pub const MAGIC_MANIFEST: &[u8; 8] = b"POLMAN1\0";

/// The smallest possible serialized entry: one-byte generation, one-byte
/// length, 8-byte CRC, one-byte name length, one-byte name. Bounds the
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
    /// CRC-64/XZ over the referenced file's complete bytes.
    pub crc: u64,
    /// Plain file name, resolved against the manifest's directory.
    pub name: String,
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

/// What [`extend_chain`] produced: the merged inventory, the manifest
/// entries it now reflects, and what was found in each link it read.
pub struct ChainExtension {
    /// Every link of the manifest merged in ascending generation order.
    pub inventory: Inventory,
    /// The manifest's entries, base first — what a later
    /// [`extend_chain`] is handed back as the already-merged prefix.
    pub entries: Vec<ManifestEntry>,
    /// One report per link read, verified, decoded and merged by this
    /// call, in merge order; links taken over from the caller's prefix
    /// are not among them.
    pub links: Vec<ChainEntryReport>,
}

impl ChainExtension {
    /// The lineage of [`inventory`](Self::inventory).
    pub fn info(&self) -> ChainInfo {
        ChainInfo {
            generation: self.entries.last().map_or(0, |e| e.generation),
            chain_len: self.entries.len() as u64,
        }
    }
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

fn read_entry_bytes(dir: &Path, e: &ManifestEntry) -> Result<Vec<u8>, CodecError> {
    let mut buf = Vec::new();
    std::fs::File::open(dir.join(&e.name))?.read_to_end(&mut buf)?;
    // Length and CRC before decoding a byte: a manifest can never bless
    // a torn, stale, or swapped file.
    if buf.len() as u64 != e.file_len {
        return Err(wire("chain file length mismatch"));
    }
    if crc64(&buf) != e.crc {
        return Err(CodecError::Checksum {
            section: "chain-file",
        });
    }
    Ok(buf)
}

/// The one chain walker: loads the manifest at `path` and merges its
/// links, in ascending generation order, onto what the caller already
/// holds.
///
/// `merged` is an inventory together with the manifest entries it was
/// built from. When those entries are a strict, field-for-field prefix
/// of the manifest (same generation, length, CRC and name, and at least
/// one link more), the walk starts from a copy of that inventory and
/// reads only the new links; otherwise — no prefix given, a shorter or
/// diverged manifest, the same manifest again — it starts from nothing
/// and reads every link. Either way each link read is length-checked
/// and CRC-checked against its entry before a byte is decoded, so a
/// manifest can never bless a torn, stale or swapped file. What the
/// prefix path does **not** do is re-read the prefix's files: the
/// caller's inventory stands for them, and the manifest's matching
/// length and CRC are the evidence they have not been republished.
///
/// The merge order is the identity anchor: the result depends only on
/// the set of `(generation, delta)` pairs, and extending one link at a
/// time gives the same POLINV3 bytes as one walk over the final manifest
/// (pinned by `tests/chain_extend.rs`; `pol_stream`'s `merge_chain`
/// applies the same canonical order in memory).
pub fn extend_chain(
    path: &Path,
    merged: Option<(&Inventory, &[ManifestEntry])>,
) -> Result<ChainExtension, CodecError> {
    let man = load(path)?;
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let (mut inv, reused) = match merged {
        Some((inv, prefix))
            if !prefix.is_empty()
                && prefix.len() < man.entries.len()
                && man.entries[..prefix.len()] == *prefix =>
        {
            (Some(inv.clone()), prefix.len())
        }
        _ => (None, 0),
    };
    let mut links = Vec::with_capacity(man.entries.len() - reused);
    for e in &man.entries[reused..] {
        let link = columnar::from_bytes(&read_entry_bytes(dir, e)?)?;
        links.push(ChainEntryReport {
            name: e.name.clone(),
            generation: e.generation,
            file_len: e.file_len,
            crc: e.crc,
            entries: link.len(),
        });
        match &mut inv {
            None => inv = Some(link),
            Some(inv) if link.resolution() != inv.resolution() => {
                return Err(wire("chain resolution mismatch"));
            }
            Some(inv) => inv.merge(&link),
        }
    }
    Ok(ChainExtension {
        inventory: inv.ok_or(wire("manifest names no base"))?,
        entries: man.entries,
        links,
    })
}

/// Loads a full delta chain: [`extend_chain`] from an empty prefix.
pub fn load_chain(path: &Path) -> Result<(Inventory, ChainInfo), CodecError> {
    let chain = extend_chain(path, None)?;
    let info = chain.info();
    Ok((chain.inventory, info))
}

/// What [`extend_chain`] found in one chain file.
#[derive(Clone, Debug)]
pub struct ChainEntryReport {
    /// The entry's file name.
    pub name: String,
    /// The entry's generation.
    pub generation: u64,
    /// Verified byte length of the file.
    pub file_len: u64,
    /// Verified CRC-64/XZ of the file.
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
/// length + CRC + full decode, and the merge itself — one
/// [`extend_chain`] walk from an empty prefix, each file read once. Any
/// failure is the same typed [`CodecError`] a load would produce.
pub fn verify_chain(path: &Path) -> Result<ChainReport, CodecError> {
    let chain = extend_chain(path, None)?;
    Ok(ChainReport {
        generation: chain.info().generation,
        merged_entries: chain.inventory.len(),
        files: chain.links,
    })
}

#[cfg(test)]
mod tests {
    use super::super::tests::{sample_inventory, temp_dir};
    use super::*;

    fn entry_for(dir: &Path, generation: u64, name: &str, inv: &Inventory) -> ManifestEntry {
        let bytes = columnar::to_bytes(inv);
        save_bytes(&bytes, &dir.join(name)).unwrap();
        ManifestEntry {
            generation,
            file_len: bytes.len() as u64,
            crc: crc64(&bytes),
            name: name.to_string(),
        }
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

        // A chain file must be POLINV3: one the manifest vouches for
        // (length and CRC match) under any other magic is BadHeader.
        let retired = b"POLINV2\0 and whatever a retired writer put after it";
        save_bytes(retired, &dir.join("base.pol")).unwrap();
        let man = Manifest {
            entries: vec![ManifestEntry {
                generation: 0,
                file_len: retired.len() as u64,
                crc: crc64(retired),
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
}
