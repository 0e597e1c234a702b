//! Delta snapshot publication: POLINV3 windows chained by a POLMAN2
//! manifest.
//!
//! A [`DeltaPublisher`] owns one publication directory. The first
//! publication writes the chain base (`base.pol`, generation 0); each
//! later one appends `delta-NNNNN.pol` with the next generation. The
//! crash-safety order is the load-bearing part:
//!
//! 1. the snapshot file is written first, through
//!    [`pol_core::codec::save_bytes`]'s temp-sibling + fsync + atomic
//!    rename discipline (and its `codec.save.*` chaos failpoints);
//! 2. only then is the manifest rewritten, by the same discipline.
//!
//! The manifest is the commit record: it names each file with its exact
//! length and content check (a CRC-64 over the file's header and section
//! CRCs), and every reader — [`pol_core::codec::manifest::check_link`]
//! behind `load_chain` and `pol-serve`'s mapped reload — re-verifies both
//! before using a byte. A crash or injected fault
//! between the two steps leaves at worst an orphaned snapshot file the
//! old manifest never references — readers keep loading the previous
//! chain, never a torn or half-published one (pinned by the chaos
//! tests).
//!
//! [`merge_chain`] is the in-memory equivalent of a chain load: it
//! canonicalizes by sorting on generation before folding, so the merged
//! bytes depend only on the *set* of `(generation, delta)` pairs —
//! never on arrival order. The permutation proptest in
//! `tests/delta_chain.rs` pins that.

use pol_core::codec::manifest::{self, Manifest, ManifestEntry};
use pol_core::codec::{columnar, save_bytes, CodecError};
use pol_core::Inventory;
use std::io;
use std::path::{Path, PathBuf};

/// File name of the chain manifest inside a publication directory.
pub const MANIFEST_NAME: &str = "inventory.polman";

/// What an orphan sweep removed: snapshot files present in the
/// publication directory but unreferenced by the manifest — the debris
/// a crash between snapshot write and manifest commit leaves behind.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// File names deleted by the sweep.
    pub removed: Vec<String>,
}

/// What [`DeltaPublisher::publish_at`] decided for a generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PublishOutcome {
    /// The generation was the next link and is now durably committed.
    Published,
    /// The generation is already in the on-disk manifest — a recovery
    /// replay re-derived a window the pre-crash run had committed.
    /// Nothing was written (the chain's bytes are deterministic in the
    /// record prefix, so the durable copy is identical).
    AlreadyDurable,
}

/// Publishes a growing delta chain into one directory: snapshot files
/// first, manifest second, both atomically.
pub struct DeltaPublisher {
    dir: PathBuf,
    manifest_path: PathBuf,
    manifest: Manifest,
}

impl DeltaPublisher {
    /// A publisher over `dir` (which must exist) with an empty chain.
    /// Nothing is written until the first [`publish`](Self::publish).
    pub fn create(dir: &Path) -> DeltaPublisher {
        DeltaPublisher {
            dir: dir.to_path_buf(),
            manifest_path: dir.join(MANIFEST_NAME),
            manifest: Manifest {
                entries: Vec::new(),
            },
        }
    }

    /// A publisher resuming the chain already committed in `dir`: the
    /// on-disk manifest (if any) is the truth, and any snapshot file it
    /// does not reference — the debris of a publish that crashed
    /// between snapshot write and manifest commit — is swept away so it
    /// can never shadow a future generation's file name. This is the
    /// recovery-path constructor.
    pub fn open(dir: &Path) -> Result<(DeltaPublisher, SweepReport), CodecError> {
        let manifest_path = dir.join(MANIFEST_NAME);
        let manifest = match manifest::load(&manifest_path) {
            Ok(m) => m,
            Err(CodecError::Io(e)) if e.kind() == io::ErrorKind::NotFound => Manifest {
                entries: Vec::new(),
            },
            Err(e) => return Err(e),
        };
        let publisher = DeltaPublisher {
            dir: dir.to_path_buf(),
            manifest_path,
            manifest,
        };
        let swept = publisher.sweep_orphans().map_err(CodecError::Io)?;
        Ok((publisher, swept))
    }

    /// Deletes every `*.pol` snapshot in the publication directory the
    /// manifest does not reference, reporting what was removed. Safe at
    /// any time: an unreferenced snapshot is invisible to readers by
    /// construction (the manifest is the commit record), so removing it
    /// cannot change what any chain load observes.
    pub fn sweep_orphans(&self) -> io::Result<SweepReport> {
        let mut removed = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if !entry.file_type()?.is_file() {
                continue;
            }
            let name = match entry.file_name().into_string() {
                Ok(n) => n,
                Err(_) => continue,
            };
            if !name.ends_with(".pol") {
                continue;
            }
            if self.manifest.entries.iter().any(|e| e.name == name) {
                continue;
            }
            std::fs::remove_file(entry.path())?;
            removed.push(name);
        }
        removed.sort();
        Ok(SweepReport { removed })
    }

    /// Path of the chain manifest (what `pol-serve` opens and reloads).
    pub fn manifest_path(&self) -> &Path {
        &self.manifest_path
    }

    /// Files published so far (0 before the base exists).
    pub fn chain_len(&self) -> usize {
        self.manifest.entries.len()
    }

    /// Newest published generation, `None` before the base exists.
    pub fn generation(&self) -> Option<u64> {
        self.manifest.entries.last().map(|e| e.generation)
    }

    /// Publishes one snapshot as the next chain link and commits it to
    /// the manifest. On any error the directory still holds a fully
    /// valid chain: either the previous manifest (at worst plus one
    /// orphaned, unreferenced file) or the new one. Returns the
    /// published generation.
    pub fn publish(&mut self, inv: &Inventory) -> io::Result<u64> {
        let generation = self.manifest.entries.len() as u64;
        let name = if generation == 0 {
            "base.pol".to_string()
        } else {
            format!("delta-{generation:05}.pol")
        };
        let bytes = columnar::to_bytes(inv);
        let entry = ManifestEntry::for_link(generation, name, &bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        // Snapshot first: until the manifest names it, it does not exist
        // as far as any reader is concerned.
        save_bytes(&bytes, &self.dir.join(&entry.name))?;
        self.manifest.entries.push(entry);
        match manifest::save(&self.manifest, &self.manifest_path) {
            Ok(()) => Ok(generation),
            Err(e) => {
                // Roll the in-memory chain back to what is on disk; the
                // snapshot file stays behind as an orphan the old
                // manifest never references.
                self.manifest.entries.pop();
                Err(e)
            }
        }
    }

    /// Exactly-once publication for recovery replay: publishes `gen`
    /// only if it is the next chain link. A generation the manifest
    /// already holds is reported [`PublishOutcome::AlreadyDurable`] and
    /// left untouched — the replay re-derived a window the pre-crash
    /// run committed, and deterministic replay makes the durable bytes
    /// identical. A generation *past* the next link means the journal
    /// and the chain disagree (a skipped window) and is refused — that
    /// chain would have a hole no merge could repair.
    pub fn publish_at(&mut self, gen: u64, inv: &Inventory) -> io::Result<PublishOutcome> {
        let next = self.manifest.entries.len() as u64;
        if gen < next {
            return Ok(PublishOutcome::AlreadyDurable);
        }
        if gen > next {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("delta generation gap: journal derived {gen} but chain holds {next}"),
            ));
        }
        self.publish(inv)?;
        Ok(PublishOutcome::Published)
    }
}

/// Merges a set of `(generation, inventory)` deltas into one inventory,
/// canonicalizing by ascending generation first — the same order
/// [`pol_core::codec::manifest::load_chain`] applies on disk. Because
/// of that canonicalization the output bytes are independent of the
/// input order (generations must be distinct, as a manifest
/// guarantees). Returns `None` for an empty set. All parts must share
/// one grid resolution, as chain loading enforces.
pub fn merge_chain(mut parts: Vec<(u64, Inventory)>) -> Option<Inventory> {
    parts.sort_by_key(|(generation, _)| *generation);
    let mut iter = parts.into_iter();
    let (_, mut merged) = iter.next()?;
    for (_, delta) in iter {
        merged.merge(&delta);
    }
    Some(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_ais::types::{MarketSegment, Mmsi};
    use pol_core::features::{CellStats, GroupKey};
    use pol_core::records::{CellPoint, TripPoint};
    use pol_geo::LatLon;
    use pol_hexgrid::{cell_at, Resolution};
    use pol_sketch::hash::FxHashMap;

    fn window_inventory(n: usize, salt: u64) -> Inventory {
        let res = Resolution::new(6).unwrap();
        let mut entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
        for i in 0..n {
            let k = i as u64 + salt * 1_000;
            let pos = LatLon::new(10.0 + (k % 50) as f64 * 0.9, (k % 90) as f64).unwrap();
            let cell = cell_at(pos, res);
            let cp = CellPoint {
                point: TripPoint {
                    mmsi: Mmsi(200_000_000 + (k % 9) as u32),
                    timestamp: k as i64,
                    pos,
                    sog_knots: Some(8.0 + (k % 11) as f64),
                    cog_deg: Some((k % 360) as f64),
                    heading_deg: None,
                    segment: MarketSegment::from_id((k % 6) as u8).unwrap(),
                    trip_id: k % 4,
                    origin: (k % 5) as u16,
                    dest: (k % 7) as u16,
                    eto_secs: k as i64,
                    ata_secs: 1_000 - k as i64,
                },
                cell,
                next_cell: None,
            };
            entries
                .entry(GroupKey::Cell(cell))
                .or_insert_with(|| CellStats::new(0.02, 8))
                .observe(&cp);
        }
        Inventory::from_entries(res, entries, n as u64)
    }

    #[test]
    fn publisher_grows_a_loadable_chain() {
        let dir = std::env::temp_dir().join("pol-stream-delta-grow");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let mut publisher = DeltaPublisher::create(&dir);
        assert_eq!(publisher.generation(), None);

        assert_eq!(publisher.publish(&window_inventory(50, 0)).unwrap(), 0);
        assert_eq!(publisher.publish(&window_inventory(30, 1)).unwrap(), 1);
        assert_eq!(publisher.publish(&window_inventory(20, 2)).unwrap(), 2);
        assert_eq!(publisher.chain_len(), 3);
        assert_eq!(publisher.generation(), Some(2));

        let (merged, info) = manifest::load_chain(publisher.manifest_path()).unwrap();
        assert_eq!(info.generation, 2);
        assert_eq!(info.chain_len, 3);
        assert_eq!(merged.total_records(), 100);

        let report = manifest::verify_chain(publisher.manifest_path()).unwrap();
        assert_eq!(report.files.len(), 3);
        assert_eq!(report.merged_entries, merged.len());
    }

    #[test]
    fn chain_load_equals_merge_chain() {
        let dir = std::env::temp_dir().join("pol-stream-delta-eq");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let mut publisher = DeltaPublisher::create(&dir);
        for salt in 0..4 {
            publisher.publish(&window_inventory(40, salt)).unwrap();
        }
        let (from_disk, _) = manifest::load_chain(publisher.manifest_path()).unwrap();
        let in_memory = merge_chain(
            (0..4)
                .map(|salt| (salt, window_inventory(40, salt)))
                .collect(),
        )
        .unwrap();
        assert_eq!(
            columnar::to_bytes(&from_disk),
            columnar::to_bytes(&in_memory),
            "disk chain load and in-memory merge must agree byte-for-byte"
        );
    }

    #[test]
    fn merge_chain_empty_is_none() {
        assert!(merge_chain(Vec::new()).is_none());
    }

    #[test]
    fn open_sweeps_orphans_and_resumes_the_chain() {
        let dir = std::env::temp_dir().join("pol-stream-delta-orphans");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let mut publisher = DeltaPublisher::create(&dir);
        publisher.publish(&window_inventory(40, 0)).unwrap();
        publisher.publish(&window_inventory(25, 1)).unwrap();
        // Plant the debris of a publish that crashed before its
        // manifest commit, plus a non-snapshot bystander.
        std::fs::write(dir.join("delta-00002.pol"), b"torn half-published bytes").unwrap();
        std::fs::write(dir.join("notes.txt"), b"not a snapshot").unwrap();

        let (mut reopened, swept) = DeltaPublisher::open(&dir).unwrap();
        assert_eq!(swept.removed, vec!["delta-00002.pol".to_string()]);
        assert!(
            !dir.join("delta-00002.pol").exists(),
            "orphan must be deleted"
        );
        assert!(dir.join("notes.txt").exists(), "bystanders are untouched");
        assert_eq!(reopened.chain_len(), 2);
        assert_eq!(reopened.generation(), Some(1));

        // The resumed publisher continues the chain exactly where the
        // manifest left it — the orphan's name is reusable again.
        assert_eq!(
            reopened.publish_at(1, &window_inventory(9, 9)).unwrap(),
            PublishOutcome::AlreadyDurable,
        );
        assert_eq!(
            reopened.publish_at(2, &window_inventory(20, 2)).unwrap(),
            PublishOutcome::Published,
        );
        let gap = reopened.publish_at(4, &window_inventory(5, 4));
        assert!(gap.is_err(), "a generation gap must be refused");
        let report = manifest::verify_chain(reopened.manifest_path()).unwrap();
        assert_eq!(report.files.len(), 3);
    }

    #[test]
    fn open_on_empty_dir_is_an_empty_chain() {
        let dir = std::env::temp_dir().join("pol-stream-delta-open-empty");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let (publisher, swept) = DeltaPublisher::open(&dir).unwrap();
        assert_eq!(publisher.chain_len(), 0);
        assert!(swept.removed.is_empty());
    }
}
