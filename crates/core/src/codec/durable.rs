//! How a file becomes durable: the one module that creates, appends to,
//! fsyncs, renames, truncates and unlinks the files that hold state —
//! whole images replaced atomically ([`save_bytes`]) and append-only
//! files of which a committed prefix counts ([`AppendFile`]: POLWAL1
//! segments, the checkpoint log). The formats keep their framing and
//! say when a prefix is committed; callers pass their failpoint names
//! and this module fires them. With `pol-chaos/failpoints` every
//! operation that succeeds is logged through [`pol_chaos::record`].
//!
//! **The directory rule.** A file created or renamed into place has its
//! directory fsynced ([`sync_dir`]) before the call returns, so nothing
//! is appended to, or named by, a file whose name a crash may take
//! back. An unlink is not followed by one: everything unlinked here is a
//! file no reader needs, and an unlink a crash undoes leaves what a
//! failed unlink leaves.

use pol_chaos::record;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The injected error when failpoint `name` fires (its delay or kill
/// happens in place): how a persistence failpoint becomes an `io::Error`.
pub fn failpoint(name: &str) -> io::Result<()> {
    if pol_chaos::fire(name) {
        return Err(pol_chaos::io_error(name));
    }
    Ok(())
}

/// Fsyncs directory `dir`, so the names created or renamed in it
/// survive a crash. Best effort and silent: an error opening or syncing
/// the directory is ignored (not every platform lets a directory be
/// opened for syncing, and the file's bytes are durable already), so a
/// name lost that way costs what a crash just before it would have.
pub fn sync_dir(dir: &Path) {
    if File::open(dir).and_then(|d| d.sync_all()).is_ok() {
        record("fsync-dir", dir);
    }
}

/// The directory that holds `path`'s name: its parent, or `.` for a bare
/// file name, whose parent is the empty path.
fn directory_of(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

/// Unlinks `path`, firing `failpoint` first; no directory fsync follows.
pub fn remove(path: &Path, failpoint: Option<&str>) -> io::Result<()> {
    failpoint.map_or(Ok(()), self::failpoint)?;
    std::fs::remove_file(path)?;
    record("unlink", path);
    Ok(())
}

fn write(file: &mut File, path: &Path, bytes: &[u8]) -> io::Result<()> {
    file.write_all(bytes)?;
    record("write", path);
    Ok(())
}

fn fsync(file: &File, path: &Path) -> io::Result<()> {
    file.sync_all()?;
    record("fsync", path);
    Ok(())
}

/// Distinguishes temp files of concurrent saves within one process.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Where [`save_bytes`] writes first: `.{name}.tmp.{pid}.{n}` beside it.
fn temp_sibling(path: &Path) -> PathBuf {
    let name = path.file_name().unwrap_or("inventory".as_ref());
    let unique = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    path.with_file_name(format!(".{}.tmp.{pid}.{unique}", name.to_string_lossy()))
}

/// Whether `name` is a [`save_bytes`] temp sibling. A failed save removes
/// its own, so one left in a directory is the debris of a process that
/// died mid-save, for the writer that opens the directory to remove.
pub fn is_temp_sibling(name: &str) -> bool {
    let mut parts = name.rsplitn(3, '.');
    let digits =
        |p: Option<&str>| p.is_some_and(|p| !p.is_empty() && p.bytes().all(|b| b.is_ascii_digit()));
    digits(parts.next())
        && digits(parts.next())
        && parts
            .next()
            .and_then(|rest| rest.strip_prefix('.')?.strip_suffix(".tmp"))
            .is_some_and(|stem| !stem.is_empty())
}

/// Crash-safely writes a complete file image to `path`: the bytes are
/// written to a temp sibling, fsynced, atomically renamed into place,
/// and the directory is fsynced. Readers of `path` see the old complete
/// file or the new one, never a torn one; on any failure the temp file
/// is removed and `path` is untouched. Its failpoints are
/// `codec.save.write` and `codec.save.rename`.
pub fn save_bytes(bytes: &[u8], path: &Path) -> io::Result<()> {
    let tmp = temp_sibling(path);
    let result = write_rename_sync(bytes, &tmp, path);
    if result.is_err() {
        let _ = remove(&tmp, None);
    }
    result
}

fn write_rename_sync(bytes: &[u8], tmp: &Path, path: &Path) -> io::Result<()> {
    let mut f = File::create(tmp)?;
    record("create", tmp);
    failpoint("codec.save.write")?;
    write(&mut f, tmp, bytes)?;
    // The rename must never publish a name whose bytes are only in the
    // page cache.
    fsync(&f, tmp)?;
    failpoint("codec.save.rename")?;
    std::fs::rename(tmp, path)?;
    record("rename", path);
    sync_dir(directory_of(path));
    Ok(())
}

/// An append-only file of which only a committed prefix counts, opened
/// `O_APPEND` so that every write lands at the end, wherever a
/// truncation has just put it. [`append`](Self::append) cuts off
/// whatever lies past the committed prefix — a torn write's fragment, or
/// an append no [`commit`](Self::commit) followed — before it writes.
#[derive(Debug)]
pub struct AppendFile {
    file: File,
    path: PathBuf,
    committed: u64,
    /// Where the file ends: `committed` plus the last append if it is
    /// not committed; `None` after an append failed part-way.
    end: Option<u64>,
}

impl AppendFile {
    /// Creates the file at `path` (truncating any previous one), writes
    /// `header` — the committed prefix — and fsyncs the file, then its
    /// directory.
    pub fn create(path: &Path, header: &[u8]) -> io::Result<AppendFile> {
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        file.set_len(0)?;
        record("create", path);
        write(&mut file, path, header)?;
        fsync(&file, path)?;
        sync_dir(directory_of(path));
        let committed = header.len() as u64;
        Ok(AppendFile {
            file,
            path: path.to_path_buf(),
            committed,
            end: Some(committed),
        })
    }

    /// Reopens `path`, of which the first `committed` bytes count,
    /// cutting off and fsyncing anything past them (idempotently). A file
    /// shorter than that is `InvalidData`.
    pub fn resume(path: &Path, committed: u64) -> io::Result<AppendFile> {
        let file = OpenOptions::new().append(true).open(path)?;
        let len = file.metadata()?.len();
        if len < committed {
            return Err(io::ErrorKind::InvalidData.into());
        }
        let mut resumed = AppendFile {
            file,
            path: path.to_path_buf(),
            committed,
            end: Some(len),
        };
        if len > committed {
            resumed.cut_back()?;
            fsync(&resumed.file, path)?;
        }
        Ok(resumed)
    }

    /// The committed prefix's length.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Writes `bytes` behind the committed prefix. They do not count
    /// until [`commit`](Self::commit). When `failpoint` fires, half of
    /// them are written and the call fails.
    pub fn append(&mut self, bytes: &[u8], failpoint: &str) -> io::Result<()> {
        self.cut_back()?;
        self.end = None;
        if let Err(e) = self::failpoint(failpoint) {
            let _ = self.file.write_all(&bytes[..bytes.len() / 2]);
            return Err(e);
        }
        write(&mut self.file, &self.path, bytes)?;
        self.end = Some(self.committed + bytes.len() as u64);
        Ok(())
    }

    /// Adds the last append to the committed prefix (nothing if it failed).
    pub fn commit(&mut self) {
        self.committed = self.end.unwrap_or(self.committed);
    }

    /// Fsyncs the file, firing `failpoint` first.
    pub fn sync(&mut self, failpoint: Option<&str>) -> io::Result<()> {
        failpoint.map_or(Ok(()), self::failpoint)?;
        fsync(&self.file, &self.path)
    }

    fn cut_back(&mut self) -> io::Result<()> {
        if self.end != Some(self.committed) {
            self.file.set_len(self.committed)?;
            record("truncate", &self.path);
            self.end = Some(self.committed);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pol-durable-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn temp_siblings_are_recognised_by_name_alone() {
        let tmp = temp_sibling(Path::new("/x/checkpoint.polckp"));
        let name = tmp.file_name().unwrap().to_str().unwrap();
        assert!(is_temp_sibling(name), "{name}");
        for name in [".base.pol.tmp.12.0", ".delta-00003.pol.tmp.4242.17"] {
            assert!(is_temp_sibling(name), "{name}");
        }
        for name in [
            "base.pol",
            "checkpoint.polckp",
            "wal-0000000000.polwal",
            "base.pol.tmp.12.0",
            "..tmp.12.0",
            ".base.pol.tmp.12.",
            ".base.pol.tmp.x.0",
            ".base.pol.tmpx.12.0",
        ] {
            assert!(!is_temp_sibling(name), "{name}");
        }
    }

    #[test]
    fn only_the_committed_prefix_survives_an_uncommitted_append() {
        let dir = temp_dir("append");
        let path = dir.join("log");
        let mut f = AppendFile::create(&path, b"head").unwrap();
        f.append(b"one", "test.durable.append").unwrap();
        f.commit();
        assert_eq!(f.committed(), 7);
        // Appended and never committed: the next append writes over it.
        f.append(b"orphan", "test.durable.append").unwrap();
        f.append(b"two", "test.durable.append").unwrap();
        f.commit();
        f.sync(None).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"headonetwo");
        // A resume cuts what no commit covered.
        f.append(b"tail", "test.durable.append").unwrap();
        drop(f);
        let f = AppendFile::resume(&path, 10).unwrap();
        assert_eq!(f.committed(), 10);
        assert_eq!(std::fs::read(&path).unwrap(), b"headonetwo");
        assert_eq!(
            AppendFile::resume(&path, 11).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
