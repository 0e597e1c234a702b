//! A minimal, safe, read-only memory-map wrapper.
//!
//! `MappedFile::open` maps a file `PROT_READ`/`MAP_PRIVATE` and exposes
//! it as `&[u8]`. No external crate: the two libc calls (`mmap`,
//! `munmap`) are declared here directly — std already links libc on
//! every unix target. On non-unix targets, on zero-length files, and on
//! any mmap failure the wrapper transparently falls back to reading the
//! file into a heap buffer, so callers never branch on platform.
//!
//! ## Why the `&[u8]` view is sound
//!
//! A memory map is only as immutable as the file behind it. This repo's
//! snapshot writers ([`pol_core::codec::save_bytes`]) never mutate a
//! published snapshot in place: bytes go to a temp sibling which is
//! fsynced and atomically *renamed* over the destination, so the inode a
//! reader mapped keeps its old, complete contents for as long as the map
//! holds it open. Combined with validation running *on the mapped bytes
//! themselves* (no read-then-remap TOCTOU window) and every reader being
//! panic-free on arbitrary bytes (checked by the corruption proptests),
//! an external writer violating the discipline can at worst make queries
//! return typed errors or `None`, never undefined behaviour from Rust
//! code — the `unsafe` here is confined to the two FFI calls and the
//! slice construction over the kernel-owned pages.

use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;
    use std::os::raw::c_int;

    pub(super) const PROT_READ: c_int = 1;
    pub(super) const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub(super) fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub(super) fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    pub(super) fn map_failed(ptr: *mut c_void) -> bool {
        ptr.is_null() || ptr as usize == usize::MAX
    }
}

enum Backing {
    /// Kernel-owned pages from a successful `mmap`.
    #[cfg(unix)]
    Mapped {
        ptr: std::ptr::NonNull<u8>,
        len: usize,
    },
    /// Plain heap bytes (non-unix, empty file, mmap failure, in memory).
    Heap(Vec<u8>),
}

/// A read-only view of a file's bytes, memory-mapped when possible.
pub struct MappedFile {
    backing: Backing,
}

// SAFETY: the mapping is PROT_READ and never mutated through this type;
// a shared `&[u8]` over immutable pages is as thread-safe as any other
// shared slice. The heap variant is a plain Vec;
// tested by: unix_files_actually_map, concurrent_responses_equal_direct_inventory_queries.
unsafe impl Send for MappedFile {}
// SAFETY: see the Send impl — all access is read-only;
// tested by: unix_files_actually_map, concurrent_responses_equal_direct_inventory_queries.
unsafe impl Sync for MappedFile {}

impl MappedFile {
    /// Opens `path` read-only and maps it. Falls back to a heap read on
    /// any platform or syscall obstacle — the caller always gets bytes.
    pub fn open(path: &Path) -> io::Result<MappedFile> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
        #[cfg(unix)]
        if len > 0 {
            use std::os::unix::io::AsRawFd;
            // A MAP_FAILED return is checked before the pointer is used.
            // SAFETY: fd is a valid open descriptor for the whole call;
            // len is the file's current size and non-zero; PROT_READ +
            // MAP_PRIVATE cannot alias writable memory;
            // tested by: unix_files_actually_map, maps_file_bytes_exactly.
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if !sys::map_failed(ptr) {
                if let Some(nn) = std::ptr::NonNull::new(ptr as *mut u8) {
                    return Ok(MappedFile {
                        backing: Backing::Mapped { ptr: nn, len },
                    });
                }
            }
            // fall through to the heap read
        }
        let mut buf = Vec::with_capacity(len);
        file.read_to_end(&mut buf)?;
        Ok(MappedFile {
            backing: Backing::Heap(buf),
        })
    }

    /// A view of bytes already in memory, served like a file's.
    pub fn from_bytes(bytes: Vec<u8>) -> MappedFile {
        MappedFile {
            backing: Backing::Heap(bytes),
        }
    }

    /// The file's bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { ptr, len } => {
                // The pages are never written through this type.
                // SAFETY: ptr/len describe a live PROT_READ mapping that
                // outlives this borrow (unmapped only in Drop), so the
                // aliasing rules for &[u8] hold;
                // tested by: maps_file_bytes_exactly, view_survives_rename_over_original.
                unsafe { std::slice::from_raw_parts(ptr.as_ptr(), *len) }
            }
            Backing::Heap(buf) => buf,
        }
    }

    /// Whether the bytes come from a live memory map (as opposed to the
    /// heap fallback) — surfaced in server metrics.
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { .. } => true,
            Backing::Heap(_) => false,
        }
    }
}

impl Drop for MappedFile {
    fn drop(&mut self) {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { ptr, len } => {
                // SAFETY: exactly the region returned by mmap in open();
                // dropped once (Drop runs once), and no borrow of the
                // slice can outlive self;
                // tested by: view_survives_rename_over_original.
                unsafe {
                    sys::munmap(ptr.as_ptr() as *mut std::ffi::c_void, *len);
                }
            }
            Backing::Heap(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("pol-mmap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let mut f = File::create(&path).unwrap();
        f.write_all(contents).unwrap();
        f.sync_all().unwrap();
        path
    }

    #[test]
    fn maps_file_bytes_exactly() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let path = temp_file("exact.bin", &payload);
        let map = MappedFile::open(&path).unwrap();
        assert_eq!(map.bytes(), &payload[..]);
        assert_eq!(map.bytes().len(), payload.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_yields_empty_view() {
        let path = temp_file("empty.bin", b"");
        let map = MappedFile::open(&path).unwrap();
        assert!(map.bytes().is_empty());
        assert!(!map.is_mapped(), "empty files use the heap fallback");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let dir = std::env::temp_dir().join("pol-mmap-test");
        assert!(MappedFile::open(&dir.join("does-not-exist.bin")).is_err());
    }

    #[cfg(unix)]
    #[test]
    fn unix_files_actually_map() {
        let path = temp_file("mapped.bin", b"mapped bytes");
        let map = MappedFile::open(&path).unwrap();
        assert!(map.is_mapped());
        assert_eq!(map.bytes(), b"mapped bytes");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn view_survives_rename_over_original() {
        // The atomic-rename discipline: a reader's map must keep the old
        // bytes when a new snapshot is renamed over the path.
        let path = temp_file("renamed.bin", b"old contents");
        let map = MappedFile::open(&path).unwrap();
        let replacement = temp_file("replacement.bin", b"new contents!");
        std::fs::rename(&replacement, &path).unwrap();
        assert_eq!(map.bytes(), b"old contents");
        std::fs::remove_file(&path).ok();
    }
}
