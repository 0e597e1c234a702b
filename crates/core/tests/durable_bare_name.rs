//! A file saved or created under a bare name has the working directory
//! fsynced, as a file under any other path has its parent (run with
//! `cargo test -p pol-core --features chaos --test durable_bare_name`).
//! A bare name's parent is the empty path, which cannot be opened, so a
//! `sync_dir` of it would do nothing. This is its own test binary
//! because it changes the process's working directory.

#![cfg(feature = "chaos")]

use pol_core::codec::durable::{save_bytes, AppendFile};
use std::path::{Path, PathBuf};

/// The directory fsyncs recorded since the registry was reset.
fn directory_fsyncs() -> Vec<PathBuf> {
    pol_chaos::take_ops()
        .into_iter()
        .filter(|(kind, _)| *kind == "fsync-dir")
        .map(|(_, path)| path)
        .collect()
}

#[test]
fn a_bare_name_fsyncs_the_working_directory() {
    let _guard = pol_chaos::exclusive();
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("pol-durable-bare-name");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_current_dir(&dir).unwrap();

    save_bytes(b"image", Path::new("out.pol")).unwrap();
    assert_eq!(std::fs::read("out.pol").unwrap(), b"image");
    assert_eq!(directory_fsyncs(), [PathBuf::from(".")]);

    let log = AppendFile::create(Path::new("seg.wal"), b"HEAD").unwrap();
    assert_eq!(log.committed(), 4);
    assert_eq!(directory_fsyncs(), [PathBuf::from(".")]);

    // A name with a directory part still fsyncs that directory.
    std::fs::create_dir_all("sub").unwrap();
    save_bytes(b"image", Path::new("sub/out.pol")).unwrap();
    assert_eq!(directory_fsyncs(), [PathBuf::from("sub")]);
}
