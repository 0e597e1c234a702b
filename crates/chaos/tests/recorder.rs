//! The operation recorder logs only while an `Exclusive` guard is held,
//! so a process that takes none (a test-built `polinv`, a suite that
//! never arms a failpoint) keeps no log however many files it writes.
//! This is its own test binary: the registry's unit tests take the guard
//! concurrently with each other.

use pol_chaos::{exclusive, record, take_ops};
use std::path::{Path, PathBuf};

#[test]
fn operations_are_recorded_only_while_the_guard_is_held() {
    record("create", Path::new("before"));
    assert!(take_ops().is_empty(), "recorded without a guard");

    let guard = exclusive();
    record("fsync", Path::new("held"));
    assert_eq!(take_ops(), [("fsync", PathBuf::from("held"))]);
    record("rename", Path::new("dropped-with-the-guard"));
    drop(guard);
    assert!(take_ops().is_empty(), "the guard's drop forgets the log");

    record("unlink", Path::new("after"));
    assert!(take_ops().is_empty(), "recorded after the guard dropped");
}
