//! Thread-local allocation counters.
//!
//! Fed by whatever global allocator the binary installs (pol-bench's
//! `CountingAlloc` calls [`note_alloc`]); two [`thread_totals`] readings
//! attribute a region of code on one thread, whatever other threads
//! allocate meanwhile. A binary without a counting allocator reads zero.

use std::cell::Cell;

thread_local! {
    /// Allocations observed on this thread (monotonic).
    static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested by those allocations.
    static TL_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Records one allocation of `bytes` on the current thread.
///
/// Safe to call from inside `GlobalAlloc::alloc`: the cells are
/// const-initialized (no lazy init, no allocation) and `try_with` tolerates
/// TLS teardown during thread exit.
#[inline]
pub fn note_alloc(bytes: usize) {
    let _ = TL_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = TL_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

/// `(allocations, bytes)` recorded on the current thread so far. Monotonic;
/// subtract two snapshots to attribute a region of code.
pub fn thread_totals() -> (u64, u64) {
    let allocs = TL_ALLOCS.try_with(Cell::get).unwrap_or(0);
    let bytes = TL_BYTES.try_with(Cell::get).unwrap_or(0);
    (allocs, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_alloc_accumulates_on_this_thread() {
        let (a0, b0) = thread_totals();
        note_alloc(128);
        note_alloc(64);
        let (a1, b1) = thread_totals();
        assert_eq!(a1 - a0, 2);
        assert_eq!(b1 - b0, 192);
    }
}
