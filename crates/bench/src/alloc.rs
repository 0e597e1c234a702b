//! A counting global allocator for the benchmark binaries.
//!
//! Wraps the system allocator with relaxed atomic counters so
//! `polinv build --timings` can report the allocations and bytes of a
//! build — the cost the fused executor exists to avoid. Every call also
//! feeds `pol_engine::profile::note_alloc`, the thread-local counters
//! `tests/alloc_budget.rs` reads to count one thread's allocations.
//! Install it in a binary with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: pol_bench::alloc::CountingAlloc = pol_bench::alloc::CountingAlloc;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// A point-in-time reading of the allocation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocation calls (alloc + realloc) since process start.
    pub allocs: u64,
    /// Bytes requested since process start.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// Counter growth since an earlier snapshot.
    pub fn since(&self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// Current counter values. Counters only move when a binary installs
/// [`CountingAlloc`] as its `#[global_allocator]`.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// The counting allocator: every call forwards verbatim to [`System`]
/// after bumping the counters (relaxed ordering — counts are advisory
/// telemetry, not synchronization).
pub struct CountingAlloc;

// SAFETY: every method forwards verbatim to `System`, which upholds the
// GlobalAlloc contract; the added atomic increments cannot affect the
// returned memory; tested by: counting_alloc_forwards_and_counts.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds the GlobalAlloc contract; forwarded verbatim;
    // tested by: counting_alloc_forwards_and_counts.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        pol_engine::profile::note_alloc(layout.size());
        // SAFETY: same layout, same contract as the caller's;
        // tested by: counting_alloc_forwards_and_counts.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds the GlobalAlloc contract; forwarded verbatim;
    // tested by: counting_alloc_forwards_and_counts.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same pointer/layout pair the caller owns;
        // tested by: counting_alloc_forwards_and_counts.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds the GlobalAlloc contract; forwarded verbatim;
    // tested by: counting_alloc_forwards_and_counts.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        pol_engine::profile::note_alloc(new_size);
        // SAFETY: same pointer/layout/new_size triple as the caller's;
        // tested by: counting_alloc_forwards_and_counts.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta_is_monotone() {
        let a = snapshot();
        let b = snapshot();
        let d = b.since(a);
        // Without the allocator installed the counters stay flat; with it
        // they only grow. Either way the delta is non-negative by type.
        assert!(d.allocs <= b.allocs);
        assert_eq!(AllocSnapshot::default().since(b).allocs, 0);
    }
}
