//! A counting global allocator for allocation-count tests and reports.
//!
//! [`CountingAllocator`] wraps the system allocator and counts
//! allocations, deallocations and allocated bytes in relaxed atomics.
//! Binaries that want the counts (the `reproduce` benchmark driver, the
//! zero-allocation hot-path test) install it with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: enzian_sim::alloc_count::CountingAllocator =
//!     enzian_sim::alloc_count::CountingAllocator::new();
//! ```
//!
//! and read the totals through [`allocations`] / [`snapshot`]. When no
//! binary installs it the counters simply stay at zero, so library code
//! can export them unconditionally.
//!
//! For a fixed workload on a fixed toolchain the counts are
//! deterministic (the hot-path models avoid randomized-hash containers),
//! which is what lets CI gate on them: an accidental re-introduction of
//! a per-event allocation shows up as an exact counter regression, not a
//! noisy timing blip.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// A `#[global_allocator]` that forwards to [`System`] and counts.
#[derive(Debug, Default)]
pub struct CountingAllocator;

impl CountingAllocator {
    /// A new counting allocator (const, for static installation).
    pub const fn new() -> Self {
        CountingAllocator
    }
}

// SAFETY: pure pass-through to `System`; the counters never affect the
// returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES_ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count a realloc as one allocation of the new size (growth is
        // what the gate cares about).
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES_ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A point-in-time reading of the allocator counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocSnapshot {
    /// Calls to `alloc` (plus `realloc`) since process start.
    pub allocations: u64,
    /// Calls to `dealloc` since process start.
    pub deallocations: u64,
    /// Bytes requested across all allocations.
    pub bytes_allocated: u64,
}

impl AllocSnapshot {
    /// Counter deltas from `earlier` to `self`.
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocations: self.allocations - earlier.allocations,
            deallocations: self.deallocations - earlier.deallocations,
            bytes_allocated: self.bytes_allocated - earlier.bytes_allocated,
        }
    }
}

/// Total allocations since process start (zero when the counting
/// allocator is not installed).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// All three counters at once.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        deallocations: DEALLOCATIONS.load(Ordering::Relaxed),
        bytes_allocated: BYTES_ALLOCATED.load(Ordering::Relaxed),
    }
}
