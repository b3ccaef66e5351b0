//! Proof that the MOESI model checker explores without per-state
//! allocation.
//!
//! Its own test binary, so the counting global allocator observes only
//! the one search this file measures (see `crates/sim/tests/alloc_free.rs`
//! for why a shared harness would pollute the counter).

use enzian_eci::{ExploreConfig, Explorer};
use enzian_sim::alloc_count::{self, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

#[test]
fn exhaustive_search_allocates_only_to_grow_its_stores() {
    let explorer = Explorer::new(ExploreConfig::two_agent().with_lines(2).with_max_writes(1));
    let before = alloc_count::snapshot();
    let out = explorer.run_exhaustive().expect("fits its budget");
    let delta = alloc_count::snapshot().since(&before);
    assert!(out.violation.is_none());
    assert_eq!(out.stats.states, 112_943);
    // The state is `Copy` and successors and keys go into buffers the
    // search reuses, so what remains is one 64 KiB block per full block
    // of keys, of nodes or of packed frontier states (never
    // reallocated), the doubling of the visited table and the
    // pipelined search's chunk buffers: a few dozen allocations, not
    // one per state.
    assert!(
        delta.allocations < 200,
        "{} allocations ({} bytes) for {} states",
        delta.allocations,
        delta.bytes_allocated,
        out.stats.states
    );
}
