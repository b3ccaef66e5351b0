//! Bound on the memory the MOESI model checker asks for per explored
//! state.
//!
//! Per state the search keeps its bit-packed canonical key in the key
//! set's arena blocks, about 1.5 slots of the key set's table and a
//! node (parent index plus action); while the state waits on the BFS
//! frontier it is held packed too. This test counts every byte the
//! search requests from the allocator, growth included (a reallocation
//! counts as a fresh allocation of its new size), and divides by the
//! states found.
//!
//! With byte-per-field keys in one doubling arena and a frontier of
//! whole 262-byte states, the same search asked for 271.5 bytes per
//! state here (30.7 MB for 112,943 states), and `two_agent()
//! .with_lines(2)` for 254.8.
//!
//! Its own test binary, so the counting global allocator observes only
//! what this file runs.

use enzian::eci::{ExploreConfig, Explorer};
use enzian::sim::alloc_count::{self, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

#[test]
fn moesi_search_allocates_at_most_136_bytes_per_state() {
    let explorer = Explorer::new(ExploreConfig::two_agent().with_lines(2).with_max_writes(1));
    let before = alloc_count::snapshot();
    let out = explorer.run_exhaustive().expect("fits its budget");
    let delta = alloc_count::snapshot().since(&before);
    assert!(out.violation.is_none());
    assert_eq!(out.stats.states, 112_943);
    let per_state = delta.bytes_allocated as f64 / out.stats.states as f64;
    assert!(
        per_state <= 136.0,
        "{per_state:.1} bytes per state ({} bytes for {} states)",
        delta.bytes_allocated,
        out.stats.states
    );
    // Arena blocks, table and node-store growth and the frontier
    // buffer: a handful of allocations, none per state.
    assert!(
        delta.allocations < 200,
        "{} allocations for {} states",
        delta.allocations,
        out.stats.states
    );
}
