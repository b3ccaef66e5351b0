//! Bounds on the memory the model checkers ask for per explored state.
//!
//! Per state the search keeps its canonical key in the key set's arena
//! blocks, about 1.5 slots of the key set's table and a node (parent
//! index plus action) in the node store's blocks; while the state waits
//! on the BFS frontier it is held packed, in the frontier's blocks.
//! These tests count every byte the search requests from the allocator,
//! growth and the pipelined search's chunk buffers included (a
//! reallocation counts as a fresh allocation of its new size), and
//! divide by the states found.
//!
//! Its own test binary, so the counting global allocator observes only
//! what this file runs; the tests take turns, so each counts only its
//! own search.

use std::sync::{Mutex, PoisonError};

use enzian::eci::{ExploreConfig, Explorer};
use enzian::net::tcp::{TcpModel, TcpModelConfig};
use enzian::sim::alloc_count::{self, AllocSnapshot, CountingAllocator};
use enzian::sim::explore::SearchStats;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Runs `search` alone and returns its statistics and what it asked the
/// allocator for.
fn measured(search: impl FnOnce() -> SearchStats) -> (SearchStats, AllocSnapshot) {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let before = alloc_count::snapshot();
    let stats = search();
    (stats, alloc_count::snapshot().since(&before))
}

/// With byte-per-field keys in one doubling arena and a frontier of
/// whole 262-byte states, the same search asked for 271.5 bytes per
/// state here (30.7 MB for 112,943 states), and `two_agent()
/// .with_lines(2)` for 254.8. With bit-packed keys and the pipelined
/// search's chunk buffers, but the node store in a doubling `Vec` and
/// the packed frontier in one buffer, it asked for 109.9 (12.4 MB). With
/// both in 64 KiB blocks it asks for 97.1 (11.0 MB, 105 allocations) on
/// a host with two or more CPUs, and for 63.3 on one CPU, where no
/// chunk buffers are allocated (76.0 before the blocks).
#[test]
fn moesi_search_allocates_at_most_136_bytes_per_state() {
    let explorer = Explorer::new(ExploreConfig::two_agent().with_lines(2).with_max_writes(1));
    let (stats, delta) = measured(|| {
        let out = explorer.run_exhaustive().expect("fits its budget");
        assert!(out.violation.is_none());
        out.stats
    });
    assert_eq!(stats.states, 112_943);
    let per_state = delta.bytes_allocated as f64 / stats.states as f64;
    assert!(
        per_state <= 136.0,
        "{per_state:.1} bytes per state ({} bytes for {} states)",
        delta.bytes_allocated,
        stats.states
    );
    // Arena, node and frontier blocks, table growth and chunk buffers:
    // a handful of allocations, none per state.
    assert!(
        delta.allocations < 200,
        "{} allocations for {} states",
        delta.allocations,
        stats.states
    );
}

/// With whole 70-byte states on a doubling `VecDeque` frontier and the
/// node store in a doubling `Vec`, this search asked for 122.4 bytes
/// per state (15.9 MB for 129,835 states). With the frontier holding
/// each state as its canonical key (18 bytes on average) and both in
/// 64 KiB blocks it asks for 101.8 (13.2 MB, 140 allocations) on a
/// host with two or more CPUs, 37 of those bytes for the pipelined
/// search's chunk buffers, and for 64.7 on one CPU (103.0 before).
#[test]
fn tcp_search_allocates_at_most_104_bytes_per_state() {
    let model = TcpModel::new(TcpModelConfig::one_way());
    let (stats, delta) = measured(|| {
        let out = model.run_exhaustive().expect("fits its budget");
        assert!(out.violation.is_none());
        out.stats
    });
    assert_eq!(stats.states, 129_835);
    let per_state = delta.bytes_allocated as f64 / stats.states as f64;
    assert!(
        per_state <= 104.0,
        "{per_state:.1} bytes per state ({} bytes for {} states)",
        delta.bytes_allocated,
        stats.states
    );
}
