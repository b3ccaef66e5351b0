//! Bound on the memory a flows-shaped traffic run asks for per session.
//!
//! A flow storm holds thousands of sessions open at once, so its memory
//! is the boards' flow tables and the fabric channels' busy intervals.
//! This test counts every byte the run requests from the allocator,
//! growth included (a reallocation counts as a fresh allocation of its
//! new size), and divides by the sessions completed.
//!
//! With every busy interval of the run kept in each fabric channel and
//! the flow slots in one doubling `Vec`, the same runs (reference
//! driver, one and two threads) asked for 1,134–1,144 bytes per session
//! and fail the bound below. With the channels retiring the intervals
//! behind each board's work time and the slots in blocks that never
//! move, they asked for 591–601 while each flow was a 152-byte slot
//! plus a boxed congestion controller, and 510–523 with the controller
//! inline in a 120-byte slot, which later changes brought to 428–438;
//! all of these fail the bound below. With each flow in a 64-byte slot
//! and no controller stored under the stack's fixed-window policy, the
//! runs ask for 314–327, in the debug and the release build alike.
//!
//! Its own test binary, so the counting global allocator observes only
//! what this file runs.

use enzian::platform::traffic::{TrafficRunReport, TrafficWorkload};
use enzian::sim::alloc_count::{self, CountingAllocator};
use enzian::sim::Duration;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

#[test]
fn a_flow_storm_allocates_at_most_380_bytes_per_session() {
    let w = TrafficWorkload::small()
        .with_sessions_per_board(2_000)
        .with_open_gap(Duration::from_ns(600))
        .with_bytes_per_session(2 * 1024)
        .with_hold(Duration::from_ms(32))
        .with_seed(0x7AF1_F10C);
    type Run = fn(&TrafficWorkload) -> TrafficRunReport;
    let runs: [(&str, Run); 3] = [
        ("reference", TrafficWorkload::run_reference),
        ("1 thread", |w| w.run_parallel(1)),
        ("2 threads", |w| w.run_parallel(2)),
    ];
    let mut first: Option<TrafficRunReport> = None;
    for (name, run) in runs {
        let before = alloc_count::snapshot();
        let report = run(&w);
        let delta = alloc_count::snapshot().since(&before);
        match &first {
            Some(reference) => report.assert_matches(reference),
            None => assert_eq!(report.completed, w.total_sessions()),
        }
        let per_session = delta.bytes_allocated as f64 / report.completed as f64;
        assert!(
            per_session <= 380.0,
            "{name}: {per_session:.1} bytes per session ({} bytes for {} sessions)",
            delta.bytes_allocated,
            report.completed
        );
        first.get_or_insert(report);
    }
}
