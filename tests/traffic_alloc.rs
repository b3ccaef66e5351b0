//! Proof that a traffic-plane frame costs no heap allocation.
//!
//! Every TCP segment crosses the fabric as a fixed 52-byte bridge frame
//! held inline in its envelope, encoded through a scratch buffer each
//! board reuses, so a run's allocations are its set-up (boards, flow
//! tables, channels, inboxes and their growth) and not a multiple of
//! its frames. Its own test binary, so the counting global allocator
//! observes only what this file runs.
//!
//! Measured on `TrafficWorkload::small()` (96 sessions, 1,440 frames):
//! 274–310 allocations per run on the reference driver and at one and
//! two threads. With one `Vec<u8>` per frame the same runs made
//! 1,712–1,752 and fail the bound below.

use enzian::platform::traffic::{TrafficRunReport, TrafficWorkload};
use enzian::sim::alloc_count::{self, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

#[test]
fn a_traffic_frame_allocates_nothing() {
    let w = TrafficWorkload::small();
    // Warm-up: the first run pays for one-time process state (the
    // thread machinery among it).
    let reference = w.run_parallel(2);
    type Run = fn(&TrafficWorkload) -> TrafficRunReport;
    let runs: [(&str, Run); 3] = [
        ("reference", TrafficWorkload::run_reference),
        ("1 thread", |w| w.run_parallel(1)),
        ("2 threads", |w| w.run_parallel(2)),
    ];
    for (name, run) in runs {
        let before = alloc_count::snapshot();
        let report = run(&w);
        let delta = alloc_count::snapshot().since(&before);
        report.assert_matches(&reference);
        let bound = 4 * report.completed + 64;
        assert!(
            delta.allocations <= bound,
            "{name}: {} allocations for {} sessions and {} frames (bound {bound})",
            delta.allocations,
            report.completed,
            report.frames,
        );
    }
}
