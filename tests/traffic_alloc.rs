//! Proof that neither a traffic-plane frame nor a session's flows cost
//! a heap allocation.
//!
//! Every TCP segment crosses the fabric as a fixed 52-byte bridge frame
//! held inline in its envelope, written through the scratch buffer of
//! each board's fabric port, and every flow lives inline in its
//! flow-table slot. A stack with a stateful congestion policy keeps one
//! controller per slot in a side array that grows with the table; the
//! fixed-window FPGA stack keeps none. So a run's allocations are its
//! set-up (boards, flow-table blocks, channels, inboxes and their
//! growth) and not a multiple of its frames or its sessions. Its own
//! test binary, so the counting global allocator observes only what
//! this file runs.
//!
//! Measured on `TrafficWorkload::small()` (96 sessions, 192 flows,
//! 1,440 frames, the FPGA stack): 95, 108 and 129 allocations per run
//! on the reference driver and at one and two threads. With one boxed
//! congestion controller per flow the same runs made 291–325, and with
//! one `Vec<u8>` per frame 1,712–1,752; both fail the bound below.

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
        let bound = report.completed + 64;
        assert!(
            delta.allocations <= bound,
            "{name}: {} allocations for {} sessions and {} frames (bound {bound})",
            delta.allocations,
            report.completed,
            report.fabric.frames,
        );
    }
}
