//! The DES throughput floor: the calendar-queue core with POD events
//! must fire the `sched_hotpath` event storm at least 1.5× as fast as
//! the retained `BTreeMap`/`BinaryHeap` reference core, event for event.
//!
//! Wall clock is noisy, so the two cores run in interleaved pairs (the
//! same background load hits both halves of a pair) and the floor holds
//! the best pair's ratio. The storm is identical on both cores, which
//! the equal `(events, digest, end time)` triples assert; only the
//! kernel differs.

use enzian::platform::experiments::sched_hotpath::{run_pod_core, run_reference_core};
use std::time::Instant;

/// Interleaved reference/POD pairs.
const PAIRS: usize = 5;

/// Minimum POD-over-reference throughput ratio.
const FLOOR: f64 = 1.5;

#[test]
fn pod_core_clears_its_throughput_floor_over_the_reference_core() {
    let mut best = 0.0f64;
    for _ in 0..PAIRS {
        let started = Instant::now();
        let reference = run_reference_core();
        let reference_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let pod = run_pod_core();
        let pod_s = started.elapsed().as_secs_f64();
        assert_eq!(reference, pod, "the cores fired different storms");
        best = best.max(reference_s / pod_s);
    }
    assert!(
        best >= FLOOR,
        "POD core is only {best:.2}x the reference core (floor {FLOOR}x)"
    );
}
