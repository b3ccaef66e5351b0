//! Proof that a memory-bridge cluster frame costs no heap allocation.
//!
//! Every remote operation of the cluster crosses the fabric as a bridge
//! request and its reply, each written through the scratch buffer of
//! the board's fabric port and copied inline into its envelope, a
//! `FabricFrame` of at most 152 bytes. So the allocations a run makes
//! grow with each model's own per-operation state (the owner's coherent
//! system, the streams' shadow memory), not with one buffer per frame.
//! Its own test binary, with one `#[test]`, so the counting global
//! allocator observes only what this file runs. The service and traffic
//! planes have their own binaries, `tests/service_alloc.rs` and
//! `tests/traffic_alloc.rs`.
//!
//! Measured on 3 boards with every operation remote: doubling
//! `ops_per_stream` from 96 to 192 adds 2,304 bridge frames and about
//! 0.7 allocations per frame. With one `Vec<u8>` per frame it added
//! 3,889, 1.69 per frame, and fails the bound below.

use enzian::platform::{ClusterRunReport, ClusterWorkload, EnzianCluster};
use enzian::sim::alloc_count::{self, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Runs `run` and returns its result with the allocations it made.
fn counted<R>(run: impl FnOnce() -> R) -> (R, u64) {
    let before = alloc_count::snapshot();
    let report = run();
    (report, alloc_count::snapshot().since(&before).allocations)
}

#[test]
fn cluster_frames_add_fewer_allocations_than_frames() {
    // Every operation remote, so each one is a request frame and its
    // reply; doubling the operations doubles the frames.
    const MIB: u64 = 1 << 20;
    type Run = fn(&mut EnzianCluster, &ClusterWorkload) -> ClusterRunReport;
    let runs: [(&str, Run); 3] = [
        ("reference", EnzianCluster::run_reference),
        ("1 thread", |c, w| c.run_parallel(w, 1)),
        ("2 threads", |c, w| c.run_parallel(w, 2)),
    ];
    let remote = ClusterWorkload::small().with_remote_bp(10_000);
    let short = remote.with_ops_per_stream(96);
    let long = remote.with_ops_per_stream(192);
    let short_ref = EnzianCluster::new(3, MIB).run_reference(&short);
    let long_ref = EnzianCluster::new(3, MIB).run_reference(&long);
    // Warm-up: the first parallel run pays for one-time process state
    // (the thread machinery among it).
    EnzianCluster::new(3, MIB).run_parallel(&short, 2);
    for (name, run) in runs {
        let counted_run = |w: &ClusterWorkload, reference: &ClusterRunReport| {
            let mut cluster = EnzianCluster::new(3, MIB);
            let (report, allocations) = counted(|| run(&mut cluster, w));
            report.assert_matches(reference);
            (report, allocations)
        };
        let (a, short_allocs) = counted_run(&short, &short_ref);
        let (b, long_allocs) = counted_run(&long, &long_ref);
        let extra_frames = b.fabric.frames - a.fabric.frames;
        let extra_allocs = long_allocs.saturating_sub(short_allocs);
        assert!(
            extra_frames >= a.fabric.frames,
            "doubling the operations must double the frames"
        );
        assert!(
            extra_allocs < extra_frames,
            "cluster {name}: {extra_frames} extra bridge frames cost {extra_allocs} extra \
             allocations"
        );
    }
}
