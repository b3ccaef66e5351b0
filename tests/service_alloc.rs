//! Proof that a service frame costs no heap allocation.
//!
//! Every request, response, replication message and heartbeat of the
//! `small` and `standard` services crosses the fabric inline in its
//! envelope, a `FabricFrame` of at most 88 bytes, written through the
//! scratch buffer of each board's fabric port; a heartbeat's payload is
//! encoded once per tick and read in place on arrival. So a run's
//! allocations are its set-up and the per-operation state of the
//! service (values, logs, dedup tables), not a multiple of its frames.
//! Its own test binary, so the counting global allocator observes only
//! what this file runs.
//!
//! Measured on the Baseline scenario, per run on the reference driver
//! and at one and two threads: 1,352–1,385 allocations for `small()`
//! (192 client ops, 2,116 frames) and 4,303–4,365 for `standard()`
//! (640 ops, 10,770 frames), about 7 per op. With one `Vec<u8>` per
//! frame, a decoded `Vec` per heartbeat and a cloned op per digested
//! log entry the same runs made 7,128–7,161 and 30,035–30,097, 37–47
//! per op. Twice the heartbeat rate on `standard()` (8,400 more
//! heartbeat frames) then cost 19,256 more allocations; now it costs 58.
//!
//! A fault firing allocates nothing either: the fault plan keeps a
//! compact record per injection and recovery and builds trace events
//! only when it exports them. `standard()` under RollingCrashes, where a
//! down board's crash window fires on every work item it dispatches,
//! makes 5,523–5,618 allocations (8.6–8.8 per op); with a trace event
//! of owned strings per firing it made 8,120–8,215 (12.7–12.8 per op).

use enzian::platform::{FaultScenario, ServiceConfig, ServiceRunReport};
use enzian::sim::alloc_count::{self, CountingAllocator};
use enzian::sim::Duration;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Allocations allowed per client operation.
const PER_OP: u64 = 10;

type Run = fn(&ServiceConfig) -> ServiceRunReport;

const RUNS: [(&str, Run); 3] = [
    ("reference", ServiceConfig::run_reference),
    ("1 thread", |c| c.run_parallel(1)),
    ("2 threads", |c| c.run_parallel(2)),
];

/// Runs `cfg` through `run`, checks it against `reference`, and returns
/// the report with the allocations the run made.
fn counted(cfg: &ServiceConfig, run: Run, reference: &ServiceRunReport) -> (ServiceRunReport, u64) {
    let before = alloc_count::snapshot();
    let report = run(cfg);
    let delta = alloc_count::snapshot().since(&before);
    report.assert_matches(reference);
    (report, delta.allocations)
}

/// One test, so no other test's allocations land in the counts.
#[test]
fn service_frames_and_heartbeats_allocate_nothing() {
    // Warm-up: the first run pays for one-time process state (the
    // thread machinery among it).
    ServiceConfig::small().run_parallel(2);
    frames_stay_under_the_per_op_bound();
    heartbeats_add_almost_no_allocations();
}

fn frames_stay_under_the_per_op_bound() {
    for (label, cfg) in [
        ("small", ServiceConfig::small()),
        ("standard", ServiceConfig::standard()),
        (
            "standard rolling crashes",
            ServiceConfig::standard().with_scenario(FaultScenario::RollingCrashes),
        ),
    ] {
        let reference = cfg.run_reference();
        for (name, run) in RUNS {
            let (report, allocations) = counted(&cfg, run, &reference);
            assert_eq!(report.spilled_frames, 0, "{label}: every frame fits inline");
            let bound = PER_OP * report.total_client_ops;
            assert!(
                allocations <= bound,
                "{label} {name}: {allocations} allocations for {} client ops and {} frames \
                 (bound {bound})",
                report.total_client_ops,
                report.fabric.frames,
            );
        }
    }
}

fn heartbeats_add_almost_no_allocations() {
    // Twice the heartbeat rate: the same client work with twice the
    // heartbeat frames. Heartbeats themselves are allocation-free, so
    // the extra allocations are a small fraction of the extra frames.
    let base = ServiceConfig::standard();
    let mut fast = base;
    fast.hb_interval = Duration::from_us(5);
    let (slow_report, slow) = counted(&base, |c| c.run_parallel(2), &base.run_reference());
    let (fast_report, fast_allocs) = counted(&fast, |c| c.run_parallel(2), &fast.run_reference());
    let extra_beats = fast_report.heartbeats_sent - slow_report.heartbeats_sent;
    assert!(
        extra_beats > slow_report.heartbeats_sent / 2,
        "halving the interval must add heartbeats ({extra_beats})"
    );
    let extra_allocs = fast_allocs.saturating_sub(slow);
    assert!(
        extra_allocs * 50 <= extra_beats,
        "{extra_beats} extra heartbeat frames cost {extra_allocs} extra allocations"
    );
}
