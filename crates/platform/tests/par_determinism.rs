//! The cross-thread determinism battery.
//!
//! The conservative-parallel engine's contract is that thread count is
//! *never observable*: every report, metric export and trace digest is
//! a pure function of the workload seed. These tests run the real
//! experiment drivers at threads ∈ {1, 2, 8}, against the sequential
//! reference engine, and under an active fault plan, asserting
//! byte-identical output everywhere.

use enzian_eci::EciSystemConfig;
use enzian_platform::experiments::{cluster_scale, fault_sweep};
use enzian_platform::{
    check_engines, BoardId, ClusterWorkload, EnzianCluster, FaultScenario, ServiceConfig,
};
use enzian_sim::MetricsRegistry;

const THREADS: [usize; 3] = [1, 2, 8];
const MIB: u64 = 1 << 20;

/// `cluster_scale` — the driver behind `BENCH_cluster_scale.json` —
/// renders byte-identical registry exports for every thread count.
#[test]
fn cluster_scale_exports_are_byte_identical_across_threads() {
    let runs: Vec<(Vec<cluster_scale::ClusterScaleRow>, String, String)> = THREADS
        .iter()
        .map(|&t| {
            let mut reg = MetricsRegistry::new();
            let rows = cluster_scale::run_instrumented(t, &mut reg);
            (rows, reg.export_text(), reg.export_json())
        })
        .collect();
    let (rows0, text0, json0) = &runs[0];
    for (rows, text, json) in &runs[1..] {
        assert_eq!(rows, rows0, "rows depend on the thread count");
        assert_eq!(text, text0, "text export depends on the thread count");
        assert_eq!(json, json0, "json export depends on the thread count");
    }
}

/// Every thread count reproduces the sequential reference engine
/// bit-for-bit — reports, digests and captured wire traces — on a
/// trace-capturing cluster.
#[test]
fn parallel_engine_matches_reference_with_traces_captured() {
    let w = ClusterWorkload::small();
    let cfg = EciSystemConfig::enzian().with_capture_trace(true);
    let r = check_engines(&THREADS, |e| {
        EnzianCluster::with_board_config(3, MIB, cfg).run(&w, e)
    });
    assert!(
        r.remote_reads + r.remote_writes > 0,
        "workload must exercise the bridge"
    );
}

/// The same invariant holds with fault injection active: nacks and
/// failures land identically for every thread count and for the
/// reference engine.
#[test]
fn parallel_engine_is_deterministic_under_an_active_fault_plan() {
    let w = ClusterWorkload::small()
        .with_ops_per_stream(64)
        .with_fault_rate_bp(500);
    let mut cluster = None;
    check_engines(&THREADS, |e| {
        cluster.insert(EnzianCluster::new(2, MIB)).run(&w, e)
    });
    let mut cluster = cluster.expect("the cluster ran");
    // The plan must actually have fired (recovery may still absorb
    // every fault without surfacing a failure — that's its job).
    let injected: u64 = (0..2)
        .map(|b| {
            cluster
                .board(BoardId(b))
                .fault_plan()
                .expect("plan stays installed")
                .total_injected()
        })
        .sum();
    assert!(injected > 0, "fault plan at 5% must inject something");
}

/// `fault_sweep` — the other seeded bench driver — exports identically
/// whether run alone or on 8 concurrent threads: no hidden global
/// state leaks between instances.
#[test]
fn fault_sweep_is_invariant_across_concurrent_instances() {
    let baseline = {
        let mut reg = MetricsRegistry::new();
        let rows = fault_sweep::run_instrumented(&mut reg);
        (rows, reg.export_json())
    };
    for &n in &[2usize, 8] {
        let results: Vec<(Vec<fault_sweep::FaultSweepRow>, String)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    scope.spawn(|| {
                        let mut reg = MetricsRegistry::new();
                        let rows = fault_sweep::run_instrumented(&mut reg);
                        (rows, reg.export_json())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (rows, json) in &results {
            assert_eq!(rows, &baseline.0, "{n} concurrent sweeps diverged");
            assert_eq!(json, &baseline.1, "{n} concurrent exports diverged");
        }
    }
}

/// The replicated KV service under an active crash-fault plan produces
/// bit-identical reports — SLO histograms, state digest, committed logs
/// and all — for every thread count and for the reference engine.
#[test]
fn service_with_crash_plan_is_byte_identical_across_threads() {
    let cfg = ServiceConfig::small().with_scenario(FaultScenario::RollingCrashes);
    let r = check_engines(&THREADS, |e| cfg.run(e));
    assert!(r.crashes > 0, "the crash plan must fire");
    assert!(r.failovers > 0, "crashes must force failovers");
}

/// The `service` bench driver — the path behind `BENCH_service.json` —
/// renders byte-identical registry exports for every thread count.
#[test]
fn service_exports_are_byte_identical_across_threads() {
    use enzian_platform::experiments::service;
    let runs: Vec<(Vec<service::ServiceRow>, String, String)> = THREADS
        .iter()
        .map(|&t| {
            let mut reg = MetricsRegistry::new();
            let rows = service::run_instrumented(t, &mut reg);
            (rows, reg.export_text(), reg.export_json())
        })
        .collect();
    let (rows0, text0, json0) = &runs[0];
    for (rows, text, json) in &runs[1..] {
        assert_eq!(rows, rows0, "rows depend on the thread count");
        assert_eq!(text, text0, "text export depends on the thread count");
        assert_eq!(json, json0, "json export depends on the thread count");
    }
}

/// Two same-seed runs of the full parallel path are identical even
/// with different thread counts *and* different workload-irrelevant
/// settings, while a different seed changes the digest.
#[test]
fn digest_tracks_the_seed_not_the_engine() {
    let w = ClusterWorkload::small();
    let a = EnzianCluster::new(2, MIB).run_parallel(&w, 1);
    let b = EnzianCluster::new(2, MIB).run_parallel(&w, 8);
    assert_eq!(a.digest, b.digest);
    let other = EnzianCluster::new(2, MIB).run_parallel(&w.with_seed(w.seed ^ 1), 8);
    assert_ne!(
        a.digest, other.digest,
        "digest must be sensitive to the workload"
    );
}
