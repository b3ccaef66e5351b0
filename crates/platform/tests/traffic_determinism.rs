//! The traffic generator's cross-thread determinism battery.
//!
//! Same contract as `par_determinism.rs`: thread count is never
//! observable. Every report, metric export and state digest out of the
//! connection-churn generator is a pure function of the workload, at
//! threads ∈ {1, 2, 8}, against the sequential reference engine, and
//! under an active segment-loss fault plan. The full-size legs behind
//! `BENCH_traffic.json` run in release through `make determinism`; these
//! tests drive scaled-down workloads through the identical code path.

use enzian_platform::{check_engines, TrafficStack, TrafficWorkload};
use enzian_sim::{Duration, MetricsRegistry};

const THREADS: [usize; 3] = [1, 2, 8];

/// Every thread count reproduces the sequential reference engine
/// bit-for-bit, and all parallel runs agree down to epoch counts.
#[test]
fn traffic_reports_are_byte_identical_across_threads() {
    let w = TrafficWorkload::small().with_boards(4);
    let r = check_engines(&THREADS, |e| w.run(e));
    assert!(r.completed > 0, "sessions must complete");
}

/// The metric export — the exact content of `BENCH_traffic.json`'s
/// `metrics` map — is byte-identical for every thread count.
#[test]
fn traffic_exports_are_byte_identical_across_threads() {
    let w = TrafficWorkload::small().with_stack(TrafficStack::Hybrid);
    let runs: Vec<(String, String)> = THREADS
        .iter()
        .map(|&t| {
            let mut reg = MetricsRegistry::new();
            w.run_parallel(t).export_metrics("traffic.test", &mut reg);
            (reg.export_text(), reg.export_json())
        })
        .collect();
    let (text0, json0) = &runs[0];
    for (text, json) in &runs[1..] {
        assert_eq!(text, text0, "text export depends on the thread count");
        assert_eq!(json, json0, "json export depends on the thread count");
    }
}

/// The same invariant holds with a probabilistic segment-loss plan
/// active: drops, rewinds and recoveries land identically for every
/// thread count and for the reference engine.
#[test]
fn traffic_is_deterministic_under_an_active_fault_plan() {
    let w = TrafficWorkload::small()
        .with_sessions_per_board(24)
        .with_bytes_per_session(64 * 1024)
        .with_loss_bp(200);
    let r = check_engines(&THREADS, |e| w.run(e));
    assert!(r.losses_injected > 0, "the loss plan must fire");
    assert!(
        r.retransmissions > 0,
        "injected loss must force retransmissions"
    );
}

/// The client → proxy → server chain is deterministic too, and really
/// relays: every session is spliced through the middle board.
#[test]
fn proxy_chain_is_deterministic_across_threads() {
    let w = TrafficWorkload::small().with_proxy();
    let r = check_engines(&THREADS, |e| w.run(e));
    assert_eq!(r.relayed_sessions, r.completed);
    assert!(r.relayed_bytes > 0);
}

/// Flow-table property: under sustained churn the slab reuses retired
/// slots instead of growing — the table never allocates past the
/// concurrency high-water mark, which stays far below the total number
/// of sessions pushed through it.
#[test]
fn flow_table_reuses_slots_under_peak_churn() {
    // Sized so a session's whole life (handshake + 8 KiB + 20 µs hold)
    // fits well inside the 8 µs open spacing: the table must cycle, not
    // fill — only a handful of the 512 sessions per board are ever live
    // at once.
    let w = TrafficWorkload::small()
        .with_boards(2)
        .with_sessions_per_board(512)
        .with_open_gap(Duration::from_us(8))
        .with_hold(Duration::from_us(20));
    let r = w.run_parallel(2);
    assert_eq!(r.opened, w.total_sessions());
    assert_eq!(r.completed, r.opened);
    // Slab invariant: allocated slots == peak live flows, exactly.
    assert_eq!(r.table_slots, r.peak_flows);
    // Churn invariant: the table stayed bounded while every session
    // cycled through it — the peak is a small fraction of the opens.
    assert!(
        r.peak_flows < r.opened / 2,
        "peak {} flows for {} sessions: slots are not being reused",
        r.peak_flows,
        r.opened
    );
}

/// The digest tracks the workload seed, not the engine: same seed and
/// different thread counts agree, different seeds diverge.
#[test]
fn digest_tracks_the_seed_not_the_engine() {
    let w = TrafficWorkload::small().with_loss_bp(100);
    let a = w.run_parallel(1);
    let b = w.run_parallel(8);
    assert_eq!(a.digest, b.digest);
    let other = w.with_seed(w.seed ^ 1).run_parallel(8);
    assert_ne!(
        a.digest, other.digest,
        "digest must be sensitive to the loss-plan seed"
    );
}
