//! Property tests for the event-driven transaction engine: N outstanding
//! transactions to overlapping lines must serialize correctly — the
//! protocol checker stays clean, data stays coherent with a shadow model
//! applied in issue order (the MSHR waiter queues are FIFO per line), and
//! rerunning the same seed reproduces every completion byte-for-byte —
//! including under `FaultPlan` frame faults on the link.

use enzian_eci::link::fault_targets;
use enzian_eci::{EciSystem, EciSystemConfig, TxnCompletion, TxnHandle, TxnOp};
use enzian_mem::Addr;
use enzian_sim::{Duration, FaultPlan, FaultSpec, SimRng, Time};

const SLOTS: u64 = 8;
const OPS: u64 = 32;

/// One seed-determined workload: a mix of FPGA and CPU reads and writes
/// over `SLOTS` CPU-homed lines, all issued up front at staggered times
/// so many transactions overlap in flight, many on the same line.
fn workload(seed: u64) -> Vec<(Time, Addr, TxnOp)> {
    let mut rng = SimRng::seed_from(0x0DD5_7A11 ^ seed);
    (0..OPS)
        .map(|i| {
            let slot = rng.next_below(SLOTS);
            let fill = rng.next_u64() as u8;
            let addr = Addr(slot * 128);
            let op = match rng.next_below(4) {
                0 => TxnOp::FpgaRead,
                1 => TxnOp::FpgaWrite([fill; 128]),
                2 => TxnOp::CpuRead,
                _ => TxnOp::CpuWrite([fill; 128]),
            };
            (Time::ZERO + Duration::from_ns(10) * i, addr, op)
        })
        .collect()
}

/// Issues the whole workload asynchronously, runs it dry, and returns
/// every completion in issue order (plus the system for invariants).
fn run(
    seed: u64,
    cfg: EciSystemConfig,
    plan: Option<FaultPlan>,
) -> (Vec<TxnCompletion>, EciSystem) {
    let mut sys = EciSystem::new(cfg);
    if let Some(plan) = plan {
        sys.set_fault_plan(plan);
    }
    let handles: Vec<TxnHandle> = workload(seed)
        .into_iter()
        .map(|(at, addr, op)| sys.issue(at, addr, op))
        .collect();
    sys.run_to_idle();
    let completions = handles
        .into_iter()
        .map(|h| sys.take_completion(h).expect("every issued txn completes"))
        .collect();
    (completions, sys)
}

/// Replays the workload against a per-line shadow model in issue order
/// and checks every read observed exactly the latest preceding write.
/// Same-line transactions serialize in issue order because the MSHR entry
/// queues waiters FIFO; cross-line ordering is unconstrained.
fn check_coherence(seed: u64, completions: &[TxnCompletion]) {
    let mut shadow = [[0u8; 128]; SLOTS as usize];
    for (i, ((_, _, op), c)) in workload(seed).iter().zip(completions).enumerate() {
        let slot = (c.addr.0 / 128) as usize;
        match op {
            TxnOp::FpgaWrite(data) | TxnOp::CpuWrite(data) => {
                assert_eq!(c.data, None);
                shadow[slot] = *data;
            }
            TxnOp::FpgaRead | TxnOp::CpuRead => {
                assert_eq!(
                    c.data,
                    Some(shadow[slot]),
                    "seed {seed}: op {i} read stale data on slot {slot}"
                );
            }
            other => unreachable!("workload never issues {other:?}"),
        }
        assert!(c.completed >= c.issued, "seed {seed}: time ran backwards");
    }
}

#[test]
fn overlapping_transactions_serialize_coherently() {
    for seed in 0..8u64 {
        let (completions, sys) = run(seed, EciSystemConfig::enzian(), None);
        check_coherence(seed, &completions);
        sys.checker().assert_clean();
        let engine = sys.engine_stats();
        assert_eq!(engine.started, OPS);
        assert_eq!(engine.completed, OPS);
        assert!(
            engine.mshr_conflicts > 0,
            "seed {seed}: workload never produced a same-line conflict"
        );
        assert!(
            engine.max_inflight > 1,
            "seed {seed}: workload never overlapped transactions"
        );
    }
}

#[test]
fn same_seed_reruns_are_byte_identical() {
    for seed in 0..8u64 {
        let (first, sys1) = run(seed, EciSystemConfig::enzian(), None);
        let (second, sys2) = run(seed, EciSystemConfig::enzian(), None);
        assert_eq!(first, second, "seed {seed} is not deterministic");
        assert_eq!(sys1.stats(), sys2.stats());
        assert_eq!(sys1.engine_stats(), sys2.engine_stats());
    }
}

#[test]
fn tight_mshr_table_still_serializes_and_completes() {
    let cfg = EciSystemConfig::enzian().with_mshr_entries(2);
    for seed in 0..4u64 {
        let (completions, sys) = run(seed, cfg, None);
        check_coherence(seed, &completions);
        sys.checker().assert_clean();
        let engine = sys.engine_stats();
        assert!(engine.max_inflight <= 2, "seed {seed}: MSHR bound violated");
        assert_eq!(engine.completed, OPS);
        assert!(
            engine.mshr_full_stalls > 0,
            "seed {seed}: a 2-entry table never filled under {OPS} overlapping ops"
        );
    }
}

/// Acquire→release pairs on a hot set twice the stock table's size
/// overflow it, with same-line pairs parked in the overflow queue. Every
/// pair must still run in issue order: a release overtaking its acquire
/// would release an unheld line.
#[test]
fn overflowing_the_stock_table_keeps_same_line_order() {
    let cfg = EciSystemConfig::enzian();
    let mut sys = EciSystem::new(cfg);
    let mut rng = SimRng::seed_from(1);
    let gap = Duration::from_ns(3);
    let mut handles = Vec::new();
    for i in 0..1_000u64 {
        let addr = Addr(rng.next_below(2 * cfg.mshr_entries as u64) * 128);
        let at = Time::ZERO + gap * (2 * i);
        handles.push(sys.issue(at, addr, TxnOp::FpgaAcquire { exclusive: true }));
        handles.push(sys.issue(at + gap, addr, TxnOp::FpgaRelease(Some([1; 128]))));
    }
    sys.run_to_idle();
    sys.checker().assert_clean();
    let engine = sys.engine_stats();
    assert!(engine.mshr_full_stalls > 0, "the stock table never filled");
    assert_eq!(engine.completed, 2_000);
    for h in handles {
        assert!(sys.take_completion(h).is_some(), "{h:?} never completed");
    }
}

/// The same invariants hold with frame corruption and drops injected
/// under the concurrent traffic: the replay layer recovers transparently,
/// the checker stays clean, and reruns stay byte-identical.
#[test]
fn link_faults_under_concurrency_recover_and_reproduce() {
    let plan = |seed: u64| {
        FaultPlan::new(0xFA11_0000 ^ seed)
            .with(FaultSpec::probability(fault_targets::FRAME_CORRUPT, 0.15))
            .with(FaultSpec::probability(fault_targets::FRAME_DROP, 0.08))
    };
    let mut any_injected = false;
    for seed in 0..6u64 {
        let (first, sys1) = run(seed, EciSystemConfig::enzian(), Some(plan(seed)));
        let (second, sys2) = run(seed, EciSystemConfig::enzian(), Some(plan(seed)));
        check_coherence(seed, &first);
        assert_eq!(first, second, "seed {seed} not deterministic under faults");
        assert_eq!(
            sys1.links().retransmissions(),
            sys2.links().retransmissions()
        );
        sys1.checker().assert_clean();
        any_injected |= sys1.fault_plan().unwrap().total_injected() > 0;
    }
    assert!(any_injected, "the fault battery never injected anything");
}
