//! ECI transaction-engine goldens: two digests over everything the
//! engine reports, so any change to its internals (event representation,
//! completion bookkeeping, hashing) that moves a single completion time,
//! data byte, handle or counter shows.
//!
//! * an async batch over all seven `TxnOp`s on both homes through the
//!   stock system (256-entry MSHR table): table overflow, same-line
//!   conflicts, probes, upgrades and FPGA victims all run;
//! * the same operations through the synchronous facade (`try_*` where
//!   one exists), on a small L2 so remote fills also evict remote lines,
//!   under a fault plan that drops and corrupts frames and stalls
//!   transactions.
//!
//! A digest is FNV-1a over the values in the order folded below. A third
//! test pins the engine-captured wire trace of the async batches, whose
//! bytes the engine builds only when trace capture is on, and checks that
//! capturing changes nothing else.

use enzian::cache::L2Config;
use enzian::eci::link::fault_targets;
use enzian::eci::system::{EciSystemStats, TXN_STALL_TARGET};
use enzian::eci::{EciSystem, EciSystemConfig, EngineStats, TxnCompletion, TxnOp, TxnStatus};
use enzian::mem::{Addr, NodeId};
use enzian::sim::{Duration, FaultPlan, FaultSpec, Fnv, SimRng, Time};

const LINE: u64 = 128;
/// CPU-homed lines the FPGA acquires, upgrades and releases.
const HOT_LINES: u64 = 48;
/// CPU-homed lines for uncached FPGA and cached CPU traffic.
const FOOTPRINT_LINES: u64 = 1_024;
/// FPGA-homed lines the CPU reads and writes over ECI.
const REMOTE_LINES: u64 = 512;

/// The shipping system with a 256-line L2, so remote fills evict remote
/// lines and send victims. Only the facade uses it: the async engine
/// does not order a victim ahead of a later request for its line, so a
/// batch could re-request a line whose victim is still in flight.
fn small_l2() -> EciSystemConfig {
    EciSystemConfig::enzian().with_l2(
        L2Config::thunderx1()
            .with_capacity_bytes(32 << 10)
            .with_ways(4),
    )
}

fn payload(seq: u64) -> [u8; 128] {
    let mut d = [(seq & 0xff) as u8 ^ 0x5a; 128];
    d[..8].copy_from_slice(&seq.to_le_bytes());
    d
}

/// One seeded batch in issue order. An FPGA-cached line runs a whole
/// sequence from an acquire until the FPGA holds no copy again, and a
/// line serves its transactions in issue order, so every upgrade,
/// release and probe finds the copy it needs.
fn batch(seed: u64, txns: usize, remote: Addr) -> Vec<(Time, Addr, TxnOp)> {
    let mut rng = SimRng::seed_from(seed);
    let mut out = Vec::with_capacity(txns + 2);
    let mut seq = 0u64;
    while out.len() < txns {
        // Bursts of 48 issues at one instant overflow the table.
        let at = Time::ZERO + Duration::from_ns(25) * (out.len() as u64 / 48);
        let foot = |rng: &mut SimRng| Addr((HOT_LINES + rng.next_below(FOOTPRINT_LINES)) * LINE);
        let far = |rng: &mut SimRng| remote.offset(rng.next_below(REMOTE_LINES) * LINE);
        seq += 1;
        match rng.next_below(100) {
            0..=19 => out.push((at, foot(&mut rng), TxnOp::FpgaRead)),
            20..=29 => out.push((at, foot(&mut rng), TxnOp::FpgaWrite(payload(seq)))),
            30..=41 => out.push((at, foot(&mut rng), TxnOp::CpuRead)),
            42..=51 => out.push((at, foot(&mut rng), TxnOp::CpuWrite(payload(seq)))),
            52..=63 => out.push((at, far(&mut rng), TxnOp::CpuRead)),
            64..=73 => out.push((at, far(&mut rng), TxnOp::CpuWrite(payload(seq)))),
            74..=79 => {
                // Lands before or after a whole FPGA sequence on its line.
                let a = Addr(rng.next_below(HOT_LINES) * LINE);
                out.push((at, a, TxnOp::CpuRead));
            }
            r => {
                let a = Addr(rng.next_below(HOT_LINES) * LINE);
                let dirty = (r % 2 == 0).then(|| payload(seq));
                let ops: &[TxnOp] = match r {
                    // Shared copy, upgraded, released.
                    80..=84 => &[
                        TxnOp::FpgaAcquire { exclusive: false },
                        TxnOp::FpgaUpgrade,
                        TxnOp::FpgaRelease(dirty),
                    ],
                    // Owned copy, downgraded by a CPU read probe.
                    85..=89 => &[
                        TxnOp::FpgaAcquire { exclusive: true },
                        TxnOp::CpuRead,
                        TxnOp::FpgaRelease(dirty),
                    ],
                    // Shared copy, invalidated by a CPU upgrade.
                    90..=94 => &[
                        TxnOp::FpgaAcquire { exclusive: false },
                        TxnOp::CpuRead,
                        TxnOp::CpuWrite(payload(seq)),
                    ],
                    // Owned copy, recalled with its data by a CPU write.
                    _ => &[
                        TxnOp::FpgaAcquire { exclusive: true },
                        TxnOp::CpuWrite(payload(seq)),
                    ],
                };
                out.extend(ops.iter().map(|&op| (at, a, op)));
            }
        }
    }
    out
}

fn fold_completion(d: &mut Fnv, c: &TxnCompletion) {
    d.bytes(format!("{:?}", c.handle).as_bytes());
    d.u64(c.addr.0);
    d.bytes(c.op.as_bytes());
    d.u64(c.issued.as_ps());
    d.u64(c.completed.as_ps());
    match &c.data {
        Some(data) => d.bytes(data),
        None => d.u64(u64::MAX),
    }
}

fn fold_system(d: &mut Fnv, sys: &EciSystem) {
    let EngineStats {
        started,
        completed,
        mshr_conflicts,
        mshr_full_stalls,
        vc_queue_stalls,
        max_inflight,
    } = *sys.engine_stats();
    for v in [
        started,
        completed,
        mshr_conflicts,
        mshr_full_stalls,
        vc_queue_stalls,
        max_inflight,
    ] {
        d.u64(v);
    }
    let s = *sys.stats();
    for v in [
        s.fpga_reads,
        s.fpga_writes,
        s.cpu_reads,
        s.cpu_writes,
        s.probes,
        s.victims,
        s.io_ops,
        s.ipis,
        s.txn_timeouts,
        s.txn_retries,
        s.txn_failures,
    ] {
        d.u64(v);
    }
    d.u64(sys.links().messages_sent());
    d.u64(sys.checker().violations().len() as u64);
}

/// Runs three seeded batches of `txns` transactions through `sys` and
/// returns the digest and the engine counters.
fn async_batches(sys: &mut EciSystem, txns: usize) -> (u64, EngineStats, EciSystemStats) {
    let remote = sys.config().map.fpga_base();
    let mut d = Fnv::new();
    for round in 0..3u64 {
        let ops = batch(0xEC1_0000 + round, txns, remote);
        let handles: Vec<_> = ops
            .iter()
            .map(|&(at, addr, op)| sys.issue(at, addr, op))
            .collect();
        assert_eq!(sys.poll(handles[0]), TxnStatus::InFlight);
        sys.run_to_idle();
        for (&h, &(_, addr, op)) in handles.iter().zip(&ops) {
            assert_eq!(sys.poll(h), TxnStatus::Completed);
            let c = sys.take_completion(h).expect("every transaction completes");
            assert_eq!((c.handle, c.addr, c.op), (h, addr, op.name()));
            assert_eq!(sys.poll(h), TxnStatus::Retired);
            fold_completion(&mut d, &c);
        }
        fold_system(&mut d, sys);
    }
    sys.checker().assert_clean();
    (d.finish(), *sys.engine_stats(), *sys.stats())
}

#[test]
fn async_batch_over_every_op_and_both_homes_keeps_its_digest() {
    let mut sys = EciSystem::new(EciSystemConfig::enzian());
    let (digest, engine, stats) = async_batches(&mut sys, 1_500);
    // The batch reaches every engine path the digest is meant to pin.
    assert!(engine.mshr_full_stalls > 0, "{engine:?}");
    assert!(engine.mshr_conflicts > 0, "{engine:?}");
    assert!(engine.vc_queue_stalls > 0, "{engine:?}");
    assert!(stats.probes > 0 && stats.victims > 0, "{stats:?}");
    assert_eq!(digest, 0x0c0e_84f5_cd1e_dff3, "async batch digest");
}

/// Whether `sys`'s trace holds a `mnemonic` message sent by `from`.
fn traced(sys: &EciSystem, mnemonic: &str, from: NodeId) -> bool {
    let mut recs = sys.trace().records().iter();
    recs.any(|r| r.msg.kind.mnemonic() == mnemonic && r.msg.src == from)
}

/// A trace's record count, wire length and FNV-1a digest of its wire
/// bytes.
fn trace_key(sys: &EciSystem) -> (usize, usize, u64) {
    let mut d = Fnv::new();
    d.bytes(sys.trace().wire_bytes());
    (
        sys.trace().len(),
        sys.trace().wire_bytes().len(),
        d.finish(),
    )
}

/// The engine-captured wire trace, pinned, and a capture that changes
/// nothing else: on the async batches (VC-queue stalls, dirty releases,
/// CPU fills of FPGA-homed lines, probes with and without data) and on
/// the facade over a small L2, whose CPU evicts dirty FPGA-homed lines.
/// An untraced twin of each completes every transaction identically and
/// sends and checks the same messages.
#[test]
fn engine_captured_trace_keeps_its_digest() {
    let mut traced_async = EciSystem::new(EciSystemConfig::enzian().with_capture_trace(true));
    let mut plain_async = EciSystem::new(EciSystemConfig::enzian());
    let (digest, engine, stats) = async_batches(&mut traced_async, 3_000);
    assert_eq!(
        async_batches(&mut plain_async, 3_000),
        (digest, engine, stats)
    );
    assert!(engine.vc_queue_stalls > 0, "{engine:?}");
    assert!(stats.probes > 0 && stats.victims > 0, "{stats:?}");

    let mut traced_facade = EciSystem::new(small_l2().with_capture_trace(true));
    let mut plain_facade = EciSystem::new(small_l2());
    let remote = plain_facade.config().map.fpga_base();
    let ops = batch(0xFACADE, 400, remote);
    let (mut a, mut b) = (Fnv::new(), Fnv::new());
    facade_run(&mut traced_facade, &ops, &mut a);
    facade_run(&mut plain_facade, &ops, &mut b);
    fold_system(&mut a, &traced_facade);
    fold_system(&mut b, &plain_facade);
    assert_eq!(a.finish(), b.finish(), "facade results");

    for (traced_sys, plain) in [
        (&traced_async, &plain_async),
        (&traced_facade, &plain_facade),
    ] {
        traced_sys.checker().assert_clean();
        assert_eq!(
            traced_sys.checker().checked_counts(),
            plain.checker().checked_counts()
        );
        assert!(plain.trace().is_empty());
        assert_eq!(
            traced_sys.trace().len() as u64,
            traced_sys.links().messages_sent()
        );
    }
    // Every line-carrying message the engine sends is in a trace: FPGA
    // writes, data grants both ways, probe acks with data, and dirty
    // victims both ways.
    for (mnemonic, from) in [
        ("WRL", NodeId::Fpga),
        ("DSH", NodeId::Cpu),
        ("DEX", NodeId::Cpu),
        ("DSH", NodeId::Fpga),
        ("DEX", NodeId::Fpga),
        ("PAD", NodeId::Fpga),
        ("VCD", NodeId::Fpga),
    ] {
        assert!(
            traced(&traced_async, mnemonic, from),
            "no {mnemonic} from {from}"
        );
    }
    assert!(
        traced(&traced_facade, "VCD", NodeId::Cpu),
        "no dirty L2 victim"
    );
    assert_eq!(
        trace_key(&traced_async),
        (11_342, 939_144, 0xfe8b_9a4b_c664_24aa),
        "async trace: records, wire bytes, wire digest"
    );
    assert_eq!(
        trace_key(&traced_facade),
        (602, 51_544, 0x05a3_6a61_2973_5df1),
        "facade trace: records, wire bytes, wire digest"
    );
}

/// Runs `ops` one after another through the synchronous facade, each
/// issued when the one before it completed, folding every result and
/// error into `d`.
fn facade_run(sys: &mut EciSystem, ops: &[(Time, Addr, TxnOp)], d: &mut Fnv) {
    let mut now = Time::ZERO;
    for (i, &(_, addr, op)) in ops.iter().enumerate() {
        d.u64(i as u64);
        let out = match op {
            TxnOp::FpgaRead => sys.try_fpga_read_line(now, addr).map(|(v, t)| (Some(v), t)),
            TxnOp::FpgaWrite(v) => sys.try_fpga_write_line(now, addr, &v).map(|t| (None, t)),
            TxnOp::CpuRead => sys.try_cpu_read_line(now, addr).map(|(v, t)| (Some(v), t)),
            TxnOp::CpuWrite(v) => sys.try_cpu_write_line(now, addr, &v).map(|t| (None, t)),
            TxnOp::FpgaAcquire { exclusive } => {
                let (v, t) = sys.fpga_acquire_line(now, addr, exclusive);
                Ok((Some(v), t))
            }
            TxnOp::FpgaUpgrade => Ok((None, sys.fpga_upgrade_line(now, addr))),
            TxnOp::FpgaRelease(v) => Ok((None, sys.fpga_release_line(now, addr, v.as_ref()))),
        };
        match out {
            Ok((data, t)) => {
                d.u64(t.as_ps());
                if let Some(data) = data {
                    d.bytes(&data);
                }
                now = t;
            }
            Err(e) => d.bytes(e.to_string().as_bytes()),
        }
    }
}

/// The facade under frame drops, frame corruption and transaction
/// stalls: every result, error and recovery counter is folded.
fn faulted_facade() -> u64 {
    let mut sys = EciSystem::new(small_l2());
    sys.set_fault_plan(
        FaultPlan::new(0xFA_17)
            .with(FaultSpec::probability(fault_targets::FRAME_DROP, 0.05))
            .with(FaultSpec::probability(fault_targets::FRAME_CORRUPT, 0.1))
            .with(FaultSpec::probability(TXN_STALL_TARGET, 0.3)),
    );
    let remote = sys.config().map.fpga_base();
    let ops = batch(0xFACADE, 400, remote);
    let mut d = Fnv::new();
    facade_run(&mut sys, &ops, &mut d);
    fold_system(&mut d, &sys);
    d.u64(sys.links().retransmissions());
    sys.checker().assert_clean();
    let plan = sys.fault_plan().expect("plan installed");
    for target in [
        fault_targets::FRAME_DROP,
        fault_targets::FRAME_CORRUPT,
        TXN_STALL_TARGET,
    ] {
        d.u64(plan.injected(target));
        d.u64(plan.recovered(target));
    }
    d.finish()
}

#[test]
fn faulted_facade_keeps_its_digest() {
    assert_eq!(
        faulted_facade(),
        0x852e_57e7_9db8_85c4,
        "faulted facade digest"
    );
}
