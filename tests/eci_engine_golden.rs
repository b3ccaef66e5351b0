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
//! A digest is FNV-1a over the values in the order folded below.

use enzian::cache::L2Config;
use enzian::eci::link::fault_targets;
use enzian::eci::system::{EciSystemStats, TXN_STALL_TARGET};
use enzian::eci::{EciSystem, EciSystemConfig, EngineStats, TxnCompletion, TxnOp, TxnStatus};
use enzian::mem::Addr;
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

/// Runs three seeded batches through one system and returns the digest
/// and the engine counters.
fn async_batches() -> (u64, EngineStats, EciSystemStats) {
    let mut sys = EciSystem::new(EciSystemConfig::enzian());
    let remote = sys.config().map.fpga_base();
    let mut d = Fnv::new();
    for round in 0..3u64 {
        let ops = batch(0xEC1_0000 + round, 1_500, remote);
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
        fold_system(&mut d, &sys);
    }
    sys.checker().assert_clean();
    (d.finish(), *sys.engine_stats(), *sys.stats())
}

#[test]
fn async_batch_over_every_op_and_both_homes_keeps_its_digest() {
    let (digest, engine, stats) = async_batches();
    // The batch reaches every engine path the digest is meant to pin.
    assert!(engine.mshr_full_stalls > 0, "{engine:?}");
    assert!(engine.mshr_conflicts > 0, "{engine:?}");
    assert!(engine.vc_queue_stalls > 0, "{engine:?}");
    assert!(stats.probes > 0 && stats.victims > 0, "{stats:?}");
    assert_eq!(digest, 0x0c0e_84f5_cd1e_dff3, "async batch digest");
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
