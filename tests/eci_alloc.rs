//! Proof that a steady-state transaction of the ECI engine allocates
//! nothing.
//!
//! Everything on a transaction's path — its record, its event steps, its
//! messages (`Copy` values whose lines stay in the transaction's record
//! or in memory; a boxed line exists only under trace capture), its VC
//! queue entries, its MSHR entry, its completion — reuses memory the
//! engine already holds. Its own test binary, so the counting global
//! allocator observes only what this file runs.

use enzian::eci::{EciSystem, EciSystemConfig, TxnHandle, TxnOp};
use enzian::mem::Addr;
use enzian::sim::alloc_count::{self, CountingAllocator};
use enzian::sim::{Duration, SimRng, Time};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

const LINE: u64 = 128;
const TXNS: usize = 5_000;
const HOT_LINES: u64 = 256;
const FOOTPRINT_LINES: u64 = 4_096;
const REMOTE_LINES: u64 = 512;

/// A seeded mix of every operation on both homes, one FPGA clock apart:
/// FPGA reads and writes, CPU reads and writes of CPU- and FPGA-homed
/// lines, and FPGA acquire→release pairs on a hot set.
fn batch(seed: u64, remote: Addr) -> Vec<(Time, Addr, TxnOp)> {
    let mut rng = SimRng::seed_from(seed);
    let gap = Duration::from_ps(3_333);
    let mut out = Vec::with_capacity(TXNS + 1);
    while out.len() < TXNS {
        let at = Time::ZERO + gap * out.len() as u64;
        let data = [out.len() as u8; 128];
        let foot = Addr((HOT_LINES + rng.next_below(FOOTPRINT_LINES)) * LINE);
        match rng.next_below(10) {
            0..=2 => out.push((at, foot, TxnOp::FpgaRead)),
            3 => out.push((at, foot, TxnOp::FpgaWrite(data))),
            4 => out.push((at, foot, TxnOp::CpuRead)),
            5 => out.push((at, foot, TxnOp::CpuWrite(data))),
            6 => {
                let far = remote.offset(rng.next_below(REMOTE_LINES) * LINE);
                let op = if rng.next_below(2) == 0 {
                    TxnOp::CpuRead
                } else {
                    TxnOp::CpuWrite(data)
                };
                out.push((at, far, op));
            }
            _ => {
                let hot = Addr(rng.next_below(HOT_LINES) * LINE);
                out.push((at, hot, TxnOp::FpgaAcquire { exclusive: true }));
                out.push((at, hot, TxnOp::FpgaRelease(Some(data))));
            }
        }
    }
    out
}

/// Issues, runs and takes one batch, reusing `handles`.
fn run(sys: &mut EciSystem, ops: &[(Time, Addr, TxnOp)], handles: &mut Vec<TxnHandle>) {
    handles.clear();
    handles.extend(ops.iter().map(|&(at, addr, op)| sys.issue(at, addr, op)));
    sys.run_to_idle();
    for &h in handles.iter() {
        assert!(sys.take_completion(h).is_some(), "{h:?} never completed");
    }
}

#[test]
fn a_steady_state_transaction_allocates_nothing() {
    let mut sys = EciSystem::new(EciSystemConfig::enzian());
    let remote = sys.config().map.fpga_base();
    // Every line the batches touch, read once by the CPU.
    let sweep: Vec<_> = (0..HOT_LINES + FOOTPRINT_LINES)
        .map(|i| Addr(i * LINE))
        .chain((0..REMOTE_LINES).map(|i| remote.offset(i * LINE)))
        .map(|addr| (Time::ZERO, addr, TxnOp::CpuRead))
        .collect();
    let warm: Vec<_> = (0..4).map(|i| batch(0xA110C + i, remote)).collect();
    let measured = batch(0xA110D0, remote);
    let mut handles = Vec::with_capacity(TXNS + 1);

    // Warm-up: the sweep puts every line in the L2, the checker and the
    // directories, and the batches grow the record slab, completion
    // window, MSHR table, VC queues, link busy lists and calendar queue
    // towards their peaks.
    for ops in std::iter::once(&sweep).chain(&warm) {
        run(&mut sys, ops, &mut handles);
    }

    let before = alloc_count::snapshot();
    run(&mut sys, &measured, &mut handles);
    let delta = alloc_count::snapshot().since(&before);
    sys.checker().assert_clean();

    // Measured: 54 allocations for the whole batch, all amortised growth
    // still converging (the calendar queue's buckets grow to each
    // position's peak load, and the links' busy lists split a chunk now
    // and then). One allocation per transaction would add ~5,000, one
    // per data-carrying message ~3,900.
    assert!(
        delta.allocations <= 128,
        "{} allocations for {} transactions",
        delta.allocations,
        measured.len(),
    );
}
