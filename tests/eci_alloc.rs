//! Proof that the ECI transaction engine allocates nothing per
//! transaction beyond the data its messages carry.
//!
//! A message that carries a line (`WriteLine`, `DataShared`,
//! `DataExclusive`, `ProbeAckData`, `VictimDirty`) boxes its 128 bytes;
//! everything else on a transaction's path — its record, its event
//! steps, its MSHR entry, its completion — reuses memory the engine
//! already holds. Its own test binary, so the counting global allocator
//! observes only what this file runs.

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
fn a_transaction_allocates_only_its_message_data() {
    let cfg = EciSystemConfig::enzian();
    let mut sys = EciSystem::new(cfg);
    // A twin with trace capture counts the data-carrying messages: the
    // engine is deterministic, so both see the same message stream.
    let mut twin = EciSystem::new(cfg.with_capture_trace(true));
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
    // window, MSHR table, VC queues and calendar queue towards their
    // peaks.
    for ops in std::iter::once(&sweep).chain(&warm) {
        run(&mut sys, ops, &mut handles);
        run(&mut twin, ops, &mut handles);
    }
    let traced_before = twin.trace().len();
    run(&mut twin, &measured, &mut handles);
    let data_messages = twin.trace().records()[traced_before..]
        .iter()
        .filter(|r| r.msg.kind.payload_bytes() == LINE)
        .count() as u64;

    let before = alloc_count::snapshot();
    run(&mut sys, &measured, &mut handles);
    let delta = alloc_count::snapshot().since(&before);
    sys.checker().assert_clean();
    assert_eq!(sys.links().messages_sent(), twin.links().messages_sent());

    // Measured: 3,873 data-carrying messages and 3,924 allocations. The
    // other 51 are amortised growth still converging (the calendar
    // queue's buckets, for one, grow to each position's peak load). One
    // allocation per transaction beyond the data would add ~5,000.
    let growth = delta.allocations.saturating_sub(data_messages);
    assert!(
        delta.allocations <= data_messages + 128,
        "{} allocations for {} transactions with {data_messages} data-carrying messages \
         ({growth} beyond one per message)",
        delta.allocations,
        measured.len(),
    );
}
