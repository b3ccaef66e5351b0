//! Golden-transfer regression for the TCP module split.
//!
//! Every constant below was captured from the pre-split monolithic
//! engine (commit 943d491, `crates/net/src/tcp.rs`) on the exact same
//! workloads. The refactor's contract is that composing the engine from
//! the four modules — with the presets selecting fixed-window congestion
//! control and a zero per-ack cost — changes **no arithmetic**: every
//! `TransferOutcome` must match byte for byte, including under injected
//! loss and across interleaved multi-flow runs. If a change moves one of
//! these numbers it is not a refactor; either fix it or consciously
//! re-capture the goldens and say why in the commit.
//!
//! The multi-session [`SessionMux`] goldens at the end pin the
//! congestion-controller path of a lossy two-board exchange under Reno
//! and Cubic: every event's live-flow state, `cwnd` included, is folded
//! into one digest, so a change in where or how a flow's controller is
//! kept that moves any window shows.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use enzian::net::eth::{EthLink, EthLinkConfig, Switch};
use enzian::net::tcp::{LossPattern, TcpEngine, TcpStackConfig, SEGMENT_LOSS_TARGET};
use enzian::net::{CcAlgorithm, PortMask, Segment, SessionMux, WireSegment};
use enzian::sim::{
    Duration, FaultPlan, FaultSpec, Fnv, Instrumented, MetricsRegistry, SimRng, Time,
};

fn payload(n: usize) -> Vec<u8> {
    let mut rng = SimRng::seed_from(42);
    let mut v = vec![0u8; n];
    rng.fill_bytes(&mut v);
    v
}

fn engine(cfg: TcpStackConfig) -> TcpEngine {
    TcpEngine::new(cfg, cfg, Switch::tor())
}

/// (size, delivered ps, segments, retransmissions)
type Golden = (usize, u64, u64, u64);

fn check_lossless(cfg: TcpStackConfig, name: &str, goldens: &[Golden]) {
    for &(size, delivered_ps, segments, retx) in goldens {
        let data = payload(size);
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        let (out, r) = engine(cfg).transfer(&mut link, Time::ZERO, &data);
        assert_eq!(out, data, "{name} size={size}: corrupted stream");
        assert_eq!(
            (r.delivered.as_ps(), r.segments, r.retransmissions),
            (delivered_ps, segments, retx),
            "{name} size={size}: outcome drifted from the monolith"
        );
    }
}

#[test]
fn fpga_coyote_matches_monolith_bit_for_bit() {
    check_lossless(
        TcpStackConfig::fpga_coyote(),
        "fpga_coyote",
        &[
            (2048, 1_868_880, 1, 0),
            (65_536, 7_042_160, 32, 0),
            (262_144, 23_062_640, 128, 0),
            (1_048_576, 87_144_560, 512, 0),
        ],
    );
}

#[test]
fn linux_kernel_matches_monolith_bit_for_bit() {
    check_lossless(
        TcpStackConfig::linux_kernel(),
        "linux_kernel",
        &[
            (2048, 26_881_280, 2, 0),
            (65_536, 46_204_480, 46, 0),
            (262_144, 105_933_680, 182, 0),
            (1_048_576, 344_420_480, 725, 0),
        ],
    );
}

#[test]
fn deterministic_loss_matches_monolith_bit_for_bit() {
    // drop_every(17) over 256 KiB: the loss schedule, the RTO rewinds,
    // and the resulting timing must all replay exactly.
    let cases = [
        (
            TcpStackConfig::fpga_coyote(),
            "fpga",
            522_534_560u64,
            240u64,
            1u64,
        ),
        (
            TcpStackConfig::linux_kernel(),
            "kernel",
            2_106_372_880,
            348,
            1,
        ),
    ];
    for (cfg, name, delivered_ps, segments, retx) in cases {
        let data = payload(262_144);
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        let mut e = engine(cfg).with_loss(LossPattern::drop_every(17));
        let (out, r) = e.transfer(&mut link, Time::ZERO, &data);
        assert_eq!(out, data, "{name}: corrupted stream under loss");
        assert_eq!(
            (r.delivered.as_ps(), r.segments, r.retransmissions),
            (delivered_ps, segments, retx),
            "{name}: lossy outcome drifted from the monolith"
        );
    }
}

#[test]
fn probabilistic_loss_matches_monolith_bit_for_bit() {
    // Seeded 5% loss over 512 KiB: the fault plan's RNG stream must be
    // consumed in exactly the same order (first transmissions only).
    let cases = [
        (
            TcpStackConfig::fpga_coyote(),
            "fpga",
            1_037_316_880u64,
            460u64,
            2u64,
        ),
        (
            TcpStackConfig::linux_kernel(),
            "kernel",
            2_185_868_480,
            678,
            1,
        ),
    ];
    for (cfg, name, delivered_ps, segments, retx) in cases {
        let data = payload(524_288);
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        let plan = FaultPlan::new(0xD0D0).with(FaultSpec::probability(SEGMENT_LOSS_TARGET, 0.05));
        let mut e = engine(cfg).with_loss(LossPattern::from_plan(plan));
        let (out, r) = e.transfer(&mut link, Time::ZERO, &data);
        assert_eq!(out, data, "{name}: corrupted stream under loss");
        assert_eq!(
            (r.delivered.as_ps(), r.segments, r.retransmissions),
            (delivered_ps, segments, retx),
            "{name}: probabilistic-loss outcome drifted from the monolith"
        );
    }
}

#[test]
fn interleaved_kernel_flows_match_monolith_bit_for_bit() {
    let per_flow = 2 << 20;
    let data = payload(per_flow);
    let mut link = EthLink::new(EthLinkConfig::hundred_gig());
    let flows = [&data[..], &data[..], &data[..], &data[..]];
    let results = engine(TcpStackConfig::linux_kernel())
        .transfer_interleaved(&mut link, Time::ZERO, &flows)
        .expect("a lossless engine runs any number of flows");
    let golden_delivered = [714_957_520u64, 715_076_400, 715_195_280, 715_314_160];
    assert_eq!(results.len(), 4);
    for (i, ((_, r), &g)) in results.iter().zip(&golden_delivered).enumerate() {
        assert_eq!(
            r.delivered.as_ps(),
            g,
            "flow {i}: interleaved delivery drifted from the monolith"
        );
        assert_eq!(r.segments, 1449, "flow {i}: segment count drifted");
    }
}

#[test]
fn one_flow_interleaved_is_transfer() {
    // 512 KiB outgrows the FPGA window, so windows stall; drop_every(17)
    // adds RTO rewinds. A one-flow interleaved call must be the single
    // transfer in outcome, bytes and every exported counter.
    let data = payload(524_288);
    let export = |e: &TcpEngine| {
        let mut reg = MetricsRegistry::new();
        e.telemetry().export_metrics("net.tcp", &mut reg);
        reg
    };
    for (cfg, name) in [
        (TcpStackConfig::fpga_coyote(), "fpga_coyote"),
        (TcpStackConfig::linux_kernel(), "linux_kernel"),
        (TcpStackConfig::hybrid_offload(), "hybrid_offload"),
    ] {
        for loss in [LossPattern::none(), LossPattern::drop_every(17)] {
            let mut single = engine(cfg).with_loss(loss.clone());
            let mut link = EthLink::new(EthLinkConfig::hundred_gig());
            let expected = vec![single.transfer(&mut link, Time::ZERO, &data)];
            let label = format!("{name} lossless={}", loss.is_lossless());
            let mut multi = engine(cfg).with_loss(loss);
            let mut link = EthLink::new(EthLinkConfig::hundred_gig());
            let got = multi
                .transfer_interleaved(&mut link, Time::ZERO, &[&data])
                .expect("one flow may be lossy");
            assert_eq!(got, expected, "{label}: outcomes differ");
            assert_eq!(
                export(&multi),
                export(&single),
                "{label}: telemetry differs"
            );
        }
    }
}

/// Runs twelve staggered, held-open client sessions from board 0 to
/// board 1 over a fixed one-way `hop`, with `loss` on board 0's data
/// transmissions, until both muxes are idle. Wire arrivals and timers
/// interleave in (time, sequence) order, wire first on ties. Returns
/// the fold of the handling mux's state digest after every event, and
/// the two muxes.
fn mux_exchange(cfg: TcpStackConfig, loss: LossPattern) -> (u64, [SessionMux; 2]) {
    const SESSIONS: u64 = 12;
    const BYTES: u64 = 192 * 1024;
    let hop = Duration::from_ns(450);
    let mask = PortMask::for_boards(2);
    let mut muxes = [
        SessionMux::new(0, cfg, mask).with_loss(loss),
        SessionMux::new(1, cfg, mask),
    ];
    let mut out: Vec<WireSegment> = Vec::new();
    for i in 0..SESSIONS {
        let at = Time::ZERO + Duration::from_us(3) * i;
        let hold = Duration::from_us(40) * (i % 3);
        muxes[0].open(at, 1, BYTES, hold, &mut out);
    }
    let mut wire: BinaryHeap<Reverse<(Time, usize)>> = BinaryHeap::new();
    let mut segs: Vec<Segment> = Vec::new();
    let mut trail = Fnv::new();
    loop {
        for ws in out.drain(..) {
            wire.push(Reverse((ws.at + hop, segs.len())));
            segs.push(ws.seg);
        }
        let wire_at = wire.peek().map(|w| w.0 .0);
        let timer = (0..2)
            .filter_map(|i| muxes[i].next_timer().map(|(t, _)| (t, i)))
            .min();
        let board = match (wire_at, timer) {
            (None, None) => break,
            (Some(w), Some((t, i))) if t < w => {
                muxes[i].fire_next_timer(&mut out);
                i
            }
            (None, Some((_, i))) => {
                muxes[i].fire_next_timer(&mut out);
                i
            }
            _ => {
                let Reverse((at, n)) = wire.pop().expect("a wire arrival");
                let seg = segs[n];
                let board = usize::from(seg.dst_board);
                muxes[board].on_segment(at, &seg, &mut out);
                board
            }
        };
        trail.u64(muxes[board].state_digest());
    }
    assert!(muxes.iter().all(SessionMux::idle));
    assert_eq!(muxes[0].stats().completed, SESSIONS);
    assert_eq!(muxes[1].stats().payload_delivered, SESSIONS * BYTES);
    (trail.finish(), muxes)
}

/// (event-trail digest, final state digests, the ledger's loss
/// recovery: sender segments, retransmissions, RTO fires and duplicate
/// acks, receiver out-of-order discards)
type MuxGolden = (u64, [u64; 2], [u64; 5]);

/// Runs the exchange under `cc` once with every eleventh first
/// transmission dropped and once with seeded 5% loss, and checks each
/// against its golden.
fn check_mux(cc: CcAlgorithm, goldens: [MuxGolden; 2]) {
    let cfg = TcpStackConfig::hybrid_offload().with_cc(cc);
    for ((name, loss), golden) in [
        ("drop_every(11)", LossPattern::drop_every(11)),
        (
            "5% seeded",
            LossPattern::from_plan(
                FaultPlan::new(0x5E55).with(FaultSpec::probability(SEGMENT_LOSS_TARGET, 0.05)),
            ),
        ),
    ]
    .into_iter()
    .zip(goldens)
    {
        let (trail, muxes) = mux_exchange(cfg, loss);
        let (tx, rx) = (muxes[0].stats(), muxes[1].stats());
        let got = (
            trail,
            [muxes[0].state_digest(), muxes[1].state_digest()],
            [
                tx.segments_tx,
                tx.retransmissions,
                tx.rto_fires,
                tx.dup_acks,
                rx.out_of_order,
            ],
        );
        assert!(tx.rto_fires > 0, "{name}: loss must fire RTOs");
        assert_eq!(got, golden, "{} {name}: mux exchange drifted", cc.label());
    }
}

#[test]
fn lossy_reno_mux_exchange_keeps_its_digests() {
    check_mux(
        CcAlgorithm::Reno,
        [
            (
                8_056_672_114_303_664_601,
                [5_662_097_836_553_501_889, 2_976_340_607_231_533_398],
                [1_821, 621, 90, 517, 517],
            ),
            (
                16_641_136_915_916_921_187,
                [6_880_505_736_201_272_638, 15_858_527_903_001_607_835],
                [1_693, 493, 46, 414, 414],
            ),
        ],
    );
}

#[test]
fn lossy_cubic_mux_exchange_keeps_its_digests() {
    check_mux(
        CcAlgorithm::Cubic,
        [
            (
                9_179_324_098_950_528_435,
                [14_454_535_317_128_937_408, 10_178_171_367_611_716_666],
                [3_441, 1_010, 151, 1_428, 1_428],
            ),
            (
                2_403_919_549_951_985_762,
                [823_733_388_153_983_545, 3_801_448_887_948_779_560],
                [3_614, 814, 73, 1_270, 1_270],
            ),
        ],
    );
}
