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

use enzian::net::eth::{EthLink, EthLinkConfig, Switch};
use enzian::net::tcp::{LossPattern, TcpEngine, TcpStackConfig, SEGMENT_LOSS_TARGET};
use enzian::sim::{FaultPlan, FaultSpec, Instrumented, MetricsRegistry, SimRng, Time};

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
