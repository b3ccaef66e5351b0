//! Pinned digests of the three planes that share the board fabric.
//!
//! The memory-bridge cluster, the replicated service and the traffic
//! generator each carry their messages as bridge frames over the same
//! per-board fabric port. Every report's digest folds in each board's
//! final state and its per-destination flow accounting (frames, payload
//! and wire bytes), so a change to the frame bytes, their sequence
//! numbers, their send times or the flow accounting moves a digest
//! here. Each plane runs on the sequential reference driver and on the
//! parallel engine at one, two and three threads, which must match that
//! report field for field, and the digest is checked on the result.

use enzian::platform::{
    check_engines, ClusterWorkload, EnzianCluster, FaultScenario, ServiceConfig, TrafficWorkload,
};

const MIB: u64 = 1 << 20;

const THREADS: [usize; 3] = [1, 2, 3];

#[test]
fn cluster_trace_digests_are_pinned() {
    for (label, w, expected) in [
        ("plain", ClusterWorkload::small(), 0x58bb_bbbc_9b61_2e7c),
        (
            "faults at 400 bp",
            ClusterWorkload::small().with_fault_rate_bp(400),
            0xf8b3_4512_046e_45ca,
        ),
    ] {
        let r = check_engines(&THREADS, |e| EnzianCluster::new(3, MIB).run(&w, e));
        assert_eq!(
            r.digest, expected,
            "cluster {label}: trace digest {:#018x}",
            r.digest
        );
    }
}

#[test]
fn service_digests_are_pinned() {
    let expected: [(FaultScenario, u64); 4] = [
        (FaultScenario::Baseline, 0xb3f6_2589_b501_2c4e),
        (FaultScenario::CrashOneBoard, 0x58ac_3085_3770_276b),
        (FaultScenario::RollingCrashes, 0x2a89_7705_3384_6ee2),
        (FaultScenario::PartitionHeal, 0xb6c2_9d63_c818_363c),
    ];
    assert_eq!(expected.map(|(s, _)| s), FaultScenario::all());
    for (scenario, digest) in expected {
        let cfg = ServiceConfig::small().with_scenario(scenario);
        let r = check_engines(&THREADS, |e| cfg.run(e));
        assert_eq!(
            r.digest,
            digest,
            "service {}: digest {:#018x}",
            scenario.label(),
            r.digest
        );
    }
}

#[test]
fn traffic_digests_are_pinned() {
    for (label, w, expected) in [
        ("small", TrafficWorkload::small(), 0x4170_c095_d9d1_2c89),
        (
            "loss at 200 bp",
            TrafficWorkload::small().with_loss_bp(200),
            0xa7cc_9aca_cd84_8bb5,
        ),
        (
            "proxy",
            TrafficWorkload::small().with_proxy(),
            0xdff8_a2ba_c02e_5b98,
        ),
    ] {
        let r = check_engines(&THREADS, |e| w.run(e));
        assert_eq!(
            r.digest, expected,
            "traffic {label}: digest {:#018x}",
            r.digest
        );
    }
}
