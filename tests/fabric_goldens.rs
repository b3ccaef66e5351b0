//! Pinned digests of the three planes that share the board fabric.
//!
//! The memory-bridge cluster, the replicated service and the traffic
//! generator each carry their messages as bridge frames over the same
//! per-board fabric port. Every report's digest folds in each board's
//! final state and its per-destination flow accounting (frames, payload
//! and wire bytes), so a change to the frame bytes, their sequence
//! numbers, their send times or the flow accounting moves a digest
//! here. Each digest is checked on the sequential reference driver, and
//! the parallel engine at one, two and three threads must match that report
//! field for field.

use enzian::platform::{
    ClusterWorkload, EnzianCluster, FaultScenario, ServiceConfig, TrafficWorkload,
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
        let reference = EnzianCluster::new(3, MIB).run_reference(&w);
        assert_eq!(
            reference.trace_digest, expected,
            "cluster {label}: trace digest {:#018x}",
            reference.trace_digest
        );
        for t in THREADS {
            EnzianCluster::new(3, MIB)
                .run_parallel(&w, t)
                .assert_matches(&reference);
        }
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
        let reference = cfg.run_reference();
        assert_eq!(
            reference.digest,
            digest,
            "service {}: digest {:#018x}",
            scenario.label(),
            reference.digest
        );
        for t in THREADS {
            cfg.run_parallel(t).assert_matches(&reference);
        }
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
        let reference = w.run_reference();
        assert_eq!(
            reference.digest, expected,
            "traffic {label}: digest {:#018x}",
            reference.digest
        );
        for t in THREADS {
            w.run_parallel(t).assert_matches(&reference);
        }
    }
}
