//! The ECI link's go-back-N ARQ. A faulted frame is resent after the
//! replay timer (a drop) or the receiver's NAK (a corruption). Sequence
//! order is wire order: every frame on the same link direction whose
//! first transmission starts after the faulted frame's and lands before
//! the latest resend is discarded by the receiver and replayed in order
//! behind it.
//!
//! * two frames on one link, the first faulted: the second lands after
//!   the first one's resend and counts as a retransmission;
//! * a frame sent after a faulted one but ready earlier takes the wire
//!   ahead of it and is not held behind its recovery;
//! * seeded drop and corrupt schedules (probability 1.0 included) over
//!   both links and directions, with some frames ready ahead of the
//!   clock: each frame is delivered exactly once and resent at most
//!   once, of two frames the one sent first and on the wire first lands
//!   first, and recovery is bounded;
//! * a drain ends recovery: a fault-free batch issued at `Time::ZERO`
//!   after `run_to_idle` runs as if no plan were installed.

use enzian::eci::link::{fault_targets, EciLinkConfig, EciLinks, LinkPolicy, SendOutcome};
use enzian::eci::message::{Message, MessageKind, TxnId};
use enzian::eci::{EciSystem, EciSystemConfig, TxnCompletion, TxnOp};
use enzian::mem::{Addr, CacheLine, NodeId};
use enzian::sim::{Duration, FaultPlan, FaultSpec, SimRng, Time};

fn read_to_cpu(txn: u32) -> Message {
    Message::new(
        NodeId::Fpga,
        NodeId::Cpu,
        TxnId(txn),
        MessageKind::ReadOnce(CacheLine(1)),
    )
}

#[test]
fn a_frame_sent_behind_a_faulted_one_lands_after_its_resend() {
    let cfg = EciLinkConfig::enzian();
    for target in [fault_targets::FRAME_DROP, fault_targets::FRAME_CORRUPT] {
        let mut links = EciLinks::new_trained(cfg, LinkPolicy::Single(0));
        let mut plan = FaultPlan::new(1).with(FaultSpec::once(target, Time::ZERO));
        let first = links.send(Time::ZERO, &read_to_cpu(1), Some(&mut plan));
        let second = links.send(Time::from_ns(10), &read_to_cpu(2), Some(&mut plan));
        // Fault-free, the second frame lands before the first's resend.
        let mut clean = EciLinks::new_trained(cfg, LinkPolicy::Single(0));
        clean.send(Time::ZERO, &read_to_cpu(1), None);
        let unfaulted = clean.send(Time::from_ns(10), &read_to_cpu(2), None);
        assert!(unfaulted.delivered < first.delivered, "{target}");

        assert_eq!(first.retransmissions, 1, "{target}");
        assert_eq!(second.retransmissions, 1, "{target}");
        assert!(
            second.delivered > first.delivered,
            "{target}: the second frame landed at {:?}, before the first one's resend at {:?}",
            second.delivered,
            first.delivered
        );
        assert_eq!(
            second.start, unfaulted.start,
            "{target}: first copy keeps its slot"
        );
        assert_eq!(links.retransmissions(), 2, "{target}");
        assert_eq!(plan.injected(target), 1, "{target}");
        assert_eq!(plan.recovered(target), 1, "{target}");

        // Once the replayed tail has landed, frames go through once.
        let third = links.send(second.delivered, &read_to_cpu(3), Some(&mut plan));
        assert_eq!(third.retransmissions, 0, "{target}");
        assert!(third.delivered > second.delivered, "{target}");
    }
}

#[test]
fn a_frame_ready_before_a_faulted_one_is_not_held_behind_it() {
    let cfg = EciLinkConfig::enzian();
    let late = Time::from_ns(1_000);
    for target in [fault_targets::FRAME_DROP, fault_targets::FRAME_CORRUPT] {
        let mut links = EciLinks::new_trained(cfg, LinkPolicy::Single(0));
        let mut plan = FaultPlan::new(1).with(FaultSpec::once(target, late));
        // The faulted frame is sent first, with a ready time well ahead
        // of the next call's.
        let faulted = links.send(late, &read_to_cpu(1), Some(&mut plan));
        let early = links.send(Time::ZERO, &read_to_cpu(2), Some(&mut plan));
        let behind = links.send(
            late + Duration::from_ns(10),
            &read_to_cpu(3),
            Some(&mut plan),
        );
        let mut clean = EciLinks::new_trained(cfg, LinkPolicy::Single(0));
        let unfaulted = clean.send(Time::ZERO, &read_to_cpu(2), None);

        assert_eq!(faulted.retransmissions, 1, "{target}");
        // Ahead of the faulted frame on the wire, so ahead of it in
        // sequence: it goes through once, at its fault-free time.
        assert_eq!(early, unfaulted, "{target}");
        // Behind it on the wire: discarded and replayed after its resend.
        assert_eq!(behind.retransmissions, 1, "{target}");
        assert!(behind.delivered > faulted.delivered, "{target}");
        assert_eq!(links.retransmissions(), 2, "{target}");
    }
}

/// A random message of one of six kinds: both directions, every size the
/// link carries, and four virtual channels.
fn random_message(rng: &mut SimRng, txn: u32) -> Message {
    let line = CacheLine(rng.next_below(64));
    let data = || Box::new([txn as u8; 128]);
    let (src, kind) = match rng.next_below(6) {
        0 => (NodeId::Fpga, MessageKind::ReadOnce(line)),
        1 => (NodeId::Fpga, MessageKind::WriteLine(line, data())),
        2 => (NodeId::Cpu, MessageKind::DataShared(line, data())),
        3 => (NodeId::Cpu, MessageKind::Ack(line)),
        4 => (NodeId::Cpu, MessageKind::ProbeShared(line)),
        _ => (NodeId::Fpga, MessageKind::VictimClean(line)),
    };
    Message::new(src, src.peer(), TxnId(txn), kind)
}

/// Upper bound on one transmission's wire time on a full-width link:
/// 8 bits per byte at 120 Gb/s with 64b/66b coding is 68.75 ps per byte.
fn wire_time_bound(bytes: u64) -> Duration {
    Duration::from_ps(bytes * 69 + 1)
}

#[test]
fn random_fault_schedules_deliver_each_frame_once_in_wire_order() {
    let mut rng = SimRng::seed_from(0xA5_0B4C);
    for case in 0..240u64 {
        // Few credits and slow credit returns stall some VCs, so a frame
        // sent later can take an idle wire slot ahead of an earlier one.
        let mut cfg = EciLinkConfig::enzian();
        cfg.credits_per_vc = rng.range(1, 32) as u32;
        cfg.response_data_credits = rng.range(1, 5) as u32;
        cfg.credit_return = Duration::from_ps(rng.next_below(200_000));
        let policy = match rng.next_below(3) {
            0 => LinkPolicy::Single(rng.next_below(2) as u8),
            1 => LinkPolicy::RoundRobin,
            _ => LinkPolicy::ByAddress,
        };
        let rate = |rng: &mut SimRng| [0.0, 0.02, 0.1, 0.3][rng.next_below(4) as usize];
        let (p_drop, p_corrupt) = match case % 4 {
            0 => (1.0, 0.0),
            1 => (0.0, 1.0),
            _ => (rate(&mut rng), rate(&mut rng)),
        };
        let mut plan = FaultPlan::new(case)
            .with(FaultSpec::probability(fault_targets::FRAME_DROP, p_drop))
            .with(FaultSpec::probability(
                fault_targets::FRAME_CORRUPT,
                p_corrupt,
            ));
        let mut links = EciLinks::new_trained(cfg, policy);
        let n = rng.range(2, 160) as u32;
        let mut now = Time::ZERO;
        // (link direction, link bytes, outcome), in send order.
        let mut sent: Vec<((u8, NodeId), u64, SendOutcome)> = Vec::new();
        for txn in 0..n {
            now += Duration::from_ps(rng.next_below(40_000));
            // Some frames are ready well ahead of the clock, as a reply
            // waiting on DRAM is, so a later call can be ready earlier.
            let ahead = if rng.chance(0.2) {
                rng.next_below(2_000_000)
            } else {
                0
            };
            let msg = random_message(&mut rng, txn);
            let out = links.send(now + Duration::from_ps(ahead), &msg, Some(&mut plan));
            sent.push(((out.link, msg.dst), msg.link_bytes(), out));
        }
        let ctx = format!("case {case} ({policy:?}, drop {p_drop}, corrupt {p_corrupt}, {cfg:?})");

        // Exactly once: one message per send, each frame resent at most
        // once, and the wire carried each resend's bytes again.
        let resent: u64 = sent.iter().map(|s| u64::from(s.2.retransmissions)).sum();
        let wire_bytes: u64 = sent
            .iter()
            .map(|s| s.1 * (1 + u64::from(s.2.retransmissions)))
            .sum();
        assert_eq!(links.messages_sent(), u64::from(n), "{ctx}");
        assert!(sent.iter().all(|s| s.2.retransmissions <= 1), "{ctx}");
        assert_eq!(links.retransmissions(), resent, "{ctx}");
        assert_eq!(links.bytes_sent(), wire_bytes, "{ctx}");
        assert!(sent.iter().all(|s| s.2.delivered > s.2.start), "{ctx}");
        // Every faulted frame was resent and its recovery recorded.
        let mut faulted = 0;
        for target in [fault_targets::FRAME_DROP, fault_targets::FRAME_CORRUPT] {
            assert_eq!(plan.recovered(target), plan.injected(target), "{ctx}");
            faulted += plan.injected(target);
        }
        assert!(faulted <= resent, "{ctx}");
        if p_drop == 1.0 || p_corrupt == 1.0 {
            assert_eq!(resent, u64::from(n), "{ctx}: every frame was faulted");
        }

        for dir in [
            (0, NodeId::Cpu),
            (0, NodeId::Fpga),
            (1, NodeId::Cpu),
            (1, NodeId::Fpga),
        ] {
            let frames: Vec<(u64, SendOutcome)> = sent
                .iter()
                .filter(|s| s.0 == dir)
                .map(|s| (s.1, s.2))
                .collect();
            if frames.iter().all(|f| f.1.retransmissions == 0) {
                continue;
            }
            // Wire order: of two frames, the one sent first that also
            // went on the wire first lands first, resent or not.
            for (i, a) in frames.iter().enumerate() {
                for b in frames[i + 1..].iter().filter(|b| a.1.start < b.1.start) {
                    assert!(a.1.delivered < b.1.delivered, "{ctx} {dir:?}: {a:?} {b:?}");
                }
            }
            // Bounded recovery: every frame lands within one replay
            // timeout, plus the wire time of every first transmission and
            // resend on the direction (and the gaps too short to use),
            // after the last first transmission would have landed.
            let last_first_landing = frames
                .iter()
                .map(|f| f.1.start + wire_time_bound(f.0) + cfg.propagation)
                .max()
                .expect("a faulted direction carried frames");
            let wire: Duration = frames
                .iter()
                .map(|f| wire_time_bound(f.0) * 4)
                .fold(Duration::ZERO, |a, b| a + b);
            let bound = last_first_landing + cfg.replay_timeout + cfg.propagation + wire;
            for f in &frames {
                assert!(
                    f.1.delivered <= bound,
                    "{ctx} {dir:?}: {f:?} past {bound:?}"
                );
            }
        }
    }
}

/// A burst of FPGA reads of distinct CPU-homed lines, all at `Time::ZERO`,
/// run to idle; returns the completions in issue order.
fn read_burst(sys: &mut EciSystem, first_line: u64) -> Vec<TxnCompletion> {
    let handles: Vec<_> = (first_line..first_line + 48)
        .map(|line| sys.issue(Time::ZERO, Addr(line * 128), TxnOp::FpgaRead))
        .collect();
    sys.run_to_idle();
    handles
        .into_iter()
        .map(|h| sys.take_completion(h).expect("every read completes"))
        .collect()
}

#[test]
fn recovery_ends_at_a_drain() {
    let faulted = || {
        let mut sys = EciSystem::new(EciSystemConfig::enzian());
        sys.set_fault_plan(
            FaultPlan::new(7).with(FaultSpec::once(fault_targets::FRAME_DROP, Time::ZERO)),
        );
        let first = read_burst(&mut sys, 0);
        assert!(first.iter().all(|c| c.data == Some([0; 128])));
        sys
    };
    let mut sys = faulted();
    let after_fault = sys.links().retransmissions();
    // The dropped request went back N: the frames sent behind it were
    // replayed too.
    assert!(after_fault > 1, "{after_fault} retransmissions");

    // A second batch at time zero, after the drain, is behind no fault:
    // it resends nothing and runs exactly as with the plan taken out.
    let second = read_burst(&mut sys, 1_000);
    assert_eq!(sys.links().retransmissions(), after_fault);
    let mut twin = faulted();
    twin.take_fault_plan();
    assert_eq!(second, read_burst(&mut twin, 1_000));
    sys.checker().assert_clean();
}
