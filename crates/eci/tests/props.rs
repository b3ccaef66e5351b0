//! Randomized invariant tests for the ECI protocol layer, driven by the
//! deterministic [`SimRng`] so every failure reproduces exactly.

use enzian_eci::link::{EciLinkConfig, EciLinks, LinkPolicy};
use enzian_eci::message::{Message, MessageKind, TxnId};
use enzian_eci::wire::{crc32, decode_message, encode_message};
use enzian_eci::{EciSystem, EciSystemConfig};
use enzian_mem::{Addr, CacheLine, NodeId};
use enzian_sim::{SimRng, Time};

/// Flipping any single bit of an encoded frame is detected (by the
/// CRC or an earlier structural check) — never silently accepted as
/// a different message.
#[test]
fn single_bit_flips_never_alias() {
    let mut rng = SimRng::seed_from(0xEC1_0001);
    for _case in 0..256 {
        let msg = Message::new(
            NodeId::Fpga,
            NodeId::Cpu,
            TxnId(rng.next_u64() as u32),
            MessageKind::ReadOnce(CacheLine(rng.next_u64())),
        );
        let enc = encode_message(&msg);
        let bit = rng.next_below(enc.len() as u64 * 8) as usize;
        let mut bad = enc.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        match decode_message(&bad) {
            Err(_) => {} // detected
            Ok((decoded, _)) => assert_eq!(decoded, msg, "silent corruption"),
        }
    }
}

/// Exhaustively: flipping ANY single bit of an encoded frame of ANY
/// message kind is rejected outright — a damaged frame is never decoded
/// at all, silently or otherwise. (The CRC covers the whole header and
/// payload, and the structural checks guard the rest.)
#[test]
fn any_single_bit_flip_is_rejected_for_every_message_kind() {
    let line = CacheLine(0x1234);
    let data = || Box::new([0x5Au8; 128]);
    let reg = Addr(0xF00);
    let kinds = vec![
        MessageKind::ReadShared(line),
        MessageKind::ReadExclusive(line),
        MessageKind::Upgrade(line),
        MessageKind::ReadOnce(line),
        MessageKind::WriteLine(line, data()),
        MessageKind::ProbeShared(line),
        MessageKind::ProbeInvalidate(line),
        MessageKind::DataShared(line, data()),
        MessageKind::DataExclusive(line, data()),
        MessageKind::Ack(line),
        MessageKind::ProbeAckData(line, data()),
        MessageKind::ProbeAck(line),
        MessageKind::VictimDirty(line, data()),
        MessageKind::VictimClean(line),
        MessageKind::IoRead { addr: reg, size: 4 },
        MessageKind::IoWrite {
            addr: reg,
            size: 8,
            data: 0xDEAD_BEEF,
        },
        MessageKind::IoData {
            addr: reg,
            data: 0xBEEF,
        },
        MessageKind::IoAck { addr: reg },
        MessageKind::Ipi { vector: 7 },
    ];
    for kind in kinds {
        let msg = Message::new(NodeId::Fpga, NodeId::Cpu, TxnId(9), kind);
        let enc = encode_message(&msg);
        for bit in 0..enc.len() * 8 {
            let mut bad = enc.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode_message(&bad).is_err(),
                "bit flip at {bit} in {:?} decoded anyway",
                msg.kind
            );
        }
    }
}

/// CRC32 detects any single-byte edit of a buffer.
#[test]
fn crc_detects_single_byte_edits() {
    let mut rng = SimRng::seed_from(0xEC1_0002);
    for _case in 0..256 {
        let n = rng.range(1, 127) as usize;
        let mut data = vec![0u8; n];
        rng.fill_bytes(&mut data);
        let idx = rng.next_below(n as u64) as usize;
        let delta = rng.range(1, 255) as u8;
        let mut edited = data.clone();
        edited[idx] = edited[idx].wrapping_add(delta);
        assert_ne!(crc32(&data), crc32(&edited));
    }
}

/// For any traffic mix, the links' byte accounting equals the sum of
/// the messages' link sizes, and every delivery is causal.
#[test]
fn link_accounting_is_exact() {
    let mut rng = SimRng::seed_from(0xEC1_0003);
    for _case in 0..16 {
        let n = rng.range(1, 99) as usize;
        let mut links = EciLinks::new_trained(EciLinkConfig::enzian(), LinkPolicy::RoundRobin);
        let mut expect = 0u64;
        for i in 0..n {
            let line = CacheLine(i as u64);
            let (src, dst, kind) = match rng.next_below(4) {
                0 => (NodeId::Fpga, NodeId::Cpu, MessageKind::ReadOnce(line)),
                1 => (
                    NodeId::Cpu,
                    NodeId::Fpga,
                    MessageKind::DataShared(line, Box::new([0; 128])),
                ),
                2 => (
                    NodeId::Fpga,
                    NodeId::Cpu,
                    MessageKind::WriteLine(line, Box::new([0; 128])),
                ),
                _ => (NodeId::Cpu, NodeId::Fpga, MessageKind::Ack(line)),
            };
            let msg = Message::new(src, dst, TxnId(i as u32), kind);
            expect += msg.link_bytes();
            let out = links.send(Time::ZERO, &msg, None);
            assert!(out.delivered > out.start);
        }
        assert_eq!(links.bytes_sent(), expect);
        assert_eq!(links.messages_sent(), n as u64);
    }
}

/// Any interleaving of FPGA reads/writes over distinct lines keeps
/// per-line read-your-writes semantics and a clean checker.
#[test]
fn fpga_traffic_read_your_writes() {
    let mut rng = SimRng::seed_from(0xEC1_0004);
    for _case in 0..16 {
        let n = rng.range(1, 49) as usize;
        let mut sys = EciSystem::new(EciSystemConfig::enzian());
        let mut last = [0u8; 6];
        let mut t = Time::ZERO;
        for _ in 0..n {
            let slot = rng.next_below(6);
            let fill = rng.next_u64() as u8;
            let addr = Addr(slot * 128);
            if rng.chance(0.5) {
                last[slot as usize] = fill;
                t = sys.fpga_write_line(t, addr, &[fill; 128]);
            } else {
                let (data, t2) = sys.fpga_read_line(t, addr);
                assert_eq!(data[0], last[slot as usize]);
                t = t2;
            }
        }
        assert!(sys.checker().violations().is_empty());
    }
}

#[test]
fn link_retraining_mid_traffic_recovers() {
    // Failure injection: take link 0 down for retraining while traffic
    // flows; the policy falls back to link 1, and after retraining both
    // links carry traffic again with no protocol violations.
    let mut sys = EciSystem::new(EciSystemConfig::enzian());
    let mut t = Time::ZERO;
    for i in 0..32u64 {
        t = sys.fpga_write_line(t, Addr(i * 128), &[1u8; 128]);
    }
    // Retrain link 0 at reduced width (a degraded-lane scenario).
    sys.links_mut().train(0, t, 4);
    // Traffic continues during training on link 1.
    for i in 0..32u64 {
        let (data, t2) = sys.fpga_read_line(t, Addr(i * 128));
        assert_eq!(data, [1u8; 128]);
        t = t2;
    }
    // After training completes (2 ms), link 0 is up at 4 lanes.
    let mut t = t + enzian_sim::Duration::from_ms(3);
    sys.links_mut().poll(t);
    assert!(matches!(
        sys.links().link_state(0),
        enzian_eci::link::LinkState::Up { lanes: 4 }
    ));
    for i in 0..32u64 {
        t = sys.fpga_write_line(t, Addr(i * 128), &[2u8; 128]);
    }
    let (data, _) = sys.fpga_read_line(t, Addr(0));
    assert_eq!(data, [2u8; 128]);
    assert!(sys.checker().violations().is_empty());
}
