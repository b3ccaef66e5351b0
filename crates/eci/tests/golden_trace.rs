//! Golden-trace regression tests.
//!
//! `tests/data/` pins the on-wire encodings: a captured ECI protocol
//! trace covering every message kind (`golden.ecitrace`), its decoded
//! rendering (`golden.ecitrace.txt`), and a corpus of bridge frames
//! (`golden.bridge`). Any codec change that alters a single byte of
//! either format — or a single character of the dissector's output —
//! fails here. Regenerate deliberately with
//! `cargo test -p enzian-eci --test golden_trace -- --ignored regenerate`.

use enzian_eci::bridge::BRIDGE_OVERHEAD_BYTES;
use enzian_eci::decoder::{decode_trace, format_trace, TraceBuffer};
use enzian_eci::{
    encode_message, write_bridge, BridgeFrame, BridgeHeader, BridgeOpcode, Message, MessageKind,
    TxnId,
};
use enzian_mem::{Addr, CacheLine, NodeId};
use enzian_sim::{Duration, Time};

fn data_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

fn line(fill: u8) -> Box<[u8; 128]> {
    let mut d = [0u8; 128];
    for (i, b) in d.iter_mut().enumerate() {
        *b = fill.wrapping_add(i as u8);
    }
    Box::new(d)
}

/// The canonical ECI trace: one message of every kind, alternating
/// directions, timestamps 100 ns apart.
fn golden_eci_trace() -> TraceBuffer {
    let l = CacheLine(0x4_2000);
    let kinds: Vec<MessageKind> = vec![
        MessageKind::ReadShared(l),
        MessageKind::ReadExclusive(CacheLine(0x4_2080)),
        MessageKind::Upgrade(l),
        MessageKind::ReadOnce(CacheLine(0x10_0000)),
        MessageKind::WriteLine(CacheLine(0x10_0080), line(0x11)),
        MessageKind::ProbeShared(l),
        MessageKind::ProbeInvalidate(l),
        MessageKind::DataShared(l, line(0x22)),
        MessageKind::DataExclusive(l, line(0x33)),
        MessageKind::Ack(l),
        MessageKind::ProbeAckData(l, line(0x44)),
        MessageKind::ProbeAck(l),
        MessageKind::VictimDirty(l, line(0x55)),
        MessageKind::VictimClean(l),
        MessageKind::IoRead {
            addr: Addr(0x9000_0010),
            size: 8,
        },
        MessageKind::IoWrite {
            addr: Addr(0x9000_0018),
            size: 4,
            data: 0xDEAD_BEEF,
        },
        MessageKind::IoData {
            addr: Addr(0x9000_0010),
            data: 0x0123_4567_89AB_CDEF,
        },
        MessageKind::IoAck {
            addr: Addr(0x9000_0018),
        },
        MessageKind::Ipi { vector: 42 },
    ];
    let mut buf = TraceBuffer::new();
    for (i, kind) in kinds.into_iter().enumerate() {
        let (src, dst) = if i % 2 == 0 {
            (NodeId::Fpga, NodeId::Cpu)
        } else {
            (NodeId::Cpu, NodeId::Fpga)
        };
        buf.capture(
            Time::ZERO + Duration::from_ns(100) * i as u64,
            &Message::new(src, dst, TxnId(i as u32 + 1), kind),
        );
    }
    buf
}

/// The canonical bridge corpus, one frame of every line opcode as
/// `(header, payload)`.
fn golden_bridge_corpus() -> Vec<(BridgeHeader, Vec<u8>)> {
    let frame = |opcode, src, dst, token, addr, seq, payload: &[u8]| {
        let header = BridgeHeader {
            opcode,
            src,
            dst,
            token,
            addr,
            seq,
        };
        (header, payload.to_vec())
    };
    vec![
        frame(BridgeOpcode::ReadReq, 0, 3, 7, 0x30_0400, 1, &[]),
        frame(
            BridgeOpcode::ReadResp,
            3,
            0,
            7,
            0x30_0400,
            2,
            &line(0x66)[..],
        ),
        frame(
            BridgeOpcode::WriteReq,
            1,
            2,
            0,
            0x20_0000,
            3,
            &line(0x77)[..],
        ),
        frame(BridgeOpcode::WriteAck, 2, 1, 0, 0x20_0000, 4, &[]),
        frame(BridgeOpcode::Nack, 2, 1, 5, 0xFFF_FF80, 5, &[]),
    ]
}

/// The corpus written frame after frame into one buffer.
fn golden_bridge_bytes() -> Vec<u8> {
    let mut stream = Vec::new();
    for (header, payload) in golden_bridge_corpus() {
        write_bridge(&mut stream, &header, |p| p.extend_from_slice(&payload));
    }
    stream
}

#[test]
fn golden_eci_trace_round_trips_byte_for_byte() {
    let stored = std::fs::read(data_path("golden.ecitrace")).expect("corpus present");
    let trace = golden_eci_trace();
    // Today's encoder must reproduce the stored bytes exactly...
    assert_eq!(
        trace.wire_bytes(),
        &stored[..],
        "wire encoding changed; regenerate deliberately if intended"
    );
    // ...and decoding the stored bytes must reproduce the messages.
    let decoded = decode_trace(&stored).expect("golden trace decodes");
    assert_eq!(decoded.len(), trace.len());
    for (d, r) in decoded.iter().zip(trace.records()) {
        assert_eq!(d, &r.msg);
    }
    // Re-encoding the decoded messages closes the loop.
    let reencoded: Vec<u8> = decoded.iter().flat_map(encode_message).collect();
    assert_eq!(reencoded, stored);
}

#[test]
fn golden_eci_rendering_matches_the_dissector() {
    let stored = std::fs::read_to_string(data_path("golden.ecitrace.txt")).expect("corpus present");
    assert_eq!(
        format_trace(&golden_eci_trace()),
        stored,
        "dissector output changed; regenerate deliberately if intended"
    );
}

#[test]
fn golden_bridge_corpus_round_trips_byte_for_byte() {
    let stored = std::fs::read(data_path("golden.bridge")).expect("corpus present");
    assert_eq!(
        golden_bridge_bytes(),
        stored,
        "bridge encoding changed; regenerate deliberately if intended"
    );
    // Walk the stored stream frame by frame; each frame re-encodes to
    // exactly its stored bytes.
    let mut off = 0;
    let mut decoded = Vec::new();
    while off < stored.len() {
        let frame = BridgeFrame::parse(&stored[off..]).expect("golden frame decodes");
        let total = BRIDGE_OVERHEAD_BYTES as usize + frame.payload.len();
        let mut again = Vec::new();
        write_bridge(&mut again, &frame.header, |p| {
            p.extend_from_slice(frame.payload)
        });
        assert_eq!(again, &stored[off..off + total]);
        decoded.push((frame.header, frame.payload.to_vec()));
        off += total;
    }
    assert_eq!(off, stored.len(), "trailing bytes in the corpus");
    assert_eq!(decoded, golden_bridge_corpus());
}

/// Rewrites the corpus from the current codecs. Run only when an
/// encoding change is intended:
/// `cargo test -p enzian-eci --test golden_trace -- --ignored regenerate`
#[test]
#[ignore = "rewrites the golden corpus"]
fn regenerate_golden_corpus() {
    std::fs::create_dir_all(data_path("")).unwrap();
    let trace = golden_eci_trace();
    std::fs::write(data_path("golden.ecitrace"), trace.wire_bytes()).unwrap();
    std::fs::write(data_path("golden.ecitrace.txt"), format_trace(&trace)).unwrap();
    std::fs::write(data_path("golden.bridge"), golden_bridge_bytes()).unwrap();
}
