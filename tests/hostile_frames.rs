//! Hostile bytes into the fabric and ECI wire decoders.
//!
//! Every frame a cluster board receives passes three decoders: the
//! bridge parser ([`BridgeFrame::parse`]), then the service codec ([`decode_svc`], or the in-place
//! [`HeartbeatView`] on the control plane) or the traffic segment
//! codec ([`decode_segment`]) on the payload it borrows. ECI
//! messages in the trace/interoperability format go through
//! [`decode_message`], and whole captured traces through
//! [`decode_trace`]. This battery starts from valid frames of every
//! bridge opcode, every service message kind, every segment flag and
//! every ECI message kind, and feeds each decoder deterministic
//! SplitMix64-driven mutations of them: bit flips, truncation,
//! extension, overwritten bytes and wholly random buffers.
//!
//! Properties, on every input:
//! - no decoder panics;
//! - the owned and the in-place heartbeat decoders agree, error for
//!   error;
//! - an accepted frame re-encodes to exactly the accepted bytes,
//!   through the bridge writer [`write_bridge`] and through
//!   [`encode_message`] for ECI frames;
//! - a frame corrupted within its extent (flipped or overwritten bytes,
//!   a cut) yields a typed error.
//!
//! The CRC-32 trailer of an ECI frame rejects nearly every mutation
//! before the field checks run, so each mutated ECI frame is also
//! decoded re-sealed: with its CRC recomputed over the damaged bytes.

use enzian::apps::{
    decode_svc, encode_svc_into, HeartbeatView, KvOp, KvResult, RespErr, RespOk, SvcError,
    SvcPayload, SvcWireError,
};
use enzian::eci::bridge::BRIDGE_OVERHEAD_BYTES;
use enzian::eci::decoder::{decode_trace, TraceBuffer};
use enzian::eci::wire::{crc32, decode_message, encode_message, WireError};
use enzian::eci::{
    write_bridge, BridgeError, BridgeFrame, BridgeHeader, BridgeOpcode, Message, MessageKind, TxnId,
};
use enzian::mem::{Addr, CacheLine, NodeId};
use enzian::net::traffic::{
    decode_segment, encode_segment, encode_segment_into, flags, Segment, SegmentError,
};
use enzian::sim::{Duration, SplitMix64, Time};

/// Mutated inputs drawn per valid frame.
const ROUNDS: usize = 2_000;

fn below(rng: &mut SplitMix64, n: u64) -> u64 {
    rng.next() % n
}

fn bytes(rng: &mut SplitMix64, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.next() as u8).collect()
}

/// How a valid buffer was damaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Damage {
    /// One to three bits flipped within the buffer.
    Flipped,
    /// Cut short.
    Truncated,
    /// Random bytes appended.
    Extended,
    /// One byte overwritten with a different value.
    Overwritten,
    /// A random buffer, unrelated to the valid one.
    Random,
}

/// One deterministic mutation of `valid`, with what was done to it.
fn mutate(rng: &mut SplitMix64, valid: &[u8]) -> (Vec<u8>, Damage) {
    let mut b = valid.to_vec();
    match below(rng, 5) {
        0 => {
            // Distinct bit positions, so the flips never cancel.
            let bits = valid.len() as u64 * 8;
            let mut picked: Vec<u64> = Vec::new();
            while picked.len() < 1 + below(rng, 3) as usize {
                let bit = below(rng, bits);
                if !picked.contains(&bit) {
                    picked.push(bit);
                }
            }
            for bit in picked {
                b[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
            (b, Damage::Flipped)
        }
        1 => {
            b.truncate(below(rng, valid.len() as u64) as usize);
            (b, Damage::Truncated)
        }
        2 => {
            let extra = 1 + below(rng, 16) as usize;
            b.extend(bytes(rng, extra));
            (b, Damage::Extended)
        }
        3 => {
            let at = below(rng, valid.len() as u64) as usize;
            b[at] ^= 1 + below(rng, 255) as u8;
            (b, Damage::Overwritten)
        }
        _ => {
            let len = below(rng, 2 * valid.len() as u64 + 8) as usize;
            (bytes(rng, len), Damage::Random)
        }
    }
}

fn line(rng: &mut SplitMix64) -> Box<[u8; 128]> {
    Box::new(bytes(rng, 128).try_into().unwrap())
}

fn encode_svc(p: &SvcPayload) -> Vec<u8> {
    let mut out = Vec::new();
    encode_svc_into(p, &mut out);
    out
}

fn segment(rng: &mut SplitMix64) -> Segment {
    Segment {
        flags: [
            flags::SYN,
            flags::SYN | flags::ACK,
            flags::ACK | flags::CTL,
            flags::ACK,
            flags::FIN | flags::ACK,
        ][below(rng, 5) as usize],
        src_board: rng.next() as u8,
        dst_board: rng.next() as u8,
        src_port: rng.next() as u32,
        dst_port: rng.next() as u32,
        seq: rng.next() as u32,
        ack: rng.next() as u32,
        len: below(rng, 9_000) as u32,
    }
}

/// One service message of every kind, each body variant included.
fn svc_corpus(rng: &mut SplitMix64) -> Vec<SvcPayload> {
    let len = 1 + below(rng, 23) as usize;
    let value = bytes(rng, len);
    let ops = [
        KvOp::Get { key: rng.next() },
        KvOp::Put {
            key: rng.next(),
            value: value.clone(),
        },
        KvOp::Delete { key: rng.next() },
    ];
    let bodies = [
        Ok(RespOk {
            result: KvResult::Found(value),
            stale: true,
        }),
        Ok(RespOk {
            result: KvResult::Missing,
            stale: false,
        }),
        Ok(RespOk {
            result: KvResult::PutOk,
            stale: false,
        }),
        Ok(RespOk {
            result: KvResult::Deleted(true),
            stale: false,
        }),
        Ok(RespOk {
            result: KvResult::StoreErr(3),
            stale: false,
        }),
        Err(RespErr {
            error: SvcError::NotPrimary {
                epoch: 9,
                primary: 2,
            },
        }),
        Err(RespErr {
            error: SvcError::NoQuorum,
        }),
        Err(RespErr {
            error: SvcError::Recovering,
        }),
    ];
    let mut corpus = Vec::new();
    for op in &ops {
        corpus.push(SvcPayload::Request {
            client: rng.next() as u32,
            req_id: rng.next() as u32,
            op_seq: rng.next() as u32,
            shard: rng.next() as u16,
            epoch: rng.next() as u32,
            stale_ok: rng.next() & 1 == 1,
            op: op.clone(),
        });
        corpus.push(SvcPayload::Replicate {
            shard: rng.next() as u16,
            epoch: rng.next() as u32,
            index: rng.next() as u32,
            client: rng.next() as u32,
            op_seq: rng.next() as u32,
            op: op.clone(),
        });
    }
    for body in bodies {
        corpus.push(SvcPayload::Response {
            client: rng.next() as u32,
            req_id: rng.next() as u32,
            shard: rng.next() as u16,
            epoch: rng.next() as u32,
            body,
        });
    }
    corpus.extend([
        SvcPayload::RepAck {
            shard: 1,
            epoch: 2,
            index: 3,
        },
        SvcPayload::RepNack { shard: 4, epoch: 5 },
        SvcPayload::Heartbeat {
            seq: 6,
            epochs: vec![(0, 1), (3, 7), (5, 2)],
        },
        SvcPayload::Heartbeat {
            seq: 7,
            epochs: Vec::new(),
        },
        SvcPayload::CatchupReq { shard: 8 },
        SvcPayload::CatchupStart {
            shard: 9,
            epoch: 10,
            len: 11,
        },
    ]);
    corpus
}

/// A valid frame of every bridge opcode as `(header, payload)`, the
/// opaque planes carrying real service messages and segments.
fn bridge_corpus(rng: &mut SplitMix64) -> Vec<(BridgeHeader, Vec<u8>)> {
    let svc = svc_corpus(rng);
    let heartbeat = svc
        .iter()
        .find(|p| matches!(p, SvcPayload::Heartbeat { .. }))
        .unwrap();
    let frames = vec![
        (BridgeOpcode::ReadReq, Vec::new()),
        (BridgeOpcode::ReadResp, line(rng).to_vec()),
        (BridgeOpcode::WriteReq, line(rng).to_vec()),
        (BridgeOpcode::WriteAck, Vec::new()),
        (BridgeOpcode::Nack, Vec::new()),
        (BridgeOpcode::SvcClient, encode_svc(&svc[0])),
        (BridgeOpcode::SvcRep, encode_svc(&svc[1])),
        (BridgeOpcode::SvcCtl, encode_svc(heartbeat)),
        (BridgeOpcode::Tcp, encode_segment(&segment(rng))),
    ];
    frames
        .into_iter()
        .map(|(opcode, payload)| {
            let header = BridgeHeader {
                opcode,
                src: rng.next() as u8,
                dst: rng.next() as u8,
                token: rng.next() as u8,
                addr: rng.next(),
                seq: rng.next() as u32,
            };
            (header, payload)
        })
        .collect()
}

/// Parses `input` as a bridge frame; an accepted frame must re-encode
/// through [`write_bridge`] to exactly the bytes it was parsed from.
fn check_bridge(input: &[u8]) -> Result<BridgeFrame<'_>, BridgeError> {
    let view = BridgeFrame::parse(input);
    if let Ok(frame) = &view {
        let extent = BRIDGE_OVERHEAD_BYTES as usize + frame.payload.len();
        let mut written = vec![0x5A];
        write_bridge(&mut written, &frame.header, |p| {
            p.extend_from_slice(frame.payload)
        });
        assert_eq!(&written[1..], &input[..extent]);
    }
    view
}

/// Decodes a service payload and checks it re-encodes canonically:
/// encoding what was decoded and decoding again gives the same message.
fn check_svc(input: &[u8]) -> Result<SvcPayload, SvcWireError> {
    let decoded = decode_svc(input);
    if let Ok(p) = &decoded {
        let again = encode_svc(p);
        assert_eq!(decode_svc(&again).as_ref(), Ok(p));
    }
    decoded
}

/// The wire tag of a heartbeat, the first byte of its payload.
const HEARTBEAT_TAG: u8 = 6;

/// Reads `input` as a heartbeat in place and checks the view against
/// the owned decoder: a payload tagged as a heartbeat gives both the
/// same `(seq, entries)` or the same error; any other kind the view
/// refuses by its tag.
fn check_heartbeat(input: &[u8]) -> Result<HeartbeatView<'_>, SvcWireError> {
    let view = HeartbeatView::parse(input);
    let owned = decode_svc(input);
    match (input.first(), &view, &owned) {
        (Some(&t), _, _) if t != HEARTBEAT_TAG => {
            assert_eq!(view, Err(SvcWireError::BadTag(t)));
            assert!(!matches!(owned, Ok(SvcPayload::Heartbeat { .. })));
        }
        (_, Ok(v), Ok(SvcPayload::Heartbeat { seq, epochs })) => {
            assert_eq!(v.seq, *seq);
            assert!(v.epochs().eq(epochs.iter().copied()));
        }
        (_, Err(a), Err(b)) => assert_eq!(a, b),
        _ => panic!("view {view:?} and decoder {owned:?} disagree on {input:02x?}"),
    }
    view
}

/// Decodes a segment and checks the accepted header re-encodes to the
/// bytes it was decoded from.
fn check_segment(input: &[u8]) -> Result<Segment, SegmentError> {
    let decoded = decode_segment(input);
    if let Ok(seg) = &decoded {
        assert_eq!(encode_segment(seg), &input[..28]);
    }
    decoded
}

#[test]
fn bridge_frames_survive_hostile_bytes() {
    let mut rng = SplitMix64::new(0xB41D_6E00);
    let corpus = bridge_corpus(&mut rng);
    let mut rejected = 0u64;
    for (header, payload) in &corpus {
        let mut valid = Vec::new();
        write_bridge(&mut valid, header, |p| p.extend_from_slice(payload));
        let frame = check_bridge(&valid).expect("valid frame decodes");
        assert_eq!((&frame.header, frame.payload), (header, &payload[..]));
        match header.opcode {
            BridgeOpcode::SvcClient | BridgeOpcode::SvcRep | BridgeOpcode::SvcCtl => {
                check_svc(frame.payload).expect("valid service payload");
            }
            BridgeOpcode::Tcp => {
                check_segment(frame.payload).expect("valid segment");
            }
            _ => {}
        }
        for _ in 0..ROUNDS {
            let (input, damage) = mutate(&mut rng, &valid);
            let verdict = check_bridge(&input);
            match damage {
                Damage::Flipped | Damage::Overwritten | Damage::Truncated => {
                    assert!(
                        verdict.is_err(),
                        "{damage:?} frame accepted: {input:02x?} (from {header:?})"
                    );
                    rejected += 1;
                }
                Damage::Extended => {
                    let frame = verdict.expect("trailing bytes are not the frame's");
                    assert_eq!(&frame.header, header);
                }
                Damage::Random => {}
            }
            // What the boards do next with an accepted opaque payload.
            if let Ok(frame) = verdict {
                let _ = check_svc(frame.payload);
                let _ = check_heartbeat(frame.payload);
                let _ = check_segment(frame.payload);
            }
        }
    }
    assert!(rejected > corpus.len() as u64 * ROUNDS as u64 / 2);
}

#[test]
fn service_payloads_survive_hostile_bytes() {
    let mut rng = SplitMix64::new(0x5E11_6E01);
    for p in svc_corpus(&mut rng) {
        let valid = encode_svc(&p);
        assert_eq!(check_svc(&valid), Ok(p.clone()));
        let mut framed = vec![0xEB; 20];
        encode_svc_into(&p, &mut framed);
        assert_eq!(framed[20..], valid[..]);
        for _ in 0..ROUNDS {
            let (input, damage) = mutate(&mut rng, &valid);
            let verdict = check_svc(&input);
            match damage {
                // The service codec has no checksum of its own (the
                // bridge CRC guards it), so only cuts and extensions are
                // certain to be caught.
                Damage::Truncated => assert_eq!(verdict, Err(SvcWireError::Truncated)),
                Damage::Extended => assert!(
                    matches!(verdict, Err(SvcWireError::TrailingBytes(_))),
                    "{input:02x?} gave {verdict:?}"
                ),
                _ => {}
            }
        }
    }
}

#[test]
fn heartbeat_view_and_decoder_agree_on_hostile_bytes() {
    let mut rng = SplitMix64::new(0x4EA7_6E03);
    let mut heartbeats: Vec<SvcPayload> = svc_corpus(&mut rng)
        .into_iter()
        .filter(|p| matches!(p, SvcPayload::Heartbeat { .. }))
        .collect();
    // A board hosting twelve shards: a payload past the 64 bytes a
    // service frame holds inline.
    heartbeats.push(SvcPayload::Heartbeat {
        seq: rng.next() as u32,
        epochs: (0..12).map(|s| (s, rng.next() as u32)).collect(),
    });
    for p in heartbeats {
        let valid = encode_svc(&p);
        let SvcPayload::Heartbeat { epochs, .. } = &p else {
            unreachable!("filtered to heartbeats")
        };
        let have = epochs.len();
        assert!(check_heartbeat(&valid).is_ok());
        // Every entry count near the true one: a count past the entries
        // present overruns the buffer, one short of them leaves entries
        // trailing.
        for n in (0..=have as u16 + 3).chain([0x7FFF, u16::MAX]) {
            let mut input = valid.clone();
            input[5..7].copy_from_slice(&n.to_le_bytes());
            let verdict = check_heartbeat(&input);
            match usize::from(n) {
                n if n > have => assert_eq!(verdict, Err(SvcWireError::Truncated)),
                n if n < have => {
                    assert_eq!(verdict, Err(SvcWireError::TrailingBytes((have - n) * 6)));
                }
                _ => assert!(verdict.is_ok()),
            }
        }
        for _ in 0..ROUNDS {
            let (input, damage) = mutate(&mut rng, &valid);
            let verdict = check_heartbeat(&input);
            match damage {
                Damage::Truncated => assert_eq!(verdict, Err(SvcWireError::Truncated)),
                Damage::Extended => assert!(verdict.is_err(), "{input:02x?} accepted"),
                _ => {}
            }
        }
    }
}

#[test]
fn segments_survive_hostile_bytes() {
    let mut rng = SplitMix64::new(0x7C9_6E02);
    for _ in 0..32 {
        let seg = segment(&mut rng);
        let valid = encode_segment(&seg);
        assert_eq!(check_segment(&valid), Ok(seg));
        let mut framed = vec![0xEB; 20];
        encode_segment_into(&seg, &mut framed);
        assert_eq!(framed[20..], valid[..]);
        for _ in 0..ROUNDS {
            let (input, damage) = mutate(&mut rng, &valid);
            let verdict = check_segment(&input);
            match damage {
                // The Internet checksum catches every single-byte error
                // and every cut; multi-bit flips can cancel in it.
                Damage::Overwritten => assert!(verdict.is_err(), "{input:02x?} accepted"),
                Damage::Truncated => {
                    assert_eq!(verdict, Err(SegmentError::Truncated { got: input.len() }))
                }
                Damage::Extended => assert_eq!(verdict, Ok(seg)),
                Damage::Flipped | Damage::Random => {}
            }
        }
    }
}

/// One ECI message of every kind, I/O accesses at every size, in both
/// directions.
fn eci_corpus(rng: &mut SplitMix64) -> Vec<Message> {
    let line = CacheLine(rng.next() >> 7);
    let addr = Addr(rng.next());
    let mut kinds = vec![
        MessageKind::ReadShared(line),
        MessageKind::ReadExclusive(line),
        MessageKind::Upgrade(line),
        MessageKind::ReadOnce(line),
        MessageKind::WriteLine(line, self::line(rng)),
        MessageKind::ProbeShared(line),
        MessageKind::ProbeInvalidate(line),
        MessageKind::DataShared(line, self::line(rng)),
        MessageKind::DataExclusive(line, self::line(rng)),
        MessageKind::Ack(line),
        MessageKind::ProbeAckData(line, self::line(rng)),
        MessageKind::ProbeAck(line),
        MessageKind::VictimDirty(line, self::line(rng)),
        MessageKind::VictimClean(line),
        MessageKind::IoData {
            addr,
            data: rng.next(),
        },
        MessageKind::IoAck { addr },
        MessageKind::Ipi {
            vector: rng.next() as u8,
        },
    ];
    for size in [1u8, 2, 4, 8] {
        kinds.push(MessageKind::IoRead { addr, size });
        // The frame carries only the low `size` bytes of the data.
        let data = rng.next() & (u64::MAX >> (64 - 8 * u32::from(size)));
        kinds.push(MessageKind::IoWrite { addr, size, data });
    }
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let (src, dst) = if i % 2 == 0 {
                (NodeId::Fpga, NodeId::Cpu)
            } else {
                (NodeId::Cpu, NodeId::Fpga)
            };
            Message::new(src, dst, TxnId(rng.next() as u32), kind)
        })
        .collect()
}

/// Decodes one ECI frame and checks an accepted decode re-encodes to
/// exactly the bytes it consumed.
fn check_message(input: &[u8]) -> Result<(Message, usize), WireError> {
    let decoded = decode_message(input);
    if let Ok((msg, used)) = &decoded {
        assert_eq!(
            encode_message(msg),
            &input[..*used],
            "{msg} re-encodes to other bytes"
        );
    }
    decoded
}

/// `frame` with its CRC-32 recomputed over the header and the payload
/// its (possibly damaged) length field claims, when the buffer is long
/// enough to hold them.
fn reseal(mut frame: Vec<u8>) -> Vec<u8> {
    if frame.len() >= 8 {
        let body = 24 + usize::from(u16::from_le_bytes([frame[6], frame[7]]));
        if frame.len() >= body + 4 {
            let crc = crc32(&frame[..body]);
            frame[body..body + 4].copy_from_slice(&crc.to_le_bytes());
        }
    }
    frame
}

#[test]
fn eci_frames_survive_hostile_bytes() {
    let mut rng = SplitMix64::new(0xEC1_6E03);
    for msg in eci_corpus(&mut rng) {
        let valid = encode_message(&msg);
        assert_eq!(check_message(&valid), Ok((msg.clone(), valid.len())));
        for _ in 0..ROUNDS {
            let (input, damage) = mutate(&mut rng, &valid);
            let verdict = check_message(&input);
            match damage {
                Damage::Flipped | Damage::Overwritten => {
                    assert!(verdict.is_err(), "{damage:?} frame accepted: {input:02x?}")
                }
                Damage::Truncated => assert!(
                    matches!(verdict, Err(WireError::Truncated { .. })),
                    "{input:02x?} gave {verdict:?}"
                ),
                Damage::Extended => assert_eq!(verdict, Ok((msg.clone(), valid.len()))),
                Damage::Random => {}
            }
            // Past the CRC, only the field checks stand between the
            // damaged bytes and the message they would decode to.
            let _ = check_message(&reseal(input));
        }
    }
}

/// Frames with a valid CRC whose header sets bytes the encoder never
/// writes. The decoder used to accept them as the message they would
/// encode to, so the decode did not round-trip.
#[test]
fn eci_frames_with_fields_the_encoder_never_writes_are_rejected() {
    // Found by the battery above: a ReadShared with reserved byte 23 set.
    let reserved = [
        0xec, 0x01, 0x00, 0x01, 0x01, 0x00, 0x00, 0x00, 0x47, 0x9d, 0x19, 0x78, 0x72, 0x92, 0x5b,
        0x00, 0x2a, 0x2b, 0xa0, 0x63, 0x00, 0x00, 0x00, 0x04, 0x09, 0x55, 0xd9, 0x8c,
    ];
    assert_eq!(
        decode_message(&reserved),
        Err(WireError::UnusedField { opcode: 0x01 })
    );
    let patched = |kind: MessageKind, at: usize, byte: u8| {
        let msg = Message::new(NodeId::Fpga, NodeId::Cpu, TxnId(7), kind);
        let mut frame = encode_message(&msg);
        frame[at] = byte;
        decode_message(&reseal(frame)).map(|_| ())
    };
    let line = CacheLine(0x40);
    let addr = Addr(0x1000);
    // A request on the response channel.
    assert_eq!(
        patched(MessageKind::ReadShared(line), 2, 2),
        Err(WireError::BadChannel {
            opcode: 0x01,
            vc: 2
        })
    );
    // An aux byte on a coherence message, I/O data that is not 8 bytes
    // wide, an IPI with an address.
    assert_eq!(
        patched(MessageKind::Ack(line), 20, 1),
        Err(WireError::UnusedField { opcode: 0x22 })
    );
    assert_eq!(
        patched(MessageKind::IoData { addr, data: 1 }, 20, 4),
        Err(WireError::UnusedField { opcode: 0x42 })
    );
    assert_eq!(
        patched(MessageKind::Ipi { vector: 3 }, 8, 1),
        Err(WireError::UnusedField { opcode: 0x50 })
    );
}

#[test]
fn eci_traces_survive_hostile_bytes() {
    let mut rng = SplitMix64::new(0x7ACE_6E04);
    let corpus = eci_corpus(&mut rng);
    let mut trace = TraceBuffer::new();
    for (i, msg) in corpus.iter().enumerate() {
        trace.capture(Time::ZERO + Duration::from_ns(i as u64), msg);
    }
    let valid = trace.wire_bytes();
    assert_eq!(decode_trace(valid).as_ref(), Ok(&corpus));
    for _ in 0..ROUNDS {
        let (input, damage) = mutate(&mut rng, valid);
        match decode_trace(&input) {
            Ok(msgs) => {
                // Every byte belongs to a frame that re-encodes to it.
                let again: Vec<u8> = msgs.iter().flat_map(encode_message).collect();
                assert_eq!(again, input);
                match damage {
                    // A cut on a frame boundary leaves a shorter trace.
                    Damage::Truncated => assert_eq!(msgs[..], corpus[..msgs.len()]),
                    Damage::Random => {}
                    _ => panic!("{damage:?} trace accepted: {input:02x?}"),
                }
            }
            Err((off, err)) => {
                // The error sits on a frame boundary: everything before
                // it decodes and re-encodes, and the frame at it fails
                // with the error reported.
                let before = decode_trace(&input[..off]).expect("prefix before the error decodes");
                let again: Vec<u8> = before.iter().flat_map(encode_message).collect();
                assert_eq!(again, &input[..off]);
                assert_eq!(decode_message(&input[off..]).map(|_| ()), Err(err));
                if damage == Damage::Extended {
                    assert_eq!(off, valid.len(), "valid frames rejected");
                }
            }
        }
    }
}
