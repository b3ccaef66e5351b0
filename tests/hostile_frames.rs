//! Hostile bytes into the fabric decoders.
//!
//! Every frame a cluster board receives passes three decoders: the
//! bridge parser ([`BridgeFrame::parse`], which [`decode_bridge`]
//! wraps), then the service codec ([`decode_svc`]) or the traffic
//! segment codec ([`decode_segment`]) on the payload it borrows. This
//! battery starts from valid frames of every bridge opcode, every
//! service message kind and every segment flag, and feeds each decoder
//! deterministic SplitMix64-driven mutations of them: bit flips,
//! truncation, extension, overwritten bytes and wholly random buffers.
//!
//! Properties, on every input:
//! - no decoder panics;
//! - the owned and the borrowed bridge decoders agree, error for error;
//! - an accepted frame re-encodes to exactly the accepted bytes, both
//!   through [`encode_bridge`] and through the in-place writer
//!   [`write_bridge`];
//! - a frame corrupted within its extent (flipped or overwritten bytes,
//!   a cut) yields a typed error.

use enzian::apps::{
    decode_svc, encode_svc, encode_svc_into, KvOp, KvResult, RespErr, RespOk, SvcError, SvcPayload,
    SvcWireError,
};
use enzian::eci::bridge::BRIDGE_OVERHEAD_BYTES;
use enzian::eci::{
    decode_bridge, encode_bridge, write_bridge, BridgeError, BridgeFrame, BridgeMsg, BridgeOp,
};
use enzian::net::traffic::{
    decode_segment, encode_segment, encode_segment_into, flags, Segment, SegmentError,
};
use enzian::sim::SplitMix64;

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

/// A valid frame of every bridge opcode, the opaque planes carrying
/// real service messages and segments.
fn bridge_corpus(rng: &mut SplitMix64) -> Vec<BridgeMsg> {
    let svc = svc_corpus(rng);
    let ops = vec![
        BridgeOp::ReadReq,
        BridgeOp::ReadResp(line(rng)),
        BridgeOp::WriteReq(line(rng)),
        BridgeOp::WriteAck,
        BridgeOp::Nack,
        BridgeOp::SvcClient(encode_svc(&svc[0])),
        BridgeOp::SvcRep(encode_svc(&svc[1])),
        BridgeOp::SvcCtl(encode_svc(
            svc.iter()
                .find(|p| matches!(p, SvcPayload::Heartbeat { .. }))
                .unwrap(),
        )),
        BridgeOp::Tcp(encode_segment(&segment(rng))),
    ];
    ops.into_iter()
        .map(|op| BridgeMsg {
            src: rng.next() as u8,
            dst: rng.next() as u8,
            token: rng.next() as u8,
            addr: rng.next(),
            seq: rng.next() as u32,
            op,
        })
        .collect()
}

/// Decodes `input` through both bridge decoders and checks every
/// property; returns the borrowed view's verdict.
fn check_bridge(input: &[u8]) -> Result<BridgeFrame<'_>, BridgeError> {
    let owned = decode_bridge(input);
    let view = BridgeFrame::parse(input);
    match (&owned, &view) {
        (Ok(msg), Ok(frame)) => {
            assert_eq!(msg.header(), frame.header);
            assert_eq!(msg.op.payload(), frame.payload);
            let extent = BRIDGE_OVERHEAD_BYTES as usize + frame.payload.len();
            assert_eq!(encode_bridge(msg), &input[..extent]);
            let mut written = vec![0x5A];
            write_bridge(&mut written, &frame.header, |p| {
                p.extend_from_slice(frame.payload)
            });
            assert_eq!(&written[1..], &input[..extent]);
        }
        (Err(a), Err(b)) => assert_eq!(a, b),
        _ => panic!("owned {owned:?} and borrowed {view:?} decoders disagree"),
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
fn bridge_frames_survive_hostile_bytes_and_both_decoders_agree() {
    let mut rng = SplitMix64::new(0xB41D_6E00);
    let corpus = bridge_corpus(&mut rng);
    let mut rejected = 0u64;
    for msg in &corpus {
        let valid = encode_bridge(msg);
        // Valid frames decode, and the in-place writer lays down the
        // same bytes as the owned encoder.
        let frame = check_bridge(&valid).expect("valid frame decodes");
        assert_eq!(decode_bridge(&valid).as_ref(), Ok(msg));
        let mut written = Vec::new();
        write_bridge(&mut written, &msg.header(), |p| {
            p.extend_from_slice(msg.op.payload())
        });
        assert_eq!(written, valid);
        match &msg.op {
            BridgeOp::SvcClient(_) | BridgeOp::SvcRep(_) | BridgeOp::SvcCtl(_) => {
                check_svc(frame.payload).expect("valid service payload");
            }
            BridgeOp::Tcp(_) => {
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
                        "{damage:?} frame accepted: {input:02x?} (from {msg:?})"
                    );
                    rejected += 1;
                }
                Damage::Extended => {
                    let frame = verdict.expect("trailing bytes are not the frame's");
                    assert_eq!(frame.header, msg.header());
                }
                Damage::Random => {}
            }
            // What the boards do next with an accepted opaque payload.
            if let Ok(frame) = verdict {
                let _ = check_svc(frame.payload);
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
