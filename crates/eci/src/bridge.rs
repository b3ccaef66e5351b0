//! The coherence-bridge wire format.
//!
//! When a board's FPGA forwards a line request for a remote slice of the
//! cluster's global address space, the request crosses the inter-board
//! fabric as a *bridge message*: a fixed 20-byte header, an optional
//! 128-byte line payload, and a trailing CRC-32 — 24 bytes of framing
//! overhead in total, which is exactly the `BRIDGE_HEADER` the cluster's
//! byte accounting charges per forwarded message.
//!
//! The format deliberately mirrors the ECI wire format in [`crate::wire`]
//! (little-endian fields, magic/version prefix, CRC-32 IEEE trailer) so
//! the same capture tooling conventions apply, but it is its own
//! namespace: bridge traffic is *not* ECI protocol traffic — it is the
//! cluster-level RPC the paper's §6 "bridge" carries over the 100G
//! fabric.
//!
//! Layout (offsets in bytes):
//!
//! ```text
//!  0  magic      0xEB
//!  1  version    1
//!  2  opcode     ReadReq=1 ReadResp=2 WriteReq=3 WriteAck=4 Nack=5
//!                SvcClient=6 SvcRep=7 SvcCtl=8 Tcp=9
//!  3  src        requesting/answering board
//!  4  dst        destination board
//!  5  token      requester-chosen tag echoed in the reply (stream id)
//!  6  paylen     u16 LE, 0 or 128 (line ops); free-form (Svc* ops)
//!  8  addr       u64 LE, *global* cluster address of the line
//! 16  seq        u32 LE, per-sender message sequence number
//! 20  payload    paylen bytes
//! ..  crc        u32 LE, CRC-32 (IEEE) over header+payload
//! ```
//!
//! Opcodes 6–8 carry the replicated KV *service* of
//! `enzian-apps::service` over the same fabric: the payload is an
//! opaque service message (encoded by the apps crate — the bridge does
//! not interpret it) of any length up to 64 KiB, and `addr` is unused
//! (zero by convention). The three opcodes separate client traffic
//! (`SvcClient`: requests/responses), the replication stream (`SvcRep`:
//! replicate/ack/nack/catch-up), and control-plane beacons (`SvcCtl`:
//! heartbeats) so captures and byte accounting can tell the planes
//! apart.
//!
//! Opcode 9 (`Tcp`) carries the traffic-plane TCP segments of
//! `enzian-net::traffic` between boards: the payload is one encoded
//! segment (header + synthetic payload length — the bridge does not
//! interpret it) and `addr` is unused, like the `Svc*` opcodes.
//!
//! # One writer, one parser
//!
//! [`write_bridge`] is the only encoder. It appends the header to the
//! caller's buffer, lets the caller encode the payload straight after
//! it, then patches `paylen` and appends the CRC. A fabric board sizes
//! one `Vec` per frame and hands it to the writer, so a cross-board
//! message costs one allocation: the frame itself. [`BridgeFrame::parse`]
//! is the only parser. It makes every check (truncation, magic,
//! version, CRC, opcode against payload length) and returns the header
//! plus a payload borrowed from the received bytes, so the receiver
//! decodes the service message or TCP segment in place.
//! [`encode_bridge`] and [`decode_bridge`] are thin owned wrappers over
//! the two, for tests and capture tooling.

use crate::wire::crc32;

/// Framing overhead of one bridge message on the fabric: the 20-byte
/// header plus the 4-byte CRC trailer.
pub const BRIDGE_OVERHEAD_BYTES: u64 = 24;

/// Magic byte opening every bridge frame (`0xEC` is ECI's).
pub const BRIDGE_MAGIC: u8 = 0xEB;

/// Format version encoded in every frame.
pub const BRIDGE_VERSION: u8 = 1;

const HEADER: usize = 20;

/// The opcode byte of a bridge frame: which operation, and so which
/// plane, the frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BridgeOpcode {
    /// [`BridgeOp::ReadReq`].
    ReadReq = 1,
    /// [`BridgeOp::ReadResp`].
    ReadResp = 2,
    /// [`BridgeOp::WriteReq`].
    WriteReq = 3,
    /// [`BridgeOp::WriteAck`].
    WriteAck = 4,
    /// [`BridgeOp::Nack`].
    Nack = 5,
    /// [`BridgeOp::SvcClient`].
    SvcClient = 6,
    /// [`BridgeOp::SvcRep`].
    SvcRep = 7,
    /// [`BridgeOp::SvcCtl`].
    SvcCtl = 8,
    /// [`BridgeOp::Tcp`].
    Tcp = 9,
}

impl BridgeOpcode {
    fn from_byte(b: u8) -> Option<Self> {
        use BridgeOpcode::*;
        Some(match b {
            1 => ReadReq,
            2 => ReadResp,
            3 => WriteReq,
            4 => WriteAck,
            5 => Nack,
            6 => SvcClient,
            7 => SvcRep,
            8 => SvcCtl,
            9 => Tcp,
            _ => return None,
        })
    }

    /// Whether a frame with this opcode may carry `len` payload bytes:
    /// none for the line requests and acks, a whole line for
    /// [`BridgeOpcode::ReadResp`]/[`BridgeOpcode::WriteReq`], and any
    /// length for the opaque planes.
    fn fits(self, len: usize) -> bool {
        use BridgeOpcode::*;
        match self {
            ReadReq | WriteAck | Nack => len == 0,
            ReadResp | WriteReq => len == 128,
            SvcClient | SvcRep | SvcCtl | Tcp => true,
        }
    }
}

/// Operation carried by a bridge message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BridgeOp {
    /// Read one line of the owner's slice.
    ReadReq,
    /// The line data coming back.
    ReadResp(Box<[u8; 128]>),
    /// Write one line into the owner's slice.
    WriteReq(Box<[u8; 128]>),
    /// The owner committed the write.
    WriteAck,
    /// The owner could not serve the request (e.g. its transaction
    /// layer exhausted the retry budget under fault injection).
    Nack,
    /// KV-service client-plane message (request or response); the
    /// payload is an opaque `enzian-apps` service payload.
    SvcClient(Vec<u8>),
    /// KV-service replication-plane message (replicate, ack, nack,
    /// catch-up); opaque payload as above.
    SvcRep(Vec<u8>),
    /// KV-service control-plane message (heartbeats); opaque payload.
    SvcCtl(Vec<u8>),
    /// Traffic-plane TCP segment (`enzian-net::traffic` wire format);
    /// opaque payload as above.
    Tcp(Vec<u8>),
}

impl BridgeOp {
    /// The opcode this operation travels under.
    pub fn opcode(&self) -> BridgeOpcode {
        match self {
            BridgeOp::ReadReq => BridgeOpcode::ReadReq,
            BridgeOp::ReadResp(_) => BridgeOpcode::ReadResp,
            BridgeOp::WriteReq(_) => BridgeOpcode::WriteReq,
            BridgeOp::WriteAck => BridgeOpcode::WriteAck,
            BridgeOp::Nack => BridgeOpcode::Nack,
            BridgeOp::SvcClient(_) => BridgeOpcode::SvcClient,
            BridgeOp::SvcRep(_) => BridgeOpcode::SvcRep,
            BridgeOp::SvcCtl(_) => BridgeOpcode::SvcCtl,
            BridgeOp::Tcp(_) => BridgeOpcode::Tcp,
        }
    }

    /// The payload bytes this operation carries on the wire.
    pub fn payload(&self) -> &[u8] {
        match self {
            BridgeOp::ReadResp(d) | BridgeOp::WriteReq(d) => &d[..],
            BridgeOp::SvcClient(p)
            | BridgeOp::SvcRep(p)
            | BridgeOp::SvcCtl(p)
            | BridgeOp::Tcp(p) => p,
            _ => &[],
        }
    }
}

/// One bridge message, ready to encode or freshly decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BridgeMsg {
    /// Board that sent the message.
    pub src: u8,
    /// Board it is addressed to.
    pub dst: u8,
    /// Requester-chosen tag (the issuing stream); replies echo it.
    pub token: u8,
    /// Global cluster address of the line concerned.
    pub addr: u64,
    /// Per-sender sequence number.
    pub seq: u32,
    /// The operation.
    pub op: BridgeOp,
}

impl BridgeMsg {
    /// The message's header fields.
    pub fn header(&self) -> BridgeHeader {
        BridgeHeader {
            opcode: self.op.opcode(),
            src: self.src,
            dst: self.dst,
            token: self.token,
            addr: self.addr,
            seq: self.seq,
        }
    }
}

/// Every header field of a bridge frame except the payload length,
/// which [`write_bridge`] fills in from the payload it wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BridgeHeader {
    /// The operation (and plane) the frame carries.
    pub opcode: BridgeOpcode,
    /// Board that sent the frame.
    pub src: u8,
    /// Board it is addressed to.
    pub dst: u8,
    /// Requester-chosen tag (the issuing stream); replies echo it.
    pub token: u8,
    /// Global cluster address of the line concerned (zero for the
    /// opaque planes).
    pub addr: u64,
    /// Per-sender sequence number.
    pub seq: u32,
}

/// A bridge frame parsed in place: its header and a payload borrowed
/// from the received bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BridgeFrame<'a> {
    /// The header fields.
    pub header: BridgeHeader,
    /// The payload: empty for [`BridgeOpcode::ReadReq`],
    /// [`BridgeOpcode::WriteAck`] and [`BridgeOpcode::Nack`], one line
    /// for the line ops (see [`BridgeFrame::line`]), and the opaque
    /// service or segment bytes for the other planes.
    pub payload: &'a [u8],
}

/// Decoding failures. Mirrors the spirit of [`crate::wire::WireError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BridgeError {
    /// Fewer bytes than a complete frame.
    Truncated {
        /// Bytes required for the frame (or header, when unknown).
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// First byte was not [`BRIDGE_MAGIC`].
    BadMagic(u8),
    /// Unknown format version.
    BadVersion(u8),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Payload length inconsistent with the opcode.
    BadPayloadLength {
        /// The frame's opcode byte.
        opcode: u8,
        /// The offending length.
        len: u16,
    },
    /// CRC mismatch.
    BadCrc {
        /// CRC expected from the frame contents.
        expected: u32,
        /// CRC found in the trailer.
        found: u32,
    },
}

impl std::fmt::Display for BridgeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BridgeError::Truncated { needed, got } => {
                write!(f, "truncated bridge frame: need {needed} bytes, got {got}")
            }
            BridgeError::BadMagic(b) => write!(f, "bad bridge magic {b:#04x}"),
            BridgeError::BadVersion(v) => write!(f, "unsupported bridge version {v}"),
            BridgeError::BadOpcode(o) => write!(f, "unknown bridge opcode {o}"),
            BridgeError::BadPayloadLength { opcode, len } => {
                write!(f, "opcode {opcode} cannot carry a {len}-byte payload")
            }
            BridgeError::BadCrc { expected, found } => {
                write!(
                    f,
                    "bridge CRC mismatch: expected {expected:#010x}, found {found:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for BridgeError {}

/// Appends one bridge frame to `buf`: writes the header, lets
/// `payload` append the payload bytes in place, then patches the
/// length field and appends the CRC. Returns the payload length.
///
/// This is the one bridge encoder; [`encode_bridge`] wraps it.
///
/// # Panics
///
/// Panics if the payload exceeds the 16-bit length field or does not
/// fit the opcode (none for requests and acks, 128 bytes for the line
/// ops).
pub fn write_bridge(
    buf: &mut Vec<u8>,
    header: &BridgeHeader,
    payload: impl FnOnce(&mut Vec<u8>),
) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&[
        BRIDGE_MAGIC,
        BRIDGE_VERSION,
        header.opcode as u8,
        header.src,
        header.dst,
        header.token,
        0, // paylen, patched below
        0,
    ]);
    buf.extend_from_slice(&header.addr.to_le_bytes());
    buf.extend_from_slice(&header.seq.to_le_bytes());
    payload(buf);
    let len = buf.len() - start - HEADER;
    assert!(
        len <= usize::from(u16::MAX),
        "bridge payload exceeds the 16-bit length field"
    );
    assert!(
        header.opcode.fits(len),
        "{:?} cannot carry a {len}-byte payload",
        header.opcode
    );
    buf[start + 6..start + 8].copy_from_slice(&(len as u16).to_le_bytes());
    let crc = crc32(&buf[start..]);
    buf.extend_from_slice(&crc.to_le_bytes());
    len
}

/// Encodes `msg` into a framed byte buffer of its own.
///
/// # Panics
///
/// Panics if a `Svc*` or `Tcp` payload exceeds the 16-bit length field.
pub fn encode_bridge(msg: &BridgeMsg) -> Vec<u8> {
    let payload = msg.op.payload();
    let mut buf = Vec::with_capacity(HEADER + payload.len() + 4);
    write_bridge(&mut buf, &msg.header(), |p| p.extend_from_slice(payload));
    buf
}

impl<'a> BridgeFrame<'a> {
    /// Parses the bridge frame at the start of `buf` without copying
    /// it. Bytes past the frame's end are ignored.
    ///
    /// This is the one bridge parser; [`decode_bridge`] wraps it.
    ///
    /// # Errors
    ///
    /// Returns a [`BridgeError`] describing the first inconsistency
    /// found, checking in this order: truncation, magic, version, the
    /// CRC, then the opcode and its payload length.
    pub fn parse(buf: &'a [u8]) -> Result<Self, BridgeError> {
        if buf.len() < HEADER + 4 {
            return Err(BridgeError::Truncated {
                needed: HEADER + 4,
                got: buf.len(),
            });
        }
        if buf[0] != BRIDGE_MAGIC {
            return Err(BridgeError::BadMagic(buf[0]));
        }
        if buf[1] != BRIDGE_VERSION {
            return Err(BridgeError::BadVersion(buf[1]));
        }
        let paylen = u16::from_le_bytes([buf[6], buf[7]]);
        let end = HEADER + usize::from(paylen);
        if buf.len() < end + 4 {
            return Err(BridgeError::Truncated {
                needed: end + 4,
                got: buf.len(),
            });
        }
        let expected = crc32(&buf[..end]);
        let found = u32::from_le_bytes(buf[end..end + 4].try_into().unwrap());
        if expected != found {
            return Err(BridgeError::BadCrc { expected, found });
        }
        let opcode = BridgeOpcode::from_byte(buf[2]).ok_or(BridgeError::BadOpcode(buf[2]))?;
        if !opcode.fits(usize::from(paylen)) {
            return Err(BridgeError::BadPayloadLength {
                opcode: buf[2],
                len: paylen,
            });
        }
        Ok(BridgeFrame {
            header: BridgeHeader {
                opcode,
                src: buf[3],
                dst: buf[4],
                token: buf[5],
                addr: u64::from_le_bytes(buf[8..16].try_into().unwrap()),
                seq: u32::from_le_bytes(buf[16..20].try_into().unwrap()),
            },
            payload: &buf[HEADER..end],
        })
    }

    /// The line a [`BridgeOpcode::ReadResp`] or
    /// [`BridgeOpcode::WriteReq`] frame carries; `None` for every other
    /// opcode.
    pub fn line(&self) -> Option<&'a [u8; 128]> {
        match self.header.opcode {
            BridgeOpcode::ReadResp | BridgeOpcode::WriteReq => Some(
                self.payload
                    .try_into()
                    .expect("parse checked the line length"),
            ),
            _ => None,
        }
    }
}

/// Decodes one complete bridge frame into an owned [`BridgeMsg`].
///
/// # Errors
///
/// Returns the [`BridgeError`] [`BridgeFrame::parse`] reports.
pub fn decode_bridge(buf: &[u8]) -> Result<BridgeMsg, BridgeError> {
    let frame = BridgeFrame::parse(buf)?;
    let h = frame.header;
    let line = || Box::new(*frame.line().expect("a line op"));
    let opaque = || frame.payload.to_vec();
    let op = match h.opcode {
        BridgeOpcode::ReadReq => BridgeOp::ReadReq,
        BridgeOpcode::ReadResp => BridgeOp::ReadResp(line()),
        BridgeOpcode::WriteReq => BridgeOp::WriteReq(line()),
        BridgeOpcode::WriteAck => BridgeOp::WriteAck,
        BridgeOpcode::Nack => BridgeOp::Nack,
        BridgeOpcode::SvcClient => BridgeOp::SvcClient(opaque()),
        BridgeOpcode::SvcRep => BridgeOp::SvcRep(opaque()),
        BridgeOpcode::SvcCtl => BridgeOp::SvcCtl(opaque()),
        BridgeOpcode::Tcp => BridgeOp::Tcp(opaque()),
    };
    Ok(BridgeMsg {
        src: h.src,
        dst: h.dst,
        token: h.token,
        addr: h.addr,
        seq: h.seq,
        op,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_line(fill: u8) -> Box<[u8; 128]> {
        let mut d = [0u8; 128];
        for (i, b) in d.iter_mut().enumerate() {
            *b = fill.wrapping_add(i as u8);
        }
        Box::new(d)
    }

    fn corpus() -> Vec<BridgeMsg> {
        vec![
            BridgeMsg {
                src: 0,
                dst: 3,
                token: 7,
                addr: 0x1234_5678_9ABC,
                seq: 1,
                op: BridgeOp::ReadReq,
            },
            BridgeMsg {
                src: 3,
                dst: 0,
                token: 7,
                addr: 0x1234_5678_9ABC,
                seq: 9,
                op: BridgeOp::ReadResp(sample_line(0xA0)),
            },
            BridgeMsg {
                src: 1,
                dst: 2,
                token: 0,
                addr: 128,
                seq: u32::MAX,
                op: BridgeOp::WriteReq(sample_line(0x55)),
            },
            BridgeMsg {
                src: 2,
                dst: 1,
                token: 0,
                addr: 128,
                seq: 0,
                op: BridgeOp::WriteAck,
            },
            BridgeMsg {
                src: 5,
                dst: 6,
                token: 255,
                addr: u64::MAX,
                seq: 42,
                op: BridgeOp::Nack,
            },
            BridgeMsg {
                src: 1,
                dst: 4,
                token: 9,
                addr: 0,
                seq: 7,
                op: BridgeOp::SvcClient(b"get key 5".to_vec()),
            },
            BridgeMsg {
                src: 4,
                dst: 5,
                token: 0,
                addr: 0,
                seq: 8,
                op: BridgeOp::SvcRep(vec![0xAB; 300]),
            },
            BridgeMsg {
                src: 4,
                dst: 5,
                token: 0,
                addr: 0,
                seq: 9,
                op: BridgeOp::SvcCtl(Vec::new()),
            },
            BridgeMsg {
                src: 0,
                dst: 2,
                token: 0,
                addr: 0,
                seq: 10,
                op: BridgeOp::Tcp(vec![0xE7; 28]),
            },
        ]
    }

    #[test]
    fn round_trips_every_opcode() {
        for msg in corpus() {
            let bytes = encode_bridge(&msg);
            let back = decode_bridge(&bytes).unwrap();
            assert_eq!(back, msg);
            assert_eq!(bytes, encode_bridge(&back), "re-encode is byte-identical");
        }
    }

    /// The encoder as it was before the in-place writer: every field
    /// pushed in turn, the payload copied, the CRC appended.
    fn reference_encode(msg: &BridgeMsg) -> Vec<u8> {
        let payload = msg.op.payload();
        let mut buf = vec![
            BRIDGE_MAGIC,
            BRIDGE_VERSION,
            msg.op.opcode() as u8,
            msg.src,
            msg.dst,
            msg.token,
        ];
        buf.extend_from_slice(&(payload.len() as u16).to_le_bytes());
        buf.extend_from_slice(&msg.addr.to_le_bytes());
        buf.extend_from_slice(&msg.seq.to_le_bytes());
        buf.extend_from_slice(payload);
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    #[test]
    fn in_place_writer_reproduces_the_reference_encoding_for_every_opcode() {
        // Frames appended back to back after unrelated bytes, as a
        // capture stream would hold them.
        let mut stream = vec![0xAA; 3];
        let mut expected = stream.clone();
        for msg in corpus() {
            let payload = msg.op.payload();
            let len = write_bridge(&mut stream, &msg.header(), |p| p.extend_from_slice(payload));
            assert_eq!(len, payload.len());
            assert_eq!(encode_bridge(&msg), reference_encode(&msg), "{msg:?}");
            expected.extend(reference_encode(&msg));
        }
        assert_eq!(stream, expected);
    }

    #[test]
    fn borrowed_view_exposes_header_and_payload_in_place() {
        for msg in corpus() {
            let bytes = encode_bridge(&msg);
            let frame = BridgeFrame::parse(&bytes).unwrap();
            assert_eq!(frame.header, msg.header());
            assert_eq!(frame.payload, msg.op.payload());
            assert!(std::ptr::eq(frame.payload.as_ptr(), bytes[20..].as_ptr()));
            match &msg.op {
                BridgeOp::ReadResp(d) | BridgeOp::WriteReq(d) => {
                    assert_eq!(frame.line(), Some(&**d));
                }
                _ => assert_eq!(frame.line(), None),
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot carry")]
    fn writer_rejects_a_payload_the_opcode_cannot_carry() {
        write_bridge(&mut Vec::new(), &corpus()[0].header(), |p| p.push(1));
    }

    #[test]
    fn overhead_is_exactly_the_bridge_header() {
        let req = &corpus()[0];
        assert_eq!(encode_bridge(req).len() as u64, BRIDGE_OVERHEAD_BYTES);
        let resp = &corpus()[1];
        assert_eq!(
            encode_bridge(resp).len() as u64,
            BRIDGE_OVERHEAD_BYTES + 128
        );
    }

    #[test]
    fn bit_flips_are_rejected() {
        let bytes = encode_bridge(&corpus()[1]);
        for byte in 0..bytes.len() {
            let mut dam = bytes.clone();
            dam[byte] ^= 0x01;
            assert!(
                decode_bridge(&dam).is_err(),
                "flip at byte {byte} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_reported() {
        let bytes = encode_bridge(&corpus()[2]);
        for cut in 0..bytes.len() {
            let err = decode_bridge(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, BridgeError::Truncated { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn payload_length_must_match_opcode() {
        // A ReadReq claiming a 128-byte payload is structurally invalid.
        // Build the hostile frame by hand with a valid CRC so the length
        // check is what fires.
        let mut bytes = encode_bridge(&corpus()[0]);
        bytes.truncate(20); // drop the CRC trailer
        bytes[6] = 128; // paylen LE low byte
        bytes.extend_from_slice(&[0u8; 128]);
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let err = decode_bridge(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                BridgeError::BadPayloadLength {
                    opcode: 1,
                    len: 128
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn service_frames_carry_opaque_variable_payloads() {
        for len in [0usize, 1, 23, 128, 300, 1024] {
            let msg = BridgeMsg {
                src: 2,
                dst: 7,
                token: 3,
                addr: 0,
                seq: 11,
                op: BridgeOp::SvcRep(vec![0x5A; len]),
            };
            let bytes = encode_bridge(&msg);
            assert_eq!(bytes.len() as u64, BRIDGE_OVERHEAD_BYTES + len as u64);
            assert_eq!(decode_bridge(&bytes).unwrap(), msg);
        }
        // The opaque-payload planes stay distinct on the wire.
        let planes = [
            BridgeOp::SvcClient(vec![1]),
            BridgeOp::SvcRep(vec![1]),
            BridgeOp::SvcCtl(vec![1]),
            BridgeOp::Tcp(vec![1]),
        ];
        let mut encodings: Vec<Vec<u8>> = Vec::new();
        for op in planes {
            let bytes = encode_bridge(&BridgeMsg {
                src: 0,
                dst: 1,
                token: 0,
                addr: 0,
                seq: 0,
                op,
            });
            assert!(!encodings.contains(&bytes));
            encodings.push(bytes);
        }
    }

    #[test]
    fn errors_render_and_are_std_errors() {
        let err: Box<dyn std::error::Error> = Box::new(BridgeError::BadMagic(0xFF));
        assert!(err.to_string().contains("magic"));
    }
}
