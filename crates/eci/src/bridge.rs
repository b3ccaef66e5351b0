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
//! it, then patches `paylen` and appends the CRC, so a sender can reuse
//! one buffer for every frame it writes. [`BridgeFrame::parse`] is the
//! only parser. It makes every check (truncation, magic, version, CRC,
//! opcode against payload length) and returns the header plus a payload
//! borrowed from the received bytes, so the receiver decodes the
//! service message or TCP segment in place.

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
    /// Read one line of the owner's slice.
    ReadReq = 1,
    /// The line data coming back.
    ReadResp = 2,
    /// Write one line into the owner's slice.
    WriteReq = 3,
    /// The owner committed the write.
    WriteAck = 4,
    /// The owner could not serve the request (e.g. its transaction
    /// layer exhausted the retry budget under fault injection).
    Nack = 5,
    /// KV-service client-plane message (request or response); the
    /// payload is an opaque `enzian-apps` service payload.
    SvcClient = 6,
    /// KV-service replication-plane message (replicate, ack, nack,
    /// catch-up); opaque payload as above.
    SvcRep = 7,
    /// KV-service control-plane message (heartbeats); opaque payload.
    SvcCtl = 8,
    /// Traffic-plane TCP segment (`enzian-net::traffic` wire format);
    /// opaque payload as above.
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

impl<'a> BridgeFrame<'a> {
    /// Parses the bridge frame at the start of `buf` without copying
    /// it. Bytes past the frame's end are ignored.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_line(fill: u8) -> Vec<u8> {
        (0..128u8).map(|i| fill.wrapping_add(i)).collect()
    }

    fn header(
        opcode: BridgeOpcode,
        src: u8,
        dst: u8,
        token: u8,
        addr: u64,
        seq: u32,
    ) -> BridgeHeader {
        BridgeHeader {
            opcode,
            src,
            dst,
            token,
            addr,
            seq,
        }
    }

    /// One frame of every opcode, as `(header, payload)`.
    fn corpus() -> Vec<(BridgeHeader, Vec<u8>)> {
        use BridgeOpcode::*;
        vec![
            (header(ReadReq, 0, 3, 7, 0x1234_5678_9ABC, 1), Vec::new()),
            (
                header(ReadResp, 3, 0, 7, 0x1234_5678_9ABC, 9),
                sample_line(0xA0),
            ),
            (header(WriteReq, 1, 2, 0, 128, u32::MAX), sample_line(0x55)),
            (header(WriteAck, 2, 1, 0, 128, 0), Vec::new()),
            (header(Nack, 5, 6, 255, u64::MAX, 42), Vec::new()),
            (header(SvcClient, 1, 4, 9, 0, 7), b"get key 5".to_vec()),
            (header(SvcRep, 4, 5, 0, 0, 8), vec![0xAB; 300]),
            (header(SvcCtl, 4, 5, 0, 0, 9), Vec::new()),
            (header(Tcp, 0, 2, 0, 0, 10), vec![0xE7; 28]),
        ]
    }

    fn encode(h: &BridgeHeader, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_bridge(&mut buf, h, |p| p.extend_from_slice(payload));
        buf
    }

    #[test]
    fn round_trips_every_opcode() {
        for (h, payload) in corpus() {
            let bytes = encode(&h, &payload);
            let frame = BridgeFrame::parse(&bytes).unwrap();
            assert_eq!((frame.header, frame.payload), (h, &payload[..]));
            assert_eq!(
                bytes,
                encode(&frame.header, frame.payload),
                "re-encode is byte-identical"
            );
        }
    }

    /// The encoder as it was before the in-place writer: every field
    /// pushed in turn, the payload copied, the CRC appended.
    fn reference_encode(h: &BridgeHeader, payload: &[u8]) -> Vec<u8> {
        let mut buf = vec![
            BRIDGE_MAGIC,
            BRIDGE_VERSION,
            h.opcode as u8,
            h.src,
            h.dst,
            h.token,
        ];
        buf.extend_from_slice(&(payload.len() as u16).to_le_bytes());
        buf.extend_from_slice(&h.addr.to_le_bytes());
        buf.extend_from_slice(&h.seq.to_le_bytes());
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
        for (h, payload) in corpus() {
            let len = write_bridge(&mut stream, &h, |p| p.extend_from_slice(&payload));
            assert_eq!(len, payload.len());
            expected.extend(reference_encode(&h, &payload));
        }
        assert_eq!(stream, expected);
    }

    #[test]
    fn borrowed_view_exposes_header_and_payload_in_place() {
        for (h, payload) in corpus() {
            let bytes = encode(&h, &payload);
            let frame = BridgeFrame::parse(&bytes).unwrap();
            assert!(std::ptr::eq(frame.payload.as_ptr(), bytes[20..].as_ptr()));
            match h.opcode {
                BridgeOpcode::ReadResp | BridgeOpcode::WriteReq => {
                    assert_eq!(frame.line().map(|l| &l[..]), Some(&payload[..]));
                }
                _ => assert_eq!(frame.line(), None),
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot carry")]
    fn writer_rejects_a_payload_the_opcode_cannot_carry() {
        write_bridge(&mut Vec::new(), &corpus()[0].0, |p| p.push(1));
    }

    #[test]
    fn overhead_is_exactly_the_bridge_header() {
        let (req, _) = &corpus()[0];
        assert_eq!(encode(req, &[]).len() as u64, BRIDGE_OVERHEAD_BYTES);
        let (resp, line) = &corpus()[1];
        assert_eq!(encode(resp, line).len() as u64, BRIDGE_OVERHEAD_BYTES + 128);
    }

    #[test]
    fn bit_flips_are_rejected() {
        let (h, line) = &corpus()[1];
        let bytes = encode(h, line);
        for byte in 0..bytes.len() {
            let mut dam = bytes.clone();
            dam[byte] ^= 0x01;
            assert!(
                BridgeFrame::parse(&dam).is_err(),
                "flip at byte {byte} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_reported() {
        let (h, line) = &corpus()[2];
        let bytes = encode(h, line);
        for cut in 0..bytes.len() {
            let err = BridgeFrame::parse(&bytes[..cut]).unwrap_err();
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
        let mut bytes = encode(&corpus()[0].0, &[]);
        bytes.truncate(20); // drop the CRC trailer
        bytes[6] = 128; // paylen LE low byte
        bytes.extend_from_slice(&[0u8; 128]);
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let err = BridgeFrame::parse(&bytes).unwrap_err();
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
        let h = header(BridgeOpcode::SvcRep, 2, 7, 3, 0, 11);
        for len in [0usize, 1, 23, 128, 300, 1024] {
            let payload = vec![0x5A; len];
            let bytes = encode(&h, &payload);
            assert_eq!(bytes.len() as u64, BRIDGE_OVERHEAD_BYTES + len as u64);
            let frame = BridgeFrame::parse(&bytes).unwrap();
            assert_eq!((frame.header, frame.payload), (h, &payload[..]));
        }
        // The opaque-payload planes stay distinct on the wire.
        let mut encodings: Vec<Vec<u8>> = Vec::new();
        for opcode in [
            BridgeOpcode::SvcClient,
            BridgeOpcode::SvcRep,
            BridgeOpcode::SvcCtl,
            BridgeOpcode::Tcp,
        ] {
            let bytes = encode(&header(opcode, 0, 1, 0, 0, 0), &[1]);
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
