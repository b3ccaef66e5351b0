//! The ECI on-wire serialization format.
//!
//! Paper §4.1: *"We then defined our own serialization format for the
//! messages on ECI's various virtual circuits. This not only allowed us to
//! store and analyze traces in a nice format, but also served as an
//! interoperability standard for various software tools."* This module is
//! that format: a compact framed binary encoding with a CRC, used by the
//! trace capture, the [`crate::decoder`], and any external tool.
//!
//! ## Frame layout
//!
//! ```text
//! offset  size  field
//! 0       1     magic (0xEC)
//! 1       1     version (1)
//! 2       1     virtual channel
//! 3       1     opcode
//! 4       1     source node (0 = CPU, 1 = FPGA)
//! 5       1     destination node
//! 6       2     payload length (LE)
//! 8       8     address / line index (LE)
//! 16      4     transaction id (LE)
//! 20      1     aux (I/O size or IPI vector)
//! 21      3     reserved, zero
//! 24      n     payload
//! 24+n    4     CRC-32 (IEEE) over bytes [0, 24+n) (LE)
//! ```

use enzian_mem::{Addr, CacheLine, NodeId};

use crate::message::{Message, MessageKind, Opcode, TxnId, HEADER_BYTES};

/// Frame magic byte.
pub const MAGIC: u8 = 0xEC;
/// Current format version.
pub const VERSION: u8 = 1;

/// Errors produced when decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than a minimal frame.
    Truncated {
        /// Bytes required to make progress.
        needed: usize,
        /// Bytes available.
        have: usize,
    },
    /// The magic byte did not match.
    BadMagic(u8),
    /// Unsupported format version.
    BadVersion(u8),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Unknown node id byte.
    BadNode(u8),
    /// Payload length inconsistent with the opcode.
    BadPayloadLength {
        /// Opcode whose payload was malformed.
        opcode: u8,
        /// Length found in the header.
        len: u16,
    },
    /// The CRC check failed.
    BadCrc {
        /// CRC computed over the received bytes.
        computed: u32,
        /// CRC found in the frame.
        found: u32,
    },
    /// The source and destination nodes are equal.
    SelfAddressed,
    /// An I/O access size was not 1, 2, 4 or 8.
    BadIoSize(u8),
    /// The virtual-channel byte is not the channel the opcode travels on.
    BadChannel {
        /// Opcode of the frame.
        opcode: u8,
        /// Channel byte found in the header.
        vc: u8,
    },
    /// A header field the opcode does not use holds a value the encoder
    /// never writes: a nonzero reserved byte, a nonzero aux byte (other
    /// than 8 for I/O data), or a nonzero address on an IPI.
    UnusedField {
        /// Opcode of the frame.
        opcode: u8,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated frame: need {needed} bytes, have {have}")
            }
            WireError::BadMagic(b) => write!(f, "bad magic byte {b:#04x}"),
            WireError::BadVersion(v) => write!(f, "unsupported version {v}"),
            WireError::BadOpcode(o) => write!(f, "unknown opcode {o:#04x}"),
            WireError::BadNode(n) => write!(f, "unknown node id {n}"),
            WireError::BadPayloadLength { opcode, len } => {
                write!(f, "opcode {opcode:#04x} with invalid payload length {len}")
            }
            WireError::BadCrc { computed, found } => {
                write!(
                    f,
                    "crc mismatch: computed {computed:#010x}, found {found:#010x}"
                )
            }
            WireError::SelfAddressed => write!(f, "source and destination nodes are equal"),
            WireError::BadIoSize(s) => write!(f, "invalid i/o access size {s}"),
            WireError::BadChannel { opcode, vc } => {
                write!(f, "opcode {opcode:#04x} sent on virtual channel {vc}")
            }
            WireError::UnusedField { opcode } => {
                write!(
                    f,
                    "opcode {opcode:#04x} sets a header field it does not use"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

fn node_byte(n: NodeId) -> u8 {
    match n {
        NodeId::Cpu => 0,
        NodeId::Fpga => 1,
    }
}

fn byte_node(b: u8) -> Result<NodeId, WireError> {
    match b {
        0 => Ok(NodeId::Cpu),
        1 => Ok(NodeId::Fpga),
        other => Err(WireError::BadNode(other)),
    }
}

/// Slicing-by-8 tables for the reflected IEEE polynomial `0xEDB88320`:
/// `t[0]` is the classic byte-at-a-time table, and `t[k][b]` is the CRC
/// of byte `b` followed by `k` zero bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE 802.3, reflected) of `data`, eight bytes per step, then
/// at most one four-byte step and three single bytes.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    let mut rest = words.remainder();
    if let [a, b, c, d, tail @ ..] = rest {
        let x = crc ^ u32::from_le_bytes([*a, *b, *c, *d]);
        crc = t[3][(x & 0xFF) as usize]
            ^ t[2][((x >> 8) & 0xFF) as usize]
            ^ t[1][((x >> 16) & 0xFF) as usize]
            ^ t[0][(x >> 24) as usize];
        rest = tail;
    }
    for &b in rest {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// The address and aux header fields of `kind`'s frame: the line index
/// or byte address (zero for an IPI), and the I/O access size or IPI
/// vector (zero where unused).
fn addr_and_aux(kind: &MessageKind) -> (u64, u8) {
    use MessageKind::*;
    match kind {
        IoRead { addr, size } | IoWrite { addr, size, .. } => (addr.0, *size),
        IoData { addr, .. } => (addr.0, 8),
        IoAck { addr } => (addr.0, 0),
        Ipi { vector } => (0, *vector),
        // Every other kind names a cache line.
        _ => (kind.line().map_or(0, |l| l.0), 0),
    }
}

/// Encodes a message into a framed byte buffer.
pub fn encode_message(msg: &Message) -> Vec<u8> {
    use MessageKind::*;

    let io;
    let payload: &[u8] = match &msg.kind {
        WriteLine(_, d)
        | DataShared(_, d)
        | DataExclusive(_, d)
        | ProbeAckData(_, d)
        | VictimDirty(_, d) => &d[..],
        // The payload is the low `size` bytes of `data`.
        IoWrite { size, data, .. } => {
            io = data.to_le_bytes();
            &io[..usize::from(*size)]
        }
        IoData { data, .. } => {
            io = data.to_le_bytes();
            &io[..]
        }
        _ => &[],
    };
    let (addr_field, aux) = addr_and_aux(&msg.kind);

    let mut buf = Vec::with_capacity(HEADER_BYTES as usize + payload.len() + 4);
    buf.push(MAGIC);
    buf.push(VERSION);
    buf.push(msg.virtual_channel() as u8);
    buf.push(msg.kind.opcode().wire_code());
    buf.push(node_byte(msg.src));
    buf.push(node_byte(msg.dst));
    buf.extend_from_slice(&(payload.len() as u16).to_le_bytes());
    buf.extend_from_slice(&addr_field.to_le_bytes());
    buf.extend_from_slice(&msg.txn.0.to_le_bytes());
    buf.push(aux);
    buf.extend_from_slice(&[0; 3]);
    debug_assert_eq!(buf.len() as u64, HEADER_BYTES);
    buf.extend_from_slice(payload);
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

fn take_line_payload(payload: &[u8], op: u8, len: u16) -> Result<Box<[u8; 128]>, WireError> {
    let arr: [u8; 128] = payload
        .try_into()
        .map_err(|_| WireError::BadPayloadLength { opcode: op, len })?;
    Ok(Box::new(arr))
}

/// Decodes one framed message from the front of `buf`, returning the
/// message and the number of bytes consumed.
///
/// # Errors
///
/// Returns a [`WireError`] describing the first malformation found; the
/// buffer is not consumed on error.
pub fn decode_message(buf: &[u8]) -> Result<(Message, usize), WireError> {
    let header = HEADER_BYTES as usize;
    if buf.len() < header + 4 {
        return Err(WireError::Truncated {
            needed: header + 4,
            have: buf.len(),
        });
    }
    let magic = buf[0];
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = buf[1];
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let vc = buf[2];
    let op = buf[3];
    let src = byte_node(buf[4])?;
    let dst = byte_node(buf[5])?;
    if src == dst {
        return Err(WireError::SelfAddressed);
    }
    let len = u16::from_le_bytes(buf[6..8].try_into().expect("2 bytes"));
    let addr_field = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
    let txn = TxnId(u32::from_le_bytes(buf[16..20].try_into().expect("4 bytes")));
    let aux = buf[20];

    let total = header + usize::from(len) + 4;
    if buf.len() < total {
        return Err(WireError::Truncated {
            needed: total,
            have: buf.len(),
        });
    }
    let payload = &buf[header..header + usize::from(len)];
    let found_crc = u32::from_le_bytes(
        buf[header + usize::from(len)..total]
            .try_into()
            .expect("4 bytes"),
    );
    let computed = crc32(&buf[..header + usize::from(len)]);
    if computed != found_crc {
        return Err(WireError::BadCrc {
            computed,
            found: found_crc,
        });
    }

    let addr = Addr(addr_field);
    let expect_len = |want: u16| -> Result<(), WireError> {
        if len == want {
            Ok(())
        } else {
            Err(WireError::BadPayloadLength { opcode: op, len })
        }
    };
    let io_size_ok = |s: u8| -> Result<(), WireError> {
        if matches!(s, 1 | 2 | 4 | 8) {
            Ok(())
        } else {
            Err(WireError::BadIoSize(s))
        }
    };

    let Some(opcode) = Opcode::from_wire(op) else {
        return Err(WireError::BadOpcode(op));
    };
    use MessageKind::*;
    let kind = match opcode {
        Opcode::IoRead => {
            expect_len(0)?;
            io_size_ok(aux)?;
            IoRead { addr, size: aux }
        }
        Opcode::IoWrite => {
            io_size_ok(aux)?;
            expect_len(u16::from(aux))?;
            let mut data = [0u8; 8];
            data[..payload.len()].copy_from_slice(payload);
            IoWrite {
                addr,
                size: aux,
                data: u64::from_le_bytes(data),
            }
        }
        Opcode::IoData => {
            expect_len(8)?;
            IoData {
                addr,
                data: u64::from_le_bytes(payload.try_into().expect("8 bytes")),
            }
        }
        Opcode::IoAck => {
            expect_len(0)?;
            IoAck { addr }
        }
        Opcode::Ipi => {
            expect_len(0)?;
            Ipi { vector: aux }
        }
        // Every other opcode names a cache line.
        line_op => {
            let data = if line_op.carries_line() {
                Some(take_line_payload(payload, op, len)?)
            } else {
                expect_len(0)?;
                None
            };
            MessageKind::with_line(line_op, CacheLine(addr_field), data)
        }
    };
    // Only the bytes the encoder would write are accepted, so a decoded
    // frame always re-encodes to exactly the bytes it was read from.
    if vc != kind.virtual_channel() as u8 {
        return Err(WireError::BadChannel { opcode: op, vc });
    }
    if (addr_field, aux) != addr_and_aux(&kind) || buf[21..header] != [0; 3] {
        return Err(WireError::UnusedField { opcode: op });
    }

    Ok((
        Message {
            src,
            dst,
            txn,
            kind,
        },
        total,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use enzian_mem::NodeId;

    fn sample_messages() -> Vec<Message> {
        let mut data = [0u8; 128];
        for (i, b) in data.iter_mut().enumerate() {
            *b = i as u8;
        }
        let d = Box::new(data);
        let line = CacheLine(0x1234_5678_9ABC);
        vec![
            Message::new(
                NodeId::Fpga,
                NodeId::Cpu,
                TxnId(1),
                MessageKind::ReadShared(line),
            ),
            Message::new(
                NodeId::Fpga,
                NodeId::Cpu,
                TxnId(2),
                MessageKind::ReadExclusive(line),
            ),
            Message::new(
                NodeId::Cpu,
                NodeId::Fpga,
                TxnId(3),
                MessageKind::Upgrade(line),
            ),
            Message::new(
                NodeId::Fpga,
                NodeId::Cpu,
                TxnId(4),
                MessageKind::ReadOnce(line),
            ),
            Message::new(
                NodeId::Fpga,
                NodeId::Cpu,
                TxnId(5),
                MessageKind::WriteLine(line, d.clone()),
            ),
            Message::new(
                NodeId::Cpu,
                NodeId::Fpga,
                TxnId(6),
                MessageKind::ProbeShared(line),
            ),
            Message::new(
                NodeId::Cpu,
                NodeId::Fpga,
                TxnId(7),
                MessageKind::ProbeInvalidate(line),
            ),
            Message::new(
                NodeId::Cpu,
                NodeId::Fpga,
                TxnId(8),
                MessageKind::DataShared(line, d.clone()),
            ),
            Message::new(
                NodeId::Cpu,
                NodeId::Fpga,
                TxnId(9),
                MessageKind::DataExclusive(line, d.clone()),
            ),
            Message::new(NodeId::Cpu, NodeId::Fpga, TxnId(10), MessageKind::Ack(line)),
            Message::new(
                NodeId::Fpga,
                NodeId::Cpu,
                TxnId(11),
                MessageKind::ProbeAckData(line, d.clone()),
            ),
            Message::new(
                NodeId::Fpga,
                NodeId::Cpu,
                TxnId(12),
                MessageKind::ProbeAck(line),
            ),
            Message::new(
                NodeId::Cpu,
                NodeId::Fpga,
                TxnId(13),
                MessageKind::VictimDirty(line, d),
            ),
            Message::new(
                NodeId::Cpu,
                NodeId::Fpga,
                TxnId(14),
                MessageKind::VictimClean(line),
            ),
            Message::new(
                NodeId::Cpu,
                NodeId::Fpga,
                TxnId(15),
                MessageKind::IoRead {
                    addr: Addr(0x100),
                    size: 4,
                },
            ),
            Message::new(
                NodeId::Cpu,
                NodeId::Fpga,
                TxnId(16),
                MessageKind::IoWrite {
                    addr: Addr(0x108),
                    size: 8,
                    data: 0xDEAD_BEEF_0BAD_F00D,
                },
            ),
            Message::new(
                NodeId::Fpga,
                NodeId::Cpu,
                TxnId(17),
                MessageKind::IoData {
                    addr: Addr(0x100),
                    data: 42,
                },
            ),
            Message::new(
                NodeId::Fpga,
                NodeId::Cpu,
                TxnId(18),
                MessageKind::IoAck { addr: Addr(0x108) },
            ),
            Message::new(
                NodeId::Cpu,
                NodeId::Fpga,
                TxnId(19),
                MessageKind::Ipi { vector: 5 },
            ),
        ]
    }

    #[test]
    fn every_kind_round_trips() {
        for msg in sample_messages() {
            let enc = encode_message(&msg);
            let (dec, used) = decode_message(&enc)
                .unwrap_or_else(|e| panic!("decode of {} failed: {e}", msg.kind.mnemonic()));
            assert_eq!(used, enc.len());
            assert_eq!(dec, msg);
        }
    }

    #[test]
    fn frames_concatenate_into_a_stream() {
        let msgs = sample_messages();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode_message(m));
        }
        let mut off = 0;
        let mut out = Vec::new();
        while off < stream.len() {
            let (m, used) = decode_message(&stream[off..]).expect("stream decode");
            out.push(m);
            off += used;
        }
        assert_eq!(out, msgs);
    }

    #[test]
    fn corruption_is_detected_by_crc() {
        let msg = &sample_messages()[0];
        let enc = encode_message(msg);
        // Flip one bit anywhere in the covered region.
        for bit in [0usize, 30, 8 * 10] {
            let mut bad = enc.to_vec();
            let byte = bit / 8;
            if byte >= bad.len() - 4 {
                continue;
            }
            bad[byte] ^= 1 << (bit % 8);
            let err = decode_message(&bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    WireError::BadCrc { .. }
                        | WireError::BadMagic(_)
                        | WireError::BadVersion(_)
                        | WireError::BadOpcode(_)
                ),
                "bit {bit}: unexpected {err}"
            );
        }
    }

    #[test]
    fn truncated_frames_report_needed_bytes() {
        let enc = encode_message(&sample_messages()[4]); // WriteLine, 128 B payload
        let err = decode_message(&enc[..10]).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }));
        let err = decode_message(&enc[..enc.len() - 1]).unwrap_err();
        match err {
            WireError::Truncated { needed, have } => {
                assert_eq!(needed, enc.len());
                assert_eq!(have, enc.len() - 1);
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn bad_io_size_rejected() {
        let msg = Message::new(
            NodeId::Cpu,
            NodeId::Fpga,
            TxnId(1),
            MessageKind::IoRead {
                addr: Addr(0),
                size: 4,
            },
        );
        let mut enc = encode_message(&msg).to_vec();
        enc[20] = 3; // aux = invalid size
                     // Re-seal the CRC so only the size check can fail.
        let n = enc.len();
        let crc = crc32(&enc[..n - 4]);
        enc[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode_message(&enc).unwrap_err(), WireError::BadIoSize(3));
    }

    #[test]
    fn crc32_known_vector() {
        // The standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The textbook bit-at-a-time CRC-32, with no tables.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// The table-driven CRC-32 one byte per step: the oracle for the
    /// sliced kernel.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let t = &CRC32_TABLES[0];
        !data.iter().fold(0xFFFF_FFFFu32, |crc, &b| {
            t[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8)
        })
    }

    #[test]
    fn sliced_crc32_matches_the_bytewise_oracle_at_every_length() {
        let mut rng = enzian_sim::SplitMix64::new(0xC7C3_2009);
        let random: Vec<u8> = (0..600).map(|_| rng.next() as u8).collect();
        let ones = [0xFFu8; 600];
        for data in [&random[..], &ones] {
            for len in 0..=data.len() {
                assert_eq!(
                    crc32(&data[..len]),
                    crc32_bytewise(&data[..len]),
                    "len {len}: {:02x?}",
                    &data[..len.min(8)]
                );
            }
        }
    }

    #[test]
    fn sliced_crc32_matches_the_bitwise_reference_at_every_length() {
        let mut rng = enzian_sim::SplitMix64::new(0xC7C3_2008);
        let data: Vec<u8> = (0..256).map(|_| rng.next() as u8).collect();
        for len in 0..=data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bitwise(&data[..len]),
                "len {len}"
            );
        }
        // Every alignment of the eight-byte steps, too.
        for start in 1..8 {
            assert_eq!(crc32(&data[start..]), crc32_bitwise(&data[start..]));
        }
    }

    #[test]
    fn header_size_constant_matches_layout() {
        let msg = &sample_messages()[0];
        let enc = encode_message(msg);
        // header + 0 payload + 4 CRC
        assert_eq!(enc.len() as u64, HEADER_BYTES + 4);
    }
}
