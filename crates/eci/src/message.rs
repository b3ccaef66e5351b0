//! The ECI message set.
//!
//! ECI carries several classes of traffic on separate virtual channels
//! (VCs) to avoid protocol deadlock: coherent requests, forwarded probes,
//! responses (with and without data), write-backs, uncached I/O, and
//! inter-processor interrupts. A [`Message`] is the transaction-level unit
//! the rest of the crate schedules, serializes and checks.

use core::fmt;

use enzian_mem::{Addr, CacheLine, NodeId, CACHE_LINE_BYTES};

use crate::link::VirtualChannel;

/// A transaction identifier, unique per outstanding request at its issuer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxnId(pub u32);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn#{}", self.0)
    }
}

/// The protocol operation a message performs.
///
/// (Serialization uses the crate's own wire format in [`crate::wire`]
/// rather than serde: the 128-byte line payloads have a fixed binary
/// layout that *is* the interoperability standard.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MessageKind {
    // ---- Coherent requests (VC: Request) ----
    /// Read a line for sharing (load miss).
    ReadShared(CacheLine),
    /// Read a line for ownership (store miss).
    ReadExclusive(CacheLine),
    /// Upgrade an existing Shared copy to Modified (store to S line).
    Upgrade(CacheLine),
    /// Uncached, coherent read of a full line that does not allocate a
    /// copy at the requester (the FPGA's bread-and-butter access in §5.1).
    ReadOnce(CacheLine),
    /// Uncached, coherent full-line write that leaves no copy at the
    /// requester.
    WriteLine(CacheLine, Box<[u8; 128]>),

    // ---- Probes from the home node (VC: Forward) ----
    /// Ask the peer to downgrade (supply data if dirty, keep Shared).
    ProbeShared(CacheLine),
    /// Ask the peer to invalidate (supply data if dirty).
    ProbeInvalidate(CacheLine),

    // ---- Responses (VC: Response / Data) ----
    /// Data grant in Shared state.
    DataShared(CacheLine, Box<[u8; 128]>),
    /// Data grant in Exclusive state.
    DataExclusive(CacheLine, Box<[u8; 128]>),
    /// Completion without data (upgrade grant, write ack).
    Ack(CacheLine),
    /// Probe response carrying dirty data.
    ProbeAckData(CacheLine, Box<[u8; 128]>),
    /// Probe response without data (line was clean or absent).
    ProbeAck(CacheLine),

    // ---- Write-backs (VC: Eviction) ----
    /// Victim write-back of a dirty line to its home.
    VictimDirty(CacheLine, Box<[u8; 128]>),
    /// Victim notification for a clean owned line.
    VictimClean(CacheLine),

    // ---- Uncached I/O (VC: Io) ----
    /// Small uncached read (1–8 bytes).
    IoRead {
        /// Byte address of the I/O register.
        addr: Addr,
        /// Access size in bytes (1, 2, 4 or 8).
        size: u8,
    },
    /// Small uncached write (1–8 bytes).
    IoWrite {
        /// Byte address of the I/O register.
        addr: Addr,
        /// Access size in bytes (1, 2, 4 or 8).
        size: u8,
        /// Little-endian payload in the low `size` bytes.
        data: u64,
    },
    /// Response to [`MessageKind::IoRead`].
    IoData {
        /// Echo of the request address.
        addr: Addr,
        /// Little-endian payload.
        data: u64,
    },
    /// Completion of an [`MessageKind::IoWrite`].
    IoAck {
        /// Echo of the request address.
        addr: Addr,
    },

    // ---- Interrupts (VC: Io) ----
    /// Inter-processor interrupt delivery.
    Ipi {
        /// Interrupt vector number.
        vector: u8,
    },
}

/// A [`MessageKind`] without its fields: what the link layer and the
/// protocol checker read of a message besides its routing, and all the
/// transaction engine keeps of a coherence message while it is in flight
/// (the line and the transaction id travel beside it, the 128-byte line
/// stays where it already is).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Opcode {
    ReadShared,
    ReadExclusive,
    Upgrade,
    ReadOnce,
    WriteLine,
    ProbeShared,
    ProbeInvalidate,
    DataShared,
    DataExclusive,
    Ack,
    ProbeAckData,
    ProbeAck,
    VictimDirty,
    VictimClean,
    IoRead,
    IoWrite,
    IoData,
    IoAck,
    Ipi,
}

impl Opcode {
    /// Every opcode.
    const ALL: [Opcode; 19] = {
        use Opcode::*;
        [
            ReadShared,
            ReadExclusive,
            Upgrade,
            ReadOnce,
            WriteLine,
            ProbeShared,
            ProbeInvalidate,
            DataShared,
            DataExclusive,
            Ack,
            ProbeAckData,
            ProbeAck,
            VictimDirty,
            VictimClean,
            IoRead,
            IoWrite,
            IoData,
            IoAck,
            Ipi,
        ]
    };

    /// The opcode byte in the [`crate::wire`] format, stable across
    /// versions.
    pub(crate) fn wire_code(self) -> u8 {
        use Opcode::*;
        match self {
            ReadShared => 0x01,
            ReadExclusive => 0x02,
            Upgrade => 0x03,
            ReadOnce => 0x04,
            WriteLine => 0x05,
            ProbeShared => 0x10,
            ProbeInvalidate => 0x11,
            DataShared => 0x20,
            DataExclusive => 0x21,
            Ack => 0x22,
            ProbeAckData => 0x23,
            ProbeAck => 0x24,
            VictimDirty => 0x30,
            VictimClean => 0x31,
            IoRead => 0x40,
            IoWrite => 0x41,
            IoData => 0x42,
            IoAck => 0x43,
            Ipi => 0x50,
        }
    }

    /// The opcode whose wire byte is `code`, if any.
    pub(crate) fn from_wire(code: u8) -> Option<Opcode> {
        Opcode::ALL.into_iter().find(|op| op.wire_code() == code)
    }

    /// The virtual channel this kind travels on.
    pub(crate) fn virtual_channel(self) -> VirtualChannel {
        use Opcode::*;
        match self {
            ReadShared | ReadExclusive | Upgrade | ReadOnce | WriteLine => VirtualChannel::Request,
            ProbeShared | ProbeInvalidate => VirtualChannel::Forward,
            DataShared | DataExclusive | Ack | ProbeAckData | ProbeAck => VirtualChannel::Response,
            VictimDirty | VictimClean => VirtualChannel::Eviction,
            IoRead | IoWrite | IoData | IoAck | Ipi => VirtualChannel::Io,
        }
    }

    /// Whether the message carries a 128-byte line.
    pub(crate) fn carries_line(self) -> bool {
        use Opcode::*;
        matches!(
            self,
            WriteLine | DataShared | DataExclusive | ProbeAckData | VictimDirty
        )
    }

    /// Size on the physical link of a message of this kind with
    /// `payload_bytes` of payload (see [`Message::link_bytes`]).
    pub(crate) fn link_bytes(self, payload_bytes: u64) -> u64 {
        use Opcode::*;
        let ext = match self {
            DataShared | DataExclusive | ProbeAckData => 8,
            _ => 0,
        };
        16 + ext + payload_bytes
    }

    /// A short mnemonic, as the trace decoder prints it.
    pub(crate) fn mnemonic(self) -> &'static str {
        use Opcode::*;
        match self {
            ReadShared => "RDS",
            ReadExclusive => "RDE",
            Upgrade => "UPG",
            ReadOnce => "RDO",
            WriteLine => "WRL",
            ProbeShared => "PRS",
            ProbeInvalidate => "PRI",
            DataShared => "DSH",
            DataExclusive => "DEX",
            Ack => "ACK",
            ProbeAckData => "PAD",
            ProbeAck => "PAK",
            VictimDirty => "VCD",
            VictimClean => "VCC",
            IoRead => "IOR",
            IoWrite => "IOW",
            IoData => "IOD",
            IoAck => "IOA",
            Ipi => "IPI",
        }
    }
}

impl MessageKind {
    /// The kind `op` on `line`, carrying `data` if `op` carries a line.
    ///
    /// # Panics
    ///
    /// Panics if `op` is an I/O or interrupt opcode (they name no line),
    /// or if `op` carries a line and `data` is `None`.
    pub(crate) fn with_line(op: Opcode, line: CacheLine, data: Option<Box<[u8; 128]>>) -> Self {
        use MessageKind::*;
        let data = || data.expect("a line-carrying opcode needs its line");
        match op {
            Opcode::ReadShared => ReadShared(line),
            Opcode::ReadExclusive => ReadExclusive(line),
            Opcode::Upgrade => Upgrade(line),
            Opcode::ReadOnce => ReadOnce(line),
            Opcode::WriteLine => WriteLine(line, data()),
            Opcode::ProbeShared => ProbeShared(line),
            Opcode::ProbeInvalidate => ProbeInvalidate(line),
            Opcode::DataShared => DataShared(line, data()),
            Opcode::DataExclusive => DataExclusive(line, data()),
            Opcode::Ack => Ack(line),
            Opcode::ProbeAckData => ProbeAckData(line, data()),
            Opcode::ProbeAck => ProbeAck(line),
            Opcode::VictimDirty => VictimDirty(line, data()),
            Opcode::VictimClean => VictimClean(line),
            Opcode::IoRead | Opcode::IoWrite | Opcode::IoData | Opcode::IoAck | Opcode::Ipi => {
                panic!("{op:?} names no cache line")
            }
        }
    }

    /// The kind without its fields.
    pub(crate) fn opcode(&self) -> Opcode {
        use MessageKind::*;
        match self {
            ReadShared(_) => Opcode::ReadShared,
            ReadExclusive(_) => Opcode::ReadExclusive,
            Upgrade(_) => Opcode::Upgrade,
            ReadOnce(_) => Opcode::ReadOnce,
            WriteLine(..) => Opcode::WriteLine,
            ProbeShared(_) => Opcode::ProbeShared,
            ProbeInvalidate(_) => Opcode::ProbeInvalidate,
            DataShared(..) => Opcode::DataShared,
            DataExclusive(..) => Opcode::DataExclusive,
            Ack(_) => Opcode::Ack,
            ProbeAckData(..) => Opcode::ProbeAckData,
            ProbeAck(_) => Opcode::ProbeAck,
            VictimDirty(..) => Opcode::VictimDirty,
            VictimClean(_) => Opcode::VictimClean,
            IoRead { .. } => Opcode::IoRead,
            IoWrite { .. } => Opcode::IoWrite,
            IoData { .. } => Opcode::IoData,
            IoAck { .. } => Opcode::IoAck,
            Ipi { .. } => Opcode::Ipi,
        }
    }

    /// The virtual channel this kind travels on. The assignment is the
    /// deadlock-avoidance core of the protocol: requests can never block
    /// behind responses.
    pub fn virtual_channel(&self) -> VirtualChannel {
        self.opcode().virtual_channel()
    }

    /// Bytes of payload the message carries beyond its header.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            MessageKind::IoWrite { size, .. } => u64::from(*size),
            MessageKind::IoData { .. } => 8,
            kind if kind.opcode().carries_line() => CACHE_LINE_BYTES,
            _ => 0,
        }
    }

    /// The cache line the message concerns, when it concerns one.
    pub fn line(&self) -> Option<CacheLine> {
        use MessageKind::*;
        match self {
            ReadShared(l)
            | ReadExclusive(l)
            | Upgrade(l)
            | ReadOnce(l)
            | WriteLine(l, _)
            | ProbeShared(l)
            | ProbeInvalidate(l)
            | DataShared(l, _)
            | DataExclusive(l, _)
            | Ack(l)
            | ProbeAckData(l, _)
            | ProbeAck(l)
            | VictimDirty(l, _)
            | VictimClean(l) => Some(*l),
            IoRead { .. } | IoWrite { .. } | IoData { .. } | IoAck { .. } | Ipi { .. } => None,
        }
    }

    /// A short mnemonic, as the trace decoder prints it.
    pub fn mnemonic(&self) -> &'static str {
        self.opcode().mnemonic()
    }
}

/// A complete protocol message: routing metadata plus operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Transaction this message belongs to.
    pub txn: TxnId,
    /// The protocol operation.
    pub kind: MessageKind,
}

/// Fixed header size of a message on the wire, in bytes (see
/// [`crate::wire`] for the layout).
pub const HEADER_BYTES: u64 = 24;

impl Message {
    /// Creates a message.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`: ECI is strictly an inter-socket fabric.
    pub fn new(src: NodeId, dst: NodeId, txn: TxnId, kind: MessageKind) -> Self {
        assert!(src != dst, "ECI message addressed to its own node");
        Message {
            src,
            dst,
            txn,
            kind,
        }
    }

    /// Total size in the trace/interoperability format: header plus
    /// payload (see [`crate::wire`]).
    pub fn wire_bytes(&self) -> u64 {
        HEADER_BYTES + self.kind.payload_bytes()
    }

    /// Size on the physical link, in bytes. The link layer packs messages
    /// into compact flits: a 16-byte command flit, plus an 8-byte extended
    /// header on data-carrying *responses* (which also carry coherence
    /// state and completion metadata). The 24-byte [`crate::wire`] header
    /// is the richer trace format, not what crosses the wire.
    pub fn link_bytes(&self) -> u64 {
        self.kind.opcode().link_bytes(self.kind.payload_bytes())
    }

    /// The virtual channel this message travels on.
    pub fn virtual_channel(&self) -> VirtualChannel {
        self.kind.virtual_channel()
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}→{} {} {}",
            self.src,
            self.dst,
            self.kind.mnemonic(),
            self.txn
        )?;
        if let Some(line) = self.kind.line() {
            write!(f, " {line}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line() -> CacheLine {
        CacheLine(0xBEEF)
    }

    #[test]
    fn vc_assignment_separates_classes() {
        let data = Box::new([0u8; 128]);
        assert_eq!(
            MessageKind::ReadShared(line()).virtual_channel(),
            VirtualChannel::Request
        );
        assert_eq!(
            MessageKind::ProbeInvalidate(line()).virtual_channel(),
            VirtualChannel::Forward
        );
        assert_eq!(
            MessageKind::DataExclusive(line(), data.clone()).virtual_channel(),
            VirtualChannel::Response
        );
        assert_eq!(
            MessageKind::VictimDirty(line(), data).virtual_channel(),
            VirtualChannel::Eviction
        );
        assert_eq!(
            MessageKind::Ipi { vector: 3 }.virtual_channel(),
            VirtualChannel::Io
        );
    }

    #[test]
    fn payload_sizes() {
        let data = Box::new([0u8; 128]);
        assert_eq!(MessageKind::ReadOnce(line()).payload_bytes(), 0);
        assert_eq!(
            MessageKind::WriteLine(line(), data).payload_bytes(),
            CACHE_LINE_BYTES
        );
        assert_eq!(
            MessageKind::IoWrite {
                addr: Addr(8),
                size: 4,
                data: 7,
            }
            .payload_bytes(),
            4
        );
    }

    #[test]
    fn wire_size_includes_header() {
        let m = Message::new(
            NodeId::Fpga,
            NodeId::Cpu,
            TxnId(1),
            MessageKind::ReadOnce(line()),
        );
        assert_eq!(m.wire_bytes(), HEADER_BYTES);
        let m = Message::new(
            NodeId::Cpu,
            NodeId::Fpga,
            TxnId(2),
            MessageKind::DataShared(line(), Box::new([1u8; 128])),
        );
        assert_eq!(m.wire_bytes(), HEADER_BYTES + 128);
    }

    #[test]
    fn every_opcode_has_its_own_wire_code() {
        // Strictly increasing codes over 19 entries: no opcode is listed
        // twice, so every variant is in `ALL`.
        assert!(Opcode::ALL
            .windows(2)
            .all(|w| w[0].wire_code() < w[1].wire_code()));
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_wire(op.wire_code()), Some(op));
        }
        assert_eq!(Opcode::from_wire(0x00), None);
    }

    #[test]
    #[should_panic(expected = "own node")]
    fn self_addressed_message_rejected() {
        let _ = Message::new(NodeId::Cpu, NodeId::Cpu, TxnId(0), MessageKind::Ack(line()));
    }

    #[test]
    fn display_is_informative() {
        let m = Message::new(
            NodeId::Fpga,
            NodeId::Cpu,
            TxnId(9),
            MessageKind::ReadShared(CacheLine(0x10)),
        );
        let s = m.to_string();
        assert!(s.contains("RDS") && s.contains("txn#9") && s.contains("0x10"));
    }
}
