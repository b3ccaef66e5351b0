//! Traffic-plane building blocks for million-flow load generation.
//!
//! TrafficEngine-style stateful load generators (shared-nothing per-core
//! TCP engines doing ~100k connections/sec/core) rest on three small
//! mechanisms, and this module provides the simulated analogue of each:
//!
//! * [`Segment`] — the compact wire format a churn session's segments
//!   travel in between boards. Only the header is materialized; payload
//!   bytes are carried as a *length* so a million-flow run never copies
//!   gigabytes of data around. The header is checksummed with the same
//!   [`internet_checksum`] the reliability module uses.
//! * [`PortMask`] — RSS/RFS-style flow steering. The low bits of every
//!   port name the owning board, the high bits index directly into that
//!   board's flow table, so steering a reply and demultiplexing it to
//!   its flow are both O(1) mask-and-shift operations.
//! * [`FlowTable`] — a slab-backed table of per-flow state with a free
//!   list and generation counters. Memory is bounded by the *peak*
//!   number of concurrent flows, never by the total churned through:
//!   teardown recycles the slot and bumps its generation so stale
//!   handles cannot resurrect a dead flow.
//!
//! The multi-session engine that drives per-flow state machines over
//! these pieces is [`SessionMux`](crate::tcp::mux::SessionMux).

use crate::tcp::reliability::internet_checksum;

/// TCP flag bits carried by [`Segment::flags`].
pub mod flags {
    /// Connection request (first or second handshake segment).
    pub const SYN: u8 = 1 << 0;
    /// Acknowledgement field is live.
    pub const ACK: u8 = 1 << 1;
    /// Sender is done; teardown begins.
    pub const FIN: u8 = 1 << 2;
    /// Connection-control acknowledgement (the handshake's third
    /// segment and the teardown FIN-acks). Distinguishes FSM-driving
    /// acks from cumulative data acks so a duplicate data ack can
    /// never be mistaken for a teardown step.
    pub const CTL: u8 = 1 << 3;
}

/// Encoded size of one segment header on the wire (payload bytes ride
/// as a declared length, not as materialized data).
pub const SEGMENT_HEADER_BYTES: u64 = 28;

/// Magic byte opening every traffic segment (`0xEB` is the bridge's,
/// `0xEC` ECI's).
pub const SEGMENT_MAGIC: u8 = 0xE7;

/// Segment format version.
pub const SEGMENT_VERSION: u8 = 1;

/// One traffic-plane TCP segment.
///
/// `seq`/`ack` number payload bytes only (the simulator does not model
/// ISNs); control segments carry `len == 0`. `src_port`/`dst_port` are
/// 32-bit simulated ports: the [`PortMask`] low bits steer to a board,
/// the high bits index its flow table, and a 16-bit space would cap a
/// board at ~64k concurrent flows — an order of magnitude below the
/// 10^5–10^6 this plane targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Flag bits (see [`flags`]).
    pub flags: u8,
    /// Board the segment left from.
    pub src_board: u8,
    /// Board it is steered to.
    pub dst_board: u8,
    /// Sender's port (flow port, or a listen port for the first SYN).
    pub src_port: u32,
    /// Receiver's port.
    pub dst_port: u32,
    /// Payload byte offset of this segment's first byte.
    pub seq: u32,
    /// Cumulative acknowledgement (next expected payload byte).
    pub ack: u32,
    /// Payload length in virtual bytes (zero for control segments).
    pub len: u32,
}

impl Segment {
    /// Bytes this segment occupies on the wire: the encoded header plus
    /// its virtual payload.
    pub fn wire_bytes(&self) -> u64 {
        SEGMENT_HEADER_BYTES + u64::from(self.len)
    }
}

/// Decoding failures for [`decode_segment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentError {
    /// Fewer bytes than a header.
    Truncated {
        /// Bytes available.
        got: usize,
    },
    /// First byte was not [`SEGMENT_MAGIC`].
    BadMagic(u8),
    /// Unknown format version.
    BadVersion(u8),
    /// The pad byte after the board ids was not zero.
    BadPad(u8),
    /// Header checksum mismatch.
    BadChecksum {
        /// Checksum computed from the header contents.
        expected: u16,
        /// Checksum found in the trailer.
        found: u16,
    },
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::Truncated { got } => {
                write!(
                    f,
                    "truncated segment: {got} of {SEGMENT_HEADER_BYTES} bytes"
                )
            }
            SegmentError::BadMagic(b) => write!(f, "bad segment magic {b:#04x}"),
            SegmentError::BadVersion(v) => write!(f, "unknown segment version {v}"),
            SegmentError::BadPad(b) => write!(f, "nonzero segment pad byte {b:#04x}"),
            SegmentError::BadChecksum { expected, found } => {
                write!(f, "segment checksum {found:#06x}, expected {expected:#06x}")
            }
        }
    }
}

impl std::error::Error for SegmentError {}

/// Encodes `seg` as a [`SEGMENT_HEADER_BYTES`]-byte header of its own.
pub fn encode_segment(seg: &Segment) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEGMENT_HEADER_BYTES as usize);
    encode_segment_into(seg, &mut out);
    out
}

/// Appends the [`SEGMENT_HEADER_BYTES`]-byte header of `seg` to `out`:
/// how a board writes a segment straight into its bridge frame.
pub fn encode_segment_into(seg: &Segment, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[
        SEGMENT_MAGIC,
        SEGMENT_VERSION,
        seg.flags,
        seg.src_board,
        seg.dst_board,
        0, // pad: keeps the u32 fields aligned and the size even
    ]);
    out.extend_from_slice(&seg.src_port.to_le_bytes());
    out.extend_from_slice(&seg.dst_port.to_le_bytes());
    out.extend_from_slice(&seg.seq.to_le_bytes());
    out.extend_from_slice(&seg.ack.to_le_bytes());
    out.extend_from_slice(&seg.len.to_le_bytes());
    let sum = internet_checksum(&out[start..]);
    out.extend_from_slice(&sum.to_le_bytes());
    debug_assert_eq!((out.len() - start) as u64, SEGMENT_HEADER_BYTES);
}

/// Decodes a header produced by [`encode_segment`]; bytes past the
/// header are ignored.
///
/// # Errors
///
/// Returns a [`SegmentError`] for a short buffer, a bad magic, version
/// or pad byte, or a checksum mismatch.
pub fn decode_segment(bytes: &[u8]) -> Result<Segment, SegmentError> {
    if bytes.len() < SEGMENT_HEADER_BYTES as usize {
        return Err(SegmentError::Truncated { got: bytes.len() });
    }
    if bytes[0] != SEGMENT_MAGIC {
        return Err(SegmentError::BadMagic(bytes[0]));
    }
    if bytes[1] != SEGMENT_VERSION {
        return Err(SegmentError::BadVersion(bytes[1]));
    }
    if bytes[5] != 0 {
        return Err(SegmentError::BadPad(bytes[5]));
    }
    let body = &bytes[..26];
    let found = u16::from_le_bytes([bytes[26], bytes[27]]);
    let expected = internet_checksum(body);
    if found != expected {
        return Err(SegmentError::BadChecksum { expected, found });
    }
    let u32_at = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
    Ok(Segment {
        flags: bytes[2],
        src_board: bytes[3],
        dst_board: bytes[4],
        src_port: u32_at(6),
        dst_port: u32_at(10),
        seq: u32_at(14),
        ack: u32_at(18),
        len: u32_at(22),
    })
}

/// RSS-style port-mask flow steering.
///
/// Every port's low `bits` name the board that owns the flow, and the
/// remaining high bits index the owner's flow table directly (index 0
/// is reserved for the board's listen port). A reply is steered by
/// masking its destination port — no per-flow routing state anywhere in
/// the fabric — and demultiplexed at the owner by one shift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortMask {
    bits: u32,
}

impl PortMask {
    /// The smallest mask that distinguishes `boards` boards (at least
    /// one bit, so a two-board mask still exercises the steering path).
    ///
    /// # Panics
    ///
    /// Panics if `boards` is zero or needs more than 8 bits (board ids
    /// travel as a byte).
    pub fn for_boards(boards: usize) -> Self {
        assert!(boards > 0, "PortMask::for_boards: no boards");
        assert!(boards <= 256, "board ids must fit a byte");
        let bits = usize::BITS - (boards - 1).max(1).leading_zeros();
        PortMask { bits: bits.max(1) }
    }

    /// Number of low board bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The board-selecting bit mask.
    pub fn mask(&self) -> u32 {
        (1u32 << self.bits) - 1
    }

    /// The board a port steers to.
    pub fn board_of(&self, port: u32) -> u8 {
        (port & self.mask()) as u8
    }

    /// `board`'s well-known listen port (flow index 0 is reserved).
    pub fn listen_port(&self, board: u8) -> u32 {
        u32::from(board)
    }

    /// The port owned by `board` for flow-table slot `slot`.
    pub fn flow_port(&self, board: u8, slot: u32) -> u32 {
        ((slot + 1) << self.bits) | u32::from(board)
    }

    /// The flow-table slot a port demultiplexes to, or `None` for a
    /// listen port.
    pub fn slot_of(&self, port: u32) -> Option<u32> {
        (port >> self.bits).checked_sub(1)
    }
}

/// A handle to a [`FlowTable`] entry: slot index plus the generation it
/// was allocated under. A freed-and-recycled slot invalidates all old
/// keys because its generation moved on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// Slab slot index.
    pub slot: u32,
    /// Generation the slot had when this key was issued.
    pub gen: u32,
}

/// One [`FlowTable`] entry, live or free: the table's memory per flow
/// at its peak.
pub(crate) struct Slot<T> {
    gen: u32,
    state: Option<T>,
}

/// The first slot block holds 2^FIRST_BLOCK_BITS slots, and each next
/// one twice the last, up to 2^BLOCK_BITS.
const FIRST_BLOCK_BITS: u32 = 5;
const BLOCK_BITS: u32 = 12;

/// The block and the offset in it that hold slot `slot`. Block `b` below
/// the cap holds 2^(FIRST_BLOCK_BITS + b) slots and starts at slot
/// 2^(FIRST_BLOCK_BITS + b) - 2^FIRST_BLOCK_BITS, so shifting the index
/// by the first block's size makes its top bit name the block; from the
/// first full-size block on, blocks are 2^BLOCK_BITS slots apart.
fn locate(slot: u32) -> (usize, usize) {
    let i = slot as usize + (1 << FIRST_BLOCK_BITS);
    if i < 1 << BLOCK_BITS {
        let top = i.ilog2();
        ((top - FIRST_BLOCK_BITS) as usize, i - (1 << top))
    } else {
        let past = i - (1 << BLOCK_BITS);
        (
            (BLOCK_BITS - FIRST_BLOCK_BITS) as usize + (past >> BLOCK_BITS),
            past & ((1 << BLOCK_BITS) - 1),
        )
    }
}

/// Slots block `b` holds.
fn block_len(b: usize) -> usize {
    1 << (FIRST_BLOCK_BITS + b as u32).min(BLOCK_BITS)
}

/// Slab-backed per-flow state with bounded memory.
///
/// The table grows only when a flow arrives while the free list is
/// empty, so its capacity equals the *peak* number of concurrent flows
/// ever live — churning a million sessions through a table that never
/// holds more than 10^5 at once allocates 10^5 slots, not 10^6. Freed
/// slots are recycled LIFO (hot in cache) with a generation bump.
///
/// The slots live in blocks that are never reallocated: the first holds
/// 32 slots and each next one twice the last, up to 4,096. Growing the
/// table allocates one more block and copies nothing, so it never holds
/// an old and a new copy of the slab at once, as a doubling `Vec` does
/// while it moves.
pub struct FlowTable<T> {
    /// Block `b` is allocated with room for [`block_len`]`(b)` slots and
    /// never grows past it; every block but the last is full.
    blocks: Vec<Vec<Slot<T>>>,
    /// Slots ever allocated.
    len: u32,
    free: Vec<u32>,
    live: u32,
    peak_live: u32,
    opened: u64,
    freed: u64,
}

impl<T> FlowTable<T> {
    /// An empty table.
    pub fn new() -> Self {
        FlowTable {
            blocks: Vec::new(),
            len: 0,
            free: Vec::new(),
            live: 0,
            peak_live: 0,
            opened: 0,
            freed: 0,
        }
    }

    /// Flows live right now.
    pub fn live(&self) -> u32 {
        self.live
    }

    /// High-water mark of concurrent live flows.
    pub fn peak_live(&self) -> u32 {
        self.peak_live
    }

    /// Slots ever allocated — the table's memory bound. Equals
    /// [`peak_live`](Self::peak_live) by construction, which the
    /// property tests assert.
    pub fn capacity(&self) -> u32 {
        self.len
    }

    fn slot(&self, slot: u32) -> Option<&Slot<T>> {
        let (b, at) = locate(slot);
        self.blocks.get(b)?.get(at)
    }

    fn slot_mut(&mut self, slot: u32) -> Option<&mut Slot<T>> {
        let (b, at) = locate(slot);
        self.blocks.get_mut(b)?.get_mut(at)
    }

    /// Total flows admitted over the table's lifetime.
    pub fn opened(&self) -> u64 {
        self.opened
    }

    /// Total flows freed over the table's lifetime.
    pub fn freed(&self) -> u64 {
        self.freed
    }

    /// Admits a flow and returns its key.
    pub fn alloc(&mut self, state: T) -> FlowKey {
        self.opened += 1;
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        if let Some(slot) = self.free.pop() {
            let s = self.slot_mut(slot).expect("free list names a slot");
            debug_assert!(s.state.is_none(), "free list held a live slot");
            s.state = Some(state);
            FlowKey { slot, gen: s.gen }
        } else {
            let slot = self.len;
            let (b, _) = locate(slot);
            if b == self.blocks.len() {
                self.blocks.push(Vec::with_capacity(block_len(b)));
            }
            self.blocks[b].push(Slot {
                gen: 0,
                state: Some(state),
            });
            self.len += 1;
            FlowKey { slot, gen: 0 }
        }
    }

    /// The flow `key` names, if it is still the same incarnation.
    pub fn get(&self, key: FlowKey) -> Option<&T> {
        let s = self.slot(key.slot)?;
        if s.gen != key.gen {
            return None;
        }
        s.state.as_ref()
    }

    /// Mutable access to the flow `key` names.
    pub fn get_mut(&mut self, key: FlowKey) -> Option<&mut T> {
        let s = self.slot_mut(key.slot)?;
        if s.gen != key.gen {
            return None;
        }
        s.state.as_mut()
    }

    /// The live flow in `slot` (however it was allocated), with its
    /// current key — the receive-path demux after [`PortMask::slot_of`].
    pub fn get_slot(&self, slot: u32) -> Option<(&T, FlowKey)> {
        let s = self.slot(slot)?;
        s.state.as_ref().map(|t| (t, FlowKey { slot, gen: s.gen }))
    }

    /// Frees the flow, recycling its slot. Returns the state, or `None`
    /// if the key was stale.
    pub fn free(&mut self, key: FlowKey) -> Option<T> {
        let s = self.slot_mut(key.slot)?;
        if s.gen != key.gen || s.state.is_none() {
            return None;
        }
        let state = s.state.take();
        s.gen = s.gen.wrapping_add(1);
        self.free.push(key.slot);
        self.live -= 1;
        self.freed += 1;
        state
    }

    /// Iterates live flows in slot order (deterministic digests).
    pub fn iter_live(&self) -> impl Iterator<Item = (u32, &T)> {
        self.blocks
            .iter()
            .flatten()
            .enumerate()
            .filter_map(|(i, s)| s.state.as_ref().map(|t| (i as u32, t)))
    }
}

impl<T> Default for FlowTable<T> {
    fn default() -> Self {
        FlowTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_roundtrips() {
        let seg = Segment {
            flags: flags::SYN | flags::ACK,
            src_board: 3,
            dst_board: 1,
            src_port: 0x1234_5678,
            dst_port: 0x9abc_def0,
            seq: 42,
            ack: 7,
            len: 2048,
        };
        let bytes = encode_segment(&seg);
        assert_eq!(bytes.len() as u64, SEGMENT_HEADER_BYTES);
        assert_eq!(decode_segment(&bytes), Ok(seg));
        let mut framed = vec![0xEB; 3];
        encode_segment_into(&seg, &mut framed);
        assert_eq!(framed[3..], bytes[..]);
        assert_eq!(seg.wire_bytes(), SEGMENT_HEADER_BYTES + 2048);
    }

    #[test]
    fn segment_corruption_is_detected() {
        let seg = Segment {
            flags: flags::FIN,
            src_board: 0,
            dst_board: 1,
            src_port: 9,
            dst_port: 10,
            seq: 0,
            ack: 0,
            len: 0,
        };
        let mut bytes = encode_segment(&seg);
        bytes[14] ^= 0x40; // flip a seq bit
        assert!(matches!(
            decode_segment(&bytes),
            Err(SegmentError::BadChecksum { .. })
        ));
        assert_eq!(
            decode_segment(&bytes[..10]),
            Err(SegmentError::Truncated { got: 10 })
        );
        assert_eq!(decode_segment(&[0u8; 28]), Err(SegmentError::BadMagic(0)));
        let mut padded = encode_segment(&seg);
        padded[5] = 8;
        assert_eq!(decode_segment(&padded), Err(SegmentError::BadPad(8)));
    }

    #[test]
    fn port_mask_steers_and_demuxes() {
        let m = PortMask::for_boards(8);
        assert_eq!(m.bits(), 3);
        for board in 0..8u8 {
            assert_eq!(m.board_of(m.listen_port(board)), board);
            assert_eq!(m.slot_of(m.listen_port(board)), None);
            for slot in [0u32, 1, 77, 1_000_000] {
                let p = m.flow_port(board, slot);
                assert_eq!(m.board_of(p), board);
                assert_eq!(m.slot_of(p), Some(slot));
            }
        }
        // Two boards still get one steering bit.
        assert_eq!(PortMask::for_boards(2).bits(), 1);
        assert_eq!(PortMask::for_boards(3).bits(), 2);
    }

    #[test]
    fn flow_table_recycles_slots_with_generations() {
        let mut t = FlowTable::new();
        let a = t.alloc("a");
        let b = t.alloc("b");
        assert_eq!(t.live(), 2);
        assert_eq!(t.get(a), Some(&"a"));
        assert_eq!(t.free(a), Some("a"));
        assert_eq!(t.get(a), None, "freed key must go stale");
        // LIFO reuse: the freed slot comes back under a new generation.
        let c = t.alloc("c");
        assert_eq!(c.slot, a.slot);
        assert_ne!(c.gen, a.gen);
        assert_eq!(t.get(a), None);
        assert_eq!(t.get(c), Some(&"c"));
        assert_eq!(t.get_slot(b.slot).map(|(s, _)| *s), Some("b"));
        assert_eq!(t.capacity(), 2);
        assert_eq!(t.peak_live(), 2);
    }

    #[test]
    fn slots_fill_their_blocks_in_order() {
        assert_eq!(
            (block_len(0), block_len(7), block_len(100)),
            (32, 4096, 4096)
        );
        let mut expect = (0, 0);
        for slot in 0..20_000 {
            assert_eq!(locate(slot), expect, "slot {slot}");
            expect.1 += 1;
            if expect.1 == block_len(expect.0) {
                expect = (expect.0 + 1, 0);
            }
        }
    }

    #[test]
    fn growing_the_table_never_moves_a_flow() {
        let mut t = FlowTable::new();
        let first = t.alloc(0u32);
        let at: *const u32 = t.get(first).unwrap();
        let keys: Vec<FlowKey> = (1..10_000).map(|i| t.alloc(i)).collect();
        assert_eq!(t.get(first).map(|v| v as *const u32), Some(at));
        assert!(keys.iter().zip(1..).all(|(&k, i)| t.get(k) == Some(&i)));
        assert!(t
            .iter_live()
            .map(|(s, &v)| (s, v))
            .eq((0..10_000).map(|i| (i, i))));
        assert_eq!(t.capacity(), 10_000);
        assert_eq!(t.get_slot(10_000).map(|(_, k)| k), None);
    }

    #[test]
    fn flow_table_memory_is_bounded_by_peak_churn() {
        // Churn 10_000 flows through a table that never holds more than
        // 64 at once: capacity must equal the peak, not the total.
        let mut t = FlowTable::new();
        let mut live: Vec<FlowKey> = Vec::new();
        for i in 0..10_000u32 {
            live.push(t.alloc(i));
            if live.len() == 64 {
                // Free in an order that exercises non-trivial reuse.
                for k in live.drain(..32) {
                    assert!(t.free(k).is_some());
                }
            }
        }
        for k in live.drain(..) {
            assert!(t.free(k).is_some());
        }
        assert_eq!(t.live(), 0);
        assert_eq!(t.opened(), 10_000);
        assert_eq!(t.freed(), 10_000);
        assert_eq!(t.capacity(), t.peak_live());
        assert!(
            t.capacity() <= 64,
            "capacity {} outgrew the peak",
            t.capacity()
        );
    }
}
