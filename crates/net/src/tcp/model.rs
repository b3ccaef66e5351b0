//! Bounded model checking of the TCP connection FSM.
//!
//! The MOESI coherence protocol gets an exhaustive explorer in
//! `enzian-eci`; this module gives the TCP handshake/teardown state
//! machine the same treatment through the generic
//! [`enzian_sim::explore`] core. Golden traces exercise one schedule;
//! the races that bend connection state machines — a handshake ACK
//! lost under a crossing FIN, simultaneous close, a retransmitted FIN
//! arriving after TimeWait — need every interleaving of a bounded
//! configuration.
//!
//! The model is two asymmetric endpoints: `a` opens actively and `b`
//! listens. Each endpoint's connection state is a bare
//! [`ConnState`], and **every** state change goes through the real
//! transition relation ([`Connection::on`]) — the model adds only the
//! segment-to-event policy (which [`ConnEvent`] a segment triggers in
//! which state), so an FSM bug in `conn.rs` is visible to the checker,
//! not masked by a re-implementation. The two directional channels are
//! bags (multisets): delivery may pick any in-flight segment, so
//! reordering is inherent; explicit budgeted actions add loss and
//! duplication; per-segment-kind retransmission budgets keep the space
//! finite while modelling an eventually-fair channel (every loss is
//! healable, and a peer that *stops* acknowledging converts the
//! retransmission budget into a detectable deadlock instead of an
//! infinite retry cycle).
//!
//! Checked on every reachable state:
//!
//! 1. **protocol legality** — no segment is ever delivered in a state
//!    with no legal response (data or FIN before the connection is
//!    established, a FIN-ACK towards an endpoint that never sent a
//!    FIN); an illegal [`Connection::on`] step surfaces the same way;
//! 2. **no deadlock short of CLOSED** — a state with no enabled
//!    transition where the endpoints are not both `Closed` with empty
//!    channels;
//! 3. **convergence** — both sides reach `Closed` after the FIN
//!    exchange: the model is finite and acyclic (every action consumes
//!    a budget or drains a channel), so deadlock-freedom of the
//!    exhaustive search *is* the convergence proof;
//! 4. **data delivery** — when both endpoints are `Closed`, every data
//!    segment each side sent was received in order by the other
//!    ([`TcpViolationKind::DataLoss`]);
//! 5. **TimeWait lingers** — the 2·MSL linger is modelled as a guard:
//!    TimeWait may only expire once the incoming channel is empty and
//!    the peer no longer owes or awaits a FIN-ACK. The
//!    [`TcpMutation::SkipTimeWait`] mutation removes the linger and
//!    the checker finds the classic bug: the FIN-ACK is lost, the
//!    peer's retransmitted FIN meets a closed endpoint, and the peer
//!    deadlocks in `LastAck`.
//!
//! Counterexample paths are rendered through the real 28-byte segment
//! codec ([`encode_segment`]/[`decode_segment`]): every message of the
//! replayed path is built as a [`Segment`], round-tripped through the
//! wire format, and printed from the decoded header.
//!
//! The model state is a plain `Copy` value — each channel is one count
//! per segment kind, each retransmission budget a fixed array — and
//! the model fills the explorer's reused successor and key buffers
//! directly, so the exhaustive search allocates nothing per state. The
//! canonical key is lossless (there is no symmetry to reduce), so a
//! state waits on the search frontier as its key, a quarter of the
//! state's size, and is decoded from it when its turn comes.

use enzian_sim::explore::{self, PackedModel, ProtocolModel, SearchOutcome, StateLimit};

use crate::traffic::{decode_segment, encode_segment, flags, Segment};

use super::conn::{ConnEvent, ConnState, Connection};

/// A known protocol bug, injected on request so the checker can prove
/// it would catch it (the mutation self-test).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TcpMutation {
    /// TimeWait does not linger: the endpoint closes the moment it
    /// acknowledges the peer's FIN, so a retransmitted FIN (its ACK
    /// was lost) meets a closed endpoint and the peer sticks in
    /// `LastAck` forever.
    SkipTimeWait,
    /// The passive side transmits data before the handshake completes,
    /// so a reordered segment can reach the active opener while it is
    /// still in `SynSent`.
    DataInSynSent,
    /// Endpoints never acknowledge a FIN, so every closer waits
    /// forever for an ACK that cannot arrive.
    SkipFinAck,
    /// Closing from `CloseWait` takes the active-close branch
    /// (`FinWait1`) instead of `LastAck`, leaving the endpoint waiting
    /// for a second FIN the peer will never send.
    SwapCloseOrder,
}

/// All mutations, for exhaustive self-tests.
pub const ALL_TCP_MUTATIONS: [TcpMutation; 4] = [
    TcpMutation::SkipTimeWait,
    TcpMutation::DataInSynSent,
    TcpMutation::SkipFinAck,
    TcpMutation::SwapCloseOrder,
];

/// Static configuration of a TCP model exploration.
///
/// `#[non_exhaustive]`: construct from a named preset
/// ([`TcpModelConfig::duplex`] / [`TcpModelConfig::deep`]) and adjust
/// its public fields, directly or with the `with_*` setters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct TcpModelConfig {
    /// Data segments the active opener transmits.
    pub data_a: u8,
    /// Data segments the passive side transmits.
    pub data_b: u8,
    /// Total segment drops the adversary may spend.
    pub loss_budget: u8,
    /// Total segment duplications the adversary may spend.
    pub dup_budget: u8,
    /// Retransmissions allowed **per segment kind** (SYN, SYN-ACK,
    /// each data segment, each side's FIN). Keeping this at least
    /// [`TcpModelConfig::loss_budget`] makes the channel eventually
    /// fair: to permanently lose a segment kind the adversary would
    /// need `retransmit_budget + 1` drops of it.
    pub retransmit_budget: u8,
    /// Abort with [`StateLimit`] beyond this many states.
    pub max_states: u64,
    /// Protocol bug to inject, if any.
    pub mutation: Option<TcpMutation>,
}

impl TcpModelConfig {
    /// One data segment from the active opener, one loss and one
    /// retransmission per kind: ~1.3*10^5 reachable states covering
    /// every handshake/teardown race under loss and reordering, in
    /// well under a second. The in-tree clean-exhaustion bar.
    pub fn one_way() -> Self {
        TcpModelConfig {
            data_a: 1,
            data_b: 0,
            loss_budget: 1,
            dup_budget: 0,
            retransmit_budget: 1,
            max_states: 500_000,
            mutation: None,
        }
    }

    /// One data segment each way: ~1.2*10^6 reachable states adding
    /// bidirectional data (and with it data crossing FINs in both
    /// directions). The mutation battery runs here — the passive side
    /// must have data to send for [`TcpMutation::DataInSynSent`].
    pub fn duplex() -> Self {
        TcpModelConfig {
            data_b: 1,
            max_states: 2_000_000,
            ..TcpModelConfig::one_way()
        }
    }

    /// The one-way space plus a duplication budget (~9.3*10^5 states):
    /// stale copies of every segment kind arriving arbitrarily late,
    /// including the retransmitted-FIN-into-TimeWait races.
    pub fn deep() -> Self {
        TcpModelConfig {
            dup_budget: 1,
            max_states: 2_000_000,
            ..TcpModelConfig::one_way()
        }
    }

    /// Returns the config with `data_b` replaced.
    pub fn with_data_b(mut self, data_b: u8) -> Self {
        self.data_b = data_b;
        self
    }

    /// Returns the config with `loss_budget` replaced.
    pub fn with_loss_budget(mut self, loss_budget: u8) -> Self {
        self.loss_budget = loss_budget;
        self
    }

    /// Returns the config with `retransmit_budget` replaced.
    pub fn with_retransmit_budget(mut self, retransmit_budget: u8) -> Self {
        self.retransmit_budget = retransmit_budget;
        self
    }

    /// Returns the config with `max_states` replaced.
    pub fn with_max_states(mut self, max_states: u64) -> Self {
        self.max_states = max_states;
        self
    }

    /// Returns the config with `mutation` replaced.
    pub fn with_mutation(mut self, mutation: Option<TcpMutation>) -> Self {
        self.mutation = mutation;
        self
    }
}

/// The invariant a violating state breaks (beyond the generic core's
/// deadlock and illegal-step classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpViolationKind {
    /// Both endpoints closed but some transmitted data never arrived.
    DataLoss,
}

impl std::fmt::Display for TcpViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TcpViolationKind::DataLoss => f.write_str("data-delivery invariant"),
        }
    }
}

// ---------------------------------------------------------------------
// Segments and the model state
// ---------------------------------------------------------------------

/// A model segment. Data indices and cumulative acks are small
/// integers; the mapping to the real wire format is in the private
/// `wire_segment` helper. `Ord` gives the channel bags a canonical
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Seg {
    /// Connection request.
    Syn,
    /// The listener's handshake reply.
    SynAck,
    /// The third handshake segment.
    AckSyn,
    /// Data segment `i` (one virtual payload byte each).
    Data(u8),
    /// Cumulative data acknowledgement: `n` segments received.
    DataAck(u8),
    /// Sender is done after `total` data segments. Like every real TCP
    /// segment the FIN carries a cumulative ack: `acks_fin` is set when
    /// the sender has already processed the *peer's* FIN (it closes
    /// from `CloseWait`, or retransmits from `Closing`/`LastAck`), so
    /// one lost FIN-ACK cannot strand the peer — the FIN itself
    /// re-delivers the acknowledgement.
    Fin(u8, bool),
    /// Acknowledgement of a FIN.
    FinAck,
}

/// Most data segments one side may transmit ([`TcpModel::new`]
/// enforces it).
const MAX_DATA: usize = 4;

/// Index of the first [`Seg::Data`] kind.
const DATA: usize = 3;
/// Index of the first [`Seg::DataAck`] kind (acks cover 0..=MAX_DATA).
const DATA_ACK: usize = DATA + MAX_DATA;
/// Index of the first [`Seg::Fin`] kind (totals 0..=MAX_DATA, each
/// with and without the FIN ack).
const FIN: usize = DATA_ACK + MAX_DATA + 1;
/// Number of distinct segments; [`Seg::FinAck`] is the last.
const SEG_KINDS: usize = FIN + 2 * (MAX_DATA + 1) + 1;

impl Seg {
    /// Dense index in `Ord` order: visiting indices in increasing order
    /// visits segments sorted.
    fn index(self) -> usize {
        match self {
            Seg::Syn => 0,
            Seg::SynAck => 1,
            Seg::AckSyn => 2,
            Seg::Data(i) => DATA + i as usize,
            Seg::DataAck(n) => DATA_ACK + n as usize,
            Seg::Fin(t, a) => FIN + 2 * t as usize + a as usize,
            Seg::FinAck => SEG_KINDS - 1,
        }
    }

    /// The segment with [`Seg::index`] `i`.
    fn from_index(i: usize) -> Seg {
        match i {
            0 => Seg::Syn,
            1 => Seg::SynAck,
            2 => Seg::AckSyn,
            _ if i < DATA_ACK => Seg::Data((i - DATA) as u8),
            _ if i < FIN => Seg::DataAck((i - DATA_ACK) as u8),
            _ if i < SEG_KINDS - 1 => Seg::Fin(((i - FIN) / 2) as u8, (i - FIN) % 2 == 1),
            _ => Seg::FinAck,
        }
    }
}

/// One directional channel: a bag of in-flight segments stored as a
/// count per segment kind, so it is `Copy`, order-insensitive by
/// construction, and enumerates its distinct segments in sorted order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Bag([u8; SEG_KINDS]);

impl Bag {
    const EMPTY: Bag = Bag([0; SEG_KINDS]);

    fn push(&mut self, seg: Seg) {
        self.0[seg.index()] += 1;
    }

    fn remove(&mut self, seg: Seg) {
        let count = &mut self.0[seg.index()];
        *count = count
            .checked_sub(1)
            .expect("segment enumerated from this channel");
    }

    fn contains(self, seg: Seg) -> bool {
        self.0[seg.index()] > 0
    }

    fn has_fin(self) -> bool {
        self.0[FIN..SEG_KINDS - 1].iter().any(|&c| c > 0)
    }

    fn is_empty(self) -> bool {
        self.0 == [0; SEG_KINDS]
    }

    /// Each distinct in-flight segment once, in sorted order.
    fn distinct(self) -> impl Iterator<Item = Seg> {
        (0..SEG_KINDS)
            .filter(move |&i| self.0[i] > 0)
            .map(Seg::from_index)
    }

    /// Writes the segment count, then one index byte per in-flight copy
    /// in sorted order, into `key` at `at`; returns the offset just past
    /// them. Only the kinds in flight are visited, and each stores its
    /// index twice before looking at its count, so the common counts
    /// of 1 and 2 take no branch; a store past the kind's run is
    /// overwritten by the next kind or lands in [`KEY_SLACK`].
    fn encode(self, key: &mut [u8; KEY_MAX + KEY_SLACK], at: usize) -> usize {
        let mut kinds = self
            .0
            .iter()
            .enumerate()
            .fold(0u32, |m, (i, &count)| m | u32::from(count != 0) << i);
        let mut end = at + 1;
        while kinds != 0 {
            let i = kinds.trailing_zeros() as usize;
            kinds &= kinds - 1;
            let count = usize::from(self.0[i]);
            key[end] = i as u8;
            key[end + 1] = i as u8;
            if count > 2 {
                key[end + 2..end + count].fill(i as u8);
            }
            end += count;
        }
        key[at] = u8::try_from(end - at - 1).expect("a bag holds at most 255 segments");
        end
    }

    /// The bag [`Bag::encode`] wrote at the start of `key`, and the
    /// bytes after it.
    fn decode(key: &[u8]) -> (Bag, &[u8]) {
        let (&count, rest) = key.split_first().expect("a bag's count byte");
        let (segs, rest) = rest.split_at(usize::from(count));
        let mut bag = Bag::EMPTY;
        for &i in segs {
            bag.0[usize::from(i)] += 1;
        }
        (bag, rest)
    }
}

/// Longest [`Bag::encode`]: the count byte plus at most `u8::MAX`
/// segments, since the count is a `u8`.
const BAG_KEY_MAX: usize = 1 + u8::MAX as usize;

/// Bytes of the scalars that open [`TcpState::encode`], two per byte.
const SCALAR_KEY_LEN: usize = 12;

/// Longest canonical key: the scalars and both channels.
const KEY_MAX: usize = SCALAR_KEY_LEN + 2 * BAG_KEY_MAX;

/// Room past [`KEY_MAX`] for [`Bag::encode`]'s two speculative stores.
const KEY_SLACK: usize = 2;

impl std::fmt::Display for Seg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Seg::Syn => write!(f, "SYN"),
            Seg::SynAck => write!(f, "SYN-ACK"),
            Seg::AckSyn => write!(f, "ACK-of-SYN"),
            Seg::Data(i) => write!(f, "DATA({i})"),
            Seg::DataAck(n) => write!(f, "ACK({n})"),
            Seg::Fin(t, false) => write!(f, "FIN(total={t})"),
            Seg::Fin(t, true) => write!(f, "FIN(total={t},acks-fin)"),
            Seg::FinAck => write!(f, "FIN-ACK"),
        }
    }
}

fn enc_conn(c: ConnState) -> u8 {
    match c {
        ConnState::Closed => 0,
        ConnState::Listen => 1,
        ConnState::SynSent => 2,
        ConnState::SynReceived => 3,
        ConnState::Established => 4,
        ConnState::FinWait1 => 5,
        ConnState::FinWait2 => 6,
        ConnState::Closing => 7,
        ConnState::CloseWait => 8,
        ConnState::LastAck => 9,
        ConnState::TimeWait => 10,
    }
}

/// Every connection state, at its [`enc_conn`] code.
const CONN_STATES: [ConnState; 11] = [
    ConnState::Closed,
    ConnState::Listen,
    ConnState::SynSent,
    ConnState::SynReceived,
    ConnState::Established,
    ConnState::FinWait1,
    ConnState::FinWait2,
    ConnState::Closing,
    ConnState::CloseWait,
    ConnState::LastAck,
    ConnState::TimeWait,
];

/// Drives one event through the real transition relation.
fn fsm(state: ConnState, event: ConnEvent) -> Result<ConnState, String> {
    Connection::at(state).on(event).map_err(|e| e.to_string())
}

/// The complete model state. Channels are bags, so equality and the
/// canonical encoding are order-insensitive (reordering costs the
/// adversary nothing). The state owns no heap memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpState {
    /// Active opener's connection state.
    a: ConnState,
    /// Passive side's connection state.
    b: ConnState,
    /// Data segments sent / received-in-order / acknowledged, per side.
    a_snd: u8,
    a_rcv: u8,
    a_acked: u8,
    b_snd: u8,
    b_rcv: u8,
    b_acked: u8,
    /// Out-of-order data held in each receiver's reassembly buffer
    /// (bit `i` = segment `i` arrived ahead of the in-order edge).
    /// Buffering keeps every delivered copy durable, so stranding a
    /// segment costs the adversary a drop of *every* copy — free
    /// reordering alone can never exceed the retransmission budget.
    a_rbuf: u8,
    b_rbuf: u8,
    /// In-flight segments a→b and b→a.
    ab: Bag,
    ba: Bag,
    /// Remaining adversary budgets.
    loss: u8,
    dup: u8,
    /// Remaining retransmissions per kind.
    rt_syn: u8,
    rt_syn_ack: u8,
    rt_fin_a: u8,
    rt_fin_b: u8,
    /// Per data segment; entries past the side's data budget stay 0.
    rt_data_a: [u8; MAX_DATA],
    rt_data_b: [u8; MAX_DATA],
}

/// One transition of the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpAction {
    /// Transmit the next data segment.
    SendData { from_a: bool },
    /// The application closes this endpoint (emit FIN).
    Close { a: bool },
    /// Deliver one in-flight segment (any — the bag reorders freely).
    Deliver { to_a: bool, seg: Seg },
    /// The adversary drops one in-flight segment.
    Drop { to_a: bool, seg: Seg },
    /// The adversary duplicates one in-flight segment.
    Duplicate { to_a: bool, seg: Seg },
    /// The sender's retransmission timer fires for `seg`.
    Retransmit { from_a: bool, seg: Seg },
    /// The 2·MSL linger expires.
    TimeWaitExpire { a: bool },
}

impl std::fmt::Display for TcpAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let end = |a: bool| if a { "a" } else { "b" };
        match self {
            TcpAction::SendData { from_a } => write!(f, "{}: send next data segment", end(*from_a)),
            TcpAction::Close { a } => write!(f, "{}: application close", end(*a)),
            TcpAction::Deliver { to_a, seg } => write!(f, "deliver {seg} to {}", end(*to_a)),
            TcpAction::Drop { to_a, seg } => {
                write!(f, "channel to {}: drop {seg}", end(*to_a))
            }
            TcpAction::Duplicate { to_a, seg } => {
                write!(f, "channel to {}: duplicate {seg}", end(*to_a))
            }
            TcpAction::Retransmit { from_a, seg } => {
                write!(f, "{}: retransmit {seg}", end(*from_a))
            }
            TcpAction::TimeWaitExpire { a } => write!(f, "{}: time-wait expires", end(*a)),
        }
    }
}

/// A segment put on the wire while applying an action (`from_a` gives
/// the direction), for trace rendering. Every action sends at most one.
type SentSeg = (bool, Seg);

/// The outcome of one enabled action: the next state with the segment
/// the step sent, or why the step is illegal.
type StepResult = Result<(TcpState, Option<SentSeg>), String>;

impl TcpState {
    fn init(cfg: &TcpModelConfig) -> Self {
        // Both opens happen before the first interleaving choice: the
        // active opener's SYN is already in flight, the listener
        // listens.
        let a = fsm(ConnState::Closed, ConnEvent::ActiveOpen).expect("active open is legal");
        let b = fsm(ConnState::Closed, ConnEvent::PassiveOpen).expect("passive open is legal");
        let rt_data = |n: u8| {
            std::array::from_fn(|i| {
                if i < n as usize {
                    cfg.retransmit_budget
                } else {
                    0
                }
            })
        };
        let mut ab = Bag::EMPTY;
        ab.push(Seg::Syn);
        TcpState {
            a,
            b,
            a_snd: 0,
            a_rcv: 0,
            a_acked: 0,
            b_snd: 0,
            b_rcv: 0,
            b_acked: 0,
            a_rbuf: 0,
            b_rbuf: 0,
            ab,
            ba: Bag::EMPTY,
            loss: cfg.loss_budget,
            dup: cfg.dup_budget,
            rt_syn: cfg.retransmit_budget,
            rt_syn_ack: cfg.retransmit_budget,
            rt_fin_a: cfg.retransmit_budget,
            rt_fin_b: cfg.retransmit_budget,
            rt_data_a: rt_data(cfg.data_a),
            rt_data_b: rt_data(cfg.data_b),
        }
    }

    fn conn(&self, a: bool) -> ConnState {
        if a {
            self.a
        } else {
            self.b
        }
    }

    fn set_conn(&mut self, a: bool, c: ConnState) {
        if a {
            self.a = c;
        } else {
            self.b = c;
        }
    }

    fn snd(&self, a: bool) -> u8 {
        if a {
            self.a_snd
        } else {
            self.b_snd
        }
    }

    fn rcv(&self, a: bool) -> u8 {
        if a {
            self.a_rcv
        } else {
            self.b_rcv
        }
    }

    fn acked(&self, a: bool) -> u8 {
        if a {
            self.a_acked
        } else {
            self.b_acked
        }
    }

    /// The channel delivering **to** the given endpoint.
    fn chan_to(&mut self, to_a: bool) -> &mut Bag {
        if to_a {
            &mut self.ba
        } else {
            &mut self.ab
        }
    }

    /// Puts `seg` on the wire from the given endpoint.
    fn send(&mut self, from_a: bool, seg: Seg, sent: &mut Option<SentSeg>) {
        self.chan_to(!from_a).push(seg);
        debug_assert!(sent.is_none(), "an action sends at most one segment");
        *sent = Some((from_a, seg));
    }

    fn quiescent(&self) -> bool {
        self.a == ConnState::Closed
            && self.b == ConnState::Closed
            && self.ab.is_empty()
            && self.ba.is_empty()
    }

    /// Appends the canonical encoding, built in a stack array and
    /// appended in one copy. Every scalar field is below 16
    /// ([`TcpModel::new`] caps data segments and budgets at 4, so the
    /// reassembly bitmaps use four bits), so they pack two per byte; the
    /// channels follow as count-prefixed runs of segment indices.
    fn encode(&self, out: &mut Vec<u8>) {
        let pack = |hi: u8, lo: u8| {
            debug_assert!(hi < 16 && lo < 16, "{hi} or {lo} exceeds a nibble");
            hi << 4 | lo
        };
        let [da0, da1, da2, da3] = self.rt_data_a;
        let [db0, db1, db2, db3] = self.rt_data_b;
        let mut key = [0u8; KEY_MAX + KEY_SLACK];
        key[..SCALAR_KEY_LEN].copy_from_slice(&[
            pack(enc_conn(self.a), enc_conn(self.b)),
            pack(self.a_snd, self.a_rcv),
            pack(self.a_acked, self.b_snd),
            pack(self.b_rcv, self.b_acked),
            pack(self.a_rbuf, self.b_rbuf),
            pack(self.loss, self.dup),
            pack(self.rt_syn, self.rt_syn_ack),
            pack(self.rt_fin_a, self.rt_fin_b),
            pack(da0, da1),
            pack(da2, da3),
            pack(db0, db1),
            pack(db2, db3),
        ]);
        let end = self.ab.encode(&mut key, SCALAR_KEY_LEN);
        let end = self.ba.encode(&mut key, end);
        out.extend_from_slice(&key[..end]);
    }

    /// Overwrites every field with the state [`TcpState::encode`]
    /// encoded as `key`.
    fn decode(&mut self, key: &[u8]) {
        let (scalars, bags) = key.split_at(SCALAR_KEY_LEN);
        let nibbles = |i: usize| (scalars[i] >> 4, scalars[i] & 0xF);
        let (a, b) = nibbles(0);
        (self.a, self.b) = (CONN_STATES[usize::from(a)], CONN_STATES[usize::from(b)]);
        (self.a_snd, self.a_rcv) = nibbles(1);
        (self.a_acked, self.b_snd) = nibbles(2);
        (self.b_rcv, self.b_acked) = nibbles(3);
        (self.a_rbuf, self.b_rbuf) = nibbles(4);
        (self.loss, self.dup) = nibbles(5);
        (self.rt_syn, self.rt_syn_ack) = nibbles(6);
        (self.rt_fin_a, self.rt_fin_b) = nibbles(7);
        let [(da0, da1), (da2, da3), (db0, db1), (db2, db3)] = [8, 9, 10, 11].map(nibbles);
        self.rt_data_a = [da0, da1, da2, da3];
        self.rt_data_b = [db0, db1, db2, db3];
        let (ab, rest) = Bag::decode(bags);
        let (ba, rest) = Bag::decode(rest);
        debug_assert!(rest.is_empty(), "{} bytes past the channels", rest.len());
        (self.ab, self.ba) = (ab, ba);
    }

    /// Checks the state invariants; `None` means clean.
    fn check(&self) -> Option<(TcpViolationKind, String)> {
        if self.a == ConnState::Closed && self.b == ConnState::Closed {
            if self.b_rcv != self.a_snd {
                return Some((
                    TcpViolationKind::DataLoss,
                    format!(
                        "both endpoints closed but b received {} of a's {} data segments",
                        self.b_rcv, self.a_snd
                    ),
                ));
            }
            if self.a_rcv != self.b_snd {
                return Some((
                    TcpViolationKind::DataLoss,
                    format!(
                        "both endpoints closed but a received {} of b's {} data segments",
                        self.a_rcv, self.b_snd
                    ),
                ));
            }
        }
        None
    }

    /// Delivery policy: which [`ConnEvent`] (and reply segments) a
    /// segment triggers at the receiving endpoint. `Ok(None)` means the
    /// delivery is blocked (a FIN ahead of missing data stays queued,
    /// modelling in-sequence processing); `Err` is a protocol-legality
    /// violation.
    fn receive(
        &mut self,
        cfg: &TcpModelConfig,
        to_a: bool,
        seg: Seg,
        sent: &mut Option<SentSeg>,
    ) -> Result<Option<()>, String> {
        use ConnState::*;
        let r = self.conn(to_a);
        match seg {
            // Duplicate SYNs are benign outside Listen; the listener's
            // SYN-ACK retransmission heals losses.
            Seg::Syn => {
                if r == Listen {
                    self.set_conn(to_a, fsm(r, ConnEvent::SynRcvd)?);
                    self.send(to_a, Seg::SynAck, sent);
                }
            }
            Seg::SynAck => match r {
                SynSent => {
                    self.set_conn(to_a, fsm(r, ConnEvent::SynAckRcvd)?);
                    self.send(to_a, Seg::AckSyn, sent);
                }
                Closed => {}
                // A duplicate SYN-ACK means the listener has not seen
                // our handshake ACK yet (lost or still in flight):
                // acknowledge again.
                _ => self.send(to_a, Seg::AckSyn, sent),
            },
            // Outside SynReceived a handshake ACK is a benign
            // duplicate once established (or long gone).
            Seg::AckSyn => {
                if r == SynReceived {
                    self.set_conn(to_a, fsm(r, ConnEvent::AckRcvd)?);
                }
            }
            Seg::Data(i) => match r {
                Listen | SynSent => {
                    return Err(format!(
                        "data segment {i} delivered in {r:?}, before the connection is established"
                    ));
                }
                Closed => {} // stale duplicate after teardown
                _ => {
                    if r == SynReceived {
                        // A data segment carries the handshake ACK
                        // implicitly (RFC 793's third segment may be
                        // piggybacked).
                        self.set_conn(to_a, fsm(r, ConnEvent::AckRcvd)?);
                    }
                    {
                        let (rcv, rbuf) = if to_a {
                            (&mut self.a_rcv, &mut self.a_rbuf)
                        } else {
                            (&mut self.b_rcv, &mut self.b_rbuf)
                        };
                        // Buffer out-of-order data and advance the
                        // in-order edge through whatever is contiguous;
                        // duplicates below the edge are no-ops. Either
                        // way a cumulative ack rides back.
                        if i >= *rcv {
                            *rbuf |= 1 << i;
                        }
                        while *rbuf & (1 << *rcv) != 0 {
                            *rbuf &= !(1 << *rcv);
                            *rcv += 1;
                        }
                    }
                    let ack = Seg::DataAck(self.rcv(to_a));
                    self.send(to_a, ack, sent);
                }
            },
            Seg::DataAck(n) => match r {
                Listen | SynSent => {
                    return Err(format!(
                        "cumulative ack {n} delivered in {r:?}, before the connection is \
                         established"
                    ));
                }
                Closed => {}
                _ => {
                    let acked = if to_a {
                        &mut self.a_acked
                    } else {
                        &mut self.b_acked
                    };
                    *acked = (*acked).max(n);
                }
            },
            Seg::Fin(total, acks_fin) => match r {
                Listen | SynSent => {
                    return Err(format!(
                        "FIN delivered in {r:?}, before the connection is established"
                    ));
                }
                Closed => {} // stale duplicate; a live peer deadlocks instead
                _ => {
                    if self.rcv(to_a) < total {
                        // In-sequence processing: the FIN waits for the
                        // data in front of it.
                        return Ok(None);
                    }
                    let mut r = r;
                    if acks_fin && matches!(r, FinWait1 | Closing) {
                        // The FIN's cumulative ack covers our own FIN.
                        r = fsm(r, ConnEvent::AckRcvd)?;
                        if r == TimeWait && cfg.mutation == Some(TcpMutation::SkipTimeWait) {
                            r = fsm(r, ConnEvent::TimeWaitExpired)?;
                        }
                        self.set_conn(to_a, r);
                    }
                    match r {
                        // First FIN: drive the real transition.
                        SynReceived | Established | FinWait1 | FinWait2 | TimeWait => {
                            let mut next = fsm(r, ConnEvent::FinRcvd)?;
                            if next == TimeWait && cfg.mutation == Some(TcpMutation::SkipTimeWait) {
                                // The injected bug: no 2·MSL linger.
                                next = fsm(next, ConnEvent::TimeWaitExpired)?;
                            }
                            self.set_conn(to_a, next);
                        }
                        // Retransmitted FIN after we already processed
                        // it: re-acknowledge, no state change.
                        CloseWait | Closing | LastAck => {}
                        // Only reachable when the SkipTimeWait collapse
                        // above closed us mid-delivery: a closed
                        // endpoint acknowledges nothing.
                        Closed => return Ok(Some(())),
                        Listen | SynSent => unreachable!("handled above"),
                    }
                    if cfg.mutation != Some(TcpMutation::SkipFinAck) {
                        self.send(to_a, Seg::FinAck, sent);
                    }
                }
            },
            Seg::FinAck => match r {
                FinWait1 | Closing | LastAck => {
                    let mut next = fsm(r, ConnEvent::AckRcvd)?;
                    if next == TimeWait && cfg.mutation == Some(TcpMutation::SkipTimeWait) {
                        next = fsm(next, ConnEvent::TimeWaitExpired)?;
                    }
                    self.set_conn(to_a, next);
                }
                FinWait2 | TimeWait | Closed => {} // benign duplicate
                Listen | SynSent | SynReceived | Established | CloseWait => {
                    return Err(format!(
                        "FIN-ACK delivered in {r:?}, to an endpoint that never sent a FIN"
                    ));
                }
            },
        }
        Ok(Some(()))
    }

    /// Every enabled transition, in a fixed deterministic order, handed
    /// to `emit` as it is generated.
    fn each_successor(&self, cfg: &TcpModelConfig, mut emit: impl FnMut(TcpAction, StepResult)) {
        use ConnState::*;

        // Data transmission: only while the send side of the stream is
        // open (a FIN seals it).
        for from_a in [true, false] {
            let conn = self.conn(from_a);
            let budget = if from_a { cfg.data_a } else { cfg.data_b };
            let open = matches!(conn, Established | CloseWait)
                || (cfg.mutation == Some(TcpMutation::DataInSynSent)
                    && !from_a
                    && conn == SynReceived);
            if open && self.snd(from_a) < budget {
                let mut s = *self;
                let mut sent = None;
                let seg = Seg::Data(s.snd(from_a));
                if from_a {
                    s.a_snd += 1;
                } else {
                    s.b_snd += 1;
                }
                s.send(from_a, seg, &mut sent);
                emit(TcpAction::SendData { from_a }, Ok((s, sent)));
            }
        }

        // Application close.
        for a in [true, false] {
            let conn = self.conn(a);
            if matches!(conn, Established | CloseWait) {
                let action = TcpAction::Close { a };
                match fsm(conn, ConnEvent::Close) {
                    Ok(mut next) => {
                        if conn == CloseWait && cfg.mutation == Some(TcpMutation::SwapCloseOrder) {
                            // The injected bug: the passive closer takes
                            // the active-close branch.
                            next = FinWait1;
                        }
                        let mut s = *self;
                        let mut sent = None;
                        s.set_conn(a, next);
                        // Closing from CloseWait means the peer's FIN is
                        // already processed: the FIN's cumulative ack
                        // covers it.
                        let fin = Seg::Fin(s.snd(a), conn == CloseWait);
                        s.send(a, fin, &mut sent);
                        emit(action, Ok((s, sent)));
                    }
                    Err(e) => emit(action, Err(e)),
                }
            }
        }

        // Deliveries: any distinct in-flight segment, either direction.
        for to_a in [false, true] {
            let chan = if to_a { self.ba } else { self.ab };
            for seg in chan.distinct() {
                let mut s = *self;
                s.chan_to(to_a).remove(seg);
                let mut sent = None;
                let action = TcpAction::Deliver { to_a, seg };
                match s.receive(cfg, to_a, seg, &mut sent) {
                    Ok(Some(())) => emit(action, Ok((s, sent))),
                    Ok(None) => {} // blocked; stays queued
                    Err(e) => emit(action, Err(e)),
                }
            }
        }

        // Retransmissions: enabled while the sender still waits for the
        // acknowledgement and no copy is in flight, each consuming the
        // per-kind budget.
        for from_a in [true, false] {
            let conn = self.conn(from_a);
            let chan = if from_a { self.ab } else { self.ba };
            let mut retransmit = |seg: Seg, enabled: bool| {
                if !enabled || chan.contains(seg) {
                    return;
                }
                let mut s = *self;
                match seg {
                    Seg::Syn => s.rt_syn -= 1,
                    Seg::SynAck => s.rt_syn_ack -= 1,
                    Seg::Data(i) => {
                        if from_a {
                            s.rt_data_a[i as usize] -= 1;
                        } else {
                            s.rt_data_b[i as usize] -= 1;
                        }
                    }
                    Seg::Fin(..) => {
                        if from_a {
                            s.rt_fin_a -= 1;
                        } else {
                            s.rt_fin_b -= 1;
                        }
                    }
                    _ => unreachable!("only timer-backed segments are retransmitted"),
                }
                let mut sent = None;
                s.send(from_a, seg, &mut sent);
                emit(TcpAction::Retransmit { from_a, seg }, Ok((s, sent)));
            };
            if from_a {
                retransmit(Seg::Syn, conn == SynSent && self.rt_syn > 0);
            } else {
                retransmit(Seg::SynAck, conn == SynReceived && self.rt_syn_ack > 0);
            }
            let rt_data = if from_a {
                self.rt_data_a
            } else {
                self.rt_data_b
            };
            let data_live = !matches!(conn, Closed | Listen | SynSent | SynReceived);
            for i in self.acked(from_a)..self.snd(from_a) {
                retransmit(Seg::Data(i), data_live && rt_data[i as usize] > 0);
            }
            let rt_fin = if from_a { self.rt_fin_a } else { self.rt_fin_b };
            // A retransmitted FIN recomputes its cumulative ack: by
            // Closing/LastAck the peer's FIN has been processed.
            retransmit(
                Seg::Fin(self.snd(from_a), matches!(conn, Closing | LastAck)),
                matches!(conn, FinWait1 | Closing | LastAck) && rt_fin > 0 && !chan.has_fin(),
            );
        }

        // TimeWait expiry: the 2·MSL linger outlasts every in-flight or
        // retransmittable FIN, modelled as a guard — nothing inbound,
        // and the peer neither owes nor awaits a FIN-ACK.
        for a in [true, false] {
            let inbound_empty = if a {
                self.ba.is_empty()
            } else {
                self.ab.is_empty()
            };
            let peer = self.conn(!a);
            if self.conn(a) == TimeWait
                && inbound_empty
                && !matches!(peer, FinWait1 | Closing | LastAck)
            {
                let action = TcpAction::TimeWaitExpire { a };
                match fsm(TimeWait, ConnEvent::TimeWaitExpired) {
                    Ok(next) => {
                        let mut s = *self;
                        s.set_conn(a, next);
                        emit(action, Ok((s, None)));
                    }
                    Err(e) => emit(action, Err(e)),
                }
            }
        }

        // Adversary: drop or duplicate any distinct in-flight segment.
        for (budgeted, is_drop) in [(self.loss > 0, true), (self.dup > 0, false)] {
            if !budgeted {
                continue;
            }
            for to_a in [false, true] {
                let chan = if to_a { self.ba } else { self.ab };
                for seg in chan.distinct() {
                    let mut s = *self;
                    let action = if is_drop {
                        s.chan_to(to_a).remove(seg);
                        s.loss -= 1;
                        TcpAction::Drop { to_a, seg }
                    } else {
                        s.dup -= 1;
                        s.chan_to(to_a).push(seg);
                        TcpAction::Duplicate { to_a, seg }
                    };
                    emit(action, Ok((s, None)));
                }
            }
        }
    }

    /// The first enabled transition labelled `action`, if any — the
    /// replay step of trace rendering and the orderly schedule.
    fn step(&self, cfg: &TcpModelConfig, action: TcpAction) -> Option<StepResult> {
        let mut found = None;
        self.each_successor(cfg, |a, result| {
            if found.is_none() && a == action {
                found = Some(result);
            }
        });
        found
    }
}

// ---------------------------------------------------------------------
// Wire rendering
// ---------------------------------------------------------------------

/// Simulated ports of the two endpoints (a connects to b's listener).
const PORT_A: u32 = 40_000;
const PORT_B: u32 = 80;

/// Maps a model segment onto the real traffic-plane wire format.
fn wire_segment(from_a: bool, seg: Seg) -> Segment {
    let (flags, seq, ack, len) = match seg {
        Seg::Syn => (flags::SYN, 0, 0, 0),
        Seg::SynAck => (flags::SYN | flags::ACK, 0, 0, 0),
        Seg::AckSyn => (flags::ACK | flags::CTL, 0, 0, 0),
        Seg::Data(i) => (flags::ACK, u32::from(i), 0, 1),
        Seg::DataAck(n) => (flags::ACK, 0, u32::from(n), 0),
        Seg::Fin(t, acks_fin) => (flags::FIN | flags::ACK, u32::from(t), acks_fin as u32, 0),
        Seg::FinAck => (flags::ACK | flags::CTL, 0, 0, 0),
    };
    Segment {
        flags,
        src_board: if from_a { 0 } else { 1 },
        dst_board: if from_a { 1 } else { 0 },
        src_port: if from_a { PORT_A } else { PORT_B },
        dst_port: if from_a { PORT_B } else { PORT_A },
        seq,
        ack,
        len,
    }
}

/// Renders one on-the-wire segment by round-tripping it through the
/// real 28-byte codec and printing the decoded header.
fn render_wire(idx: usize, from_a: bool, seg: Seg) -> String {
    let bytes = encode_segment(&wire_segment(from_a, seg));
    let d = decode_segment(&bytes).expect("model segments round-trip the segment codec");
    let dir = if from_a { "a->b" } else { "b->a" };
    let mut fl = Vec::new();
    for (bit, name) in [
        (flags::SYN, "SYN"),
        (flags::ACK, "ACK"),
        (flags::FIN, "FIN"),
        (flags::CTL, "CTL"),
    ] {
        if d.flags & bit != 0 {
            fl.push(name);
        }
    }
    format!(
        "[{idx:03}] {dir} {:<11} {:05}->{:05} seq={} ack={} len={} ({} wire bytes)",
        fl.join("|"),
        d.src_port,
        d.dst_port,
        d.seq,
        d.ack,
        d.len,
        bytes.len() as u64 + u64::from(d.len),
    )
}

// ---------------------------------------------------------------------
// The model
// ---------------------------------------------------------------------

/// The TCP instance of the generic [`ProtocolModel`]. See the module
/// docs for the model and the invariants it checks.
#[derive(Debug, Clone)]
pub struct TcpModel {
    cfg: TcpModelConfig,
}

impl TcpModel {
    /// Creates a model for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is outside the tractable envelope
    /// (at most 4 data segments per side, budgets at most 4) or is not
    /// eventually fair (`retransmit_budget < loss_budget` would let
    /// the adversary starve a retransmission and fail the clean model
    /// with a spurious deadlock).
    pub fn new(cfg: TcpModelConfig) -> Self {
        assert!(
            cfg.data_a as usize <= MAX_DATA,
            "data_a must be at most {MAX_DATA}, got {}",
            cfg.data_a
        );
        assert!(
            cfg.data_b as usize <= MAX_DATA,
            "data_b must be at most {MAX_DATA}, got {}",
            cfg.data_b
        );
        assert!(cfg.loss_budget <= 4, "loss_budget must be at most 4");
        assert!(cfg.dup_budget <= 4, "dup_budget must be at most 4");
        assert!(
            cfg.retransmit_budget <= 4,
            "retransmit_budget must be at most 4"
        );
        assert!(
            cfg.retransmit_budget >= cfg.loss_budget,
            "retransmit_budget {} < loss_budget {}: the channel would not be eventually fair",
            cfg.retransmit_budget,
            cfg.loss_budget
        );
        TcpModel { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &TcpModelConfig {
        &self.cfg
    }

    /// Exhaustive canonicalized BFS from the initial state.
    ///
    /// # Errors
    ///
    /// Returns [`StateLimit`] if the state budget runs out before the
    /// frontier drains.
    pub fn run_exhaustive(&self) -> Result<SearchOutcome<TcpViolationKind>, StateLimit> {
        explore::explore_packed(self, self.cfg.max_states)
    }

    /// Seeded random walk, checking the same invariants as the
    /// exhaustive search. Deterministic for a given seed.
    pub fn random_walk(&self, seed: u64, max_steps: u64) -> SearchOutcome<TcpViolationKind> {
        explore::random_walk(self, seed, max_steps)
    }

    /// Replays the canonical orderly schedule — handshake, full data
    /// exchange, active close by `a` — through the model and returns
    /// each endpoint's [`ConnState`] sequence (starting from `Closed`).
    /// [`TcpEngine::session_traced`](super::TcpEngine::session_traced)
    /// walks the same schedule on the real engine; the conformance test
    /// asserts the sequences match byte for byte.
    ///
    /// # Panics
    ///
    /// Panics if a schedule step is not an enabled action of the model
    /// (the model and the engine have diverged).
    pub fn orderly_trace(&self) -> (Vec<ConnState>, Vec<ConnState>) {
        let cfg = &self.cfg;
        let mut plan: Vec<TcpAction> = vec![
            TcpAction::Deliver {
                to_a: false,
                seg: Seg::Syn,
            },
            TcpAction::Deliver {
                to_a: true,
                seg: Seg::SynAck,
            },
            TcpAction::Deliver {
                to_a: false,
                seg: Seg::AckSyn,
            },
        ];
        for i in 0..cfg.data_a {
            plan.push(TcpAction::SendData { from_a: true });
            plan.push(TcpAction::Deliver {
                to_a: false,
                seg: Seg::Data(i),
            });
            plan.push(TcpAction::Deliver {
                to_a: true,
                seg: Seg::DataAck(i + 1),
            });
        }
        for i in 0..cfg.data_b {
            plan.push(TcpAction::SendData { from_a: false });
            plan.push(TcpAction::Deliver {
                to_a: true,
                seg: Seg::Data(i),
            });
            plan.push(TcpAction::Deliver {
                to_a: false,
                seg: Seg::DataAck(i + 1),
            });
        }
        plan.extend([
            TcpAction::Close { a: true },
            TcpAction::Deliver {
                to_a: false,
                seg: Seg::Fin(cfg.data_a, false),
            },
            TcpAction::Deliver {
                to_a: true,
                seg: Seg::FinAck,
            },
            TcpAction::Close { a: false },
            TcpAction::Deliver {
                to_a: true,
                seg: Seg::Fin(cfg.data_b, true),
            },
            TcpAction::Deliver {
                to_a: false,
                seg: Seg::FinAck,
            },
            TcpAction::TimeWaitExpire { a: true },
        ]);

        let mut state = TcpState::init(cfg);
        let mut trace_a = vec![ConnState::Closed, state.a];
        let mut trace_b = vec![ConnState::Closed, state.b];
        for action in plan {
            let (next, _) = state
                .step(cfg, action)
                .unwrap_or_else(|| panic!("orderly schedule step not enabled: {action}"))
                .unwrap_or_else(|e| panic!("orderly schedule step {action} illegal: {e}"));
            if next.a != state.a {
                trace_a.push(next.a);
            }
            if next.b != state.b {
                trace_b.push(next.b);
            }
            state = next;
        }
        assert!(state.quiescent(), "orderly schedule must end quiescent");
        (trace_a, trace_b)
    }
}

impl ProtocolModel for TcpModel {
    type State = TcpState;
    type Action = TcpAction;
    type Kind = TcpViolationKind;

    fn initial(&self) -> TcpState {
        TcpState::init(&self.cfg)
    }

    fn successors(&self, state: &TcpState) -> Vec<explore::Succ<TcpState, TcpAction>> {
        let mut out = Vec::new();
        self.successors_into(state, &mut out);
        out
    }

    fn successors_into(&self, state: &TcpState, out: &mut Vec<explore::Succ<TcpState, TcpAction>>) {
        state.each_successor(&self.cfg, |action, result| {
            out.push(explore::Succ {
                action,
                result: result.map(|(state, _sent)| state),
            });
        });
    }

    fn quiescent(&self, state: &TcpState) -> bool {
        state.quiescent()
    }

    fn canonical(&self, state: &TcpState) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        state.encode(&mut out);
        out
    }

    fn canonical_into(&self, state: &TcpState, out: &mut Vec<u8>) {
        state.encode(out);
    }

    fn check(&self, state: &TcpState) -> Option<(TcpViolationKind, String)> {
        state.check()
    }

    /// Replays `path` from the initial state and renders every segment
    /// the replay puts on the wire through the real 28-byte codec
    /// (the initial SYN is shown first: it is in flight from step
    /// zero).
    fn render_path(&self, path: &[TcpAction]) -> String {
        let mut state = TcpState::init(&self.cfg);
        let mut lines = vec![render_wire(0, true, Seg::Syn)];
        for &action in path {
            let Some(result) = state.step(&self.cfg, action) else {
                break; // the final action errored; nothing more to replay
            };
            if let Ok((next, sent)) = result {
                if let Some((from_a, seg)) = sent {
                    lines.push(render_wire(lines.len(), from_a, seg));
                }
                state = next;
            }
        }
        lines.join("\n")
    }
}

/// A queued state is its canonical key: the encoding is lossless, so
/// packing copies the key the search computed and unpacking decodes it.
impl PackedModel for TcpModel {
    fn pack_into(&self, _state: &TcpState, key: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(key);
    }

    fn unpack_into(&self, packed: &[u8], state: &mut TcpState) {
        state.decode(packed);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{HashSet, VecDeque};

    use enzian_sim::explore::{expect_clean, expect_violation, SearchStats, Violation};

    use super::*;

    #[test]
    fn one_way_exhausts_ten_thousand_states_clean() {
        // The acceptance bar: a >= 10^4-state bounded space, exhausted
        // with zero violations.
        let stats = expect_clean(
            &TcpModel::new(TcpModelConfig::one_way()),
            500_000,
            "one_way",
        );
        assert!(
            stats.states >= 10_000,
            "the one-way space must clear 10^4 states, got {}",
            stats.states
        );
        assert!(stats.transitions > stats.states);
    }

    #[test]
    fn packed_states_are_their_keys_and_unpack_to_themselves() {
        for (i, &c) in CONN_STATES.iter().enumerate() {
            assert_eq!(usize::from(enc_conn(c)), i, "{c:?}");
        }
        // Two data segments each way and no loss: out-of-order data in
        // both reassembly buffers, which one segment a side never has.
        let reordered = TcpModelConfig {
            data_a: 2,
            ..TcpModelConfig::duplex()
        }
        .with_data_b(2)
        .with_loss_budget(0)
        .with_retransmit_budget(0);
        let mut cases = vec![
            ("one_way", TcpModelConfig::one_way(), 129_835),
            ("reordered", reordered, 8_338),
        ];
        // 1.24M states: the release test run affords them.
        if !cfg!(debug_assertions) {
            cases.push(("duplex", TcpModelConfig::duplex(), 1_241_672));
        }
        for (name, cfg, states) in cases {
            let model = TcpModel::new(cfg);
            let init = model.initial();
            let mut seen = HashSet::from([model.canonical(&init)]);
            let mut queue = VecDeque::from([init]);
            let (mut key, mut packed, mut succs) = (Vec::new(), Vec::new(), Vec::new());
            // Unpacked into over and over, as the search does, so a
            // field the decode forgets to overwrite shows.
            let mut unpacked = init;
            while let Some(s) = queue.pop_front() {
                key.clear();
                model.canonical_into(&s, &mut key);
                packed.clear();
                model.pack_into(&s, &key, &mut packed);
                assert_eq!(packed, key, "{name}: {s:?}");
                model.unpack_into(&packed, &mut unpacked);
                assert_eq!(unpacked, s, "{name}: {s:?}");
                succs.clear();
                model.successors_into(&s, &mut succs);
                for next in succs.iter().filter_map(|n| n.result.as_ref().ok()) {
                    if seen.insert(model.canonical(next)) {
                        queue.push_back(*next);
                    }
                }
            }
            assert_eq!(seen.len(), states, "{name}");
        }
    }

    #[test]
    fn duplication_budget_is_clean_on_the_control_plane() {
        // No data, but one duplication on top of loss: stale handshake
        // and teardown segments arriving arbitrarily late.
        let cfg = TcpModelConfig {
            data_a: 0,
            ..TcpModelConfig::deep()
        };
        let stats = expect_clean(&TcpModel::new(cfg), 500_000, "dup control plane");
        assert!(stats.states > 10_000, "got {}", stats.states);
    }

    #[test]
    fn exploration_is_deterministic() {
        let run = || {
            TcpModel::new(TcpModelConfig::one_way())
                .run_exhaustive()
                .unwrap()
                .stats
        };
        // Pinned to the `BENCH_tcp_explore.json` row: the state count
        // checks the canonical encoding merges exactly the same states,
        // and the frontier peak checks the BFS visits them in the same
        // order (it depends on the successor order, not just the set).
        let pinned = SearchStats {
            states: 129_835,
            transitions: 673_631,
            frontier_peak: 18_683,
            max_depth: 26,
        };
        assert_eq!(run(), pinned);
        assert_eq!(run(), pinned);
    }

    #[test]
    fn lossless_configuration_is_clean_too() {
        let cfg = TcpModelConfig::duplex()
            .with_loss_budget(0)
            .with_retransmit_budget(0);
        expect_clean(&TcpModel::new(cfg), 1_000_000, "lossless");
    }

    #[test]
    fn every_mutation_is_caught_with_a_rendered_counterexample() {
        for m in ALL_TCP_MUTATIONS {
            let cfg = TcpModelConfig::duplex().with_mutation(Some(m));
            let cx = expect_violation(&TcpModel::new(cfg), 2_000_000, &format!("{m:?}"));
            match m {
                TcpMutation::DataInSynSent => {
                    assert_eq!(cx.violation, Violation::IllegalStep, "{m:?}: {cx}");
                    assert!(
                        cx.description.contains("SynSent"),
                        "{m:?}: wrong description: {}",
                        cx.description
                    );
                }
                TcpMutation::SkipTimeWait
                | TcpMutation::SkipFinAck
                | TcpMutation::SwapCloseOrder => {
                    assert_eq!(cx.violation, Violation::Deadlock, "{m:?}: {cx}");
                }
            }
            assert!(!cx.actions.is_empty(), "{m:?}: empty action path");
            // The counterexample went through the real wire codec.
            assert!(
                cx.trace.contains("a->b") && cx.trace.contains("wire bytes"),
                "{m:?}: trace not rendered through the codec:\n{}",
                cx.trace
            );
        }
    }

    #[test]
    fn state_limit_is_a_checked_error() {
        let cfg = TcpModelConfig::duplex().with_max_states(10);
        let err = TcpModel::new(cfg).run_exhaustive().unwrap_err();
        assert_eq!(err, StateLimit { limit: 10 });
    }

    #[test]
    fn random_walk_is_deterministic_and_clean() {
        let model = TcpModel::new(TcpModelConfig::deep());
        let a = model.random_walk(7, 4_000);
        let b = model.random_walk(7, 4_000);
        assert!(a.stats.max_depth > 0);
        assert_eq!(a.stats, b.stats);
        assert!(a.violation.is_none(), "{}", a.violation.unwrap());
        assert!(a.stats.transitions > 0);
    }

    #[test]
    fn random_walk_finds_an_injected_bug() {
        let cfg = TcpModelConfig::duplex().with_mutation(Some(TcpMutation::SkipFinAck));
        let model = TcpModel::new(cfg);
        let found = (0..16).any(|seed| model.random_walk(seed, 10_000).violation.is_some());
        assert!(found, "no seed found the skipped FIN-ACK");
    }

    #[test]
    fn eventual_fairness_guard_rejects_starvable_budgets() {
        let cfg = TcpModelConfig::duplex()
            .with_loss_budget(2)
            .with_retransmit_budget(1);
        assert!(std::panic::catch_unwind(|| TcpModel::new(cfg)).is_err());
    }

    #[test]
    fn orderly_trace_matches_the_rfc_state_sequences() {
        use ConnState::*;
        let (a, b) = TcpModel::new(TcpModelConfig::duplex()).orderly_trace();
        assert_eq!(
            a,
            vec![
                Closed,
                SynSent,
                Established,
                FinWait1,
                FinWait2,
                TimeWait,
                Closed
            ]
        );
        assert_eq!(
            b,
            vec![
                Closed,
                Listen,
                SynReceived,
                Established,
                CloseWait,
                LastAck,
                Closed
            ]
        );
    }

    #[test]
    fn counterexample_renders_decoded_segments() {
        let cfg = TcpModelConfig::duplex().with_mutation(Some(TcpMutation::DataInSynSent));
        let cx = TcpModel::new(cfg)
            .run_exhaustive()
            .unwrap()
            .violation
            .expect("must be caught");
        // The shortest path, rebuilt from the node store's parent
        // links and replayed through the model for its trace.
        assert_eq!(
            cx.actions,
            [
                "deliver SYN to b",
                "b: send next data segment",
                "deliver DATA(0) to a"
            ]
        );
        assert_eq!(cx.trace.lines().count(), 3, "SYN, SYN-ACK, DATA(0)");
        let rendered = cx.to_string();
        assert!(rendered.contains("violated"));
        assert!(rendered.contains("path ("));
        assert!(rendered.contains("decoded message trace"));
        assert!(rendered.contains("SYN"), "handshake rendered: {rendered}");
    }
}
