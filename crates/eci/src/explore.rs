//! Exhaustive state-space exploration of the ECI coherence protocol.
//!
//! The paper's protocol tooling ("assertion checkers generated from the
//! specification", §4.1) validates the transitions a *particular run*
//! happens to exercise. This module closes the gap to *all* runs for
//! small configurations: a deterministic, canonicalized breadth-first
//! search over every interleaving of a bounded protocol model — N
//! caching agents sharing L lines of one home node, with per-virtual-
//! channel FIFO queues of bounded depth standing in for the link's
//! credit pools.
//!
//! The model is built from the same side-effect-free step functions the
//! simulator uses — [`enzian_cache::local_step`] /
//! [`enzian_cache::probe_step`] for the agent side and
//! [`RemoteCopy::step`](crate::directory::RemoteCopy::step) for the
//! home side — so a protocol bug in those relations is visible to both.
//!
//! Checked on every reachable state:
//!
//! 1. **SWMR** — the single-writer/multiple-reader invariant, via
//!    [`enzian_cache::check_global_invariant`] over the per-agent
//!    projection of each line;
//! 2. **data value** — every readable copy holds the version written by
//!    the last store (a per-line version counter stands in for data);
//! 3. **no stuck states** — a non-quiescent state (transient agents,
//!    queued messages, busy home) must have at least one enabled
//!    transition; a state with none is a deadlock, including the
//!    credit-exhaustion deadlocks the virtual-channel assignment exists
//!    to prevent;
//! 4. **protocol legality** — an illegal directory step or a message
//!    arriving in a state that cannot accept it.
//!
//! Violations are reported as a [`ViolationReport`] carrying the action
//! path from the initial state and the message trace of that path,
//! rendered through the same wire encoding and [`decoder`](crate::decoder)
//! used for live traces (home is shown as `cpu`, agents as `fpga`, with
//! the transaction id column carrying the agent index).
//!
//! Symmetry reduction: caching agents are interchangeable, so every
//! state is canonicalized to the minimal encoding over all agent
//! permutations before the visited-set lookup. The encoding is a bit
//! string, each field as wide as its range under the configuration
//! needs (a 4-bit line state, a 2-bit directory record, a data version
//! in as few bits as `max_writes` allows), about 11 bytes for two agents
//! on two lines. It opens with the agents' hold blocks, all of one
//! width, so the minimum lists the agents in sorted block order;
//! canonicalization sorts them and compares permutations only among
//! agents whose blocks tie. Most states have no tie and cost one
//! encoding, built on the stack. The same encoding, plus a byte naming
//! the renaming, is how a state waits on the search frontier: decoding
//! it restores the state.
//!
//! The model state is a fixed-size `Copy` value sized by the envelope
//! [`Explorer::new`] enforces (at most three agents, four lines,
//! [`MAX_FIFO`]-deep channels and [`MAX_WRITES`] stores per line), with
//! every queue stored inline, so stepping and encoding a state allocate
//! nothing.
//!
//! The search machinery itself — canonicalized BFS, shortest-path
//! counterexamples, seeded random walks — is the generic
//! [`enzian_sim::explore`] core; this module supplies the MOESI
//! [`ProtocolModel`] instance and keeps the ECI-flavoured API
//! ([`Explorer`], [`ViolationReport`]) on top of it, bit-identically to
//! the pre-extraction explorer (same state counts, same
//! counterexamples).

use enzian_cache::{check_global_invariant, local_step, probe_step, CoherenceRequest, LineState};
use enzian_mem::{Addr, CacheLine, NodeId};
use enzian_sim::explore::{
    self, Counterexample, PackedModel, ProtocolModel, SplitMix64, Violation,
};
use enzian_sim::{Duration, LivelockError, Time};

use crate::decoder::{format_trace, TraceBuffer};
use crate::directory::{DirOp, RemoteCopy};
use crate::message::{Message, MessageKind, TxnId};
use crate::system::{EciSystem, EciSystemConfig};
use crate::txn::TxnOp;

/// A known protocol bug, injected on request so the checker can prove
/// it would catch it (the mutation self-test).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mutation {
    /// The home grants a Shared copy from memory while another agent
    /// owns the line, without recalling ownership first.
    GrantSharedWhileOwned,
    /// The home acknowledges an upgrade without invalidating the other
    /// sharers.
    SkipInvalidateOnUpgrade,
    /// The home acknowledges a dirty victim write-back but forgets to
    /// write the data to memory.
    ForgetVictimData,
    /// Agents silently drop their probe responses.
    DropProbeAck,
}

/// All mutations, for exhaustive self-tests.
pub const ALL_MUTATIONS: [Mutation; 4] = [
    Mutation::GrantSharedWhileOwned,
    Mutation::SkipInvalidateOnUpgrade,
    Mutation::ForgetVictimData,
    Mutation::DropProbeAck,
];

/// Static configuration of an exploration.
///
/// `#[non_exhaustive]`: construct from a named preset
/// ([`ExploreConfig::two_agent`] / [`ExploreConfig::three_agent`]) and
/// adjust its public fields, directly or with the `with_*` setters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ExploreConfig {
    /// Number of caching agents (1 to 3; more is intractable).
    pub agents: usize,
    /// Number of cache lines homed at the single home node (1 to 4).
    pub lines: usize,
    /// Total stores permitted per line across all agents, 0 to
    /// [`MAX_WRITES`]; bounds the data-version space.
    pub max_writes: u8,
    /// Depth of each agent-to-home virtual-channel FIFO (the credit
    /// pool), 1 to [`MAX_FIFO`]; also the credit the home needs towards
    /// an agent before a grant, probe or victim ack that waits for one.
    pub fifo_capacity: usize,
    /// Whether the home grants Exclusive on a read when it knows there
    /// are no other sharers (the E-state optimisation).
    pub e_grant: bool,
    /// Abort with [`ExploreError::StateLimit`] beyond this many states.
    pub max_states: u64,
    /// Protocol bug to inject, if any.
    pub mutation: Option<Mutation>,
}

impl ExploreConfig {
    /// Two agents, one line: the smallest interesting configuration,
    /// exhaustively explorable in well under a second.
    pub fn two_agent() -> Self {
        ExploreConfig {
            agents: 2,
            lines: 1,
            max_writes: 2,
            fifo_capacity: 2,
            e_grant: true,
            max_states: 4_000_000,
            mutation: None,
        }
    }

    /// Three agents, one line: covers the three-party races (probe to a
    /// sharer while a third agent's request queues behind a busy home).
    pub fn three_agent() -> Self {
        ExploreConfig {
            agents: 3,
            ..ExploreConfig::two_agent()
        }
    }

    /// Returns the config with `lines` replaced.
    pub fn with_lines(mut self, lines: usize) -> Self {
        self.lines = lines;
        self
    }

    /// Returns the config with `max_writes` replaced.
    pub fn with_max_writes(mut self, max_writes: u8) -> Self {
        self.max_writes = max_writes;
        self
    }

    /// Returns the config with `e_grant` replaced.
    pub fn with_e_grant(mut self, e_grant: bool) -> Self {
        self.e_grant = e_grant;
        self
    }

    /// Returns the config with `max_states` replaced.
    pub fn with_max_states(mut self, max_states: u64) -> Self {
        self.max_states = max_states;
        self
    }

    /// Returns the config with `mutation` replaced.
    pub fn with_mutation(mut self, mutation: Option<Mutation>) -> Self {
        self.mutation = mutation;
        self
    }
}

/// The invariant a violating state breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Two writable copies, or a writable copy next to readable ones.
    Swmr,
    /// A readable copy holds a version other than the last one written.
    DataValue,
    /// A non-quiescent state with no enabled transition.
    Deadlock,
    /// An illegal directory step or a message no state accepts.
    Protocol,
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ViolationKind::Swmr => "SWMR invariant",
            ViolationKind::DataValue => "data-value invariant",
            ViolationKind::Deadlock => "deadlock",
            ViolationKind::Protocol => "protocol legality",
        };
        f.write_str(s)
    }
}

/// A counterexample: the shortest action path the search found from the
/// initial state to a state violating one of the checked invariants.
#[derive(Debug, Clone)]
pub struct ViolationReport {
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// Human-readable description of the violation itself.
    pub description: String,
    /// The actions along the path, one line each.
    pub actions: Vec<String>,
    /// The message trace of the path, round-tripped through the wire
    /// format and rendered by [`crate::decoder::format_record`].
    pub trace: String,
}

impl std::fmt::Display for ViolationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{} violated: {}", self.kind, self.description)?;
        writeln!(f, "path ({} actions):", self.actions.len())?;
        for a in &self.actions {
            writeln!(f, "  {a}")?;
        }
        writeln!(f, "decoded message trace:")?;
        for l in self.trace.lines() {
            writeln!(f, "  {l}")?;
        }
        Ok(())
    }
}

/// Deterministic exploration statistics (identical across runs for the
/// same configuration and seed); the generic core's
/// [`SearchStats`](enzian_sim::explore::SearchStats) under its
/// pre-extraction name.
pub use enzian_sim::explore::SearchStats as ExploreStats;

/// The result of a (completed) exploration.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Search statistics.
    pub stats: ExploreStats,
    /// The first violation found, if any.
    pub violation: Option<ViolationReport>,
}

/// Why an exploration could not run to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreError {
    /// The configured state budget was exhausted before the frontier
    /// drained; shrink the configuration or raise
    /// [`ExploreConfig::max_states`].
    StateLimit {
        /// The configured limit that was hit.
        limit: u64,
    },
    /// The transaction engine failed to drain its event queue within the
    /// event budget during a conformance walk.
    Livelock(LivelockError),
    /// The transaction engine's online checker flagged a violation
    /// during a conformance walk.
    EngineDivergence(String),
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::StateLimit { limit } => {
                write!(f, "state budget of {limit} states exhausted")
            }
            ExploreError::Livelock(e) => write!(f, "conformance walk: {e}"),
            ExploreError::EngineDivergence(s) => write!(f, "engine diverged: {s}"),
        }
    }
}

impl std::error::Error for ExploreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExploreError::Livelock(e) => Some(e),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// The protocol model
// ---------------------------------------------------------------------

/// Most caching agents [`Explorer::new`] accepts; sizes the state's
/// per-agent arrays.
const MAX_AGENTS: usize = 3;
/// Most lines [`Explorer::new`] accepts; sizes the state's per-line
/// arrays.
const MAX_LINES: usize = 4;

/// Deepest agent-to-home virtual-channel FIFO [`Explorer::new`] accepts
/// as [`ExploreConfig::fifo_capacity`]. The model state is a fixed-size
/// `Copy` value, so this bounds the inline storage of every queue.
pub const MAX_FIFO: usize = 4;

/// Most stores per line [`Explorer::new`] accepts as
/// [`ExploreConfig::max_writes`]. A data version counts the stores to
/// its line, so versions stay within `0..=MAX_WRITES` and pack into two
/// bits; every in-tree configuration uses at most two.
pub const MAX_WRITES: u8 = 3;

/// Depth of a home-to-agent queue: at most one probe and one response
/// per line (see [`ModelState`] for the argument).
const TO_AGENT_DEPTH: usize = 2 * MAX_LINES;

/// Agent-to-home virtual channels (indices into the per-agent FIFO
/// array). Home-to-agent traffic is a single in-order queue: probes and
/// grants from one home may not overtake each other, which the real
/// link's per-connection frame ordering guarantees.
const VC_REQ: usize = 0;
const VC_RESP: usize = 1;
const VC_EVICT: usize = 2;

/// One agent's view of one line: the five stable MOESI states plus the
/// transient states of in-flight transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AState {
    I,
    S,
    E,
    O,
    M,
    /// I, waiting for a Shared (or Exclusive) data grant.
    IsD,
    /// I, waiting for an Exclusive data grant (store miss).
    ImD,
    /// S, waiting for an upgrade ack.
    SmA,
    /// O, waiting for an upgrade ack.
    OmA,
    /// Released a dirty copy; holding the data until the victim is
    /// acknowledged (so a crossing probe can still be answered).
    MiA,
    /// As `MiA` after a crossing probe took the data; waiting for the
    /// victim ack only.
    IiA,
    /// Released a clean copy; waiting for the victim ack. Without this
    /// ack a re-request could race the in-flight victim notice and the
    /// home would revoke the *new* grant when the stale notice lands —
    /// the exhaustive search finds that bug immediately if clean
    /// victims are made fire-and-forget.
    CiA,
}

/// Every [`AState`], indexed by its code.
const ASTATES: [AState; 12] = [
    AState::I,
    AState::S,
    AState::E,
    AState::O,
    AState::M,
    AState::IsD,
    AState::ImD,
    AState::SmA,
    AState::OmA,
    AState::MiA,
    AState::IiA,
    AState::CiA,
];

impl AState {
    fn encode(self) -> u8 {
        self as u8
    }

    fn decode(code: u8) -> Self {
        ASTATES[code as usize]
    }

    /// The stable MOESI projection used for the global invariants: a
    /// transient agent is charged with the copy it actually holds.
    fn project(self) -> LineState {
        match self {
            AState::S | AState::SmA => LineState::Shared,
            AState::E => LineState::Exclusive,
            AState::O | AState::OmA => LineState::Owned,
            AState::M => LineState::Modified,
            // MiA's data is already on the wire to the home and the
            // agent will never serve a read from it again.
            AState::I | AState::IsD | AState::ImD | AState::MiA | AState::IiA | AState::CiA => {
                LineState::Invalid
            }
        }
    }

    fn stable(self) -> bool {
        matches!(
            self,
            AState::I | AState::S | AState::E | AState::O | AState::M
        )
    }
}

/// A protocol message of the model. Lines and data versions are small
/// integers; the mapping to real [`MessageKind`]s is in
/// [`ModelState::wire_message`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Msg {
    GetS(u8),
    GetM(u8),
    Upg(u8),
    VicD(u8, u8),
    VicC(u8),
    PAck(u8),
    PAckD(u8, u8),
    DataS(u8, u8),
    DataE(u8, u8),
    AckM(u8),
    PrbS(u8),
    PrbI(u8),
    VicAck(u8),
}

/// The filler of unused queue slots.
impl Default for Msg {
    fn default() -> Self {
        Msg::GetS(0)
    }
}

impl Msg {
    /// The message as its kind code, line and data version (0 for a
    /// kind without data).
    fn encode(self) -> [u8; 3] {
        match self {
            Msg::GetS(l) => [0, l, 0],
            Msg::GetM(l) => [1, l, 0],
            Msg::Upg(l) => [2, l, 0],
            Msg::VicD(l, v) => [3, l, v],
            Msg::VicC(l) => [4, l, 0],
            Msg::PAck(l) => [5, l, 0],
            Msg::PAckD(l, v) => [6, l, v],
            Msg::DataS(l, v) => [7, l, v],
            Msg::DataE(l, v) => [8, l, v],
            Msg::AckM(l) => [9, l, 0],
            Msg::PrbS(l) => [10, l, 0],
            Msg::PrbI(l) => [11, l, 0],
            Msg::VicAck(l) => [12, l, 0],
        }
    }

    /// The message [`Msg::encode`] turned into `[kind, line, version]`.
    fn decode([kind, l, v]: [u8; 3]) -> Self {
        match kind {
            0 => Msg::GetS(l),
            1 => Msg::GetM(l),
            2 => Msg::Upg(l),
            3 => Msg::VicD(l, v),
            4 => Msg::VicC(l),
            5 => Msg::PAck(l),
            6 => Msg::PAckD(l, v),
            7 => Msg::DataS(l, v),
            8 => Msg::DataE(l, v),
            9 => Msg::AckM(l),
            10 => Msg::PrbS(l),
            11 => Msg::PrbI(l),
            12 => Msg::VicAck(l),
            _ => unreachable!("message kind code {kind}"),
        }
    }

    fn line(self) -> u8 {
        self.encode()[1]
    }
}

/// An inline FIFO of at most `N` entries. Slots past `len` hold
/// `T::default()`, so the derived equality compares contents only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Queue<T, const N: usize> {
    len: u8,
    items: [T; N],
}

impl<T: Copy + Default, const N: usize> Queue<T, N> {
    fn new() -> Self {
        Queue {
            len: 0,
            items: [T::default(); N],
        }
    }

    fn len(&self) -> usize {
        self.len as usize
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn as_slice(&self) -> &[T] {
        &self.items[..self.len()]
    }

    fn front(&self) -> Option<T> {
        self.as_slice().first().copied()
    }

    /// Appends `item`. The queue bounds argued on [`ModelState`] make
    /// overflow a model bug, so it panics rather than drop a message.
    fn push_back(&mut self, item: T) {
        assert!(self.len() < N, "bounded queue of {N} overflowed");
        self.items[self.len()] = item;
        self.len += 1;
    }

    fn pop_front(&mut self) -> Option<T> {
        let first = self.front()?;
        let len = self.len();
        self.items.copy_within(1..len, 0);
        self.items[len - 1] = T::default();
        self.len -= 1;
        Some(first)
    }
}

// ---------------------------------------------------------------------
// The packed encoding
// ---------------------------------------------------------------------

/// Bits that hold every value in `0..=max`.
const fn bits_for(max: usize) -> u32 {
    usize::BITS - max.leading_zeros()
}

/// Bits of an [`AState`] code.
const STATE_BITS: u32 = 4;
/// Bits of a [`RemoteCopy`] record.
const REC_BITS: u32 = 2;
/// Bits of a [`Want`].
const WANT_BITS: u32 = 2;
/// Bits of a message kind code ([`Msg::encode`]).
const KIND_BITS: u32 = 4;
/// The kind codes of the messages that carry a data version, as a bit
/// set: `VicD`, `PAckD`, `DataS` and `DataE`.
const DATA_KINDS: u32 = 1 << 3 | 1 << 6 | 1 << 7 | 1 << 8;

/// Field widths of the packed state encoding. Each field takes the bits
/// its range needs under the configuration: two agents and one line
/// need no bits for a line index and one for an agent index.
#[derive(Debug, Clone, Copy)]
struct Layout {
    /// A data version, memory copy, latest version or store budget,
    /// all in `0..=max_writes`.
    version: u32,
    /// A line index.
    line: u32,
    /// An agent index.
    agent: u32,
    /// A to-home FIFO length, `0..=fifo_capacity`.
    to_home_len: u32,
    /// A to-agent queue length, `0..=2 × lines` (see [`ModelState`]).
    to_agent_len: u32,
}

impl Layout {
    fn new(cfg: &ExploreConfig) -> Self {
        Layout {
            version: bits_for(cfg.max_writes as usize),
            line: bits_for(cfg.lines - 1),
            agent: bits_for(cfg.agents - 1),
            to_home_len: bits_for(cfg.fifo_capacity),
            to_agent_len: bits_for(2 * cfg.lines),
        }
    }

    /// The widest layout [`Explorer::new`] admits.
    const fn widest() -> Self {
        Layout {
            version: bits_for(MAX_WRITES as usize),
            line: bits_for(MAX_LINES - 1),
            agent: bits_for(MAX_AGENTS - 1),
            to_home_len: bits_for(MAX_FIFO),
            to_agent_len: bits_for(TO_AGENT_DEPTH),
        }
    }

    /// Bits of one agent's hold on one line.
    const fn hold(&self) -> u32 {
        STATE_BITS + self.version
    }

    /// Bits of a message that carries data.
    const fn msg(&self) -> u32 {
        KIND_BITS + self.line + self.version
    }

    /// Bits of a busy record among `n` agents: the requester, what it
    /// wants, the pending mask, and a flag plus version for the data.
    const fn busy(&self, n: u32) -> u32 {
        self.agent + WANT_BITS + n + 1 + self.version
    }

    /// Bits of the longest state at the envelope's limits, every line
    /// busy and every queue full of messages with data: per agent a
    /// hold per line; per line a record per agent, a busy flag and
    /// record; the per-line memory, latest and budget fields; every
    /// queue as a length and its messages.
    const fn max_bits(&self) -> usize {
        let (a, l) = (MAX_AGENTS, MAX_LINES);
        a * l * self.hold() as usize
            + l * (a * REC_BITS as usize + 1 + self.busy(MAX_AGENTS as u32) as usize)
            + 3 * l * self.version as usize
            + a * 3 * (self.to_home_len as usize + MAX_FIFO * self.msg() as usize)
            + a * (self.to_agent_len as usize + TO_AGENT_DEPTH * self.msg() as usize)
    }
}

/// Longest packed encoding of a [`ModelState`], in bytes.
const KEY_MAX: usize = Layout::widest().max_bits().div_ceil(8);

/// One packed encoding of a state, built on the stack: fields appended
/// most significant bit first, so comparing two encodings byte by byte
/// compares their leading fields as numbers.
///
/// Bits collect in a 128-bit accumulator that is flushed 64 at a time,
/// so the flush branch stays untaken for most of a key: a state of two
/// agents on two lines packs into about 100 bits.
struct Key {
    /// Eight bytes of slack take [`Key::finish`]'s whole-word store.
    buf: [u8; KEY_MAX + 8],
    len: usize,
    /// Bits not yet flushed to `buf`: the low `pending` bits.
    acc: u128,
    pending: u32,
}

impl Key {
    fn new() -> Self {
        Key {
            buf: [0; KEY_MAX + 8],
            len: 0,
            acc: 0,
            pending: 0,
        }
    }

    /// Appends `value` in `width` (at most 32) bits. The caller keeps
    /// every field within its width: [`ModelState::encode_under`]
    /// checks the bounds that are not structural.
    fn put(&mut self, value: u32, width: u32) {
        debug_assert!(
            width <= 32 && u64::from(value) >> width == 0,
            "{value} does not fit {width} bits"
        );
        // Shift counts below 64 (masking is a no-op for them) spare the
        // 128-bit shifts their fix-up for counts of 64 and more.
        self.acc = self.acc << (width & 63) | u128::from(value);
        self.pending += width;
        if self.pending >= 64 {
            self.pending -= 64;
            let word = (self.acc >> (self.pending & 63)) as u64;
            self.buf[self.len..self.len + 8].copy_from_slice(&word.to_be_bytes());
            self.len += 8;
        }
    }

    /// Appends a message: its kind, line and, if it carries data, its
    /// version. The width is computed rather than branched on.
    fn put_msg(&mut self, layout: &Layout, m: Msg) {
        let [kind, line, version] = m.encode().map(u32::from);
        let version_bits = layout.version * (DATA_KINDS >> kind & 1);
        let value = (kind << layout.line | line) << version_bits | version;
        self.put(value, KIND_BITS + layout.line + version_bits);
    }

    /// Flushes the pending bits, zero-padded to a whole byte.
    fn finish(&mut self) {
        let word = (self.acc << (64 - self.pending)) as u64;
        self.buf[self.len..self.len + 8].copy_from_slice(&word.to_be_bytes());
        self.len += self.pending.div_ceil(8) as usize;
        self.pending = 0;
    }

    fn bytes(&self) -> &[u8] {
        debug_assert_eq!(self.pending, 0, "unfinished key");
        &self.buf[..self.len]
    }
}

/// Reads the fields of a finished [`Key`] back in order.
struct Fields {
    /// The key, zero-padded so that any field's eight-byte window is in
    /// bounds.
    buf: [u8; KEY_MAX + 8],
    len: usize,
    /// Bit offset of the next field.
    at: usize,
}

impl Fields {
    fn new(bytes: &[u8]) -> Self {
        let mut buf = [0; KEY_MAX + 8];
        buf[..bytes.len()].copy_from_slice(bytes);
        Fields {
            buf,
            len: bytes.len(),
            at: 0,
        }
    }

    /// The next `width` (at most 32) bits as a number.
    fn get(&mut self, width: u32) -> u32 {
        let (byte, shift) = (self.at / 8, self.at % 8);
        let window: [u8; 8] = self.buf[byte..byte + 8].try_into().expect("eight bytes");
        self.at += width as usize;
        // Two shifts, so a zero width reads zero rather than shifting
        // by 64.
        ((u64::from_be_bytes(window) << shift >> 1) >> (63 - width)) as u32
    }

    /// Reads what [`Key::put_msg`] wrote.
    fn get_msg(&mut self, layout: &Layout) -> Msg {
        let head = self.get(KIND_BITS + layout.line);
        let kind = head >> layout.line;
        let line = head & ((1 << layout.line) - 1);
        let version = self.get(layout.version * (DATA_KINDS >> kind & 1));
        Msg::decode([kind, line, version].map(|v| v as u8))
    }

    /// Whether every byte was read (the last one up to its padding).
    fn done(&self) -> bool {
        self.at.div_ceil(8) == self.len
    }
}

/// Every permutation of the first `n` agents (`n` ≤ [`MAX_AGENTS`]),
/// the identity first; entries past `n` are padding.
fn permutations(n: usize) -> &'static [[usize; MAX_AGENTS]] {
    match n {
        3 => &[
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ],
        2 => &[[0, 1, 0], [1, 0, 0]],
        _ => &[[0, 0, 0]],
    }
}

/// What the home is waiting on for a busy line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Want {
    /// A Shared grant (downgrade probe outstanding).
    S,
    /// An ownership grant (invalidation probes outstanding).
    M,
    /// An upgrade ack (invalidation probes outstanding).
    Upg,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Busy {
    req: u8,
    want: Want,
    /// Bitmask of agents whose probe ack is still outstanding.
    pending: u8,
    /// Dirty data collected from a probe ack, if any.
    data: Option<u8>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HomeLine {
    /// Per-agent record, driven exclusively through
    /// [`RemoteCopy::step`].
    rec: [RemoteCopy; MAX_AGENTS],
    busy: Option<Busy>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Hold {
    st: AState,
    data: u8,
}

impl Hold {
    /// The hold as its packed field: the state code, then the version.
    fn code(self, layout: &Layout) -> u32 {
        u32::from(self.st.encode()) << layout.version | u32::from(self.data)
    }
}

/// The complete model state: a fixed-size `Copy` value, so a successor
/// is a copy and the search allocates nothing per state. Only the first
/// `n_agents` agents and `n_lines` lines are live; the rest stay at
/// their initial values. `Eq`/hashing go through
/// [`ModelState::canonical`].
///
/// # Queue bounds
///
/// Every agent-to-home push waits for a credit, so each `to_home` FIFO
/// holds at most `fifo_capacity` ≤ [`MAX_FIFO`] messages.
///
/// The home-to-agent queue is only partly credit-limited: invalidation
/// probes (`PrbI`) and a write grant that needs no probe are pushed
/// without a credit check. It is bounded per line instead. For each
/// line, an agent's queue holds at most
///
/// * **one probe**: the home probes only a line that is not busy, and a
///   probe makes the line busy with the agent in `pending` until the
///   agent's ack for it reaches the home, which the agent sends only
///   after taking the probe off its queue;
/// * **one response** (a grant or a victim ack): each answers one request
///   or victim of the agent for that line, which the agent sends from a
///   stable state and then stays transient until that answer arrives.
///
/// So a `to_agent` queue holds at most 2 × lines messages, whatever the
/// capacity: two agents on two lines queue four messages even at
/// capacity 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ModelState {
    n_agents: u8,
    n_lines: u8,
    /// `agents[a][l]`.
    agents: [[Hold; MAX_LINES]; MAX_AGENTS],
    home: [HomeLine; MAX_LINES],
    /// Memory's version of each line.
    mem: [u8; MAX_LINES],
    /// The globally latest version written to each line.
    latest: [u8; MAX_LINES],
    /// Remaining store budget per line.
    writes_left: [u8; MAX_LINES],
    /// `to_home[a][vc]`, vc in {REQ, RESP, EVICT}.
    to_home: [[Queue<Msg, MAX_FIFO>; 3]; MAX_AGENTS],
    /// Single in-order home-to-agent queue per agent.
    to_agent: [Queue<Msg, TO_AGENT_DEPTH>; MAX_AGENTS],
}

/// One transition of the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Issue { agent: u8, line: u8, write: bool },
    Upgrade { agent: u8, line: u8 },
    StoreLocal { agent: u8, line: u8 },
    Evict { agent: u8, line: u8 },
    DeliverHome { agent: u8, vc: u8 },
    DeliverAgent { agent: u8 },
}

impl std::fmt::Display for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Action::Issue { agent, line, write } => {
                let k = if *write { "store miss" } else { "load miss" };
                write!(f, "agent {agent}: {k} on line {line}")
            }
            Action::Upgrade { agent, line } => {
                write!(f, "agent {agent}: upgrade of line {line}")
            }
            Action::StoreLocal { agent, line } => {
                write!(f, "agent {agent}: silent store to line {line}")
            }
            Action::Evict { agent, line } => write!(f, "agent {agent}: evict line {line}"),
            Action::DeliverHome { agent, vc } => {
                let vc = ["request", "response", "eviction"][*vc as usize];
                write!(f, "home: deliver {vc} message from agent {agent}")
            }
            Action::DeliverAgent { agent } => write!(f, "agent {agent}: deliver home message"),
        }
    }
}

/// A message sent while applying an action, for trace rendering.
/// `from`/`to` of `None` designate the home.
#[derive(Debug, Clone, Copy, Default)]
struct Sent {
    from: Option<u8>,
    to: Option<u8>,
    msg: Msg,
}

/// The messages one step puts on the wire: a single message, or one
/// invalidation probe to every agent but the requester.
type SentLog = Queue<Sent, { MAX_AGENTS - 1 }>;

/// The outcome of one enabled transition: the next state plus the
/// messages the step sent, or a protocol-legality error detected while
/// stepping.
type StepResult = Result<(ModelState, SentLog), String>;

/// A successor, collected: the generic core's [`explore::Succ`] over a
/// [`StepResult`] (the log feeds trace rendering and is stripped off
/// before the state reaches the core).
type Succ = explore::Succ<(ModelState, SentLog), Action>;

impl ModelState {
    fn init(cfg: &ExploreConfig) -> Self {
        let idle = Hold {
            st: AState::I,
            data: 0,
        };
        ModelState {
            n_agents: cfg.agents as u8,
            n_lines: cfg.lines as u8,
            agents: [[idle; MAX_LINES]; MAX_AGENTS],
            home: [HomeLine {
                rec: [RemoteCopy::None; MAX_AGENTS],
                busy: None,
            }; MAX_LINES],
            mem: [0; MAX_LINES],
            latest: [0; MAX_LINES],
            writes_left: [cfg.max_writes; MAX_LINES],
            to_home: [[Queue::new(); 3]; MAX_AGENTS],
            to_agent: [Queue::new(); MAX_AGENTS],
        }
    }

    fn agents(&self) -> usize {
        self.n_agents as usize
    }

    fn lines(&self) -> usize {
        self.n_lines as usize
    }

    fn quiescent(&self) -> bool {
        let (n, lines) = (self.agents(), self.lines());
        self.agents[..n]
            .iter()
            .all(|a| a[..lines].iter().all(|h| h.st.stable()))
            && self.home[..lines].iter().all(|h| h.busy.is_none())
            && self.to_home[..n].iter().flatten().all(Queue::is_empty)
            && self.to_agent[..n].iter().all(Queue::is_empty)
    }

    /// The agents' hold blocks: agent `a`'s holds on every line as one
    /// number, line 0 most significant. Numeric order is the order of
    /// the encoded blocks.
    fn hold_blocks(&self, layout: &Layout) -> [u32; MAX_AGENTS] {
        std::array::from_fn(|a| {
            self.agents[a][..self.lines()]
                .iter()
                .fold(0, |acc, h| acc << layout.hold() | h.code(layout))
        })
    }

    /// The agents in ascending hold-block order, and whether two blocks
    /// tie.
    fn sorted_agents(&self, blocks: &[u32; MAX_AGENTS]) -> ([usize; MAX_AGENTS], bool) {
        // Insertion sort: at most three agents, so at most three
        // compare-and-swaps and no call into the library sort.
        let n = self.agents();
        let mut sorted = [0, 1, 2];
        for i in 1..n {
            let mut j = i;
            while j > 0 && blocks[sorted[j - 1]] > blocks[sorted[j]] {
                sorted.swap(j - 1, j);
                j -= 1;
            }
        }
        let tied = sorted[..n].windows(2).any(|w| blocks[w[0]] == blocks[w[1]]);
        (sorted, tied)
    }

    /// Encodes the state into `key` with its agents renumbered: `inv[new]`
    /// is the old index of new agent `new`; `blocks` are
    /// [`ModelState::hold_blocks`]. In order: every agent's hold block,
    /// all of one width; per line the home's records, a busy flag and
    /// the busy record; the per-line memory, latest and budget fields;
    /// per agent the lengths of its four queues; then every queued
    /// message. Fields are grouped so that one [`Key::put`] writes many.
    fn encode_under(
        &self,
        layout: &Layout,
        blocks: &[u32; MAX_AGENTS],
        inv: &[usize],
        key: &mut Key,
    ) {
        let (n, lines) = (inv.len() as u32, self.lines());
        // A field wider than its width would alias another state. Every
        // data version is a copy of its line's latest version at some
        // earlier step, and `latest` only grows, so bounding `latest`
        // bounds them all; the to-agent bound is checked below. The
        // other fields are bounded by their types or by credit checks.
        assert!(
            self.latest[..lines]
                .iter()
                .all(|&v| u32::from(v) >> layout.version == 0),
            "a data version beyond max_writes"
        );
        let mut perm = [0usize; MAX_AGENTS];
        for (new, &old) in inv.iter().enumerate() {
            perm[old] = new;
        }
        for &old in inv {
            key.put(blocks[old], lines as u32 * layout.hold());
        }
        for hl in &self.home[..lines] {
            let recs = inv
                .iter()
                .fold(0, |acc, &old| acc << REC_BITS | hl.rec[old] as u32);
            key.put(recs << 1 | u32::from(hl.busy.is_some()), n * REC_BITS + 1);
            if let Some(b) = hl.busy {
                let mut mask = 0;
                for (old, &new) in perm[..inv.len()].iter().enumerate() {
                    if b.pending & (1 << old) != 0 {
                        mask |= 1 << new;
                    }
                }
                let data = b.data.map_or(0, |v| 1 << layout.version | u32::from(v));
                let head = (perm[b.req as usize] as u32) << WANT_BITS | b.want as u32;
                key.put(
                    (head << n | mask) << (1 + layout.version) | data,
                    layout.busy(n),
                );
            }
        }
        let mut counters = 0;
        for field in [&self.mem, &self.latest, &self.writes_left] {
            for &v in &field[..lines] {
                counters = counters << layout.version | u32::from(v);
            }
        }
        key.put(counters, 3 * lines as u32 * layout.version);
        for &old in inv {
            let q = &self.to_agent[old];
            // The queue bound rests on the protocol argument on
            // `ModelState`; a longer queue must not alias a shorter one.
            assert!(q.len() <= 2 * lines, "to-agent queue beyond its bound");
            let lens = self.to_home[old]
                .iter()
                .fold(0, |acc, q| acc << layout.to_home_len | u32::from(q.len));
            key.put(
                lens << layout.to_agent_len | u32::from(q.len),
                3 * layout.to_home_len + layout.to_agent_len,
            );
        }
        for &old in inv {
            for q in &self.to_home[old] {
                for &m in q.as_slice() {
                    key.put_msg(layout, m);
                }
            }
            for &m in self.to_agent[old].as_slice() {
                key.put_msg(layout, m);
            }
        }
        key.finish();
    }

    /// Overwrites the state with what [`ModelState::encode_under`]
    /// encoded under the renaming `inv`. Only the live agents and lines
    /// are written: the rest must hold their initial values, as every
    /// state of one configuration does.
    fn decode_under(&mut self, layout: &Layout, inv: &[usize], bytes: &[u8]) {
        const RECORDS: [RemoteCopy; 3] = [RemoteCopy::None, RemoteCopy::Shared, RemoteCopy::Owner];
        const WANTS: [Want; 3] = [Want::S, Want::M, Want::Upg];
        let s = self;
        let (n, lines) = (inv.len() as u32, s.lines());
        let field = |value: u32, width: u32, index: usize, of: usize| {
            (value >> (width * (of - 1 - index) as u32)) & ((1 << width) - 1)
        };
        let mut f = Fields::new(bytes);
        for &old in inv {
            let block = f.get(lines as u32 * layout.hold());
            for (l, h) in s.agents[old][..lines].iter_mut().enumerate() {
                let code = field(block, layout.hold(), l, lines);
                h.st = AState::decode((code >> layout.version) as u8);
                h.data = (code & ((1 << layout.version) - 1)) as u8;
            }
        }
        for hl in &mut s.home[..lines] {
            let recs = f.get(n * REC_BITS + 1);
            for (new, &old) in inv.iter().enumerate() {
                hl.rec[old] = RECORDS[field(recs >> 1, REC_BITS, new, inv.len()) as usize];
            }
            hl.busy = None;
            if recs & 1 == 1 {
                let busy = f.get(layout.busy(n));
                let data = busy & ((1 << (1 + layout.version)) - 1);
                let rest = busy >> (1 + layout.version);
                let mut pending = 0;
                for (new, &old) in inv.iter().enumerate() {
                    pending |= ((rest >> new & 1) as u8) << old;
                }
                let rest = rest >> n;
                hl.busy = Some(Busy {
                    req: inv[(rest >> WANT_BITS) as usize] as u8,
                    want: WANTS[(rest & ((1 << WANT_BITS) - 1)) as usize],
                    pending,
                    data: (data >> layout.version == 1)
                        .then_some((data & ((1 << layout.version) - 1)) as u8),
                });
            }
        }
        let counters = f.get(3 * lines as u32 * layout.version);
        for (i, field_of) in [&mut s.mem, &mut s.latest, &mut s.writes_left]
            .into_iter()
            .enumerate()
        {
            for (l, v) in field_of[..lines].iter_mut().enumerate() {
                *v = field(counters, layout.version, i * lines + l, 3 * lines) as u8;
            }
        }
        let mut lens = [0; MAX_AGENTS];
        for &old in inv {
            lens[old] = f.get(3 * layout.to_home_len + layout.to_agent_len);
        }
        for &old in inv {
            let to_home = lens[old] >> layout.to_agent_len;
            for (i, q) in s.to_home[old].iter_mut().enumerate() {
                *q = Queue::new();
                for _ in 0..field(to_home, layout.to_home_len, i, 3) {
                    q.push_back(f.get_msg(layout));
                }
            }
            let q = &mut s.to_agent[old];
            *q = Queue::new();
            for _ in 0..lens[old] & ((1 << layout.to_agent_len) - 1) {
                q.push_back(f.get_msg(layout));
            }
        }
        debug_assert!(f.done(), "trailing bytes after a packed state");
    }

    /// The canonical encoding: minimal over all agent permutations.
    fn canonical(&self, layout: &Layout) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.canonical_into(layout, &mut out);
        out
    }

    /// Appends [`ModelState::canonical`] to `out`.
    ///
    /// Every encoding opens with the agents' hold blocks, all of one
    /// width, so the minimal one lists the agents in sorted block
    /// order: any other order has a larger prefix. Only agents whose
    /// blocks tie can still trade places, so only those orders are
    /// encoded and compared.
    fn canonical_into(&self, layout: &Layout, out: &mut Vec<u8>) {
        let n = self.agents();
        let blocks = self.hold_blocks(layout);
        let (sorted, tied) = self.sorted_agents(&blocks);
        let mut best = Key::new();
        self.encode_under(layout, &blocks, &sorted[..n], &mut best);
        if tied {
            for p in &permutations(n)[1..] {
                let mut inv = [0; MAX_AGENTS];
                for (slot, &i) in inv.iter_mut().zip(&p[..n]) {
                    *slot = sorted[i];
                }
                let inv = &inv[..n];
                if (0..n).all(|i| blocks[inv[i]] == blocks[sorted[i]]) {
                    let mut key = Key::new();
                    self.encode_under(layout, &blocks, inv, &mut key);
                    if key.bytes() < best.bytes() {
                        best = key;
                    }
                }
            }
        }
        out.extend_from_slice(best.bytes());
    }

    /// The canonical encoding by brute force: the minimum over every
    /// agent permutation.
    #[cfg(test)]
    fn canonical_all_permutations(&self, layout: &Layout) -> Vec<u8> {
        let blocks = self.hold_blocks(layout);
        permutations(self.agents())
            .iter()
            .map(|p| {
                let mut key = Key::new();
                self.encode_under(layout, &blocks, &p[..self.agents()], &mut key);
                key.bytes().to_vec()
            })
            .min()
            .expect("at least one permutation")
    }

    /// Checks the state invariants; `None` means clean.
    fn check(&self) -> Option<(ViolationKind, String)> {
        let agents = &self.agents[..self.agents()];
        for l in 0..self.lines() {
            let mut proj = [LineState::Invalid; MAX_AGENTS];
            for (p, ag) in proj.iter_mut().zip(agents) {
                *p = ag[l].st.project();
            }
            if let Err(e) = check_global_invariant(&proj[..agents.len()]) {
                return Some((ViolationKind::Swmr, format!("line {l}: {e}")));
            }
            for (a, hold) in agents.iter().map(|ag| &ag[l]).enumerate() {
                if hold.st.project().is_readable() && hold.data != self.latest[l] {
                    return Some((
                        ViolationKind::DataValue,
                        format!(
                            "line {l}: agent {a} ({:?}) holds version {} but the last \
                             store wrote version {}",
                            hold.st, hold.data, self.latest[l]
                        ),
                    ));
                }
            }
        }
        None
    }

    // -- transition helpers ------------------------------------------

    fn owner_of(&self, l: usize) -> Option<usize> {
        self.home[l].rec[..self.agents()]
            .iter()
            .position(|r| *r == RemoteCopy::Owner)
    }

    fn sharer_mask(&self, l: usize, except: usize) -> u8 {
        let mut mask = 0u8;
        for (x, r) in self.home[l].rec[..self.agents()].iter().enumerate() {
            if x != except && *r == RemoteCopy::Shared {
                mask |= 1 << x;
            }
        }
        mask
    }

    fn step_rec(&mut self, l: usize, a: usize, op: DirOp) -> Result<(), String> {
        self.home[l].rec[a] = self.home[l].rec[a].step(op).map_err(|e| e.to_string())?;
        Ok(())
    }

    /// Queues `msg` from the home to agent `to` and logs it.
    fn send_to_agent(&mut self, to: usize, msg: Msg, sent: &mut SentLog) {
        self.to_agent[to].push_back(msg);
        sent.push_back(Sent {
            from: None,
            to: Some(to as u8),
            msg,
        });
    }

    /// Queues `msg` from agent `from` on home channel `vc` and logs it.
    fn send_to_home(&mut self, from: usize, vc: usize, msg: Msg, sent: &mut SentLog) {
        self.to_home[from][vc].push_back(msg);
        sent.push_back(Sent {
            from: Some(from as u8),
            to: None,
            msg,
        });
    }

    /// Applies a store at the moment its grant lands.
    fn store(&mut self, a: usize, l: usize) {
        self.latest[l] = self.latest[l].wrapping_add(1);
        self.agents[a][l] = Hold {
            st: AState::M,
            data: self.latest[l],
        };
    }

    /// Processes a request at the head of agent `a`'s request FIFO.
    /// `Ok(None)` means the step is currently blocked (busy line or no
    /// output credit) and must stay queued.
    fn home_request(
        &mut self,
        cfg: &ExploreConfig,
        a: usize,
        m: Msg,
        sent: &mut SentLog,
    ) -> Result<Option<()>, String> {
        let l = m.line() as usize;
        if self.home[l].busy.is_some() {
            return Ok(None);
        }
        match m {
            Msg::GetS(_) => {
                // Victim acknowledgement guarantees the record is clear
                // before the agent can re-request; a stale record here
                // is a protocol bug.
                if self.home[l].rec[a] != RemoteCopy::None {
                    return Err(format!(
                        "GetS from agent {a} with a live record {:?}",
                        self.home[l].rec[a]
                    ));
                }
                if let Some(o) = self.owner_of(l) {
                    if cfg.mutation == Some(Mutation::GrantSharedWhileOwned) {
                        if self.to_agent[a].len() >= cfg.fifo_capacity {
                            return Ok(None);
                        }
                        // The injected bug: serve from (stale) memory
                        // while the owner still holds the line dirty.
                        self.send_to_agent(a, Msg::DataS(l as u8, self.mem[l]), sent);
                        self.home[l].rec[a] = RemoteCopy::Shared;
                        return Ok(Some(()));
                    }
                    if self.to_agent[o].len() >= cfg.fifo_capacity {
                        return Ok(None);
                    }
                    self.send_to_agent(o, Msg::PrbS(l as u8), sent);
                    self.home[l].busy = Some(Busy {
                        req: a as u8,
                        want: Want::S,
                        pending: 1 << o,
                        data: None,
                    });
                } else {
                    if self.to_agent[a].len() >= cfg.fifo_capacity {
                        return Ok(None);
                    }
                    if cfg.e_grant && self.sharer_mask(l, a) == 0 {
                        self.send_to_agent(a, Msg::DataE(l as u8, self.mem[l]), sent);
                        self.step_rec(l, a, DirOp::GrantOwner)?;
                    } else {
                        self.send_to_agent(a, Msg::DataS(l as u8, self.mem[l]), sent);
                        self.step_rec(l, a, DirOp::GrantShared)?;
                    }
                }
            }
            Msg::GetM(_) => {
                if self.home[l].rec[a] != RemoteCopy::None {
                    return Err(format!(
                        "GetM from agent {a} with a live record {:?}",
                        self.home[l].rec[a]
                    ));
                }
                self.home_acquire_for_write(a, l, Want::M, sent)?;
            }
            Msg::Upg(_) => match self.home[l].rec[a] {
                // The requester's copy was invalidated while the upgrade
                // was in flight; it has already converted to a full
                // store miss and expects data.
                RemoteCopy::None => {
                    self.home_acquire_for_write(a, l, Want::M, sent)?;
                }
                RemoteCopy::Shared | RemoteCopy::Owner => {
                    if cfg.mutation == Some(Mutation::SkipInvalidateOnUpgrade) {
                        if self.to_agent[a].len() >= cfg.fifo_capacity {
                            return Ok(None);
                        }
                        // The injected bug: ack the upgrade with the
                        // other sharers still holding readable copies.
                        self.send_to_agent(a, Msg::AckM(l as u8), sent);
                        if self.home[l].rec[a] != RemoteCopy::Owner {
                            self.step_rec(l, a, DirOp::GrantOwner)?;
                        }
                        return Ok(Some(()));
                    }
                    self.home_acquire_for_write(a, l, Want::Upg, sent)?;
                }
            },
            _ => return Err(format!("{m:?} on the request channel")),
        }
        Ok(Some(()))
    }

    /// Shared tail of GetM/Upg: invalidate every other copy, then grant.
    /// Neither the probes nor a grant that needs no probe wait for a
    /// credit; the per-line bound on [`ModelState`] caps them.
    fn home_acquire_for_write(
        &mut self,
        a: usize,
        l: usize,
        want: Want,
        sent: &mut SentLog,
    ) -> Result<(), String> {
        let mut mask = self.sharer_mask(l, a);
        if let Some(o) = self.owner_of(l) {
            if o != a {
                mask |= 1 << o;
            }
        }
        if mask == 0 {
            return self.grant_write(a, l, want, None, sent);
        }
        for x in 0..self.agents() {
            if mask & (1 << x) != 0 {
                self.send_to_agent(x, Msg::PrbI(l as u8), sent);
            }
        }
        self.home[l].busy = Some(Busy {
            req: a as u8,
            want,
            pending: mask,
            data: None,
        });
        Ok(())
    }

    /// Completes a write acquisition: data grant or upgrade ack.
    fn grant_write(
        &mut self,
        a: usize,
        l: usize,
        want: Want,
        data: Option<u8>,
        sent: &mut SentLog,
    ) -> Result<(), String> {
        let msg = match want {
            Want::Upg => Msg::AckM(l as u8),
            _ => Msg::DataE(l as u8, data.unwrap_or(self.mem[l])),
        };
        self.send_to_agent(a, msg, sent);
        if self.home[l].rec[a] != RemoteCopy::Owner {
            self.step_rec(l, a, DirOp::GrantOwner)?;
        }
        Ok(())
    }

    /// Processes a probe ack from agent `x`.
    fn home_probe_ack(
        &mut self,
        cfg: &ExploreConfig,
        x: usize,
        m: Msg,
        sent: &mut SentLog,
    ) -> Result<Option<()>, String> {
        let l = m.line() as usize;
        let Some(mut busy) = self.home[l].busy else {
            return Err(format!("probe ack from agent {x} with line {l} not busy"));
        };
        if busy.pending & (1 << x) == 0 {
            return Err(format!("unexpected probe ack from agent {x} on line {l}"));
        }
        // Completion needs an output credit towards the requester.
        if busy.pending.count_ones() == 1
            && self.to_agent[busy.req as usize].len() >= cfg.fifo_capacity
        {
            return Ok(None);
        }
        match (busy.want, m) {
            (Want::S, Msg::PAckD(_, v)) => {
                // Dirty downgrade: the data comes home; the ex-owner
                // keeps an Owned copy, so the record stays Owner.
                self.mem[l] = v;
                busy.data = Some(v);
            }
            (Want::S, Msg::PAck(_)) => {
                // Clean downgrade (Exclusive or already-gone copy).
                if self.home[l].rec[x] == RemoteCopy::Owner {
                    self.step_rec(l, x, DirOp::Downgrade)?;
                }
            }
            (Want::M | Want::Upg, Msg::PAckD(_, v)) => {
                self.mem[l] = v;
                busy.data = Some(v);
                self.step_rec(l, x, DirOp::Revoke)?;
            }
            (Want::M | Want::Upg, Msg::PAck(_)) => {
                self.step_rec(l, x, DirOp::Revoke)?;
            }
            _ => return Err(format!("{m:?} as a probe ack")),
        }
        busy.pending &= !(1 << x);
        if busy.pending == 0 {
            self.home[l].busy = None;
            let req = busy.req as usize;
            match busy.want {
                Want::S => {
                    let data = busy.data.unwrap_or(self.mem[l]);
                    self.send_to_agent(req, Msg::DataS(l as u8, data), sent);
                    self.step_rec(l, req, DirOp::GrantShared)?;
                }
                w => self.grant_write(req, l, w, busy.data, sent)?,
            }
        } else {
            self.home[l].busy = Some(busy);
        }
        Ok(Some(()))
    }

    /// Processes a victim notification from agent `a`.
    fn home_victim(
        &mut self,
        cfg: &ExploreConfig,
        a: usize,
        m: Msg,
        sent: &mut SentLog,
    ) -> Result<Option<()>, String> {
        let l = m.line() as usize;
        match m {
            Msg::VicD(_, v) => {
                if self.to_agent[a].len() >= cfg.fifo_capacity {
                    return Ok(None);
                }
                if self.home[l].rec[a] == RemoteCopy::Owner
                    && cfg.mutation != Some(Mutation::ForgetVictimData)
                {
                    self.mem[l] = v;
                }
                // A victim ends the agent's tenure whatever the record
                // says: a crossing probe may have already downgraded or
                // revoked it, in which case the data is stale and
                // dropped (a fresher copy reached memory via the probe
                // ack), but the record must still be cleared.
                self.step_rec(l, a, DirOp::Revoke)?;
                self.send_to_agent(a, Msg::VicAck(l as u8), sent);
            }
            Msg::VicC(_) => {
                if self.to_agent[a].len() >= cfg.fifo_capacity {
                    return Ok(None);
                }
                // The record may already be clear if a crossing probe
                // revoked the copy first; the ack is still owed.
                if self.home[l].rec[a] != RemoteCopy::None {
                    self.step_rec(l, a, DirOp::Revoke)?;
                }
                self.send_to_agent(a, Msg::VicAck(l as u8), sent);
            }
            _ => return Err(format!("{m:?} on the eviction channel")),
        }
        Ok(Some(()))
    }

    /// Processes the message at the head of agent `a`'s inbound queue.
    fn agent_receive(
        &mut self,
        cfg: &ExploreConfig,
        a: usize,
        m: Msg,
        sent: &mut SentLog,
    ) -> Result<Option<()>, String> {
        let l = m.line() as usize;
        let st = self.agents[a][l].st;
        match m {
            Msg::DataS(_, v) => match st {
                AState::IsD => {
                    self.agents[a][l] = Hold {
                        st: AState::S,
                        data: v,
                    }
                }
                _ => return Err(format!("DataS while agent {a} line {l} is {st:?}")),
            },
            Msg::DataE(_, v) => match st {
                AState::IsD => {
                    self.agents[a][l] = Hold {
                        st: AState::E,
                        data: v,
                    }
                }
                AState::ImD => self.store(a, l),
                _ => return Err(format!("DataE while agent {a} line {l} is {st:?}")),
            },
            Msg::AckM(_) => match st {
                AState::SmA | AState::OmA => self.store(a, l),
                _ => return Err(format!("AckM while agent {a} line {l} is {st:?}")),
            },
            Msg::VicAck(_) => match st {
                AState::MiA | AState::IiA | AState::CiA => self.agents[a][l].st = AState::I,
                _ => return Err(format!("VicAck while agent {a} line {l} is {st:?}")),
            },
            Msg::PrbS(_) | Msg::PrbI(_) => {
                let invalidate = matches!(m, Msg::PrbI(_));
                let drop_ack = cfg.mutation == Some(Mutation::DropProbeAck);
                if !drop_ack && self.to_home[a][VC_RESP].len() >= cfg.fifo_capacity {
                    return Ok(None);
                }
                let hold = self.agents[a][l];
                let (next, dirty) = match st {
                    // Stable states follow the pure probe relation.
                    AState::I | AState::S | AState::E | AState::O | AState::M => {
                        let p = probe_step(st.project(), invalidate);
                        let next = match p.next {
                            LineState::Invalid => AState::I,
                            LineState::Shared => AState::S,
                            LineState::Owned => AState::O,
                            s => {
                                return Err(format!("probe left agent {a} line {l} in {s}"));
                            }
                        };
                        (next, p.supplies_data)
                    }
                    // Transients waiting on data hold no copy yet.
                    AState::IsD | AState::ImD => (st, false),
                    // An invalidation converts a pending upgrade into a
                    // full store miss; a downgrade leaves it pending.
                    AState::SmA => (if invalidate { AState::ImD } else { AState::SmA }, false),
                    AState::OmA => (if invalidate { AState::ImD } else { AState::OmA }, true),
                    // A crossing probe takes the in-flight victim data.
                    AState::MiA => (AState::IiA, true),
                    AState::IiA | AState::CiA => (st, false),
                };
                self.agents[a][l].st = next;
                if next == AState::I || next == AState::ImD || next == AState::IiA {
                    self.agents[a][l].data = 0;
                }
                if !drop_ack {
                    let reply = if dirty {
                        Msg::PAckD(l as u8, hold.data)
                    } else {
                        Msg::PAck(l as u8)
                    };
                    self.send_to_home(a, VC_RESP, reply, sent);
                }
            }
            _ => return Err(format!("{m:?} sent towards an agent")),
        }
        Ok(Some(()))
    }

    /// Every enabled transition, in a fixed deterministic order, handed
    /// to `emit` as it is generated.
    fn each_successor(&self, cfg: &ExploreConfig, mut emit: impl FnMut(Action, StepResult)) {
        let n = self.agents();
        // Agent-local actions: issues, upgrades, silent stores, evicts.
        for a in 0..n {
            for l in 0..self.lines() {
                let hold = self.agents[a][l];
                if !hold.st.stable() {
                    continue;
                }
                let room = self.to_home[a][VC_REQ].len() < cfg.fifo_capacity;
                for write in [false, true] {
                    let step = local_step(hold.st.project(), write);
                    match step.request {
                        Some(CoherenceRequest::ReadShared) if room && !write => {
                            let (action, next) = self.apply_issue(a, l, false, Msg::GetS(l as u8));
                            emit(action, Ok(next));
                        }
                        Some(CoherenceRequest::ReadExclusive)
                            if room && write && self.writes_left[l] > 0 =>
                        {
                            let (action, next) = self.apply_issue(a, l, true, Msg::GetM(l as u8));
                            emit(action, Ok(next));
                        }
                        Some(CoherenceRequest::Upgrade)
                            if room && write && self.writes_left[l] > 0 =>
                        {
                            let (action, next) = self.apply_issue(a, l, true, Msg::Upg(l as u8));
                            emit(action, Ok(next));
                        }
                        None if write
                            && self.writes_left[l] > 0
                            && hold.st.project().is_writable() =>
                        {
                            let mut s = *self;
                            s.writes_left[l] -= 1;
                            s.store(a, l);
                            let action = Action::StoreLocal {
                                agent: a as u8,
                                line: l as u8,
                            };
                            emit(action, Ok((s, SentLog::new())));
                        }
                        _ => {}
                    }
                }
                // Voluntary eviction.
                let evict_room = self.to_home[a][VC_EVICT].len() < cfg.fifo_capacity;
                if evict_room && hold.st != AState::I {
                    let mut s = *self;
                    let msg = if hold.st.project().is_dirty() {
                        s.agents[a][l].st = AState::MiA;
                        Msg::VicD(l as u8, hold.data)
                    } else {
                        s.agents[a][l] = Hold {
                            st: AState::CiA,
                            data: 0,
                        };
                        Msg::VicC(l as u8)
                    };
                    let mut sent = SentLog::new();
                    s.send_to_home(a, VC_EVICT, msg, &mut sent);
                    let action = Action::Evict {
                        agent: a as u8,
                        line: l as u8,
                    };
                    emit(action, Ok((s, sent)));
                }
            }
        }
        // Message deliveries.
        for a in 0..n {
            for vc in [VC_REQ, VC_RESP, VC_EVICT] {
                if let Some(m) = self.to_home[a][vc].front() {
                    let mut s = *self;
                    s.to_home[a][vc].pop_front();
                    let mut sent = SentLog::new();
                    let r = match vc {
                        VC_REQ => s.home_request(cfg, a, m, &mut sent),
                        VC_RESP => s.home_probe_ack(cfg, a, m, &mut sent),
                        _ => s.home_victim(cfg, a, m, &mut sent),
                    };
                    let action = Action::DeliverHome {
                        agent: a as u8,
                        vc: vc as u8,
                    };
                    match r {
                        Ok(Some(())) => emit(action, Ok((s, sent))),
                        Ok(None) => {} // blocked; stays queued
                        Err(e) => emit(action, Err(e)),
                    }
                }
            }
            if let Some(m) = self.to_agent[a].front() {
                let mut s = *self;
                s.to_agent[a].pop_front();
                let mut sent = SentLog::new();
                let action = Action::DeliverAgent { agent: a as u8 };
                match s.agent_receive(cfg, a, m, &mut sent) {
                    Ok(Some(())) => emit(action, Ok((s, sent))),
                    Ok(None) => {}
                    Err(e) => emit(action, Err(e)),
                }
            }
        }
    }

    /// Every enabled transition, collected in [`each_successor`] order:
    /// the replay and test view of the successor relation.
    ///
    /// [`each_successor`]: ModelState::each_successor
    fn successors(&self, cfg: &ExploreConfig) -> Vec<Succ> {
        let mut out = Vec::new();
        self.each_successor(cfg, |action, result| out.push(Succ { action, result }));
        out
    }

    fn apply_issue(
        &self,
        a: usize,
        l: usize,
        write: bool,
        msg: Msg,
    ) -> (Action, (ModelState, SentLog)) {
        let mut s = *self;
        s.agents[a][l].st = match (msg, s.agents[a][l].st) {
            (Msg::GetS(_), _) => AState::IsD,
            (Msg::GetM(_), _) => AState::ImD,
            (Msg::Upg(_), AState::O) => AState::OmA,
            (Msg::Upg(_), _) => AState::SmA,
            _ => unreachable!("issue of a non-request"),
        };
        if write {
            s.writes_left[l] -= 1;
        }
        if matches!(msg, Msg::GetS(_) | Msg::GetM(_)) {
            s.agents[a][l].data = 0;
        }
        let mut sent = SentLog::new();
        s.send_to_home(a, VC_REQ, msg, &mut sent);
        let action = if matches!(msg, Msg::Upg(_)) {
            Action::Upgrade {
                agent: a as u8,
                line: l as u8,
            }
        } else {
            Action::Issue {
                agent: a as u8,
                line: l as u8,
                write,
            }
        };
        (action, (s, sent))
    }

    /// Maps a model message onto the real ECI message set for trace
    /// rendering. The home renders as the CPU node, every agent as the
    /// FPGA node, and the transaction id carries the agent index.
    fn wire_message(sent: &Sent) -> Message {
        let line = CacheLine(sent.msg.line() as u64);
        let payload = |v: u8| Box::new([v; 128]);
        let kind = match sent.msg {
            Msg::GetS(_) => MessageKind::ReadShared(line),
            Msg::GetM(_) => MessageKind::ReadExclusive(line),
            Msg::Upg(_) => MessageKind::Upgrade(line),
            Msg::VicD(_, v) => MessageKind::VictimDirty(line, payload(v)),
            Msg::VicC(_) => MessageKind::VictimClean(line),
            Msg::PAck(_) => MessageKind::ProbeAck(line),
            Msg::PAckD(_, v) => MessageKind::ProbeAckData(line, payload(v)),
            Msg::DataS(_, v) => MessageKind::DataShared(line, payload(v)),
            Msg::DataE(_, v) => MessageKind::DataExclusive(line, payload(v)),
            Msg::AckM(_) | Msg::VicAck(_) => MessageKind::Ack(line),
            Msg::PrbS(_) => MessageKind::ProbeShared(line),
            Msg::PrbI(_) => MessageKind::ProbeInvalidate(line),
        };
        let (src, dst, agent) = match (sent.from, sent.to) {
            (Some(a), None) => (NodeId::Fpga, NodeId::Cpu, a),
            (None, Some(a)) => (NodeId::Cpu, NodeId::Fpga, a),
            _ => unreachable!("model messages travel between an agent and the home"),
        };
        Message::new(src, dst, TxnId(agent as u32), kind)
    }
}

// ---------------------------------------------------------------------
// The explorer
// ---------------------------------------------------------------------

/// The MOESI instance of the generic [`ProtocolModel`]: the coherence
/// model above, exposed to the [`enzian_sim::explore`] core. The sent-
/// message log each step produces is internal to trace rendering, so
/// the trait's state is the bare [`ModelState`] and
/// [`MoesiModel::render_path`] re-derives the log by replay.
struct MoesiModel {
    cfg: ExploreConfig,
    layout: Layout,
}

/// The agents in their own order, for encodings that rename nothing.
const IDENTITY: [usize; MAX_AGENTS] = [0, 1, 2];

impl MoesiModel {
    fn new(cfg: ExploreConfig) -> Self {
        MoesiModel {
            cfg,
            layout: Layout::new(&cfg),
        }
    }
}

/// A queued state is one byte naming a renaming of the agents, then the
/// state encoded under that renaming. Unpacking decodes and undoes the
/// renaming, so it restores the very state, not a symmetric one. It
/// writes the live agents and lines only; the rest of every state keeps
/// its initial value.
///
/// Without tied hold blocks the canonical key is the encoding under the
/// sorted renaming, so packing copies the key the search computed; with
/// a tie it encodes the state afresh, under no renaming.
impl PackedModel for MoesiModel {
    fn pack_into(&self, state: &ModelState, key: &[u8], out: &mut Vec<u8>) {
        let n = state.agents();
        let blocks = state.hold_blocks(&self.layout);
        let (sorted, tied) = state.sorted_agents(&blocks);
        if !tied {
            out.push(renaming_code(&sorted[..n]));
            out.extend_from_slice(key);
        } else {
            let mut own = Key::new();
            state.encode_under(&self.layout, &blocks, &IDENTITY[..n], &mut own);
            out.push(renaming_code(&IDENTITY[..n]));
            out.extend_from_slice(own.bytes());
        }
    }

    fn unpack_into(&self, packed: &[u8], state: &mut ModelState) {
        let (&code, bytes) = packed.split_first().expect("a renaming byte");
        let inv: [usize; MAX_AGENTS] = std::array::from_fn(|i| usize::from(code >> (2 * i) & 3));
        state.decode_under(&self.layout, &inv[..self.cfg.agents], bytes);
    }
}

/// A renaming `inv` (new agent `i` is old agent `inv[i]`) as one byte,
/// two bits per agent.
fn renaming_code(inv: &[usize]) -> u8 {
    inv.iter().rev().fold(0, |acc, &old| acc << 2 | old as u8)
}

impl ProtocolModel for MoesiModel {
    type State = ModelState;
    type Action = Action;
    type Kind = ViolationKind;

    fn initial(&self) -> ModelState {
        ModelState::init(&self.cfg)
    }

    fn successors(&self, state: &ModelState) -> Vec<explore::Succ<ModelState, Action>> {
        let mut out = Vec::new();
        self.successors_into(state, &mut out);
        out
    }

    fn successors_into(
        &self,
        state: &ModelState,
        out: &mut Vec<explore::Succ<ModelState, Action>>,
    ) {
        state.each_successor(&self.cfg, |action, result| {
            out.push(explore::Succ {
                action,
                result: result.map(|(state, _sent)| state),
            });
        });
    }

    fn quiescent(&self, state: &ModelState) -> bool {
        state.quiescent()
    }

    fn canonical(&self, state: &ModelState) -> Vec<u8> {
        state.canonical(&self.layout)
    }

    fn canonical_into(&self, state: &ModelState, out: &mut Vec<u8>) {
        state.canonical_into(&self.layout, out);
    }

    fn check(&self, state: &ModelState) -> Option<(ViolationKind, String)> {
        state.check()
    }

    /// Replays `path` from the initial state and renders every message
    /// the replay puts on the wire through the real wire encoding and
    /// [`crate::decoder`].
    fn render_path(&self, path: &[Action]) -> String {
        let mut state = ModelState::init(&self.cfg);
        let mut buf = TraceBuffer::new();
        let mut step = 0u64;
        for action in path {
            let succs = state.successors(&self.cfg);
            let Some(succ) = succs.iter().find(|s| s.action == *action) else {
                break; // the final action errored; nothing more to replay
            };
            if let Ok((next, sent)) = &succ.result {
                for s in sent.as_slice() {
                    buf.capture(
                        Time::ZERO + Duration::from_ns(step),
                        &ModelState::wire_message(s),
                    );
                    step += 1;
                }
                state = *next;
            }
        }
        format_trace(&buf)
    }
}

/// Converts the generic core's counterexample into the ECI-flavoured
/// report, folding the core's deadlock/illegal-step classes into
/// [`ViolationKind`].
fn into_report(cx: Counterexample<ViolationKind>) -> ViolationReport {
    ViolationReport {
        kind: match cx.violation {
            Violation::Invariant(kind) => kind,
            Violation::Deadlock => ViolationKind::Deadlock,
            Violation::IllegalStep => ViolationKind::Protocol,
        },
        description: cx.description,
        actions: cx.actions,
        trace: cx.trace,
    }
}

/// The state-space explorer. See the module docs for the model and the
/// invariants it checks.
#[derive(Debug, Clone)]
pub struct Explorer {
    cfg: ExploreConfig,
}

impl Explorer {
    /// Creates an explorer for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is outside the tractable envelope
    /// (1–3 agents, 1–4 lines, FIFO capacity 1–[`MAX_FIFO`], at most
    /// [`MAX_WRITES`] stores per line). The packed state encoding sizes
    /// its fields from these bounds.
    pub fn new(cfg: ExploreConfig) -> Self {
        assert!(
            (1..=MAX_AGENTS).contains(&cfg.agents),
            "agents must be 1..={MAX_AGENTS}, got {}",
            cfg.agents
        );
        assert!(
            (1..=MAX_LINES).contains(&cfg.lines),
            "lines must be 1..={MAX_LINES}, got {}",
            cfg.lines
        );
        assert!(
            (1..=MAX_FIFO).contains(&cfg.fifo_capacity),
            "fifo_capacity must be 1..={MAX_FIFO}, got {}",
            cfg.fifo_capacity
        );
        assert!(
            cfg.max_writes <= MAX_WRITES,
            "max_writes must be 0..={MAX_WRITES}, got {}",
            cfg.max_writes
        );
        Explorer { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &ExploreConfig {
        &self.cfg
    }

    /// Exhaustive canonicalized BFS from the initial state. Returns the
    /// statistics and the first (shortest-path) violation found, if any.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::StateLimit`] if the state budget runs
    /// out before the frontier drains.
    pub fn run_exhaustive(&self) -> Result<ExploreOutcome, ExploreError> {
        let model = MoesiModel::new(self.cfg);
        let out = explore::explore_packed(&model, self.cfg.max_states)
            .map_err(|e| ExploreError::StateLimit { limit: e.limit })?;
        Ok(ExploreOutcome {
            stats: out.stats,
            violation: out.violation.map(into_report),
        })
    }

    /// Seeded random walk: follows one pseudo-random enabled transition
    /// per step for up to `max_steps` steps, checking the same
    /// invariants as the exhaustive search. Deterministic for a given
    /// seed and configuration. Useful for configurations whose full
    /// state space is out of reach.
    pub fn random_walk(&self, seed: u64, max_steps: u64) -> ExploreOutcome {
        let model = MoesiModel::new(self.cfg);
        let out = explore::random_walk(&model, seed, max_steps);
        ExploreOutcome {
            stats: out.stats,
            violation: out.violation.map(into_report),
        }
    }

    /// Conformance walk against the real transaction engine: drives an
    /// [`EciSystem`] with a seeded op mix over a handful of shared
    /// lines, bounding every drain with
    /// [`EciSystem::run_to_idle_bounded`] so an engine livelock
    /// surfaces as [`ExploreError::Livelock`] instead of a hang, and
    /// checking the engine's online protocol checker stayed clean.
    ///
    /// # Errors
    ///
    /// [`ExploreError::Livelock`] if an event budget is exhausted;
    /// [`ExploreError::EngineDivergence`] if the online checker flagged
    /// a violation.
    pub fn engine_walk(
        seed: u64,
        ops: usize,
        max_events: u64,
    ) -> Result<ExploreStats, ExploreError> {
        let mut sys = EciSystem::new(EciSystemConfig::enzian());
        let mut rng = SplitMix64::new(seed);
        let lines: Vec<Addr> = (0..4).map(|i| Addr(0x40_000 + i * 128)).collect();
        let mut events = 0u64;
        let mut batch = Vec::new();
        for i in 0..ops {
            let addr = lines[(rng.next() % lines.len() as u64) as usize];
            let op = match rng.next() % 4 {
                0 => TxnOp::FpgaRead,
                1 => TxnOp::FpgaWrite([i as u8; 128]),
                2 => TxnOp::CpuRead,
                _ => TxnOp::CpuWrite([i as u8; 128]),
            };
            batch.push(sys.issue(Time::ZERO, addr, op));
            if batch.len() == 4 || i + 1 == ops {
                events += sys
                    .run_to_idle_bounded(max_events)
                    .map_err(ExploreError::Livelock)?;
                batch.clear();
            }
        }
        if !sys.checker().violations().is_empty() {
            return Err(ExploreError::EngineDivergence(format!(
                "{} checker violations after {ops} ops",
                sys.checker().violations().len()
            )));
        }
        Ok(ExploreStats {
            states: ops as u64,
            transitions: events,
            frontier_peak: 0,
            max_depth: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_pipelined_search_equals_the_serial_search() {
        let cfg = ExploreConfig::two_agent().with_lines(2).with_max_writes(1);
        let model = MoesiModel::new(cfg);
        let serial = explore::explore(&model, cfg.max_states).expect("within state budget");
        let packed = explore::explore_packed(&model, cfg.max_states).expect("within state budget");
        assert_eq!(serial.stats, packed.stats);
        assert_eq!(
            serial.violation.map(|cx| cx.to_string()),
            packed.violation.map(|cx| cx.to_string())
        );
        assert_eq!(serial.stats.states, 112_943);
    }

    #[test]
    fn two_agent_one_line_is_clean() {
        let out = Explorer::new(ExploreConfig::two_agent())
            .run_exhaustive()
            .expect("within state budget");
        assert!(
            out.violation.is_none(),
            "unexpected violation:\n{}",
            out.violation.unwrap()
        );
        assert!(out.stats.states > 500, "suspiciously small state space");
        assert!(out.stats.transitions > out.stats.states);
    }

    #[test]
    fn exploration_is_deterministic() {
        let run = || {
            Explorer::new(ExploreConfig::two_agent())
                .run_exhaustive()
                .unwrap()
                .stats
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn no_e_grant_variant_is_clean_too() {
        let out = Explorer::new(ExploreConfig::two_agent().with_e_grant(false))
            .run_exhaustive()
            .expect("within state budget");
        assert!(out.violation.is_none());
    }

    #[test]
    fn every_mutation_is_caught_with_a_decoded_counterexample() {
        for m in ALL_MUTATIONS {
            let cfg = ExploreConfig::two_agent().with_mutation(Some(m));
            let out = Explorer::new(cfg).run_exhaustive().expect("budget");
            let v = out
                .violation
                .unwrap_or_else(|| panic!("{m:?} was not caught"));
            match m {
                Mutation::GrantSharedWhileOwned | Mutation::SkipInvalidateOnUpgrade => {
                    assert!(
                        matches!(v.kind, ViolationKind::Swmr | ViolationKind::DataValue),
                        "{m:?} flagged as {:?}",
                        v.kind
                    );
                }
                Mutation::ForgetVictimData => {
                    assert_eq!(v.kind, ViolationKind::DataValue, "{m:?}: {v}");
                }
                Mutation::DropProbeAck => {
                    assert_eq!(v.kind, ViolationKind::Deadlock, "{m:?}: {v}");
                }
            }
            assert!(!v.actions.is_empty(), "{m:?}: empty action path");
            // The counterexample trace went through the real wire
            // format and decoder.
            if m != Mutation::DropProbeAck {
                assert!(
                    v.trace.contains("cpu") && v.trace.contains("fpga"),
                    "{m:?}: trace not decoded:\n{}",
                    v.trace
                );
            }
        }
    }

    #[test]
    fn state_limit_is_a_checked_error() {
        let cfg = ExploreConfig::two_agent().with_max_states(10);
        let err = Explorer::new(cfg).run_exhaustive().unwrap_err();
        assert_eq!(err, ExploreError::StateLimit { limit: 10 });
        assert!(err.to_string().contains("10"));
    }

    #[test]
    fn random_walk_is_deterministic_and_clean() {
        let e = Explorer::new(ExploreConfig::three_agent().with_lines(2));
        let a = e.random_walk(7, 4_000);
        let b = e.random_walk(7, 4_000);
        assert_eq!(a.stats, b.stats);
        assert!(a.violation.is_none(), "{}", a.violation.unwrap());
        assert!(a.stats.transitions > 0);
    }

    #[test]
    fn random_walk_finds_an_injected_bug() {
        let cfg = ExploreConfig::two_agent().with_mutation(Some(Mutation::ForgetVictimData));
        let e = Explorer::new(cfg);
        // Some seed in a small set must trip over the bug.
        let found = (0..8).any(|seed| e.random_walk(seed, 20_000).violation.is_some());
        assert!(found, "no seed found the forgotten write-back");
    }

    #[test]
    fn engine_walk_conforms_and_bounds_livelock() {
        let stats = Explorer::engine_walk(3, 32, 200_000).expect("engine walk clean");
        assert_eq!(stats.states, 32);
        assert!(stats.transitions > 0);
        // A starved budget must surface as a checked livelock error,
        // not a hang.
        let err = Explorer::engine_walk(3, 32, 3).unwrap_err();
        assert!(matches!(err, ExploreError::Livelock(_)), "{err}");
        assert!(err.to_string().contains("event budget"));
    }

    #[test]
    fn canonicalization_merges_symmetric_states() {
        // Agent 0 reads, vs agent 1 reads: one canonical state each
        // step, so the visited count with 2 agents must be well below
        // 2x the asymmetric count.
        let cfg = ExploreConfig::two_agent();
        let layout = Layout::new(&cfg);
        let st = ModelState::init(&cfg);
        let succs = st.successors(&cfg);
        let keys: Vec<Vec<u8>> = succs
            .iter()
            .filter_map(|s| s.result.as_ref().ok())
            .map(|(s, _)| s.canonical(&layout))
            .collect();
        let mut deduped = keys.clone();
        deduped.sort();
        deduped.dedup();
        assert!(
            deduped.len() < keys.len(),
            "symmetric successors were not merged"
        );
    }

    /// Calls `visit` on every reachable state of `cfg`, in BFS order;
    /// returns the number of states.
    fn for_each_reachable(cfg: ExploreConfig, mut visit: impl FnMut(&ModelState)) -> usize {
        let layout = Layout::new(&cfg);
        let init = ModelState::init(&cfg);
        let mut seen = std::collections::HashSet::from([init.canonical(&layout)]);
        let mut frontier = std::collections::VecDeque::from([init]);
        while let Some(s) = frontier.pop_front() {
            visit(&s);
            s.each_successor(&cfg, |_, result| {
                let (next, _) = result.expect("clean configurations step legally");
                if seen.insert(next.canonical(&layout)) {
                    frontier.push_back(next);
                }
            });
        }
        seen.len()
    }

    /// The largest `to_home` and `to_agent` queue over every reachable
    /// state of `cfg`, and the number of states.
    fn queue_peaks(cfg: ExploreConfig) -> (usize, usize, usize) {
        let (mut to_home, mut to_agent) = (0, 0);
        let states = for_each_reachable(cfg, |s| {
            for a in 0..cfg.agents {
                to_agent = to_agent.max(s.to_agent[a].len());
                for q in &s.to_home[a] {
                    to_home = to_home.max(q.len());
                }
            }
        });
        (to_home, to_agent, states)
    }

    impl ModelState {
        /// The state with its agents renumbered: new agent `new` is old
        /// agent `inv[new]`. Written field by field, independently of
        /// [`ModelState::encode_under`]'s renaming.
        fn renumbered(&self, inv: &[usize]) -> Self {
            let mut perm = [0; MAX_AGENTS];
            for (new, &old) in inv.iter().enumerate() {
                perm[old] = new;
            }
            let mut s = *self;
            for (new, &old) in inv.iter().enumerate() {
                s.agents[new] = self.agents[old];
                s.to_home[new] = self.to_home[old];
                s.to_agent[new] = self.to_agent[old];
                for (to, from) in s.home.iter_mut().zip(&self.home) {
                    to.rec[new] = from.rec[old];
                }
            }
            for b in s.home.iter_mut().filter_map(|h| h.busy.as_mut()) {
                b.req = perm[b.req as usize] as u8;
                b.pending = (0..inv.len())
                    .filter(|&old| b.pending & (1 << old) != 0)
                    .fold(0, |mask, old| mask | 1 << perm[old]);
            }
            s
        }
    }

    #[test]
    fn packed_states_round_trip_and_the_canonical_key_is_the_minimum() {
        for cfg in [
            ExploreConfig::two_agent().with_lines(2).with_max_writes(1),
            ExploreConfig::three_agent(),
        ] {
            let model = MoesiModel::new(cfg);
            let layout = model.layout;
            let mut packed = Vec::new();
            // Unpacked into over and over, as the search does, so a
            // field a decode forgets to overwrite shows.
            let mut unpacked = ModelState::init(&cfg);
            let states = for_each_reachable(cfg, |s| {
                let key = s.canonical(&layout);
                assert_eq!(key, s.canonical_all_permutations(&layout), "{s:?}");
                packed.clear();
                model.pack_into(s, &key, &mut packed);
                model.unpack_into(&packed, &mut unpacked);
                assert_eq!(unpacked, *s, "{s:?}");
                // Every renaming encodes the renamed state, so the
                // minimum over them is a key of the symmetry class, and
                // decoding under the renaming undoes it.
                let blocks = s.hold_blocks(&layout);
                for p in permutations(cfg.agents) {
                    let inv = &p[..cfg.agents];
                    let mut key = Key::new();
                    s.encode_under(&layout, &blocks, inv, &mut key);
                    let mut renamed = ModelState::init(&cfg);
                    renamed.decode_under(&layout, &IDENTITY[..cfg.agents], key.bytes());
                    assert_eq!(renamed, s.renumbered(inv), "{s:?} under {inv:?}");
                    let mut back = ModelState::init(&cfg);
                    back.decode_under(&layout, inv, key.bytes());
                    assert_eq!(back, *s, "{s:?} under {inv:?}");
                }
            });
            assert!(states > 1_000, "{cfg:?}: only {states} states");
        }
    }

    #[test]
    fn tied_hold_blocks_are_ordered_by_the_later_bytes() {
        // Both agents hold nothing, so their hold blocks tie; only agent
        // 0 has a request queued, which a later field of the key shows.
        let cfg = ExploreConfig::two_agent();
        let layout = Layout::new(&cfg);
        let mut s = ModelState::init(&cfg);
        s.to_home[0][VC_REQ].push_back(Msg::GetS(0));
        let mut identity = Key::new();
        s.encode_under(&layout, &s.hold_blocks(&layout), &[0, 1], &mut identity);
        let key = s.canonical(&layout);
        assert_eq!(key, s.canonical_all_permutations(&layout));
        assert!(key.as_slice() < identity.bytes(), "the swap is smaller");
        let mut mirrored = ModelState::init(&cfg);
        mirrored.to_home[1][VC_REQ].push_back(Msg::GetS(0));
        assert_eq!(mirrored.canonical(&layout), key);
    }

    #[test]
    fn the_fullest_state_fills_the_key_buffer_exactly() {
        // The envelope's limits with every queue full of data-carrying
        // messages and every line busy with data collected: the longest
        // encoding there is, which `KEY_MAX` must hold to the byte.
        let cfg = ExploreConfig {
            fifo_capacity: MAX_FIFO,
            ..ExploreConfig::three_agent()
                .with_lines(MAX_LINES)
                .with_max_writes(MAX_WRITES)
        };
        let layout = Layout::new(&cfg);
        let mut s = ModelState::init(&cfg);
        for a in 0..MAX_AGENTS {
            for q in &mut s.to_home[a] {
                while q.len() < MAX_FIFO {
                    q.push_back(Msg::VicD(3, MAX_WRITES));
                }
            }
            while s.to_agent[a].len() < TO_AGENT_DEPTH {
                s.to_agent[a].push_back(Msg::DataE(2, 1));
            }
        }
        for hl in &mut s.home {
            hl.busy = Some(Busy {
                req: 2,
                want: Want::Upg,
                pending: 0b101,
                data: Some(MAX_WRITES),
            });
        }
        let mut key = Key::new();
        s.encode_under(&layout, &s.hold_blocks(&layout), &IDENTITY, &mut key);
        assert_eq!(key.bytes().len(), KEY_MAX);
        let mut decoded = ModelState::init(&cfg);
        decoded.decode_under(&layout, &IDENTITY, key.bytes());
        assert_eq!(decoded, s);
    }

    #[test]
    fn keys_at_three_agents_and_two_lines_average_at_most_24_bytes() {
        // Seeded random walks reach the deep states, full of queued
        // messages, that a BFS prefix would not.
        let cfg = ExploreConfig::three_agent().with_lines(2);
        let layout = Layout::new(&cfg);
        let mut rng = SplitMix64::new(24);
        let (mut bytes, mut keys) = (0, 0);
        for _ in 0..40 {
            let mut s = ModelState::init(&cfg);
            for _ in 0..500 {
                (bytes, keys) = (bytes + s.canonical(&layout).len(), keys + 1);
                let succs = s.successors(&cfg);
                if succs.is_empty() {
                    break;
                }
                let pick = (rng.next() % succs.len() as u64) as usize;
                let (next, _) = succs[pick].result.clone().expect("clean steps");
                s = next;
            }
        }
        // 15.0 B over these 20,000 states.
        let mean = bytes as f64 / keys as f64;
        assert!(mean <= 24.0, "mean key {mean:.1} B over {keys} states");
    }

    #[test]
    #[should_panic(expected = "max_writes must be 0..=3")]
    fn max_writes_beyond_the_envelope_is_rejected() {
        Explorer::new(ExploreConfig::two_agent().with_max_writes(MAX_WRITES + 1));
    }

    #[test]
    fn every_reachable_queue_stays_within_its_proven_bound() {
        let two = ExploreConfig::two_agent;
        let capacity_1 = |cfg| ExploreConfig {
            fifo_capacity: 1,
            ..cfg
        };
        let cases = [
            (capacity_1(two()), 2),
            (two(), 2),
            (capacity_1(ExploreConfig::three_agent()), 2),
            (ExploreConfig::three_agent(), 2),
            (capacity_1(two().with_lines(2).with_max_writes(1)), 3),
            (two().with_lines(2).with_max_writes(1), 4),
        ];
        for (cfg, peak) in cases {
            let (to_home, to_agent, states) = queue_peaks(cfg);
            assert!(
                to_home <= cfg.fifo_capacity,
                "{cfg:?}: to_home reached {to_home}"
            );
            assert!(
                to_agent <= 2 * cfg.lines,
                "{cfg:?}: to_agent reached {to_agent}"
            );
            assert_eq!(to_agent, peak, "{cfg:?} over {states} states");
        }
    }

    #[test]
    #[should_panic(expected = "fifo_capacity must be 1..=4")]
    fn fifo_capacity_beyond_the_envelope_is_rejected() {
        Explorer::new(ExploreConfig {
            fifo_capacity: MAX_FIFO + 1,
            ..ExploreConfig::two_agent()
        });
    }

    #[test]
    fn violation_report_renders_the_full_story() {
        let cfg = ExploreConfig::two_agent().with_mutation(Some(Mutation::SkipInvalidateOnUpgrade));
        let out = Explorer::new(cfg).run_exhaustive().unwrap();
        let v = out.violation.expect("must be caught");
        let rendered = v.to_string();
        assert!(rendered.contains("violated"));
        assert!(rendered.contains("path ("));
        assert!(rendered.contains("decoded message trace"));
    }
}
