//! Generic bounded model checking over a protocol's step relation.
//!
//! The ECI crate's coherence explorer proved the approach: express the
//! protocol as a small, side-effect-free step relation, then drive a
//! deterministic, canonicalized breadth-first search over every
//! interleaving of a bounded configuration, checking invariants on each
//! reachable state and reconstructing a shortest action path when one
//! breaks. This module extracts the exploration machinery itself —
//! canonicalized BFS with a hashed visited set, shortest-path
//! counterexample reconstruction, seeded random walks, and the mutation
//! self-test pattern — behind the [`ProtocolModel`] trait so other
//! protocol layers (the TCP connection FSM, future link or transport
//! protocols) get the same checker without re-implementing it.
//!
//! A model supplies:
//!
//! * its **state** type and the **initial state**;
//! * the **successor relation**: every enabled transition from a state,
//!   in a fixed deterministic order, where a transition either yields a
//!   new state or an error string (a protocol-legality violation such as
//!   a message no state accepts — the checker turns it into an
//!   [`Violation::IllegalStep`] counterexample);
//! * a **quiescence** predicate: states where having no enabled
//!   transition is legitimate termination rather than a deadlock;
//! * a **canonical encoding** used as the visited-set key — symmetry
//!   reduction (agent renaming, channel reordering) lives here;
//! * the **invariant check**, returning a model-specific violation kind
//!   plus a description when a state is broken;
//! * a **path renderer** that replays an action sequence and formats the
//!   messages it puts on the wire, so counterexamples are decoded
//!   through the same codec the live system uses.
//!
//! The checker itself contributes the two violations every protocol
//! shares — [`Violation::Deadlock`] (a non-quiescent state with no
//! enabled transition) and [`Violation::IllegalStep`] — and is
//! deterministic: identical models produce identical statistics and
//! identical counterexamples on every run.
//!
//! # Memory and allocation
//!
//! The search keeps states only on the BFS frontier, and
//! [`explore_packed`] keeps them there packed ([`PackedModel`]). Every
//! visited state leaves behind its canonical key, interned in arena
//! blocks that are never reallocated (the visited set), and a node of
//! parent index plus action; a counterexample is the action chain back
//! to the root, and [`ProtocolModel::render_path`] replays it.
//! Successors and keys are produced into buffers the search reuses
//! ([`ProtocolModel::successors_into`],
//! [`ProtocolModel::canonical_into`]), so a model whose state owns no
//! heap memory is explored with no per-state allocation at all. Both
//! in-tree models are such models: the TCP connection FSM
//! (`enzian-net`) and the MOESI coherence model (`enzian-eci`) keep
//! their whole state in a fixed-size `Copy` value.
//!
//! In [`explore_packed`] every store the search grows lives in blocks
//! of at most 64 KiB: the key arena, the node store and the packed
//! frontier. A whole block is never reallocated or copied; only the
//! node store's first block starts small and doubles in place. The
//! visited set's slot table is the one store allocated whole, and it
//! doubles. A 64 KiB block lies below the allocator's mmap threshold,
//! so the blocks one search frees are the ones the next search in the
//! process allocates.
//!
//! The visited set is far larger than the caches, so a lookup is
//! usually a cache miss. The search therefore works on one state's
//! successors as a batch: it encodes every successor's key into one
//! buffer, hashes each, and prefetches each key's first table slot
//! before it looks any of them up, so their misses overlap. The
//! lookups then run in successor order, so node numbering, statistics
//! and counterexamples are those of one-at-a-time insertion. A table
//! growth prefetches the same way, a batch of keys at a time.
//!
//! # Threads
//!
//! The search has two stages. *Expanding* a state needs only the
//! model: its successors, each `Ok` successor's canonical key and
//! hash, and whether it is a deadlock. *Merging* it needs the search:
//! look each key up in the visited set, number and check the new
//! states, queue them, and stop at the first violation. [`explore`]
//! runs both stages on the calling thread, one state at a time, and
//! never starts a thread (so a model need not be `Sync`).
//!
//! [`explore_packed`] starts one scoped worker thread on a host with
//! two or more CPUs, once the frontier holds two chunks of states: one
//! to merge and one beyond it. A search smaller than that runs the
//! one-state-at-a-time path to its end. From then on the searching
//! thread pops chunks of consecutive frontier states, keeps up to three
//! of them in flight, and merges them strictly in frontier order. The
//! worker expands queued chunks ahead of the merge; when the chunk due
//! next is still on the worker, the searching thread expands a later
//! queued one itself, so both CPUs expand.
//! Chunks may span BFS levels: there is no barrier between levels.
//!
//! Merging in frontier order is what keeps the numbering: node `k` is
//! still the `k`-th state popped, each state's successors are still
//! looked up in successor order, and the frontier length the statistics
//! report is derived from node numbers. Statistics, counterexamples and
//! [`StateLimit`] are therefore those of the serial search at any
//! thread count. A chunk is sized by bytes: about 1 MiB of successors
//! at eight per state, so 1,638 TCP states or 481 MOESI states. Its
//! buffers are allocated on the searching thread when first needed and
//! reused, and expansion stops before a state that might not fit in
//! them; the merge expands what is left. A model panic on either thread
//! ends the search with that panic, and the worker is joined before
//! the search returns.

use std::collections::VecDeque;
use std::fmt;
use std::mem::size_of;

mod keyset;
mod pipeline;

use keyset::KeySet;

use crate::rng::{mix64, SPLITMIX64_GAMMA};

/// A bounded protocol model the generic checker can explore.
pub trait ProtocolModel {
    /// A full protocol state (endpoints, queues, budgets).
    type State: Clone;
    /// One transition label; `Display` renders counterexample paths.
    type Action: Clone + PartialEq + fmt::Display;
    /// Model-specific invariant kinds (e.g. SWMR, data-value).
    type Kind: Clone + fmt::Display;

    /// The initial state of the bounded configuration.
    fn initial(&self) -> Self::State;

    /// Every enabled transition from `state`, in a fixed deterministic
    /// order. Blocked transitions are omitted; illegal ones are
    /// returned with `result: Err(..)` so the checker can report them.
    fn successors(&self, state: &Self::State) -> Vec<Succ<Self::State, Self::Action>>;

    /// Appends [`ProtocolModel::successors`] of `state` to `out`, in the
    /// same order. The exhaustive search calls this with one buffer it
    /// reuses for every state; override it to skip the per-state
    /// `Vec`.
    fn successors_into(&self, state: &Self::State, out: &mut Vec<Succ<Self::State, Self::Action>>) {
        out.extend(self.successors(state));
    }

    /// `true` if `state` is a legitimate terminal state (having no
    /// successors is completion, not deadlock).
    fn quiescent(&self, state: &Self::State) -> bool;

    /// The canonical byte encoding of `state`, used as the visited-set
    /// key. Symmetry reduction happens here: states that differ only by
    /// a symmetry (agent renaming, bag ordering) must encode equal.
    fn canonical(&self, state: &Self::State) -> Vec<u8>;

    /// Appends [`ProtocolModel::canonical`] of `state` to `out`. The
    /// exhaustive search calls this with one buffer it clears and
    /// reuses for every key; override it to skip the per-key `Vec`.
    fn canonical_into(&self, state: &Self::State, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.canonical(state));
    }

    /// Checks the model's invariants; `None` means clean.
    fn check(&self, state: &Self::State) -> Option<(Self::Kind, String)>;

    /// Replays `path` from the initial state and renders the message
    /// trace it generates, decoded through the model's wire format.
    fn render_path(&self, path: &[Self::Action]) -> String;
}

/// A model whose states can wait on the BFS frontier packed.
///
/// [`explore_packed`] queues each state as the bytes
/// [`PackedModel::pack_into`] writes and restores it with
/// [`PackedModel::unpack_into`] when it comes up for expansion, so a queued
/// state costs its packed length rather than `size_of::<State>()`. The
/// search itself is [`explore`]'s: same successor order, node numbering,
/// statistics and counterexamples.
pub trait PackedModel: ProtocolModel {
    /// Appends the packed form of `state` to `out`. `key` is the
    /// state's canonical key, already computed by the search: a model
    /// whose key is a decodable encoding can pack a state as its key
    /// plus whatever undoes the symmetry reduction.
    fn pack_into(&self, state: &Self::State, key: &[u8], out: &mut Vec<u8>);

    /// Overwrites `state` with the state `packed` holds: unpacking what
    /// [`PackedModel::pack_into`] packed from a reachable state must
    /// restore an equal state. `state` is the initial state or one this
    /// method unpacked before, so a model may rewrite only the parts of
    /// a state its packing covers and leave the rest, which never
    /// changes, as it is.
    fn unpack_into(&self, packed: &[u8], state: &mut Self::State);
}

/// A successor of a state: either the next state or a protocol-legality
/// error detected while stepping.
pub struct Succ<S, A> {
    /// The transition label.
    pub action: A,
    /// The next state, or why the step is illegal.
    pub result: Result<S, String>,
}

/// How a counterexample state violates the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation<K> {
    /// A model-specific invariant failed on a reachable state.
    Invariant(K),
    /// A non-quiescent state with no enabled transition.
    Deadlock,
    /// A transition returned an error: an illegal step was enabled.
    IllegalStep,
}

impl<K: fmt::Display> fmt::Display for Violation<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Invariant(k) => k.fmt(f),
            Violation::Deadlock => f.write_str("deadlock"),
            Violation::IllegalStep => f.write_str("protocol legality"),
        }
    }
}

/// A counterexample: the shortest action path the search found from the
/// initial state to a violating state.
#[derive(Debug, Clone)]
pub struct Counterexample<K> {
    /// What broke.
    pub violation: Violation<K>,
    /// Human-readable description of the violation itself.
    pub description: String,
    /// The actions along the path, one rendered line each.
    pub actions: Vec<String>,
    /// The message trace of the path, from
    /// [`ProtocolModel::render_path`].
    pub trace: String,
}

impl<K: fmt::Display> fmt::Display for Counterexample<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} violated: {}", self.violation, self.description)?;
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

/// Deterministic search statistics (identical across runs for the same
/// model and seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Distinct canonical states visited.
    pub states: u64,
    /// Transitions taken (edges of the reachability graph).
    pub transitions: u64,
    /// High-water mark of the BFS frontier (or walk depth).
    pub frontier_peak: u64,
    /// Depth of the deepest state reached.
    pub max_depth: u64,
}

/// The result of a completed search.
#[derive(Debug, Clone)]
pub struct SearchOutcome<K> {
    /// Search statistics.
    pub stats: SearchStats,
    /// The first violation found, if any.
    pub violation: Option<Counterexample<K>>,
}

/// The state budget ran out before the frontier drained; shrink the
/// model or raise the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateLimit {
    /// The configured limit that was hit.
    pub limit: u64,
}

impl fmt::Display for StateLimit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "state budget of {} states exhausted", self.limit)
    }
}

impl std::error::Error for StateLimit {}

/// Node of the BFS reachability graph, numbered in discovery order: how
/// the search first reached a state. The state itself lives only on the
/// frontier.
struct Node<A> {
    parent: u32,
    /// `None` only for the initial state.
    action: Option<A>,
}

/// Bytes of one block of the node store or the packed frontier: the
/// key arena's largest block, below the allocator's mmap threshold.
const BLOCK_BYTES: usize = 1 << 16;

/// Nodes the node store's first block holds before it first doubles:
/// 4 KiB of eight-byte nodes, as the key arena's first block.
const FIRST_NODES: usize = 1 << 9;

/// The nodes in discovery order, in blocks of `1 << block_bits` nodes.
/// Every block but the first is allocated whole and never reallocated:
/// the store grows without copying, and a block freed by one search is
/// reused as it is by the next. The first block starts at
/// [`FIRST_NODES`] and doubles in place up to a whole block, so a small
/// search allocates little.
struct Nodes<A> {
    /// The whole blocks, in order.
    full: Vec<Vec<Node<A>>>,
    /// The block being filled.
    last: Vec<Node<A>>,
    block_bits: u32,
}

impl<A> Nodes<A> {
    /// An empty store of blocks of at most [`BLOCK_BYTES`] (8,192
    /// eight-byte nodes), or of one node if a node is larger.
    fn new() -> Self {
        let per_block = (BLOCK_BYTES / size_of::<Node<A>>().max(1)).max(1);
        Self::with_block_bits(per_block.ilog2())
    }

    /// An empty store of blocks of `1 << block_bits` nodes.
    fn with_block_bits(block_bits: u32) -> Self {
        Nodes {
            full: Vec::new(),
            last: Vec::with_capacity(FIRST_NODES.min(1 << block_bits)),
            block_bits,
        }
    }

    fn push(&mut self, node: Node<A>) {
        if self.last.len() == self.last.capacity() {
            self.open();
        }
        self.last.push(node);
    }

    /// Makes room in `last`: doubles the first block until it is whole,
    /// then opens a new block.
    #[cold]
    fn open(&mut self) {
        let whole = 1 << self.block_bits;
        if self.last.capacity() < whole {
            self.last.reserve_exact(self.last.capacity());
        } else {
            let block = std::mem::replace(&mut self.last, Vec::with_capacity(whole));
            self.full.push(block);
        }
    }

    fn get(&self, idx: usize) -> &Node<A> {
        let block = self.full.get(idx >> self.block_bits).unwrap_or(&self.last);
        &block[idx & ((1 << self.block_bits) - 1)]
    }

    fn len(&self) -> usize {
        (self.full.len() << self.block_bits) + self.last.len()
    }
}

/// The BFS queue of states waiting for expansion. The search numbers
/// nodes in the order it queues their states and expands them in that
/// same order, so an entry is the bare state: the k-th state popped is
/// node k, and its depth follows from where each BFS level ends.
trait Frontier<S> {
    /// Queues a copy of `state`, whose canonical key is `key`.
    fn push(&mut self, state: &S, key: &[u8]);
    /// Moves the next state into `state`; `false` if there is none.
    fn pop_into(&mut self, state: &mut S) -> bool;
    fn len(&self) -> usize;
}

impl<S: Clone> Frontier<S> for VecDeque<S> {
    fn push(&mut self, state: &S, _key: &[u8]) {
        self.push_back(state.clone());
    }

    fn pop_into(&mut self, state: &mut S) -> bool {
        self.pop_front().map(|s| *state = s).is_some()
    }

    fn len(&self) -> usize {
        VecDeque::len(self)
    }
}

/// The frontier of [`explore_packed`]. The oldest states wait whole in
/// `plain`, at most `unpacked_max` of them, so a small search never
/// packs; once that fills, every later state is packed until the packed
/// part drains. All plain states are older than all packed ones, so
/// popping `plain` first keeps the order first in, first out.
///
/// Packed states lie back to back as a LEB128 length plus their bytes
/// in a first-in, first-out queue of blocks of `block_bytes`, allocated
/// whole and never grown. As in the key arena, an entry never straddles
/// two blocks. The oldest block is consumed from `head`; once it is
/// used up, it is cleared and kept for the next block the queue opens.
struct PackedFrontier<'m, M: ProtocolModel> {
    model: &'m M,
    plain: VecDeque<M::State>,
    unpacked_max: usize,
    blocks: VecDeque<Vec<u8>>,
    block_bytes: usize,
    /// Where the next entry starts in `blocks[0]`.
    head: usize,
    /// Packed states in the blocks.
    packed: usize,
    /// A consumed block, cleared.
    spare: Option<Vec<u8>>,
    /// Where a state is packed before its length is known.
    scratch: Vec<u8>,
}

/// Most states [`explore_packed`] keeps unpacked on its frontier.
const UNPACKED_MAX: usize = 1 << 10;

impl<'m, M: PackedModel> PackedFrontier<'m, M> {
    fn new(model: &'m M, unpacked_max: usize, block_bytes: usize) -> Self {
        PackedFrontier {
            model,
            plain: VecDeque::new(),
            unpacked_max,
            blocks: VecDeque::new(),
            block_bytes,
            head: 0,
            packed: 0,
            spare: None,
            scratch: Vec::new(),
        }
    }

    /// Packs `state` onto the frontier. Out of line, as is
    /// [`PackedFrontier::pop_packed`], so a search that never packs
    /// runs [`Frontier`]'s plain path alone.
    #[inline(never)]
    fn push_packed(&mut self, state: &M::State, key: &[u8]) {
        self.scratch.clear();
        self.model.pack_into(state, key, &mut self.scratch);
        let need = keyset::len_of_len(self.scratch.len()) + self.scratch.len();
        let block_bytes = self.block_bytes;
        if self
            .blocks
            .back()
            .is_none_or(|block| block.len() + need > block_bytes)
        {
            assert!(
                need <= block_bytes,
                "a {}-byte packed state exceeds a frontier block",
                self.scratch.len()
            );
            let block = self
                .spare
                .take()
                .unwrap_or_else(|| Vec::with_capacity(block_bytes));
            self.blocks.push_back(block);
        }
        let block = self.blocks.back_mut().expect("a block with room");
        keyset::push_len(block, self.scratch.len());
        block.extend_from_slice(&self.scratch);
        debug_assert!(block.capacity() <= block_bytes, "a frontier block grew");
        self.packed += 1;
    }

    /// Unpacks the oldest packed state into `state`; there is one.
    #[inline(never)]
    fn pop_packed(&mut self, state: &mut M::State) {
        let block = &self.blocks[0];
        let (packed, next) = keyset::read_entry(block, self.head);
        self.model.unpack_into(packed, state);
        self.packed -= 1;
        self.head = next;
        if self.head == block.len() {
            let mut used = self.blocks.pop_front().expect("the block just read");
            used.clear();
            self.spare = Some(used);
            self.head = 0;
        }
    }
}

impl<M: PackedModel> Frontier<M::State> for PackedFrontier<'_, M> {
    fn push(&mut self, state: &M::State, key: &[u8]) {
        if self.packed == 0 && self.plain.len() < self.unpacked_max {
            self.plain.push_back(state.clone());
        } else {
            self.push_packed(state, key);
        }
    }

    fn pop_into(&mut self, state: &mut M::State) -> bool {
        if let Some(next) = self.plain.pop_front() {
            *state = next;
        } else if self.packed > 0 {
            self.pop_packed(state);
        } else {
            return false;
        }
        true
    }

    fn len(&self) -> usize {
        self.plain.len() + self.packed
    }
}

/// Node indices are `u32`, so a search stops at this many states even
/// when its budget is larger.
const MAX_NODES: u64 = u32::MAX as u64 - 1;

const DEADLOCK_DESCRIPTION: &str = "no transition is enabled but the system is not quiescent";

fn report<M: ProtocolModel>(
    model: &M,
    path: &[M::Action],
    violation: Violation<M::Kind>,
    description: String,
) -> Counterexample<M::Kind> {
    Counterexample {
        violation,
        description,
        actions: path.iter().map(|a| a.to_string()).collect(),
        trace: model.render_path(path),
    }
}

fn path_to<A: Clone>(nodes: &Nodes<A>, idx: u32) -> Vec<A> {
    let mut actions = Vec::new();
    let mut node = nodes.get(idx as usize);
    while let Some(a) = &node.action {
        actions.push(a.clone());
        node = nodes.get(node.parent as usize);
    }
    actions.reverse();
    actions
}

/// Exhaustive canonicalized BFS from the model's initial state. Returns
/// the statistics and the first (shortest-path) violation found, if
/// any. Runs on the calling thread alone; [`explore_packed`] is the
/// same search with a second thread and a packed frontier.
///
/// # Errors
///
/// Returns [`StateLimit`] if more than `max_states` distinct canonical
/// states (at most ~4.29 × 10⁹, the node store's `u32` index space) are
/// reached before the frontier drains.
pub fn explore<M: ProtocolModel>(
    model: &M,
    max_states: u64,
) -> Result<SearchOutcome<M::Kind>, StateLimit> {
    search(model, max_states, VecDeque::new(), Serial)
}

/// [`explore`] with the frontier holding packed states (see
/// [`PackedModel`]) and, on a host with two or more CPUs, a worker
/// thread expanding frontier chunks ahead of the search (see
/// [Threads](self#threads)): the same search, statistics and
/// counterexamples, in less memory and sooner.
///
/// # Errors
///
/// Returns [`StateLimit`] as [`explore`] does.
///
/// # Panics
///
/// Panics if the model panics, on either thread.
pub fn explore_packed<M>(model: &M, max_states: u64) -> Result<SearchOutcome<M::Kind>, StateLimit>
where
    M: PackedModel + Sync,
    M::State: Send,
    M::Action: Send,
{
    let frontier = PackedFrontier::new(model, UNPACKED_MAX, BLOCK_BYTES);
    match pipeline::Pipelined::for_host::<M>() {
        Some(pipelined) => search(model, max_states, frontier, pipelined),
        None => search(model, max_states, frontier, Serial),
    }
}

/// What a search returns.
type Done<K> = Result<SearchOutcome<K>, StateLimit>;

/// The expansion of one or more frontier states, in frontier order:
/// each state's successors, the canonical key and hash of every `Ok`
/// successor, and whether the state is a deadlock. Expanding needs only
/// the model, so it can run on any thread; [`Search::merge`] then takes
/// the states' successors into the search one state at a time.
struct Expansion<S, A> {
    succs: Vec<Succ<S, A>>,
    /// The keys of the `Ok` successors, back to back.
    keys: Vec<u8>,
    /// Each key's end offset in `keys`, and its hash.
    batch: Vec<(usize, u64)>,
    /// Per expanded state, where its successors and keys end.
    ends: Vec<StateEnd>,
}

/// Where one expanded state's entries end in its [`Expansion`].
#[derive(Clone, Copy, Default)]
struct StateEnd {
    succs: usize,
    batch: usize,
    /// No successor, and not quiescent.
    deadlock: bool,
}

impl<S, A> Expansion<S, A> {
    /// Room for `states` states of `fanout` successors each, with keys
    /// of `key_len` bytes.
    fn with_capacity(states: usize, fanout: usize, key_len: usize) -> Self {
        Expansion {
            succs: Vec::with_capacity(states * fanout),
            keys: Vec::with_capacity(states * fanout * key_len),
            batch: Vec::with_capacity(states * fanout),
            ends: Vec::with_capacity(states),
        }
    }

    fn clear(&mut self) {
        self.succs.clear();
        self.keys.clear();
        self.batch.clear();
        self.ends.clear();
    }

    /// Expands `state` after the states already here.
    fn push<M: ProtocolModel<State = S, Action = A>>(&mut self, model: &M, state: &S) {
        let first = self.succs.len();
        model.successors_into(state, &mut self.succs);
        let deadlock = self.succs.len() == first && !model.quiescent(state);
        for next in self.succs[first..]
            .iter()
            .filter_map(|s| s.result.as_ref().ok())
        {
            let start = self.keys.len();
            model.canonical_into(next, &mut self.keys);
            let hash = keyset::fx_hash(&self.keys[start..]);
            self.batch.push((self.keys.len(), hash));
        }
        self.ends.push(StateEnd {
            succs: self.succs.len(),
            batch: self.batch.len(),
            deadlock,
        });
    }

    /// Expanded states.
    fn len(&self) -> usize {
        self.ends.len()
    }
}

/// Where [`search`] expands states once its initial state is queued.
trait Expand<M: ProtocolModel> {
    /// Runs `s` to its end. `state` is the initial state: the buffer
    /// the frontier pops into.
    fn finish<F: Frontier<M::State>>(self, s: Search<'_, M, F>, state: M::State) -> Done<M::Kind>;
}

/// Every state expanded on the searching thread, one at a time.
struct Serial;

impl<M: ProtocolModel> Expand<M> for Serial {
    fn finish<F: Frontier<M::State>>(
        self,
        mut s: Search<'_, M, F>,
        mut state: M::State,
    ) -> Done<M::Kind> {
        let mut exp = Expansion::with_capacity(0, 0, 0);
        loop {
            if let Some(done) = s.step(&mut state, &mut exp) {
                return done;
            }
        }
    }
}

/// A BFS in progress: everything but the states being expanded. Node
/// `idx` is the next to merge; the frontier holds the states of the
/// nodes after the ones popped so far.
struct Search<'m, M: ProtocolModel, F> {
    model: &'m M,
    max_states: u64,
    /// `max_states`, capped to the node store's index space.
    state_cap: u64,
    visited: KeySet,
    nodes: Nodes<M::Action>,
    stats: SearchStats,
    frontier: F,
    /// The node to merge next, its depth, and the first node one level
    /// deeper than it.
    idx: u32,
    depth: u64,
    level_end: usize,
    /// The initial state's key length, to size chunk buffers by.
    key_len: usize,
}

/// The BFS of [`explore`] over any frontier representation, expanding
/// states where `expand` says.
fn search<M: ProtocolModel, F: Frontier<M::State>>(
    model: &M,
    max_states: u64,
    mut frontier: F,
    expand: impl Expand<M>,
) -> Done<M::Kind> {
    let init = model.initial();
    let mut key = Vec::new();
    model.canonical_into(&init, &mut key);
    let mut visited = KeySet::new();
    visited.insert(&key);
    let stats = SearchStats {
        states: 1,
        frontier_peak: 1,
        ..SearchStats::default()
    };
    if let Some((kind, description)) = model.check(&init) {
        return Ok(SearchOutcome {
            stats,
            violation: Some(report(model, &[], Violation::Invariant(kind), description)),
        });
    }
    frontier.push(&init, &key);
    let mut nodes = Nodes::new();
    nodes.push(Node {
        parent: 0,
        action: None,
    });
    let s = Search {
        model,
        max_states,
        state_cap: max_states.min(MAX_NODES),
        visited,
        nodes,
        stats,
        frontier,
        idx: 0,
        depth: 0,
        level_end: 1,
        key_len: key.len(),
    };
    expand.finish(s, init)
}

impl<M: ProtocolModel, F: Frontier<M::State>> Search<'_, M, F> {
    /// Pops the next state into `state`, expands it into `exp` and
    /// merges it; `Some` once the search is over.
    fn step(
        &mut self,
        state: &mut M::State,
        exp: &mut Expansion<M::State, M::Action>,
    ) -> Option<Done<M::Kind>> {
        if !self.frontier.pop_into(state) {
            return Some(self.end(None));
        }
        exp.clear();
        exp.push(self.model, state);
        self.merge(exp, 0)
    }

    /// Takes the `i`-th state of `exp`, node `idx`, into the search:
    /// numbers and queues its new successors and checks them. `Some`
    /// once the search is over.
    fn merge(&mut self, exp: &Expansion<M::State, M::Action>, i: usize) -> Option<Done<M::Kind>> {
        if self.idx as usize == self.level_end {
            // Every node of this level was found while merging the last
            // one, and none of the next level yet.
            self.depth += 1;
            self.level_end = self.nodes.len();
        }
        let first = i
            .checked_sub(1)
            .map_or(StateEnd::default(), |p| exp.ends[p]);
        let last = exp.ends[i];
        if last.deadlock {
            let path = path_to(&self.nodes, self.idx);
            let cx = report(
                self.model,
                &path,
                Violation::Deadlock,
                DEADLOCK_DESCRIPTION.into(),
            );
            return Some(self.end(Some(cx)));
        }
        // Prefetch every key's table slot first, so the lookups below
        // overlap their cache misses instead of taking them one after
        // another.
        let batch = &exp.batch[first.batch..last.batch];
        for &(_, hash) in batch {
            self.visited.prefetch(hash);
        }
        let mut keys = batch.iter();
        let mut start = first.batch.checked_sub(1).map_or(0, |p| exp.batch[p].0);
        // By reference: a successor is copied only if it is queued.
        for succ in &exp.succs[first.succs..last.succs] {
            self.stats.transitions += 1;
            match &succ.result {
                Err(e) => {
                    // Render the path up to the offending action.
                    let path = path_to(&self.nodes, self.idx);
                    let mut cx = report(self.model, &path, Violation::IllegalStep, e.clone());
                    cx.actions.push(succ.action.to_string());
                    return Some(self.end(Some(cx)));
                }
                Ok(next) => {
                    let &(end, hash) = keys.next().expect("one key per Ok successor");
                    let next_key = &exp.keys[start..end];
                    start = end;
                    if !self.visited.insert_hashed(next_key, hash) {
                        continue;
                    }
                    let node_idx = self.nodes.len() as u32;
                    self.nodes.push(Node {
                        parent: self.idx,
                        action: Some(succ.action.clone()),
                    });
                    self.stats.states += 1;
                    self.stats.max_depth = self.stats.max_depth.max(self.depth + 1);
                    if self.stats.states > self.state_cap {
                        return Some(Err(StateLimit {
                            limit: self.max_states,
                        }));
                    }
                    if let Some((kind, description)) = self.model.check(next) {
                        let path = path_to(&self.nodes, node_idx);
                        let cx = report(self.model, &path, Violation::Invariant(kind), description);
                        return Some(self.end(Some(cx)));
                    }
                    self.frontier.push(next, next_key);
                    // Every node up to `idx` has been popped, and every
                    // later one is queued: the frontier's length as a
                    // one-state-at-a-time search sees it.
                    let queued = self.nodes.len() as u64 - u64::from(self.idx) - 1;
                    self.stats.frontier_peak = self.stats.frontier_peak.max(queued);
                }
            }
        }
        self.idx += 1;
        None
    }

    fn end(&self, violation: Option<Counterexample<M::Kind>>) -> Done<M::Kind> {
        Ok(SearchOutcome {
            stats: self.stats,
            violation,
        })
    }
}

/// Seeded random walk: follows one pseudo-random enabled transition per
/// step for up to `max_steps` steps, checking the same invariants as
/// the exhaustive search. Deterministic for a given seed and model.
/// Useful for configurations whose full state space is out of reach.
pub fn random_walk<M: ProtocolModel>(
    model: &M,
    seed: u64,
    max_steps: u64,
) -> SearchOutcome<M::Kind> {
    let mut rng = SplitMix64::new(seed);
    let mut state = model.initial();
    let mut path: Vec<M::Action> = Vec::new();
    let mut stats = SearchStats {
        states: 1,
        ..SearchStats::default()
    };
    let mut succs = Vec::new();
    for step in 0..max_steps {
        if let Some((kind, description)) = model.check(&state) {
            return SearchOutcome {
                stats,
                violation: Some(report(
                    model,
                    &path,
                    Violation::Invariant(kind),
                    description,
                )),
            };
        }
        succs.clear();
        model.successors_into(&state, &mut succs);
        if succs.is_empty() {
            if model.quiescent(&state) {
                break;
            }
            return SearchOutcome {
                stats,
                violation: Some(report(
                    model,
                    &path,
                    Violation::Deadlock,
                    DEADLOCK_DESCRIPTION.into(),
                )),
            };
        }
        let pick = (rng.next() % succs.len() as u64) as usize;
        let succ = succs.swap_remove(pick);
        match succ.result {
            Err(e) => {
                let mut cx = report(model, &path, Violation::IllegalStep, e);
                cx.actions.push(succ.action.to_string());
                return SearchOutcome {
                    stats,
                    violation: Some(cx),
                };
            }
            Ok(next) => {
                path.push(succ.action);
                state = next;
                stats.states += 1;
                stats.transitions += 1;
                stats.max_depth = step + 1;
                stats.frontier_peak = 1;
            }
        }
    }
    let violation = model
        .check(&state)
        .map(|(kind, description)| report(model, &path, Violation::Invariant(kind), description));
    SearchOutcome { stats, violation }
}

/// Runs the exhaustive search and panics unless the model is clean —
/// the positive half of a mutation self-test battery.
///
/// # Panics
///
/// Panics if a violation is found or the state budget is exhausted.
pub fn expect_clean<M: ProtocolModel>(model: &M, max_states: u64, label: &str) -> SearchStats {
    let out = explore(model, max_states).unwrap_or_else(|e| panic!("{label}: {e}"));
    if let Some(v) = out.violation {
        panic!("{label}: unexpected violation:\n{v}");
    }
    out.stats
}

/// Runs the exhaustive search and panics unless it finds a violation —
/// the negative half of a mutation self-test battery: a checker that
/// cannot catch a deliberately injected bug is not checking anything.
///
/// # Panics
///
/// Panics if no violation is found or the state budget is exhausted.
pub fn expect_violation<M: ProtocolModel>(
    model: &M,
    max_states: u64,
    label: &str,
) -> Counterexample<M::Kind> {
    let out = explore(model, max_states).unwrap_or_else(|e| panic!("{label}: {e}"));
    out.violation
        .unwrap_or_else(|| panic!("{label}: the injected bug was not caught"))
}

/// SplitMix64: tiny, seedable, and good enough to scatter a walk.
///
/// Distinct from [`crate::SimRng`] (xoshiro256**) on purpose: the
/// explorer's walk streams are pinned by golden state counts, so the
/// generator moved here verbatim from the ECI explorer.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed.wrapping_add(SPLITMIX64_GAMMA))
    }

    /// Next raw 64-bit value.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(SPLITMIX64_GAMMA);
        mix64(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, MutexGuard, PoisonError};
    use std::thread;

    /// A toy token-ring model: `n` stations pass a token; station 0
    /// stops the ring after `laps` laps. Mutations: `lose_token` makes
    /// the pass drop the token (deadlock); `split_token` duplicates it
    /// (invariant violation); `bad_step` makes the last pass illegal.
    struct Ring {
        n: u8,
        laps: u8,
        lose_token: bool,
        split_token: bool,
        bad_step: bool,
    }

    impl Ring {
        fn clean(n: u8, laps: u8) -> Self {
            Ring {
                n,
                laps,
                lose_token: false,
                split_token: false,
                bad_step: false,
            }
        }
    }

    #[derive(Clone, PartialEq)]
    struct RingState {
        holders: Vec<bool>,
        lap: u8,
        done: bool,
    }

    #[derive(Clone, Copy, PartialEq)]
    struct Pass(u8);

    impl fmt::Display for Pass {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "station {} passes the token", self.0)
        }
    }

    impl ProtocolModel for Ring {
        type State = RingState;
        type Action = Pass;
        type Kind = &'static str;

        fn initial(&self) -> RingState {
            let mut holders = vec![false; self.n as usize];
            holders[0] = true;
            RingState {
                holders,
                lap: 0,
                done: false,
            }
        }

        fn successors(&self, s: &RingState) -> Vec<Succ<RingState, Pass>> {
            if s.done {
                return Vec::new();
            }
            let mut out = Vec::new();
            for (i, &h) in s.holders.iter().enumerate() {
                if !h {
                    continue;
                }
                if self.bad_step && s.lap + 1 == self.laps && i == 0 {
                    out.push(Succ {
                        action: Pass(i as u8),
                        result: Err("token passed after the ring stopped".into()),
                    });
                    continue;
                }
                let mut next = s.clone();
                if !self.split_token {
                    next.holders[i] = false;
                }
                let to = (i + 1) % self.n as usize;
                if !self.lose_token {
                    next.holders[to] = true;
                }
                if to == 0 {
                    next.lap += 1;
                    if next.lap == self.laps {
                        next.done = true;
                    }
                }
                out.push(Succ {
                    action: Pass(i as u8),
                    result: Ok(next),
                });
            }
            out
        }

        fn quiescent(&self, s: &RingState) -> bool {
            s.done
        }

        fn canonical(&self, s: &RingState) -> Vec<u8> {
            let mut v: Vec<u8> = s.holders.iter().map(|&h| h as u8).collect();
            v.push(s.lap);
            v.push(s.done as u8);
            v
        }

        fn check(&self, s: &RingState) -> Option<(&'static str, String)> {
            let held = s.holders.iter().filter(|&&h| h).count();
            (held > 1).then(|| ("single-token invariant", format!("{held} tokens in flight")))
        }

        fn render_path(&self, path: &[Pass]) -> String {
            path.iter()
                .map(|p| format!("token {} -> {}", p.0, (p.0 + 1) % self.n))
                .collect::<Vec<_>>()
                .join("\n")
        }
    }

    /// Packs a ring state as one byte per station, then the lap and
    /// the done flag.
    impl PackedModel for Ring {
        fn pack_into(&self, s: &RingState, _key: &[u8], out: &mut Vec<u8>) {
            out.extend(s.holders.iter().map(|&h| h as u8));
            out.extend([s.lap, s.done as u8]);
        }

        fn unpack_into(&self, packed: &[u8], s: &mut RingState) {
            let (holders, tail) = packed.split_at(self.n as usize);
            for (h, &b) in s.holders.iter_mut().zip(holders) {
                *h = b != 0;
            }
            (s.lap, s.done) = (tail[0], tail[1] != 0);
        }
    }

    /// A model with a wide frontier: three counters below `n`, each
    /// step raising one of them, quiescent when all are at `n - 1`. The
    /// state `bad` breaks the way its [`Fault`] says. `panic_after`
    /// makes the model panic at the `panic_after`-th state it expands on
    /// a thread other than the one that built it (the worker), or, if
    /// not `panic_on_worker`, at the `panic_after`-th state it checks
    /// (always on the searching thread). `slow_searcher` makes the
    /// searching thread sleep on every state it expands, so the worker
    /// takes chunks however fast the host is. With `burst`, every state
    /// with its first two counters equal offers each step five times,
    /// more successors than a chunk's buffers are sized for.
    struct Lattice {
        n: u8,
        burst: bool,
        bad: Option<([u8; 3], Fault)>,
        panic_after: Option<u64>,
        panic_on_worker: bool,
        slow_searcher: bool,
        searcher: thread::ThreadId,
        /// States expanded on other threads than the searching one.
        on_worker: AtomicU64,
        checked: AtomicU64,
    }

    #[derive(Clone, Copy, Debug)]
    enum Fault {
        Invariant,
        Deadlock,
        Illegal,
    }

    impl Lattice {
        fn new(n: u8, bad: Option<([u8; 3], Fault)>) -> Self {
            Lattice {
                n,
                burst: false,
                bad,
                panic_after: None,
                panic_on_worker: true,
                slow_searcher: false,
                searcher: thread::current().id(),
                on_worker: AtomicU64::new(0),
                checked: AtomicU64::new(0),
            }
        }
    }

    #[derive(Clone, Copy, PartialEq)]
    struct Raise(usize);

    impl fmt::Display for Raise {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "raise counter {}", self.0)
        }
    }

    impl ProtocolModel for Lattice {
        type State = [u8; 3];
        type Action = Raise;
        type Kind = &'static str;

        fn initial(&self) -> [u8; 3] {
            [0; 3]
        }

        fn successors(&self, s: &[u8; 3]) -> Vec<Succ<[u8; 3], Raise>> {
            let on_worker = thread::current().id() != self.searcher;
            if on_worker {
                let n = self.on_worker.fetch_add(1, Ordering::Relaxed) + 1;
                if self.panic_on_worker && self.panic_after == Some(n) {
                    panic!("lattice model panics expanding state {n}");
                }
            } else if self.slow_searcher {
                thread::sleep(std::time::Duration::from_micros(100));
            }
            let bad = self.bad.filter(|(at, _)| at == s).map(|(_, fault)| fault);
            if matches!(bad, Some(Fault::Deadlock)) {
                return Vec::new();
            }
            let repeat = if self.burst && s[0] == s[1] { 5 } else { 1 };
            (0..3)
                .filter(|&i| s[i] + 1 < self.n)
                .flat_map(|i| std::iter::repeat_n(i, repeat))
                .enumerate()
                .map(|(k, i)| {
                    let mut next = *s;
                    next[i] += 1;
                    let result = match bad {
                        Some(Fault::Illegal) if k == 1 => Err("raised past the fault".into()),
                        _ => Ok(next),
                    };
                    Succ {
                        action: Raise(i),
                        result,
                    }
                })
                .collect()
        }

        fn quiescent(&self, s: &[u8; 3]) -> bool {
            s.iter().all(|&c| c + 1 == self.n)
        }

        fn canonical(&self, s: &[u8; 3]) -> Vec<u8> {
            s.to_vec()
        }

        fn check(&self, s: &[u8; 3]) -> Option<(&'static str, String)> {
            let n = self.checked.fetch_add(1, Ordering::Relaxed) + 1;
            if !self.panic_on_worker && self.panic_after == Some(n) {
                panic!("lattice model panics checking state {n}");
            }
            let bad = self
                .bad
                .is_some_and(|(at, f)| at == *s && matches!(f, Fault::Invariant));
            bad.then(|| ("lattice invariant", format!("reached {s:?}")))
        }

        fn render_path(&self, path: &[Raise]) -> String {
            path.iter()
                .map(|r| format!("counter {} up", r.0))
                .collect::<Vec<_>>()
                .join("\n")
        }
    }

    impl PackedModel for Lattice {
        fn pack_into(&self, s: &[u8; 3], _key: &[u8], out: &mut Vec<u8>) {
            out.extend_from_slice(s);
        }

        fn unpack_into(&self, packed: &[u8], s: &mut [u8; 3]) {
            s.copy_from_slice(packed);
        }
    }

    /// Chunk lengths the equality battery forces the worker on at.
    const CHUNK_LENS: [usize; 5] = [1, 2, 3, 7, 64];

    /// Packed-frontier blocks that one packed ring state of four
    /// stations fills exactly (seven bytes with its length) and two
    /// four-byte lattice states overflow by one byte, so the frontier
    /// opens and recycles a block for every state.
    const SMALL_BLOCK: usize = 7;

    /// Held by every test that may start a worker, so
    /// [`no_worker_thread_is_left`] sees only its own test's threads.
    static WORKERS: Mutex<()> = Mutex::new(());

    fn lock_workers() -> MutexGuard<'static, ()> {
        WORKERS.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `true` unless a thread of this process is named like the
    /// explore worker (or the process's threads cannot be listed).
    fn no_worker_thread_listed() -> bool {
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return true;
        };
        tasks.flatten().all(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .map_or(true, |comm| comm.trim_end() != pipeline::WORKER_NAME)
        })
    }

    /// `true` once no explore worker thread is listed. A joined thread's
    /// `/proc/self/task` entry can outlive `join` for a moment, so this
    /// polls for up to a second; a worker that was never joined stays
    /// listed and fails it.
    fn no_worker_thread_is_left() -> bool {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
        loop {
            if no_worker_thread_listed() {
                return true;
            }
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// A search's outputs, with the counterexample rendered.
    fn seen<K: fmt::Display>(out: Done<K>) -> Result<(SearchStats, Option<String>), StateLimit> {
        out.map(|o| (o.stats, o.violation.map(|cx| cx.to_string())))
    }

    /// Runs `model` through [`explore`], then through every frontier
    /// and, forced on whatever the host, the pipelined search at every
    /// chunk length in [`CHUNK_LENS`]; every run must equal the first.
    fn assert_searches_agree<M>(label: &str, model: &M, max_states: u64)
    where
        M: PackedModel + Sync,
        M::State: Send,
        M::Action: Send,
    {
        let _workers = lock_workers();
        let want = seen(explore(model, max_states));
        for unpacked_max in [0, 1, UNPACKED_MAX] {
            for block_bytes in [SMALL_BLOCK, BLOCK_BYTES] {
                let frontier = PackedFrontier::new(model, unpacked_max, block_bytes);
                let packed = search(model, max_states, frontier, Serial);
                assert_eq!(
                    seen(packed),
                    want,
                    "{label}: packed, {unpacked_max} plain, {block_bytes}-byte blocks"
                );
            }
        }
        for chunk_len in CHUNK_LENS {
            let plain = search(
                model,
                max_states,
                VecDeque::new(),
                pipeline::Pipelined { chunk_len },
            );
            assert_eq!(
                seen(plain),
                want,
                "{label}: plain frontier, chunks of {chunk_len}"
            );
            for unpacked_max in [0, UNPACKED_MAX] {
                let frontier = PackedFrontier::new(model, unpacked_max, SMALL_BLOCK);
                let packed = search(
                    model,
                    max_states,
                    frontier,
                    pipeline::Pipelined { chunk_len },
                );
                assert_eq!(
                    seen(packed),
                    want,
                    "{label}: packed frontier, {unpacked_max} plain, chunks of {chunk_len}"
                );
            }
        }
        assert!(
            no_worker_thread_is_left(),
            "{label}: a worker outlived its search"
        );
    }

    #[test]
    fn ring_searches_agree_on_every_frontier_and_chunk_length() {
        let rings = [
            ("clean", Ring::clean(4, 3), 1_000),
            (
                "split token",
                Ring {
                    split_token: true,
                    ..Ring::clean(3, 2)
                },
                1_000,
            ),
            (
                "lose token",
                Ring {
                    lose_token: true,
                    ..Ring::clean(3, 2)
                },
                1_000,
            ),
            (
                "bad step",
                Ring {
                    bad_step: true,
                    ..Ring::clean(2, 1)
                },
                1_000,
            ),
            ("state limit", Ring::clean(4, 4), 3),
        ];
        for (label, ring, max_states) in &rings {
            assert_searches_agree(label, ring, *max_states);
        }
    }

    #[test]
    fn lattice_searches_agree_on_every_frontier_and_chunk_length() {
        let n = 12;
        // Violations deep in the search, so they fall in the middle of
        // a chunk, and a budget that runs out there too; bursts of
        // successors that leave part of a chunk to the merge.
        let cases = [
            ("clean", None, 10_000, false),
            (
                "invariant",
                Some(([5, 6, 4], Fault::Invariant)),
                10_000,
                false,
            ),
            (
                "deadlock",
                Some(([7, 3, 5], Fault::Deadlock)),
                10_000,
                false,
            ),
            (
                "illegal step",
                Some(([4, 4, 6], Fault::Illegal)),
                10_000,
                false,
            ),
            ("state limit", None, 777, false),
            ("burst", None, 10_000, true),
            (
                "burst invariant",
                Some(([6, 6, 5], Fault::Invariant)),
                10_000,
                true,
            ),
        ];
        for (label, bad, max_states, burst) in cases {
            let lattice = Lattice {
                burst,
                ..Lattice::new(n, bad)
            };
            assert_searches_agree(label, &lattice, max_states);
            let out = explore(&lattice, max_states);
            match (label, out) {
                ("clean" | "burst", Ok(o)) => assert_eq!(o.stats.states, u64::from(n).pow(3)),
                ("state limit", Err(e)) => assert_eq!(e.limit, 777),
                (_, Ok(o)) => assert!(o.violation.is_some(), "{label} not caught"),
                (_, Err(e)) => panic!("{label}: {e}"),
            }
        }
    }

    /// Runs the pipelined search of a lattice that panics at its
    /// `panic_after`-th state on (or off) the worker, on a thread of
    /// its own, and returns the panic message; fails if the search
    /// hangs, returns, or leaves its worker behind. The pipeline decides
    /// which thread expands which chunk, so a run whose worker expanded
    /// fewer than `panic_after` states proves nothing and runs again.
    fn pipelined_panic(panic_after: u64, panic_on_worker: bool) -> String {
        for _ in 0..5 {
            let (tx, rx) = std::sync::mpsc::channel();
            let searcher = thread::spawn(move || {
                let lattice = Lattice {
                    panic_after: Some(panic_after),
                    panic_on_worker,
                    slow_searcher: true,
                    ..Lattice::new(12, None)
                };
                let pipelined = pipeline::Pipelined { chunk_len: 7 };
                let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    search(&lattice, 10_000, VecDeque::new(), pipelined)
                }));
                let _ = tx.send(());
                let message = run.err().map(|payload| {
                    payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_default()
                });
                (message, lattice.on_worker.load(Ordering::Relaxed))
            });
            rx.recv_timeout(std::time::Duration::from_secs(60))
                .expect("the search hung after a model panic");
            let (message, on_worker) = searcher.join().expect("the search's panic is caught");
            assert!(no_worker_thread_is_left(), "a worker outlived its search");
            match message {
                Some(message) => return message,
                None => assert!(
                    panic_on_worker && on_worker < panic_after,
                    "the search returned despite the model's panic"
                ),
            }
        }
        panic!("the worker never expanded {panic_after} states")
    }

    #[test]
    fn a_model_panic_on_either_thread_ends_the_search() {
        let _workers = lock_workers();
        for panic_after in [1, 7, 100] {
            // On the worker: its own panic reaches the caller.
            let message = pipelined_panic(panic_after, true);
            assert!(message.starts_with("lattice model panics"), "{message}");
            // On the searching thread: the worker is stopped and joined.
            let message = pipelined_panic(panic_after, false);
            assert!(message.starts_with("lattice model panics"), "{message}");
        }
    }

    #[test]
    fn clean_ring_explores_to_quiescence() {
        let stats = expect_clean(&Ring::clean(3, 2), 1_000, "ring");
        assert!(stats.states > 1);
        assert_eq!(stats.transitions, stats.states - 1, "the ring is a line");
    }

    #[test]
    fn exploration_is_deterministic() {
        let run = || explore(&Ring::clean(4, 3), 1_000).unwrap().stats;
        assert_eq!(run(), run());
    }

    #[test]
    fn lost_token_is_a_deadlock_with_a_path() {
        let m = Ring {
            lose_token: true,
            ..Ring::clean(3, 2)
        };
        let cx = expect_violation(&m, 1_000, "lost token");
        assert_eq!(cx.violation, Violation::Deadlock);
        assert_eq!(cx.actions.len(), 1, "shortest path loses it immediately");
        assert!(cx.to_string().contains("deadlock violated"));
    }

    #[test]
    fn split_token_trips_the_model_invariant() {
        let m = Ring {
            split_token: true,
            ..Ring::clean(3, 2)
        };
        let cx = expect_violation(&m, 1_000, "split token");
        assert_eq!(cx.violation, Violation::Invariant("single-token invariant"));
        assert!(cx.description.contains("2 tokens"));
        assert!(
            cx.trace.contains("token 0 -> 1"),
            "path rendered: {}",
            cx.trace
        );
    }

    #[test]
    fn illegal_step_is_reported_with_the_offending_action() {
        let m = Ring {
            bad_step: true,
            ..Ring::clean(2, 1)
        };
        let cx = expect_violation(&m, 1_000, "bad step");
        assert_eq!(cx.violation, Violation::IllegalStep);
        assert_eq!(
            cx.actions.last().map(String::as_str),
            Some("station 0 passes the token"),
            "the offending action closes the path"
        );
    }

    #[test]
    fn state_limit_is_a_checked_error() {
        let err = explore(&Ring::clean(4, 4), 3).unwrap_err();
        assert_eq!(err, StateLimit { limit: 3 });
        assert!(err.to_string().contains("3"));
    }

    #[test]
    fn random_walk_is_deterministic_and_terminates() {
        let m = Ring::clean(3, 2);
        let a = random_walk(&m, 7, 100);
        let b = random_walk(&m, 7, 100);
        assert_eq!(a.stats, b.stats);
        assert!(a.violation.is_none());
        assert!(a.stats.transitions > 0);
    }

    #[test]
    fn random_walk_reports_a_deadlock() {
        let m = Ring {
            lose_token: true,
            ..Ring::clean(3, 2)
        };
        let out = random_walk(&m, 1, 100);
        let v = out.violation.expect("the walk must hit the lost token");
        assert_eq!(v.violation, Violation::Deadlock);
    }

    #[test]
    fn the_node_store_fills_whole_blocks_and_moves_only_the_first() {
        // 1,024 nodes a block: the first block doubles from 512, and
        // 4,099 nodes fill four blocks and open a fifth. Every path
        // runs back through earlier blocks.
        let mut nodes = Nodes::with_block_bits(10);
        nodes.push(Node {
            parent: 0,
            action: None,
        });
        assert_eq!(nodes.last.capacity(), FIRST_NODES);
        let mut later_blocks = Vec::new();
        for i in 1..4_099u32 {
            nodes.push(Node {
                parent: i / 2,
                action: Some(i),
            });
            if i % 1_024 == 0 {
                later_blocks.push(nodes.last.as_ptr());
            }
        }
        assert_eq!(nodes.len(), 4_099);
        assert_eq!(nodes.full.len(), 4);
        assert!(nodes.full.iter().all(|b| b.capacity() == 1_024));
        assert_eq!(nodes.last.capacity(), 1_024);
        let now: Vec<_> = nodes.full[1..]
            .iter()
            .chain([&nodes.last])
            .map(|b| b.as_ptr())
            .collect();
        assert_eq!(now, later_blocks, "a later block moved");
        for i in [1, 511, 512, 1_023, 1_024, 1_025, 4_098] {
            let node = nodes.get(i as usize);
            assert_eq!((node.parent, node.action), (i / 2, Some(i)));
        }
        // Node 4,098 descends by halving: 1, 2, 4, 8, 16, 32, ...
        let path = path_to(&nodes, 4_098);
        let want: Vec<u32> = (0..13).map(|k| 4_098 >> (12 - k)).collect();
        assert_eq!(path, want);
        // A default store holds 64 KiB blocks: 8,192 eight-byte nodes.
        assert_eq!(size_of::<Node<u8>>(), 8);
        assert_eq!(Nodes::<u8>::new().block_bits, 13);
    }

    #[test]
    fn splitmix_streams_are_reproducible() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..64 {
            assert_eq!(a.next(), b.next());
        }
    }
}
