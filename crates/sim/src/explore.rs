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
//! The visited set is far larger than the caches, so a lookup is
//! usually a cache miss. The search therefore works on one state's
//! successors as a batch: it encodes every successor's key into one
//! buffer, hashes each, and prefetches each key's first table slot
//! before it looks any of them up, so their misses overlap. The
//! lookups then run in successor order, so node numbering, statistics
//! and counterexamples are those of one-at-a-time insertion. A table
//! growth prefetches the same way, a batch of keys at a time.

use std::collections::VecDeque;
use std::fmt;

mod keyset;

use keyset::KeySet;

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
/// Packed states lie back to back in `buf`, each as a LEB128 length
/// plus its bytes, consumed from `head`. The consumed prefix is dropped
/// once it is at least half the buffer, so the buffer holds at most
/// twice the live entries.
struct PackedFrontier<'m, M: ProtocolModel> {
    model: &'m M,
    plain: VecDeque<M::State>,
    unpacked_max: usize,
    buf: Vec<u8>,
    head: usize,
    /// Packed states in `buf[head..]`.
    packed: usize,
    /// Where a state is packed before its length is known.
    scratch: Vec<u8>,
}

/// Most states [`explore_packed`] keeps unpacked on its frontier.
const UNPACKED_MAX: usize = 1 << 10;

impl<'m, M: PackedModel> PackedFrontier<'m, M> {
    fn new(model: &'m M, unpacked_max: usize) -> Self {
        PackedFrontier {
            model,
            plain: VecDeque::new(),
            unpacked_max,
            buf: Vec::new(),
            head: 0,
            packed: 0,
            scratch: Vec::new(),
        }
    }
}

impl<M: PackedModel> Frontier<M::State> for PackedFrontier<'_, M> {
    fn push(&mut self, state: &M::State, key: &[u8]) {
        if self.packed == 0 && self.plain.len() < self.unpacked_max {
            self.plain.push_back(state.clone());
            return;
        }
        self.scratch.clear();
        self.model.pack_into(state, key, &mut self.scratch);
        keyset::push_len(&mut self.buf, self.scratch.len());
        self.buf.extend_from_slice(&self.scratch);
        self.packed += 1;
    }

    fn pop_into(&mut self, state: &mut M::State) -> bool {
        if let Some(next) = self.plain.pop_front() {
            *state = next;
            return true;
        }
        if self.packed == 0 {
            return false;
        }
        let (packed, next) = keyset::read_entry(&self.buf, self.head);
        self.model.unpack_into(packed, state);
        self.head = next;
        self.packed -= 1;
        if self.head * 2 >= self.buf.len() {
            self.buf.drain(..self.head);
            self.head = 0;
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

fn path_to<A: Clone>(nodes: &[Node<A>], idx: u32) -> Vec<A> {
    let mut actions = Vec::new();
    let mut cur = idx as usize;
    while let Some(a) = &nodes[cur].action {
        actions.push(a.clone());
        cur = nodes[cur].parent as usize;
    }
    actions.reverse();
    actions
}

/// Exhaustive canonicalized BFS from the model's initial state. Returns
/// the statistics and the first (shortest-path) violation found, if
/// any.
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
    search(model, max_states, VecDeque::new())
}

/// [`explore`] with the frontier holding packed states (see
/// [`PackedModel`]): the same search, statistics and counterexamples in
/// less memory.
///
/// # Errors
///
/// Returns [`StateLimit`] as [`explore`] does.
pub fn explore_packed<M: PackedModel>(
    model: &M,
    max_states: u64,
) -> Result<SearchOutcome<M::Kind>, StateLimit> {
    search(model, max_states, PackedFrontier::new(model, UNPACKED_MAX))
}

/// The BFS of [`explore`] over any frontier representation.
fn search<M: ProtocolModel>(
    model: &M,
    max_states: u64,
    mut frontier: impl Frontier<M::State>,
) -> Result<SearchOutcome<M::Kind>, StateLimit> {
    let state_cap = max_states.min(MAX_NODES);
    let init = model.initial();
    let mut key = Vec::new();
    model.canonical_into(&init, &mut key);
    let mut visited = KeySet::new();
    visited.insert(&key);
    let mut nodes: Vec<Node<M::Action>> = vec![Node {
        parent: 0,
        action: None,
    }];
    let mut stats = SearchStats {
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
    // The state being expanded, overwritten by each pop.
    let mut state = init;
    // The node being expanded, its depth, and the first node one level
    // deeper than it.
    let (mut idx, mut depth, mut level_end) = (0u32, 0u64, 1usize);
    let mut succs = Vec::new();
    // The keys of one state's `Ok` successors, back to back in `key`,
    // with each key's end offset and hash.
    let mut batch: Vec<(usize, u64)> = Vec::new();
    while frontier.pop_into(&mut state) {
        if idx as usize == level_end {
            // Every node of this level was found while expanding the
            // last one, and none of the next level yet.
            depth += 1;
            level_end = nodes.len();
        }
        model.successors_into(&state, &mut succs);
        if succs.is_empty() && !model.quiescent(&state) {
            let path = path_to(&nodes, idx);
            return Ok(SearchOutcome {
                stats,
                violation: Some(report(
                    model,
                    &path,
                    Violation::Deadlock,
                    DEADLOCK_DESCRIPTION.into(),
                )),
            });
        }
        // Hash every key and prefetch its table slot first, so the
        // lookups below overlap their cache misses instead of taking
        // them one after another.
        key.clear();
        batch.clear();
        for next in succs.iter().filter_map(|s| s.result.as_ref().ok()) {
            let start = key.len();
            model.canonical_into(next, &mut key);
            let hash = keyset::fx_hash(&key[start..]);
            visited.prefetch(hash);
            batch.push((key.len(), hash));
        }
        let mut keys = batch.iter();
        let mut start = 0;
        // By reference: a successor is copied only if it is queued.
        for succ in &succs {
            stats.transitions += 1;
            match &succ.result {
                Err(e) => {
                    // Render the path up to the offending action.
                    let path = path_to(&nodes, idx);
                    let mut cx = report(model, &path, Violation::IllegalStep, e.clone());
                    cx.actions.push(succ.action.to_string());
                    return Ok(SearchOutcome {
                        stats,
                        violation: Some(cx),
                    });
                }
                Ok(next) => {
                    let &(end, hash) = keys.next().expect("one key per Ok successor");
                    let next_key = &key[start..end];
                    start = end;
                    if !visited.insert_hashed(next_key, hash) {
                        continue;
                    }
                    let node_idx = nodes.len() as u32;
                    nodes.push(Node {
                        parent: idx,
                        action: Some(succ.action.clone()),
                    });
                    stats.states += 1;
                    stats.max_depth = stats.max_depth.max(depth + 1);
                    if stats.states > state_cap {
                        return Err(StateLimit { limit: max_states });
                    }
                    if let Some((kind, description)) = model.check(next) {
                        let path = path_to(&nodes, node_idx);
                        return Ok(SearchOutcome {
                            stats,
                            violation: Some(report(
                                model,
                                &path,
                                Violation::Invariant(kind),
                                description,
                            )),
                        });
                    }
                    frontier.push(next, next_key);
                    stats.frontier_peak = stats.frontier_peak.max(frontier.len() as u64);
                }
            }
        }
        succs.clear();
        idx += 1;
    }
    Ok(SearchOutcome {
        stats,
        violation: None,
    })
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
        SplitMix64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit value.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn a_packed_frontier_changes_nothing_but_memory() {
        let rings = [
            Ring::clean(4, 3),
            Ring {
                split_token: true,
                ..Ring::clean(3, 2)
            },
            Ring {
                lose_token: true,
                ..Ring::clean(3, 2)
            },
            Ring {
                bad_step: true,
                ..Ring::clean(2, 1)
            },
        ];
        for ring in &rings {
            let plain = explore(ring, 1_000).unwrap();
            // All packed, at most one whole state, and as many whole
            // states as the real frontier keeps.
            for unpacked_max in [0, 1, UNPACKED_MAX] {
                let packed = search(ring, 1_000, PackedFrontier::new(ring, unpacked_max)).unwrap();
                assert_eq!(plain.stats, packed.stats);
                assert_eq!(
                    plain.violation.as_ref().map(|cx| cx.to_string()),
                    packed.violation.map(|cx| cx.to_string())
                );
            }
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
    fn splitmix_streams_are_reproducible() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..64 {
            assert_eq!(a.next(), b.next());
        }
    }
}
