//! The two-stage search of [`super::explore_packed`]: a scoped worker
//! thread expands chunks of frontier states while the searching thread
//! merges them in frontier order, expanding a queued later chunk itself
//! whenever the one it merges next is still on the worker.
//!
//! Chunks move between the threads by value through one [`Ring`] under
//! a mutex, which is held only to change a chunk's stage, never while a
//! chunk is expanded or merged. A worker that panics poisons the ring,
//! so a searching thread waiting on it panics instead of hanging; a
//! searching thread that ends, by a result or a panic, stops the ring
//! and joins the worker before it returns.

use std::collections::VecDeque;
use std::mem::size_of;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

use super::{Done, Expand, Expansion, Frontier, ProtocolModel, Search, Succ};

/// Bytes of successors one chunk's buffer is sized for.
const CHUNK_BYTES: usize = 1 << 20;
/// Successors per state a chunk's buffer is sized for.
const CHUNK_FANOUT: usize = 8;
/// Most chunks queued, being expanded or waiting to be merged at once.
const CHUNKS_IN_FLIGHT: usize = 3;
/// The worker thread's name.
pub(super) const WORKER_NAME: &str = "explore-worker";

/// Expansion on the searching thread and one worker thread, in chunks
/// of `chunk_len` states.
pub(super) struct Pipelined {
    pub(super) chunk_len: usize,
}

impl Pipelined {
    /// Chunks of [`CHUNK_BYTES`] of successors for `M`, or `None` on a
    /// host with a single CPU.
    pub(super) fn for_host<M: ProtocolModel>() -> Option<Self> {
        // Asked once per process: the answer reads cgroup files.
        static PARALLEL: OnceLock<bool> = OnceLock::new();
        let parallel =
            *PARALLEL.get_or_init(|| thread::available_parallelism().is_ok_and(|n| n.get() >= 2));
        let succ = size_of::<Succ<M::State, M::Action>>().max(1);
        parallel.then(|| Pipelined {
            chunk_len: (CHUNK_BYTES / (CHUNK_FANOUT * succ)).max(1),
        })
    }
}

impl<M> Expand<M> for Pipelined
where
    M: ProtocolModel + Sync,
    M::State: Send,
    M::Action: Send,
{
    fn finish<F: Frontier<M::State>>(
        self,
        mut s: Search<'_, M, F>,
        mut state: M::State,
    ) -> Done<M::Kind> {
        let chunk_len = self.chunk_len;
        let mut exp = Expansion::with_capacity(0, 0, 0);
        // One state at a time until the frontier holds a chunk beyond
        // the one merged first: a small search never starts the worker.
        while s.frontier.len() < 2 * chunk_len {
            if let Some(done) = s.step(&mut state, &mut exp) {
                return done;
            }
        }
        let model = s.model;
        let ring = &Shared::new();
        thread::scope(|scope| {
            // Without a worker (the host refused a thread) the search
            // still runs: the searching thread expands every chunk.
            let worker = thread::Builder::new()
                .name(WORKER_NAME.into())
                .spawn_scoped(scope, || {
                    panic::catch_unwind(AssertUnwindSafe(|| work(model, ring)))
                        .inspect_err(|_| ring.poison())
                })
                .ok();
            let searched = panic::catch_unwind(AssertUnwindSafe(|| {
                let mut spare: Vec<Chunk<M::State, M::Action>> = Vec::new();
                let mut in_flight = 0;
                loop {
                    while in_flight < CHUNKS_IN_FLIGHT && s.frontier.len() >= chunk_len {
                        let mut chunk = spare
                            .pop()
                            .unwrap_or_else(|| Chunk::new(chunk_len, &state, s.key_len));
                        chunk.fill(&mut s.frontier);
                        ring.queue(chunk);
                        in_flight += 1;
                    }
                    if in_flight == 0 {
                        if let Some(done) = s.step(&mut state, &mut exp) {
                            return done;
                        }
                        continue;
                    }
                    let chunk = ring.next_expanded(model);
                    in_flight -= 1;
                    for (i, next) in chunk.states[..chunk.len].iter().enumerate() {
                        let done = if i < chunk.exp.len() {
                            s.merge(&chunk.exp, i)
                        } else {
                            exp.clear();
                            exp.push(model, next);
                            s.merge(&exp, 0)
                        };
                        if let Some(done) = done {
                            return done;
                        }
                    }
                    spare.push(chunk);
                }
            }));
            ring.stop();
            // The worker's panic first: the searching thread's, if any,
            // is only the poisoned ring reporting it.
            let worked = worker.map_or(Ok(()), |w| w.join().and_then(|r| r));
            match (worked, searched) {
                (Err(payload), _) | (Ok(()), Err(payload)) => panic::resume_unwind(payload),
                (Ok(()), Ok(done)) => done,
            }
        })
    }
}

/// A chunk of consecutive frontier states and, once expanded, their
/// [`Expansion`]. Its buffers are allocated on the searching thread and
/// reused for every chunk after.
struct Chunk<S, A> {
    /// `states[..len]` wait for expansion; the rest are only buffers
    /// the frontier pops into.
    states: Vec<S>,
    len: usize,
    /// The expansion of `states[..exp.len()]`: of every state, unless
    /// the next one might not have fit in its buffers.
    exp: Expansion<S, A>,
    /// The most successors, and the most key bytes, any one state has
    /// added to `exp`.
    most_succs: usize,
    most_key_bytes: usize,
}

impl<S: Clone, A> Chunk<S, A> {
    /// A chunk of `len` states; `state` is a state the frontier may pop
    /// into (see [`Frontier::pop_into`]).
    fn new(len: usize, state: &S, key_len: usize) -> Self {
        Chunk {
            states: vec![state.clone(); len],
            len: 0,
            exp: Expansion::with_capacity(len, CHUNK_FANOUT, key_len),
            most_succs: 0,
            most_key_bytes: 0,
        }
    }
}

impl<S, A> Chunk<S, A> {
    /// Pops the next states off `frontier`, as many as fit.
    fn fill(&mut self, frontier: &mut impl Frontier<S>) {
        self.len = 0;
        for state in &mut self.states {
            if !frontier.pop_into(state) {
                break;
            }
            self.len += 1;
        }
    }

    /// Expands the chunk's states in order while the buffers have room
    /// for a state as large as any before, so they never grow: the
    /// merge expands the rest itself.
    fn expand<M: ProtocolModel<State = S, Action = A>>(&mut self, model: &M) {
        let exp = &mut self.exp;
        exp.clear();
        for state in &self.states[..self.len] {
            if exp.succs.len() + self.most_succs > exp.succs.capacity()
                || exp.keys.len() + self.most_key_bytes > exp.keys.capacity()
            {
                break;
            }
            let (succs, keys) = (exp.succs.len(), exp.keys.len());
            exp.push(model, state);
            self.most_succs = self.most_succs.max(exp.succs.len() - succs);
            self.most_key_bytes = self.most_key_bytes.max(exp.keys.len() - keys);
        }
    }
}

/// Where a chunk is between queueing and merging.
enum Stage<C> {
    /// Filled, waiting for a thread to expand it.
    Queued(C),
    /// Taken by a thread that is expanding it.
    Expanding,
    /// Expanded, waiting to be merged.
    Expanded(C),
}

/// The chunks in flight, in frontier order.
struct Ring<C> {
    stages: VecDeque<Stage<C>>,
    /// The number of the chunk in `stages[0]`; chunks are numbered in
    /// the order they are queued.
    head: u64,
    /// The search is over: the worker returns.
    stopped: bool,
    /// The worker panicked.
    poisoned: bool,
}

impl<C> Ring<C> {
    /// Takes the first queued chunk for expansion, with its number.
    fn take_queued(&mut self) -> Option<(u64, C)> {
        let i = self
            .stages
            .iter()
            .position(|s| matches!(s, Stage::Queued(_)))?;
        match std::mem::replace(&mut self.stages[i], Stage::Expanding) {
            Stage::Queued(chunk) => Some((self.head + i as u64, chunk)),
            _ => unreachable!("position found a queued chunk"),
        }
    }

    /// Returns chunk `number`, which a thread took for expansion.
    fn put_expanded(&mut self, number: u64, chunk: C) {
        self.stages[(number - self.head) as usize] = Stage::Expanded(chunk);
    }
}

/// The ring both threads share.
struct Shared<C> {
    ring: Mutex<Ring<C>>,
    /// The worker waits here for a queued chunk or the end.
    queued: Condvar,
    /// The searching thread waits here for the chunk it merges next.
    expanded: Condvar,
}

impl<S, A> Shared<Chunk<S, A>> {
    fn new() -> Self {
        Shared {
            ring: Mutex::new(Ring {
                stages: VecDeque::with_capacity(CHUNKS_IN_FLIGHT),
                head: 0,
                stopped: false,
                poisoned: false,
            }),
            queued: Condvar::new(),
            expanded: Condvar::new(),
        }
    }

    /// The ring. No model code runs under its lock, so a panic never
    /// leaves it half changed and a poisoned lock is still sound.
    fn lock(&self) -> MutexGuard<'_, Ring<Chunk<S, A>>> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn queue(&self, chunk: Chunk<S, A>) {
        self.lock().stages.push_back(Stage::Queued(chunk));
        self.queued.notify_one();
    }

    fn stop(&self) {
        self.lock().stopped = true;
        self.queued.notify_one();
    }

    fn poison(&self) {
        self.lock().poisoned = true;
        self.expanded.notify_one();
    }

    /// The oldest chunk in flight, expanded. While the worker still
    /// expands it, the calling thread expands a later queued chunk, or
    /// waits if there is none.
    ///
    /// # Panics
    ///
    /// Panics if the worker panicked.
    fn next_expanded<M: ProtocolModel<State = S, Action = A>>(&self, model: &M) -> Chunk<S, A> {
        let mut ring = self.lock();
        loop {
            if !matches!(ring.stages.front(), Some(Stage::Expanding)) {
                let stage = ring.stages.pop_front().expect("a chunk in flight");
                ring.head += 1;
                drop(ring);
                return match stage {
                    Stage::Expanded(chunk) => chunk,
                    Stage::Queued(mut chunk) => {
                        chunk.expand(model);
                        chunk
                    }
                    Stage::Expanding => unreachable!("checked above"),
                };
            }
            if let Some((number, mut chunk)) = ring.take_queued() {
                drop(ring);
                chunk.expand(model);
                ring = self.lock();
                ring.put_expanded(number, chunk);
                continue;
            }
            assert!(!ring.poisoned, "the explore worker thread panicked");
            ring = self
                .expanded
                .wait(ring)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The worker: expands the first queued chunk until the search stops.
fn work<M: ProtocolModel>(model: &M, shared: &Shared<Chunk<M::State, M::Action>>) {
    loop {
        let (number, mut chunk) = {
            let mut ring = shared.lock();
            loop {
                if ring.stopped {
                    return;
                }
                if let Some(taken) = ring.take_queued() {
                    break taken;
                }
                ring = shared
                    .queued
                    .wait(ring)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        chunk.expand(model);
        shared.lock().put_expanded(number, chunk);
        shared.expanded.notify_one();
    }
}
