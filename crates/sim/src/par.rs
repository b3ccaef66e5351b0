//! Conservative parallel discrete-event execution.
//!
//! The sequential [`Simulator`](crate::Simulator) gives every model a
//! single totally-ordered event queue. A multi-board platform, however,
//! decomposes naturally along *board* boundaries: each board's simulator
//! only interacts with the others through fabric messages whose minimum
//! latency — propagation plus bridge processing — is known statically.
//! That minimum latency is the **lookahead** of conservative parallel
//! discrete-event simulation: a message sent at time `t` can never take
//! effect before `t + lookahead`, so every shard may safely advance
//! `lookahead` ahead of its peers without risking a causality violation.
//!
//! This module implements the null-message/barrier hybrid the cluster
//! uses:
//!
//! * every [`Shard`] (one board) is owned privately by one worker;
//! * workers advance in lock-step **epochs** of exactly `lookahead`;
//! * messages produced in epoch *k* carry timestamps `≥ (k+1)·lookahead`
//!   (checked at send time) and are pushed into the receiving shard's
//!   mailbox;
//! * at each epoch edge a worker empties its shards' mailboxes and hands the
//!   newly arrived envelopes to its shards, which process them strictly
//!   in `(time, source shard, sequence)` order.
//!
//! Because a shard's work inside an epoch depends only on its own state
//! and its (deterministically ordered) inbox, the results are **bit
//! identical for every thread count**, including the degenerate
//! single-worker execution. The determinism battery in
//! `crates/platform/tests/par_determinism.rs` asserts exactly this.
//!
//! # Deadlock freedom
//!
//! Each shard's mailbox is unbounded, so a send never blocks, and the
//! epoch barrier is the only place a worker ever waits: no cycle of
//! waiting workers can form. Memory stays bounded by one epoch's
//! traffic, since every mailbox is emptied at the start of the next.
//!
//! # Keyed shards
//!
//! Most multi-board models are a heap of discrete work items processed
//! earliest-first. Such a model implements [`KeyedShard`] — its next
//! [`WorkKey`], how to run that item, how to hold an arrival — and gets
//! [`Shard`] for free. It can then also run on [`run_sequential`], a
//! genuinely different engine (one global earliest-work sweep with
//! immediate delivery) whose final states must match the epoch engine's
//! bit for bit. [`Engine::run`] is the single entry point for both.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

use crate::time::{Duration, Time};

/// A timestamped message between shards.
///
/// Ordering is by `(at, src, seq)` — the deterministic merge order every
/// receiver applies before processing, so the interleaving of physical
/// queue operations never shows through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<T> {
    /// Simulated time at which the message takes effect at the receiver.
    pub at: Time,
    /// Index of the sending shard.
    pub src: usize,
    /// Per-sender sequence number (breaks ties among same-time sends).
    pub seq: u64,
    /// The message itself.
    pub payload: T,
}

impl<T> Envelope<T> {
    /// The deterministic merge key.
    pub fn key(&self) -> (Time, usize, u64) {
        (self.at, self.src, self.seq)
    }
}

impl<T: Eq> PartialOrd for Envelope<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Eq> Ord for Envelope<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// One lock-step window `[start, end)` of a conservative run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochWindow {
    /// Zero-based epoch number.
    pub index: u64,
    /// First instant of the window (inclusive).
    pub start: Time,
    /// First instant *after* the window (exclusive); equals
    /// `start + lookahead`.
    pub end: Time,
}

/// A unit of parallel work: one board (or any sub-model) advanced
/// privately by a single worker, communicating only via [`Envelope`]s.
pub trait Shard: Send {
    /// The inter-shard message payload.
    type Msg: Send;

    /// Advances the shard across `window`, first draining `arrivals`
    /// (messages destined to this shard; *not* necessarily limited to
    /// this window — the shard must hold messages timestamped beyond
    /// `window.end` for later epochs). The engine hands the same vector
    /// back every epoch, so it must be left empty; its capacity is kept
    /// for the next epoch. Every outbound message is pushed
    /// as `(destination shard, envelope)`; its `at` must be
    /// `≥ window.end`, which the lookahead guarantees for any physical
    /// link at least one epoch long.
    fn step(
        &mut self,
        window: EpochWindow,
        arrivals: &mut Vec<Envelope<Self::Msg>>,
        out: &mut Vec<(usize, Envelope<Self::Msg>)>,
    );

    /// `true` when the shard has no local work left *and* holds no
    /// undelivered inbound messages. The run ends after an epoch in
    /// which every shard is idle and nothing was sent.
    fn idle(&self) -> bool;

    /// A conservative lower bound on the next instant at which this
    /// shard could do local work (earliest pending local event or held
    /// inbound message); `None` when it has neither. The barrier leader
    /// takes the global minimum over these bounds — together with the
    /// timestamps of every envelope sent this epoch — and jumps the next
    /// epoch forward to the window containing it, skipping the quiet
    /// epochs in between (see [`ParReport::epochs_skipped`]).
    ///
    /// The default, `Some(Time::ZERO)`, means "could act at any time"
    /// and disables skipping for runs containing this shard. A shard
    /// only needs a real bound to benefit; a bound that is too *low*
    /// merely wastes epochs, while one that is too high would skip real
    /// work — so when in doubt, return the default.
    fn next_activity(&self) -> Option<Time> {
        Some(Time::ZERO)
    }
}

/// Orders a [`KeyedShard`]'s work items: `(time, class, a, b)`. The
/// class breaks same-instant ties between kinds of work (by convention
/// class 0 is an inbox delivery keyed `(src, seq)`, so held messages run
/// before local work at the same instant); `a` and `b` tie-break within
/// a class.
pub type WorkKey = (Time, u8, u64, u64);

/// A shard whose work is a sequence of discrete items run strictly in
/// [`WorkKey`] order. Every implementor is a [`Shard`] (it steps a window
/// by absorbing its arrivals and then running every item keyed before
/// the window's end) and can also run on [`run_sequential`].
pub trait KeyedShard: Send {
    /// The inter-shard message payload.
    type Msg: Send;

    /// The key of the earliest pending work item, or `None` when the
    /// shard has nothing to run (though it may still be waiting on a
    /// reply; see [`KeyedShard::idle`]).
    fn next_key(&self) -> Option<WorkKey>;

    /// Runs the item `key` names, pushing outbound messages as
    /// `(destination shard, envelope)`. `key` is what
    /// [`KeyedShard::next_key`] just returned, so the shard need not
    /// compute it again.
    fn process_next(&mut self, key: WorkKey, out: &mut Vec<(usize, Envelope<Self::Msg>)>);

    /// Holds a delivered message until its key comes up.
    fn push_arrival(&mut self, env: Envelope<Self::Msg>);

    /// `true` when the shard has no work left, held or awaited (see
    /// [`Shard::idle`]).
    fn idle(&self) -> bool;
}

impl<S: KeyedShard> Shard for S {
    type Msg = S::Msg;

    fn step(
        &mut self,
        window: EpochWindow,
        arrivals: &mut Vec<Envelope<Self::Msg>>,
        out: &mut Vec<(usize, Envelope<Self::Msg>)>,
    ) {
        for env in arrivals.drain(..) {
            self.push_arrival(env);
        }
        while let Some(key) = self.next_key().filter(|k| k.0 < window.end) {
            self.process_next(key, out);
        }
    }

    fn idle(&self) -> bool {
        KeyedShard::idle(self)
    }

    /// The earliest key. Awaited work has none, but its wake-up envelope
    /// is either held (covered here) or in flight (covered by the
    /// engine's send-time fold), so the leader never jumps past it.
    fn next_activity(&self) -> Option<Time> {
        self.next_key().map(|k| k.0)
    }
}

/// What a conservative run did. Every field is a pure function of the
/// shards and the lookahead — never of the thread count. A
/// [`run_sequential`] run has no epochs, so it reports only `messages`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParReport {
    /// Epochs executed, including the final all-quiet epoch.
    pub epochs: u64,
    /// Quiet epochs the adaptive-lookahead leader jumped over instead of
    /// executing (zero when every shard uses the default
    /// [`Shard::next_activity`]).
    pub epochs_skipped: u64,
    /// Envelopes exchanged between shards.
    pub messages: u64,
}

/// The epoch barrier: workers arrive once per epoch; the last arrival
/// runs a leader section (global quiescence accounting) before releasing
/// the generation, so every worker observes the leader's decision on
/// wake-up. A worker that panics poisons it, releasing every waiter for
/// good so the run can unwind instead of hanging.
struct EpochBarrier {
    n: usize,
    state: Mutex<BarrierState>,
    generation: AtomicU64,
    poisoned: AtomicBool,
    release: Condvar,
}

/// Why the barrier's lock is never poisoned: nothing panics while
/// holding it, since the run's leader section only touches atomics.
const BARRIER_LOCK: &str = "the barrier lock is never held across a panic";

/// What the barrier's lock guards.
struct BarrierState {
    /// Workers arrived in the current generation.
    arrived: usize,
    /// Workers blocked on the condition variable. The leader notifies
    /// only when one is, so a generation every worker spins through
    /// costs no futex call.
    parked: usize,
}

impl EpochBarrier {
    /// A barrier for `n` workers.
    fn new(n: usize) -> Self {
        EpochBarrier {
            n,
            state: Mutex::new(BarrierState {
                arrived: 0,
                parked: 0,
            }),
            generation: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            release: Condvar::new(),
        }
    }

    /// Arrives at the barrier. The last worker to arrive runs `leader`
    /// *before* anyone is released. Returns `false`, without waiting for
    /// the others, once the barrier is poisoned.
    fn wait(&self, leader: impl FnOnce()) -> bool {
        let mut state = self.state.lock().expect(BARRIER_LOCK);
        let gen = self.generation.load(Ordering::Acquire);
        state.arrived += 1;
        if state.arrived == self.n {
            state.arrived = 0;
            leader();
            self.generation.fetch_add(1, Ordering::Release);
            let parked = state.parked > 0;
            drop(state);
            if parked {
                self.release.notify_all();
            }
            return true;
        }
        drop(state);
        let released = || {
            self.generation.load(Ordering::Acquire) != gen || self.poisoned.load(Ordering::Acquire)
        };
        // Short spin first: epochs are typically much shorter than a
        // sleep/wake round trip. Yield early so an oversubscribed host
        // (fewer cores than workers) makes progress instead of burning
        // the peer's time slice.
        for _ in 0..32 {
            for _ in 0..200 {
                if released() {
                    return !self.poisoned.load(Ordering::Acquire);
                }
                std::hint::spin_loop();
            }
            std::thread::yield_now();
        }
        // The leader bumps the generation (and a panicking worker sets
        // the poison flag) under this lock and reads `parked` there, so
        // a waiter that parks is either seen and notified or finds
        // itself released before it sleeps: no wake-up is missed.
        let mut state = self.state.lock().expect(BARRIER_LOCK);
        state.parked += 1;
        let mut state = self
            .release
            .wait_while(state, |_| !released())
            .expect(BARRIER_LOCK);
        state.parked -= 1;
        drop(state);
        !self.poisoned.load(Ordering::Acquire)
    }

    /// Releases every current and future waiter for good.
    fn poison(&self) {
        let _state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        self.poisoned.store(true, Ordering::Release);
        self.generation.fetch_add(1, Ordering::Release);
        self.release.notify_all();
    }
}

/// Shared state of one conservative run.
struct RunShared<T> {
    /// Envelopes sent to each shard by other workers, taken at the
    /// start of the receiver's next epoch.
    mailboxes: Vec<Mutex<Vec<Envelope<T>>>>,
    barrier: EpochBarrier,
    /// Shards that were active this epoch; swapped to zero by the
    /// barrier leader.
    active: AtomicU64,
    /// Envelopes exchanged, cumulative; each worker adds its epoch's
    /// count once, before the barrier.
    messages: AtomicU64,
    /// Minimum over every shard's [`Shard::next_activity`] and every
    /// envelope timestamp sent this epoch, in picoseconds; each worker
    /// folds its own minimum in once per epoch, and the barrier leader
    /// resets it to `u64::MAX`. The happens-before edges of the barrier
    /// make the relaxed `fetch_min`s visible to the leader.
    next_min_ps: AtomicU64,
    /// Leader's decision: the epoch index every worker executes next
    /// (may jump past quiet epochs).
    next_epoch: AtomicU64,
    /// Quiet epochs jumped over, cumulative.
    epochs_skipped: AtomicU64,
    /// Leader's decision: the run is globally quiet, stop after this
    /// epoch.
    done: AtomicBool,
}

/// One worker's view: the contiguous range of shards it owns.
struct Worker<'a, S: Shard> {
    shards: &'a mut [S],
    /// Global index of `shards[0]`.
    base: usize,
    /// Arrived-but-not-yet-delivered envelopes, per owned shard.
    stash: Vec<Vec<Envelope<S::Msg>>>,
    /// Envelopes for other workers' shards sent this epoch, per global
    /// destination; appended to its mailbox in one lock at epoch end.
    outbox: Vec<Vec<Envelope<S::Msg>>>,
}

impl<'a, S: Shard> Worker<'a, S> {
    fn new(shards: &'a mut [S], base: usize, total: usize) -> Self {
        let stash = shards.iter().map(|_| Vec::new()).collect();
        Worker {
            shards,
            base,
            stash,
            outbox: (0..total).map(|_| Vec::new()).collect(),
        }
    }

    fn owns(&self, global: usize) -> bool {
        global >= self.base && global < self.base + self.shards.len()
    }

    /// Sends `env` to global shard `dst`; never blocks.
    fn send(&mut self, dst: usize, env: Envelope<S::Msg>) {
        if self.owns(dst) {
            // Same-worker fast path: no mailbox involved. Determinism is
            // unaffected — delivery order is erased by the (at, src, seq)
            // sort before processing.
            self.stash[dst - self.base].push(env);
        } else {
            self.outbox[dst].push(env);
        }
    }

    /// Runs epochs until the leader declares global quiescence; returns
    /// the number of epochs *executed* (jumped-over epochs excluded).
    fn run(&mut self, shared: &RunShared<S::Msg>, lookahead: Duration) -> u64 {
        let mut epoch = 0u64;
        let mut executed = 0u64;
        let mut out: Vec<(usize, Envelope<S::Msg>)> = Vec::new();
        let lookahead_ps = lookahead.as_ps();
        loop {
            let window = EpochWindow {
                index: epoch,
                start: Time::ZERO + lookahead * epoch,
                end: Time::ZERO + lookahead * (epoch + 1),
            };
            let mut active = 0u64;
            let mut messages = 0u64;
            let mut local_min = u64::MAX;
            // Everything sent before the last barrier is here; anything a
            // peer already sends in this epoch is timestamped at or after
            // its end, so taking it now or next epoch is equally sound.
            for (local, bucket) in self.stash.iter_mut().enumerate() {
                bucket.append(&mut shared.mailboxes[self.base + local].lock().unwrap());
            }
            for local in 0..self.shards.len() {
                let arrivals = &mut self.stash[local];
                self.shards[local].step(window, arrivals, &mut out);
                assert!(
                    arrivals.is_empty(),
                    "shard {} left arrivals undrained",
                    self.base + local
                );
                let sent = out.len() as u64;
                messages += sent;
                for (dst, env) in out.drain(..) {
                    assert!(
                        env.at >= window.end,
                        "lookahead violation: {} sends an envelope at {} inside window ending {}",
                        self.base + local,
                        env.at,
                        window.end
                    );
                    // An in-flight envelope is future activity its
                    // receiver cannot see yet; fold its timestamp so the
                    // leader never jumps past it.
                    local_min = local_min.min(env.at.as_ps());
                    self.send(dst, env);
                }
                // Activity is a function of simulated state only (did the
                // shard send, does it still have work) — never of *when*
                // an envelope physically moved between queues — so the
                // epoch count is identical for every partitioning of
                // shards onto workers.
                if sent > 0 || !self.shards[local].idle() {
                    active += 1;
                }
                if let Some(t) = self.shards[local].next_activity() {
                    local_min = local_min.min(t.as_ps());
                }
            }
            // Everything sent to another worker goes out before the
            // barrier, so its receiver takes it at the next epoch start.
            for (dst, outbox) in self.outbox.iter_mut().enumerate() {
                if !outbox.is_empty() {
                    shared.mailboxes[dst]
                        .lock()
                        .expect("a mailbox is locked only to append to it")
                        .append(outbox);
                }
            }
            if active > 0 {
                shared.active.fetch_add(active, Ordering::AcqRel);
            }
            if messages > 0 {
                shared.messages.fetch_add(messages, Ordering::Relaxed);
            }
            if local_min != u64::MAX {
                shared.next_min_ps.fetch_min(local_min, Ordering::Relaxed);
            }
            let released = shared.barrier.wait(|| {
                let quiet = shared.active.swap(0, Ordering::AcqRel) == 0;
                shared.done.store(quiet, Ordering::Release);
                // Adaptive lookahead: everything anyone could do next
                // — local events, held messages, envelopes still in
                // flight — lies at or beyond `min_ps`, so the epoch
                // containing it is the next one worth executing.
                // Window length never changes, only quiet windows are
                // jumped, so the lookahead guarantee is untouched.
                let min_ps = shared.next_min_ps.swap(u64::MAX, Ordering::AcqRel);
                let jump = if min_ps == u64::MAX {
                    epoch + 1
                } else {
                    (min_ps / lookahead_ps).max(epoch + 1)
                };
                shared
                    .epochs_skipped
                    .fetch_add(jump - (epoch + 1), Ordering::Relaxed);
                shared.next_epoch.store(jump, Ordering::Release);
            });
            epoch = shared.next_epoch.load(Ordering::Acquire);
            executed += 1;
            // A poisoned barrier means a peer panicked; `run_conservative`
            // re-raises its panic.
            if !released || shared.done.load(Ordering::Acquire) {
                return executed;
            }
        }
    }
}

/// Runs `shards` conservatively to global quiescence and reports what
/// happened. The shards are advanced in place; inspect them afterwards
/// for results. `lookahead` is the minimum cross-shard message latency
/// and the length of every epoch; `threads` workers share the shards,
/// and `1` executes the identical epoch algorithm on the calling thread.
///
/// The run is bit-identical for every `threads` value and for the
/// number of shards per worker: inside an epoch each shard depends only
/// on its own state and its deterministically ordered inbox.
///
/// # Panics
///
/// Panics when a shard emits an envelope timestamped inside the current
/// window (a lookahead violation), when a shard panics (with that
/// shard's payload), or when `lookahead` or `threads` is zero.
pub fn run_conservative<S: Shard>(
    shards: &mut [S],
    lookahead: Duration,
    threads: usize,
) -> ParReport {
    assert!(lookahead > Duration::ZERO, "lookahead must be positive");
    assert!(threads > 0, "at least one worker required");
    if shards.is_empty() {
        return ParReport::default();
    }
    let n = shards.len();
    let workers = threads.min(n);
    let shared = RunShared {
        mailboxes: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
        barrier: EpochBarrier::new(workers),
        active: AtomicU64::new(0),
        messages: AtomicU64::new(0),
        next_min_ps: AtomicU64::new(u64::MAX),
        next_epoch: AtomicU64::new(0),
        epochs_skipped: AtomicU64::new(0),
        done: AtomicBool::new(false),
    };

    let epochs = if workers == 1 {
        Worker::new(shards, 0, n).run(&shared, lookahead)
    } else {
        // Contiguous partition: worker w owns shards [lo, hi). The split
        // has no observable effect on results, only on load balance.
        std::thread::scope(|scope| {
            let shared = &shared;
            let mut handles = Vec::with_capacity(workers);
            let mut rest = shards;
            let mut base = 0usize;
            for w in 0..workers {
                let take = (n - base).div_ceil(workers - w);
                let (slice, tail) = rest.split_at_mut(take);
                handles.push(scope.spawn(move || {
                    // A panicking worker poisons the barrier, releasing its
                    // peers so the run unwinds instead of hanging.
                    panic::catch_unwind(AssertUnwindSafe(|| {
                        Worker::new(slice, base, n).run(shared, lookahead)
                    }))
                    .inspect_err(|_| shared.barrier.poison())
                }));
                base += take;
                rest = tail;
            }
            handles
                .into_iter()
                .map(|h| h.join().and_then(|run| run))
                .collect::<std::thread::Result<Vec<u64>>>()
        })
        .unwrap_or_else(|payload| panic::resume_unwind(payload))
        .into_iter()
        .fold(0, u64::max)
    };
    ParReport {
        epochs,
        epochs_skipped: shared.epochs_skipped.load(Ordering::Acquire),
        messages: shared.messages.load(Ordering::Acquire),
    }
}

/// The sequential reference engine: one global clock repeatedly runs
/// the earliest `(key, shard index)` work item across all shards and
/// delivers its messages immediately. Each shard still sees its own
/// items in key order, so its final state must equal what
/// [`run_conservative`] leaves — a genuinely different execution that
/// validates the lookahead/epoch machinery.
pub fn run_sequential<S: KeyedShard>(shards: &mut [S]) -> ParReport {
    let mut messages = 0;
    let mut out = Vec::new();
    loop {
        let mut best: Option<(WorkKey, usize)> = None;
        for (i, s) in shards.iter().enumerate() {
            if let Some(k) = s.next_key() {
                if best.is_none_or(|b| (k, i) < b) {
                    best = Some((k, i));
                }
            }
        }
        let Some((key, i)) = best else { break };
        shards[i].process_next(key, &mut out);
        messages += out.len() as u64;
        for (dst, env) in out.drain(..) {
            shards[dst].push_arrival(env);
        }
    }
    ParReport {
        messages,
        ..ParReport::default()
    }
}

/// Which engine runs a set of [`KeyedShard`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// [`run_sequential`]: the reference sweep.
    Sequential,
    /// [`run_conservative`] with this many worker threads.
    Conservative(usize),
}

impl Engine {
    /// Runs `shards` to quiescence on this engine. `lookahead` is the
    /// minimum cross-shard latency (unused by the sequential sweep).
    ///
    /// # Panics
    ///
    /// Panics on zero worker threads, and wherever the chosen engine
    /// panics.
    pub fn run<S: KeyedShard>(self, shards: &mut [S], lookahead: Duration) -> ParReport {
        match self {
            Engine::Sequential => run_sequential(shards),
            Engine::Conservative(threads) => run_conservative(shards, lookahead, threads),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use std::collections::VecDeque;

    /// A shard wrapping a [`Simulator`] over a counter model: every
    /// arrival schedules a local event; every `period`, the shard pings
    /// its peer until `budget` runs out. Exercises the
    /// [`Simulator::run_before`] epoch-stepping primitive.
    struct PingShard {
        sim: Simulator<Vec<u64>>,
        peer: usize,
        id: usize,
        seq: u64,
        /// Pings this shard still owes its peer.
        budget: u64,
        /// Next time this shard may ping.
        next_ping: Time,
        latency: Duration,
        inbox: std::collections::BinaryHeap<std::cmp::Reverse<Envelope<u64>>>,
    }

    impl PingShard {
        fn new(id: usize, peer: usize, budget: u64, latency: Duration) -> Self {
            PingShard {
                sim: Simulator::new(Vec::new()),
                peer,
                id,
                seq: 0,
                budget,
                next_ping: Time::ZERO,
                latency,
                inbox: std::collections::BinaryHeap::new(),
            }
        }
    }

    impl Shard for PingShard {
        type Msg = u64;

        fn step(
            &mut self,
            window: EpochWindow,
            arrivals: &mut Vec<Envelope<u64>>,
            out: &mut Vec<(usize, Envelope<u64>)>,
        ) {
            for env in arrivals.drain(..) {
                self.inbox.push(std::cmp::Reverse(env));
            }
            // Deliver due messages as local events, in merge order.
            while let Some(std::cmp::Reverse(env)) = self.inbox.peek() {
                if env.at >= window.end {
                    break;
                }
                let std::cmp::Reverse(env) = self.inbox.pop().unwrap();
                let value = env.payload;
                self.sim.schedule_at(env.at, move |log: &mut Vec<u64>, s| {
                    log.push(s.now().as_ps() ^ value);
                });
            }
            // Emit pings due inside this window.
            while self.budget > 0 && self.next_ping < window.end {
                let at = self.next_ping.max(window.start);
                self.budget -= 1;
                self.seq += 1;
                out.push((
                    self.peer,
                    Envelope {
                        at: at + self.latency,
                        src: self.id,
                        seq: self.seq,
                        payload: at.as_ps(),
                    },
                ));
                self.next_ping = at + self.latency;
            }
            // Advance the local event queue through the window.
            self.sim.run_before(window.end);
        }

        fn idle(&self) -> bool {
            self.budget == 0 && self.inbox.is_empty() && self.sim.pending() == 0
        }
    }

    fn run_pair(threads: usize) -> (Vec<u64>, Vec<u64>, ParReport) {
        let latency = Duration::from_ns(100);
        let mut shards = vec![
            PingShard::new(0, 1, 5, latency),
            PingShard::new(1, 0, 3, latency),
        ];
        let report = run_conservative(&mut shards, latency, threads);
        let b = shards.pop().unwrap();
        let a = shards.pop().unwrap();
        (a.sim.into_model(), b.sim.into_model(), report)
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let (a1, b1, r1) = run_pair(1);
        let (a2, b2, r2) = run_pair(2);
        let (a8, b8, r8) = run_pair(8);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        assert_eq!(a1, a8);
        assert_eq!(b1, b8);
        assert_eq!(r1, r2);
        assert_eq!(r1, r8);
        assert_eq!(a1.len(), 3, "board 0 hears board 1's three pings");
        assert_eq!(b1.len(), 5, "board 1 hears board 0's five pings");
    }

    /// A shard with widely spaced work and an honest [`Shard::next_activity`],
    /// so the leader can jump quiet windows. Each due time sends one
    /// envelope to the peer; arrivals are logged in merge order.
    struct SparseShard {
        id: usize,
        peer: usize,
        times: VecDeque<Time>,
        seq: u64,
        latency: Duration,
        log: Vec<u64>,
        inbox: std::collections::BinaryHeap<std::cmp::Reverse<Envelope<u64>>>,
    }

    impl Shard for SparseShard {
        type Msg = u64;

        fn step(
            &mut self,
            window: EpochWindow,
            arrivals: &mut Vec<Envelope<u64>>,
            out: &mut Vec<(usize, Envelope<u64>)>,
        ) {
            for env in arrivals.drain(..) {
                self.inbox.push(std::cmp::Reverse(env));
            }
            while let Some(std::cmp::Reverse(env)) = self.inbox.peek() {
                if env.at >= window.end {
                    break;
                }
                let std::cmp::Reverse(env) = self.inbox.pop().unwrap();
                self.log.push(env.payload);
            }
            while let Some(&t) = self.times.front() {
                if t >= window.end {
                    break;
                }
                self.times.pop_front();
                self.seq += 1;
                out.push((
                    self.peer,
                    Envelope {
                        at: t.max(window.start) + self.latency,
                        src: self.id,
                        seq: self.seq,
                        payload: t.as_ps(),
                    },
                ));
            }
        }

        fn idle(&self) -> bool {
            self.times.is_empty() && self.inbox.is_empty()
        }

        fn next_activity(&self) -> Option<Time> {
            let local = self.times.front().copied();
            let held = self.inbox.peek().map(|std::cmp::Reverse(e)| e.at);
            match (local, held) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            }
        }
    }

    fn run_sparse(threads: usize) -> (Vec<u64>, Vec<u64>, ParReport) {
        let latency = Duration::from_ns(10);
        let gap = Duration::from_us(3);
        let mk = |id: usize, peer: usize, n: u64| SparseShard {
            id,
            peer,
            times: (0..n).map(|i| Time::ZERO + gap * (i + 1)).collect(),
            seq: 0,
            latency,
            log: Vec::new(),
            inbox: std::collections::BinaryHeap::new(),
        };
        let mut shards = vec![mk(0, 1, 7), mk(1, 0, 4)];
        let report = run_conservative(&mut shards, latency, threads);
        let b = shards.pop().unwrap();
        let a = shards.pop().unwrap();
        (a.log, b.log, report)
    }

    #[test]
    fn adaptive_lookahead_skips_quiet_epochs_deterministically() {
        let (a1, b1, r1) = run_sparse(1);
        let (a2, b2, r2) = run_sparse(2);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        assert_eq!(r1, r2, "epoch accounting must be thread-invariant");
        assert_eq!(a1.len(), 4, "shard 0 hears all of shard 1's sends");
        assert_eq!(b1.len(), 7, "shard 1 hears all of shard 0's sends");
        // Work every 3 µs under a 10 ns lookahead: naively > 2000 epochs;
        // skipping must collapse nearly all of them.
        assert!(
            r1.epochs < 100,
            "quiet epochs were executed, not skipped: {r1:?}"
        );
        assert!(r1.epochs_skipped > 1000, "{r1:?}");
    }

    /// A [`KeyedShard`] in which every shard ticks at the same instants
    /// and broadcasts to all peers, so arrivals from several sources tie
    /// on time; each arrival is relayed onward until its hop budget runs
    /// out. The log records processing order.
    struct Relay {
        id: usize,
        n: usize,
        latency: Duration,
        ticks: VecDeque<Time>,
        seq: u64,
        inbox: std::collections::BinaryHeap<std::cmp::Reverse<Envelope<u32>>>,
        /// Every delivery, in processing order.
        log: Vec<Delivery>,
    }

    /// `(time ps, src, hops left)` of one delivery.
    type Delivery = (u64, usize, u32);

    impl Relay {
        fn send(&mut self, dst: usize, at: Time, hops: u32, out: &mut Vec<(usize, Envelope<u32>)>) {
            self.seq += 1;
            let env = Envelope {
                at: at + self.latency,
                src: self.id,
                seq: self.seq,
                payload: hops,
            };
            out.push((dst, env));
        }
    }

    impl KeyedShard for Relay {
        type Msg = u32;

        fn next_key(&self) -> Option<WorkKey> {
            let held = self
                .inbox
                .peek()
                .map(|std::cmp::Reverse(e)| (e.at, 0, e.src as u64, e.seq));
            let tick = self.ticks.front().map(|&t| (t, 1, 0, 0));
            match (held, tick) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            }
        }

        fn process_next(&mut self, key: WorkKey, out: &mut Vec<(usize, Envelope<u32>)>) {
            if key.1 == 0 {
                let std::cmp::Reverse(env) = self.inbox.pop().unwrap();
                self.log.push((env.at.as_ps(), env.src, env.payload));
                if env.payload > 0 {
                    // Relay away from the sender, never to ourselves.
                    let dst = (env.src + self.id + 1) % self.n;
                    let dst = if dst == self.id {
                        (dst + 1) % self.n
                    } else {
                        dst
                    };
                    self.send(dst, env.at, env.payload - 1, out);
                }
            } else {
                let t = self.ticks.pop_front().unwrap();
                for k in 1..self.n {
                    self.send((self.id + k) % self.n, t, 2, out);
                }
            }
        }

        fn push_arrival(&mut self, env: Envelope<u32>) {
            self.inbox.push(std::cmp::Reverse(env));
        }

        fn idle(&self) -> bool {
            self.ticks.is_empty() && self.inbox.is_empty()
        }
    }

    /// Four relays, each ticking `ticks` times `spacing` apart.
    fn relays(ticks: u64, spacing: Duration) -> Vec<Relay> {
        let n = 4;
        (0..n)
            .map(|id| Relay {
                id,
                n,
                latency: Duration::from_ns(10),
                ticks: (0..ticks).map(|i| Time::ZERO + spacing * i).collect(),
                seq: 0,
                inbox: std::collections::BinaryHeap::new(),
                log: Vec::new(),
            })
            .collect()
    }

    /// Each shard's delivery log and send count, once it is idle.
    fn relay_state(shards: &[Relay]) -> Vec<(Vec<Delivery>, u64)> {
        shards
            .iter()
            .inspect(|s| assert!(KeyedShard::idle(*s)))
            .map(|s| (s.log.clone(), s.seq))
            .collect()
    }

    #[test]
    fn keyed_shards_match_the_sequential_sweep_at_every_thread_count() {
        // Five spaced ticks, then a burst: 500 ticks at one instant send
        // every shard 1,500 envelopes in one window, at least 1,000 of
        // them from other workers' shards at every thread count above 1.
        for (ticks, spacing) in [(5, Duration::from_ns(25)), (500, Duration::ZERO)] {
            let mut reference = relays(ticks, spacing);
            let seq = run_sequential(&mut reference);
            let expect = relay_state(&reference);
            assert_eq!(seq.epochs, 0);
            // Four shards x `ticks` ticks x three peers, each relayed twice.
            assert_eq!(seq.messages, 4 * ticks * 3 * 3);
            let ties = expect[0]
                .0
                .windows(2)
                .filter(|w| w[0].0 == w[1].0 && w[0].1 != w[1].1);
            assert!(
                ties.count() > 0,
                "arrivals from different shards tie on time"
            );
            for threads in [1, 2, 4] {
                let mut shards = relays(ticks, spacing);
                let par = run_conservative(&mut shards, Duration::from_ns(10), threads);
                assert_eq!(
                    relay_state(&shards),
                    expect,
                    "ticks={ticks} threads={threads}"
                );
                assert_eq!(
                    par.messages, seq.messages,
                    "ticks={ticks} threads={threads}"
                );
                assert!(par.epochs > 0);
            }
        }
        let via_engine = Engine::Conservative(2)
            .run(&mut relays(5, Duration::from_ns(25)), Duration::from_ns(10));
        assert_eq!(via_engine.messages, 4 * 5 * 3 * 3);
    }

    #[test]
    fn default_next_activity_never_skips() {
        let (_, _, report) = run_pair(1);
        assert_eq!(report.epochs_skipped, 0, "{report:?}");
    }

    #[test]
    fn lookahead_violations_are_caught() {
        /// Sends an envelope timestamped at its window's start when its
        /// flag is set; otherwise never finishes.
        struct Rogue(bool);
        impl Shard for Rogue {
            type Msg = ();
            fn step(
                &mut self,
                window: EpochWindow,
                _arrivals: &mut Vec<Envelope<()>>,
                out: &mut Vec<(usize, Envelope<()>)>,
            ) {
                if self.0 {
                    out.push((
                        0,
                        Envelope {
                            at: window.start,
                            src: 0,
                            seq: 0,
                            payload: (),
                        },
                    ));
                }
            }
            fn idle(&self) -> bool {
                false
            }
        }
        // At two threads the honest shard's worker waits at the barrier
        // while the rogue's worker panics; the run must still return.
        for (mut shards, threads) in [(vec![Rogue(true)], 1), (vec![Rogue(false), Rogue(true)], 2)]
        {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_conservative(&mut shards, Duration::from_ns(1), threads)
            }));
            let payload = result.expect_err("lookahead violation must panic");
            let message = payload.downcast_ref::<String>().map_or("", String::as_str);
            assert!(
                message.contains("lookahead violation"),
                "threads={threads}: {message:?}"
            );
        }
    }

    #[test]
    fn empty_shard_list_is_a_noop() {
        let report = run_conservative::<PingShard>(&mut [], Duration::from_ns(1), 1);
        assert_eq!(report.epochs, 0);
        assert_eq!(report.messages, 0);
    }

    #[test]
    fn envelope_merge_order_is_time_src_seq() {
        let mk = |at, src, seq| Envelope {
            at: Time::from_ps(at),
            src,
            seq,
            payload: (),
        };
        let mut v = [mk(5, 0, 1), mk(3, 2, 0), mk(3, 1, 7), mk(3, 1, 2)];
        v.sort();
        let keys: Vec<_> = v.iter().map(|e| (e.at.as_ps(), e.src, e.seq)).collect();
        assert_eq!(keys, vec![(3, 1, 2), (3, 1, 7), (3, 2, 0), (5, 0, 1)]);
    }

    #[test]
    fn barrier_leader_runs_before_release() {
        let barrier = std::sync::Arc::new(EpochBarrier::new(3));
        let flag = std::sync::Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let barrier = barrier.clone();
            let flag = flag.clone();
            handles.push(std::thread::spawn(move || {
                assert!(barrier.wait(|| panic!("only the last arrival leads")));
                flag.load(Ordering::Acquire)
            }));
        }
        // Give the two waiters a moment to arrive first (timing only
        // affects which thread leads, never correctness).
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(barrier.wait(|| flag.store(42, Ordering::Release)));
        for h in handles {
            assert_eq!(h.join().unwrap(), 42, "leader section visible on wake");
        }
    }
}
