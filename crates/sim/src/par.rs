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
//! This module implements the epoch-synchronous scheme the cluster
//! uses:
//!
//! * every [`KeyedShard`] (one board) is owned privately by one worker;
//! * workers advance in lock-step **epochs** of exactly `lookahead`;
//! * messages produced in epoch *k* carry timestamps `≥ (k+1)·lookahead`
//!   (checked at send time) and are pushed into the receiving shard's
//!   mailbox;
//! * at the end of each epoch a worker publishes a report — how many of
//!   its shards were active, how many envelopes they sent and the
//!   earliest instant any of them could act next — and waits for every
//!   peer's report of the same epoch. Every worker folds the same
//!   reports into the same decision (stop, or which epoch to run next),
//!   so no worker leads and nothing else is shared;
//! * at each epoch start a worker empties its shards' mailboxes and hands
//!   the newly arrived envelopes to its shards, which process them
//!   strictly in `(time, source shard, sequence)` order;
//! * quiet windows are skipped: the next epoch run is the one holding
//!   the earliest pending work key or in-flight envelope (adaptive
//!   lookahead, see [`ParReport::epochs_skipped`]).
//!
//! Because a shard's work inside an epoch depends only on its own state
//! and its (deterministically ordered) inbox, the results are **bit
//! identical for every thread count**, including the degenerate
//! single-worker execution. The determinism battery in
//! `crates/platform/tests/par_determinism.rs` asserts exactly this.
//!
//! # Deadlock freedom
//!
//! Each shard's mailbox is unbounded, so a send never blocks (its lock
//! is held only to move a vector), and the wait for the peers' reports
//! of the current epoch is the only place a worker ever waits. Every
//! worker publishes its own report before it waits, so no cycle of
//! waiting workers can form. A worker that panics poisons the run,
//! which releases every waiter so the run unwinds instead of hanging.
//! Memory stays bounded by one epoch's traffic, since every mailbox is
//! emptied at the start of the next.
//!
//! # Keyed shards
//!
//! A multi-board model is a heap of discrete work items per board,
//! processed earliest-first. Each board implements [`KeyedShard`] — its
//! next [`WorkKey`], how to run that item, how to hold an arrival — and
//! nothing else. [`Engine::run`] is the single entry point: it runs the
//! shards on the epoch engine above or on a genuinely different one (one
//! global earliest-work sweep with immediate delivery), whose final
//! states must match the epoch engine's bit for bit.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::Thread;

use crate::streams::Keyed;
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

impl<T> Keyed for Envelope<T> {
    type Key = (Time, usize, u64);

    fn key(&self) -> (Time, usize, u64) {
        Envelope::key(self)
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

/// Orders a [`KeyedShard`]'s work items: `(time, class, a, b)`. The
/// class breaks same-instant ties between kinds of work (by convention
/// class 0 is an inbox delivery keyed `(src, seq)`, so held messages run
/// before local work at the same instant); `a` and `b` tie-break within
/// a class.
pub type WorkKey = (Time, u8, u64, u64);

/// A unit of parallel work: one board (or any sub-model) whose work is a
/// sequence of discrete items run strictly in [`WorkKey`] order,
/// communicating with its peers only via [`Envelope`]s.
///
/// The epoch engine absorbs a shard's arrivals through
/// [`KeyedShard::push_arrival`], runs every item keyed before the
/// window's end, and takes the shard's next activity from
/// [`KeyedShard::next_key`] to jump quiet windows. The sequential sweep
/// runs the same items one global earliest key at a time.
pub trait KeyedShard: Send {
    /// The inter-shard message payload.
    type Msg: Send;

    /// The key of the earliest pending work item, local or held, or
    /// `None` when the shard has nothing to run (though it may still be
    /// waiting on a reply; see [`KeyedShard::idle`]). Its time is the
    /// earliest instant the shard could act, so it must never lie past
    /// real work: the epoch engine skips every window before it.
    fn next_key(&self) -> Option<WorkKey>;

    /// Runs the item `key` names, pushing outbound messages as
    /// `(destination shard, envelope)`. `key` is what
    /// [`KeyedShard::next_key`] just returned, so the shard need not
    /// compute it again. No envelope's `at` may lie before the end of
    /// the epoch window the item runs in, which a link latency of at
    /// least one lookahead guarantees.
    fn process_next(&mut self, key: WorkKey, out: &mut Vec<(usize, Envelope<Self::Msg>)>);

    /// Holds a delivered message until its key comes up. A message may
    /// arrive epochs before its time.
    fn push_arrival(&mut self, env: Envelope<Self::Msg>);

    /// `true` when the shard has no work left, held or awaited. The run
    /// ends after an epoch in which every shard is idle and nothing was
    /// sent.
    fn idle(&self) -> bool;
}

/// What a run did. Every field is a pure function of the shards and the
/// lookahead — never of the thread count. An [`Engine::Sequential`] run
/// has no epochs, so it reports only `messages`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParReport {
    /// Epochs executed, including the final all-quiet epoch.
    pub epochs: u64,
    /// Quiet epochs the adaptive lookahead jumped over instead of
    /// executing: every window before the earliest
    /// [`KeyedShard::next_key`] or in-flight envelope, which no shard
    /// can act in.
    pub epochs_skipped: u64,
    /// Envelopes exchanged between shards.
    pub messages: u64,
}

/// One worker's report of the epochs it has finished, alone on its cache
/// lines so that publishing it never invalidates a peer's data.
///
/// A worker writes an epoch's `[active, sent, min-activity]` counts into
/// the slot of the epoch's parity and then bumps `epochs`. Double
/// buffering is enough: a worker writes the same slot again only two
/// epochs later, after waiting for every peer's report of the epoch in
/// between, which each peer publishes only once it has read this one.
#[repr(align(128))]
struct Report {
    /// Epochs this worker has reported.
    epochs: AtomicU64,
    /// `[active shards, envelopes sent, least next activity in ps]` of
    /// the last two reported epochs, indexed by epoch parity.
    slots: [[AtomicU64; 3]; 2],
    /// Set while the worker is parked, or about to park, waiting for a
    /// peer's report.
    parked: AtomicBool,
    /// The worker's thread, for [`RunShared::publish`] to unpark.
    thread: OnceLock<Thread>,
}

/// Envelopes sent to one shard by other workers, taken at the start of
/// the receiver's next epoch. `full` is set, under the lock, whenever
/// envelopes are put in and cleared when they are taken, so a receiver
/// never locks an empty mailbox.
#[repr(align(128))]
struct Mailbox<T> {
    full: AtomicBool,
    queue: Mutex<Vec<Envelope<T>>>,
}

/// Why a mailbox's lock is never poisoned: it is held only to move
/// envelopes between vectors, which cannot panic.
const MAILBOX_LOCK: &str = "a mailbox is locked only to move envelopes";

impl<T> Mailbox<T> {
    fn new() -> Self {
        Mailbox {
            full: AtomicBool::new(false),
            queue: Mutex::new(Vec::new()),
        }
    }

    /// Moves every envelope of `outbox` into the mailbox, by swapping
    /// the two vectors when the mailbox is empty.
    fn put(&self, outbox: &mut Vec<Envelope<T>>) {
        let mut queue = self.queue.lock().expect(MAILBOX_LOCK);
        if queue.is_empty() {
            std::mem::swap(&mut *queue, outbox);
        } else {
            queue.append(outbox);
        }
        self.full.store(true, Ordering::Release);
    }

    /// Moves every envelope in the mailbox to the end of `bucket`, by
    /// swapping the two vectors when `bucket` is empty.
    fn take(&self, bucket: &mut Vec<Envelope<T>>) {
        if !self.full.load(Ordering::Acquire) {
            return;
        }
        let mut queue = self.queue.lock().expect(MAILBOX_LOCK);
        if bucket.is_empty() {
            std::mem::swap(&mut *queue, bucket);
        } else {
            bucket.append(&mut queue);
        }
        self.full.store(false, Ordering::Relaxed);
    }
}

/// Shared state of one conservative run: a mailbox per shard and a
/// report per worker. Nothing else is shared, so every worker reaches
/// the same decisions by folding the same reports itself.
struct RunShared<T> {
    mailboxes: Vec<Mailbox<T>>,
    reports: Vec<Report>,
    /// Set when a worker panics: its peers stop waiting for its report.
    poisoned: AtomicBool,
}

impl<T> RunShared<T> {
    fn new(shards: usize, workers: usize) -> Self {
        RunShared {
            mailboxes: (0..shards).map(|_| Mailbox::new()).collect(),
            reports: (0..workers)
                .map(|_| Report {
                    epochs: AtomicU64::new(0),
                    slots: Default::default(),
                    parked: AtomicBool::new(false),
                    thread: OnceLock::new(),
                })
                .collect(),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Publishes worker `me`'s counts for its epoch number `round`
    /// (counting executed epochs from zero) and wakes every parked peer.
    fn publish(&self, me: usize, round: u64, counts: [u64; 3]) {
        let report = &self.reports[me];
        for (slot, count) in report.slots[(round % 2) as usize].iter().zip(counts) {
            slot.store(count, Ordering::Relaxed);
        }
        report.epochs.store(round + 1, Ordering::SeqCst);
        self.wake();
    }

    /// Unparks every worker that is parked or about to park. Called
    /// after a `SeqCst` store of what waiters wait for (a report or the
    /// poison flag), this load of each `parked` flag pairs with the
    /// waiter's `SeqCst` store of `parked` and load of that value in
    /// [`RunShared::wait_for`]: either the waiter sees the store before
    /// it parks, or this sees the waiter parked and unparks it.
    fn wake(&self) {
        for report in &self.reports {
            if report.parked.load(Ordering::SeqCst) {
                report
                    .thread
                    .get()
                    .expect("a worker registers before it parks")
                    .unpark();
            }
        }
    }

    /// Waits for every peer's report of epoch number `round`, then sums
    /// `[active, sent]` and takes the least next activity over every
    /// worker's report, `counts` being `me`'s own. `None` when a peer
    /// panicked.
    fn gather(&self, me: usize, round: u64, counts: [u64; 3]) -> Option<[u64; 3]> {
        let [mut active, mut sent, mut min_ps] = counts;
        for (w, peer) in self.reports.iter().enumerate() {
            if w == me {
                continue;
            }
            self.wait_for(me, peer, round + 1)?;
            let slot = &peer.slots[(round % 2) as usize];
            active += slot[0].load(Ordering::Relaxed);
            sent += slot[1].load(Ordering::Relaxed);
            min_ps = min_ps.min(slot[2].load(Ordering::Relaxed));
        }
        Some([active, sent, min_ps])
    }

    /// Waits until `peer` has reported `epochs` epochs: a short spin,
    /// since epochs are typically much shorter than a sleep/wake round
    /// trip, with early yields so that an oversubscribed host (fewer
    /// cores than workers) runs the peer instead of the spinner, then
    /// parks. `None` when a peer panicked.
    fn wait_for(&self, me: usize, peer: &Report, epochs: u64) -> Option<()> {
        let ready = || peer.epochs.load(Ordering::Acquire) >= epochs;
        for _ in 0..32 {
            for _ in 0..200 {
                if ready() {
                    return Some(());
                }
                std::hint::spin_loop();
            }
            if self.poisoned.load(Ordering::Acquire) {
                return None;
            }
            std::thread::yield_now();
        }
        let report = &self.reports[me];
        loop {
            report.parked.store(true, Ordering::SeqCst);
            let ready = peer.epochs.load(Ordering::SeqCst) >= epochs;
            if ready || self.poisoned.load(Ordering::SeqCst) {
                report.parked.store(false, Ordering::Relaxed);
                return ready.then_some(());
            }
            std::thread::park();
        }
    }

    /// Releases every current and future waiter for good.
    fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        self.wake();
    }
}

/// One worker's view: the contiguous range of shards it owns.
struct Worker<'a, S: KeyedShard> {
    shards: &'a mut [S],
    /// This worker's index, which names its [`Report`].
    index: usize,
    /// Global index of `shards[0]`.
    base: usize,
    /// Arrived-but-not-yet-delivered envelopes, per owned shard.
    stash: Vec<Vec<Envelope<S::Msg>>>,
    /// Envelopes for other workers' shards sent this epoch, per global
    /// destination; put in its mailbox in one lock at epoch end.
    outbox: Vec<Vec<Envelope<S::Msg>>>,
}

impl<'a, S: KeyedShard> Worker<'a, S> {
    fn new(shards: &'a mut [S], index: usize, base: usize, total: usize) -> Self {
        let stash = shards.iter().map(|_| Vec::new()).collect();
        Worker {
            shards,
            index,
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

    /// Runs epochs until every report of one epoch is quiet, and returns
    /// what the whole run did. Every worker folds the same reports, so
    /// every worker returns the same report. A worker returns early,
    /// with a partial report, when a peer panicked.
    fn run(&mut self, shared: &RunShared<S::Msg>, lookahead: Duration) -> ParReport {
        shared.reports[self.index]
            .thread
            .get_or_init(std::thread::current);
        let mut report = ParReport::default();
        let mut epoch = 0u64;
        let mut out: Vec<(usize, Envelope<S::Msg>)> = Vec::new();
        let lookahead_ps = lookahead.as_ps();
        loop {
            let end = Time::ZERO + lookahead * (epoch + 1);
            let mut active = 0u64;
            let mut messages = 0u64;
            let mut local_min = u64::MAX;
            // Everything peers sent before reporting the last epoch is
            // here; anything a peer already sends in this epoch is
            // timestamped at or after its end, so taking it now or next
            // epoch is equally sound.
            for (local, bucket) in self.stash.iter_mut().enumerate() {
                shared.mailboxes[self.base + local].take(bucket);
            }
            for local in 0..self.shards.len() {
                let shard = &mut self.shards[local];
                for env in self.stash[local].drain(..) {
                    shard.push_arrival(env);
                }
                let next = loop {
                    match shard.next_key() {
                        Some(key) if key.0 < end => shard.process_next(key, &mut out),
                        next => break next,
                    }
                };
                // The earliest key is the shard's next activity. Awaited
                // work has none, but its wake-up envelope is either held
                // (covered by the key) or in flight (folded below), so no
                // worker jumps past it.
                if let Some(key) = next {
                    local_min = local_min.min(key.0.as_ps());
                }
                // Activity is a function of simulated state only (did the
                // shard send, does it still have work) — never of *when*
                // an envelope physically moved between queues — so the
                // epoch count is identical for every partitioning of
                // shards onto workers.
                let sent = out.len() as u64;
                if sent > 0 || !shard.idle() {
                    active += 1;
                }
                messages += sent;
                for (dst, env) in out.drain(..) {
                    assert!(
                        env.at >= end,
                        "lookahead violation: {} sends an envelope at {} inside window ending {}",
                        self.base + local,
                        env.at,
                        end
                    );
                    // An in-flight envelope is future activity its
                    // receiver cannot see yet; fold its timestamp so no
                    // worker jumps past it.
                    local_min = local_min.min(env.at.as_ps());
                    self.send(dst, env);
                }
            }
            // Everything sent to another worker goes out before the
            // report, so its receiver takes it at its next epoch start.
            for (dst, outbox) in self.outbox.iter_mut().enumerate() {
                if !outbox.is_empty() {
                    shared.mailboxes[dst].put(outbox);
                }
            }
            let counts = [active, messages, local_min];
            shared.publish(self.index, report.epochs, counts);
            // A poisoned run means a peer panicked; `run_conservative`
            // re-raises its panic.
            let Some([active, messages, min_ps]) = shared.gather(self.index, report.epochs, counts)
            else {
                return report;
            };
            report.epochs += 1;
            report.messages += messages;
            // Adaptive lookahead: everything anyone could do next — local
            // events, held messages, envelopes still in flight — lies at
            // or beyond `min_ps`, so the epoch containing it is the next
            // one worth executing. Window length never changes, only
            // quiet windows are jumped, so the lookahead guarantee is
            // untouched.
            let jump = if min_ps == u64::MAX {
                epoch + 1
            } else {
                (min_ps / lookahead_ps).max(epoch + 1)
            };
            report.epochs_skipped += jump - (epoch + 1);
            if active == 0 {
                return report;
            }
            epoch = jump;
        }
    }
}

/// [`Engine::Conservative`]: the report every worker agrees on.
fn run_conservative<S: KeyedShard>(
    shards: &mut [S],
    lookahead: Duration,
    threads: usize,
) -> ParReport {
    let reports = run_workers(shards, lookahead, threads);
    let report = reports.first().copied().unwrap_or_default();
    assert!(
        reports.iter().all(|r| *r == report),
        "workers disagree on the run: {reports:?}"
    );
    report
}

/// The epoch engine: the report each worker returns, in worker order
/// (none for an empty shard list).
fn run_workers<S: KeyedShard>(
    shards: &mut [S],
    lookahead: Duration,
    threads: usize,
) -> Vec<ParReport> {
    assert!(lookahead > Duration::ZERO, "lookahead must be positive");
    assert!(threads > 0, "at least one worker required");
    if shards.is_empty() {
        return Vec::new();
    }
    let n = shards.len();
    let workers = threads.min(n);
    let shared = &RunShared::new(n, workers);
    // A panicking worker poisons the run, releasing its peers so the run
    // unwinds instead of hanging.
    let work = |slice: &mut [S], w: usize, base: usize| {
        panic::catch_unwind(AssertUnwindSafe(|| {
            Worker::new(slice, w, base, n).run(shared, lookahead)
        }))
        .inspect_err(|_| shared.poison())
    };
    // Contiguous partition: worker w owns shards [lo, hi). The split has
    // no observable effect on results, only on load balance. The calling
    // thread is worker 0; the scope joins the spawned peers before a
    // worker's panic is re-raised.
    std::thread::scope(|scope| {
        let (mut rest, mut base) = (shards, 0);
        let mut parts = (0..workers).map(|w| {
            let take = (n - base).div_ceil(workers - w);
            let (slice, tail) = std::mem::take(&mut rest).split_at_mut(take);
            rest = tail;
            base += take;
            (slice, w, base - take)
        });
        let (own, _, _) = parts.next().expect("at least one worker");
        let peers: Vec<_> = parts
            .map(|(slice, w, lo)| scope.spawn(move || work(slice, w, lo)))
            .collect();
        std::iter::once(work(own, 0, 0))
            .chain(peers.into_iter().map(|h| h.join().and_then(|run| run)))
            .collect::<std::thread::Result<Vec<ParReport>>>()
    })
    .unwrap_or_else(|payload| panic::resume_unwind(payload))
}

/// [`Engine::Sequential`]. Only running an item and holding an arrival
/// change a shard, so the sweep caches every shard's key, scans the
/// cache for the earliest `(key, shard)` and asks again only the shard
/// that ran and the shards it delivered to.
fn run_sequential<S: KeyedShard>(shards: &mut [S]) -> ParReport {
    let mut messages = 0;
    let mut out = Vec::new();
    let mut keys: Vec<Option<WorkKey>> = shards.iter().map(|s| s.next_key()).collect();
    // The first shard holding the least key: ties go to the lower index.
    let earliest = |keys: &[Option<WorkKey>]| {
        let mut min: Option<(WorkKey, usize)> = None;
        for (i, &key) in keys.iter().enumerate() {
            if let Some(key) = key {
                if min.is_none_or(|(least, _)| key < least) {
                    min = Some((key, i));
                }
            }
        }
        min
    };
    while let Some((key, i)) = earliest(&keys) {
        shards[i].process_next(key, &mut out);
        keys[i] = shards[i].next_key();
        messages += out.len() as u64;
        for (dst, env) in out.drain(..) {
            shards[dst].push_arrival(env);
            keys[dst] = shards[dst].next_key();
        }
    }
    ParReport {
        messages,
        ..ParReport::default()
    }
}

/// Which engine runs a set of [`KeyedShard`]s. The two must leave every
/// shard in the same final state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The sequential reference sweep: one global clock repeatedly runs
    /// the earliest `(key, shard index)` work item across all shards and
    /// delivers its messages immediately. Each shard still sees its own
    /// items in key order, so its final state must equal what the epoch
    /// engine leaves — a genuinely different execution that validates
    /// the lookahead/epoch machinery.
    Sequential,
    /// The conservative epoch engine with this many worker threads. The
    /// calling thread is worker 0 and the spawned threads run the rest,
    /// so `Conservative(1)` executes the identical epoch algorithm on
    /// the calling thread alone. The run is bit-identical for every
    /// thread count and for the number of shards per worker: inside an
    /// epoch each shard depends only on its own state and its
    /// deterministically ordered inbox.
    Conservative(usize),
}

impl Engine {
    /// Runs `shards` to global quiescence on this engine and reports
    /// what happened. The shards are advanced in place; inspect them
    /// afterwards for results. `lookahead` is the minimum cross-shard
    /// message latency and the length of every epoch (unused by the
    /// sequential sweep).
    ///
    /// # Panics
    ///
    /// On the epoch engine: when a shard emits an envelope timestamped
    /// inside the current window (a lookahead violation), when a shard
    /// panics (with that shard's payload), or when `lookahead` or the
    /// thread count is zero.
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
    use crate::engine::{Model, Scheduler, Simulator};
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, VecDeque};

    /// Held arrivals, earliest merge key first.
    type Inbox<T> = BinaryHeap<Reverse<Envelope<T>>>;

    /// The class-0 key of an inbox's earliest held arrival.
    fn held_key<T: Eq>(inbox: &Inbox<T>) -> Option<WorkKey> {
        inbox
            .peek()
            .map(|Reverse(e)| (e.at, 0, e.src as u64, e.seq))
    }

    /// The local model of a [`PingShard`]: a log of arrivals, each
    /// event carrying the arriving payload.
    struct PingLog(Vec<u64>);

    impl Model for PingLog {
        type Event = u64;

        fn handle(&mut self, s: &mut Scheduler<u64>, value: u64) {
            self.0.push(s.now().as_ps() ^ value);
        }
    }

    /// A shard wrapping a [`Simulator`] over a log model: every held
    /// arrival schedules a local event, and every `latency` the shard
    /// pings its peer until `budget` runs out. Its local work is keyed
    /// by the simulator's next event time, cached because
    /// [`Simulator::next_event_at`] takes `&mut self`.
    struct PingShard {
        sim: Simulator<PingLog>,
        /// The simulator's next event time.
        next_event: Option<Time>,
        peer: usize,
        id: usize,
        seq: u64,
        /// Pings this shard still owes its peer.
        budget: u64,
        /// Next time this shard pings.
        next_ping: Time,
        latency: Duration,
        inbox: Inbox<u64>,
    }

    impl PingShard {
        fn new(id: usize, peer: usize, budget: u64, latency: Duration) -> Self {
            PingShard {
                sim: Simulator::new(PingLog(Vec::new())),
                next_event: None,
                peer,
                id,
                seq: 0,
                budget,
                next_ping: Time::ZERO,
                latency,
                inbox: Inbox::new(),
            }
        }
    }

    impl KeyedShard for PingShard {
        type Msg = u64;

        fn next_key(&self) -> Option<WorkKey> {
            let local = self.next_event.map(|t| (t, 1, 0, 0));
            let ping = (self.budget > 0).then_some((self.next_ping, 2, 0, 0));
            [held_key(&self.inbox), local, ping]
                .into_iter()
                .flatten()
                .min()
        }

        fn process_next(&mut self, key: WorkKey, out: &mut Vec<(usize, Envelope<u64>)>) {
            match key.1 {
                0 => {
                    let Reverse(env) = self.inbox.pop().unwrap();
                    self.sim.schedule_at(env.at, env.payload);
                }
                1 => {
                    self.sim.step();
                }
                _ => {
                    let at = self.next_ping;
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
            }
            self.next_event = self.sim.next_event_at();
        }

        fn push_arrival(&mut self, env: Envelope<u64>) {
            self.inbox.push(Reverse(env));
        }

        fn idle(&self) -> bool {
            self.budget == 0 && self.inbox.is_empty() && self.next_event.is_none()
        }
    }

    fn run_pair(engine: Engine) -> (Vec<u64>, Vec<u64>, ParReport) {
        let latency = Duration::from_ns(100);
        let mut shards = vec![
            PingShard::new(0, 1, 5, latency),
            PingShard::new(1, 0, 3, latency),
        ];
        let report = engine.run(&mut shards, latency);
        let b = shards.pop().unwrap();
        let a = shards.pop().unwrap();
        (a.sim.into_model().0, b.sim.into_model().0, report)
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let (a, b, seq) = run_pair(Engine::Sequential);
        assert_eq!(a.len(), 3, "board 0 hears board 1's three pings");
        assert_eq!(b.len(), 5, "board 1 hears board 0's five pings");
        let reports = [1, 2, 8].map(|threads| {
            let (a2, b2, report) = run_pair(Engine::Conservative(threads));
            assert_eq!((&a2, &b2), (&a, &b), "threads={threads}");
            report
        });
        assert!(reports.iter().all(|r| *r == reports[0]), "{reports:?}");
        assert_eq!(reports[0].messages, seq.messages);
    }

    /// A shard with widely spaced work, so the run can jump quiet
    /// windows. Each due time sends one envelope to the peer; arrivals
    /// are logged in merge order.
    struct SparseShard {
        id: usize,
        peer: usize,
        times: VecDeque<Time>,
        seq: u64,
        latency: Duration,
        log: Vec<u64>,
        inbox: Inbox<u64>,
    }

    impl SparseShard {
        /// Shard `id`, sending to `peer` every 3 µs, `sends` times, over
        /// a 10 ns link.
        fn new(id: usize, peer: usize, sends: u64) -> Self {
            SparseShard {
                id,
                peer,
                times: (1..=sends)
                    .map(|i| Time::ZERO + Duration::from_us(3) * i)
                    .collect(),
                seq: 0,
                latency: Duration::from_ns(10),
                log: Vec::new(),
                inbox: Inbox::new(),
            }
        }
    }

    impl KeyedShard for SparseShard {
        type Msg = u64;

        fn next_key(&self) -> Option<WorkKey> {
            let send = self.times.front().map(|&t| (t, 1, 0, 0));
            held_key(&self.inbox).into_iter().chain(send).min()
        }

        fn process_next(&mut self, key: WorkKey, out: &mut Vec<(usize, Envelope<u64>)>) {
            if key.1 == 0 {
                let Reverse(env) = self.inbox.pop().unwrap();
                self.log.push(env.payload);
                return;
            }
            let t = self.times.pop_front().unwrap();
            self.seq += 1;
            out.push((
                self.peer,
                Envelope {
                    at: t + self.latency,
                    src: self.id,
                    seq: self.seq,
                    payload: t.as_ps(),
                },
            ));
        }

        fn push_arrival(&mut self, env: Envelope<u64>) {
            self.inbox.push(Reverse(env));
        }

        fn idle(&self) -> bool {
            self.times.is_empty() && self.inbox.is_empty()
        }
    }

    fn run_sparse(threads: usize) -> (Vec<u64>, Vec<u64>, ParReport) {
        let mut shards = vec![SparseShard::new(0, 1, 7), SparseShard::new(1, 0, 4)];
        let report = Engine::Conservative(threads).run(&mut shards, Duration::from_ns(10));
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
        inbox: Inbox<u32>,
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
            let tick = self.ticks.front().map(|&t| (t, 1, 0, 0));
            held_key(&self.inbox).into_iter().chain(tick).min()
        }

        fn process_next(&mut self, key: WorkKey, out: &mut Vec<(usize, Envelope<u32>)>) {
            if key.1 == 0 {
                let Reverse(env) = self.inbox.pop().unwrap();
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
            self.inbox.push(Reverse(env));
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
                inbox: Inbox::new(),
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
            let seq = Engine::Sequential.run(&mut reference, Duration::from_ns(10));
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
                let par = Engine::Conservative(threads).run(&mut shards, Duration::from_ns(10));
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
    }

    #[test]
    fn lookahead_violations_are_caught() {
        /// Sends an envelope timestamped at its own work item's instant,
        /// inside the window, when it holds one; otherwise never
        /// finishes.
        struct Rogue(Option<Time>);
        impl KeyedShard for Rogue {
            type Msg = ();
            fn next_key(&self) -> Option<WorkKey> {
                self.0.map(|t| (t, 1, 0, 0))
            }
            fn process_next(&mut self, key: WorkKey, out: &mut Vec<(usize, Envelope<()>)>) {
                self.0 = None;
                let env = Envelope {
                    at: key.0,
                    src: 0,
                    seq: 0,
                    payload: (),
                };
                out.push((0, env));
            }
            fn push_arrival(&mut self, _env: Envelope<()>) {}
            fn idle(&self) -> bool {
                false
            }
        }
        // With more than one worker the honest shards' workers wait for
        // the rogue's report while the rogue's worker panics, from before
        // and after the rogue in worker order at three and four workers;
        // the run must still return. Worker 0 runs on the calling thread,
        // so a rogue there must still release the spawned peers.
        let rogue_at = |at: usize, n: usize| {
            (0..n)
                .map(|i| Rogue((i == at).then_some(Time::ZERO)))
                .collect::<Vec<_>>()
        };
        for (mut shards, threads) in [
            (rogue_at(0, 1), 1),
            (rogue_at(0, 2), 2),
            (rogue_at(0, 3), 3),
            (rogue_at(1, 2), 2),
            (rogue_at(1, 3), 3),
            (rogue_at(2, 4), 4),
            (rogue_at(1, 4), 4),
        ] {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Engine::Conservative(threads).run(&mut shards, Duration::from_ns(1))
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
        let report = Engine::Conservative(1).run::<PingShard>(&mut [], Duration::from_ns(1));
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

    /// Every worker folds the same reports, so every worker ends the
    /// run with the same report, and that report does not depend on how
    /// many workers share the shards.
    #[test]
    fn every_worker_reports_the_same_run() {
        let spacing = Duration::from_ns(25);
        let one = run_workers(&mut relays(5, spacing), Duration::from_ns(10), 1);
        assert_eq!(one.len(), 1);
        assert!(one[0].epochs > 0 && one[0].messages > 0, "{one:?}");
        for threads in [2, 3, 4] {
            let reports = run_workers(&mut relays(5, spacing), Duration::from_ns(10), threads);
            assert_eq!(reports.len(), threads, "one report per worker");
            assert!(
                reports.iter().all(|r| *r == one[0]),
                "threads={threads}: {reports:?} against {one:?}"
            );
        }
        // Skipped epochs too: a ring of sparse shards jumps most windows.
        let ring = || -> Vec<SparseShard> {
            (0..3)
                .map(|id| SparseShard::new(id, (id + 1) % 3, 4))
                .collect()
        };
        let one = run_workers(&mut ring(), Duration::from_ns(10), 1);
        assert!(one[0].epochs_skipped > 1000, "{one:?}");
        let three = run_workers(&mut ring(), Duration::from_ns(10), 3);
        assert!(
            three.iter().all(|r| *r == one[0]),
            "{three:?} against {one:?}"
        );
    }
}
