//! The discrete-event scheduler.
//!
//! [`Simulator`] owns a user-provided model `M` and a time-ordered queue of
//! events. Ties in time are broken by insertion order, making runs fully
//! deterministic.
//!
//! # Hot path
//!
//! The queue is an indexed [`CalendarQueue`] of 24-byte POD entries
//! `(time, seq, slot, generation)`; event state
//! lives in a slab with a free-list, so the steady-state scheduling cycle
//! — pop, dispatch, schedule a follow-up — touches recycled memory only
//! and allocates nothing when the handler is a plain function pointer
//! ([`Scheduler::schedule_pod_at`] and friends, carrying a small
//! [`Pod`] payload). Boxed-closure handlers ([`Scheduler::schedule_at`])
//! remain fully supported for cold paths and cost exactly one `Box` per
//! event. The previous `BTreeMap`-of-boxes core is retained verbatim
//! (see [`crate::reference`]) as the differential-testing oracle; both
//! cores fire events in the identical `(time, seq)` order.

use crate::calq::CalendarQueue;
use crate::telemetry::{Instrumented, MetricsRegistry};
use crate::time::{Duration, Time};

/// Error returned by [`Simulator::run_bounded`] when the event budget is
/// exhausted with events still pending: the model is livelocked (or the
/// budget was simply too small for the workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LivelockError {
    /// The budget that was exhausted.
    pub max_events: u64,
    /// Events still pending when the run gave up.
    pub pending: usize,
    /// Simulated time at which the run stopped.
    pub stopped_at: Time,
}

impl std::fmt::Display for LivelockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "event budget of {} exhausted at {} with {} events still pending (livelock?)",
            self.max_events, self.stopped_at, self.pending
        )
    }
}

impl std::error::Error for LivelockError {}

/// Identifier of a scheduled event, usable to cancel it before it fires.
///
/// Packs the event's slab slot and the slot's generation at schedule
/// time, so a stale id for a recycled slot can never cancel its new
/// occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

impl EventId {
    fn pack(idx: u32, gen: u32) -> Self {
        EventId(((gen as u64) << 32) | idx as u64)
    }

    fn unpack(self) -> (u32, u32) {
        (self.0 as u32, (self.0 >> 32) as u32)
    }
}

/// Events are `Send` so models built on the simulator (and the simulator
/// itself) can be moved across threads.
type EventFn<M> = Box<dyn FnOnce(&mut M, &mut Scheduler<M>) + Send>;

/// A plain-function event handler: the allocation-free dispatch path.
pub type PodFn<M> = fn(&mut M, &mut Scheduler<M>, Pod);

/// Small POD payload carried by a [`PodFn`] event: four words the
/// handler interprets itself (indices, counts, packed small enums).
/// Anything larger belongs in the model (e.g. a model-side slab, with
/// the slot index in the pod) or in a boxed-closure event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Pod {
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Third payload word.
    pub c: u64,
    /// Fourth payload word.
    pub d: u64,
}

impl Pod {
    /// A payload with the given words (unused ones zero).
    pub fn new(a: u64, b: u64, c: u64, d: u64) -> Self {
        Pod { a, b, c, d }
    }
}

/// One slab slot. `gen` counts occupancies: an entry (or [`EventId`])
/// created for generation `g` is dead once the slot's generation moved
/// past `g`, which is how cancelled and fired events are recognised
/// without touching the queue.
enum Slot<M> {
    Vacant { next_free: u32, gen: u32 },
    Closure { gen: u32, f: EventFn<M> },
    Pod { gen: u32, f: PodFn<M>, pod: Pod },
}

impl<M> Slot<M> {
    fn gen(&self) -> u32 {
        match self {
            Slot::Vacant { gen, .. } | Slot::Closure { gen, .. } | Slot::Pod { gen, .. } => *gen,
        }
    }

    fn is_occupied(&self) -> bool {
        !matches!(self, Slot::Vacant { .. })
    }
}

/// Sentinel for "free list empty".
const NIL: u32 = u32::MAX;

/// The event-scheduling half of the simulator, passed to every event
/// handler so that handlers can enqueue follow-up events.
pub struct Scheduler<M> {
    now: Time,
    next_seq: u64,
    queue: CalendarQueue,
    slots: Vec<Slot<M>>,
    free_head: u32,
    /// Live (scheduled, neither fired nor cancelled) events.
    live: usize,
    events_executed: u64,
}

impl<M> std::fmt::Debug for Scheduler<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("events_executed", &self.events_executed)
            .finish()
    }
}

impl<M> Scheduler<M> {
    fn new() -> Self {
        Scheduler {
            now: Time::ZERO,
            next_seq: 0,
            queue: CalendarQueue::new(),
            slots: Vec::new(),
            free_head: NIL,
            live: 0,
            events_executed: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.events_executed
    }

    /// Number of queue entries still pending (cancelled events count
    /// until their entry is popped, matching the reference core).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Number of live (non-cancelled) events still scheduled.
    pub fn live_events(&self) -> usize {
        self.live
    }

    /// Slab slots allocated over the scheduler's lifetime. Bounded by
    /// peak concurrent events, never by lifetime event count — the
    /// bounded-churn regression test pins this.
    pub fn slab_slots(&self) -> usize {
        self.slots.len()
    }

    /// Retained queue capacity, in entries. See
    /// [`CalendarQueue::footprint`](crate::calq::CalendarQueue::footprint).
    pub fn queue_footprint(&self) -> usize {
        self.queue.footprint()
    }

    /// Claims a slab slot, returning `(idx, gen)`.
    fn alloc_slot(&mut self, make: impl FnOnce(u32) -> Slot<M>) -> (u32, u32) {
        if self.free_head != NIL {
            let idx = self.free_head;
            let Slot::Vacant { next_free, gen } = self.slots[idx as usize] else {
                unreachable!("free list points at an occupied slot");
            };
            self.free_head = next_free;
            self.slots[idx as usize] = make(gen);
            (idx, gen)
        } else {
            let idx = u32::try_from(self.slots.len()).expect("more than 2^32 pending events");
            self.slots.push(make(0));
            (idx, 0)
        }
    }

    /// Returns the slot to the free list with its generation bumped.
    fn vacate(&mut self, idx: u32) -> Slot<M> {
        let gen = self.slots[idx as usize].gen();
        let taken = std::mem::replace(
            &mut self.slots[idx as usize],
            Slot::Vacant {
                next_free: self.free_head,
                gen: gen.wrapping_add(1),
            },
        );
        self.free_head = idx;
        self.live -= 1;
        taken
    }

    fn enqueue(&mut self, at: Time, idx: u32, gen: u32) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(at, seq, idx, gen);
        self.live += 1;
        EventId::pack(idx, gen)
    }

    /// Schedules `f` to run at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at<F>(&mut self, at: Time, f: F) -> EventId
    where
        F: FnOnce(&mut M, &mut Scheduler<M>) + Send + 'static,
    {
        assert!(at >= self.now, "cannot schedule an event in the past");
        let boxed: EventFn<M> = Box::new(f);
        let (idx, gen) = self.alloc_slot(move |gen| Slot::Closure { gen, f: boxed });
        self.enqueue(at, idx, gen)
    }

    /// Schedules `f` at `at`, clamped to the present: a target time already
    /// in the past runs at `now` instead of panicking. Convenient for
    /// components that compute absolute deadlines (memory-controller
    /// completions, credit returns) which may land exactly on the current
    /// instant.
    pub fn schedule_at_or_now<F>(&mut self, at: Time, f: F) -> EventId
    where
        F: FnOnce(&mut M, &mut Scheduler<M>) + Send + 'static,
    {
        self.schedule_at(at.max(self.now), f)
    }

    /// Schedules `f` to run `after` from now.
    pub fn schedule_in<F>(&mut self, after: Duration, f: F) -> EventId
    where
        F: FnOnce(&mut M, &mut Scheduler<M>) + Send + 'static,
    {
        self.schedule_at(self.now + after, f)
    }

    /// Schedules the plain function `f` at absolute time `at` with a POD
    /// payload — the allocation-free counterpart of
    /// [`schedule_at`](Self::schedule_at). Fire order is interchangeable
    /// with closure events: both share one sequence counter.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_pod_at(&mut self, at: Time, f: PodFn<M>, pod: Pod) -> EventId {
        assert!(at >= self.now, "cannot schedule an event in the past");
        let (idx, gen) = self.alloc_slot(|gen| Slot::Pod { gen, f, pod });
        self.enqueue(at, idx, gen)
    }

    /// POD counterpart of [`schedule_at_or_now`](Self::schedule_at_or_now).
    pub fn schedule_pod_at_or_now(&mut self, at: Time, f: PodFn<M>, pod: Pod) -> EventId {
        self.schedule_pod_at(at.max(self.now), f, pod)
    }

    /// POD counterpart of [`schedule_in`](Self::schedule_in).
    pub fn schedule_pod_in(&mut self, after: Duration, f: PodFn<M>, pod: Pod) -> EventId {
        self.schedule_pod_at(self.now + after, f, pod)
    }

    /// Cancels a pending event. Returns `true` if the event existed and had
    /// not yet fired. The queue entry stays behind and is discarded when
    /// reached (its generation no longer matches).
    pub fn cancel(&mut self, id: EventId) -> bool {
        let (idx, gen) = id.unpack();
        match self.slots.get(idx as usize) {
            Some(slot) if slot.is_occupied() && slot.gen() == gen => {
                self.vacate(idx);
                true
            }
            _ => false,
        }
    }

    /// `true` when the queue entry `(idx, gen)` still refers to a live
    /// event.
    fn entry_live(&self, idx: u32, gen: u32) -> bool {
        let slot = &self.slots[idx as usize];
        slot.is_occupied() && slot.gen() == gen
    }
}

/// Publishes the kernel's run statistics (e.g. `prefix.events_executed`).
impl<M> Instrumented for Scheduler<M> {
    fn export_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        registry.counter_set(&format!("{prefix}.events_executed"), self.events_executed);
        registry.counter_set(&format!("{prefix}.events_pending"), self.queue.len() as u64);
        registry.counter_set(&format!("{prefix}.now_ps"), self.now.as_ps());
    }
}

/// A discrete-event simulator over a model `M`.
///
/// # Example
///
/// ```
/// use enzian_sim::{Simulator, Duration};
///
/// let mut sim = Simulator::new(Vec::<u64>::new());
/// for i in 0..4 {
///     sim.schedule_in(Duration::from_ns(i), move |log: &mut Vec<u64>, s| {
///         log.push(s.now().as_ns());
///     });
/// }
/// sim.run();
/// assert_eq!(*sim.model(), vec![0, 1, 2, 3]);
/// ```
pub struct Simulator<M> {
    model: M,
    sched: Scheduler<M>,
}

impl<M: std::fmt::Debug> std::fmt::Debug for Simulator<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("model", &self.model)
            .field("sched", &self.sched)
            .finish()
    }
}

impl<M> Simulator<M> {
    /// Creates a simulator at time zero over `model`.
    pub fn new(model: M) -> Self {
        Simulator {
            model,
            sched: Scheduler::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.sched.now()
    }

    /// Shared access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Exclusive access to the model (e.g. to set up initial state).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consumes the simulator, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Live (non-cancelled) scheduled events. See
    /// [`Scheduler::live_events`].
    pub fn live_events(&self) -> usize {
        self.sched.live_events()
    }

    /// Slab slots allocated over the scheduler's lifetime. See
    /// [`Scheduler::slab_slots`].
    pub fn slab_slots(&self) -> usize {
        self.sched.slab_slots()
    }

    /// Retained queue capacity, in entries. See
    /// [`Scheduler::queue_footprint`].
    pub fn queue_footprint(&self) -> usize {
        self.sched.queue_footprint()
    }

    /// Schedules an event at an absolute time. See [`Scheduler::schedule_at`].
    pub fn schedule_at<F>(&mut self, at: Time, f: F) -> EventId
    where
        F: FnOnce(&mut M, &mut Scheduler<M>) + Send + 'static,
    {
        self.sched.schedule_at(at, f)
    }

    /// Schedules an event at `at`, clamped to the present. See
    /// [`Scheduler::schedule_at_or_now`].
    pub fn schedule_at_or_now<F>(&mut self, at: Time, f: F) -> EventId
    where
        F: FnOnce(&mut M, &mut Scheduler<M>) + Send + 'static,
    {
        self.sched.schedule_at_or_now(at, f)
    }

    /// Schedules an event relative to now. See [`Scheduler::schedule_in`].
    pub fn schedule_in<F>(&mut self, after: Duration, f: F) -> EventId
    where
        F: FnOnce(&mut M, &mut Scheduler<M>) + Send + 'static,
    {
        self.sched.schedule_in(after, f)
    }

    /// Schedules a POD event at an absolute time. See
    /// [`Scheduler::schedule_pod_at`].
    pub fn schedule_pod_at(&mut self, at: Time, f: PodFn<M>, pod: Pod) -> EventId {
        self.sched.schedule_pod_at(at, f, pod)
    }

    /// Schedules a POD event, clamped to the present. See
    /// [`Scheduler::schedule_pod_at_or_now`].
    pub fn schedule_pod_at_or_now(&mut self, at: Time, f: PodFn<M>, pod: Pod) -> EventId {
        self.sched.schedule_pod_at_or_now(at, f, pod)
    }

    /// Schedules a POD event relative to now. See
    /// [`Scheduler::schedule_pod_in`].
    pub fn schedule_pod_in(&mut self, after: Duration, f: PodFn<M>, pod: Pod) -> EventId {
        self.sched.schedule_pod_in(after, f, pod)
    }

    /// Cancels a pending event.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.sched.cancel(id)
    }

    /// The time of the next live (non-cancelled) pending event, if any.
    /// Cancelled queue entries encountered on the way are discarded.
    pub fn peek_next_time(&mut self) -> Option<Time> {
        while let Some(entry) = self.sched.queue.peek().copied() {
            if self.sched.entry_live(entry.a, entry.b) {
                return Some(Time::from_ps(entry.at_ps));
            }
            self.sched.queue.pop();
        }
        None
    }

    /// Resets the clock to [`Time::ZERO`] once the queue has fully drained,
    /// so a fresh batch of events can be scheduled at earlier absolute
    /// times. Facade layers that run each operation to completion use this
    /// between operations driven by caller-managed (non-monotonic) clocks.
    ///
    /// # Panics
    ///
    /// Panics if a live event is still pending.
    pub fn rewind(&mut self) {
        assert!(
            self.peek_next_time().is_none(),
            "cannot rewind with events pending"
        );
        self.sched.now = Time::ZERO;
    }

    /// Runs a single event if any is pending; returns `false` when the
    /// queue is empty.
    pub fn step(&mut self) -> bool {
        loop {
            let Some(entry) = self.sched.queue.pop() else {
                return false;
            };
            debug_assert!(
                entry.at_ps >= self.sched.now.as_ps(),
                "event queue went backwards"
            );
            if !self.sched.entry_live(entry.a, entry.b) {
                // Cancelled event: skip without advancing time.
                continue;
            }
            self.sched.now = Time::from_ps(entry.at_ps);
            self.sched.events_executed += 1;
            match self.sched.vacate(entry.a) {
                Slot::Closure { f, .. } => f(&mut self.model, &mut self.sched),
                Slot::Pod { f, pod, .. } => f(&mut self.model, &mut self.sched, pod),
                Slot::Vacant { .. } => unreachable!("live entry resolved to a vacant slot"),
            }
            return true;
        }
    }

    /// Runs until the event queue is empty; returns the number of events
    /// executed.
    pub fn run(&mut self) -> u64 {
        let start = self.sched.events_executed;
        while self.step() {}
        self.sched.events_executed - start
    }

    /// Runs until the event queue is empty, executing at most
    /// `max_events` events; returns the number executed.
    ///
    /// This is the guard the protocol explorer (and any driver of a model
    /// whose termination is in question) uses so a livelock surfaces as a
    /// checked [`LivelockError`] instead of an infinite loop.
    ///
    /// # Errors
    ///
    /// Returns [`LivelockError`] if the budget is exhausted with live
    /// events still pending. The already-executed events are *not* rolled
    /// back; the queue keeps its remaining events.
    pub fn run_bounded(&mut self, max_events: u64) -> Result<u64, LivelockError> {
        let start = self.sched.events_executed;
        while self.sched.events_executed - start < max_events {
            if !self.step() {
                return Ok(self.sched.events_executed - start);
            }
        }
        if self.peek_next_time().is_none() {
            return Ok(self.sched.events_executed - start);
        }
        Err(LivelockError {
            max_events,
            pending: self.sched.live,
            stopped_at: self.sched.now,
        })
    }

    /// Number of events still pending. See [`Scheduler::pending`].
    pub fn pending(&self) -> usize {
        self.sched.pending()
    }

    /// Runs every event scheduled strictly *before* `deadline`, then
    /// advances the clock to exactly `deadline`; events at `deadline` or
    /// later stay queued. This is the epoch-stepping primitive of the
    /// conservative parallel engine ([`crate::par`]): calling it with
    /// successive window edges `k·L, (k+1)·L, …` executes each half-open
    /// window `[k·L, (k+1)·L)` completely while leaving the simulator
    /// able to accept cross-shard events that land exactly on the next
    /// edge.
    pub fn run_before(&mut self, deadline: Time) -> u64 {
        let start = self.sched.events_executed;
        let deadline_ps = deadline.as_ps();
        while let Some(entry) = self.sched.queue.peek() {
            if entry.at_ps >= deadline_ps {
                break;
            }
            self.step();
        }
        if self.sched.now < deadline {
            self.sched.now = deadline;
        }
        self.sched.events_executed - start
    }

    /// Runs until the queue is empty or simulated time would exceed
    /// `deadline`; events scheduled later stay queued.
    pub fn run_until(&mut self, deadline: Time) -> u64 {
        let start = self.sched.events_executed;
        let deadline_ps = deadline.as_ps();
        while let Some(entry) = self.sched.queue.peek() {
            if entry.at_ps > deadline_ps {
                break;
            }
            self.step();
        }
        if self.sched.now < deadline {
            self.sched.now = deadline;
        }
        self.sched.events_executed - start
    }
}

/// Publishes the kernel's run statistics. See the [`Scheduler`] impl.
impl<M> Instrumented for Simulator<M> {
    fn export_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        self.sched.export_metrics(prefix, registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Simulator::new(Vec::new());
        sim.schedule_in(Duration::from_ns(30), |v: &mut Vec<u32>, _| v.push(3));
        sim.schedule_in(Duration::from_ns(10), |v: &mut Vec<u32>, _| v.push(1));
        sim.schedule_in(Duration::from_ns(20), |v: &mut Vec<u32>, _| v.push(2));
        assert_eq!(sim.run(), 3);
        assert_eq!(*sim.model(), vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut sim = Simulator::new(Vec::new());
        for i in 0..10u32 {
            sim.schedule_in(Duration::from_ns(5), move |v: &mut Vec<u32>, _| v.push(i));
        }
        sim.run();
        assert_eq!(*sim.model(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pod_and_closure_ties_share_one_sequence() {
        // Interleaved POD and closure events at the same instant fire in
        // schedule order, exactly like two closures would.
        let mut sim = Simulator::new(Vec::new());
        fn push_pod(v: &mut Vec<u32>, _s: &mut Scheduler<Vec<u32>>, p: Pod) {
            v.push(p.a as u32);
        }
        for i in 0..8u32 {
            if i % 2 == 0 {
                sim.schedule_pod_in(Duration::from_ns(5), push_pod, Pod::new(i as u64, 0, 0, 0));
            } else {
                sim.schedule_in(Duration::from_ns(5), move |v: &mut Vec<u32>, _| v.push(i));
            }
        }
        sim.run();
        assert_eq!(*sim.model(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        let mut sim = Simulator::new(0u64);
        fn tick(count: &mut u64, s: &mut Scheduler<u64>) {
            *count += 1;
            if *count < 5 {
                s.schedule_in(Duration::from_ns(1), tick);
            }
        }
        sim.schedule_in(Duration::ZERO, tick);
        sim.run();
        assert_eq!(*sim.model(), 5);
        assert_eq!(sim.now(), Time::ZERO + Duration::from_ns(4));
    }

    #[test]
    fn pod_handlers_can_schedule_more_pod_events() {
        let mut sim = Simulator::new(0u64);
        fn tick(count: &mut u64, s: &mut Scheduler<u64>, p: Pod) {
            *count += p.a;
            if *count < 50 {
                s.schedule_pod_in(Duration::from_ns(1), tick, p);
            }
        }
        sim.schedule_pod_at(Time::ZERO, tick, Pod::new(10, 0, 0, 0));
        sim.run();
        assert_eq!(*sim.model(), 50);
        assert_eq!(sim.now(), Time::ZERO + Duration::from_ns(4));
    }

    #[test]
    fn run_bounded_completes_within_budget() {
        let mut sim = Simulator::new(0u64);
        for i in 0..5u64 {
            sim.schedule_in(Duration::from_ns(i), |m: &mut u64, _| *m += 1);
        }
        assert_eq!(sim.run_bounded(100), Ok(5));
        assert_eq!(*sim.model(), 5);
        // A drained queue at exactly the budget is still success.
        for i in 0..3u64 {
            sim.schedule_in(Duration::from_ns(100 + i), |m: &mut u64, _| *m += 1);
        }
        assert_eq!(sim.run_bounded(3), Ok(3));
    }

    #[test]
    fn run_bounded_surfaces_livelock() {
        // A self-perpetuating event chain: every firing schedules the next.
        let mut sim = Simulator::new(0u64);
        fn tick(count: &mut u64, s: &mut Scheduler<u64>) {
            *count += 1;
            s.schedule_in(Duration::from_ns(1), tick);
        }
        sim.schedule_in(Duration::ZERO, tick);
        let err = sim.run_bounded(50).unwrap_err();
        assert_eq!(err.max_events, 50);
        assert_eq!(err.pending, 1);
        assert_eq!(*sim.model(), 50);
        let msg = err.to_string();
        assert!(msg.contains("livelock"), "{msg}");
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim = Simulator::new(0u64);
        let id = sim.schedule_in(Duration::from_ns(1), |m: &mut u64, _| *m += 1);
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id), "double cancel reports false");
        sim.run();
        assert_eq!(*sim.model(), 0);
    }

    #[test]
    fn cancel_of_a_recycled_slot_is_a_no_op() {
        // Slot reuse must not let a stale id cancel the new occupant.
        let mut sim = Simulator::new(0u64);
        let stale = sim.schedule_in(Duration::from_ns(1), |m: &mut u64, _| *m += 1);
        assert!(sim.cancel(stale));
        // The freed slot is recycled by the next schedule.
        let _live = sim.schedule_in(Duration::from_ns(2), |m: &mut u64, _| *m += 10);
        assert!(!sim.cancel(stale), "stale id must not hit the new event");
        sim.run();
        assert_eq!(*sim.model(), 10);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulator::new(0u64);
        sim.schedule_in(Duration::from_ns(10), |m: &mut u64, _| *m += 1);
        sim.schedule_in(Duration::from_ns(100), |m: &mut u64, _| *m += 10);
        sim.run_until(Time::ZERO + Duration::from_ns(50));
        assert_eq!(*sim.model(), 1);
        assert_eq!(sim.now(), Time::ZERO + Duration::from_ns(50));
        sim.run();
        assert_eq!(*sim.model(), 11);
    }

    #[test]
    fn run_before_is_exclusive_of_the_deadline() {
        let mut sim = Simulator::new(Vec::new());
        sim.schedule_in(Duration::from_ns(10), |v: &mut Vec<u64>, _| v.push(10));
        sim.schedule_in(Duration::from_ns(20), |v: &mut Vec<u64>, _| v.push(20));
        sim.schedule_in(Duration::from_ns(30), |v: &mut Vec<u64>, _| v.push(30));
        // The event at exactly 20 ns stays queued for the next window.
        assert_eq!(sim.run_before(Time::ZERO + Duration::from_ns(20)), 1);
        assert_eq!(*sim.model(), vec![10]);
        assert_eq!(sim.now(), Time::ZERO + Duration::from_ns(20));
        assert_eq!(sim.pending(), 2);
        // Stepping window edges covers every event exactly once.
        assert_eq!(sim.run_before(Time::ZERO + Duration::from_ns(40)), 2);
        assert_eq!(*sim.model(), vec![10, 20, 30]);
        assert_eq!(sim.now(), Time::ZERO + Duration::from_ns(40));
    }

    #[test]
    fn run_before_allows_events_on_the_edge() {
        let mut sim = Simulator::new(0u64);
        let edge = Time::ZERO + Duration::from_ns(100);
        sim.run_before(edge);
        // An event landing exactly on the new now is schedulable (the
        // cross-shard arrival case).
        sim.schedule_at(edge, |m: &mut u64, _| *m += 1);
        sim.run_before(edge + Duration::from_ns(1));
        assert_eq!(*sim.model(), 1);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Simulator::new(());
        sim.schedule_in(Duration::from_ns(10), |_, s| {
            s.schedule_at(Time::ZERO, |_, _| {});
        });
        sim.run();
    }

    #[test]
    fn handler_table_compaction_preserves_pending_events() {
        // Execute far more events than ever pend at once while one
        // far-future event stays pending, then check it still fires.
        let mut sim = Simulator::new(0u64);
        sim.schedule_in(Duration::from_ms(1), |m: &mut u64, _| *m += 1_000_000);
        for i in 0..5000u64 {
            sim.schedule_in(Duration::from_ns(i), |m: &mut u64, _| *m += 1);
        }
        sim.run();
        assert_eq!(*sim.model(), 1_005_000);
    }

    #[test]
    fn slab_does_not_grow_with_executed_events() {
        // The leak fix, carried over from the handler-table core: fired
        // events free their slot immediately, so slab size tracks
        // *pending* events, not lifetime event count.
        let mut sim = Simulator::new(0u64);
        sim.schedule_in(Duration::from_ms(1), |m: &mut u64, _| *m += 1);
        for i in 0..10_000u64 {
            sim.schedule_in(Duration::from_ns(i), |m: &mut u64, _| *m += 1);
            sim.step();
            assert!(
                sim.sched.slab_slots() <= 2,
                "slab retained fired events: {}",
                sim.sched.slab_slots()
            );
        }
        sim.run();
        assert_eq!(sim.sched.live_events(), 0);
        assert_eq!(*sim.model(), 10_001);
    }

    #[test]
    fn rewind_resets_the_clock_after_a_drained_batch() {
        let mut sim = Simulator::new(0u64);
        sim.schedule_in(Duration::from_us(5), |m: &mut u64, _| *m += 1);
        sim.run();
        assert_eq!(sim.now(), Time::ZERO + Duration::from_us(5));
        sim.rewind();
        assert_eq!(sim.now(), Time::ZERO);
        // Earlier absolute times are schedulable again.
        sim.schedule_at(Time::ZERO + Duration::from_ns(1), |m: &mut u64, _| *m += 1);
        sim.run();
        assert_eq!(*sim.model(), 2);
    }

    #[test]
    #[should_panic(expected = "events pending")]
    fn rewind_with_pending_events_panics() {
        let mut sim = Simulator::new(0u64);
        sim.schedule_in(Duration::from_ns(1), |_, _| {});
        sim.rewind();
    }

    #[test]
    fn peek_next_time_skips_cancelled_events() {
        let mut sim = Simulator::new(0u64);
        let early = sim.schedule_in(Duration::from_ns(1), |_, _| {});
        sim.schedule_in(Duration::from_ns(9), |_, _| {});
        assert_eq!(
            sim.peek_next_time(),
            Some(Time::ZERO + Duration::from_ns(1))
        );
        sim.cancel(early);
        assert_eq!(
            sim.peek_next_time(),
            Some(Time::ZERO + Duration::from_ns(9))
        );
        sim.run();
        assert_eq!(sim.peek_next_time(), None);
        sim.rewind();
    }

    #[test]
    fn schedule_at_or_now_clamps_past_times() {
        let mut sim = Simulator::new(Vec::new());
        sim.schedule_in(Duration::from_ns(10), |_v: &mut Vec<u64>, s| {
            // A deadline computed in the past runs at the current instant.
            s.schedule_at_or_now(Time::ZERO, |v: &mut Vec<u64>, s| {
                v.push(s.now().as_ns());
            });
        });
        sim.run();
        assert_eq!(*sim.model(), vec![10]);
    }
}
