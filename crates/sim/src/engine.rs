//! The discrete-event scheduler.
//!
//! [`Simulator`] owns a user-provided [`Model`] and a time-ordered queue
//! of the model's own events. Ties in time are broken by insertion
//! order, making runs fully deterministic.
//!
//! # Hot path
//!
//! A model names a `Copy` event type ([`Model::Event`]) and handles it;
//! the queue is a [`CalendarQueue`] that stores each event inline next
//! to its `(time, seq)` key. Scheduling copies the event into a recycled
//! bucket and firing copies it back out, so the steady-state cycle —
//! pop, dispatch, schedule a follow-up — touches recycled memory only
//! and allocates nothing. The previous `BTreeMap`-of-boxed-closures core
//! is retained (see [`crate::reference`]) as the differential-testing
//! oracle; both cores fire events in the identical `(time, seq)` order.

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

/// A simulation model: the state a [`Simulator`] drives and the event
/// type it schedules.
///
/// Events are plain `Copy` values the model interprets itself (a typed
/// protocol step, an actor index, a credit return); anything larger
/// belongs in the model, with an index in the event.
pub trait Model {
    /// What one scheduled event carries.
    type Event: Copy;

    /// Handles `ev` at `s.now()`; follow-up events go through `s`.
    fn handle(&mut self, s: &mut Scheduler<Self::Event>, ev: Self::Event);
}

/// The event-scheduling half of the simulator, passed to every event
/// handler so that handlers can enqueue follow-up events.
pub struct Scheduler<E> {
    now: Time,
    next_seq: u64,
    queue: CalendarQueue<E>,
    events_executed: u64,
}

impl<E: Copy> std::fmt::Debug for Scheduler<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("events_executed", &self.events_executed)
            .finish()
    }
}

impl<E: Copy> Scheduler<E> {
    fn new() -> Self {
        Scheduler {
            now: Time::ZERO,
            next_seq: 0,
            queue: CalendarQueue::new(),
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

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Retained queue capacity, in entries. See
    /// [`CalendarQueue::footprint`](crate::calq::CalendarQueue::footprint).
    pub fn queue_footprint(&self) -> usize {
        self.queue.footprint()
    }

    /// Schedules `ev` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at(&mut self, at: Time, ev: E) {
        assert!(at >= self.now, "cannot schedule an event in the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(at, seq, ev);
    }

    /// Schedules `ev` at `at`, clamped to the present: a target time
    /// already in the past fires at `now` instead of panicking.
    /// Convenient for components that compute absolute deadlines
    /// (memory-controller completions, credit returns) which may land
    /// exactly on the current instant.
    pub fn schedule_at_or_now(&mut self, at: Time, ev: E) {
        self.schedule_at(at.max(self.now), ev);
    }

    /// Schedules `ev` to fire `after` from now.
    pub fn schedule_in(&mut self, after: Duration, ev: E) {
        self.schedule_at(self.now + after, ev);
    }
}

/// Publishes the kernel's run statistics (e.g. `prefix.events_executed`).
impl<E: Copy> Instrumented for Scheduler<E> {
    fn export_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        registry.counter_set(&format!("{prefix}.events_executed"), self.events_executed);
        registry.counter_set(&format!("{prefix}.events_pending"), self.queue.len() as u64);
        registry.counter_set(&format!("{prefix}.now_ps"), self.now.as_ps());
    }
}

/// A discrete-event simulator over a [`Model`] `M`.
///
/// # Example
///
/// ```
/// use enzian_sim::{Duration, Model, Scheduler, Simulator};
///
/// /// Logs the nanosecond each event fires at.
/// struct Log(Vec<u64>);
///
/// impl Model for Log {
///     type Event = ();
///     fn handle(&mut self, s: &mut Scheduler<()>, _ev: ()) {
///         self.0.push(s.now().as_ns());
///     }
/// }
///
/// let mut sim = Simulator::new(Log(Vec::new()));
/// for i in 0..4 {
///     sim.schedule_in(Duration::from_ns(i), ());
/// }
/// sim.run();
/// assert_eq!(sim.model().0, vec![0, 1, 2, 3]);
/// ```
pub struct Simulator<M: Model> {
    model: M,
    sched: Scheduler<M::Event>,
}

impl<M: Model + std::fmt::Debug> std::fmt::Debug for Simulator<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("model", &self.model)
            .field("sched", &self.sched)
            .finish()
    }
}

impl<M: Model> Simulator<M> {
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

    /// Retained queue capacity, in entries. See
    /// [`Scheduler::queue_footprint`].
    pub fn queue_footprint(&self) -> usize {
        self.sched.queue_footprint()
    }

    /// Schedules an event at an absolute time. See [`Scheduler::schedule_at`].
    pub fn schedule_at(&mut self, at: Time, ev: M::Event) {
        self.sched.schedule_at(at, ev);
    }

    /// Schedules an event at `at`, clamped to the present. See
    /// [`Scheduler::schedule_at_or_now`].
    pub fn schedule_at_or_now(&mut self, at: Time, ev: M::Event) {
        self.sched.schedule_at_or_now(at, ev);
    }

    /// Schedules an event relative to now. See [`Scheduler::schedule_in`].
    pub fn schedule_in(&mut self, after: Duration, ev: M::Event) {
        self.sched.schedule_in(after, ev);
    }

    /// Resets the clock to [`Time::ZERO`] once the queue has fully drained,
    /// so a fresh batch of events can be scheduled at earlier absolute
    /// times. Facade layers that run each operation to completion use this
    /// between operations driven by caller-managed (non-monotonic) clocks.
    ///
    /// # Panics
    ///
    /// Panics if an event is still pending.
    pub fn rewind(&mut self) {
        assert!(
            self.sched.queue.is_empty(),
            "cannot rewind with events pending"
        );
        self.sched.now = Time::ZERO;
    }

    /// Runs a single event if any is pending; returns `false` when the
    /// queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(entry) = self.sched.queue.pop() else {
            return false;
        };
        debug_assert!(
            entry.at_ps >= self.sched.now.as_ps(),
            "event queue went backwards"
        );
        self.sched.now = Time::from_ps(entry.at_ps);
        self.sched.events_executed += 1;
        self.model.handle(&mut self.sched, entry.ev);
        true
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
    /// Returns [`LivelockError`] if the budget is exhausted with events
    /// still pending. The already-executed events are *not* rolled back;
    /// the queue keeps its remaining events.
    pub fn run_bounded(&mut self, max_events: u64) -> Result<u64, LivelockError> {
        let start = self.sched.events_executed;
        while self.sched.events_executed - start < max_events {
            if !self.step() {
                return Ok(self.sched.events_executed - start);
            }
        }
        if self.sched.queue.is_empty() {
            return Ok(self.sched.events_executed - start);
        }
        Err(LivelockError {
            max_events,
            pending: self.sched.queue.len(),
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
}

/// Publishes the kernel's run statistics. See the [`Scheduler`] impl.
impl<M: Model> Instrumented for Simulator<M> {
    fn export_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        self.sched.export_metrics(prefix, registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test model: a log of fired values, plus a few events that
    /// schedule follow-ups.
    #[derive(Default)]
    struct Log(Vec<u64>);

    #[derive(Debug, Clone, Copy)]
    enum Ev {
        /// Logs the value.
        Push(u64),
        /// Logs the current nanosecond.
        PushNow,
        /// Logs the value and, while it is below 5, fires again 1 ns
        /// later with the value plus one.
        Count(u64),
        /// Logs and fires again 1 ns later, forever.
        Forever,
        /// Schedules a [`Ev::PushNow`] at time zero, clamped to now.
        ClampToZero,
        /// Schedules an event at time zero (in the past once time moved).
        Past,
    }

    impl Model for Log {
        type Event = Ev;

        fn handle(&mut self, s: &mut Scheduler<Ev>, ev: Ev) {
            match ev {
                Ev::Push(v) => self.0.push(v),
                Ev::PushNow => self.0.push(s.now().as_ns()),
                Ev::Count(v) => {
                    self.0.push(v);
                    if v < 5 {
                        s.schedule_in(Duration::from_ns(1), Ev::Count(v + 1));
                    }
                }
                Ev::Forever => {
                    self.0.push(0);
                    s.schedule_in(Duration::from_ns(1), Ev::Forever);
                }
                Ev::ClampToZero => s.schedule_at_or_now(Time::ZERO, Ev::PushNow),
                Ev::Past => s.schedule_at(Time::ZERO, Ev::Push(0)),
            }
        }
    }

    fn sim() -> Simulator<Log> {
        Simulator::new(Log::default())
    }

    #[test]
    fn events_run_in_time_order() {
        let mut sim = sim();
        sim.schedule_in(Duration::from_ns(30), Ev::Push(3));
        sim.schedule_in(Duration::from_ns(10), Ev::Push(1));
        sim.schedule_in(Duration::from_ns(20), Ev::Push(2));
        assert_eq!(sim.run(), 3);
        assert_eq!(sim.model().0, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut sim = sim();
        for i in 0..10 {
            sim.schedule_in(Duration::from_ns(5), Ev::Push(i));
        }
        sim.run();
        assert_eq!(sim.model().0, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        let mut sim = sim();
        sim.schedule_in(Duration::ZERO, Ev::Count(1));
        sim.run();
        assert_eq!(sim.model().0, vec![1, 2, 3, 4, 5]);
        assert_eq!(sim.now(), Time::ZERO + Duration::from_ns(4));
    }

    #[test]
    fn run_bounded_completes_within_budget() {
        let mut sim = sim();
        for i in 0..5 {
            sim.schedule_in(Duration::from_ns(i), Ev::Push(i));
        }
        assert_eq!(sim.run_bounded(100), Ok(5));
        assert_eq!(sim.model().0.len(), 5);
        // A drained queue at exactly the budget is still success.
        for i in 0..3 {
            sim.schedule_in(Duration::from_ns(100 + i), Ev::Push(i));
        }
        assert_eq!(sim.run_bounded(3), Ok(3));
    }

    #[test]
    fn run_bounded_surfaces_livelock() {
        // A self-perpetuating event chain: every firing schedules the next.
        let mut sim = sim();
        sim.schedule_in(Duration::ZERO, Ev::Forever);
        let err = sim.run_bounded(50).unwrap_err();
        assert_eq!(err.max_events, 50);
        assert_eq!(err.pending, 1);
        assert_eq!(sim.model().0.len(), 50);
        let msg = err.to_string();
        assert!(msg.contains("livelock"), "{msg}");
    }

    #[test]
    fn run_before_is_exclusive_of_the_deadline() {
        let mut sim = sim();
        sim.schedule_in(Duration::from_ns(10), Ev::Push(10));
        sim.schedule_in(Duration::from_ns(20), Ev::Push(20));
        sim.schedule_in(Duration::from_ns(30), Ev::Push(30));
        // The event at exactly 20 ns stays queued for the next window.
        assert_eq!(sim.run_before(Time::ZERO + Duration::from_ns(20)), 1);
        assert_eq!(sim.model().0, vec![10]);
        assert_eq!(sim.now(), Time::ZERO + Duration::from_ns(20));
        assert_eq!(sim.pending(), 2);
        // Stepping window edges covers every event exactly once.
        assert_eq!(sim.run_before(Time::ZERO + Duration::from_ns(40)), 2);
        assert_eq!(sim.model().0, vec![10, 20, 30]);
        assert_eq!(sim.now(), Time::ZERO + Duration::from_ns(40));
    }

    #[test]
    fn run_before_allows_events_on_the_edge() {
        let mut sim = sim();
        let edge = Time::ZERO + Duration::from_ns(100);
        sim.run_before(edge);
        // An event landing exactly on the new now is schedulable (the
        // cross-shard arrival case).
        sim.schedule_at(edge, Ev::Push(1));
        sim.run_before(edge + Duration::from_ns(1));
        assert_eq!(sim.model().0, vec![1]);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = sim();
        sim.schedule_in(Duration::from_ns(10), Ev::Past);
        sim.run();
    }

    #[test]
    fn a_far_future_event_survives_a_long_run_of_near_ones() {
        // Execute far more events than ever pend at once while one
        // far-future event stays pending, then check it still fires.
        let mut sim = sim();
        sim.schedule_in(Duration::from_ms(1), Ev::Push(1_000_000));
        for i in 0..5000 {
            sim.schedule_in(Duration::from_ns(i), Ev::Push(1));
        }
        sim.run();
        assert_eq!(sim.model().0.iter().sum::<u64>(), 1_005_000);
        assert_eq!(sim.model().0.last(), Some(&1_000_000));
    }

    #[test]
    fn rewind_resets_the_clock_after_a_drained_batch() {
        let mut sim = sim();
        sim.schedule_in(Duration::from_us(5), Ev::Push(1));
        sim.run();
        assert_eq!(sim.now(), Time::ZERO + Duration::from_us(5));
        sim.rewind();
        assert_eq!(sim.now(), Time::ZERO);
        // Earlier absolute times are schedulable again.
        sim.schedule_at(Time::ZERO + Duration::from_ns(1), Ev::Push(2));
        sim.run();
        assert_eq!(sim.model().0, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "events pending")]
    fn rewind_with_pending_events_panics() {
        let mut sim = sim();
        sim.schedule_in(Duration::from_ns(1), Ev::Push(0));
        sim.rewind();
    }

    #[test]
    fn schedule_at_or_now_clamps_past_times() {
        let mut sim = sim();
        // A deadline computed in the past fires at the current instant.
        sim.schedule_in(Duration::from_ns(10), Ev::ClampToZero);
        sim.run();
        assert_eq!(sim.model().0, vec![10]);
    }
}
