//! The retained reference DES core (pre-calendar-queue).
//!
//! This is the original `BTreeMap<u64, Box<dyn FnOnce>>` scheduler,
//! kept verbatim as the differential-testing oracle for the calendar-queue engine in
//! [`crate::engine`]: both cores fire events in the identical
//! `(time, seq)` order, which `crates/sim/tests/differential.rs` checks
//! over randomized schedules and the `sched_hotpath` experiment
//! re-checks (and times) on every benchmark run.
//!
//! Apart from the module path, these docs, the removal of cancellation,
//! `run_until` and `run_before` (which the production core no longer has
//! either) and a `next_event_at` peek to match the production core's,
//! the code is unchanged, so a divergence found by the battery is
//! attributable to the new engine. It keeps boxed closures:
//! the production core's typed events and these closures are driven
//! over the same scripts.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use crate::time::{Duration, Time};

pub use crate::engine::LivelockError;

/// Events are `Send` so models built on the simulator (and the simulator
/// itself) can be moved across threads.
type Handler<M> = Box<dyn FnOnce(&mut M, &mut Scheduler<M>) + Send>;

struct QueueEntry {
    at: Time,
    seq: u64,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for QueueEntry {}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The event-scheduling half of the reference simulator.
pub struct Scheduler<M> {
    now: Time,
    next_seq: u64,
    queue: BinaryHeap<Reverse<QueueEntry>>,
    // Keyed by sequence number; entries are removed when they fire, so
    // memory stays proportional to *pending* events no matter how many
    // have executed.
    handlers: BTreeMap<u64, Handler<M>>,
    events_executed: u64,
}

impl<M> std::fmt::Debug for Scheduler<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("reference::Scheduler")
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
            queue: BinaryHeap::new(),
            handlers: BTreeMap::new(),
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

    /// Schedules `f` to run at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at<F>(&mut self, at: Time, f: F)
    where
        F: FnOnce(&mut M, &mut Scheduler<M>) + Send + 'static,
    {
        assert!(at >= self.now, "cannot schedule an event in the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(QueueEntry { at, seq }));
        self.handlers.insert(seq, Box::new(f));
    }

    /// Schedules `f` at `at`, clamped to the present.
    pub fn schedule_at_or_now<F>(&mut self, at: Time, f: F)
    where
        F: FnOnce(&mut M, &mut Scheduler<M>) + Send + 'static,
    {
        self.schedule_at(at.max(self.now), f);
    }

    /// Schedules `f` to run `after` from now.
    pub fn schedule_in<F>(&mut self, after: Duration, f: F)
    where
        F: FnOnce(&mut M, &mut Scheduler<M>) + Send + 'static,
    {
        self.schedule_at(self.now + after, f);
    }

    fn take_handler(&mut self, seq: u64) -> Handler<M> {
        self.handlers
            .remove(&seq)
            .expect("queued event has a handler")
    }
}

/// The reference discrete-event simulator over a model `M`: the
/// [`crate::Simulator`] API, with boxed closures for events.
pub struct Simulator<M> {
    model: M,
    sched: Scheduler<M>,
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

    /// Schedules an event at an absolute time.
    pub fn schedule_at<F>(&mut self, at: Time, f: F)
    where
        F: FnOnce(&mut M, &mut Scheduler<M>) + Send + 'static,
    {
        self.sched.schedule_at(at, f);
    }

    /// Schedules an event at `at`, clamped to the present.
    pub fn schedule_at_or_now<F>(&mut self, at: Time, f: F)
    where
        F: FnOnce(&mut M, &mut Scheduler<M>) + Send + 'static,
    {
        self.sched.schedule_at_or_now(at, f);
    }

    /// Schedules an event relative to now.
    pub fn schedule_in<F>(&mut self, after: Duration, f: F)
    where
        F: FnOnce(&mut M, &mut Scheduler<M>) + Send + 'static,
    {
        self.sched.schedule_in(after, f);
    }

    /// Resets the clock to [`Time::ZERO`] once the queue has fully drained.
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
        let Some(Reverse(entry)) = self.sched.queue.pop() else {
            return false;
        };
        debug_assert!(entry.at >= self.sched.now, "event queue went backwards");
        let handler = self.sched.take_handler(entry.seq);
        self.sched.now = entry.at;
        self.sched.events_executed += 1;
        handler(&mut self.model, &mut self.sched);
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
    /// # Errors
    ///
    /// Returns [`LivelockError`] if the budget is exhausted with events
    /// still pending.
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
            pending: self.sched.handlers.len(),
            stopped_at: self.sched.now,
        })
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.sched.pending()
    }

    /// The time of the earliest pending event, or `None` when none is
    /// pending.
    pub fn next_event_at(&self) -> Option<Time> {
        self.sched.queue.peek().map(|Reverse(e)| e.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_core_still_orders_and_rewinds() {
        let mut sim = Simulator::new(Vec::new());
        for i in 0..4u32 {
            sim.schedule_in(Duration::from_ns(5), move |v: &mut Vec<u32>, _| v.push(i));
        }
        sim.schedule_in(Duration::from_ns(1), |v: &mut Vec<u32>, _| v.push(99));
        sim.run();
        assert_eq!(*sim.model(), vec![99, 0, 1, 2, 3]);
        sim.rewind();
        assert_eq!(sim.now(), Time::ZERO);
    }
}
