//! Differential battery: seeded random schedules driven through the
//! calendar-queue core ([`enzian_sim::Simulator`], typed events) and the
//! retained `BTreeMap`/`BinaryHeap` reference core
//! ([`enzian_sim::reference`], boxed closures), asserting identical fire
//! order, run counts and final clocks.
//!
//! Both cores run the same script and the same handler
//! ([`Trace::fire`]); only the kernel and its event representation
//! differ. The scripts deliberately lean on the corners where the two
//! queue disciplines could diverge: bursts of same-timestamp events (FIFO
//! tie order), partial runs against `run_before` deadlines,
//! handler-scheduled follow-ups, and full drains followed by `rewind`
//! (which the calendar queue answers with a window rebase).

use enzian_sim::{reference, Duration, Fnv, Model, Scheduler, SimRng, Simulator, Time};

/// The model both cores drive: a fire-order digest plus a PRNG that
/// lets handlers make (identical) follow-up decisions.
struct Trace {
    rng: SimRng,
    digest: Fnv,
    fired: u64,
}

/// A scripted event.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Records `tag` and may schedule a follow-up, `depth` levels deep.
    Chain { tag: u64, depth: u32 },
    /// Records `tag` and schedules nothing.
    Mark { tag: u64 },
}

impl Trace {
    fn new(seed: u64) -> Self {
        Trace {
            rng: SimRng::seed_from(seed),
            digest: Fnv::new(),
            fired: 0,
        }
    }

    fn record(&mut self, now: Time, tag: u64) {
        self.fired += 1;
        self.digest.u64(now.as_ps());
        self.digest.u64(tag);
        self.digest.u64(self.fired);
    }

    /// Fires `ev` at `now`; returns the follow-up to schedule, if any.
    fn fire(&mut self, now: Time, ev: Ev) -> Option<(Duration, Ev)> {
        match ev {
            Ev::Mark { tag } => {
                self.record(now, !tag);
                None
            }
            Ev::Chain { tag, depth } => {
                self.record(now, tag);
                if depth == 0 || !self.rng.next_u64().is_multiple_of(3) {
                    return None;
                }
                let d = Duration::from_ns(self.rng.next_u64() % 4);
                let tag = self.rng.next_u64();
                Some((
                    d,
                    Ev::Chain {
                        tag,
                        depth: depth - 1,
                    },
                ))
            }
        }
    }
}

impl Model for Trace {
    type Event = Ev;

    fn handle(&mut self, s: &mut Scheduler<Ev>, ev: Ev) {
        if let Some((d, next)) = self.fire(s.now(), ev) {
            s.schedule_in(d, next);
        }
    }
}

/// The reference core's closure body for `ev`: the same handler.
fn reference_fire(m: &mut Trace, s: &mut reference::Scheduler<Trace>, ev: Ev) {
    if let Some((d, next)) = m.fire(s.now(), ev) {
        s.schedule_in(d, move |m: &mut Trace, s| reference_fire(m, s, next));
    }
}

/// Runs one scripted random schedule on a core; `$schedule` puts an
/// [`Ev`] on it. Expanded per core type (the two `Simulator`s expose the
/// same calls but are distinct types, taking their events in different
/// forms); returns `(fire digest, events fired, run-count digest, end ps)`.
macro_rules! drive {
    ($sim:expr, $seed:expr, $schedule:expr) => {{
        let mut sim = $sim;
        let schedule = $schedule;
        let mut script = SimRng::seed_from($seed ^ 0x5c21_17f0);
        let mut runs = Fnv::new();
        for _ in 0..80 {
            match script.next_u64() % 9 {
                0..=4 => {
                    // A burst of events, many landing on the same
                    // timestamp (delays include zero).
                    let k = 1 + script.next_u64() % 6;
                    for _ in 0..k {
                        let d = Duration::from_ns(script.next_u64() % 4);
                        let tag = script.next_u64();
                        let ev = if script.next_u64().is_multiple_of(4) {
                            Ev::Mark { tag }
                        } else {
                            Ev::Chain { tag, depth: 2 }
                        };
                        schedule(&mut sim, d, ev);
                    }
                }
                5..=7 => {
                    // Partial run against a nearby deadline.
                    let deadline = sim.now() + Duration::from_ns(1 + script.next_u64() % 16);
                    runs.u64(sim.run_before(deadline));
                }
                _ => {
                    // Drain and rewind.
                    runs.u64(sim.run());
                    sim.rewind();
                }
            }
        }
        sim.run();
        let end = sim.now().as_ps();
        let m = sim.into_model();
        (m.digest.finish(), m.fired, runs.finish(), end)
    }};
}

#[test]
fn random_schedules_agree_across_cores() {
    for seed in 0..24u64 {
        let new = drive!(
            Simulator::new(Trace::new(seed)),
            seed,
            |sim: &mut Simulator<Trace>, d, ev| sim.schedule_in(d, ev)
        );
        let old = drive!(
            reference::Simulator::new(Trace::new(seed)),
            seed,
            |sim: &mut reference::Simulator<Trace>, d, ev: Ev| {
                sim.schedule_in(d, move |m: &mut Trace, s| reference_fire(m, s, ev))
            }
        );
        assert_eq!(new, old, "cores diverged on seed {seed}");
        assert!(new.1 > 0, "seed {seed} fired nothing — script too weak");
    }
}

/// Self-rescheduling lanes for the churn test: each event names its
/// lane and how many firings the lane has left.
struct Churn {
    fired: u64,
}

#[derive(Debug, Clone, Copy)]
struct Lane {
    tag: u64,
    left: u32,
}

impl Model for Churn {
    type Event = Lane;

    fn handle(&mut self, s: &mut Scheduler<Lane>, lane: Lane) {
        // Delays are a pure function of (lane, step) so every churn
        // phase replays the identical timeline from `Time::ZERO`.
        fn delay(tag: u64, left: u32) -> Duration {
            let mut z = (tag << 32 | u64::from(left)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z ^= z >> 29;
            Duration::from_ns(1 + z % 23)
        }
        self.fired += 1;
        if lane.left > 0 {
            s.schedule_in(
                delay(lane.tag, lane.left),
                Lane {
                    left: lane.left - 1,
                    ..lane
                },
            );
        }
    }
}

#[test]
fn long_churn_keeps_the_queue_bounded() {
    // The PR-3 regression class: event storage growing with lifetime
    // event count instead of peak concurrency. Push a long self-
    // rescheduling churn through the calendar core and pin the retained
    // queue capacity to its steady state.
    const LANES: u64 = 32;
    const STEPS: u32 = 2_000;
    fn churn(sim: &mut Simulator<Churn>) {
        for tag in 0..LANES {
            sim.schedule_in(Duration::from_ns(1), Lane { tag, left: STEPS });
        }
        sim.run();
        sim.rewind();
    }
    let mut sim = Simulator::new(Churn { fired: 0 });
    // Queue capacity ratchets per wheel position (drains copy out of a
    // bucket instead of swapping its Vec away), so one phase shows
    // every position its peak load and the footprint hits an exact
    // fixed point: a replay must not move it at all.
    churn(&mut sim);
    let queue_primed = sim.queue_footprint();
    churn(&mut sim);
    assert_eq!(
        sim.queue_footprint(),
        queue_primed,
        "queue capacity grew with lifetime events"
    );
    // 1024 wheel buckets + cur + overflow, each capped by peak load.
    assert!(
        queue_primed < 1026 * 2 * LANES as usize,
        "queue capacity {queue_primed} exceeds the wheel-geometry ceiling"
    );
    assert_eq!(sim.model().fired, 2 * LANES * u64::from(STEPS + 1));
    assert_eq!(sim.pending(), 0);
}
