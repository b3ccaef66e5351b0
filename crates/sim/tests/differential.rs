//! Differential battery: seeded random schedules driven through the
//! calendar-queue core ([`enzian_sim::Simulator`]) and the retained
//! `BTreeMap`/`BinaryHeap` reference core ([`enzian_sim::reference`]),
//! asserting identical fire order, cancel outcomes, and final clocks.
//!
//! The scripts deliberately lean on the corners where the two queue
//! disciplines could diverge: bursts of same-timestamp events (FIFO tie
//! order), cancels of live / already-fired / stale ids, partial runs
//! against `run_before`/`run_until` deadlines, handler-scheduled
//! follow-ups, and full drains followed by `rewind` (which the calendar
//! queue answers with a window rebase).

use enzian_sim::{reference, Duration, Fnv, SimRng, Simulator, Time};

/// The model both cores drive: a fire-order digest plus a PRNG that
/// lets handlers make (identical) follow-up decisions.
struct Trace {
    rng: SimRng,
    digest: Fnv,
    fired: u64,
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
}

/// Runs one scripted random schedule on a core. Expanded per core type
/// (the two `Simulator`s expose the same API but are distinct types);
/// returns `(fire digest, events fired, cancel-outcome digest, end ps)`.
macro_rules! drive {
    ($sim:expr, $sched_ty:ty, $seed:expr) => {{
        fn chain(m: &mut Trace, s: &mut $sched_ty, tag: u64, depth: u32) {
            m.record(s.now(), tag);
            if depth > 0 && m.rng.next_u64() % 3 == 0 {
                let d = Duration::from_ns(m.rng.next_u64() % 4);
                let t2 = m.rng.next_u64();
                let _ = s.schedule_in(d, move |m: &mut Trace, s| chain(m, s, t2, depth - 1));
            }
        }
        let mut sim = $sim;
        let mut script = SimRng::seed_from($seed ^ 0x5c21_17f0);
        let mut ids = Vec::new();
        let mut cancels = Fnv::new();
        for _ in 0..80 {
            match script.next_u64() % 10 {
                0..=4 => {
                    // A burst of events, many landing on the same
                    // timestamp (delays include zero).
                    let k = 1 + script.next_u64() % 6;
                    for _ in 0..k {
                        let d = Duration::from_ns(script.next_u64() % 4);
                        let tag = script.next_u64();
                        ids.push(sim.schedule_in(d, move |m: &mut Trace, s| chain(m, s, tag, 2)));
                    }
                }
                5 | 6 => {
                    // Cancel a random id: may be live, already fired,
                    // or cancelled twice — the outcome bit must agree.
                    if !ids.is_empty() {
                        let i = script.next_u64() as usize % ids.len();
                        cancels.u64(u64::from(sim.cancel(ids[i])));
                    }
                }
                7 | 8 => {
                    // Partial run against a nearby deadline.
                    let deadline = sim.now() + Duration::from_ns(1 + script.next_u64() % 16);
                    let ran = if script.next_u64() % 2 == 0 {
                        sim.run_before(deadline)
                    } else {
                        sim.run_until(deadline)
                    };
                    cancels.u64(ran);
                }
                _ => {
                    // Drain and rewind; stale ids stay in `ids` so later
                    // cancels exercise the recycled-slot path.
                    sim.run();
                    sim.rewind();
                }
            }
        }
        sim.run();
        let end = sim.now().as_ps();
        let m = sim.into_model();
        (m.digest.finish(), m.fired, cancels.finish(), end)
    }};
}

#[test]
fn random_schedules_agree_across_cores() {
    for seed in 0..24u64 {
        let new = drive!(
            Simulator::new(Trace::new(seed)),
            enzian_sim::Scheduler<Trace>,
            seed
        );
        let old = drive!(
            reference::Simulator::new(Trace::new(seed)),
            reference::Scheduler<Trace>,
            seed
        );
        assert_eq!(new, old, "cores diverged on seed {seed}");
        assert!(new.1 > 0, "seed {seed} fired nothing — script too weak");
    }
}

#[test]
fn long_churn_keeps_slab_and_queue_bounded() {
    // The PR-3 regression class: handler storage growing with lifetime
    // event count instead of peak concurrency. Push a long self-
    // rescheduling churn through the calendar core and pin both the
    // slab and the retained queue capacity to their steady state.
    const LANES: u64 = 32;
    const STEPS: u32 = 2_000;
    // Delays are a pure function of (lane, step) so every churn phase
    // replays the identical timeline from `Time::ZERO`.
    fn delay(tag: u64, left: u32) -> Duration {
        let mut z = (tag << 32 | u64::from(left)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z ^= z >> 29;
        Duration::from_ns(1 + z % 23)
    }
    fn lane(m: &mut Trace, s: &mut enzian_sim::Scheduler<Trace>, tag: u64, left: u32) {
        m.record(s.now(), tag);
        if left > 0 {
            let _ = s.schedule_in(delay(tag, left), move |m: &mut Trace, s| {
                lane(m, s, tag, left - 1)
            });
        }
    }
    fn churn(sim: &mut Simulator<Trace>) {
        for tag in 0..LANES {
            let _ = sim.schedule_in(Duration::from_ns(1), move |m: &mut Trace, s| {
                lane(m, s, tag, STEPS)
            });
        }
        sim.run();
        sim.rewind();
    }
    let mut sim = Simulator::new(Trace::new(7));
    // The slab must be at its steady state after one phase: slots are
    // recycled per event, so lifetime event count can never grow it.
    churn(&mut sim);
    let slab_primed = sim.slab_slots();
    assert!(
        slab_primed <= 2 * LANES as usize,
        "slab holds {slab_primed} slots for {LANES} concurrent lanes"
    );
    // Queue capacity ratchets per wheel position (drains copy out of a
    // bucket instead of swapping its Vec away), so one phase shows
    // every position its peak load and the footprint hits an exact
    // fixed point: a replay must not move it at all.
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
    assert_eq!(
        sim.slab_slots(),
        slab_primed,
        "slab grew with lifetime events"
    );
    assert_eq!(sim.model().fired, 2 * LANES * u64::from(STEPS + 1));
    assert_eq!(sim.live_events(), 0);
}
