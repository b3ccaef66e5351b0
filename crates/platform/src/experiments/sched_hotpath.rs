//! Scheduler hot-path microbenchmark.
//!
//! Not a paper figure — this is the DES-core companion to the evaluation:
//! a self-perpetuating event storm (every fired event schedules the next
//! one for its actor) pushed through three configurations of the kernel:
//!
//! * `reference` — the retained `BTreeMap`/`BinaryHeap` core
//!   ([`enzian_sim::reference`]), boxed-closure events,
//! * `pod` — the calendar-queue core, whose events are the storm's own
//!   plain-old-data `Copy` value (the actor index), stored inline in the
//!   queue: the steady-state hot path allocates nothing,
//! * `parallel` — the same storm sharded over the conservative PDES
//!   engine.
//!
//! The two sequential legs fire the identical storm, and the run
//! asserts their fire-order digests match — the calendar queue is a
//! drop-in replacement, event for event. Events, digests, and
//! allocation deltas are pure functions of the seed and land in
//! `BENCH_sched_hotpath.json`, which is byte-identical across reruns and
//! thread counts like every other BENCH file. Events-per-second
//! throughput is wall-clock, so it goes to stderr and the rendered table
//! only; the root `des_floor` test holds the `pod` core to its
//! throughput floor over the reference core.

use std::convert::Infallible;

use enzian_sim::alloc_count;
use enzian_sim::{
    mix64, reference, Duration, Engine, Envelope, Fnv, KeyedShard, MetricsRegistry, Model,
    ParReport, Scheduler, Simulator, Time, TraceEvent, WorkKey, SPLITMIX64_GAMMA,
};

/// Actors in the storm; each runs an independent event chain.
pub const ACTORS: usize = 192;

/// Events each actor fires before going quiet.
pub const EVENTS_PER_ACTOR: u32 = 600;

/// Shards the parallel leg splits the actors across.
pub const SHARDS: usize = 8;

/// Seed for the initial actor states.
pub const SEED: u64 = 0x5eed_5c4e_d001;

/// Epoch length of the parallel leg.
const LOOKAHEAD: Duration = Duration::from_ns(64);

/// SplitMix64 step: the storm's per-actor state transition.
fn splitmix(x: u64) -> u64 {
    mix64(x.wrapping_add(SPLITMIX64_GAMMA))
}

/// The storm model: per-actor chained events over a shared digest.
///
/// Event handlers only touch indexed `Vec`s — no hashing, no interior
/// allocation — so the allocation counters the legs report are pure
/// functions of the seed.
pub struct Storm {
    /// Per-actor PRNG state; mixed on every firing.
    states: Vec<u64>,
    /// Events each actor has left to fire.
    remaining: Vec<u32>,
    /// FNV-1a digest over every `(time, actor, state)` firing, in fire
    /// order.
    digest: Fnv,
    /// Total events fired.
    fired: u64,
}

impl Storm {
    /// A storm over actor indices `[first, first + actors)` of the
    /// global actor space (the parallel leg gives each shard a slice;
    /// the sequential legs take the whole range).
    pub fn new(first: usize, actors: usize) -> Self {
        Storm {
            states: (0..actors)
                .map(|i| splitmix(SEED ^ (first + i) as u64))
                .collect(),
            remaining: vec![EVENTS_PER_ACTOR; actors],
            digest: Fnv::new(),
            fired: 0,
        }
    }

    /// Fires `actor` (local index) at `now`: mixes its state into the
    /// digest and returns the delay until its next event, or `None`
    /// when the chain is exhausted.
    ///
    /// The delay is a small multiple of a nanosecond derived from the
    /// new state, so distinct actors frequently collide on the same
    /// timestamp — the storm leans on the kernel's FIFO tie order.
    pub fn fire(&mut self, now: Time, actor: usize) -> Option<Duration> {
        let s = splitmix(self.states[actor] ^ now.as_ps());
        self.states[actor] = s;
        self.digest.u64(now.as_ps());
        self.digest.u64(actor as u64);
        self.digest.u64(s);
        self.fired += 1;
        self.remaining[actor] -= 1;
        (self.remaining[actor] > 0).then(|| Duration::from_ns(1 + s % 7))
    }

    /// The fire-order digest.
    pub fn digest(&self) -> u64 {
        self.digest.finish()
    }

    /// Total events fired.
    pub fn fired(&self) -> u64 {
        self.fired
    }
}

/// On the calendar-queue core each event is the actor it fires; the
/// handler reschedules the actor until its chain is exhausted.
impl Model for Storm {
    type Event = u32;

    fn handle(&mut self, s: &mut Scheduler<u32>, actor: u32) {
        if let Some(d) = self.fire(s.now(), actor as usize) {
            s.schedule_in(d, actor);
        }
    }
}

/// Drives the storm on the retained reference core (boxed closures).
pub fn run_reference_core() -> (u64, u64, Time) {
    fn chain(sim: &mut reference::Simulator<Storm>, at: Time, actor: usize) {
        sim.schedule_at_or_now(at, move |m: &mut Storm, s| {
            if let Some(d) = m.fire(s.now(), actor) {
                let at = s.now() + d;
                s.schedule_at(at, move |m: &mut Storm, s| chain_sched(m, s, actor));
            }
        });
    }
    fn chain_sched(m: &mut Storm, s: &mut reference::Scheduler<Storm>, actor: usize) {
        if let Some(d) = m.fire(s.now(), actor) {
            let at = s.now() + d;
            s.schedule_at(at, move |m: &mut Storm, s| chain_sched(m, s, actor));
        }
    }
    let mut sim = reference::Simulator::new(Storm::new(0, ACTORS));
    for actor in 0..ACTORS {
        chain(&mut sim, Time::ZERO, actor);
    }
    sim.run();
    let end = sim.now();
    let m = sim.into_model();
    (m.fired(), m.digest(), end)
}

/// Drives the storm on the calendar-queue core with the storm's own
/// `Copy` events.
pub fn run_pod_core() -> (u64, u64, Time) {
    let mut sim = Simulator::new(Storm::new(0, ACTORS));
    for actor in 0..ACTORS as u32 {
        sim.schedule_at_or_now(Time::ZERO, actor);
    }
    sim.run();
    let end = sim.now();
    let m = sim.into_model();
    (m.fired(), m.digest(), end)
}

/// One PDES shard of the parallel leg: a slice of the actors on its own
/// calendar-queue simulator. Its one kind of work item is the
/// simulator's next event, keyed by that event's time (cached, since
/// [`Simulator::next_event_at`] takes `&mut self`), and running it is one
/// [`Simulator::step`]. The storm is embarrassingly parallel (no
/// cross-shard messages), which makes this leg a pure measurement of the
/// epoch machinery plus per-shard kernel throughput. Every actor fires
/// again within 7 ns, well inside one 64 ns epoch, so every epoch until
/// the storm drains has work and adaptive lookahead skips none
/// (`parallel.epochs_skipped` is 0).
struct StormShard {
    sim: Simulator<Storm>,
    /// The time of the simulator's next event.
    next: Option<Time>,
}

impl StormShard {
    /// Actors `[first, first + actors)`, each with its first event at
    /// time zero.
    fn new(first: usize, actors: usize) -> Self {
        let mut sim = Simulator::new(Storm::new(first, actors));
        for actor in 0..actors as u32 {
            sim.schedule_at_or_now(Time::ZERO, actor);
        }
        let next = sim.next_event_at();
        StormShard { sim, next }
    }
}

impl KeyedShard for StormShard {
    type Msg = Infallible;

    fn next_key(&self) -> Option<WorkKey> {
        self.next.map(|t| (t, 0, 0, 0))
    }

    fn process_next(&mut self, _key: WorkKey, _out: &mut Vec<(usize, Envelope<Infallible>)>) {
        self.sim.step();
        self.next = self.sim.next_event_at();
    }

    fn push_arrival(&mut self, env: Envelope<Infallible>) {
        match env.payload {}
    }

    fn idle(&self) -> bool {
        self.next.is_none()
    }
}

/// The storm split evenly across [`SHARDS`] shards and run to completion
/// on `engine`.
fn run_shards(engine: Engine) -> (Vec<StormShard>, ParReport) {
    let per = ACTORS / SHARDS;
    let mut shards: Vec<StormShard> = (0..SHARDS).map(|i| StormShard::new(i * per, per)).collect();
    let report = engine.run(&mut shards, LOOKAHEAD);
    (shards, report)
}

/// Drives the storm sharded across the conservative engine. Returns
/// `(events, digest, epochs, epochs_skipped, sim_end)`, where `sim_end`
/// is the end of the last epoch window the run reached.
pub fn run_parallel(threads: usize) -> (u64, u64, u64, u64, Time) {
    let (shards, report) = run_shards(Engine::Conservative(threads));
    let mut events = 0;
    let mut digest = Fnv::new();
    for sh in &shards {
        let m = sh.sim.model();
        events += m.fired();
        digest.u64(m.digest());
    }
    let windows = report.epochs + report.epochs_skipped;
    (
        events,
        digest.finish(),
        report.epochs,
        report.epochs_skipped,
        Time::ZERO + LOOKAHEAD * windows,
    )
}

/// One leg of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedHotpathRow {
    /// Leg name: `reference`, `pod`, or `parallel`.
    pub leg: &'static str,
    /// Events the kernel dispatched.
    pub events: u64,
    /// FNV-1a fire-order digest.
    pub digest: u64,
    /// Heap allocations during the leg (0 unless the counting allocator
    /// is installed, as in the `reproduce` binary); `None` for the
    /// `parallel` leg, which is not counted.
    pub allocs: Option<u64>,
    /// Wall-clock seconds the leg took. Non-deterministic, so it is
    /// rendered and printed but never exported to the registry.
    pub wall_s: f64,
}

impl SchedHotpathRow {
    /// Events per second of wall clock, in millions.
    pub fn mevents_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s / 1e6
    }
}

/// Runs all three legs and returns one row per leg.
pub fn run(threads: usize) -> Vec<SchedHotpathRow> {
    run_instrumented(threads, &mut MetricsRegistry::new())
}

/// [`run`], publishing per-leg counters under `sched_hotpath.*`.
/// Everything published is a pure function of the seed.
///
/// # Panics
///
/// Panics if the two sequential legs disagree on fire order — the
/// cross-core conformance check this experiment exists to enforce.
pub fn run_instrumented(threads: usize, reg: &mut MetricsRegistry) -> Vec<SchedHotpathRow> {
    let mut rows = Vec::new();
    let mut leg = |name: &'static str, f: &dyn Fn() -> (u64, u64, Time)| {
        let before = alloc_count::snapshot();
        let started = std::time::Instant::now();
        let (events, digest, end) = f();
        let wall = started.elapsed().as_secs_f64();
        let allocs = alloc_count::snapshot().since(&before).allocations;
        rows.push(SchedHotpathRow {
            leg: name,
            events,
            digest,
            allocs: Some(allocs),
            wall_s: wall,
        });
        end
    };
    let end_ref = leg("reference", &run_reference_core);
    let end_pod = leg("pod", &run_pod_core);
    assert_eq!(rows[0].digest, rows[1].digest, "calendar queue diverged");
    assert_eq!(end_ref, end_pod);

    let started = std::time::Instant::now();
    let (events, digest, epochs, skipped, end_par) = run_parallel(threads);
    let wall = started.elapsed().as_secs_f64();
    rows.push(SchedHotpathRow {
        leg: "parallel",
        events,
        digest,
        allocs: None,
        wall_s: wall,
    });
    reg.counter_set("sched_hotpath.parallel.epochs", epochs);
    reg.counter_set("sched_hotpath.parallel.epochs_skipped", skipped);

    for r in &rows {
        let base = format!("sched_hotpath.{}", r.leg);
        reg.counter_set(&format!("{base}.events"), r.events);
        reg.counter_set(&format!("{base}.digest"), r.digest);
        if let Some(allocs) = r.allocs {
            reg.counter_set(&format!("{base}.allocs"), allocs);
        }
    }
    reg.trace_event(
        TraceEvent::new(end_pod, "sched_hotpath", "storm-drained")
            .field("events", rows[1].events)
            .field("digest", rows[1].digest),
    );
    reg.counter_set("sched_hotpath.sim_time_ps", end_pod.max(end_par).as_ps());
    reg.counter_set(
        "sched_hotpath.events_executed",
        rows.iter().map(|r| r.events).sum(),
    );
    rows
}

/// Renders the sweep as a table (throughput column is wall-clock).
pub fn render(rows: &[SchedHotpathRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.leg.to_string(),
                r.events.to_string(),
                format!("{:.2}", r.mevents_per_sec()),
                r.allocs.map_or_else(|| "-".to_string(), |a| a.to_string()),
                format!("{:016x}", r.digest),
            ]
        })
        .collect();
    super::render_table(
        "Scheduler hot path — event storm throughput by kernel configuration",
        &["leg", "events", "Mev/s", "allocs", "digest"],
        &table_rows,
    )
}

/// Registry adapter: the scheduler hot path through the
/// [`Experiment`](super::Experiment) trait. The per-leg throughput goes
/// to stderr; the exported rows and registry carry no wall clock.
pub struct Driver;

impl super::Experiment for Driver {
    fn name(&self) -> &'static str {
        "sched_hotpath"
    }

    fn needs_threads(&self) -> bool {
        true
    }

    fn run(&self, ctx: &mut super::ExperimentCtx<'_>) -> super::ExperimentRows {
        let rows = run_instrumented(ctx.threads, ctx.reg);
        let reference = rows
            .iter()
            .find(|r| r.leg == "reference")
            .expect("reference leg missing");
        for r in &rows {
            if r.leg != "reference" {
                eprintln!(
                    "sched_hotpath: {} {:.2} Mev/s vs reference {:.2} Mev/s ({:.2}x)",
                    r.leg,
                    r.mevents_per_sec(),
                    reference.mevents_per_sec(),
                    r.mevents_per_sec() / reference.mevents_per_sec()
                );
            }
        }
        let csv = rows
            .iter()
            .map(|r| {
                vec![
                    r.leg.to_string(),
                    r.events.to_string(),
                    r.digest.to_string(),
                    r.allocs.map_or_else(String::new, |a| a.to_string()),
                ]
            })
            .collect();
        super::ExperimentRows {
            text: render(&rows),
            tables: vec![super::Table {
                name: "sched_hotpath",
                header: &["leg", "events", "digest", "allocs"],
                rows: csv,
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_cores_agree_event_for_event() {
        let (er, dr, tr) = run_reference_core();
        let (ep, dp, tp) = run_pod_core();
        assert_eq!(er, (ACTORS as u64) * u64::from(EVENTS_PER_ACTOR));
        assert_eq!((er, dr, tr), (ep, dp, tp));
    }

    #[test]
    fn parallel_leg_is_thread_invariant_and_complete() {
        let (e1, d1, ep1, sk1, t1) = run_parallel(1);
        let (e2, d2, ep2, sk2, t2) = run_parallel(2);
        assert_eq!((e1, d1, ep1, sk1, t1), (e2, d2, ep2, sk2, t2));
        assert_eq!(e1, (ACTORS as u64) * u64::from(EVENTS_PER_ACTOR));
        assert!(ep1 > 0);
    }

    #[test]
    fn storm_shards_agree_across_engines() {
        let per_shard = |engine| {
            let (shards, _) = run_shards(engine);
            shards
                .iter()
                .map(|sh| {
                    (
                        sh.sim.model().fired(),
                        sh.sim.model().digest(),
                        sh.sim.now(),
                    )
                })
                .collect::<Vec<_>>()
        };
        let reference = per_shard(Engine::Sequential);
        assert_eq!(reference.len(), SHARDS);
        for threads in 1..=3 {
            assert_eq!(
                per_shard(Engine::Conservative(threads)),
                reference,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn instrumented_run_feeds_the_bench_contract() {
        let mut reg = MetricsRegistry::new();
        let rows = run_instrumented(2, &mut reg);
        assert_eq!(rows.len(), 3);
        assert!(reg.counter("sched_hotpath.sim_time_ps") > 0);
        assert_eq!(
            reg.counter("sched_hotpath.events_executed"),
            rows.iter().map(|r| r.events).sum::<u64>()
        );
        assert_eq!(
            reg.counter("sched_hotpath.reference.digest"),
            reg.counter("sched_hotpath.pod.digest"),
        );
        let s = render(&rows);
        assert!(s.contains("pod"));
    }
}
