//! Proof that the typed-event hot path schedules without allocating.
//!
//! This battery is its own test binary so the counting global allocator
//! observes exactly one test: the default harness runs tests on pool
//! threads whose incidental allocations (names, result channels) would
//! pollute a shared counter, so the one measurement this file exists
//! for gets a binary to itself.

use enzian_sim::alloc_count::{self, CountingAllocator};
use enzian_sim::{Duration, Model, Scheduler, Simulator, Time};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Fixed-size model: no interior allocation, ever.
struct State {
    seeds: [u64; ACTORS],
    fired: u64,
}

const ACTORS: usize = 16;

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Endless chains: each event names its actor, which fires, mixes and
/// reschedules itself. The event is a plain index — nothing to box.
impl Model for State {
    type Event = usize;

    fn handle(&mut self, s: &mut Scheduler<usize>, i: usize) {
        self.seeds[i] = splitmix(self.seeds[i] ^ s.now().as_ps());
        self.fired += 1;
        s.schedule_in(Duration::from_ns(1 + self.seeds[i] % 97), i);
    }
}

#[test]
fn pod_hot_loop_is_allocation_free() {
    let mut sim = Simulator::new(State {
        seeds: [7; ACTORS],
        fired: 0,
    });
    for i in 0..ACTORS {
        sim.schedule_at(Time::ZERO, i);
    }
    // Warm-up: rotates the wheel enough times (16 chains x ~50 ns mean
    // delay across a ~1 us wheel) for every bucket position to ratchet
    // its capacity to its peak load.
    let _ = sim.run_bounded(150_000);
    let warm = sim.model().fired;
    assert!(warm >= 150_000);

    // Steady state: another 100k scheduled-and-fired events, zero heap
    // traffic. Not "few" allocations, none.
    let before = alloc_count::snapshot();
    let _ = sim.run_bounded(100_000);
    let delta = alloc_count::snapshot().since(&before);
    assert!(sim.model().fired >= warm + 100_000);
    assert_eq!(
        delta.allocations, 0,
        "typed-event hot loop allocated {} times ({} bytes)",
        delta.allocations, delta.bytes_allocated
    );
    assert_eq!(delta.deallocations, 0, "typed-event hot loop freed memory");
}
