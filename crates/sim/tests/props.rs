//! Randomized invariant tests for the simulation kernel.
//!
//! Each test drives the kernel with pseudo-random inputs from [`SimRng`]
//! seeded deterministically, so failures reproduce exactly and `cargo test`
//! never depends on external crates or wall-clock entropy.

use enzian_sim::stats::Summary;
use enzian_sim::{Channel, ChannelConfig, Duration, Model, Scheduler, SimRng, Simulator, Time};

/// Channel bookings never overlap and never start before submission;
/// total occupancy never exceeds wall-clock capacity.
#[test]
fn channel_conservation() {
    let mut rng = SimRng::seed_from(0xC0DE_0001);
    for _case in 0..64 {
        let n = rng.range(1, 199) as usize;
        let sends: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.next_below(1_000_000), rng.range(1, 4095)))
            .collect();
        let cfg = ChannelConfig::raw(10_000_000_000, Duration::from_ns(10));
        let mut ch = Channel::new(cfg);
        let mut total_ser = 0u64;
        let mut latest = 0u64;
        for &(at_ns, bytes) in &sends {
            let now = Time::ZERO + Duration::from_ns(at_ns);
            let t = ch.send(now, bytes);
            assert!(t.start >= now, "transfer started before submission");
            assert!(t.done > t.start);
            total_ser += cfg.serialization_time(bytes).as_ps();
            latest = latest.max(t.done.as_ps());
        }
        // All serialization fits in [0, latest]: the wire is never
        // oversubscribed.
        assert!(total_ser <= latest);
        assert_eq!(ch.transfers(), sends.len() as u64);
    }
}

/// Logs the nanosecond each event fires at.
struct FireLog(Vec<u64>);

impl Model for FireLog {
    type Event = ();

    fn handle(&mut self, s: &mut Scheduler<()>, _ev: ()) {
        self.0.push(s.now().as_ns());
    }
}

/// Events fire in nondecreasing time order regardless of insertion order.
#[test]
fn simulator_fires_in_time_order() {
    let mut rng = SimRng::seed_from(0xC0DE_0002);
    for _case in 0..64 {
        let n = rng.range(1, 199) as usize;
        let delays: Vec<u64> = (0..n).map(|_| rng.next_below(1_000_000)).collect();
        let mut sim = Simulator::new(FireLog(Vec::new()));
        for &d in &delays {
            sim.schedule_in(Duration::from_ns(d), ());
        }
        sim.run();
        let log = &sim.model().0;
        assert_eq!(log.len(), delays.len());
        for w in log.windows(2) {
            assert!(w[1] >= w[0]);
        }
        let mut sorted = delays.clone();
        sorted.sort_unstable();
        assert_eq!(log, &sorted);
    }
}

/// Welford summary agrees with the naive two-pass computation.
#[test]
fn summary_matches_naive() {
    let mut rng = SimRng::seed_from(0xC0DE_0003);
    for _case in 0..64 {
        let n = rng.range(2, 199) as usize;
        let xs: Vec<f64> = (0..n).map(|_| (rng.next_f64() - 0.5) * 2e6).collect();
        let mut s = Summary::new();
        for &x in &xs {
            s.record(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        assert!((s.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        assert!((s.std_dev() - var.sqrt()).abs() <= 1e-5 * var.sqrt().max(1.0));
    }
}

/// RNG bounds hold for arbitrary ranges.
#[test]
fn rng_range_is_inclusive() {
    let mut meta = SimRng::seed_from(0xC0DE_0004);
    for _case in 0..64 {
        let seed = meta.next_u64();
        let lo = meta.next_below(1000);
        let hi = lo + meta.next_below(1000);
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..50 {
            let v = rng.range(lo, hi);
            assert!((lo..=hi).contains(&v));
        }
    }
}

/// Serialization time scales linearly: twice the bytes never takes
/// less than twice minus rounding.
#[test]
fn serialization_scales() {
    let mut rng = SimRng::seed_from(0xC0DE_0005);
    for _case in 0..256 {
        let bytes = rng.range(1, 999_999);
        let bps = rng.range(1_000, 999_999_999_999);
        let one = Duration::serialization(bytes, bps).as_ps();
        let two = Duration::serialization(bytes * 2, bps).as_ps();
        assert!(two >= 2 * one - 1);
        assert!(two <= 2 * one + 1);
    }
}
