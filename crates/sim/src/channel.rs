//! A first-come-first-served bandwidth/latency pipe.
//!
//! Every serial link in the platform — an ECI lane, a PCIe x16 bundle, a
//! 100G Ethernet port, even the 400 kHz I2C bus on the BMC — is modelled as
//! a [`Channel`]: a half-duplex resource with a raw bit rate, an optional
//! coding efficiency (e.g. 64b/66b), a fixed propagation delay, and a
//! per-transfer framing overhead in bytes.
//!
//! The channel tracks the instant it becomes free. Submitting a transfer at
//! time `t` returns the interval `[start, done]` where `start = max(t,
//! busy_until)` and `done = start + serialization + propagation`; the
//! channel is then busy until `start + serialization` (cut-through: the
//! propagation tail overlaps the next transfer).

use crate::time::{Duration, Time};

/// Static description of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelConfig {
    /// Raw line rate in bits per second.
    pub bits_per_sec: u64,
    /// Fraction of the line rate available to payload after line coding
    /// (e.g. 64/66 for 64b/66b). Must be in `(0, 1]`.
    pub coding_efficiency: f64,
    /// One-way propagation delay (wire + SerDes + elastic buffers).
    pub propagation: Duration,
    /// Fixed per-transfer framing overhead, in bytes on the wire.
    pub frame_overhead_bytes: u64,
}

impl ChannelConfig {
    /// A convenience constructor with no coding loss, no framing overhead.
    pub fn raw(bits_per_sec: u64, propagation: Duration) -> Self {
        ChannelConfig {
            bits_per_sec,
            coding_efficiency: 1.0,
            propagation,
            frame_overhead_bytes: 0,
        }
    }

    /// Effective payload bandwidth in bits per second after coding.
    pub fn effective_bits_per_sec(&self) -> u64 {
        (self.bits_per_sec as f64 * self.coding_efficiency) as u64
    }

    /// Pure serialization time for `payload` bytes plus framing overhead.
    pub fn serialization_time(&self, payload_bytes: u64) -> Duration {
        Duration::serialization(
            payload_bytes + self.frame_overhead_bytes,
            self.effective_bits_per_sec(),
        )
    }
}

/// The result of submitting a transfer to a [`Channel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// When the first bit left the sender (after queueing).
    pub start: Time,
    /// When the last bit arrived at the receiver.
    pub done: Time,
}

impl Transfer {
    /// Total latency experienced by this transfer, measured from the
    /// submission instant `submitted`.
    pub fn latency_from(&self, submitted: Time) -> Duration {
        self.done.since(submitted)
    }
}

/// A stateful link: tracks which wire intervals are occupied.
///
/// Transfers submitted in increasing time order behave FCFS; a transfer
/// submitted *earlier* than already-committed future traffic may use an
/// idle gap (as real arbitration would), which keeps independent virtual
/// channels from falsely blocking each other in the transaction-level
/// engine. Contiguous busy intervals are merged, so back-to-back traffic
/// keeps the interval list tiny.
#[derive(Debug, Clone)]
pub struct Channel {
    config: ChannelConfig,
    /// Sorted, disjoint, merged busy intervals in picoseconds.
    busy: Vec<(u64, u64)>,
    bytes_carried: u64,
    transfers: u64,
}

impl Channel {
    /// Creates an idle channel.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero bandwidth or a coding
    /// efficiency outside `(0, 1]`.
    pub fn new(config: ChannelConfig) -> Self {
        assert!(config.bits_per_sec > 0, "channel with zero bandwidth");
        assert!(
            config.coding_efficiency > 0.0 && config.coding_efficiency <= 1.0,
            "coding efficiency must be in (0, 1]"
        );
        Channel {
            config,
            busy: Vec::new(),
            bytes_carried: 0,
            transfers: 0,
        }
    }

    /// The static link description.
    pub fn config(&self) -> &ChannelConfig {
        &self.config
    }

    /// The instant all currently committed traffic has left the wire.
    pub fn busy_until(&self) -> Time {
        Time::from_ps(self.busy.last().map_or(0, |&(_, e)| e))
    }

    /// The start of a `dur`-picosecond transfer submitted at `from`: the
    /// first idle gap of that length at or after `from`.
    ///
    /// Tail fast path: when `from` is at or after the start of the last
    /// busy interval, no earlier interval can overlap and no gap exists
    /// inside the last one, so the transfer starts at `from` or when the
    /// last interval ends. A FIFO caller, whose submissions never go
    /// back in time, always takes it; only a submission into an older
    /// gap searches the list.
    fn start_of(&self, from: u64, dur: u64) -> u64 {
        match self.busy.last() {
            Some(&(s, _)) if from < s => self.find_gap(from, dur),
            last => last.map_or(from, |&(_, e)| from.max(e)),
        }
    }

    /// Finds the start of the first idle gap of length `dur` at or after
    /// `from` (both in picoseconds).
    fn find_gap(&self, from: u64, dur: u64) -> u64 {
        let mut candidate = from;
        // Start scanning from the first interval that could overlap.
        let idx = self.busy.partition_point(|&(_, e)| e <= candidate);
        for &(s, e) in &self.busy[idx..] {
            if s >= candidate.saturating_add(dur) {
                break; // fits entirely before this interval
            }
            candidate = candidate.max(e);
        }
        candidate
    }

    /// Inserts `[start, end)` as busy, merging with neighbours.
    fn occupy(&mut self, start: u64, end: u64) {
        // Tail fast path: nothing lies at or after the last interval's
        // end, so the interval extends it or is pushed after it.
        match self.busy.last_mut() {
            Some(last) if last.1 == start => {
                last.1 = end;
                return;
            }
            Some(&mut (_, e)) if e > start => {}
            _ => {
                self.busy.push((start, end));
                return;
            }
        }
        let idx = self.busy.partition_point(|&(s, _)| s < start);
        debug_assert!(idx == 0 || self.busy[idx - 1].1 <= start, "overlap left");
        debug_assert!(
            idx == self.busy.len() || end <= self.busy[idx].0,
            "overlap right"
        );
        let merge_left = idx > 0 && self.busy[idx - 1].1 == start;
        let merge_right = idx < self.busy.len() && self.busy[idx].0 == end;
        match (merge_left, merge_right) {
            (true, true) => {
                self.busy[idx - 1].1 = self.busy[idx].1;
                self.busy.remove(idx);
            }
            (true, false) => self.busy[idx - 1].1 = end,
            (false, true) => self.busy[idx].0 = start,
            (false, false) => self.busy.insert(idx, (start, end)),
        }
    }

    /// Total payload bytes carried so far.
    pub fn bytes_carried(&self) -> u64 {
        self.bytes_carried
    }

    /// Total transfers carried so far.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Submits a `payload_bytes` transfer at time `now`, returning its
    /// timing. The transfer takes the first idle slot at or after `now`.
    pub fn send(&mut self, now: Time, payload_bytes: u64) -> Transfer {
        let ser = self.config.serialization_time(payload_bytes).as_ps().max(1);
        let start = self.start_of(now.as_ps(), ser);
        self.occupy(start, start + ser);
        self.bytes_carried += payload_bytes;
        self.transfers += 1;
        Transfer {
            start: Time::from_ps(start),
            done: Time::from_ps(start + ser) + self.config.propagation,
        }
    }

    /// Time at which a transfer submitted at `now` would complete, without
    /// committing it.
    pub fn peek_done(&self, now: Time, payload_bytes: u64) -> Time {
        let ser = self.config.serialization_time(payload_bytes).as_ps().max(1);
        let start = self.start_of(now.as_ps(), ser);
        Time::from_ps(start + ser) + self.config.propagation
    }

    /// Resets occupancy (e.g. after link retraining drains the wire).
    pub fn reset_at(&mut self, now: Time) {
        self.busy.clear();
        if now > Time::ZERO {
            // Everything before `now` is unusable after a retrain.
            self.busy.push((0, now.as_ps()));
        }
    }

    /// Mean payload throughput between time zero and `now`, in bytes/sec.
    pub fn mean_throughput(&self, now: Time) -> f64 {
        let secs = now.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.bytes_carried as f64 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ten_gbps() -> Channel {
        Channel::new(ChannelConfig::raw(10_000_000_000, Duration::from_ns(50)))
    }

    #[test]
    fn single_transfer_timing() {
        let mut ch = ten_gbps();
        // 128 B at 10 Gb/s = 102.4 ns serialization + 50 ns propagation.
        let t = ch.send(Time::ZERO, 128);
        assert_eq!(t.start, Time::ZERO);
        assert_eq!(t.done.as_ps(), 102_400 + 50_000);
    }

    #[test]
    fn back_to_back_transfers_queue() {
        let mut ch = ten_gbps();
        let a = ch.send(Time::ZERO, 128);
        let b = ch.send(Time::ZERO, 128);
        // Second starts when the first finishes serializing, not after its
        // propagation (cut-through).
        assert_eq!(b.start.as_ps(), 102_400);
        assert_eq!(b.done.as_ps(), 204_800 + 50_000);
        assert!(a.done < b.done);
    }

    #[test]
    fn idle_gap_is_not_accumulated() {
        let mut ch = ten_gbps();
        ch.send(Time::ZERO, 128);
        let later = Time::from_ps(1_000_000);
        let t = ch.send(later, 128);
        assert_eq!(t.start, later);
    }

    #[test]
    fn coding_and_framing_overheads_apply() {
        let cfg = ChannelConfig {
            bits_per_sec: 10_000_000_000,
            coding_efficiency: 64.0 / 66.0,
            propagation: Duration::ZERO,
            frame_overhead_bytes: 16,
        };
        let mut ch = Channel::new(cfg);
        let t = ch.send(Time::ZERO, 112); // 112 + 16 = 128 B on the wire
                                          // 128 B at 10 * 64/66 Gb/s = 105.6 ns.
        assert_eq!(t.done.as_ps(), 105_600);
    }

    #[test]
    fn throughput_accounting() {
        let mut ch = ten_gbps();
        for _ in 0..1000 {
            ch.send(Time::ZERO, 128);
        }
        assert_eq!(ch.bytes_carried(), 128_000);
        assert_eq!(ch.transfers(), 1000);
        let now = ch.busy_until();
        let bps = ch.mean_throughput(now);
        // Fully back-to-back: throughput equals line rate (in bytes/s).
        assert!((bps - 1.25e9).abs() / 1.25e9 < 1e-6, "got {bps}");
    }

    #[test]
    fn peek_does_not_commit() {
        let ch = ten_gbps();
        let d1 = ch.peek_done(Time::ZERO, 128);
        let d2 = ch.peek_done(Time::ZERO, 128);
        assert_eq!(d1, d2);
        assert_eq!(ch.transfers(), 0);
    }

    /// The general path alone: `find_gap` then `occupy`, searching the
    /// whole interval list on every submission.
    struct GapSearch {
        busy: Vec<(u64, u64)>,
    }

    impl GapSearch {
        fn send(&mut self, from: u64, ser: u64) -> u64 {
            let mut start = from;
            let idx = self.busy.partition_point(|&(_, e)| e <= start);
            for &(s, e) in &self.busy[idx..] {
                if s >= start.saturating_add(ser) {
                    break;
                }
                start = start.max(e);
            }
            let end = start + ser;
            let idx = self.busy.partition_point(|&(s, _)| s < start);
            let merge_left = idx > 0 && self.busy[idx - 1].1 == start;
            let merge_right = idx < self.busy.len() && self.busy[idx].0 == end;
            match (merge_left, merge_right) {
                (true, true) => {
                    self.busy[idx - 1].1 = self.busy[idx].1;
                    self.busy.remove(idx);
                }
                (true, false) => self.busy[idx - 1].1 = end,
                (false, true) => self.busy[idx].0 = start,
                (false, false) => self.busy.insert(idx, (start, end)),
            }
            start
        }
    }

    /// Seeded random submissions (monotone runs, jumps back into old
    /// gaps, bursts at one instant, zero- and large-byte transfers and
    /// retrains) give the same transfers and the same busy list as the
    /// general gap search.
    #[test]
    fn tail_fast_path_matches_the_gap_search() {
        let mut hits = [0u32; 2];
        for seed in 0..64 {
            let mut rng = crate::SimRng::seed_from(seed);
            let mut ch = ten_gbps();
            let mut reference = GapSearch { busy: Vec::new() };
            let mut now = 0u64;
            for step in 0..400 {
                now = match rng.next_below(8) {
                    // Same instant as the last submission.
                    0 | 1 => now,
                    // Back into the past, possibly before every interval.
                    2 => now.saturating_sub(rng.next_below(2_000_000)),
                    // Anywhere inside the committed span.
                    3 => rng.next_below(ch.busy_until().as_ps() + 1),
                    // At or just before the last interval's start, where
                    // a 1 ps transfer can still fit in the gap before it.
                    4 => ch
                        .busy
                        .last()
                        .map_or(now, |&(s, _)| s.saturating_sub(rng.next_below(3))),
                    // Monotone, from barely past to beyond the tail.
                    _ => now + rng.next_below(400_000),
                };
                if rng.next_below(100) == 0 {
                    ch.reset_at(Time::from_ps(now));
                    reference.busy.clear();
                    if now > 0 {
                        reference.busy.push((0, now));
                    }
                }
                let bytes = match rng.next_below(10) {
                    0 => 0,
                    1 => 1 << 20,
                    _ => rng.next_below(1_600),
                };
                let ser = ch.config().serialization_time(bytes).as_ps().max(1);
                let tail_start = ch.busy.last().map_or(0, |&(s, _)| s);
                hits[usize::from(now >= tail_start)] += 1;
                let peeked = ch.peek_done(Time::from_ps(now), bytes);
                let t = ch.send(Time::from_ps(now), bytes);
                let start = reference.send(now, ser);
                let ctx = format!("seed {seed} step {step}: {bytes} B at {now} ps");
                assert_eq!(t.start.as_ps(), start, "{ctx}");
                assert_eq!(
                    t.done,
                    Time::from_ps(start + ser) + ch.config().propagation,
                    "{ctx}"
                );
                assert_eq!(peeked, t.done, "{ctx}");
                assert_eq!(ch.busy, reference.busy, "{ctx}");
            }
        }
        // Both paths ran many times: [gap search, tail fast path].
        assert!(hits.iter().all(|&h| h > 1_000), "{hits:?}");
    }

    #[test]
    #[should_panic(expected = "zero bandwidth")]
    fn zero_bandwidth_rejected() {
        let _ = Channel::new(ChannelConfig::raw(0, Duration::ZERO));
    }
}
