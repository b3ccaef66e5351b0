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
//!
//! A caller that never goes back in time can say so with
//! [`Channel::retire_before`]: the channel then forgets the busy
//! intervals behind that floor, so its memory tracks the traffic still
//! on the wire rather than everything it ever carried.

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
    fn effective_bits_per_sec(&self) -> u64 {
        (self.bits_per_sec as f64 * self.coding_efficiency) as u64
    }

    /// Pure serialization time for `payload` bytes plus framing overhead.
    pub fn serialization_time(&self, payload_bytes: u64) -> Duration {
        self.serialization_at(payload_bytes, self.effective_bits_per_sec())
    }

    /// [`ChannelConfig::serialization_time`] at an effective rate the
    /// caller already has.
    fn serialization_at(&self, payload_bytes: u64, bits_per_sec: u64) -> Duration {
        Duration::serialization(payload_bytes + self.frame_overhead_bytes, bits_per_sec)
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

/// The most busy intervals one chunk of a [`BusyList`] holds.
const BUSY_CHUNK: usize = 512;

/// Sorted, disjoint, merged busy intervals `(start, end)` in picoseconds,
/// kept as a list of chunks, none empty, of at most `cap` intervals each.
/// An insert into an old gap shifts the rest of one chunk, not the rest
/// of the whole list, and a full chunk splits in two. A short list is one
/// chunk that grows like any `Vec`.
#[derive(Debug, Clone)]
struct BusyList {
    chunks: Vec<Vec<(u64, u64)>>,
    cap: usize,
    /// How often each chunk-level case ran (see [`Cases`]).
    #[cfg(test)]
    cases: Cases,
}

/// Counts of the chunk-level cases of a [`BusyList`], for the tests that
/// must reach each of them.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default)]
struct Cases {
    /// A full chunk split in two to take an insert.
    splits: u32,
    /// A merge with the last interval of the chunk before.
    cross_merges: u32,
    /// A merge emptied a chunk, which was removed.
    emptied: u32,
    /// Chunks dropped whole by a retire.
    retired_chunks: u32,
}

impl BusyList {
    fn new(cap: usize) -> Self {
        assert!(cap >= 2, "a busy-list chunk holds at least two intervals");
        BusyList {
            chunks: Vec::new(),
            cap,
            #[cfg(test)]
            cases: Cases::default(),
        }
    }

    fn last(&self) -> Option<&(u64, u64)> {
        self.chunks.last().and_then(|c| c.last())
    }

    fn last_mut(&mut self) -> Option<&mut (u64, u64)> {
        self.chunks.last_mut().and_then(|c| c.last_mut())
    }

    /// Appends `iv` after every interval.
    fn push(&mut self, iv: (u64, u64)) {
        match self.chunks.last_mut() {
            Some(c) if c.len() < self.cap => c.push(iv),
            last => {
                let mut c = match last {
                    Some(_) => Vec::with_capacity(self.cap),
                    None => Vec::new(),
                };
                c.push(iv);
                self.chunks.push(c);
            }
        }
    }

    /// The intervals from the first one that ends after `t` on.
    fn ending_after(&self, t: u64) -> impl Iterator<Item = &(u64, u64)> {
        let c = self.chunks.partition_point(|ch| ch[ch.len() - 1].1 <= t);
        let (head, tail): (&[(u64, u64)], _) = match self.chunks[c..].split_first() {
            Some((ch, tail)) => (&ch[ch.partition_point(|&(_, e)| e <= t)..], tail),
            None => (&[], &[]),
        };
        head.iter().chain(tail.iter().flatten())
    }

    /// Inserts `[start, end)`, which overlaps no interval and precedes
    /// the last one, merging it with its neighbours.
    fn insert(&mut self, start: u64, end: u64) {
        // The first interval that starts at or after `start` is index `i`
        // of chunk `c`; its left neighbour may end the chunk before.
        let c = self.chunks.partition_point(|ch| ch[ch.len() - 1].0 < start);
        debug_assert!(c < self.chunks.len(), "insert after the last interval");
        let i = self.chunks[c].partition_point(|&(s, _)| s < start);
        let left = match (i, c) {
            (0, 0) => None,
            (0, _) => Some((c - 1, self.chunks[c - 1].len() - 1)),
            _ => Some((c, i - 1)),
        };
        debug_assert!(left.is_none_or(|(lc, li)| self.chunks[lc][li].1 <= start));
        debug_assert!(end <= self.chunks[c][i].0, "overlap right");
        let merge_left = left.filter(|&(lc, li)| self.chunks[lc][li].1 == start);
        let merge_right = (self.chunks[c][i].0 == end).then_some((c, i));
        #[cfg(test)]
        if merge_left.is_some_and(|(lc, _)| lc != c) {
            self.cases.cross_merges += 1;
        }
        match (merge_left, merge_right) {
            (Some((lc, li)), Some(_)) => {
                self.chunks[lc][li].1 = self.chunks[c][i].1;
                self.chunks[c].remove(i);
                if self.chunks[c].is_empty() {
                    self.chunks.remove(c);
                    #[cfg(test)]
                    {
                        self.cases.emptied += 1;
                    }
                }
            }
            (Some((lc, li)), None) => self.chunks[lc][li].1 = end,
            (None, Some(_)) => self.chunks[c][i].0 = start,
            (None, None) => self.insert_at(c, i, (start, end)),
        }
    }

    /// Inserts `iv` at index `i` of chunk `c`, splitting the chunk in two
    /// first if it is full.
    fn insert_at(&mut self, mut c: usize, mut i: usize, iv: (u64, u64)) {
        if self.chunks[c].len() == self.cap {
            let half = self.cap / 2;
            let mut upper = Vec::with_capacity(self.cap);
            upper.extend(self.chunks[c].drain(half..));
            self.chunks.insert(c + 1, upper);
            if i > half {
                c += 1;
                i -= half;
            }
            #[cfg(test)]
            {
                self.cases.splits += 1;
            }
        }
        self.chunks[c].insert(i, iv);
    }

    /// Drops the intervals that end at or before `floor`, always keeping
    /// the last one.
    fn retire(&mut self, floor: u64) {
        if self.chunks[0][0].1 > floor {
            return;
        }
        let whole = self
            .chunks
            .partition_point(|ch| ch[ch.len() - 1].1 <= floor);
        let whole = whole.min(self.chunks.len() - 1);
        self.chunks.drain(..whole);
        #[cfg(test)]
        {
            self.cases.retired_chunks += whole as u32;
        }
        let first = &mut self.chunks[0];
        let dead = first.partition_point(|&(_, e)| e <= floor);
        first.drain(..dead.min(first.len() - 1));
    }

    #[cfg(test)]
    fn to_vec(&self) -> Vec<(u64, u64)> {
        self.chunks.concat()
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }
}

/// A stateful link: tracks which wire intervals are occupied.
///
/// Transfers submitted in increasing time order behave FCFS; a transfer
/// submitted *earlier* than already-committed future traffic may use an
/// idle gap (as real arbitration would), which keeps independent virtual
/// channels from falsely blocking each other in the transaction-level
/// engine. Contiguous busy intervals are merged, so back-to-back traffic
/// keeps the interval list tiny. A caller that declares a floor (see
/// [`Channel::retire_before`]) also keeps it short when its traffic
/// leaves idle gaps. A long list is kept in chunks, so a submission into
/// an old gap costs a shift within one chunk.
#[derive(Debug, Clone)]
pub struct Channel {
    config: ChannelConfig,
    /// [`ChannelConfig::effective_bits_per_sec`], computed once.
    rate: u64,
    /// Sorted, disjoint, merged busy intervals in picoseconds.
    busy: BusyList,
    /// No transfer is submitted before this instant, in picoseconds
    /// (see [`Channel::retire_before`]).
    floor: u64,
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
            rate: config.effective_bits_per_sec(),
            config,
            busy: BusyList::new(BUSY_CHUNK),
            floor: 0,
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
        for &(s, e) in self.busy.ending_after(candidate) {
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
        self.busy.insert(start, end);
    }

    /// Promises that no later transfer is submitted before `t`, and
    /// drops the busy intervals that end at or before it, always keeping
    /// the newest so that [`Channel::busy_until`] and the tail fast path
    /// see the same last interval.
    ///
    /// A submission at or after the floor starts its gap search past
    /// every interval that ends at or before it, so a retired interval
    /// could never have changed a [`Transfer`]: the list only gets
    /// shorter. The floor never moves back; [`Channel::send`] and
    /// [`Channel::peek_done`] debug-assert that they are called at or
    /// after it.
    pub fn retire_before(&mut self, t: Time) {
        self.floor = self.floor.max(t.as_ps());
        if !self.busy.chunks.is_empty() {
            self.busy.retire(self.floor);
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

    /// Wire time of a `payload_bytes` transfer in picoseconds, framing
    /// included, at the cached rate.
    fn wire_ps(&self, payload_bytes: u64) -> u64 {
        let ser = self.config.serialization_at(payload_bytes, self.rate);
        ser.as_ps().max(1)
    }

    /// Submits a `payload_bytes` transfer at time `now`, returning its
    /// timing. The transfer takes the first idle slot at or after `now`.
    pub fn send(&mut self, now: Time, payload_bytes: u64) -> Transfer {
        self.check_floor(now);
        let ser = self.wire_ps(payload_bytes);
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
        self.check_floor(now);
        let ser = self.wire_ps(payload_bytes);
        let start = self.start_of(now.as_ps(), ser);
        Time::from_ps(start + ser) + self.config.propagation
    }

    /// Debug-asserts that a submission at `now` keeps the promise of
    /// [`Channel::retire_before`].
    fn check_floor(&self, now: Time) {
        debug_assert!(
            now.as_ps() >= self.floor,
            "submission at {} ps is below the channel's floor of {} ps",
            now.as_ps(),
            self.floor
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ten_gbps() -> Channel {
        Channel::new(ChannelConfig::raw(10_000_000_000, Duration::from_ns(50)))
    }

    /// [`ten_gbps`] with busy-list chunks of at most `cap` intervals.
    fn ten_gbps_chunked(cap: usize) -> Channel {
        Channel {
            busy: BusyList::new(cap),
            ..ten_gbps()
        }
    }

    /// The busy-list chunk sizes the oracle tests run: one small enough
    /// that chunks split, merge across their edges, empty and retire
    /// whole within a short run, and the real one.
    const CHUNKS: [usize; 2] = [2, BUSY_CHUNK];

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
        let bps = ch.bytes_carried() as f64 / now.as_secs_f64();
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
    /// gaps, bursts at one instant, zero- and large-byte transfers) give
    /// the same transfers and the same busy list as the general gap
    /// search, at both chunk sizes; with small chunks they split, merge
    /// across a chunk edge and empty.
    #[test]
    fn tail_fast_path_matches_the_gap_search() {
        for cap in CHUNKS {
            let cases = tail_fast_path_matches_the_gap_search_at(cap);
            if cap < BUSY_CHUNK {
                let Cases {
                    splits,
                    cross_merges,
                    emptied,
                    ..
                } = cases;
                assert!(splits > 0 && cross_merges > 0 && emptied > 0, "{cases:?}");
            }
        }
    }

    fn tail_fast_path_matches_the_gap_search_at(cap: usize) -> Cases {
        let mut hits = [0u32; 2];
        let mut cases = Cases::default();
        for seed in 0..64 {
            let mut rng = crate::SimRng::seed_from(seed);
            let mut ch = ten_gbps_chunked(cap);
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
                assert_eq!(ch.busy.to_vec(), reference.busy, "{ctx}");
                let chunks = &ch.busy.chunks;
                assert!(chunks.iter().all(|c| (1..=cap).contains(&c.len())), "{ctx}");
            }
            cases = sum(cases, ch.busy.cases);
        }
        // Both paths ran many times: [gap search, tail fast path].
        assert!(hits.iter().all(|&h| h > 1_000), "{hits:?}");
        cases
    }

    fn sum(a: Cases, b: Cases) -> Cases {
        Cases {
            splits: a.splits + b.splits,
            cross_merges: a.cross_merges + b.cross_merges,
            emptied: a.emptied + b.emptied,
            retired_chunks: a.retired_chunks + b.retired_chunks,
        }
    }

    /// Seeded random submissions that jump back into gaps ahead of a
    /// nondecreasing floor, retired before each one, give the same
    /// transfers and the same `busy_until` as the same stream on a
    /// channel that never retires, while its interval list stays short,
    /// at both chunk sizes; with small chunks, retiring drops whole
    /// chunks and the list that keeps everything splits its chunks.
    #[test]
    fn retiring_behind_the_floor_changes_no_transfer() {
        for cap in CHUNKS {
            let (retiring, keeping) = retiring_behind_the_floor_changes_no_transfer_at(cap);
            if cap < BUSY_CHUNK {
                assert!(retiring.retired_chunks > 0, "{retiring:?}");
                assert!(keeping.splits > 0, "{keeping:?}");
            }
        }
    }

    fn retiring_behind_the_floor_changes_no_transfer_at(cap: usize) -> (Cases, Cases) {
        let mut longest = 0;
        let mut kept = 0;
        let (mut retiring, mut keeping) = (Cases::default(), Cases::default());
        for seed in 0..32 {
            let mut rng = crate::SimRng::seed_from(seed);
            let mut ch = ten_gbps_chunked(cap);
            let mut keep_all = ten_gbps_chunked(cap);
            let mut floor = 0u64;
            for step in 0..2_000 {
                floor += rng.next_below(400_000);
                ch.retire_before(Time::from_ps(floor));
                // Anywhere in the next microsecond: mostly into idle
                // gaps between traffic already committed ahead.
                let now = Time::from_ps(floor + rng.next_below(1_000_000));
                let bytes = rng.next_below(200);
                let ctx = format!("seed {seed} step {step}: {bytes} B at {now:?}");
                assert_eq!(
                    ch.peek_done(now, bytes),
                    keep_all.peek_done(now, bytes),
                    "{ctx}"
                );
                assert_eq!(ch.send(now, bytes), keep_all.send(now, bytes), "{ctx}");
                assert_eq!(ch.busy_until(), keep_all.busy_until(), "{ctx}");
                longest = longest.max(ch.busy.len());
            }
            kept = kept.max(keep_all.busy.len());
            retiring = sum(retiring, ch.busy.cases);
            keeping = sum(keeping, keep_all.busy.cases);
        }
        assert!(longest <= 16, "retiring channel held {longest} intervals");
        assert!(kept > 500, "the stream left only {kept} gaps");
        (retiring, keeping)
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "below the channel's floor")]
    fn a_submission_below_the_floor_panics() {
        let mut ch = ten_gbps();
        ch.send(Time::from_ps(1_000_000), 128);
        ch.retire_before(Time::from_ps(2_000_000));
        ch.send(Time::from_ps(1_999_999), 128);
    }

    #[test]
    #[should_panic(expected = "zero bandwidth")]
    fn zero_bandwidth_rejected() {
        let _ = Channel::new(ChannelConfig::raw(0, Duration::ZERO));
    }
}
