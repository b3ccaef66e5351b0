//! An indexed calendar queue over `Copy` entries.
//!
//! [`CalendarQueue`] is the priority queue under the DES hot path: a
//! bucket wheel (Brown's calendar queue, simplified to a fixed bucket
//! count) holding plain-old-data entries inline, with a sorted current
//! run popped from the back, and beyond the wheel's horizon a sorted lane
//! and a binary heap. Entries are totally ordered by `(at, key)`;
//! callers that need deterministic FIFO tie order give every entry a
//! unique, monotonically increasing `key` (the scheduler uses its event
//! sequence number), making pop order independent of the internal
//! layout and the insertion pattern.
//!
//! The tiers, nearest first:
//!
//! * the current run: every entry before the frontier, sorted;
//! * the wheel: 1024 buckets of ~1 ns from the frontier to the horizon,
//!   ~1 µs ahead. Taking a bucket moves the frontier past it; a bucket
//!   of one entry (the common case) needs no sort;
//! * the lane: a sorted run of entries at or beyond the horizon. A far
//!   entry that does not precede the lane's last entry is appended in
//!   O(1), so a burst scheduled in time order (a batch of issues) never
//!   meets a comparison-sorted structure;
//! * the overflow heap: far entries that precede the lane's last.
//!
//! The horizon is a multiple of a quarter rotation, so it moves, and the
//! lane and the heap are looked at, once per ~262 ns of simulated time
//! rather than once per bucket.
//!
//! Every tier recycles its capacity: once the queue has seen its
//! steady-state population, `push`/`pop` allocate nothing. The structure
//! never shrinks on its own; [`CalendarQueue::footprint`] exposes the
//! retained capacity so tests can pin it down.

use crate::time::Time;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Number of wheel buckets. Power of two so the bucket index is a mask.
const NBUCKETS: usize = 1024;
const MASK: usize = NBUCKETS - 1;
/// Words in the occupancy bitmap (`NBUCKETS / 64`).
const OCC_WORDS: usize = NBUCKETS / 64;
/// Bucket width: ~1 ns of simulated time per bucket, matching the event
/// spacing of the ECI/NIC models that dominate the hot path.
const WIDTH_PS: u64 = 1024;
/// Simulated time one rotation of the wheel covers.
const SPAN_PS: u64 = NBUCKETS as u64 * WIDTH_PS;
/// The horizon's granularity: a quarter rotation, ~262 ns.
const STEP_PS: u64 = SPAN_PS / 4;

/// One queue entry: a timestamp, a total-order tie-break key, and the
/// payload, stored inline. The simulator's engine is the one user; its
/// payload is the model's event.
///
/// Entries compare by `(at_ps, key)` alone: the payload never takes part
/// in the order, so it needs no `Ord` of its own.
#[derive(Debug, Clone, Copy)]
pub struct CalEntry<T> {
    /// Firing time, picoseconds.
    pub at_ps: u64,
    /// Tie-break key; unique keys give a strict deterministic total order.
    pub key: u64,
    /// The payload.
    pub ev: T,
}

impl<T> CalEntry<T> {
    fn sort_key(&self) -> (u64, u64) {
        (self.at_ps, self.key)
    }
}

impl<T> PartialEq for CalEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.sort_key() == other.sort_key()
    }
}

impl<T> Eq for CalEntry<T> {}

impl<T> PartialOrd for CalEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for CalEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.sort_key().cmp(&other.sort_key())
    }
}

/// A calendar queue of [`CalEntry`] records, popped in `(at, key)` order.
///
/// # Example
///
/// ```
/// use enzian_sim::calq::CalendarQueue;
/// use enzian_sim::Time;
///
/// let mut q = CalendarQueue::new();
/// q.push(Time::from_ps(30), 0, 'c');
/// q.push(Time::from_ps(10), 1, 'a');
/// q.push(Time::from_ps(10), 2, 'b'); // same instant, later key
/// assert_eq!(q.pop().unwrap().ev, 'a');
/// assert_eq!(q.pop().unwrap().ev, 'b');
/// assert_eq!(q.pop().unwrap().ev, 'c');
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// Current run, sorted *descending* so the minimum pops from the back.
    cur: Vec<CalEntry<T>>,
    /// The wheel: covers `[frontier, horizon)`, bucket `i` holding times
    /// with `(t / WIDTH_PS) % NBUCKETS == i`.
    buckets: Vec<Vec<CalEntry<T>>>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occ: [u64; OCC_WORDS],
    /// Entries currently in the wheel.
    wheel_len: usize,
    /// Times at or beyond `horizon`, sorted ascending.
    lane: VecDeque<CalEntry<T>>,
    /// Times at or beyond `horizon` that precede the lane's last entry.
    overflow: BinaryHeap<Reverse<CalEntry<T>>>,
    /// Start of the next untaken bucket; every entry in `cur` is earlier.
    frontier_ps: u64,
    /// [`horizon_of`] the frontier: where the wheel ends.
    horizon_ps: u64,
    len: usize,
}

/// The horizon for a frontier: the last [`STEP_PS`] boundary within one
/// rotation of it.
fn horizon_of(frontier_ps: u64) -> u64 {
    (frontier_ps + SPAN_PS) / STEP_PS * STEP_PS
}

impl<T: Copy> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> CalendarQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            cur: Vec::new(),
            buckets: (0..NBUCKETS).map(|_| Vec::new()).collect(),
            occ: [0; OCC_WORDS],
            wheel_len: 0,
            lane: VecDeque::new(),
            overflow: BinaryHeap::new(),
            frontier_ps: 0,
            horizon_ps: horizon_of(0),
            len: 0,
        }
    }

    /// Number of entries queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues an entry. Any `at` is accepted — callers enforce their
    /// own monotonicity rules.
    pub fn push(&mut self, at: Time, key: u64, ev: T) {
        let t = at.as_ps();
        if self.len == 0 {
            // Empty queue: rebase the wheel so `t` lands in its first
            // bucket instead of trickling through the far tiers.
            self.rebase(t);
        }
        let e = CalEntry { at_ps: t, key, ev };
        self.len += 1;
        if t < self.frontier_ps {
            // Earlier than every untaken bucket: belongs in the current
            // run. Keep it sorted descending.
            let pos = self.cur.partition_point(|x| x.sort_key() > e.sort_key());
            self.cur.insert(pos, e);
        } else if t < self.horizon_ps {
            self.bucket_push(e);
        } else {
            self.far_push(e);
        }
    }

    /// Removes and returns the earliest entry.
    pub fn pop(&mut self) -> Option<CalEntry<T>> {
        if !self.refill() {
            return None;
        }
        self.len -= 1;
        self.cur.pop()
    }

    /// The earliest entry without removing it.
    pub fn peek(&mut self) -> Option<&CalEntry<T>> {
        if !self.refill() {
            return None;
        }
        self.cur.last()
    }

    /// Total retained entry capacity across all tiers — the number the
    /// bounded-churn regression test pins: it must track peak pending
    /// population, never lifetime push count.
    pub fn footprint(&self) -> usize {
        self.cur.capacity()
            + self.buckets.iter().map(Vec::capacity).sum::<usize>()
            + self.lane.capacity()
            + self.overflow.capacity()
    }

    /// Moves the window so its first bucket holds time `t`. Only called
    /// with the wheel empty.
    fn rebase(&mut self, t: u64) {
        self.frontier_ps = t / WIDTH_PS * WIDTH_PS;
        self.horizon_ps = horizon_of(self.frontier_ps);
    }

    fn bucket_push(&mut self, e: CalEntry<T>) {
        debug_assert!(e.at_ps >= self.frontier_ps && e.at_ps < self.horizon_ps);
        let bi = (e.at_ps / WIDTH_PS) as usize & MASK;
        self.occ[bi >> 6] |= 1u64 << (bi & 63);
        self.buckets[bi].push(e);
        self.wheel_len += 1;
    }

    /// Appends a far entry to the lane unless it precedes the lane's
    /// last entry; heaps it then.
    fn far_push(&mut self, e: CalEntry<T>) {
        if self
            .lane
            .back()
            .is_none_or(|b| b.sort_key() <= e.sort_key())
        {
            self.lane.push_back(e);
        } else {
            self.overflow.push(Reverse(e));
        }
    }

    /// Pulls the far entries the horizon now covers into the wheel. Each
    /// entry migrates once.
    fn drain_far(&mut self) {
        let h = self.horizon_ps;
        while let Some(&e) = self.lane.front() {
            if e.at_ps >= h {
                break;
            }
            self.lane.pop_front();
            self.bucket_push(e);
        }
        while let Some(Reverse(e)) = self.overflow.peek() {
            if e.at_ps >= h {
                break;
            }
            let Reverse(e) = self.overflow.pop().expect("peeked");
            self.bucket_push(e);
        }
    }

    /// Distance (in buckets, from `start`) of the next occupied bucket.
    /// Only called with `wheel_len > 0`.
    fn next_occupied(&self, start: usize) -> usize {
        let w0 = start >> 6;
        let b0 = start & 63;
        let m = self.occ[w0] >> b0;
        if m != 0 {
            return m.trailing_zeros() as usize;
        }
        let mut d = 64 - b0;
        for i in 1..=OCC_WORDS {
            let w = self.occ[(w0 + i) % OCC_WORDS];
            if w != 0 {
                return d + w.trailing_zeros() as usize;
            }
            d += 64;
        }
        unreachable!("occupancy bitmap empty with wheel_len > 0")
    }

    /// Makes `cur` non-empty, taking the next occupied bucket. Returns
    /// `false` iff the queue is empty.
    fn refill(&mut self) -> bool {
        if !self.cur.is_empty() {
            return true;
        }
        if self.len == 0 {
            return false;
        }
        if self.wheel_len == 0 {
            // Everything waits beyond the horizon: rebase the window at
            // the earliest far entry instead of spinning the wheel
            // across the gap.
            let lane = self.lane.front().map(|e| e.at_ps);
            let heap = self.overflow.peek().map(|Reverse(e)| e.at_ps);
            let m = lane.into_iter().chain(heap).min().expect("len > 0");
            self.rebase(m);
            self.drain_far();
        }
        let start = (self.frontier_ps / WIDTH_PS) as usize & MASK;
        let d = self.next_occupied(start);
        let bucket_start = self.frontier_ps + d as u64 * WIDTH_PS;
        let bi = (start + d) & MASK;
        // Copy the bucket into the (empty) current run rather than
        // swapping Vecs: a swap would circulate capacities around the
        // wheel, so a small Vec would keep landing on heavy positions
        // and reallocate forever. Leaving each Vec at its position lets
        // every capacity ratchet once to that position's peak load,
        // after which steady-state operation touches the allocator not
        // at all.
        let bucket = &mut self.buckets[bi];
        if bucket.len() == 1 {
            self.cur.push(bucket[0]);
        } else {
            self.cur.extend_from_slice(bucket);
            self.cur.sort_unstable_by_key(|e| Reverse(e.sort_key()));
        }
        bucket.clear();
        self.wheel_len -= self.cur.len();
        self.occ[bi >> 6] &= !(1u64 << (bi & 63));
        self.frontier_ps = bucket_start + WIDTH_PS;
        let h = horizon_of(self.frontier_ps);
        if h != self.horizon_ps {
            self.horizon_ps = h;
            self.drain_far();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut CalendarQueue<u32>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push((e.at_ps, e.key));
        }
        out
    }

    #[test]
    fn pops_in_time_then_key_order() {
        let mut q = CalendarQueue::new();
        q.push(Time::from_ps(50), 1, 0);
        q.push(Time::from_ps(10), 2, 0);
        q.push(Time::from_ps(50), 0, 0);
        q.push(Time::from_ps(10), 3, 0);
        assert_eq!(drain(&mut q), vec![(10, 2), (10, 3), (50, 0), (50, 1)]);
    }

    #[test]
    fn far_future_entries_cross_the_horizon() {
        let mut q = CalendarQueue::new();
        // Spread far beyond one rotation (1024 buckets * 1024 ps ≈ 1 µs).
        let times = [0u64, 1, 1_000, 2_000_000, 5_000_000_000, 3];
        for (k, &t) in times.iter().enumerate() {
            q.push(Time::from_ps(t), k as u64, k as u32);
        }
        let got = drain(&mut q);
        let mut want: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(k, &t)| (t, k as u64))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn interleaved_push_pop_matches_a_heap() {
        // Deterministic pseudo-random workload checked against a plain
        // binary heap oracle.
        let mut q = CalendarQueue::new();
        let mut oracle: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut now = 0u64;
        let mut key = 0u64;
        for step in 0..20_000u64 {
            if step % 3 != 2 {
                // Mix of near (same bucket), mid (wheel) and far
                // (overflow) horizons.
                let delta = match rnd() % 5 {
                    0 => rnd() % 16,
                    1..=3 => rnd() % 100_000,
                    _ => 1_000_000 + rnd() % 10_000_000,
                };
                q.push(Time::from_ps(now + delta), key, key as u32);
                oracle.push(Reverse((now + delta, key)));
                key += 1;
            } else {
                let got = q.pop().map(|e| {
                    assert_eq!(e.ev, e.key as u32, "payload travels with its entry");
                    (e.at_ps, e.key)
                });
                let want = oracle.pop().map(|Reverse(p)| p);
                assert_eq!(got, want);
                if let Some((t, _)) = got {
                    now = t;
                }
            }
        }
        let mut rest = Vec::new();
        while let Some(Reverse(p)) = oracle.pop() {
            rest.push(p);
        }
        assert_eq!(drain(&mut q), rest);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = CalendarQueue::new();
        q.push(Time::from_ps(7), 0, (9, 8));
        q.push(Time::from_ps(3), 1, (1, 2));
        let peeked = *q.peek().unwrap();
        let popped = q.pop().unwrap();
        assert_eq!((popped.at_ps, popped.key, popped.ev), (3, 1, (1, 2)));
        assert_eq!((peeked.at_ps, peeked.key, peeked.ev), (3, 1, (1, 2)));
    }

    /// A calendar queue and a binary-heap oracle fed the same entries.
    struct Checked {
        q: CalendarQueue<u64>,
        oracle: BinaryHeap<Reverse<(u64, u64)>>,
        key: u64,
    }

    impl Checked {
        fn push(&mut self, t: u64) {
            self.q.push(Time::from_ps(t), self.key, self.key);
            self.oracle.push(Reverse((t, self.key)));
            self.key += 1;
        }

        /// Pops one entry from both, checking peek against pop.
        fn pop(&mut self) -> Option<u64> {
            let peeked = self.q.peek().map(|e| (e.at_ps, e.key));
            let got = self.q.pop().map(|e| {
                assert_eq!(e.ev, e.key, "payload travels with its entry");
                (e.at_ps, e.key)
            });
            assert_eq!(peeked, got, "peek disagrees with pop");
            assert_eq!(got, self.oracle.pop().map(|Reverse(p)| p));
            got.map(|(t, _)| t)
        }
    }

    #[test]
    fn far_bursts_and_stragglers_match_a_heap() {
        // Nondecreasing far bursts (the lane), far pushes that precede
        // the burst's tail (the heap), near follow-ups (the wheel), and
        // full drains after which time restarts lower (a rebase).
        let mut c = Checked {
            q: CalendarQueue::new(),
            oracle: BinaryHeap::new(),
            key: 0,
        };
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut now = 0u64;
        for round in 0..8u64 {
            let mut t = now;
            for _ in 0..2_000 {
                t += rnd() % 20_000;
                c.push(t);
            }
            for _ in 0..300 {
                c.push(now + 2_000_000 + rnd() % 15_000_000);
            }
            assert!(c.q.lane.len() > 1_000, "the burst went to the lane");
            assert!(!c.q.overflow.is_empty(), "stragglers went to the heap");
            // Odd rounds drain the queue; even rounds stop halfway.
            let pops = if round % 2 == 1 { usize::MAX } else { 1_200 };
            for _ in 0..pops {
                let Some(at) = c.pop() else { break };
                now = at;
                match rnd() % 8 {
                    0..=3 => c.push(now + rnd() % 5_000),
                    4 => c.push(now + 1_500_000 + rnd() % 3_000_000),
                    _ => {}
                }
            }
            if c.q.is_empty() {
                now = rnd() % 1_000;
            }
        }
        while c.pop().is_some() {}
        assert!(c.oracle.is_empty());
    }

    #[test]
    fn an_in_order_far_burst_leaves_the_heap_unallocated() {
        // `eci_mix`'s shape: 5,000 admissions one FPGA clock apart, all
        // pushed before the first pop, reaching ~16.7 µs past a ~1 µs
        // wheel.
        let mut q = CalendarQueue::new();
        for k in 0..5_000u64 {
            q.push(Time::from_ps(k * 3_333), k, k);
        }
        assert!(q.lane.len() > 4_500, "the burst waits in the lane");
        let mut last = None;
        while let Some(e) = q.pop() {
            assert!(last < Some((e.at_ps, e.key)), "pops out of order");
            last = Some((e.at_ps, e.key));
        }
        assert_eq!(last, Some((4_999 * 3_333, 4_999)));
        assert_eq!(q.overflow.capacity(), 0, "the heap was allocated");
    }

    #[test]
    fn footprint_stays_bounded_under_churn() {
        // Retained capacity must reach a steady state: once one churn
        // phase has primed every tier, replaying it from time zero may
        // not grow the footprint at all. The churn keeps 2,000 entries
        // pending: mostly near (the wheel and the current run), some a
        // few µs ahead in time order (the lane), some before the lane's
        // tail (the heap).
        fn churn(q: &mut CalendarQueue<u64>) {
            for key in 0..2_000u64 {
                q.push(Time::from_ps(1 + key % 50_000), key, key);
            }
            for key in 2_000..200_000u64 {
                let now = q.pop().expect("the churn keeps entries pending").at_ps;
                let at = match key % 16 {
                    0 => now + 4_000_000,
                    1 => now + 2_000_000 + key % 1_000_000,
                    _ => now + 1 + key % 50_000,
                };
                q.push(Time::from_ps(at), key, key);
            }
            while q.pop().is_some() {}
        }
        let mut q = CalendarQueue::new();
        churn(&mut q);
        assert!(q.lane.capacity() > 0 && q.overflow.capacity() > 0);
        let primed = q.footprint();
        churn(&mut q);
        assert_eq!(
            q.footprint(),
            primed,
            "footprint kept growing with lifetime pushes"
        );
    }
}
