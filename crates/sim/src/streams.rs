//! A priority queue made of a few streams that each receive their items
//! almost always in key order.
//!
//! A binary heap pays `O(log n)` comparisons and scattered memory
//! accesses per push and pop, whatever order its items arrive in. Many
//! of the simulator's queues are fed by a handful of sources whose items
//! come in key order: a fabric port's inbox receives each source board's
//! frames in the order they cross its channel, and a TCP mux schedules
//! each kind of timer from a clock that never moves back.
//! [`SortedStreams`] keeps one sorted `VecDeque` per source and caches
//! which stream holds the least head, so an in-order push is an append
//! and a pop is a `pop_front` plus a scan of the few stream heads. An
//! item that arrives out of order is placed by binary search, so the
//! queue pops exactly what a binary heap over the same keys would.

use std::collections::VecDeque;

/// An item with a totally ordered key. Keys must be unique across a
/// [`SortedStreams`]: the queue's order among equal keys is unspecified.
pub trait Keyed {
    /// The ordering key.
    type Key: Ord;
    /// This item's key.
    fn key(&self) -> Self::Key;
}

/// A priority queue over a fixed number of streams, each kept sorted by
/// [`Keyed::key`]; the least key overall is the least stream head.
#[derive(Debug, Clone)]
pub struct SortedStreams<T> {
    streams: Vec<VecDeque<T>>,
    /// The stream whose head has the least key; `None` when every
    /// stream is empty.
    head: Option<usize>,
}

impl<T: Keyed> SortedStreams<T> {
    /// An empty queue of `streams` streams.
    pub fn new(streams: usize) -> Self {
        SortedStreams {
            streams: (0..streams).map(|_| VecDeque::new()).collect(),
            head: None,
        }
    }

    /// Adds `item` to `stream`: appended when its key is greater than
    /// the stream's last, otherwise placed by binary search.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is out of range.
    pub fn push(&mut self, stream: usize, item: T) {
        let key = item.key();
        let items = &mut self.streams[stream];
        let front = if items.back().is_none_or(|last| last.key() < key) {
            items.push_back(item);
            items.len() == 1
        } else {
            let before = items.partition_point(|held| held.key() < key);
            items.insert(before, item);
            before == 0
        };
        // Keys are unique, so a new stream head that is not less than the
        // least one is greater, or is the least one itself.
        if front && self.peek().is_none_or(|least| key <= least.key()) {
            self.head = Some(stream);
        }
    }

    /// The item with the least key.
    pub fn peek(&self) -> Option<&T> {
        self.head.and_then(|stream| self.streams[stream].front())
    }

    /// Removes the item with the least key, with the stream it was in.
    pub fn pop(&mut self) -> Option<(usize, T)> {
        let stream = self.head?;
        let item = self.streams[stream]
            .pop_front()
            .expect("the head stream is not empty");
        self.head = self
            .streams
            .iter()
            .enumerate()
            .filter_map(|(s, items)| items.front().map(|first| (first.key(), s)))
            .min()
            .map(|(_, s)| s);
        Some((stream, item))
    }

    /// Items held, over every stream.
    pub fn len(&self) -> usize {
        self.streams.iter().map(VecDeque::len).sum()
    }

    /// `true` when no item is held.
    pub fn is_empty(&self) -> bool {
        self.head.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// `(key, stream, tiebreak)`: the tiebreak makes equal keys unique.
    #[derive(Debug, PartialEq, Eq)]
    struct Item(u64, usize, u64);

    impl Keyed for Item {
        type Key = (u64, u64);
        fn key(&self) -> (u64, u64) {
            (self.0, self.2)
        }
    }

    /// Seeded pushes onto five streams, mostly in key order but with
    /// ties and late items on every stream, interleaved with pops: the
    /// streams pop what a binary heap pops and agree on the count.
    #[test]
    fn pops_like_a_binary_heap() {
        for seed in 0..16 {
            let mut rng = SimRng::seed_from(0x5EED_0000 + seed);
            let mut streams = SortedStreams::new(5);
            let mut heap = BinaryHeap::new();
            let mut tails = [0u64; 5];
            let mut late = 0;
            for n in 0..4_000u64 {
                if rng.next_below(3) > 0 {
                    let s = rng.next_below(5) as usize;
                    let key = match rng.next_below(8) {
                        0 => tails[s],
                        1 => tails[s].saturating_sub(rng.next_below(50)),
                        _ => tails[s] + rng.next_below(20),
                    };
                    late += u64::from(key < tails[s]);
                    tails[s] = tails[s].max(key);
                    streams.push(s, Item(key, s, n));
                    heap.push(Reverse((key, n, s)));
                } else {
                    let popped = streams.pop().map(|(s, item)| {
                        assert_eq!(s, item.1, "popped from its own stream");
                        (item.0, item.2, s)
                    });
                    assert_eq!(popped, heap.pop().map(|Reverse(k)| k), "seed {seed}");
                }
                assert_eq!(streams.len(), heap.len());
                assert_eq!(
                    streams.peek().map(|item| (item.0, item.2)),
                    heap.peek().map(|Reverse((key, n, _))| (*key, *n))
                );
            }
            assert!(late > 0, "seed {seed}: no late item");
            while let Some(Reverse((key, n, s))) = heap.pop() {
                assert_eq!(streams.pop(), Some((s, Item(key, s, n))), "seed {seed}");
            }
            assert!(streams.is_empty());
        }
    }
}
