//! The explorer's visited set: canonical keys interned back to back in
//! one byte arena, indexed by an open-addressing table.
//!
//! A `HashMap<Vec<u8>, _>` costs one heap allocation and a 24-byte
//! `Vec` header per state, plus SipHash over every key. Here a key
//! costs its own bytes plus a length byte in the arena and ~1.5 table
//! slots of 8 bytes; inserting allocates nothing except amortized
//! growth. A slot points straight at its key's arena entry, so a lookup
//! touches the table and at most one arena line per candidate. Keys are
//! compared byte for byte, so the set is exact — no hash compaction, no
//! false "already visited".
//!
//! The keys are a model's own canonical encodings, never input from
//! outside the program, so the fast Fx hash ([`crate::hash`]) needs no
//! resistance to crafted collisions.

pub(crate) use crate::hash::fx_hash;

/// Smallest table: 2^MIN_BITS slots.
const MIN_BITS: u32 = 10;
/// A slot's low 48 bits hold its entry's arena offset plus one.
const OFFSET_BITS: u32 = 48;
const OFFSET_MASK: u64 = (1 << OFFSET_BITS) - 1;

/// An insert-only set of byte strings.
pub(crate) struct KeySet {
    /// Every key in insertion order, each as a LEB128 length followed
    /// by its bytes.
    arena: Vec<u8>,
    /// Distinct keys inserted.
    len: usize,
    /// Linear-probing table. `0` is empty; otherwise the low 48 bits
    /// hold the entry's arena offset plus one and the high 16 bits the
    /// key hash's low 16 bits, which reject most mismatches without
    /// touching the arena.
    slots: Vec<u64>,
    /// `64 - log2(slots.len())`: the table index is the hash's top
    /// bits, which the Fx multiply mixes best.
    shift: u32,
}

impl KeySet {
    /// An empty set.
    pub(crate) fn new() -> Self {
        KeySet {
            arena: Vec::new(),
            len: 0,
            slots: vec![0; 1 << MIN_BITS],
            shift: 64 - MIN_BITS,
        }
    }

    /// The key stored at arena offset `at`, and the offset just past it.
    fn entry(&self, mut at: usize) -> (&[u8], usize) {
        let mut len = 0usize;
        let mut shift = 0;
        loop {
            let b = self.arena[at];
            at += 1;
            len |= usize::from(b & 0x7F) << shift;
            if b < 0x80 {
                break;
            }
            shift += 7;
        }
        (&self.arena[at..at + len], at + len)
    }

    fn slot(hash: u64, offset: usize) -> u64 {
        (hash << OFFSET_BITS) | (offset as u64 + 1)
    }

    /// Inserts `key` unless it is already present; returns `true` if
    /// it was new.
    ///
    /// # Panics
    ///
    /// Panics if the arena outgrows 2^48 bytes.
    pub(crate) fn insert(&mut self, key: &[u8]) -> bool {
        self.insert_hashed(key, fx_hash(key))
    }

    /// Hints the CPU to load the first table slot a key hashed to
    /// `hash` probes, so a batch of lookups can overlap their cache
    /// misses. Only a hint: a later growth merely wastes it.
    pub(crate) fn prefetch(&self, hash: u64) {
        let i = (hash >> self.shift) as usize;
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `i < self.slots.len()` (the shift keeps the index
        // within the table), and a prefetch never faults or writes.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(self.slots.as_ptr().add(i).cast());
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = i;
    }

    /// [`KeySet::insert`] for a key whose [`fx_hash`] the caller
    /// already computed.
    ///
    /// # Panics
    ///
    /// Panics if the arena outgrows 2^48 bytes.
    pub(crate) fn insert_hashed(&mut self, key: &[u8], hash: u64) -> bool {
        debug_assert_eq!(hash, fx_hash(key), "stale hash");
        let tag = hash << OFFSET_BITS;
        let mask = self.slots.len() - 1;
        let mut i = (hash >> self.shift) as usize;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                break;
            }
            if slot & !OFFSET_MASK == tag && self.entry((slot & OFFSET_MASK) as usize - 1).0 == key
            {
                return false;
            }
            i = (i + 1) & mask;
        }
        let offset = self.arena.len();
        assert!((offset as u64) < OFFSET_MASK, "key arena full");
        let mut n = key.len();
        while n >= 0x80 {
            self.arena.push(n as u8 | 0x80);
            n >>= 7;
        }
        self.arena.push(n as u8);
        self.arena.extend_from_slice(key);
        self.slots[i] = Self::slot(hash, offset);
        self.len += 1;
        // Keep the load factor at or below 3/4.
        if self.len * 4 > self.slots.len() * 3 {
            self.grow();
        }
        true
    }

    /// Doubles the table, re-hashing every key in one sequential pass
    /// over the arena. Keys are hashed and their slots prefetched
    /// [`GROW_BATCH`] at a time before any is placed, so the table's
    /// cache misses overlap.
    fn grow(&mut self) {
        self.slots = vec![0; self.slots.len() * 2];
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        let mut batch = [(0u64, 0usize); GROW_BATCH];
        let mut at = 0;
        while at < self.arena.len() {
            let mut n = 0;
            while n < GROW_BATCH && at < self.arena.len() {
                let (key, next) = self.entry(at);
                let hash = fx_hash(key);
                self.prefetch(hash);
                batch[n] = (hash, at);
                n += 1;
                at = next;
            }
            for &(hash, offset) in &batch[..n] {
                let mut i = (hash >> self.shift) as usize;
                while self.slots[i] != 0 {
                    i = (i + 1) & mask;
                }
                self.slots[i] = Self::slot(hash, offset);
            }
        }
    }
}

/// Keys [`KeySet::grow`] hashes and prefetches ahead of placing them.
const GROW_BATCH: usize = 16;

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::explore::SplitMix64;

    #[test]
    fn agrees_with_a_hash_set_across_growth() {
        let mut rng = SplitMix64::new(11);
        let mut set = KeySet::new();
        let mut reference: HashSet<Vec<u8>> = HashSet::new();
        let mut stale_hashes = 0;
        // Short keys over a tiny alphabet force many repeats and shared
        // prefixes, a few long ones take two-byte length prefixes, and
        // 20k inserts grow the table from 1 Ki slots several times.
        // Keys come in batches of up to 31, as the search inserts one
        // state's successors: every hash is computed and prefetched
        // before the batch's first insert, so growths inside a batch
        // leave hashes that predate them.
        let mut inserted = 0;
        while inserted < 20_000 {
            let batch: Vec<(Vec<u8>, u64)> = (0..rng.next() % 32)
                .map(|_| {
                    let len = match rng.next() % 64 {
                        0 => 128 + (rng.next() % 200) as usize,
                        _ => (rng.next() % 12) as usize,
                    };
                    let key: Vec<u8> = (0..len).map(|_| (rng.next() % 3) as u8).collect();
                    let hash = fx_hash(&key);
                    set.prefetch(hash);
                    (key, hash)
                })
                .collect();
            let slots = set.slots.len();
            for (key, hash) in batch {
                stale_hashes += usize::from(set.slots.len() != slots);
                let fresh = reference.insert(key.clone());
                assert_eq!(set.insert_hashed(&key, hash), fresh, "key {key:?}");
                inserted += 1;
            }
        }
        assert_eq!(set.len, reference.len());
        assert!(set.slots.len() > 1 << MIN_BITS, "the table grew");
        assert!(stale_hashes > 0, "no hash predated a growth");
        for key in &reference {
            assert!(!set.insert(key), "{key:?} must still be present");
        }
    }

    #[test]
    fn empty_and_zero_padded_keys_are_distinct() {
        let mut set = KeySet::new();
        assert!(set.insert(&[]));
        assert!(set.insert(&[0]));
        assert!(set.insert(&[0; 8]));
        assert!(set.insert(&[0; 9]));
        assert!(!set.insert(&[]));
        assert!(!set.insert(&[0; 8]));
        assert_eq!(set.len, 4);
    }

    #[test]
    fn hash_depends_on_every_byte() {
        let base = [7u8; 19];
        for i in 0..base.len() {
            let mut k = base;
            k[i] ^= 1;
            assert_ne!(fx_hash(&k), fx_hash(&base), "byte {i}");
        }
    }
}
