//! The explorer's visited set: canonical keys interned back to back in
//! arena blocks that are never reallocated, indexed by an
//! open-addressing table.
//!
//! A `HashMap<Vec<u8>, _>` costs one heap allocation and a 24-byte
//! `Vec` header per state, plus SipHash over every key. Here a key
//! costs its own bytes plus a length byte in the arena and ~1.5 table
//! slots of 8 bytes; inserting allocates nothing except a new block or
//! a table growth. A slot points straight at its key's arena entry, so
//! a lookup touches the table and at most one arena line per
//! candidate. Keys are compared byte for byte, so the set is exact — no
//! hash compaction, no false "already visited".
//!
//! The arena is a list of blocks, and a key never straddles two of
//! them: a key that does not fit in the last block's tail starts a new
//! block. A block is never reallocated, so the arena grows without
//! copying and never holds an old and a new buffer at once, as a
//! doubling `Vec` does while it copies. The first block holds 4 KiB and
//! each next one twice the last, up to 64 KiB, so a small search
//! allocates little.
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
/// An arena block holds at most 2^BLOCK_BITS bytes (64 KiB: below the
/// allocator's mmap threshold, so freed blocks are reused by the next
/// search in the process).
const BLOCK_BITS: u32 = 16;
/// The first arena block holds 2^FIRST_BLOCK_BITS bytes, or
/// 2^BLOCK_BITS if that is less.
const FIRST_BLOCK_BITS: u32 = 12;

/// Appends `n` as LEB128.
pub(crate) fn push_len(out: &mut Vec<u8>, mut n: usize) {
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

/// Bytes [`push_len`] writes for `n`.
pub(crate) fn len_of_len(n: usize) -> usize {
    (usize::BITS - (n | 1).leading_zeros()).div_ceil(7) as usize
}

/// The byte string stored at `at` in `buf` as a LEB128 length plus
/// its bytes, and the offset just past it.
pub(crate) fn read_entry(buf: &[u8], mut at: usize) -> (&[u8], usize) {
    let mut len = 0usize;
    let mut shift = 0;
    loop {
        let b = buf[at];
        at += 1;
        len |= usize::from(b & 0x7F) << shift;
        if b < 0x80 {
            break;
        }
        shift += 7;
    }
    (&buf[at..at + len], at + len)
}

/// An insert-only set of byte strings.
pub(crate) struct KeySet {
    /// Every key in insertion order, each as a LEB128 length followed
    /// by its bytes. Each block is allocated with the capacity
    /// [`KeySet::block_capacity`] gives it and never grows past it.
    blocks: Vec<Vec<u8>>,
    /// log2 of the largest block's capacity.
    block_bits: u32,
    /// Distinct keys inserted.
    len: usize,
    /// Linear-probing table. `0` is empty; otherwise the low 48 bits
    /// hold the entry's arena offset plus one and the high 16 bits the
    /// key hash's low 16 bits, which reject most mismatches without
    /// touching the arena. An arena offset is the block index shifted
    /// left by `block_bits`, plus the offset within the block.
    slots: Vec<u64>,
    /// `64 - log2(slots.len())`: the table index is the hash's top
    /// bits, which the Fx multiply mixes best.
    shift: u32,
}

impl KeySet {
    /// An empty set.
    pub(crate) fn new() -> Self {
        Self::with_block_bits(BLOCK_BITS)
    }

    /// An empty set whose arena blocks hold at most `1 << block_bits`
    /// bytes.
    fn with_block_bits(block_bits: u32) -> Self {
        KeySet {
            blocks: Vec::new(),
            block_bits,
            len: 0,
            slots: vec![0; 1 << MIN_BITS],
            shift: 64 - MIN_BITS,
        }
    }

    /// The key stored at arena offset `at`.
    fn entry(&self, at: usize) -> &[u8] {
        let block = &self.blocks[at >> self.block_bits];
        read_entry(block, at & ((1 << self.block_bits) - 1)).0
    }

    fn slot(hash: u64, offset: usize) -> u64 {
        (hash << OFFSET_BITS) | (offset as u64 + 1)
    }

    /// Inserts `key` unless it is already present; returns `true` if
    /// it was new.
    ///
    /// # Panics
    ///
    /// Panics if the arena outgrows 2^48 bytes or the key does not fit
    /// in one arena block.
    pub(crate) fn insert(&mut self, key: &[u8]) -> bool {
        self.insert_hashed(key, fx_hash(key))
    }

    /// Hints the CPU to load the first table slot a key hashed to
    /// `hash` probes, so a batch of lookups can overlap their cache
    /// misses. Only a hint: a later growth merely wastes it.
    pub(crate) fn prefetch(&self, hash: u64) {
        prefetch_slot(&self.slots, (hash >> self.shift) as usize);
    }

    /// [`KeySet::insert`] for a key whose [`fx_hash`] the caller
    /// already computed.
    ///
    /// # Panics
    ///
    /// Panics if the arena outgrows 2^48 bytes or the key does not fit
    /// in one arena block.
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
            if slot & !OFFSET_MASK == tag && self.entry((slot & OFFSET_MASK) as usize - 1) == key {
                return false;
            }
            i = (i + 1) & mask;
        }
        let offset = self.append(key);
        self.slots[i] = Self::slot(hash, offset);
        self.len += 1;
        // Keep the load factor at or below 3/4.
        if self.len * 4 > self.slots.len() * 3 {
            self.grow();
        }
        true
    }

    /// The capacity of block `index`: doubling from the first block's
    /// up to `1 << block_bits`.
    fn block_capacity(&self, index: usize) -> usize {
        1 << self
            .block_bits
            .min(FIRST_BLOCK_BITS.saturating_add(index as u32))
    }

    /// Appends `key`'s entry to the arena, opening a block when the
    /// last one cannot hold it whole; returns the entry's offset.
    fn append(&mut self, key: &[u8]) -> usize {
        let need = len_of_len(key.len()) + key.len();
        let fits = |index: usize, used: usize| used + need <= self.block_capacity(index);
        let last = self.blocks.len().checked_sub(1);
        if last.is_none_or(|index| !fits(index, self.blocks[index].len())) {
            let capacity = self.block_capacity(self.blocks.len());
            assert!(
                fits(self.blocks.len(), 0),
                "a {}-byte key exceeds an arena block",
                key.len()
            );
            self.blocks.push(Vec::with_capacity(capacity));
        }
        let index = self.blocks.len() - 1;
        let offset = (index << self.block_bits) | self.blocks[index].len();
        assert!((offset as u64) < OFFSET_MASK, "key arena full");
        let block = &mut self.blocks[index];
        let capacity = block.capacity();
        push_len(block, key.len());
        block.extend_from_slice(key);
        debug_assert_eq!(block.capacity(), capacity, "an arena block moved");
        offset
    }

    /// Doubles the table, re-hashing every key in one sequential pass
    /// over the arena blocks. Keys are hashed and their slots
    /// prefetched [`GROW_BATCH`] at a time before any is placed, so the
    /// table's cache misses overlap.
    fn grow(&mut self) {
        self.slots = vec![0; self.slots.len() * 2];
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        let mut batch = [(0u64, 0usize); GROW_BATCH];
        let mut n = 0;
        for (index, block) in self.blocks.iter().enumerate() {
            let mut at = 0;
            while at < block.len() {
                let (key, next) = read_entry(block, at);
                let hash = fx_hash(key);
                prefetch_slot(&self.slots, (hash >> self.shift) as usize);
                batch[n] = (hash, (index << self.block_bits) | at);
                n += 1;
                at = next;
                if n == GROW_BATCH {
                    Self::place(&mut self.slots, self.shift, mask, &batch);
                    n = 0;
                }
            }
        }
        Self::place(&mut self.slots, self.shift, mask, &batch[..n]);
    }

    /// Puts each `(hash, offset)` of `batch` into its first free slot.
    fn place(slots: &mut [u64], shift: u32, mask: usize, batch: &[(u64, usize)]) {
        for &(hash, offset) in batch {
            let mut i = (hash >> shift) as usize;
            while slots[i] != 0 {
                i = (i + 1) & mask;
            }
            slots[i] = Self::slot(hash, offset);
        }
    }
}

/// Hints the CPU to load `slots[i]`, where `i` is a hash shifted right
/// by the table's `shift`.
fn prefetch_slot(slots: &[u64], i: usize) {
    debug_assert!(i < slots.len());
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `i < slots.len()` (the shift keeps the index within the
    // table), and a prefetch never faults or writes.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(slots.as_ptr().add(i).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (slots, i);
}

/// Keys [`KeySet::grow`] hashes and prefetches ahead of placing them.
const GROW_BATCH: usize = 16;

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::explore::SplitMix64;

    /// Inserts 20k random keys into a set whose blocks hold at most
    /// `2^block_bits` bytes and checks every answer against a
    /// `HashSet`.
    fn agrees_with_a_hash_set(block_bits: u32) {
        let mut rng = SplitMix64::new(11);
        let mut set = KeySet::with_block_bits(block_bits);
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
        for (index, block) in set.blocks.iter().enumerate() {
            assert_eq!(
                block.capacity(),
                set.block_capacity(index),
                "a block was reallocated"
            );
        }
    }

    #[test]
    fn agrees_with_a_hash_set_across_growth() {
        agrees_with_a_hash_set(BLOCK_BITS);
    }

    #[test]
    fn small_blocks_agree_with_a_hash_set_across_growth() {
        // 512-byte blocks: the 20k keys fill hundreds of them, so every
        // growth rehashes entries from many blocks.
        agrees_with_a_hash_set(9);
    }

    #[test]
    fn keys_never_straddle_a_block() {
        let mut set = KeySet::with_block_bits(8);
        let key = |len: usize, fill: u8| vec![fill; len];
        // 1 + 100 and 2 + 153 bytes: the second key ends exactly at the
        // end of the first 256-byte block.
        assert!(set.insert(&key(100, 1)));
        assert!(set.insert(&key(153, 2)));
        assert_eq!(set.blocks.len(), 1);
        assert_eq!(set.blocks[0].len(), 256, "the block is exactly full");
        // The next key opens a block; a 250-byte key (252 with its
        // length) would straddle that block's end, so it opens a third.
        assert!(set.insert(&key(10, 3)));
        assert!(set.insert(&key(250, 4)));
        assert_eq!(set.blocks.len(), 3);
        assert_eq!(set.blocks[1].len(), 11, "the straddling key moved on");
        assert_eq!(set.blocks[2].len(), 252);
        // A key that fits a block whole, length prefix included.
        assert!(set.insert(&key(254, 5)));
        assert_eq!(set.blocks.len(), 4);
        assert_eq!(set.blocks[3].len(), 256);
        for (len, fill) in [(100, 1), (153, 2), (10, 3), (250, 4), (254, 5)] {
            assert!(!set.insert(&key(len, fill)), "{len}-byte key lost");
            assert!(set.insert(&key(len, fill + 10)), "{len}-byte key collided");
        }
        assert!(set.insert(&[]), "the empty key is a key too");
        assert!(!set.insert(&[]));
    }

    #[test]
    #[should_panic(expected = "exceeds an arena block")]
    fn a_key_longer_than_a_block_is_rejected() {
        // 255 bytes plus a two-byte length do not fit 256 bytes.
        KeySet::with_block_bits(8).insert(&[0; 255]);
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
