//! The Fx hash: one fast, non-keyed hash for simulator-internal keys.
//!
//! Every key hashed here is produced by the simulator itself (line and
//! page addresses, transaction ids, a model's canonical state bytes),
//! never input from outside the program, so the hash needs no
//! resistance to crafted collisions and `std`'s keyed SipHash is pure
//! cost. The rule for the whole tree: a map keyed by simulator integers
//! uses [`FxHashMap`], not the `std` default.
//!
//! The mixing step is rustc's `FxHasher`: rotate, xor in a word,
//! multiply by an odd 64-bit constant. A multiply only carries low bits
//! upwards, so a line-aligned key (a multiple of 128) would leave the
//! low seven bits of the product zero, and `std`'s `HashMap` picks
//! buckets with the low bits. [`FxHasher::finish`] therefore rotates the
//! well-mixed high bits down into the low ones.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of the Fx hash (rustc's `FxHasher`).
const FX: u64 = 0x517c_c1b7_2722_0a95;

/// Word-at-a-time Fx hash of `key`, seeded with its length so keys
/// that differ only by trailing zero bytes hash apart.
pub(crate) fn fx_hash(key: &[u8]) -> u64 {
    let mix = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(FX);
    let mut h = key.len() as u64;
    let mut words = key.chunks_exact(8);
    for w in &mut words {
        h = mix(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut w = [0u8; 8];
        w[..tail.len()].copy_from_slice(tail);
        h = mix(h, u64::from_le_bytes(w));
    }
    h
}

/// A [`Hasher`] for simulator-internal keys; see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The state with its high bits rotated into the low bits that pick
    /// a bucket.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// A `HashMap` keyed by simulator-internal values.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// Largest bucket when `keys` are spread over 1,024 buckets by the
    /// low hash bits, as `std`'s `HashMap` indexes a 1,024-slot table.
    fn max_bucket_load(keys: impl Iterator<Item = u64>) -> usize {
        let mut buckets = [0usize; 1024];
        for k in keys {
            buckets[(FxBuildHasher::default().hash_one(k) & 1023) as usize] += 1;
        }
        buckets.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn aligned_keys_spread_over_the_low_bits() {
        // 4,096 keys over 1,024 buckets average four per bucket. Without
        // the finalising rotate, every line-aligned key lands in one of
        // eight buckets (512 each) and every 64 KiB-aligned key in one.
        for (what, stride) in [
            ("line", 128u64),
            ("4 KiB page", 4 << 10),
            ("64 KiB page", 64 << 10),
        ] {
            let load = max_bucket_load((0..4096u64).map(|i| i * stride));
            assert!(load <= 12, "{what}-aligned keys: max bucket load {load}");
        }
        // Line and page numbers (CacheLine, Store page indices) too.
        assert!(max_bucket_load(0..4096u64) <= 12);
    }
}
