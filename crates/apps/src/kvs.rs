//! A hardware-accelerated key-value store in FPGA DRAM (§6 / KV-Direct).
//!
//! The paper cites KV-Direct \[40\] as a use-case Enzian subsumes: the
//! FPGA terminates the network and serves GET/PUT directly from its own
//! DRAM, with the CPU out of the datapath. This module implements the
//! store itself: a two-choice cuckoo hash table laid out in FPGA memory
//! at one 128-byte cache line per slot group, with all accesses going
//! through the [`MemoryController`] (so both the *data* and the *timing*
//! are real).
//!
//! Entry layout within a 128-byte bucket line (4 slots of 32 bytes):
//!
//! ```text
//! slot := [ key: 8 B | vlen: 1 B | value: 23 B ]   (vlen 0 = empty)
//! ```

use enzian_mem::{Addr, MemoryController, Op};
use enzian_sim::{mix64, Duration, Time};

/// Bytes per slot.
const SLOT_BYTES: usize = 32;
/// Slots per 128-byte bucket line.
const SLOTS_PER_BUCKET: usize = 4;
/// Maximum value length (slot minus key and length byte).
pub const MAX_VALUE_BYTES: usize = SLOT_BYTES - 8 - 1;

/// Static store configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvStoreConfig {
    /// Number of 128-byte buckets (power of two).
    pub buckets: u64,
    /// Base address of the table in FPGA DRAM.
    pub base: Addr,
    /// Maximum cuckoo displacement chain before declaring full.
    pub max_kicks: u32,
    /// FPGA pipeline latency per request (hashing + slot scan).
    pub pipeline: Duration,
}

impl KvStoreConfig {
    /// A 1 Mi-bucket table (4 Mi slots, 128 MiB of DRAM).
    pub fn large() -> Self {
        KvStoreConfig {
            buckets: 1 << 20,
            base: Addr(0),
            max_kicks: 32,
            pipeline: Duration::from_ns(50),
        }
    }

    /// A tiny table for tests.
    pub fn tiny() -> Self {
        KvStoreConfig {
            buckets: 16,
            base: Addr(0),
            max_kicks: 16,
            pipeline: Duration::from_ns(50),
        }
    }
}

/// Errors from store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// The value exceeds [`MAX_VALUE_BYTES`].
    ValueTooLarge {
        /// Offending length.
        len: usize,
    },
    /// Insertion failed after the maximum cuckoo displacement chain.
    TableFull,
    /// Keys of zero are reserved as the empty marker.
    ReservedKey,
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::ValueTooLarge { len } => {
                write!(f, "value of {len} bytes exceeds {MAX_VALUE_BYTES}")
            }
            KvError::TableFull => write!(f, "cuckoo displacement limit reached"),
            KvError::ReservedKey => write!(f, "key 0 is reserved"),
        }
    }
}

impl std::error::Error for KvError {}

/// Operation counters served by a [`KvStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvStats {
    /// GET operations served.
    pub gets: u64,
    /// PUT operations served (successful inserts and overwrites).
    pub puts: u64,
    /// DELETE operations served.
    pub deletes: u64,
    /// Cuckoo displacement steps performed across all PUTs.
    pub kicks: u64,
}

/// A timed operation result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvOutcome<T> {
    /// The functional result.
    pub value: T,
    /// Completion time at the FPGA.
    pub done: Time,
}

/// The store: a cuckoo hash table over an FPGA memory controller.
#[derive(Debug)]
pub struct KvStore {
    config: KvStoreConfig,
    mem: MemoryController,
    entries: u64,
    stats: KvStats,
}

impl KvStore {
    /// Creates an empty store over `mem`.
    ///
    /// # Panics
    ///
    /// Panics unless `buckets` is a power of two ≥ 2.
    pub fn new(config: KvStoreConfig, mem: MemoryController) -> Self {
        assert!(
            config.buckets >= 2 && config.buckets.is_power_of_two(),
            "buckets must be a power of two"
        );
        KvStore {
            config,
            mem,
            entries: 0,
            stats: KvStats::default(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// `true` when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Operation counters served so far.
    pub fn stats(&self) -> KvStats {
        self.stats
    }

    fn bucket_addr(&self, bucket: u64) -> Addr {
        self.config
            .base
            .offset((bucket & (self.config.buckets - 1)) * 128)
    }

    fn buckets_of(&self, key: u64) -> (u64, u64) {
        // The SplitMix64 finaliser, salted per hash function.
        let b1 = mix64(key ^ 0x9E37_79B9_7F4A_7C15);
        let mut b2 = mix64(key ^ 0xC2B2_AE3D_27D4_EB4F);
        if (b1 & (self.config.buckets - 1)) == (b2 & (self.config.buckets - 1)) {
            b2 = b2.wrapping_add(1);
        }
        (b1, b2)
    }

    fn read_bucket(&mut self, now: Time, bucket: u64) -> ([u8; 128], Time) {
        let addr = self.bucket_addr(bucket);
        let done = self.mem.request(now, addr, 128, Op::Read);
        (self.mem.store().read_line(addr), done)
    }

    fn write_bucket(&mut self, now: Time, bucket: u64, line: &[u8; 128]) -> Time {
        let addr = self.bucket_addr(bucket);
        self.mem.store_mut().write_line(addr, line);
        self.mem.request(now, addr, 128, Op::Write)
    }

    fn slot_key(line: &[u8; 128], slot: usize) -> u64 {
        let off = slot * SLOT_BYTES;
        u64::from_le_bytes(line[off..off + 8].try_into().expect("8 bytes"))
    }

    fn slot_value(line: &[u8; 128], slot: usize) -> Option<Vec<u8>> {
        let off = slot * SLOT_BYTES;
        let vlen = line[off + 8] as usize;
        if vlen == 0 {
            return None;
        }
        Some(line[off + 9..off + 9 + vlen].to_vec())
    }

    fn set_slot(line: &mut [u8; 128], slot: usize, key: u64, value: &[u8]) {
        let off = slot * SLOT_BYTES;
        line[off..off + 8].copy_from_slice(&key.to_le_bytes());
        line[off + 8] = value.len() as u8;
        line[off + 9..off + SLOT_BYTES].fill(0);
        line[off + 9..off + 9 + value.len()].copy_from_slice(value);
    }

    fn clear_slot(line: &mut [u8; 128], slot: usize) {
        let off = slot * SLOT_BYTES;
        line[off..off + SLOT_BYTES].fill(0);
    }

    /// Looks `key` up; both candidate buckets are probed (in parallel on
    /// the hardware; we charge both DRAM reads).
    pub fn get(&mut self, now: Time, key: u64) -> KvOutcome<Option<Vec<u8>>> {
        self.stats.gets += 1;
        let t0 = now + self.config.pipeline;
        let (b1, b2) = self.buckets_of(key);
        let (l1, d1) = self.read_bucket(t0, b1);
        let (l2, d2) = self.read_bucket(t0, b2);
        let done = d1.max(d2);
        for line in [&l1, &l2] {
            for slot in 0..SLOTS_PER_BUCKET {
                if Self::slot_key(line, slot) == key {
                    if let Some(v) = Self::slot_value(line, slot) {
                        return KvOutcome {
                            value: Some(v),
                            done,
                        };
                    }
                }
            }
        }
        KvOutcome { value: None, done }
    }

    /// Inserts or overwrites `key`. Displaces entries cuckoo-style when
    /// both buckets are full.
    ///
    /// # Errors
    ///
    /// Fails on oversized values, the reserved key 0, or when the
    /// displacement chain exceeds the configured limit.
    pub fn put(&mut self, now: Time, key: u64, value: &[u8]) -> Result<KvOutcome<()>, KvError> {
        if value.len() > MAX_VALUE_BYTES {
            return Err(KvError::ValueTooLarge { len: value.len() });
        }
        if key == 0 {
            return Err(KvError::ReservedKey);
        }
        self.stats.puts += 1;
        let mut t = now + self.config.pipeline;

        // Overwrite or free-slot fast path over both buckets.
        let (b1, b2) = self.buckets_of(key);
        for bucket in [b1, b2] {
            let (mut line, d) = self.read_bucket(t, bucket);
            t = d;
            // First a matching key, then any empty slot.
            let mut target = None;
            for slot in 0..SLOTS_PER_BUCKET {
                if Self::slot_key(&line, slot) == key && line[slot * SLOT_BYTES + 8] != 0 {
                    target = Some((slot, false));
                    break;
                }
            }
            if target.is_none() {
                for slot in 0..SLOTS_PER_BUCKET {
                    if line[slot * SLOT_BYTES + 8] == 0 {
                        target = Some((slot, true));
                        break;
                    }
                }
            }
            if let Some((slot, fresh)) = target {
                Self::set_slot(&mut line, slot, key, value);
                let done = self.write_bucket(t, bucket, &line);
                if fresh {
                    self.entries += 1;
                }
                return Ok(KvOutcome { value: (), done });
            }
        }

        // Cuckoo path: displace a victim from the first bucket.
        let mut key = key;
        let mut value = value.to_vec();
        let mut bucket = b1;
        for kick in 0..self.config.max_kicks {
            let (mut line, d) = self.read_bucket(t, bucket);
            t = d;
            // Evict the slot indexed by the kick counter (deterministic).
            let victim = (kick as usize) % SLOTS_PER_BUCKET;
            let v_key = Self::slot_key(&line, victim);
            let v_val = Self::slot_value(&line, victim).unwrap_or_default();
            Self::set_slot(&mut line, victim, key, &value);
            t = self.write_bucket(t, bucket, &line);
            self.stats.kicks += 1;

            // Re-home the victim in its alternate bucket.
            let (vb1, vb2) = self.buckets_of(v_key);
            let v_alt = if (vb1 & (self.config.buckets - 1)) == (bucket & (self.config.buckets - 1))
            {
                vb2
            } else {
                vb1
            };
            let (mut alt, d) = self.read_bucket(t, v_alt);
            t = d;
            for slot in 0..SLOTS_PER_BUCKET {
                if alt[slot * SLOT_BYTES + 8] == 0 {
                    Self::set_slot(&mut alt, slot, v_key, &v_val);
                    let done = self.write_bucket(t, v_alt, &alt);
                    self.entries += 1;
                    return Ok(KvOutcome { value: (), done });
                }
            }
            // Alternate bucket also full: continue displacing from there.
            key = v_key;
            value = v_val;
            bucket = v_alt;
        }
        Err(KvError::TableFull)
    }

    /// Deletes `key`; returns whether it was present.
    pub fn delete(&mut self, now: Time, key: u64) -> KvOutcome<bool> {
        self.stats.deletes += 1;
        let t0 = now + self.config.pipeline;
        let (b1, b2) = self.buckets_of(key);
        let mut t = t0;
        for bucket in [b1, b2] {
            let (mut line, d) = self.read_bucket(t, bucket);
            t = d;
            for slot in 0..SLOTS_PER_BUCKET {
                if Self::slot_key(&line, slot) == key && line[slot * SLOT_BYTES + 8] != 0 {
                    Self::clear_slot(&mut line, slot);
                    let done = self.write_bucket(t, bucket, &line);
                    self.entries -= 1;
                    return KvOutcome { value: true, done };
                }
            }
        }
        KvOutcome {
            value: false,
            done: t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enzian_mem::MemoryControllerConfig;
    use enzian_sim::SimRng;

    fn store(cfg: KvStoreConfig) -> KvStore {
        KvStore::new(
            cfg,
            MemoryController::new(MemoryControllerConfig::enzian_fpga()),
        )
    }

    #[test]
    fn put_get_roundtrip() {
        let mut kv = store(KvStoreConfig::tiny());
        let r = kv.put(Time::ZERO, 42, b"hello-enzian").unwrap();
        let g = kv.get(r.done, 42);
        assert_eq!(g.value.as_deref(), Some(&b"hello-enzian"[..]));
        assert_eq!(kv.len(), 1);
        assert!(g.done > r.done, "get consumed DRAM time");
    }

    #[test]
    fn missing_key_returns_none() {
        let mut kv = store(KvStoreConfig::tiny());
        assert_eq!(kv.get(Time::ZERO, 7).value, None);
    }

    #[test]
    fn overwrite_replaces_value_without_growing() {
        let mut kv = store(KvStoreConfig::tiny());
        kv.put(Time::ZERO, 5, b"one").unwrap();
        kv.put(Time::ZERO, 5, b"two").unwrap();
        assert_eq!(kv.len(), 1);
        assert_eq!(kv.get(Time::ZERO, 5).value.as_deref(), Some(&b"two"[..]));
    }

    #[test]
    fn delete_removes_and_reports() {
        let mut kv = store(KvStoreConfig::tiny());
        kv.put(Time::ZERO, 9, b"x").unwrap();
        assert!(kv.delete(Time::ZERO, 9).value);
        assert!(!kv.delete(Time::ZERO, 9).value);
        assert_eq!(kv.get(Time::ZERO, 9).value, None);
        assert!(kv.is_empty());
    }

    #[test]
    fn stats_name_every_op_class() {
        let mut kv = store(KvStoreConfig::tiny());
        kv.put(Time::ZERO, 3, b"v").unwrap();
        kv.get(Time::ZERO, 3);
        kv.get(Time::ZERO, 4);
        kv.delete(Time::ZERO, 3);
        assert_eq!(
            kv.stats(),
            KvStats {
                gets: 2,
                puts: 1,
                deletes: 1,
                kicks: 0,
            }
        );
    }

    #[test]
    fn validation_errors() {
        let mut kv = store(KvStoreConfig::tiny());
        assert_eq!(
            kv.put(Time::ZERO, 1, &[0u8; MAX_VALUE_BYTES + 1]),
            Err(KvError::ValueTooLarge {
                len: MAX_VALUE_BYTES + 1
            })
        );
        assert_eq!(kv.put(Time::ZERO, 0, b"x"), Err(KvError::ReservedKey));
    }

    #[test]
    fn thousands_of_keys_survive_cuckoo_displacement() {
        let mut kv = store(KvStoreConfig {
            buckets: 1 << 12,
            ..KvStoreConfig::tiny()
        });
        // Fill to ~60% of 16k slots.
        let n = 10_000u64;
        let mut t = Time::ZERO;
        for i in 1..=n {
            let v = i.to_le_bytes();
            t = kv.put(t, i, &v).expect("insert").done;
        }
        assert_eq!(kv.len(), n);
        let stats = kv.stats();
        assert!(stats.kicks > 0, "no cuckoo displacements at 60% load");
        assert_eq!(stats.puts, n);
        // Every key reads back its own value.
        for i in 1..=n {
            let got = kv.get(t, i).value.expect("present");
            assert_eq!(got, i.to_le_bytes());
        }
    }

    #[test]
    fn table_full_is_detected_not_looped() {
        let mut kv = store(KvStoreConfig {
            buckets: 2,
            max_kicks: 8,
            ..KvStoreConfig::tiny()
        });
        // 2 buckets x 4 slots = 8 slots; the 9th insert must fail.
        let mut inserted = 0;
        let mut full = false;
        for i in 1..=32u64 {
            match kv.put(Time::ZERO, i, b"v") {
                Ok(_) => inserted += 1,
                Err(KvError::TableFull) => {
                    full = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(full, "table never reported full");
        assert!(inserted <= 8);
        assert_eq!(kv.len(), inserted);
    }

    #[test]
    fn random_workload_matches_reference_map() {
        let mut kv = store(KvStoreConfig {
            buckets: 1 << 10,
            ..KvStoreConfig::tiny()
        });
        let mut reference = std::collections::HashMap::new();
        let mut rng = SimRng::seed_from(99);
        let mut t = Time::ZERO;
        for _ in 0..5_000 {
            let key = rng.range(1, 500);
            match rng.next_below(3) {
                0 => {
                    let mut v = vec![0u8; rng.range(1, 23) as usize];
                    rng.fill_bytes(&mut v);
                    t = kv.put(t, key, &v).expect("put").done;
                    reference.insert(key, v);
                }
                1 => {
                    let out = kv.delete(t, key);
                    t = out.done;
                    assert_eq!(out.value, reference.remove(&key).is_some());
                }
                _ => {
                    let out = kv.get(t, key);
                    t = out.done;
                    assert_eq!(out.value.as_ref(), reference.get(&key));
                }
            }
        }
        assert_eq!(kv.len() as usize, reference.len());
    }

    #[test]
    fn get_latency_is_two_parallel_dram_reads() {
        let mut kv = store(KvStoreConfig::large());
        kv.put(Time::ZERO, 77, b"payload").unwrap();
        let t0 = Time::ZERO + Duration::from_us(10);
        let out = kv.get(t0, 77);
        let lat = out.done.since(t0);
        // Pipeline (50 ns) + one row-miss DRAM access (~30-60 ns): well
        // under a microsecond, far beyond a CPU-mediated path.
        assert!(
            lat < Duration::from_ns(500),
            "GET latency {lat} implausibly high"
        );
    }
}
