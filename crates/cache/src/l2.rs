//! Set-associative L2 cache model.
//!
//! Models the ThunderX-1's shared 16 MiB, 16-way, 128-byte-line L2: the
//! cache that terminates ECI on the CPU side. It tracks MOESI states per
//! line, implements LRU replacement with dirty write-back, and services
//! coherence probes from the remote node (the FPGA's home/remote agents in
//! `enzian-eci` call [`L2Cache::probe`]).

use enzian_mem::CacheLine;

use crate::moesi::{LineEvent, LineState};

/// Static cache geometry.
///
/// Like every public config struct in the workspace, the type is
/// `#[non_exhaustive]`: start from a named preset (here
/// [`L2Config::thunderx1`], the hardware the paper ships) and adjust
/// fields with the `with_*` setters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct L2Config {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes (128 on ThunderX-1).
    pub line_bytes: u64,
}

impl L2Config {
    /// The ThunderX-1 L2: 16 MiB, 16-way, 128-byte lines.
    pub fn thunderx1() -> Self {
        L2Config {
            capacity_bytes: 16 << 20,
            ways: 16,
            line_bytes: 128,
        }
    }

    /// Returns the config with `capacity_bytes` replaced.
    pub fn with_capacity_bytes(mut self, capacity_bytes: u64) -> Self {
        self.capacity_bytes = capacity_bytes;
        self
    }

    /// Returns the config with `ways` replaced.
    pub fn with_ways(mut self, ways: usize) -> Self {
        self.ways = ways;
        self
    }

    /// Returns the config with `line_bytes` replaced.
    pub fn with_line_bytes(mut self, line_bytes: u64) -> Self {
        self.line_bytes = line_bytes;
        self
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes or capacity not a
    /// multiple of `ways * line_bytes`).
    pub fn sets(&self) -> usize {
        assert!(self.capacity_bytes > 0 && self.ways > 0 && self.line_bytes > 0);
        let set_bytes = self.ways as u64 * self.line_bytes;
        assert!(
            self.capacity_bytes.is_multiple_of(set_bytes),
            "capacity must be a whole number of sets"
        );
        (self.capacity_bytes / set_bytes) as usize
    }
}

/// What happened on a local access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The access hit in the cache; no external action needed.
    Hit,
    /// Hit on a read-only copy that a write upgraded; the coherence layer
    /// must invalidate other sharers.
    UpgradeMiss,
    /// Line absent; the coherence layer must fetch it. Carries the victim
    /// eviction, if filling will displace a line.
    Miss(Option<Eviction>),
}

/// A line displaced by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Which line was displaced.
    pub line: CacheLine,
    /// Its state at displacement; dirty states must be written back.
    pub state: LineState,
}

/// Outcome of a coherence probe from the other node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// The line was not present.
    Miss,
    /// The line was present; reports the state before the probe and
    /// whether the cache must supply (dirty) data.
    Hit {
        /// State before the probe was applied.
        was: LineState,
        /// The cache supplies data (it was the owner of a dirty line).
        supplies_data: bool,
    },
}

#[derive(Debug, Clone, Copy)]
struct Way {
    line: CacheLine,
    state: LineState,
    lru: u64,
}

/// The L2 cache model.
///
/// # Example
///
/// ```
/// use enzian_cache::{L2Cache, L2Config, AccessOutcome, LineState};
/// use enzian_mem::CacheLine;
///
/// let mut l2 = L2Cache::new(L2Config::thunderx1());
/// let line = CacheLine(42);
/// assert!(matches!(l2.read(line), AccessOutcome::Miss(None)));
/// l2.fill(line, LineState::Exclusive);
/// assert!(matches!(l2.read(line), AccessOutcome::Hit));
/// ```
#[derive(Debug)]
pub struct L2Cache {
    config: L2Config,
    sets: Vec<Vec<Way>>,
    /// Resident lines (fills minus evictions and invalidating probes).
    resident: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    upgrades: u64,
    evictions: u64,
    writebacks: u64,
}

impl L2Cache {
    /// Creates an empty cache.
    pub fn new(config: L2Config) -> Self {
        let sets = config.sets();
        L2Cache {
            config,
            sets: vec![Vec::new(); sets],
            resident: 0,
            clock: 0,
            hits: 0,
            misses: 0,
            upgrades: 0,
            evictions: 0,
            writebacks: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &L2Config {
        &self.config
    }

    fn set_of(&self, line: CacheLine) -> usize {
        (line.0 % self.sets.len() as u64) as usize
    }

    fn touch(clock: &mut u64, way: &mut Way) {
        *clock += 1;
        way.lru = *clock;
    }

    /// The current state of `line`, `Invalid` when absent.
    pub fn state_of(&self, line: CacheLine) -> LineState {
        let set = self.set_of(line);
        self.sets[set]
            .iter()
            .find(|w| w.line == line)
            .map_or(LineState::Invalid, |w| w.state)
    }

    /// Local read access.
    pub fn read(&mut self, line: CacheLine) -> AccessOutcome {
        let set = self.set_of(line);
        let clock = &mut self.clock;
        if let Some(way) = self.sets[set].iter_mut().find(|w| w.line == line) {
            Self::touch(clock, way);
            self.hits += 1;
            return AccessOutcome::Hit;
        }
        self.misses += 1;
        AccessOutcome::Miss(self.victim_for(set))
    }

    /// Local write access. Writable states hit; `Shared`/`Owned` upgrade;
    /// absent lines miss.
    pub fn write(&mut self, line: CacheLine) -> AccessOutcome {
        let set = self.set_of(line);
        let clock = &mut self.clock;
        if let Some(way) = self.sets[set].iter_mut().find(|w| w.line == line) {
            Self::touch(clock, way);
            if way.state.is_writable() {
                way.state = LineState::Modified;
                self.hits += 1;
                return AccessOutcome::Hit;
            }
            way.state = LineState::Modified;
            self.upgrades += 1;
            return AccessOutcome::UpgradeMiss;
        }
        self.misses += 1;
        AccessOutcome::Miss(self.victim_for(set))
    }

    fn victim_for(&self, set: usize) -> Option<Eviction> {
        if self.sets[set].len() < self.config.ways {
            return None;
        }
        let victim = self.sets[set]
            .iter()
            .min_by_key(|w| w.lru)
            .expect("full set has a victim");
        Some(Eviction {
            line: victim.line,
            state: victim.state,
        })
    }

    /// Installs `line` in `state` after a miss, evicting the LRU way when
    /// the set is full. Returns the eviction performed, if any.
    ///
    /// # Panics
    ///
    /// Panics if the line is already resident (fills must follow misses)
    /// or `state` is `Invalid`.
    pub fn fill(&mut self, line: CacheLine, state: LineState) -> Option<Eviction> {
        assert!(state != LineState::Invalid, "cannot fill Invalid");
        let set = self.set_of(line);
        assert!(
            !self.sets[set].iter().any(|w| w.line == line),
            "fill of already-resident {line}"
        );
        let mut evicted = None;
        if self.sets[set].len() >= self.config.ways {
            let (idx, _) = self.sets[set]
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.lru)
                .expect("full set has a victim");
            let w = self.sets[set].swap_remove(idx);
            self.resident -= 1;
            self.evictions += 1;
            if w.state.is_dirty() {
                self.writebacks += 1;
            }
            evicted = Some(Eviction {
                line: w.line,
                state: w.state,
            });
        }
        self.clock += 1;
        self.sets[set].push(Way {
            line,
            state,
            lru: self.clock,
        });
        self.resident += 1;
        evicted
    }

    /// Applies a coherence probe from the remote node: `for_write` probes
    /// invalidate; read probes downgrade to `Shared`/`Owned`.
    pub fn probe(&mut self, line: CacheLine, for_write: bool) -> ProbeOutcome {
        let set = self.set_of(line);
        let Some(idx) = self.sets[set].iter().position(|w| w.line == line) else {
            return ProbeOutcome::Miss;
        };
        let was = self.sets[set][idx].state;
        let supplies_data = was.is_dirty() || (for_write && was.is_owner());
        let event = if for_write {
            LineEvent::RemoteWrite
        } else {
            LineEvent::RemoteRead
        };
        match was.after(event) {
            Some(LineState::Invalid) | None => {
                self.sets[set].swap_remove(idx);
                self.resident -= 1;
            }
            Some(next) => self.sets[set][idx].state = next,
        }
        ProbeOutcome::Hit { was, supplies_data }
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.resident
    }

    /// `(hits, misses, upgrades, evictions, writebacks)` so far.
    pub fn stats(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.hits,
            self.misses,
            self.upgrades,
            self.evictions,
            self.writebacks,
        )
    }

    /// Hit rate over all accesses; `None` before any access.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses + self.upgrades;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }
}

/// Publishes the cache's counters.
impl enzian_sim::Instrumented for L2Cache {
    fn export_metrics(&self, prefix: &str, registry: &mut enzian_sim::MetricsRegistry) {
        registry.counter_set(&format!("{prefix}.hits"), self.hits);
        registry.counter_set(&format!("{prefix}.misses"), self.misses);
        registry.counter_set(&format!("{prefix}.upgrades"), self.upgrades);
        registry.counter_set(&format!("{prefix}.evictions"), self.evictions);
        registry.counter_set(&format!("{prefix}.writebacks"), self.writebacks);
        registry.counter_set(&format!("{prefix}.resident_lines"), self.resident as u64);
        if let Some(rate) = self.hit_rate() {
            registry.gauge_set(&format!("{prefix}.hit_rate"), rate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> L2Cache {
        // 4 sets x 2 ways x 128 B = 1 KiB.
        L2Cache::new(L2Config {
            capacity_bytes: 1024,
            ways: 2,
            line_bytes: 128,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut l2 = tiny();
        let line = CacheLine(7);
        assert!(matches!(l2.read(line), AccessOutcome::Miss(None)));
        assert_eq!(l2.fill(line, LineState::Shared), None);
        assert!(matches!(l2.read(line), AccessOutcome::Hit));
        assert_eq!(l2.state_of(line), LineState::Shared);
    }

    #[test]
    fn write_to_shared_is_an_upgrade() {
        let mut l2 = tiny();
        let line = CacheLine(3);
        l2.fill(line, LineState::Shared);
        assert!(matches!(l2.write(line), AccessOutcome::UpgradeMiss));
        assert_eq!(l2.state_of(line), LineState::Modified);
        // Second write hits silently.
        assert!(matches!(l2.write(line), AccessOutcome::Hit));
    }

    #[test]
    fn lru_eviction_picks_coldest_and_reports_dirty() {
        let mut l2 = tiny();
        // Lines 0, 4, 8 map to set 0 (4 sets).
        l2.fill(CacheLine(0), LineState::Modified);
        l2.fill(CacheLine(4), LineState::Shared);
        // Touch line 0 so line 4 is LRU.
        l2.read(CacheLine(0));
        let ev = l2.fill(CacheLine(8), LineState::Exclusive).unwrap();
        assert_eq!(ev.line, CacheLine(4));
        assert_eq!(ev.state, LineState::Shared);
        assert_eq!(l2.state_of(CacheLine(4)), LineState::Invalid);

        // Evict the dirty line next; writeback counter increments.
        l2.read(CacheLine(8));
        let ev = l2.fill(CacheLine(12), LineState::Shared).unwrap();
        assert_eq!(ev.line, CacheLine(0));
        assert!(ev.state.is_dirty());
        let (.., writebacks) = l2.stats();
        assert_eq!(writebacks, 1);
    }

    #[test]
    fn probe_read_downgrades_and_supplies_dirty_data() {
        let mut l2 = tiny();
        l2.fill(CacheLine(1), LineState::Modified);
        match l2.probe(CacheLine(1), false) {
            ProbeOutcome::Hit { was, supplies_data } => {
                assert_eq!(was, LineState::Modified);
                assert!(supplies_data);
            }
            ProbeOutcome::Miss => panic!("expected hit"),
        }
        assert_eq!(l2.state_of(CacheLine(1)), LineState::Owned);
    }

    #[test]
    fn probe_write_invalidates() {
        let mut l2 = tiny();
        l2.fill(CacheLine(2), LineState::Exclusive);
        match l2.probe(CacheLine(2), true) {
            ProbeOutcome::Hit { was, supplies_data } => {
                assert_eq!(was, LineState::Exclusive);
                assert!(supplies_data, "exclusive owner supplies on write probe");
            }
            ProbeOutcome::Miss => panic!("expected hit"),
        }
        assert_eq!(l2.state_of(CacheLine(2)), LineState::Invalid);
        assert_eq!(l2.resident_lines(), 0);
    }

    #[test]
    fn probe_miss_on_absent_line() {
        let mut l2 = tiny();
        assert_eq!(l2.probe(CacheLine(9), true), ProbeOutcome::Miss);
    }

    #[test]
    #[should_panic(expected = "already-resident")]
    fn double_fill_panics() {
        let mut l2 = tiny();
        l2.fill(CacheLine(1), LineState::Shared);
        l2.fill(CacheLine(1), LineState::Shared);
    }

    #[test]
    fn thunderx_geometry() {
        let cfg = L2Config::thunderx1();
        assert_eq!(cfg.sets(), 8192);
        let l2 = L2Cache::new(cfg);
        assert_eq!(l2.resident_lines(), 0);
    }

    #[test]
    fn hit_rate_tracks_accesses() {
        let mut l2 = tiny();
        assert_eq!(l2.hit_rate(), None);
        l2.read(CacheLine(0));
        l2.fill(CacheLine(0), LineState::Shared);
        l2.read(CacheLine(0));
        assert!((l2.hit_rate().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_working_set_thrashes() {
        let mut l2 = tiny(); // 8 lines capacity
                             // Working set of 16 lines in a loop: every access misses after
                             // warmup because of LRU.
        for round in 0..3 {
            for i in 0..16u64 {
                let line = CacheLine(i);
                if let AccessOutcome::Miss(_) = l2.read(line) {
                    l2.fill(line, LineState::Shared);
                } else if round > 0 {
                    panic!("unexpected hit with thrashing working set");
                }
            }
        }
    }
}
