//! DDR4 channel timing model.
//!
//! One [`DramChannel`] models a 64-bit DDR4 channel with one DIMM (the
//! paper's "favor bandwidth over capacity" principle: one DIMM per channel).
//! The model tracks per-bank row-buffer state and bank busy times; a
//! cache-line access is a burst of `BL8` beats (64 bytes per burst on a
//! 64-bit channel, so a 128-byte ECI line takes two bursts).
//!
//! Timing parameters follow JEDEC speed-bin nomenclature: `tCK` is the
//! clock period (half the data-rate period), CAS latency and friends are in
//! clocks. The model is deliberately at the fidelity of architectural
//! simulators' "simple DRAM" models: it reproduces row-hit vs. row-miss
//! latency, per-bank parallelism, and refresh overhead, which is what the
//! paper's bandwidth/latency envelopes depend on.

use enzian_sim::{Duration, Time};

use crate::addr::Addr;

/// DDR4 speed bins used on Enzian.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DdrGeneration {
    /// DDR4-2133 (CPU side, 4 channels, 128 GiB total).
    Ddr4_2133,
    /// DDR4-2400 (FPGA side, 4 channels, 512 GiB in current systems).
    Ddr4_2400,
}

/// JEDEC-style timing parameters for a speed bin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramTiming {
    /// Data-rate transfers per second (e.g. 2 133 000 000 for DDR4-2133).
    pub transfers_per_sec: u64,
    /// CAS latency, in memory clocks.
    pub cl: u32,
    /// RAS-to-CAS delay, in clocks.
    pub trcd: u32,
    /// Row precharge, in clocks.
    pub trp: u32,
    /// Minimum row-active time, in clocks.
    pub tras: u32,
    /// Refresh cycle time, in nanoseconds (8 Gib parts).
    pub trfc_ns: u64,
    /// Average refresh interval, in nanoseconds.
    pub trefi_ns: u64,
}

impl DramTiming {
    /// Timing for a speed bin.
    pub fn of(generation: DdrGeneration) -> Self {
        match generation {
            DdrGeneration::Ddr4_2133 => DramTiming {
                transfers_per_sec: 2_133_000_000,
                cl: 15,
                trcd: 15,
                trp: 15,
                tras: 36,
                trfc_ns: 350,
                trefi_ns: 7_800,
            },
            DdrGeneration::Ddr4_2400 => DramTiming {
                transfers_per_sec: 2_400_000_000,
                cl: 17,
                trcd: 17,
                trp: 17,
                tras: 39,
                trfc_ns: 350,
                trefi_ns: 7_800,
            },
        }
    }

    /// Memory clock period (two transfers per clock).
    pub fn tck(&self) -> Duration {
        Duration::from_hz(self.transfers_per_sec / 2)
    }

    /// Peak channel bandwidth in bytes per second.
    pub fn peak_bytes_per_sec(&self) -> u64 {
        self.transfers_per_sec * 8
    }
}

/// Number of banks modelled per channel (4 bank groups × 4 banks).
const BANKS: usize = 16;
/// Row size in bytes (1 KiB columns × 8 bytes... modelled as 8 KiB page).
const ROW_BYTES: u64 = 8 * 1024;

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u64>,
    next_cmd: Time,
}

/// A single DDR4 channel with per-bank row-buffer tracking and a shared
/// data bus. Commands pipeline: CAS latency overlaps across back-to-back
/// accesses, so streaming row hits are limited by the data bus (burst
/// time), not by CL.
#[derive(Debug, Clone)]
pub struct DramChannel {
    timing: DramTiming,
    /// [`DramTiming::tck`], computed once: [`DramChannel::clocks`] runs
    /// on every access.
    tck: Duration,
    /// One transfer at the data rate, computed once for
    /// [`DramChannel::burst`].
    beat: Duration,
    banks: [Bank; BANKS],
    bus_free: Time,
    last_refresh: Time,
    reads: u64,
    writes: u64,
    bytes: u64,
    row_hits: u64,
    row_misses: u64,
}

impl DramChannel {
    /// Creates an idle channel with all rows closed.
    pub fn new(generation: DdrGeneration) -> Self {
        let timing = DramTiming::of(generation);
        DramChannel {
            tck: timing.tck(),
            beat: Duration::from_hz(timing.transfers_per_sec),
            timing,
            banks: [Bank {
                open_row: None,
                next_cmd: Time::ZERO,
            }; BANKS],
            bus_free: Time::ZERO,
            last_refresh: Time::ZERO,
            reads: 0,
            writes: 0,
            bytes: 0,
            row_hits: 0,
            row_misses: 0,
        }
    }

    /// The channel's timing parameters.
    pub fn timing(&self) -> &DramTiming {
        &self.timing
    }

    fn bank_and_row(addr: Addr) -> (usize, u64) {
        let row_index = addr.0 / ROW_BYTES;
        // Banks interleave on row index so sequential rows hit different
        // banks (matching typical controller mappings).
        (
            (row_index % BANKS as u64) as usize,
            row_index / BANKS as u64,
        )
    }

    /// Duration of `n` memory clocks.
    pub fn clocks(&self, n: u32) -> Duration {
        self.tck * u64::from(n)
    }

    /// Time to burst `bytes` over the 64-bit channel at the data rate.
    pub fn burst(&self, bytes: u64) -> Duration {
        // 8 bytes per transfer on a 64-bit channel.
        self.beat * bytes.div_ceil(8)
    }

    /// Issues an access of `bytes` at `addr` starting no earlier than
    /// `now`; returns the completion time of the last beat.
    pub fn access(&mut self, now: Time, addr: Addr, bytes: u64, is_write: bool) -> Time {
        let t = self.timing;
        // Refresh stall: if a tREFI boundary passed since the last refresh,
        // charge one tRFC before this access proceeds.
        let mut start = now;
        let trefi = Duration::from_ns(t.trefi_ns);
        if now.saturating_since(self.last_refresh) >= trefi {
            start += Duration::from_ns(t.trfc_ns);
            self.last_refresh = now;
        }

        let (bank_idx, row) = Self::bank_and_row(addr);
        let bank = &mut self.banks[bank_idx];
        let cmd_at = start.max(bank.next_cmd);

        // Row-state penalty, in clocks, before the column command can
        // issue.
        let penalty_clocks = match bank.open_row {
            Some(open) if open == row => {
                self.row_hits += 1;
                0
            }
            Some(_) => {
                self.row_misses += 1;
                bank.open_row = Some(row);
                t.trp + t.trcd
            }
            None => {
                self.row_misses += 1;
                bank.open_row = Some(row);
                t.trcd
            }
        };
        let penalty = self.clocks(penalty_clocks);
        // Column-to-column command spacing (tCCD_L, ~4 clocks) lets hits
        // pipeline; a miss holds the bank until the activate completes.
        self.banks[bank_idx].next_cmd = cmd_at + penalty.max(self.clocks(4));

        // Data appears CL after the column command, but the shared data
        // bus serializes bursts.
        let data_ready = cmd_at + penalty + self.clocks(t.cl);
        let data_start = data_ready.max(self.bus_free);
        let done = data_start + self.burst(bytes);
        self.bus_free = done;

        if is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        self.bytes += bytes;
        done
    }

    /// Row-buffer hit rate so far; `None` before any access.
    pub fn row_hit_rate(&self) -> Option<f64> {
        let total = self.row_hits + self.row_misses;
        (total > 0).then(|| self.row_hits as f64 / total as f64)
    }

    /// Total bytes transferred.
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes
    }

    /// `(reads, writes)` issued so far.
    pub fn op_counts(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_hit_is_faster_than_miss() {
        let mut ch = DramChannel::new(DdrGeneration::Ddr4_2133);
        let a = Addr(0);
        let first = ch.access(Time::ZERO, a, 128, false);
        let t2 = first;
        let second = ch.access(t2, a, 128, false);
        let miss_latency = first.since(Time::ZERO);
        let hit_latency = second.since(t2);
        assert!(
            hit_latency < miss_latency,
            "hit {hit_latency} not faster than miss {miss_latency}"
        );
    }

    #[test]
    fn sequential_lines_in_a_row_mostly_hit() {
        let mut ch = DramChannel::new(DdrGeneration::Ddr4_2133);
        let mut now = Time::ZERO;
        for i in 0..64u64 {
            now = ch.access(now, Addr(i * 128), 128, false);
        }
        // 64 lines span exactly one 8 KiB row: 1 miss, 63 hits.
        assert!(ch.row_hit_rate().unwrap() > 0.95);
    }

    #[test]
    fn streaming_bandwidth_approaches_peak() {
        let mut ch = DramChannel::new(DdrGeneration::Ddr4_2133);
        // Open-loop: a streaming controller keeps the command queue full,
        // so CAS latency pipelines and only the data bus limits.
        let mut done = Time::ZERO;
        let total: u64 = 16 << 20; // 16 MiB
        let mut addr = 0u64;
        while addr < total {
            done = done.max(ch.access(Time::ZERO, Addr(addr), 128, false));
            addr += 128;
        }
        let secs = done.as_secs_f64();
        let achieved = total as f64 / secs;
        let peak = ch.timing().peak_bytes_per_sec() as f64;
        // Streaming should reach at least 70% of the 17 GB/s peak.
        assert!(
            achieved > 0.7 * peak,
            "achieved {:.2} GB/s of peak {:.2} GB/s",
            achieved / 1e9,
            peak / 1e9
        );
        assert!(achieved < peak, "cannot exceed the pin bandwidth");
    }

    #[test]
    fn banks_provide_parallelism() {
        // Two accesses to different banks at the same instant should both
        // complete sooner than two serialized accesses to one bank.
        let mut ch = DramChannel::new(DdrGeneration::Ddr4_2400);
        let a = Addr(0);
        let b = Addr(ROW_BYTES); // next row -> different bank
        let done_a = ch.access(Time::ZERO, a, 128, false);
        let done_b = ch.access(Time::ZERO, b, 128, false);
        let parallel_span = done_a.max(done_b);

        let mut ch2 = DramChannel::new(DdrGeneration::Ddr4_2400);
        let c = Addr(0);
        let d = Addr(ROW_BYTES * BANKS as u64); // same bank, different row
        let done_c = ch2.access(Time::ZERO, c, 128, false);
        let done_d = ch2.access(Time::ZERO, d, 128, false);
        let serial_span = done_c.max(done_d);

        assert!(parallel_span < serial_span);
    }

    #[test]
    fn refresh_charges_periodically() {
        let mut ch = DramChannel::new(DdrGeneration::Ddr4_2133);
        let t0 = ch.access(Time::ZERO, Addr(0), 128, false);
        // Jump past a refresh interval; the next access pays tRFC.
        let later = t0 + Duration::from_us(10);
        let t1 = ch.access(later, Addr(0), 128, false);
        let lat = t1.since(later);
        assert!(
            lat >= Duration::from_ns(350),
            "refresh penalty missing: {lat}"
        );
    }

    #[test]
    fn faster_bin_is_faster() {
        let slow = DramTiming::of(DdrGeneration::Ddr4_2133);
        let fast = DramTiming::of(DdrGeneration::Ddr4_2400);
        assert!(fast.peak_bytes_per_sec() > slow.peak_bytes_per_sec());
        let slow = DramChannel::new(DdrGeneration::Ddr4_2133);
        let fast = DramChannel::new(DdrGeneration::Ddr4_2400);
        assert!(fast.burst(128) < slow.burst(128));
        assert!(fast.clocks(1) < slow.clocks(1));
    }
}
