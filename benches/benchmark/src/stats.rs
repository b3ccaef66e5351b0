//! Order statistics and host counters.

/// Quartiles `(q1, median, q3)` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default, exclusive method),
/// so the spreads printed here match the ones a reader recomputes.
/// One sample reports itself three times; an empty set is all zero.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), median(&v), q(3))
        }
    }
}

/// The median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Seconds a [`Reference`] sample takes on the host the baseline was
/// measured on (a shared 2-vCPU Intel Xeon virtual machine). Time
/// metrics are scaled by `measured / REFERENCE_S`, so they read as
/// seconds on that host whatever speed the host runs at during a run.
pub const REFERENCE_S: f64 = 0.0024;

/// A fixed kernel of benchmark-owned code whose duration tracks the
/// host's current speed: shared hosts drift by ±10 % over minutes and
/// sometimes run at half speed for a minute, which would otherwise read
/// as a change in the program. The kernel fills and probes an
/// open-addressing table allocated once, so it calls neither the
/// simulator nor the allocator, and the heap a workload leaves behind
/// cannot slow it.
pub struct Reference {
    table: Vec<u64>,
}

impl Reference {
    /// Allocates and touches the kernel's 4 MiB table.
    pub fn new() -> Self {
        Reference {
            table: vec![1; 1 << 19],
        }
    }

    /// One host-speed sample: the second of two back-to-back kernel
    /// runs, so the cache state it starts from does not depend on what
    /// ran before it.
    pub fn sample(&mut self) -> f64 {
        self.run();
        self.run()
    }

    fn run(&mut self) -> f64 {
        let t = std::time::Instant::now();
        let table = &mut self.table[..];
        table.fill(0);
        let mask = table.len() - 1;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..150_000u64 {
            x = (x ^ (x >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let mut j = x as usize & mask;
            while table[j] != 0 {
                j = (j + 1) & mask;
            }
            table[j] = x | 1 | (i << 1);
        }
        let mut hits = 0u64;
        for _ in 0..150_000u64 {
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let mut j = x as usize & mask;
            while table[j] != 0 {
                if table[j] == x {
                    hits += 1;
                    break;
                }
                j = (j + 1) & mask;
            }
        }
        std::hint::black_box(hits);
        t.elapsed().as_secs_f64()
    }
}

/// User plus system CPU seconds of this process, all threads, from
/// `/proc/self/stat` (fields 14 and 15, in 100 Hz clock ticks).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; the fixed fields follow its ')'.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // After ')': field 3 (state) is index 0, so utime (14) is index 11.
    (tick(11) + tick(12)) as f64 / 100.0
}

/// A `/proc/self/status` memory line (`VmHWM`, `VmRSS`) in bytes.
pub fn proc_status_bytes(key: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn host_counters_read_this_process() {
        assert!(proc_status_bytes("VmRSS") > 0);
        assert!(proc_status_bytes("VmHWM") >= proc_status_bytes("VmRSS") / 2);
        assert!(process_cpu_s() >= 0.0);
    }
}
