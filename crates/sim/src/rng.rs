//! Deterministic random numbers for simulation.
//!
//! All stochastic behaviour in the platform model (DRAM refresh jitter,
//! workload data, traffic interarrival) draws from [`SimRng`], a small,
//! seedable xoshiro256** generator. Using our own implementation keeps
//! every experiment bit-reproducible across `rand` crate upgrades.

/// SplitMix64's increment, ⌊2^64 / φ⌋.
pub const SPLITMIX64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finaliser (Steele, Lea and Flood, OOPSLA 2014, with
/// Stafford's "Mix13" constants): a bijection on `u64` that spreads
/// every input bit over the whole output. SplitMix64's `n`-th output
/// from `seed` is `mix64(seed + n · SPLITMIX64_GAMMA)`, `n` from 1.
pub fn mix64(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256** PRNG.
///
/// # Example
///
/// ```
/// use enzian_sim::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed, expanded with SplitMix64.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(SPLITMIX64_GAMMA);
            mix64(sm)
        };
        let s = [next(), next(), next(), next()];
        SimRng { s }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "SimRng::next_below: zero bound");
        // Lemire's multiply-shift rejection method.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "SimRng::range: empty range");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_below(hi - lo + 1)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Fills a byte slice with pseudo-random data.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// Forks a statistically independent child generator, advancing this
    /// generator's state.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn mix64_reproduces_the_published_splitmix64_sequence() {
        // The first outputs of the reference splitmix64.c for seed 1234567.
        let mut state = 1_234_567u64;
        let outputs: Vec<u64> = (0..5)
            .map(|_| {
                state = state.wrapping_add(SPLITMIX64_GAMMA);
                mix64(state)
            })
            .collect();
        assert_eq!(
            outputs,
            [
                6_457_827_717_110_365_317,
                3_203_168_211_198_807_973,
                9_817_491_932_198_370_423,
                4_593_380_528_125_082_431,
                16_408_922_859_458_223_821,
            ]
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn bounded_values_stay_in_bounds() {
        let mut r = SimRng::seed_from(3);
        for _ in 0..10_000 {
            assert!(r.next_below(10) < 10);
            let v = r.range(5, 9);
            assert!((5..=9).contains(&v));
        }
    }

    #[test]
    fn unit_floats_in_range_and_roughly_uniform() {
        let mut r = SimRng::seed_from(4);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = SimRng::seed_from(6);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut parent = SimRng::seed_from(8);
        let mut child = parent.fork();
        // The child does not replay the parent's stream.
        let p: Vec<u64> = (0..8).map(|_| parent.next_u64()).collect();
        let c: Vec<u64> = (0..8).map(|_| child.next_u64()).collect();
        assert_ne!(p, c);
    }
}
