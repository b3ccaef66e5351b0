//! The five workloads and what they share: the run-time oracle
//! ([`Checks`]), the timed [`Slice`] and the [`Workload`] life cycle.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::json::{Json, JsonExt};
use crate::trace::Tracer;

pub mod eci_mix;
pub mod explore;
pub mod service;
pub mod traffic;

/// The seed the goldens were recorded with. Service runs derive their
/// seeds as `seed · 2^16 + i`, so the default seed yields the
/// `0x5E11_0000 + i` family the lost-ack reproducers are named in.
pub const DEFAULT_SEED: u64 = 0x5E11;

/// Workload size: `Full` is what `run` measures; `Mini` is the tiny
/// variant the self-tests drive (TCP `one_way`, MOESI `two_agent`, two
/// ECI batches, `TrafficWorkload::small()`, `ServiceConfig::small()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured workload.
    Full,
    /// Tiny inputs for self-tests.
    Mini,
}

/// Work done in one timed slice: the throughput samples of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Slice {
    /// Work units completed (states, transactions, sessions or ops).
    pub work: f64,
    /// Host seconds spent inside the timed calls.
    pub secs: f64,
}

impl Slice {
    /// Adds another slice's work and time.
    pub fn add(&mut self, other: Slice) {
        self.work += other.work;
        self.secs += other.secs;
    }

    /// Work per host second.
    pub fn rate(&self) -> f64 {
        if self.secs > 0.0 {
            self.work / self.secs
        } else {
            0.0
        }
    }
}

/// Per-layer metric values a workload reports.
pub type Layers = Vec<(String, f64)>;

/// One workload's life cycle, driven by `run`.
pub trait Workload: Sized {
    /// Builds the program objects from `seed` and runs the untimed
    /// warm-up unit. Everything here is paid before the first timed call
    /// and is what `setup_s` measures.
    fn setup(seed: u64, scale: Scale, threads: usize, checks: &mut Checks) -> Self;

    /// Whether the fixed leading units — the ones the goldens and the
    /// shape counters cover — have all run.
    fn prefix_done(&self) -> bool;

    /// Runs and verifies the next timed slice.
    fn slice(&mut self, checks: &mut Checks) -> Slice;

    /// Runs one fixed, traced pass and returns its timed work with the
    /// per-layer metrics it measured.
    fn traced(&mut self, tracer: &mut Tracer, checks: &mut Checks) -> (Slice, Layers);

    /// Per-layer metrics the untraced slices measured (exact counters).
    fn shape(&self) -> Layers;
}

/// Units attempted and failed, and the per-unit golden oracle.
///
/// A unit fails when it panics, when a check the program offers (an
/// audit, the protocol checker, a coherence shadow) reports an error, or
/// when an output differs from the committed golden. A failure is
/// counted and printed; it never stops the run.
pub struct Checks {
    /// Units run.
    pub attempted: u64,
    /// Units that failed.
    pub failed: u64,
    golden: Option<Json>,
    observed: BTreeMap<String, Json>,
}

impl Checks {
    /// Checks against `golden` (this workload's section of the goldens),
    /// or only records outputs when `None`.
    pub fn new(golden: Option<Json>) -> Self {
        Checks {
            attempted: 0,
            failed: 0,
            golden,
            observed: BTreeMap::new(),
        }
    }

    /// Runs `f`, turning a panic into an error carrying its message.
    pub fn guard<R>(f: impl FnOnce() -> R) -> Result<R, String> {
        catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
            p.downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".into())
        })
    }

    /// Counts one unit with its verdict.
    pub fn unit(&mut self, what: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            eprintln!("benchmark: unit {what} FAILED: {e}");
        }
    }

    /// Records output `key` and compares it with its golden.
    ///
    /// # Errors
    ///
    /// When checking, a missing or different golden value.
    pub fn golden(&mut self, key: &str, got: Json) -> Result<(), String> {
        let verdict = match &self.golden {
            None => Ok(()),
            Some(g) => match g.get(key) {
                None => Err(format!("no golden for {key}")),
                Some(want) if *want == got => Ok(()),
                Some(want) => Err(format!(
                    "{key}: got {}, golden {}",
                    got.render(),
                    want.render()
                )),
            },
        };
        self.observe(key, got);
        verdict
    }

    /// Records output `key` without comparing it: the goldens hold the
    /// seed-dependent outputs of the default seed only.
    pub fn observe(&mut self, key: &str, got: Json) {
        self.observed.insert(key.to_string(), got);
    }

    /// [`Checks::golden`] at the default seed and full scale, where a
    /// golden exists; [`Checks::observe`] otherwise.
    ///
    /// # Errors
    ///
    /// When checking, a missing or different golden value.
    pub fn seeded(&mut self, seed: u64, scale: Scale, key: &str, got: Json) -> Result<(), String> {
        if seed == DEFAULT_SEED && scale == Scale::Full {
            self.golden(key, got)
        } else {
            self.observe(key, got);
            Ok(())
        }
    }

    /// Every output recorded so far, as a golden section.
    pub fn observed(&self) -> Json {
        Json::Obj(self.observed.clone().into_iter().collect())
    }
}

/// Parallel-engine totals of a traced pass, for the `sim.par.*` layers
/// traffic and service share.
#[derive(Debug, Default)]
pub struct ParTotals {
    epochs: u64,
    skipped: u64,
    messages: u64,
}

impl ParTotals {
    /// Adds one run's engine accounting.
    pub fn add(&mut self, epochs: u64, skipped: u64, messages: u64) {
        self.epochs += epochs;
        self.skipped += skipped;
        self.messages += messages;
    }

    /// The `sim.par.*` layers, given the pass's `run_parallel` and
    /// `run_reference` seconds on the same inputs.
    pub fn layers(&self, parallel_s: f64, reference_s: f64) -> Layers {
        vec![
            (
                "sim.par.overhead".into(),
                if reference_s > 0.0 {
                    parallel_s / reference_s
                } else {
                    0.0
                },
            ),
            ("sim.par.epochs".into(), self.epochs as f64),
            ("sim.par.epochs_skipped".into(), self.skipped as f64),
            (
                "sim.par.messages_per_epoch".into(),
                self.messages as f64 / self.epochs.max(1) as f64,
            ),
        ]
    }
}

/// FNV-1a over bytes: the digests the goldens pin.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a `u64` (little-endian) into the digest.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The digest of a rendered string (counterexamples).
pub fn digest_str(s: &str) -> u64 {
    let mut d = Fnv::default();
    d.bytes(s.as_bytes());
    d.0
}

/// `SkipTimeWait` → `skip_time_wait`, for metric and golden names.
pub fn snake(camel: &str) -> String {
    let mut out = String::new();
    for (i, c) in camel.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// Mixes the run seed with a stream index (SplitMix64 finaliser), so
/// re-seeded inputs differ per seed and per pass.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_mismatch_and_panic_fail_the_unit_without_stopping() {
        let golden = Json::obj(vec![("k", Json::U64(1))]);
        let mut c = Checks::new(Some(golden));
        let ok = c.golden("k", Json::U64(1));
        c.unit("match", ok);
        let bad = c.golden("k", Json::U64(2));
        c.unit("mismatch", bad);
        let missing = c.golden("absent", Json::Null);
        c.unit("missing", missing);
        let panicked: Result<(), String> = Checks::guard(|| panic!("boom"));
        assert_eq!(panicked, Err("boom".to_string()));
        c.unit("panic", panicked);
        assert_eq!((c.attempted, c.failed), (4, 3));
    }

    #[test]
    fn snake_case_names() {
        assert_eq!(snake("SkipTimeWait"), "skip_time_wait");
        assert_eq!(snake("DropProbeAck"), "drop_probe_ack");
    }
}
