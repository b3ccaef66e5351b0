//! Deterministic, seeded fault injection.
//!
//! A [`FaultPlan`] is a composable schedule of [`FaultSpec`]s that tells
//! instrumented components *when* to misbehave: drop a frame, flip a bit,
//! fail a lane, trip a regulator. Components ask the plan at each
//! injection opportunity ([`FaultPlan::should_fire`]) and report every
//! completed recovery back ([`FaultPlan::note_recovery`]), so the plan
//! doubles as the system-wide fault ledger: injected/recovered counters
//! per target plus a [`TraceRing`] event for each.
//!
//! Determinism is the whole point. Triggers reference simulated
//! [`Time`] and opportunity counts only — the wall clock is banned — and
//! probabilistic triggers draw from a private [`SimRng`] stream derived
//! from the plan seed and the spec's position. Two runs with the same
//! seed, the same specs, and the same workload therefore inject the same
//! faults at the same places and export byte-identical telemetry.
//!
//! # Example
//!
//! ```
//! use enzian_sim::fault::{FaultPlan, FaultSpec};
//! use enzian_sim::Time;
//!
//! let mut plan = FaultPlan::new(42).with(FaultSpec::every_nth("link.drop", 3));
//! let t = Time::from_ns(10);
//! let fired: Vec<bool> = (0..6).map(|_| plan.should_fire("link.drop", t)).collect();
//! assert_eq!(fired, [false, false, true, false, false, true]);
//! assert_eq!(plan.injected("link.drop"), 2);
//! ```

use std::collections::BTreeMap;

use crate::rng::SimRng;
use crate::telemetry::{TraceEvent, TraceRing};
use crate::time::{Duration, Time};

/// Cluster-level fault targets, consulted by multi-board drivers (the
/// replicated service, the bridge shards). They live here — next to the
/// plan that schedules them — so every layer names them identically.
///
/// * [`BOARD_CRASH`](cluster_targets::BOARD_CRASH): while firing, the
///   board is dead — it processes nothing, sends nothing, and loses its
///   volatile state; when the spec stops firing the board rejoins and
///   must re-replicate.
/// * [`BRIDGE_PARTITION`](cluster_targets::BRIDGE_PARTITION): every
///   fabric frame the board sends or receives while firing is dropped
///   silently, isolating it from the cluster.
/// * [`BRIDGE_DELAY`](cluster_targets::BRIDGE_DELAY): the frame being
///   sent is delivered late by the driver's configured extra delay.
pub mod cluster_targets {
    /// The whole board crashes (fail-stop, volatile state lost).
    pub const BOARD_CRASH: &str = "board.crash";
    /// The board's fabric links drop every frame (network partition).
    pub const BRIDGE_PARTITION: &str = "bridge.partition";
    /// The frame in flight is delayed by the driver's configured extra.
    pub const BRIDGE_DELAY: &str = "bridge.delay";
}

/// When a fault spec fires, relative to the stream of injection
/// opportunities its target component presents.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultTrigger {
    /// Fires exactly once, at the first opportunity at or after `at`.
    Once {
        /// Earliest simulated time the fault may fire.
        at: Time,
    },
    /// Fires on every opportunity whose 1-based index is a multiple of
    /// `n` (the classic `drop_every` semantics).
    EveryNth {
        /// Period in opportunities; 1 means every opportunity.
        n: u64,
    },
    /// Fires on every opportunity inside the half-open window
    /// `[from, until)`.
    Window {
        /// Window start (inclusive).
        from: Time,
        /// Window end (exclusive).
        until: Time,
    },
    /// Fires independently with probability `p` per opportunity, drawn
    /// from the spec's private seeded stream.
    Probability {
        /// Per-opportunity firing probability, clamped to `[0, 1]`.
        p: f64,
    },
}

/// One fault to inject: a dotted target name (which injection point it
/// addresses, e.g. `eci.frame_corrupt` or `bmc.overcurrent.CpuVdd`) plus
/// a [`FaultTrigger`] saying when.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Dotted injection-point name the spec addresses.
    pub target: String,
    /// When the spec fires.
    pub trigger: FaultTrigger,
}

impl FaultSpec {
    /// A one-shot fault at simulated time `at`.
    pub fn once(target: impl Into<String>, at: Time) -> Self {
        FaultSpec {
            target: target.into(),
            trigger: FaultTrigger::Once { at },
        }
    }

    /// A periodic fault firing on every `n`-th opportunity.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn every_nth(target: impl Into<String>, n: u64) -> Self {
        assert!(n > 0, "FaultSpec::every_nth: zero period");
        FaultSpec {
            target: target.into(),
            trigger: FaultTrigger::EveryNth { n },
        }
    }

    /// A windowed fault firing on every opportunity in `[from, until)`.
    pub fn window(target: impl Into<String>, from: Time, until: Time) -> Self {
        FaultSpec {
            target: target.into(),
            trigger: FaultTrigger::Window { from, until },
        }
    }

    /// A probabilistic fault firing with chance `p` per opportunity.
    pub fn probability(target: impl Into<String>, p: f64) -> Self {
        FaultSpec {
            target: target.into(),
            trigger: FaultTrigger::Probability { p },
        }
    }
}

/// A spec plus its mutable firing state.
#[derive(Debug, Clone, PartialEq)]
struct SpecState {
    spec: FaultSpec,
    /// Private stream for probabilistic triggers, derived from the plan
    /// seed and the spec index so insertion order fixes the schedule.
    rng: SimRng,
    /// Opportunities this spec has been consulted for.
    opportunities: u64,
    /// `false` once a one-shot trigger has consumed itself.
    armed: bool,
}

/// A seeded, deterministic schedule of faults plus the ledger of what
/// was injected and recovered.
///
/// The plan records one `inject`/`recover` [`TraceEvent`] per call into
/// an internal ring; the [`Instrumented`](crate::telemetry::Instrumented)
/// impl publishes the counters (and replays the retained events) into a
/// shared registry.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<SpecState>,
    injected: BTreeMap<String, u64>,
    recovered: BTreeMap<String, u64>,
    trace: TraceRing,
}

impl FaultPlan {
    /// Creates an empty plan. Until specs are added, every query returns
    /// `false`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: Vec::new(),
            injected: BTreeMap::new(),
            recovered: BTreeMap::new(),
            trace: TraceRing::default(),
        }
    }

    /// The seed the plan (and every derived stream) was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Adds a spec (builder style).
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.add(spec);
        self
    }

    /// Adds a spec. Its probabilistic stream is derived from the plan
    /// seed and the spec's position, so a plan built from the same seed
    /// and the same spec sequence always fires identically.
    pub fn add(&mut self, spec: FaultSpec) {
        let index = self.specs.len() as u64;
        let rng = SimRng::seed_from(self.seed ^ (index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.specs.push(SpecState {
            spec,
            rng,
            opportunities: 0,
            armed: true,
        });
    }

    /// `true` when the plan has no specs at all.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// `true` when at least one spec addresses `target`.
    pub fn targets(&self, target: &str) -> bool {
        self.specs.iter().any(|s| s.spec.target == target)
    }

    /// Presents one injection opportunity for `target` at simulated time
    /// `now`; returns `true` when any matching spec fires. A firing is
    /// counted and traced as one injected fault.
    pub fn should_fire(&mut self, target: &str, now: Time) -> bool {
        let mut fired = false;
        for state in self.specs.iter_mut().filter(|s| s.spec.target == target) {
            state.opportunities += 1;
            let hit = match state.spec.trigger {
                FaultTrigger::Once { at } => {
                    if state.armed && now >= at {
                        state.armed = false;
                        true
                    } else {
                        false
                    }
                }
                FaultTrigger::EveryNth { n } => state.opportunities % n == 0,
                FaultTrigger::Window { from, until } => now >= from && now < until,
                FaultTrigger::Probability { p } => state.rng.chance(p),
            };
            fired |= hit;
        }
        if fired {
            bump(&mut self.injected, target);
            self.trace
                .record(TraceEvent::new(now, "fault", "inject").field("target", target));
        }
        fired
    }

    /// Records that a previously injected `target` fault finished
    /// recovering at `now`, `latency` after it was injected.
    pub fn note_recovery(&mut self, target: &str, now: Time, latency: Duration) {
        bump(&mut self.recovered, target);
        self.trace.record(
            TraceEvent::new(now, "fault", "recover")
                .field("target", target)
                .field("latency_ps", latency.as_ps()),
        );
    }

    /// Faults injected so far for `target`.
    pub fn injected(&self, target: &str) -> u64 {
        self.injected.get(target).copied().unwrap_or(0)
    }

    /// Recoveries recorded so far for `target`.
    pub fn recovered(&self, target: &str) -> u64 {
        self.recovered.get(target).copied().unwrap_or(0)
    }

    /// Total faults injected across all targets.
    pub fn total_injected(&self) -> u64 {
        self.injected.values().sum()
    }

    /// Total recoveries recorded across all targets.
    pub fn total_recovered(&self) -> u64 {
        self.recovered.values().sum()
    }

    /// The plan's inject/recover event ring (read-only).
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }
}

/// Counts one more fault for `target` in `ledger`, allocating its key
/// only the first time the target appears.
fn bump(ledger: &mut BTreeMap<String, u64>, target: &str) {
    match ledger.get_mut(target) {
        Some(n) => *n += 1,
        None => {
            ledger.insert(target.to_string(), 1);
        }
    }
}

/// Publishes per-target injected/recovered counters (plus totals), and
/// replays the retained trace events into the registry's ring.
impl crate::telemetry::Instrumented for FaultPlan {
    fn export_metrics(&self, prefix: &str, registry: &mut crate::telemetry::MetricsRegistry) {
        for (target, n) in &self.injected {
            registry.counter_set(&format!("{prefix}.injected.{target}"), *n);
        }
        for (target, n) in &self.recovered {
            registry.counter_set(&format!("{prefix}.recovered.{target}"), *n);
        }
        registry.counter_set(&format!("{prefix}.injected_total"), self.total_injected());
        registry.counter_set(&format!("{prefix}.recovered_total"), self.total_recovered());
        for ev in self.trace.iter() {
            registry.trace_event(ev.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::MetricsRegistry;

    #[test]
    fn one_shot_fires_exactly_once() {
        let mut plan = FaultPlan::new(1).with(FaultSpec::once("x", Time::from_ns(100)));
        assert!(!plan.should_fire("x", Time::from_ns(50)));
        assert!(plan.should_fire("x", Time::from_ns(100)));
        assert!(!plan.should_fire("x", Time::from_ns(200)));
        assert_eq!(plan.injected("x"), 1);
    }

    #[test]
    fn every_nth_matches_drop_every_semantics() {
        let mut plan = FaultPlan::new(2).with(FaultSpec::every_nth("x", 4));
        let hits: Vec<bool> = (0..8).map(|_| plan.should_fire("x", Time::ZERO)).collect();
        assert_eq!(hits, [false, false, false, true, false, false, false, true]);
    }

    #[test]
    fn window_fires_only_inside() {
        let mut plan =
            FaultPlan::new(3).with(FaultSpec::window("x", Time::from_ns(10), Time::from_ns(20)));
        assert!(!plan.should_fire("x", Time::from_ns(9)));
        assert!(plan.should_fire("x", Time::from_ns(10)));
        assert!(plan.should_fire("x", Time::from_ns(19)));
        assert!(!plan.should_fire("x", Time::from_ns(20)));
    }

    #[test]
    fn probability_is_seed_deterministic_and_roughly_calibrated() {
        let run = |seed| {
            let mut plan = FaultPlan::new(seed).with(FaultSpec::probability("x", 0.25));
            (0..4000)
                .map(|_| plan.should_fire("x", Time::ZERO))
                .collect::<Vec<bool>>()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed must fire identically");
        assert_ne!(a, run(8), "different seeds should diverge");
        let rate = a.iter().filter(|&&b| b).count() as f64 / a.len() as f64;
        assert!((rate - 0.25).abs() < 0.03, "rate = {rate}");
    }

    #[test]
    fn targets_are_independent() {
        let mut plan = FaultPlan::new(4)
            .with(FaultSpec::every_nth("a", 1))
            .with(FaultSpec::every_nth("b", 2));
        assert!(plan.should_fire("a", Time::ZERO));
        assert!(!plan.should_fire("b", Time::ZERO));
        assert!(plan.should_fire("b", Time::ZERO));
        assert!(!plan.should_fire("c", Time::ZERO));
        assert_eq!(plan.injected("a"), 1);
        assert_eq!(plan.injected("b"), 1);
        assert_eq!(plan.total_injected(), 2);
    }

    #[test]
    fn recovery_ledger_and_export() {
        let mut plan = FaultPlan::new(5).with(FaultSpec::every_nth("x", 1));
        assert!(plan.should_fire("x", Time::from_ns(1)));
        plan.note_recovery("x", Time::from_ns(3), Duration::from_ns(2));
        let mut reg = MetricsRegistry::new();
        crate::telemetry::Instrumented::export_metrics(&plan, "fault", &mut reg);
        assert_eq!(reg.counter("fault.injected.x"), 1);
        assert_eq!(reg.counter("fault.recovered.x"), 1);
        assert_eq!(reg.counter("fault.injected_total"), 1);
        assert_eq!(reg.trace().len(), 2);
    }

    #[test]
    fn empty_plan_never_fires() {
        let mut plan = FaultPlan::new(6);
        assert!(plan.is_empty());
        assert!(!plan.should_fire("anything", Time::ZERO));
        assert_eq!(plan.total_injected(), 0);
    }

    #[test]
    fn same_seed_same_schedule_across_clone() {
        let plan = FaultPlan::new(9)
            .with(FaultSpec::probability("x", 0.5))
            .with(FaultSpec::probability("y", 0.5));
        let mut a = plan.clone();
        let mut b = plan;
        for i in 0..256 {
            let t = Time::from_ns(i);
            assert_eq!(a.should_fire("x", t), b.should_fire("x", t));
            assert_eq!(a.should_fire("y", t), b.should_fire("y", t));
        }
    }
}
