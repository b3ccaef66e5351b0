//! Deterministic, seeded fault injection.
//!
//! A [`FaultPlan`] is a composable schedule of [`FaultSpec`]s that tells
//! instrumented components *when* to misbehave: drop a frame, flip a bit,
//! fail a lane, trip a regulator. Components ask the plan at each
//! injection opportunity ([`FaultPlan::should_fire`]) and report every
//! completed recovery back ([`FaultPlan::note_recovery`]), so the plan
//! doubles as the system-wide fault ledger: injected/recovered counters
//! per target plus a compact [`FaultRecord`] for each, which its
//! telemetry export renders as a [`TraceEvent`].
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

use std::collections::VecDeque;

use crate::rng::SimRng;
use crate::telemetry::{TraceEvent, DEFAULT_TRACE_CAPACITY};
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

/// One injection or recovery the plan retains. The
/// [`Instrumented`](crate::telemetry::Instrumented) export renders it as
/// a `fault` `inject` or `recover` [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// When the fault fired or finished recovering.
    pub at: Time,
    /// `None` for an injection; for a recovery, how long after its
    /// injection it finished.
    pub recovery: Option<Duration>,
    /// The target's index in the plan's ledger.
    target: u32,
}

/// One target's entry in the plan's ledger.
#[derive(Debug, Clone, PartialEq)]
struct TargetCount {
    name: String,
    injected: u64,
    recovered: u64,
}

/// A seeded, deterministic schedule of faults plus the ledger of what
/// was injected and recovered.
///
/// The plan keeps one [`FaultRecord`] per injection and recovery in a
/// ring of the last [`DEFAULT_TRACE_CAPACITY`]; recording one allocates
/// nothing once the ring and the target's ledger entry exist. The
/// [`Instrumented`](crate::telemetry::Instrumented) impl publishes the
/// counters and renders the retained records into a shared registry.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<SpecState>,
    /// Every target counted so far, in first-counted order; records name
    /// theirs by index.
    ledger: Vec<TargetCount>,
    records: VecDeque<FaultRecord>,
    /// Records ever kept, retained or dropped from the full ring.
    recorded: u64,
}

impl FaultPlan {
    /// Creates an empty plan. Until specs are added, every query returns
    /// `false`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: Vec::new(),
            ledger: Vec::new(),
            records: VecDeque::new(),
            recorded: 0,
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
            self.record(target, now, None);
        }
        fired
    }

    /// Records that a previously injected `target` fault finished
    /// recovering at `now`, `latency` after it was injected.
    pub fn note_recovery(&mut self, target: &str, now: Time, latency: Duration) {
        self.record(target, now, Some(latency));
    }

    /// Counts one injection (`recovery` is `None`) or recovery of
    /// `target` and keeps its record, evicting the oldest from a full
    /// ring.
    fn record(&mut self, target: &str, at: Time, recovery: Option<Duration>) {
        let index = match self.ledger.iter().position(|t| t.name == target) {
            Some(i) => i,
            None => {
                self.ledger.push(TargetCount {
                    name: target.to_string(),
                    injected: 0,
                    recovered: 0,
                });
                self.ledger.len() - 1
            }
        };
        let count = &mut self.ledger[index];
        match recovery {
            None => count.injected += 1,
            Some(_) => count.recovered += 1,
        }
        if self.records.len() == DEFAULT_TRACE_CAPACITY {
            self.records.pop_front();
        }
        self.records.push_back(FaultRecord {
            at,
            recovery,
            target: index as u32,
        });
        self.recorded += 1;
    }

    fn count(&self, target: &str) -> Option<&TargetCount> {
        self.ledger.iter().find(|t| t.name == target)
    }

    /// Faults injected so far for `target`.
    pub fn injected(&self, target: &str) -> u64 {
        self.count(target).map_or(0, |t| t.injected)
    }

    /// Recoveries recorded so far for `target`.
    pub fn recovered(&self, target: &str) -> u64 {
        self.count(target).map_or(0, |t| t.recovered)
    }

    /// Total faults injected across all targets.
    pub fn total_injected(&self) -> u64 {
        self.ledger.iter().map(|t| t.injected).sum()
    }

    /// Total recoveries recorded across all targets.
    pub fn total_recovered(&self) -> u64 {
        self.ledger.iter().map(|t| t.recovered).sum()
    }

    /// The retained injection and recovery records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &FaultRecord> {
        self.records.iter()
    }

    /// Records dropped because the ring was full.
    pub fn dropped_records(&self) -> u64 {
        self.recorded - self.records.len() as u64
    }
}

/// Publishes per-target injected/recovered counters (plus totals), and
/// renders the retained records into the registry's trace ring.
impl crate::telemetry::Instrumented for FaultPlan {
    fn export_metrics(&self, prefix: &str, registry: &mut crate::telemetry::MetricsRegistry) {
        for t in &self.ledger {
            if t.injected > 0 {
                registry.counter_set(&format!("{prefix}.injected.{}", t.name), t.injected);
            }
            if t.recovered > 0 {
                registry.counter_set(&format!("{prefix}.recovered.{}", t.name), t.recovered);
            }
        }
        registry.counter_set(&format!("{prefix}.injected_total"), self.total_injected());
        registry.counter_set(&format!("{prefix}.recovered_total"), self.total_recovered());
        for r in &self.records {
            let target = self.ledger[r.target as usize].name.as_str();
            registry.trace_event(match r.recovery {
                None => TraceEvent::new(r.at, "fault", "inject").field("target", target),
                Some(latency) => TraceEvent::new(r.at, "fault", "recover")
                    .field("target", target)
                    .field("latency_ps", latency.as_ps()),
            });
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
        let events: Vec<&TraceEvent> = reg.trace().iter().collect();
        assert_eq!(
            events,
            [
                &TraceEvent::new(Time::from_ns(1), "fault", "inject").field("target", "x"),
                &TraceEvent::new(Time::from_ns(3), "fault", "recover")
                    .field("target", "x")
                    .field("latency_ps", 2_000u64),
            ]
        );
    }

    #[test]
    fn the_record_ring_keeps_the_last_records_and_counts_the_rest() {
        let mut plan = FaultPlan::new(10).with(FaultSpec::every_nth("x", 1));
        let n = DEFAULT_TRACE_CAPACITY as u64 + 5;
        for i in 0..n {
            assert!(plan.should_fire("x", Time::from_ps(i)));
        }
        assert_eq!(plan.records().count(), DEFAULT_TRACE_CAPACITY);
        assert_eq!(plan.dropped_records(), 5);
        assert_eq!(plan.records().next().map(|r| r.at), Some(Time::from_ps(5)));
        assert_eq!(plan.injected("x"), n);
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
