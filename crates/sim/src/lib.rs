//! Deterministic discrete-event simulation (DES) kernel for the Enzian
//! platform reproduction.
//!
//! The crate provides four building blocks used by every other crate in the
//! workspace:
//!
//! * [`Time`] / [`Duration`] — picosecond-resolution simulated time,
//! * [`Simulator`] — a generic event-driven scheduler over a user
//!   [`Model`] and the model's own `Copy` events,
//! * [`Channel`] — a bandwidth/latency pipe model used for every serial
//!   link in the platform (ECI lanes, PCIe, Ethernet, I2C),
//! * [`stats`] — counters, histograms and time series for collecting the
//!   measurements that the paper's evaluation reports,
//! * [`telemetry`] — a shared [`MetricsRegistry`] of hierarchically named
//!   metrics plus a bounded structured event trace, with deterministic
//!   text and JSON exporters,
//! * [`fault`] — a seeded, deterministic [`FaultPlan`] of composable
//!   fault specs (one-shot, periodic, windowed, probabilistic) with an
//!   injected/recovered ledger, used by every layer's chaos machinery,
//! * [`explore`] — a generic bounded model checker: canonicalized BFS
//!   with shortest-path counterexamples and seeded random walks over
//!   any [`ProtocolModel`] (the ECI coherence protocol and the TCP
//!   connection FSM are the two in-tree instances), on the calling
//!   thread or with a worker thread expanding frontier chunks ahead,
//!   with identical results,
//! * [`par`] — a conservative parallel execution layer: [`KeyedShard`]s
//!   advance in lock-step epochs of one lookahead, skipping quiet ones,
//!   and exchange timestamped [`Envelope`]s through per-shard mailboxes.
//!   [`Engine::run`] runs them there or on a sequential reference sweep,
//!   with results bit-identical across both engines and every thread
//!   count,
//! * [`streams`] — [`SortedStreams`], the priority queue of a fabric
//!   port's inbox and a TCP mux's timers: one sorted stream per source,
//!   since each source's items arrive almost always in key order,
//! * [`digest`] — the [`Fnv`] digest every determinism check folds
//!   final states into,
//! * [`hash`] — the one Fx hash ([`FxBuildHasher`]) every map keyed by
//!   simulator-internal integers uses instead of SipHash.
//!
//! # Example
//!
//! ```
//! use enzian_sim::{Duration, Model, Scheduler, Simulator};
//!
//! // A counter model whose events carry the amount to add.
//! struct Counter(u64);
//!
//! impl Model for Counter {
//!     type Event = u64;
//!     fn handle(&mut self, _s: &mut Scheduler<u64>, add: u64) {
//!         self.0 += add;
//!     }
//! }
//!
//! // Two events bump the counter at different times.
//! let mut sim = Simulator::new(Counter(0));
//! sim.schedule_in(Duration::from_ns(5), 1);
//! sim.schedule_in(Duration::from_ns(10), 2);
//! sim.run();
//! assert_eq!(sim.model().0, 3);
//! assert_eq!(sim.now().as_ns(), 10);
//! ```

pub mod alloc_count;
pub mod calq;
pub mod channel;
pub mod digest;
pub mod engine;
pub mod explore;
pub mod fault;
pub mod hash;
pub mod par;
pub mod reference;
pub mod rng;
pub mod stats;
pub mod streams;
pub mod telemetry;
pub mod time;

pub use calq::{CalEntry, CalendarQueue};
pub use channel::{Channel, ChannelConfig};
pub use digest::Fnv;
pub use engine::{LivelockError, Model, Scheduler, Simulator};
pub use explore::{
    Counterexample, ProtocolModel, SearchOutcome, SearchStats, SplitMix64, StateLimit, Succ,
    Violation,
};
pub use fault::{cluster_targets, FaultPlan, FaultSpec, FaultTrigger};
pub use hash::{FxBuildHasher, FxHashMap};
pub use par::{Engine, Envelope, KeyedShard, ParReport, WorkKey};
pub use rng::{mix64, SimRng, SPLITMIX64_GAMMA};
pub use streams::{Keyed, SortedStreams};
pub use telemetry::{Instrumented, MetricsRegistry, TraceEvent, TraceRing};
pub use time::{Duration, Time};
