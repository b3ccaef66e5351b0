//! One run harness for the planes that ride the board fabric: the memory
//! bridge ([`crate::cluster`]), the replicated service
//! ([`crate::service`]) and the traffic generator ([`crate::traffic`]).
//! A plane builds its boards and names its lookahead; the harness drives
//! them on either engine and folds what every plane reports the same way.

use std::fmt::Debug;
use std::ops::Deref;

use enzian_sim::par::{Engine, KeyedShard};
use enzian_sim::{Duration, Fnv, Time};

use crate::cluster::FlowStats;

/// What one run of a fabric plane did: the fields every plane folds the
/// same way, and the plane's own totals in `stats`, whose fields read
/// through the report itself.
///
/// Only `epochs` and `epochs_skipped` depend on the engine. Every other
/// field, and any metrics or bench JSON derived from them, is a pure
/// function of the plane's workload and bit-identical for every thread
/// count: each board's work is a pure function of its own state plus a
/// deterministically ordered inbox, and the merge order `(time, src,
/// seq)` never observes the partitioning.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport<S> {
    /// Boards simulated.
    pub boards: usize,
    /// Frames, payload and encoded bytes the boards handed to the fabric.
    pub fabric: FlowStats,
    /// Latest instant any board observed.
    pub sim_end: Time,
    /// Lock-step epochs executed (zero under the reference driver).
    pub epochs: u64,
    /// Quiet epochs the engine jumped over (zero under the reference).
    pub epochs_skipped: u64,
    /// Cross-board envelopes exchanged.
    pub messages: u64,
    /// FNV-1a digest over every board's final state, in board order.
    pub digest: u64,
    /// The plane's own totals.
    pub stats: S,
}

impl<S> Deref for RunReport<S> {
    type Target = S;

    fn deref(&self) -> &S {
        &self.stats
    }
}

impl<S: PartialEq + Debug> RunReport<S> {
    /// Asserts this report equals `other` on every field but `epochs`
    /// and `epochs_skipped`: a parallel run against the reference
    /// driver's report of the same workload must pass.
    ///
    /// # Panics
    ///
    /// Panics when any other field differs.
    pub fn assert_matches(&self, other: &Self) {
        let key = |r: &Self| (r.boards, r.fabric, r.sim_end, r.messages, r.digest);
        let plane = std::any::type_name::<S>();
        assert_eq!(key(self), key(other), "{plane} run reports diverge");
        assert_eq!(self.stats, other.stats, "{plane} run reports diverge");
    }
}

/// One board of a fabric plane, as [`run`] folds it.
pub(crate) trait FabricBoard: KeyedShard {
    /// The board's fabric totals (its port's `audit`) and the latest
    /// instant it observed.
    fn fabric_end(&self) -> (FlowStats, Time);

    /// Folds the board's externally observable final state into `d`.
    fn digest_into(&self, d: &mut Fnv);
}

/// Runs `boards` to quiescence on `engine`, asserts that every board is
/// idle, and folds their ids and digests (in board order), fabric
/// totals and latest instants. `stats` then folds the plane's own
/// totals from the finished boards.
pub(crate) fn run<B: FabricBoard, S>(
    mut boards: Vec<B>,
    lookahead: Duration,
    engine: Engine,
    stats: impl FnOnce(Vec<B>) -> S,
) -> RunReport<S> {
    let par = engine.run(&mut boards, lookahead);
    let mut digest = Fnv::new();
    let (mut fabric, mut sim_end) = (FlowStats::default(), Time::ZERO);
    for (id, b) in boards.iter().enumerate() {
        assert!(b.idle(), "run finished with live work on a board");
        digest.u64(id as u64);
        b.digest_into(&mut digest);
        let (total, last) = b.fabric_end();
        fabric.frames += total.frames;
        fabric.payload_bytes += total.payload_bytes;
        fabric.wire_bytes += total.wire_bytes;
        sim_end = sim_end.max(last);
    }
    RunReport {
        boards: boards.len(),
        fabric,
        sim_end,
        epochs: par.epochs,
        epochs_skipped: par.epochs_skipped,
        messages: par.messages,
        digest: digest.finish(),
        stats: stats(boards),
    }
}

/// Runs a plane on the sequential reference driver and then on the
/// parallel engine at each of `threads`, asserts that the first parallel
/// report [matches](RunReport::assert_matches) the reference and that
/// every other one equals it, epoch counts included, and returns it.
///
/// # Panics
///
/// Panics on an empty `threads`, on any disagreement, and wherever a run
/// panics.
pub fn check_engines<S: PartialEq + Debug>(
    threads: &[usize],
    mut run: impl FnMut(Engine) -> RunReport<S>,
) -> RunReport<S> {
    let reference = run(Engine::Sequential);
    assert_eq!(reference.epochs, 0, "the reference driver runs no epochs");
    let mut parallel = threads.iter().map(|&t| run(Engine::Conservative(t)));
    let first = parallel.next().expect("at least one thread count");
    first.assert_matches(&reference);
    assert!(first.epochs > 0, "a parallel run executes epochs");
    for report in parallel {
        assert_eq!(report, first, "thread counts diverge");
    }
    first
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterWorkload, EnzianCluster, ServiceConfig, TrafficWorkload};

    /// The comparison catches a different `messages` value or digest and
    /// ignores different epoch counts.
    fn check_the_comparison<S: Clone + PartialEq + Debug>(report: RunReport<S>) {
        let mut other = report.clone();
        other.epochs += 1;
        other.epochs_skipped += 1;
        report.assert_matches(&other);
        for change in [
            (|r: &mut RunReport<S>| r.messages += 1) as fn(&mut RunReport<S>),
            |r| r.digest ^= 1,
        ] {
            let mut other = report.clone();
            change(&mut other);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                report.assert_matches(&other)
            }));
            assert!(caught.is_err(), "a changed report still matches");
        }
    }

    #[test]
    fn the_cross_engine_comparison_ignores_only_epoch_counts() {
        check_the_comparison(
            EnzianCluster::new(2, 1 << 20).run_reference(&ClusterWorkload::small()),
        );
        check_the_comparison(TrafficWorkload::small().run_reference());
        check_the_comparison(ServiceConfig::small().run_reference());
    }
}
