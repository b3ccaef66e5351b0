//! Cluster scaling on the conservative-parallel engine.
//!
//! Not a paper figure — this is the scaling companion to §6's bridge:
//! the same N-board global address space, now executed one board per
//! shard on [`EnzianCluster::run_parallel`]. For each board count the
//! driver reports the bridged traffic, the goodput the fabric carried,
//! and the epoch/message accounting of the parallel engine.
//!
//! Every number here is a pure function of the workload seed: the
//! engine's merge order never observes the worker partitioning, so
//! `BENCH_cluster_scale.json` is byte-identical for every `--threads`
//! value — which `make determinism` and the CI `determinism` matrix
//! assert.
//! Wall clock, the one thing that *does* depend on the thread count, is
//! reported on stderr only.

use crate::cluster::{ClusterWorkload, EnzianCluster};
use crate::harness::check_engines;
use enzian_sim::par::Engine;
use enzian_sim::{Instrumented, MetricsRegistry, Time, TraceEvent};

/// One row of the sweep: a cluster size under the scale workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterScaleRow {
    /// Boards in the cluster.
    pub boards: usize,
    /// Operations completed (local + bridged + failed).
    pub total_ops: u64,
    /// Percent of ops that crossed the bridge.
    pub remote_pct: f64,
    /// Bridge frames the fabric carried.
    pub bridge_frames: u64,
    /// Fabric goodput: line payload over the run, GiB/s of simulated
    /// time.
    pub goodput_gib: f64,
    /// Simulated completion time, microseconds.
    pub sim_end_us: f64,
    /// Lock-step epochs the conservative engine executed.
    pub epochs: u64,
    /// Quiet epochs the adaptive lookahead jumped over.
    pub epochs_skipped: u64,
    /// Cross-board envelopes exchanged.
    pub messages: u64,
    /// FNV-1a digest of all final board states.
    pub trace_digest: u64,
}

/// Swept cluster sizes.
pub const BOARD_COUNTS: [usize; 3] = [2, 4, 8];

/// Memory slice each board contributes to the global space.
pub const SLICE_BYTES: u64 = 1 << 20;

/// The workload every size runs (see [`ClusterWorkload::scale`]).
pub fn workload() -> ClusterWorkload {
    ClusterWorkload::scale()
}

/// Runs the sweep on `threads` workers and returns one row per size.
pub fn run(threads: usize) -> Vec<ClusterScaleRow> {
    run_instrumented(threads, &mut MetricsRegistry::new())
}

/// [`run`], publishing each size's report and board metric trees into
/// `reg` under `cluster_scale.*`. The export is deterministic across
/// thread counts and runs.
pub fn run_instrumented(threads: usize, reg: &mut MetricsRegistry) -> Vec<ClusterScaleRow> {
    let w = workload();
    let mut rows = Vec::new();
    let mut sim_end = Time::ZERO;
    let mut events = 0u64;
    for &n in &BOARD_COUNTS {
        let mut cluster = None;
        let mut run = |engine| {
            cluster
                .insert(EnzianCluster::new(n, SLICE_BYTES))
                .run(&w, engine)
        };
        let report = if n == BOARD_COUNTS[0] {
            // Cross-engine validation: the sequential reference driver
            // must reproduce the parallel run bit-for-bit.
            check_engines(&[threads], run)
        } else {
            run(Engine::Conservative(threads))
        };
        let cluster = cluster.expect("the cluster ran");
        let remote = report.remote_reads + report.remote_writes;
        let row = ClusterScaleRow {
            boards: n,
            total_ops: report.total_ops,
            remote_pct: remote as f64 / report.total_ops as f64 * 100.0,
            bridge_frames: report.fabric.frames,
            goodput_gib: report.fabric.payload_bytes as f64
                / report.sim_end.since(Time::ZERO).as_secs_f64()
                / (1u64 << 30) as f64,
            sim_end_us: report.sim_end.as_micros_f64(),
            epochs: report.epochs,
            epochs_skipped: report.epochs_skipped,
            messages: report.messages,
            trace_digest: report.digest,
        };
        let base = format!("cluster_scale.b{n}");
        report.export_metrics(&base, reg);
        reg.gauge_set(&format!("{base}.goodput_gib"), row.goodput_gib);
        cluster.export_metrics(&base, reg);
        reg.trace_event(
            TraceEvent::new(report.sim_end, "cluster_scale", "size-done")
                .field("boards", n as u64)
                .field("bridge_frames", report.fabric.frames)
                .field("messages", report.messages),
        );
        sim_end = sim_end.max(report.sim_end);
        events += report.total_ops + report.messages;
        rows.push(row);
    }
    reg.counter_set("cluster_scale.sim_time_ps", sim_end.as_ps());
    reg.counter_set("cluster_scale.events_executed", events);
    rows
}

/// Renders the sweep as a table.
pub fn render(rows: &[ClusterScaleRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.boards.to_string(),
                r.total_ops.to_string(),
                format!("{:.1}", r.remote_pct),
                r.bridge_frames.to_string(),
                format!("{:.2}", r.goodput_gib),
                format!("{:.1}", r.sim_end_us),
                r.epochs.to_string(),
                r.epochs_skipped.to_string(),
                r.messages.to_string(),
            ]
        })
        .collect();
    super::render_table(
        "Cluster scaling — bridged traffic vs board count (parallel engine)",
        &[
            "boards",
            "ops",
            "remote[%]",
            "frames",
            "goodput[GiB/s]",
            "sim[us]",
            "epochs",
            "skipped",
            "msgs",
        ],
        &table_rows,
    )
}

/// Registry adapter: cluster scaling through the
/// [`Experiment`](super::Experiment) trait.
pub struct Driver;

impl super::Experiment for Driver {
    fn name(&self) -> &'static str {
        "cluster_scale"
    }

    fn needs_threads(&self) -> bool {
        true
    }

    fn run(&self, ctx: &mut super::ExperimentCtx<'_>) -> super::ExperimentRows {
        let rows = run_instrumented(ctx.threads, ctx.reg);
        let csv = rows
            .iter()
            .map(|r| {
                vec![
                    r.boards.to_string(),
                    r.total_ops.to_string(),
                    r.remote_pct.to_string(),
                    r.bridge_frames.to_string(),
                    r.goodput_gib.to_string(),
                    r.sim_end_us.to_string(),
                    r.epochs.to_string(),
                    r.messages.to_string(),
                    r.trace_digest.to_string(),
                ]
            })
            .collect();
        super::ExperimentRows {
            text: render(&rows),
            tables: vec![super::Table {
                name: "cluster_scale",
                header: &[
                    "boards",
                    "total_ops",
                    "remote_pct",
                    "bridge_frames",
                    "goodput_gib",
                    "sim_end_us",
                    "epochs",
                    "messages",
                    "trace_digest",
                ],
                rows: csv,
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shape_holds() {
        let rows = run(2);
        assert_eq!(rows.len(), BOARD_COUNTS.len());
        for (row, &n) in rows.iter().zip(&BOARD_COUNTS) {
            assert_eq!(row.boards, n);
            assert!(row.bridge_frames > 0, "{n} boards must bridge traffic");
            assert!(row.goodput_gib > 0.0);
            assert!(row.epochs > 0);
            // Roughly the configured remote fraction actually crossed.
            assert!(row.remote_pct > 10.0 && row.remote_pct < 35.0);
        }
        // More boards, more total bridged work.
        assert!(rows[2].bridge_frames > rows[0].bridge_frames);
        let s = render(&rows);
        assert!(s.contains("goodput"));
    }

    #[test]
    fn rows_and_exports_are_thread_invariant() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        let rows_a = run_instrumented(1, &mut a);
        let rows_b = run_instrumented(2, &mut b);
        assert_eq!(rows_a, rows_b);
        assert_eq!(a.export_text(), b.export_text());
        assert_eq!(a.export_json(), b.export_json());
    }

    #[test]
    fn instrumented_run_feeds_the_bench_contract() {
        let mut reg = MetricsRegistry::new();
        let rows = run_instrumented(1, &mut reg);
        assert!(reg.counter("cluster_scale.sim_time_ps") > 0);
        assert!(reg.counter("cluster_scale.events_executed") > 0);
        for r in &rows {
            let base = format!("cluster_scale.b{}", r.boards);
            assert_eq!(
                reg.counter(&format!("{base}.bridge_frames")),
                r.bridge_frames
            );
            assert_eq!(reg.counter(&format!("{base}.trace_digest")), r.trace_digest);
        }
    }
}
