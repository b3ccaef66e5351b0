//! Replicated KV service under cluster faults.
//!
//! Not a paper figure — the robustness companion to the §6 cluster
//! bridge: the sharded primary-backup service of [`crate::service`]
//! swept across the fault scenarios (no faults, one board crash,
//! rolling crashes, partition-and-heal). For each scenario the driver
//! reports client-visible SLOs (latency percentiles per op class,
//! availability in and out of the fault window), the failover and
//! re-replication work the cluster did, and the engine accounting.
//!
//! Every run is audited before it is reported: the committed logs must
//! replay linearizably, and no acknowledged write may be lost. Every
//! number is a pure function of the scenario seed — the bench JSON is
//! byte-identical across `--threads` values, which `make determinism`
//! and the CI `determinism` matrix assert.

use crate::harness::check_engines;
use crate::service::{FaultScenario, ServiceConfig};
use enzian_sim::{MetricsRegistry, Time, TraceEvent};

/// One row of the sweep: the service under one fault scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceRow {
    /// Scenario label (`none`, `crash_one_board`, ...).
    pub scenario: &'static str,
    /// Operations acknowledged with a result.
    pub ok_ops: u64,
    /// Operations that ended in a terminal typed error.
    pub failed_ops: u64,
    /// Operations voided by their own board crashing mid-flight.
    pub crashed_ops: u64,
    /// GETs served from possibly-stale state.
    pub stale_served: u64,
    /// Availability for ops issued inside the fault window, percent.
    pub avail_in_pct: f64,
    /// Availability for ops issued outside the fault window, percent.
    pub avail_out_pct: f64,
    /// GET latency p50, microseconds (`None` when no GET completed).
    pub get_p50_us: Option<f64>,
    /// GET latency p99, microseconds.
    pub get_p99_us: Option<f64>,
    /// PUT latency p99, microseconds.
    pub put_p99_us: Option<f64>,
    /// Backup promotions.
    pub failovers: u64,
    /// Failover recovery p99 (detection gap), microseconds.
    pub failover_p99_us: Option<f64>,
    /// Entries committed without a backup ack.
    pub solo_commits: u64,
    /// Replicas fenced by a higher epoch.
    pub fenced: u64,
    /// Catch-ups completed.
    pub catchups_completed: u64,
    /// Lock-step epochs executed.
    pub epochs: u64,
    /// Cross-board envelopes exchanged.
    pub messages: u64,
    /// FNV-1a digest of all final board states.
    pub digest: u64,
}

/// The cluster every scenario runs on (seed and sizes fixed).
pub fn config() -> ServiceConfig {
    ServiceConfig::standard()
}

/// Runs the sweep on `threads` workers and returns one row per
/// scenario.
pub fn run(threads: usize) -> Vec<ServiceRow> {
    run_instrumented(threads, &mut MetricsRegistry::new())
}

/// [`run`], publishing each scenario's report under
/// `service.<label>.*`. The export is deterministic across thread
/// counts and runs.
///
/// # Panics
///
/// Panics when a scenario fails its audits: non-linearizable committed
/// logs, a lost acknowledged write, or a parallel run diverging from
/// the sequential reference.
pub fn run_instrumented(threads: usize, reg: &mut MetricsRegistry) -> Vec<ServiceRow> {
    let mut rows = Vec::new();
    let mut sim_end = Time::ZERO;
    let mut events = 0u64;
    for scenario in FaultScenario::all() {
        let cfg = config().with_scenario(scenario);
        let report = if scenario == FaultScenario::CrashOneBoard {
            // Cross-engine validation on the scenario where the fault,
            // failover and catch-up machinery is all exercised.
            check_engines(&[threads], |e| cfg.run(e))
        } else {
            cfg.run_parallel(threads)
        };
        report
            .verify_linearizable(cfg.store)
            .expect("committed logs must replay linearizably");
        report
            .audit_zero_lost_acks()
            .expect("no acknowledged write may be lost");
        let label = scenario.label();
        let row = ServiceRow {
            scenario: label,
            ok_ops: report.ok_ops,
            failed_ops: report.failed_ops,
            crashed_ops: report.crashed_ops,
            stale_served: report.stale_served,
            avail_in_pct: report.availability_in_window * 100.0,
            avail_out_pct: report.availability_out_window * 100.0,
            get_p50_us: report.slo.get.p50_micros(),
            get_p99_us: report.slo.get.p99_micros(),
            put_p99_us: report.slo.put.p99_micros(),
            failovers: report.failovers,
            failover_p99_us: report.slo.failover.p99_micros(),
            solo_commits: report.solo_commits,
            fenced: report.fenced,
            catchups_completed: report.catchups_completed,
            epochs: report.epochs,
            messages: report.messages,
            digest: report.digest,
        };
        let base = format!("service.{label}");
        report.export_metrics(&base, reg);
        reg.trace_event(
            TraceEvent::new(report.sim_end, "service", "scenario-done")
                .field("ok_ops", report.ok_ops)
                .field("failovers", report.failovers)
                .field("messages", report.messages),
        );
        sim_end = sim_end.max(report.sim_end);
        events += report.total_client_ops + report.messages;
        rows.push(row);
    }
    reg.counter_set("service.sim_time_ps", sim_end.as_ps());
    reg.counter_set("service.events_executed", events);
    rows
}

fn opt_us(v: Option<f64>) -> String {
    v.map_or_else(|| "-".into(), |x| format!("{x:.1}"))
}

/// Renders the sweep as a table.
pub fn render(rows: &[ServiceRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.to_string(),
                r.ok_ops.to_string(),
                r.failed_ops.to_string(),
                r.crashed_ops.to_string(),
                format!("{:.1}", r.avail_in_pct),
                format!("{:.2}", r.avail_out_pct),
                opt_us(r.get_p50_us),
                opt_us(r.get_p99_us),
                opt_us(r.put_p99_us),
                r.failovers.to_string(),
                opt_us(r.failover_p99_us),
                r.solo_commits.to_string(),
                r.catchups_completed.to_string(),
            ]
        })
        .collect();
    super::render_table(
        "Replicated KV service — SLOs under cluster faults (parallel engine)",
        &[
            "scenario",
            "ok",
            "fail",
            "crash",
            "avail_in[%]",
            "avail_out[%]",
            "get_p50[us]",
            "get_p99[us]",
            "put_p99[us]",
            "failovers",
            "fo_p99[us]",
            "solo",
            "catchups",
        ],
        &table_rows,
    )
}

/// Registry adapter: the replicated service through the
/// [`Experiment`](super::Experiment) trait.
pub struct Driver;

impl super::Experiment for Driver {
    fn name(&self) -> &'static str {
        "service"
    }

    fn needs_threads(&self) -> bool {
        true
    }

    fn run(&self, ctx: &mut super::ExperimentCtx<'_>) -> super::ExperimentRows {
        let rows = run_instrumented(ctx.threads, ctx.reg);
        let opt_cell = |v: Option<f64>| v.map_or_else(String::new, |x| x.to_string());
        let csv = rows
            .iter()
            .map(|r| {
                vec![
                    r.scenario.to_string(),
                    r.ok_ops.to_string(),
                    r.failed_ops.to_string(),
                    r.crashed_ops.to_string(),
                    r.stale_served.to_string(),
                    r.avail_in_pct.to_string(),
                    r.avail_out_pct.to_string(),
                    opt_cell(r.get_p50_us),
                    opt_cell(r.get_p99_us),
                    opt_cell(r.put_p99_us),
                    r.failovers.to_string(),
                    opt_cell(r.failover_p99_us),
                    r.solo_commits.to_string(),
                    r.fenced.to_string(),
                    r.catchups_completed.to_string(),
                    r.epochs.to_string(),
                    r.messages.to_string(),
                    r.digest.to_string(),
                ]
            })
            .collect();
        super::ExperimentRows {
            text: render(&rows),
            tables: vec![super::Table {
                name: "service",
                header: &[
                    "scenario",
                    "ok_ops",
                    "failed_ops",
                    "crashed_ops",
                    "stale_served",
                    "avail_in_pct",
                    "avail_out_pct",
                    "get_p50_us",
                    "get_p99_us",
                    "put_p99_us",
                    "failovers",
                    "failover_p99_us",
                    "solo_commits",
                    "fenced",
                    "catchups_completed",
                    "epochs",
                    "messages",
                    "digest",
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
        assert_eq!(rows.len(), 4);
        let base = &rows[0];
        assert_eq!(base.scenario, "none");
        assert_eq!(base.failed_ops, 0);
        assert_eq!(base.crashed_ops, 0);
        assert_eq!(base.failovers, 0);
        assert_eq!(base.avail_out_pct, 100.0);
        let crash = rows
            .iter()
            .find(|r| r.scenario == "crash_one_board")
            .expect("crash scenario present");
        assert!(crash.failovers >= 1);
        assert!(crash.failover_p99_us.is_some());
        assert!(crash.catchups_completed >= 1);
        assert!(
            crash.avail_out_pct >= 99.0,
            "out-of-window availability {} below the SLO",
            crash.avail_out_pct
        );
        let partition = rows
            .iter()
            .find(|r| r.scenario == "partition_heal")
            .expect("partition scenario present");
        assert!(partition.failovers >= 1);
        let s = render(&rows);
        assert!(s.contains("avail_out"));
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
        assert!(reg.counter("service.sim_time_ps") > 0);
        assert!(reg.counter("service.events_executed") > 0);
        for r in &rows {
            let base = format!("service.{}", r.scenario);
            assert_eq!(reg.counter(&format!("{base}.ok_ops")), r.ok_ops);
            assert_eq!(reg.counter(&format!("{base}.digest")), r.digest);
        }
    }
}
