//! Fault sweep: goodput and recovery behaviour vs injected fault rate.
//!
//! Not a paper figure — this is the robustness companion to Fig. 6: the
//! same coherent FPGA↔CPU traffic, now driven through seeded fault
//! schedules of increasing severity (frame corruption, frame drops and
//! transaction stalls together). For each rate the sweep reports the
//! goodput the requesters still observe, how many frames the link-level
//! replay machinery retransmitted, how often the transaction layer timed
//! out and retried, and the distribution of recovery latencies. The
//! entire sweep is seeded, so two runs render byte-identical
//! `BENCH_fault_sweep.json` files — which `make determinism` and CI assert.

use enzian_eci::link::fault_targets;
use enzian_eci::system::TXN_STALL_TARGET;
use enzian_eci::{EciSystem, EciSystemConfig, TxnError};
use enzian_mem::Addr;
use enzian_sim::{Duration, FaultPlan, FaultSpec, Instrumented, MetricsRegistry, Time, TraceEvent};

/// One row of the sweep: a fault rate with everything observed under it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSweepRow {
    /// Per-opportunity fault probability, in basis points (1/100 %).
    pub rate_bp: u64,
    /// Payload the requesters completed, GiB/s of simulated time.
    pub goodput_gib: f64,
    /// Faults the plan injected across all targets.
    pub injected: u64,
    /// Frames the link replay machinery retransmitted.
    pub retransmissions: u64,
    /// Transaction-layer timeouts that retried and then succeeded.
    pub txn_retries: u64,
    /// Operations that spent the whole retry budget (surfaced as
    /// [`TxnError`], never as a hang).
    pub txn_failures: u64,
    /// Mean fault-to-recovery latency, nanoseconds.
    pub mean_recovery_ns: f64,
}

/// Base seed of the sweep; each rate derives its plan seed from it.
const SEED: u64 = 0xFA17_5EED;

/// Write/read pairs driven at each rate.
const OPS: u64 = 1024;

/// Distinct cache lines the workload cycles over.
const SLOTS: u64 = 32;

/// Swept fault rates, in basis points of per-opportunity probability.
pub const RATES_BP: [u64; 6] = [0, 50, 100, 200, 500, 1000];

/// The seeded schedule for one rate: frame corruption at the full rate,
/// drops at half, transaction stalls at a quarter.
fn plan_for(rate_bp: u64, index: u64) -> FaultPlan {
    let p = rate_bp as f64 / 10_000.0;
    FaultPlan::new(SEED ^ (index + 1))
        .with(FaultSpec::probability(fault_targets::FRAME_CORRUPT, p))
        .with(FaultSpec::probability(fault_targets::FRAME_DROP, p / 2.0))
        .with(FaultSpec::probability(TXN_STALL_TARGET, p / 4.0))
}

/// Runs the sweep and returns one row per fault rate.
pub fn run() -> Vec<FaultSweepRow> {
    run_instrumented(&mut MetricsRegistry::new())
}

/// [`run`], publishing per-rate gauges, the recovery-latency histogram,
/// each system's component counters and the fault ledgers into `reg`
/// under `fault_sweep.*`.
pub fn run_instrumented(reg: &mut MetricsRegistry) -> Vec<FaultSweepRow> {
    let mut rows = Vec::new();
    let mut sim_end = Time::ZERO;
    let mut events = 0u64;
    for (index, &rate_bp) in RATES_BP.iter().enumerate() {
        let mut sys = EciSystem::new(EciSystemConfig::enzian());
        sys.set_fault_plan(plan_for(rate_bp, index as u64));

        let mut t = Time::ZERO;
        let mut delivered_bytes = 0u64;
        let mut txn_failures = 0u64;
        for i in 0..OPS {
            let addr = Addr((i % SLOTS) * 128);
            let fill = (i % 251) as u8;
            match sys.try_fpga_write_line(t, addr, &[fill; 128]) {
                Ok(done) => {
                    t = done;
                    delivered_bytes += 128;
                }
                Err(TxnError::RetryBudgetExhausted { .. }) => {
                    txn_failures += 1;
                    // The op is abandoned; the requester moves on.
                    t += Duration::from_us(1);
                    continue;
                }
            }
            match sys.try_fpga_read_line(t, addr) {
                Ok((data, done)) => {
                    assert_eq!(data, [fill; 128], "payload damaged at {rate_bp} bp");
                    t = done;
                    delivered_bytes += 128;
                }
                Err(TxnError::RetryBudgetExhausted { .. }) => {
                    txn_failures += 1;
                    t += Duration::from_us(1);
                }
            }
        }
        assert!(
            sys.checker().violations().is_empty(),
            "rate {rate_bp} bp violated the protocol: {:?}",
            sys.checker().violations()
        );

        let plan = sys.fault_plan().expect("plan stays installed");
        let stats = *sys.stats();
        // Recovery latency histogram, harvested from the plan's ledger.
        let mut recovery_ps_sum = 0u64;
        let mut recoveries = 0u64;
        for latency in plan.records().filter_map(|r| r.recovery) {
            reg.record_latency("fault_sweep.recovery", latency);
            recovery_ps_sum += latency.as_ps();
            recoveries += 1;
        }
        let mean_recovery_ns = if recoveries == 0 {
            0.0
        } else {
            recovery_ps_sum as f64 / recoveries as f64 / 1000.0
        };

        let row = FaultSweepRow {
            rate_bp,
            goodput_gib: delivered_bytes as f64
                / t.since(Time::ZERO).as_secs_f64()
                / (1u64 << 30) as f64,
            injected: plan.total_injected(),
            retransmissions: sys.links().retransmissions(),
            txn_retries: stats.txn_retries,
            txn_failures,
            mean_recovery_ns,
        };
        debug_assert_eq!(txn_failures, stats.txn_failures);

        let base = format!("fault_sweep.rate{rate_bp:04}");
        reg.gauge_set(&format!("{base}.goodput_gib"), row.goodput_gib);
        reg.counter_set(&format!("{base}.injected"), row.injected);
        reg.counter_set(&format!("{base}.retransmissions"), row.retransmissions);
        reg.counter_set(&format!("{base}.txn_retries"), row.txn_retries);
        reg.counter_set(&format!("{base}.txn_failures"), row.txn_failures);
        let mut tmp = MetricsRegistry::new();
        sys.export_metrics(&base, &mut tmp);
        reg.merge(&tmp);
        reg.trace_event(
            TraceEvent::new(t, "fault_sweep", "rate-done")
                .field("rate_bp", rate_bp)
                .field("goodput_gib", row.goodput_gib)
                .field("injected", row.injected),
        );

        sim_end = sim_end.max(t);
        events += sys.links().messages_sent() + row.retransmissions + row.injected;
        rows.push(row);
    }
    reg.counter_set("fault_sweep.sim_time_ps", sim_end.as_ps());
    reg.counter_set("fault_sweep.events_executed", events);
    rows
}

/// Renders the sweep as a table.
pub fn render(rows: &[FaultSweepRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.2}", r.rate_bp as f64 / 100.0),
                format!("{:.2}", r.goodput_gib),
                r.injected.to_string(),
                r.retransmissions.to_string(),
                r.txn_retries.to_string(),
                r.txn_failures.to_string(),
                format!("{:.0}", r.mean_recovery_ns),
            ]
        })
        .collect();
    super::render_table(
        "Fault sweep — goodput and recovery vs injected fault rate",
        &[
            "fault[%]",
            "goodput[GiB/s]",
            "injected",
            "retransmits",
            "retries",
            "failures",
            "recovery[ns]",
        ],
        &table_rows,
    )
}

/// Registry adapter: the fault sweep through the
/// [`Experiment`](super::Experiment) trait.
pub struct Driver;

impl super::Experiment for Driver {
    fn name(&self) -> &'static str {
        "fault_sweep"
    }

    fn run(&self, ctx: &mut super::ExperimentCtx<'_>) -> super::ExperimentRows {
        let rows = run_instrumented(ctx.reg);
        let csv = rows
            .iter()
            .map(|r| {
                vec![
                    r.rate_bp.to_string(),
                    r.goodput_gib.to_string(),
                    r.injected.to_string(),
                    r.retransmissions.to_string(),
                    r.txn_retries.to_string(),
                    r.txn_failures.to_string(),
                    r.mean_recovery_ns.to_string(),
                ]
            })
            .collect();
        super::ExperimentRows {
            text: render(&rows),
            tables: vec![super::Table {
                name: "fault_sweep",
                header: &[
                    "rate_bp",
                    "goodput_gib",
                    "injected",
                    "retransmissions",
                    "txn_retries",
                    "txn_failures",
                    "mean_recovery_ns",
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
        let rows = run();
        assert_eq!(rows.len(), RATES_BP.len());

        let clean = &rows[0];
        assert_eq!(clean.injected, 0, "rate 0 must inject nothing");
        assert_eq!(clean.retransmissions, 0);
        assert_eq!(clean.txn_failures, 0);

        let worst = rows.last().unwrap();
        assert!(worst.injected > 0, "10% must inject");
        assert!(worst.retransmissions > 0, "10% must retransmit");
        assert!(
            worst.goodput_gib < clean.goodput_gib,
            "faults must cost goodput: {:.2} vs {:.2}",
            worst.goodput_gib,
            clean.goodput_gib
        );
        assert!(worst.mean_recovery_ns > 0.0);
        // Goodput degrades gracefully, not catastrophically: even at 10%
        // per-frame faults the replay machinery keeps most of it.
        assert!(
            worst.goodput_gib > clean.goodput_gib * 0.4,
            "degradation not graceful: {:.2} vs {:.2}",
            worst.goodput_gib,
            clean.goodput_gib
        );
    }

    #[test]
    fn sweep_is_deterministic() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        assert_eq!(run_instrumented(&mut a), run_instrumented(&mut b));
        assert_eq!(a.export_text(), b.export_text());
        assert_eq!(a.export_json(), b.export_json());
    }

    #[test]
    fn instrumented_run_feeds_the_bench_contract() {
        let mut reg = MetricsRegistry::new();
        let rows = run_instrumented(&mut reg);
        assert!(reg.counter("fault_sweep.sim_time_ps") > 0);
        assert!(reg.counter("fault_sweep.events_executed") > 0);
        for r in &rows {
            let base = format!("fault_sweep.rate{:04}", r.rate_bp);
            assert_eq!(reg.counter(&format!("{base}.injected")), r.injected);
        }
        let s = render(&rows);
        assert!(s.contains("goodput"));
    }
}
