//! Pipelining sweep: ECI read goodput vs outstanding-transaction count.
//!
//! Tracks the paper's Fig. 6 (ECI link bandwidth): the paper's FPGA keeps
//! many coherent line reads in flight to approach link line rate, while a
//! strictly serial requester is latency-bound far below it. This sweep
//! drives the event-driven transaction engine's async issue/poll API with
//! the MSHR transaction table as the outstanding-transaction knob: one
//! entry reproduces the serial facade's latency chain; deeper tables let
//! reads overlap until the link's response-data credits become the
//! bottleneck. The sweep is fully deterministic (no randomness anywhere
//! on this path), so two runs render byte-identical
//! `BENCH_pipelining.json` files — which CI asserts.

use enzian_eci::{EciSystem, EciSystemConfig, LinkPolicy};
use enzian_mem::Addr;
use enzian_sim::{Instrumented, MetricsRegistry, Time, TraceEvent};

/// One row of the sweep: an outstanding-transaction bound with the
/// goodput and latency observed under it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipeliningRow {
    /// MSHR entries: the maximum concurrently outstanding transactions.
    pub outstanding: usize,
    /// Payload goodput over the run, GiB/s of simulated time.
    pub goodput_gib: f64,
    /// Mean per-read latency (issue to completion), nanoseconds.
    pub mean_latency_ns: f64,
    /// In-flight high-water mark the engine actually reached.
    pub max_inflight: u64,
}

/// Lines read per sweep point.
const LINES: u64 = 1024;

/// Swept outstanding-transaction bounds. The first point is the serial
/// reference (one MSHR entry: each read waits out its predecessor).
pub const OUTSTANDING: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Runs the sweep and returns one row per outstanding-transaction bound.
pub fn run() -> Vec<PipeliningRow> {
    run_instrumented(&mut MetricsRegistry::new())
}

/// [`run`], publishing per-point gauges and each system's component
/// counters into `reg` under `pipelining.*`.
pub fn run_instrumented(reg: &mut MetricsRegistry) -> Vec<PipeliningRow> {
    let mut rows = Vec::new();
    let mut sim_end = Time::ZERO;
    let mut events = 0u64;
    for &outstanding in OUTSTANDING.iter() {
        let mut sys = EciSystem::new(
            EciSystemConfig::enzian()
                .with_policy(LinkPolicy::Single(0))
                .with_mshr_entries(outstanding),
        );
        let handles: Vec<_> = (0..LINES)
            .map(|i| sys.issue_read(Time::ZERO, Addr(i * 128)))
            .collect();
        sys.run_to_idle();

        let mut last = Time::ZERO;
        let mut latency_ps_sum = 0u64;
        for h in handles {
            let c = sys.take_completion(h).expect("every read completes");
            last = last.max(c.completed);
            latency_ps_sum += c.completed.since(c.issued).as_ps();
        }
        assert!(
            sys.checker().violations().is_empty(),
            "{outstanding} outstanding violated the protocol: {:?}",
            sys.checker().violations()
        );

        let engine = *sys.engine_stats();
        let row = PipeliningRow {
            outstanding,
            goodput_gib: (LINES * 128) as f64
                / last.since(Time::ZERO).as_secs_f64()
                / (1u64 << 30) as f64,
            mean_latency_ns: latency_ps_sum as f64 / LINES as f64 / 1000.0,
            max_inflight: engine.max_inflight,
        };

        let base = format!("pipelining.outstanding{outstanding:03}");
        reg.gauge_set(&format!("{base}.goodput_gib"), row.goodput_gib);
        reg.gauge_set(&format!("{base}.mean_latency_ns"), row.mean_latency_ns);
        reg.counter_set(&format!("{base}.max_inflight"), row.max_inflight);
        let mut tmp = MetricsRegistry::new();
        sys.export_metrics(&base, &mut tmp);
        reg.merge(&tmp);
        reg.trace_event(
            TraceEvent::new(last, "pipelining", "point-done")
                .field("outstanding", outstanding as u64)
                .field("goodput_gib", row.goodput_gib),
        );

        sim_end = sim_end.max(last);
        events += sys.links().messages_sent();
        rows.push(row);
    }
    reg.counter_set("pipelining.sim_time_ps", sim_end.as_ps());
    reg.counter_set("pipelining.events_executed", events);
    rows
}

/// Renders the sweep as a table.
pub fn render(rows: &[PipeliningRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.outstanding.to_string(),
                format!("{:.2}", r.goodput_gib),
                format!("{:.0}", r.mean_latency_ns),
                r.max_inflight.to_string(),
            ]
        })
        .collect();
    super::render_table(
        "Pipelining — single-link read goodput vs outstanding transactions (tracks Fig. 6)",
        &["outstanding", "goodput[GiB/s]", "latency[ns]", "in-flight"],
        &table_rows,
    )
}

/// Registry adapter: the pipelining sweep through the
/// [`Experiment`](super::Experiment) trait.
pub struct Driver;

impl super::Experiment for Driver {
    fn name(&self) -> &'static str {
        "pipelining"
    }

    fn run(&self, ctx: &mut super::ExperimentCtx<'_>) -> super::ExperimentRows {
        let rows = run_instrumented(ctx.reg);
        let csv = rows
            .iter()
            .map(|r| {
                vec![
                    r.outstanding.to_string(),
                    r.goodput_gib.to_string(),
                    r.mean_latency_ns.to_string(),
                    r.max_inflight.to_string(),
                ]
            })
            .collect();
        super::ExperimentRows {
            text: render(&rows),
            tables: vec![super::Table {
                name: "pipelining",
                header: &[
                    "outstanding",
                    "goodput_gib",
                    "mean_latency_ns",
                    "max_inflight",
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
        assert_eq!(rows.len(), OUTSTANDING.len());

        let serial = &rows[0];
        assert_eq!(serial.outstanding, 1);
        assert_eq!(serial.max_inflight, 1, "serial point must not overlap");

        // The acceptance bar: 8 outstanding strictly beats serial.
        let eight = rows.iter().find(|r| r.outstanding == 8).unwrap();
        assert!(
            eight.goodput_gib > serial.goodput_gib,
            "8 outstanding ({:.2} GiB/s) must beat serial ({:.2} GiB/s)",
            eight.goodput_gib,
            serial.goodput_gib
        );
        // Goodput is monotonically non-decreasing in the bound until the
        // link credits saturate it, and the bound is respected everywhere.
        for pair in rows.windows(2) {
            assert!(
                pair[1].goodput_gib >= pair[0].goodput_gib * 0.99,
                "goodput regressed between {} and {} outstanding",
                pair[0].outstanding,
                pair[1].outstanding
            );
        }
        for r in &rows {
            assert!(r.max_inflight <= r.outstanding as u64);
            assert!(r.mean_latency_ns > 0.0);
        }
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
        assert!(reg.counter("pipelining.sim_time_ps") > 0);
        assert!(reg.counter("pipelining.events_executed") > 0);
        for r in &rows {
            let base = format!("pipelining.outstanding{:03}", r.outstanding);
            assert_eq!(reg.counter(&format!("{base}.max_inflight")), r.max_inflight);
        }
        let s = render(&rows);
        assert!(s.contains("goodput"));
    }
}
