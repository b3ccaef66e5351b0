//! Congestion-control sweep over the split TCP stack: controller ×
//! loss rate × transfer size.
//!
//! Not a paper figure — this is the experiment the module split
//! (`crates/net/src/tcp/`) exists to enable. The monolithic engine could
//! only compare the two Fig. 7 endpoints (all-FPGA vs all-CPU); with
//! congestion control as a pluggable module the sweep can hold the cost
//! model fixed and vary *policy* (fixed hardware window vs Reno vs
//! CUBIC-shaped), and can run the hybrid stack — reliability in the FPGA
//! pipeline, congestion policy on the CPU — as a first-class point
//! between the extremes.
//!
//! Every cell is seeded (payloads and loss schedules derive from fixed
//! seeds), so two runs render byte-identical `BENCH_cc_sweep.json`
//! files — which `make determinism` and CI assert.

use enzian_net::eth::{EthLink, EthLinkConfig};
use enzian_net::tcp::{CcAlgorithm, LossPattern, TcpEngine, TcpStackConfig, SEGMENT_LOSS_TARGET};
use enzian_net::Switch;
use enzian_sim::{FaultPlan, FaultSpec, Instrumented, MetricsRegistry, SimRng, Time, TraceEvent};

/// One cell of the sweep: a (stack, loss rate, size) point.
#[derive(Debug, Clone, PartialEq)]
pub struct CcSweepRow {
    /// Stack label (cost model + controller), e.g. `"hybrid_reno"`.
    pub stack: String,
    /// Congestion-controller label (`"fixed"`, `"reno"`, `"cubic"`).
    pub cc: &'static str,
    /// Segment-loss probability in basis points (1/100 %).
    pub loss_bp: u64,
    /// Transfer size in bytes.
    pub size: u64,
    /// Application-to-application latency, µs.
    pub latency_us: f64,
    /// Goodput, Gb/s.
    pub gbps: f64,
    /// Segments sent (including retransmissions).
    pub segments: u64,
    /// Go-back-N rewind events (== RTO fires; the reliability module's
    /// single ledger).
    pub retransmissions: u64,
    /// Mean effective send window over the transfer, bytes.
    pub cwnd_mean: f64,
    /// Smallest effective send window seen, bytes.
    pub cwnd_min: f64,
    /// Largest effective send window seen, bytes.
    pub cwnd_max: f64,
    /// Stalls where the congestion window was the binding constraint.
    pub cwnd_stalls: u64,
    /// Stalls where the receive window was the binding constraint.
    pub rwnd_stalls: u64,
}

/// Base seed; every cell derives its payload and loss-plan seeds from it.
const SEED: u64 = 0xCC5E_ED00;

/// Swept loss rates, in basis points of per-first-transmission
/// probability.
pub const LOSS_BP: [u64; 3] = [0, 100, 500];

/// Swept transfer sizes, bytes.
pub const SIZES: [u64; 2] = [64 * 1024, 1024 * 1024];

/// The swept stacks: (label, config). Three controllers over the FPGA
/// cost model, the hybrid CPU/FPGA stack, and the kernel baseline.
pub fn stacks() -> Vec<(&'static str, TcpStackConfig)> {
    vec![
        ("fpga_fixed", TcpStackConfig::fpga_coyote()),
        (
            "fpga_reno",
            TcpStackConfig::fpga_coyote().with_cc(CcAlgorithm::Reno),
        ),
        (
            "fpga_cubic",
            TcpStackConfig::fpga_coyote().with_cc(CcAlgorithm::Cubic),
        ),
        ("hybrid_reno", TcpStackConfig::hybrid_offload()),
        ("kernel_fixed", TcpStackConfig::linux_kernel()),
    ]
}

/// Runs the sweep and returns one row per (stack, loss rate, size) cell.
pub fn run() -> Vec<CcSweepRow> {
    run_instrumented(&mut MetricsRegistry::new())
}

/// [`run`], publishing per-cell gauges plus each engine's full TCP
/// telemetry (per-module counters included) into `reg` under
/// `cc_sweep.*`.
pub fn run_instrumented(reg: &mut MetricsRegistry) -> Vec<CcSweepRow> {
    let mut rows = Vec::new();
    let mut sim_end = Time::ZERO;
    let mut events = 0u64;
    for (stack_idx, (label, cfg)) in stacks().into_iter().enumerate() {
        for &loss_bp in &LOSS_BP {
            for &size in &SIZES {
                // Payload seeded per size only, so every stack moves the
                // same bytes; the loss plan is seeded per cell so streams
                // never alias across cells.
                let mut rng = SimRng::seed_from(SEED ^ size);
                let mut data = vec![0u8; size as usize];
                rng.fill_bytes(&mut data);

                let mut engine = TcpEngine::new(cfg, cfg, Switch::tor());
                if loss_bp > 0 {
                    let cell_seed = SEED ^ ((stack_idx as u64 + 1) << 32) ^ (loss_bp << 16) ^ size;
                    let plan = FaultPlan::new(cell_seed).with(FaultSpec::probability(
                        SEGMENT_LOSS_TARGET,
                        loss_bp as f64 / 10_000.0,
                    ));
                    engine = engine.with_loss(LossPattern::from_plan(plan));
                }

                let mut link = EthLink::new(EthLinkConfig::hundred_gig());
                let (out, r) = engine.transfer(&mut link, Time::ZERO, &data);
                assert_eq!(out, data, "{label} corrupted the stream at {loss_bp} bp");

                let t = engine.telemetry();
                let m = t.module();
                let cwnd = &m.cwnd_bytes;
                let row = CcSweepRow {
                    stack: label.to_string(),
                    cc: cfg.cc.label(),
                    loss_bp,
                    size,
                    latency_us: r.latency().as_micros_f64(),
                    gbps: r.throughput_bits() / 1e9,
                    segments: r.segments,
                    retransmissions: r.retransmissions,
                    cwnd_mean: cwnd.mean(),
                    cwnd_min: cwnd.min().unwrap_or(0.0),
                    cwnd_max: cwnd.max().unwrap_or(0.0),
                    cwnd_stalls: m.cwnd_stalls,
                    rwnd_stalls: m.rwnd_stalls,
                };
                // Single ledger check: the engine's aggregate view, the
                // reliability module's derived export, and the outcome
                // all agree (the no-double-counting contract).
                assert_eq!(t.retransmissions(), r.retransmissions);
                assert_eq!(t.rto_fires(), r.retransmissions);

                let base = format!(
                    "cc_sweep.{label}.loss{loss_bp:04}bp.size{:04}kb",
                    size / 1024
                );
                reg.gauge_set(&format!("{base}.latency_us"), row.latency_us);
                reg.gauge_set(&format!("{base}.gbps"), row.gbps);
                let mut tmp = MetricsRegistry::new();
                t.export_metrics(&base, &mut tmp);
                reg.merge(&tmp);
                reg.trace_event(
                    TraceEvent::new(r.delivered, "cc_sweep", "cell-done")
                        .field("stack", label)
                        .field("loss_bp", loss_bp)
                        .field("size", size)
                        .field("retransmissions", r.retransmissions),
                );

                sim_end = sim_end.max(r.delivered);
                events += r.segments;
                rows.push(row);
            }
        }
    }
    reg.counter_set("cc_sweep.sim_time_ps", sim_end.as_ps());
    reg.counter_set("cc_sweep.events_executed", events);
    rows
}

/// Renders the sweep as a table.
pub fn render(rows: &[CcSweepRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.stack.clone(),
                r.cc.to_string(),
                format!("{:.2}", r.loss_bp as f64 / 100.0),
                (r.size / 1024).to_string(),
                format!("{:.1}", r.latency_us),
                format!("{:.1}", r.gbps),
                r.segments.to_string(),
                r.retransmissions.to_string(),
                format!("{:.0}", r.cwnd_mean / 1024.0),
                r.cwnd_stalls.to_string(),
            ]
        })
        .collect();
    super::render_table(
        "CC sweep — congestion controller x loss rate x transfer size",
        &[
            "stack", "cc", "loss[%]", "size[KB]", "lat[us]", "gbps", "segs", "retx", "cwnd[KB]",
            "cstalls",
        ],
        &table_rows,
    )
}

/// Registry adapter: the congestion-control sweep through the
/// [`Experiment`](super::Experiment) trait.
pub struct Driver;

impl super::Experiment for Driver {
    fn name(&self) -> &'static str {
        "cc_sweep"
    }

    fn run(&self, ctx: &mut super::ExperimentCtx<'_>) -> super::ExperimentRows {
        let rows = run_instrumented(ctx.reg);
        let csv = rows
            .iter()
            .map(|r| {
                vec![
                    r.stack.clone(),
                    r.cc.to_string(),
                    r.loss_bp.to_string(),
                    r.size.to_string(),
                    r.latency_us.to_string(),
                    r.gbps.to_string(),
                    r.segments.to_string(),
                    r.retransmissions.to_string(),
                    r.cwnd_mean.to_string(),
                    r.cwnd_min.to_string(),
                    r.cwnd_max.to_string(),
                    r.cwnd_stalls.to_string(),
                    r.rwnd_stalls.to_string(),
                ]
            })
            .collect();
        super::ExperimentRows {
            text: render(&rows),
            tables: vec![super::Table {
                name: "cc_sweep",
                header: &[
                    "stack",
                    "cc",
                    "loss_bp",
                    "size_b",
                    "latency_us",
                    "gbps",
                    "segments",
                    "retransmissions",
                    "cwnd_mean",
                    "cwnd_min",
                    "cwnd_max",
                    "cwnd_stalls",
                    "rwnd_stalls",
                ],
                rows: csv,
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell<'a>(rows: &'a [CcSweepRow], stack: &str, loss_bp: u64, size: u64) -> &'a CcSweepRow {
        rows.iter()
            .find(|r| r.stack == stack && r.loss_bp == loss_bp && r.size == size)
            .expect("cell present")
    }

    #[test]
    fn sweep_shape_holds() {
        let rows = run();
        assert_eq!(rows.len(), stacks().len() * LOSS_BP.len() * SIZES.len());

        let mib = 1024 * 1024;
        // The hybrid stack sits between the Fig. 7 extremes, lossless.
        let hw = cell(&rows, "fpga_fixed", 0, mib);
        let hy = cell(&rows, "hybrid_reno", 0, mib);
        let sw = cell(&rows, "kernel_fixed", 0, mib);
        assert!(hy.latency_us > hw.latency_us, "hybrid pays for CPU policy");
        assert!(hy.latency_us < sw.latency_us, "hybrid beats the kernel");

        // Policy reacts to loss: adaptive controllers shrink their mean
        // window under loss; the fixed pipeline window cannot.
        let reno_clean = cell(&rows, "fpga_reno", 0, mib);
        let reno_lossy = cell(&rows, "fpga_reno", 500, mib);
        assert!(reno_lossy.retransmissions > 0);
        assert!(
            reno_lossy.cwnd_mean < reno_clean.cwnd_mean,
            "Reno must back off under loss: {:.0} vs {:.0}",
            reno_lossy.cwnd_mean,
            reno_clean.cwnd_mean
        );
        let fixed_lossy = cell(&rows, "fpga_fixed", 500, mib);
        assert_eq!(fixed_lossy.cwnd_min, fixed_lossy.cwnd_max);

        // Slow start shows up as congestion-window stalls for the
        // adaptive stacks, and never for the fixed-window ones.
        assert!(cell(&rows, "fpga_reno", 0, mib).cwnd_stalls > 0);
        assert_eq!(cell(&rows, "fpga_fixed", 0, mib).cwnd_stalls, 0);
        assert_eq!(cell(&rows, "kernel_fixed", 0, mib).cwnd_stalls, 0);

        // Loss costs latency for every stack.
        for (label, _) in stacks() {
            let clean = cell(&rows, label, 0, mib);
            let lossy = cell(&rows, label, 500, mib);
            assert!(
                lossy.latency_us > clean.latency_us,
                "{label}: loss must cost latency"
            );
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
        assert!(reg.counter("cc_sweep.sim_time_ps") > 0);
        assert!(reg.counter("cc_sweep.events_executed") > 0);
        for r in &rows {
            let base = format!(
                "cc_sweep.{}.loss{:04}bp.size{:04}kb",
                r.stack,
                r.loss_bp,
                r.size / 1024
            );
            assert_eq!(
                reg.counter(&format!("{base}.retransmissions")),
                r.retransmissions
            );
            assert_eq!(
                reg.counter(&format!("{base}.reliability.rto_fires")),
                r.retransmissions,
                "derived module export must match the single ledger"
            );
        }
        let s = render(&rows);
        assert!(s.contains("cwnd"));
        assert!(s.contains("hybrid_reno"));
    }
}
