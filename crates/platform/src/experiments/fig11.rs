//! Figure 11 and Table 1: the custom memory controller experiment.
//!
//! The vision pipeline runs with three configurations — no reduction
//! (soft RGB2Y on the CPU), hardware RGB2Y at 8 bpp, and hardware RGB2Y
//! with 4-bit quantisation — while the active core count sweeps 1..48.
//! Fig. 11 plots pixel throughput and interconnect bandwidth; Table 1
//! reports the PMU counters at 48 threads.
//!
//! The functional half (the actual pixels) is validated in
//! `enzian-apps::reduction`; here the per-mode [`WorkloadProfile`](enzian_cache::WorkloadProfile)s feed
//! the in-order core model, with the interconnect budget set by the two
//! ECI links under CPU-initiated load balancing.

use enzian_apps::reduction::ReductionMode;
use enzian_cache::CoreTimingModel;
use enzian_sim::{Duration, Instrumented, MetricsRegistry, Time, TraceEvent};

/// Shared fetch bandwidth available to the cores across both ECI links,
/// bytes per second (CPU-initiated requests balance over both).
pub const INTERCONNECT_BYTES_PER_SEC: f64 = 21.5e9;

/// One sample of the figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig11Row {
    /// Reduction mode.
    pub mode: ReductionMode,
    /// Active cores.
    pub cores: u32,
    /// Aggregate pixel throughput, Gpixel/s.
    pub gpixels_per_sec: f64,
    /// Interconnect traffic, GiB/s.
    pub interconnect_gib: f64,
}

/// Table 1: PMU counts at 48 threads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// Reduction mode.
    pub mode: ReductionMode,
    /// Memory stalls per cycle.
    pub memory_stalls_per_cycle: f64,
    /// Cycles per L1 refill, in thousands.
    pub cycles_per_l1_refill_k: f64,
}

/// Runs the Fig. 11 sweep: all modes, cores 1..=48.
pub fn run() -> Vec<Fig11Row> {
    run_instrumented(&mut MetricsRegistry::new())
}

/// [`run`], publishing per-mode gauges at 48 cores, each mode's PMU
/// window (`fig11.pmu.<mode>.*`), and one trace event per mode into
/// `reg` under `fig11.*`. The PMU counters cover a one-second
/// steady-state window, which is also the reported sim time.
pub fn run_instrumented(reg: &mut MetricsRegistry) -> Vec<Fig11Row> {
    let cpu = CoreTimingModel::thunderx1();
    let window_end = Time::ZERO + Duration::from_secs(1);
    let mut rows = Vec::new();
    let mut total_cycles = 0u64;
    for mode in ReductionMode::ALL {
        let profile = mode.workload_profile();
        let slug = super::metric_slug(mode.label());
        for cores in 1..=48u32 {
            let s = cpu.steady_state(&profile, cores, INTERCONNECT_BYTES_PER_SEC);
            if cores == 48 {
                reg.gauge_set(
                    &format!("fig11.{slug}.gpixels_per_sec"),
                    s.units_per_sec / 1e9,
                );
                reg.gauge_set(
                    &format!("fig11.{slug}.interconnect_gib"),
                    s.interconnect_bytes_per_sec / (1u64 << 30) as f64,
                );
                s.pmu.export_metrics(&format!("fig11.pmu.{slug}"), reg);
                total_cycles += s.pmu.cycles();
                reg.trace_event(
                    TraceEvent::new(window_end, "fig11", "mode-done")
                        .field("mode", mode.label())
                        .field("cores", u64::from(cores))
                        .field("gpixels_per_sec", s.units_per_sec / 1e9),
                );
            }
            rows.push(Fig11Row {
                mode,
                cores,
                gpixels_per_sec: s.units_per_sec / 1e9,
                interconnect_gib: s.interconnect_bytes_per_sec / (1u64 << 30) as f64,
            });
        }
    }
    reg.counter_set("fig11.sim_time_ps", window_end.as_ps());
    reg.counter_set("fig11.events_executed", total_cycles);
    rows
}

/// Runs Table 1: the PMU counters at 48 threads.
pub fn run_table1() -> Vec<Table1Row> {
    let cpu = CoreTimingModel::thunderx1();
    ReductionMode::ALL
        .iter()
        .map(|&mode| {
            let s = cpu.steady_state(&mode.workload_profile(), 48, INTERCONNECT_BYTES_PER_SEC);
            Table1Row {
                mode,
                memory_stalls_per_cycle: s.pmu.memory_stalls_per_cycle(),
                cycles_per_l1_refill_k: s.pmu.cycles_per_l1_refill().unwrap_or(0.0) / 1e3,
            }
        })
        .collect()
}

/// The paper's Table 1 values: (mode, stalls/cycle, cycles/refill ×10³).
pub fn paper_table1() -> Vec<(ReductionMode, f64, f64)> {
    vec![
        (ReductionMode::None, 0.025, 1.84),
        (ReductionMode::Y8, 0.005, 5.16),
        (ReductionMode::Y4, 0.005, 10.50),
    ]
}

/// Renders Fig. 11 at selected core counts plus Table 1.
pub fn render(rows: &[Fig11Row], table1: &[Table1Row]) -> String {
    let picks = [1u32, 6, 12, 24, 36, 48];
    let mut table = Vec::new();
    for &cores in &picks {
        for r in rows.iter().filter(|r| r.cores == cores) {
            table.push(vec![
                r.cores.to_string(),
                r.mode.label().into(),
                format!("{:.3}", r.gpixels_per_sec),
                format!("{:.2}", r.interconnect_gib),
            ]);
        }
    }
    let mut out = super::render_table(
        "Fig. 11 — Vision pipeline throughput and interconnect bandwidth",
        &["cores", "mode", "Gpx/s", "IC[GiB/s]"],
        &table,
    );
    out.push('\n');
    let paper = paper_table1();
    let t1: Vec<Vec<String>> = table1
        .iter()
        .map(|r| {
            let (_, p_stall, p_refill) = paper
                .iter()
                .find(|(m, _, _)| *m == r.mode)
                .expect("mode present");
            vec![
                r.mode.label().into(),
                format!("{:.3}", r.memory_stalls_per_cycle),
                format!("{p_stall:.3}"),
                format!("{:.2}", r.cycles_per_l1_refill_k),
                format!("{p_refill:.2}"),
            ]
        })
        .collect();
    out.push_str(&super::render_table(
        "Table 1 — Pipeline PMU counts (48 threads)",
        &["mode", "stalls/cyc", "paper", "cyc/refill[k]", "paper"],
        &t1,
    ));
    out
}

/// Registry adapter: figure 11 + Table 1 through the
/// [`Experiment`](super::Experiment) trait.
pub struct Driver;

impl super::Experiment for Driver {
    fn name(&self) -> &'static str {
        "fig11"
    }

    fn run(&self, ctx: &mut super::ExperimentCtx<'_>) -> super::ExperimentRows {
        let figure = run_instrumented(ctx.reg);
        let table1 = run_table1();
        let fig_csv = figure
            .iter()
            .map(|r| {
                vec![
                    r.mode.label().to_string(),
                    r.cores.to_string(),
                    r.gpixels_per_sec.to_string(),
                    r.interconnect_gib.to_string(),
                ]
            })
            .collect();
        let t1_csv = table1
            .iter()
            .map(|r| {
                vec![
                    r.mode.label().to_string(),
                    r.memory_stalls_per_cycle.to_string(),
                    r.cycles_per_l1_refill_k.to_string(),
                ]
            })
            .collect();
        super::ExperimentRows {
            text: render(&figure, &table1),
            tables: vec![
                super::Table {
                    name: "fig11",
                    header: &["mode", "cores", "gpixels_per_sec", "interconnect_gib"],
                    rows: fig_csv,
                },
                super::Table {
                    name: "table1",
                    header: &["mode", "stalls_per_cycle", "cycles_per_l1_refill_k"],
                    rows: t1_csv,
                },
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(rows: &[Fig11Row], mode: ReductionMode, cores: u32) -> &Fig11Row {
        rows.iter()
            .find(|r| r.mode == mode && r.cores == cores)
            .expect("row")
    }

    #[test]
    fn figure11_shape_holds() {
        let rows = run();
        assert_eq!(rows.len(), 3 * 48);

        // Baseline scales linearly to 48 cores at ~33 Mpx/s/core.
        let b1 = row(&rows, ReductionMode::None, 1);
        let b48 = row(&rows, ReductionMode::None, 48);
        assert!((31.0..35.0).contains(&(b1.gpixels_per_sec * 1e3)));
        let scaling = b48.gpixels_per_sec / b1.gpixels_per_sec;
        assert!((47.0..49.0).contains(&scaling), "scaling {scaling:.1}");

        // Hardware RGB2Y uplift at 48 cores: ~39% (8bpp), ~33% (4bpp).
        let y8 = row(&rows, ReductionMode::Y8, 48);
        let y4 = row(&rows, ReductionMode::Y4, 48);
        let up8 = (y8.gpixels_per_sec - b48.gpixels_per_sec) / b48.gpixels_per_sec;
        let up4 = (y4.gpixels_per_sec - b48.gpixels_per_sec) / b48.gpixels_per_sec;
        assert!(
            (0.33..0.45).contains(&up8),
            "8bpp uplift {:.0}%",
            up8 * 100.0
        );
        assert!(
            (0.27..0.39).contains(&up4),
            "4bpp uplift {:.0}%",
            up4 * 100.0
        );
        assert!(y4.gpixels_per_sec < y8.gpixels_per_sec);

        // Interconnect panel: baseline ~6.3 GiB/s at 48 cores; the 4x
        // data reduction yields ~3x lower interconnect traffic, the
        // further 2x another ~2x.
        assert!(
            (5.5..7.0).contains(&b48.interconnect_gib),
            "baseline IC {:.2}",
            b48.interconnect_gib
        );
        let r8 = b48.interconnect_gib / y8.interconnect_gib;
        assert!((2.6..3.2).contains(&r8), "8bpp IC reduction {r8:.2}");
        let r4 = y8.interconnect_gib / y4.interconnect_gib;
        assert!((1.8..2.2).contains(&r4), "4bpp further reduction {r4:.2}");
    }

    #[test]
    fn table1_matches_paper_within_tolerance() {
        let t1 = run_table1();
        for (mode, p_stall, p_refill_k) in paper_table1() {
            let r = t1.iter().find(|r| r.mode == mode).unwrap();
            let stall_err = (r.memory_stalls_per_cycle - p_stall).abs() / p_stall;
            let refill_err = (r.cycles_per_l1_refill_k - p_refill_k).abs() / p_refill_k;
            assert!(
                stall_err < 0.25,
                "{}: stalls {:.4} vs paper {p_stall}",
                mode.label(),
                r.memory_stalls_per_cycle
            );
            assert!(
                refill_err < 0.15,
                "{}: refill {:.2}k vs paper {p_refill_k}k",
                mode.label(),
                r.cycles_per_l1_refill_k
            );
        }
    }

    #[test]
    fn dram_utilisation_rises_with_offload() {
        // §5.4: "moving the RGB2Y step across the interconnect allows the
        // application to increase its DRAM utilisation from 6 to 8 GiB/s"
        // (FPGA-side DRAM reads 4 B per pixel in every mode).
        let rows = run();
        let dram = |mode| {
            let r = row(&rows, mode, 48);
            r.gpixels_per_sec * 4.0 * 1e9 / (1u64 << 30) as f64
        };
        let base = dram(ReductionMode::None);
        let offl = dram(ReductionMode::Y8);
        assert!((5.5..7.0).contains(&base), "baseline DRAM {base:.1} GiB/s");
        assert!((7.5..9.5).contains(&offl), "offloaded DRAM {offl:.1} GiB/s");
    }
}
