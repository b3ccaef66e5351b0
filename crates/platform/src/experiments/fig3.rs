//! Figure 3: CPU–FPGA performance summary across platforms.
//!
//! The paper adapts Choi et al.'s survey scatter (interconnect bandwidth
//! vs latency) and adds Enzian's points. Enzian's entries here are
//! *measured* from the workspace models (one ECI link, full ECI, and
//! FPGA-local DRAM); the commercial platforms carry their published
//! figures as documented constants (see
//! [`PlatformPreset::published_interconnect`]).

use enzian_mem::{Addr, MemoryController, Op};
use enzian_sim::{Instrumented, MetricsRegistry, Time, TraceEvent};

use crate::presets::PlatformPreset;

/// One point in the summary scatter.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Point {
    /// Series label.
    pub label: String,
    /// Sustained read bandwidth, GiB/s.
    pub bandwidth_gib: f64,
    /// Small-transfer latency, µs.
    pub latency_us: f64,
    /// Whether the point was measured from our models (vs published).
    pub measured: bool,
}

/// Produces all points of the summary.
pub fn run() -> Vec<Fig3Point> {
    run_instrumented(&mut MetricsRegistry::new())
}

/// [`run`], publishing per-point gauges, the measured systems' component
/// counters, and one trace event per point into `reg` under `fig3.*`.
pub fn run_instrumented(reg: &mut MetricsRegistry) -> Vec<Fig3Point> {
    let mut points = Vec::new();
    let mut sim_end = Time::ZERO;

    // Published survey platforms.
    for p in [
        PlatformPreset::AlphaData,
        PlatformPreset::AmazonF1,
        PlatformPreset::Capi,
        PlatformPreset::XeonFpgaV1,
        PlatformPreset::BroadwellArria,
    ] {
        let (bw, lat) = p.published_interconnect().expect("survey platform");
        points.push(Fig3Point {
            label: format!("{} ({})", p.name(), "published"),
            bandwidth_gib: bw,
            latency_us: lat,
            measured: false,
        });
    }

    // Enzian, one ECI link.
    let mut sys = PlatformPreset::enzian_system(true);
    let lines = 8192u64;
    let done = sys.fpga_read_burst(Time::ZERO, Addr(0), lines);
    let one_link_bw = (lines * 128) as f64 / done.as_secs_f64() / (1u64 << 30) as f64;
    sim_end = sim_end.max(done);
    let mut tmp = MetricsRegistry::new();
    sys.export_metrics("fig3.eci.one_link", &mut tmp);
    reg.merge(&tmp);
    let mut sys = PlatformPreset::enzian_system(true);
    let (_, t) = sys.fpga_read_line(Time::ZERO, Addr(0));
    let line_lat_us = t.as_micros_f64();
    sim_end = sim_end.max(t);
    points.push(Fig3Point {
        label: "Enzian (1 ECI link)".into(),
        bandwidth_gib: one_link_bw,
        latency_us: line_lat_us,
        measured: true,
    });

    // Enzian, full ECI (both links balanced).
    let mut sys = PlatformPreset::enzian_system(false);
    let done = sys.fpga_read_burst(Time::ZERO, Addr(0), lines);
    sim_end = sim_end.max(done);
    let mut tmp = MetricsRegistry::new();
    sys.export_metrics("fig3.eci.full", &mut tmp);
    reg.merge(&tmp);
    points.push(Fig3Point {
        label: "Enzian (full ECI)".into(),
        bandwidth_gib: (lines * 128) as f64 / done.as_secs_f64() / (1u64 << 30) as f64,
        latency_us: line_lat_us,
        measured: true,
    });

    // Enzian FPGA-side DRAM (what the FPGA reaches without any
    // interconnect at all).
    let mut mem = MemoryController::new(enzian_mem::MemoryControllerConfig::enzian_fpga());
    let total = 32u64 << 20;
    let mut last = Time::ZERO;
    let mut a = 0;
    let mut dram_requests = 0u64;
    while a < total {
        last = last.max(mem.request(Time::ZERO, Addr(a), 1024, Op::Read));
        a += 1024;
        dram_requests += 1;
    }
    sim_end = sim_end.max(last);
    points.push(Fig3Point {
        label: "Enzian DRAM".into(),
        bandwidth_gib: total as f64 / last.as_secs_f64() / (1u64 << 30) as f64,
        latency_us: 0.12,
        measured: true,
    });

    for p in &points {
        let slug = super::metric_slug(&p.label);
        reg.gauge_set(&format!("fig3.{slug}.bandwidth_gib"), p.bandwidth_gib);
        reg.gauge_set(&format!("fig3.{slug}.latency_us"), p.latency_us);
        reg.trace_event(
            TraceEvent::new(sim_end, "fig3", "point")
                .field("label", p.label.as_str())
                .field("bandwidth_gib", p.bandwidth_gib)
                .field("latency_us", p.latency_us)
                .field("measured", u64::from(p.measured)),
        );
    }
    reg.counter_set("fig3.points", points.len() as u64);
    reg.counter_set(
        "fig3.measured_points",
        points.iter().filter(|p| p.measured).count() as u64,
    );
    reg.counter_set("fig3.sim_time_ps", sim_end.as_ps());
    reg.counter_set(
        "fig3.events_executed",
        reg.counter("fig3.eci.one_link.link.messages")
            + reg.counter("fig3.eci.full.link.messages")
            + dram_requests,
    );

    points
}

/// Renders the scatter as a table.
pub fn render(points: &[Fig3Point]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.label.clone(),
                format!("{:.1}", p.bandwidth_gib),
                format!("{:.2}", p.latency_us),
                if p.measured { "measured" } else { "published" }.into(),
            ]
        })
        .collect();
    super::render_table(
        "Fig. 3 — CPU-FPGA performance summary",
        &["platform", "bw[GiB/s]", "latency[us]", "source"],
        &rows,
    )
}

/// Registry adapter: figure 3 through the [`Experiment`](super::Experiment) trait.
pub struct Driver;

impl super::Experiment for Driver {
    fn name(&self) -> &'static str {
        "fig3"
    }

    fn run(&self, ctx: &mut super::ExperimentCtx<'_>) -> super::ExperimentRows {
        let points = run_instrumented(ctx.reg);
        let rows = points
            .iter()
            .map(|p| {
                vec![
                    p.label.clone(),
                    p.bandwidth_gib.to_string(),
                    p.latency_us.to_string(),
                    p.measured.to_string(),
                ]
            })
            .collect();
        super::ExperimentRows {
            text: render(&points),
            tables: vec![super::Table {
                name: "fig3",
                header: &["platform", "bw_gib", "latency_us", "measured"],
                rows,
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enzian_extends_the_convex_hull() {
        let points = run();
        let get = |label: &str| {
            points
                .iter()
                .find(|p| p.label.contains(label))
                .unwrap_or_else(|| panic!("{label} missing"))
        };
        let one_link = get("1 ECI link");
        let full = get("full ECI");
        let dram = get("Enzian DRAM");
        let capi = get("CAPI");
        let harp = get("Broadwell");

        // One ECI link already beats CAPI and the QPI platform on
        // bandwidth; full ECI tops the survey.
        assert!(one_link.bandwidth_gib > capi.bandwidth_gib);
        assert!(full.bandwidth_gib > harp.bandwidth_gib);
        assert!(full.bandwidth_gib > 1.7 * one_link.bandwidth_gib * 0.9);
        // Local DRAM dwarfs every interconnect.
        assert!(dram.bandwidth_gib > full.bandwidth_gib * 2.0);
        // ECI latency is sub-microsecond, far below the PCIe cards'
        // software path.
        assert!(one_link.latency_us < 1.0);
        assert!(get("Alpha Data").latency_us > 50.0);
    }

    #[test]
    fn ten_points_with_sources() {
        let points = run();
        assert_eq!(points.len(), 8);
        assert_eq!(points.iter().filter(|p| p.measured).count(), 3);
        let s = render(&points);
        assert!(s.contains("Enzian DRAM") && s.contains("published"));
    }
}
