//! Figure 6: link performance — ECI (one link) vs PCIe x16 Gen3.
//!
//! *"We benchmark the FPGA reading and writing (using uncached, coherent,
//! cacheline-sized transactions) over ECI to host (CPU) memory. We
//! compare Enzian with a Xilinx Alveo u250 … using 16-lane PCIe Gen3 …
//! We measure achieved data throughput and latency for various transfer
//! sizes."* Transfer sizes are 2⁷..2¹⁴ bytes.

use enzian_mem::Addr;
use enzian_sim::{Instrumented, MetricsRegistry, Time, TraceEvent};

use crate::presets::PlatformPreset;

/// One row of the figure: a transfer size with all four series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig6Row {
    /// Transfer size in bytes.
    pub size: u64,
    /// ECI (one link) read latency, µs.
    pub eci_rd_lat_us: f64,
    /// ECI (one link) write latency, µs.
    pub eci_wr_lat_us: f64,
    /// PCIe read latency, µs.
    pub pcie_rd_lat_us: f64,
    /// PCIe write latency, µs.
    pub pcie_wr_lat_us: f64,
    /// ECI read throughput, GiB/s.
    pub eci_rd_gib: f64,
    /// ECI write throughput, GiB/s.
    pub eci_wr_gib: f64,
    /// PCIe read throughput, GiB/s.
    pub pcie_rd_gib: f64,
    /// PCIe write throughput, GiB/s.
    pub pcie_wr_gib: f64,
}

/// Repetitions per size for the throughput measurement (the paper
/// averages over 10 000 runs; a few hundred suffice at our determinism).
const REPS: u64 = 400;

fn gib(bytes: u64, start: Time, end: Time) -> f64 {
    bytes as f64 / end.since(start).as_secs_f64() / (1u64 << 30) as f64
}

/// Runs the experiment and returns one row per transfer size.
pub fn run() -> Vec<Fig6Row> {
    run_instrumented(&mut MetricsRegistry::new())
}

/// [`run`], publishing per-size gauges, latency histograms, the ECI
/// throughput systems' accumulated component counters, and one trace
/// event per size into `reg` under `fig6.*`.
pub fn run_instrumented(reg: &mut MetricsRegistry) -> Vec<Fig6Row> {
    let sizes: Vec<u64> = (7..=14).map(|p| 1u64 << p).collect();
    let mut rows = Vec::new();
    let mut sim_end = Time::ZERO;
    let mut pcie_transfers = 0u64;
    for &size in &sizes {
        let lines = size / 128;

        // --- ECI latency: a single isolated transfer on a fresh system.
        let mut sys = PlatformPreset::enzian_system(true);
        let done = sys.fpga_read_burst(Time::ZERO, Addr(0), lines);
        let eci_rd_lat_us = done.as_micros_f64();
        reg.record_latency("fig6.eci.rd_latency", done.since(Time::ZERO));
        let mut sys = PlatformPreset::enzian_system(true);
        let done = sys.fpga_write_burst(Time::ZERO, Addr(0), lines, 0xA5);
        let eci_wr_lat_us = done.as_micros_f64();
        reg.record_latency("fig6.eci.wr_latency", done.since(Time::ZERO));

        // --- ECI throughput: REPS back-to-back transfers.
        let mut sys = PlatformPreset::enzian_system(true);
        let mut last = Time::ZERO;
        for i in 0..REPS {
            last = last.max(sys.fpga_read_burst(last, Addr(i * size), lines));
        }
        let eci_rd_gib = gib(REPS * size, Time::ZERO, last);
        sim_end = sim_end.max(last);
        let mut tmp = MetricsRegistry::new();
        sys.export_metrics("fig6.eci.rd", &mut tmp);
        reg.merge(&tmp);
        let mut sys = PlatformPreset::enzian_system(true);
        let mut last = Time::ZERO;
        for i in 0..REPS {
            last = last.max(sys.fpga_write_burst(last, Addr(i * size), lines, 0x5A));
        }
        let eci_wr_gib = gib(REPS * size, Time::ZERO, last);
        sim_end = sim_end.max(last);
        let mut tmp = MetricsRegistry::new();
        sys.export_metrics("fig6.eci.wr", &mut tmp);
        reg.merge(&tmp);

        // --- PCIe (Alveo u250) latency and throughput.
        let mut dma = PlatformPreset::AlveoU250.dma_engine();
        let pcie_rd_lat_us = dma.host_to_card(Time::ZERO, size).completed.as_micros_f64();
        let mut dma = PlatformPreset::AlveoU250.dma_engine();
        let pcie_wr_lat_us = dma.card_to_host(Time::ZERO, size).completed.as_micros_f64();

        // Throughput is measured closed-loop (one outstanding transfer),
        // matching the software-visible completion the benchmark times.
        let mut dma = PlatformPreset::AlveoU250.dma_engine();
        let mut last = Time::ZERO;
        for _ in 0..REPS {
            last = dma.host_to_card(last, size).completed;
        }
        let pcie_rd_gib = gib(REPS * size, Time::ZERO, last);
        sim_end = sim_end.max(last);
        let mut dma = PlatformPreset::AlveoU250.dma_engine();
        let mut last = Time::ZERO;
        for _ in 0..REPS {
            last = dma.card_to_host(last, size).completed;
        }
        let pcie_wr_gib = gib(REPS * size, Time::ZERO, last);
        sim_end = sim_end.max(last);
        pcie_transfers += 2 * REPS + 2;

        let row = Fig6Row {
            size,
            eci_rd_lat_us,
            eci_wr_lat_us,
            pcie_rd_lat_us,
            pcie_wr_lat_us,
            eci_rd_gib,
            eci_wr_gib,
            pcie_rd_gib,
            pcie_wr_gib,
        };
        let base = format!("fig6.size{size:05}");
        reg.gauge_set(&format!("{base}.eci_rd_gib"), row.eci_rd_gib);
        reg.gauge_set(&format!("{base}.eci_wr_gib"), row.eci_wr_gib);
        reg.gauge_set(&format!("{base}.pcie_rd_gib"), row.pcie_rd_gib);
        reg.gauge_set(&format!("{base}.pcie_wr_gib"), row.pcie_wr_gib);
        reg.trace_event(
            TraceEvent::new(sim_end, "fig6", "size-done")
                .field("size", size)
                .field("eci_rd_gib", row.eci_rd_gib)
                .field("pcie_rd_gib", row.pcie_rd_gib),
        );
        rows.push(row);
    }
    reg.counter_set("fig6.sim_time_ps", sim_end.as_ps());
    reg.counter_set(
        "fig6.events_executed",
        reg.counter("fig6.eci.rd.link.messages")
            + reg.counter("fig6.eci.wr.link.messages")
            + pcie_transfers,
    );
    rows
}

/// The §5.1 hardware reference: a 2-socket ThunderX-1 over CCPI with
/// hardware balancing across both links. Returns `(GiB/s, latency ns)`.
pub fn ccpi_reference() -> (f64, f64) {
    // Both endpoints are silicon: CPU clock, shallow pipeline, deeper
    // hardware data buffers than the FPGA implementation.
    let mut sys = enzian_eci::EciSystem::new(enzian_eci::EciSystemConfig::thunderx_2socket());
    let lines = 16_384u64;
    let done = sys.fpga_read_burst(Time::ZERO, Addr(0), lines);
    let bw = gib(lines * 128, Time::ZERO, done);
    let mut sys = enzian_eci::EciSystem::new(enzian_eci::EciSystemConfig::thunderx_2socket());
    let (_, t) = sys.fpga_read_line(Time::ZERO, Addr(0));
    (bw, t.since(Time::ZERO).as_ns() as f64)
}

/// Renders the figure's two panels as a table.
pub fn render(rows: &[Fig6Row]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.size.to_string(),
                format!("{:.2}", r.eci_rd_lat_us),
                format!("{:.2}", r.eci_wr_lat_us),
                format!("{:.2}", r.pcie_rd_lat_us),
                format!("{:.2}", r.pcie_wr_lat_us),
                format!("{:.2}", r.eci_rd_gib),
                format!("{:.2}", r.eci_wr_gib),
                format!("{:.2}", r.pcie_rd_gib),
                format!("{:.2}", r.pcie_wr_gib),
            ]
        })
        .collect();
    super::render_table(
        "Fig. 6 — Link performance: ECI (one link) vs PCIe x16 Gen3",
        &[
            "size[B]",
            "eci-rd[us]",
            "eci-wr[us]",
            "pcie-rd[us]",
            "pcie-wr[us]",
            "eci-rd[GiB/s]",
            "eci-wr[GiB/s]",
            "pcie-rd[GiB/s]",
            "pcie-wr[GiB/s]",
        ],
        &table_rows,
    )
}

/// Registry adapter: figure 6 through the [`Experiment`](super::Experiment) trait.
pub struct Driver;

impl super::Experiment for Driver {
    fn name(&self) -> &'static str {
        "fig6"
    }

    fn run(&self, ctx: &mut super::ExperimentCtx<'_>) -> super::ExperimentRows {
        let rows = run_instrumented(ctx.reg);
        let csv = rows
            .iter()
            .map(|r| {
                vec![
                    r.size.to_string(),
                    r.eci_rd_lat_us.to_string(),
                    r.eci_wr_lat_us.to_string(),
                    r.pcie_rd_lat_us.to_string(),
                    r.pcie_wr_lat_us.to_string(),
                    r.eci_rd_gib.to_string(),
                    r.eci_wr_gib.to_string(),
                    r.pcie_rd_gib.to_string(),
                    r.pcie_wr_gib.to_string(),
                ]
            })
            .collect();
        let (bw, lat) = ccpi_reference();
        let mut text = render(&rows);
        text.push_str(&format!(
            "\nReference (2-socket ThunderX-1 CCPI, both links): {bw:.1} GiB/s, {lat:.0} ns\n"
        ));
        super::ExperimentRows {
            text,
            tables: vec![super::Table {
                name: "fig6",
                header: &[
                    "size_b",
                    "eci_rd_us",
                    "eci_wr_us",
                    "pcie_rd_us",
                    "pcie_wr_us",
                    "eci_rd_gib",
                    "eci_wr_gib",
                    "pcie_rd_gib",
                    "pcie_wr_gib",
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
    fn figure6_shape_holds() {
        let rows = run();
        assert_eq!(rows.len(), 8);
        let small = &rows[0]; // 128 B
        let at_2k = rows.iter().find(|r| r.size == 2048).unwrap();
        let large = rows.last().unwrap(); // 16 KiB

        // Latency: ECI is about half of PCIe (or better) below 8 KiB...
        assert!(
            small.eci_rd_lat_us < small.pcie_rd_lat_us / 2.0,
            "ECI {:.2} us vs PCIe {:.2} us at 128 B",
            small.eci_rd_lat_us,
            small.pcie_rd_lat_us
        );
        // ...but loses for large transfers over 8 KiB.
        assert!(
            large.eci_rd_lat_us > large.pcie_rd_lat_us,
            "ECI should lose latency at 16 KiB"
        );

        // Throughput: ECI significantly higher under 2 KiB.
        assert!(
            at_2k.eci_wr_gib > 1.8 * at_2k.pcie_wr_gib,
            "ECI {:.2} vs PCIe {:.2} GiB/s at 2 KiB",
            at_2k.eci_wr_gib,
            at_2k.pcie_wr_gib
        );
        assert!(small.eci_rd_gib > 1.5 * small.pcie_rd_gib);
        // At 16 KiB the two are comparable.
        let ratio = large.pcie_wr_gib / large.eci_wr_gib;
        assert!(
            (0.6..1.5).contains(&ratio),
            "large-transfer ratio {ratio:.2}"
        );

        // Writes outpace reads on ECI (the paper's L2/data-buffer effect).
        assert!(large.eci_wr_gib > large.eci_rd_gib);

        // Plateaus in the plot's range.
        assert!((7.0..13.0).contains(&large.eci_wr_gib));
        assert!((6.0..14.0).contains(&large.pcie_wr_gib));
    }

    #[test]
    fn ccpi_reference_near_19_gib() {
        let (bw, lat_ns) = ccpi_reference();
        assert!((17.0..23.0).contains(&bw), "CCPI bandwidth {bw:.1} GiB/s");
        assert!(
            (120.0..260.0).contains(&lat_ns),
            "CCPI latency {lat_ns:.0} ns"
        );
    }

    #[test]
    fn render_contains_all_sizes() {
        let rows = run();
        let s = render(&rows);
        for p in 7..=14 {
            assert!(s.contains(&(1u64 << p).to_string()));
        }
    }
}
