//! Figure 8: RDMA performance across five configurations.
//!
//! A VCU118 generates one-sided RDMA copy requests over 100 Gb/s Ethernet
//! against: Alveo u280 DRAM, Alveo u280 host memory (PCIe), Mellanox host
//! memory, Enzian FPGA DRAM, and Enzian host memory (coherent, over ECI).
//! Read and write latency/throughput are reported for sizes 2⁷..2¹⁴.

use enzian_eci::EciSystem;
use enzian_mem::{Addr, MemoryController, MemoryControllerConfig};
use enzian_net::eth::{EthLink, EthLinkConfig};
use enzian_net::rdma::{RdmaBackend, RdmaEngine};
use enzian_pcie::{DmaEngine, DmaEngineConfig};
use enzian_sim::{Duration, MetricsRegistry, Time, TraceEvent};

/// The five configurations of the figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fig8Config {
    /// Alveo u280 serving its card DRAM (2 channels).
    AlveoDram,
    /// Alveo u280 reaching host memory over PCIe DMA.
    AlveoHost,
    /// Mellanox ConnectX-class NIC reaching host memory.
    MellanoxHost,
    /// Enzian serving its FPGA-side DRAM (4 channels, 512 GiB).
    EnzianDram,
    /// Enzian reaching host memory coherently over ECI.
    EnzianHost,
}

impl Fig8Config {
    /// All configurations in legend order.
    pub const ALL: [Fig8Config; 5] = [
        Fig8Config::AlveoDram,
        Fig8Config::AlveoHost,
        Fig8Config::MellanoxHost,
        Fig8Config::EnzianDram,
        Fig8Config::EnzianHost,
    ];

    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            Fig8Config::AlveoDram => "Alveo DRAM",
            Fig8Config::AlveoHost => "Alveo Host",
            Fig8Config::MellanoxHost => "Mellanox Host",
            Fig8Config::EnzianDram => "Enzian DRAM",
            Fig8Config::EnzianHost => "Enzian Host",
        }
    }

    fn engine(self) -> RdmaEngine {
        match self {
            Fig8Config::AlveoDram => RdmaEngine::new(RdmaBackend::LocalDram {
                // The u280 exposes two DDR4 channels beside its HBM.
                memory: MemoryController::new(
                    MemoryControllerConfig::enzian_cpu()
                        .with_channels(2)
                        .with_generation(enzian_mem::DdrGeneration::Ddr4_2400),
                ),
                pipeline: Duration::from_ns(150),
            }),
            Fig8Config::AlveoHost => RdmaEngine::new(RdmaBackend::HostViaPcie {
                dma: DmaEngine::new(DmaEngineConfig::alveo_u250()),
                host: MemoryController::new(MemoryControllerConfig::enzian_cpu()),
            }),
            Fig8Config::MellanoxHost => RdmaEngine::new(RdmaBackend::HostViaNic {
                host: MemoryController::new(MemoryControllerConfig::enzian_cpu()),
                nic_latency: Duration::from_ns(700),
                pcie_bytes_per_sec: 12.5e9,
            }),
            Fig8Config::EnzianDram => RdmaEngine::new(RdmaBackend::LocalDram {
                memory: MemoryController::new(MemoryControllerConfig::enzian_fpga()),
                pipeline: Duration::from_ns(120),
            }),
            Fig8Config::EnzianHost => RdmaEngine::new(RdmaBackend::HostViaEci(Box::new(
                EciSystem::new(enzian_eci::EciSystemConfig::enzian()),
            ))),
        }
    }
}

/// One measurement row.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Row {
    /// Configuration measured.
    pub config: Fig8Config,
    /// Transfer size in bytes.
    pub size: u64,
    /// Read latency, µs.
    pub rd_lat_us: f64,
    /// Write latency, µs.
    pub wr_lat_us: f64,
    /// Read throughput, GiB/s.
    pub rd_gib: f64,
    /// Write throughput, GiB/s.
    pub wr_gib: f64,
}

const REPS: u64 = 150;

/// Runs all five configurations over sizes 2⁷..2¹⁴.
pub fn run() -> Vec<Fig8Row> {
    run_instrumented(&mut MetricsRegistry::new())
}

/// [`run`], publishing per-config throughput/latency summaries over the
/// size sweep plus one trace event per (config, size) into `reg` under
/// `fig8.*`.
pub fn run_instrumented(reg: &mut MetricsRegistry) -> Vec<Fig8Row> {
    let sizes: Vec<u64> = (7..=14).map(|p| 1u64 << p).collect();
    let mut rows = Vec::new();
    let mut sim_end = Time::ZERO;
    let mut operations = 0u64;
    for config in Fig8Config::ALL {
        for &size in &sizes {
            // Latency: isolated operations on fresh engines.
            let mut e = config.engine();
            let mut link = EthLink::new(EthLinkConfig::hundred_gig());
            let rd = e.read(&mut link, Time::ZERO, Addr(0), size);
            let rd_lat_us = rd.latency_from(Time::ZERO).as_micros_f64();
            let mut e = config.engine();
            let mut link = EthLink::new(EthLinkConfig::hundred_gig());
            let data = vec![0x3Cu8; size as usize];
            let wr = e.write(&mut link, Time::ZERO, Addr(0), &data);
            let wr_lat_us = wr.latency_from(Time::ZERO).as_micros_f64();

            // Throughput: back-to-back pipelined operations.
            let mut e = config.engine();
            let mut link = EthLink::new(EthLinkConfig::hundred_gig());
            let mut last = Time::ZERO;
            for i in 0..REPS {
                let out = e.read(&mut link, Time::ZERO, Addr(i * size), size);
                last = last.max(out.completed);
            }
            let rd_gib = (REPS * size) as f64 / last.as_secs_f64() / (1u64 << 30) as f64;
            sim_end = sim_end.max(last);

            let mut e = config.engine();
            let mut link = EthLink::new(EthLinkConfig::hundred_gig());
            let mut last = Time::ZERO;
            for i in 0..REPS {
                let out = e.write(&mut link, Time::ZERO, Addr(i * size), &data);
                last = last.max(out.completed);
            }
            let wr_gib = (REPS * size) as f64 / last.as_secs_f64() / (1u64 << 30) as f64;
            sim_end = sim_end.max(last);
            operations += 2 * REPS + 2;

            let slug = super::metric_slug(config.label());
            reg.record(&format!("fig8.{slug}.rd_gib"), rd_gib);
            reg.record(&format!("fig8.{slug}.wr_gib"), wr_gib);
            reg.record(&format!("fig8.{slug}.rd_lat_us"), rd_lat_us);
            reg.record(&format!("fig8.{slug}.wr_lat_us"), wr_lat_us);
            reg.trace_event(
                TraceEvent::new(sim_end, "fig8", "measurement")
                    .field("config", config.label())
                    .field("size", size)
                    .field("rd_gib", rd_gib)
                    .field("wr_gib", wr_gib),
            );
            rows.push(Fig8Row {
                config,
                size,
                rd_lat_us,
                wr_lat_us,
                rd_gib,
                wr_gib,
            });
        }
    }
    reg.counter_set("fig8.sim_time_ps", sim_end.as_ps());
    reg.counter_set("fig8.events_executed", operations);
    rows
}

/// Renders the figure's four panels as a table.
pub fn render(rows: &[Fig8Row]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.config.label().into(),
                r.size.to_string(),
                format!("{:.2}", r.rd_lat_us),
                format!("{:.2}", r.wr_lat_us),
                format!("{:.2}", r.rd_gib),
                format!("{:.2}", r.wr_gib),
            ]
        })
        .collect();
    super::render_table(
        "Fig. 8 — RDMA performance",
        &[
            "config",
            "size[B]",
            "rd-lat[us]",
            "wr-lat[us]",
            "rd[GiB/s]",
            "wr[GiB/s]",
        ],
        &table,
    )
}

/// Registry adapter: figure 8 through the [`Experiment`](super::Experiment) trait.
pub struct Driver;

impl super::Experiment for Driver {
    fn name(&self) -> &'static str {
        "fig8"
    }

    fn run(&self, ctx: &mut super::ExperimentCtx<'_>) -> super::ExperimentRows {
        let rows = run_instrumented(ctx.reg);
        let csv = rows
            .iter()
            .map(|r| {
                vec![
                    r.config.label().to_string(),
                    r.size.to_string(),
                    r.rd_lat_us.to_string(),
                    r.wr_lat_us.to_string(),
                    r.rd_gib.to_string(),
                    r.wr_gib.to_string(),
                ]
            })
            .collect();
        super::ExperimentRows {
            text: render(&rows),
            tables: vec![super::Table {
                name: "fig8",
                header: &[
                    "config",
                    "size_b",
                    "rd_lat_us",
                    "wr_lat_us",
                    "rd_gib",
                    "wr_gib",
                ],
                rows: csv,
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(rows: &[Fig8Row], c: Fig8Config, size: u64) -> &Fig8Row {
        rows.iter()
            .find(|r| r.config == c && r.size == size)
            .expect("row present")
    }

    #[test]
    fn figure8_shape_holds() {
        let rows = run();
        assert_eq!(rows.len(), 5 * 8);
        let big = 16_384;

        // Enzian DRAM has the best large-transfer read throughput of the
        // FPGA paths and beats both host paths.
        let enzian_dram = at(&rows, Fig8Config::EnzianDram, big);
        let enzian_host = at(&rows, Fig8Config::EnzianHost, big);
        let alveo_host = at(&rows, Fig8Config::AlveoHost, big);
        let alveo_dram = at(&rows, Fig8Config::AlveoDram, big);
        let mellanox = at(&rows, Fig8Config::MellanoxHost, big);

        assert!(enzian_dram.rd_gib >= enzian_host.rd_gib);
        assert!(enzian_dram.rd_gib > alveo_host.rd_gib);
        assert!(enzian_dram.rd_gib >= alveo_dram.rd_gib * 0.95);

        // The PCIe host path has the worst small-transfer latency.
        let small = 128;
        let worst = Fig8Config::ALL
            .iter()
            .map(|&c| (c, at(&rows, c, small).rd_lat_us))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        assert_eq!(worst.0, Fig8Config::AlveoHost, "worst latency {worst:?}");

        // Everything is competitive: all configs within the 100G wire.
        for r in &rows {
            assert!(r.rd_gib < 12.0 && r.wr_gib < 12.0, "{r:?} beats the wire");
            assert!(r.rd_lat_us < 10.0, "{:?} read latency off-scale", r.config);
        }

        // Mellanox is a strong host baseline: better small-transfer
        // latency than the Alveo host path.
        assert!(
            at(&rows, Fig8Config::MellanoxHost, small).rd_lat_us
                < at(&rows, Fig8Config::AlveoHost, small).rd_lat_us
        );
        let _ = mellanox;
    }
}
