//! Figure 7: FPGA TCP stack performance, Enzian (1 flow) vs CPU/Linux
//! kernel stack (1 flow).
//!
//! Two Enzians are connected through their FPGA-side 100 Gb/s links via a
//! switch and compared (iperf-style) against two Xeon Gold machines with
//! 100 Gb/s Mellanox NICs. Transfer sizes are 2¹..2¹⁰ KB.

use enzian_net::eth::{EthLink, EthLinkConfig};
use enzian_net::tcp::{TcpEngine, TcpStackConfig};
use enzian_net::Switch;
use enzian_sim::{Instrumented, MetricsRegistry, SimRng, Time, TraceEvent};

/// One row: a transfer size with both stacks' series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig7Row {
    /// Transfer size in bytes.
    pub size: u64,
    /// Enzian FPGA-stack latency, µs.
    pub enzian_lat_us: f64,
    /// Linux kernel-stack latency, µs.
    pub linux_lat_us: f64,
    /// Enzian FPGA-stack throughput, Gb/s.
    pub enzian_gbps: f64,
    /// Linux kernel-stack throughput, Gb/s.
    pub linux_gbps: f64,
}

/// Runs the experiment for sizes 2 KB .. 1024 KB.
pub fn run() -> Vec<Fig7Row> {
    run_instrumented(&mut MetricsRegistry::new())
}

/// [`run`], publishing per-size gauges, both stacks' accumulated TCP
/// telemetry (segments, retransmissions, per-flow RTT summaries), and one
/// trace event per size into `reg` under `fig7.*`.
pub fn run_instrumented(reg: &mut MetricsRegistry) -> Vec<Fig7Row> {
    let mut rng = SimRng::seed_from(77);
    let sizes: Vec<u64> = (1..=10).map(|p| (1u64 << p) * 1024).collect();
    let mut rows = Vec::new();
    let mut sim_end = Time::ZERO;
    for &size in &sizes {
        let mut data = vec![0u8; size as usize];
        rng.fill_bytes(&mut data);

        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        let mut hw = TcpEngine::new(
            TcpStackConfig::fpga_coyote(),
            TcpStackConfig::fpga_coyote(),
            Switch::tor(),
        );
        let (out, hw_r) = hw.transfer(&mut link, Time::ZERO, &data);
        assert_eq!(out, data, "hardware stack corrupted the stream");
        sim_end = sim_end.max(hw_r.delivered);
        let mut tmp = MetricsRegistry::new();
        hw.telemetry().export_metrics("fig7.tcp.fpga", &mut tmp);
        reg.merge(&tmp);

        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        let mut sw = TcpEngine::new(
            TcpStackConfig::linux_kernel(),
            TcpStackConfig::linux_kernel(),
            Switch::tor(),
        );
        let (out, sw_r) = sw.transfer(&mut link, Time::ZERO, &data);
        assert_eq!(out, data, "kernel stack corrupted the stream");
        sim_end = sim_end.max(sw_r.delivered);
        let mut tmp = MetricsRegistry::new();
        sw.telemetry().export_metrics("fig7.tcp.kernel", &mut tmp);
        reg.merge(&tmp);

        let row = Fig7Row {
            size,
            enzian_lat_us: hw_r.latency().as_micros_f64(),
            linux_lat_us: sw_r.latency().as_micros_f64(),
            enzian_gbps: hw_r.throughput_bits() / 1e9,
            linux_gbps: sw_r.throughput_bits() / 1e9,
        };
        reg.record_latency("fig7.enzian_latency", hw_r.latency());
        reg.record_latency("fig7.linux_latency", sw_r.latency());
        let base = format!("fig7.size{:04}kb", size / 1024);
        reg.gauge_set(&format!("{base}.enzian_gbps"), row.enzian_gbps);
        reg.gauge_set(&format!("{base}.linux_gbps"), row.linux_gbps);
        reg.trace_event(
            TraceEvent::new(sim_end, "fig7", "size-done")
                .field("size", size)
                .field("enzian_gbps", row.enzian_gbps)
                .field("linux_gbps", row.linux_gbps),
        );
        rows.push(row);
    }
    reg.counter_set("fig7.sim_time_ps", sim_end.as_ps());
    reg.counter_set(
        "fig7.events_executed",
        reg.counter("fig7.tcp.fpga.segments") + reg.counter("fig7.tcp.kernel.segments"),
    );
    rows
}

/// One flow-scaling record of the second panel.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiflowRow {
    /// Series label ("enzian x1", "linux x3", …).
    pub label: String,
    /// Aggregate goodput across the flows, Gb/s.
    pub gbps: f64,
}

/// The text's flow-scaling observation: aggregate goodput of 1..=4
/// kernel-stack flows vs the single hardware flow ("4 flows are needed
/// using the CPU to saturate the link").
pub fn run_multiflow() -> Vec<MultiflowRow> {
    let mut rng = SimRng::seed_from(78);
    let per_flow = 2 << 20;
    let mut data = vec![0u8; per_flow];
    rng.fill_bytes(&mut data);

    let mut out = Vec::new();
    let mut link = EthLink::new(EthLinkConfig::hundred_gig());
    let mut hw = TcpEngine::new(
        TcpStackConfig::fpga_coyote(),
        TcpStackConfig::fpga_coyote(),
        Switch::tor(),
    );
    let (delivered, r) = hw.transfer(&mut link, Time::ZERO, &data);
    assert_eq!(delivered, data, "hardware stack corrupted the stream");
    out.push(MultiflowRow {
        label: "enzian x1".to_string(),
        gbps: r.throughput_bits() / 1e9,
    });

    for flows in 1..=4usize {
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        let mut sw = TcpEngine::new(
            TcpStackConfig::linux_kernel(),
            TcpStackConfig::linux_kernel(),
            Switch::tor(),
        );
        let refs: Vec<&[u8]> = (0..flows).map(|_| &data[..]).collect();
        let results = sw
            .transfer_interleaved(&mut link, Time::ZERO, &refs)
            .expect("a lossless engine runs any number of flows");
        let mut last = Time::ZERO;
        for (delivered, r) in &results {
            assert_eq!(*delivered, data, "kernel stack corrupted a flow");
            last = last.max(r.delivered);
        }
        let bits = (flows * per_flow) as f64 * 8.0;
        out.push(MultiflowRow {
            label: format!("linux x{flows}"),
            gbps: bits / last.as_secs_f64() / 1e9,
        });
    }
    out
}

/// Renders both figure panels.
pub fn render(rows: &[Fig7Row]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                (r.size / 1024).to_string(),
                format!("{:.1}", r.enzian_lat_us),
                format!("{:.1}", r.linux_lat_us),
                format!("{:.1}", r.enzian_gbps),
                format!("{:.1}", r.linux_gbps),
            ]
        })
        .collect();
    super::render_table(
        "Fig. 7 — FPGA TCP stack, Enzian (1 flow) vs Linux kernel stack (1 flow)",
        &[
            "size[KB]",
            "enzian[us]",
            "linux[us]",
            "enzian[Gb/s]",
            "linux[Gb/s]",
        ],
        &table,
    )
}

/// Registry adapter: figure 7 through the [`Experiment`](super::Experiment) trait.
pub struct Driver;

impl super::Experiment for Driver {
    fn name(&self) -> &'static str {
        "fig7"
    }

    fn run(&self, ctx: &mut super::ExperimentCtx<'_>) -> super::ExperimentRows {
        let single_flow = run_instrumented(ctx.reg);
        let multiflow = run_multiflow();
        let csv = single_flow
            .iter()
            .map(|r| {
                vec![
                    r.size.to_string(),
                    r.enzian_lat_us.to_string(),
                    r.linux_lat_us.to_string(),
                    r.enzian_gbps.to_string(),
                    r.linux_gbps.to_string(),
                ]
            })
            .collect();
        let multi_csv = multiflow
            .iter()
            .map(|r| vec![r.label.clone(), r.gbps.to_string()])
            .collect();
        let mut text = render(&single_flow);
        text.push_str("\nFlow scaling (2 MiB per flow):\n");
        for m in &multiflow {
            text.push_str(&format!("  {:<10} {:>6.1} Gb/s\n", m.label, m.gbps));
        }
        super::ExperimentRows {
            text,
            tables: vec![
                super::Table {
                    name: "fig7",
                    header: &[
                        "size_b",
                        "enzian_lat_us",
                        "linux_lat_us",
                        "enzian_gbps",
                        "linux_gbps",
                    ],
                    rows: csv,
                },
                super::Table {
                    name: "fig7_multiflow",
                    header: &["label", "gbps"],
                    rows: multi_csv,
                },
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_kernel_flows_saturate_where_one_hardware_flow_does() {
        let rows = run_multiflow();
        let get = |name: &str| rows.iter().find(|r| r.label == name).unwrap().gbps;
        assert!(get("enzian x1") > 90.0);
        assert!(get("linux x1") < 45.0);
        assert!(
            get("linux x4") > 75.0,
            "4 flows reached only {}",
            get("linux x4")
        );
        // Monotone in flow count.
        for i in 1..4 {
            assert!(get(&format!("linux x{}", i + 1)) > get(&format!("linux x{i}")) * 0.98);
        }
    }

    #[test]
    fn figure7_shape_holds() {
        let rows = run();
        assert_eq!(rows.len(), 10);
        let large = rows.last().unwrap(); // 1 MB

        // Enzian saturates the link with one flow at large transfers.
        assert!(
            large.enzian_gbps > 90.0,
            "Enzian at {:.1} Gb/s",
            large.enzian_gbps
        );
        // The kernel stack's single flow is far from line rate.
        assert!(
            large.linux_gbps < 45.0,
            "Linux at {:.1} Gb/s",
            large.linux_gbps
        );
        // Latency panel: Linux sits well above Enzian everywhere, and
        // grows into the hundreds of microseconds at 1 MB.
        for r in &rows {
            assert!(r.linux_lat_us > r.enzian_lat_us, "at {} B", r.size);
        }
        assert!(large.linux_lat_us > 150.0);
        assert!(large.enzian_lat_us < 120.0);

        // Throughput rises monotonically with size for Enzian (latency
        // amortizes).
        for w in rows.windows(2) {
            assert!(w[1].enzian_gbps >= w[0].enzian_gbps * 0.98);
        }
    }
}
