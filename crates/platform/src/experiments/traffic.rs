//! Traffic: million-flow connection churn over the cluster bridge.
//!
//! A TrafficEngine-style load generator (after Coyote's and StRoM's
//! network test harnesses): every board runs one generator that drives
//! full handshake → transfer → teardown sessions against its peers,
//! client and server roles concurrent, multiplexed through the
//! [`SessionMux`](enzian_net::SessionMux) flow table. Four legs:
//!
//! * **churn** — connections/sec for each stack personality at 2/4/8
//!   boards (the scaling series the figure plots);
//! * **flows** — a held-open storm sizing the slab-backed flow table to
//!   ≥ 10⁵ concurrent flows cluster-wide;
//! * **loss** — churn goodput with a probabilistic segment-loss fault
//!   plan against the lossless baseline;
//! * **proxy** — the client → proxy → server chain across three boards.

use crate::traffic::{TrafficRunReport, TrafficStack, TrafficWorkload};
use enzian_sim::{Duration, MetricsRegistry, Time, TraceEvent};

/// One run of one leg: the workload axes plus the observables the
/// figure and the CSV export carry.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficRow {
    /// Leg name: `churn`, `flows`, `loss`, or `proxy`.
    pub leg: &'static str,
    /// Stack personality label.
    pub stack: &'static str,
    /// Boards in the cluster.
    pub boards: u8,
    /// Injected segment-loss probability, basis points.
    pub loss_bp: u32,
    /// Client sessions opened (and completed) cluster-wide.
    pub sessions: u64,
    /// Peak concurrent flows cluster-wide (client + server entries).
    pub peak_flows: u64,
    /// Peak concurrent flows on the busiest board.
    pub peak_flows_board: u64,
    /// Completed client sessions per simulated second.
    pub conns_per_sec: f64,
    /// Delivered payload goodput, Gb/s.
    pub goodput_gbps: f64,
    /// Retransmitted data segments.
    pub retransmissions: u64,
    /// Sessions spliced through the proxy (zero outside the proxy leg).
    pub relayed_sessions: u64,
    /// Simulated completion time, µs.
    pub sim_end_us: f64,
    /// Conservative-engine epochs executed.
    pub epochs: u64,
    /// Cross-board envelopes carried.
    pub messages: u64,
    /// Order-sensitive FNV digest over every board's final state.
    pub digest: u64,
}

/// The four legs, as `(leg, workload)` pairs in run order. Public so
/// tests and docs can audit the axes without re-running anything.
pub fn legs() -> Vec<(&'static str, TrafficWorkload)> {
    let mut legs = Vec::new();
    // Churn: the slower the stack's handshake path, the wider the open
    // gap has to be for the generator to stay ahead of its own backlog.
    for stack in TrafficStack::all() {
        let gap = match stack {
            TrafficStack::Fpga => Duration::from_us(1),
            TrafficStack::Hybrid => Duration::from_us(6),
            TrafficStack::Kernel => Duration::from_us(40),
        };
        for boards in [2u8, 4, 8] {
            legs.push((
                "churn",
                TrafficWorkload::small()
                    .with_stack(stack)
                    .with_boards(boards)
                    .with_sessions_per_board(600)
                    .with_open_gap(gap)
                    .with_bytes_per_session(8 * 1024)
                    .with_hold(Duration::from_us(200))
                    .with_seed(0x7AF1_0000 + u64::from(boards)),
            ));
        }
    }
    // Flows: 50 k opens per board at a 600 ns gap spread over 30 ms,
    // held open for 32 ms, so every session is live at once. Each
    // session occupies a client slot on one board and a server slot on
    // the other: ~200 k concurrent flows cluster-wide.
    legs.push((
        "flows",
        TrafficWorkload::small()
            .with_sessions_per_board(50_000)
            .with_open_gap(Duration::from_ns(600))
            .with_bytes_per_session(2 * 1024)
            .with_hold(Duration::from_ms(32))
            .with_seed(0x7AF1_F10C),
    ));
    // Loss: the same churn twice per stack, lossless then with a 1 %
    // per-segment fault plan, so the figure can show the goodput cost
    // of recovery — on the all-FPGA stack *and* on the hybrid offload
    // point, whose CPU-side Reno policy reacts to each RTO where the
    // fixed hardware window does not. The open gap leaves the 100G link
    // under 50 % utilized (64 KiB is ~5.5 µs of wire time), so the
    // lossless baselines see no spurious queueing-delay RTOs and every
    // retransmission in the lossy rows is attributable to the fault
    // plan.
    for stack in [TrafficStack::Fpga, TrafficStack::Hybrid] {
        for loss_bp in [0u32, 100] {
            legs.push((
                "loss",
                TrafficWorkload::small()
                    .with_stack(stack)
                    .with_sessions_per_board(600)
                    .with_open_gap(Duration::from_us(12))
                    .with_bytes_per_session(64 * 1024)
                    .with_hold(Duration::from_us(200))
                    .with_loss_bp(loss_bp)
                    .with_seed(0x7AF1_7055),
            ));
        }
    }
    // Proxy: the three-board client → proxy → server chain.
    legs.push((
        "proxy",
        TrafficWorkload::small()
            .with_proxy()
            .with_sessions_per_board(2_000)
            .with_open_gap(Duration::from_us(2))
            .with_bytes_per_session(8 * 1024)
            .with_hold(Duration::from_us(200))
            .with_seed(0x7AF1_9C0A),
    ));
    legs
}

fn row(leg: &'static str, w: &TrafficWorkload, r: &TrafficRunReport) -> TrafficRow {
    TrafficRow {
        leg,
        stack: w.stack.label(),
        boards: w.boards,
        loss_bp: w.loss_bp,
        sessions: r.completed,
        peak_flows: r.peak_flows,
        peak_flows_board: r.peak_flows_board,
        conns_per_sec: r.conns_per_sec(),
        goodput_gbps: r.goodput_bits() / 1e9,
        retransmissions: r.retransmissions,
        relayed_sessions: r.relayed_sessions,
        sim_end_us: r.sim_end.as_micros_f64(),
        epochs: r.epochs,
        messages: r.messages,
        digest: r.digest,
    }
}

/// Runs every leg on `threads` workers.
pub fn run(threads: usize) -> Vec<TrafficRow> {
    run_instrumented(threads, &mut MetricsRegistry::new())
}

/// [`run`], publishing each run's full report under
/// `traffic.<leg>.<stack>.b<boards>.loss<bp>.*` plus the top-level
/// `traffic.sim_time_ps` / `traffic.events_executed` counters. Every
/// exported value is independent of `threads`.
pub fn run_instrumented(threads: usize, reg: &mut MetricsRegistry) -> Vec<TrafficRow> {
    let mut rows = Vec::new();
    let mut sim_end = Time::ZERO;
    let mut events = 0u64;
    for (leg, w) in legs() {
        let report = w.run_parallel(threads);
        let prefix = format!(
            "traffic.{leg}.{}.b{}.loss{}",
            w.stack.label(),
            w.boards,
            w.loss_bp
        );
        report.export_metrics(&prefix, reg);
        reg.gauge_set(&format!("{prefix}.conns_per_sec"), report.conns_per_sec());
        reg.gauge_set(
            &format!("{prefix}.goodput_gbps"),
            report.goodput_bits() / 1e9,
        );
        reg.trace_event(
            TraceEvent::new(report.sim_end, "traffic", leg)
                .field("boards", u64::from(w.boards))
                .field("completed", report.completed)
                .field("peak_flows", report.peak_flows),
        );
        sim_end = sim_end.max(report.sim_end);
        events += report.messages;
        rows.push(row(leg, &w, &report));
    }
    // The acceptance bar the ISSUE sets: the flow-table storm must
    // sustain at least 10^5 concurrent flows cluster-wide.
    let storm = rows.iter().find(|r| r.leg == "flows").expect("flows leg");
    assert!(
        storm.peak_flows >= 100_000,
        "flow storm peaked at {} concurrent flows",
        storm.peak_flows
    );
    // Churn must actually scale: 8 boards beat 2 boards on every stack.
    for stack in TrafficStack::all() {
        let at = |boards: u8| {
            rows.iter()
                .find(|r| r.leg == "churn" && r.stack == stack.label() && r.boards == boards)
                .expect("churn row")
                .conns_per_sec
        };
        assert!(
            at(8) > 2.0 * at(2),
            "{} churn did not scale: {} vs {}",
            stack.label(),
            at(8),
            at(2)
        );
    }
    reg.counter_set("traffic.sim_time_ps", sim_end.as_ps());
    reg.counter_set("traffic.events_executed", events);
    rows
}

/// Renders the churn/flows/loss/proxy series.
pub fn render(rows: &[TrafficRow]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.leg.to_string(),
                r.stack.to_string(),
                r.boards.to_string(),
                r.loss_bp.to_string(),
                r.sessions.to_string(),
                r.peak_flows.to_string(),
                format!("{:.0}", r.conns_per_sec),
                format!("{:.2}", r.goodput_gbps),
                r.retransmissions.to_string(),
                r.relayed_sessions.to_string(),
            ]
        })
        .collect();
    super::render_table(
        "Traffic — connection churn over the cluster bridge (one generator per board)",
        &[
            "leg",
            "stack",
            "boards",
            "loss[bp]",
            "sessions",
            "peak_flows",
            "conns/s",
            "goodput[Gb/s]",
            "retx",
            "relayed",
        ],
        &table,
    )
}

/// Registry adapter: the traffic generator through the
/// [`Experiment`](super::Experiment) trait.
pub struct Driver;

impl super::Experiment for Driver {
    fn name(&self) -> &'static str {
        "traffic"
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
                    r.leg.to_string(),
                    r.stack.to_string(),
                    r.boards.to_string(),
                    r.loss_bp.to_string(),
                    r.sessions.to_string(),
                    r.peak_flows.to_string(),
                    r.peak_flows_board.to_string(),
                    r.conns_per_sec.to_string(),
                    r.goodput_gbps.to_string(),
                    r.retransmissions.to_string(),
                    r.relayed_sessions.to_string(),
                    r.sim_end_us.to_string(),
                    r.epochs.to_string(),
                    r.messages.to_string(),
                    r.digest.to_string(),
                ]
            })
            .collect();
        super::ExperimentRows {
            text: render(&rows),
            tables: vec![super::Table {
                name: "traffic",
                header: &[
                    "leg",
                    "stack",
                    "boards",
                    "loss_bp",
                    "sessions",
                    "peak_flows",
                    "peak_flows_board",
                    "conns_per_sec",
                    "goodput_gbps",
                    "retransmissions",
                    "relayed_sessions",
                    "sim_end_us",
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

    // The full legs only run in release through `reproduce traffic`;
    // here we audit the axes so a sizing regression fails fast.
    #[test]
    fn legs_cover_the_paper_axes() {
        let legs = legs();
        for (_, w) in &legs {
            w.validate();
        }
        for stack in TrafficStack::all() {
            for boards in [2u8, 4, 8] {
                assert!(
                    legs.iter()
                        .any(|(l, w)| *l == "churn" && w.stack == stack && w.boards == boards),
                    "churn missing {} x{boards}",
                    stack.label()
                );
            }
        }
        let (_, storm) = legs.iter().find(|(l, _)| *l == "flows").expect("flows");
        // Opens span less than the hold, so all sessions are live at
        // once; each occupies a client and a server table entry.
        assert!(storm.open_gap * storm.sessions_per_board <= storm.hold);
        assert!(2 * storm.total_sessions() >= 100_000);
        let loss: Vec<_> = legs.iter().filter(|(l, _)| *l == "loss").collect();
        assert_eq!(
            loss.len(),
            4,
            "loss leg needs a lossless baseline and a lossy run per stack"
        );
        for stack in [TrafficStack::Fpga, TrafficStack::Hybrid] {
            assert!(
                loss.iter().any(|(_, w)| w.stack == stack && w.loss_bp == 0),
                "{} missing its lossless baseline",
                stack.label()
            );
            assert!(
                loss.iter().any(|(_, w)| w.stack == stack && w.loss_bp > 0),
                "{} missing its lossy run",
                stack.label()
            );
        }
        assert!(legs.iter().any(|(l, w)| *l == "proxy" && w.proxy));
    }
}
