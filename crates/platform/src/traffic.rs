//! The million-flow connection-churn generator, run across the cluster.
//!
//! This module is the *transport plane* of `enzian-net::traffic`: it
//! places one [`SessionMux`] per board of a conservative-parallel
//! cluster (the same engine as [`crate::cluster`] and
//! [`crate::service`]), carries every TCP segment inside a bridge
//! [`BridgeOpcode::Tcp`] frame over seeded [`Channel`](enzian_sim::Channel)s,
//! and drives full handshake / transfer / teardown sessions at
//! TrafficEngine-style churn rates:
//!
//! * **Shared-nothing sharding**: each board is one generator running
//!   client and server roles concurrently; segments are steered to the
//!   owning board by the [`PortMask`] encoded in every destination
//!   port, so no flow state is ever shared between shards.
//! * **Two topologies**: a full *mesh* (every board opens sessions
//!   round-robin against every other board) and a three-board
//!   *client → proxy → server* chain in which the middle board splices
//!   each accepted session into a fresh upstream one.
//! * **Loss under fault plans**: per-board [`LossPattern`]s built on
//!   the shared deterministic fault model drop first-transmission data
//!   segments; go-back-N retransmission and the RTO ledger make the
//!   goodput cost observable in the report.
//!
//! Everything is a pure function of the [`TrafficWorkload`] — reports
//! (and the metrics / bench JSON derived from them) are bit-identical
//! across thread counts and between the parallel engine and the
//! sequential reference driver.

use enzian_eci::bridge::{write_bridge, BridgeFrame, BridgeHeader, BridgeOpcode};
use enzian_net::eth::EthLinkConfig;
use enzian_net::tcp::{LossPattern, SessionMux, TcpStackConfig, WireSegment, SEGMENT_LOSS_TARGET};
use enzian_net::traffic::{decode_segment, encode_segment_into, PortMask, SEGMENT_HEADER_BYTES};
use enzian_sim::par::{Engine, Envelope, KeyedShard, ParReport, WorkKey};
use enzian_sim::stats::LatencyHistogram;
use enzian_sim::{Duration, FaultPlan, FaultSpec, Fnv, MetricsRegistry, Time};

use crate::cluster::{FabricPort, Out, BRIDGE_HEADER};

/// Store-and-forward latency of the top-of-rack hop every inter-board
/// frame crosses (the same 1 µs as [`enzian_net::eth::Switch::tor`]).
const SWITCH_LATENCY: Duration = Duration::from_us(1);

/// Bytes of every traffic frame on the fabric: a bridge header around
/// one TCP segment header. The session payload is synthetic and never
/// encoded, so every frame has this one length and travels inline in
/// its envelope.
pub const TCP_FRAME_BYTES: usize = (BRIDGE_HEADER + SEGMENT_HEADER_BYTES) as usize;

/// A traffic frame as it crosses the fabric.
type TcpFrame = [u8; TCP_FRAME_BYTES];

// -------------------------------------------------------------------
// Configuration
// -------------------------------------------------------------------

/// Which TCP stack personality every board's mux runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficStack {
    /// The single-pipeline FPGA stack ([`TcpStackConfig::fpga_coyote`]).
    Fpga,
    /// The kernel software stack ([`TcpStackConfig::linux_kernel`]).
    Kernel,
    /// The hybrid split ([`TcpStackConfig::hybrid_offload`]).
    Hybrid,
}

impl TrafficStack {
    /// All stacks, in sweep order.
    pub fn all() -> [TrafficStack; 3] {
        [
            TrafficStack::Fpga,
            TrafficStack::Kernel,
            TrafficStack::Hybrid,
        ]
    }

    /// Stable label used in metrics and bench JSON.
    pub fn label(&self) -> &'static str {
        match self {
            TrafficStack::Fpga => "fpga_coyote",
            TrafficStack::Kernel => "linux_kernel",
            TrafficStack::Hybrid => "hybrid_offload",
        }
    }

    /// The stack configuration every mux is built from.
    pub fn config(&self) -> TcpStackConfig {
        match self {
            TrafficStack::Fpga => TcpStackConfig::fpga_coyote(),
            TrafficStack::Kernel => TcpStackConfig::linux_kernel(),
            TrafficStack::Hybrid => TcpStackConfig::hybrid_offload(),
        }
    }
}

/// Configuration of one traffic run.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct TrafficWorkload {
    /// Boards in the cluster (≥ 2; exactly 3 for the proxy topology).
    pub boards: u8,
    /// Stack personality on every board.
    pub stack: TrafficStack,
    /// Client sessions each generator board opens.
    pub sessions_per_board: u64,
    /// Gap between consecutive opens on one board (the churn knob).
    pub open_gap: Duration,
    /// Payload bytes per session.
    pub bytes_per_session: u64,
    /// Delay between establishment and the payload start (the
    /// concurrency knob: held-open flows pile up in the flow tables).
    pub hold: Duration,
    /// Segment-loss probability in basis points (100 = 1 %), applied
    /// per board to first-transmission data segments.
    pub loss_bp: u32,
    /// Run the client → proxy → server chain instead of the mesh.
    pub proxy: bool,
    /// Master seed for the per-board loss plans.
    pub seed: u64,
}

impl TrafficWorkload {
    /// A small mesh sized for unit tests.
    pub fn small() -> Self {
        TrafficWorkload {
            boards: 2,
            stack: TrafficStack::Fpga,
            sessions_per_board: 48,
            open_gap: Duration::from_us(2),
            bytes_per_session: 8 * 1024,
            hold: Duration::from_us(100),
            loss_bp: 0,
            proxy: false,
            seed: 0x7AF1_C0DE,
        }
    }

    /// Returns the workload with a different board count.
    pub fn with_boards(mut self, boards: u8) -> Self {
        self.boards = boards;
        self
    }

    /// Returns the workload with a different stack personality.
    pub fn with_stack(mut self, stack: TrafficStack) -> Self {
        self.stack = stack;
        self
    }

    /// Returns the workload with a different per-board session count.
    pub fn with_sessions_per_board(mut self, sessions: u64) -> Self {
        self.sessions_per_board = sessions;
        self
    }

    /// Returns the workload with a different open gap.
    pub fn with_open_gap(mut self, gap: Duration) -> Self {
        self.open_gap = gap;
        self
    }

    /// Returns the workload with a different per-session payload.
    pub fn with_bytes_per_session(mut self, bytes: u64) -> Self {
        self.bytes_per_session = bytes;
        self
    }

    /// Returns the workload with a different hold time.
    pub fn with_hold(mut self, hold: Duration) -> Self {
        self.hold = hold;
        self
    }

    /// Returns the workload with segment loss injected.
    pub fn with_loss_bp(mut self, bp: u32) -> Self {
        self.loss_bp = bp;
        self
    }

    /// Returns the workload reshaped into the three-board
    /// client → proxy → server chain.
    pub fn with_proxy(mut self) -> Self {
        self.boards = 3;
        self.proxy = true;
        self
    }

    /// Returns the workload with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Checks the workload's internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on any violated invariant.
    pub fn validate(&self) {
        assert!(self.boards >= 2, "traffic needs at least two boards");
        assert!(self.sessions_per_board > 0, "traffic needs sessions");
        assert!(self.bytes_per_session > 0, "sessions carry payload");
        assert!(self.open_gap > Duration::ZERO, "opens need a gap");
        assert!(
            self.loss_bp <= 10_000,
            "loss probability cannot exceed 100%"
        );
        if self.proxy {
            assert_eq!(
                self.boards, 3,
                "the proxy chain is exactly client, proxy, server"
            );
        }
    }

    /// The conservative engine's lookahead: no segment sent at `t` is
    /// processed remotely before `t + propagation + switch latency`.
    pub fn lookahead(&self) -> Duration {
        EthLinkConfig::hundred_gig().propagation + SWITCH_LATENCY
    }

    /// Total client sessions the run must account for.
    pub fn total_sessions(&self) -> u64 {
        if self.proxy {
            self.sessions_per_board
        } else {
            u64::from(self.boards) * self.sessions_per_board
        }
    }

    /// Builds board `board`'s loss pattern (seeded per board, so
    /// probabilistic drops draw from private streams).
    fn loss_for(&self, board: u8) -> LossPattern {
        if self.loss_bp == 0 {
            return LossPattern::none();
        }
        let seed = self
            .seed
            .wrapping_add((u64::from(board) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut plan = FaultPlan::new(seed);
        plan.add(FaultSpec::probability(
            SEGMENT_LOSS_TARGET,
            f64::from(self.loss_bp) / 10_000.0,
        ));
        LossPattern::from_plan(plan)
    }
}

// -------------------------------------------------------------------
// The per-board shard
// -------------------------------------------------------------------

/// One board of the traffic cluster: its session mux, its open
/// schedule, and its half of the fabric.
struct TrafficBoard {
    id: usize,
    n: usize,
    w: TrafficWorkload,
    mux: SessionMux,
    /// Opens still to issue; `next_open` is armed while any remain.
    opens_left: u64,
    opens_issued: u64,
    next_open: Option<Time>,
    port: FabricPort<TcpFrame>,
    seq: u64,
    /// Scratch buffer the mux emits into; drained after every event.
    buf: Vec<WireSegment>,
    /// Scratch buffer each frame is encoded into before it is copied
    /// into its envelope.
    frame: Vec<u8>,
    last: Time,
}

impl TrafficBoard {
    fn me(&self) -> u8 {
        self.id as u8
    }

    /// The destination of this board's `i`-th open: round-robin over
    /// the other boards in the mesh, always the proxy in the chain.
    fn open_dst(&self, i: u64) -> u8 {
        if self.w.proxy {
            return 1;
        }
        let others = self.n as u64 - 1;
        ((self.id as u64 + 1 + i % others) % self.n as u64) as u8
    }

    /// Frames every segment the mux emitted and hands it to the fabric.
    /// The mux's transmit pipeline is serial, so the emission times are
    /// already monotone per board and the per-destination channels stay
    /// FIFO without a serialization floor.
    fn flush(&mut self, out: &mut Out<TcpFrame>) {
        let mut buf = std::mem::take(&mut self.buf);
        for ws in buf.drain(..) {
            let dst = usize::from(ws.seg.dst_board);
            debug_assert_ne!(dst, self.id, "the mux never emits to itself");
            let header = BridgeHeader {
                opcode: BridgeOpcode::Tcp,
                src: self.me(),
                dst: ws.seg.dst_board,
                token: 0,
                addr: 0,
                seq: self.seq as u32,
            };
            self.frame.clear();
            write_bridge(&mut self.frame, &header, |p| {
                encode_segment_into(&ws.seg, p)
            });
            let frame = TcpFrame::try_from(&self.frame[..])
                .expect("a traffic frame is exactly TCP_FRAME_BYTES long");
            // The encoded frame carries the 28-byte segment header; the
            // session payload itself is synthetic, so the channel is
            // charged for both to occupy the wire realistically.
            let wire = TCP_FRAME_BYTES as u64 + u64::from(ws.seg.len);
            let xfer = self.port.transmit(dst, ws.at, wire, u64::from(ws.seg.len));
            out.push((
                dst,
                Envelope {
                    at: xfer.done + SWITCH_LATENCY,
                    src: self.id,
                    seq: self.seq,
                    payload: frame,
                },
            ));
            self.seq += 1;
        }
        self.buf = buf;
    }

    fn process_envelope(&mut self, out: &mut Out<TcpFrame>) {
        let env = self.port.pop_arrival();
        self.last = self.last.max(env.at);
        let frame = BridgeFrame::parse(&env.payload[..]).expect("fabric frames survive transit");
        assert_eq!(
            frame.header.opcode,
            BridgeOpcode::Tcp,
            "non-traffic frame on the traffic fabric"
        );
        let seg = decode_segment(frame.payload).expect("segments survive transit");
        self.mux.on_segment(env.at, &seg, &mut self.buf);
        self.flush(out);
    }

    fn process_timer(&mut self, out: &mut Out<TcpFrame>) {
        if let Some(at) = self.mux.fire_next_timer(&mut self.buf) {
            self.last = self.last.max(at);
        }
        self.flush(out);
    }

    fn process_open(&mut self, now: Time, out: &mut Out<TcpFrame>) {
        self.last = self.last.max(now);
        let dst = self.open_dst(self.opens_issued);
        self.mux.open(
            now,
            dst,
            self.w.bytes_per_session,
            self.w.hold,
            &mut self.buf,
        );
        self.opens_issued += 1;
        self.opens_left -= 1;
        self.next_open = (self.opens_left > 0).then(|| now + self.w.open_gap);
        self.flush(out);
    }

    /// Folds this board's externally observable final state into `d`.
    fn digest_into(&self, d: &mut Fnv) {
        d.u64(self.id as u64);
        d.u64(self.mux.state_digest());
        self.port.digest_into(d);
        d.u64(self.last.as_ps());
    }
}

/// Work keys `(time, class, a, b)`: class 0 an inbox delivery
/// `(src, seq)`, 1 the mux's earliest timer `(timer seq, 0)`, and 2 the
/// next scheduled open `(0, 0)`.
impl KeyedShard for TrafficBoard {
    type Msg = TcpFrame;

    fn next_key(&self) -> Option<WorkKey> {
        let mut best = self.port.next_key();
        let mut consider = |k: WorkKey| {
            if best.is_none_or(|b| k < b) {
                best = Some(k);
            }
        };
        if let Some((t, seq)) = self.mux.next_timer() {
            consider((t, 1, seq, 0));
        }
        if let Some(t) = self.next_open {
            consider((t, 2, 0, 0));
        }
        best
    }

    fn process_next(&mut self, key: WorkKey, out: &mut Out<TcpFrame>) {
        match key.1 {
            0 => self.process_envelope(out),
            1 => self.process_timer(out),
            2 => self.process_open(key.0, out),
            _ => unreachable!("unknown work class"),
        }
    }

    fn push_arrival(&mut self, env: Envelope<TcpFrame>) {
        self.port.push_arrival(env);
    }

    fn idle(&self) -> bool {
        self.port.inbox_is_empty() && self.next_open.is_none() && self.mux.idle()
    }
}

// -------------------------------------------------------------------
// Run drivers + report
// -------------------------------------------------------------------

fn make_boards(w: &TrafficWorkload) -> Vec<TrafficBoard> {
    w.validate();
    let n = usize::from(w.boards);
    let mask = PortMask::for_boards(usize::from(w.boards));
    let link = EthLinkConfig::hundred_gig();
    (0..n)
        .map(|id| {
            let mut mux =
                SessionMux::new(id as u8, w.stack.config(), mask).with_loss(w.loss_for(id as u8));
            if w.proxy && id == 1 {
                mux = mux.with_proxy_route(2);
            }
            let generates = !w.proxy || id == 0;
            let opens = if generates { w.sessions_per_board } else { 0 };
            TrafficBoard {
                id,
                n,
                w: *w,
                mux,
                opens_left: opens,
                opens_issued: 0,
                next_open: (opens > 0)
                    .then(|| Time::ZERO + Duration::from_ns(50) * (id as u64 + 1)),
                port: FabricPort::new(id, n, &link),
                seq: 0,
                buf: Vec::new(),
                frame: Vec::with_capacity(TCP_FRAME_BYTES),
                last: Time::ZERO,
            }
        })
        .collect()
}

/// What one traffic run did — a pure function of the
/// [`TrafficWorkload`], never of the thread count. Only
/// `epochs`/`epochs_skipped` depend on the engine;
/// [`TrafficRunReport::assert_matches`] compares everything else.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficRunReport {
    /// Boards simulated.
    pub boards: usize,
    /// Client sessions opened.
    pub opened: u64,
    /// Client sessions completed end to end.
    pub completed: u64,
    /// Passive opens accepted across all boards.
    pub accepted: u64,
    /// Passive flows fully closed.
    pub closed_server: u64,
    /// Proxy splices completed end to end.
    pub relayed_sessions: u64,
    /// Sum of every board's concurrent-flow high-water mark.
    pub peak_flows: u64,
    /// The single busiest board's high-water mark.
    pub peak_flows_board: u64,
    /// Flow-table slots ever allocated across all boards — the memory
    /// bound (equals `peak_flows` by slab construction).
    pub table_slots: u64,
    /// Segments emitted, including retransmissions and dropped copies.
    pub segments_tx: u64,
    /// Segments received and processed.
    pub segments_rx: u64,
    /// Data segments emitted.
    pub data_segments: u64,
    /// Zero-payload segments emitted.
    pub control_segments: u64,
    /// Duplicate acks received.
    pub dup_acks: u64,
    /// Payload bytes delivered in order to their receivers.
    pub payload_delivered: u64,
    /// Payload bytes spliced downstream→upstream by the proxy.
    pub relayed_bytes: u64,
    /// Data segments retransmitted.
    pub retransmissions: u64,
    /// RTO timers that fired a rewind.
    pub rto_fires: u64,
    /// Data segments discarded as out-of-order.
    pub out_of_order: u64,
    /// Segments dropped by the loss plans.
    pub losses_injected: u64,
    /// Drops recovered by retransmission.
    pub losses_recovered: u64,
    /// Bridge frames handed to the fabric.
    pub frames: u64,
    /// Encoded bytes handed to the fabric (synthetic payload included).
    pub wire_bytes: u64,
    /// Client handshake latency, merged across boards.
    pub handshake: LatencyHistogram,
    /// Client whole-session latency, merged across boards.
    pub session: LatencyHistogram,
    /// Latest instant any board observed.
    pub sim_end: Time,
    /// Lock-step epochs executed (zero under the reference driver).
    pub epochs: u64,
    /// Quiet epochs the engine jumped over (zero under the reference).
    pub epochs_skipped: u64,
    /// Cross-board envelopes exchanged.
    pub messages: u64,
    /// FNV-1a digest over every board's final state.
    pub digest: u64,
}

impl TrafficRunReport {
    /// Asserts this report equals `other` on every engine-independent
    /// field (everything but `epochs`/`epochs_skipped`).
    ///
    /// # Panics
    ///
    /// Panics on the first differing field.
    pub fn assert_matches(&self, other: &TrafficRunReport) {
        let mut a = self.clone();
        let mut b = other.clone();
        a.epochs = 0;
        b.epochs = 0;
        a.epochs_skipped = 0;
        b.epochs_skipped = 0;
        assert_eq!(a, b, "traffic run reports diverge");
    }

    /// Completed client sessions per second of simulated time.
    pub fn conns_per_sec(&self) -> f64 {
        let s = self.sim_end.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.completed as f64 / s
        }
    }

    /// Delivered payload bits per second of simulated time (the churn
    /// goodput; retransmitted copies excluded).
    pub fn goodput_bits(&self) -> f64 {
        let s = self.sim_end.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.payload_delivered as f64 * 8.0 / s
        }
    }

    /// Publishes the report under `prefix.*`. Every exported value is
    /// deterministic across thread counts, so two exports of same-seed
    /// runs are byte-identical.
    pub fn export_metrics(&self, prefix: &str, reg: &mut MetricsRegistry) {
        let c = |reg: &mut MetricsRegistry, k: &str, v: u64| {
            reg.counter_set(&format!("{prefix}.{k}"), v);
        };
        c(reg, "boards", self.boards as u64);
        c(reg, "opened", self.opened);
        c(reg, "completed", self.completed);
        c(reg, "accepted", self.accepted);
        c(reg, "closed_server", self.closed_server);
        c(reg, "relayed_sessions", self.relayed_sessions);
        c(reg, "peak_flows", self.peak_flows);
        c(reg, "peak_flows_board", self.peak_flows_board);
        c(reg, "table_slots", self.table_slots);
        c(reg, "segments_tx", self.segments_tx);
        c(reg, "segments_rx", self.segments_rx);
        c(reg, "data_segments", self.data_segments);
        c(reg, "control_segments", self.control_segments);
        c(reg, "dup_acks", self.dup_acks);
        c(reg, "payload_delivered", self.payload_delivered);
        c(reg, "relayed_bytes", self.relayed_bytes);
        c(reg, "retransmissions", self.retransmissions);
        c(reg, "rto_fires", self.rto_fires);
        c(reg, "out_of_order", self.out_of_order);
        c(reg, "losses_injected", self.losses_injected);
        c(reg, "losses_recovered", self.losses_recovered);
        c(reg, "frames", self.frames);
        c(reg, "wire_bytes", self.wire_bytes);
        c(reg, "sim_end_ps", self.sim_end.as_ps());
        c(reg, "epochs", self.epochs);
        c(reg, "epochs_skipped", self.epochs_skipped);
        c(reg, "messages", self.messages);
        c(reg, "digest", self.digest);
    }
}

fn finish_run(w: &TrafficWorkload, boards: Vec<TrafficBoard>, par: ParReport) -> TrafficRunReport {
    let mut digest = Fnv::new();
    let (mut handshake, mut session) = (LatencyHistogram::new(), LatencyHistogram::new());
    let (mut frames, mut wire_bytes) = (0, 0);
    for b in &boards {
        assert!(b.idle(), "run finished with live work on a board");
        assert_eq!(b.opens_left, 0, "a board retired with opens outstanding");
        assert_eq!(
            b.mux.table_slots(),
            b.mux.peak_flows(),
            "the slab grew past the concurrency high-water mark"
        );
        b.digest_into(&mut digest);
        handshake.merge(&b.mux.stats().handshake);
        session.merge(&b.mux.stats().session);
        let total = b.port.audit();
        assert_eq!(
            total.wire_bytes,
            total.payload_bytes + total.frames * TCP_FRAME_BYTES as u64,
            "board {}: every traffic frame adds exactly TCP_FRAME_BYTES",
            b.id
        );
        frames += total.frames;
        wire_bytes += total.wire_bytes;
    }
    let sum = |f: fn(&TrafficBoard) -> u64| boards.iter().map(f).sum();
    let report = TrafficRunReport {
        boards: boards.len(),
        opened: sum(|b| b.mux.stats().opened),
        completed: sum(|b| b.mux.stats().completed),
        accepted: sum(|b| b.mux.stats().accepted),
        closed_server: sum(|b| b.mux.stats().closed_server),
        relayed_sessions: sum(|b| b.mux.stats().relayed_sessions),
        peak_flows: sum(|b| u64::from(b.mux.peak_flows())),
        peak_flows_board: boards
            .iter()
            .map(|b| u64::from(b.mux.peak_flows()))
            .fold(0, u64::max),
        table_slots: sum(|b| u64::from(b.mux.table_slots())),
        segments_tx: sum(|b| b.mux.stats().segments_tx),
        segments_rx: sum(|b| b.mux.stats().segments_rx),
        data_segments: sum(|b| b.mux.stats().data_segments),
        control_segments: sum(|b| b.mux.stats().control_segments),
        dup_acks: sum(|b| b.mux.stats().dup_acks),
        payload_delivered: sum(|b| b.mux.stats().payload_delivered),
        relayed_bytes: sum(|b| b.mux.stats().relayed_bytes),
        retransmissions: sum(|b| b.mux.stats().retransmissions),
        rto_fires: sum(|b| b.mux.stats().rto_fires),
        out_of_order: sum(|b| b.mux.stats().out_of_order),
        losses_injected: sum(|b| b.mux.loss().plan().injected(SEGMENT_LOSS_TARGET)),
        losses_recovered: sum(|b| b.mux.loss().plan().recovered(SEGMENT_LOSS_TARGET)),
        frames,
        wire_bytes,
        handshake,
        session,
        sim_end: boards.iter().map(|b| b.last).fold(Time::ZERO, Time::max),
        epochs: par.epochs,
        epochs_skipped: par.epochs_skipped,
        messages: par.messages,
        digest: digest.finish(),
    };
    assert_eq!(report.opened, w.total_sessions(), "opens went missing");
    assert_eq!(
        report.completed, report.opened,
        "client sessions went missing"
    );
    assert_eq!(
        report.closed_server, report.accepted,
        "passive flows went missing"
    );
    if w.proxy {
        assert_eq!(
            report.relayed_sessions, report.opened,
            "splices went missing"
        );
        assert_eq!(
            report.payload_delivered,
            report.opened * w.bytes_per_session * 2,
            "proxied payload delivered once per hop"
        );
    } else {
        assert_eq!(report.relayed_sessions, 0);
        assert_eq!(
            report.payload_delivered,
            report.opened * w.bytes_per_session,
            "payload went missing"
        );
    }
    report
}

impl TrafficWorkload {
    /// Runs the workload on the conservative-parallel engine with
    /// `threads` workers. The report — and any metrics or bench JSON
    /// derived from it — is bit-identical for every thread count.
    pub fn run_parallel(&self, threads: usize) -> TrafficRunReport {
        self.run(Engine::Conservative(threads))
    }

    /// Runs the workload on the sequential reference driver. Exists to
    /// validate the parallel engine:
    /// [`TrafficRunReport::assert_matches`] against any
    /// [`TrafficWorkload::run_parallel`] report must hold.
    pub fn run_reference(&self) -> TrafficRunReport {
        self.run(Engine::Sequential)
    }

    fn run(&self, engine: Engine) -> TrafficRunReport {
        let mut boards = make_boards(self);
        let par = engine.run(&mut boards, self.lookahead());
        finish_run(self, boards, par)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_mesh_completes_clean() {
        let w = TrafficWorkload::small();
        let r = w.run_reference();
        assert_eq!(r.opened, 2 * 48);
        assert_eq!(r.completed, 96);
        assert_eq!(r.accepted, 96);
        assert_eq!(r.closed_server, 96);
        assert_eq!(r.relayed_sessions, 0);
        assert_eq!(r.payload_delivered, 96 * 8 * 1024);
        assert_eq!(r.retransmissions, 0);
        assert_eq!(r.losses_injected, 0);
        assert!(r.peak_flows > 2, "held sessions must overlap");
        assert_eq!(r.table_slots, r.peak_flows);
        assert!(r.conns_per_sec() > 0.0);
        assert_eq!(r.handshake.count(), 96);
    }

    #[test]
    fn parallel_matches_reference_across_threads() {
        let w = TrafficWorkload::small();
        let reference = w.run_reference();
        assert_eq!(reference.epochs, 0);
        let mut parallel: Vec<TrafficRunReport> =
            [1usize, 2, 4].iter().map(|&t| w.run_parallel(t)).collect();
        for p in &parallel {
            p.assert_matches(&reference);
        }
        let first = parallel.remove(0);
        assert!(first.epochs > 0);
        for p in &parallel {
            assert_eq!(*p, first, "thread counts diverge even on epochs");
        }
    }

    #[test]
    fn four_board_mesh_spreads_the_load() {
        let w = TrafficWorkload::small()
            .with_boards(4)
            .with_sessions_per_board(24);
        let r = w.run_reference();
        assert_eq!(r.opened, 4 * 24);
        assert_eq!(r.completed, 96);
        // Round-robin targets: every board accepts from every other.
        assert_eq!(r.accepted, 96);
    }

    #[test]
    fn loss_costs_goodput_but_loses_nothing() {
        let clean = TrafficWorkload::small()
            .with_bytes_per_session(64 * 1024)
            .with_sessions_per_board(12);
        let lossy = clean.with_loss_bp(200);
        let a = clean.run_reference();
        let b = lossy.run_reference();
        assert_eq!(a.payload_delivered, b.payload_delivered);
        assert_eq!(a.retransmissions, 0);
        assert!(b.losses_injected > 0, "2% loss must bite");
        // One RTO rewind recovers every drop in its window, so the
        // recovery ledger counts fires, not individual drops.
        assert_eq!(b.losses_recovered, b.rto_fires);
        assert!(b.retransmissions >= b.rto_fires);
        assert!(b.sim_end > a.sim_end, "recovery costs time");
    }

    #[test]
    fn proxy_chain_relays_every_session() {
        let w = TrafficWorkload::small()
            .with_proxy()
            .with_sessions_per_board(16);
        let r = w.run_reference();
        assert_eq!(r.opened, 16);
        assert_eq!(r.relayed_sessions, 16);
        // The proxy accepts 16 downstream and the server 16 upstream.
        assert_eq!(r.accepted, 32);
        assert_eq!(r.payload_delivered, 2 * 16 * 8 * 1024);
        assert_eq!(r.relayed_bytes, 16 * 8 * 1024);
    }

    #[test]
    fn kernel_and_hybrid_stacks_complete() {
        for stack in [TrafficStack::Kernel, TrafficStack::Hybrid] {
            let w = TrafficWorkload::small()
                .with_stack(stack)
                .with_sessions_per_board(8)
                .with_open_gap(Duration::from_us(60));
            let r = w.run_reference();
            assert_eq!(r.completed, 16, "{} sessions complete", stack.label());
        }
    }

    #[test]
    fn hybrid_stack_recovers_injected_loss_too() {
        // The experiment's loss leg now runs on the hybrid offload
        // point as well as the all-FPGA stack; pin the combination in
        // debug so the release-only leg cannot be its first exercise.
        let clean = TrafficWorkload::small()
            .with_stack(TrafficStack::Hybrid)
            .with_bytes_per_session(64 * 1024)
            .with_sessions_per_board(12)
            .with_open_gap(Duration::from_us(60));
        let lossy = clean.with_loss_bp(200);
        let a = clean.run_reference();
        let b = lossy.run_reference();
        assert_eq!(a.payload_delivered, b.payload_delivered);
        assert_eq!(a.retransmissions, 0);
        assert!(b.losses_injected > 0, "2% loss must bite");
        assert_eq!(b.losses_recovered, b.rto_fires);
        assert!(b.sim_end > a.sim_end, "recovery costs time");
    }

    #[test]
    fn different_seeds_diverge_only_under_loss() {
        let w = TrafficWorkload::small().with_loss_bp(300);
        let a = w.run_reference();
        let b = w.with_seed(0x0D15_EA5E).run_reference();
        assert_ne!(a.digest, b.digest, "loss draws from the seed");
        let c = TrafficWorkload::small();
        let d = c.with_seed(0x0D15_EA5E);
        assert_eq!(
            c.run_reference().digest,
            d.run_reference().digest,
            "without loss the seed is inert"
        );
    }
}
