//! A segment-level TCP engine split along offload boundaries.
//!
//! The monolithic engine entangled four concerns that hardware offload
//! needs separated (the mlwip argument): **connection management**
//! ([`conn`] — the handshake/teardown FSM), **reliability**
//! ([`reliability`] — segmentation, checksums, go-back-N retransmission,
//! in-order reassembly), **congestion control** ([`congestion`] — a
//! [`CongestionController`] value over fixed-window, Reno, and
//! CUBIC-shaped policies), and **flow control** ([`flow`] —
//! receive-window accounting and the ack ledger). [`TcpEngine`] is now a
//! composition of those modules, and a stack preset is a *module
//! selection*:
//!
//! * [`TcpStackConfig::fpga_coyote`] — every module on the FPGA cost
//!   model: 64 B per 300 MHz cycle in a single pipeline shared by all
//!   flows, fixed hardware window (paper §5.2: performance independent
//!   of flow count);
//! * [`TcpStackConfig::linux_kernel`] — every module on the CPU cost
//!   model: a fixed per-segment cost (interrupt, skb bookkeeping, copy),
//!   so one flow tops out well below 100 Gb/s and ~4 flows are needed to
//!   saturate the link;
//! * [`TcpStackConfig::hybrid_offload`] — **a new point between the
//!   Fig. 7 extremes**: reliability/segmentation on the FPGA cost model
//!   (it touches every byte), congestion/flow *policy* on the CPU cost
//!   model (it only touches acks), selected as Reno over the FPGA data
//!   path with a per-ack CPU policy cost.
//!
//! The two original presets keep fixed-window congestion control and a
//! zero per-ack cost, which makes the composed engine's arithmetic
//! — and therefore every [`TransferOutcome`] — bit-identical to the
//! monolith's (pinned by `tests/tcp_golden.rs`).
//!
//! The engine still does real protocol work, in one send/ack loop that
//! every flow runs ([`TcpEngine::transfer`] is the one-flow case of
//! [`TcpEngine::transfer_interleaved`]): it segments the byte stream,
//! computes and verifies the Internet checksum on every segment,
//! reassembles the stream in order, enforces the composed send window
//! with cumulative acknowledgements, and recovers from injected loss
//! with go-back-N retransmission on timeout. Timing comes from the
//! [`EthLink`] plus per-segment processing costs.

pub mod congestion;
pub mod conn;
pub mod flow;
pub mod model;
pub mod mux;
pub mod reliability;

pub use congestion::{CcAlgorithm, CongestionController, CubicShaped, Reno};
pub use conn::{ConnError, ConnEvent, ConnState, Connection};
pub use flow::{AckLedger, SendWindow};
pub use model::{TcpModel, TcpModelConfig, TcpMutation, TcpViolationKind, ALL_TCP_MUTATIONS};
pub use mux::{MuxStats, SessionMux, WireSegment, MAX_SESSION_BYTES};
pub use reliability::{
    checksum_verifies, internet_checksum, segment_len, GoBackN, Reassembler, Rewind,
};

use enzian_sim::stats::Summary;
use enzian_sim::telemetry::MetricsRegistry;
use enzian_sim::{Duration, FaultPlan, FaultSpec, Time};
use std::collections::VecDeque;

use crate::eth::{EthLink, Switch};

/// Payload-free control segments (SYN, FIN, bare acks) still occupy this
/// many bytes on the wire.
const CONTROL_SEGMENT_BYTES: u64 = 64;

/// Which stack personality a config models — equivalently, which side of
/// the CPU/FPGA boundary each module lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackKind {
    /// The single-pipeline hardware stack (Sidler et al., as ported to
    /// Enzian as a Coyote service): every module in the FPGA.
    FpgaPipeline,
    /// A kernel software stack on a fast server core: every module on
    /// the CPU.
    Kernel,
    /// Reliability/segmentation in the FPGA pipeline, congestion/flow
    /// policy on the CPU — the point between the Fig. 7 extremes.
    Hybrid,
}

/// Cost/parameter set for one endpoint's stack.
///
/// `#[non_exhaustive]`: construct from a named preset
/// ([`TcpStackConfig::fpga_coyote`] / [`TcpStackConfig::linux_kernel`] /
/// [`TcpStackConfig::hybrid_offload`]) and adjust its public fields,
/// directly or with the `with_*` setters.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct TcpStackConfig {
    /// Stack personality.
    pub kind: StackKind,
    /// Maximum segment payload (MTU minus headers).
    pub mss: usize,
    /// Receive window in bytes (the flow-control module's bound).
    pub window: u64,
    /// Fixed per-segment processing cost (reliability data path).
    pub per_segment: Duration,
    /// Additional processing cost per 64 bytes of payload.
    pub per_64_bytes: Duration,
    /// One-time per-transfer overhead (socket wakeup/syscall path for
    /// the kernel stack; nil for hardware).
    pub per_transfer: Duration,
    /// Per-ack policy cost on the sender (congestion/flow decision).
    /// Zero when policy lives next to the data path; nonzero on the
    /// hybrid preset, where each ack crosses to the CPU.
    pub per_ack: Duration,
    /// Retransmission timeout (reliability module).
    pub rto: Duration,
    /// Congestion-control module selection.
    pub cc: CcAlgorithm,
}

impl TcpStackConfig {
    /// Returns the config with the congestion controller replaced.
    pub fn with_cc(mut self, cc: CcAlgorithm) -> Self {
        self.cc = cc;
        self
    }

    /// The FPGA stack at a 2 KiB MTU on a 300 MHz shell clock: every
    /// module in hardware, fixed-window congestion control (the
    /// pipeline's buffer is the window).
    pub fn fpga_coyote() -> Self {
        TcpStackConfig {
            kind: StackKind::FpgaPipeline,
            mss: 2048,
            window: 256 * 1024,
            per_segment: Duration::from_ns(30),
            per_64_bytes: Duration::from_ns(3), // 64 B/cycle at ~300 MHz
            per_transfer: Duration::ZERO,
            per_ack: Duration::ZERO,
            rto: Duration::from_us(500),
            cc: CcAlgorithm::Fixed,
        }
    }

    /// A Linux kernel stack on a Xeon Gold core at MTU 1500: every
    /// module on the CPU. Fixed-window congestion control keeps the
    /// preset bit-identical to the pre-split monolith; select
    /// [`CcAlgorithm::Reno`]/[`CcAlgorithm::Cubic`] with
    /// [`with_cc`](Self::with_cc) to study real kernel policies.
    pub fn linux_kernel() -> Self {
        TcpStackConfig {
            kind: StackKind::Kernel,
            mss: 1448,
            window: 2 * 1024 * 1024,
            per_segment: Duration::from_ns(430),
            per_64_bytes: Duration::from_ps(400), // memcpy at ~160 GB/s
            per_transfer: Duration::from_us(24),
            per_ack: Duration::ZERO,
            rto: Duration::from_ms(2),
            cc: CcAlgorithm::Fixed,
        }
    }

    /// The hybrid offload point the module split exists to express:
    /// reliability/segmentation in the FPGA pipeline (FPGA per-byte
    /// costs), congestion/flow policy on the CPU (Reno, with a per-ack
    /// CPU decision cost and a CPU-scale RTO). Sits between the Fig. 7
    /// extremes: the data path streams at pipeline speed once Reno's
    /// slow start has opened the window.
    pub fn hybrid_offload() -> Self {
        TcpStackConfig {
            kind: StackKind::Hybrid,
            mss: 2048,
            window: 512 * 1024,
            per_segment: Duration::from_ns(30),
            per_64_bytes: Duration::from_ns(3),
            per_transfer: Duration::from_us(2), // CPU arms the offload
            per_ack: Duration::from_ns(250),    // policy decision on CPU
            rto: Duration::from_ms(1),
            cc: CcAlgorithm::Reno,
        }
    }

    fn segment_cost(&self, bytes: usize) -> Duration {
        self.per_segment + self.per_64_bytes * (bytes as u64).div_ceil(64)
    }
}

/// [`TcpEngine::transfer_interleaved`] was asked to run several flows
/// on an engine with loss injection: one fault plan is not shared
/// across flows, so only a one-flow transfer may be lossy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LossyMultiFlow {
    /// The flows the call asked for.
    pub flows: usize,
}

impl std::fmt::Display for LossyMultiFlow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "loss injection is configured, so a transfer takes one flow, not {}",
            self.flows
        )
    }
}

impl std::error::Error for LossyMultiFlow {}

/// Result of one simulated transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferOutcome {
    /// Payload bytes moved.
    pub bytes: u64,
    /// When the sending application handed the data to the stack.
    pub started: Time,
    /// When the last payload byte was delivered to the receiving
    /// application.
    pub delivered: Time,
    /// Segments retransmitted (after injected loss).
    pub retransmissions: u64,
    /// Segments sent in total.
    pub segments: u64,
}

impl TransferOutcome {
    /// One-way transfer latency (application to application).
    pub fn latency(&self) -> Duration {
        self.delivered.since(self.started)
    }

    /// Goodput in bits per second.
    pub fn throughput_bits(&self) -> f64 {
        let s = self.latency().as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.bytes as f64 * 8.0 / s
        }
    }
}

/// Result of one connection-managed session: handshake, transfer,
/// orderly teardown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionOutcome {
    /// When the three-way handshake completed at both endpoints.
    pub established: Time,
    /// The payload transfer, started at `established`.
    pub transfer: TransferOutcome,
    /// When the active closer left TimeWait (2·RTO linger after the
    /// FIN/ACK exchange).
    pub closed: Time,
    /// Control segments (SYN, SYN-ACK, FIN, bare acks) exchanged.
    pub control_segments: u64,
}

/// Fault-plan target for dropping a TCP data segment in flight.
pub const SEGMENT_LOSS_TARGET: &str = "net.tcp.segment_loss";

/// Fault-plan target for dropping the cumulative acknowledgement a data
/// segment elicits (the segment itself delivers). Recovery is usually a
/// *later* cumulative ack covering the same bytes — no retransmission at
/// all — and only an RTO rewind when no further ack traffic exists.
pub const ACK_LOSS_TARGET: &str = "net.tcp.ack_loss";

/// Fault-plan target for corrupting a data segment in flight: the copy
/// arrives, fails checksum verification in the reliability module, and
/// is silently discarded (`reliability.checksum_rejects`); the sender's
/// RTO retransmits it.
pub const SEGMENT_CORRUPT_TARGET: &str = "net.tcp.segment_corrupt";

/// Fault-plan target for a receive-window collapse: the ack it fires on
/// advertises a zero window (buffer momentarily full). The sender stalls
/// on flow control (`flow_ctl.rwnd_stalls`) until the receiver drains
/// one MSS and sends a reopening window update.
pub const RWND_SHRINK_TARGET: &str = "net.tcp.rwnd_shrink";

/// Loss injection for the engine, built on the shared deterministic
/// fault model ([`FaultPlan`]).
///
/// Semantics (precisely): loss applies to **first transmissions only**,
/// counted as injection opportunities in the order segments first appear
/// on the wire (1-based). A dropped segment is recovered by go-back-N
/// retransmission after the sender's RTO, and a retransmitted copy is
/// never offered to the plan again — so every pattern terminates,
/// including [`LossPattern::drop_every`] with `n = 1`, where every
/// segment's first copy is dropped exactly once and the retransmit
/// always delivers.
///
/// The plan's injected/recovered ledger, the reliability module's
/// [`GoBackN`] rewind count, and the per-flow [`FlowStats`] all describe
/// the *same* events: the engine fires a rewind in exactly one place,
/// notes the recovery on the plan there, and copies the module's count
/// into the flow stats once per transfer — so the three views can never
/// double-count.
#[derive(Debug, Clone, PartialEq)]
pub struct LossPattern {
    plan: FaultPlan,
}

impl LossPattern {
    /// No loss at all.
    pub fn none() -> Self {
        LossPattern {
            plan: FaultPlan::new(0),
        }
    }

    /// Compatibility constructor for the engine's original knob: drop
    /// each segment whose 1-based first-transmission index is a multiple
    /// of `n`. Zero disables loss.
    pub fn drop_every(n: u64) -> Self {
        if n == 0 {
            return LossPattern::none();
        }
        LossPattern {
            plan: FaultPlan::new(0).with(FaultSpec::every_nth(SEGMENT_LOSS_TARGET, n)),
        }
    }

    /// Wraps an arbitrary fault plan; specs addressing
    /// [`SEGMENT_LOSS_TARGET`] drive segment drops (one opportunity per
    /// first transmission).
    pub fn from_plan(plan: FaultPlan) -> Self {
        LossPattern { plan }
    }

    /// `true` when the pattern can never perturb a transfer: none of the
    /// per-module fault targets (segment loss, ack loss, corruption,
    /// window shrink) is addressed by the plan.
    pub fn is_lossless(&self) -> bool {
        ![
            SEGMENT_LOSS_TARGET,
            ACK_LOSS_TARGET,
            SEGMENT_CORRUPT_TARGET,
            RWND_SHRINK_TARGET,
        ]
        .iter()
        .any(|t| self.plan.targets(t))
    }

    /// The underlying plan, with its injected/recovered ledger.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn should_drop(&mut self, now: Time) -> bool {
        self.plan.should_fire(SEGMENT_LOSS_TARGET, now)
    }

    fn should_corrupt(&mut self, now: Time) -> bool {
        self.plan.should_fire(SEGMENT_CORRUPT_TARGET, now)
    }

    fn should_drop_ack(&mut self, now: Time) -> bool {
        self.plan.should_fire(ACK_LOSS_TARGET, now)
    }

    fn should_shrink_rwnd(&mut self, now: Time) -> bool {
        self.plan.should_fire(RWND_SHRINK_TARGET, now)
    }

    fn note_recovered_on(&mut self, target: &str, now: Time, latency: Duration) {
        self.plan.note_recovery(target, now, latency);
    }
}

impl Default for LossPattern {
    fn default() -> Self {
        LossPattern::none()
    }
}

/// A unidirectional TCP transfer engine between endpoint `a` (sender)
/// and `b` (receiver) over a shared [`EthLink`] and [`Switch`],
/// composed from the four protocol modules. Each transfer call builds
/// its flows' congestion controllers from the sender config's
/// [`CcAlgorithm`], so policy state lives for one call, as a
/// connection's does.
#[derive(Debug)]
pub struct TcpEngine {
    tx: TcpStackConfig,
    rx: TcpStackConfig,
    switch: Switch,
    loss: LossPattern,
    telemetry: TcpTelemetry,
}

/// Per-flow transfer counters — the telemetry's single source of truth;
/// every aggregate view is a derived sum over these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Transfers completed on this flow.
    pub transfers: u64,
    /// Payload bytes delivered on this flow.
    pub bytes: u64,
    /// Segments sent on this flow (including retransmissions).
    pub segments: u64,
    /// Segments retransmitted on this flow (copied once per transfer
    /// from the reliability module's [`GoBackN`] ledger).
    pub retransmissions: u64,
}

/// Per-module observations attributing behaviour to the module that
/// caused it: the congestion module's effective-window trajectory and
/// stalls, the flow module's receive-window stalls, and the connection
/// module's handshake/teardown counts. Retransmissions/RTO fires belong
/// to the reliability module but are *derived* from [`FlowStats`] (see
/// [`TcpTelemetry::rto_fires`]) so there is exactly one ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleTelemetry {
    /// Effective send window `min(cwnd, rwnd)` sampled at each data
    /// transmission, bytes — the congestion trajectory.
    pub cwnd_bytes: Summary,
    /// Sends blocked with the congestion window as the binding
    /// constraint (cwnd < rwnd at the stall).
    pub cwnd_stalls: u64,
    /// Sends blocked with the receive window as the binding constraint.
    pub rwnd_stalls: u64,
    /// Zero-window advertisements applied by the flow-control module
    /// (each later drains and reopens via a window update).
    pub rwnd_shrinks: u64,
    /// Segments the reliability module discarded because checksum
    /// verification failed (injected corruption); each is recovered by
    /// exactly one RTO retransmission in the same ledger.
    pub checksum_rejects: u64,
    /// Three-way handshakes completed by the connection module.
    pub handshakes: u64,
    /// Orderly teardowns completed by the connection module.
    pub teardowns: u64,
    /// Control segments (SYN/SYN-ACK/FIN/bare-ack) exchanged.
    pub control_segments: u64,
}

impl Default for ModuleTelemetry {
    fn default() -> Self {
        ModuleTelemetry {
            // Summary::new(), not Summary::default(): the derived
            // default has a zeroed min that would poison min-tracking.
            cwnd_bytes: Summary::new(),
            cwnd_stalls: 0,
            rwnd_stalls: 0,
            rwnd_shrinks: 0,
            checksum_rejects: 0,
            handshakes: 0,
            teardowns: 0,
            control_segments: 0,
        }
    }
}

/// Accumulated engine statistics across transfers: segment round-trip
/// times (send completion to cumulative-ack arrival, per flow),
/// per-flow transfer/loss-recovery counters, and per-module
/// observations. Single transfers record into flow 0, interleaved
/// transfers into their flow index; aggregate totals are derived, never
/// tracked separately.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TcpTelemetry {
    /// Per-flow RTT summaries in microseconds.
    pub flow_rtt_us: Vec<Summary>,
    flow_stats: Vec<FlowStats>,
    module: ModuleTelemetry,
}

impl TcpTelemetry {
    fn rtt_flow(&mut self, i: usize) -> &mut Summary {
        if self.flow_rtt_us.len() <= i {
            self.flow_rtt_us.resize(i + 1, Summary::new());
        }
        &mut self.flow_rtt_us[i]
    }

    fn stats_flow(&mut self, i: usize) -> &mut FlowStats {
        if self.flow_stats.len() <= i {
            self.flow_stats.resize(i + 1, FlowStats::default());
        }
        &mut self.flow_stats[i]
    }

    /// Per-module observations (congestion trajectory, stall
    /// attribution, connection counts).
    pub fn module(&self) -> &ModuleTelemetry {
        &self.module
    }

    /// Total transfers completed (derived over flows).
    pub fn transfers(&self) -> u64 {
        self.flow_stats.iter().map(|f| f.transfers).sum()
    }

    /// Total payload bytes delivered (derived over flows).
    pub fn bytes(&self) -> u64 {
        self.flow_stats.iter().map(|f| f.bytes).sum()
    }

    /// Total segments sent, including retransmissions (derived over
    /// flows).
    pub fn segments(&self) -> u64 {
        self.flow_stats.iter().map(|f| f.segments).sum()
    }

    /// Total segments retransmitted (derived over flows).
    pub fn retransmissions(&self) -> u64 {
        self.flow_stats.iter().map(|f| f.retransmissions).sum()
    }

    /// RTO fires in the reliability module. In this engine every RTO
    /// fire is exactly one go-back-N rewind, so this is the same ledger
    /// as [`retransmissions`](Self::retransmissions) — derived, never a
    /// second counter.
    pub fn rto_fires(&self) -> u64 {
        self.retransmissions()
    }

    /// All flows' RTT samples merged into one summary.
    fn rtt_us(&self) -> Summary {
        let mut all = Summary::new();
        for s in &self.flow_rtt_us {
            all.merge(s);
        }
        all
    }
}

/// Publishes the engine's counters: derived totals, the merged RTT
/// summary (`prefix.rtt_us`), per-flow counters and RTT summaries
/// (`prefix.flow<i>.*`), and per-module views (`prefix.congestion.*`,
/// `prefix.flow_ctl.*`, `prefix.reliability.*`, `prefix.conn.*`).
impl enzian_sim::Instrumented for TcpTelemetry {
    fn export_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        registry.counter_set(&format!("{prefix}.transfers"), self.transfers());
        registry.counter_set(&format!("{prefix}.bytes"), self.bytes());
        registry.counter_set(&format!("{prefix}.segments"), self.segments());
        registry.counter_set(&format!("{prefix}.retransmissions"), self.retransmissions());
        registry.merge_summary(&format!("{prefix}.rtt_us"), &self.rtt_us());
        for (i, s) in self.flow_rtt_us.iter().enumerate() {
            registry.merge_summary(&format!("{prefix}.flow{i}.rtt_us"), s);
        }
        for (i, f) in self.flow_stats.iter().enumerate() {
            registry.counter_set(&format!("{prefix}.flow{i}.segments"), f.segments);
            registry.counter_set(
                &format!("{prefix}.flow{i}.retransmissions"),
                f.retransmissions,
            );
        }
        let m = &self.module;
        registry.merge_summary(&format!("{prefix}.congestion.cwnd_bytes"), &m.cwnd_bytes);
        registry.counter_set(&format!("{prefix}.congestion.cwnd_stalls"), m.cwnd_stalls);
        registry.counter_set(&format!("{prefix}.flow_ctl.rwnd_stalls"), m.rwnd_stalls);
        registry.counter_set(&format!("{prefix}.flow_ctl.rwnd_shrinks"), m.rwnd_shrinks);
        registry.counter_set(&format!("{prefix}.reliability.rto_fires"), self.rto_fires());
        registry.counter_set(
            &format!("{prefix}.reliability.checksum_rejects"),
            m.checksum_rejects,
        );
        registry.counter_set(&format!("{prefix}.conn.handshakes"), m.handshakes);
        registry.counter_set(&format!("{prefix}.conn.teardowns"), m.teardowns);
        registry.counter_set(
            &format!("{prefix}.conn.control_segments"),
            m.control_segments,
        );
    }
}

/// One flow's sender, receiver and module state for the length of one
/// [`TcpEngine::transfer_interleaved`] call.
struct FlowRun<'d> {
    data: &'d [u8],
    len: u64,
    delivered: Vec<u8>,
    // Sender state.
    acked: u64,
    sent: u64,
    tx_free: Time,
    segments: u64,
    swnd: SendWindow,
    acks: AckLedger,
    // Window advertisement riding on each in-flight ack (same wire
    // order as `acks`); normally the full receive window, zero when the
    // rwnd-shrink fault fires.
    advs: VecDeque<u64>,
    gbn: GoBackN,
    cc: CongestionController,
    // Receiver state (go-back-N discards anything out of order and
    // re-acks the in-order edge).
    reassembler: Reassembler,
    rx_free: Time,
    last_delivery: Time,
}

impl<'d> FlowRun<'d> {
    fn new(data: &'d [u8], start: Time, tx: &TcpStackConfig) -> Self {
        assert!(!data.is_empty(), "empty transfer");
        FlowRun {
            data,
            len: data.len() as u64,
            delivered: vec![0u8; data.len()],
            acked: 0,
            sent: 0,
            tx_free: start + tx.per_transfer,
            segments: 0,
            swnd: SendWindow::new(tx.window),
            acks: AckLedger::new(),
            advs: VecDeque::new(),
            gbn: GoBackN::new(),
            cc: tx.cc.build(tx),
            reassembler: Reassembler::new(),
            rx_free: Time::ZERO,
            last_delivery: start,
        }
    }

    /// `tx` is the sender config the flow was built from, here and in
    /// every method that reads the congestion window.
    fn window_open(&self, tx: &TcpStackConfig) -> bool {
        self.sent - self.acked < self.swnd.effective(self.cc.cwnd(tx)) && self.sent < self.len
    }

    /// The pending RTO rewind once it is due: its timer expired before
    /// the sender pipeline frees, or nothing else can happen first.
    fn due_rto(&self, tx: &TcpStackConfig) -> Option<Rewind> {
        self.gbn
            .pending()
            .filter(|r| r.at <= self.tx_free || (!self.window_open(tx) && self.acks.is_empty()))
    }

    /// When this flow's next step acts, mirroring the step's choice: a
    /// due RTO, else a send while the window is open, else the oldest
    /// ack.
    fn next_at(&self, tx: &TcpStackConfig) -> Time {
        match self.due_rto(tx) {
            Some(r) => self.tx_free.max(r.at),
            None if self.window_open(tx) => self.tx_free,
            None => self.acks.next_arrival().expect("flow deadlock"),
        }
    }
}

impl TcpEngine {
    /// Creates an engine between two stack personalities through a
    /// top-of-rack switch. Each flow's congestion controller is built
    /// from the sender (`tx`) config's [`CcAlgorithm`].
    pub fn new(tx: TcpStackConfig, rx: TcpStackConfig, switch: Switch) -> Self {
        TcpEngine {
            tx,
            rx,
            switch,
            loss: LossPattern::default(),
            telemetry: TcpTelemetry::default(),
        }
    }

    /// Statistics accumulated across all transfers on this engine.
    pub fn telemetry(&self) -> &TcpTelemetry {
        &self.telemetry
    }

    /// Enables loss injection.
    pub fn with_loss(mut self, loss: LossPattern) -> Self {
        self.loss = loss;
        self
    }

    /// Transfers `data` from a to b starting at `start`: the one-flow
    /// case of [`transfer_interleaved`](Self::transfer_interleaved).
    ///
    /// Returns the delivered bytes and the timing outcome.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or a checksum ever fails to verify (a
    /// model bug: injected corruption is rejected before the check).
    pub fn transfer(
        &mut self,
        link: &mut EthLink,
        start: Time,
        data: &[u8],
    ) -> (Vec<u8>, TransferOutcome) {
        self.transfer_interleaved(link, start, &[data])
            .expect("one flow may be lossy")
            .remove(0)
    }

    /// Runs a full connection-managed session: three-way handshake,
    /// [`transfer`](Self::transfer) of `data` starting once both ends
    /// are established, then an orderly FIN/ACK teardown with a 2·RTO
    /// TimeWait linger. Both endpoints' [`Connection`] FSMs are driven
    /// through every transition, so an illegal sequence panics rather
    /// than mis-modelling.
    pub fn session(
        &mut self,
        link: &mut EthLink,
        start: Time,
        data: &[u8],
    ) -> (Vec<u8>, SessionOutcome) {
        let (delivered, outcome, _) = self.session_traced(link, start, data);
        (delivered, outcome)
    }

    /// [`session`](Self::session), additionally returning the exact
    /// [`ConnState`] sequence each endpoint's FSM walked (active opener
    /// first), starting from `Closed`. The model checker's
    /// [`TcpModel::orderly_trace`] replays its canonical fault-free
    /// schedule through the same transition relation; the conformance
    /// test in `tests/tcp_explore.rs` pins the two walks equal.
    pub fn session_traced(
        &mut self,
        link: &mut EthLink,
        start: Time,
        data: &[u8],
    ) -> (Vec<u8>, SessionOutcome, (Vec<ConnState>, Vec<ConnState>)) {
        let hop = self.switch.forwarding_latency();
        let ctl_tx = self.tx.segment_cost(0);
        let ctl_rx = self.rx.segment_cost(0);
        let mut a = Connection::new();
        let mut b = Connection::new();
        let mut trace_a = vec![a.state()];
        let mut trace_b = vec![b.state()];
        fn step(c: &mut Connection, trace: &mut Vec<ConnState>, ev: ConnEvent) {
            let next = c.on(ev).expect("legal connection transition");
            trace.push(next);
        }

        // --- Three-way handshake -------------------------------------
        step(&mut a, &mut trace_a, ConnEvent::ActiveOpen);
        step(&mut b, &mut trace_b, ConnEvent::PassiveOpen);
        let syn_sent = start + self.tx.per_transfer + ctl_tx;
        let syn_rcvd = link.send_a_to_b(syn_sent, CONTROL_SEGMENT_BYTES) + hop + ctl_rx;
        step(&mut b, &mut trace_b, ConnEvent::SynRcvd);
        let synack_sent = syn_rcvd + ctl_rx;
        let synack_rcvd = link.send_b_to_a(synack_sent, CONTROL_SEGMENT_BYTES) + hop + ctl_tx;
        step(&mut a, &mut trace_a, ConnEvent::SynAckRcvd);
        let ack_sent = synack_rcvd + ctl_tx;
        let established = link.send_a_to_b(ack_sent, CONTROL_SEGMENT_BYTES) + hop + ctl_rx;
        step(&mut b, &mut trace_b, ConnEvent::AckRcvd);
        assert!(a.is_established() && b.is_established());
        self.telemetry.module.handshakes += 1;
        self.telemetry.module.control_segments += 3;

        // --- Payload -------------------------------------------------
        let (delivered, transfer) = self.transfer(link, established, data);

        // --- Orderly teardown (a closes first) -----------------------
        step(&mut a, &mut trace_a, ConnEvent::Close);
        let fin_sent = transfer.delivered.max(established) + ctl_tx;
        let fin_rcvd = link.send_a_to_b(fin_sent, CONTROL_SEGMENT_BYTES) + hop + ctl_rx;
        step(&mut b, &mut trace_b, ConnEvent::FinRcvd);
        let finack_sent = fin_rcvd + ctl_rx;
        let finack_rcvd = link.send_b_to_a(finack_sent, CONTROL_SEGMENT_BYTES) + hop + ctl_tx;
        step(&mut a, &mut trace_a, ConnEvent::AckRcvd);
        step(&mut b, &mut trace_b, ConnEvent::Close);
        let fin2_sent = finack_rcvd.max(fin_rcvd + ctl_rx) + ctl_rx;
        let fin2_rcvd = link.send_b_to_a(fin2_sent, CONTROL_SEGMENT_BYTES) + hop + ctl_tx;
        step(&mut a, &mut trace_a, ConnEvent::FinRcvd);
        let lastack_sent = fin2_rcvd + ctl_tx;
        let lastack_rcvd = link.send_a_to_b(lastack_sent, CONTROL_SEGMENT_BYTES) + hop + ctl_rx;
        step(&mut b, &mut trace_b, ConnEvent::AckRcvd);
        assert_eq!(b.state(), ConnState::Closed);
        let closed = lastack_rcvd + self.tx.rto * 2;
        step(&mut a, &mut trace_a, ConnEvent::TimeWaitExpired);
        assert_eq!(a.state(), ConnState::Closed);
        self.telemetry.module.teardowns += 1;
        self.telemetry.module.control_segments += 4;

        (
            delivered,
            SessionOutcome {
                established,
                transfer,
                closed,
                control_segments: 7,
            },
            (trace_a, trace_b),
        )
    }

    /// Transfers each of `flows` from a to b, all starting at `start`
    /// and sharing the link: the live flow whose next action comes
    /// first acts next, the lowest index on a tie. Each flow has its own
    /// sender/receiver pipeline, modules and congestion controller (its
    /// own core or connection state), as in the iperf multi-flow
    /// comparison. Every flow verifies the checksum on every segment,
    /// reassembles its stream in order and attributes its window stalls.
    ///
    /// Returns each flow's delivered bytes and timing outcome.
    ///
    /// # Errors
    ///
    /// Returns [`LossyMultiFlow`], and transfers nothing, if loss
    /// injection is configured and `flows` holds more than one flow.
    ///
    /// # Panics
    ///
    /// Panics if `flows` is empty, any flow is empty, or a checksum
    /// fails to verify.
    pub fn transfer_interleaved(
        &mut self,
        link: &mut EthLink,
        start: Time,
        flows: &[&[u8]],
    ) -> Result<Vec<(Vec<u8>, TransferOutcome)>, LossyMultiFlow> {
        assert!(!flows.is_empty(), "no flows");
        if flows.len() > 1 && !self.loss.is_lossless() {
            return Err(LossyMultiFlow { flows: flows.len() });
        }
        let mut runs: Vec<FlowRun> = flows
            .iter()
            .map(|data| FlowRun::new(data, start, &self.tx))
            .collect();
        // A plain scan suffices for the one to four flows callers run;
        // `min_by_key` keeps the lowest index on a tie.
        while let Some(i) = (0..runs.len())
            .filter(|&i| runs[i].acked < runs[i].len)
            .min_by_key(|&i| runs[i].next_at(&self.tx))
        {
            self.step(link, i, &mut runs[i]);
        }
        Ok(runs
            .into_iter()
            .enumerate()
            .map(|(i, f)| {
                assert_eq!(
                    f.reassembler.rcv_next(),
                    f.len,
                    "receiver did not reach end of stream"
                );
                let retransmissions = f.gbn.retransmissions();
                let fs = self.telemetry.stats_flow(i);
                fs.transfers += 1;
                fs.bytes += f.len;
                fs.segments += f.segments;
                fs.retransmissions += retransmissions;
                let outcome = TransferOutcome {
                    bytes: f.len,
                    started: start,
                    delivered: f.last_delivery,
                    retransmissions,
                    segments: f.segments,
                };
                (f.delivered, outcome)
            })
            .collect())
    }

    /// Takes flow `i`'s next action (see [`FlowRun::next_at`]).
    fn step(&mut self, link: &mut EthLink, i: usize, f: &mut FlowRun<'_>) {
        let hop = self.switch.forwarding_latency();
        if let Some(r) = f.due_rto(&self.tx) {
            f.cc.on_rto(&self.tx, f.sent - f.acked, r.at);
            f.gbn.fire();
            f.sent = r.seq.min(f.sent);
            f.tx_free = f.tx_free.max(r.at);
            self.loss.note_recovered_on(r.cause, r.at, self.tx.rto);
        } else if f.window_open(&self.tx) {
            // Send the next segment.
            let wnd = f.swnd.effective(f.cc.cwnd(&self.tx));
            let seg_len = segment_len(self.tx.mss, f.len, f.sent);
            let seq = f.sent;
            let payload = &f.data[seq as usize..seq as usize + seg_len];
            let checksum = internet_checksum(payload);
            f.segments += 1;
            self.telemetry.module.cwnd_bytes.record(wnd as f64);
            let tx_done = f.tx_free + self.tx.segment_cost(seg_len);
            f.tx_free = tx_done;
            f.sent = seq + seg_len as u64;

            // Fault opportunities are offered on first transmissions
            // only, so every pattern terminates: a retransmitted copy
            // (and the ack it elicits) always goes through.
            let first = f.gbn.first_transmission(seq, f.sent);
            if first && self.loss.should_drop(tx_done) {
                // The receiver never sees this one; arrange an RTO
                // rewind to it if none is already pending earlier.
                f.gbn
                    .schedule_rewind(tx_done + self.tx.rto, seq, SEGMENT_LOSS_TARGET);
                return;
            }

            let arrived = link.send_a_to_b(tx_done, seg_len as u64) + hop;
            let rx_done = arrived.max(f.rx_free) + self.rx.segment_cost(seg_len);
            f.rx_free = rx_done;

            if first && self.loss.should_corrupt(tx_done) {
                // The copy arrived damaged: the reliability module's
                // checksum check rejects it and the receiver stays
                // silent, exactly as for a lost segment — the sender's
                // RTO recovers it through the same ledger.
                let mut damaged = payload.to_vec();
                damaged[0] ^= 0x5A;
                assert!(
                    !checksum_verifies(&damaged, checksum),
                    "corruption must not survive verification"
                );
                self.telemetry.module.checksum_rejects += 1;
                f.gbn
                    .schedule_rewind(tx_done + self.tx.rto, seq, SEGMENT_CORRUPT_TARGET);
                return;
            }

            assert!(
                checksum_verifies(payload, checksum),
                "checksum mismatch at {seq}"
            );
            if f.reassembler
                .deliver_in_order(seq, payload, &mut f.delivered)
            {
                f.last_delivery = f.last_delivery.max(rx_done);
            }
            // Either way a cumulative ack for the in-order edge rides
            // back.
            let ack_arrival = link.send_b_to_a(rx_done, CONTROL_SEGMENT_BYTES) + hop;
            if first && self.loss.should_drop_ack(ack_arrival) {
                // The data delivered but its ack is gone. Arm the RTO; if
                // a later cumulative ack covers this offset first, the
                // timer is cancelled and nothing is retransmitted (the
                // single ledger never moves).
                f.gbn
                    .schedule_rewind(ack_arrival + self.tx.rto, seq, ACK_LOSS_TARGET);
                return;
            }
            let adv = if first && self.loss.should_shrink_rwnd(ack_arrival) {
                0
            } else {
                self.tx.window
            };
            self.telemetry
                .rtt_flow(i)
                .record_micros(ack_arrival.since(tx_done));
            f.acks.push(ack_arrival, f.reassembler.rcv_next());
            f.advs.push_back(adv);
        } else {
            // Window closed or data exhausted: consume the next ack.
            let (at, upto) = f.acks.pop().expect("flow deadlock");
            if f.sent < f.len {
                // A genuine window stall: attribute it to the module
                // whose bound was binding.
                if f.swnd.rwnd_is_binding(f.cc.cwnd(&self.tx)) {
                    self.telemetry.module.rwnd_stalls += 1;
                } else {
                    self.telemetry.module.cwnd_stalls += 1;
                }
            }
            let newly = upto.saturating_sub(f.acked);
            f.acked = f.acked.max(upto);
            f.tx_free = f.tx_free.max(at) + self.tx.per_ack;
            f.cc.on_ack(&self.tx, newly, at);
            // Everything up to `upto` is delivered; anything beyond
            // `sent` cannot regress below it.
            f.sent = f.sent.max(f.acked);
            // A cumulative ack covering a pending rewind voids the timer:
            // the bytes are delivered, no retransmission is needed (this
            // is how a lost ack recovers without the ledger ever moving).
            if let Some(r) = f.gbn.cancel_covered(f.acked) {
                self.loss.note_recovered_on(r.cause, at, self.tx.rto);
            }
            // Apply this ack's window advertisement.
            let adv = f.advs.pop_front().expect("one advertisement per ack");
            if adv != f.swnd.rwnd() {
                let drain = self.rx.segment_cost(self.rx.mss);
                if adv == 0 {
                    // Zero window: the receiver's buffer is full. It
                    // drains one MSS, then a window update reopens the
                    // flow.
                    self.telemetry.module.rwnd_shrinks += 1;
                    f.acks.push(at + drain, upto);
                    f.advs.push_back(self.tx.window);
                } else {
                    // Reopening update: flow control unblocks and queued
                    // sends drain.
                    self.loss.note_recovered_on(RWND_SHRINK_TARGET, at, drain);
                }
                f.swnd.set_rwnd(adv);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eth::EthLinkConfig;
    use enzian_sim::SimRng;

    fn payload(n: usize) -> Vec<u8> {
        let mut rng = SimRng::seed_from(42);
        let mut v = vec![0u8; n];
        rng.fill_bytes(&mut v);
        v
    }

    fn fpga_engine() -> TcpEngine {
        TcpEngine::new(
            TcpStackConfig::fpga_coyote(),
            TcpStackConfig::fpga_coyote(),
            Switch::tor(),
        )
    }

    fn kernel_engine() -> TcpEngine {
        TcpEngine::new(
            TcpStackConfig::linux_kernel(),
            TcpStackConfig::linux_kernel(),
            Switch::tor(),
        )
    }

    fn hybrid_engine() -> TcpEngine {
        TcpEngine::new(
            TcpStackConfig::hybrid_offload(),
            TcpStackConfig::hybrid_offload(),
            Switch::tor(),
        )
    }

    #[test]
    fn data_arrives_intact() {
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        let data = payload(100_000);
        let (out, r) = fpga_engine().transfer(&mut link, Time::ZERO, &data);
        assert_eq!(out, data);
        assert_eq!(r.bytes, 100_000);
        assert_eq!(r.retransmissions, 0);
    }

    #[test]
    fn fpga_stack_saturates_100g_with_one_flow() {
        // Fig. 7: "Enzian can saturate a single 100 Gb/s TCP connection
        // with an MTU as low as 2 KiB."
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        let data = payload(4 << 20);
        let (_, r) = fpga_engine().transfer(&mut link, Time::ZERO, &data);
        let gbps = r.throughput_bits() / 1e9;
        assert!(gbps > 90.0, "hardware stack reached only {gbps:.1} Gb/s");
    }

    #[test]
    fn kernel_stack_single_flow_is_cpu_bound() {
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        let data = payload(4 << 20);
        let (_, r) = kernel_engine().transfer(&mut link, Time::ZERO, &data);
        let gbps = r.throughput_bits() / 1e9;
        assert!(
            (15.0..45.0).contains(&gbps),
            "kernel stack at {gbps:.1} Gb/s (expected ~25)"
        );
    }

    #[test]
    fn hybrid_stack_sits_between_the_extremes() {
        // The point the split exists to open: FPGA data path + CPU
        // policy lands between the Fig. 7 extremes on both axes.
        let data = payload(1 << 20);
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        let (_, hw) = fpga_engine().transfer(&mut link, Time::ZERO, &data);
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        let (out, hy) = hybrid_engine().transfer(&mut link, Time::ZERO, &data);
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        let (_, sw) = kernel_engine().transfer(&mut link, Time::ZERO, &data);
        assert_eq!(out, data, "hybrid stack corrupted the stream");
        assert!(
            hy.latency() > hw.latency(),
            "hybrid must pay for CPU policy: {:?} vs {:?}",
            hy.latency(),
            hw.latency()
        );
        assert!(
            hy.latency() < sw.latency(),
            "hybrid must beat the kernel: {:?} vs {:?}",
            hy.latency(),
            sw.latency()
        );
        // And it still lands near line rate at 1 MiB.
        assert!(hy.throughput_bits() / 1e9 > 60.0);
    }

    #[test]
    fn four_kernel_flows_approach_line_rate() {
        // Paper: "4 flows are needed using the CPU to saturate the link."
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        let per_flow = 2 << 20;
        let data = payload(per_flow);
        let flows = [&data[..], &data[..], &data[..], &data[..]];
        let results = kernel_engine()
            .transfer_interleaved(&mut link, Time::ZERO, &flows)
            .expect("lossless");
        let last = results.iter().map(|(_, r)| r.delivered).max().unwrap();
        let total_bits = (4 * per_flow) as f64 * 8.0;
        let gbps = total_bits / last.as_secs_f64() / 1e9;
        assert!(gbps > 75.0, "4 kernel flows reached only {gbps:.1} Gb/s");

        // And a single kernel flow cannot get there (the paper's point).
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        let (_, single) = kernel_engine().transfer(&mut link, Time::ZERO, &data);
        assert!(single.throughput_bits() / 1e9 < 45.0);
    }

    #[test]
    fn latency_scales_with_size_for_kernel_stack() {
        // The Fig. 7 latency panel: Linux latency grows steeply with
        // transfer size; the hardware stack stays near wire time.
        let sizes = [2 * 1024, 64 * 1024, 1024 * 1024];
        let mut prev_ratio: f64 = 0.0;
        for &s in &sizes {
            let data = payload(s);
            let mut link = EthLink::new(EthLinkConfig::hundred_gig());
            let (_, hw) = fpga_engine().transfer(&mut link, Time::ZERO, &data);
            let mut link = EthLink::new(EthLinkConfig::hundred_gig());
            let (_, sw) = kernel_engine().transfer(&mut link, Time::ZERO, &data);
            let ratio = sw.latency().as_ps() as f64 / hw.latency().as_ps() as f64;
            assert!(ratio > 1.0, "kernel not slower at {s} B");
            prev_ratio = prev_ratio.max(ratio);
        }
        assert!(prev_ratio > 2.0, "kernel/hw latency gap too small");
    }

    #[test]
    fn loss_recovery_preserves_data() {
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        let data = payload(256 * 1024);
        let mut engine = fpga_engine().with_loss(LossPattern::drop_every(17));
        let (out, r) = engine.transfer(&mut link, Time::ZERO, &data);
        assert_eq!(out, data, "data corrupted by loss recovery");
        assert!(r.retransmissions > 0, "no retransmissions recorded");

        // A lossy transfer is strictly slower than a clean one.
        let mut link2 = EthLink::new(EthLinkConfig::hundred_gig());
        let (_, clean) = fpga_engine().transfer(&mut link2, Time::ZERO, &data);
        assert!(r.latency() > clean.latency());
    }

    #[test]
    fn reno_and_cubic_recover_from_loss_intact() {
        for cc in [CcAlgorithm::Reno, CcAlgorithm::Cubic] {
            let cfg = TcpStackConfig::fpga_coyote().with_cc(cc);
            let mut link = EthLink::new(EthLinkConfig::hundred_gig());
            let mut engine =
                TcpEngine::new(cfg, cfg, Switch::tor()).with_loss(LossPattern::drop_every(23));
            let data = payload(512 * 1024);
            let (out, r) = engine.transfer(&mut link, Time::ZERO, &data);
            assert_eq!(out, data, "{} corrupted the stream", cc.label());
            assert!(r.retransmissions > 0);
            // The controller reacted: its window moved off the fixed
            // preset's constant trajectory.
            let cwnd = &engine.telemetry().module().cwnd_bytes;
            assert!(cwnd.count() > 0);
            assert!(
                cwnd.min().unwrap() < cwnd.max().unwrap(),
                "{} window never moved",
                cc.label()
            );
        }
    }

    #[test]
    fn fixed_window_trajectory_is_flat() {
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        let data = payload(512 * 1024);
        let mut engine = fpga_engine();
        let _ = engine.transfer(&mut link, Time::ZERO, &data);
        let cwnd = &engine.telemetry().module().cwnd_bytes;
        assert_eq!(cwnd.min(), cwnd.max(), "fixed window must never move");
        assert_eq!(cwnd.max(), Some(256.0 * 1024.0));
    }

    #[test]
    fn session_establishes_transfers_and_closes() {
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        let data = payload(64 * 1024);
        let mut engine = fpga_engine();
        let (out, s) = engine.session(&mut link, Time::ZERO, &data);
        assert_eq!(out, data);
        assert!(s.established > Time::ZERO, "handshake takes time");
        assert_eq!(s.transfer.started, s.established);
        assert!(s.closed > s.transfer.delivered, "teardown after delivery");
        assert_eq!(s.control_segments, 7);
        let m = engine.telemetry().module();
        assert_eq!((m.handshakes, m.teardowns, m.control_segments), (1, 1, 7));
        // A session is strictly slower end-to-end than a bare transfer.
        let mut link2 = EthLink::new(EthLinkConfig::hundred_gig());
        let (_, bare) = fpga_engine().transfer(&mut link2, Time::ZERO, &data);
        assert!(s.transfer.delivered > bare.delivered);
    }

    #[test]
    fn checksum_known_values() {
        // All zeros checksums to 0xFFFF; RFC 1071 example.
        assert_eq!(internet_checksum(&[0, 0, 0, 0]), 0xFFFF);
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2u16);
    }

    #[test]
    fn flow_count_independence_of_hardware_stack() {
        // Two concurrent hardware flows each keep roughly half the link —
        // the pipeline itself is not the bottleneck.
        let per_flow = 2 << 20;
        let data = payload(per_flow);
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        let flows = [&data[..], &data[..]];
        let results = fpga_engine()
            .transfer_interleaved(&mut link, Time::ZERO, &flows)
            .expect("lossless");
        let last = results.iter().map(|(_, r)| r.delivered).max().unwrap();
        let gbps = (2 * per_flow) as f64 * 8.0 / last.as_secs_f64() / 1e9;
        assert!(
            gbps > 90.0,
            "two hardware flows reached only {gbps:.1} Gb/s"
        );
    }

    #[test]
    fn telemetry_tracks_rtt_and_retransmissions() {
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        let data = payload(256 * 1024);
        let mut engine = fpga_engine().with_loss(LossPattern::drop_every(17));
        let (_, r) = engine.transfer(&mut link, Time::ZERO, &data);
        let t = engine.telemetry();
        assert_eq!(t.transfers(), 1);
        assert_eq!(t.bytes(), 256 * 1024);
        assert_eq!(t.retransmissions(), r.retransmissions);
        // Single ledger: RTO fires, the flow stats, and the outcome all
        // describe the same rewind events.
        assert_eq!(t.rto_fires(), r.retransmissions);
        let rtt = t.rtt_us();
        assert!(rtt.count() > 0);
        assert!(rtt.mean() > 0.0);

        let mut reg = enzian_sim::MetricsRegistry::new();
        enzian_sim::Instrumented::export_metrics(t, "net.tcp", &mut reg);
        assert_eq!(reg.counter("net.tcp.transfers"), 1);
        assert_eq!(reg.summary("net.tcp.rtt_us").unwrap().count(), rtt.count());
        // Per-module views are published, and the reliability export is
        // the same number as the aggregate (derived, not re-counted).
        assert_eq!(
            reg.counter("net.tcp.reliability.rto_fires"),
            r.retransmissions
        );
        assert!(
            reg.summary("net.tcp.congestion.cwnd_bytes")
                .unwrap()
                .count()
                > 0
        );
    }

    #[test]
    fn telemetry_keeps_per_flow_rtt() {
        let per_flow = 1 << 20;
        let data = payload(per_flow);
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        let mut engine = kernel_engine();
        let flows = [&data[..], &data[..], &data[..]];
        engine
            .transfer_interleaved(&mut link, Time::ZERO, &flows)
            .expect("lossless");
        let t = engine.telemetry();
        assert_eq!(t.flow_rtt_us.len(), 3);
        for s in &t.flow_rtt_us {
            assert!(s.count() > 0, "every flow records RTT samples");
        }
        assert_eq!(t.transfers(), 3);
        // Per-flow counters are the source of truth; the aggregate is
        // their sum.
        assert_eq!(t.flow_stats.len(), 3);
        assert_eq!(
            t.flow_stats.iter().map(|f| f.segments).sum::<u64>(),
            t.segments()
        );
        for f in &t.flow_stats {
            assert_eq!(f.transfers, 1);
            assert_eq!(f.bytes, 1 << 20);
        }
    }

    #[test]
    fn drop_every_one_terminates_and_delivers_everything() {
        // The harshest pattern: every first transmission is dropped once.
        // Each segment still arrives via its retransmitted copy, so the
        // transfer terminates with exactly one retransmission burst per
        // drop and intact data.
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        let data = payload(16 * 1024);
        let mut engine = fpga_engine().with_loss(LossPattern::drop_every(1));
        let (out, r) = engine.transfer(&mut link, Time::ZERO, &data);
        assert_eq!(out, data);
        assert!(r.retransmissions > 0);
        let plan = engine.telemetry(); // aggregate view
        assert_eq!(plan.retransmissions(), r.retransmissions);
    }

    #[test]
    fn loss_pattern_rides_the_shared_fault_model() {
        use enzian_sim::{FaultPlan, FaultSpec};
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        let data = payload(512 * 1024);
        let plan = FaultPlan::new(0xD0D0).with(FaultSpec::probability(SEGMENT_LOSS_TARGET, 0.05));
        let mut engine = fpga_engine().with_loss(LossPattern::from_plan(plan));
        let (out, r) = engine.transfer(&mut link, Time::ZERO, &data);
        assert_eq!(out, data);
        assert!(r.retransmissions > 0, "5% loss over 256 segments");
        let ledger = engine.loss.plan();
        assert!(ledger.injected(SEGMENT_LOSS_TARGET) > 0);
        assert_eq!(
            ledger.recovered(SEGMENT_LOSS_TARGET),
            r.retransmissions,
            "every RTO rewind is a recorded recovery"
        );
        // Three views, one ledger: plan recoveries == flow stats ==
        // module RTO fires (the no-double-counting contract).
        assert_eq!(
            engine.telemetry().retransmissions(),
            engine.telemetry().rto_fires()
        );
    }

    #[test]
    fn lossless_patterns_allow_interleaved_transfers() {
        use enzian_sim::{FaultPlan, FaultSpec};
        assert!(LossPattern::none().is_lossless());
        assert!(LossPattern::drop_every(0).is_lossless());
        assert!(!LossPattern::drop_every(5).is_lossless());
        // Every per-module fault target disqualifies a plan.
        for target in [ACK_LOSS_TARGET, SEGMENT_CORRUPT_TARGET, RWND_SHRINK_TARGET] {
            let plan = FaultPlan::new(0).with(FaultSpec::every_nth(target, 2));
            assert!(
                !LossPattern::from_plan(plan).is_lossless(),
                "{target} must count as lossy"
            );
        }
    }

    #[test]
    fn lossy_multi_flow_transfers_are_a_typed_error() {
        let data = payload(64 * 1024);
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        let mut engine = fpga_engine().with_loss(LossPattern::drop_every(17));
        let err = engine
            .transfer_interleaved(&mut link, Time::ZERO, &[&data, &data])
            .unwrap_err();
        assert_eq!(err, LossyMultiFlow { flows: 2 });
        assert!(err.to_string().contains("not 2"), "{err}");
        assert_eq!(engine.telemetry().transfers(), 0, "nothing was sent");
        // One lossy flow is still a transfer.
        let results = engine
            .transfer_interleaved(&mut link, Time::ZERO, &[&data])
            .expect("one flow may be lossy");
        assert_eq!(results[0].0, data);
        assert!(results[0].1.retransmissions > 0);
    }

    #[test]
    fn corrupted_segment_is_checksum_rejected_then_recovered_exactly_once() {
        use enzian_sim::{FaultPlan, FaultSpec};
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        let data = payload(64 * 1024);
        let plan = FaultPlan::new(0).with(FaultSpec::once(SEGMENT_CORRUPT_TARGET, Time::ZERO));
        let mut engine = fpga_engine().with_loss(LossPattern::from_plan(plan));
        let (out, r) = engine.transfer(&mut link, Time::ZERO, &data);
        assert_eq!(out, data, "corruption recovery must deliver the stream");
        // The reliability module saw the damage, rejected the copy, and
        // recovered it through exactly one rewind of the single ledger.
        assert_eq!(engine.telemetry().module().checksum_rejects, 1);
        assert_eq!(r.retransmissions, 1);
        assert_eq!(engine.telemetry().rto_fires(), 1);
        let ledger = engine.loss.plan();
        assert_eq!(ledger.injected(SEGMENT_CORRUPT_TARGET), 1);
        assert_eq!(ledger.recovered(SEGMENT_CORRUPT_TARGET), 1);
        assert_eq!(ledger.injected(SEGMENT_LOSS_TARGET), 0);
    }

    #[test]
    fn ack_only_loss_is_covered_by_a_later_ack_without_retransmission() {
        use enzian_sim::{FaultPlan, FaultSpec};
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        // Many segments follow the one whose ack is dropped, so a later
        // cumulative ack covers the armed timer before it can fire.
        let data = payload(256 * 1024);
        let plan = FaultPlan::new(0).with(FaultSpec::once(ACK_LOSS_TARGET, Time::ZERO));
        let mut engine = fpga_engine().with_loss(LossPattern::from_plan(plan));
        let (out, r) = engine.transfer(&mut link, Time::ZERO, &data);
        assert_eq!(out, data);
        // No data was retransmitted: cumulative acknowledgement did the
        // recovery, and the single ledger never moved.
        assert_eq!(r.retransmissions, 0, "ack loss must not retransmit data");
        assert_eq!(engine.telemetry().rto_fires(), 0);
        let ledger = engine.loss.plan();
        assert_eq!(ledger.injected(ACK_LOSS_TARGET), 1);
        assert_eq!(ledger.recovered(ACK_LOSS_TARGET), 1);
    }

    #[test]
    fn losing_the_only_ack_falls_back_to_one_accounted_rto() {
        use enzian_sim::{FaultPlan, FaultSpec};
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        // A single-segment transfer: no later ack can cover, so the RTO
        // fires once and the retransmitted copy's ack completes it.
        let data = payload(1024);
        let plan = FaultPlan::new(0).with(FaultSpec::once(ACK_LOSS_TARGET, Time::ZERO));
        let mut engine = fpga_engine().with_loss(LossPattern::from_plan(plan));
        let (out, r) = engine.transfer(&mut link, Time::ZERO, &data);
        assert_eq!(out, data);
        // The retransmission exists and is fully accounted: outcome,
        // flow stats, rto_fires, and the plan's recovery all agree.
        assert_eq!(r.retransmissions, 1);
        assert_eq!(engine.telemetry().rto_fires(), 1);
        assert_eq!(engine.telemetry().retransmissions(), 1);
        assert_eq!(engine.loss.plan().recovered(ACK_LOSS_TARGET), 1);
    }

    #[test]
    fn rwnd_shrink_stalls_flow_control_and_drains_on_reopen() {
        use enzian_sim::{FaultPlan, FaultSpec};
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        // A small window forces ack-paced sending, so the zero-window
        // advertisement lands while data is still queued.
        let data = payload(128 * 1024);
        let cfg = TcpStackConfig {
            window: 8 * 1024,
            ..TcpStackConfig::fpga_coyote()
        };
        let plan = FaultPlan::new(0).with(FaultSpec::once(RWND_SHRINK_TARGET, Time::ZERO));
        let mut engine =
            TcpEngine::new(cfg, cfg, Switch::tor()).with_loss(LossPattern::from_plan(plan));
        let (out, r) = engine.transfer(&mut link, Time::ZERO, &data);
        assert_eq!(out, data, "the stream drains intact after reopening");
        let m = engine.telemetry().module();
        assert_eq!(m.rwnd_shrinks, 1, "exactly one zero-window event");
        assert!(
            m.rwnd_stalls > 0,
            "the stall must be attributed to flow control"
        );
        assert_eq!(m.cwnd_stalls, 0, "fixed-window cc is never the culprit");
        // The stall is pure flow control: nothing is lost, nothing is
        // retransmitted, and the fault ledger shows a full recovery.
        assert_eq!(r.retransmissions, 0);
        let ledger = engine.loss.plan();
        assert_eq!(ledger.injected(RWND_SHRINK_TARGET), 1);
        assert_eq!(ledger.recovered(RWND_SHRINK_TARGET), 1);

        // And a clean run under the same window never shrinks.
        let mut link2 = EthLink::new(EthLinkConfig::hundred_gig());
        let mut clean = TcpEngine::new(cfg, cfg, Switch::tor());
        let _ = clean.transfer(&mut link2, Time::ZERO, &data);
        assert_eq!(clean.telemetry().module().rwnd_shrinks, 0);
    }

    #[test]
    fn stall_attribution_points_at_the_binding_module() {
        // Kernel preset (rwnd 2 MiB, fixed cwnd == rwnd): stalls are
        // receive-window stalls. Reno over the same costs: early stalls
        // are congestion stalls (cwnd starts at IW10 << rwnd).
        let data = payload(1 << 20);
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        let mut fixed = kernel_engine();
        let _ = fixed.transfer(&mut link, Time::ZERO, &data);
        assert_eq!(fixed.telemetry().module().cwnd_stalls, 0);

        let cfg = TcpStackConfig::linux_kernel().with_cc(CcAlgorithm::Reno);
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        let mut reno = TcpEngine::new(cfg, cfg, Switch::tor());
        let _ = reno.transfer(&mut link, Time::ZERO, &data);
        assert!(
            reno.telemetry().module().cwnd_stalls > 0,
            "slow start must stall on cwnd"
        );
    }

    #[test]
    #[should_panic(expected = "empty transfer")]
    fn empty_transfer_panics() {
        let mut link = EthLink::new(EthLinkConfig::hundred_gig());
        fpga_engine().transfer(&mut link, Time::ZERO, &[]);
    }
}
