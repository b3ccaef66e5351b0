//! A multi-session TCP engine: many concurrent per-flow state machines
//! multiplexed over one stack's shared pipelines.
//!
//! [`TcpEngine::session`](super::TcpEngine::session) runs exactly one
//! connection to completion with both endpoints inline. A TrafficEngine
//! workload needs the opposite shape: one engine per board holding
//! 10^5–10^6 flows *simultaneously*, each a full
//! handshake/transfer/teardown session, with the peer endpoint on
//! another board entirely. [`SessionMux`] is that generalization:
//!
//! * **message-driven** — it consumes [`Segment`]s and emits
//!   [`WireSegment`]s; how they travel (loopback in tests, the cluster
//!   bridge in `enzian-platform`) is the caller's business;
//! * **multiplexed** — every flow is a slot in a [`FlowTable`] and all
//!   flows share the stack's tx/rx pipeline clocks, so the cost model is
//!   the single-pipeline story the Fig. 7 stacks tell;
//! * **role-concurrent** — one mux holds client, server, and proxy
//!   flows at once, demultiplexed by [`PortMask`] steering;
//! * **stateful** — each flow drives a real [`Connection`] FSM through
//!   every transition, so an illegal protocol sequence panics instead of
//!   mis-modelling. Its congestion controller, the `Copy` value the
//!   stack's [`CcAlgorithm`](super::CcAlgorithm) builds, lives in a
//!   side array indexed by the flow's slot, and only a policy with
//!   per-flow state (Reno, Cubic) fills it: under `Fixed` the window is
//!   the stack's `window` and the mux keeps no controller at all, as
//!   the FPGA stack keeps no congestion state;
//! * **compact** — a flow keeps its byte offsets as `u32` (a session
//!   carries at most [`MAX_SESSION_BYTES`]), its FSM as a bare
//!   [`ConnState`], no local port (its slot names it through the
//!   [`PortMask`]) and the fields only one role uses in that role's
//!   variant, so a live flow costs one 64-byte table slot, plus a
//!   controller under a stateful policy, and no heap allocation of its
//!   own.
//!
//! Reliability is go-back-N with cumulative acks, as in the single-flow
//! engine: loss (via [`LossPattern`]) applies to first transmissions of
//! data segments only, the control plane is lossless, and an RTO rewinds
//! the flow to its cumulative-ack edge. Teardown mirrors `session()`'s
//! ledger: seven connection-control segments per session (SYN, SYN-ACK,
//! handshake ack, FIN, FIN-ack, FIN, FIN-ack) and a 2·RTO TimeWait
//! linger on the active closer.
//!
//! Connection-control acknowledgements carry the [`flags::CTL`] bit so
//! the FSM is only ever driven by segments *meant* to drive it — a
//! duplicate data ack arriving during teardown counts as a dup-ack; it
//! can never be mistaken for a FIN's acknowledgement.

use enzian_sim::stats::LatencyHistogram;
use enzian_sim::{Duration, Fnv, Keyed, SortedStreams, Time};

use crate::traffic::{flags, FlowKey, FlowTable, PortMask, Segment};

use super::{
    CongestionController, ConnEvent, ConnState, Connection, LossPattern, TcpStackConfig,
    SEGMENT_LOSS_TARGET,
};

/// The largest payload one session may carry: a flow keeps its byte
/// offsets as `u32`, the width of a segment's sequence and
/// acknowledgement numbers.
pub const MAX_SESSION_BYTES: u64 = u32::MAX as u64;

/// A segment leaving the mux: `at` is when the last byte clears the
/// stack's transmit pipeline; the transport layers serialization and
/// propagation on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireSegment {
    /// Transmit-pipeline completion time.
    pub at: Time,
    /// The segment itself.
    pub seg: Segment,
}

/// What a flow is for, with the fields only that role uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Actively opened by [`SessionMux::open`]: sends the payload
    /// starting `hold` after establishment, closes first, lingers in
    /// TimeWait.
    Client { hold: Duration },
    /// Passively accepted: receives, acks, closes second.
    Server,
    /// Passively accepted on a proxy: receives and splices into its
    /// paired [`Role::ProxyUp`] flow `up`, opened once the handshake
    /// completes.
    ProxyDown { up: Option<FlowKey> },
    /// The upstream half of a spliced proxy session: actively opened
    /// toward the route target, relays bytes as they arrive downstream.
    /// `sealed` once the downstream FIN fixes the relayed length.
    ProxyUp { sealed: bool },
}

/// What a timer does, named by the one place that schedules it. Each
/// site's deadlines are nondecreasing in scheduling order, so the mux
/// keeps one sorted stream of timers per site: a push is an append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimerKind {
    /// Retransmission timeout armed as a segment is emitted with none
    /// pending: `rto` after the segment clears the transmit pipeline,
    /// whose clock never moves back.
    RtoAfterEmit,
    /// Retransmission timeout re-armed by an ack that advanced: `rto`
    /// after the ack clears the receive pipeline, whose clock never
    /// moves back.
    RtoAfterAck,
    /// 2·RTO linger after the active closer's final ack, timed from the
    /// receive pipeline like [`TimerKind::RtoAfterAck`].
    TimeWait,
    /// Client starts its payload `hold` after establishment, timed from
    /// the receive pipeline: monotone while every session has the same
    /// `hold`, which [`SessionMux::open`] does not promise, so an
    /// earlier deadline is placed by binary search.
    StartData,
}

impl TimerKind {
    /// Every kind, indexed by its stream.
    const ALL: [TimerKind; 4] = [
        TimerKind::RtoAfterEmit,
        TimerKind::RtoAfterAck,
        TimerKind::TimeWait,
        TimerKind::StartData,
    ];
}

#[derive(Debug, Clone, Copy)]
struct MuxTimer {
    at: Time,
    /// Unique per timer, so `(at, seq)` is a total deterministic order.
    seq: u64,
    key: FlowKey,
    timer_gen: u32,
}

impl Keyed for MuxTimer {
    type Key = (Time, u64);

    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

/// One live flow. Byte offsets are `u32` offsets within the session
/// (see [`MAX_SESSION_BYTES`]).
struct Flow {
    opened_at: Time,
    role: Role,
    peer_port: u32,
    /// Payload bytes available to send so far: the whole session for a
    /// client, the bytes relayed so far for a proxy-up flow.
    available: u32,
    sent: u32,
    acked: u32,
    /// High-water mark of first transmissions: anything below is a
    /// retransmission and is never offered to the loss plan again.
    first_tx_high: u32,
    /// Receive side's cumulative in-order edge.
    recv_next: u32,
    /// Generation for outstanding RTO timers (lazy cancellation).
    timer_gen: u32,
    state: ConnState,
    peer_board: u8,
    rto_armed: bool,
    /// Sender may pump payload (false for clients until their StartData
    /// timer — the concurrency knob — and for passive flows).
    started: bool,
}

impl Flow {
    /// Drives the flow's FSM; the mux only ever offers legal events.
    fn on(&mut self, event: ConnEvent) {
        self.state = Connection::at(self.state)
            .on(event)
            .unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Counters for one mux, mirroring the single-flow engine's ledger
/// discipline: every event is counted in exactly one place.
#[derive(Debug, Clone)]
pub struct MuxStats {
    /// Client sessions opened via [`SessionMux::open`].
    pub opened: u64,
    /// Passive opens accepted (server and proxy-down flows).
    pub accepted: u64,
    /// Client sessions fully completed (TimeWait expired).
    pub completed: u64,
    /// Passive flows closed (final teardown ack received).
    pub closed_server: u64,
    /// Proxy splices completed end to end (upstream flow's TimeWait
    /// expired).
    pub relayed_sessions: u64,
    /// Segments emitted, including retransmissions and dropped copies.
    pub segments_tx: u64,
    /// Segments received and processed.
    pub segments_rx: u64,
    /// Data segments emitted.
    pub data_segments: u64,
    /// Zero-payload segments emitted (SYN/SYN-ACK/FIN and all acks).
    pub control_segments: u64,
    /// Cumulative data acks emitted (a subset of `control_segments`).
    pub acks: u64,
    /// Acks received that advanced nothing (duplicates from discarded
    /// out-of-order arrivals).
    pub dup_acks: u64,
    /// Payload bytes emitted, including retransmitted copies.
    pub payload_tx: u64,
    /// Payload bytes delivered in order to this mux's receivers.
    pub payload_delivered: u64,
    /// Payload bytes spliced downstream→upstream by proxy flows.
    pub relayed_bytes: u64,
    /// Data segments retransmitted.
    pub retransmissions: u64,
    /// RTO timers that actually fired a rewind.
    pub rto_fires: u64,
    /// Data segments discarded as out-of-order (go-back-N receiver).
    pub out_of_order: u64,
    /// Client handshake latency (open to established).
    pub handshake: LatencyHistogram,
    /// Client whole-session latency (open to TimeWait expiry).
    pub session: LatencyHistogram,
}

impl Default for MuxStats {
    fn default() -> Self {
        MuxStats {
            opened: 0,
            accepted: 0,
            completed: 0,
            closed_server: 0,
            relayed_sessions: 0,
            segments_tx: 0,
            segments_rx: 0,
            data_segments: 0,
            control_segments: 0,
            acks: 0,
            dup_acks: 0,
            payload_tx: 0,
            payload_delivered: 0,
            relayed_bytes: 0,
            retransmissions: 0,
            rto_fires: 0,
            out_of_order: 0,
            // LatencyHistogram::new(), not ::default(): the derived
            // default has no buckets and panics on the first record.
            handshake: LatencyHistogram::new(),
            session: LatencyHistogram::new(),
        }
    }
}

/// One board's multi-session TCP engine.
pub struct SessionMux {
    board: u8,
    cfg: TcpStackConfig,
    mask: PortMask,
    table: FlowTable<Flow>,
    /// The congestion controller of each flow-table slot, filled only
    /// under a policy with per-flow state: empty under `Fixed`, whose
    /// window is the stack's `window`. A slot's entry is rebuilt when a
    /// flow is allocated into it.
    ccs: Vec<CongestionController>,
    /// Pending timers, one stream per [`TimerKind`].
    timers: SortedStreams<MuxTimer>,
    timer_seq: u64,
    /// Shared transmit-pipeline clock (all flows, one pipeline).
    tx_free: Time,
    /// Shared receive-pipeline clock.
    rx_free: Time,
    loss: LossPattern,
    /// When set, passively accepted flows are spliced onward to this
    /// board (client→proxy→server topology).
    proxy_next: Option<u8>,
    stats: MuxStats,
}

impl SessionMux {
    /// A mux for `board` running stack `cfg`, steering flows with
    /// `mask`.
    pub fn new(board: u8, cfg: TcpStackConfig, mask: PortMask) -> Self {
        SessionMux {
            board,
            cfg,
            mask,
            table: FlowTable::new(),
            ccs: Vec::new(),
            timers: SortedStreams::new(TimerKind::ALL.len()),
            timer_seq: 0,
            tx_free: Time::ZERO,
            rx_free: Time::ZERO,
            loss: LossPattern::none(),
            proxy_next: None,
            stats: MuxStats::default(),
        }
    }

    /// Enables loss injection on this mux's data transmissions (first
    /// transmissions only; the control plane is lossless).
    pub fn with_loss(mut self, loss: LossPattern) -> Self {
        self.loss = loss;
        self
    }

    /// Makes this mux a proxy: every passively accepted session is
    /// spliced into a fresh upstream session toward `board`.
    pub fn with_proxy_route(mut self, board: u8) -> Self {
        self.proxy_next = Some(board);
        self
    }

    /// The board this mux runs on.
    pub fn board(&self) -> u8 {
        self.board
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &MuxStats {
        &self.stats
    }

    /// The loss plan's injected/recovered ledger.
    pub fn loss(&self) -> &LossPattern {
        &self.loss
    }

    /// High-water mark of concurrent flows.
    pub fn peak_flows(&self) -> u32 {
        self.table.peak_live()
    }

    /// Flow-table slots ever allocated — the memory bound (equals
    /// [`peak_flows`](Self::peak_flows) by slab construction).
    pub fn table_slots(&self) -> u32 {
        self.table.capacity()
    }

    /// `true` when no flow is live and no timer is pending.
    pub fn idle(&self) -> bool {
        self.table.live() == 0 && self.timers.is_empty()
    }

    /// The earliest pending timer as `(deadline, timer sequence)`, if
    /// any. Stale timers (superseded RTOs) are included; firing them is
    /// a deterministic no-op.
    pub fn next_timer(&self) -> Option<(Time, u64)> {
        self.timers.peek().map(|t| (t.at, t.seq))
    }

    /// Opens a client session: `bytes` of payload toward `dst_board`,
    /// with the payload start delayed `hold` past establishment (the
    /// concurrency knob: held-open flows pile up in the table). Emits
    /// the SYN into `out` and returns the flow's key.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero or above [`MAX_SESSION_BYTES`], or
    /// `dst_board` is this board.
    pub fn open(
        &mut self,
        now: Time,
        dst_board: u8,
        bytes: u64,
        hold: Duration,
        out: &mut Vec<WireSegment>,
    ) -> FlowKey {
        assert!(bytes > 0, "empty session");
        let bytes = u32::try_from(bytes).unwrap_or_else(|_| {
            panic!("session of {bytes} bytes exceeds MAX_SESSION_BYTES ({MAX_SESSION_BYTES})")
        });
        assert_ne!(dst_board, self.board, "loopback sessions unsupported");
        self.stats.opened += 1;
        self.open_flow(Role::Client { hold }, now, dst_board, bytes, out)
    }

    /// Allocates an actively opening flow with `available` bytes to send
    /// and emits its SYN. The application-side `per_transfer` cost
    /// (socket/syscall path) is charged here, as in `session()`.
    fn open_flow(
        &mut self,
        role: Role,
        now: Time,
        dst_board: u8,
        available: u32,
        out: &mut Vec<WireSegment>,
    ) -> FlowKey {
        let key = self.admit(Flow {
            opened_at: now,
            role,
            peer_port: self.mask.listen_port(dst_board),
            available,
            sent: 0,
            acked: 0,
            first_tx_high: 0,
            recv_next: 0,
            timer_gen: 0,
            state: ConnState::Closed,
            peer_board: dst_board,
            rto_armed: false,
            started: !matches!(role, Role::Client { .. }),
        });
        let f = self.table.get_mut(key).expect("just allocated");
        f.on(ConnEvent::ActiveOpen);
        self.tx_free = self.tx_free.max(now) + self.cfg.per_transfer;
        let syn = Segment {
            flags: flags::SYN,
            src_board: self.board,
            dst_board,
            src_port: self.mask.flow_port(self.board, key.slot),
            dst_port: self.mask.listen_port(dst_board),
            seq: 0,
            ack: 0,
            len: 0,
        };
        self.emit(now, syn, false, out);
        key
    }

    /// Admits `flow` into the table and gives it a fresh congestion
    /// controller, if the stack's policy keeps per-flow state. The table
    /// hands out new slots in order, so a new slot is the next entry.
    fn admit(&mut self, flow: Flow) -> FlowKey {
        let key = self.table.alloc(flow);
        let cc = self.cfg.cc.build(&self.cfg);
        if !matches!(cc, CongestionController::Fixed) {
            match self.ccs.get_mut(key.slot as usize) {
                Some(old) => *old = cc,
                None => {
                    debug_assert_eq!(self.ccs.len(), key.slot as usize, "a new slot is the next");
                    self.ccs.push(cc);
                }
            }
        }
        key
    }

    /// The congestion window of the flow in `slot`: its controller's,
    /// or the stack's `window` under a policy with no per-flow state.
    fn cwnd(&self, slot: u32) -> u64 {
        self.ccs
            .get(slot as usize)
            .map_or(self.cfg.window, |cc| cc.cwnd(&self.cfg))
    }

    /// Pushes `seg` through the transmit pipeline, applies the loss
    /// plan when `lossy` (first-transmission data segments only), and
    /// appends the survivor to `out`. Returns the pipeline completion
    /// time.
    fn emit(&mut self, ready: Time, seg: Segment, lossy: bool, out: &mut Vec<WireSegment>) -> Time {
        let cost = self.cfg.segment_cost(seg.len as usize);
        let done = self.tx_free.max(ready) + cost;
        self.tx_free = done;
        self.stats.segments_tx += 1;
        if seg.len == 0 {
            self.stats.control_segments += 1;
        } else {
            self.stats.data_segments += 1;
            self.stats.payload_tx += u64::from(seg.len);
        }
        if lossy && self.loss.should_drop(done) {
            // Dropped on the wire; the sender's RTO recovers it.
            return done;
        }
        out.push(WireSegment { at: done, seg });
        done
    }

    fn schedule(&mut self, at: Time, kind: TimerKind, key: FlowKey, timer_gen: u32) {
        self.timer_seq += 1;
        let timer = MuxTimer {
            at,
            seq: self.timer_seq,
            key,
            timer_gen,
        };
        self.timers.push(kind as usize, timer);
    }

    /// Pops and fires the earliest timer, emitting any resulting
    /// segments. Returns the timer's deadline, or `None` if no timer
    /// was pending. Stale timers fire as deterministic no-ops.
    pub fn fire_next_timer(&mut self, out: &mut Vec<WireSegment>) -> Option<Time> {
        let (site, t) = self.timers.pop()?;
        let Some(f) = self.table.get_mut(t.key) else {
            return Some(t.at); // flow already closed
        };
        match TimerKind::ALL[site] {
            TimerKind::RtoAfterEmit | TimerKind::RtoAfterAck => {
                if !f.rto_armed || f.timer_gen != t.timer_gen {
                    return Some(t.at); // superseded by an ack
                }
                f.rto_armed = false;
                f.timer_gen = f.timer_gen.wrapping_add(1);
                if let Some(cc) = self.ccs.get_mut(t.key.slot as usize) {
                    cc.on_rto(&self.cfg, u64::from(f.sent - f.acked), t.at);
                }
                // Go-back-N: rewind to the cumulative-ack edge.
                f.sent = f.acked;
                self.stats.rto_fires += 1;
                let rto = self.cfg.rto;
                self.loss.note_recovered_on(SEGMENT_LOSS_TARGET, t.at, rto);
                self.pump(t.key, t.at, out);
            }
            TimerKind::TimeWait => {
                f.on(ConnEvent::TimeWaitExpired);
                let opened_at = f.opened_at;
                let role = f.role;
                self.table.free(t.key).expect("linger frees a live flow");
                self.stats.session.record(t.at.since(opened_at));
                match role {
                    Role::Client { .. } => self.stats.completed += 1,
                    Role::ProxyUp { .. } => self.stats.relayed_sessions += 1,
                    _ => unreachable!("only active closers linger"),
                }
            }
            TimerKind::StartData => {
                f.started = true;
                self.pump(t.key, t.at, out);
            }
        }
        Some(t.at)
    }

    /// Sends as much payload as the composed window allows, arming the
    /// RTO on the first unacked byte. Only acks and timeouts move the
    /// window, so it holds for the whole burst.
    fn pump(&mut self, key: FlowKey, now: Time, out: &mut Vec<WireSegment>) {
        let wnd = self.cwnd(key.slot).min(self.cfg.window);
        loop {
            let f = self.table.get_mut(key).expect("pumping a live flow");
            if f.state != ConnState::Established || !f.started {
                return;
            }
            let in_flight = u64::from(f.sent - f.acked);
            if f.sent >= f.available || in_flight >= wnd {
                return;
            }
            let room = wnd - in_flight;
            let unsent = u64::from(f.available - f.sent);
            let seg_len = unsent.min(room).min(self.cfg.mss as u64) as u32;
            let seq = f.sent;
            let retransmit = seq < f.first_tx_high;
            f.sent += seg_len;
            f.first_tx_high = f.first_tx_high.max(f.sent);
            if retransmit {
                self.stats.retransmissions += 1;
            }
            let seg = Segment {
                flags: 0,
                src_board: self.board,
                dst_board: f.peer_board,
                src_port: self.mask.flow_port(self.board, key.slot),
                dst_port: f.peer_port,
                seq,
                ack: 0,
                len: seg_len,
            };
            let rearm = !f.rto_armed;
            if rearm {
                f.rto_armed = true;
                f.timer_gen = f.timer_gen.wrapping_add(1);
            }
            let timer_gen = f.timer_gen;
            let done = self.emit(now, seg, !retransmit, out);
            if rearm {
                self.schedule(done + self.cfg.rto, TimerKind::RtoAfterEmit, key, timer_gen);
            }
        }
    }

    /// Processes one arriving segment at `now` (its wire arrival time),
    /// emitting any responses into `out`.
    ///
    /// # Panics
    ///
    /// Panics on a protocol violation (a segment its flow's FSM has no
    /// transition for) — a model bug, never silently absorbed.
    pub fn on_segment(&mut self, now: Time, seg: &Segment, out: &mut Vec<WireSegment>) {
        debug_assert_eq!(self.mask.board_of(seg.dst_port), self.board, "mis-steered");
        self.stats.segments_rx += 1;
        let cost = self.cfg.segment_cost(seg.len as usize);
        let p = self.rx_free.max(now) + cost;
        self.rx_free = p;

        match self.mask.slot_of(seg.dst_port) {
            None => self.accept(p, seg, out),
            Some(slot) => {
                let Some((_, key)) = self.table.get_slot(slot) else {
                    panic!(
                        "board {}: segment for dead flow slot {slot} (flags {:#04x})",
                        self.board, seg.flags
                    );
                };
                self.deliver(p, key, seg, out);
            }
        }
    }

    /// Passive open: a SYN arrived on the listen port.
    fn accept(&mut self, p: Time, seg: &Segment, out: &mut Vec<WireSegment>) {
        assert_eq!(seg.flags, flags::SYN, "listen port only takes SYNs");
        self.stats.accepted += 1;
        let role = if self.proxy_next.is_some() {
            Role::ProxyDown { up: None }
        } else {
            Role::Server
        };
        let key = self.admit(Flow {
            opened_at: p,
            role,
            peer_port: seg.src_port,
            available: 0,
            sent: 0,
            acked: 0,
            first_tx_high: 0,
            recv_next: 0,
            timer_gen: 0,
            state: ConnState::Closed,
            peer_board: seg.src_board,
            rto_armed: false,
            started: false,
        });
        let f = self.table.get_mut(key).expect("just allocated");
        f.on(ConnEvent::PassiveOpen);
        f.on(ConnEvent::SynRcvd);
        // The SYN-ACK's source port carries the flow port, so the
        // peer's replies demultiplex O(1) by mask — the steering
        // handoff.
        let synack = Segment {
            flags: flags::SYN | flags::ACK,
            src_board: self.board,
            dst_board: seg.src_board,
            src_port: self.mask.flow_port(self.board, key.slot),
            dst_port: seg.src_port,
            seq: 0,
            ack: 0,
            len: 0,
        };
        self.emit(p, synack, false, out);
    }

    /// Dispatches a segment to its live flow.
    fn deliver(&mut self, p: Time, key: FlowKey, seg: &Segment, out: &mut Vec<WireSegment>) {
        if seg.flags & flags::SYN != 0 {
            // SYN-ACK: the active opener learns the peer's flow port.
            assert_eq!(seg.flags, flags::SYN | flags::ACK, "flow port takes no SYN");
            let f = self.table.get_mut(key).expect("live flow");
            f.on(ConnEvent::SynAckRcvd);
            f.peer_port = seg.src_port;
            let opened_at = f.opened_at;
            let role = f.role;
            let acked_at = self.control_ack(key, p, out);
            if let Role::Client { hold } = role {
                self.stats.handshake.record(p.since(opened_at));
                // Payload starts `hold` after establishment; the timer
                // is what lets held-open flows pile up in the table.
                self.schedule(p + hold, TimerKind::StartData, key, 0);
            } else {
                self.pump(key, acked_at, out);
                self.maybe_close_sender(key, acked_at, out);
            }
        } else if seg.flags & flags::FIN != 0 {
            self.on_fin(p, key, out);
        } else if seg.flags & flags::CTL != 0 {
            self.on_control_ack(p, key, out);
        } else if seg.len > 0 {
            self.on_data(p, key, seg, out);
        } else {
            debug_assert_eq!(seg.flags, flags::ACK, "bare segment must be an ack");
            self.on_data_ack(p, key, seg);
            self.pump(key, p, out);
            self.maybe_close_sender(key, p, out);
        }
    }

    /// Emits a CTL-flagged acknowledgement for flow `key` at `p`.
    fn control_ack(&mut self, key: FlowKey, p: Time, out: &mut Vec<WireSegment>) -> Time {
        let f = self.table.get(key).expect("live flow");
        let seg = Segment {
            flags: flags::ACK | flags::CTL,
            src_board: self.board,
            dst_board: f.peer_board,
            src_port: self.mask.flow_port(self.board, key.slot),
            dst_port: f.peer_port,
            seq: 0,
            ack: f.recv_next,
            len: 0,
        };
        self.emit(p, seg, false, out)
    }

    /// A FIN arrived: either the peer closes first (we are passive), or
    /// our own FIN was already acked and this completes the teardown.
    fn on_fin(&mut self, p: Time, key: FlowKey, out: &mut Vec<WireSegment>) {
        let f = self.table.get_mut(key).expect("live flow");
        match f.state {
            ConnState::Established => {
                // Passive close: ack the FIN, then send our own.
                f.on(ConnEvent::FinRcvd);
                let role = f.role;
                let delivered = f.recv_next;
                self.control_ack(key, p, out);
                let f = self.table.get_mut(key).expect("live flow");
                f.on(ConnEvent::Close);
                let fin = Segment {
                    flags: flags::FIN,
                    src_board: self.board,
                    dst_board: f.peer_board,
                    src_port: self.mask.flow_port(self.board, key.slot),
                    dst_port: f.peer_port,
                    seq: 0,
                    ack: 0,
                    len: 0,
                };
                self.emit(p, fin, false, out);
                if let Role::ProxyDown { up } = role {
                    // The downstream length is now final: the upstream
                    // flow may close once it has relayed everything.
                    let up = up.expect("proxy-down flows are paired");
                    if let Some(u) = self.table.get_mut(up) {
                        debug_assert_eq!(u.available, delivered, "every delivered byte relayed");
                        u.role = Role::ProxyUp { sealed: true };
                        self.maybe_close_sender(up, p, out);
                    }
                }
            }
            ConnState::FinWait2 => {
                // Active close completing: final ack, then linger.
                f.on(ConnEvent::FinRcvd);
                self.control_ack(key, p, out);
                let linger = self.cfg.rto * 2;
                self.schedule(p + linger, TimerKind::TimeWait, key, 0);
            }
            s => panic!("board {}: FIN in {s:?}", self.board),
        }
    }

    /// A CTL-flagged acknowledgement: drives exactly one FSM edge.
    fn on_control_ack(&mut self, p: Time, key: FlowKey, out: &mut Vec<WireSegment>) {
        let f = self.table.get_mut(key).expect("live flow");
        match f.state {
            ConnState::SynReceived => {
                // Handshake complete on the passive side.
                f.on(ConnEvent::AckRcvd);
                if f.role == (Role::ProxyDown { up: None }) {
                    self.splice_upstream(p, key, out);
                }
            }
            ConnState::FinWait1 => f.on(ConnEvent::AckRcvd),
            ConnState::LastAck => {
                f.on(ConnEvent::AckRcvd);
                self.table.free(key).expect("LastAck frees a live flow");
                self.stats.closed_server += 1;
            }
            s => panic!("board {}: control ack in {s:?}", self.board),
        }
    }

    /// Opens the upstream half of a proxy splice and pairs it with the
    /// freshly established downstream flow.
    fn splice_upstream(&mut self, p: Time, down: FlowKey, out: &mut Vec<WireSegment>) {
        let next = self.proxy_next.expect("proxy-down implies a route");
        // Length is unknown until the downstream FIN; relay as bytes
        // arrive.
        let up = self.open_flow(Role::ProxyUp { sealed: false }, p, next, 0, out);
        self.table.get_mut(down).expect("live flow").role = Role::ProxyDown { up: Some(up) };
    }

    /// An in-order or out-of-order data segment at the receiver.
    fn on_data(&mut self, p: Time, key: FlowKey, seg: &Segment, out: &mut Vec<WireSegment>) {
        let f = self.table.get_mut(key).expect("live flow");
        assert_eq!(f.state, ConnState::Established, "data outside Established");
        let role = f.role;
        if seg.seq == f.recv_next {
            f.recv_next += seg.len;
            self.stats.payload_delivered += u64::from(seg.len);
            self.ack_data(key, p, out);
            if let Role::ProxyDown { up } = role {
                // Splice the freshly delivered bytes upstream.
                self.stats.relayed_bytes += u64::from(seg.len);
                let up = up.expect("proxy-down flows are paired");
                if let Some(u) = self.table.get_mut(up) {
                    u.available += seg.len;
                    self.pump(up, p, out);
                }
            }
        } else {
            // Go-back-N receiver: discard and re-ack the in-order edge.
            self.stats.out_of_order += 1;
            self.ack_data(key, p, out);
        }
    }

    /// Emits a cumulative data ack for flow `key`.
    fn ack_data(&mut self, key: FlowKey, p: Time, out: &mut Vec<WireSegment>) {
        self.stats.acks += 1;
        let f = self.table.get(key).expect("live flow");
        let seg = Segment {
            flags: flags::ACK,
            src_board: self.board,
            dst_board: f.peer_board,
            src_port: self.mask.flow_port(self.board, key.slot),
            dst_port: f.peer_port,
            seq: 0,
            ack: f.recv_next,
            len: 0,
        };
        self.emit(p, seg, false, out);
    }

    /// A cumulative data ack at the sender.
    fn on_data_ack(&mut self, p: Time, key: FlowKey, seg: &Segment) {
        // Ack processing crosses to the CPU on the hybrid stack; on the
        // pure stacks it is free and must not touch the tx clock.
        if self.cfg.per_ack > Duration::ZERO {
            self.tx_free = self.tx_free.max(p) + self.cfg.per_ack;
        }
        let f = self.table.get_mut(key).expect("live flow");
        let upto = seg.ack;
        let newly = upto.saturating_sub(f.acked);
        if newly == 0 {
            self.stats.dup_acks += 1;
            return;
        }
        f.acked = upto;
        if let Some(cc) = self.ccs.get_mut(key.slot as usize) {
            cc.on_ack(&self.cfg, u64::from(newly), p);
        }
        // Progress restarts the retransmission clock.
        f.timer_gen = f.timer_gen.wrapping_add(1);
        if f.sent > f.acked {
            f.rto_armed = true;
            let timer_gen = f.timer_gen;
            let deadline = p + self.cfg.rto;
            self.schedule(deadline, TimerKind::RtoAfterAck, key, timer_gen);
        } else {
            f.rto_armed = false;
        }
    }

    /// Closes an active sender (client or proxy-up) once everything it
    /// will ever send is acknowledged. The FSM guards idempotence: a
    /// second call finds FinWait1 and returns.
    fn maybe_close_sender(&mut self, key: FlowKey, p: Time, out: &mut Vec<WireSegment>) {
        let Some(f) = self.table.get_mut(key) else {
            return;
        };
        if f.state != ConnState::Established || !f.started {
            return;
        }
        // A client's payload is whole from the start; a proxy-up flow's
        // once the downstream FIN seals it.
        let sealed = matches!(f.role, Role::Client { .. } | Role::ProxyUp { sealed: true });
        if !sealed || f.acked < f.available {
            return;
        }
        f.on(ConnEvent::Close);
        let fin = Segment {
            flags: flags::FIN,
            src_board: self.board,
            dst_board: f.peer_board,
            src_port: self.mask.flow_port(self.board, key.slot),
            dst_port: f.peer_port,
            seq: 0,
            ack: 0,
            len: 0,
        };
        self.emit(p, fin, false, out);
    }

    /// Order-sensitive digest of the mux's full live state, for
    /// cross-thread determinism checks: two muxes that processed the
    /// same events in the same order digest identically.
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(u64::from(self.board));
        h.u64(self.tx_free.as_ps());
        h.u64(self.rx_free.as_ps());
        h.u64(self.timers.len() as u64);
        for (slot, f) in self.table.iter_live() {
            h.u64(u64::from(slot));
            h.u64(f.state as u64);
            h.u64(u64::from(f.sent));
            h.u64(u64::from(f.acked));
            h.u64(u64::from(f.recv_next));
            h.u64(self.cwnd(slot));
        }
        let s = &self.stats;
        for v in [
            s.opened,
            s.accepted,
            s.completed,
            s.closed_server,
            s.relayed_sessions,
            s.segments_tx,
            s.segments_rx,
            s.acks,
            s.dup_acks,
            s.payload_tx,
            s.payload_delivered,
            s.relayed_bytes,
            s.retransmissions,
            s.rto_fires,
            s.out_of_order,
            s.handshake.count(),
            s.session.count(),
            s.handshake.mean_micros().to_bits(),
            s.session.mean_micros().to_bits(),
        ] {
            h.u64(v);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::{CcAlgorithm, SEGMENT_LOSS_TARGET};
    use crate::traffic::{decode_segment, encode_segment};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Delivers segments between muxes with a fixed one-way latency,
    /// interleaving wire arrivals and timers in deterministic
    /// (time, tiebreak) order until every mux is idle.
    fn drive(muxes: &mut [SessionMux], latency: Duration, pending: Vec<WireSegment>) {
        let mut wire: BinaryHeap<Reverse<(Time, u64, [u8; 28])>> = BinaryHeap::new();
        let mut wseq = 0u64;
        let mut out: Vec<WireSegment> = pending;
        for _ in 0..5_000_000u64 {
            for ws in out.drain(..) {
                wseq += 1;
                let bytes: [u8; 28] = encode_segment(&ws.seg).try_into().unwrap();
                wire.push(Reverse((ws.at + latency, wseq, bytes)));
            }
            let wire_at = wire.peek().map(|w| w.0 .0);
            let timer = muxes
                .iter()
                .enumerate()
                .filter_map(|(i, m)| m.next_timer().map(|(t, _)| (t, i)))
                .min();
            let take_wire = match (wire_at, timer) {
                (None, None) => return,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(w), Some((t, _))) => w <= t,
            };
            if take_wire {
                let Reverse((at, _, bytes)) = wire.pop().unwrap();
                let seg = decode_segment(&bytes).unwrap();
                muxes[usize::from(seg.dst_board)].on_segment(at, &seg, &mut out);
            } else {
                let i = timer.unwrap().1;
                muxes[i].fire_next_timer(&mut out);
            }
        }
        panic!("drive: no quiescence after 5M events");
    }

    fn pair(cfg: TcpStackConfig) -> Vec<SessionMux> {
        let mask = PortMask::for_boards(2);
        vec![SessionMux::new(0, cfg, mask), SessionMux::new(1, cfg, mask)]
    }

    const HOP: Duration = Duration::from_ns(450);

    #[test]
    fn a_live_flow_fits_in_64_bytes() {
        let slot = std::mem::size_of::<crate::traffic::Slot<Flow>>();
        let cc = std::mem::size_of::<CongestionController>();
        assert!(slot <= 64, "a flow slot takes {slot} bytes");
        assert!(cc <= 48, "a congestion controller takes {cc} bytes");
    }

    /// Only a policy with per-flow state keeps controllers, one per
    /// slot ever allocated: under `Fixed` the mux stores none.
    #[test]
    fn only_stateful_policies_keep_controllers() {
        for (cc, stored) in [
            (CcAlgorithm::Fixed, false),
            (CcAlgorithm::Reno, true),
            (CcAlgorithm::Cubic, true),
        ] {
            let mut muxes = pair(TcpStackConfig::fpga_coyote().with_cc(cc));
            let mut out = Vec::new();
            for i in 0..8u64 {
                let at = Time::ZERO + Duration::from_us(1) * i;
                muxes[0].open(at, 1, 16 * 1024, Duration::from_us(50), &mut out);
            }
            drive(&mut muxes, HOP, out);
            assert_eq!(muxes[0].stats().completed, 8);
            for m in &muxes {
                let want = if stored { m.table_slots() as usize } else { 0 };
                assert_eq!(m.ccs.len(), want, "{}: board {}", cc.label(), m.board());
                assert_eq!(m.ccs.capacity() == 0, !stored, "{}", cc.label());
            }
        }
    }

    #[test]
    fn one_session_matches_the_session_control_ledger() {
        let mut muxes = pair(TcpStackConfig::fpga_coyote());
        let mut out = Vec::new();
        muxes[0].open(Time::ZERO, 1, 64 * 1024, Duration::ZERO, &mut out);
        drive(&mut muxes, HOP, out);
        let (c, s) = (muxes[0].stats().clone(), muxes[1].stats().clone());
        assert_eq!(c.opened, 1);
        assert_eq!(c.completed, 1);
        assert_eq!(s.accepted, 1);
        assert_eq!(s.closed_server, 1);
        assert_eq!(s.payload_delivered, 64 * 1024);
        assert_eq!(c.payload_tx, 64 * 1024);
        // session()'s connection-control ledger: SYN, SYN-ACK, handshake
        // ack, FIN, FIN-ack, FIN, FIN-ack — seven segments split across
        // the two ends (data acks are counted separately).
        assert_eq!(c.control_segments, 4);
        assert_eq!(s.control_segments - s.acks, 3);
        assert_eq!(c.handshake.count(), 1);
        assert_eq!(c.session.count(), 1);
        assert!(muxes[0].idle() && muxes[1].idle());
        assert_eq!(muxes[0].peak_flows(), 1);
        assert_eq!(muxes[0].table_slots(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_SESSION_BYTES")]
    fn sessions_above_the_32_bit_offset_limit_are_refused() {
        let mut out = Vec::new();
        pair(TcpStackConfig::fpga_coyote())[0].open(
            Time::ZERO,
            1,
            MAX_SESSION_BYTES + 1,
            Duration::ZERO,
            &mut out,
        );
    }

    #[test]
    fn loss_recovers_and_terminates() {
        let mask = PortMask::for_boards(2);
        let cfg = TcpStackConfig::fpga_coyote();
        let mut muxes = vec![
            SessionMux::new(0, cfg, mask).with_loss(LossPattern::drop_every(7)),
            SessionMux::new(1, cfg, mask),
        ];
        let mut out = Vec::new();
        muxes[0].open(Time::ZERO, 1, 256 * 1024, Duration::ZERO, &mut out);
        drive(&mut muxes, HOP, out);
        let c = muxes[0].stats().clone();
        assert_eq!(c.completed, 1);
        assert_eq!(muxes[1].stats().payload_delivered, 256 * 1024);
        assert!(c.retransmissions > 0, "loss must force retransmissions");
        assert!(c.rto_fires > 0);
        assert_eq!(
            muxes[0].loss().plan().recovered(SEGMENT_LOSS_TARGET),
            c.rto_fires,
            "every RTO rewind is a recorded recovery"
        );
        assert!(muxes[0].idle() && muxes[1].idle());
    }

    #[test]
    fn many_held_sessions_multiplex_through_one_table() {
        let cfg = TcpStackConfig::fpga_coyote();
        let mut muxes = pair(cfg);
        let mut out = Vec::new();
        let hold = Duration::from_us(300);
        for i in 0..64u64 {
            let at = Time::ZERO + Duration::from_us(1) * i;
            muxes[0].open(at, 1, 4096, hold, &mut out);
        }
        drive(&mut muxes, HOP, out);
        let c = muxes[0].stats().clone();
        assert_eq!(c.opened, 64);
        assert_eq!(c.completed, 64);
        assert_eq!(muxes[1].stats().payload_delivered, 64 * 4096);
        // The hold keeps sessions open concurrently: the table must have
        // seen real multiplexing, with capacity bounded by the peak.
        assert!(
            muxes[0].peak_flows() > 8,
            "peak {} flows — hold produced no concurrency",
            muxes[0].peak_flows()
        );
        assert_eq!(muxes[0].table_slots(), muxes[0].peak_flows());
        assert!(muxes[0].idle() && muxes[1].idle());
    }

    #[test]
    fn reno_stack_completes_sessions() {
        let cfg = TcpStackConfig::hybrid_offload();
        let mut muxes = pair(cfg);
        let mut out = Vec::new();
        for i in 0..4u64 {
            let at = Time::ZERO + Duration::from_us(10) * i;
            muxes[0].open(at, 1, 256 * 1024, Duration::ZERO, &mut out);
        }
        drive(&mut muxes, HOP, out);
        assert_eq!(muxes[0].stats().completed, 4);
        assert_eq!(muxes[1].stats().payload_delivered, 4 * 256 * 1024);
        assert!(muxes[0].idle() && muxes[1].idle());
    }

    #[test]
    fn proxy_splices_client_to_server() {
        let mask = PortMask::for_boards(3);
        let cfg = TcpStackConfig::fpga_coyote();
        let mut muxes = vec![
            SessionMux::new(0, cfg, mask),
            SessionMux::new(1, cfg, mask).with_proxy_route(2),
            SessionMux::new(2, cfg, mask),
        ];
        let mut out = Vec::new();
        muxes[0].open(Time::ZERO, 1, 32 * 1024, Duration::ZERO, &mut out);
        drive(&mut muxes, HOP, out);
        assert_eq!(muxes[0].stats().completed, 1);
        let p = muxes[1].stats().clone();
        assert_eq!(p.accepted, 1);
        assert_eq!(p.relayed_bytes, 32 * 1024);
        assert_eq!(p.relayed_sessions, 1, "upstream splice must complete");
        assert_eq!(muxes[2].stats().payload_delivered, 32 * 1024);
        for m in &muxes {
            assert!(m.idle(), "board {} not idle", m.board());
        }
    }

    #[test]
    fn digest_separates_different_histories() {
        let run = |bytes: u64| {
            let mut muxes = pair(TcpStackConfig::fpga_coyote());
            let mut out = Vec::new();
            muxes[0].open(Time::ZERO, 1, bytes, Duration::ZERO, &mut out);
            drive(&mut muxes, HOP, out);
            (muxes[0].state_digest(), muxes[1].state_digest())
        };
        assert_eq!(run(8192), run(8192), "same history, same digest");
        assert_ne!(run(8192), run(16384), "different histories collide");
    }

    /// Seeded timers on every site, mostly in deadline order but with
    /// ties and late deadlines, interleaved with firings: the mux fires
    /// the same `(at, seq)` sequence as a binary heap would, and its
    /// pending count agrees throughout. The timers name no live flow, so
    /// each fires as a no-op.
    #[test]
    fn timer_streams_fire_like_a_heap() {
        for seed in 0..16 {
            let mut rng = enzian_sim::SimRng::seed_from(0x7135_0000 + seed);
            let mut mux = pair(TcpStackConfig::fpga_coyote()).remove(0);
            let mut heap = BinaryHeap::new();
            let mut tails = [0u64; 4];
            let mut late = 0;
            let mut out = Vec::new();
            for n in 0..4_000u32 {
                if rng.next_below(3) > 0 {
                    let site = rng.next_below(4) as usize;
                    let at = match rng.next_below(8) {
                        0 => tails[site],
                        1 => tails[site].saturating_sub(rng.next_below(50)),
                        _ => tails[site] + rng.next_below(20),
                    };
                    late += u64::from(at < tails[site]);
                    tails[site] = tails[site].max(at);
                    let key = FlowKey { slot: n, gen: 1 };
                    mux.schedule(Time::from_ps(at), TimerKind::ALL[site], key, 0);
                    heap.push(Reverse((at, mux.timer_seq)));
                } else {
                    let next = mux.next_timer().map(|(at, seq)| (at.as_ps(), seq));
                    assert_eq!(next, heap.pop().map(|Reverse(k)| k), "seed {seed}");
                    let fired = mux.fire_next_timer(&mut out).map(Time::as_ps);
                    assert_eq!(fired, next.map(|(at, _)| at));
                }
                assert_eq!(mux.timers.len(), heap.len(), "seed {seed}");
            }
            assert!(late > 0, "seed {seed}: no late deadline");
            while let Some(Reverse((at, seq))) = heap.pop() {
                assert_eq!(mux.next_timer(), Some((Time::from_ps(at), seq)));
                mux.fire_next_timer(&mut out);
            }
            assert!(mux.idle() && out.is_empty());
        }
    }
}
