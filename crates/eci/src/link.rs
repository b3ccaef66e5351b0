//! The ECI physical and link layer.
//!
//! Paper §5.1: *"A feature of ECI inherited from the CPU implementation is
//! that the 24 lanes (each with a theoretical bandwidth of 10 Gb/s) are
//! organized in two links of 12 lanes each."* The BDK can dial lanes and
//! speed up and down ("early debugging of ECI was done with 4 lanes rather
//! than the full 24"), and the load-balancing strategy across the two
//! links is configurable at boot.
//!
//! [`EciLinks`] models both links, each full-duplex, with:
//!
//! * link training (links come up `Down`, train for a configurable time);
//! * lane scaling (bandwidth recomputed from the trained lane count);
//! * per-virtual-channel credit-based flow control (sends stall when the
//!   receiver's buffer credits are exhausted);
//! * a selectable [`LinkPolicy`] (single link, round-robin, or by
//!   address) matching the boot-time configuration knob;
//! * under a fault plan, a go-back-N ARQ per link direction that resends
//!   dropped and corrupted frames (see [`fault_targets`]).

use enzian_mem::{CacheLine, NodeId};
use enzian_sim::telemetry::MetricsRegistry;
use enzian_sim::{Channel, ChannelConfig, Duration, FaultPlan, Time};

use crate::message::Message;

/// Fault-plan targets the link layer presents injection opportunities
/// for (see [`EciLinks::send`]). Both frame faults are recovered by one
/// go-back-N rule: the receiver discards the frames behind the faulted
/// one on the wire that land before its resend, and the sender replays
/// them in order behind the resend.
pub mod fault_targets {
    /// The frame's first transmission arrives damaged; the receiver
    /// NAKs it, and the sender goes back to that frame one propagation
    /// delay after the first copy landed.
    pub const FRAME_CORRUPT: &str = "eci.frame_corrupt";
    /// The frame's first transmission is lost in flight; no NAK comes
    /// back, and the sender goes back to that frame `replay_timeout`
    /// after the first copy would have landed.
    pub const FRAME_DROP: &str = "eci.frame_drop";
    /// A lane on an up link fails; the link retrains at half width and
    /// traffic falls back to its partner meanwhile.
    pub const LANE_FAIL: &str = "eci.lane_fail";
}

/// ECI virtual channels. The ordering matters for deadlock freedom:
/// responses must always drain independently of requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum VirtualChannel {
    /// Coherent requests from a requester to a home.
    Request = 0,
    /// Probes forwarded by a home to a remote sharer/owner.
    Forward = 1,
    /// Responses (data grants, acks, probe acks).
    Response = 2,
    /// Victim write-backs.
    Eviction = 3,
    /// Uncached I/O and interrupts.
    Io = 4,
}

impl VirtualChannel {
    /// All channels, in index order.
    pub const ALL: [VirtualChannel; 5] = [
        VirtualChannel::Request,
        VirtualChannel::Forward,
        VirtualChannel::Response,
        VirtualChannel::Eviction,
        VirtualChannel::Io,
    ];

    /// Dense index of the channel.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Lower-case channel name, used in metric paths.
    pub fn name(self) -> &'static str {
        match self {
            VirtualChannel::Request => "request",
            VirtualChannel::Forward => "forward",
            VirtualChannel::Response => "response",
            VirtualChannel::Eviction => "eviction",
            VirtualChannel::Io => "io",
        }
    }
}

/// Operational state of one 12-lane link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkState {
    /// Powered but not trained; cannot carry traffic.
    Down,
    /// Training in progress until the contained instant.
    Training {
        /// When training completes.
        until: Time,
    },
    /// Trained and carrying traffic on `lanes` lanes.
    Up {
        /// Number of active lanes (1..=12).
        lanes: u8,
    },
}

/// How the requester spreads transactions over the two links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkPolicy {
    /// All traffic on one link (the Fig. 6 experiment's configuration).
    Single(u8),
    /// Alternate messages across both links.
    RoundRobin,
    /// Hash the cache-line address onto a link (keeps per-line ordering).
    ByAddress,
}

/// Static link-layer configuration.
///
/// `#[non_exhaustive]`: construct from the [`EciLinkConfig::enzian`]
/// preset and adjust its public fields.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct EciLinkConfig {
    /// Lanes per link as built (12 on Enzian).
    pub lanes_per_link: u8,
    /// Raw per-lane rate in bits per second (10 Gb/s).
    pub lane_bits_per_sec: u64,
    /// Line-coding efficiency (64b/66b-style).
    pub coding_efficiency: f64,
    /// One-way propagation delay (wire + SerDes + elastic buffer).
    pub propagation: Duration,
    /// Time to train a link from `Down` to `Up`.
    pub training_time: Duration,
    /// Buffer credits per virtual channel per direction (command VCs).
    pub credits_per_vc: u32,
    /// Buffer credits for the Response VC, which carries full cache-line
    /// data and is limited by the receiver's data buffers. This is the
    /// knob behind the paper's observation that ECI *read* throughput
    /// trails write throughput: responses stall on data-buffer credits.
    pub response_data_credits: u32,
    /// Credit-return latency after delivery.
    pub credit_return: Duration,
    /// Replay timer: how long the sender waits for an ack before
    /// retransmitting a frame it must assume lost.
    pub replay_timeout: Duration,
}

impl EciLinkConfig {
    /// The Enzian production configuration.
    pub fn enzian() -> Self {
        EciLinkConfig {
            lanes_per_link: 12,
            lane_bits_per_sec: 10_000_000_000,
            coding_efficiency: 64.0 / 66.0,
            propagation: Duration::from_ns(35),
            training_time: Duration::from_ms(2),
            credits_per_vc: 32,
            response_data_credits: 5,
            credit_return: Duration::from_ns(25),
            replay_timeout: Duration::from_ns(500),
        }
    }

    fn channel_config(&self, lanes: u8) -> ChannelConfig {
        ChannelConfig {
            bits_per_sec: self.lane_bits_per_sec * u64::from(lanes),
            coding_efficiency: self.coding_efficiency,
            propagation: self.propagation,
            frame_overhead_bytes: 0,
        }
    }

    /// Effective payload bandwidth of one fully-trained link, bytes/sec.
    pub fn link_bytes_per_sec(&self) -> f64 {
        self.lane_bits_per_sec as f64 * f64::from(self.lanes_per_link) * self.coding_efficiency
            / 8.0
    }
}

/// Per-direction, per-VC credit pool. Each credit is "one message buffer
/// at the receiver"; a send occupies a credit from submission until
/// delivery plus the credit-return latency.
#[derive(Debug, Clone)]
struct CreditPool {
    // Sorted ascending: times at which each credit becomes free.
    free_at: Vec<Time>,
}

impl CreditPool {
    fn new(credits: u32) -> Self {
        CreditPool {
            free_at: vec![Time::ZERO; credits as usize],
        }
    }

    /// Acquires a credit no earlier than `now`; returns the instant the
    /// send may proceed. `release_at` must then be called with the credit
    /// return time.
    fn acquire(&mut self, now: Time) -> Time {
        // The earliest-free credit is first.
        let earliest = self.free_at[0];
        earliest.max(now)
    }

    fn commit(&mut self, returns_at: Time) {
        self.free_at[0] = returns_at;
        // Re-sort the single displaced element (insertion into sorted vec).
        let mut i = 0;
        while i + 1 < self.free_at.len() && self.free_at[i] > self.free_at[i + 1] {
            self.free_at.swap(i, i + 1);
            i += 1;
        }
    }
}

/// Go-back-N state of one link direction, from its first faulted frame
/// until the next drain ([`EciLinks::end_recovery`]) or retraining.
#[derive(Debug, Clone, Copy)]
struct Recovery {
    /// Start of the faulted frame's first transmission: the earliest on
    /// the wire of the frames resent so far. Sequence order is wire
    /// order, so the frames that start after it are behind it.
    faulted: Time,
    /// Start of the latest resend; the next replay goes out behind it.
    tail: Time,
    /// When the latest resend lands. Until then the receiver is out of
    /// sequence and discards every first transmission behind the
    /// faulted frame that reaches it.
    caught_up: Time,
}

#[derive(Debug, Clone)]
struct DirectionState {
    channel: Channel,
    credits: Vec<CreditPool>,
}

impl DirectionState {
    fn new(cfg: &EciLinkConfig, lanes: u8) -> Self {
        DirectionState {
            channel: Channel::new(cfg.channel_config(lanes)),
            credits: VirtualChannel::ALL
                .iter()
                .map(|&vc| {
                    let n = if vc == VirtualChannel::Response {
                        cfg.response_data_credits
                    } else {
                        cfg.credits_per_vc
                    };
                    CreditPool::new(n)
                })
                .collect(),
        }
    }
}

/// Index of the link direction towards `dst`.
fn direction_index(dst: NodeId) -> usize {
    match dst {
        NodeId::Cpu => 0,
        NodeId::Fpga => 1,
    }
}

/// One 12-lane, full-duplex link.
#[derive(Debug, Clone)]
struct EciLink {
    state: LinkState,
    /// The two directions, by [`direction_index`].
    dirs: [DirectionState; 2],
}

/// Outcome of sending one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendOutcome {
    /// Link index (0 or 1) that carried the message.
    pub link: u8,
    /// When the message actually started serializing (after credit and
    /// wire availability stalls).
    pub start: Time,
    /// When the last byte arrived at the receiver — after any replay, if
    /// the first transmission was faulted.
    pub delivered: Time,
    /// Replays the frame needed before it was accepted (0 on the
    /// fault-free path).
    pub retransmissions: u8,
}

/// What the link layer reads of a message: where it goes, the line it
/// concerns (for [`LinkPolicy::ByAddress`]), its virtual channel and its
/// size on the link.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    pub(crate) dst: NodeId,
    pub(crate) line: Option<CacheLine>,
    pub(crate) vc: VirtualChannel,
    pub(crate) bytes: u64,
}

impl Frame {
    pub(crate) fn of(msg: &Message) -> Self {
        Frame {
            dst: msg.dst,
            line: msg.kind.line(),
            vc: msg.virtual_channel(),
            bytes: msg.link_bytes(),
        }
    }
}

/// The pair of ECI links between the CPU and FPGA.
#[derive(Debug, Clone)]
pub struct EciLinks {
    config: EciLinkConfig,
    links: [EciLink; 2],
    policy: LinkPolicy,
    rr_next: [u8; 2],
    pending_lanes: [u8; 2],
    messages_sent: u64,
    bytes_sent: u64,
    trainings: u64,
    fallbacks: u64,
    vc_messages: [u64; 5],
    vc_bytes: [u64; 5],
    vc_credit_stalls: [u64; 5],
    vc_credit_stall_ps: [u64; 5],
    /// Go-back-N state by link and [`direction_index`]. It is kept out
    /// of `DirectionState`, which the fault-free path reads on every send.
    recovery: [[Option<Recovery>; 2]; 2],
    // Recovery accounting: frames resent from the sender's retransmit
    // buffer, faulted ones and those replayed behind them.
    retransmissions: u64,
    frames_corrupted: u64,
    frames_dropped: u64,
    lane_failures: u64,
    recovery_ps: u64,
}

impl EciLinks {
    /// Creates both links in the `Down` state.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (zero lanes, zero credits, or
    /// an out-of-range `Single` policy index).
    pub fn new(config: EciLinkConfig, policy: LinkPolicy) -> Self {
        assert!(config.lanes_per_link >= 1, "link needs at least one lane");
        assert!(
            config.credits_per_vc >= 1 && config.response_data_credits >= 1,
            "need at least one credit"
        );
        if let LinkPolicy::Single(i) = policy {
            assert!(i < 2, "link index {i} out of range");
        }
        let mk = || EciLink {
            state: LinkState::Down,
            dirs: [(); 2].map(|()| DirectionState::new(&config, config.lanes_per_link)),
        };
        EciLinks {
            config,
            links: [mk(), mk()],
            policy,
            rr_next: [0; 2],
            pending_lanes: [config.lanes_per_link; 2],
            messages_sent: 0,
            bytes_sent: 0,
            trainings: 0,
            fallbacks: 0,
            vc_messages: [0; 5],
            vc_bytes: [0; 5],
            vc_credit_stalls: [0; 5],
            vc_credit_stall_ps: [0; 5],
            recovery: [[None; 2]; 2],
            retransmissions: 0,
            frames_corrupted: 0,
            frames_dropped: 0,
            lane_failures: 0,
            recovery_ps: 0,
        }
    }

    /// Creates both links already trained at full width (the common case
    /// for experiments that start after boot).
    pub fn new_trained(config: EciLinkConfig, policy: LinkPolicy) -> Self {
        let mut links = EciLinks::new(config, policy);
        for i in 0..2 {
            links.links[i].state = LinkState::Up {
                lanes: config.lanes_per_link,
            };
        }
        links
    }

    /// The static configuration.
    pub fn config(&self) -> &EciLinkConfig {
        &self.config
    }

    /// Current state of link `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 2`.
    pub fn link_state(&self, i: u8) -> LinkState {
        self.links[usize::from(i)].state
    }

    /// The load-balancing policy.
    pub fn policy(&self) -> LinkPolicy {
        self.policy
    }

    /// Reconfigures the policy (a boot-time knob on real hardware).
    pub fn set_policy(&mut self, policy: LinkPolicy) {
        if let LinkPolicy::Single(i) = policy {
            assert!(i < 2, "link index {i} out of range");
        }
        self.policy = policy;
    }

    /// Begins training link `i` at `now`; it becomes `Up` with `lanes`
    /// lanes after the configured training time.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero or exceeds the built lane count.
    pub fn train(&mut self, i: u8, now: Time, lanes: u8) {
        assert!(
            lanes >= 1 && lanes <= self.config.lanes_per_link,
            "lane count {lanes} out of range"
        );
        let link = &mut self.links[usize::from(i)];
        link.state = LinkState::Training {
            until: now + self.config.training_time,
        };
        link.dirs = [(); 2].map(|()| DirectionState::new(&self.config, lanes));
        self.recovery[usize::from(i)] = [None; 2];
        // Record the target width for completion.
        self.pending_lanes[usize::from(i)] = lanes;
        self.trainings += 1;
    }

    /// Advances link state machines to `now` (training completion).
    pub fn poll(&mut self, now: Time) {
        for (i, link) in self.links.iter_mut().enumerate() {
            if let LinkState::Training { until } = link.state {
                if now >= until {
                    link.state = LinkState::Up {
                        lanes: self.pending_lanes[i],
                    };
                }
            }
        }
    }

    fn pick_link(&mut self, frame: &Frame) -> u8 {
        // Round-robin state is kept per direction: the two directions are
        // physically independent wire pairs, and a shared counter would
        // let an alternating request/response pattern pin each direction
        // to a single link.
        let dir = direction_index(frame.dst);
        match self.policy {
            LinkPolicy::Single(i) => i,
            LinkPolicy::RoundRobin => {
                let i = self.rr_next[dir];
                self.rr_next[dir] ^= 1;
                i
            }
            LinkPolicy::ByAddress => match frame.line {
                Some(line) => (line.0 & 1) as u8,
                None => {
                    let i = self.rr_next[dir];
                    self.rr_next[dir] ^= 1;
                    i
                }
            },
        }
    }

    /// Sends `msg` at `now`, honouring link state, wire occupancy and VC
    /// credits. Falls back to the other link if the chosen one is not up.
    ///
    /// Under a fault `plan`, each frame is one injection opportunity for
    /// [`fault_targets::FRAME_DROP`] and [`fault_targets::FRAME_CORRUPT`],
    /// and each send one for [`fault_targets::LANE_FAIL`] while both
    /// links are up (the victim link retrains at half width; traffic
    /// falls back to its partner meanwhile). A faulted first transmission
    /// is resent clean, after `replay_timeout` for a loss or a
    /// one-propagation-delay NAK for a corruption, and the link direction
    /// goes back N: every frame whose first transmission starts after the
    /// faulted frame's and lands before the latest resend is discarded by
    /// the receiver and replayed in order behind it. Sequence order is
    /// wire order, whatever the order of the calls. Every frame is
    /// delivered exactly once and resent at most once; of two frames,
    /// the one sent first lands first if it also went on the wire first.
    /// A frame that takes an idle slot ahead of one sent before it cannot
    /// move that frame's delivery, which was fixed when it was sent.
    ///
    /// # Panics
    ///
    /// Panics if no link is up.
    pub fn send(&mut self, now: Time, msg: &Message, plan: Option<&mut FaultPlan>) -> SendOutcome {
        self.send_frame(now, Frame::of(msg), plan)
    }

    /// [`send`](EciLinks::send) of the parts of a message the link layer
    /// reads.
    pub(crate) fn send_frame(
        &mut self,
        now: Time,
        frame: Frame,
        mut plan: Option<&mut FaultPlan>,
    ) -> SendOutcome {
        self.poll(now);
        // Lane failures strike before routing, so the victim's traffic
        // falls back to the surviving link. Injection is suppressed
        // unless both links are up: degradation must never take the
        // fabric down entirely.
        if let Some(plan) = plan.as_deref_mut() {
            let both_up = (0..2).all(|i| matches!(self.links[i].state, LinkState::Up { .. }));
            if both_up && plan.should_fire(fault_targets::LANE_FAIL, now) {
                let victim = self.widest_up_link();
                if let LinkState::Up { lanes } = self.links[usize::from(victim)].state {
                    let degraded = (lanes / 2).max(1);
                    self.train(victim, now, degraded);
                    self.lane_failures += 1;
                    // Retraining time is deterministic, so the recovery
                    // completes exactly one training interval later.
                    plan.note_recovery(
                        fault_targets::LANE_FAIL,
                        now + self.config.training_time,
                        self.config.training_time,
                    );
                }
            }
        }
        let mut idx = self.pick_link(&frame);
        if !matches!(self.links[usize::from(idx)].state, LinkState::Up { .. }) {
            idx ^= 1;
            self.fallbacks += 1;
        }
        assert!(
            matches!(self.links[usize::from(idx)].state, LinkState::Up { .. }),
            "no ECI link is up"
        );
        let bytes = frame.bytes;
        let vc = frame.vc.index();
        let may_start = self.direction(idx, frame.dst).credits[vc].acquire(now);
        let (start, delivered, retransmissions) = match plan {
            None => {
                let t = self
                    .direction(idx, frame.dst)
                    .channel
                    .send(may_start, bytes);
                (t.start, t.done, 0)
            }
            Some(plan) => self.send_recovering(now, idx, &frame, may_start, plan),
        };
        // The receiver's buffer credit is held until the frame is
        // actually accepted, i.e. after any resend lands.
        let credit_return = self.config.credit_return;
        self.direction(idx, frame.dst).credits[vc].commit(delivered + credit_return);
        self.messages_sent += 1;
        self.bytes_sent += bytes;
        self.vc_messages[vc] += 1;
        self.vc_bytes[vc] += bytes;
        if may_start > now {
            self.vc_credit_stalls[vc] += 1;
            self.vc_credit_stall_ps[vc] += may_start.since(now).as_ps();
        }
        SendOutcome {
            link: idx,
            start,
            delivered,
            retransmissions,
        }
    }

    /// The direction of link `idx` towards `dst`.
    fn direction(&mut self, idx: u8, dst: NodeId) -> &mut DirectionState {
        &mut self.links[usize::from(idx)].dirs[direction_index(dst)]
    }

    /// Sends `frame` on link `idx` no earlier than `may_start` under
    /// `plan`'s frame faults, going back N; returns its first
    /// transmission's start, its delivery and its resends (0 or 1).
    #[cold]
    #[inline(never)]
    fn send_recovering(
        &mut self,
        now: Time,
        idx: u8,
        frame: &Frame,
        may_start: Time,
        plan: &mut FaultPlan,
    ) -> (Time, Time, u8) {
        let fault = if plan.should_fire(fault_targets::FRAME_DROP, now) {
            // Lost in flight: no NAK can come back, so the sender's
            // replay timer expires first.
            self.frames_dropped += 1;
            Some((fault_targets::FRAME_DROP, self.config.replay_timeout))
        } else if plan.should_fire(fault_targets::FRAME_CORRUPT, now) {
            // The receiver's CRC check fails on arrival and it NAKs the
            // sequence number.
            self.frames_corrupted += 1;
            Some((fault_targets::FRAME_CORRUPT, self.config.propagation))
        } else {
            None
        };
        let bytes = frame.bytes;
        let (l, d) = (usize::from(idx), direction_index(frame.dst));
        let recovery = self.recovery[l][d];
        let channel = &mut self.direction(idx, frame.dst).channel;
        let t = channel.send(may_start, bytes);
        // A frame behind the faulted one that lands while the receiver is
        // out of sequence is discarded whether or not it was faulted
        // itself, and replayed behind the latest resend; any other
        // faulted frame is resent after its NAK or replay timer. Resends
        // go out clean, so each frame is resent at most once.
        let discarded = recovery.is_some_and(|r| t.start > r.faulted && t.done < r.caught_up);
        let resend = match recovery {
            Some(r) if discarded => Some(channel.send(r.tail, bytes)),
            _ => fault.map(|(_, wait)| channel.send(t.done + wait, bytes)),
        };
        let Some(rt) = resend else {
            return (t.start, t.done, 0);
        };
        self.recovery[l][d] = Some(match recovery {
            None => Recovery {
                faulted: t.start,
                tail: rt.start,
                caught_up: rt.done,
            },
            Some(r) => Recovery {
                faulted: r.faulted.min(t.start),
                tail: r.tail.max(rt.start),
                caught_up: r.caught_up.max(rt.done),
            },
        });
        let latency = rt.done.since(t.done);
        if let Some((target, _)) = fault {
            plan.note_recovery(target, rt.done, latency);
        }
        self.retransmissions += 1;
        self.bytes_sent += bytes;
        self.vc_bytes[frame.vc.index()] += bytes;
        self.recovery_ps += latency.as_ps();
        (t.start, rt.done, 1)
    }

    /// Ends every link direction's go-back-N recovery. The engine calls
    /// it when its event queue has drained: every resend has landed by
    /// then, and the next batch, which may start at any time again, is
    /// behind no earlier fault.
    pub(crate) fn end_recovery(&mut self) {
        self.recovery = [[None; 2]; 2];
    }

    /// The `Up` link with the most active lanes (ties favour link 0).
    ///
    /// # Panics
    ///
    /// Panics if no link is up.
    fn widest_up_link(&self) -> u8 {
        let width = |i: usize| match self.links[i].state {
            LinkState::Up { lanes } => Some(lanes),
            _ => None,
        };
        match (width(0), width(1)) {
            (Some(a), Some(b)) => {
                if b > a {
                    1
                } else {
                    0
                }
            }
            (Some(_), None) => 0,
            (None, Some(_)) => 1,
            (None, None) => panic!("no ECI link is up"),
        }
    }

    /// Total messages sent across both links.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Total wire bytes sent across both links.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Frames resent from the retransmit buffer: faulted frames and the
    /// frames replayed behind them.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Lane-failure faults absorbed by retraining at reduced width.
    pub fn lane_failures(&self) -> u64 {
        self.lane_failures
    }

    /// Fraction of the fabric's built lanes currently *not* carrying
    /// traffic: 0.0 with both links fully up, 1.0 with everything down
    /// or retraining.
    fn degraded_fraction(&self) -> f64 {
        let built = 2.0 * f64::from(self.config.lanes_per_link);
        let active: u32 = self
            .links
            .iter()
            .map(|l| match l.state {
                LinkState::Up { lanes } => u32::from(lanes),
                _ => 0,
            })
            .sum();
        1.0 - f64::from(active) / built
    }
}

/// Publishes the link layer's counters: totals, training/fallback
/// events, and per-virtual-channel message, byte and credit-stall counts
/// (`prefix.vc.<name>.*`).
impl enzian_sim::Instrumented for EciLinks {
    fn export_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        registry.counter_set(&format!("{prefix}.messages"), self.messages_sent);
        registry.counter_set(&format!("{prefix}.bytes"), self.bytes_sent);
        registry.counter_set(&format!("{prefix}.trainings"), self.trainings);
        registry.counter_set(&format!("{prefix}.fallbacks"), self.fallbacks);
        registry.counter_set(&format!("{prefix}.retransmissions"), self.retransmissions);
        registry.counter_set(&format!("{prefix}.frames_corrupted"), self.frames_corrupted);
        registry.counter_set(&format!("{prefix}.frames_dropped"), self.frames_dropped);
        registry.counter_set(&format!("{prefix}.lane_failures"), self.lane_failures);
        registry.counter_set(&format!("{prefix}.recovery_ps"), self.recovery_ps);
        registry.gauge_set(&format!("{prefix}.degraded"), self.degraded_fraction());
        for vc in VirtualChannel::ALL {
            let i = vc.index();
            let base = format!("{prefix}.vc.{}", vc.name());
            registry.counter_set(&format!("{base}.messages"), self.vc_messages[i]);
            registry.counter_set(&format!("{base}.bytes"), self.vc_bytes[i]);
            registry.counter_set(&format!("{base}.credit_stalls"), self.vc_credit_stalls[i]);
            registry.counter_set(
                &format!("{base}.credit_stall_ps"),
                self.vc_credit_stall_ps[i],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{MessageKind, TxnId};
    use enzian_mem::CacheLine;

    fn msg_to_cpu(txn: u32, line: u64) -> Message {
        Message::new(
            NodeId::Fpga,
            NodeId::Cpu,
            TxnId(txn),
            MessageKind::ReadOnce(CacheLine(line)),
        )
    }

    fn data_to_fpga(txn: u32, line: u64) -> Message {
        Message::new(
            NodeId::Cpu,
            NodeId::Fpga,
            TxnId(txn),
            MessageKind::DataShared(CacheLine(line), Box::new([0u8; 128])),
        )
    }

    fn links() -> EciLinks {
        EciLinks::new_trained(EciLinkConfig::enzian(), LinkPolicy::Single(0))
    }

    #[test]
    fn one_link_bandwidth_envelope() {
        // Saturate one link with 128-byte data messages; effective
        // throughput must be close to 12 lanes x 10 Gb/s x 64/66 minus
        // header overhead: ~12.3 GB/s wire, ~10.4 GB/s payload.
        let mut l = links();
        let n = 20_000u64;
        let mut last = Time::ZERO;
        for i in 0..n {
            let out = l.send(Time::ZERO, &data_to_fpga(i as u32, i), None);
            last = last.max(out.delivered);
        }
        let payload = n * 128;
        let gib_s = payload as f64 / last.as_secs_f64() / (1u64 << 30) as f64;
        // Data responses are paced by the 5 response-data credits, which
        // lands below the raw 12-lane wire rate.
        assert!(
            (7.5..12.5).contains(&gib_s),
            "single-link payload bandwidth {gib_s:.2} GiB/s"
        );
    }

    #[test]
    fn round_robin_doubles_throughput() {
        let mut single = links();
        let mut dual = EciLinks::new_trained(EciLinkConfig::enzian(), LinkPolicy::RoundRobin);
        let n = 2_000u64;
        let (mut t1, mut t2) = (Time::ZERO, Time::ZERO);
        for i in 0..n {
            t1 = t1.max(
                single
                    .send(Time::ZERO, &data_to_fpga(i as u32, i), None)
                    .delivered,
            );
            t2 = t2.max(
                dual.send(Time::ZERO, &data_to_fpga(i as u32, i), None)
                    .delivered,
            );
        }
        let speedup = t1.as_ps() as f64 / t2.as_ps() as f64;
        assert!(speedup > 1.8, "dual-link speedup {speedup:.2}");
    }

    #[test]
    fn by_address_policy_keeps_line_affinity() {
        let mut l = EciLinks::new_trained(EciLinkConfig::enzian(), LinkPolicy::ByAddress);
        let a = l.send(Time::ZERO, &msg_to_cpu(0, 42), None).link;
        let b = l.send(Time::ZERO, &msg_to_cpu(1, 42), None).link;
        let c = l.send(Time::ZERO, &msg_to_cpu(2, 43), None).link;
        assert_eq!(a, b, "same line must use the same link");
        assert_ne!(a, c, "adjacent lines spread across links");
    }

    #[test]
    fn credits_throttle_a_burst() {
        // With 2 credits and a long credit return, the third message in a
        // burst must stall until a credit frees.
        let cfg = EciLinkConfig {
            credits_per_vc: 2,
            response_data_credits: 2,
            credit_return: Duration::from_us(10),
            ..EciLinkConfig::enzian()
        };
        let mut l = EciLinks::new_trained(cfg, LinkPolicy::Single(0));
        let o1 = l.send(Time::ZERO, &msg_to_cpu(1, 1), None);
        let _o2 = l.send(Time::ZERO, &msg_to_cpu(2, 2), None);
        let o3 = l.send(Time::ZERO, &msg_to_cpu(3, 3), None);
        assert!(
            o3.start >= o1.delivered + Duration::from_us(10),
            "third send did not wait for a credit: {:?} vs {:?}",
            o3.start,
            o1.delivered
        );
    }

    #[test]
    fn vcs_do_not_block_each_other() {
        // Exhaust Request credits; a Response must still go immediately.
        let cfg = EciLinkConfig {
            credits_per_vc: 1,
            response_data_credits: 1,
            credit_return: Duration::from_ms(1),
            ..EciLinkConfig::enzian()
        };
        let mut l = EciLinks::new_trained(cfg, LinkPolicy::Single(0));
        let _ = l.send(Time::ZERO, &msg_to_cpu(1, 1), None);
        let blocked = l.send(Time::ZERO, &msg_to_cpu(2, 2), None);
        assert!(blocked.start > Time::ZERO, "request VC should be stalled");
        let resp = Message::new(
            NodeId::Fpga,
            NodeId::Cpu,
            TxnId(3),
            MessageKind::Ack(CacheLine(1)),
        );
        let out = l.send(Time::ZERO, &resp, None);
        // Response starts as soon as the wire frees, far before the
        // request credit returns.
        assert!(out.start < blocked.start);
    }

    #[test]
    fn training_brings_a_link_up_after_delay() {
        let mut l = EciLinks::new(EciLinkConfig::enzian(), LinkPolicy::Single(0));
        assert_eq!(l.link_state(0), LinkState::Down);
        l.train(0, Time::ZERO, 12);
        assert!(matches!(l.link_state(0), LinkState::Training { .. }));
        l.poll(Time::ZERO + Duration::from_ms(3));
        assert_eq!(l.link_state(0), LinkState::Up { lanes: 12 });
    }

    #[test]
    fn reduced_lane_count_reduces_bandwidth() {
        // 4-lane bring-up configuration (as used during early ECI debug).
        let mut l4 = EciLinks::new(EciLinkConfig::enzian(), LinkPolicy::Single(0));
        l4.train(0, Time::ZERO, 4);
        l4.poll(Time::ZERO + Duration::from_ms(3));
        let mut l12 = links();
        let t0 = Time::ZERO + Duration::from_ms(3);
        let n = 500;
        let (mut d4, mut d12) = (t0, t0);
        for i in 0..n {
            d4 = d4.max(l4.send(t0, &data_to_fpga(i, i as u64), None).delivered);
            d12 = d12.max(l12.send(t0, &data_to_fpga(i, i as u64), None).delivered);
        }
        let ratio = d4.since(t0).as_ps() as f64 / d12.since(t0).as_ps() as f64;
        // Wire serialization scales 3x, but credit pacing (which does not
        // scale with lanes) compresses the observed ratio.
        assert!(
            (1.8..3.5).contains(&ratio),
            "4-lane slowdown {ratio:.2} (expect 2-3x)"
        );
    }

    #[test]
    #[should_panic(expected = "no ECI link is up")]
    fn sending_with_links_down_panics() {
        let mut l = EciLinks::new(EciLinkConfig::enzian(), LinkPolicy::Single(0));
        let _ = l.send(Time::ZERO, &msg_to_cpu(1, 1), None);
    }

    #[test]
    fn single_policy_falls_back_when_link_down() {
        let mut l = EciLinks::new(EciLinkConfig::enzian(), LinkPolicy::Single(0));
        l.train(1, Time::ZERO, 12);
        l.poll(Time::ZERO + Duration::from_ms(3));
        // Link 0 still down; send must use link 1.
        let out = l.send(Time::ZERO + Duration::from_ms(3), &msg_to_cpu(1, 1), None);
        assert_eq!(out.link, 1);
    }

    #[test]
    fn telemetry_reports_credit_stalls() {
        let cfg = EciLinkConfig {
            credits_per_vc: 2,
            response_data_credits: 2,
            credit_return: Duration::from_us(10),
            ..EciLinkConfig::enzian()
        };
        let mut l = EciLinks::new_trained(cfg, LinkPolicy::Single(0));
        for i in 0..4 {
            let _ = l.send(Time::ZERO, &msg_to_cpu(i, u64::from(i)), None);
        }
        let mut reg = MetricsRegistry::new();
        enzian_sim::Instrumented::export_metrics(&l, "eci.link", &mut reg);
        assert!(
            reg.counter("eci.link.vc.request.credit_stalls") >= 2,
            "burst of 4 over 2 credits must stall"
        );
        assert!(reg.counter("eci.link.vc.request.credit_stall_ps") > 0);
        assert_eq!(reg.counter("eci.link.messages"), 4);
        assert_eq!(reg.counter("eci.link.vc.response.messages"), 0);
    }

    #[test]
    fn accounting_counts_wire_bytes() {
        let mut l = links();
        l.send(Time::ZERO, &msg_to_cpu(1, 1), None); // 16 B command flit
        l.send(Time::ZERO, &data_to_fpga(2, 2), None); // 16 + 8 ext + 128 data
        assert_eq!(l.messages_sent(), 2);
        assert_eq!(l.bytes_sent(), 16 + 16 + 8 + 128);
    }

    #[test]
    fn dropped_frame_is_replayed_after_the_timeout() {
        use enzian_sim::FaultSpec;
        let mut l = links();
        let mut plan = FaultPlan::new(1).with(FaultSpec::every_nth(fault_targets::FRAME_DROP, 1));
        let clean = links().send(Time::ZERO, &msg_to_cpu(1, 1), None);
        let faulted = l.send(Time::ZERO, &msg_to_cpu(1, 1), Some(&mut plan));
        assert_eq!(faulted.retransmissions, 1);
        assert!(
            faulted.delivered >= clean.delivered + EciLinkConfig::enzian().replay_timeout,
            "replay must wait out the timer: {:?} vs {:?}",
            faulted.delivered,
            clean.delivered
        );
        assert_eq!(l.retransmissions(), 1);
        assert_eq!(plan.injected(fault_targets::FRAME_DROP), 1);
        assert_eq!(plan.recovered(fault_targets::FRAME_DROP), 1);
    }

    #[test]
    fn corrupt_frame_recovers_faster_than_a_lost_one() {
        use enzian_sim::FaultSpec;
        let mut drop_plan =
            FaultPlan::new(1).with(FaultSpec::every_nth(fault_targets::FRAME_DROP, 1));
        let mut crc_plan =
            FaultPlan::new(1).with(FaultSpec::every_nth(fault_targets::FRAME_CORRUPT, 1));
        let dropped = links().send(Time::ZERO, &msg_to_cpu(1, 1), Some(&mut drop_plan));
        let corrupted = links().send(Time::ZERO, &msg_to_cpu(1, 1), Some(&mut crc_plan));
        // A NAK returns in one propagation delay (35 ns); a loss has to
        // wait out the 500 ns replay timer.
        assert!(
            corrupted.delivered < dropped.delivered,
            "NAK recovery {:?} should beat timeout recovery {:?}",
            corrupted.delivered,
            dropped.delivered
        );
    }

    #[test]
    fn retransmission_counts_wire_bytes_twice() {
        use enzian_sim::FaultSpec;
        let mut l = EciLinks::new_trained(EciLinkConfig::enzian(), LinkPolicy::Single(0));
        let mut plan =
            FaultPlan::new(1).with(FaultSpec::every_nth(fault_targets::FRAME_CORRUPT, 1));
        l.send(Time::ZERO, &msg_to_cpu(1, 1), Some(&mut plan));
        assert_eq!(l.messages_sent(), 1, "a replay is not a new message");
        assert_eq!(l.bytes_sent(), 2 * 16, "the wire carried the frame twice");
    }

    #[test]
    fn lane_failure_degrades_then_retrains() {
        use enzian_sim::FaultSpec;
        let mut l = EciLinks::new_trained(EciLinkConfig::enzian(), LinkPolicy::RoundRobin);
        let mut plan =
            FaultPlan::new(1).with(FaultSpec::once(fault_targets::LANE_FAIL, Time::from_ns(10)));
        assert_eq!(l.degraded_fraction(), 0.0);
        let out = l.send(Time::from_ns(10), &msg_to_cpu(1, 1), Some(&mut plan));
        // The victim is retraining; the message still went out on the
        // surviving link.
        assert_eq!(l.lane_failures(), 1);
        assert!(l.degraded_fraction() > 0.4, "{}", l.degraded_fraction());
        assert!(matches!(
            l.link_state(out.link),
            LinkState::Up { lanes: 12 }
        ));
        // After the training time the victim is back at half width.
        let later = Time::from_ns(10) + EciLinkConfig::enzian().training_time;
        l.poll(later);
        let lanes: Vec<u8> = (0..2)
            .filter_map(|i| match l.link_state(i) {
                LinkState::Up { lanes } => Some(lanes),
                _ => None,
            })
            .collect();
        assert_eq!(lanes.len(), 2, "both links up after retrain");
        assert!(lanes.contains(&6), "victim retrained at half width");
        let frac = l.degraded_fraction();
        assert!((frac - 0.25).abs() < 1e-9, "degraded {frac}");
        assert_eq!(plan.recovered(fault_targets::LANE_FAIL), 1);
    }

    #[test]
    fn lane_failure_never_takes_the_last_link_down() {
        use enzian_sim::FaultSpec;
        let mut l = EciLinks::new(EciLinkConfig::enzian(), LinkPolicy::Single(0));
        l.train(0, Time::ZERO, 12);
        l.poll(Time::from_ms(3));
        // Only link 0 is up: lane-fail opportunities must be suppressed.
        let mut plan = FaultPlan::new(1).with(FaultSpec::every_nth(fault_targets::LANE_FAIL, 1));
        let out = l.send(Time::from_ms(3), &msg_to_cpu(1, 1), Some(&mut plan));
        assert_eq!(out.link, 0);
        assert_eq!(l.lane_failures(), 0);
        assert_eq!(plan.injected(fault_targets::LANE_FAIL), 0);
    }

    #[test]
    fn fault_free_plan_leaves_timing_untouched() {
        let mut plan = FaultPlan::new(9);
        let mut faulty = links();
        let mut clean = links();
        for i in 0..100u64 {
            let a = faulty.send(Time::ZERO, &data_to_fpga(i as u32, i), Some(&mut plan));
            let b = clean.send(Time::ZERO, &data_to_fpga(i as u32, i), None);
            assert_eq!(a, b);
        }
        assert_eq!(faulty.retransmissions(), 0);
    }
}
