//! The replicated KV service, run across the simulated cluster.
//!
//! This module is the *transport and control plane* of
//! `enzian-apps::service`: it places the shard/replica/client state
//! machines from [`enzian_apps::service`] onto the boards of a
//! conservative-parallel cluster (the same engine as
//! [`crate::cluster`]), carries every service message inside a bridge
//! `Svc*` frame over seeded [`Channel`](enzian_sim::Channel)s, and
//! drives the robustness
//! machinery end to end:
//!
//! * **Fault scenarios** ([`FaultScenario`]) build per-board
//!   [`FaultPlan`]s over the shared cluster targets
//!   ([`enzian_sim::cluster_targets`]): board crashes (fail-stop,
//!   volatile state lost), bridge partitions (all frames in and out
//!   dropped) and bridge delays (late delivery).
//! * **Failure detection and failover**: boards exchange heartbeats
//!   carrying per-hosted-shard epochs; a backup that has not heard its
//!   primary within the timeout — and can still see a board majority —
//!   promotes itself by bumping the epoch. Stale primaries are fenced
//!   by higher epochs (heartbeats or replication nacks) and rebuild
//!   via catch-up before serving again.
//! * **Bounded clients**: every request either completes with a
//!   [`KvResult`] or fails with a typed [`SvcError`] within its retry
//!   budget; timed-out GETs may degrade to one stale read. No client
//!   operation can hang.
//! * **Audits**: [`ServiceStats::verify_linearizable`] replays
//!   every shard's committed log against a fresh sequential store, and
//!   [`ServiceStats::audit_zero_lost_acks`] checks that no
//!   acknowledged write was lost across crashes and failovers.
//!
//! Everything is a pure function of the [`ServiceConfig`] — reports
//! (and the metrics / bench JSON derived from them) are bit-identical
//! across thread counts and between the parallel engine and the
//! sequential reference driver.
//!
//! # Safety invariant
//!
//! A primary may commit *solo* (without its backup's ack) only while it
//! can see a board majority. [`ServiceConfig::validate`] enforces
//! `rep_timeout × rep_retry_budget > hb_timeout`, so a partitioned
//! primary exhausts its heartbeat freshness — and therefore loses
//! quorum — *before* its replication retry budget does: it steps down
//! instead of solo-committing a write the promoted backup never saw.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

use enzian_apps::service::{
    verify_log, AckState, Applied, ClientPlan, ClientState, HeartbeatView, KvOp, KvResult,
    LogEntry, Replica, RespErr, RespOk, RetryDecision, Role, ShardMap, SloRecorder, SvcError,
    SvcPayload,
};
use enzian_apps::{decode_svc, encode_heartbeat_into, encode_svc_into, KvStoreConfig};
use enzian_eci::bridge::BridgeOpcode;
use enzian_net::eth::EthLinkConfig;
use enzian_sim::par::{Engine, Envelope, KeyedShard, WorkKey};
use enzian_sim::{cluster_targets, Duration, FaultPlan, FaultSpec, Fnv, MetricsRegistry, Time};

use crate::cluster::{FabricFrame, FabricPort, FlowStats, BRIDGE_HEADER};
use crate::harness::{self, FabricBoard, RunReport};

/// Bytes a service frame holds inline in its envelope: the bridge
/// framing plus 64 bytes of payload. That fits every request, response
/// and replication message (values are at most 23 bytes) and the
/// heartbeat of a board hosting up to nine shards, so every frame of
/// the `small` and `standard` services travels without a heap
/// allocation.
const SVC_FRAME_CAPACITY: usize = BRIDGE_HEADER as usize + 64;

/// Outbound envelopes of one service work item.
type Out = crate::cluster::Out<SVC_FRAME_CAPACITY>;

// -------------------------------------------------------------------
// Configuration
// -------------------------------------------------------------------

/// Cluster fault scenarios the `service` experiment sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScenario {
    /// No faults: the availability and latency baseline.
    Baseline,
    /// Board 1 crashes for one window and rejoins.
    CrashOneBoard,
    /// Boards 1, 2 and 3 crash in disjoint windows, with a small
    /// probability of delayed frames on every board throughout.
    RollingCrashes,
    /// Board 2 is partitioned from the fabric for one window, then
    /// heals and must be fenced + re-replicated.
    PartitionHeal,
}

impl FaultScenario {
    /// All scenarios, in sweep order.
    pub fn all() -> [FaultScenario; 4] {
        [
            FaultScenario::Baseline,
            FaultScenario::CrashOneBoard,
            FaultScenario::RollingCrashes,
            FaultScenario::PartitionHeal,
        ]
    }

    /// Stable label used in metrics and bench JSON.
    pub fn label(&self) -> &'static str {
        match self {
            FaultScenario::Baseline => "none",
            FaultScenario::CrashOneBoard => "crash_one_board",
            FaultScenario::RollingCrashes => "rolling_crashes",
            FaultScenario::PartitionHeal => "partition_heal",
        }
    }

    /// The fault window ops are SLO-bucketed against (`None` for the
    /// baseline): the span from the first injection to the last
    /// scheduled recovery.
    pub fn fault_window(&self) -> Option<(Time, Time)> {
        match self {
            FaultScenario::Baseline => None,
            FaultScenario::CrashOneBoard => Some((Time::from_us(100), Time::from_us(250))),
            FaultScenario::RollingCrashes => Some((Time::from_us(100), Time::from_us(460))),
            FaultScenario::PartitionHeal => Some((Time::from_us(100), Time::from_us(250))),
        }
    }

    /// Builds board `board`'s fault plan (seeded per board, so
    /// probabilistic triggers draw from private streams).
    pub fn plan_for(&self, seed: u64, board: u8) -> FaultPlan {
        let mut plan =
            FaultPlan::new(seed ^ (u64::from(board) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        match self {
            FaultScenario::Baseline => {}
            FaultScenario::CrashOneBoard => {
                if board == 1 {
                    plan.add(FaultSpec::window(
                        cluster_targets::BOARD_CRASH,
                        Time::from_us(100),
                        Time::from_us(250),
                    ));
                }
            }
            FaultScenario::RollingCrashes => {
                let windows = [(1u8, 100u64, 180u64), (2, 240, 320), (3, 380, 460)];
                for (b, from, until) in windows {
                    if board == b {
                        plan.add(FaultSpec::window(
                            cluster_targets::BOARD_CRASH,
                            Time::from_us(from),
                            Time::from_us(until),
                        ));
                    }
                }
                plan.add(FaultSpec::probability(cluster_targets::BRIDGE_DELAY, 0.02));
            }
            FaultScenario::PartitionHeal => {
                if board == 2 {
                    plan.add(FaultSpec::window(
                        cluster_targets::BRIDGE_PARTITION,
                        Time::from_us(100),
                        Time::from_us(250),
                    ));
                }
            }
        }
        plan
    }
}

/// Configuration of one replicated-service run.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct ServiceConfig {
    /// Boards in the cluster (≥ 3, so a single failure leaves quorum).
    pub boards: u8,
    /// Shards (each hosted by two consecutive boards).
    pub shards: u16,
    /// Clients per board.
    pub clients_per_board: u8,
    /// Client workload/robustness parameters.
    pub client: ClientPlan,
    /// Per-shard store configuration.
    pub store: KvStoreConfig,
    /// Heartbeat send period.
    pub hb_interval: Duration,
    /// Silence after which a board is suspected dead.
    pub hb_timeout: Duration,
    /// Per-attempt replication ack timeout.
    pub rep_timeout: Duration,
    /// Replication attempts before the primary decides alone (≥ 1).
    pub rep_retry_budget: u32,
    /// Loopback latency for same-board service messages.
    pub local_latency: Duration,
    /// FPGA bridge processing per fabric frame.
    pub bridge_latency: Duration,
    /// Extra delivery delay injected by `bridge.delay` faults.
    pub delay_extra: Duration,
    /// Heartbeats stop at this horizon (all client work must be done
    /// well before; fault windows must end before it).
    pub horizon: Time,
    /// Master seed for clients and fault plans.
    pub seed: u64,
    /// The fault scenario to inject.
    pub scenario: FaultScenario,
}

impl ServiceConfig {
    /// A small cluster sized for unit tests.
    pub fn small() -> Self {
        ServiceConfig {
            boards: 4,
            shards: 8,
            clients_per_board: 2,
            client: ClientPlan {
                keys_per_client: 6,
                ops: 24,
                ..ClientPlan::standard()
            },
            store: KvStoreConfig {
                buckets: 256,
                ..KvStoreConfig::tiny()
            },
            hb_interval: Duration::from_us(10),
            hb_timeout: Duration::from_us(40),
            rep_timeout: Duration::from_us(15),
            rep_retry_budget: 4,
            local_latency: Duration::from_ns(500),
            bridge_latency: Duration::from_ns(150),
            delay_extra: Duration::from_us(30),
            horizon: Time::from_us(1_200),
            seed: 0x5E11_ACE5,
            scenario: FaultScenario::Baseline,
        }
    }

    /// The `service` experiment's cluster.
    pub fn standard() -> Self {
        ServiceConfig {
            boards: 8,
            shards: 16,
            clients_per_board: 2,
            client: ClientPlan::standard(),
            horizon: Time::from_us(1_500),
            ..ServiceConfig::small()
        }
    }

    /// Returns the configuration with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the configuration with `scenario` injected.
    pub fn with_scenario(mut self, scenario: FaultScenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Checks the configuration's internal consistency — in particular
    /// the solo-commit safety invariant (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics on any violated invariant.
    pub fn validate(&self) {
        assert!(self.boards >= 3, "quorum needs at least three boards");
        assert!(self.shards > 0, "a service needs shards");
        assert!(self.clients_per_board > 0, "a service needs clients");
        assert!(self.rep_retry_budget >= 1, "replication needs one attempt");
        assert!(
            self.hb_timeout >= self.hb_interval * 2,
            "failure detection needs at least two missed heartbeats"
        );
        assert!(
            self.rep_timeout
                .saturating_mul(u64::from(self.rep_retry_budget))
                > self.hb_timeout,
            "solo-commit safety: rep_timeout x rep_retry_budget must exceed hb_timeout"
        );
        if let Some((_, until)) = self.scenario.fault_window() {
            assert!(
                until < self.horizon,
                "the fault window must close before the horizon"
            );
        }
    }

    /// The conservative engine's lookahead: no frame sent at `t` is
    /// processed remotely before `t + propagation + bridge_latency`.
    pub fn lookahead(&self) -> Duration {
        EthLinkConfig::hundred_gig().propagation + self.bridge_latency
    }

    /// Total client operations the run must account for.
    pub fn total_client_ops(&self) -> u64 {
        u64::from(self.boards) * u64::from(self.clients_per_board) * self.client.ops
    }
}

// -------------------------------------------------------------------
// The per-board shard
// -------------------------------------------------------------------

/// What a sleeping client is waiting to do.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ClientWake {
    /// Draw and issue the next operation.
    Issue,
    /// Re-send the pending operation (retry attempt).
    Rearm {
        /// The attempt is the stale-read fallback.
        stale: bool,
    },
    /// The per-attempt timeout for `req_id` fired.
    Timeout {
        /// The attempt it guards (stale if the op was re-armed since).
        req_id: u32,
    },
}

/// One client plus its single timer slot. A slot, not a queue: arming a
/// new wake (response handled, retry scheduled) implicitly cancels the
/// stale timeout.
#[derive(Debug)]
struct LocalClient {
    state: ClientState,
    wake: Option<(Time, ClientWake)>,
}

/// Who awaits a response: `(board, client uid, req_id)`.
type ReplyTo = (usize, u32, u32);

/// A response body.
type Body = Result<RespOk, RespErr>;

/// A successful response body.
fn served(result: KvResult, stale: bool) -> Body {
    Ok(RespOk { result, stale })
}

/// A rejection response body.
fn rejected(error: SvcError) -> Body {
    Err(RespErr { error })
}

/// An uncommitted log entry at the primary, awaiting its backup ack.
#[derive(Debug)]
struct Pend {
    /// The client whose request created the entry.
    responder: ReplyTo,
    /// Retries of that request that arrived before the commit.
    retries: Vec<ReplyTo>,
    /// Replication attempts made.
    attempts: u32,
    /// Current attempt's ack deadline (keys the timer set).
    deadline: Time,
}

impl Pend {
    /// Every client to answer, in arrival order.
    fn responders(self) -> impl Iterator<Item = ReplyTo> {
        std::iter::once(self.responder).chain(self.retries)
    }
}

/// Catch-up progress for one recovering shard.
#[derive(Debug)]
struct CatchupState {
    /// Entries the snapshot promises (`None` until the header arrives).
    expect: Option<u32>,
    /// Last time the rebuild advanced (requests count as progress).
    last_progress: Time,
    /// Out-of-order replication frames parked until their turn:
    /// index → `(epoch, client, op_seq, op)`. Delay faults reorder
    /// frames, so the replay must tolerate entries (and even the
    /// snapshot header) arriving late without starting over.
    buffer: BTreeMap<u32, (u32, u32, u32, KvOp)>,
}

impl CatchupState {
    fn fresh(now: Time) -> Self {
        CatchupState {
            expect: None,
            last_progress: now,
            buffer: BTreeMap::new(),
        }
    }
}

/// One board of the replicated service: its shard replicas, its
/// clients, its timers, and its half of the fabric.
struct ServiceBoard {
    id: usize,
    n: usize,
    cfg: ServiceConfig,
    map: ShardMap,
    /// Hosted shard → replica.
    replicas: BTreeMap<u16, Replica>,
    /// The hosted shards, ascending: the keys of `replicas`, which
    /// never change.
    hosted: Vec<u16>,
    /// Hosted shard → uncommitted log index → pending commit.
    pend: BTreeMap<u16, BTreeMap<u32, Pend>>,
    /// Armed replication timers, ordered by deadline.
    rep_timers: BTreeSet<(Time, u16, u32)>,
    /// Catch-up progress per recovering shard.
    catchup: BTreeMap<u16, CatchupState>,
    clients: Vec<LocalClient>,
    /// Best-known epoch per shard (request routing).
    routing_epoch: Vec<u32>,
    /// Last heartbeat (or any frame) heard from each board.
    last_heard: Vec<Time>,
    next_hb: Option<Time>,
    hb_seq: u32,
    plan: FaultPlan,
    down: bool,
    down_since: Time,
    port: FabricPort<SVC_FRAME_CAPACITY>,
    /// Scratch buffer for the heartbeat payload, encoded once per tick
    /// and framed once per destination.
    hb_payload: Vec<u8>,
    /// Per-destination serialization floor: the wire start of the last
    /// frame sent there. Submitting at-or-after it keeps the channel
    /// FIFO even though replicate/response send times (apply-completion
    /// instants) are not monotone and frames vary in size — without it
    /// a short later frame can gap-fill ahead of an in-flight one and
    /// force a spurious full catch-up on the backup.
    send_floor: Vec<Time>,
    slo: SloRecorder,
    last: Time,
    crashes: u64,
    rejoins: u64,
    crashed_ops: u64,
    failovers: u64,
    solo_commits: u64,
    fenced: u64,
    step_downs: u64,
    catchup_requests: u64,
    catchups_completed: u64,
    partition_drops: u64,
    delays_injected: u64,
    heartbeats_sent: u64,
    client_rejections: u64,
    local_msgs: u64,
}

impl ServiceBoard {
    fn me(&self) -> u8 {
        self.id as u8
    }

    // ---------------------------------------------------------------
    // Faults
    // ---------------------------------------------------------------

    /// Consults the board-crash schedule at `now` and performs the
    /// crash / rejoin edge transitions. Returns `true` while down.
    fn fault_tick(&mut self, now: Time, out: &mut Out) -> bool {
        let firing = self.plan.should_fire(cluster_targets::BOARD_CRASH, now);
        if firing && !self.down {
            self.crash(now);
        } else if !firing && self.down {
            self.rejoin(now, out);
        }
        self.down
    }

    /// Fail-stop: all volatile state is lost, every in-flight client
    /// operation becomes indeterminate. The inbox is *not* cleared —
    /// frames in flight are dropped at their arrival instant while the
    /// board is down, which is engine-independent (clearing here would
    /// depend on when the transport staged them).
    fn crash(&mut self, now: Time) {
        self.down = true;
        self.down_since = now;
        self.crashes += 1;
        self.rep_timers.clear();
        self.pend.clear();
        self.catchup.clear();
        for r in self.replicas.values_mut() {
            r.reset_for_recovery();
        }
        let mut crashed = 0;
        for c in &mut self.clients {
            if c.state.pending.is_some() {
                // The op's outcome is unknowable ([`SvcError::ClientCrashed`]
                // territory): poison its key and keep it out of the SLO.
                c.state.complete_failed();
                crashed += 1;
            }
            c.wake = None;
        }
        self.crashed_ops += crashed;
        self.last = self.last.max(now);
    }

    /// The crash window closed: the board reboots with empty replicas
    /// and rebuilding shards; surviving clients resume issuing.
    fn rejoin(&mut self, now: Time, out: &mut Out) {
        self.down = false;
        self.rejoins += 1;
        self.plan.note_recovery(
            cluster_targets::BOARD_CRASH,
            now,
            now.saturating_since(self.down_since),
        );
        for t in &mut self.last_heard {
            *t = now;
        }
        for i in 0..self.hosted.len() {
            self.request_catchup(self.hosted[i], now, out);
        }
        for (i, c) in self.clients.iter_mut().enumerate() {
            if !c.state.done() {
                c.wake = Some((
                    now + self.cfg.client.think * (i as u64 + 1),
                    ClientWake::Issue,
                ));
            }
        }
        self.last = self.last.max(now);
    }

    // ---------------------------------------------------------------
    // Transport
    // ---------------------------------------------------------------

    /// Routes a payload to its bridge plane: client traffic, the
    /// replication stream, or control (heartbeats).
    fn plane(payload: &SvcPayload) -> BridgeOpcode {
        match payload {
            SvcPayload::Request { .. } | SvcPayload::Response { .. } => BridgeOpcode::SvcClient,
            SvcPayload::Heartbeat { .. } => BridgeOpcode::SvcCtl,
            _ => BridgeOpcode::SvcRep,
        }
    }

    /// Encodes one service payload straight into its bridge frame and
    /// sends it towards `dst` at `at` (see [`ServiceBoard::send_frame`]).
    fn send_svc(&mut self, dst: usize, at: Time, payload: &SvcPayload, out: &mut Out) {
        self.send_frame(dst, at, Self::plane(payload), out, |p| {
            encode_svc_into(payload, p)
        });
    }

    /// Frames the payload `write` appends on the `opcode` plane and
    /// sends it towards `dst` at `at`, applying partition/delay faults;
    /// same-board messages loop back through the inbox after
    /// `local_latency`.
    fn send_frame(
        &mut self,
        dst: usize,
        at: Time,
        opcode: BridgeOpcode,
        out: &mut Out,
        write: impl FnOnce(&mut Vec<u8>),
    ) {
        let framed = self.port.frame(opcode, dst, 0, 0, write);
        if dst == self.id {
            self.local_msgs += 1;
            self.port.loop_back(framed, at + self.cfg.local_latency);
            return;
        }
        if self.plan.should_fire(cluster_targets::BRIDGE_PARTITION, at) {
            self.partition_drops += 1;
            return;
        }
        let mut extra = Duration::from_ns(0);
        if self.plan.should_fire(cluster_targets::BRIDGE_DELAY, at) {
            extra = self.cfg.delay_extra;
            self.delays_injected += 1;
        }
        let start = at.max(self.send_floor[dst]);
        let xfer = self
            .port
            .send(framed, start, self.cfg.bridge_latency + extra, out);
        self.send_floor[dst] = xfer.start;
    }

    /// Answers the client attempt `to`, stamped with `shard`'s `epoch`.
    fn respond(
        &mut self,
        to: ReplyTo,
        at: Time,
        shard: u16,
        epoch: u32,
        body: Body,
        out: &mut Out,
    ) {
        let (dst, client, req_id) = to;
        let response = SvcPayload::Response {
            client,
            req_id,
            shard,
            epoch,
            body,
        };
        self.send_svc(dst, at, &response, out);
    }

    // ---------------------------------------------------------------
    // Membership
    // ---------------------------------------------------------------

    /// `true` when `board` has been silent beyond the heartbeat timeout.
    fn suspected(&self, board: u8, now: Time) -> bool {
        now.saturating_since(self.last_heard[usize::from(board)]) > self.cfg.hb_timeout
    }

    /// `true` when this board can see a strict board majority (itself
    /// plus every peer heard within the heartbeat timeout).
    fn quorum(&self, now: Time) -> bool {
        let heard = (0..self.n)
            .filter(|&b| b != self.id && !self.suspected(b as u8, now))
            .count();
        (1 + heard) * 2 > self.n
    }

    fn bump_routing(&mut self, shard: u16, epoch: u32) {
        let e = &mut self.routing_epoch[usize::from(shard)];
        *e = (*e).max(epoch);
    }

    // ---------------------------------------------------------------
    // Replica control: fencing, step-down, catch-up
    // ---------------------------------------------------------------

    /// Fails every pending commit of `shard` with `err` and clears its
    /// replication timers.
    fn fail_pending(&mut self, shard: u16, err: SvcError, epoch: u32, now: Time, out: &mut Out) {
        let Some(m) = self.pend.remove(&shard) else {
            return;
        };
        for (index, e) in m {
            self.rep_timers.remove(&(e.deadline, shard, index));
            for to in e.responders() {
                self.respond(to, now, shard, epoch, rejected(err), out);
            }
        }
    }

    /// A higher epoch reached a serving replica: discard, adopt the
    /// epoch as a fencing floor, and rebuild via catch-up.
    fn fence(&mut self, shard: u16, new_epoch: u32, now: Time, out: &mut Out) {
        self.fenced += 1;
        self.fail_pending(shard, SvcError::Recovering, new_epoch, now, out);
        let r = self
            .replicas
            .get_mut(&shard)
            .expect("fencing a hosted shard");
        r.reset_for_recovery();
        r.epoch = new_epoch;
        self.bump_routing(shard, new_epoch);
        self.request_catchup(shard, now, out);
    }

    /// The primary lost quorum with replication attempts exhausted: it
    /// must not decide alone, so it stops serving and rebuilds.
    fn step_down(&mut self, shard: u16, now: Time, out: &mut Out) {
        self.step_downs += 1;
        let epoch = self.replicas[&shard].epoch;
        self.fail_pending(shard, SvcError::NoQuorum, epoch, now, out);
        self.replicas
            .get_mut(&shard)
            .expect("stepping down a hosted shard")
            .reset_for_recovery();
        self.request_catchup(shard, now, out);
    }

    /// Asks the shard's other host for a full log replay.
    fn request_catchup(&mut self, shard: u16, now: Time, out: &mut Out) {
        let hosts = self.map.hosts(shard);
        let peer = if hosts[0] == self.me() {
            hosts[1]
        } else {
            hosts[0]
        };
        // Keep any parked frames from a previous attempt: the serving
        // peer's committed prefix is immutable within an epoch, so they
        // stay valid for the next snapshot.
        self.catchup
            .entry(shard)
            .or_insert_with(|| CatchupState::fresh(now))
            .last_progress = now;
        self.catchup_requests += 1;
        self.send_svc(
            usize::from(peer),
            now,
            &SvcPayload::CatchupReq { shard },
            out,
        );
    }

    /// The rebuild reached the promised length: resume serving in the
    /// role the current epoch assigns.
    fn finish_catchup(&mut self, shard: u16) {
        self.catchup.remove(&shard);
        let me = self.me();
        let map = self.map;
        let r = self.replicas.get_mut(&shard).expect("hosted shard");
        r.role = if map.primary_at(shard, r.epoch) == me {
            Role::Primary
        } else {
            Role::Backup
        };
        let epoch = r.epoch;
        self.catchups_completed += 1;
        self.bump_routing(shard, epoch);
    }

    // ---------------------------------------------------------------
    // Message handlers
    // ---------------------------------------------------------------

    fn process_envelope(&mut self, out: &mut Out) {
        let env = self.port.pop_arrival();
        let now = env.at;
        self.last = self.last.max(now);
        if env.src != self.id
            && self
                .plan
                .should_fire(cluster_targets::BRIDGE_PARTITION, now)
        {
            self.partition_drops += 1;
            return;
        }
        let frame = env.payload.parse();
        let src = usize::from(frame.header.src);
        let payload = match frame.header.opcode {
            BridgeOpcode::SvcCtl => {
                // The control plane carries heartbeats only; they are
                // read in place.
                let hb = HeartbeatView::parse(frame.payload).expect("heartbeats survive transit");
                self.on_heartbeat(src, now, hb.epochs(), out);
                return;
            }
            BridgeOpcode::SvcClient | BridgeOpcode::SvcRep => {
                decode_svc(frame.payload).expect("service payloads survive transit")
            }
            other => unreachable!("non-service frame on the service fabric: {other:?}"),
        };
        match payload {
            SvcPayload::Heartbeat { seq: _, epochs } => self.on_heartbeat(src, now, epochs, out),
            SvcPayload::Request {
                client,
                req_id,
                op_seq,
                shard,
                epoch: _,
                stale_ok,
                op,
            } => self.on_request((src, client, req_id), now, op_seq, shard, stale_ok, op, out),
            SvcPayload::Response {
                client,
                req_id,
                shard,
                epoch,
                body,
            } => self.on_response(now, client, req_id, shard, epoch, body),
            SvcPayload::Replicate {
                shard,
                epoch,
                index,
                client,
                op_seq,
                op,
            } => self.on_replicate(src, now, shard, epoch, index, client, op_seq, op, out),
            SvcPayload::RepAck {
                shard,
                epoch,
                index,
            } => self.on_rep_ack(now, shard, epoch, index, out),
            SvcPayload::RepNack { shard, epoch } => self.on_rep_nack(now, shard, epoch, out),
            SvcPayload::CatchupReq { shard } => self.on_catchup_req(src, now, shard, out),
            SvcPayload::CatchupStart { shard, epoch, len } => {
                self.on_catchup_start(now, shard, epoch, len)
            }
        }
    }

    fn on_heartbeat(
        &mut self,
        src: usize,
        now: Time,
        epochs: impl IntoIterator<Item = (u16, u32)>,
        out: &mut Out,
    ) {
        self.last_heard[src] = now;
        for (shard, ep) in epochs {
            self.bump_routing(shard, ep);
            let stale_role = match self.replicas.get(&shard) {
                Some(r) if ep > r.epoch => Some(r.role),
                _ => None,
            };
            match stale_role {
                Some(Role::Recovering) => {
                    self.replicas.get_mut(&shard).expect("hosted shard").epoch = ep;
                }
                Some(Role::Primary | Role::Backup) => self.fence(shard, ep, now, out),
                None => {}
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_request(
        &mut self,
        to: ReplyTo,
        now: Time,
        op_seq: u32,
        shard: u16,
        stale_ok: bool,
        op: KvOp,
        out: &mut Out,
    ) {
        let Some(r) = self.replicas.get_mut(&shard) else {
            debug_assert!(false, "request for a shard this board does not host");
            return;
        };
        let (role, epoch) = (r.role, r.epoch);
        if role != Role::Recovering && stale_ok && matches!(op, KvOp::Get { .. }) {
            // The degraded path never logs, even at the primary, so its
            // answer is marked stale and audited out.
            let (result, done) = r.execute(now, &op);
            self.last = self.last.max(done);
            self.respond(to, done, shard, epoch, served(result, true), out);
            return;
        }
        let error = match role {
            Role::Recovering => Some(SvcError::Recovering),
            Role::Backup => {
                let primary = self.map.primary_at(shard, epoch);
                Some(SvcError::NotPrimary { epoch, primary })
            }
            Role::Primary if !self.quorum(now) => Some(SvcError::NoQuorum),
            Role::Primary => None,
        };
        if let Some(error) = error {
            self.respond(to, now, shard, epoch, rejected(error), out);
            return;
        }
        let client = to.1;
        if let Some((index, result)) = self.replicas[&shard].dedup_lookup(client, op_seq) {
            // A retry of an op already in the log: exactly-once.
            let pending = self.pend.get_mut(&shard).and_then(|m| m.get_mut(&index));
            if let Some(e) = pending {
                // Still uncommitted: answer when the commit lands.
                e.retries.push(to);
            } else {
                self.respond(to, now, shard, epoch, served(result, false), out);
            }
            return;
        }
        let (index, result, done) = self
            .replicas
            .get_mut(&shard)
            .expect("hosted shard")
            .apply_fresh(now, client, op_seq, op.clone());
        self.last = self.last.max(done);
        let backup = self.map.backup_at(shard, epoch);
        if self.suspected(backup, now) {
            // Backup is dead to us but quorum holds: commit solo;
            // the rejoining backup re-replicates via catch-up.
            self.solo_commits += 1;
            self.respond(to, done, shard, epoch, served(result, false), out);
            return;
        }
        let deadline = done + self.cfg.rep_timeout;
        self.pend.entry(shard).or_default().insert(
            index,
            Pend {
                responder: to,
                retries: Vec::new(),
                attempts: 1,
                deadline,
            },
        );
        self.rep_timers.insert((deadline, shard, index));
        self.send_svc(
            usize::from(backup),
            done,
            &SvcPayload::Replicate {
                shard,
                epoch,
                index,
                client,
                op_seq,
                op,
            },
            out,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn on_replicate(
        &mut self,
        src: usize,
        now: Time,
        shard: u16,
        epoch: u32,
        index: u32,
        client: u32,
        op_seq: u32,
        op: KvOp,
        out: &mut Out,
    ) {
        let Some(r) = self.replicas.get_mut(&shard) else {
            return;
        };
        if epoch < r.epoch {
            let my_epoch = r.epoch;
            self.send_svc(
                src,
                now,
                &SvcPayload::RepNack {
                    shard,
                    epoch: my_epoch,
                },
                out,
            );
            return;
        }
        if epoch > r.epoch {
            r.epoch = epoch;
        }
        match r.role {
            Role::Backup => {
                let acked = match r.apply_replicated(now, index, client, op_seq, op) {
                    Applied::Fresh(_, done) => {
                        self.last = self.last.max(done);
                        done
                    }
                    Applied::Duplicate => now,
                    Applied::Gap { have: _ } => {
                        // Deliveries were lost (partition) or reordered
                        // past the FIFO floor (delay fault): stop acking
                        // and rebuild the whole log.
                        r.reset_for_recovery();
                        self.request_catchup(shard, now, out);
                        return;
                    }
                };
                let ack = SvcPayload::RepAck {
                    shard,
                    epoch,
                    index,
                };
                self.send_svc(src, acked, &ack, out);
            }
            Role::Recovering => {
                // Catch-up replay (and live entries racing it) parks in
                // the reorder buffer and applies in index order; acks
                // resume once the promised length is reached and the
                // role is restored.
                let Some(st) = self.catchup.get_mut(&shard) else {
                    return;
                };
                st.buffer.insert(index, (epoch, client, op_seq, op));
                st.last_progress = now;
                self.drain_catchup(shard, now);
            }
            Role::Primary => {
                // Same-epoch replication to a primary cannot happen (the
                // epoch's primary is unique); ignore the stray frame.
            }
        }
    }

    fn on_rep_ack(&mut self, now: Time, shard: u16, epoch: u32, index: u32, out: &mut Out) {
        let Some(r) = self.replicas.get(&shard) else {
            return;
        };
        if r.role != Role::Primary || r.epoch != epoch {
            return;
        }
        self.commit_up_to(shard, index, now, false, out);
    }

    fn on_rep_nack(&mut self, now: Time, shard: u16, epoch: u32, out: &mut Out) {
        let Some(r) = self.replicas.get(&shard) else {
            return;
        };
        if r.role == Role::Primary && epoch > r.epoch {
            self.fence(shard, epoch, now, out);
        }
    }

    fn on_catchup_req(&mut self, src: usize, now: Time, shard: u16, out: &mut Out) {
        let Some(r) = self.replicas.get(&shard) else {
            return;
        };
        if r.role == Role::Recovering {
            // Nothing authoritative to serve; the requester re-asks.
            return;
        }
        let epoch = r.epoch;
        let entries: Vec<LogEntry> = r.log.clone();
        self.send_svc(
            src,
            now,
            &SvcPayload::CatchupStart {
                shard,
                epoch,
                len: entries.len() as u32,
            },
            out,
        );
        for (i, e) in entries.into_iter().enumerate() {
            self.send_svc(
                src,
                now,
                &SvcPayload::Replicate {
                    shard,
                    epoch,
                    index: i as u32,
                    client: e.client,
                    op_seq: e.op_seq,
                    op: e.op,
                },
                out,
            );
        }
    }

    fn on_catchup_start(&mut self, now: Time, shard: u16, epoch: u32, len: u32) {
        let Some(r) = self.replicas.get_mut(&shard) else {
            return;
        };
        if r.role != Role::Recovering {
            // A late duplicate snapshot for a shard already serving.
            return;
        }
        // Restart the rebuild: any partially applied older snapshot is
        // discarded, but parked frames from an older *epoch* only —
        // within an epoch the committed prefix is immutable.
        r.reset_for_recovery();
        r.epoch = r.epoch.max(epoch);
        let Some(st) = self.catchup.get_mut(&shard) else {
            return;
        };
        st.buffer.retain(|_, v| v.0 >= epoch);
        st.expect = Some(len);
        st.last_progress = now;
        if len == 0 {
            self.finish_catchup(shard);
        } else {
            self.drain_catchup(shard, now);
        }
    }

    /// Applies parked replication frames in index order; completes the
    /// catch-up once the promised length is reached.
    fn drain_catchup(&mut self, shard: u16, now: Time) {
        loop {
            let expect = match self.catchup.get(&shard).and_then(|st| st.expect) {
                Some(e) => e,
                None => return,
            };
            let next = self.replicas[&shard].log.len() as u32;
            if next >= expect {
                self.finish_catchup(shard);
                return;
            }
            let entry = self
                .catchup
                .get_mut(&shard)
                .and_then(|st| st.buffer.remove(&next));
            let Some((e, client, op_seq, op)) = entry else {
                return;
            };
            let r = self.replicas.get_mut(&shard).expect("hosted shard");
            if e < r.epoch {
                // A straggler from a fenced-off attempt.
                continue;
            }
            if let Applied::Fresh(_, done) = r.apply_replicated(now, next, client, op_seq, op) {
                self.last = self.last.max(done);
            }
            if let Some(st) = self.catchup.get_mut(&shard) {
                st.last_progress = now;
            }
        }
    }

    /// Commits every pending entry of `shard` up to `index`: removes
    /// the timers and answers every attached responder.
    fn commit_up_to(&mut self, shard: u16, index: u32, now: Time, solo: bool, out: &mut Out) {
        while let Some((i, e)) = self
            .pend
            .get_mut(&shard)
            .and_then(|m| m.first_entry())
            .filter(|first| *first.key() <= index)
            .map(|first| first.remove_entry())
        {
            self.rep_timers.remove(&(e.deadline, shard, i));
            if solo {
                self.solo_commits += 1;
            }
            let (epoch, result) = {
                let r = &self.replicas[&shard];
                (r.epoch, r.log[i as usize].result.clone())
            };
            for to in e.responders() {
                self.respond(to, now, shard, epoch, served(result.clone(), false), out);
            }
        }
    }

    // ---------------------------------------------------------------
    // Client handlers
    // ---------------------------------------------------------------

    fn client_uid(&self, idx: usize) -> u32 {
        self.id as u32 * u32::from(self.cfg.clients_per_board) + idx as u32
    }

    fn on_response(
        &mut self,
        now: Time,
        client: u32,
        req_id: u32,
        shard: u16,
        epoch: u32,
        body: Body,
    ) {
        self.bump_routing(shard, epoch);
        let base = self.id as u32 * u32::from(self.cfg.clients_per_board);
        let idx = (client - base) as usize;
        let matches_pending = self.clients[idx]
            .state
            .pending
            .as_ref()
            .is_some_and(|p| p.req_id == req_id);
        if !matches_pending {
            // A straggler from a superseded attempt; the live attempt's
            // own timeout or response decides the op.
            return;
        }
        match body {
            Ok(ok) => {
                let (class, issued) = {
                    let p = self.clients[idx].state.pending.as_ref().expect("matched");
                    (p.op.class(), p.issued)
                };
                let effective = !matches!(ok.result, KvResult::StoreErr(_));
                self.slo.record_op(class, issued, now, true, ok.stale);
                self.clients[idx].state.complete_ok(ok.stale, effective);
                self.arm_next_op(idx, now);
            }
            Err(RespErr { error }) => {
                if let SvcError::NotPrimary { epoch: e, .. } = error {
                    self.bump_routing(shard, e);
                }
                self.client_rejections += 1;
                self.attempt_failed(idx, now);
            }
        }
    }

    /// Shared rejection/timeout path: retry with backoff, degrade, or
    /// fail with a typed error — always bounded. Retries never send
    /// here; the re-armed wake transmits after its backoff.
    fn attempt_failed(&mut self, idx: usize, now: Time) {
        match self.clients[idx].state.on_attempt_failed() {
            RetryDecision::Retry { backoff, stale } => {
                self.clients[idx].wake = Some((now + backoff, ClientWake::Rearm { stale }));
            }
            RetryDecision::Fail(_err) => {
                let (class, issued) = {
                    let p = self.clients[idx].state.pending.as_ref().expect("pending");
                    (p.op.class(), p.issued)
                };
                self.slo.record_op(class, issued, now, false, false);
                self.clients[idx].state.complete_failed();
                self.arm_next_op(idx, now);
            }
        }
    }

    fn arm_next_op(&mut self, idx: usize, now: Time) {
        let c = &mut self.clients[idx];
        c.wake = if c.state.done() {
            None
        } else {
            Some((now + self.cfg.client.think, ClientWake::Issue))
        };
    }

    fn process_client_wake(&mut self, idx: usize, out: &mut Out) {
        let (now, wake) = self.clients[idx].wake.take().expect("armed wake");
        self.last = self.last.max(now);
        match wake {
            ClientWake::Issue => {
                let map = self.map;
                if let Some(p) = self.clients[idx].state.start_op(&map, now) {
                    self.send_request(idx, &p, now, out);
                } else {
                    debug_assert!(self.clients[idx].state.done());
                }
            }
            ClientWake::Rearm { stale } => {
                self.slo.retries += 1;
                let p = self.clients[idx].state.rearm(stale);
                self.send_request(idx, &p, now, out);
            }
            ClientWake::Timeout { req_id } => {
                let live = self.clients[idx]
                    .state
                    .pending
                    .as_ref()
                    .is_some_and(|p| p.req_id == req_id);
                if !live {
                    return;
                }
                self.slo.timeouts += 1;
                self.attempt_failed(idx, now);
            }
        }
    }

    /// Routes an attempt: first to the best-known primary, alternating
    /// between the shard's two hosts on subsequent attempts.
    fn send_request(&mut self, idx: usize, p: &enzian_apps::PendingReq, now: Time, out: &mut Out) {
        let hosts = self.map.hosts(p.shard);
        let routing = self.routing_epoch[usize::from(p.shard)];
        let pick = ((routing as usize % 2) + (p.attempts as usize - 1)) % 2;
        let target = usize::from(hosts[pick]);
        let uid = self.client_uid(idx);
        self.send_svc(
            target,
            now,
            &SvcPayload::Request {
                client: uid,
                req_id: p.req_id,
                op_seq: p.op_seq,
                shard: p.shard,
                epoch: routing,
                stale_ok: p.stale_phase,
                op: p.op.clone(),
            },
            out,
        );
        self.clients[idx].wake = Some((
            now + self.cfg.client.timeout,
            ClientWake::Timeout { req_id: p.req_id },
        ));
    }

    // ---------------------------------------------------------------
    // Heartbeat tick + replication timers
    // ---------------------------------------------------------------

    fn process_hb_tick(&mut self, now: Time, out: &mut Out) {
        self.last = self.last.max(now);
        let next = now + self.cfg.hb_interval;
        self.next_hb = (next < self.cfg.horizon).then_some(next);
        if self.down {
            // The tick keeps running as the crash window's opportunity
            // clock; the board itself does nothing while down.
            return;
        }
        for i in 0..self.hosted.len() {
            let shard = self.hosted[i];
            let (role, epoch) = {
                let r = &self.replicas[&shard];
                (r.role, r.epoch)
            };
            match role {
                Role::Backup => {
                    let primary = self.map.primary_at(shard, epoch);
                    if self.suspected(primary, now) && self.quorum(now) {
                        let gap = now.saturating_since(self.last_heard[usize::from(primary)]);
                        let r = self.replicas.get_mut(&shard).expect("hosted shard");
                        r.epoch += 1;
                        r.role = Role::Primary;
                        let e = r.epoch;
                        debug_assert_eq!(self.map.primary_at(shard, e), self.me());
                        self.failovers += 1;
                        self.slo.record_failover(gap);
                        self.bump_routing(shard, e);
                    }
                }
                Role::Recovering => {
                    let stalled = match self.catchup.get(&shard) {
                        None => true,
                        Some(st) => {
                            now.saturating_since(st.last_progress) > self.cfg.hb_interval * 3
                        }
                    };
                    if stalled {
                        self.request_catchup(shard, now, out);
                    }
                }
                Role::Primary => {}
            }
        }
        // One payload per tick; only the bridge header and its CRC
        // differ per destination.
        let mut hb = std::mem::take(&mut self.hb_payload);
        hb.clear();
        let epochs = self.replicas.iter().map(|(&s, r)| (s, r.epoch));
        encode_heartbeat_into(self.hb_seq, epochs, &mut hb);
        self.hb_seq += 1;
        for dst in 0..self.n {
            if dst == self.id {
                continue;
            }
            self.heartbeats_sent += 1;
            self.send_frame(dst, now, BridgeOpcode::SvcCtl, out, |p| {
                p.extend_from_slice(&hb)
            });
        }
        self.hb_payload = hb;
    }

    fn process_rep_timer(&mut self, now: Time, shard: u16, index: u32, out: &mut Out) {
        self.last = self.last.max(now);
        let removed = self.rep_timers.remove(&(now, shard, index));
        debug_assert!(removed, "timer popped but not armed");
        let attempts = match self.pend.get(&shard).and_then(|m| m.get(&index)) {
            Some(e) => e.attempts,
            None => return,
        };
        let (role, epoch) = {
            let r = &self.replicas[&shard];
            (r.role, r.epoch)
        };
        if role != Role::Primary {
            return;
        }
        let backup = self.map.backup_at(shard, epoch);
        if attempts >= self.cfg.rep_retry_budget || self.suspected(backup, now) {
            if self.quorum(now) {
                // The backup is gone (or unreachable long enough to be
                // suspected): decide alone, under quorum.
                self.commit_up_to(shard, index, now, true, out);
            } else {
                self.step_down(shard, now, out);
            }
            return;
        }
        let (client, op_seq, op) = {
            let e = &self.replicas[&shard].log[index as usize];
            (e.client, e.op_seq, e.op.clone())
        };
        let deadline = now + self.cfg.rep_timeout;
        let e = self
            .pend
            .get_mut(&shard)
            .and_then(|m| m.get_mut(&index))
            .expect("checked above");
        e.attempts += 1;
        e.deadline = deadline;
        self.rep_timers.insert((deadline, shard, index));
        self.send_svc(
            usize::from(backup),
            now,
            &SvcPayload::Replicate {
                shard,
                epoch,
                index,
                client,
                op_seq,
                op,
            },
            out,
        );
    }

    // ---------------------------------------------------------------
    // Dispatch
    // ---------------------------------------------------------------

    /// Runs the work item `key` names.
    fn dispatch(&mut self, key: WorkKey, out: &mut Out) {
        let was_down = self.down;
        if self.fault_tick(key.0, out) {
            if !was_down {
                // Crash edge: the key's work (wake / timer) was just
                // wiped; surviving slots re-pop on the next turn.
                return;
            }
            // Down: deliveries are dropped; the heartbeat slot keeps
            // ticking as the rejoin opportunity clock.
            match key.1 {
                0 => {
                    self.port.pop_arrival();
                }
                2 => {
                    let next = key.0 + self.cfg.hb_interval;
                    self.next_hb = (next < self.cfg.horizon).then_some(next);
                }
                _ => unreachable!("timers are cleared while a board is down"),
            }
            return;
        }
        match key.1 {
            0 => self.process_envelope(out),
            1 => self.process_client_wake(key.2 as usize, out),
            2 => self.process_hb_tick(key.0, out),
            3 => self.process_rep_timer(key.0, key.2 as u16, key.3 as u32, out),
            _ => unreachable!("unknown work class"),
        }
    }
}

impl FabricBoard for ServiceBoard {
    fn fabric_end(&self) -> (FlowStats, Time) {
        (self.port.audit(), self.last)
    }

    fn digest_into(&self, d: &mut Fnv) {
        for r in self.replicas.values() {
            r.digest_into(&mut |v| d.u64(v));
        }
        for c in &self.clients {
            d.u64(u64::from(c.state.uid));
            d.u64(c.state.remaining);
            for (key, st) in &c.state.acked {
                d.u64(*key);
                match st {
                    None => d.u64(1),
                    Some(None) => d.u64(2),
                    Some(Some(v)) => {
                        d.u64(3);
                        d.bytes(v);
                    }
                }
            }
        }
        self.port.digest_into(d);
        d.u64(self.last.as_ps());
        d.u64(self.crashes);
        d.u64(self.rejoins);
        d.u64(self.crashed_ops);
        d.u64(self.failovers);
        d.u64(self.solo_commits);
        d.u64(self.fenced);
        d.u64(self.step_downs);
        d.u64(self.partition_drops);
        d.u64(self.delays_injected);
    }
}

/// Work keys `(time, class, a, b)`: class 0 an inbox delivery
/// `(src, seq)`, 1 a client wake `(client, 0)`, 2 the heartbeat tick,
/// and 3 a replication timer `(shard, index)`.
impl KeyedShard for ServiceBoard {
    type Msg = FabricFrame<SVC_FRAME_CAPACITY>;

    fn next_key(&self) -> Option<WorkKey> {
        let mut best = self.port.next_key();
        let mut consider = |k: WorkKey| {
            if best.is_none_or(|b| k < b) {
                best = Some(k);
            }
        };
        for (i, c) in self.clients.iter().enumerate() {
            if let Some((t, _)) = &c.wake {
                consider((*t, 1, i as u64, 0));
            }
        }
        if let Some(t) = self.next_hb {
            consider((t, 2, 0, 0));
        }
        if let Some(&(t, shard, index)) = self.rep_timers.iter().next() {
            consider((t, 3, u64::from(shard), u64::from(index)));
        }
        best
    }

    fn process_next(&mut self, key: WorkKey, out: &mut Out) {
        self.port.advance_to(key.0);
        self.dispatch(key, out);
    }

    fn push_arrival(&mut self, env: Envelope<FabricFrame<SVC_FRAME_CAPACITY>>) {
        self.port.push_arrival(env);
    }

    fn idle(&self) -> bool {
        self.port.inbox_is_empty()
            && self.next_hb.is_none()
            && self.rep_timers.is_empty()
            && self.clients.iter().all(|c| c.wake.is_none())
    }
}

// -------------------------------------------------------------------
// Run drivers + report
// -------------------------------------------------------------------

fn make_boards(cfg: &ServiceConfig) -> Vec<ServiceBoard> {
    cfg.validate();
    let n = usize::from(cfg.boards);
    let map = ShardMap::new(cfg.shards, cfg.boards);
    let link = EthLinkConfig::hundred_gig();
    (0..n)
        .map(|id| {
            let replicas: BTreeMap<u16, Replica> = map
                .shards_of(id as u8)
                .into_iter()
                .map(|s| {
                    let role = if map.primary_at(s, 0) == id as u8 {
                        Role::Primary
                    } else {
                        Role::Backup
                    };
                    (s, Replica::new(s, role, cfg.store))
                })
                .collect();
            let clients: Vec<LocalClient> = (0..usize::from(cfg.clients_per_board))
                .map(|i| {
                    let uid = id as u32 * u32::from(cfg.clients_per_board) + i as u32;
                    LocalClient {
                        state: ClientState::new(uid, cfg.seed, cfg.client),
                        wake: Some((
                            Time::ZERO
                                + cfg.client.think * (i as u64 + 1)
                                + Duration::from_ns(50) * u64::from(uid),
                            ClientWake::Issue,
                        )),
                    }
                })
                .collect();
            ServiceBoard {
                id,
                n,
                cfg: *cfg,
                map,
                hosted: replicas.keys().copied().collect(),
                replicas,
                pend: BTreeMap::new(),
                rep_timers: BTreeSet::new(),
                catchup: BTreeMap::new(),
                clients,
                routing_epoch: vec![0; usize::from(cfg.shards)],
                last_heard: vec![Time::ZERO; n],
                next_hb: Some(Time::ZERO + Duration::from_ns(200) * (id as u64 + 1)),
                hb_seq: 0,
                plan: cfg.scenario.plan_for(cfg.seed, id as u8),
                down: false,
                down_since: Time::ZERO,
                port: FabricPort::new(id, n, &link),
                hb_payload: Vec::new(),
                send_floor: vec![Time::ZERO; n],
                slo: SloRecorder::new(cfg.scenario.fault_window()),
                last: Time::ZERO,
                crashes: 0,
                rejoins: 0,
                crashed_ops: 0,
                failovers: 0,
                solo_commits: 0,
                fenced: 0,
                step_downs: 0,
                catchup_requests: 0,
                catchups_completed: 0,
                partition_drops: 0,
                delays_injected: 0,
                heartbeats_sent: 0,
                client_rejections: 0,
                local_msgs: 0,
            }
        })
        .collect()
}

/// What one service run did — a pure function of the [`ServiceConfig`],
/// never of the thread count (except the epoch counts; see
/// [`RunReport`]). Its `fabric` totals count service frames and their
/// encoded bytes.
pub type ServiceRunReport = RunReport<ServiceStats>;

/// The replicated service's own totals in a [`ServiceRunReport`], with
/// the committed logs and acknowledgements its audits replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Shards served.
    pub shards: u16,
    /// Clients simulated.
    pub clients: u32,
    /// Client operations the run must account for.
    pub total_client_ops: u64,
    /// Operations acknowledged with a result (stale serves included).
    pub ok_ops: u64,
    /// Operations that ended in a terminal typed error.
    pub failed_ops: u64,
    /// Operations voided by their own board crashing mid-flight.
    pub crashed_ops: u64,
    /// GETs served from possibly-stale state.
    pub stale_served: u64,
    /// Attempt timeouts fired.
    pub timeouts: u64,
    /// Retransmitted attempts.
    pub retries: u64,
    /// Backup promotions (epoch bumps).
    pub failovers: u64,
    /// Entries a primary committed without its backup's ack.
    pub solo_commits: u64,
    /// Serving replicas fenced by a higher epoch.
    pub fenced: u64,
    /// Primaries that stepped down after losing quorum.
    pub step_downs: u64,
    /// Catch-up requests sent.
    pub catchup_requests: u64,
    /// Catch-ups completed (replica resumed serving).
    pub catchups_completed: u64,
    /// Board crash faults injected.
    pub crashes: u64,
    /// Board rejoins completed.
    pub rejoins: u64,
    /// Frames dropped by partitions (send and receive side).
    pub partition_drops: u64,
    /// Frames delivered late by delay faults.
    pub delays_injected: u64,
    /// Heartbeat frames sent.
    pub heartbeats_sent: u64,
    /// Server-side rejections clients observed (fencing hints included).
    pub client_rejections: u64,
    /// Same-board service messages (loopback, never on the fabric).
    pub local_msgs: u64,
    /// Committed log entries across the authoritative shard logs.
    pub committed_entries: u64,
    /// Availability for ops issued inside the fault window.
    pub availability_in_window: f64,
    /// Availability for ops issued outside the fault window.
    pub availability_out_window: f64,
    /// Service frames, loopback ones included, too long for the 88-byte
    /// inline envelope buffer and held on the heap instead. Not exported
    /// to metrics.
    pub spilled_frames: u64,
    /// Merged SLO telemetry across all boards.
    pub slo: SloRecorder,
    /// Final (highest) epoch per shard.
    pub shard_epochs: Vec<u32>,
    /// The authoritative committed log per shard (highest epoch wins;
    /// ties prefer the primary, then the lower board).
    pub shard_logs: Vec<Vec<LogEntry>>,
    /// Every client's `(uid, acked-mutations map)` for the audit.
    pub acked: Vec<(u32, BTreeMap<u64, AckState>)>,
}

impl ServiceStats {
    /// Replays every shard's authoritative committed log against a
    /// fresh sequential store and demands identical results — the
    /// linearizability check over everything the service acknowledged.
    ///
    /// # Errors
    ///
    /// Returns the first diverging shard/entry.
    pub fn verify_linearizable(&self, store: KvStoreConfig) -> Result<(), String> {
        for (shard, log) in self.shard_logs.iter().enumerate() {
            verify_log(log, store).map_err(|e| format!("shard {shard}: {e}"))?;
        }
        Ok(())
    }

    /// Checks that no acknowledged write was lost: replays the
    /// authoritative logs into a final key→value map and demands every
    /// client's last *determinate* acknowledged mutation is honoured.
    /// Keys whose last mutation had an indeterminate outcome (terminal
    /// error or client crash) are excluded — those were never
    /// acknowledged.
    ///
    /// # Errors
    ///
    /// Returns the first lost acknowledged write.
    pub fn audit_zero_lost_acks(&self) -> Result<(), String> {
        let mut state: BTreeMap<u64, Option<Vec<u8>>> = BTreeMap::new();
        for log in &self.shard_logs {
            for e in log {
                match (&e.op, &e.result) {
                    (KvOp::Put { key, value }, KvResult::PutOk) => {
                        state.insert(*key, Some(value.clone()));
                    }
                    (KvOp::Delete { key }, KvResult::Deleted(_)) => {
                        state.insert(*key, None);
                    }
                    _ => {}
                }
            }
        }
        for (uid, acked) in &self.acked {
            for (key, st) in acked {
                let Some(expect) = st else { continue };
                let got = state.get(key).cloned().unwrap_or(None);
                if got != *expect {
                    return Err(format!(
                        "client {uid} key {key:#x}: acknowledged {} but the logs \
                         replay to {}",
                        describe(expect),
                        describe(&got),
                    ));
                }
            }
        }
        Ok(())
    }
}

impl ServiceRunReport {
    /// Publishes the report under `prefix.*`. Every exported value is
    /// deterministic across thread counts, so two exports of same-seed
    /// runs are byte-identical.
    pub fn export_metrics(&self, prefix: &str, reg: &mut MetricsRegistry) {
        let c = |reg: &mut MetricsRegistry, k: &str, v: u64| {
            reg.counter_set(&format!("{prefix}.{k}"), v);
        };
        c(reg, "boards", self.boards as u64);
        c(reg, "shards", u64::from(self.shards));
        c(reg, "clients", u64::from(self.clients));
        c(reg, "total_client_ops", self.total_client_ops);
        c(reg, "ok_ops", self.ok_ops);
        c(reg, "failed_ops", self.failed_ops);
        c(reg, "crashed_ops", self.crashed_ops);
        c(reg, "failovers", self.failovers);
        c(reg, "solo_commits", self.solo_commits);
        c(reg, "fenced", self.fenced);
        c(reg, "step_downs", self.step_downs);
        c(reg, "catchup_requests", self.catchup_requests);
        c(reg, "catchups_completed", self.catchups_completed);
        c(reg, "crashes", self.crashes);
        c(reg, "rejoins", self.rejoins);
        c(reg, "partition_drops", self.partition_drops);
        c(reg, "delays_injected", self.delays_injected);
        c(reg, "heartbeats_sent", self.heartbeats_sent);
        c(reg, "client_rejections", self.client_rejections);
        c(reg, "local_msgs", self.local_msgs);
        c(reg, "committed_entries", self.committed_entries);
        c(reg, "svc_frames", self.fabric.frames);
        c(reg, "wire_bytes", self.fabric.wire_bytes);
        c(reg, "sim_end_ps", self.sim_end.as_ps());
        c(reg, "epochs", self.epochs);
        c(reg, "epochs_skipped", self.epochs_skipped);
        c(reg, "messages", self.messages);
        c(reg, "digest", self.digest);
        enzian_sim::Instrumented::export_metrics(&self.slo, &format!("{prefix}.slo"), reg);
    }
}

fn describe(v: &Option<Vec<u8>>) -> String {
    match v {
        None => "deleted/absent".to_string(),
        Some(v) => format!("{} bytes", v.len()),
    }
}

fn finish_run(cfg: &ServiceConfig, boards: Vec<ServiceBoard>) -> ServiceStats {
    // Authoritative log per shard: the replica with the highest epoch;
    // ties prefer the primary role, then the lower board id.
    let mut best = vec![None; usize::from(cfg.shards)];
    for b in &boards {
        for (&shard, r) in &b.replicas {
            let role_rank = match r.role {
                Role::Primary => 0u8,
                Role::Backup => 1,
                Role::Recovering => 2,
            };
            let cand = (r.epoch, Reverse(role_rank), Reverse(b.id));
            let slot = &mut best[usize::from(shard)];
            if slot.is_none_or(|s| cand > s) {
                *slot = Some(cand);
            }
        }
    }
    let mut slo = SloRecorder::new(cfg.scenario.fault_window());
    for b in &boards {
        for c in &b.clients {
            assert!(
                c.state.done(),
                "client {} retired with work outstanding",
                c.state.uid
            );
        }
        slo.merge(&b.slo);
    }
    let sum = |f: fn(&ServiceBoard) -> u64| boards.iter().map(f).sum();
    let mut stats = ServiceStats {
        shards: cfg.shards,
        clients: u32::from(cfg.boards) * u32::from(cfg.clients_per_board),
        total_client_ops: cfg.total_client_ops(),
        ok_ops: slo.ok_in_window + slo.ok_out_window,
        failed_ops: slo.failures,
        crashed_ops: sum(|b| b.crashed_ops),
        stale_served: slo.stale_served,
        timeouts: slo.timeouts,
        retries: slo.retries,
        failovers: sum(|b| b.failovers),
        solo_commits: sum(|b| b.solo_commits),
        fenced: sum(|b| b.fenced),
        step_downs: sum(|b| b.step_downs),
        catchup_requests: sum(|b| b.catchup_requests),
        catchups_completed: sum(|b| b.catchups_completed),
        crashes: sum(|b| b.crashes),
        rejoins: sum(|b| b.rejoins),
        partition_drops: sum(|b| b.partition_drops),
        delays_injected: sum(|b| b.delays_injected),
        heartbeats_sent: sum(|b| b.heartbeats_sent),
        client_rejections: sum(|b| b.client_rejections),
        local_msgs: sum(|b| b.local_msgs),
        committed_entries: 0,
        availability_in_window: slo.availability_in_window(),
        availability_out_window: slo.availability_out_window(),
        spilled_frames: sum(|b| b.port.spilled()),
        slo,
        shard_epochs: vec![0; usize::from(cfg.shards)],
        shard_logs: vec![Vec::new(); usize::from(cfg.shards)],
        acked: Vec::new(),
    };
    for b in boards {
        for (shard, r) in b.replicas {
            let s = usize::from(shard);
            stats.shard_epochs[s] = stats.shard_epochs[s].max(r.epoch);
            if let Some((_, _, Reverse(id))) = best[s] {
                if id == b.id {
                    stats.shard_logs[s] = r.log;
                }
            }
        }
        for c in b.clients {
            stats.acked.push((c.state.uid, c.state.acked));
        }
    }
    stats.acked.sort_by_key(|(uid, _)| *uid);
    stats.committed_entries = stats.shard_logs.iter().map(|l| l.len() as u64).sum();
    assert_eq!(
        stats.slo.completed() + stats.crashed_ops,
        stats.total_client_ops,
        "client operations went missing"
    );
    stats
}

impl ServiceConfig {
    /// Runs the service on the conservative-parallel engine with
    /// `threads` workers.
    pub fn run_parallel(&self, threads: usize) -> ServiceRunReport {
        self.run(Engine::Conservative(threads))
    }

    /// Runs the service on the sequential reference driver. Exists to
    /// validate the parallel engine:
    /// [`RunReport::assert_matches`] against any
    /// [`ServiceConfig::run_parallel`] report must hold.
    pub fn run_reference(&self) -> ServiceRunReport {
        self.run(Engine::Sequential)
    }

    /// Runs the service on `engine`.
    pub fn run(&self, engine: Engine) -> ServiceRunReport {
        harness::run(make_boards(self), self.lookahead(), engine, |boards| {
            finish_run(self, boards)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_completes_clean() {
        let cfg = ServiceConfig::small();
        let r = cfg.run_reference();
        assert_eq!(r.total_client_ops, 4 * 2 * 24);
        assert_eq!(r.ok_ops, r.total_client_ops);
        assert_eq!(r.failed_ops, 0);
        assert_eq!(r.crashed_ops, 0);
        assert_eq!(r.stale_served, 0);
        assert_eq!(r.failovers, 0);
        assert_eq!(r.crashes, 0);
        assert_eq!(r.availability_in_window, 1.0);
        assert_eq!(r.availability_out_window, 1.0);
        assert!(r.shard_epochs.iter().all(|&e| e == 0));
        assert!(r.committed_entries > 0);
        r.verify_linearizable(cfg.store).expect("linearizable");
        r.audit_zero_lost_acks().expect("no lost acks");
    }

    #[test]
    fn parallel_matches_reference_across_threads() {
        let cfg = ServiceConfig::small().with_scenario(FaultScenario::CrashOneBoard);
        harness::check_engines(&[1, 2, 4], |e| cfg.run(e));
    }

    #[test]
    fn crash_one_board_fails_over_and_loses_nothing() {
        let cfg = ServiceConfig::small().with_scenario(FaultScenario::CrashOneBoard);
        let r = cfg.run_reference();
        assert_eq!(r.crashes, 1);
        assert_eq!(r.rejoins, 1);
        assert!(
            r.failovers >= 1,
            "the crashed board's shards must fail over"
        );
        assert!(r.slo.failover.count() > 0, "failover latency recorded");
        assert!(
            r.catchups_completed >= 1,
            "the rejoined board re-replicates"
        );
        assert!(
            r.availability_out_window >= 0.99,
            "out-of-window availability {} below SLO",
            r.availability_out_window
        );
        assert_eq!(
            r.ok_ops + r.failed_ops + r.crashed_ops,
            r.total_client_ops,
            "every op ends in a result, a typed error, or a crash void"
        );
        r.verify_linearizable(cfg.store).expect("linearizable");
        r.audit_zero_lost_acks()
            .expect("no acknowledged write lost");
    }

    #[test]
    fn partition_heal_fences_the_stale_primary() {
        let cfg = ServiceConfig::small().with_scenario(FaultScenario::PartitionHeal);
        let r = cfg.run_reference();
        assert!(r.partition_drops > 0, "the partition must drop frames");
        assert!(r.failovers >= 1, "isolated primaries must be failed over");
        assert!(
            r.fenced + r.step_downs >= 1,
            "the stale primary must be fenced or step down"
        );
        r.verify_linearizable(cfg.store).expect("linearizable");
        r.audit_zero_lost_acks()
            .expect("no acknowledged write lost");
    }

    #[test]
    fn rolling_crashes_run_identically_per_seed() {
        let cfg = ServiceConfig::small().with_scenario(FaultScenario::RollingCrashes);
        let a = cfg.run_reference();
        let b = cfg.run_reference();
        assert_eq!(a, b, "same-seed runs must be identical");
        assert_eq!(a.crashes, 3);
        assert_eq!(a.rejoins, 3);
        a.verify_linearizable(cfg.store).expect("linearizable");
        a.audit_zero_lost_acks()
            .expect("no acknowledged write lost");
        // A different seed takes a different path but stays safe.
        let c = cfg.with_seed(0x0D15_EA5E).run_reference();
        c.verify_linearizable(cfg.store).expect("linearizable");
        c.audit_zero_lost_acks()
            .expect("no acknowledged write lost");
    }

    #[test]
    fn oversized_heartbeats_spill_to_the_heap() {
        // Four boards and 24 shards: every board hosts 12, so its
        // heartbeat frame is 103 bytes, past the inline capacity.
        let mut cfg = ServiceConfig::small();
        cfg.shards = 24;
        let hb_frame = BRIDGE_HEADER as usize + 7 + 12 * 6;
        assert_eq!(hb_frame, 103);
        assert!(hb_frame > SVC_FRAME_CAPACITY);
        let r = harness::check_engines(&[2], |e| cfg.run(e));
        // Every heartbeat spills, and no other frame does.
        assert!(r.heartbeats_sent > 0);
        assert_eq!(r.spilled_frames, r.heartbeats_sent);
        assert_eq!(r.ok_ops, r.total_client_ops);
        r.verify_linearizable(cfg.store).expect("linearizable");
        r.audit_zero_lost_acks()
            .expect("no acknowledged write lost");
    }

    #[test]
    fn scenario_labels_and_windows_are_stable() {
        let labels: Vec<&str> = FaultScenario::all().iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            [
                "none",
                "crash_one_board",
                "rolling_crashes",
                "partition_heal"
            ]
        );
        assert!(FaultScenario::Baseline.fault_window().is_none());
        for s in FaultScenario::all().into_iter().skip(1) {
            let (from, until) = s.fault_window().expect("faulty scenarios have windows");
            assert!(from < until);
        }
    }

    #[test]
    #[should_panic(expected = "solo-commit safety")]
    fn validate_rejects_unsafe_replication_budget() {
        let mut cfg = ServiceConfig::small();
        cfg.rep_timeout = Duration::from_us(5);
        cfg.rep_retry_budget = 2;
        cfg.validate();
    }
}
