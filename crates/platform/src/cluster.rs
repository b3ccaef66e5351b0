//! Multi-board Enzian clusters with a coherence bridge (§6).
//!
//! *"One reason that Enzian has such large network bandwidth (480 Gb/s)
//! is to enable, e.g., many boards to be connected together into a
//! single, large multiprocessor (with or without cache coherence)"* and
//! *"on Enzian [remote memory is accessible] by extending the cache
//! coherency protocol via a 'bridge' implemented on the FPGA."*
//!
//! [`EnzianCluster`] connects N boards through their FPGA-side 100 Gb/s
//! links. A *global* physical address space is striped across boards;
//! each board's FPGA runs a bridge that forwards line requests for
//! remote-board addresses over the fabric to the owning board, where
//! they are served through that board's own coherent ECI system. Remote
//! lines are not cached by the bridge (the safe baseline the paper's
//! follow-on work starts from), so there is no cross-board coherence
//! state to maintain — every access observes the owner's current value.

use std::collections::BTreeMap;

use enzian_eci::bridge::{write_bridge, BridgeFrame, BridgeHeader, BridgeOpcode};
use enzian_eci::link::fault_targets;
use enzian_eci::system::TXN_STALL_TARGET;
use enzian_eci::{EciSystem, EciSystemConfig};
use enzian_mem::Addr;
use enzian_net::eth::{EthLink, EthLinkConfig, FRAME_OVERHEAD_BYTES};
use enzian_sim::channel::Transfer;
use enzian_sim::par::{Engine, Envelope, KeyedShard, WorkKey};
use enzian_sim::{
    Channel, ChannelConfig, Duration, FaultPlan, FaultSpec, Fnv, MetricsRegistry, SimRng,
    SortedStreams, Time,
};

use crate::harness::{self, FabricBoard, RunReport};

/// Identifies a board in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BoardId(pub u8);

/// A cluster of Enzian boards behind a full-mesh of 100G links.
pub struct EnzianCluster {
    boards: Vec<EciSystem>,
    /// links[i][j] for i < j: the full-duplex link between boards i, j.
    links: Vec<Vec<Option<EthLink>>>,
    /// Bytes of CPU-homed memory each board contributes to the global
    /// space.
    slice_bytes: u64,
    /// Bridge processing per forwarded request (FPGA pipeline).
    bridge_latency: Duration,
    /// Per-board system configuration (shards are rebuilt from it).
    board_config: EciSystemConfig,
    /// Fabric link parameters, shared by the mesh and the shard engine.
    link_config: EthLinkConfig,
    remote_reads: u64,
    remote_writes: u64,
}

impl std::fmt::Debug for EnzianCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnzianCluster")
            .field("boards", &self.boards.len())
            .field("slice_bytes", &self.slice_bytes)
            .finish()
    }
}

/// Header bytes of a bridge message on the fabric: the framed codec's
/// 20-byte header plus its CRC-32 trailer.
pub use enzian_eci::bridge::BRIDGE_OVERHEAD_BYTES as BRIDGE_HEADER;

/// Bytes of the longest cluster frame, a bridge header around one
/// 128-byte line: every cluster frame travels inline.
const LINE_FRAME_BYTES: usize = BRIDGE_HEADER as usize + 128;

impl EnzianCluster {
    /// Builds an `n`-board cluster, each contributing `slice_bytes` of
    /// CPU memory to the global space (board `i` owns global addresses
    /// `[i * slice, (i+1) * slice)`).
    ///
    /// # Panics
    ///
    /// Panics for fewer than 2 boards or a slice exceeding a board's
    /// CPU memory.
    pub fn new(n: usize, slice_bytes: u64) -> Self {
        Self::with_board_config(n, slice_bytes, EciSystemConfig::enzian())
    }

    /// [`EnzianCluster::new`] with an explicit per-board configuration
    /// (e.g. [`EciSystemConfig::with_capture_trace`] for runs whose
    /// traces feed the determinism battery's digests).
    ///
    /// # Panics
    ///
    /// Panics for fewer than 2 boards or a slice exceeding a board's
    /// CPU memory.
    pub fn with_board_config(n: usize, slice_bytes: u64, cfg: EciSystemConfig) -> Self {
        assert!(n >= 2, "a cluster needs at least two boards");
        assert!(
            slice_bytes <= cfg.map.cpu_bytes(),
            "slice exceeds a board's CPU memory"
        );
        let link_config = EthLinkConfig::hundred_gig();
        let boards = (0..n).map(|_| EciSystem::new(cfg)).collect();
        let mut links = Vec::with_capacity(n);
        for i in 0..n {
            let mut row = Vec::with_capacity(n);
            for j in 0..n {
                row.push((j > i).then(|| EthLink::new(link_config)));
            }
            links.push(row);
        }
        EnzianCluster {
            boards,
            links,
            slice_bytes,
            bridge_latency: Duration::from_ns(150),
            board_config: cfg,
            link_config,
            remote_reads: 0,
            remote_writes: 0,
        }
    }

    /// Number of boards.
    pub fn len(&self) -> usize {
        self.boards.len()
    }

    /// `true` when the cluster has no boards (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.boards.is_empty()
    }

    /// Total global memory exposed, bytes.
    pub fn global_bytes(&self) -> u64 {
        self.slice_bytes * self.boards.len() as u64
    }

    /// The board owning a global address, and the local address there.
    ///
    /// # Panics
    ///
    /// Panics on addresses beyond the global space.
    pub fn owner_of(&self, global: u64) -> (BoardId, Addr) {
        assert!(global < self.global_bytes(), "address beyond global space");
        let board = (global / self.slice_bytes) as u8;
        (BoardId(board), Addr(global % self.slice_bytes))
    }

    /// Direct access to one board's coherent system (e.g. to run local
    /// workloads or inspect checkers).
    pub fn board(&mut self, id: BoardId) -> &mut EciSystem {
        &mut self.boards[usize::from(id.0)]
    }

    /// `(remote reads, remote writes)` bridged so far.
    pub fn bridge_stats(&self) -> (u64, u64) {
        (self.remote_reads, self.remote_writes)
    }

    /// The per-board configuration the cluster was built with.
    pub fn board_config(&self) -> EciSystemConfig {
        self.board_config
    }

    fn fabric_send(&mut self, from: BoardId, to: BoardId, now: Time, payload: u64) -> Time {
        let (a, b) = (usize::from(from.0.min(to.0)), usize::from(from.0.max(to.0)));
        let link = self.links[a][b].as_mut().expect("mesh link exists");
        if usize::from(from.0) == a {
            link.send_a_to_b(now, payload + BRIDGE_HEADER)
        } else {
            link.send_b_to_a(now, payload + BRIDGE_HEADER)
        }
    }

    /// Reads one 128-byte line of the global space from `requester`'s
    /// CPU. Local slices go through the board's own L2/ECI; remote
    /// slices are bridged over the fabric and served coherently at the
    /// owner.
    pub fn read_line(&mut self, requester: BoardId, now: Time, global: u64) -> ([u8; 128], Time) {
        let (owner, local) = self.owner_of(global);
        if owner == requester {
            return self.boards[usize::from(owner.0)].cpu_read_line(now, local);
        }
        self.remote_reads += 1;
        // Request crosses the fabric (header only)...
        let arrived = self.fabric_send(requester, owner, now, 0) + self.bridge_latency;
        // ...the owner's FPGA serves it through its own coherent system
        // (so it observes any dirty data in the owner's L2)...
        let (data, served) = self.boards[usize::from(owner.0)].fpga_read_line(arrived, local);
        // ...and the line returns.
        let done = self.fabric_send(owner, requester, served, 128) + self.bridge_latency;
        (data, done)
    }

    /// Writes one line of the global space from `requester`'s CPU, with
    /// the same local/remote split.
    pub fn write_line(
        &mut self,
        requester: BoardId,
        now: Time,
        global: u64,
        data: &[u8; 128],
    ) -> Time {
        let (owner, local) = self.owner_of(global);
        if owner == requester {
            return self.boards[usize::from(owner.0)].cpu_write_line(now, local, data);
        }
        self.remote_writes += 1;
        let arrived = self.fabric_send(requester, owner, now, 128) + self.bridge_latency;
        let committed = self.boards[usize::from(owner.0)].fpga_write_line(arrived, local, data);
        // Ack back to the requester.
        self.fabric_send(owner, requester, committed, 0) + self.bridge_latency
    }

    /// Asserts every board's protocol checker is clean.
    ///
    /// # Panics
    ///
    /// Panics with the first violation found.
    pub fn assert_all_clean(&self) {
        for (i, b) in self.boards.iter().enumerate() {
            assert!(
                b.checker().violations().is_empty(),
                "board {i}: {:?}",
                b.checker().violations()
            );
        }
    }
}

/// Publishes bridge counters (`prefix.bridge.*`) plus every board's full
/// metric tree under `prefix.board<i>.*`.
impl enzian_sim::Instrumented for EnzianCluster {
    fn export_metrics(&self, prefix: &str, registry: &mut enzian_sim::MetricsRegistry) {
        registry.counter_set(&format!("{prefix}.bridge.remote_reads"), self.remote_reads);
        registry.counter_set(
            &format!("{prefix}.bridge.remote_writes"),
            self.remote_writes,
        );
        for (i, b) in self.boards.iter().enumerate() {
            b.export_metrics(&format!("{prefix}.board{i}"), registry);
        }
    }
}

// -------------------------------------------------------------------
// Conservative-parallel cluster execution
// -------------------------------------------------------------------

/// Per-destination traffic accounting for one board's bridge, as seen
/// at the sender.
///
/// `wire_bytes` counts encoded frames exactly as the fabric carries
/// them and equals the outgoing channel's [`Channel::bytes_carried`].
/// On the cluster and service planes every frame is a bridge header
/// around its payload, so `wire_bytes == payload_bytes + frames *`
/// [`BRIDGE_HEADER`]; a traffic frame also carries a TCP segment
/// header, so there the per-frame overhead is
/// [`TCP_FRAME_BYTES`](crate::traffic::TCP_FRAME_BYTES).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Bridge frames sent to this destination.
    pub frames: u64,
    /// Cache-line payload bytes carried by those frames.
    pub payload_bytes: u64,
    /// Total encoded bytes handed to the fabric.
    pub wire_bytes: u64,
}

/// A bridge frame as it crosses the fabric in its envelope: inline when
/// it fits in `N` bytes, on the heap when it does not. Each plane's
/// frame format fixes its `N`, so only an oversized service heartbeat
/// ever spills.
///
/// Bytes past `len` are zero, so equal frames are equal values.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum FabricFrame<const N: usize> {
    /// The first `len` bytes of `bytes`.
    Inline { len: u16, bytes: [u8; N] },
    /// A frame longer than `N` bytes.
    Spilled(Vec<u8>),
}

impl<const N: usize> FabricFrame<N> {
    /// Copies an encoded frame into an envelope payload.
    fn new(frame: &[u8]) -> Self {
        const { assert!(N <= u16::MAX as usize, "an inline length is a u16") };
        if frame.len() <= N {
            let mut bytes = [0; N];
            bytes[..frame.len()].copy_from_slice(frame);
            FabricFrame::Inline {
                len: frame.len() as u16,
                bytes,
            }
        } else {
            FabricFrame::Spilled(frame.to_vec())
        }
    }

    /// The encoded frame.
    fn as_bytes(&self) -> &[u8] {
        match self {
            FabricFrame::Inline { len, bytes } => &bytes[..usize::from(*len)],
            FabricFrame::Spilled(v) => v,
        }
    }

    /// The bridge frame, parsed in place with every check of
    /// [`BridgeFrame::parse`], CRC included.
    ///
    /// # Panics
    ///
    /// Panics if the bytes are not a valid bridge frame: a frame is
    /// written by [`FabricPort::frame`] and never altered in transit.
    pub(crate) fn parse(&self) -> BridgeFrame<'_> {
        BridgeFrame::parse(self.as_bytes()).expect("fabric frames survive transit")
    }
}

/// Outbound envelopes of one work item, as `(destination board, envelope)`.
pub(crate) type Out<const N: usize> = Vec<(usize, Envelope<FabricFrame<N>>)>;

/// A frame [`FabricPort::frame`] wrote into the port's scratch buffer,
/// waiting to be sent, looped back or dropped.
#[must_use = "a framed message is sent, looped back or dropped"]
pub(crate) struct Framed {
    dst: usize,
    seq: u64,
    /// Bytes the channel is charged for.
    wire: u64,
    /// Bytes accounted as the frame's payload.
    payload: u64,
}

impl Framed {
    /// Adds `bytes` of synthetic payload that ride after the encoded
    /// frame without being encoded (a traffic segment's session data):
    /// the channel is charged for them, and they are the frame's
    /// accounted payload, the encoded segment header being framing
    /// like the bridge header.
    pub(crate) fn with_synthetic_payload(mut self, bytes: u64) -> Self {
        self.wire += bytes;
        self.payload = bytes;
        self
    }
}

/// One board's private half of the fabric, shared by every sharded
/// cluster model (memory bridge, replicated service, traffic): an
/// outgoing [`Channel`] and its [`FlowStats`] per destination board,
/// the inbox of delivered frames waiting for their turn, and the one
/// send path: the board's frame sequence counter and the scratch buffer
/// every frame is written into before it is copied into its envelope as
/// a [`FabricFrame<N>`].
///
/// The port also knows the board's current work time (see
/// [`FabricPort::advance_to`]) and keeps each channel's busy intervals
/// behind it retired, so a channel holds only the traffic still ahead
/// of the board rather than every interval of the run.
///
/// Cache-line aligned, which makes every board struct embedding it a
/// whole number of cache lines. `Engine::Conservative` splits the
/// board slice into one contiguous run per worker thread, so two boards
/// side by side in memory can belong to different workers; unpadded,
/// their hot fields can share a line (that false sharing cost the
/// traffic model ~15% of its throughput at 2 threads on a 2-vCPU host).
#[repr(align(64))]
pub(crate) struct FabricPort<const N: usize> {
    id: usize,
    /// Outgoing channel per destination board (`None` for self).
    out: Vec<Option<Channel>>,
    flows: Vec<FlowStats>,
    /// Delivered envelopes waiting for their turn, one stream per
    /// source board. A channel carries one source's frames one after
    /// another at a constant latency, so they arrive in the order of
    /// their keys and are appended; a reply that filled an earlier gap
    /// on its channel, a frame delayed by a fault and a loopback frame
    /// can arrive out of that order and are placed by binary search.
    inbox: SortedStreams<Envelope<FabricFrame<N>>>,
    /// Time of the work item the board is running: no send starts
    /// before it.
    now: Time,
    /// Sequence number of the next frame: unique per board, so the
    /// merge order `(time, src, seq)` is total.
    seq: u64,
    /// The frame being sent.
    frame: Vec<u8>,
    /// Frames, loopback ones included, too long to travel inline.
    spilled: u64,
}

impl<const N: usize> FabricPort<N> {
    /// Board `id`'s port onto a full mesh of `n` boards joined by `link`s.
    pub(crate) fn new(id: usize, n: usize, link: &EthLinkConfig) -> Self {
        let cfg = ChannelConfig {
            bits_per_sec: link.bits_per_sec,
            coding_efficiency: 1.0,
            propagation: link.propagation,
            frame_overhead_bytes: FRAME_OVERHEAD_BYTES,
        };
        FabricPort {
            id,
            out: (0..n)
                .map(|d| (d != id).then(|| Channel::new(cfg)))
                .collect(),
            flows: vec![FlowStats::default(); n],
            inbox: SortedStreams::new(n),
            now: Time::ZERO,
            seq: 0,
            frame: Vec::with_capacity(N),
            spilled: 0,
        }
    }

    /// Records that the board is running the work item keyed at `now`.
    /// A shard runs its items in nondecreasing key order on both
    /// engines and no send starts before the item that makes it, so
    /// every later send starts at or after `now`: [`FabricPort::send`]
    /// makes it the destination channel's floor (see
    /// [`Channel::retire_before`]).
    pub(crate) fn advance_to(&mut self, now: Time) {
        self.now = now;
    }

    /// Writes an `opcode` frame for `dst`, stamped with the board's next
    /// sequence number, whose payload `write` appends in place.
    pub(crate) fn frame(
        &mut self,
        opcode: BridgeOpcode,
        dst: usize,
        token: u8,
        addr: u64,
        write: impl FnOnce(&mut Vec<u8>),
    ) -> Framed {
        let header = BridgeHeader {
            opcode,
            src: self.id as u8,
            dst: dst as u8,
            token,
            addr,
            seq: self.seq as u32,
        };
        self.frame.clear();
        let payload = write_bridge(&mut self.frame, &header, write);
        let framed = Framed {
            dst,
            seq: self.seq,
            wire: self.frame.len() as u64,
            payload: payload as u64,
        };
        self.seq += 1;
        framed
    }

    /// The written frame as an envelope payload.
    fn envelope(&mut self, framed: &Framed, at: Time) -> Envelope<FabricFrame<N>> {
        debug_assert_eq!(
            framed.seq + 1,
            self.seq,
            "a frame is overwritten before it is sent"
        );
        let payload = FabricFrame::new(&self.frame);
        if matches!(payload, FabricFrame::Spilled(_)) {
            self.spilled += 1;
        }
        Envelope {
            at,
            src: self.id,
            seq: framed.seq,
            payload,
        }
    }

    /// Serializes `framed` onto the channel towards its destination,
    /// starting no earlier than `at`, accounts the flow, and emits the
    /// envelope, delivered `latency` after the last bit.
    pub(crate) fn send(
        &mut self,
        framed: Framed,
        at: Time,
        latency: Duration,
        out: &mut Out<N>,
    ) -> Transfer {
        let dst = framed.dst;
        let channel = self.out[dst].as_mut().expect("no channel to self");
        channel.retire_before(self.now);
        let xfer = channel.send(at, framed.wire);
        let flow = &mut self.flows[dst];
        flow.frames += 1;
        flow.payload_bytes += framed.payload;
        flow.wire_bytes += framed.wire;
        let env = self.envelope(&framed, xfer.done + latency);
        out.push((dst, env));
        xfer
    }

    /// Delivers `framed`, addressed to this board, to its own inbox at
    /// `at` without touching the fabric.
    pub(crate) fn loop_back(&mut self, framed: Framed, at: Time) {
        debug_assert_eq!(framed.dst, self.id, "loopback to another board");
        let env = self.envelope(&framed, at);
        self.push_arrival(env);
    }

    /// Frames, loopback ones included, that spilled to the heap.
    pub(crate) fn spilled(&self) -> u64 {
        self.spilled
    }

    /// Holds a delivered envelope until its key comes up.
    pub(crate) fn push_arrival(&mut self, env: Envelope<FabricFrame<N>>) {
        self.inbox.push(env.src, env);
    }

    /// The earliest held envelope's work key: class 0, so deliveries
    /// run before local work at the same instant, tie-broken by
    /// `(src, seq)`.
    pub(crate) fn next_key(&self) -> Option<WorkKey> {
        self.inbox
            .peek()
            .map(|env| (env.at, 0, env.src as u64, env.seq))
    }

    /// Removes the earliest held envelope (which must exist).
    pub(crate) fn pop_arrival(&mut self) -> Envelope<FabricFrame<N>> {
        self.inbox.pop().expect("inbox not empty").1
    }

    /// `true` when no delivered envelope is waiting.
    pub(crate) fn inbox_is_empty(&self) -> bool {
        self.inbox.is_empty()
    }

    /// Per-destination accounting, indexed by board.
    pub(crate) fn flows(&self) -> &[FlowStats] {
        &self.flows
    }

    /// Totals over every destination, after asserting each flow matches
    /// the bytes its channel actually carried.
    pub(crate) fn audit(&self) -> FlowStats {
        let mut total = FlowStats::default();
        for (dst, (f, ch)) in self.flows.iter().zip(&self.out).enumerate() {
            if let Some(ch) = ch {
                assert_eq!(
                    f.wire_bytes,
                    ch.bytes_carried(),
                    "flow accounting diverged from the channel ({} -> {dst})",
                    self.id
                );
            }
            total.frames += f.frames;
            total.payload_bytes += f.payload_bytes;
            total.wire_bytes += f.wire_bytes;
        }
        total
    }

    /// Folds the flow accounting into `d`.
    pub(crate) fn digest_into(&self, d: &mut Fnv) {
        for f in &self.flows {
            d.u64(f.frames);
            d.u64(f.payload_bytes);
            d.u64(f.wire_bytes);
        }
    }
}

/// A synthetic cluster workload: per-board request streams mixing
/// local coherent accesses with bridged remote reads/writes, all
/// derived from one seed so any two same-seed runs are identical.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct ClusterWorkload {
    /// Independent request streams per board.
    pub streams_per_board: usize,
    /// Operations each stream issues before retiring.
    pub ops_per_stream: u64,
    /// Private line slots each stream cycles through.
    pub slots_per_stream: u64,
    /// Basis points (of 10 000) of ops that target a remote slice.
    pub remote_bp: u64,
    /// Basis points of ops that are writes.
    pub write_bp: u64,
    /// Master seed; every stream RNG and fault plan derives from it.
    pub seed: u64,
    /// Basis points of frame-corrupt fault probability (drop and txn
    /// stall faults ride along at half and a quarter of it); zero
    /// disables fault injection.
    pub fault_rate_bp: u64,
}

impl ClusterWorkload {
    /// A small mixed workload, sized for unit tests.
    pub fn small() -> Self {
        ClusterWorkload {
            streams_per_board: 4,
            ops_per_stream: 48,
            slots_per_stream: 8,
            remote_bp: 2_500,
            write_bp: 5_000,
            seed: 0xC1A5_7E12,
            fault_rate_bp: 0,
        }
    }

    /// The `cluster_scale` experiment's workload: enough work per
    /// board that epoch synchronization is amortized.
    pub fn scale() -> Self {
        ClusterWorkload {
            streams_per_board: 8,
            ops_per_stream: 160,
            slots_per_stream: 16,
            remote_bp: 2_000,
            write_bp: 5_000,
            seed: 0xE21A_0BDE,
            fault_rate_bp: 0,
        }
    }

    /// Returns the workload with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the workload with `ops_per_stream` replaced.
    pub fn with_ops_per_stream(mut self, ops: u64) -> Self {
        self.ops_per_stream = ops;
        self
    }

    /// Returns the workload with `remote_bp` replaced.
    pub fn with_remote_bp(mut self, bp: u64) -> Self {
        assert!(bp <= 10_000, "basis points exceed 10_000");
        self.remote_bp = bp;
        self
    }

    /// Returns the workload with fault injection at `bp` basis points.
    pub fn with_fault_rate_bp(mut self, bp: u64) -> Self {
        assert!(bp <= 10_000, "basis points exceed 10_000");
        self.fault_rate_bp = bp;
        self
    }
}

/// What one cluster run did — a pure function of the cluster
/// configuration and [`ClusterWorkload`], never of the thread count
/// (except the epoch counts; see [`RunReport`]).
pub type ClusterRunReport = RunReport<ClusterStats>;

/// The memory-bridge workload's own totals in a [`ClusterRunReport`]; its
/// `fabric` totals count the bridge frames (requests and responses).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterStats {
    /// Operations issued (= boards × streams × ops_per_stream).
    pub total_ops: u64,
    /// Local coherent reads completed.
    pub local_reads: u64,
    /// Local coherent writes completed.
    pub local_writes: u64,
    /// Bridged reads completed (response received).
    pub remote_reads: u64,
    /// Bridged writes completed (ack received).
    pub remote_writes: u64,
    /// Nack frames received by requesters.
    pub nacks: u64,
    /// Operations that failed (local retry-budget exhaustion + nacks).
    pub failures: u64,
    /// `flows[src][dst]`: per-directed-pair traffic accounting.
    pub flows: Vec<Vec<FlowStats>>,
}

impl ClusterRunReport {
    /// Publishes the report under `prefix.*`. Every exported value is
    /// deterministic across thread counts, so two exports of same-seed
    /// runs are byte-identical.
    pub fn export_metrics(&self, prefix: &str, reg: &mut MetricsRegistry) {
        let c = |reg: &mut MetricsRegistry, k: &str, v: u64| {
            reg.counter_set(&format!("{prefix}.{k}"), v);
        };
        c(reg, "boards", self.boards as u64);
        c(reg, "total_ops", self.total_ops);
        c(reg, "local_reads", self.local_reads);
        c(reg, "local_writes", self.local_writes);
        c(reg, "remote_reads", self.remote_reads);
        c(reg, "remote_writes", self.remote_writes);
        c(reg, "nacks", self.nacks);
        c(reg, "failures", self.failures);
        c(reg, "bridge_frames", self.fabric.frames);
        c(reg, "bridge_payload_bytes", self.fabric.payload_bytes);
        c(reg, "bridge_wire_bytes", self.fabric.wire_bytes);
        c(reg, "sim_end_ps", self.sim_end.as_ps());
        c(reg, "epochs", self.epochs);
        c(reg, "epochs_skipped", self.epochs_skipped);
        c(reg, "messages", self.messages);
        c(reg, "trace_digest", self.digest);
    }
}

/// One stream's pending bridged operation, awaiting its response.
struct PendingOp {
    write: bool,
    global: u64,
    fill: u8,
}

/// One request stream on a board.
struct StreamState {
    rng: SimRng,
    /// When the stream can issue its next operation.
    at: Time,
    /// Operations left to complete.
    remaining: u64,
    /// Set while a bridged request is in flight.
    blocked: Option<PendingOp>,
    /// Expected line fill per global address this stream wrote;
    /// `None` marks a slot poisoned by a failed write. A `BTreeMap`
    /// so digests iterate in address order.
    shadow: BTreeMap<u64, Option<u8>>,
}

/// A board plus its private half of the fabric: one shard of the
/// conservative-parallel cluster.
struct BoardShard {
    id: usize,
    n: usize,
    slice_bytes: u64,
    streams_per_board: usize,
    slots_per_stream: u64,
    remote_bp: u64,
    write_bp: u64,
    bridge_latency: Duration,
    sys: EciSystem,
    port: FabricPort<LINE_FRAME_BYTES>,
    streams: Vec<StreamState>,
    last: Time,
    local_reads: u64,
    local_writes: u64,
    remote_reads: u64,
    remote_writes: u64,
    nacks: u64,
    failures: u64,
}

impl BoardShard {
    /// Requester-private byte offset (valid within any board's slice)
    /// for `(owner-of-the-request board, stream, slot)`.
    fn slot_offset(&self, stream: usize, slot: u64) -> u64 {
        ((self.id * self.streams_per_board + stream) as u64 * self.slots_per_stream + slot) * 128
    }

    /// Answers `req` with an `opcode` frame (carrying `line`, if any)
    /// sent at `at`.
    fn reply(
        &mut self,
        req: &BridgeHeader,
        opcode: BridgeOpcode,
        at: Time,
        line: Option<&[u8; 128]>,
        out: &mut Out<LINE_FRAME_BYTES>,
    ) {
        let line: &[u8] = line.map_or(&[], |l| &l[..]);
        let dst = usize::from(req.src);
        let framed = self.port.frame(opcode, dst, req.token, req.addr, |p| {
            p.extend_from_slice(line)
        });
        self.port.send(framed, at, self.bridge_latency, out);
    }

    /// Serves or completes the next inbox delivery.
    fn process_envelope(&mut self, out: &mut Out<LINE_FRAME_BYTES>) {
        let env = self.port.pop_arrival();
        let frame = env.payload.parse();
        let h = frame.header;
        match h.opcode {
            BridgeOpcode::ReadReq => {
                let local = Addr(h.addr % self.slice_bytes);
                let (opcode, data, at) = match self.sys.try_fpga_read_line(env.at, local) {
                    Ok((data, served)) => (BridgeOpcode::ReadResp, Some(data), served),
                    Err(_) => (BridgeOpcode::Nack, None, env.at + Duration::from_us(1)),
                };
                self.last = self.last.max(at);
                self.reply(&h, opcode, at, data.as_ref(), out);
            }
            BridgeOpcode::WriteReq => {
                let local = Addr(h.addr % self.slice_bytes);
                let data = frame.line().expect("a write carries its line");
                let (opcode, at) = match self.sys.try_fpga_write_line(env.at, local, data) {
                    Ok(committed) => (BridgeOpcode::WriteAck, committed),
                    Err(_) => (BridgeOpcode::Nack, env.at + Duration::from_us(1)),
                };
                self.last = self.last.max(at);
                self.reply(&h, opcode, at, None, out);
            }
            BridgeOpcode::ReadResp => {
                let data = frame.line().expect("a read response carries its line");
                let s = &mut self.streams[usize::from(h.token)];
                let p = s.blocked.take().expect("response for an idle stream");
                if let Some(Some(fill)) = s.shadow.get(&p.global) {
                    assert_eq!(data, &[*fill; 128], "bridged read returned stale data");
                }
                s.at = env.at;
                s.remaining -= 1;
                self.remote_reads += 1;
                self.last = self.last.max(env.at);
            }
            BridgeOpcode::WriteAck => {
                let s = &mut self.streams[usize::from(h.token)];
                let p = s.blocked.take().expect("ack for an idle stream");
                s.shadow.insert(p.global, Some(p.fill));
                s.at = env.at;
                s.remaining -= 1;
                self.remote_writes += 1;
                self.last = self.last.max(env.at);
            }
            BridgeOpcode::Nack => {
                let s = &mut self.streams[usize::from(h.token)];
                let p = s.blocked.take().expect("nack for an idle stream");
                if p.write {
                    s.shadow.insert(p.global, None);
                }
                s.at = env.at;
                s.remaining -= 1;
                self.nacks += 1;
                self.failures += 1;
                self.last = self.last.max(env.at);
            }
            BridgeOpcode::SvcClient
            | BridgeOpcode::SvcRep
            | BridgeOpcode::SvcCtl
            | BridgeOpcode::Tcp => {
                unreachable!("service/traffic frames never ride the memory-bridge workload")
            }
        }
    }

    /// Issues stream `si`'s next operation.
    fn process_stream(&mut self, si: usize, out: &mut Out<LINE_FRAME_BYTES>) {
        let (at, remote, write, slot, fill, dst) = {
            let s = &mut self.streams[si];
            let remote = self.n > 1 && s.rng.next_below(10_000) < self.remote_bp;
            let write = s.rng.next_below(10_000) < self.write_bp;
            let slot = s.rng.next_below(self.slots_per_stream);
            let fill = s.rng.next_u64() as u8;
            let dst = if remote {
                let r = s.rng.next_below(self.n as u64 - 1) as usize;
                if r >= self.id {
                    r + 1
                } else {
                    r
                }
            } else {
                self.id
            };
            (s.at, remote, write, slot, fill, dst)
        };
        let offset = self.slot_offset(si, slot);
        let global = dst as u64 * self.slice_bytes + offset;
        if !remote {
            let local = Addr(offset);
            if write {
                let line = [fill; 128];
                match self.sys.try_cpu_write_line(at, local, &line) {
                    Ok(done) => {
                        let s = &mut self.streams[si];
                        s.shadow.insert(global, Some(fill));
                        s.at = done;
                        s.remaining -= 1;
                        self.local_writes += 1;
                        self.last = self.last.max(done);
                    }
                    Err(_) => self.fail_local(si, at, Some(global)),
                }
            } else {
                match self.sys.try_cpu_read_line(at, local) {
                    Ok((data, done)) => {
                        let s = &mut self.streams[si];
                        if let Some(Some(expect)) = s.shadow.get(&global) {
                            assert_eq!(data, [*expect; 128], "local read returned stale data");
                        }
                        s.at = done;
                        s.remaining -= 1;
                        self.local_reads += 1;
                        self.last = self.last.max(done);
                    }
                    Err(_) => self.fail_local(si, at, None),
                }
            }
        } else {
            let opcode = if write {
                BridgeOpcode::WriteReq
            } else {
                BridgeOpcode::ReadReq
            };
            self.streams[si].blocked = Some(PendingOp {
                write,
                global,
                fill,
            });
            let line = [fill; 128];
            let framed = self.port.frame(opcode, dst, si as u8, global, |p| {
                if write {
                    p.extend_from_slice(&line);
                }
            });
            self.port.send(framed, at, self.bridge_latency, out);
        }
    }

    /// A local operation exhausted its retry budget: charge a penalty,
    /// poison the written slot, and move on.
    fn fail_local(&mut self, si: usize, at: Time, poisoned: Option<u64>) {
        let s = &mut self.streams[si];
        if let Some(global) = poisoned {
            s.shadow.insert(global, None);
        }
        s.at = at + Duration::from_us(1);
        s.remaining -= 1;
        self.failures += 1;
        self.last = self.last.max(s.at);
    }
}

/// Work keys: held deliveries (class 0), then ready stream issues
/// (class 1, keyed by stream). A *blocked* stream has no key; its
/// wake-up is a response envelope.
impl KeyedShard for BoardShard {
    type Msg = FabricFrame<LINE_FRAME_BYTES>;

    fn next_key(&self) -> Option<WorkKey> {
        let mut best = self.port.next_key();
        for (i, s) in self.streams.iter().enumerate() {
            if s.remaining == 0 || s.blocked.is_some() {
                continue;
            }
            let k = (s.at, 1, i as u64, 0);
            if best.is_none_or(|b| k < b) {
                best = Some(k);
            }
        }
        best
    }

    fn process_next(&mut self, key: WorkKey, out: &mut Out<LINE_FRAME_BYTES>) {
        self.port.advance_to(key.0);
        if key.1 == 0 {
            self.process_envelope(out);
        } else {
            self.process_stream(key.2 as usize, out);
        }
    }

    fn push_arrival(&mut self, env: Envelope<FabricFrame<LINE_FRAME_BYTES>>) {
        self.port.push_arrival(env);
    }

    fn idle(&self) -> bool {
        self.port.inbox_is_empty()
            && self
                .streams
                .iter()
                .all(|s| s.remaining == 0 && s.blocked.is_none())
    }
}

impl FabricBoard for BoardShard {
    fn fabric_end(&self) -> (FlowStats, Time) {
        (self.port.audit(), self.last)
    }

    fn digest_into(&self, d: &mut Fnv) {
        for s in &self.streams {
            d.u64(s.at.as_ps());
            d.u64(s.remaining);
            for (addr, val) in &s.shadow {
                d.u64(*addr);
                match val {
                    Some(v) => {
                        d.u64(1);
                        d.u64(u64::from(*v));
                    }
                    None => d.u64(2),
                }
            }
        }
        self.port.digest_into(d);
        d.u64(self.last.as_ps());
        d.u64(self.local_reads);
        d.u64(self.local_writes);
        d.u64(self.remote_reads);
        d.u64(self.remote_writes);
        d.u64(self.nacks);
        d.u64(self.failures);
        d.bytes(self.sys.trace().wire_bytes());
    }
}

impl EnzianCluster {
    /// The conservative engine's lookahead: no bridge frame sent at
    /// `t` can be processed remotely before `t + propagation +
    /// bridge_latency` (serialization only adds margin).
    pub fn lookahead(&self) -> Duration {
        self.link_config.propagation + self.bridge_latency
    }

    fn make_shards(&mut self, w: &ClusterWorkload) -> Vec<BoardShard> {
        let n = self.boards.len();
        assert!(w.streams_per_board > 0, "workload needs streams");
        assert!(
            w.streams_per_board * n <= 256,
            "stream tokens and board ids must fit a byte"
        );
        assert!(
            (n * w.streams_per_board) as u64 * w.slots_per_stream * 128 <= self.slice_bytes,
            "workload's private regions exceed a board slice"
        );
        let boards = std::mem::take(&mut self.boards);
        boards
            .into_iter()
            .enumerate()
            .map(|(id, mut sys)| {
                if w.fault_rate_bp > 0 {
                    let p = w.fault_rate_bp as f64 / 10_000.0;
                    let seed = w
                        .seed
                        .wrapping_add((id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    sys.set_fault_plan(
                        FaultPlan::new(seed)
                            .with(FaultSpec::probability(fault_targets::FRAME_CORRUPT, p))
                            .with(FaultSpec::probability(fault_targets::FRAME_DROP, p / 2.0))
                            .with(FaultSpec::probability(TXN_STALL_TARGET, p / 4.0)),
                    );
                }
                let streams: Vec<StreamState> = (0..w.streams_per_board)
                    .map(|s| StreamState {
                        rng: SimRng::seed_from(
                            w.seed
                                ^ ((id * w.streams_per_board + s) as u64 + 1)
                                    .wrapping_mul(0x2545_F491_4F6C_DD1D),
                        ),
                        at: Time::ZERO + Duration::from_ns(50) * s as u64,
                        remaining: w.ops_per_stream,
                        blocked: None,
                        shadow: BTreeMap::new(),
                    })
                    .collect();
                BoardShard {
                    id,
                    n,
                    slice_bytes: self.slice_bytes,
                    streams_per_board: w.streams_per_board,
                    slots_per_stream: w.slots_per_stream,
                    remote_bp: w.remote_bp,
                    write_bp: w.write_bp,
                    bridge_latency: self.bridge_latency,
                    sys,
                    port: FabricPort::new(id, n, &self.link_config),
                    streams,
                    last: Time::ZERO,
                    local_reads: 0,
                    local_writes: 0,
                    remote_reads: 0,
                    remote_writes: 0,
                    nacks: 0,
                    failures: 0,
                }
            })
            .collect()
    }

    /// Puts the boards back into the cluster and folds the workload's
    /// own totals.
    fn finish_run(&mut self, shards: Vec<BoardShard>, w: &ClusterWorkload) -> ClusterStats {
        let sum = |f: fn(&BoardShard) -> u64| shards.iter().map(f).sum();
        let stats = ClusterStats {
            total_ops: (shards.len() * w.streams_per_board) as u64 * w.ops_per_stream,
            local_reads: sum(|s| s.local_reads),
            local_writes: sum(|s| s.local_writes),
            remote_reads: sum(|s| s.remote_reads),
            remote_writes: sum(|s| s.remote_writes),
            nacks: sum(|s| s.nacks),
            failures: sum(|s| s.failures),
            flows: shards.iter().map(|s| s.port.flows().to_vec()).collect(),
        };
        self.remote_reads += stats.remote_reads;
        self.remote_writes += stats.remote_writes;
        self.boards.extend(shards.into_iter().map(|s| s.sys));
        let completed = stats.local_reads
            + stats.local_writes
            + stats.remote_reads
            + stats.remote_writes
            + stats.failures;
        assert_eq!(completed, stats.total_ops, "operations went missing");
        self.assert_all_clean();
        stats
    }

    /// Runs `w` across all boards on the conservative-parallel engine
    /// with `threads` workers (clamped to the board count; `1` runs
    /// the same epoch protocol inline).
    pub fn run_parallel(&mut self, w: &ClusterWorkload, threads: usize) -> ClusterRunReport {
        self.run(w, Engine::Conservative(threads))
    }

    /// Runs `w` on the sequential reference driver (global
    /// earliest-work loop, immediate delivery). Exists to validate the
    /// parallel engine: [`RunReport::assert_matches`] against a
    /// [`EnzianCluster::run_parallel`] report must hold for any thread
    /// count.
    pub fn run_reference(&mut self, w: &ClusterWorkload) -> ClusterRunReport {
        self.run(w, Engine::Sequential)
    }

    /// Runs `w` across all boards on `engine`, then puts the boards back.
    pub fn run(&mut self, w: &ClusterWorkload, engine: Engine) -> ClusterRunReport {
        let shards = self.make_shards(w);
        let lookahead = self.lookahead();
        harness::run(shards, lookahead, engine, |shards| {
            self.finish_run(shards, w)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1 << 20;

    fn cluster() -> EnzianCluster {
        EnzianCluster::new(3, 64 * MIB)
    }

    #[test]
    fn global_space_is_striped_across_boards() {
        let c = cluster();
        assert_eq!(c.global_bytes(), 192 * MIB);
        assert_eq!(c.owner_of(0), (BoardId(0), Addr(0)));
        assert_eq!(c.owner_of(64 * MIB), (BoardId(1), Addr(0)));
        assert_eq!(c.owner_of(130 * MIB), (BoardId(2), Addr(2 * MIB)));
    }

    #[test]
    fn remote_write_read_roundtrip() {
        let mut c = cluster();
        let mut line = [0u8; 128];
        line[..7].copy_from_slice(b"bridged");
        // Board 0 writes into board 2's slice; board 1 reads it.
        let g = 2 * 64 * MIB + 4096;
        let t = c.write_line(BoardId(0), Time::ZERO, g, &line);
        let (read, _) = c.read_line(BoardId(1), t, g);
        assert_eq!(read, line);
        assert_eq!(c.bridge_stats(), (1, 1));
        c.assert_all_clean();
    }

    #[test]
    fn remote_reads_observe_owner_cached_dirty_data() {
        // The owner's CPU dirties a line in its L2; a bridged read from
        // another board must see it (served through the owner's ECI).
        let mut c = cluster();
        let g = 64 * MIB + 128; // board 1's slice
        let mut line = [0u8; 128];
        line[0] = 0xEE;
        let t = {
            let owner = c.board(BoardId(1));
            owner.cpu_write_line(Time::ZERO, Addr(128), &line)
        };
        let (read, _) = c.read_line(BoardId(0), t, g);
        assert_eq!(read[0], 0xEE);
        c.assert_all_clean();
    }

    #[test]
    fn local_access_is_much_faster_than_bridged() {
        let mut c = cluster();
        let t0 = Time::ZERO;
        let (_, t_local) = c.read_line(BoardId(0), t0, 4096);
        let local = t_local.since(t0);
        let (_, t_remote) = c.read_line(BoardId(0), t_local, 64 * MIB + 4096);
        let remote = t_remote.since(t_local);
        assert!(
            remote > local * 2,
            "bridged read ({remote}) should cost well over a local one ({local})"
        );
        // But still microseconds, not milliseconds: this is the point of
        // a native fabric bridge vs an RPC stack.
        assert!(remote < Duration::from_us(10), "bridged read {remote}");
    }

    #[test]
    fn all_pairs_can_communicate() {
        let mut c = cluster();
        let mut t = Time::ZERO;
        for src in 0..3u8 {
            for dst in 0..3u8 {
                if src == dst {
                    continue;
                }
                let g = u64::from(dst) * 64 * MIB + u64::from(src) * 1024;
                let line = [src ^ dst; 128];
                t = c.write_line(BoardId(src), t, g, &line);
                let (read, t2) = c.read_line(BoardId(src), t, g);
                assert_eq!(read, line);
                t = t2;
            }
        }
        c.assert_all_clean();
    }

    #[test]
    #[should_panic(expected = "beyond global space")]
    fn out_of_space_address_panics() {
        let mut c = cluster();
        c.read_line(BoardId(0), Time::ZERO, 192 * MIB);
    }

    #[test]
    #[should_panic(expected = "at least two boards")]
    fn single_board_cluster_rejected() {
        let _ = EnzianCluster::new(1, MIB);
    }

    #[test]
    fn parallel_run_matches_reference_and_every_thread_count() {
        let w = ClusterWorkload::small();
        let r = harness::check_engines(&[1, 2, 4], |e| EnzianCluster::new(3, MIB).run(&w, e));
        assert!(r.remote_reads + r.remote_writes > 0);
        assert_eq!(r.failures, 0);
    }

    #[test]
    fn parallel_run_is_deterministic_under_faults() {
        let w = ClusterWorkload::small().with_fault_rate_bp(400);
        harness::check_engines(&[2], |e| EnzianCluster::new(2, MIB).run(&w, e));
    }

    #[test]
    fn flow_accounting_matches_the_bridge_header() {
        let r = EnzianCluster::new(3, MIB).run_parallel(&ClusterWorkload::small(), 2);
        assert_eq!(
            r.fabric.wire_bytes,
            r.fabric.payload_bytes + r.fabric.frames * BRIDGE_HEADER
        );
        for row in &r.flows {
            for f in row {
                assert_eq!(f.wire_bytes, f.payload_bytes + f.frames * BRIDGE_HEADER);
            }
        }
    }

    /// Seeded arrivals from three source boards, each mostly in key
    /// order with ties and late out-of-order frames, plus loopback
    /// frames at arbitrary times, interleaved with pops: the port hands
    /// out the same `next_key`/`pop_arrival` sequence as a binary heap
    /// over `(at, src, seq)`.
    #[test]
    fn inbox_pops_like_a_heap() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        for seed in 0..16 {
            let mut rng = SimRng::seed_from(0x1B0C_0000 + seed);
            let mut port = FabricPort::<LINE_FRAME_BYTES>::new(0, 4, &EthLinkConfig::hundred_gig());
            let mut heap = BinaryHeap::new();
            let mut tails = [0u64; 4];
            let mut seqs = [0u64; 4];
            let (mut late, mut looped) = (0, 0);
            for _ in 0..3_000 {
                match rng.next_below(8) {
                    0..=3 => {
                        let src = 1 + rng.next_below(3) as usize;
                        let at = match rng.next_below(8) {
                            0 => tails[src],
                            1 => tails[src].saturating_sub(rng.next_below(40)),
                            _ => tails[src] + rng.next_below(30),
                        };
                        late += u64::from(at < tails[src]);
                        tails[src] = tails[src].max(at);
                        seqs[src] += 1;
                        let env = Envelope {
                            at: Time::from_ps(at),
                            src,
                            seq: seqs[src],
                            payload: FabricFrame::new(&[src as u8]),
                        };
                        heap.push(Reverse(env.key()));
                        port.push_arrival(env);
                    }
                    4 => {
                        looped += 1;
                        let framed = port.frame(BridgeOpcode::WriteAck, 0, 0, 0, |_| {});
                        let at = Time::from_ps(rng.next_below(tails.iter().max().unwrap() + 50));
                        heap.push(Reverse((at, 0, framed.seq)));
                        port.loop_back(framed, at);
                    }
                    _ => {
                        let expect = heap.pop().map(|Reverse(k)| k);
                        let next = port.next_key();
                        assert_eq!(next, expect.map(|(at, src, seq)| (at, 0, src as u64, seq)));
                        if next.is_some() {
                            assert_eq!(Some(port.pop_arrival().key()), expect, "seed {seed}");
                        }
                    }
                }
                assert_eq!(port.inbox_is_empty(), heap.is_empty());
            }
            assert!(
                late > 0 && looped > 0,
                "seed {seed}: {late} late, {looped} looped"
            );
            while let Some(Reverse(expect)) = heap.pop() {
                assert_eq!(port.pop_arrival().key(), expect, "seed {seed}");
            }
            assert!(port.inbox_is_empty());
        }
    }

    #[test]
    fn run_parallel_restores_the_boards() {
        let mut c = EnzianCluster::new(2, MIB);
        let before = c.len();
        let r = c.run_parallel(&ClusterWorkload::small(), 1);
        assert_eq!(c.len(), before);
        assert_eq!(
            c.bridge_stats(),
            (r.remote_reads, r.remote_writes),
            "bridge counters absorb the run"
        );
        // The cluster remains usable through the sequential facade.
        let (_, t) = c.read_line(BoardId(0), r.sim_end, MIB + 4096);
        assert!(t > r.sim_end);
        c.assert_all_clean();
    }
}
