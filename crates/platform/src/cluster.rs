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

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use enzian_eci::bridge::{
    write_bridge, BridgeFrame, BridgeHeader, BridgeOpcode, BRIDGE_OVERHEAD_BYTES,
};
use enzian_eci::link::fault_targets;
use enzian_eci::system::TXN_STALL_TARGET;
use enzian_eci::{EciSystem, EciSystemConfig};
use enzian_mem::Addr;
use enzian_net::eth::{EthLink, EthLinkConfig, FRAME_OVERHEAD_BYTES};
use enzian_sim::channel::Transfer;
use enzian_sim::par::{Engine, Envelope, KeyedShard, ParReport, WorkKey};
use enzian_sim::{
    Channel, ChannelConfig, Duration, FaultPlan, FaultSpec, Fnv, MetricsRegistry, SimRng, Time,
};

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

/// Header bytes of a bridge message on the fabric (the framed codec's
/// 20-byte header plus its CRC-32 trailer; see
/// [`enzian_eci::bridge::BRIDGE_OVERHEAD_BYTES`]).
pub const BRIDGE_HEADER: u64 = 24;
const _: () = assert!(BRIDGE_HEADER == BRIDGE_OVERHEAD_BYTES);

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

/// Outbound envelopes of one work item, as `(destination board, envelope)`.
pub(crate) type Out<M = Vec<u8>> = Vec<(usize, Envelope<M>)>;

/// One board's private half of the fabric, shared by every sharded
/// cluster model (memory bridge, replicated service, traffic): an
/// outgoing [`Channel`] and its [`FlowStats`] per destination board,
/// plus the inbox of delivered frames waiting for their turn. `M` is
/// the envelope payload: an encoded frame of any length by default, or
/// a fixed-size array where every frame has one length.
///
/// Cache-line aligned, which makes every board struct embedding it a
/// whole number of cache lines. `Engine::Conservative` splits the
/// board slice into one contiguous run per worker thread, so two boards
/// side by side in memory can belong to different workers; unpadded,
/// their hot fields can share a line (that false sharing cost the
/// traffic model ~15% of its throughput at 2 threads on a 2-vCPU host).
#[repr(align(64))]
pub(crate) struct FabricPort<M = Vec<u8>> {
    id: usize,
    /// Outgoing channel per destination board (`None` for self).
    out: Vec<Option<Channel>>,
    flows: Vec<FlowStats>,
    inbox: BinaryHeap<Reverse<Envelope<M>>>,
}

impl<M: Eq> FabricPort<M> {
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
            inbox: BinaryHeap::new(),
        }
    }

    /// Holds a delivered envelope until its key comes up.
    pub(crate) fn push_arrival(&mut self, env: Envelope<M>) {
        self.inbox.push(Reverse(env));
    }

    /// The earliest held envelope's work key: class 0, so deliveries
    /// run before local work at the same instant, tie-broken by
    /// `(src, seq)`.
    pub(crate) fn next_key(&self) -> Option<WorkKey> {
        self.inbox
            .peek()
            .map(|Reverse(env)| (env.at, 0, env.src as u64, env.seq))
    }

    /// Removes the earliest held envelope (which must exist).
    pub(crate) fn pop_arrival(&mut self) -> Envelope<M> {
        self.inbox.pop().expect("inbox not empty").0
    }

    /// `true` when no delivered envelope is waiting.
    pub(crate) fn inbox_is_empty(&self) -> bool {
        self.inbox.is_empty()
    }

    /// Serializes `wire` bytes onto the channel towards `dst`, starting
    /// no earlier than `at`, and accounts them as one frame carrying
    /// `payload` bytes of data.
    pub(crate) fn transmit(&mut self, dst: usize, at: Time, wire: u64, payload: u64) -> Transfer {
        let xfer = self.out[dst]
            .as_mut()
            .expect("no channel to self")
            .send(at, wire);
        let flow = &mut self.flows[dst];
        flow.frames += 1;
        flow.payload_bytes += payload;
        flow.wire_bytes += wire;
        xfer
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
/// configuration and [`ClusterWorkload`], never of the thread count.
///
/// The only engine-dependent field is `epochs` (zero for the
/// sequential reference driver); [`ClusterRunReport::assert_matches`]
/// compares everything else.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterRunReport {
    /// Boards simulated.
    pub boards: usize,
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
    /// Bridge frames carried by the fabric (requests and responses).
    pub bridge_frames: u64,
    /// Cache-line payload bytes carried by those frames.
    pub bridge_payload_bytes: u64,
    /// Encoded bytes handed to the fabric.
    pub bridge_wire_bytes: u64,
    /// Latest instant any board observed.
    pub sim_end: Time,
    /// Lock-step epochs executed (zero under the reference driver).
    pub epochs: u64,
    /// Quiet epochs the adaptive-lookahead engine jumped over instead
    /// of executing (zero under the reference driver).
    pub epochs_skipped: u64,
    /// Cross-board envelopes exchanged.
    pub messages: u64,
    /// FNV-1a digest over every board's final state: stream clocks,
    /// shadow memory, flow tables and captured wire traces.
    pub trace_digest: u64,
    /// `flows[src][dst]`: per-directed-pair traffic accounting.
    pub flows: Vec<Vec<FlowStats>>,
}

impl ClusterRunReport {
    /// Asserts this report equals `other` on every engine-independent
    /// field (everything but `epochs`).
    ///
    /// # Panics
    ///
    /// Panics on the first differing field.
    pub fn assert_matches(&self, other: &ClusterRunReport) {
        let mut a = self.clone();
        let mut b = other.clone();
        a.epochs = 0;
        b.epochs = 0;
        a.epochs_skipped = 0;
        b.epochs_skipped = 0;
        assert_eq!(a, b, "cluster run reports diverge");
    }

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
        c(reg, "bridge_frames", self.bridge_frames);
        c(reg, "bridge_payload_bytes", self.bridge_payload_bytes);
        c(reg, "bridge_wire_bytes", self.bridge_wire_bytes);
        c(reg, "sim_end_ps", self.sim_end.as_ps());
        c(reg, "epochs", self.epochs);
        c(reg, "epochs_skipped", self.epochs_skipped);
        c(reg, "messages", self.messages);
        c(reg, "trace_digest", self.trace_digest);
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
    port: FabricPort,
    streams: Vec<StreamState>,
    /// Envelope sequence counter — unique per (board, seq), so the
    /// merge order (time, src, seq) is total.
    seq: u32,
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

    fn next_seq(&mut self) -> u32 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Frames `line` (if any) under `header` in place, serializes the
    /// frame onto the channel towards `dst` at `at`, accounts the flow,
    /// and emits the timestamped envelope.
    fn send_frame(
        &mut self,
        dst: usize,
        at: Time,
        header: BridgeHeader,
        line: Option<&[u8; 128]>,
        out: &mut Out,
    ) {
        let line: &[u8] = line.map_or(&[], |l| &l[..]);
        let mut frame = Vec::with_capacity(BRIDGE_HEADER as usize + line.len());
        let payload = write_bridge(&mut frame, &header, |p| p.extend_from_slice(line));
        let xfer = self
            .port
            .transmit(dst, at, frame.len() as u64, payload as u64);
        let env = Envelope {
            at: xfer.done + self.bridge_latency,
            src: self.id,
            seq: u64::from(header.seq),
            payload: frame,
        };
        out.push((dst, env));
    }

    /// Answers `req` with an `opcode` frame (carrying `line`, if any)
    /// sent at `at`.
    fn reply(
        &mut self,
        req: &BridgeHeader,
        opcode: BridgeOpcode,
        at: Time,
        line: Option<&[u8; 128]>,
        out: &mut Out,
    ) {
        let header = BridgeHeader {
            opcode,
            src: self.id as u8,
            dst: req.src,
            token: req.token,
            addr: req.addr,
            seq: self.next_seq(),
        };
        self.send_frame(usize::from(req.src), at, header, line, out);
    }

    /// Serves or completes the next inbox delivery.
    fn process_envelope(&mut self, out: &mut Out) {
        let env = self.port.pop_arrival();
        let frame = BridgeFrame::parse(&env.payload).expect("fabric frames survive transit");
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
    fn process_stream(&mut self, si: usize, out: &mut Out) {
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
            let header = BridgeHeader {
                opcode: if write {
                    BridgeOpcode::WriteReq
                } else {
                    BridgeOpcode::ReadReq
                },
                src: self.id as u8,
                dst: dst as u8,
                token: si as u8,
                addr: global,
                seq: self.next_seq(),
            };
            self.streams[si].blocked = Some(PendingOp {
                write,
                global,
                fill,
            });
            self.send_frame(dst, at, header, write.then_some(&[fill; 128]), out);
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

    /// Folds this board's externally observable final state into `d`.
    fn digest_into(&self, d: &mut Fnv) {
        d.u64(self.id as u64);
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

/// Work keys: held deliveries (class 0), then ready stream issues
/// (class 1, keyed by stream). A *blocked* stream has no key; its
/// wake-up is a response envelope.
impl KeyedShard for BoardShard {
    type Msg = Vec<u8>;

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

    fn process_next(&mut self, key: WorkKey, out: &mut Out) {
        if key.1 == 0 {
            self.process_envelope(out);
        } else {
            self.process_stream(key.2 as usize, out);
        }
    }

    fn push_arrival(&mut self, env: Envelope<Vec<u8>>) {
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
                    seq: 0,
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

    /// Tears shards back down into the cluster and builds the report.
    fn finish_run(
        &mut self,
        shards: Vec<BoardShard>,
        w: &ClusterWorkload,
        par: ParReport,
    ) -> ClusterRunReport {
        let n = shards.len();
        let mut digest = Fnv::new();
        let mut bridge = FlowStats::default();
        for shard in &shards {
            assert!(shard.idle(), "run finished with live work on a board");
            shard.digest_into(&mut digest);
            let total = shard.port.audit();
            bridge.frames += total.frames;
            bridge.payload_bytes += total.payload_bytes;
            bridge.wire_bytes += total.wire_bytes;
        }
        let sum = |f: fn(&BoardShard) -> u64| shards.iter().map(f).sum();
        let report = ClusterRunReport {
            boards: n,
            total_ops: (n * w.streams_per_board) as u64 * w.ops_per_stream,
            local_reads: sum(|s| s.local_reads),
            local_writes: sum(|s| s.local_writes),
            remote_reads: sum(|s| s.remote_reads),
            remote_writes: sum(|s| s.remote_writes),
            nacks: sum(|s| s.nacks),
            failures: sum(|s| s.failures),
            bridge_frames: bridge.frames,
            bridge_payload_bytes: bridge.payload_bytes,
            bridge_wire_bytes: bridge.wire_bytes,
            sim_end: shards.iter().map(|s| s.last).fold(Time::ZERO, Time::max),
            epochs: par.epochs,
            epochs_skipped: par.epochs_skipped,
            messages: par.messages,
            trace_digest: digest.finish(),
            flows: shards.iter().map(|s| s.port.flows().to_vec()).collect(),
        };
        self.remote_reads += report.remote_reads;
        self.remote_writes += report.remote_writes;
        self.boards.extend(shards.into_iter().map(|s| s.sys));
        let completed = report.local_reads
            + report.local_writes
            + report.remote_reads
            + report.remote_writes
            + report.failures;
        assert_eq!(completed, report.total_ops, "operations went missing");
        self.assert_all_clean();
        report
    }

    /// Runs `w` across all boards on the conservative-parallel engine
    /// with `threads` workers (clamped to the board count; `1` runs
    /// the same epoch protocol inline).
    ///
    /// The report — and any metrics or bench JSON derived from it — is
    /// bit-identical for every thread count: each board's work is a
    /// pure function of its own state plus a deterministically ordered
    /// inbox, and the merge order `(time, src, seq)` never observes
    /// the partitioning.
    pub fn run_parallel(&mut self, w: &ClusterWorkload, threads: usize) -> ClusterRunReport {
        self.run(w, Engine::Conservative(threads))
    }

    /// Runs `w` on the sequential reference driver (global
    /// earliest-work loop, immediate delivery). Exists to validate the
    /// parallel engine: [`ClusterRunReport::assert_matches`] against a
    /// [`EnzianCluster::run_parallel`] report must hold for any thread
    /// count.
    pub fn run_reference(&mut self, w: &ClusterWorkload) -> ClusterRunReport {
        self.run(w, Engine::Sequential)
    }

    fn run(&mut self, w: &ClusterWorkload, engine: Engine) -> ClusterRunReport {
        let mut shards = self.make_shards(w);
        let par = engine.run(&mut shards, self.lookahead());
        self.finish_run(shards, w, par)
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
        let reference = EnzianCluster::new(3, MIB).run_reference(&w);
        assert_eq!(reference.epochs, 0);
        assert!(reference.remote_reads + reference.remote_writes > 0);
        assert_eq!(reference.failures, 0);
        let mut parallel: Vec<ClusterRunReport> = [1usize, 2, 4]
            .iter()
            .map(|&t| EnzianCluster::new(3, MIB).run_parallel(&w, t))
            .collect();
        for p in &parallel {
            p.assert_matches(&reference);
        }
        // Including `epochs`, every parallel run is identical.
        let first = parallel.remove(0);
        assert!(first.epochs > 0);
        for p in &parallel {
            assert_eq!(*p, first);
        }
    }

    #[test]
    fn parallel_run_is_deterministic_under_faults() {
        let w = ClusterWorkload::small().with_fault_rate_bp(400);
        let reference = EnzianCluster::new(2, MIB).run_reference(&w);
        let par = EnzianCluster::new(2, MIB).run_parallel(&w, 2);
        par.assert_matches(&reference);
    }

    #[test]
    fn flow_accounting_matches_the_bridge_header() {
        let r = EnzianCluster::new(3, MIB).run_parallel(&ClusterWorkload::small(), 2);
        assert_eq!(
            r.bridge_wire_bytes,
            r.bridge_payload_bytes + r.bridge_frames * BRIDGE_HEADER
        );
        for row in &r.flows {
            for f in row {
                assert_eq!(f.wire_bytes, f.payload_bytes + f.frames * BRIDGE_HEADER);
            }
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
