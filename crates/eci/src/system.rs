//! The two-node ECI protocol engine.
//!
//! [`EciSystem`] wires together everything an experiment needs: the CPU's
//! L2 cache and 4-channel DDR4-2133, the FPGA's 4-channel DDR4-2400, the
//! two 12-lane links, the home directories on both nodes, the online
//! protocol checker, and an optional wire-format trace capture. It exposes
//! transaction-level operations with full timing:
//!
//! * FPGA-side uncached coherent line reads/writes of host memory — the
//!   §5.1 microbenchmark traffic ("uncached, coherent, cacheline-sized
//!   transactions");
//! * FPGA-side cached acquisition/release of host lines (for remote-memory
//!   style research);
//! * CPU-side cached reads/writes of both local and FPGA-homed memory —
//!   the path the §5.4 custom-memory-controller experiment exercises
//!   ("loads appear exactly like NUMA-remote L2 refills");
//! * uncached small I/O and inter-processor interrupts.
//!
//! ## Event-driven transaction engine
//!
//! Internally every coherence operation runs as a chain of discrete
//! events on an [`enzian_sim::Simulator`]: requests are admitted through
//! an MSHR-style transaction table (see [`crate::txn`]) that bounds
//! the number of concurrently outstanding transactions and serializes
//! same-line conflicts, and every message passes through a per-node,
//! per-virtual-channel output queue with credit-based flow control before
//! it reaches the link layer's own credit/replay machinery. The protocol
//! checker observes the message stream exactly as before.
//!
//! A transaction is a record in a slab (`TxnRecord`: the pending
//! operation, when it began service, the data it completes with, and the
//! return step its CPU-side fill or upgrade ends in). Each of its events
//! is a `Step` — a `Copy` value of kind, record slot, line, protocol
//! transaction id, flags and delivery time. The engine schedules it as
//! it is: it is one variant of the engine's [`Model::Event`], the other
//! being an engine-level VC credit coming back. So a transaction
//! schedules no closures and allocates nothing but the data boxes of the
//! messages it sends. A nested chain (probe, then fill, then finish) is
//! a "next step" carried by the step itself.
//! Completions wait in a window indexed by handle (handles are
//! sequential) until taken.
//!
//! Maps keyed by lines, pages or transaction ids use
//! [`enzian_sim::FxHashMap`]: no SipHash on simulator-internal keys.
//!
//! Two surfaces sit on top of the engine:
//!
//! * the **synchronous facade** — `fpga_read_line`, the `try_*` pairs,
//!   bursts, acquire/upgrade/release — issues one transaction, runs the
//!   simulator until it completes, drains the queue and returns, so every
//!   pre-existing caller keeps its call-and-return contract (and its
//!   exact timing);
//! * the **async issue/poll API** — [`EciSystem::issue`],
//!   [`EciSystem::poll`], [`EciSystem::run_until_complete`],
//!   [`EciSystem::run_to_idle`] — keeps N transactions in flight, which
//!   is what the pipelining experiments use to approach line rate.
//!
//! ## Functional-data convention
//!
//! Line *data* always lives in the home node's backing store, updated at
//! write time; cache and directory structures track *states* and produce
//! *timing* (probes, write-backs, occupancy). This keeps data correctness
//! independent of replacement behaviour while the protocol checker
//! enforces state-machine legality.

use enzian_cache::{AccessOutcome, L2Cache, L2Config, LineState};
use enzian_mem::{
    Addr, CacheLine, MemoryController, MemoryControllerConfig, MemoryMap, NodeId, Op,
};
use enzian_sim::{Duration, FaultPlan, FxHashMap, Model, Scheduler, Simulator, Time};
use std::collections::VecDeque;

use crate::checker::ProtocolChecker;
use crate::decoder::TraceBuffer;
use crate::directory::{Directory, RemoteCopy};
use crate::link::{EciLinkConfig, EciLinks, LinkPolicy, VirtualChannel};
use crate::message::{Message, MessageKind, TxnId};
use crate::txn::{
    Admitted, EngineStats, MshrTable, PendingTxn, TxnCompletion, TxnHandle, TxnOp, TxnStatus,
};

/// Fault-injection target: a transaction stalls at the requester and must
/// be timed out and retried. Fired *before* anything reaches the link, so
/// a stalled attempt leaves no trace in the protocol checker.
pub const TXN_STALL_TARGET: &str = "eci.txn_stall";

/// A coherence transaction failed in a way the system recovers from by
/// *reporting* rather than hanging: the retry budget ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnError {
    /// Every attempt (initial issue plus retries, each waiting an
    /// exponentially growing timeout) stalled; the operation was abandoned
    /// after `waited` of simulated time.
    RetryBudgetExhausted {
        /// The operation that gave up (e.g. `"fpga_read_line"`).
        op: &'static str,
        /// Attempts made before giving up (= 1 + configured retry budget).
        attempts: u32,
        /// Total simulated time spent in timeouts before surrendering.
        waited: Duration,
    },
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::RetryBudgetExhausted {
                op,
                attempts,
                waited,
            } => write!(
                f,
                "{op}: retry budget exhausted after {attempts} attempts ({waited} waited)"
            ),
        }
    }
}

impl std::error::Error for TxnError {}

/// Static configuration of a complete ECI system.
///
/// `#[non_exhaustive]`: construct from a named preset
/// ([`EciSystemConfig::enzian`] / [`EciSystemConfig::thunderx_2socket`])
/// and adjust its public fields, directly or with the `with_*` setters.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct EciSystemConfig {
    /// The static physical address partition.
    pub map: MemoryMap,
    /// Link-layer parameters.
    pub link: EciLinkConfig,
    /// Link load-balancing policy.
    pub policy: LinkPolicy,
    /// FPGA shell clock (200–300 MHz depending on bitstream).
    pub fpga_clock_hz: u64,
    /// FPGA request/response pipeline depth, in FPGA clocks, charged on
    /// each message issue and receive.
    pub fpga_pipeline_cycles: u32,
    /// Home-agent lookup latency before L2/DRAM service begins.
    pub home_latency: Duration,
    /// Per-line occupancy of the CPU home pipeline for reads. The paper
    /// conjectures the ThunderX-1 "L2 cache subsystem, which handles all
    /// the transfers on the CPU side" limits read throughput.
    pub home_occupancy_read: Duration,
    /// Per-line occupancy of the CPU home pipeline for writes.
    pub home_occupancy_write: Duration,
    /// CPU L2 hit latency.
    pub l2_hit_latency: Duration,
    /// CPU-side memory controller configuration.
    pub cpu_mem: MemoryControllerConfig,
    /// FPGA-side memory controller configuration.
    pub fpga_mem: MemoryControllerConfig,
    /// CPU L2 geometry.
    pub l2: L2Config,
    /// Capture all messages in wire format (costly; for tooling tests).
    pub capture_trace: bool,
    /// Base per-transaction timeout for the checked (`try_*`) operations.
    /// Attempt `k` (zero-based) waits `txn_timeout << k` before retrying.
    pub txn_timeout: Duration,
    /// Retries permitted after the initial attempt of a checked operation
    /// before it surfaces [`TxnError::RetryBudgetExhausted`].
    pub txn_retry_budget: u32,
    /// Entries in the MSHR-style transaction table: the number of lines
    /// that may have a transaction in flight concurrently. Same-line
    /// conflicts queue per entry; admissions beyond the table queue FIFO.
    /// The default is deep enough that link credits, not the table, bound
    /// bandwidth; the pipelining experiments sweep it down to 1.
    pub mshr_entries: usize,
    /// Engine-level credits per (node, virtual channel) output queue,
    /// layered above the link's own credit pools. A send with no credit
    /// waits in the queue until a credit returns.
    pub vc_queue_credits: u32,
}

impl EciSystemConfig {
    /// Returns the config with `policy` replaced.
    pub fn with_policy(mut self, policy: LinkPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Returns the config with `l2` replaced.
    pub fn with_l2(mut self, l2: L2Config) -> Self {
        self.l2 = l2;
        self
    }

    /// Returns the config with `capture_trace` replaced.
    pub fn with_capture_trace(mut self, capture: bool) -> Self {
        self.capture_trace = capture;
        self
    }

    /// Returns the config with `mshr_entries` replaced.
    pub fn with_mshr_entries(mut self, entries: usize) -> Self {
        self.mshr_entries = entries;
        self
    }

    /// The shipping Enzian configuration at a 300 MHz shell clock.
    pub fn enzian() -> Self {
        EciSystemConfig {
            map: MemoryMap::enzian_default(),
            link: EciLinkConfig::enzian(),
            policy: LinkPolicy::RoundRobin,
            fpga_clock_hz: 300_000_000,
            fpga_pipeline_cycles: 25,
            home_latency: Duration::from_ns(40),
            home_occupancy_read: Duration::from_ns(6),
            home_occupancy_write: Duration::from_ns(5),
            l2_hit_latency: Duration::from_ns(18),
            cpu_mem: MemoryControllerConfig::enzian_cpu(),
            fpga_mem: MemoryControllerConfig::enzian_fpga(),
            l2: L2Config::thunderx1(),
            capture_trace: false,
            txn_timeout: Duration::from_us(2),
            txn_retry_budget: 6,
            mshr_entries: 256,
            vc_queue_credits: 64,
        }
    }

    /// A commercial 2-socket ThunderX-1 over CCPI: both endpoints are
    /// silicon, so the "FPGA" side runs at the CPU clock with a shallow
    /// pipeline and deeper hardware data buffers. This is the §5.1
    /// reference point (19 GiB/s, ~150 ns).
    pub fn thunderx_2socket() -> Self {
        let mut cfg = EciSystemConfig::enzian();
        cfg.fpga_clock_hz = 2_000_000_000;
        cfg.fpga_pipeline_cycles = 8;
        cfg.link.response_data_credits = 6;
        cfg.home_latency = Duration::from_ns(35);
        cfg
    }
}

/// Aggregate operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EciSystemStats {
    /// FPGA-initiated uncached line reads of host memory.
    pub fpga_reads: u64,
    /// FPGA-initiated uncached line writes to host memory.
    pub fpga_writes: u64,
    /// CPU-initiated line reads (local or remote).
    pub cpu_reads: u64,
    /// CPU-initiated line writes.
    pub cpu_writes: u64,
    /// Probes sent in either direction.
    pub probes: u64,
    /// Victim write-backs sent over the link.
    pub victims: u64,
    /// Uncached I/O operations.
    pub io_ops: u64,
    /// Interrupts delivered.
    pub ipis: u64,
    /// Checked-operation attempts that timed out (each one backed off and
    /// retried, or counted toward giving up).
    pub txn_timeouts: u64,
    /// Retries that eventually went on to succeed.
    pub txn_retries: u64,
    /// Checked operations abandoned with [`TxnError::RetryBudgetExhausted`].
    pub txn_failures: u64,
}

/// Number of virtual channels an output queue is kept for.
const VC_COUNT: usize = VirtualChannel::ALL.len();

/// The scheduler type every event handler in the engine receives.
type Sched = Scheduler<Event>;

/// One event of the engine.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A transaction's next step.
    Step(Step),
    /// An engine-level credit came back to output queue (node `n`, VC `v`).
    Credit { n: u8, v: u8 },
}

// The calendar queue copies every entry on each bucket sort, so an event
// stays within four words.
const _: () = assert!(std::mem::size_of::<Event>() <= 32);

/// What a [`Step`] does when its event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepKind {
    /// The issue time came: present the transaction to the MSHR table.
    Admit,
    /// An FPGA read request reached the CPU home.
    FpgaReadAtHome,
    /// An FPGA write reached the CPU home.
    FpgaWriteAtHome,
    /// An FPGA acquire reached the CPU home.
    FpgaAcquireAtHome,
    /// An FPGA upgrade reached the CPU home.
    FpgaUpgradeAtHome,
    /// An FPGA release (victim) reached the CPU home.
    FpgaReleaseAtHome,
    /// The CPU home's response reached the FPGA.
    FpgaResponse,
    /// A probe from the CPU home reached the FPGA.
    ProbeAtFpga,
    /// Fill the CPU L2 from local DRAM (the probe ack, if any, is back).
    LocalFill,
    /// A CPU fill request reached the FPGA home.
    RemoteFillAtHome,
    /// The FPGA home's fill data reached the CPU.
    RemoteFillData,
    /// A CPU upgrade reached the FPGA home.
    RemoteUpgradeAtHome,
    /// Run the transaction's [`Ret`]: its CPU-side work is done.
    Return,
    /// A CPU L2 victim reached the FPGA home. Belongs to no record.
    Victim,
    /// The transaction's completion time came.
    Finish,
}

/// [`Step::flags`]: the probe invalidates, the fill is for a write.
const FOR_WRITE: u8 = 1;
/// [`Step::flags`]: the probe ack continues with a [`StepKind::LocalFill`]
/// (otherwise with the [`Ret`]).
const THEN_FILL: u8 = 2;
/// [`Step::flags`]: the victim carries dirty data.
const DIRTY: u8 = 4;
/// [`Step::flags`]: the released FPGA copy was owned, not shared.
const WAS_OWNER: u8 = 8;

/// One link in a transaction's event chain: everything the next event
/// needs besides the transaction's [`TxnRecord`]. It is `Copy` and is
/// scheduled as it is, so scheduling a step allocates nothing.
#[derive(Debug, Clone, Copy)]
struct Step {
    kind: StepKind,
    /// The transaction's slot in [`EngineCore::txns`].
    slot: u32,
    line: CacheLine,
    /// The protocol transaction id the step's messages carry.
    txn: TxnId,
    flags: u8,
    /// When the awaited message was delivered (for [`StepKind::Finish`],
    /// the completion time).
    delivered: Time,
}

impl Step {
    fn new(kind: StepKind, slot: u32, line: CacheLine, txn: TxnId, flags: u8) -> Self {
        Step {
            kind,
            slot,
            line,
            txn,
            flags,
            delivered: Time::ZERO,
        }
    }

    /// The same transaction's next step.
    fn then(self, kind: StepKind) -> Self {
        Step { kind, ..self }
    }

    fn has(self, flag: u8) -> bool {
        self.flags & flag != 0
    }
}

/// What a CPU-initiated transaction does once its fill or upgrade is
/// done: the return step nested fills and probes finish with.
#[derive(Debug, Clone, Copy)]
enum Ret {
    /// Read the line from its home store and complete with the data.
    Read,
    /// Complete the write miss.
    Write,
    /// Record the L2 upgrade and complete one L2 hit later.
    Upgrade,
}

/// A transaction from issue to completion: parked in
/// [`EngineCore::txns`] and named by slot in every [`Step`] of its chain.
struct TxnRecord {
    p: PendingTxn,
    /// When it left the MSHR admission queue and began service.
    issued: Time,
    /// The data it completes with, captured when the protocol reads it.
    data: Option<[u8; 128]>,
    /// Set by CPU-initiated transactions that fill or upgrade.
    ret: Option<Ret>,
}

/// A send waiting for an engine-level VC credit.
struct QueuedSend {
    ready: Time,
    msg: Message,
    step: Step,
}

/// A tiny reusable slab: slots recycle through a free stack, so the
/// steady-state insert/take cycle of transaction records touches
/// recycled memory only.
struct RecordSlab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> RecordSlab<T> {
    fn new() -> Self {
        RecordSlab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, v: T) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(v);
                i
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("record slab overflow");
                self.slots.push(Some(v));
                i
            }
        }
    }

    fn get_mut(&mut self, i: u32) -> &mut T {
        self.slots[i as usize]
            .as_mut()
            .expect("record slab slot is vacant")
    }

    fn get(&self, i: u32) -> &T {
        self.slots[i as usize]
            .as_ref()
            .expect("record slab slot is vacant")
    }

    fn take(&mut self, i: u32) -> T {
        let v = self.slots[i as usize]
            .take()
            .expect("record slab slot already taken");
        self.free.push(i);
        v
    }
}

/// One handle's entry in the [`CompletionWindow`].
enum Completion {
    InFlight,
    Done(TxnCompletion),
    Taken,
}

/// Completions by handle. Handles are issued sequentially, so the
/// window is a deque indexed by `handle - base`; taken entries at the
/// front are dropped, which keeps it as long as the span from the
/// oldest untaken handle to the newest.
struct CompletionWindow {
    /// The handle of `slots[0]`.
    base: u64,
    slots: VecDeque<Completion>,
}

impl CompletionWindow {
    fn new() -> Self {
        CompletionWindow {
            base: 1,
            slots: VecDeque::new(),
        }
    }

    /// Opens the next handle, in flight.
    fn open(&mut self) -> TxnHandle {
        self.slots.push_back(Completion::InFlight);
        TxnHandle(self.base + self.slots.len() as u64 - 1)
    }

    fn index(&self, h: TxnHandle) -> Option<usize> {
        let i = usize::try_from(h.0.checked_sub(self.base)?).ok()?;
        (i < self.slots.len()).then_some(i)
    }

    fn complete(&mut self, c: TxnCompletion) {
        let i = self.index(c.handle).expect("completion of an open handle");
        self.slots[i] = Completion::Done(c);
    }

    fn status(&self, h: TxnHandle) -> TxnStatus {
        match self.index(h).map(|i| &self.slots[i]) {
            Some(Completion::InFlight) => TxnStatus::InFlight,
            Some(Completion::Done(_)) => TxnStatus::Completed,
            Some(Completion::Taken) | None => TxnStatus::Retired,
        }
    }

    fn take(&mut self, h: TxnHandle) -> Option<TxnCompletion> {
        let i = self.index(h)?;
        let c = match std::mem::replace(&mut self.slots[i], Completion::Taken) {
            Completion::Done(c) => c,
            other => {
                self.slots[i] = other;
                return None;
            }
        };
        while matches!(self.slots.front(), Some(Completion::Taken)) {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(c)
    }
}

/// Per-(node, VC) output-queue state.
struct VcState {
    free: u32,
    waiting: VecDeque<QueuedSend>,
}

/// The simulation model: all protocol and platform state. Event handlers
/// run against this; [`EciSystem`] wraps it in a [`Simulator`].
struct EngineCore {
    cfg: EciSystemConfig,
    links: EciLinks,
    l2: L2Cache,
    cpu_mem: MemoryController,
    fpga_mem: MemoryController,
    /// Directory at the CPU home: tracks FPGA-held copies of CPU lines.
    dir_cpu: Directory,
    /// Directory at the FPGA home: tracks CPU-held copies of FPGA lines.
    dir_fpga: Directory,
    checker: ProtocolChecker,
    trace: TraceBuffer,
    io_regs: [FxHashMap<u64, u64>; 2],
    pending_ipis: [Vec<u8>; 2],
    next_txn: u32,
    cpu_home_busy: Time,
    fpga_home_busy: Time,
    stats: EciSystemStats,
    faults: Option<FaultPlan>,
    /// Transactions holding or waiting for an entry, by record slot.
    mshrs: MshrTable,
    vcq: [[VcState; VC_COUNT]; 2],
    /// Every issued transaction from issue to completion.
    txns: RecordSlab<TxnRecord>,
    completions: CompletionWindow,
    engine: EngineStats,
}

impl Model for EngineCore {
    type Event = Event;

    fn handle(&mut self, s: &mut Sched, ev: Event) {
        match ev {
            Event::Step(step) => self.run_step(s, step),
            Event::Credit { n, v } => self.vc_credit_return(s, usize::from(n), usize::from(v)),
        }
    }
}

impl EngineCore {
    fn new(cfg: EciSystemConfig) -> Self {
        EngineCore {
            links: EciLinks::new_trained(cfg.link, cfg.policy),
            l2: L2Cache::new(cfg.l2),
            cpu_mem: MemoryController::new(cfg.cpu_mem),
            fpga_mem: MemoryController::new(cfg.fpga_mem),
            dir_cpu: Directory::new(),
            dir_fpga: Directory::new(),
            checker: ProtocolChecker::new(),
            trace: TraceBuffer::new(),
            io_regs: Default::default(),
            pending_ipis: [Vec::new(), Vec::new()],
            next_txn: 0,
            cpu_home_busy: Time::ZERO,
            fpga_home_busy: Time::ZERO,
            stats: EciSystemStats::default(),
            faults: None,
            mshrs: MshrTable::new(cfg.mshr_entries),
            vcq: std::array::from_fn(|_| {
                std::array::from_fn(|_| VcState {
                    free: cfg.vc_queue_credits,
                    waiting: VecDeque::new(),
                })
            }),
            txns: RecordSlab::new(),
            completions: CompletionWindow::new(),
            engine: EngineStats::default(),
            cfg,
        }
    }

    fn fpga_delay(&self) -> Duration {
        Duration::from_hz(self.cfg.fpga_clock_hz) * u64::from(self.cfg.fpga_pipeline_cycles)
    }

    fn txn(&mut self) -> TxnId {
        self.next_txn = self.next_txn.wrapping_add(1);
        TxnId(self.next_txn)
    }

    fn emit(&mut self, at: Time, msg: &Message) -> Time {
        if self.cfg.capture_trace {
            self.trace.capture(at, msg);
        }
        // Checker failures record themselves; they surface via
        // `checker().assert_clean()` at the end of a run. The checker sees
        // each logical message exactly once — frame-level retransmission
        // below happens underneath it.
        let _ = self.checker.observe_message(msg);
        match self.faults.as_mut() {
            Some(plan) => self.links.send_faulty(at, msg, plan).delivered,
            None => self.links.send(at, msg).delivered,
        }
    }

    /// Runs the stall/timeout/retry state machine that fronts every
    /// checked operation. Returns the time at which the operation may
    /// actually issue (after any timed-out attempts), or a typed error
    /// once the retry budget is spent. A stalled attempt emits nothing:
    /// the request died in the requester's queue.
    fn wait_out_stalls(&mut self, now: Time, op: &'static str) -> Result<Time, TxnError> {
        let Some(plan) = self.faults.as_mut() else {
            return Ok(now);
        };
        let mut at = now;
        let mut attempts = 0u32;
        loop {
            if !plan.should_fire(TXN_STALL_TARGET, at) {
                if attempts > 0 {
                    self.stats.txn_retries += u64::from(attempts);
                    plan.note_recovery(TXN_STALL_TARGET, at, at.since(now));
                }
                return Ok(at);
            }
            attempts += 1;
            self.stats.txn_timeouts += 1;
            // Bounded exponential backoff: attempt k waits timeout << k,
            // capped to keep the shift defined for absurd budgets.
            let backoff = self.cfg.txn_timeout * (1u64 << (attempts - 1).min(16));
            at += backoff;
            if attempts > self.cfg.txn_retry_budget {
                self.stats.txn_failures += 1;
                return Err(TxnError::RetryBudgetExhausted {
                    op,
                    attempts,
                    waited: at.since(now),
                });
            }
        }
    }

    fn l2_transition(&mut self, line: CacheLine, from: LineState, to: LineState) {
        let _ = self.checker.observe_transition(NodeId::Cpu, line, from, to);
    }

    fn fpga_transition(&mut self, line: CacheLine, from: LineState, to: LineState) {
        let _ = self
            .checker
            .observe_transition(NodeId::Fpga, line, from, to);
    }

    fn home_store(&self, home: NodeId) -> &enzian_mem::Store {
        match home {
            NodeId::Cpu => self.cpu_mem.store(),
            NodeId::Fpga => self.fpga_mem.store(),
        }
    }

    fn node_index(n: NodeId) -> usize {
        match n {
            NodeId::Cpu => 0,
            NodeId::Fpga => 1,
        }
    }

    // ---------------------------------------------------------------
    // Engine-level VC queues with credit-based flow control
    // ---------------------------------------------------------------

    /// Sends `msg` on its virtual channel no earlier than `ready`; `step`
    /// runs at the delivery time. With no engine-level credit free on the
    /// (source node, VC) queue, the send waits its turn.
    fn vc_send(&mut self, s: &mut Sched, ready: Time, msg: Message, step: Step) {
        let n = Self::node_index(msg.src);
        let v = msg.kind.virtual_channel().index();
        if self.vcq[n][v].free == 0 {
            self.engine.vc_queue_stalls += 1;
            self.vcq[n][v]
                .waiting
                .push_back(QueuedSend { ready, msg, step });
            return;
        }
        self.vcq[n][v].free -= 1;
        self.dispatch_send(s, ready, msg, step);
    }

    /// Emits a credit-holding send and schedules `step` at the delivery
    /// time and the credit's return after it.
    fn dispatch_send(&mut self, s: &mut Sched, ready: Time, msg: Message, step: Step) {
        let n = Self::node_index(msg.src);
        let v = msg.kind.virtual_channel().index();
        let at = ready.max(s.now());
        let delivered = self.emit(at, &msg);
        let credit_back = delivered + self.cfg.link.credit_return;
        s.schedule_at_or_now(
            credit_back,
            Event::Credit {
                n: n as u8,
                v: v as u8,
            },
        );
        self.schedule_step(s, Step { delivered, ..step });
    }

    /// A credit came back on queue (`n`, `v`): hand it to the oldest
    /// waiting send, or bank it.
    fn vc_credit_return(&mut self, s: &mut Sched, n: usize, v: usize) {
        if let Some(q) = self.vcq[n][v].waiting.pop_front() {
            self.dispatch_send(s, q.ready, q.msg, q.step);
        } else {
            self.vcq[n][v].free += 1;
        }
    }

    // ---------------------------------------------------------------
    // Steps: the engine's events
    // ---------------------------------------------------------------

    /// Schedules `step` at its `delivered` time (or now, if later).
    fn schedule_step(&mut self, s: &mut Sched, step: Step) {
        s.schedule_at_or_now(step.delivered, Event::Step(step));
    }

    fn run_step(&mut self, s: &mut Sched, step: Step) {
        match step.kind {
            StepKind::Admit => self.admit_txn(s, step.slot),
            StepKind::FpgaReadAtHome => self.fpga_read_at_home(s, step),
            StepKind::FpgaWriteAtHome => self.fpga_write_at_home(s, step),
            StepKind::FpgaAcquireAtHome => self.fpga_acquire_at_home(s, step),
            StepKind::FpgaUpgradeAtHome => self.fpga_upgrade_at_home(s, step),
            StepKind::FpgaReleaseAtHome => self.fpga_release_at_home(s, step),
            StepKind::FpgaResponse => {
                let end = step.delivered + self.fpga_delay();
                self.finish(s, step.slot, end);
            }
            StepKind::ProbeAtFpga => self.probe_at_fpga(s, step),
            StepKind::LocalFill => {
                self.local_fill(s, step.slot, step.line, step.has(FOR_WRITE), step.delivered)
            }
            StepKind::RemoteFillAtHome => self.remote_fill_at_home(s, step),
            StepKind::RemoteFillData => {
                let state = if step.has(FOR_WRITE) {
                    LineState::Modified
                } else {
                    LineState::Shared
                };
                self.fill_l2(s, step.delivered, step.line, state);
                let done = step.delivered + self.cfg.l2_hit_latency;
                self.ret(s, step.slot, done);
            }
            StepKind::RemoteUpgradeAtHome => {
                let service = step.delivered + self.fpga_delay();
                self.dir_fpga.grant_owner(step.line);
                let ack = Message::new(
                    NodeId::Fpga,
                    NodeId::Cpu,
                    step.txn,
                    MessageKind::Ack(step.line),
                );
                self.vc_send(s, service, ack, step.then(StepKind::Return));
            }
            StepKind::Return => self.ret(s, step.slot, step.delivered),
            StepKind::Victim => {
                if step.has(DIRTY) {
                    let _ = self
                        .fpga_mem
                        .request(step.delivered, step.line.base(), 128, Op::Write);
                }
                self.dir_fpga.revoke(step.line);
            }
            StepKind::Finish => self.complete(s, step.slot, step.delivered),
        }
    }

    // ---------------------------------------------------------------
    // Transaction admission and retirement
    // ---------------------------------------------------------------

    fn admit_txn(&mut self, s: &mut Sched, slot: u32) {
        let key = self.txns.get(slot).p.addr.line().base().0;
        match self.mshrs.admit(key, slot) {
            Admitted::Start(slot) => self.begin(s, slot),
            Admitted::Conflict => self.engine.mshr_conflicts += 1,
            Admitted::Full => self.engine.mshr_full_stalls += 1,
        }
    }

    fn begin(&mut self, s: &mut Sched, slot: u32) {
        self.engine.started += 1;
        self.engine.max_inflight = self.engine.max_inflight.max(self.mshrs.in_flight() as u64);
        let rec = self.txns.get_mut(slot);
        rec.issued = s.now();
        let p = rec.p;
        match p.op {
            TxnOp::FpgaRead => self.begin_fpga_read(s, slot, p),
            TxnOp::FpgaWrite(_) => self.begin_fpga_write(s, slot, p),
            TxnOp::FpgaAcquire { .. } => self.begin_fpga_acquire(s, slot, p),
            TxnOp::FpgaUpgrade => self.begin_fpga_upgrade(s, slot, p),
            TxnOp::FpgaRelease(_) => self.begin_fpga_release(s, slot, p),
            TxnOp::CpuRead => self.begin_cpu_read(s, slot, p),
            TxnOp::CpuWrite(_) => self.begin_cpu_write(s, slot, p),
        }
    }

    /// Schedules the completion of transaction `slot` at `end`.
    fn finish(&mut self, s: &mut Sched, slot: u32, end: Time) {
        let mut step = Step::new(StepKind::Finish, slot, CacheLine(0), TxnId(0), 0);
        step.delivered = end;
        self.schedule_step(s, step);
    }

    /// Like [`EngineCore::finish`], completing with `data`.
    fn finish_with(&mut self, s: &mut Sched, slot: u32, data: [u8; 128], end: Time) {
        self.txns.get_mut(slot).data = Some(data);
        self.finish(s, slot, end);
    }

    fn complete(&mut self, s: &mut Sched, slot: u32, at: Time) {
        let rec = self.txns.take(slot);
        self.engine.completed += 1;
        self.completions.complete(TxnCompletion {
            handle: rec.p.handle,
            addr: rec.p.addr,
            op: rec.p.op.name(),
            issued: rec.issued,
            completed: at,
            data: rec.data,
        });
        if let Some(next) = self.mshrs.retire(rec.p.addr.line().base().0) {
            self.begin(s, next);
        }
    }

    /// Runs the return step of CPU transaction `slot`, whose fill or
    /// upgrade is done at `at`.
    fn ret(&mut self, s: &mut Sched, slot: u32, at: Time) {
        let rec = self.txns.get(slot);
        let addr = rec.p.addr;
        match rec.ret.expect("CPU transaction has a return step") {
            Ret::Read => {
                let home = self.cfg.map.home_of(addr);
                let data = self.home_store(home).read_line(addr);
                self.finish_with(s, slot, data, at);
            }
            Ret::Write => self.finish(s, slot, at),
            Ret::Upgrade => {
                self.l2_transition(addr.line(), LineState::Shared, LineState::Modified);
                self.finish(s, slot, at + self.cfg.l2_hit_latency);
            }
        }
    }

    // ---------------------------------------------------------------
    // FPGA-initiated uncached coherent accesses (the §5.1 benchmark)
    // ---------------------------------------------------------------

    /// Sends an FPGA request to the CPU home one FPGA pipeline after the
    /// transaction began; `kind` runs when it arrives.
    fn fpga_request(
        &mut self,
        s: &mut Sched,
        slot: u32,
        msg: MessageKind,
        kind: StepKind,
        flags: u8,
    ) {
        let issue = s.now() + self.fpga_delay();
        let line = self.txns.get(slot).p.addr.line();
        let txn = self.txn();
        let step = Step::new(kind, slot, line, txn, flags);
        self.vc_send(
            s,
            issue,
            Message::new(NodeId::Fpga, NodeId::Cpu, txn, msg),
            step,
        );
    }

    /// Occupies the CPU home pipeline for a request delivered at
    /// `delivered`; returns when its lookup is done. The pipeline accepts
    /// one line per occupancy slot; the lookup latency is pipelined
    /// (latency, not occupancy).
    fn cpu_home_accept(&mut self, delivered: Time, occupancy: Duration) -> Time {
        let accept = delivered.max(self.cpu_home_busy);
        self.cpu_home_busy = accept + occupancy;
        accept + self.cfg.home_latency
    }

    /// When the CPU home has `line`'s data: an L2 hit or a DRAM read.
    fn cpu_home_data_ready(&mut self, line: CacheLine, lookup_done: Time) -> Time {
        if self.l2.state_of(line).is_readable() {
            lookup_done + self.cfg.l2_hit_latency
        } else {
            self.cpu_mem
                .request(lookup_done, line.base(), 128, Op::Read)
        }
    }

    /// Sends the CPU home's response for `step`'s transaction; the FPGA
    /// sees it complete one pipeline after delivery.
    fn cpu_home_respond(&mut self, s: &mut Sched, step: Step, ready: Time, kind: MessageKind) {
        let rsp = Message::new(NodeId::Cpu, NodeId::Fpga, step.txn, kind);
        self.vc_send(s, ready, rsp, step.then(StepKind::FpgaResponse));
    }

    fn begin_fpga_read(&mut self, s: &mut Sched, slot: u32, p: PendingTxn) {
        self.stats.fpga_reads += 1;
        let msg = MessageKind::ReadOnce(p.addr.line());
        self.fpga_request(s, slot, msg, StepKind::FpgaReadAtHome, 0);
    }

    /// ReadOnce leaves L2 state untouched: no copy is created at the
    /// requester.
    fn fpga_read_at_home(&mut self, s: &mut Sched, step: Step) {
        let line = step.line;
        let lookup_done = self.cpu_home_accept(step.delivered, self.cfg.home_occupancy_read);
        let data_ready = self.cpu_home_data_ready(line, lookup_done);
        let data = self.cpu_mem.store().read_line(line.base());
        self.txns.get_mut(step.slot).data = Some(data);
        self.cpu_home_respond(
            s,
            step,
            data_ready,
            MessageKind::DataShared(line, Box::new(data)),
        );
    }

    fn begin_fpga_write(&mut self, s: &mut Sched, slot: u32, p: PendingTxn) {
        let TxnOp::FpgaWrite(data) = p.op else {
            unreachable!("begin_fpga_write on {:?}", p.op)
        };
        self.stats.fpga_writes += 1;
        let msg = MessageKind::WriteLine(p.addr.line(), Box::new(data));
        self.fpga_request(s, slot, msg, StepKind::FpgaWriteAtHome, 0);
    }

    fn fpga_write_at_home(&mut self, s: &mut Sched, step: Step) {
        let TxnOp::FpgaWrite(data) = self.txns.get(step.slot).p.op else {
            unreachable!("fpga_write_at_home on another op")
        };
        let line = step.line;
        let lookup_done = self.cpu_home_accept(step.delivered, self.cfg.home_occupancy_write);
        // Invalidate any local L2 copy (the home and the cache share a
        // die, so this is a local pipeline action, not a link message).
        let was = self.l2.state_of(line);
        if was.is_readable() {
            self.l2.probe(line, true);
            self.l2_transition(line, was, LineState::Invalid);
        }
        let done = self.cpu_mem.write(lookup_done, line.base(), &data[..]);
        self.cpu_home_respond(s, step, done, MessageKind::Ack(line));
    }

    // ---------------------------------------------------------------
    // FPGA-side cached lines (remote-memory research path)
    // ---------------------------------------------------------------

    fn begin_fpga_acquire(&mut self, s: &mut Sched, slot: u32, p: PendingTxn) {
        let TxnOp::FpgaAcquire { exclusive } = p.op else {
            unreachable!("begin_fpga_acquire on {:?}", p.op)
        };
        let line = p.addr.line();
        let msg = if exclusive {
            MessageKind::ReadExclusive(line)
        } else {
            MessageKind::ReadShared(line)
        };
        self.fpga_request(s, slot, msg, StepKind::FpgaAcquireAtHome, 0);
    }

    fn fpga_acquire_at_home(&mut self, s: &mut Sched, step: Step) {
        let TxnOp::FpgaAcquire { exclusive } = self.txns.get(step.slot).p.op else {
            unreachable!("fpga_acquire_at_home on another op")
        };
        let line = step.line;
        let lookup_done = self.cpu_home_accept(step.delivered, self.cfg.home_occupancy_read);
        // Exclusive grants require invalidating the CPU L2 copy.
        let was = self.l2.state_of(line);
        if exclusive && was.is_readable() {
            self.l2.probe(line, true);
            self.l2_transition(line, was, LineState::Invalid);
        } else if !exclusive && was.is_writable() {
            self.l2.probe(line, false);
            self.l2_transition(
                line,
                was,
                if was.is_dirty() {
                    LineState::Owned
                } else {
                    LineState::Shared
                },
            );
        }
        let data_ready = self.cpu_home_data_ready(line, lookup_done);

        let data = self.cpu_mem.store().read_line(line.base());
        self.txns.get_mut(step.slot).data = Some(data);
        if exclusive {
            self.dir_cpu.grant_owner(line);
            self.fpga_transition(line, LineState::Invalid, LineState::Shared);
            self.fpga_transition(line, LineState::Shared, LineState::Modified);
        } else {
            self.dir_cpu.grant_shared(line);
            self.fpga_transition(line, LineState::Invalid, LineState::Shared);
        }
        let kind = if exclusive {
            MessageKind::DataExclusive(line, Box::new(data))
        } else {
            MessageKind::DataShared(line, Box::new(data))
        };
        self.cpu_home_respond(s, step, data_ready, kind);
    }

    fn begin_fpga_upgrade(&mut self, s: &mut Sched, slot: u32, p: PendingTxn) {
        let line = p.addr.line();
        assert_eq!(
            self.dir_cpu.remote_copy(line),
            RemoteCopy::Shared,
            "upgrade without a shared copy of {line}"
        );
        let msg = MessageKind::Upgrade(line);
        self.fpga_request(s, slot, msg, StepKind::FpgaUpgradeAtHome, 0);
    }

    fn fpga_upgrade_at_home(&mut self, s: &mut Sched, step: Step) {
        let line = step.line;
        let lookup_done = self.cpu_home_accept(step.delivered, self.cfg.home_occupancy_write);
        // Invalidate the home's own (necessarily clean) copy.
        let was = self.l2.state_of(line);
        if was.is_readable() {
            self.l2.probe(line, true);
            self.l2_transition(line, was, LineState::Invalid);
        }
        self.dir_cpu.grant_owner(line);
        self.fpga_transition(line, LineState::Shared, LineState::Modified);
        self.cpu_home_respond(s, step, lookup_done, MessageKind::Ack(line));
    }

    fn begin_fpga_release(&mut self, s: &mut Sched, slot: u32, p: PendingTxn) {
        let TxnOp::FpgaRelease(dirty) = p.op else {
            unreachable!("begin_fpga_release on {:?}", p.op)
        };
        let line = p.addr.line();
        let flags = match self.dir_cpu.remote_copy(line) {
            RemoteCopy::Owner => WAS_OWNER,
            RemoteCopy::Shared => 0,
            RemoteCopy::None => panic!("release of unheld line {line}"),
        };
        self.stats.victims += 1;
        let msg = match dirty {
            Some(d) => MessageKind::VictimDirty(line, Box::new(d)),
            None => MessageKind::VictimClean(line),
        };
        self.fpga_request(s, slot, msg, StepKind::FpgaReleaseAtHome, flags);
    }

    fn fpga_release_at_home(&mut self, s: &mut Sched, step: Step) {
        let TxnOp::FpgaRelease(dirty) = self.txns.get(step.slot).p.op else {
            unreachable!("fpga_release_at_home on another op")
        };
        let line = step.line;
        let lookup_done = self.cpu_home_accept(step.delivered, self.cfg.home_occupancy_write);
        let done = match dirty {
            Some(d) => self.cpu_mem.write(lookup_done, line.base(), &d[..]),
            None => lookup_done,
        };
        self.dir_cpu.revoke(line);
        let was = if step.has(WAS_OWNER) {
            LineState::Modified
        } else {
            LineState::Shared
        };
        self.fpga_transition(line, was, LineState::Invalid);
        self.finish(s, step.slot, done);
    }

    // ---------------------------------------------------------------
    // CPU-initiated cached accesses
    // ---------------------------------------------------------------

    fn begin_cpu_read(&mut self, s: &mut Sched, slot: u32, p: PendingTxn) {
        let issued = s.now();
        self.stats.cpu_reads += 1;
        let line = p.addr.line();
        let home = self.cfg.map.home_of(p.addr);
        match self.l2.read(line) {
            AccessOutcome::Hit => {
                let data = self.home_store(home).read_line(p.addr);
                self.finish_with(s, slot, data, issued + self.cfg.l2_hit_latency);
            }
            AccessOutcome::UpgradeMiss => unreachable!("reads do not upgrade"),
            AccessOutcome::Miss(_) => {
                self.txns.get_mut(slot).ret = Some(Ret::Read);
                match home {
                    NodeId::Cpu => self.local_fill_cpu(s, slot, issued, line, false),
                    NodeId::Fpga => self.remote_fill_from_fpga(s, slot, issued, line, false),
                }
            }
        }
    }

    fn begin_cpu_write(&mut self, s: &mut Sched, slot: u32, p: PendingTxn) {
        let TxnOp::CpuWrite(data) = p.op else {
            unreachable!("begin_cpu_write on {:?}", p.op)
        };
        let issued = s.now();
        self.stats.cpu_writes += 1;
        let line = p.addr.line();
        let home = self.cfg.map.home_of(p.addr);
        let outcome = self.l2.write(line);
        // Functional convention: data commits to the home store now.
        match home {
            NodeId::Cpu => self.cpu_mem.store_mut().write_line(p.addr, &data),
            NodeId::Fpga => self.fpga_mem.store_mut().write_line(p.addr, &data),
        }
        match outcome {
            AccessOutcome::Hit => {
                self.finish(s, slot, issued + self.cfg.l2_hit_latency);
            }
            AccessOutcome::UpgradeMiss => {
                // Invalidate remote sharers, then proceed.
                self.txns.get_mut(slot).ret = Some(Ret::Upgrade);
                self.invalidate_remote_sharers(s, slot, issued, p.addr);
            }
            AccessOutcome::Miss(_) => {
                self.txns.get_mut(slot).ret = Some(Ret::Write);
                match home {
                    NodeId::Cpu => self.local_fill_cpu(s, slot, issued, line, true),
                    NodeId::Fpga => self.remote_fill_from_fpga(s, slot, issued, line, true),
                }
            }
        }
    }

    /// Fill from local (CPU) DRAM, probing the FPGA first if it holds the
    /// line; the transaction's return step runs at the fill-visible time
    /// (including the L2 hit latency).
    fn local_fill_cpu(
        &mut self,
        s: &mut Sched,
        slot: u32,
        now: Time,
        line: CacheLine,
        for_write: bool,
    ) {
        let need_probe = if for_write {
            self.dir_cpu.needs_probe_for_write(line)
        } else {
            self.dir_cpu.needs_probe_for_read(line)
        };
        if need_probe {
            self.probe_fpga(s, slot, now, line, for_write, THEN_FILL);
        } else {
            self.local_fill(s, slot, line, for_write, now);
        }
    }

    /// The DRAM read and L2 install of a local fill started at `ready`.
    fn local_fill(
        &mut self,
        s: &mut Sched,
        slot: u32,
        line: CacheLine,
        for_write: bool,
        ready: Time,
    ) {
        let done = self.cpu_mem.request(ready, line.base(), 128, Op::Read);
        let state = if for_write {
            LineState::Modified
        } else if self.dir_cpu.remote_copy(line) == RemoteCopy::Shared {
            LineState::Shared
        } else {
            LineState::Exclusive
        };
        self.fill_l2(s, done, line, state);
        self.ret(s, slot, done + self.cfg.l2_hit_latency);
    }

    /// Fill over ECI from the FPGA home ("loads appear exactly like
    /// NUMA-remote L2 refills in a 2-socket system").
    fn remote_fill_from_fpga(
        &mut self,
        s: &mut Sched,
        slot: u32,
        now: Time,
        line: CacheLine,
        for_write: bool,
    ) {
        let txn = self.txn();
        let (kind, flags) = if for_write {
            (MessageKind::ReadExclusive(line), FOR_WRITE)
        } else {
            (MessageKind::ReadShared(line), 0)
        };
        let step = Step::new(StepKind::RemoteFillAtHome, slot, line, txn, flags);
        self.vc_send(
            s,
            now,
            Message::new(NodeId::Cpu, NodeId::Fpga, txn, kind),
            step,
        );
    }

    /// FPGA home: shell pipeline + DRAM.
    fn remote_fill_at_home(&mut self, s: &mut Sched, step: Step) {
        let line = step.line;
        let service = step.delivered.max(self.fpga_home_busy) + self.fpga_delay();
        let data_ready = self.fpga_mem.request(service, line.base(), 128, Op::Read);
        self.fpga_home_busy = service + Duration::from_hz(self.cfg.fpga_clock_hz);

        let data = self.fpga_mem.store().read_line(line.base());
        let kind = if step.has(FOR_WRITE) {
            self.dir_fpga.grant_owner(line);
            MessageKind::DataExclusive(line, Box::new(data))
        } else {
            self.dir_fpga.grant_shared(line);
            MessageKind::DataShared(line, Box::new(data))
        };
        let msg = Message::new(NodeId::Fpga, NodeId::Cpu, step.txn, kind);
        self.vc_send(s, data_ready, msg, step.then(StepKind::RemoteFillData));
    }

    /// Installs a line in the L2, handling the displaced victim.
    fn fill_l2(&mut self, s: &mut Sched, now: Time, line: CacheLine, state: LineState) {
        self.l2_transition(line, LineState::Invalid, state);
        if let Some(ev) = self.l2.fill(line, state) {
            self.l2_transition(ev.line, ev.state, LineState::Invalid);
            let victim_home = self.cfg.map.home_of(ev.line.base());
            match victim_home {
                NodeId::Cpu => {
                    if ev.state.is_dirty() {
                        // Local write-back; data is already in the store.
                        let _ = self.cpu_mem.request(now, ev.line.base(), 128, Op::Write);
                    }
                }
                NodeId::Fpga => {
                    // Notify the FPGA home so its directory stays exact.
                    self.stats.victims += 1;
                    let txn = self.txn();
                    let (kind, flags) = if ev.state.is_dirty() {
                        let data = self.fpga_mem.store().read_line(ev.line.base());
                        (MessageKind::VictimDirty(ev.line, Box::new(data)), DIRTY)
                    } else {
                        (MessageKind::VictimClean(ev.line), 0)
                    };
                    let step = Step::new(StepKind::Victim, 0, ev.line, txn, flags);
                    self.vc_send(
                        s,
                        now,
                        Message::new(NodeId::Cpu, NodeId::Fpga, txn, kind),
                        step,
                    );
                }
            }
        }
    }

    /// Sends a probe to the FPGA; the step after the ack is the local
    /// fill (`then` = [`THEN_FILL`]) or the transaction's return step.
    fn probe_fpga(
        &mut self,
        s: &mut Sched,
        slot: u32,
        now: Time,
        line: CacheLine,
        for_write: bool,
        then: u8,
    ) {
        self.stats.probes += 1;
        let txn = self.txn();
        let (kind, flags) = if for_write {
            (MessageKind::ProbeInvalidate(line), FOR_WRITE | then)
        } else {
            (MessageKind::ProbeShared(line), then)
        };
        let step = Step::new(StepKind::ProbeAtFpga, slot, line, txn, flags);
        self.vc_send(
            s,
            now,
            Message::new(NodeId::Cpu, NodeId::Fpga, txn, kind),
            step,
        );
    }

    fn probe_at_fpga(&mut self, s: &mut Sched, step: Step) {
        let line = step.line;
        let service = step.delivered + self.fpga_delay();
        let was_owner = self.dir_cpu.remote_copy(line) == RemoteCopy::Owner;
        let ack_kind = if was_owner {
            let data = self.cpu_mem.store().read_line(line.base());
            MessageKind::ProbeAckData(line, Box::new(data))
        } else {
            MessageKind::ProbeAck(line)
        };
        if step.has(FOR_WRITE) {
            self.dir_cpu.revoke(line);
            let from = if was_owner {
                LineState::Modified
            } else {
                LineState::Shared
            };
            self.fpga_transition(line, from, LineState::Invalid);
        } else if was_owner {
            self.dir_cpu.downgrade(line);
            self.fpga_transition(line, LineState::Modified, LineState::Owned);
        }
        let next = if step.has(THEN_FILL) {
            StepKind::LocalFill
        } else {
            StepKind::Return
        };
        let ack = Message::new(NodeId::Fpga, NodeId::Cpu, step.txn, ack_kind);
        self.vc_send(s, service, ack, step.then(next));
    }

    /// Invalidates remote sharers before a CPU upgrade completes; the
    /// return step runs once the last sharer is gone.
    fn invalidate_remote_sharers(&mut self, s: &mut Sched, slot: u32, now: Time, addr: Addr) {
        let line = addr.line();
        match self.cfg.map.home_of(addr) {
            NodeId::Cpu => {
                if self.dir_cpu.needs_probe_for_write(line) {
                    self.probe_fpga(s, slot, now, line, true, 0);
                } else {
                    self.ret(s, slot, now);
                }
            }
            // FPGA-homed: the FPGA home tracks us as a sharer; an upgrade
            // message promotes us to owner there.
            NodeId::Fpga => {
                let txn = self.txn();
                let step = Step::new(StepKind::RemoteUpgradeAtHome, slot, line, txn, 0);
                let msg = Message::new(NodeId::Cpu, NodeId::Fpga, txn, MessageKind::Upgrade(line));
                self.vc_send(s, now, msg, step);
            }
        }
    }

    // ---------------------------------------------------------------
    // Uncached I/O and interrupts (synchronous: they bypass the
    // coherence transaction engine entirely)
    // ---------------------------------------------------------------

    fn io_write(&mut self, now: Time, from: NodeId, reg: Addr, size: u8, data: u64) -> Time {
        assert!(matches!(size, 1 | 2 | 4 | 8), "bad i/o size {size}");
        self.stats.io_ops += 1;
        let txn = self.txn();
        let to = from.peer();
        let delivered = self.emit(
            now,
            &Message::new(
                from,
                to,
                txn,
                MessageKind::IoWrite {
                    addr: reg,
                    size,
                    data,
                },
            ),
        );
        let mask = if size == 8 {
            u64::MAX
        } else {
            (1u64 << (size * 8)) - 1
        };
        let regs = &mut self.io_regs[Self::node_index(to)];
        let slot = regs.entry(reg.0).or_insert(0);
        *slot = (*slot & !mask) | (data & mask);
        self.emit(
            delivered,
            &Message::new(to, from, txn, MessageKind::IoAck { addr: reg }),
        )
    }

    fn io_read(&mut self, now: Time, from: NodeId, reg: Addr, size: u8) -> (u64, Time) {
        assert!(matches!(size, 1 | 2 | 4 | 8), "bad i/o size {size}");
        self.stats.io_ops += 1;
        let txn = self.txn();
        let to = from.peer();
        let delivered = self.emit(
            now,
            &Message::new(from, to, txn, MessageKind::IoRead { addr: reg, size }),
        );
        let raw = *self.io_regs[Self::node_index(to)].get(&reg.0).unwrap_or(&0);
        let mask = if size == 8 {
            u64::MAX
        } else {
            (1u64 << (size * 8)) - 1
        };
        let value = raw & mask;
        let done = self.emit(
            delivered,
            &Message::new(
                to,
                from,
                txn,
                MessageKind::IoData {
                    addr: reg,
                    data: value,
                },
            ),
        );
        (value, done)
    }

    fn ipi(&mut self, now: Time, from: NodeId, vector: u8) -> Time {
        self.stats.ipis += 1;
        let txn = self.txn();
        let to = from.peer();
        let delivered = self.emit(
            now,
            &Message::new(from, to, txn, MessageKind::Ipi { vector }),
        );
        self.pending_ipis[Self::node_index(to)].push(vector);
        delivered
    }
}

/// The complete two-node system: an event-driven transaction engine with
/// a synchronous facade (see the module docs for the two surfaces).
pub struct EciSystem {
    sim: Simulator<EngineCore>,
}

impl std::fmt::Debug for EciSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EciSystem")
            .field("stats", &self.core().stats)
            .field("messages", &self.core().links.messages_sent())
            .finish()
    }
}

impl EciSystem {
    /// Builds a system with both links already trained.
    pub fn new(cfg: EciSystemConfig) -> Self {
        EciSystem {
            sim: Simulator::new(EngineCore::new(cfg)),
        }
    }

    fn core(&self) -> &EngineCore {
        self.sim.model()
    }

    fn core_mut(&mut self) -> &mut EngineCore {
        self.sim.model_mut()
    }

    /// Installs a fault plan: every subsequent message send gives the plan
    /// a chance to corrupt or drop the frame or fail a lane, and every
    /// checked (`try_*`) operation a chance to stall. Replaces any
    /// previously installed plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.core_mut().faults = Some(plan);
    }

    /// The installed fault plan, if any (for inspecting injection and
    /// recovery counts mid-run).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.core().faults.as_ref()
    }

    /// Removes and returns the installed fault plan.
    pub fn take_fault_plan(&mut self) -> Option<FaultPlan> {
        self.core_mut().faults.take()
    }

    /// The system configuration.
    pub fn config(&self) -> &EciSystemConfig {
        &self.core().cfg
    }

    /// The link pair (for bandwidth accounting and policy changes).
    pub fn links(&self) -> &EciLinks {
        &self.core().links
    }

    /// Mutable link access (e.g. to change the balancing policy).
    pub fn links_mut(&mut self) -> &mut EciLinks {
        &mut self.core_mut().links
    }

    /// The CPU L2 model.
    pub fn l2(&self) -> &L2Cache {
        &self.core().l2
    }

    /// The CPU-side memory controller (and its backing store).
    pub fn cpu_mem(&mut self) -> &mut MemoryController {
        &mut self.core_mut().cpu_mem
    }

    /// The FPGA-side memory controller (and its backing store).
    pub fn fpga_mem(&mut self) -> &mut MemoryController {
        &mut self.core_mut().fpga_mem
    }

    /// The online protocol checker.
    pub fn checker(&self) -> &ProtocolChecker {
        &self.core().checker
    }

    /// The captured trace (empty unless `capture_trace` was set).
    pub fn trace(&self) -> &TraceBuffer {
        &self.core().trace
    }

    /// Aggregate operation counters.
    pub fn stats(&self) -> &EciSystemStats {
        &self.core().stats
    }

    /// Counters of the transaction engine itself: admissions, MSHR
    /// conflicts and full-table stalls, VC-queue credit stalls, and the
    /// in-flight high-water mark.
    pub fn engine_stats(&self) -> &EngineStats {
        &self.core().engine
    }

    // ---------------------------------------------------------------
    // Async issue/poll API
    // ---------------------------------------------------------------

    /// Issues `op` on `addr` at time `at` (clamped to the engine's
    /// current time) and returns a handle to poll or block on. The
    /// transaction is admitted through the MSHR table when the simulator
    /// reaches `at`; nothing runs until [`EciSystem::run_until_complete`]
    /// or [`EciSystem::run_to_idle`] drives the event loop.
    ///
    /// # Panics
    ///
    /// Panics if an FPGA-initiated `op` targets memory that is not
    /// CPU-homed.
    pub fn issue(&mut self, at: Time, addr: Addr, op: TxnOp) -> TxnHandle {
        match op {
            TxnOp::FpgaRead => assert_eq!(
                self.core().cfg.map.home_of(addr),
                NodeId::Cpu,
                "fpga_read_line wants CPU-homed memory"
            ),
            TxnOp::FpgaWrite(_) => assert_eq!(
                self.core().cfg.map.home_of(addr),
                NodeId::Cpu,
                "fpga_write_line wants CPU-homed memory"
            ),
            TxnOp::FpgaAcquire { .. } => {
                assert_eq!(self.core().cfg.map.home_of(addr), NodeId::Cpu)
            }
            _ => {}
        }
        let core = self.core_mut();
        let handle = core.completions.open();
        let slot = core.txns.insert(TxnRecord {
            p: PendingTxn { handle, addr, op },
            issued: Time::ZERO,
            data: None,
            ret: None,
        });
        let mut step = Step::new(StepKind::Admit, slot, addr.line(), TxnId(0), 0);
        step.delivered = at;
        self.sim.schedule_at_or_now(at, Event::Step(step));
        handle
    }

    /// Issues an FPGA uncached coherent read ([`TxnOp::FpgaRead`]).
    pub fn issue_read(&mut self, at: Time, addr: Addr) -> TxnHandle {
        self.issue(at, addr, TxnOp::FpgaRead)
    }

    /// Issues an FPGA uncached coherent write ([`TxnOp::FpgaWrite`]).
    pub fn issue_write(&mut self, at: Time, addr: Addr, data: &[u8; 128]) -> TxnHandle {
        self.issue(at, addr, TxnOp::FpgaWrite(*data))
    }

    /// Where transaction `h` currently is. [`TxnStatus::Completed`] means
    /// a completion waits in the table; [`TxnStatus::Retired`] means the
    /// handle was never issued or its completion was already taken.
    pub fn poll(&self, h: TxnHandle) -> TxnStatus {
        self.core().completions.status(h)
    }

    /// Removes and returns the completion of `h`, if it completed.
    pub fn take_completion(&mut self, h: TxnHandle) -> Option<TxnCompletion> {
        self.core_mut().completions.take(h)
    }

    /// Runs the event loop until `h` completes, returning (and consuming)
    /// its completion. Other in-flight transactions keep making progress
    /// alongside it.
    ///
    /// # Panics
    ///
    /// Panics if the event queue runs dry first — i.e. `h` was never
    /// issued, or its completion was already taken.
    pub fn run_until_complete(&mut self, h: TxnHandle) -> TxnCompletion {
        loop {
            if let Some(c) = self.core_mut().completions.take(h) {
                return c;
            }
            assert!(
                self.sim.step(),
                "transaction {h:?} cannot complete: the event queue ran dry"
            );
        }
    }

    /// Runs the event loop until no events remain (every issued
    /// transaction has completed, every credit has returned), then
    /// rewinds the engine clock to zero so the next operation may be
    /// issued at any time. Completions stay in the table until taken.
    pub fn run_to_idle(&mut self) {
        self.sim.run();
        self.sim.rewind();
    }

    /// [`EciSystem::run_to_idle`] with an event budget: runs at most
    /// `max_events` events and returns how many were executed, or
    /// [`enzian_sim::LivelockError`] if the budget was exhausted with
    /// events still pending (a livelocked protocol never drains its
    /// queue). On success the engine clock is rewound as in
    /// [`EciSystem::run_to_idle`]; on error the system is left mid-run
    /// for inspection.
    ///
    /// # Errors
    ///
    /// Returns [`enzian_sim::LivelockError`] when `max_events` events
    /// execute without the queue running dry.
    pub fn run_to_idle_bounded(
        &mut self,
        max_events: u64,
    ) -> Result<u64, enzian_sim::LivelockError> {
        let executed = self.sim.run_bounded(max_events)?;
        self.sim.rewind();
        Ok(executed)
    }

    /// Issues one transaction, runs it (and anything else in flight) to
    /// completion, drains the queue and rewinds: the synchronous facade's
    /// engine room.
    fn drive(&mut self, h: TxnHandle) -> TxnCompletion {
        let c = self.run_until_complete(h);
        self.run_to_idle();
        c
    }

    // ---------------------------------------------------------------
    // Synchronous facade: checked (`try_*`) operations
    // ---------------------------------------------------------------

    /// Checked [`EciSystem::fpga_read_line`]: stalled attempts time out,
    /// back off exponentially and retry; once the budget is spent the
    /// operation returns [`TxnError`] instead of hanging.
    pub fn try_fpga_read_line(
        &mut self,
        now: Time,
        addr: Addr,
    ) -> Result<([u8; 128], Time), TxnError> {
        let at = self.core_mut().wait_out_stalls(now, "fpga_read_line")?;
        let h = self.issue(at, addr, TxnOp::FpgaRead);
        let c = self.drive(h);
        Ok((c.data.expect("read completion carries data"), c.completed))
    }

    /// Checked [`EciSystem::fpga_write_line`]; see
    /// [`EciSystem::try_fpga_read_line`] for the recovery contract.
    pub fn try_fpga_write_line(
        &mut self,
        now: Time,
        addr: Addr,
        data: &[u8; 128],
    ) -> Result<Time, TxnError> {
        let at = self.core_mut().wait_out_stalls(now, "fpga_write_line")?;
        let h = self.issue(at, addr, TxnOp::FpgaWrite(*data));
        Ok(self.drive(h).completed)
    }

    /// Checked [`EciSystem::cpu_read_line`]; see
    /// [`EciSystem::try_fpga_read_line`] for the recovery contract.
    pub fn try_cpu_read_line(
        &mut self,
        now: Time,
        addr: Addr,
    ) -> Result<([u8; 128], Time), TxnError> {
        let at = self.core_mut().wait_out_stalls(now, "cpu_read_line")?;
        let h = self.issue(at, addr, TxnOp::CpuRead);
        let c = self.drive(h);
        Ok((c.data.expect("read completion carries data"), c.completed))
    }

    /// Checked [`EciSystem::cpu_write_line`]; see
    /// [`EciSystem::try_fpga_read_line`] for the recovery contract.
    pub fn try_cpu_write_line(
        &mut self,
        now: Time,
        addr: Addr,
        data: &[u8; 128],
    ) -> Result<Time, TxnError> {
        let at = self.core_mut().wait_out_stalls(now, "cpu_write_line")?;
        let h = self.issue(at, addr, TxnOp::CpuWrite(*data));
        Ok(self.drive(h).completed)
    }

    // ---------------------------------------------------------------
    // Synchronous facade: panicking operations (thin wrappers over the
    // checked path, so the stall/timeout logic exists exactly once)
    // ---------------------------------------------------------------

    /// FPGA reads one 128-byte line of CPU-homed memory, uncached but
    /// coherent. Returns the data and the completion time at the FPGA.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not CPU-homed (use local FPGA DRAM access for
    /// FPGA-homed lines), or if an installed fault plan exhausts the
    /// retry budget (use [`EciSystem::try_fpga_read_line`] to handle that
    /// as an error).
    pub fn fpga_read_line(&mut self, now: Time, addr: Addr) -> ([u8; 128], Time) {
        self.try_fpga_read_line(now, addr)
            .expect("fpga_read_line failed")
    }

    /// FPGA writes one 128-byte line of CPU-homed memory, uncached but
    /// coherent: any CPU L2 copy is invalidated before the write commits.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not CPU-homed, or on retry-budget exhaustion
    /// (see [`EciSystem::try_fpga_write_line`]).
    pub fn fpga_write_line(&mut self, now: Time, addr: Addr, data: &[u8; 128]) -> Time {
        self.try_fpga_write_line(now, addr, data)
            .expect("fpga_write_line failed")
    }

    /// CPU reads one line through the L2 (local DRAM or remote over ECI).
    /// Returns the data and completion time.
    ///
    /// # Panics
    ///
    /// Panics on retry-budget exhaustion (see
    /// [`EciSystem::try_cpu_read_line`]).
    pub fn cpu_read_line(&mut self, now: Time, addr: Addr) -> ([u8; 128], Time) {
        self.try_cpu_read_line(now, addr)
            .expect("cpu_read_line failed")
    }

    /// CPU writes one line through the L2. Returns completion time.
    ///
    /// # Panics
    ///
    /// Panics on retry-budget exhaustion (see
    /// [`EciSystem::try_cpu_write_line`]).
    pub fn cpu_write_line(&mut self, now: Time, addr: Addr, data: &[u8; 128]) -> Time {
        self.try_cpu_write_line(now, addr, data)
            .expect("cpu_write_line failed")
    }

    /// Issues a pipelined burst of `lines` FPGA reads starting at
    /// `addr`, one issue per FPGA clock. Returns the completion time of
    /// the final response (time-to-last-byte).
    ///
    /// # Panics
    ///
    /// Panics on an empty burst.
    pub fn fpga_read_burst(&mut self, now: Time, addr: Addr, lines: u64) -> Time {
        assert!(lines > 0, "empty burst");
        let cycle = Duration::from_hz(self.core().cfg.fpga_clock_hz);
        let mut last = now;
        for i in 0..lines {
            let (_, done) = self.fpga_read_line(now + cycle * i, addr.offset(i * 128));
            last = last.max(done);
        }
        last
    }

    /// Issues a pipelined burst of `lines` FPGA writes of `fill` data.
    /// Returns the completion time of the final ack.
    ///
    /// # Panics
    ///
    /// Panics on an empty burst.
    pub fn fpga_write_burst(&mut self, now: Time, addr: Addr, lines: u64, fill: u8) -> Time {
        assert!(lines > 0, "empty burst");
        let cycle = Duration::from_hz(self.core().cfg.fpga_clock_hz);
        let data = [fill; 128];
        let mut last = now;
        for i in 0..lines {
            let done = self.fpga_write_line(now + cycle * i, addr.offset(i * 128), &data);
            last = last.max(done);
        }
        last
    }

    /// FPGA acquires a cached copy of a CPU-homed line (`exclusive` for a
    /// writable copy). Tracks directory state and drives the checker's
    /// FPGA-side view. Returns data and completion time.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not CPU-homed.
    pub fn fpga_acquire_line(
        &mut self,
        now: Time,
        addr: Addr,
        exclusive: bool,
    ) -> ([u8; 128], Time) {
        let h = self.issue(now, addr, TxnOp::FpgaAcquire { exclusive });
        let c = self.drive(h);
        (
            c.data.expect("acquire completion carries data"),
            c.completed,
        )
    }

    /// FPGA upgrades a previously acquired Shared copy to ownership
    /// (store to a shared line). The home invalidates its own L2 copy if
    /// present and grants exclusivity. Returns completion time.
    ///
    /// # Panics
    ///
    /// Panics if the FPGA does not hold the line Shared.
    pub fn fpga_upgrade_line(&mut self, now: Time, addr: Addr) -> Time {
        let h = self.issue(now, addr, TxnOp::FpgaUpgrade);
        self.drive(h).completed
    }

    /// FPGA releases a previously acquired line, writing back `dirty`
    /// data if it modified it. Returns completion time.
    ///
    /// # Panics
    ///
    /// Panics if the FPGA does not hold the line.
    pub fn fpga_release_line(&mut self, now: Time, addr: Addr, dirty: Option<&[u8; 128]>) -> Time {
        let h = self.issue(now, addr, TxnOp::FpgaRelease(dirty.copied()));
        self.drive(h).completed
    }

    // ---------------------------------------------------------------
    // Uncached I/O and interrupts
    // ---------------------------------------------------------------

    /// Writes an I/O register on the peer of `from`. Returns completion.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2, 4 or 8.
    pub fn io_write(&mut self, now: Time, from: NodeId, reg: Addr, size: u8, data: u64) -> Time {
        self.core_mut().io_write(now, from, reg, size, data)
    }

    /// Reads an I/O register on the peer of `from`. Returns the value and
    /// completion time.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2, 4 or 8.
    pub fn io_read(&mut self, now: Time, from: NodeId, reg: Addr, size: u8) -> (u64, Time) {
        self.core_mut().io_read(now, from, reg, size)
    }

    /// Reads an I/O register locally (no link traversal), e.g. the FPGA
    /// shell reading its own CSRs.
    pub fn io_read_local(&self, node: NodeId, reg: Addr) -> u64 {
        *self.core().io_regs[EngineCore::node_index(node)]
            .get(&reg.0)
            .unwrap_or(&0)
    }

    /// Writes an I/O register locally (no link traversal), e.g. the FPGA
    /// shell updating a status CSR the CPU will poll.
    pub fn io_write_local(&mut self, node: NodeId, reg: Addr, value: u64) {
        self.core_mut().io_regs[EngineCore::node_index(node)].insert(reg.0, value);
    }

    /// Sends an inter-processor interrupt from `from` to its peer.
    pub fn ipi(&mut self, now: Time, from: NodeId, vector: u8) -> Time {
        self.core_mut().ipi(now, from, vector)
    }

    /// Drains the pending interrupt vectors delivered to `node`.
    pub fn take_interrupts(&mut self, node: NodeId) -> Vec<u8> {
        std::mem::take(&mut self.core_mut().pending_ipis[EngineCore::node_index(node)])
    }
}

/// Publishes the whole system's counters under `prefix`: operation
/// totals, the transaction engine and simulator under `prefix.engine`,
/// the link layer (including per-VC credit stalls) under `prefix.link`,
/// the L2 and both memory controllers, and both home directories.
impl enzian_sim::Instrumented for EciSystem {
    fn export_metrics(&self, prefix: &str, registry: &mut enzian_sim::MetricsRegistry) {
        let core = self.core();
        registry.counter_set(&format!("{prefix}.fpga_reads"), core.stats.fpga_reads);
        registry.counter_set(&format!("{prefix}.fpga_writes"), core.stats.fpga_writes);
        registry.counter_set(&format!("{prefix}.cpu_reads"), core.stats.cpu_reads);
        registry.counter_set(&format!("{prefix}.cpu_writes"), core.stats.cpu_writes);
        registry.counter_set(&format!("{prefix}.probes"), core.stats.probes);
        registry.counter_set(&format!("{prefix}.victims"), core.stats.victims);
        registry.counter_set(&format!("{prefix}.io_ops"), core.stats.io_ops);
        registry.counter_set(&format!("{prefix}.ipis"), core.stats.ipis);
        registry.counter_set(&format!("{prefix}.txn_timeouts"), core.stats.txn_timeouts);
        registry.counter_set(&format!("{prefix}.txn_retries"), core.stats.txn_retries);
        registry.counter_set(&format!("{prefix}.txn_failures"), core.stats.txn_failures);
        registry.counter_set(
            &format!("{prefix}.checker_violations"),
            core.checker.violations().len() as u64,
        );
        registry.counter_set(
            &format!("{prefix}.engine.txns_started"),
            core.engine.started,
        );
        registry.counter_set(
            &format!("{prefix}.engine.txns_completed"),
            core.engine.completed,
        );
        registry.counter_set(
            &format!("{prefix}.engine.mshr_conflicts"),
            core.engine.mshr_conflicts,
        );
        registry.counter_set(
            &format!("{prefix}.engine.mshr_full_stalls"),
            core.engine.mshr_full_stalls,
        );
        registry.counter_set(
            &format!("{prefix}.engine.vc_queue_stalls"),
            core.engine.vc_queue_stalls,
        );
        registry.counter_set(
            &format!("{prefix}.engine.max_inflight"),
            core.engine.max_inflight,
        );
        registry.counter_set(
            &format!("{prefix}.engine.mshr_queued"),
            core.mshrs.queued() as u64,
        );
        self.sim
            .export_metrics(&format!("{prefix}.engine"), registry);
        if let Some(plan) = &core.faults {
            plan.export_metrics(&format!("{prefix}.fault"), registry);
        }
        core.links
            .export_metrics(&format!("{prefix}.link"), registry);
        core.l2.export_metrics(&format!("{prefix}.l2"), registry);
        core.cpu_mem
            .export_metrics(&format!("{prefix}.mem.cpu"), registry);
        core.fpga_mem
            .export_metrics(&format!("{prefix}.mem.fpga"), registry);
        core.dir_cpu
            .export_metrics(&format!("{prefix}.dir.cpu"), registry);
        core.dir_fpga
            .export_metrics(&format!("{prefix}.dir.fpga"), registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> EciSystem {
        EciSystem::new(EciSystemConfig::enzian())
    }

    fn traced_system() -> EciSystem {
        let cfg = EciSystemConfig {
            capture_trace: true,
            ..EciSystemConfig::enzian()
        };
        EciSystem::new(cfg)
    }

    #[test]
    fn fpga_read_returns_host_data_with_plausible_latency() {
        let mut sys = system();
        let addr = Addr(0x10_000);
        let mut line = [0u8; 128];
        line[0] = 0xAA;
        line[127] = 0x55;
        sys.cpu_mem().store_mut().write_line(addr, &line);

        let (data, done) = sys.fpga_read_line(Time::ZERO, addr);
        assert_eq!(data, line);
        let lat = done.since(Time::ZERO);
        assert!(
            lat >= Duration::from_ns(200) && lat <= Duration::from_us(1),
            "ECI line-read latency {lat} outside 0.2–1 us"
        );
        sys.checker().assert_clean();
    }

    #[test]
    fn fpga_write_is_visible_to_cpu_and_invalidate_l2() {
        let mut sys = system();
        let addr = Addr(0x20_000);
        // CPU caches the line first.
        let (_, _) = sys.cpu_read_line(Time::ZERO, addr);
        assert!(sys.l2().state_of(addr.line()).is_readable());

        let mut new = [0u8; 128];
        new[5] = 99;
        let t = sys.fpga_write_line(Time::ZERO + Duration::from_us(1), addr, &new);
        // L2 copy invalidated, store updated.
        assert_eq!(sys.l2().state_of(addr.line()), LineState::Invalid);
        let (data, _) = sys.cpu_read_line(t, addr);
        assert_eq!(data[5], 99);
        sys.checker().assert_clean();
    }

    #[test]
    fn single_link_read_bandwidth_envelope() {
        // Fig. 6: a single ECI link sustains roughly 8-10 GiB/s of
        // payload for pipelined line reads.
        let mut sys = EciSystem::new(EciSystemConfig {
            policy: LinkPolicy::Single(0),
            ..EciSystemConfig::enzian()
        });
        let lines = 4096u64;
        let done = sys.fpga_read_burst(Time::ZERO, Addr(0), lines);
        let gib_s = (lines * 128) as f64 / done.as_secs_f64() / (1u64 << 30) as f64;
        assert!(
            (6.5..9.5).contains(&gib_s),
            "single-link read bandwidth {gib_s:.2} GiB/s"
        );
    }

    #[test]
    fn writes_slightly_outpace_reads() {
        let mut cfg = EciSystemConfig::enzian();
        cfg.policy = LinkPolicy::Single(0);
        let mut sys = EciSystem::new(cfg);
        let lines = 2048u64;
        let rd = sys.fpga_read_burst(Time::ZERO, Addr(0), lines);
        let mut sys = EciSystem::new(cfg);
        let wr = sys.fpga_write_burst(Time::ZERO, Addr(0), lines, 0xAB);
        assert!(
            wr < rd,
            "write burst ({wr}) should finish before read burst ({rd})"
        );
    }

    #[test]
    fn dual_link_round_robin_nearly_doubles_bandwidth() {
        let mut single = EciSystem::new(EciSystemConfig {
            policy: LinkPolicy::Single(0),
            ..EciSystemConfig::enzian()
        });
        let mut dual = EciSystem::new(EciSystemConfig {
            policy: LinkPolicy::RoundRobin,
            ..EciSystemConfig::enzian()
        });
        let lines = 2048;
        let t1 = single.fpga_read_burst(Time::ZERO, Addr(0), lines);
        let t2 = dual.fpga_read_burst(Time::ZERO, Addr(0), lines);
        let speedup = t1.as_ps() as f64 / t2.as_ps() as f64;
        assert!(speedup > 1.5, "dual-link speedup {speedup:.2}");
    }

    #[test]
    fn cpu_remote_read_looks_like_numa_refill() {
        let mut sys = system();
        let fpga_addr = sys.config().map.fpga_base().offset(0x1000);
        let mut line = [0u8; 128];
        line[1] = 7;
        sys.fpga_mem().store_mut().write_line(fpga_addr, &line);

        let (data, done) = sys.cpu_read_line(Time::ZERO, fpga_addr);
        assert_eq!(data, line);
        // Second read hits in L2: far faster.
        let (_, done2) = sys.cpu_read_line(done, fpga_addr);
        assert!(done2.since(done) < done.since(Time::ZERO) / 4);
        sys.checker().assert_clean();
    }

    #[test]
    fn cpu_write_to_fpga_memory_roundtrips() {
        let mut sys = system();
        let fpga_addr = sys.config().map.fpga_base().offset(0x40_000);
        let mut data = [0u8; 128];
        data[2] = 42;
        let t = sys.cpu_write_line(Time::ZERO, fpga_addr, &data);
        assert_eq!(sys.l2().state_of(fpga_addr.line()), LineState::Modified);
        let (read, _) = sys.cpu_read_line(t, fpga_addr);
        assert_eq!(read, data);
        sys.checker().assert_clean();
    }

    #[test]
    fn acquire_release_cycle_maintains_directory_and_checker() {
        let mut sys = system();
        let addr = Addr(0x8000);
        let (data, t1) = sys.fpga_acquire_line(Time::ZERO, addr, true);
        assert_eq!(data, [0u8; 128]);
        let mut dirty = [0u8; 128];
        dirty[0] = 1;
        let t2 = sys.fpga_release_line(t1, addr, Some(&dirty));
        let (read, _) = sys.cpu_read_line(t2, addr);
        assert_eq!(read, dirty);
        sys.checker().assert_clean();
    }

    #[test]
    fn fpga_shared_copy_upgrades_to_ownership() {
        let mut sys = system();
        let addr = Addr(0xA000);
        // CPU caches the line, FPGA acquires it shared (CPU downgrades).
        let (_, t0) = sys.cpu_read_line(Time::ZERO, addr);
        let (_, t1) = sys.fpga_acquire_line(t0, addr, false);
        // Upgrade: the CPU copy must be invalidated.
        let t2 = sys.fpga_upgrade_line(t1, addr);
        assert_eq!(sys.l2().state_of(addr.line()), LineState::Invalid);
        // The FPGA now owns it; releasing dirty data is visible to the CPU.
        let t3 = sys.fpga_release_line(t2, addr, Some(&[0x5Au8; 128]));
        let (data, _) = sys.cpu_read_line(t3, addr);
        assert_eq!(data, [0x5Au8; 128]);
        sys.checker().assert_clean();
    }

    #[test]
    #[should_panic(expected = "upgrade without a shared copy")]
    fn upgrade_without_share_panics() {
        let mut sys = system();
        sys.fpga_upgrade_line(Time::ZERO, Addr(0));
    }

    #[test]
    fn cpu_read_probes_fpga_owner() {
        let mut sys = system();
        let addr = Addr(0x9000);
        let (_, t1) = sys.fpga_acquire_line(Time::ZERO, addr, true);
        // CPU read must probe (downgrade) the FPGA owner.
        let probes_before = sys.stats().probes;
        let (_, _) = sys.cpu_read_line(t1, addr);
        assert_eq!(sys.stats().probes, probes_before + 1);
        sys.checker().assert_clean();
    }

    #[test]
    fn io_registers_roundtrip_over_the_link() {
        let mut sys = system();
        let reg = Addr(0xF00);
        let t = sys.io_write(Time::ZERO, NodeId::Cpu, reg, 4, 0xDEAD_BEEF);
        let (v, _) = sys.io_read(t, NodeId::Cpu, reg, 4);
        assert_eq!(v, 0xDEAD_BEEF);
        // Partial-width write only touches its bytes.
        let t = sys.io_write(t, NodeId::Cpu, reg, 1, 0x11);
        let (v, _) = sys.io_read(t, NodeId::Cpu, reg, 4);
        assert_eq!(v, 0xDEAD_BE11);
        assert_eq!(sys.io_read_local(NodeId::Fpga, reg), 0xDEAD_BE11);
        sys.checker().assert_clean();
    }

    #[test]
    fn ipi_delivery() {
        let mut sys = system();
        sys.ipi(Time::ZERO, NodeId::Fpga, 3);
        sys.ipi(Time::ZERO, NodeId::Fpga, 5);
        assert_eq!(sys.take_interrupts(NodeId::Cpu), vec![3, 5]);
        assert!(sys.take_interrupts(NodeId::Cpu).is_empty());
        assert!(sys.take_interrupts(NodeId::Fpga).is_empty());
    }

    #[test]
    fn two_socket_silicon_reference_hits_paper_figures() {
        // §5.1: "We saw 19 GiB/s of achievable throughput, with a latency
        // of 150 ns" on the commercial 2-socket machine.
        let mut sys = EciSystem::new(EciSystemConfig::thunderx_2socket());
        let (_, done) = sys.fpga_read_line(Time::ZERO, Addr(0));
        let lat_ns = done.since(Time::ZERO).as_ns();
        assert!(
            (120..260).contains(&lat_ns),
            "silicon line latency {lat_ns} ns (paper: 150)"
        );
        let mut sys = EciSystem::new(EciSystemConfig::thunderx_2socket());
        let lines = 16_384u64;
        let done = sys.fpga_read_burst(Time::ZERO, Addr(0), lines);
        let gib = (lines * 128) as f64 / done.as_secs_f64() / (1u64 << 30) as f64;
        assert!(
            (17.0..23.0).contains(&gib),
            "silicon bandwidth {gib:.1} GiB/s"
        );
    }

    #[test]
    fn trace_capture_records_wire_decodable_messages() {
        let mut sys = traced_system();
        let (_, t) = sys.fpga_read_line(Time::ZERO, Addr(0));
        sys.fpga_write_line(t, Addr(128), &[1u8; 128]);
        let trace = sys.trace();
        // RDO + DSH + WRL + ACK
        assert_eq!(trace.len(), 4);
        let decoded = crate::decoder::decode_trace(trace.wire_bytes()).unwrap();
        assert_eq!(decoded.len(), 4);
        assert_eq!(decoded[0].kind.mnemonic(), "RDO");
        assert_eq!(decoded[3].kind.mnemonic(), "ACK");
    }

    #[test]
    fn stalled_transaction_retries_then_succeeds() {
        use enzian_sim::{FaultPlan, FaultSpec};
        let mut sys = system();
        let addr = Addr(0x30_000);
        let mut line = [0u8; 128];
        line[9] = 0x77;
        sys.cpu_mem().store_mut().write_line(addr, &line);
        sys.set_fault_plan(FaultPlan::new(11).with(FaultSpec::once(TXN_STALL_TARGET, Time::ZERO)));

        let (data, done) = sys.try_fpga_read_line(Time::ZERO, addr).unwrap();
        assert_eq!(data, line);
        // The one stalled attempt cost exactly one base timeout.
        assert!(done >= Time::ZERO + sys.config().txn_timeout);
        assert_eq!(sys.stats().txn_timeouts, 1);
        assert_eq!(sys.stats().txn_retries, 1);
        assert_eq!(sys.stats().txn_failures, 0);
        let plan = sys.fault_plan().unwrap();
        assert_eq!(plan.recovered(TXN_STALL_TARGET), 1);
        sys.checker().assert_clean();
    }

    #[test]
    fn retry_budget_exhaustion_is_a_typed_error_not_a_hang() {
        use enzian_sim::{FaultPlan, FaultSpec};
        let mut sys = system();
        sys.set_fault_plan(FaultPlan::new(5).with(FaultSpec::probability(TXN_STALL_TARGET, 1.0)));
        let err = sys.try_fpga_read_line(Time::ZERO, Addr(0)).unwrap_err();
        match err {
            TxnError::RetryBudgetExhausted { op, attempts, .. } => {
                assert_eq!(op, "fpga_read_line");
                assert_eq!(attempts, sys.config().txn_retry_budget + 1);
            }
        }
        // The failed operation never reached the link or the checker.
        assert_eq!(sys.links().messages_sent(), 0);
        assert_eq!(sys.stats().txn_failures, 1);
        sys.checker().assert_clean();
    }

    #[test]
    fn frame_faults_under_system_traffic_recover_transparently() {
        use crate::link::fault_targets;
        use enzian_sim::{FaultPlan, FaultSpec};
        let mut sys = system();
        sys.set_fault_plan(
            FaultPlan::new(0xFA11)
                .with(FaultSpec::probability(fault_targets::FRAME_CORRUPT, 0.2))
                .with(FaultSpec::probability(fault_targets::FRAME_DROP, 0.1)),
        );
        let mut now = Time::ZERO;
        for i in 0..32u64 {
            let addr = Addr(0x40_000 + i * 128);
            let fill = [i as u8; 128];
            now = sys.try_fpga_write_line(now, addr, &fill).unwrap();
            let (data, t) = sys.try_fpga_read_line(now, addr).unwrap();
            assert_eq!(data, fill, "payload survived injected frame faults");
            now = t;
        }
        assert!(
            sys.links().retransmissions() > 0,
            "expected replays under a 30% combined fault rate"
        );
        sys.checker().assert_clean();
    }

    #[test]
    fn fault_schedules_are_deterministic_across_runs() {
        use crate::link::fault_targets;
        use enzian_sim::{FaultPlan, FaultSpec};
        let run = || {
            let mut sys = system();
            sys.set_fault_plan(
                FaultPlan::new(77)
                    .with(FaultSpec::probability(fault_targets::FRAME_CORRUPT, 0.3))
                    .with(FaultSpec::probability(TXN_STALL_TARGET, 0.2)),
            );
            let mut now = Time::ZERO;
            for i in 0..24u64 {
                if let Ok((_, t)) = sys.try_fpga_read_line(now, Addr(i * 128)) {
                    now = t;
                }
            }
            (now, *sys.stats(), sys.links().retransmissions())
        };
        assert_eq!(run(), run(), "same seed must reproduce the same run");
    }

    #[test]
    fn l2_capacity_eviction_of_remote_lines_notifies_fpga_home() {
        // Use a tiny L2 so a handful of remote fills force evictions.
        let mut cfg = EciSystemConfig::enzian();
        cfg.l2 = enzian_cache::L2Config::thunderx1()
            .with_capacity_bytes(2 * 128)
            .with_ways(1)
            .with_line_bytes(128);
        let mut sys = EciSystem::new(cfg);
        let base = sys.config().map.fpga_base();
        let mut now = Time::ZERO;
        for i in 0..8u64 {
            // Same set, different tags: evictions on every fill after the first.
            let (_, t) = sys.cpu_read_line(now, base.offset(i * 128 * 2));
            now = t;
        }
        assert!(sys.stats().victims > 0, "no victim messages observed");
        sys.checker().assert_clean();
    }

    #[test]
    fn async_issue_matches_the_synchronous_facade() {
        let addr = Addr(0x10_000);
        let mut line = [0u8; 128];
        line[0] = 0xAA;
        line[127] = 0x55;

        let mut sync = system();
        sync.cpu_mem().store_mut().write_line(addr, &line);
        let (sync_data, sync_done) = sync.fpga_read_line(Time::ZERO, addr);

        let mut sys = system();
        sys.cpu_mem().store_mut().write_line(addr, &line);
        let h = sys.issue_read(Time::ZERO, addr);
        assert_eq!(sys.poll(h), TxnStatus::InFlight);
        sys.run_to_idle();
        assert_eq!(sys.poll(h), TxnStatus::Completed);
        let c = sys.take_completion(h).unwrap();
        assert_eq!(sys.poll(h), TxnStatus::Retired);
        assert_eq!(c.op, "fpga_read_line");
        assert_eq!(c.data, Some(sync_data));
        assert_eq!(c.completed, sync_done);
        sys.checker().assert_clean();
    }

    #[test]
    fn poll_and_take_handle_unknown_taken_and_out_of_order_handles() {
        let mut sys = system();
        // Never issued: before, between and after real handles.
        assert_eq!(sys.poll(TxnHandle(0)), TxnStatus::Retired);
        assert!(sys.take_completion(TxnHandle(0)).is_none());
        let handles: Vec<_> = (0..4u64)
            .map(|i| sys.issue_read(Time::ZERO, Addr(i * 128)))
            .collect();
        let future = TxnHandle(handles[3].0 + 1);
        assert_eq!(sys.poll(future), TxnStatus::Retired);
        assert!(sys.take_completion(future).is_none());
        // In flight: nothing to take yet.
        assert!(sys.take_completion(handles[2]).is_none());
        assert_eq!(sys.poll(handles[2]), TxnStatus::InFlight);
        sys.run_to_idle();
        // Out of order: the last, then the second, then the rest.
        for &i in &[3usize, 1, 0, 2] {
            assert_eq!(sys.poll(handles[i]), TxnStatus::Completed);
            let c = sys.take_completion(handles[i]).unwrap();
            assert_eq!(c.handle, handles[i]);
            assert_eq!(c.addr, Addr(i as u64 * 128));
            // Already taken.
            assert_eq!(sys.poll(handles[i]), TxnStatus::Retired);
            assert!(sys.take_completion(handles[i]).is_none());
        }
        // Untaken completions after a taken one stay available.
        let h = sys.issue_read(Time::ZERO, Addr(0));
        let h2 = sys.issue_read(Time::ZERO, Addr(128));
        sys.run_to_idle();
        assert!(sys.take_completion(h2).is_some());
        assert_eq!(sys.poll(h), TxnStatus::Completed);
        assert!(sys.take_completion(h).is_some());
        assert!(sys.core().completions.slots.is_empty());
    }

    #[test]
    fn completion_window_stays_bounded_when_every_completion_is_taken() {
        let mut sys = system();
        let batch = 1_000u64;
        for round in 0..100u64 {
            let handles: Vec<_> = (0..batch)
                .map(|i| sys.issue_read(Time::ZERO, Addr(((round * batch + i) % 8_192) * 128)))
                .collect();
            assert_eq!(sys.core().completions.slots.len(), batch as usize);
            sys.run_to_idle();
            // Taken newest first: the window empties only with the oldest.
            for &h in handles.iter().rev() {
                assert!(sys.take_completion(h).is_some());
            }
            assert!(sys.core().completions.slots.is_empty());
        }
        assert_eq!(sys.engine_stats().completed, 100_000);
        // The record slab never held more than one batch.
        assert!(sys.core().txns.slots.len() <= batch as usize);
    }

    #[test]
    fn pipelined_reads_beat_the_serial_facade() {
        let lines = 256u64;
        let run = |mshr_entries: usize| {
            let mut sys = EciSystem::new(EciSystemConfig {
                policy: LinkPolicy::Single(0),
                mshr_entries,
                ..EciSystemConfig::enzian()
            });
            let handles: Vec<_> = (0..lines)
                .map(|i| sys.issue_read(Time::ZERO, Addr(i * 128)))
                .collect();
            sys.run_to_idle();
            let last = handles
                .into_iter()
                .map(|h| sys.take_completion(h).unwrap().completed)
                .max()
                .unwrap();
            sys.checker().assert_clean();
            last
        };
        let serial = run(1);
        let pipelined = run(8);
        assert!(
            pipelined < serial,
            "8 outstanding ({pipelined}) should beat serial ({serial})"
        );
    }

    #[test]
    fn mshr_capacity_bounds_concurrency() {
        let mut sys = EciSystem::new(EciSystemConfig {
            mshr_entries: 4,
            ..EciSystemConfig::enzian()
        });
        let handles: Vec<_> = (0..16u64)
            .map(|i| sys.issue_read(Time::ZERO, Addr(i * 128)))
            .collect();
        sys.run_to_idle();
        for h in handles {
            assert!(sys.take_completion(h).is_some());
        }
        let engine = *sys.engine_stats();
        assert!(
            engine.max_inflight <= 4,
            "in-flight {}",
            engine.max_inflight
        );
        assert!(engine.mshr_full_stalls >= 12);
        assert_eq!(engine.started, 16);
        assert_eq!(engine.completed, 16);
        sys.checker().assert_clean();
    }

    #[test]
    fn conflicting_transactions_on_one_line_serialize() {
        let mut sys = system();
        let addr = Addr(0x50_000);
        let h1 = sys.issue_write(Time::ZERO, addr, &[0x01; 128]);
        let h2 = sys.issue_write(Time::ZERO, addr, &[0x02; 128]);
        let hr = sys.issue_read(Time::ZERO, addr);
        sys.run_to_idle();
        let c1 = sys.take_completion(h1).unwrap();
        let c2 = sys.take_completion(h2).unwrap();
        let cr = sys.take_completion(hr).unwrap();
        // Issue order is service order on one line, so the read observes
        // the second write's data.
        assert_eq!(cr.data, Some([0x02; 128]));
        assert!(c1.completed < c2.completed);
        assert!(c2.completed < cr.completed);
        assert_eq!(sys.engine_stats().mshr_conflicts, 2);
        sys.checker().assert_clean();
    }
}
