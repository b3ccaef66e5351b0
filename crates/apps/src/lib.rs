//! Evaluation workloads for the Enzian platform reproduction.
//!
//! Each module pairs a *real* computation (so results can be verified
//! bit-for-bit) with the timing model of its hardware incarnation:
//!
//! * [`gbdt`] — gradient-boosted decision-tree ensemble inference
//!   (Owaida et al. [52, 53]), the §5.3 accelerator workload, with the
//!   double-buffered offload pipeline timing of Fig. 9;
//! * [`vision`] — the §5.4 machine-vision kernels: RGB→luminance
//!   conversion, 4-bit quantisation, and a 3×3 Gaussian blur with ~5× the
//!   conversion's arithmetic intensity;
//! * [`reduction`] — the Fig. 10 coherent data-reduction pipeline: the
//!   FPGA-side engine that turns an L2 refill request into a DRAM burst,
//!   reduces it, and answers with a packed cache line;
//! * [`stress`] — the §5.5 FPGA power-burn schedule (1/24-area steps of
//!   toggling flip-flops) and the staged diagnostic workload of Fig. 12;
//! * [`rtverify`] — the §6 runtime-verification use-case: past-time LTL
//!   assertions compiled to constant-space monitors over program-trace
//!   events, evaluated entirely on the FPGA ("zero overhead");
//! * [`kvs`] — the hardware-accelerated key-value store use-case
//!   (KV-Direct style): a cuckoo-hashed store in FPGA DRAM served at
//!   line rate;
//! * [`service`] — the replicated KV *service* built on [`kvs`]: shard
//!   placement, primary-backup replication with epoch fencing, retrying
//!   clients with typed errors, and SLO telemetry (the state machines
//!   the platform crate runs across a simulated multi-board cluster).

pub mod gbdt;
pub mod kvs;
pub mod reduction;
pub mod rtverify;
pub mod service;
pub mod stress;
pub mod vision;

pub use gbdt::{AcceleratorConfig, Ensemble, GbdtAccelerator, Tuple};
pub use kvs::{KvStats, KvStore, KvStoreConfig};
pub use reduction::{ReductionEngine, ReductionMode};
pub use rtverify::{Formula, Monitor, TraceEvent};
pub use service::{
    decode_svc, encode_heartbeat_into, encode_svc_into, verify_log, Applied, ClientPlan,
    ClientState, HeartbeatView, KvOp, KvResult, LogEntry, OpClass, PendingReq, Replica, RespErr,
    RespOk, RetryDecision, Role, ShardMap, SloRecorder, SvcError, SvcPayload, SvcWireError,
};
pub use stress::{StressPhase, StressSchedule};
pub use vision::{blur3x3, quantize_4bpp, rgba_to_luma, Frame};
