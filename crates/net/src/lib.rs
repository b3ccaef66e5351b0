//! Network substrate: Ethernet, TCP stacks, and RDMA.
//!
//! Enzian's FPGA exposes 4 × 100 Gb/s (or 16 × 25 Gb/s) Ethernet, and the
//! paper's §5.2 evaluates two stacks on it:
//!
//! * an open-source FPGA TCP/IP stack (Sidler et al. \[63\]) ported as a
//!   Coyote service — a *single processing pipeline shared between all
//!   TCP connections*, so its performance is independent of flow count
//!   and it saturates 100 Gb/s with one flow at a 2 KiB MTU (Fig. 7);
//! * StRoM \[64\], an extensible RDMA stack, serving one-sided READ/WRITE
//!   against either FPGA-attached DRAM or — uniquely on Enzian —
//!   *coherent* host memory over ECI (Fig. 8).
//!
//! The comparison points are a kernel-style software TCP stack (per-
//! segment CPU cost, so one flow cannot saturate the link) and a
//! Mellanox-style host NIC for RDMA.
//!
//! * [`eth`] — frame-level Ethernet links and a store-and-forward switch;
//! * [`tcp`] — a segment-level TCP engine (real segmentation, cumulative
//!   acks, windows, data integrity) composed from four modules along the
//!   offload boundaries — connection management, reliability, congestion
//!   control, flow control — and parameterised as either stack, or as a
//!   hybrid with the data path on the FPGA and policy on the CPU;
//! * [`rdma`] — the RDMA engine over pluggable memory back-ends;
//! * [`farview`] — the §6 smart disaggregated-memory use-case: FPGA DRAM
//!   served over the network with operator push-down;
//! * [`traffic`] — TrafficEngine-style building blocks for million-flow
//!   connection churn: a compact segment wire format, port-mask flow
//!   steering, and a slab-backed flow table with bounded memory, driven
//!   by the multi-session engine in [`tcp::mux`].

pub mod eth;
pub mod farview;
pub mod rdma;
pub mod tcp;
pub mod traffic;

pub use eth::{EthLink, EthLinkConfig, Switch};
pub use farview::{FarviewServer, Operator, Predicate};
pub use rdma::{RdmaBackend, RdmaEngine, RdmaOutcome};
pub use tcp::{
    CcAlgorithm, CongestionController, LossyMultiFlow, SessionMux, StackKind, TcpEngine,
    TcpStackConfig, TransferOutcome, WireSegment,
};
pub use traffic::{FlowKey, FlowTable, PortMask, Segment};
