//! The Enzian Coherence Interface (ECI).
//!
//! ECI is the paper's central technical contribution: the CPU's native
//! inter-socket cache-coherence protocol, re-implemented on the FPGA so
//! that the FPGA participates in the memory system as a first-class NUMA
//! node instead of a PCIe peripheral. Quoting §4.1: *"Our implementation,
//! the Enzian Coherence Interface (ECI), is a MOESI-based protocol with
//! 128-byte cache lines … It also supports non-cached small I/O reads and
//! writes, and inter-processor interrupts. The system's physical address
//! space is statically partitioned between the CPU and FPGA."*
//!
//! This crate reproduces the protocol and its tooling:
//!
//! * [`message`] — the message set carried on ECI's virtual channels
//!   (coherent requests/responses, probes, write-backs, I/O, IPIs);
//! * [`wire`] — the paper's own on-wire serialization format for protocol
//!   messages, used both for interoperability between tools and for
//!   stored traces;
//! * [`bridge`] — the cluster-level bridge message format (§6): the
//!   framed read/write/ack RPCs a board's FPGA forwards over the
//!   inter-board fabric for remote slices of the global address space;
//! * [`link`] — the physical and link layer: 24 × 10 Gb/s lanes in two
//!   12-lane links, with link training, lane/speed scaling (as the BDK
//!   allows), per-VC credit flow control, a load-balancing policy, and a
//!   go-back-N link ARQ under fault plans: a dropped or corrupted frame
//!   is resent after the replay timer or the receiver's NAK, and each
//!   frame behind it on the wire of that link direction that lands
//!   before the resend is discarded by the receiver and replayed in
//!   order (see [`link::fault_targets`]);
//! * [`directory`] — the two-node MOESI directory (home agent state);
//! * [`system`] — the full transaction-level protocol engine connecting
//!   the CPU's L2, both nodes' DRAM, and the links — the component every
//!   experiment drives;
//! * [`txn`] — the transaction layer of that engine: the async
//!   issue/poll surface ([`TxnHandle`] and friends) and the MSHR-style
//!   table that bounds and serializes concurrent transactions;
//! * [`checker`] — assertion checkers "generated from the specification":
//!   they validate every observed transition and global invariant online;
//! * [`explore`] — an exhaustive, canonicalized state-space explorer
//!   over a bounded protocol model: every interleaving of small
//!   configurations is checked for the SWMR and data-value invariants,
//!   stuck states, and credit deadlocks, with counterexamples rendered
//!   as decoded message traces;
//! * [`decoder`] — the Wireshark-plugin analogue: decodes captured wire
//!   traffic into human-readable trace records;
//! * [`cosim`] — the co-simulation harness: framed endpoints speaking
//!   the wire format over any byte transport, with a CPU-side home
//!   personality for bringing up foreign FPGA-side simulators.

pub mod bridge;
pub mod checker;
pub mod cosim;
pub mod decoder;
pub mod directory;
pub mod explore;
pub mod link;
pub mod message;
pub mod system;
pub mod txn;
pub mod wire;

pub use bridge::{write_bridge, BridgeError, BridgeFrame, BridgeHeader, BridgeOpcode};
pub use checker::{CheckerError, ProtocolChecker};
pub use cosim::{CosimEndpoint, CosimHome, Loopback};
pub use directory::{DirOp, DirStepError, Directory, DirectoryEntry, RemoteCopy};
pub use explore::{
    ExploreConfig, ExploreError, ExploreOutcome, ExploreStats, Explorer, Mutation, ViolationKind,
    ViolationReport, ALL_MUTATIONS, MAX_FIFO, MAX_WRITES,
};
pub use link::{EciLinkConfig, EciLinks, LinkPolicy, LinkState, VirtualChannel};
pub use message::{Message, MessageKind, TxnId};
pub use system::{EciSystem, EciSystemConfig, TxnError};
pub use txn::{EngineStats, TxnCompletion, TxnHandle, TxnOp, TxnStatus};
pub use wire::{decode_message, encode_message, WireError};
