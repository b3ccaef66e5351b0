//! # enzian
//!
//! A production-quality Rust reproduction of **"Enzian: An Open, General,
//! CPU/FPGA Platform for Systems Software Research"** (Cock et al.,
//! ASPLOS 2022), built as a deterministic simulation of the complete
//! platform: the ECI cache-coherence protocol and its tooling, the CPU
//! and memory substrates, the PCIe baseline, the open BMC with its
//! declarative power-sequencing solver and I2C/SMBus/PMBus stack, the
//! FPGA shell, the network stacks, and the paper's evaluation workloads.
//!
//! This facade crate re-exports every workspace crate under a short
//! module name and surfaces the most commonly used types at the root.
//!
//! ## Quickstart
//!
//! ```
//! use enzian::{EnzianMachine, MachineConfig};
//! use enzian::sim::Time;
//! use enzian::mem::Addr;
//!
//! // Boot a machine through the BMC's solved power sequence, the FPGA
//! // bitstream load, and the firmware chain.
//! let mut machine = EnzianMachine::new(MachineConfig::enzian());
//! let linux = machine.boot_to_linux(Time::ZERO)?;
//!
//! // The FPGA writes host memory coherently over ECI; the CPU reads it
//! // back through its L2.
//! let line = [42u8; 128];
//! let t = machine.eci().fpga_write_line(linux, Addr(0x1000), &line);
//! let (data, _) = machine.eci().cpu_read_line(t, Addr(0x1000));
//! assert_eq!(data, line);
//!
//! // The online protocol checker validated every transition.
//! machine.eci().checker().assert_clean();
//! # Ok::<(), enzian::bmc::boot::BootError>(())
//! ```
//!
//! ## Reproducing the paper's evaluation
//!
//! Every table and figure has a driver in
//! [`platform::experiments`] and a
//! rendering binary:
//!
//! ```text
//! cargo run -p enzian-bench --bin reproduce            # everything
//! cargo run -p enzian-bench --bin reproduce fig6       # one figure
//! ```

/// Evaluation workloads (GBDT, vision, reduction, stress).
pub use enzian_apps as apps;
/// The open BMC: power sequencing, PMBus stack, telemetry, boot.
pub use enzian_bmc as bmc;
/// CPU cache substrate: MOESI, L2 model, PMU, core timing.
pub use enzian_cache as cache;
/// The ECI coherence protocol and its tooling.
pub use enzian_eci as eci;
/// Memory substrate: DDR4 models, address partition, backing store.
pub use enzian_mem as mem;
/// Network substrate: Ethernet, TCP stacks, RDMA.
pub use enzian_net as net;
/// The PCIe Gen3 baseline interconnect.
pub use enzian_pcie as pcie;
/// Machine assembly, platform presets, experiment drivers.
pub use enzian_platform as platform;
/// The Coyote-style FPGA shell.
pub use enzian_shell as shell;
/// The discrete-event simulation kernel.
pub use enzian_sim as sim;

pub use enzian_eci::{EciSystem, EciSystemConfig};
pub use enzian_platform::{EnzianMachine, MachineConfig};
