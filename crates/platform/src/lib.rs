//! Enzian machine assembly and the paper's evaluation drivers.
//!
//! This crate is the top of the stack: it assembles the complete machine
//! model ([`machine`]), captures the commercial platforms Enzian is
//! compared against ([`presets`]), and provides one driver per table and
//! figure of the paper's evaluation section ([`experiments`]). Each
//! driver returns structured rows and renders the same series the paper
//! plots, so `EXPERIMENTS.md` can record paper-vs-measured values.

pub mod bdk;
pub mod catapult;
pub mod cluster;
pub mod devicetree;
pub mod experiments;
pub mod harness;
pub mod machine;
pub mod presets;
pub mod service;
pub mod shellctl;
pub mod traffic;

pub use bdk::BdkConsole;
pub use catapult::BumpInTheWire;
pub use cluster::{
    BoardId, ClusterRunReport, ClusterWorkload, EnzianCluster, FlowStats, BRIDGE_HEADER,
};
pub use devicetree::{render_dts, DeviceTreeOptions};
pub use harness::{check_engines, RunReport};
pub use machine::{EnzianMachine, MachineConfig};
pub use presets::PlatformPreset;
pub use service::{FaultScenario, ServiceConfig, ServiceRunReport};
pub use shellctl::{ShellCommand, ShellController, ShellStatus};
pub use traffic::{TrafficRunReport, TrafficStack, TrafficWorkload};
