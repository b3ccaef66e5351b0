//! Full-machine assembly: ECI system + FPGA shell + BMC + boot.
//!
//! [`EnzianMachine`] is the "one object" integration point the examples
//! and integration tests drive: it boots through the BMC's declaratively
//! solved power sequence, programs the shell bitstream, brings up the ECI
//! links, and then exposes the coherent memory system, the shell, and the
//! management plane.

use enzian_bmc::boot::{BootError, BootSequencer};
use enzian_bmc::pmbus::PmbusNetwork;
use enzian_bmc::power::PowerModel;
use enzian_eci::{EciSystem, EciSystemConfig};
use enzian_shell::Shell;
use enzian_sim::Time;

/// Machine-level configuration.
///
/// Construct from the named preset ([`MachineConfig::enzian`]) and
/// adjust its public fields.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct MachineConfig {
    /// The coherent-system configuration.
    pub eci: EciSystemConfig,
    /// Number of vFPGA slots in the shell bitstream.
    pub shell_slots: u8,
}

impl MachineConfig {
    /// The shipping configuration.
    pub fn enzian() -> Self {
        MachineConfig {
            eci: EciSystemConfig::enzian(),
            shell_slots: 2,
        }
    }
}

/// A booted (or booting) Enzian.
pub struct EnzianMachine {
    config: MachineConfig,
    eci: EciSystem,
    shell: Shell,
    pmbus: PmbusNetwork,
    power: PowerModel,
    boot: BootSequencer,
    linux_at: Option<Time>,
}

impl std::fmt::Debug for EnzianMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnzianMachine")
            .field("linux_at", &self.linux_at)
            .finish()
    }
}

impl EnzianMachine {
    /// Creates an unpowered machine.
    pub fn new(config: MachineConfig) -> Self {
        let pmbus = PmbusNetwork::board();
        let power = PowerModel::new(&pmbus);
        EnzianMachine {
            eci: EciSystem::new(config.eci),
            shell: Shell::new(config.shell_slots),
            pmbus,
            power,
            boot: BootSequencer::new(),
            config,
            linux_at: None,
        }
    }

    /// Runs the complete §4.4 boot choreography: PSU → BMC → solved
    /// power sequence → FPGA bitstream → CPU release → BDK → ATF → UEFI
    /// → Linux. Returns the instant Linux is up.
    ///
    /// # Errors
    ///
    /// Propagates power-sequencing or PMBus failures.
    pub fn boot_to_linux(&mut self, now: Time) -> Result<Time, BootError> {
        let bmc_ready = self.boot.psu_plugged(now);
        let rails_up = self.boot.common_power_up(&mut self.pmbus, bmc_ready)?;
        let fpga_done = self.boot.program_fpga(rails_up)?;
        let bdk = self.boot.cpu_power_up(fpga_done)?;
        // The BDK brings up the ECI links before handing off (§4.4:
        // "the BDK is responsible for bringing up the ECI protocol").
        self.eci.links_mut().train(0, bdk, 12);
        self.eci.links_mut().train(1, bdk, 12);
        let linux = self.boot.boot_linux(bdk)?;
        self.eci.links_mut().poll(linux);
        self.linux_at = Some(linux);
        Ok(linux)
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// When Linux came up, if booted.
    pub fn linux_at(&self) -> Option<Time> {
        self.linux_at
    }

    /// The coherent two-node system.
    pub fn eci(&mut self) -> &mut EciSystem {
        &mut self.eci
    }

    /// The FPGA shell.
    pub fn shell(&mut self) -> &mut Shell {
        &mut self.shell
    }

    /// The management network.
    pub fn pmbus(&mut self) -> &mut PmbusNetwork {
        &mut self.pmbus
    }

    /// The electrical power model bound to this board.
    pub fn power(&self) -> &PowerModel {
        &self.power
    }

    /// The boot sequencer (for event inspection).
    pub fn boot_events(&self) -> &[enzian_bmc::boot::BootEvent] {
        self.boot.events()
    }
}

/// Publishes the coherent system's full metric tree under
/// `prefix.eci.*`.
impl enzian_sim::Instrumented for EnzianMachine {
    fn export_metrics(&self, prefix: &str, registry: &mut enzian_sim::MetricsRegistry) {
        self.eci.export_metrics(&format!("{prefix}.eci"), registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enzian_bmc::boot::BootPhase;
    use enzian_eci::link::LinkState;
    use enzian_mem::Addr;

    #[test]
    fn machine_boots_and_is_coherent() {
        let mut m = EnzianMachine::new(MachineConfig::enzian());
        let linux = m.boot_to_linux(Time::ZERO).expect("boot");
        // Boot takes on the order of a minute and a half (BMC 25 s +
        // power sequence + FPGA 8 s + firmware chain + Linux 35 s).
        let secs = linux.as_secs_f64();
        assert!((60.0..180.0).contains(&secs), "boot took {secs:.0} s");

        // Both links trained by the BDK.
        assert!(matches!(
            m.eci().links().link_state(0),
            LinkState::Up { .. }
        ));
        assert!(matches!(
            m.eci().links().link_state(1),
            LinkState::Up { .. }
        ));

        // The coherent system works end to end after boot.
        let data = [9u8; 128];
        let t = m.eci().fpga_write_line(linux, Addr(0x1000), &data);
        let (read, _) = m.eci().cpu_read_line(t, Addr(0x1000));
        assert_eq!(read, data);
        m.eci().checker().assert_clean();
    }

    #[test]
    fn boot_events_cover_all_phases() {
        let mut m = EnzianMachine::new(MachineConfig::enzian());
        m.boot_to_linux(Time::ZERO).unwrap();
        let phases: Vec<BootPhase> = m.boot_events().iter().map(|e| e.phase).collect();
        assert!(phases.contains(&BootPhase::RailsUp));
        assert!(phases.contains(&BootPhase::FpgaProgrammed));
        assert!(phases.contains(&BootPhase::LinuxBooted));
        // FPGA must be programmed before the CPU is released (§4.5).
        let idx = |p| phases.iter().position(|&x| x == p).unwrap();
        assert!(idx(BootPhase::FpgaProgrammed) < idx(BootPhase::CpuReleased));
    }
}
