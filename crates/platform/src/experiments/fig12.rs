//! Figure 12: power measurements of primary components during a boot,
//! diagnostic, and stress test.
//!
//! The BMC's telemetry service samples the CPU, FPGA, and CPU-side DRAM
//! rail power every 20 ms while the machine walks the §5.5 script: boot,
//! BDK DRAM check, bus tests, memtests, CPU off, then the 24-step FPGA
//! power burn. This driver replays the schedule against the electrical
//! models and returns the four time series of the figure.

use enzian_bmc::pmbus::PmbusNetwork;
use enzian_bmc::power::{BoardActivity, PowerModel};
use enzian_bmc::rail::RailId;
use enzian_bmc::telemetry::{TelemetryService, TraceId};
use enzian_sim::stats::TimeSeries;
use enzian_sim::{Duration, MetricsRegistry, Time, TraceEvent};

use enzian_apps::stress::{StressPhase, StressSchedule};

/// The experiment's output: the four power traces plus the schedule that
/// produced them.
#[derive(Debug)]
pub struct Fig12Result {
    /// Per-trace sampled power.
    pub traces: std::collections::BTreeMap<TraceId, TimeSeries>,
    /// The replayed schedule.
    pub schedule: StressSchedule,
}

fn cpu_activity(phase: StressPhase) -> BoardActivity {
    match phase {
        StressPhase::IdleBefore => BoardActivity::PoweredIdle,
        StressPhase::CpuBoot => BoardActivity::CpuBdkBoot,
        StressPhase::DramCheck => BoardActivity::DramCheck,
        StressPhase::DataBusTest => BoardActivity::DataBusTest,
        StressPhase::AddressBusTest => BoardActivity::AddressBusTest,
        StressPhase::MemtestMarching => BoardActivity::MemtestMarching,
        StressPhase::MemtestRandom => BoardActivity::MemtestRandom,
        StressPhase::CpuOff | StressPhase::FpgaBurn { .. } | StressPhase::IdleAfter => {
            BoardActivity::CpuOff
        }
    }
}

fn fpga_activity(phase: StressPhase) -> BoardActivity {
    match phase {
        StressPhase::FpgaBurn { fraction } => BoardActivity::FpgaBurn { fraction },
        StressPhase::IdleAfter => BoardActivity::FpgaIdle,
        _ => BoardActivity::FpgaIdle,
    }
}

/// Replays the paper timeline and samples power at 20 ms.
pub fn run() -> Fig12Result {
    run_instrumented(&mut MetricsRegistry::new())
}

/// [`run`], publishing per-trace peak power / energy / sample counts and
/// one trace event per schedule phase into `reg` under `fig12.*`.
pub fn run_instrumented(reg: &mut MetricsRegistry) -> Fig12Result {
    let mut net = PmbusNetwork::board();
    // Power every rail up front (the schedule starts after
    // common_power_up; the CPU-off phases are modelled as zero load, as
    // the BMC's cpu_power_down drops the load to nil).
    let rails: Vec<RailId> = net.rails().collect();
    let mut t = Time::ZERO;
    for rail in rails {
        t = net.enable(t, rail).expect("power up");
    }
    let settled = t + Duration::from_ms(10);

    let model = PowerModel::new(&net);
    let schedule = StressSchedule::paper_timeline();
    let mut telemetry = TelemetryService::new();

    for window in schedule.phases() {
        model.apply_cpu_activity(cpu_activity(window.phase));
        model.apply_fpga_activity(fpga_activity(window.phase));
        let from = settled + window.from.since(Time::ZERO);
        let until = settled + window.until.since(Time::ZERO);
        reg.trace_event(
            TraceEvent::new(from, "fig12", "phase")
                .field("phase", format!("{:?}", window.phase))
                .field("duration", until.since(from)),
        );
        telemetry.run(from, until, |at, id| match id {
            TraceId::Fpga => model.fpga_watts(at),
            TraceId::Cpu => model.cpu_watts(at),
            TraceId::Dram0 => model.dram0_watts(at),
            TraceId::Dram1 => model.dram1_watts(at),
        });
    }

    let result = Fig12Result {
        traces: telemetry.into_series(),
        schedule,
    };
    let mut samples = 0u64;
    let mut sim_end = Time::ZERO;
    for (id, series) in &result.traces {
        let slug = super::metric_slug(id.label());
        let peak = series
            .points()
            .iter()
            .map(|&(_, w)| w)
            .fold(0.0f64, f64::max);
        reg.gauge_set(&format!("fig12.{slug}.peak_w"), peak);
        reg.gauge_set(&format!("fig12.{slug}.energy_j"), series.integral());
        reg.counter_set(&format!("fig12.{slug}.samples"), series.len() as u64);
        samples += series.len() as u64;
        if let Some(&(t, _)) = series.points().last() {
            sim_end = sim_end.max(t);
        }
    }
    reg.counter_set("fig12.sim_time_ps", sim_end.as_ps());
    reg.counter_set("fig12.events_executed", samples);
    result
}

/// Renders a per-phase power summary (mean watts per trace).
pub fn render(result: &Fig12Result) -> String {
    let mut rows = Vec::new();
    let offset = {
        // Recover the settle offset from the first sample.
        result.traces[&TraceId::Cpu]
            .points()
            .first()
            .map(|&(t, _)| t)
            .unwrap_or(Time::ZERO)
    };
    for window in result.schedule.phases() {
        let from = offset + window.from.since(Time::ZERO);
        let until = offset + window.until.since(Time::ZERO);
        let mean = |id: TraceId| {
            result.traces[&id]
                .mean_in(from, until)
                .map(|w| format!("{w:.1}"))
                .unwrap_or_default()
        };
        let phase_label = match window.phase {
            enzian_apps::stress::StressPhase::FpgaBurn { fraction } => {
                format!("FpgaBurn {:>3.0}%", fraction * 100.0)
            }
            other => format!("{other:?}"),
        };
        rows.push(vec![
            phase_label,
            format!("{:.0}", window.from.as_secs_f64()),
            mean(TraceId::Fpga),
            mean(TraceId::Cpu),
            mean(TraceId::Dram0),
            mean(TraceId::Dram1),
        ]);
    }
    super::render_table(
        "Fig. 12 — Mean power per phase [W] (sampled every 20 ms)",
        &["phase", "t[s]", "FPGA", "CPU", "DRAM0", "DRAM1"],
        &rows,
    )
}

/// Registry adapter: figure 12 through the [`Experiment`](super::Experiment) trait.
pub struct Driver;

impl super::Experiment for Driver {
    fn name(&self) -> &'static str {
        "fig12"
    }

    fn run(&self, ctx: &mut super::ExperimentCtx<'_>) -> super::ExperimentRows {
        let result = run_instrumented(ctx.reg);
        let mut csv = Vec::new();
        let n = result.traces[&TraceId::Cpu].len();
        for i in 0..n {
            let t = result.traces[&TraceId::Cpu].points()[i].0;
            let mut row = vec![format!("{}", t.as_secs_f64())];
            for id in TraceId::ALL {
                row.push(result.traces[&id].points()[i].1.to_string());
            }
            csv.push(row);
        }
        super::ExperimentRows {
            text: render(&result),
            tables: vec![super::Table {
                name: "fig12",
                header: &["t_s", "fpga_w", "cpu_w", "dram0_w", "dram1_w"],
                rows: csv,
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure12_shape_holds() {
        let result = run();
        // ~228 s at 20 ms: >11k samples per trace.
        for id in TraceId::ALL {
            assert!(
                result.traces[&id].len() > 10_000,
                "{} has too few samples",
                id.label()
            );
        }

        let offset = result.traces[&TraceId::Cpu].points()[0].0;
        let window = |phase_idx: usize| {
            let w = &result.schedule.phases()[phase_idx];
            (
                offset + w.from.since(Time::ZERO),
                offset + w.until.since(Time::ZERO),
            )
        };
        let mean = |id: TraceId, idx: usize| {
            let (f, u) = window(idx);
            result.traces[&id].mean_in(f, u).expect("samples in window")
        };

        // Phase order: 0 idle, 1 boot, 2 dramcheck, 3 databus,
        // 4 addrbus, 5 marching, 6 random, 7 cpu-off, 8.. burn steps.
        // CPU power spikes at boot relative to idle-before.
        assert!(mean(TraceId::Cpu, 1) > 4.0 * mean(TraceId::Cpu, 0).max(4.0));
        // DRAM power climbs through the memtest sequence.
        assert!(mean(TraceId::Dram0, 6) > mean(TraceId::Dram0, 5));
        assert!(mean(TraceId::Dram0, 5) > mean(TraceId::Dram0, 2));
        // DRAM0 and DRAM1 track each other (same activity).
        let d0 = mean(TraceId::Dram0, 6);
        let d1 = mean(TraceId::Dram1, 6);
        assert!((d0 - d1).abs() / d0 < 0.05);
        // CPU off kills CPU and DRAM draw.
        assert!(mean(TraceId::Cpu, 7) < 1.0);
        assert!(mean(TraceId::Dram0, 7) < 1.0);

        // The FPGA burn ramps toward ~175-200 W in 24 steps.
        let burn_first = mean(TraceId::Fpga, 8);
        let burn_last = mean(TraceId::Fpga, 8 + 23);
        assert!(
            burn_last > 150.0 && burn_last < 210.0,
            "peak {burn_last:.0} W"
        );
        assert!(burn_first < 50.0, "first step {burn_first:.0} W");
        // Monotone ramp.
        let mut prev = 0.0;
        for i in 8..(8 + 24) {
            let m = mean(TraceId::Fpga, i);
            assert!(m >= prev, "burn step {i} regressed: {m:.1} < {prev:.1}");
            prev = m;
        }
    }

    #[test]
    fn energy_accounting_is_sane() {
        let result = run();
        // Total FPGA energy over the run: bounded by peak x duration.
        let joules = result.traces[&TraceId::Fpga].integral();
        let secs = result.schedule.total().as_secs_f64();
        assert!(joules > 0.0 && joules < 210.0 * secs);
    }

    #[test]
    fn render_lists_every_phase() {
        let result = run();
        let s = render(&result);
        assert!(s.contains("MemtestRandom"));
        assert!(s.contains("FpgaBurn"));
    }
}
