//! Figure 9: gradient-boosting decision-tree inference throughput.
//!
//! The same scoring design is deployed on HARPv2, Amazon F1, a VCU118 and
//! Enzian, as one or two engines; throughput is in million tuples/s. The
//! experiment streams 64 KB tuple batches through the double-buffered
//! offload pipeline (§5.3 / artifact A.6.3).

use enzian_apps::gbdt::{Ensemble, GbdtAccelerator};
use enzian_sim::{MetricsRegistry, Time, TraceEvent};

use crate::presets::PlatformPreset;

/// One bar of the figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Row {
    /// Platform measured.
    pub platform: PlatformPreset,
    /// Engine count (1 or 2).
    pub engines: u32,
    /// Throughput in million tuples per second.
    pub mtuples_per_sec: f64,
}

/// The figure's platforms in bar order.
pub const PLATFORMS: [PlatformPreset; 4] = [
    PlatformPreset::BroadwellArria,
    PlatformPreset::AmazonF1,
    PlatformPreset::Vcu118,
    PlatformPreset::Enzian,
];

/// Runs the experiment: every platform, one and two engines.
pub fn run() -> Vec<Fig9Row> {
    run_instrumented(&mut MetricsRegistry::new())
}

/// [`run`], publishing one throughput gauge and one trace event per bar
/// into `reg` under `fig9.*`.
pub fn run_instrumented(reg: &mut MetricsRegistry) -> Vec<Fig9Row> {
    // A realistic ensemble: 96 trees of depth 6 over 16 features. The
    // batch uses 64 KB of tuples to hit the saturation point (A.6.3):
    // 16 features x 4 B = 64 B/tuple -> 1024 tuples/batch; stream many
    // batches for a steady-state measurement.
    let ensemble = Ensemble::generate(42, 96, 6, 16);
    let tuples = ensemble.generate_tuples(43, 100_000);

    let mut rows = Vec::new();
    let mut sim_end = Time::ZERO;
    for platform in PLATFORMS {
        for engines in [1u32, 2] {
            let cfg = platform
                .gbdt_config(engines)
                .expect("fig9 platform has a config");
            let mut acc = GbdtAccelerator::new(ensemble.clone(), cfg);
            let tput = acc.measure_throughput(Time::ZERO, &tuples);
            let row = Fig9Row {
                platform,
                engines,
                mtuples_per_sec: tput / 1e6,
            };
            let slug = super::metric_slug(platform.name());
            reg.gauge_set(
                &format!("fig9.{slug}.x{engines}.mtuples_per_sec"),
                row.mtuples_per_sec,
            );
            reg.counter_add("fig9.tuples_scored", tuples.len() as u64);
            // The scoring pass is closed-form over the batch; anchor the
            // trace event at the batch's steady-state scoring time.
            let batch_time =
                Time::ZERO + enzian_sim::Duration::from_secs_f64(tuples.len() as f64 / tput);
            sim_end = sim_end.max(batch_time);
            reg.trace_event(
                TraceEvent::new(batch_time, "fig9", "bar")
                    .field("platform", platform.name())
                    .field("engines", u64::from(engines))
                    .field("mtuples_per_sec", row.mtuples_per_sec),
            );
            rows.push(row);
        }
    }
    reg.counter_set("fig9.sim_time_ps", sim_end.as_ps());
    reg.counter_set("fig9.events_executed", reg.counter("fig9.tuples_scored"));
    rows
}

/// The paper's reported values, for the EXPERIMENTS.md comparison.
pub fn paper_values() -> Vec<(PlatformPreset, u32, f64)> {
    vec![
        (PlatformPreset::BroadwellArria, 1, 33.0),
        (PlatformPreset::BroadwellArria, 2, 66.0),
        (PlatformPreset::AmazonF1, 1, 24.0),
        (PlatformPreset::AmazonF1, 2, 48.0),
        (PlatformPreset::Vcu118, 1, 41.0),
        (PlatformPreset::Vcu118, 2, 81.0),
        (PlatformPreset::Enzian, 1, 48.0),
        (PlatformPreset::Enzian, 2, 96.0),
    ]
}

/// Renders the bar chart as a table.
pub fn render(rows: &[Fig9Row]) -> String {
    let paper = paper_values();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let reference = paper
                .iter()
                .find(|(p, e, _)| *p == r.platform && *e == r.engines)
                .map(|(_, _, v)| format!("{v:.0}"))
                .unwrap_or_default();
            vec![
                r.platform.name().into(),
                r.engines.to_string(),
                format!("{:.1}", r.mtuples_per_sec),
                reference,
            ]
        })
        .collect();
    super::render_table(
        "Fig. 9 — GBDT inference throughput [Mtuples/s]",
        &["platform", "engines", "measured", "paper"],
        &table,
    )
}

/// Registry adapter: figure 9 through the [`Experiment`](super::Experiment) trait.
pub struct Driver;

impl super::Experiment for Driver {
    fn name(&self) -> &'static str {
        "fig9"
    }

    fn run(&self, ctx: &mut super::ExperimentCtx<'_>) -> super::ExperimentRows {
        let rows = run_instrumented(ctx.reg);
        let csv = rows
            .iter()
            .map(|r| {
                vec![
                    r.platform.name().to_string(),
                    r.engines.to_string(),
                    r.mtuples_per_sec.to_string(),
                ]
            })
            .collect();
        super::ExperimentRows {
            text: render(&rows),
            tables: vec![super::Table {
                name: "fig9",
                header: &["platform", "engines", "mtuples_per_sec"],
                rows: csv,
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure9_values_within_ten_percent_of_paper() {
        let rows = run();
        let paper = paper_values();
        assert_eq!(rows.len(), paper.len());
        for (p, engines, expect) in paper {
            let got = rows
                .iter()
                .find(|r| r.platform == p && r.engines == engines)
                .unwrap()
                .mtuples_per_sec;
            let err = (got - expect).abs() / expect;
            assert!(
                err < 0.10,
                "{} x{engines}: measured {got:.1}, paper {expect}, err {:.0}%",
                p.name(),
                err * 100.0
            );
        }
    }

    #[test]
    fn enzian_outperforms_all_platforms() {
        let rows = run();
        for engines in [1, 2] {
            let enzian = rows
                .iter()
                .find(|r| r.platform == PlatformPreset::Enzian && r.engines == engines)
                .unwrap()
                .mtuples_per_sec;
            for r in rows.iter().filter(|r| r.engines == engines) {
                assert!(
                    enzian >= r.mtuples_per_sec,
                    "{} beats Enzian",
                    r.platform.name()
                );
            }
        }
    }
}
