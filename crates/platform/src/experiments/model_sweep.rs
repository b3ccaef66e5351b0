//! What the two model-check sweeps (`modelcheck` over the ECI coherence
//! protocol, `tcp_explore` over the TCP connection FSM) share: the row
//! type, the check that every row reports exactly the violation it
//! expects, the registry export, the CSV table, the rendered table and
//! the [`Experiment`](super::Experiment) adapter. Each sweep supplies
//! only its configurations, its walk and its own assertions.

use enzian_sim::explore::SearchStats;
use enzian_sim::MetricsRegistry;

/// One configuration's exploration result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelCheckRow {
    /// Human-facing configuration label.
    pub name: String,
    /// `"exhaustive"` or `"walk"`.
    pub mode: &'static str,
    /// States, transitions, frontier high-water mark (or walk depth)
    /// and depth of the search.
    pub stats: SearchStats,
    /// The invariant that broke, if any (mutation rows only).
    pub violation: Option<String>,
    /// Whether this row injected a bug and so *must* report one.
    pub expect_violation: bool,
}

/// A model-check sweep through the [`Experiment`](super::Experiment)
/// trait. `name` is the selector, the metric prefix and the CSV table
/// name.
pub struct Driver {
    pub(super) name: &'static str,
    /// Title line of the rendered table.
    pub(super) title: &'static str,
    /// The sweep's typed `run_instrumented`.
    pub(super) run: fn(&mut MetricsRegistry) -> Vec<ModelCheckRow>,
}

impl Driver {
    /// Checks that every row reports a violation exactly when it
    /// expects one, then exports each row's search statistics under
    /// `<name>.<slug>.*` and the sweep totals under `<name>.*`.
    /// (States-per-second and other wall-clock figures deliberately
    /// never enter the registry.)
    ///
    /// # Panics
    ///
    /// Panics on a clean row that reports a violation or a mutated row
    /// that does not.
    pub(super) fn publish(&self, rows: &[ModelCheckRow], reg: &mut MetricsRegistry) {
        for r in rows {
            match (&r.violation, r.expect_violation) {
                (Some(v), false) => panic!("{}: unexpected violation: {v}", r.name),
                (None, true) => panic!("{}: injected bug was not caught", r.name),
                _ => {}
            }
            let base = format!("{}.{}", self.name, super::metric_slug(&r.name));
            reg.counter_set(&format!("{base}.states"), r.stats.states);
            reg.counter_set(&format!("{base}.transitions"), r.stats.transitions);
            reg.counter_set(&format!("{base}.frontier_peak"), r.stats.frontier_peak);
            reg.counter_set(&format!("{base}.max_depth"), r.stats.max_depth);
            reg.counter_set(
                &format!("{base}.violation"),
                u64::from(r.violation.is_some()),
            );
        }
        reg.counter_set(&format!("{}.configs", self.name), rows.len() as u64);
        reg.counter_set(
            &format!("{}.mutations_caught", self.name),
            rows.iter().filter(|r| r.violation.is_some()).count() as u64,
        );
    }

    /// Renders the sweep as a table.
    pub(super) fn render(&self, rows: &[ModelCheckRow]) -> String {
        let table_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.mode.to_string(),
                    r.stats.states.to_string(),
                    r.stats.transitions.to_string(),
                    r.stats.max_depth.to_string(),
                    r.violation.clone().unwrap_or_else(|| "-".into()),
                ]
            })
            .collect();
        super::render_table(
            self.title,
            &[
                "configuration",
                "mode",
                "states",
                "transitions",
                "depth",
                "violation",
            ],
            &table_rows,
        )
    }

    /// The sweep's CSV table: every field of every row.
    fn table(&self, rows: &[ModelCheckRow]) -> super::Table {
        super::Table {
            name: self.name,
            header: &[
                "configuration",
                "mode",
                "states",
                "transitions",
                "frontier_peak",
                "max_depth",
                "violation",
            ],
            rows: rows
                .iter()
                .map(|r| {
                    vec![
                        r.name.clone(),
                        r.mode.to_string(),
                        r.stats.states.to_string(),
                        r.stats.transitions.to_string(),
                        r.stats.frontier_peak.to_string(),
                        r.stats.max_depth.to_string(),
                        r.violation.clone().unwrap_or_default(),
                    ]
                })
                .collect(),
        }
    }
}

impl super::Experiment for Driver {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(&self, ctx: &mut super::ExperimentCtx<'_>) -> super::ExperimentRows {
        let rows = (self.run)(ctx.reg);
        super::ExperimentRows {
            text: self.render(&rows),
            tables: vec![self.table(&rows)],
        }
    }
}
