//! One driver per table/figure of the paper's evaluation (§5).
//!
//! Every driver returns structured rows plus a `render()` that prints the
//! same series the paper plots. The `reproduce` binary in `enzian-bench`
//! runs them, and `EXPERIMENTS.md` records their output against the
//! paper's values.
//!
//! All drivers dispatch through one [`Experiment`] trait: `reproduce`
//! looks experiments up by name in [`registry`] instead of hard-coding
//! one entry point per figure, and the Makefile's and CI's determinism
//! lists name every registry entry (a root test holds them equal). Each
//! module still exposes its typed `run_instrumented()` and `render()`
//! for tests; the module's `Driver` adapts them to the trait, and its
//! [`Experiment::run`] is the whole job: it returns the rendered text
//! and the CSV tables in an [`ExperimentRows`] bundle. The typed rows
//! never leave the module, so the trait has no second step that could
//! be handed another experiment's bundle.
//!
//! `modelcheck` and `tcp_explore` share one row type, one check of each
//! row's expected violation, one table and one `Driver`
//! ([`model_sweep`]); each keeps only its own sweep, walk and
//! assertions.

pub mod cc_sweep;
pub mod cluster_scale;
pub mod fault_sweep;
pub mod fig11;
pub mod fig12;
pub mod fig3;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod model_sweep;
pub mod modelcheck;
pub mod pipelining;
pub mod sched_hotpath;
pub mod service;
pub mod tcp_explore;
pub mod traffic;

use enzian_sim::MetricsRegistry;

/// Everything an experiment run may consume: the shared telemetry
/// registry the BENCH JSON snapshots, and the worker-thread count for
/// drivers built on the parallel cluster engine (ignored by the rest).
pub struct ExperimentCtx<'a> {
    /// Telemetry sink; exported as `BENCH_<name>.json` after the run.
    pub reg: &'a mut MetricsRegistry,
    /// Worker threads for [`Experiment::needs_threads`] drivers.
    pub threads: usize,
}

/// One exportable CSV panel: header plus stringified rows. `name` is the
/// CSV file stem (`<name>.csv`); most experiments emit exactly one table,
/// fig7 and fig11 emit two.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// CSV file stem.
    pub name: &'static str,
    /// Column names, in order.
    pub header: &'static [&'static str],
    /// One stringified record per row, aligned with `header`.
    pub rows: Vec<Vec<String>>,
}

/// The result of one [`Experiment::run`]: the rendered series, as
/// `reproduce` prints them, and the CSV tables. The tables carry every
/// exported field, so comparing two bundles' `tables` is as strong as
/// comparing the typed rows directly — the thread-matrix determinism
/// check relies on this.
pub struct ExperimentRows {
    /// The paper's series, rendered.
    pub text: String,
    /// CSV panels, in export order.
    pub tables: Vec<Table>,
}

/// One table or figure of the evaluation, dispatchable by name.
///
/// Implementations are unit structs (`fig3::Driver`, …) and the two
/// model-check sweeps' `DRIVER`s, listed in [`registry`]. `run()` must
/// keep every exported observable (tables, registry metrics)
/// independent of `ctx.threads` and of wall clock: the BENCH JSON
/// contract is byte-identical output for every thread count, which CI
/// enforces. Only the rendered text may show a wall-clock figure
/// (`sched_hotpath`'s Mev/s column).
pub trait Experiment: Sync {
    /// Selector name (`reproduce <name>`, `BENCH_<name>.json`).
    fn name(&self) -> &'static str;

    /// True when the driver runs on the parallel cluster engine and
    /// honours `ctx.threads`; single-threaded drivers ignore it.
    fn needs_threads(&self) -> bool {
        false
    }

    /// Runs the experiment, publishing telemetry into `ctx.reg`, and
    /// returns its rendered series and CSV tables.
    fn run(&self, ctx: &mut ExperimentCtx<'_>) -> ExperimentRows;
}

/// Every experiment, in the order `reproduce all` executes them.
pub fn registry() -> &'static [&'static dyn Experiment] {
    static REGISTRY: [&dyn Experiment; 16] = [
        &fig3::Driver,
        &fig6::Driver,
        &fig7::Driver,
        &fig8::Driver,
        &fig9::Driver,
        &fig11::Driver,
        &fig12::Driver,
        &fault_sweep::Driver,
        &cc_sweep::Driver,
        &pipelining::Driver,
        &modelcheck::DRIVER,
        &tcp_explore::DRIVER,
        &cluster_scale::Driver,
        &sched_hotpath::Driver,
        &service::Driver,
        &traffic::Driver,
    ];
    &REGISTRY
}

/// Looks an experiment up by name; the error lists every valid name.
pub fn find(name: &str) -> Result<&'static dyn Experiment, String> {
    registry()
        .iter()
        .copied()
        .find(|e| e.name() == name)
        .ok_or_else(|| {
            let names: Vec<&str> = registry().iter().map(|e| e.name()).collect();
            format!(
                "unknown experiment {name:?}; valid experiments: {}",
                names.join("|")
            )
        })
}

/// Turns a human-facing label ("Enzian (1 ECI link)") into a stable
/// metric-name segment ("enzian_1_eci_link"): lowercase, with every run
/// of non-alphanumeric characters collapsed to a single underscore.
pub(crate) fn metric_slug(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    let mut gap = false;
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            if gap && !out.is_empty() {
                out.push('_');
            }
            gap = false;
            out.push(c.to_ascii_lowercase());
        } else {
            gap = true;
        }
    }
    out
}

/// Renders a simple aligned table from a header and rows of strings.
pub(crate) fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_collapse_punctuation() {
        assert_eq!(metric_slug("Enzian (1 ECI link)"), "enzian_1_eci_link");
        assert_eq!(metric_slug("Alveo DRAM"), "alveo_dram");
        assert_eq!(metric_slug("linux x4"), "linux_x4");
        assert_eq!(metric_slug("  odd__label  "), "odd_label");
    }

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let mut seen = std::collections::BTreeSet::new();
        for e in registry() {
            assert!(seen.insert(e.name()), "duplicate experiment {}", e.name());
            assert_eq!(find(e.name()).unwrap().name(), e.name());
        }
        assert!(seen.contains("traffic"), "traffic missing from registry");
    }

    #[test]
    fn unknown_experiment_error_lists_valid_names() {
        let err = match find("fig99") {
            Err(e) => e,
            Ok(e) => panic!("fig99 resolved to {}", e.name()),
        };
        assert!(err.contains("fig99"), "{err}");
        for e in registry() {
            assert!(err.contains(e.name()), "{err} missing {}", e.name());
        }
    }
}
