//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! reproduce [fig3|fig6|fig7|fig8|fig9|fig11|table1|fig12|fault_sweep|
//!            cc_sweep|pipelining|modelcheck|tcp_explore|cluster_scale|
//!            sched_hotpath|service|traffic|all]
//!           [--csv [dir]] [--bench-dir dir] [--no-bench] [--threads N]
//! ```
//!
//! With no argument (or `all`), prints every series in order. Every
//! experiment is an [`Experiment`] in `enzian-platform`'s registry; this
//! binary looks the selector up with `experiments::find()` and drives
//! one generic loop: run with a shared telemetry registry, print the
//! rendered series, export each CSV table, then write the registry
//! snapshot as `BENCH_<name>.json` (schema documented in
//! `docs/BENCH_SCHEMA.md`). The JSON carries only simulated quantities,
//! so same-seed runs produce byte-identical files; wall-clock timings and
//! the process's peak resident memory (`VmHWM`) go to stderr only.
//!
//! `--threads N` sets the worker count for the experiments that run on
//! the parallel cluster engine (default: available parallelism, capped
//! at 8). The flag changes wall clock only: the bench JSON and the CSV
//! tables are byte-identical for every value, which `make determinism`
//! and the CI `determinism` matrix assert for every selector.

use enzian_platform::experiments::{self, fig11, Experiment, ExperimentCtx};
use enzian_sim::MetricsRegistry;

/// Counts heap traffic so `sched_hotpath` can report per-leg allocation
/// deltas (the POD leg's steady state must stay at zero). Counting two
/// atomics per malloc is noise next to a malloc; every other figure is
/// unaffected.
#[global_allocator]
static ALLOC: enzian_sim::alloc_count::CountingAllocator =
    enzian_sim::alloc_count::CountingAllocator::new();

/// Parsed command-line options.
struct Opts {
    /// Experiment selector (`all` by default).
    experiment: String,
    /// CSV export directory, when `--csv` was given.
    csv: Option<std::path::PathBuf>,
    /// Directory for `BENCH_<figure>.json`; `None` disables the export.
    bench: Option<std::path::PathBuf>,
    /// Worker threads for the parallel cluster engine, when `--threads`
    /// was given.
    threads: Option<usize>,
}

/// Every valid selector: the registry names plus the two aliases this
/// binary adds (`table1` prints figure 11's second panel, `all` runs
/// the whole registry).
fn selectors() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = experiments::registry().iter().map(|e| e.name()).collect();
    names.push("table1");
    names.push("all");
    names
}

fn parse_opts() -> Opts {
    let mut experiment = None;
    let mut csv = None;
    let mut bench = Some(std::path::PathBuf::from("."));
    let mut threads = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--csv" => {
                // Optional directory operand, defaulting to ".".
                let dir = match args.peek() {
                    Some(next)
                        if !next.starts_with("--") && !selectors().contains(&next.as_str()) =>
                    {
                        args.next().unwrap()
                    }
                    _ => ".".into(),
                };
                let dir = std::path::PathBuf::from(dir);
                let _ = std::fs::create_dir_all(&dir);
                csv = Some(dir);
            }
            "--bench-dir" => {
                let Some(dir) = args.next().filter(|d| !d.starts_with("--")) else {
                    eprintln!("--bench-dir needs a directory");
                    std::process::exit(2);
                };
                let dir = std::path::PathBuf::from(dir);
                let _ = std::fs::create_dir_all(&dir);
                bench = Some(dir);
            }
            "--no-bench" => bench = None,
            "--threads" => {
                let n = args.next().and_then(|s| s.parse::<usize>().ok());
                match n {
                    Some(n) if n >= 1 => threads = Some(n),
                    _ => {
                        eprintln!("--threads needs a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                if experiment.is_none() {
                    experiment = Some(other.to_string());
                } else {
                    eprintln!("ignoring extra argument {other:?}");
                }
            }
        }
    }
    Opts {
        experiment: experiment.unwrap_or_else(|| "all".into()),
        csv,
        bench,
        threads,
    }
}

/// Default worker count for the parallel cluster engine.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Writes `contents` to `<dir>/<name>.csv` when CSV export is enabled.
fn export(dir: &Option<std::path::PathBuf>, name: &str, contents: String) {
    if let Some(dir) = dir {
        let path = dir.join(format!("{name}.csv"));
        if let Err(e) = std::fs::write(&path, contents) {
            eprintln!("csv export to {} failed: {e}", path.display());
        } else {
            eprintln!("wrote {}", path.display());
        }
    }
}

/// The process's peak resident memory so far (`VmHWM` in
/// `/proc/self/status`) in KiB, where the kernel reports it.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Writes the registry snapshot as `BENCH_<figure>.json` and reports the
/// figure's wall-clock cost and the process's peak resident memory so
/// far (stderr only: the JSON stays deterministic).
fn finish(opts: &Opts, figure: &str, reg: &MetricsRegistry, started: std::time::Instant) {
    if let Some(dir) = &opts.bench {
        let path = dir.join(format!("BENCH_{figure}.json"));
        if let Err(e) = std::fs::write(&path, enzian_bench::bench_json(figure, reg)) {
            eprintln!("bench export to {} failed: {e}", path.display());
        } else {
            eprintln!("wrote {}", path.display());
        }
    }
    let ms = started.elapsed().as_millis();
    match peak_rss_kib() {
        Some(kib) => eprintln!("{figure}: {ms} ms wall clock, peak RSS {kib} KiB"),
        None => eprintln!("{figure}: {ms} ms wall clock"),
    }
}

/// The generic driver every experiment runs through: run, print the
/// rendered series, export the CSV tables, snapshot the registry.
fn run_one(e: &dyn Experiment, opts: &Opts) {
    let started = std::time::Instant::now();
    let threads = if e.needs_threads() {
        opts.threads.unwrap_or_else(default_threads)
    } else {
        1
    };
    let mut reg = MetricsRegistry::new();
    let rows = e.run(&mut ExperimentCtx {
        reg: &mut reg,
        threads,
    });
    println!("{}", rows.text);
    for t in &rows.tables {
        export(&opts.csv, t.name, enzian_bench::to_csv(t.header, &t.rows));
    }
    finish(opts, e.name(), &reg, started);
}

/// The `table1` alias: figure 11's second panel on its own, without
/// telemetry or exports.
fn run_table1() {
    let rows = fig11::run();
    let t1 = fig11::run_table1();
    // render() prints both panels; table1 is the second.
    let all = fig11::render(&rows, &t1);
    if let Some(idx) = all.find("Table 1") {
        println!("{}", &all[idx..]);
    }
}

fn main() {
    let opts = parse_opts();
    match opts.experiment.as_str() {
        "all" => {
            for e in experiments::registry() {
                run_one(*e, &opts);
            }
        }
        "table1" => run_table1(),
        name => match experiments::find(name) {
            Ok(e) => run_one(e, &opts),
            Err(err) => {
                eprintln!("{err} (aliases: table1|all)");
                std::process::exit(2);
            }
        },
    }
}
