//! BENCH files byte for byte: runs a selector in-process, renders its
//! registry with the writer `reproduce` uses, and compares the result
//! with the committed baseline in `benches/baselines/`. Covered here:
//! the two selectors that run every board on `sim::par` (`cluster_scale`,
//! `service`) and three that run the ECI link: `fig6` and `pipelining`
//! (fault-free) and `fault_sweep` (the link's go-back-N recovery under
//! seeded frame faults). `scripts/determinism.sh` checks every selector's
//! baseline from a release build; `sched_hotpath` (its `allocs` keys need
//! `reproduce`'s counting allocator) and `traffic` (slow in a debug
//! build) are left to it.

use enzian::platform::experiments::{self, ExperimentCtx};
use enzian::sim::MetricsRegistry;
use enzian_bench::bench_json;

/// Runs selector `name` at two worker threads and asserts its BENCH JSON
/// is the committed baseline.
fn assert_matches_baseline(name: &str) {
    let experiment = experiments::find(name).unwrap_or_else(|e| panic!("{e}"));
    let mut reg = MetricsRegistry::new();
    experiment.run(&mut ExperimentCtx {
        reg: &mut reg,
        threads: 2,
    });
    let json = bench_json(name, &reg);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(format!("benches/baselines/BENCH_{name}.json"));
    let baseline =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let first_diff = json.lines().zip(baseline.lines()).position(|(a, b)| a != b);
    assert!(
        json == baseline,
        "BENCH_{name}.json differs from {} (first differing line: {:?})",
        path.display(),
        first_diff.map(|i| i + 1)
    );
}

#[test]
fn cluster_scale_bench_matches_its_baseline() {
    assert_matches_baseline("cluster_scale");
}

#[test]
fn service_bench_matches_its_baseline() {
    assert_matches_baseline("service");
}

#[test]
fn fig6_bench_matches_its_baseline() {
    assert_matches_baseline("fig6");
}

#[test]
fn pipelining_bench_matches_its_baseline() {
    assert_matches_baseline("pipelining");
}

#[test]
fn fault_sweep_bench_matches_its_baseline() {
    assert_matches_baseline("fault_sweep");
}
