//! The BENCH files of the two selectors that run every board on
//! `sim::par`, byte for byte: runs `cluster_scale` and `service`
//! in-process, renders each registry with the writer `reproduce` uses,
//! and compares the result with the committed baseline in
//! `benches/baselines/`. `scripts/determinism.sh` checks every selector's
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
