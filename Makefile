# Mirrors .github/workflows/ci.yml so `make ci` reproduces the pipeline
# locally. Individual stages are exposed as their own targets.

CARGO ?= cargo

.PHONY: ci fmt fmt-check clippy build test doc determinism loom perf clean

ci: fmt-check clippy build test doc determinism loom perf

fmt:
	$(CARGO) fmt --all

fmt-check:
	$(CARGO) fmt --all --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

build:
	$(CARGO) build --release --workspace

test:
	$(CARGO) test -q --workspace

doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps --workspace

# Selectors whose BENCH JSON must be byte-identical across reruns and
# thread counts; the CI `determinism` matrix job runs the same list.
DETERMINISM = fig11 fault_sweep pipelining cc_sweep modelcheck tcp_explore \
              cluster_scale service traffic

# Runs scripts/determinism.sh (threads 1, 1, 2, 8, every BENCH file
# cmp'd against the first run) for each selector.
determinism: build
	for s in $(DETERMINISM); do scripts/determinism.sh $$s || exit 1; done

# Perf gate, exactly as CI runs it: sched_hotpath + cluster_scale twice,
# determinism compared modulo timing.* gauges, deterministic counters
# gated against the committed baselines in benches/baselines/, and the
# calendar-queue core's throughput floor over the retained reference
# core enforced.
perf: build
	rm -rf target/perf
	mkdir -p target/perf/a target/perf/b
	target/release/reproduce sched_hotpath --threads 2 --bench-dir target/perf/a > /dev/null
	target/release/reproduce cluster_scale --threads 2 --bench-dir target/perf/a > /dev/null
	target/release/reproduce sched_hotpath --threads 2 --bench-dir target/perf/b > /dev/null
	target/release/reproduce cluster_scale --threads 2 --bench-dir target/perf/b > /dev/null
	target/release/perfgate compare target/perf/a/BENCH_sched_hotpath.json target/perf/b/BENCH_sched_hotpath.json
	target/release/perfgate compare target/perf/a/BENCH_cluster_scale.json target/perf/b/BENCH_cluster_scale.json
	cmp target/perf/a/BENCH_cluster_scale.json target/perf/b/BENCH_cluster_scale.json
	target/release/perfgate baseline benches/baselines/BENCH_sched_hotpath.json target/perf/a/BENCH_sched_hotpath.json
	target/release/perfgate baseline benches/baselines/BENCH_cluster_scale.json target/perf/a/BENCH_cluster_scale.json
	target/release/perfgate speedup target/perf/a/BENCH_sched_hotpath.json \
		sched_hotpath.timing.pod_mevents_per_sec \
		sched_hotpath.timing.reference_mevents_per_sec --min 1.5
	@echo "perf OK: hot path deterministic, baselines held, throughput floor met"

# Exhaustive interleaving checks for the epoch barrier and bounded
# inter-shard channels (the loom-style battery; compiled only under
# --cfg loom).
loom:
	RUSTFLAGS="--cfg loom" $(CARGO) test -p enzian-sim --test loom_par

clean:
	$(CARGO) clean
