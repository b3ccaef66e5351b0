# Mirrors .github/workflows/ci.yml so `make ci` reproduces the pipeline
# locally. Individual stages are exposed as their own targets.

CARGO ?= cargo

.PHONY: ci fmt fmt-check clippy build test doc benchmark determinism clean

ci: fmt-check clippy build test doc benchmark determinism

fmt:
	$(CARGO) fmt --all

fmt-check:
	$(CARGO) fmt --all --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

build:
	$(CARGO) build --release --workspace

# The CI `Test` step, then its release step: the explorer batteries
# (MOESI packing round trip, key-set blocks, the pipelined-search
# equality battery at chunk lengths 1, 2, 3, 7 and 64 and its model-panic
# cases), the service, traffic and parallel-engine batteries again at
# release speed, and the root DES-floor, ECI-digest and ECI-allocation
# tests on optimised code.
test:
	$(CARGO) test -q --workspace
	$(CARGO) test -q --release -p enzian-eci -p enzian-sim -p enzian-apps -p enzian-net -p enzian-platform
	$(CARGO) test -q --release -p enzian --test des_floor --test eci_engine_golden --test eci_alloc

doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps --workspace

# The CI `benchmark` job: the benchmark's self-tests, then one short run
# of each workload, whose result line (the last line of stdout) must say
# "correct":true, i.e. the run matched benches/benchmark/golden.json.
BENCH_MANIFEST = --manifest-path benches/benchmark/Cargo.toml

benchmark:
	$(CARGO) test --release $(BENCH_MANIFEST)
	for w in explore_tcp explore_moesi eci_mix traffic service; do \
	  line=$$($(CARGO) run --quiet --release $(BENCH_MANIFEST) -- \
	    run --workload $$w --seconds 1 | tail -n 1); \
	  echo "$$line"; \
	  echo "$$line" | grep -q '"correct":true' || exit 1; \
	done

# Every reproduce selector, in registry order: each one's BENCH JSON and
# CSV tables must be byte-identical across reruns and thread counts. The
# CI `determinism` matrix lists the same selectors; the root test
# tests/selector_lists.rs fails if either list drifts from the registry.
DETERMINISM = fig3 fig6 fig7 fig8 fig9 fig11 fig12 fault_sweep cc_sweep \
              pipelining modelcheck tcp_explore cluster_scale sched_hotpath \
              service traffic

# Runs scripts/determinism.sh (threads 1, 1, 2, 3, 8, every BENCH and CSV
# file cmp'd against the first run, BENCH also against any committed
# baseline in benches/baselines/) for each selector.
determinism: build
	for s in $(DETERMINISM); do scripts/determinism.sh $$s || exit 1; done

clean:
	$(CARGO) clean
