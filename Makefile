.PHONY: help install test lint bench bench-micro bench-tables bench-report eval chaos overload scaleout georep verify-consistency autoscale trace profile perf docs examples all

# Annotated target list (## comments after a target become its help line).
help:
	@grep -E '^[a-z-]+:.*##' $(MAKEFILE_LIST) | \
		sort | \
		awk -F':.*## ' '{printf "  %-20s %s\n", $$1, $$2}'

install:  ## editable install of the repro package
	pip install -e .

test:  ## tier-1 test suite (pytest tests/)
	pytest tests/ -q

# Lints with ruff when it is installed (CI installs it); a missing ruff
# is skipped so offline dev containers still pass `make all`, but a real
# lint failure always fails the target.
lint:  ## ruff over src/tests/benchmarks/examples (skipped if absent)
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipping lint (CI runs it)"; \
	fi

# pytest-benchmark micro timings. For the simulator's own throughput
# (E18/SIM, wall-clock, tracked in BENCH_<n>.json under the >20% gate)
# use `make bench-micro`, which runs:
#   - engine events/sec        zero-delay ticker swarm through the core
#   - RPC round-trips/sec      echo calls over a UDP loopback pair
#   - histogram observes/sec   Histogram.observe hot-path appends
bench:  ## pytest-benchmark micro timings
	pytest benchmarks/ --benchmark-only -q

# E18/SIM simulator-core micro-benchmarks (subset run; not published).
bench-micro:  ## E18/SIM simulator-core micro-benchmarks (subset run)
	python -m repro.bench sim

bench-tables:  ## micro timings with full comparison tables
	pytest benchmarks/ --benchmark-only -s

# E14 continuous benchmark: run every experiment under the telemetry
# sampler, publish a canonical BENCH_<n>.json at the repo root, and diff
# it against the previous artifact (>20% on a tracked latency/throughput
# is a regression). Same seed => byte-identical artifact, except the
# E18/SIM wall-clock metrics, whose within-gate jitter never writes a
# new artifact (see repro/bench/__init__.py).
bench-report:  ## E14 continuous benchmark: publish + gate BENCH_<n>.json
	python -m repro.bench --check

eval:  ## run every experiment and print the artifacts
	python -m repro.eval

# E13 chaos evaluation: replicated cluster under a scripted fault storm.
# The fault-injection smoke tests also run under tier-1 `make test`
# (tests/test_faults.py).
chaos:  ## E13 chaos storm + fault-injection tests
	python -m repro.eval e13
	pytest tests/test_faults.py -q

# E15 overload evaluation: an open-loop load ramp with the protection
# stack (bounded queues, admission, breakers, brownout) off vs on. The
# overload unit tests also run under tier-1 `make test`.
overload:  ## E15 overload protection stack off vs on + tests
	python -m repro.eval e15
	pytest tests/test_overload.py -q

# E16 scale-out evaluation: goodput vs DPU count with/without
# batching+cache, plus a live scale-out event (zero failed ops). The
# sharding unit tests also run under tier-1 `make test`.
scaleout:  ## E16 scale-out data plane sweep + sharding tests
	python -m repro.eval e16
	pytest tests/test_sharding.py -q

# E17 geo-replication evaluation: consistency-mode sweep plus the
# region-loss disaster drill (RPO/RTO, zero lost acked writes). The
# georep unit tests also run under tier-1 `make test`.
georep:  ## E17 geo-replication sweep + disaster drill + tests
	python -m repro.eval e17
	pytest tests/test_georep.py -q

# E19 consistency verification: seeded chaos search over the sharded
# and geo stacks with per-key linearizability checking, plus the
# planted-bug demo (async caught, shrunk to a minimal schedule; quorum
# and sync pass the identical plan). Output is byte-identical per seed,
# including across PYTHONHASHSEED — CI diffs two hash seeds. The
# verifier unit tests also run under tier-1 `make test`.
verify-consistency:  ## E19 linearizability chaos search + verifier tests
	python -m repro.eval e19
	pytest tests/test_verify.py -q

# E20 traffic-plane evaluation: the repro.workload generators drive a
# daily diurnal curve at three fleet shapes (static-min, static-peak,
# SLO-driven autoscaling); the autoscaled run must hold p99 with fewer
# DPU-seconds than static peak. Output is byte-identical per seed,
# including across PYTHONHASHSEED — CI diffs two hash seeds. The
# workload unit tests also run under tier-1 `make test`. Operator
# handbook: docs/WORKLOADS.md.
autoscale:  ## E20 traffic plane: SLO-driven autoscaling + workload tests
	python -m repro.eval e20
	pytest tests/test_workload.py -q

# Trace analysis: causal trace trees over a cross-region quorum
# workload (showcase tree, top-N slowest flows, critical path). Output
# is byte-identical per seed, including across PYTHONHASHSEED — CI
# diffs two hash seeds against each other.
trace:  ## causal trace-tree analysis over a quorum workload
	python -m repro.eval trace

# Simulator hot-spot profile: one traced perfbench run, host time and
# event counts attributed per layer. Start perf PRs here; for another
# workload run perfbench/run.py --workload W --seconds S --trace 1.
profile:  ## per-layer hot-spot report: one traced perfbench run
	python3 perfbench/run.py --workload kv-unbatched-rw --seconds 3 --trace 1

# The repository's performance benchmark (BENCHMARK.json): all five
# workloads, one sample each, results under perfbench/out/.
perf:  ## full perfbench run: five workloads, two clocks
	python3 perfbench/run.py

# Documentation hygiene: markdown link check + doctest'd examples
# (mirrors the CI docs job).
docs:  ## markdown link check + doctest examples (CI docs job)
	python tools/check_links.py README.md DESIGN.md EXPERIMENTS.md docs
	pytest --doctest-modules src/repro/sharding src/repro/workload -q

examples:  ## run every examples/*.py end to end
	@for ex in examples/*.py; do \
		echo "== $$ex =="; \
		python $$ex || exit 1; \
	done

all: lint test bench  ## lint + test + bench