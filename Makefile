.PHONY: help install test lint bench-report eval exp profile entries opcodes bpf-source perf docs examples reachability all

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
lint:  ## ruff over src/tests/examples/tools (skipped if absent)
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests examples tools; \
	else \
		echo "ruff not installed; skipping lint (CI runs it)"; \
	fi

# E14 continuous benchmark, the simulated clock's one harness (the host
# clock's is perfbench: `make perf`, `make profile`): run every
# experiment under the telemetry sampler, publish a canonical
# BENCH_<n>.json at the repo root, diff it against the previous artifact
# (>20% on a tracked latency/throughput is a regression) and hold every
# default-config report to its paper claims (`accept` in the registry).
# Same seed => byte-identical artifact.
bench-report:  ## E14: publish + gate BENCH_<n>.json, check paper claims
	python -m repro.bench --check

eval:  ## run every experiment and print the artifacts
	python -m repro.eval

# One experiment's report: `make exp E=e16` (ids: python -m repro.eval
# --list; the registry is src/repro/eval/registry.py). Reports are
# byte-identical per seed, including across PYTHONHASHSEED. Each
# experiment's unit tests run under tier-1 `make test`.
exp:  ## one experiment's report: make exp E=e16
	python -m repro.eval $(E)

# Simulator hot-spot profile: one traced perfbench run, host time and
# event counts attributed per layer. Start perf PRs here: `make profile
# W=offload-fail2ban` (workloads: python3 perfbench/run.py --help;
# default kv-unbatched-rw).
W ?= kv-unbatched-rw
profile:  ## per-layer hot-spot report: make profile W=offload-fail2ban
	python3 perfbench/run.py --workload $(W) --seconds 3 --trace 1

# Where a workload's engine entries go: one untimed perfbench run on a
# simulator that names what every entry runs, printed as entries per
# attempted op by owner (tools/entry_census.py; writes nothing). Same W.
entries:  ## engine-entry census: make entries W=kv-batched-read
	python tools/entry_census.py $(W)

# Interpreter work per op: the same workload's measured window under a
# bytecode-counting trace hook, bytecodes and Python calls per attempted
# op, in total and by function (tools/opcount.py; exact, so a few per cent
# of host work shows without timed pairs; ~50x slower than a plain run,
# SCALE shrinks the window). Same W.
SEED ?= 11
SCALE ?= 1.0
opcodes:  ## bytecodes + Python calls per op: make opcodes W=kv-unbatched-rw
	python tools/opcount.py $(W) --seed $(SEED) --scale $(SCALE)

# What the eBPF compiler makes of the fail2ban filter: the Python text of
# its run function (repro.ebpf.vm._source), pinned by
# tests/test_ebpf_translate.py, so an emitter change shows as a diff.
bpf-source:  ## print the fail2ban filter's compiled run function
	python -c "from repro.apps.fail2ban import build_fail2ban_program as b; \
		from repro.ebpf.vm import _source; print(_source(b()), end='')"

# The repository's performance benchmark (BENCHMARK.json): all five
# workloads, one sample each, results under perfbench/out/.
perf:  ## full perfbench run: five workloads, two clocks
	python3 perfbench/run.py

# Documentation hygiene: markdown link check + doctest'd examples
# (mirrors the CI docs job).
docs:  ## markdown link check + doctest examples (CI docs job)
	python tools/check_links.py README.md DESIGN.md EXPERIMENTS.md docs
	pytest --doctest-modules src/repro/common src/repro/sharding src/repro/workload src/repro/hw/nvme src/repro/ebpf src/repro/hdl -q

# What under src/ no root runs (the CLIs and so every registry row,
# examples/, perfbench/, the make tools), methods resolved through the
# receiver's class; then every defaulted parameter of a live def outside
# repro.eval that no live call passes; every attribute or dataclass field
# stored and never read; every parameter or field every live call sets
# to one value. Each list ends with its total;
# tests/test_architecture.py pins all four.
reachability:  ## list what under src/ nothing runs, sets, reads or varies
	python tools/reachability.py

examples:  ## run every examples/*.py end to end
	@for ex in examples/*.py; do \
		echo "== $$ex =="; \
		python $$ex || exit 1; \
	done

all: lint test bench-report  ## lint + test + bench-report