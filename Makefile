# Developer entry points.  Everything runs from the repo root with the
# in-tree sources on PYTHONPATH — no install step needed.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast test-slow lint contracts bench bench-hot bench-kernels bench-serving bench-dyn bench-fabric example-tuning

## Tier-1 suite: the full gate every change must keep green.
test:
	$(PYTHON) -m pytest -x -q

## Fast loop: skips tests marked `slow` (medium-scale smoke tests).
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

## Opt-in medium-scale smoke tests only.
test-slow:
	REPRO_RUN_SLOW=1 $(PYTHON) -m pytest -q -m slow

## Lint (CI runs this; requires ruff, which is not a runtime dependency):
## ruff for generic hygiene, then the repo's own static analyzer.
lint: contracts
	ruff check src tests

## The repo's one static analyzer: whole-program contract passes
## (CTR101-CTR501), the intraprocedural local rules (RPR001,
## RPR003-RPR005) and unused-pragma checks (CTR001); see
## docs/correctness_tooling.md.  Fails on any finding not in the
## checked-in baseline; also refreshes the coverage self-report.
contracts:
	$(PYTHON) -m repro.analysis.contracts --baseline contracts_baseline.json \
		--report results/contracts_report.txt src/repro

## KSP hot-path benchmark: workspace on/off for Yen/OptYen/PeeK.
## Writes BENCH_hot_path.json and results/hot_path.txt.
bench: bench-hot
bench-hot:
	$(PYTHON) benchmarks/bench_hot_path.py

## Δ-stepping backend sweep: scalar / vectorized / mp on the medium
## suite, bitwise agreement asserted per row.  Writes
## BENCH_sssp_kernels.json and results/sssp_kernels.txt.
bench-kernels:
	$(PYTHON) benchmarks/bench_sssp_kernels.py

## Serving-capacity benchmark: the medium run table on simulated time.
## Writes BENCH_serving.json and results/serving_capacity.txt.
bench-serving:
	$(PYTHON) benchmarks/bench_serving.py

## Live-graph serving benchmark: prune-bound reuse under seeded
## mutation streams.  Writes BENCH_dyn_serving.json and
## results/dyn_serving.txt.
bench-dyn:
	$(PYTHON) benchmarks/bench_dyn_serving.py

## Fabric SLO benchmark: replicated serving under seeded replica kills.
## Writes BENCH_fabric.json and results/fabric_slo.txt.
bench-fabric:
	$(PYTHON) benchmarks/bench_fabric.py

## The performance-tuning walkthrough (includes the workspace act).
example-tuning:
	$(PYTHON) examples/performance_tuning.py
