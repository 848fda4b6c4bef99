# Single source of truth for the commands CI runs — `make lint` locally
# is exactly the lint job, `make bench-smoke` exactly the bench job,
# and `make ci-local` walks the whole job sequence in one go.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint test bench bench-smoke bench-emit fault-matrix serve-smoke serve-bench chaos-serve layerbench-smoke perf-gate ci-local src-delta snapshot-split query-split shard-split sort-split emit-split ledger

lint:
	ruff check .

# Extra pytest flags ride through PYTEST_ARGS — CI passes
# --junitxml/--durations here so local runs stay terse by default.
PYTEST_ARGS ?=
test:
	$(PYTHON) -m pytest -x -q $(PYTEST_ARGS)

# Full benchmark harness: timing rounds + regenerated tables/figures.
bench:
	$(PYTHON) -m pytest benchmarks/ -q --benchmark-only

# One pass through every benchmark without timing rounds — catches
# import/logic rot cheaply; artifacts still land in benchmarks/results/.
bench-smoke:
	$(PYTHON) -m pytest benchmarks/ -q --benchmark-disable

# Emit-path benchmark alone: regenerate BENCH_emit.json (lazy vs
# materialized time/memory ratios, span counters) and
# render the before/after table against the committed baseline — the
# table also lands in $$GITHUB_STEP_SUMMARY when that variable is set.
bench-emit:
	$(PYTHON) -m pytest benchmarks/test_perf_emit.py -q --benchmark-disable
	$(PYTHON) benchmarks/perf_gate.py --fresh-dir benchmarks/results \
		--baseline-git HEAD

# Fault-tolerance matrix: drive retry / pool-respawn / resume /
# quarantine against injected faults at WORKERS shards, assert results
# stay bit-identical, and export the RunHealth telemetry JSON to
# benchmarks/results/BENCH_fault_health_$(WORKERS).json.
WORKERS ?= 2
fault-matrix:
	$(PYTHON) -m pytest tests/test_faults.py -q
	$(PYTHON) benchmarks/run_fault_matrix.py --workers $(WORKERS)

# Ingestion-service smoke: boot `repro.cli serve` as a subprocess,
# drive a two-tenant scenario through the load generator, assert AH
# parity with offline run_scenario, then SIGKILL and restore from the
# snapshot directory (benchmarks/run_serve_smoke.py).
serve-smoke:
	$(PYTHON) -m pytest tests/test_serve.py tests/test_tenants.py tests/test_engine.py tests/test_foldpool.py tests/test_snapshot_commit.py -q
	$(PYTHON) benchmarks/run_serve_smoke.py

# Serve-path throughput benchmark: boot the real server twice (per-chunk
# executor folds vs micro-batched pool folds) over the same 4-tenant
# workload, assert AH parity, and regenerate
# benchmarks/results/BENCH_serve.json for the perf gate.  SERVE_BENCH_ARGS
# defaults to the CI smoke profile; set it empty for the full workload.
SERVE_BENCH_ARGS ?= --smoke
serve-bench:
	$(PYTHON) benchmarks/run_serve_bench.py $(SERVE_BENCH_ARGS)

# Serve-path chaos harness: SIGKILL the real server subprocess at
# seeded-random points under two-tenant load, CHAOS_ROUNDS times, and
# prove zero acked-chunk loss (journal replay) plus exact AH parity
# with the offline pipeline.  Report: benchmarks/results/BENCH_chaos_serve.json.
CHAOS_ROUNDS ?= 5
chaos-serve:
	$(PYTHON) -m pytest tests/test_journal.py tests/test_snapshot_commit.py -q
	$(PYTHON) benchmarks/run_chaos_serve.py --rounds $(CHAOS_ROUNDS)

# Net line change of src/ and tests/ against a git ref — the figure
# every change states: `make src-delta BASE=<ref>`.
src-delta:
	@test -n "$(BASE)" || { echo "usage: make src-delta BASE=<git ref>" >&2; exit 2; }
	@git diff --shortstat $(BASE) -- src/ tests/

# Where serve-ingest snapshot time goes: replay the repository
# benchmark's serve-ingest input (seed SEED) into an inline 2-shard
# engine and commit a snapshot at every 16th chunk, printing each
# shard's to_bytes, write + fsync and from_bytes time and bytes, its
# open-flow state vs history, the manifest commit time, and the bytes
# hashed per shard-state byte.
SEED ?= 1
snapshot-split:
	$(PYTHON) benchmarks/snapshot_split.py --seed $(SEED)

# Where serve-query AH query time goes: rebuild the repository
# benchmark's serve-query state (seed SEED) in an inline 2-shard engine
# and print, at every trickle fold, each shard's summary time and bytes,
# its Definition-1 candidates (bounded, settled, unioned) and the merge
# time; exits 1 if an answer differs from finish() on a copy.
query-split:
	$(PYTHON) benchmarks/query_split.py --seed $(SEED)

# How evenly detection's source-hash shards split the work: run
# generate+detect and --capture-dir replay at WORKERS workers on
# darknet-2021 (2 days) and print every worker's packets and busy
# seconds with the max/min spread; exits 1 if the two paths' AH sets
# differ.  The spread only means something with >= WORKERS free cores.
shard-split:
	$(PYTHON) benchmarks/shard_split.py --workers $(WORKERS)

# Each packed-key sort kernel (repro.sortkeys) against the numpy call it
# replaced, on the repository benchmark's study capture (seed SEED,
# scenario SCENARIO): rows, best-of-3 ms for both, their ratio; exits 1
# if any kernel's output differs from its oracle's.
sort-split:
	$(PYTHON) benchmarks/sort_split.py --seed $(SEED) --scenario $(SCENARIO)

# Where capture emission time goes, on the repository benchmark's study
# world (seed SEED, scenario SCENARIO): best-of-3 ms of the span plan's
# stages (plan, derive, generate, assemble + sort) for Telescope.capture
# and the lazy sweep; exits 1 if either path's packets differ from the
# scanner-by-scanner oracle (tests/emit_oracle.py).
emit-split:
	$(PYTHON) benchmarks/emit_split.py --seed $(SEED) --scenario $(SCENARIO)

# One traced repository-benchmark run (workload WORKLOAD, seed SEED,
# scenario SCENARIO) and its per-layer ledger sorted by self seconds,
# with calls: the before/after line an optimisation change shows for
# the layer it targets.  layerbench/ is only run, never changed.
WORKLOAD ?= study-batch
SCENARIO ?= stream-72h
ledger:
	$(PYTHON) layerbench/run.py --workload $(WORKLOAD) --seed $(SEED) \
		--scenario $(SCENARIO) --trace 1 | $(PYTHON) benchmarks/ledger_table.py

# The repository benchmark's smoke tests (layerbench/): every workload
# on the tiny scenario, untraced and traced, with its output checks.
layerbench-smoke:
	$(PYTHON) -m pytest layerbench/tests -q

# Perf-regression gate: compare regenerated BENCH_*.json against the
# committed baselines.  In CI, FRESH_RESULTS lists the downloaded
# artifact directories (bench-smoke + serve lanes, space-separated) and
# the baseline is the checkout; locally (after bench-smoke overwrote
# benchmarks/results in place) set BASELINE_GIT=HEAD to diff against
# the committed versions.
FRESH_RESULTS ?= benchmarks/results
BASELINE_GIT ?=
perf-gate:
	$(PYTHON) benchmarks/perf_gate.py \
		$(foreach dir,$(FRESH_RESULTS),--fresh-dir $(dir)) \
		$(if $(BASELINE_GIT),--baseline-git $(BASELINE_GIT),)

# The whole CI job sequence, in order, on the local machine: lint,
# byte-compile, tier-1 tests (with the same JUnit/durations artifacts),
# benchmark smoke, ingestion-service smoke + bench + chaos, both fault
# matrices, the layerbench smoke with the five split probes and the traced
# study ledger on the tiny scenario, then the perf gate against the
# committed (HEAD) baselines.
ci-local:
	$(MAKE) lint
	$(PYTHON) -m compileall -q src
	mkdir -p test-results
	$(MAKE) test PYTEST_ARGS="--junitxml=test-results/junit.xml --durations=20"
	$(MAKE) bench-smoke
	$(MAKE) serve-smoke
	$(MAKE) serve-bench
	$(MAKE) chaos-serve
	$(MAKE) fault-matrix WORKERS=2
	$(MAKE) fault-matrix WORKERS=4
	$(MAKE) layerbench-smoke
	$(PYTHON) benchmarks/query_split.py --scenario tiny
	$(PYTHON) benchmarks/snapshot_split.py --scenario tiny
	$(PYTHON) benchmarks/shard_split.py --scenario tiny --workers 2
	$(MAKE) sort-split SEED=1 SCENARIO=tiny
	$(MAKE) emit-split SEED=1 SCENARIO=tiny
	$(MAKE) ledger WORKLOAD=study-batch SEED=1 SCENARIO=tiny
	$(MAKE) perf-gate BASELINE_GIT=HEAD
