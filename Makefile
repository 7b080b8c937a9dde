.PHONY: all build test bench bench-check audit mc telemetry history doc clean examples check fmt fuzz runs-diff

all: build

build:
	dune build @all

test:
	dune runtest

# The CI gate: full build, tests, formatting drift and every rule
# attached to the root `check` alias (see the root dune file).
check:
	dune build @check

fmt:
	dune fmt

# Long-running property-based differential fuzzing (kept out of
# `make check` / @runtest; the deterministic 200-case smoke tier runs
# there instead). Tune with FUZZ_COUNT / FUZZ_SEED / FUZZ_MAX_GATES.
FUZZ_COUNT ?= 2000
FUZZ_SEED ?= 42
FUZZ_MAX_GATES ?= 12
fuzz:
	dune exec bin/treorder_cli.exe -- fuzz --seed $(FUZZ_SEED) \
	  --count $(FUZZ_COUNT) --max-gates $(FUZZ_MAX_GATES) --stats

# JOBS= sets the domain count for parallel gate sweeps (exported as
# TREORDER_JOBS, read by the CLI's --jobs default and the perf_parallel
# bench target), e.g. `make bench JOBS=8`.
JOBS ?=
ifneq ($(JOBS),)
export TREORDER_JOBS := $(JOBS)
endif

bench:
	dune exec bench/main.exe

# Regression gate: rerun the fast deterministic targets and compare
# their Obs counters against the committed fixture. Counters only
# (--no-time), so the gate is stable across machines. Refresh the
# fixture after an intentional behaviour change with:
#   dune exec bench/main.exe -- --out bench/baseline_check.json \
#     table1 table2 probe_overhead perf_mc perf_eco telemetry_overhead
BENCH_BASELINE ?= bench/baseline_check.json
bench-check:
	dune exec bench/main.exe -- --baseline $(BENCH_BASELINE) \
	  --check --no-time --out /tmp/bench_check_obs.json \
	  table1 table2 probe_overhead perf_mc perf_eco telemetry_overhead

# Cross-run provenance diff: compare two archived run records (or the
# latest run under two archive roots). Produce records with the
# --archive DIR option of any pipeline subcommand, then e.g.
#   make runs-diff DIR_A=runs/monday DIR_B=runs/tuesday
DIR_A ?= par_det_a
DIR_B ?= par_det_b
runs-diff:
	dune exec bin/treorder_cli.exe -- runs diff $(DIR_A) $(DIR_B)

# Fleet history analytics: scan an archive root (accumulated with the
# --archive DIR option of any pipeline subcommand), print per-series
# trends and changepoints, and write + validate the self-contained
# HTML dashboard. Defaults to the committed drift fixture so the
# target demos an attributed regression out of the box; point it at a
# real archive with e.g. `make history HISTORY_ROOT=runs`.
HISTORY_ROOT ?= bench/history_fixture/drift
HISTORY_HTML ?= /tmp/treorder_history.html
history:
	dune exec bin/treorder_cli.exe -- runs history $(HISTORY_ROOT) \
	  --metric optimizer.configs_explored --metric wall_s \
	  --html $(HISTORY_HTML)
	dune exec bin/treorder_cli.exe -- report check $(HISTORY_HTML)

# Per-net calibration audit of the analytical model against the
# switch-level simulator, with the same deterministic bound the @check
# alias enforces (see the root dune file).
audit:
	dune exec bin/treorder_cli.exe -- audit tree16 --seed 42 \
	  --horizon 2e-3 --fail-above 10 --stats

# Monte-Carlo estimate of the same circuit with the bit-parallel
# engine; SAMPLES / SEED / JOBS tune the budget, stream and domain
# count, e.g. `make mc SAMPLES=1048576 JOBS=8`. MC_BOUND is the
# --fail-above gate, calibrated for the default budget (3.6% measured
# at 262144 samples); raise it when cutting SAMPLES, since the mean
# density error floor scales with 1/sqrt(samples).
SAMPLES ?= 262144
SEED ?= 42
MC_BOUND ?= 5
mc:
	dune exec bin/treorder_cli.exe -- audit tree16 --backend mc \
	  --samples $(SAMPLES) --seed $(SEED) $(if $(JOBS),--jobs $(JOBS)) \
	  --fail-above $(MC_BOUND) --stats

# Live-telemetry smoke: optimize with a fast sampler, then verify the
# heartbeat stream and the OpenMetrics exposition agree with the run
# (the same check the @check alias runs hermetically in _build).
telemetry:
	dune exec bin/treorder_cli.exe -- optimize rca16 --seed 42 --jobs 2 \
	  --telemetry-interval 0.01 --metrics /tmp/treorder_metrics.prom \
	  --trace /tmp/treorder_telemetry.ndjson
	dune exec bin/treorder_cli.exe -- trace telemetry \
	  /tmp/treorder_telemetry.ndjson --metrics /tmp/treorder_metrics.prom \
	  --min-heartbeats 3 --max-sample-ns 200000000
	dune exec bin/treorder_cli.exe -- top --replay /tmp/treorder_telemetry.ndjson

# Individual reproduction targets, e.g. `make table3`
table1 table2 figure5 table3_a table3_b adder_profile ablation_delay \
ablation_inputreorder model_accuracy glitch sensitivity exactness \
sequential gate_accuracy proptest probe_overhead perf perf_parallel \
perf_mc telemetry_overhead:
	dune exec bench/main.exe -- $@

examples:
	dune exec examples/quickstart.exe
	dune exec examples/ripple_carry.exe
	dune exec examples/gate_explorer.exe
	dune exec examples/scenario_sweep.exe
	dune exec examples/map_equations.exe
	dune exec examples/library_characterization.exe

doc:
	dune build @doc

clean:
	dune clean
