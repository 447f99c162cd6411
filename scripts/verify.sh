#!/usr/bin/env bash
# Repo verification: the determinism lint (plus ruff/mypy when they are
# installed -- the CI lint cell always runs them), tier-1 tests, the
# cross-engine differential suite (which fails on any golden-file
# drift), the prescreen-soundness suite with a validate-mode mini-sweep,
# and a smoke run of the speed benchmark (which asserts the optimised
# engine is bit-identical to the reference paths), and the end-to-end
# benchmark's own tests (perfbench/).  When pytest-cov is
# available (CI installs it) the tier-1 run additionally enforces the
# line-coverage floor over the fault-simulation and netlist packages.
# Used by CI and by hand before merging.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== determinism lint (tools/lint/repro_lint.py) =="
python tools/lint/repro_lint.py

if command -v ruff >/dev/null 2>&1; then
  echo "== ruff =="
  ruff check src benchmarks tools
else
  echo "(ruff not installed; skipping -- the CI lint cell runs it)"
fi

if command -v mypy >/dev/null 2>&1; then
  echo "== mypy (gradual; analysis/netlist/fsm strict) =="
  mypy src/repro
else
  echo "(mypy not installed; skipping -- the CI lint cell runs it)"
fi

echo "== tier-1 tests =="
if python -c "import pytest_cov" >/dev/null 2>&1; then
  python -m pytest -x -q --cov=repro.faults --cov=repro.netlist \
    --cov-report=term --cov-fail-under=85
else
  echo "(pytest-cov not installed; running without the coverage floor)"
  python -m pytest -x -q
fi

echo "== differential suite (cross-engine + PPSFP matrix, golden signatures, pool lifecycle) =="
python -m pytest tests/test_differential.py tests/test_prop_superposed.py \
  tests/test_prop_ppsfp.py tests/test_pool.py -q

echo "== chaos suite (injected crashes/hangs/pipe-close vs serial oracle) =="
python -m pytest tests/test_chaos.py -q

echo "== synthesis equivalence (bitset kernels vs label oracle, Table-1 golden stats) =="
python -m pytest tests/test_prop_partitions.py tests/test_search_fast.py \
  tests/test_table1_golden.py -q

echo "== corpus + sweep harness (golden shards, manifest ledger, KISS round trips) =="
python -m pytest tests/test_corpus_golden.py tests/test_sweep.py \
  tests/test_prop_kiss.py -q

echo "== campaign service (job engine, HTTP surface, chaos, sweep bit-identity) =="
python -m pytest tests/test_service.py -q

echo "== durable service (write-ahead journal, crash recovery, client resilience) =="
python -m pytest tests/test_journal.py tests/test_service_chaos.py -q

echo "== prescreen soundness (validate-mode mini-sweep: engines vs the untestability prover) =="
python -m pytest tests/test_prescreen.py tests/test_untestable.py \
  tests/test_structure.py tests/test_repro_lint.py -q
PRESCREEN_TMP="$(mktemp -d)"
python -m repro.cli sweep --out "$PRESCREEN_TMP/validate" \
  --families table1 --limit 4 --prescreen validate --no-timings --quiet
python -m repro.cli sweep --verify "$PRESCREEN_TMP/validate"
rm -rf "$PRESCREEN_TMP"

echo "== end-to-end benchmark harness (perfbench: gate, pins, speed meter, tracing) =="
python -m pytest perfbench/test_perfbench.py -q

echo "== speed benchmark (smoke; prints speedup vs committed baseline) =="
python benchmarks/bench_speed.py --smoke
