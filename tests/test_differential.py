"""Cross-engine differential suite: every campaign engine, one verdict.

The engine zoo has grown -- interpreted session loops, compiled kernels,
exact fault dropping, lane-superposed fallback sessions, and the
chunk-steal campaign pool -- and each refactor so far was guarded
only by per-pair spot checks.  This module locks the whole matrix down in
the spirit of synthesized complete-test suites: for a corpus of
suite-registry machines and all four self-testable architectures it
asserts that

* every campaign engine produces a **bit-identical**
  :class:`CoverageReport` (dataclass equality: totals, per-block tallies,
  undetected-fault order),
* every PPSFP engine -- interpreted walker, per-fault compiled kernels,
  lane-superposed kernel, and the persistent worker pool -- produces a
  **bit-identical** :class:`CombinationalCoverage` on each machine's
  exhaustively driven combinational block,
* compiled self-test sessions produce the **same MISR signatures** as the
  seed interpreted loops, fault by fault,
* seeded campaigns and PPSFP runs match the **golden regression files**
  under ``tests/golden/`` (per-fault verdicts + fault-free signatures),
  so an engine refactor cannot silently change a verdict.  Regenerate the
  files with ``pytest tests/test_differential.py --update-golden`` after
  an *intentional* semantic change.

CI runs this module across a seed matrix: ``REPRO_DIFF_SEED`` moves the
campaign seed, ``REPRO_DIFF_POOL`` sizes the shared persistent worker
pool and ``REPRO_DIFF_COLLAPSE`` (``none``/``equiv``) additionally runs
every non-baseline engine over collapsed equivalence-class
representatives -- the verdicts are expanded back, so the whole matrix
must still equal the uncollapsed interpreted oracle (the golden cases pin
their own seed and are matrix-invariant).  The ``workers`` cells run each
campaign on its own two-worker ephemeral pool (controller preloaded at
fork) in every matrix cell, and dedicated ``collapsed-*`` cells always
exercise the serial, ephemeral-pool and shared-pool paths with
``collapse="equiv"`` regardless of the environment.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro import suite
from repro.bist.architectures import (
    build_conventional_bist,
    build_doubled,
    build_parallel_self_test,
    build_pipeline,
)
from repro.faults.coverage import measure_coverage
from repro.faults.pool import CampaignPool
from repro.faults.simulator import exhaustive_patterns, simulate_patterns
from repro.ostr.search import search_ostr

SEED = int(os.environ.get("REPRO_DIFF_SEED", "3"))
WORKERS = 2
POOL_WORKERS = int(os.environ.get("REPRO_DIFF_POOL", "2"))
COLLAPSE = os.environ.get("REPRO_DIFF_COLLAPSE", "none")
CYCLES = 48

MACHINES = ("shiftreg", "tav", "dk27", "bbtas")
ARCHITECTURES = ("conventional", "parallel", "doubled", "pipeline")

_POOL = None


def _pool() -> CampaignPool:
    """One persistent pool for every pooled cell of the matrix (that IS the
    differential point: many campaigns over the same long-lived workers)."""
    global _POOL
    if _POOL is None:
        _POOL = CampaignPool(max(1, POOL_WORKERS))
    return _POOL


@pytest.fixture(scope="module", autouse=True)
def _close_pool():
    yield
    global _POOL
    if _POOL is not None:
        _POOL.close()
        _POOL = None


#: engine label -> campaign thunk; "interpreted" is the differential
#: baseline and therefore never collapses.  The other engines collapse
#: when the CI matrix asks for it (REPRO_DIFF_COLLAPSE); the collapsed-*
#: cells pin ``collapse="equiv"`` so every run covers the collapse axis
#: across the serial, ephemeral-pool and shared-pool paths.
ENGINES = {
    "interpreted": lambda c, seed: measure_coverage(
        c, cycles=CYCLES, seed=seed, engine="interpreted"
    ),
    "compiled": lambda c, seed: measure_coverage(
        c, cycles=CYCLES, seed=seed, collapse=COLLAPSE
    ),
    "superposed": lambda c, seed: measure_coverage(
        c, cycles=CYCLES, seed=seed, dropping=True, collapse=COLLAPSE
    ),
    "dropping-serial": lambda c, seed: measure_coverage(
        c, cycles=CYCLES, seed=seed, dropping=True, superpose=False,
        collapse=COLLAPSE,
    ),
    "workers": lambda c, seed: measure_coverage(
        c, cycles=CYCLES, seed=seed, workers=WORKERS, dropping=True,
        collapse=COLLAPSE,
    ),
    "pooled": lambda c, seed: measure_coverage(
        c, cycles=CYCLES, seed=seed, dropping=True, pool=_pool(),
        collapse=COLLAPSE,
    ),
    "collapsed-serial": lambda c, seed: measure_coverage(
        c, cycles=CYCLES, seed=seed, dropping=True, collapse="equiv"
    ),
    "collapsed-workers": lambda c, seed: measure_coverage(
        c, cycles=CYCLES, seed=seed, workers=WORKERS, dropping=True,
        collapse="equiv",
    ),
    "collapsed-pooled": lambda c, seed: measure_coverage(
        c, cycles=CYCLES, seed=seed, dropping=True, pool=_pool(),
        collapse="equiv",
    ),
}

_BUILDERS = {
    "conventional": build_conventional_bist,
    "parallel": build_parallel_self_test,
    "doubled": build_doubled,
    "pipeline": lambda machine: build_pipeline(search_ostr(machine).realization()),
}

_CONTROLLERS = {}
_BASELINES = {}


def _controller(name: str, architecture: str):
    key = (name, architecture)
    if key not in _CONTROLLERS:
        _CONTROLLERS[key] = _BUILDERS[architecture](suite.load(name))
    return _CONTROLLERS[key]


def _baseline(name: str, architecture: str):
    key = (name, architecture)
    if key not in _BASELINES:
        _BASELINES[key] = ENGINES["interpreted"](
            _controller(name, architecture), SEED
        )
    return _BASELINES[key]


@pytest.mark.parametrize("architecture", ARCHITECTURES)
@pytest.mark.parametrize("name", MACHINES)
@pytest.mark.parametrize(
    "engine", [label for label in ENGINES if label != "interpreted"]
)
def test_engines_bit_identical(name, architecture, engine):
    """Every engine's CoverageReport equals the interpreted oracle's."""
    controller = _controller(name, architecture)
    report = ENGINES[engine](controller, SEED)
    assert report == _baseline(name, architecture), (
        f"{engine} diverged from the interpreted oracle on "
        f"{name}/{architecture}"
    )


@pytest.mark.parametrize("architecture", ARCHITECTURES)
@pytest.mark.parametrize("name", MACHINES)
def test_session_signatures_match_interpreted(name, architecture):
    """Compiled session MISR signatures == interpreted, fault by fault."""
    controller = _controller(name, architecture)
    universe = controller.fault_universe()
    probes = [None] + universe[:: max(1, len(universe) // 8)]
    for fault in probes:
        compiled = controller.self_test_signatures(
            fault=fault, cycles=CYCLES, seed=SEED
        )
        interpreted = controller.self_test_signatures(
            fault=fault, cycles=CYCLES, seed=SEED, engine="interpreted"
        )
        assert compiled == interpreted, (name, architecture, fault)


# -- golden-signature regression files --------------------------------------

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_SEED = 3
GOLDEN_CYCLES = 48
GOLDEN_CASES = (
    ("dk27", "conventional"),
    ("dk27", "pipeline"),
    ("bbtas", "doubled"),
    ("shiftreg", "parallel"),
    ("tav", "pipeline"),
)


def _fault_key(block, fault) -> str:
    return f"{block}: {fault.describe()}"


def _golden_payload(name: str, architecture: str) -> dict:
    """Seeded campaign -> JSON-stable per-fault verdicts + signatures."""
    controller = _controller(name, architecture)
    report = measure_coverage(
        controller, cycles=GOLDEN_CYCLES, seed=GOLDEN_SEED, dropping=True
    )
    undetected = {_fault_key(block, fault) for block, fault in report.undetected}
    return {
        "machine": name,
        "architecture": architecture,
        "cycles": GOLDEN_CYCLES,
        "seed": GOLDEN_SEED,
        "fault_free_signatures": list(
            controller.self_test_signatures(
                fault=None, cycles=GOLDEN_CYCLES, seed=GOLDEN_SEED
            )
        ),
        "total": report.total,
        "detected": report.detected,
        "by_block": {
            block: list(counts) for block, counts in sorted(report.by_block.items())
        },
        "verdicts": [
            [_fault_key(block, fault), _fault_key(block, fault) not in undetected]
            for block, fault in controller.fault_universe()
        ],
    }


@pytest.mark.parametrize("name,architecture", GOLDEN_CASES)
def test_golden_signatures(name, architecture, update_golden):
    """Engine refactors cannot silently change seeded campaign verdicts."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    path = GOLDEN_DIR / f"{name}_{architecture}.json"
    payload = _golden_payload(name, architecture)
    if update_golden:
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
        return
    assert path.exists(), (
        f"golden file {path.name} missing -- generate it with "
        "`pytest tests/test_differential.py --update-golden`"
    )
    stored = json.loads(path.read_text(encoding="utf-8"))
    assert payload == stored, (
        f"campaign verdicts drifted from {path.name}; if the change is "
        "intentional, regenerate with --update-golden"
    )


# -- PPSFP axis: pattern-set fault simulation across all engines -------------

#: block label -> netlist extractor on a built controller corpus.
PPSFP_BLOCKS = {
    "conventional-C": lambda name: _controller(name, "conventional").plain.network,
    "pipeline-C1": lambda name: _controller(name, "pipeline").c1,
    "pipeline-lambda": lambda name: _controller(name, "pipeline").lambda_net,
}

PPSFP_ENGINE_THUNKS = {
    "interpreted": lambda n, p: simulate_patterns(n, p, engine="interpreted"),
    "compiled": lambda n, p: simulate_patterns(
        n, p, engine="compiled", collapse=COLLAPSE
    ),
    "superposed": lambda n, p: simulate_patterns(
        n, p, engine="superposed", collapse=COLLAPSE
    ),
    "pooled": lambda n, p: simulate_patterns(n, p, pool=_pool(), collapse=COLLAPSE),
    "collapsed": lambda n, p: simulate_patterns(n, p, collapse="equiv"),
    "collapsed-pooled": lambda n, p: simulate_patterns(
        n, p, pool=_pool(), collapse="equiv"
    ),
}

_PPSFP_BASELINES = {}


def _ppsfp_case(name: str, block: str):
    network = PPSFP_BLOCKS[block](name)
    return network, exhaustive_patterns(len(network.inputs))


def _ppsfp_baseline(name: str, block: str):
    key = (name, block)
    if key not in _PPSFP_BASELINES:
        network, patterns = _ppsfp_case(name, block)
        _PPSFP_BASELINES[key] = PPSFP_ENGINE_THUNKS["interpreted"](
            network, patterns
        )
    return _PPSFP_BASELINES[key]


@pytest.mark.parametrize("block", sorted(PPSFP_BLOCKS))
@pytest.mark.parametrize("name", MACHINES)
@pytest.mark.parametrize(
    "engine", [label for label in PPSFP_ENGINE_THUNKS if label != "interpreted"]
)
def test_ppsfp_engines_bit_identical(name, block, engine):
    """Every PPSFP engine's CombinationalCoverage equals the walker oracle's."""
    network, patterns = _ppsfp_case(name, block)
    outcome = PPSFP_ENGINE_THUNKS[engine](network, patterns)
    assert outcome == _ppsfp_baseline(name, block), (
        f"PPSFP engine {engine} diverged from the interpreted oracle on "
        f"{name}/{block}"
    )


# -- golden combinational-coverage files -------------------------------------

PPSFP_GOLDEN_CASES = (
    ("dk27", "conventional-C"),
    ("tav", "pipeline-C1"),
    ("bbtas", "pipeline-lambda"),
    ("shiftreg", "conventional-C"),
)


def _ppsfp_golden_payload(name: str, block: str) -> dict:
    """Exhaustive PPSFP run -> JSON-stable per-fault verdicts."""
    network, patterns = _ppsfp_case(name, block)
    outcome = simulate_patterns(network, patterns)
    undetected = {fault.describe() for fault in outcome.undetected}
    from repro.faults.stuck_at import all_faults

    return {
        "machine": name,
        "block": block,
        "netlist": outcome.netlist,
        "n_patterns": outcome.n_patterns,
        "total": outcome.total,
        "detected": outcome.detected,
        "verdicts": [
            [fault.describe(), fault.describe() not in undetected]
            for fault in all_faults(network)
        ],
    }


@pytest.mark.parametrize("name,block", PPSFP_GOLDEN_CASES)
def test_golden_combinational_coverage(name, block, update_golden):
    """PPSFP kernel refactors cannot silently change pattern-set verdicts."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    path = GOLDEN_DIR / f"ppsfp_{name}_{block}.json"
    payload = _ppsfp_golden_payload(name, block)
    if update_golden:
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
        return
    assert path.exists(), (
        f"golden file {path.name} missing -- generate it with "
        "`pytest tests/test_differential.py --update-golden`"
    )
    stored = json.loads(path.read_text(encoding="utf-8"))
    assert payload == stored, (
        f"PPSFP verdicts drifted from {path.name}; if the change is "
        "intentional, regenerate with --update-golden"
    )
