"""Section-1 fault-coverage claims, measured by fault simulation.

The paper claims for the pipeline structure that "the fault coverage is
increased" relative to a conventional BIST (whose feedback lines R -> T
are structurally untestable during self-test, drawback 3) and that a
complete coverage is possible (no transparency, both blocks exhaustively
exercised by the alternating sessions).

Each bench row fault-simulates an architecture's complete self-test over
the uncollapsed single-stuck-at universe.
"""

from __future__ import annotations

import pytest

from _bench_util import register_artifact
from repro import experiments, suite
from repro.fsm.random_machines import random_input_word
from repro.pipeline import build_controller
from repro.suite import paper_example

MACHINES = ["shiftreg", "tav", "dk27"]

_ROWS = []


@pytest.mark.parametrize("name", MACHINES)
def test_coverage_measurement(benchmark, name):
    machine = suite.load(name)
    rows = benchmark.pedantic(
        lambda: experiments.run_coverage(machine), iterations=1, rounds=1
    )
    _ROWS.extend(rows)
    parallel, conventional, doubled, pipeline = rows
    # The ordering claim of the paper, measured over *detectable* faults
    # (raw universes differ: the pipeline's don't-care-rich blocks contain
    # more combinationally redundant faults, which no test can ever catch).
    assert pipeline.detectable_coverage == 1.0
    assert pipeline.detectable_coverage >= doubled.detectable_coverage
    assert pipeline.detectable_coverage >= conventional.detectable_coverage
    # Parallel self-test ("signatures as patterns") is never better and
    # usually much worse -- the paper's Section-1 point about Figure 1.
    assert pipeline.detectable_coverage >= parallel.detectable_coverage
    # The conventional architecture structurally misses its feedback lines.
    assert conventional.structurally_missed > 0


def test_feedback_faults_matter_in_system_mode(benchmark):
    """The missed faults are not benign: they disturb system operation."""
    machine = suite.load("dk27")
    conventional = build_controller(machine, "conventional")
    word = random_input_word(machine, 128, seed=17)

    def count_live():
        return [
            fault
            for fault in conventional.feedback_faults()
            if conventional.system_detectable_feedback_fault(fault, word)
        ]

    live = benchmark.pedantic(count_live, iterations=1, rounds=1)
    assert len(live) >= len(conventional.feedback_faults()) // 2


def test_coverage_report(benchmark):
    def assemble():
        rows = list(_ROWS)
        if not rows:
            for name in MACHINES:
                rows.extend(experiments.run_coverage(suite.load(name)))
        rows.extend(experiments.run_coverage(paper_example()))
        return rows

    rows = benchmark.pedantic(assemble, iterations=1, rounds=1)
    register_artifact(
        "Fault coverage (Section 1 claims)", experiments.format_coverage(rows)
    )
