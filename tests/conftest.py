"""Shared fixtures: the paper's machines and small reusable corpora."""

from __future__ import annotations

import faulthandler
import os

import pytest

from repro.fsm import MealyMachine, random_mealy
from repro.suite import paper_example, paper_example_pair, shift_register


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate tests/golden/*.json from the current engine "
        "instead of asserting against the stored verdicts/signatures",
    )


#: Wall-clock seconds one test (setup, call and teardown) may take.  Past
#: it every thread's stack is dumped and the run ends, so a hang fails
#: fast instead of passing slowly.  The slowest tier-1 test takes about
#: 10 s, the heavy goldens about 60 s.
HANG_GUARD_S = 300


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    # Between test phases output capture is suspended, so this duplicate
    # of stderr still reaches the terminal while the test itself runs.
    stderr = os.dup(2)
    faulthandler.dump_traceback_later(HANG_GUARD_S, exit=True, file=stderr)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
        os.close(stderr)


@pytest.fixture
def update_golden(request) -> bool:
    """True when the run should rewrite the golden regression files."""
    return request.config.getoption("--update-golden")


@pytest.fixture
def example_machine() -> MealyMachine:
    """The Figure-5 running example (OCR-corrected)."""
    return paper_example()


@pytest.fixture
def example_pair():
    """The published Figure-6 symmetric partition pair."""
    return paper_example_pair()


@pytest.fixture
def shiftreg() -> MealyMachine:
    """The exact IWLS'93 ``shiftreg`` machine (3-bit shift register)."""
    return shift_register(3)


@pytest.fixture
def small_corpus():
    """A deterministic corpus of small reduced machines for differential tests."""
    corpus = []
    for n in (3, 4, 5):
        for n_inputs in (1, 2):
            for seed in (0, 1, 2):
                corpus.append(
                    random_mealy(
                        n,
                        n_inputs,
                        2,
                        seed=seed,
                        ensure_connected=False,
                        ensure_reduced=True,
                        max_tries=100,
                    )
                )
    return corpus


def brute_force_is_pair(machine: MealyMachine, pi, theta) -> bool:
    """Literal Definition 4: quantify over all related pairs and inputs."""
    for block in pi.blocks():
        for s in block:
            for t in block:
                for symbol in machine.inputs:
                    if not theta.related(
                        machine.delta(s, symbol), machine.delta(t, symbol)
                    ):
                        return False
    return True
