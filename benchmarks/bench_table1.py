"""Table 1: OSTR results on the 13-machine benchmark suite.

One benchmark per machine times the full depth-first search (registry
search options applied: ``dk16``/``dk512``/``s1``/``tbk`` run under node
limits exactly like the paper's ``tbk`` timeout run).  The assembled table
is printed at session end next to the published values.
"""

from __future__ import annotations

import pytest

from _bench_util import register_artifact, run_search_cached
from repro import experiments, suite
from repro.ostr import search_ostr

LIGHT = [n for n in suite.names() if n not in ("dk16", "dk512", "s1", "tbk")]
HEAVY = ["dk512", "s1", "tbk", "dk16"]

_ROWS = {}


def _record(name):
    _ROWS[name] = experiments.table1_row(name, run_search_cached(name))


@pytest.mark.parametrize("name", LIGHT)
def test_table1_light(benchmark, name):
    machine = suite.load(name)
    kwargs = suite.entry(name).search_kwargs

    result = benchmark(lambda: search_ostr(machine, **kwargs))
    _record(name)
    row = suite.entry(name).paper
    assert {result.solution.k1, result.solution.k2} == {row.s1, row.s2}
    assert result.solution.flipflops == row.pipeline_ff


@pytest.mark.parametrize("name", HEAVY)
def test_table1_heavy(benchmark, name):
    """Node-limited machines: a single timed round (searches take seconds)."""
    machine = suite.load(name)
    kwargs = suite.entry(name).search_kwargs

    result = benchmark.pedantic(
        lambda: search_ostr(machine, **kwargs), iterations=1, rounds=1
    )
    _record(name)
    row = suite.entry(name).paper
    assert {result.solution.k1, result.solution.k2} == {row.s1, row.s2}
    assert result.solution.flipflops == row.pipeline_ff


def test_table1_report(benchmark):
    """Assemble and publish the full table (all 13 rows)."""

    def assemble():
        for name in suite.names():
            if name not in _ROWS:
                _record(name)
        return [_ROWS[name] for name in suite.names()]

    rows = benchmark.pedantic(assemble, iterations=1, rounds=1)
    register_artifact("Table 1", experiments.format_table1(rows))
    assert all(row.matches_paper for row in rows)
