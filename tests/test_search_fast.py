"""The bitset OSTR engine and search must match the reference path exactly.

``search_ostr`` defaults to the bitset-native engine (mask-tuple
partitions, incremental ``m`` along DFS edges, Lemma-1-gated ``M``); the
paper-accounting contract is that solutions *and* every search statistic
stay identical to the label-tuple reference traversal (``reference=True``,
or the legacy ``fast=False`` spelling).
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fsm import random_mealy
from repro.ostr.search import search_ostr
from repro.partitions import kernel


@st.composite
def succ_tables(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    n_inputs = draw(st.integers(min_value=1, max_value=3))
    return [
        [draw(st.integers(0, n - 1)) for _ in range(n_inputs)] for _ in range(n)
    ]


@st.composite
def partitions_of(draw, n):
    raw = [draw(st.integers(0, n - 1)) for _ in range(n)]
    return kernel.canonical(raw)


@given(succ_tables(), st.data())
def test_bitset_kernel_matches_reference_operators(succ, data):
    n = len(succ)
    kern = kernel.BitsetKernel(succ)
    labels = data.draw(partitions_of(n))
    assert kern.m_labels(labels) == kernel.m_operator(succ, labels)
    assert kern.big_m_labels(labels) == kernel.big_m_operator(succ, labels)


@given(st.integers(min_value=1, max_value=8), st.data())
def test_bitset_lattice_ops_match(n, data):
    a = data.draw(partitions_of(n))
    b = data.draw(partitions_of(n))
    bound = data.draw(partitions_of(n))
    ops = kernel.bitset_lattice(n)
    assert ops.join_labels(a, b) == kernel.join(a, b)
    assert ops.meet_labels(a, b) == kernel.meet(a, b)
    assert ops.refines_labels(a, b) == kernel.refines(a, b)
    am, bm, boundm = map(ops.from_labels, (a, b, bound))
    assert ops.meet_refines(am, bm, boundm) == kernel.meet_refines(a, b, bound)


def _assert_same_search(machine, **kwargs):
    fast = search_ostr(machine, **kwargs)
    reference = search_ostr(machine, reference=True, **kwargs)
    fast_stats = dataclasses.asdict(fast.stats)
    reference_stats = dataclasses.asdict(reference.stats)
    fast_stats.pop("elapsed_seconds")
    reference_stats.pop("elapsed_seconds")
    assert fast_stats == reference_stats
    assert repr(fast.solution.pi) == repr(reference.solution.pi)
    assert repr(fast.solution.theta) == repr(reference.solution.theta)
    assert fast.solution.flipflops == reference.solution.flipflops


def test_legacy_fast_false_is_the_reference_engine():
    from repro import suite

    machine = suite.load("dk27")
    legacy = search_ostr(machine, fast=False)
    reference = search_ostr(machine, reference=True)
    assert repr(legacy.solution.pi) == repr(reference.solution.pi)
    assert legacy.stats.investigated == reference.stats.investigated
    assert legacy.stats.unique_joins == reference.stats.unique_joins


def test_fast_search_identical_on_suite_machines():
    from repro import suite

    for name in ("shiftreg", "mc", "bbtas", "dk27", "tav"):
        _assert_same_search(suite.load(name))


def test_fast_search_identical_under_node_limit():
    from repro import suite

    _assert_same_search(suite.load("dk15"), node_limit=500)


def test_fast_search_identical_without_pruning_or_skips():
    from repro import suite

    _assert_same_search(suite.load("dk27"), prune=False)
    _assert_same_search(suite.load("dk27"), skip_redundant=False)
    _assert_same_search(suite.load("tav"), prune=False, skip_redundant=False)


def test_fast_search_identical_across_basis_orders():
    from repro import suite

    for order in ("sorted", "coarse_first", "fine_first"):
        _assert_same_search(suite.load("dk27"), basis_order=order)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**16),
    st.booleans(),
    st.data(),
)
def test_fast_search_identical_on_random_machines(n_states, n_inputs, seed, prune, data):
    """Every statistic and the solution match the reference engine, with
    and without Lemma-1 pruning and under any node-limit cutoff."""
    limits = st.integers(min_value=1, max_value=300)
    # Without pruning the tree is only bounded by the node limit.
    node_limit = data.draw(st.none() | limits if prune else limits)
    machine = random_mealy(
        n_states, n_inputs, 2, seed=seed, ensure_connected=False
    )
    _assert_same_search(machine, prune=prune, node_limit=node_limit)


def test_fast_search_identical_extended_policy():
    from repro import suite

    _assert_same_search(suite.load("mc"), policy="extended")
