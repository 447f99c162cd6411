"""The bitset OSTR engine and search must match the reference path exactly.

``search_ostr`` defaults to the bitset-native engine (relation-integer
partitions, incremental ``m`` along DFS edges, Lemma-1-gated ``M``); the
paper-accounting contract is that solutions *and* every search statistic
stay identical to the label-tuple reference traversal (``reference=True``).
"""

import dataclasses
import time

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
    st.sampled_from(("paper", "extended")),
    st.data(),
)
def test_fast_search_identical_on_random_machines(
    n_states, n_inputs, seed, prune, policy, data
):
    """Every statistic and the solution match the reference engine, with
    and without Lemma-1 pruning, under any node-limit cutoff and under
    both candidate policies."""
    limits = st.integers(min_value=1, max_value=300)
    # Without pruning the tree is only bounded by the node limit.
    node_limit = data.draw(st.none() | limits if prune else limits)
    machine = random_mealy(
        n_states, n_inputs, 2, seed=seed, ensure_connected=False
    )
    _assert_same_search(
        machine, prune=prune, node_limit=node_limit, policy=policy
    )


def test_fast_search_identical_at_limits_inside_replays():
    """shiftreg4's 14,117-node tree re-enters many finished subtrees, which
    the bitset engine replays from their recorded counts.  Node limits
    spread over the whole tree cut inside such subtrees, and the cut must
    fall on exactly the reference engine's node."""
    from repro.suite import shift_register

    machine = shift_register(4)
    total = search_ostr(machine).stats.investigated
    assert total == 14117
    for limit in sorted({1 + i * (total - 1) // 19 for i in range(20)}):
        _assert_same_search(machine, node_limit=limit)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=6, max_value=12),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=2**16),
    st.booleans(),
    st.integers(min_value=1, max_value=3000),
)
def test_fast_search_identical_with_replays_on_random_machines(
    n_states, n_inputs, n_outputs, seed, skip_redundant, node_limit
):
    """Larger random trees than the test above -- few input symbols and
    outputs keep Lemma 1 from pruning them small -- so finished subtrees
    are re-entered and replayed, and the node limit cuts anywhere."""
    machine = random_mealy(
        n_states, n_inputs, n_outputs, seed=seed, ensure_connected=False
    )
    _assert_same_search(
        machine, skip_redundant=skip_redundant, node_limit=node_limit
    )


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from((8, 9, 16, 17, 32, 33, 40)),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=2**16),
    st.booleans(),
    st.data(),
)
def test_fast_search_identical_at_wide_state_counts(
    n_states, n_inputs, n_outputs, seed, prune, data
):
    """State counts on both sides of the relation form's byte-table
    boundaries (8, 16 and 32 states) and past 32, where spreading walks
    the bits; inline KISS jobs can reach any of them.  The reference
    engine joins label tuples for every child of every expanded node, so
    past 17 states the node limit stays small to bound the test."""
    node_limit = data.draw(st.integers(1, 2000 if n_states <= 17 else 200))
    machine = random_mealy(
        n_states, n_inputs, n_outputs, seed=seed, ensure_connected=False
    )
    _assert_same_search(machine, prune=prune, node_limit=node_limit)


def test_time_limit_fires_under_replay():
    """Replays add whole subtrees to ``investigated`` at once, so the
    deadline is checked by loop iteration; tbk's unbounded search must
    still stop on time."""
    from repro import suite

    start = time.perf_counter()
    result = search_ostr(suite.load("tbk"), time_limit=0.05)
    assert result.stats.timed_out
    assert not result.exact
    assert time.perf_counter() - start < 2.0


def test_fast_search_identical_extended_policy():
    from repro import suite

    _assert_same_search(suite.load("mc"), policy="extended")


def test_big_m_only_on_symmetric_nodes(monkeypatch):
    """``M(pi)`` is built only where the Mm-pair is symmetric, and every
    symmetric node yields at least one candidate, so the search calls
    ``big_m`` at most once per evaluated candidate."""
    from repro import suite

    calls = []
    original = kernel.BitsetKernel.big_m

    def counting(self, masks):
        calls.append(masks)
        return original(self, masks)

    monkeypatch.setattr(kernel.BitsetKernel, "big_m", counting)
    result = search_ostr(suite.load("dk512"))
    assert result.stats.investigated > 10_000
    assert 0 < len(calls) <= result.stats.candidates_evaluated
