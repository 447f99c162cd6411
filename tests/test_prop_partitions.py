"""Property-based tests: partition lattice laws and engine equivalences.

Three suites share this file:

* the lattice laws on the label-tuple reference kernel;
* BitsetKernel == label kernel on random partitions/universes for every
  operation the synthesis stack uses (meet/join/refines/meet_refines/
  m/M/is_pair, plus the sparse-form round trips);
* integer-cube ops == string-cube ops on random cubes/covers, and the
  packed minimizers == the string reference minimizers (including the
  ``espresso_lite`` REDUCE regression corpus of mutually-covering
  covers).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partitions import kernel


def labels_strategy(max_n: int = 8):
    """Canonical label tuples over universes of size 1..max_n."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        raw = [draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(n)]
        return kernel.canonical(raw)

    return build()


def paired_labels(max_n: int = 8):
    """Two partitions over the same universe."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        raw_a = [draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(n)]
        raw_b = [draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(n)]
        return kernel.canonical(raw_a), kernel.canonical(raw_b)

    return build()


def tripled_labels(max_n: int = 7):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        out = []
        for _ in range(3):
            raw = [draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(n)]
            out.append(kernel.canonical(raw))
        return tuple(out)

    return build()


@given(labels_strategy())
def test_canonical_is_idempotent(labels):
    assert kernel.canonical(labels) == labels
    assert kernel.is_canonical(labels)


@given(labels_strategy())
def test_join_meet_idempotent(labels):
    assert kernel.join(labels, labels) == labels
    assert kernel.meet(labels, labels) == labels


@given(paired_labels())
def test_join_commutative(pair):
    a, b = pair
    assert kernel.join(a, b) == kernel.join(b, a)


@given(paired_labels())
def test_meet_commutative(pair):
    a, b = pair
    assert kernel.meet(a, b) == kernel.meet(b, a)


@given(tripled_labels())
def test_join_associative(triple):
    a, b, c = triple
    assert kernel.join(kernel.join(a, b), c) == kernel.join(a, kernel.join(b, c))


@given(tripled_labels())
def test_meet_associative(triple):
    a, b, c = triple
    assert kernel.meet(kernel.meet(a, b), c) == kernel.meet(a, kernel.meet(b, c))


@given(paired_labels())
def test_absorption_laws(pair):
    a, b = pair
    assert kernel.join(a, kernel.meet(a, b)) == a
    assert kernel.meet(a, kernel.join(a, b)) == a


@given(paired_labels())
def test_join_is_least_upper_bound(pair):
    a, b = pair
    joined = kernel.join(a, b)
    assert kernel.refines(a, joined)
    assert kernel.refines(b, joined)


@given(paired_labels())
def test_meet_is_greatest_lower_bound(pair):
    a, b = pair
    met = kernel.meet(a, b)
    assert kernel.refines(met, a)
    assert kernel.refines(met, b)


@given(paired_labels())
def test_refines_iff_join_absorbs(pair):
    a, b = pair
    assert kernel.refines(a, b) == (kernel.join(a, b) == b)


@given(paired_labels())
def test_refines_iff_meet_absorbs(pair):
    a, b = pair
    assert kernel.refines(a, b) == (kernel.meet(a, b) == a)


@given(labels_strategy())
def test_extremes_bound_everything(labels):
    n = len(labels)
    assert kernel.refines(kernel.identity(n), labels)
    assert kernel.refines(labels, kernel.one_block(n))


@given(paired_labels())
def test_meet_is_identity_agrees_with_meet(pair):
    a, b = pair
    assert kernel.meet_is_identity(a, b) == (
        kernel.meet(a, b) == kernel.identity(len(a))
    )


@given(labels_strategy())
def test_blocks_partition_the_universe(labels):
    blocks = kernel.blocks(labels)
    flat = sorted(x for block in blocks for x in block)
    assert flat == list(range(len(labels)))


# ---------------------------------------------------------------------------
# BitsetKernel vs the label-tuple reference kernel
# ---------------------------------------------------------------------------


@st.composite
def kernel_cases(draw, max_n=8, max_inputs=3):
    """A successor table plus three random partitions of its state set."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    n_inputs = draw(st.integers(min_value=1, max_value=max_inputs))
    succ = [
        [draw(st.integers(0, n - 1)) for _ in range(n_inputs)] for _ in range(n)
    ]
    parts = tuple(
        kernel.canonical([draw(st.integers(0, n - 1)) for _ in range(n)])
        for _ in range(3)
    )
    return succ, parts


@given(kernel_cases())
def test_bitset_mask_conversions_round_trip(case):
    succ, (a, _, _) = case
    kern = kernel.BitsetKernel(succ)
    masks = kern.from_labels(a)
    assert kernel.masks_to_labels(masks, len(a)) == a
    assert kernel.labels_to_masks(a) == masks
    # masks are canonical: ascending lowest set bit, disjoint, covering
    assert sorted(masks, key=lambda m: m & -m) == list(masks)
    union = 0
    for mask in masks:
        assert not union & mask
        union |= mask
    assert union == (1 << len(a)) - 1
    # sparse round trip drops exactly the singletons
    sparse = kern.nontrivial(masks)
    assert kern.from_sparse(sparse) == masks


@given(kernel_cases())
def test_bitset_lattice_matches_label_kernel(case):
    succ, (a, b, c) = case
    kern = kernel.BitsetKernel(succ)
    am, bm, cm = map(kern.from_labels, (a, b, c))
    assert kern.meet_labels(a, b) == kernel.meet(a, b)
    assert kern.join_labels(a, b) == kernel.join(a, b)
    assert kern.refines(am, bm) == kernel.refines(a, b)
    assert kern.meet_refines(am, bm, cm) == kernel.meet_refines(a, b, c)


@given(kernel_cases())
def test_bitset_mm_operators_match_label_kernel(case):
    succ, (a, b, _) = case
    kern = kernel.BitsetKernel(succ)
    am, bm = kern.from_labels(a), kern.from_labels(b)
    assert kern.m_labels(a) == kernel.m_operator(succ, a)
    assert kern.big_m_labels(b) == kernel.big_m_operator(succ, b)
    assert kern.is_pair(am, bm) == kernel.is_pair(succ, a, b)
    assert kern.is_symmetric_pair(am, bm) == kernel.is_symmetric_pair(succ, a, b)


@given(kernel_cases())
def test_join_sparse_matches_full_join(case):
    succ, (a, b, _) = case
    kern = kernel.BitsetKernel(succ)
    am, bm = kern.from_labels(a), kern.from_labels(b)
    base = kern.nontrivial(am)
    sparse = kern.join_sparse(base, kern.element_blocks(kern.nontrivial(bm)))
    joined = kern.join(am, bm)
    # The sparse tuple itself is the search's evaluation-cache key, so it
    # must be the canonical sparse form, not merely an equal partition.
    assert sparse == kern.nontrivial(joined)
    assert kern.from_sparse(sparse) == joined
    # A redundant join hands back ``base`` itself (the search's identity
    # test for redundant DFS edges).
    assert (sparse is base) == (joined == am)


def test_join_sparse_merges_overlapping_constraints():
    """A constraint spanning three base blocks, a disjoint one, then one
    overlapping the first: the two overlapping merges must fuse."""
    kern = kernel.bitset_lattice(10)
    pairs = [(0, 1), (2, 3), (4, 5), (6, 7)]
    base = kern.nontrivial(kern.from_labels(kernel.from_blocks(10, pairs)))
    blocks = ((0, 2, 4), (8, 9), (5, 6))
    joined = kern.join_sparse(base, blocks)
    assert joined == (0b0011111111, 0b1100000000)
    assert joined == kern.nontrivial(
        kern.from_labels(kernel.from_blocks(10, pairs + list(blocks)))
    )
    assert kern.join_sparse(base, ((0, 1), (6, 7))) is base


@given(kernel_cases())
def test_symmetry_test_is_pair_of_m_with_its_argument(case):
    """The search's shortcut: ``m(p) <= M(p)`` iff ``(m(p), p)`` is a pair."""
    succ, (a, _, _) = case
    kern = kernel.BitsetKernel(succ)
    p = kern.from_labels(a)
    mu = kern.m(p)
    assert kern.is_pair(mu, p) == kern.refines(mu, kern.big_m(p))
    assert kern.is_pair_owner(
        kern.nontrivial(mu), kern.sparse_owner(kern.nontrivial(p))
    ) == kern.is_pair(mu, p)


@given(kernel_cases())
def test_m_is_a_join_morphism(case):
    """The incremental-m identity the bitset search engine is built on."""
    succ, (a, b, _) = case
    joined = kernel.join(a, b)
    assert kernel.m_operator(succ, joined) == kernel.join(
        kernel.m_operator(succ, a), kernel.m_operator(succ, b)
    )
    kern = kernel.BitsetKernel(succ)
    assert kern.m(kern.from_labels(joined)) == kern.join(
        kern.m(kern.from_labels(a)), kern.m(kern.from_labels(b))
    )


@given(kernel_cases())
def test_shared_kernel_cache_returns_equal_results(case):
    succ, (a, b, _) = case
    first = kernel.bitset_kernel(succ)
    second = kernel.bitset_kernel([list(row) for row in succ])
    assert first is second  # per-SuccTable sharing
    assert first.m_labels(a) == kernel.m_operator(succ, a)
    assert second.m_labels(a) == kernel.m_operator(succ, a)


# ---------------------------------------------------------------------------
# Integer cubes vs string cubes
# ---------------------------------------------------------------------------

from repro.logic import cubes as C  # noqa: E402
from repro.logic import (  # noqa: E402
    minimize_exact,
    minimize_exact_reference,
    minimize_heuristic,
    minimize_heuristic_reference,
    prime_implicants,
    prime_implicants_reference,
)

# The REDUCE regression corpus: covers whose cubes mutually cover on-set
# minterms -- the shape whose simultaneous reduction was unsound before
# the PR-3 fix.  The packed engine must agree with the string oracle on
# every one of them, byte for byte.
REDUCE_CORPUS = (
    (["00", "01", "11", "10"], []),
    (["00", "11"], ["01"]),
    (["000", "001", "011", "010", "110"], ["111"]),
    (["000", "010", "011", "101", "100"], ["111", "001"]),
    (["0000", "0001", "0011", "0010", "0110", "0111", "1111", "1110"], []),
    (["0101", "0111", "1101", "1111", "0100", "0110"], ["1100"]),
)


@st.composite
def string_cubes(draw, n=None):
    if n is None:
        n = draw(st.integers(min_value=1, max_value=8))
    return "".join(
        draw(st.sampled_from("01-")) for _ in range(n)
    )


@given(st.integers(min_value=1, max_value=8), st.data())
def test_int_cube_ops_match_string_ops(n, data):
    a = data.draw(string_cubes(n))
    b = data.draw(string_cubes(n))
    minterm = "".join(data.draw(st.sampled_from("01")) for _ in range(n))
    pa, pb = C.pack_cube(a), C.pack_cube(b)
    assert C.unpack_cube(*pa, n) == a  # round trip
    assert C.int_cube_literals(pa[0]) == C.cube_literals(a)
    assert C.int_cube_covers(*pa, C.pack_minterm(minterm)) == C.cube_covers(
        a, minterm
    )
    assert C.int_cube_contains(pa, pb) == C.cube_contains(a, b)
    assert C.int_cubes_intersect(pa, pb) == C.cubes_intersect(a, b)


@given(st.integers(min_value=1, max_value=8), st.data())
def test_int_supercube_matches_string_supercube(n, data):
    """The packed supercube, taken over a minterm bitset, matches REDUCE's
    string supercube."""
    minterms = data.draw(
        st.lists(
            st.integers(0, 2 ** n - 1), min_size=1, max_size=6
        )
    )
    strings = [format(v, f"0{n}b") for v in minterms]
    from repro.logic.reference import _supercube

    bits = C.minterm_bits(minterms, n)
    assert [m for m in range(2 ** n) if bits >> m & 1] == sorted(set(minterms))
    mask, value = C.bits_supercube(bits, n)
    assert C.unpack_cube(mask, value, n) == _supercube(strings, n)


@st.composite
def packed_functions(draw, max_inputs=5):
    n = draw(st.integers(min_value=1, max_value=max_inputs))
    kinds = [
        draw(st.sampled_from(["on", "off", "dc"])) for _ in range(2 ** n)
    ]
    space = [format(v, f"0{n}b") for v in range(2 ** n)]
    on = [m for m, k in zip(space, kinds) if k == "on"]
    dc = [m for m, k in zip(space, kinds) if k == "dc"]
    return n, on, dc


@given(packed_functions())
def test_minimizers_identical_to_string_reference(data):
    n, on, dc = data
    assert prime_implicants(on, dc, n) == prime_implicants_reference(on, dc, n)
    assert minimize_exact(on, dc, n) == minimize_exact_reference(on, dc, n)
    assert minimize_heuristic(on, dc, n) == minimize_heuristic_reference(
        on, dc, n
    )


@st.composite
def controller_functions(draw):
    """Incompletely specified functions at the widths of controller logic.

    C1/C2/λ tables reach the exact minimizer at 2..10 inputs with a median
    don't-care fraction near 0.25; the wide ones have sparse on-sets.
    """
    n = draw(st.integers(min_value=6, max_value=9))
    dc_density = draw(st.floats(min_value=0.0, max_value=0.6))
    on_density = draw(st.floats(min_value=0.0, max_value=0.25))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    on, dc = [], []
    for value in range(2 ** n):
        roll = rng.random()
        minterm = format(value, f"0{n}b")
        if roll < dc_density:
            dc.append(minterm)
        elif roll < dc_density + (1.0 - dc_density) * on_density:
            on.append(minterm)
    return n, on, dc


@settings(max_examples=25, deadline=None)
@given(controller_functions())
def test_exact_minimizer_identical_at_controller_widths(data):
    n, on, dc = data
    assert prime_implicants(on, dc, n) == prime_implicants_reference(on, dc, n)
    assert minimize_exact(on, dc, n) == minimize_exact_reference(on, dc, n)


def test_zero_input_functions_identical():
    """n_inputs=0: one empty minterm, no off-set, single empty cube."""
    packed = minimize_heuristic([""], [], 0)
    oracle = minimize_heuristic_reference([""], [], 0)
    assert packed == oracle == minimize_exact([""], [], 0)
    assert packed.cubes == ("",)


def test_reduce_regression_corpus_identical():
    for on, dc in REDUCE_CORPUS:
        n = len(on[0])
        packed = minimize_heuristic(on, dc, n)
        oracle = minimize_heuristic_reference(on, dc, n)
        assert packed == oracle
        assert minimize_exact(on, dc, n) == minimize_exact_reference(on, dc, n)
        # and the covers really cover: every on minterm, no off minterm
        care = set(on) | set(dc)
        off = [
            format(v, f"0{n}b")
            for v in range(2 ** n)
            if format(v, f"0{n}b") not in care
        ]
        C.verify_cover(packed, on, off)
