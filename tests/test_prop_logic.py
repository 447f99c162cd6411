"""Property-based tests for the logic minimizers."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic import (
    minimize_exact,
    minimize_heuristic,
    minimize_heuristic_reference,
    prime_implicants,
)
from repro.logic import cubes as C
from repro.logic.cubes import cube_contains, cube_covers


@st.composite
def incompletely_specified_function(draw, max_inputs=5):
    n = draw(st.integers(min_value=1, max_value=max_inputs))
    space = [format(v, f"0{n}b") for v in range(2 ** n)]
    kinds = draw(
        st.lists(
            st.sampled_from(["on", "off", "dc"]),
            min_size=len(space),
            max_size=len(space),
        )
    )
    on = [m for m, k in zip(space, kinds) if k == "on"]
    dc = [m for m, k in zip(space, kinds) if k == "dc"]
    off = [m for m, k in zip(space, kinds) if k == "off"]
    return n, on, dc, off


@given(incompletely_specified_function())
def test_exact_cover_implements_function(data):
    n, on, dc, off = data
    cover = minimize_exact(on, dc, n)
    for minterm in on:
        assert cover.evaluate(minterm)
    for minterm in off:
        assert not cover.evaluate(minterm)


@given(incompletely_specified_function())
def test_heuristic_cover_implements_function(data):
    n, on, dc, off = data
    cover = minimize_heuristic(on, dc, n)
    for minterm in on:
        assert cover.evaluate(minterm)
    for minterm in off:
        assert not cover.evaluate(minterm)


@given(incompletely_specified_function())
def test_exact_no_more_cubes_than_heuristic(data):
    n, on, dc, off = data
    exact = minimize_exact(on, dc, n)
    heuristic = minimize_heuristic(on, dc, n)
    assert exact.n_cubes <= heuristic.n_cubes


@given(incompletely_specified_function(max_inputs=4))
def test_primes_are_implicants_and_maximal(data):
    n, on, dc, off = data
    if not (on or dc):
        return
    care = set(on) | set(dc)
    primes = prime_implicants(on, dc, n)
    for prime in primes:
        # Implicant: every minterm inside is on/dc.
        from repro.logic.cubes import cube_minterms

        assert all(m in care for m in cube_minterms(prime))
        # Maximal: freeing any bound literal leaves the care set.
        for position, ch in enumerate(prime):
            if ch == "-":
                continue
            widened = prime[:position] + "-" + prime[position + 1 :]
            assert not all(m in care for m in cube_minterms(widened))


@given(incompletely_specified_function(max_inputs=4))
def test_exact_cover_consists_of_primes(data):
    n, on, dc, off = data
    cover = minimize_exact(on, dc, n)
    primes = set(prime_implicants(on, dc, n))
    for cube in cover.cubes:
        assert cube in primes


# ---------------------------------------------------------------------------
# Minterm bitsets and the heuristic at controller widths
# ---------------------------------------------------------------------------


@st.composite
def packed_cubes(draw, n):
    mask = draw(st.integers(min_value=0, max_value=2 ** n - 1))
    value = draw(st.integers(min_value=0, max_value=2 ** n - 1)) & mask
    return mask, value


@given(st.integers(min_value=0, max_value=8), st.data())
def test_int_cube_bits_matches_int_cube_covers(n, data):
    mask, value = data.draw(packed_cubes(n))
    bits = C.int_cube_bits(mask, value, n)
    assert bits >> (2 ** n) == 0  # nothing outside the universe
    for minterm in range(2 ** n):
        # A packed cube covers a minterm iff its bound bits agree.
        assert (bits >> minterm & 1 == 1) == (minterm & mask == value)


@st.composite
def wide_controller_functions(draw):
    """Functions shaped like the heuristic path's λ columns (s1, dk16).

    11..13 inputs, a sparse on-set (at most 64 minterms) and 30-65%
    don't-cares; the rest of the space is the off-set.
    """
    n = draw(st.integers(min_value=11, max_value=13))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    space = list(range(2 ** n))
    dc = set(rng.sample(space, int(len(space) * rng.uniform(0.30, 0.65))))
    on = rng.sample([v for v in space if v not in dc], rng.randint(1, 64))
    return (
        n,
        [format(v, f"0{n}b") for v in on],
        [format(v, f"0{n}b") for v in sorted(dc)],
    )


@settings(max_examples=4, deadline=None)
@given(wide_controller_functions())
def test_heuristic_identical_to_reference_at_controller_widths(data):
    n, on, dc = data
    assert minimize_heuristic(on, dc, n) == minimize_heuristic_reference(
        on, dc, n
    )
