"""Heuristic two-level minimization (an espresso-style expand/irredundant loop).

For functions too wide for exact Quine-McCluskey, this implements the core
of the espresso recipe on explicit on/off sets:

1. **EXPAND** each cube literal-by-literal as long as it stays disjoint
   from the off-set (cube order: largest first, so big cubes absorb small
   ones early);
2. **ABSORB** cubes contained in other cubes;
3. **IRREDUNDANT**: greedily drop cubes whose on-set minterms are covered
   by the rest.

Cubes are packed ``(mask, value)`` integer pairs (:mod:`repro.logic.cubes`)
and stay the identity of every decision: sorting, dedupe and tie breaks
are on the pairs, exactly as before.  What changed is how the passes ask
set questions.  The on-set and the off-set are held as minterm *bitsets*
(one int with bit ``m`` set per minterm ``m``), and so is each cube's
minterm set (:func:`repro.logic.cubes.int_cube_bits`):

* EXPAND may drop a literal iff ``bits(trial) & off_bits == 0``;
* IRREDUNDANT drops a cube iff ``on_bits & ~union(others) == 0``;
* REDUCE shrinks a cube to the supercube of
  ``on_bits & bits(cube) & ~union(others)``.

Each test is the same predicate the per-minterm scans evaluated, so every
pass makes the same choices and the covers are byte-identical to the
scans' -- and to :func:`repro.logic.reference.
minimize_heuristic_reference`, the seed's string implementation, kept as
the equivalence oracle and asserted identical by the property suite.  The
scans cost one Python-level step per off-set minterm (thousands on a
13-input λ column); the bitset tests cost a few big-int operations.  Cube
orderings are fully deterministic (first-appearance tie breaks), so
repeated runs produce byte-identical covers.

The result is verified against the on/off sets before being returned, so a
bug in the heuristics can never produce a functionally wrong cover.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from ..exceptions import LogicError
from .cubes import (
    Cover,
    IntCube,
    bits_supercube,
    int_cube_bits,
    int_cube_contains,
    minterm_bits,
    minterm_space,
    pack_minterm,
    unpack_cube,
    unpack_minterm,
)

CubeBits = Callable[[IntCube], int]


def _union(cubes: Iterable[IntCube], bits_of: CubeBits) -> int:
    covered = 0
    for cube in cubes:
        covered |= bits_of(cube)
    return covered


def _expand_cube(
    cube: IntCube, cube_bits: int, off_bits: int, n_inputs: int
) -> Tuple[IntCube, int]:
    """Free bound literals while the cube avoids the off-set.

    Returns the expanded cube with its minterm bitset.  Freeing literal
    ``j`` adds the cube's mirror image across bit ``j``, which sits
    ``2**j`` minterms away: a shift by ``bit``, so ``trial_bits ==
    int_cube_bits(trial)``.
    """
    mask, value = cube
    for j in reversed(range(n_inputs)):  # string position order: leftmost first
        bit = 1 << j
        if mask & bit:
            trial_bits = cube_bits | (
                cube_bits >> bit if value & bit else cube_bits << bit
            )
            if not trial_bits & off_bits:
                mask, value, cube_bits = mask & ~bit, value & ~bit, trial_bits
    return (mask, value), cube_bits


def _absorb(cubes: List[IntCube]) -> List[IntCube]:
    """Remove cubes contained in another cube of the list."""
    kept: List[IntCube] = []
    for cube in sorted(
        dict.fromkeys(cubes), key=lambda c: c[0].bit_count()
    ):  # fewest bound literals (largest cube) first
        if not any(int_cube_contains(other, cube) for other in kept):
            kept.append(cube)
    return kept


def _irredundant(
    cubes: List[IntCube], on_bits: int, bits_of: CubeBits
) -> List[IntCube]:
    """Greedy removal of cubes not needed to cover the on-set."""
    kept = list(cubes)
    # Try to drop the most specific (most bound literals) cubes first.
    for cube in sorted(list(kept), key=lambda c: -c[0].bit_count()):
        others = [c for c in kept if c != cube]
        if not on_bits & ~_union(others, bits_of):
            kept = others
    return kept


def _reduce(
    cubes: List[IntCube], on_bits: int, n_inputs: int, bits_of: CubeBits
) -> List[IntCube]:
    """REDUCE pass: shrink each cube to the supercube of the on-set
    minterms only it covers; a shrunk cube can expand differently on the
    next pass, letting the loop escape local minima.

    Cubes are processed sequentially against the *current* (partially
    reduced) cover: each step either shrinks one cube around minterms the
    rest does not cover, or drops a cube whose minterms the rest does
    cover -- so the list remains a cover of the on-set throughout.
    (Reducing all cubes against the original list simultaneously is
    unsound: two cubes that mutually cover a minterm would both drop it.)
    """
    reduced = list(cubes)
    position = 0
    while position < len(reduced):
        others = reduced[:position] + reduced[position + 1 :]
        exclusive = (
            on_bits & bits_of(reduced[position]) & ~_union(others, bits_of)
        )
        if exclusive:
            reduced[position] = bits_supercube(exclusive, n_inputs)
            position += 1
        else:
            del reduced[position]  # fully covered by the rest (irredundant)
    return reduced


def minimize_heuristic(
    on_set: Sequence[str],
    dc_set: Sequence[str],
    n_inputs: int,
    iterations: int = 2,
) -> Cover:
    """Espresso-style cover of an incompletely specified function.

    The classic loop: EXPAND against the off-set, ABSORB contained cubes,
    IRREDUNDANT, then REDUCE and repeat -- ``iterations`` rounds, keeping
    the best cover seen (fewest cubes, then fewest literals).  The on-,
    don't-care and off-sets are minterm bitsets over the whole input
    space, so this still assumes the space is enumerable (controller-scale
    logic); what it avoids is the prime-implicant explosion of exact
    minimization.
    """
    if not on_set:
        return Cover(n_inputs, ())
    for minterm in list(on_set) + list(dc_set):
        if len(minterm) != n_inputs or not set(minterm) <= {"0", "1"}:
            raise LogicError(f"invalid minterm {minterm!r}")
    on_values = [pack_minterm(minterm) for minterm in on_set]
    on_bits = minterm_bits(on_values, n_inputs)
    dc_bits = minterm_bits(map(pack_minterm, dc_set), n_inputs)
    off_bits = minterm_space(n_inputs).universe & ~(on_bits | dc_bits)
    full_mask = (1 << n_inputs) - 1

    cache: Dict[IntCube, int] = {}

    def bits_of(cube: IntCube) -> int:
        bits = cache.get(cube)
        if bits is None:
            bits = cache[cube] = int_cube_bits(cube[0], cube[1], n_inputs)
        return bits

    def one_pass(cubes: List[IntCube]) -> List[IntCube]:
        cubes = sorted(dict.fromkeys(cubes), key=lambda c: c[0].bit_count())
        expanded = []
        for cube in cubes:
            grown, grown_bits = _expand_cube(
                cube, bits_of(cube), off_bits, n_inputs
            )
            cache[grown] = grown_bits
            expanded.append(grown)
        compact = _absorb(expanded)
        return _irredundant(compact, on_bits, bits_of)

    current = one_pass(
        [(full_mask, v) for v in dict.fromkeys(on_values)]
    )
    best = list(current)

    def cost(cubes: List[IntCube]) -> Tuple[int, int]:
        return (len(cubes), sum(mask.bit_count() for mask, _ in cubes))

    for _ in range(max(0, iterations - 1)):
        reduced = _reduce(current, on_bits, n_inputs, bits_of)
        if not reduced:
            break
        current = one_pass(reduced)
        # Candidate covers must actually cover the on-set before they can
        # compete on cost (EXPAND/IRREDUNDANT never add coverage, so a
        # coverage hole would otherwise win on cube count and only be
        # caught by the verification below).
        covers_on_set = not on_bits & ~_union(current, bits_of)
        if covers_on_set and cost(current) < cost(best):
            best = list(current)

    cover = Cover(
        n_inputs,
        tuple(sorted(unpack_cube(mask, value, n_inputs) for mask, value in best)),
    )
    # Recomputed from the literals, not taken from ``cache``: the check
    # must not share EXPAND's incremental bitsets.
    covered = _union(best, lambda c: int_cube_bits(c[0], c[1], n_inputs))
    _verify_packed(covered, on_values, on_bits, off_bits, n_inputs)
    return cover


def _verify_packed(
    covered: int,
    on_values: Sequence[int],
    on_bits: int,
    off_bits: int,
    n_inputs: int,
) -> None:
    """Bitset :func:`repro.logic.cubes.verify_cover` (same failures).

    ``covered`` is the cover's minterm bitset.  The check itself is two
    bitset tests; only a failure rescans, to name the first missing
    on-set minterm in on-set order, else the lowest wrongly covered
    off-set minterm.
    """
    if on_bits & ~covered:
        for minterm in on_values:
            if not covered >> minterm & 1:
                raise LogicError(
                    "cover misses on-set minterm "
                    f"{unpack_minterm(minterm, n_inputs)!r}"
                )
    wrong = covered & off_bits
    if wrong:
        lowest = (wrong & -wrong).bit_length() - 1
        raise LogicError(
            "cover wrongly covers off-set minterm "
            f"{unpack_minterm(lowest, n_inputs)!r}"
        )


def minimize(
    on_set: Sequence[str],
    dc_set: Sequence[str],
    n_inputs: int,
    method: str = "auto",
    exact_limit: int = 10,
) -> Cover:
    """Front door: exact below ``exact_limit`` inputs, heuristic above."""
    from .quine_mccluskey import minimize_exact

    if method == "auto":
        method = "exact" if n_inputs <= exact_limit else "heuristic"
    if method == "exact":
        return minimize_exact(on_set, dc_set, n_inputs)
    if method == "heuristic":
        return minimize_heuristic(on_set, dc_set, n_inputs)
    raise LogicError(f"unknown minimization method {method!r}")
