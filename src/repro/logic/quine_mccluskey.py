"""Exact two-level minimization (Quine-McCluskey + covering).

Classic flow: generate all prime implicants of ``on ∪ dc`` by iterative
distance-1 merging, then solve the unate covering problem over the on-set
with essential-prime extraction, row/column dominance, and branch-and-bound
on the remaining cyclic core.  Cost order: fewest cubes, then fewest
literals -- the standard PLA objective, which is also what the paper's
"logic minimization" step (their references [5, 6]) optimises.

The public API trades in string cubes; the engine runs on packed
``(mask, value)`` integer cubes (:mod:`repro.logic.cubes`) and bitsets.
A level's values per mask form one bitset over the value space, so the
merge partners ``value | bit`` of all of them are found by one
shift-and-AND per bound bit, and each prime's row of the covering matrix
is a bitmask over the residual on-set.  :func:`repro.logic.reference.
minimize_exact_reference` is the seed's string implementation, kept as the
equivalence oracle -- both produce identical covers (asserted by the
property suite).

Intended for the input widths of controller logic (up to ~12 variables);
:mod:`repro.logic.espresso_lite` covers anything larger heuristically.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Set, Tuple

from ..exceptions import LogicError
from .cubes import (
    Cover,
    IntCube,
    pack_cube,
    pack_minterm,
    unpack_cube,
    unpack_minterm,
)

_MAX_INPUTS = 16


def _validated_care(
    on_set: Sequence[str], dc_set: Sequence[str], n_inputs: int
) -> Set[int]:
    """Validate the minterm strings and return the packed care set."""
    care: Set[int] = set()
    for minterm in list(on_set) + list(dc_set):
        if len(minterm) != n_inputs or not set(minterm) <= {"0", "1"}:
            raise LogicError(f"invalid minterm {minterm!r}")
        care.add(pack_minterm(minterm))
    if n_inputs > _MAX_INPUTS:
        raise LogicError(
            f"{n_inputs} inputs exceeds the exact-minimizer limit "
            f"({_MAX_INPUTS}); use espresso_lite"
        )
    return care


def _bits(word: int) -> Iterator[int]:
    """Positions of the set bits of ``word``, lowest first."""
    while word:
        low = word & -word
        yield low.bit_length() - 1
        word ^= low


def _prime_implicants_packed(care: Set[int], n_inputs: int) -> Set[IntCube]:
    """All prime implicants of the care set, as packed cubes.

    A level maps each mask to the set of values bound by it, held as a
    bitset over the value space.  The only possible merge partner of
    ``(mask, value)`` across a bound bit that is 0 in ``value`` is
    ``(mask, value | bit)``, so one shift-and-AND looks up the partners of
    every value at once; a hit puts ``(mask & ~bit, value)`` on the next
    level and marks both cubes merged.  Unmerged cubes are prime.
    """
    size = 1 << n_inputs
    # clear[p]: the values with bit p clear -- runs of 2**p ones, every 2**(p+1).
    clear = [
        ((1 << size) - 1) // ((1 << 2 * bit) - 1) * ((1 << bit) - 1)
        for bit in (1 << position for position in range(n_inputs))
    ]
    level: Dict[int, int] = {size - 1: sum(1 << value for value in care)}
    primes: Set[IntCube] = set()
    while level:
        next_level: Dict[int, int] = {}
        for mask, values in level.items():
            merged = 0
            for position in _bits(mask):
                bit = 1 << position
                # Shifting right by ``bit`` moves each ``value | bit`` onto ``value``.
                pairs = values & (values >> bit) & clear[position]
                if pairs:
                    merged |= pairs | (pairs << bit)
                    key = mask & ~bit
                    next_level[key] = next_level.get(key, 0) | pairs
            primes.update((mask, value) for value in _bits(values & ~merged))
        level = next_level
    return primes


def prime_implicants(
    on_set: Sequence[str], dc_set: Sequence[str], n_inputs: int
) -> List[str]:
    """All prime implicants of the function ``on ∪ dc``."""
    care = _validated_care(on_set, dc_set, n_inputs)
    if not care:
        return []
    primes = _prime_implicants_packed(care, n_inputs)
    return sorted(unpack_cube(mask, value, n_inputs) for mask, value in primes)


def _select_cover_packed(
    primes: List[IntCube], on_values: List[int], n_inputs: int
) -> List[int]:
    """Indices of a minimum-cube (then minimum-literal) prime cover.

    Bit ``j`` stands for minterm ``j`` of the deduplicated on-set: ``rows[i]``
    is what prime ``i`` covers, ``uncovered`` the residual on-set.
    """
    remaining = list(dict.fromkeys(on_values))
    if not remaining:
        return []
    rows = [0] * len(primes)
    covering: List[List[int]] = [[] for _ in remaining]
    for index, (mask, value) in enumerate(primes):
        for position, minterm in enumerate(remaining):
            if minterm & mask == value:
                rows[index] |= 1 << position
                covering[position].append(index)
    for position, options in enumerate(covering):
        if not options:
            raise LogicError(
                "no prime covers on-set minterm "
                f"{unpack_minterm(remaining[position], n_inputs)!r}"
            )
    literals = [mask.bit_count() for mask, _ in primes]

    uncovered = (1 << len(remaining)) - 1
    chosen: Set[int] = set()
    # Essential primes + dominance until fixpoint.
    while True:
        changed = False
        # Essential: a minterm covered by exactly one remaining prime.
        for position in list(_bits(uncovered)):
            options = covering[position]
            if len(options) == 1:
                chosen.add(options[0])
                uncovered &= ~rows[options[0]]
                changed = True
        if not uncovered:
            break
        # Column dominance on the residual problem: drop primes covering a
        # subset of another's minterms at >= literal cost.
        active = sorted(
            {index for position in _bits(uncovered) for index in covering[position]}
        )
        live = {index: rows[index] & uncovered for index in active}
        dropped: Set[int] = set()
        for a in active:
            row_a, literals_a = live[a], literals[a]
            for b in active:
                if a == b or b in dropped or row_a & ~live[b]:
                    continue
                if row_a != live[b] or literals_a > literals[b] or (
                    literals_a == literals[b] and a > b
                ):
                    dropped.add(a)
                    break
        if dropped:
            for position in _bits(uncovered):
                covering[position] = [
                    index for index in covering[position] if index not in dropped
                ]
            changed = True
        if not changed:
            break

    if uncovered:
        chosen |= _branch_and_bound(rows, literals, covering, uncovered)
    return sorted(chosen)


def _branch_and_bound(
    rows: List[int],
    literals: List[int],
    covering: List[List[int]],
    uncovered: int,
) -> Set[int]:
    """Exact covering of the cyclic core (small by the time we get here).

    Depth-first over the uncovered bitmask, carrying the selection's
    ``(cubes, literals)`` cost so a node prunes against the best cover in
    O(1).  The pivot is the uncovered minterm with the fewest options, ties
    to the lowest bit; options are tried most-uncovered-minterms first,
    ties in index order.
    """
    pivots = sorted(_bits(uncovered), key=lambda position: len(covering[position]))
    # reach[p]: every minterm that shares an option with minterm p.
    reach = [0] * (max(pivots) + 1)
    for position in pivots:
        for index in covering[position]:
            reach[position] |= rows[index]
    # (cost, selection) of the best cover so far; the sentinel cost loses to any.
    best: List[Tuple[Tuple[int, int], Tuple[int, ...]]] = [((len(rows) + 1, 0), ())]

    def recurse(uncovered: int, selection: Tuple[int, ...], literal_count: int) -> None:
        cost = (len(selection), literal_count)
        if cost >= best[0][0]:
            return
        if not uncovered:
            best[0] = (cost, selection)
            return
        # Minterms no two of which share an option each need a cube of
        # their own: a subtree that needs more cubes than the best cover
        # cannot beat it (strict, so the first optimum found is kept).
        spare = best[0][0][0] - len(selection)
        independent = uncovered
        for position in pivots:
            if independent >> position & 1:
                spare -= 1
                if spare < 0:
                    return
                independent &= ~reach[position]
        pivot = next(p for p in pivots if uncovered >> p & 1)
        options = sorted(
            covering[pivot], key=lambda index: -(rows[index] & uncovered).bit_count()
        )
        for index in options:
            extended = selection + (index,)
            recurse(uncovered & ~rows[index], extended, literal_count + literals[index])

    recurse(uncovered, (), 0)
    if not best[0][1]:
        raise LogicError("covering failed (unreachable for consistent input)")
    return set(best[0][1])


def minimize_exact(
    on_set: Sequence[str], dc_set: Sequence[str], n_inputs: int
) -> Cover:
    """Exact minimum-cube two-level cover of an incompletely specified function."""
    if not on_set:
        return Cover(n_inputs, ())
    # The prime list is string-sorted so the covering problem (and its
    # index-based tie-breaks) sees exactly the order the string oracle saw.
    prime_strings = prime_implicants(on_set, dc_set, n_inputs)
    primes = [pack_cube(cube) for cube in prime_strings]
    on_values = [pack_minterm(minterm) for minterm in on_set]
    selected = _select_cover_packed(primes, on_values, n_inputs)
    return Cover(n_inputs, tuple(sorted(prime_strings[i] for i in selected)))
