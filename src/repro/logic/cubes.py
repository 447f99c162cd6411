"""Cube and cover primitives for two-level logic.

A *cube* (product term) over ``n`` inputs is a string of length ``n`` over
``{'0', '1', '-'}``: ``'0'``/``'1'`` are literals, ``'-'`` is an unbound
variable.  A *cover* is a set of cubes whose union (OR) implements a
single-output function.  Multi-output sharing is handled a level up in
:mod:`repro.logic.synth`.

Strings are the *boundary* format -- what :mod:`repro.logic.synth`, the
PLA/BLIF exporters and the tests trade in.  The minimizers themselves run
on the packed form defined here as well: a cube is an integer pair
``(mask, value)`` where bit ``j`` of ``mask`` is set iff string position
``n - 1 - j`` is bound, and ``value`` holds the bound literal values on
those bits (``value & ~mask == 0``).  A fully specified minterm packs to
``int(minterm, 2)``, so containment, intersection, merging and expansion
all become one- or two-instruction bit operations (the ``int_cube_*``
functions below).  The string functions are kept both as the boundary
adapters and as the reference semantics the packed ops are property-tested
against.

A *set* of minterms over the ``2**n`` input space packs one level further,
into a single Python int used as a bitset: bit ``m`` is set iff minterm
``m`` is in the set.  :func:`minterm_space` gives, per ``n``, the universe
and the per-variable sets ``ones[j]`` (minterms whose bit ``j`` is 1), so a
cube's minterm set is an AND of at most ``n`` cached words
(:func:`int_cube_bits`) and whole-cover questions -- does this cube meet
the off-set, is the on-set still covered -- are a handful of big-int
operations.  A ``2**n``-bit word is far smaller than the explicit list of
``2**n`` patterns the don't-care set already enumerates, so the bitsets
add no new width limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, List, NamedTuple, Sequence, Tuple

from ..exceptions import LogicError


def check_cube(cube: str, n_inputs: int) -> None:
    if len(cube) != n_inputs or not set(cube) <= {"0", "1", "-"}:
        raise LogicError(f"invalid cube {cube!r} for {n_inputs} inputs")


def cube_literals(cube: str) -> int:
    """Number of bound variables (AND-gate inputs) of the cube."""
    return sum(1 for ch in cube if ch != "-")


def cube_covers(cube: str, minterm: str) -> bool:
    """Does the cube contain the fully specified minterm?"""
    return all(c == "-" or c == m for c, m in zip(cube, minterm))


def cube_contains(outer: str, inner: str) -> bool:
    """Is every minterm of ``inner`` contained in ``outer``?"""
    return all(o == "-" or o == i for o, i in zip(outer, inner))


def cubes_intersect(a: str, b: str) -> bool:
    """Do the cubes share at least one minterm?"""
    return all(x == "-" or y == "-" or x == y for x, y in zip(a, b))


def cube_minterms(cube: str) -> Iterator[str]:
    """Enumerate all minterms of the cube (exponential in free variables)."""
    positions = [i for i, ch in enumerate(cube) if ch == "-"]
    chars = list(cube)
    for bits in product("01", repeat=len(positions)):
        for position, bit in zip(positions, bits):
            chars[position] = bit
        yield "".join(chars)


def cube_size(cube: str) -> int:
    """Number of minterms the cube contains."""
    return 2 ** sum(1 for ch in cube if ch == "-")


def try_merge(a: str, b: str) -> str:
    """Merge two cubes differing in exactly one bound position, or raise."""
    difference = -1
    for position, (x, y) in enumerate(zip(a, b)):
        if x == y:
            continue
        if x == "-" or y == "-" or difference != -1:
            raise LogicError(f"cubes {a!r} and {b!r} are not distance-1")
        difference = position
    if difference == -1:
        raise LogicError(f"cubes {a!r} and {b!r} are identical")
    return a[:difference] + "-" + a[difference + 1 :]


# ---------------------------------------------------------------------------
# Packed integer cubes: the minimizers' compute format
# ---------------------------------------------------------------------------

IntCube = Tuple[int, int]  # (mask of bound positions, literal values)


def pack_minterm(minterm: str) -> int:
    """Fully specified minterm string -> its integer value."""
    return int(minterm, 2) if minterm else 0


def unpack_minterm(value: int, n_inputs: int) -> str:
    """Integer minterm -> the boundary string form."""
    return format(value, f"0{n_inputs}b") if n_inputs else ""


def pack_cube(cube: str) -> IntCube:
    """String cube -> packed ``(mask, value)`` pair."""
    mask = value = 0
    for ch in cube:
        mask <<= 1
        value <<= 1
        if ch == "1":
            mask |= 1
            value |= 1
        elif ch == "0":
            mask |= 1
        elif ch != "-":
            raise LogicError(f"invalid cube {cube!r}")
    return mask, value


def unpack_cube(mask: int, value: int, n_inputs: int) -> str:
    """Packed cube -> the boundary string form."""
    bit = 1 << (n_inputs - 1) if n_inputs else 0
    out = []
    while bit:
        if not mask & bit:
            out.append("-")
        elif value & bit:
            out.append("1")
        else:
            out.append("0")
        bit >>= 1
    return "".join(out)


def int_cube_literals(mask: int) -> int:
    """Number of bound variables of a packed cube."""
    return mask.bit_count()


def int_cube_covers(mask: int, value: int, minterm: int) -> bool:
    """Does the packed cube contain the integer minterm?"""
    return minterm & mask == value


def int_cube_contains(outer: IntCube, inner: IntCube) -> bool:
    """Is every minterm of ``inner`` contained in ``outer``?"""
    outer_mask, outer_value = outer
    inner_mask, inner_value = inner
    return outer_mask & inner_mask == outer_mask and (
        inner_value & outer_mask == outer_value
    )


def int_cubes_intersect(a: IntCube, b: IntCube) -> bool:
    """Do the packed cubes share at least one minterm?"""
    common = a[0] & b[0]
    return a[1] & common == b[1] & common


# ---------------------------------------------------------------------------
# Minterm bitsets: sets of integer minterms as one int
# ---------------------------------------------------------------------------


class MintermSpace(NamedTuple):
    """Bitsets over the ``2**n`` minterms of ``n`` inputs.

    ``ones[j]`` is the set of minterms whose bit ``j`` is 1 (the literal
    ``x_j``), ``zeros[j] == universe ^ ones[j]`` its complement.
    """

    universe: int
    ones: Tuple[int, ...]
    zeros: Tuple[int, ...]


@lru_cache(maxsize=None)
def minterm_space(n_inputs: int) -> MintermSpace:
    """The universe and per-variable minterm bitsets for ``n_inputs``."""
    size = 1 << n_inputs
    universe = (1 << size) - 1
    ones = []
    for j in range(n_inputs):
        half = 1 << j
        period = half << 1
        # One period is 2**j zeros then 2**j ones; multiplying by the
        # repunit sum(2**(k * period)) tiles it across the universe.
        block = ((1 << half) - 1) << half
        ones.append(block * (universe // ((1 << period) - 1)))
    return MintermSpace(
        universe, tuple(ones), tuple(universe ^ mask for mask in ones)
    )


def minterm_bits(minterms: Iterable[int], n_inputs: int) -> int:
    """Bitset of the given integer minterms."""
    buffer = bytearray(((1 << n_inputs) + 7) >> 3)
    for minterm in minterms:
        buffer[minterm >> 3] |= 1 << (minterm & 7)
    return int.from_bytes(buffer, "little")


def int_cube_bits(mask: int, value: int, n_inputs: int) -> int:
    """Bitset of the minterms a packed cube contains."""
    space = minterm_space(n_inputs)
    bits = space.universe
    for j in range(n_inputs):
        if mask >> j & 1:
            bits &= space.ones[j] if value >> j & 1 else space.zeros[j]
    return bits


def bits_supercube(bits: int, n_inputs: int) -> IntCube:
    """Smallest packed cube containing a non-empty minterm bitset.

    Variable ``j`` stays bound iff the set lies entirely inside
    ``ones[j]`` (literal 1) or entirely outside it (literal 0).
    """
    space = minterm_space(n_inputs)
    mask = value = 0
    for j in range(n_inputs):
        if not bits & space.zeros[j]:
            mask |= 1 << j
            value |= 1 << j
        elif not bits & space.ones[j]:
            mask |= 1 << j
    return mask, value


@dataclass(frozen=True)
class Cover:
    """A single-output cover: OR of cubes."""

    n_inputs: int
    cubes: Tuple[str, ...]

    def __post_init__(self) -> None:
        for cube in self.cubes:
            check_cube(cube, self.n_inputs)

    def evaluate(self, minterm: str) -> bool:
        """Value of the function at a fully specified input."""
        if len(minterm) != self.n_inputs or not set(minterm) <= {"0", "1"}:
            raise LogicError(f"invalid minterm {minterm!r}")
        return any(cube_covers(cube, minterm) for cube in self.cubes)

    @property
    def n_cubes(self) -> int:
        return len(self.cubes)

    @property
    def literals(self) -> int:
        """Total literal count (the classic two-level cost measure)."""
        return sum(cube_literals(cube) for cube in self.cubes)

    def __iter__(self) -> Iterator[str]:
        return iter(self.cubes)

    def __len__(self) -> int:
        return len(self.cubes)


def verify_cover(
    cover: Cover, on_set: Sequence[str], off_set: Sequence[str]
) -> None:
    """Check functional correctness of a cover against on/off sets."""
    for minterm in on_set:
        if not cover.evaluate(minterm):
            raise LogicError(f"cover misses on-set minterm {minterm!r}")
    for minterm in off_set:
        if cover.evaluate(minterm):
            raise LogicError(f"cover wrongly covers off-set minterm {minterm!r}")


def all_minterms(n_inputs: int) -> List[str]:
    """All fully specified input patterns (use only for small ``n``)."""
    return [format(value, f"0{n_inputs}b") for value in range(2 ** n_inputs)] if n_inputs else [""]
