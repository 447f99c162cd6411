"""Basis relations and the Mm-lattice skeleton (Hartmanis/Stearns).

The OSTR search of the paper is built on the classical observation that the
Mm-pairs of a machine form a lattice that can be generated from the *basis
relations*

    ``rho_{s,t} = identity  ∪  {(s,t), (t,s)}``

through the ``m`` operator: every "m side" of an Mm-pair is a join of
elements of ``m_basis = { m(rho_{s,t}) | s, t in S }`` (because ``m``
distributes over joins and every equivalence relation is the join of the
``rho`` relations of its related pairs).

This module computes the deduplicated basis and, for small machines, the
full set of Mm-pairs -- the latter is used by reference implementations and
property tests rather than the production search.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from . import kernel
from .partition import Partition

SuccTable = Sequence[Sequence[int]]
Labels = Tuple[int, ...]


def rho(n: int, s: int, t: int) -> Labels:
    """The basis relation ``rho_{s,t}`` identifying exactly ``s`` and ``t``."""
    return kernel.from_pairs(n, [(s, t)])


def m_basis_labels(succ: SuccTable, include_identity: bool = False) -> List[Labels]:
    """Deduplicated, deterministically ordered ``{ m(rho_{s,t}) | s < t }``.

    The identity partition contributes nothing to joins, so by default it is
    dropped (the paper orders the set "arbitrarily"; we sort canonically so
    runs are reproducible).  Set ``include_identity=True`` to keep it, which
    only matters for accounting experiments.
    """
    n = len(succ)
    seen: Set[Labels] = set()
    for s in range(n):
        for t in range(s + 1, n):
            labels = kernel.from_pairs(n, [(succ[s][i], succ[t][i]) for i in range(len(succ[s]))])
            if not include_identity and kernel.num_blocks(labels) == n:
                continue
            seen.add(labels)
    return sorted(seen)


def m_basis(succ: SuccTable, universe: Sequence) -> List[Partition]:
    """Public view of :func:`m_basis_labels` as :class:`Partition` objects."""
    return [Partition(universe, labels) for labels in m_basis_labels(succ)]


def mm_pairs(succ: SuccTable, universe: Sequence) -> List[Tuple[Partition, Partition]]:
    """All Mm-pairs ``(pi, theta)`` of the machine, for small machines.

    Enumerates the closure of the basis under joins (the "m sides", as
    relation integers of the machine's shared kernel), then
    pairs each ``theta`` with ``pi = M(theta)`` and keeps those where
    ``m(pi) == theta``.  The trivial identity m-side is included, since
    ``(M(identity), identity)`` can be a legitimate Mm-pair.
    """
    kern = kernel.bitset_kernel(succ)
    basis = [kern.from_labels(labels) for labels in m_basis_labels(succ)]
    closed: Set[int] = {kern.diagonal}
    frontier: List[int] = list(closed)
    while frontier:
        current = frontier.pop()
        for element in basis:
            joined = kern.join(current, element)
            if joined not in closed:
                closed.add(joined)
                frontier.append(joined)
    to_labels = kern.to_labels
    out = []
    for theta in sorted(closed, key=to_labels):
        pi = kern.big_m(theta)
        if kern.m(pi) == theta:
            out.append((Partition(universe, to_labels(pi)), Partition(universe, to_labels(theta))))
    return out
