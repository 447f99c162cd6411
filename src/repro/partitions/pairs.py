"""Partition pairs for a finite state machine (Definition 4 of the paper).

These are thin, typed wrappers over :mod:`repro.partitions.kernel` that work
on :class:`~repro.partitions.partition.Partition` objects and a successor
table.  The successor table is the index-based next-state function
``succ[s][i]`` and is deliberately decoupled from the FSM class so that the
partition layer has no dependency on :mod:`repro.fsm`.  All queries route
through the shared per-machine :func:`~repro.partitions.kernel.
bitset_kernel` on relation integers (one ``from_labels`` per operand, one
``to_labels`` per result), so repeated ``m``/``M`` questions about the same
machine hit its memo caches.

Terminology maps to the paper as follows (``pi``/``theta`` are equivalence
relations on the state set ``S``):

* ``(pi, theta)`` is a **partition pair** iff
  ``(s,t) in pi  =>  (delta(s,i), delta(t,i)) in theta`` for all ``i``.
* ``(pi, theta)`` is **symmetric** iff ``(theta, pi)`` is a pair as well.
* ``m(pi)``   -- smallest ``theta`` with ``(pi, theta)`` a pair.
* ``M(theta)`` -- largest  ``pi``   with ``(pi, theta)`` a pair.
* ``(pi, theta)`` is an **Mm-pair** iff ``M(theta) = pi`` and ``m(pi) = theta``.
"""

from __future__ import annotations

from typing import Sequence

from ..exceptions import PartitionError
from . import kernel
from .partition import Partition

SuccTable = Sequence[Sequence[int]]


def _check(succ: SuccTable, *parts: Partition) -> None:
    n = len(succ)
    for part in parts:
        if len(part.universe) != n:
            raise PartitionError(
                f"partition universe size {len(part.universe)} does not match "
                f"successor table size {n}"
            )
    if len(parts) == 2 and parts[0].universe != parts[1].universe:
        raise PartitionError("partitions are over different universes")


def _kernel(succ: SuccTable, *parts: Partition):
    """The machine's shared kernel and each partition as a relation integer."""
    _check(succ, *parts)
    kern = kernel.bitset_kernel(succ)
    return (kern, *(kern.from_labels(part.labels) for part in parts))


def is_partition_pair(succ: SuccTable, pi: Partition, theta: Partition) -> bool:
    """Definition 4: does ``delta`` map ``pi``-classes into ``theta``-classes?"""
    kern, a, b = _kernel(succ, pi, theta)
    return kern.is_pair(a, b)


def is_symmetric_pair(succ: SuccTable, pi: Partition, theta: Partition) -> bool:
    """Are both ``(pi, theta)`` and ``(theta, pi)`` partition pairs?"""
    kern, a, b = _kernel(succ, pi, theta)
    return kern.is_symmetric_pair(a, b)


def m_of(succ: SuccTable, pi: Partition) -> Partition:
    """``m(pi)``: the smallest ``theta`` such that ``(pi, theta)`` is a pair."""
    kern, a = _kernel(succ, pi)
    return Partition._from_canonical(pi.universe, kern.to_labels(kern.m(a)))


def big_m_of(succ: SuccTable, theta: Partition) -> Partition:
    """``M(theta)``: the largest ``pi`` such that ``(pi, theta)`` is a pair."""
    kern, b = _kernel(succ, theta)
    return Partition._from_canonical(theta.universe, kern.to_labels(kern.big_m(b)))


def is_mm_pair(succ: SuccTable, pi: Partition, theta: Partition) -> bool:
    """Definition 5: ``M(theta) == pi`` and ``m(pi) == theta``."""
    kern, a, b = _kernel(succ, pi, theta)
    return kern.big_m(b) == a and kern.m(a) == b
