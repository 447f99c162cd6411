"""GF(2) linear algebra of MISR signature compaction + stream helpers.

The fault-simulation engine (:mod:`repro.faults.engine`) reasons about a
self-test session's *signature difference* instead of re-running it: the
MISR state update ``absorb(data) = L(state) xor data`` is linear over
GF(2), so the faulty/fault-free difference evolves from the per-cycle
response errors alone.  This module holds that algebra --
:class:`LinearCompactor` models ``L`` with binary matrix powers -- plus the
bit-parallel stream transposition/diffing helpers the engine screens
faults with.

It lives in the BIST package (next to :class:`~repro.bist.misr.Misr`,
whose update map it must mirror bit-for-bit via
:func:`~repro.bist.lfsr.feedback_tap_mask`) so the architecture layer can
use it without importing the fault-campaign machinery.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .lfsr import feedback_tap_mask


class LinearCompactor:
    """The linear state-update map ``L`` of an ``n``-bit MISR.

    Mirrors :meth:`repro.bist.misr.Misr.absorb` exactly:
    ``absorb(data) = L(state) xor data`` with
    ``L(s) = (s >> 1) | (parity(s & taps) << (n - 1))`` -- linear because
    shift, parity and the disjoint OR all distribute over XOR.  Binary
    powers of ``L`` (as bit-matrix rows) let the engine jump over error-free
    stretches of a session in ``O(n log k)`` instead of ``k`` steps.
    """

    def __init__(self, width: int) -> None:
        self.width = width
        self._tap_mask = 1 if width == 1 else feedback_tap_mask(width)
        # _powers[j] = matrix of L^(2^j); rows r = image of basis vector r.
        self._powers: List[List[int]] = [
            [self.step(1 << row) for row in range(width)]
        ]

    def step(self, state: int) -> int:
        """One application of ``L`` (the absorb update without the data XOR)."""
        feedback = (state & self._tap_mask).bit_count() & 1
        return (state >> 1) | (feedback << (self.width - 1))

    @staticmethod
    def _apply(matrix: List[int], vector: int) -> int:
        out = 0
        while vector:
            low = vector & -vector
            out ^= matrix[low.bit_length() - 1]
            vector ^= low
        return out

    def advance(self, state: int, count: int) -> int:
        """``L^count(state)`` via square-and-multiply over the bit matrices."""
        if state == 0 or count == 0:
            return state
        index = 0
        while count:
            if index == len(self._powers):
                previous = self._powers[-1]
                self._powers.append(
                    [self._apply(previous, row) for row in previous]
                )
            if count & 1:
                state = self._apply(self._powers[index], state)
            count >>= 1
            index += 1
        return state

    def trajectory(self, data_words: Sequence[int]) -> List[int]:
        """MISR states after each absorb of ``data_words``, from state 0.

        The fault-free session references are built from this: one cheap
        integer update per cycle, no netlist evaluation.
        """
        state = 0
        states = []
        for data in data_words:
            state = self.step(state) ^ data
            states.append(state)
        return states

    def fold_errors(self, errors: Sequence[Tuple[int, int]], total_cycles: int) -> int:
        """Final signature difference from a sparse error stream.

        ``errors`` is an ascending list of ``(cycle, error_word)`` pairs; the
        result equals ``sig_faulty xor sig_good`` after ``total_cycles``
        absorptions, by linearity of the MISR.
        """
        difference = 0
        next_cycle = 0
        for cycle, error in errors:
            difference = self.advance(difference, cycle - next_cycle)
            difference = self.step(difference) ^ error
            next_cycle = cycle + 1
        return self.advance(difference, total_cycles - next_cycle)


class LaneMisr:
    """A bit-sliced bank of independent MISRs, one per superposed lane.

    Where :class:`~repro.bist.misr.Misr` keeps one register's state packed
    in a single integer, this keeps ``width`` *stage words*: bit ``l`` of
    ``stages[i]`` is stage ``i`` of lane ``l``'s register.  One
    :meth:`absorb_words` call then clocks every lane's MISR at once --
    the shift is a list rotation, the feedback parity is the XOR of the
    tap-stage words (lane-wise), and the data XOR folds in per-response-
    line lane words.  This is the compaction half of the superposed
    fallback sessions in :mod:`repro.bist.architectures`: each lane
    carries one faulty machine, and every lane's trajectory is bit-for-bit
    the trajectory the serial :class:`Misr` would have followed for that
    fault alone (property-tested in ``tests/test_prop_superposed.py``).
    """

    def __init__(self, width: int, lane_mask: int = 0, seed: int = 0) -> None:
        self.width = width
        tap_mask = 1 if width == 1 else feedback_tap_mask(width)
        self._tap_slots = [
            position for position in range(width) if (tap_mask >> position) & 1
        ]
        self.stages: List[int] = [
            lane_mask if (seed >> position) & 1 else 0 for position in range(width)
        ]

    def absorb_words(self, words: Sequence[int]) -> None:
        """Clock every lane once; ``words[i]`` holds response line ``i``.

        Mirrors :meth:`Misr.absorb` per lane: the register shifts down one
        stage, the top stage takes the tap parity, then the data lines XOR
        in (missing high lines absorb zero).
        """
        stages = self.stages
        feedback = 0
        for position in self._tap_slots:
            feedback ^= stages[position]
        shifted = stages[1:]
        shifted.append(feedback)
        for position, word in enumerate(words):
            if word:
                shifted[position] ^= word
        self.stages = shifted

    def lane_signature(self, lane: int) -> int:
        """Lane ``l``'s register state, re-packed as one integer."""
        signature = 0
        for position, word in enumerate(self.stages):
            signature |= ((word >> lane) & 1) << position
        return signature


def broadcast_lanes(value: int, count: int, lane_mask: int) -> List[int]:
    """Packed single-machine bits -> per-line lane words (all lanes equal).

    Fault-independent streams (a free-running PRPG) drive every superposed
    lane with the same value, so line ``j`` is ``lane_mask`` when bit ``j``
    of ``value`` is set and ``0`` otherwise.
    """
    return [
        lane_mask if (value >> position) & 1 else 0 for position in range(count)
    ]


def transpose_words(words: Sequence[int], width: int) -> List[int]:
    """Cycle-major packed words -> bit-position-major streams.

    ``result[j]`` has bit ``t`` equal to bit ``j`` of ``words[t]`` -- the
    shape the compiled evaluator wants for whole-session bit-parallel
    evaluation (one stream per primary input).
    """
    streams = [0] * width
    for cycle, word in enumerate(words):
        position = 1 << cycle
        while word:
            low = word & -word
            streams[low.bit_length() - 1] |= position
            word ^= low
    return streams


def stream_errors(
    faulty: Sequence[int], reference: Sequence[int]
) -> List[Tuple[int, int]]:
    """Sparse ``(cycle, error_word)`` stream from per-output packed streams.

    ``faulty``/``reference`` hold one ``T``-bit integer per output line (bit
    ``t`` = value in cycle ``t``); the error word of a cycle packs the
    differing lines back into line order.  Returns an ascending list that is
    empty exactly when the two streams agree everywhere.
    """
    diffs = [f ^ r for f, r in zip(faulty, reference)]
    union = 0
    for diff in diffs:
        union |= diff
    errors: List[Tuple[int, int]] = []
    while union:
        low = union & -union
        cycle = low.bit_length() - 1
        union ^= low
        word = 0
        for line, diff in enumerate(diffs):
            word |= ((diff >> cycle) & 1) << line
        errors.append((cycle, word))
    return errors
