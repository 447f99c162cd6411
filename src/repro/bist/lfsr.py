"""Linear feedback shift registers (pseudo-random pattern generators).

Fibonacci-style LFSRs with the standard table of primitive feedback
polynomials (degrees 1..32, XAPP052 tap sets), giving maximal period
``2^n - 1`` over the nonzero states.  These implement the test-pattern
generation mode of the multifunctional test registers (BILBOs) the paper
builds on [19].

Width-1 "LFSRs" are special-cased as toggle flip-flops (period 2), since
the degree-1 primitive polynomial ``x + 1`` would hold the state constant
and is useless as a generator.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from ..exceptions import BistError

# Primitive polynomial tap positions (1-based bit indices, MSB = degree).
# x^n + x^t1 + ... + 1;  entry n -> (n, t1, ...).
PRIMITIVE_TAPS: Dict[int, Tuple[int, ...]] = {
    2: (2, 1),
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 6, 4, 1),
    13: (13, 4, 3, 1),
    14: (14, 5, 3, 1),
    15: (15, 14),
    16: (16, 15, 13, 4),
    17: (17, 14),
    18: (18, 11),
    19: (19, 6, 2, 1),
    20: (20, 17),
    21: (21, 19),
    22: (22, 21),
    23: (23, 18),
    24: (24, 23, 22, 17),
    25: (25, 22),
    26: (26, 6, 2, 1),
    27: (27, 5, 2, 1),
    28: (28, 25),
    29: (29, 27),
    30: (30, 6, 4, 1),
    31: (31, 28),
    32: (32, 22, 2, 1),
}


def feedback_tap_mask(width: int) -> int:
    """Tap mask of the degree-``width`` primitive polynomial.

    Bit ``width - tap`` is set for every tap; this is the single source of
    the mask layout shared by :class:`Lfsr`, :class:`~repro.bist.misr.Misr`
    and the campaign engine's linear-compactor model -- they must agree
    bit-for-bit for signature-difference compaction to be exact.
    """
    if width not in PRIMITIVE_TAPS:
        raise BistError(f"no primitive polynomial recorded for width {width}")
    mask = 0
    for tap in PRIMITIVE_TAPS[width]:
        mask |= 1 << (width - tap)
    return mask


class Lfsr:
    """A maximal-length Fibonacci LFSR of ``width`` bits.

    State is an integer (bit 0 = stage 0).  Each :meth:`step` shifts the
    register one stage and feeds back the XOR of the tap stages.

    With ``complete=True`` the feedback is de-Bruijn-modified (inverted
    when the upper ``width - 1`` stages are zero), which extends the cycle
    to all ``2^width`` states including the all-zero pattern -- the
    standard "complete cycle" pattern generator used for (pseudo-)
    exhaustive built-in self-test [4, 17 of the paper].
    """

    def __init__(self, width: int, seed: int = 1, complete: bool = False) -> None:
        if width < 1:
            raise BistError("LFSR width must be >= 1")
        if width > 1 and width not in PRIMITIVE_TAPS:
            raise BistError(f"no primitive polynomial recorded for width {width}")
        if not 0 <= seed < (1 << width):
            raise BistError(f"seed must be a {width}-bit value, got {seed}")
        if seed == 0 and not complete:
            raise BistError("the all-zero seed locks up a plain LFSR")
        self.width = width
        self.state = seed
        self.complete = complete
        if width == 1:
            self._tap_mask = 0  # toggle behaviour, see step()
        else:
            self._tap_mask = feedback_tap_mask(width)

    @classmethod
    def from_any_seed(cls, width: int, seed: int, complete: bool = False) -> "Lfsr":
        """Build with an arbitrary positive seed, folded into the valid range."""
        if width == 1:
            return cls(1, seed=seed & 1 if complete else 1, complete=complete)
        space = (1 << width) if complete else (1 << width) - 1
        folded = seed % space
        if folded == 0 and not complete:
            folded = 1
        return cls(width, seed=folded, complete=complete)

    @property
    def period(self) -> int:
        """Theoretical period (``2^n`` when complete, else ``2^n - 1``)."""
        if self.width == 1:
            return 2
        return (1 << self.width) if self.complete else (1 << self.width) - 1

    def step(self) -> int:
        """Advance one clock; returns the new state."""
        if self.width == 1:
            self.state ^= 1
            return self.state
        feedback = (self.state & self._tap_mask).bit_count() & 1
        if self.complete and (self.state >> 1) == 0:
            # upper width-1 stages zero: invert the feedback to splice the
            # all-zero state into the cycle (de Bruijn modification).
            feedback ^= 1
        self.state = (self.state >> 1) | (feedback << (self.width - 1))
        return self.state

    def bits(self) -> Tuple[int, ...]:
        """Current state as a bit tuple (stage 0 first)."""
        return tuple((self.state >> position) & 1 for position in range(self.width))

    def sequence(self, count: int) -> Iterator[int]:
        """Yield ``count`` successive states (advancing the register)."""
        for _ in range(count):
            yield self.state
            self.step()


def measured_period(width: int, seed: int = 1, limit: int = None) -> int:
    """Count steps until the state recurs (test helper)."""
    lfsr = Lfsr(width, seed)
    start = lfsr.state
    bound = limit if limit is not None else (1 << width) + 1
    for count in range(1, bound + 1):
        if lfsr.step() == start:
            return count
    raise BistError(f"period of width-{width} LFSR exceeds {bound}")
