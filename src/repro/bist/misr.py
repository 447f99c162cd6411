"""Multiple-input signature registers (test response compaction).

A MISR is an LFSR whose stages additionally XOR one input line each per
clock; after a test session its state is the *signature* of the response
stream.  A single stuck-at fault changes the signature unless aliasing
occurs (probability ~ ``2^-n`` for an ``n``-bit MISR with random
responses) -- the fault-coverage benches measure exactly this.
"""

from __future__ import annotations

from typing import Sequence

from ..exceptions import BistError
from .lfsr import feedback_tap_mask


class Misr:
    """An ``n``-bit MISR with the standard primitive feedback."""

    def __init__(self, width: int, seed: int = 0) -> None:
        if width < 1:
            raise BistError("MISR width must be >= 1")
        if not 0 <= seed < (1 << width):
            raise BistError(f"seed must be a {width}-bit value, got {seed}")
        self.width = width
        self.state = seed
        self._tap_mask = 1 if width == 1 else feedback_tap_mask(width)

    def absorb(self, data: int) -> int:
        """Clock the register once with ``data`` on the parallel inputs."""
        if not 0 <= data < (1 << self.width):
            raise BistError(
                f"data {data} does not fit the {self.width}-bit MISR"
            )
        feedback = (self.state & self._tap_mask).bit_count() & 1
        shifted = (self.state >> 1) | (feedback << (self.width - 1))
        self.state = shifted ^ data
        return self.state

    def absorb_bits(self, bits: Sequence[int]) -> int:
        """Absorb a bit vector (bit 0 -> stage 0)."""
        data = 0
        for position, bit in enumerate(bits):
            if bit not in (0, 1):
                raise BistError(f"bit {position} is {bit!r}, expected 0/1")
            data |= bit << position
        if len(bits) > self.width:
            raise BistError(
                f"{len(bits)} response lines exceed the {self.width}-bit MISR"
            )
        return self.absorb(data)

    @property
    def signature(self) -> int:
        return self.state

    def reset(self, seed: int = 0) -> None:
        if not 0 <= seed < (1 << self.width):
            raise BistError(f"seed must be a {self.width}-bit value")
        self.state = seed
