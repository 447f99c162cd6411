"""BILBO-style multifunctional test registers.

The paper's structures assume registers that can act as (a) ordinary
system registers, (b) pseudo-random pattern generators and (c) signature
analyzers -- the classic Built-In Logic Block Observation register of
Koenemann/Mucha/Zwiehoff [19].  :class:`Bilbo` models exactly those modes
at the register-transfer level; scan shifting is included for completeness
although the paper's self-test flow does not need it.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Tuple

from ..exceptions import BistError
from .lfsr import PRIMITIVE_TAPS


class BilboMode(Enum):
    NORMAL = "normal"  # parallel load: system register
    PRPG = "prpg"      # autonomous LFSR: pattern generation
    MISR = "misr"      # compress parallel inputs
    SHIFT = "shift"    # serial scan shift
    HOLD = "hold"      # keep state
    RESET = "reset"    # clear


class Bilbo:
    """A ``width``-bit multifunctional register."""

    def __init__(self, width: int, mode: BilboMode = BilboMode.NORMAL) -> None:
        if width < 1:
            raise BistError("BILBO width must be >= 1")
        if width > 1 and width not in PRIMITIVE_TAPS:
            raise BistError(f"no primitive polynomial recorded for width {width}")
        self.width = width
        self.mode = mode
        self.state = 0
        if width == 1:
            self._tap_mask = 1
        else:
            self._tap_mask = 0
            for tap in PRIMITIVE_TAPS[width]:
                self._tap_mask |= 1 << (self.width - tap)

    # -- configuration -----------------------------------------------------

    def set_mode(self, mode: BilboMode) -> None:
        self.mode = mode

    def load(self, value: int) -> None:
        """Force the state (used to seed PRPG mode)."""
        if not 0 <= value < (1 << self.width):
            raise BistError(f"value {value} does not fit {self.width} bits")
        self.state = value

    # -- clocking ------------------------------------------------------------

    def clock(self, data: Optional[int] = None, scan_in: int = 0) -> int:
        """One clock edge; ``data`` is the parallel input where relevant."""
        if self.mode is BilboMode.NORMAL:
            if data is None:
                raise BistError("NORMAL mode needs parallel data")
            if not 0 <= data < (1 << self.width):
                raise BistError(f"data {data} does not fit {self.width} bits")
            self.state = data
        elif self.mode is BilboMode.PRPG:
            if self.width == 1:
                self.state ^= 1
            else:
                if self.state == 0:
                    raise BistError("PRPG mode from the all-zero state locks up")
                feedback = bin(self.state & self._tap_mask).count("1") & 1
                self.state = (self.state >> 1) | (feedback << (self.width - 1))
        elif self.mode is BilboMode.MISR:
            if data is None:
                raise BistError("MISR mode needs parallel data")
            if not 0 <= data < (1 << self.width):
                raise BistError(f"data {data} does not fit {self.width} bits")
            feedback = bin(self.state & self._tap_mask).count("1") & 1
            shifted = (self.state >> 1) | (feedback << (self.width - 1))
            self.state = shifted ^ data
        elif self.mode is BilboMode.SHIFT:
            if scan_in not in (0, 1):
                raise BistError("scan_in must be 0 or 1")
            self.state = ((self.state >> 1) | (scan_in << (self.width - 1)))
        elif self.mode is BilboMode.HOLD:
            pass
        elif self.mode is BilboMode.RESET:
            self.state = 0
        return self.state

    # -- views -----------------------------------------------------------------

    def bits(self) -> Tuple[int, ...]:
        return tuple((self.state >> position) & 1 for position in range(self.width))

    @property
    def scan_out(self) -> int:
        return self.state & 1

    def __repr__(self) -> str:
        return f"Bilbo(width={self.width}, mode={self.mode.value}, state={self.state:0{self.width}b})"
