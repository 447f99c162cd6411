"""Truth table -> multi-output two-level implementation.

Connects the encoding layer to the netlist layer: each output column of a
:class:`~repro.encoding.encoded.TruthTable` is minimized independently,
then identical product terms are shared across outputs PLA-style (one AND
row driving several OR planes).

The assembled structure is re-checked against every specified row of the
table.  The check runs on minterm bitsets (:mod:`repro.logic.cubes`): per
output, the union of its rows' minterm sets, restricted to the specified
patterns, must equal that output's on-set.  That is the same predicate as
evaluating the cover row by row, and only a failure falls back to the
row-by-row walk, to name the first disagreeing pattern in table order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..encoding.encoded import TruthTable
from ..exceptions import LogicError
from .cubes import (
    Cover,
    cube_covers,
    cube_literals,
    int_cube_bits,
    minterm_bits,
    pack_cube,
    pack_minterm,
)
from .espresso_lite import minimize


@dataclass(frozen=True)
class MultiOutputCover:
    """A PLA-style implementation of a multi-output function.

    ``rows`` are the distinct product terms; ``output_masks[k]`` is a
    tuple of row indices feeding output ``k``.
    """

    name: str
    input_names: Tuple[str, ...]
    output_names: Tuple[str, ...]
    rows: Tuple[str, ...]
    output_rows: Tuple[Tuple[int, ...], ...]

    @property
    def n_inputs(self) -> int:
        return len(self.input_names)

    @property
    def n_outputs(self) -> int:
        return len(self.output_names)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def literals(self) -> int:
        """AND-plane literals plus OR-plane (output connection) count."""
        and_literals = sum(cube_literals(row) for row in self.rows)
        or_literals = sum(len(rows) for rows in self.output_rows)
        return and_literals + or_literals

    def pla_area(self) -> int:
        """Classic PLA area model: ``rows * (2 * inputs + outputs)``."""
        return self.n_rows * (2 * self.n_inputs + self.n_outputs)

    def evaluate(self, pattern: str) -> str:
        """Compute all output bits for a fully specified input pattern."""
        if len(pattern) != self.n_inputs or not set(pattern) <= {"0", "1"}:
            raise LogicError(f"invalid input pattern {pattern!r}")
        row_values = [cube_covers(row, pattern) for row in self.rows]
        return "".join(
            "1" if any(row_values[index] for index in rows) else "0"
            for rows in self.output_rows
        )

    def cover_for_output(self, position: int) -> Cover:
        """Single-output view of one output column."""
        return Cover(
            self.n_inputs,
            tuple(self.rows[index] for index in self.output_rows[position]),
        )


def synthesize_table(
    table: TruthTable, method: str = "auto", exact_limit: int = 10
) -> MultiOutputCover:
    """Minimize every output of a truth table and share product terms.

    The result is verified against every specified row of the table (the
    minimizers verify functional correctness per output; this re-checks the
    assembled multi-output structure).
    """
    covers: List[Cover] = [
        minimize(on_set, dc_set, table.n_inputs, method=method,
                 exact_limit=exact_limit)
        for on_set, dc_set in table.output_columns()
    ]

    row_index: Dict[str, int] = {}
    rows: List[str] = []
    output_rows: List[Tuple[int, ...]] = []
    for cover in covers:
        indices = []
        for cube in cover.cubes:
            if cube not in row_index:
                row_index[cube] = len(rows)
                rows.append(cube)
            indices.append(row_index[cube])
        output_rows.append(tuple(indices))

    result = MultiOutputCover(
        name=table.name,
        input_names=table.input_names,
        output_names=table.output_names,
        rows=tuple(rows),
        output_rows=tuple(output_rows),
    )
    if not _agrees_with_table(result, table):
        for pattern, expected in table.rows.items():
            actual = result.evaluate(pattern)
            if actual != expected:
                raise LogicError(
                    f"synthesized cover disagrees with table {table.name!r} "
                    f"at {pattern!r}: got {actual!r}, want {expected!r}"
                )
    return result


def _agrees_with_table(cover: MultiOutputCover, table: TruthTable) -> bool:
    """Does every output equal the table on every specified row?

    Per output: ``union(row bits) & specified == on_bits``.
    """
    n_inputs = table.n_inputs
    patterns = [pack_minterm(pattern) for pattern in table.rows]
    outputs = list(table.rows.values())
    specified = minterm_bits(patterns, n_inputs)
    row_bits = [int_cube_bits(*pack_cube(row), n_inputs) for row in cover.rows]
    for position, rows in enumerate(cover.output_rows):
        covered = 0
        for index in rows:
            covered |= row_bits[index]
        on_bits = minterm_bits(
            (
                pattern
                for pattern, value in zip(patterns, outputs)
                if value[position] == "1"
            ),
            n_inputs,
        )
        if covered & specified != on_bits:
            return False
    return True
