"""Tests for multi-output synthesis (PLA row sharing)."""

import itertools

import pytest

from repro.bist.architectures import build_conventional_bist, build_pipeline
from repro.encoding import encode_machine
from repro.encoding.encoded import TruthTable
from repro.exceptions import LogicError
from repro.fsm import MealyMachine
from repro.logic import Cover, synthesize_table
from repro.ostr import search_ostr


def table_from_function(name, n_inputs, function):
    rows = {}
    for value in range(2 ** n_inputs):
        pattern = format(value, f"0{n_inputs}b")
        rows[pattern] = function(pattern)
    return TruthTable(
        name=name,
        input_names=tuple(f"x{k}" for k in range(n_inputs)),
        output_names=tuple(
            f"y{k}" for k in range(len(function("0" * n_inputs)))
        ),
        rows=rows,
    )


class TestSynthesizeTable:
    def test_evaluate_matches_table(self, example_machine):
        encoded = encode_machine(example_machine)
        cover = synthesize_table(encoded.table)
        for pattern, expected in encoded.table.rows.items():
            assert cover.evaluate(pattern) == expected

    def test_row_sharing(self):
        # Two identical outputs share every row.
        table = table_from_function(
            "dup", 2, lambda p: ("1" if p[0] == "1" else "0") * 2
        )
        cover = synthesize_table(table)
        assert cover.output_rows[0] == cover.output_rows[1]
        assert cover.n_rows == 1

    def test_disjoint_outputs(self):
        table = table_from_function(
            "two", 2,
            lambda p: ("1" if p[0] == "1" else "0") + ("1" if p[1] == "1" else "0"),
        )
        cover = synthesize_table(table)
        assert cover.n_rows == 2

    def test_constant_outputs(self):
        table = table_from_function("const", 2, lambda p: "10")
        cover = synthesize_table(table)
        assert cover.evaluate("00") == "10"
        assert cover.evaluate("11") == "10"

    def test_cost_model(self):
        table = table_from_function(
            "xor", 2, lambda p: "1" if p.count("1") == 1 else "0"
        )
        cover = synthesize_table(table)
        assert cover.n_rows == 2
        assert cover.pla_area() == 2 * (2 * 2 + 1)
        assert cover.literals == 2 * 2 + 2  # 2 cubes x 2 literals + 2 OR inputs

    def test_cover_for_output_view(self, shiftreg):
        encoded = encode_machine(shiftreg)
        cover = synthesize_table(encoded.table)
        single = cover.cover_for_output(0)
        for pattern, expected in encoded.table.rows.items():
            assert single.evaluate(pattern) == (expected[0] == "1")

    def test_dont_care_rows_free(self):
        """Unused input codes must be exploitable by the minimizer."""
        rows = {"00": "1", "01": "1", "10": "0"}  # "11" unspecified
        table = TruthTable("dc", ("a", "b"), ("y",), rows)
        cover = synthesize_table(table)
        assert cover.evaluate("00") == "1"
        assert cover.evaluate("01") == "1"
        assert cover.evaluate("10") == "0"
        # The cover is free to output either value on "11"; correctness on
        # the specified rows was verified inside synthesize_table already.


class TestRecheckFailures:
    """A wrong per-output cover must fail the table re-check loudly, naming
    the first disagreeing pattern in ``table.rows`` order."""

    @staticmethod
    def _patched(monkeypatch, edit):
        """Make the minimizer hand ``edit(position, cubes)`` to the
        assembly step instead of the cover of output ``position``."""
        from repro.logic import synth

        real = synth.minimize
        positions = itertools.count()

        def broken(on_set, dc_set, n_inputs, **kwargs):
            cover = real(on_set, dc_set, n_inputs, **kwargs)
            return Cover(n_inputs, edit(next(positions), cover.cubes))

        monkeypatch.setattr(synth, "minimize", broken)

    def test_dropped_cube_names_first_row_in_table_order(self, monkeypatch):
        # Output y = a; rows listed out of numeric order.
        rows = {"11": "1", "00": "0", "10": "1", "01": "0"}
        table = TruthTable("drop", ("a", "b"), ("y",), rows)
        self._patched(monkeypatch, lambda position, cubes: cubes[1:])
        with pytest.raises(LogicError) as info:
            synthesize_table(table)
        assert str(info.value) == (
            "synthesized cover disagrees with table 'drop' at '11': "
            "got '0', want '1'"
        )

    def test_added_off_cube_names_first_row_in_table_order(self, monkeypatch):
        rows = {"11": "1", "01": "0", "00": "0", "10": "1"}
        table = TruthTable("add", ("a", "b"), ("y",), rows)
        self._patched(monkeypatch, lambda position, cubes: cubes + ("0-",))
        with pytest.raises(LogicError) as info:
            synthesize_table(table)
        assert str(info.value) == (
            "synthesized cover disagrees with table 'add' at '01': "
            "got '1', want '0'"
        )

    @pytest.mark.parametrize("edit", ["drop", "add"])
    def test_controller_table_message_matches_row_walk(
        self, monkeypatch, example_machine, edit
    ):
        """On a real multi-output table the message names exactly the
        pattern a row-by-row string walk finds first."""
        table = encode_machine(example_machine).table
        target = 1  # break one output only
        off = next(p for p, v in table.rows.items() if v[target] == "0")

        def change(position, cubes):
            if position != target:
                return cubes
            return cubes[1:] if edit == "drop" else cubes + (off,)

        clean = synthesize_table(table)
        covers = [
            Cover(table.n_inputs, change(k, clean.cover_for_output(k).cubes))
            for k in range(table.n_outputs)
        ]
        expected = None
        for pattern, want in table.rows.items():
            got = "".join("1" if c.evaluate(pattern) else "0" for c in covers)
            if got != want:
                expected = (
                    f"synthesized cover disagrees with table {table.name!r} "
                    f"at {pattern!r}: got {got!r}, want {want!r}"
                )
                break
        assert expected is not None

        self._patched(monkeypatch, change)
        with pytest.raises(LogicError) as info:
            synthesize_table(table)
        assert str(info.value) == expected


class TestZeroInputTables:
    """One state, one input symbol: every block has zero input bits."""

    def test_output_column_has_only_the_empty_pattern(self):
        table = TruthTable("z", (), ("y",), {"": "1"})
        assert table.output_column(0) == ([""], [])
        assert TruthTable("z", (), ("y",), {}).output_column(0) == ([], [""])

    def test_constant_one_output_synthesizes(self):
        table = TruthTable("z", (), ("y", "w"), {"": "10"})
        cover = synthesize_table(table)
        assert cover.evaluate("") == "10"

    def test_one_state_machine_builds_both_architectures(self):
        machine = MealyMachine(
            "one", ["s"], ["a"], ["o", "p"], {("s", "a"): ("s", "p")}, "s"
        )
        pipeline = build_pipeline(search_ostr(machine).realization())
        assert pipeline.system_trace(["a", "a"]) == [
            pipeline.encoded.output_encoding.encode("p")
        ] * 2
        build_conventional_bist(machine)
