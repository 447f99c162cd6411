"""Tests for the heuristic (espresso-style) minimizer."""

import random

import pytest

from repro.exceptions import LogicError
from repro.logic import (
    Cover,
    espresso_lite,
    minimize,
    minimize_exact,
    minimize_heuristic,
    verify_cover,
)
from repro.logic.cubes import pack_cube


def random_function(seed, n):
    rng = random.Random(seed)
    space = [format(v, f"0{n}b") for v in range(2 ** n)]
    on = [m for m in space if rng.random() < 0.4]
    rest = [m for m in space if m not in on]
    dc = [m for m in rest if rng.random() < 0.15]
    off = [m for m in rest if m not in dc]
    return on, dc, off


class TestHeuristic:
    def test_correctness_on_random_functions(self):
        for seed in range(20):
            n = 3 + seed % 3
            on, dc, off = random_function(seed, n)
            cover = minimize_heuristic(on, dc, n)
            verify_cover(cover, on, off)

    def test_expansion_absorbs(self):
        # f = a (both rows of b): heuristic must find the single cube.
        cover = minimize_heuristic(["10", "11"], [], 2)
        assert cover.cubes == ("1-",)

    def test_empty(self):
        assert minimize_heuristic([], [], 3).n_cubes == 0

    def test_never_much_worse_than_exact(self):
        """Sanity bound: heuristic cube count within 2x of the optimum."""
        for seed in range(15):
            on, dc, off = random_function(seed + 100, 4)
            if not on:
                continue
            exact = minimize_exact(on, dc, 4)
            heur = minimize_heuristic(on, dc, 4)
            assert heur.n_cubes <= max(2 * exact.n_cubes, exact.n_cubes + 1)


class TestVerificationFailure:
    """A wrong final cover must raise the LogicError the per-minterm check
    raises: the first missing on-set minterm in on-set order, else the
    lowest wrongly covered off-set minterm."""

    # On-set deliberately not in numeric order.
    ON = ["110", "001", "011"]
    DC = ["111"]
    OFF = ["000", "010", "100", "101"]  # ascending, as the off-set is built

    def _expected(self, cubes):
        with pytest.raises(LogicError) as info:
            verify_cover(Cover(3, cubes), self.ON, self.OFF)
        return str(info.value)

    def _force_cover(self, monkeypatch, cubes):
        """Make every IRREDUNDANT pass return exactly ``cubes``."""
        packed = [pack_cube(cube) for cube in cubes]
        monkeypatch.setattr(
            espresso_lite, "_irredundant", lambda *args: list(packed)
        )

    def test_missing_on_minterm_in_on_set_order(self, monkeypatch):
        cover = ("001",)  # misses 110 (first in on-set order) and 011
        self._force_cover(monkeypatch, cover)
        with pytest.raises(LogicError) as info:
            minimize_heuristic(self.ON, self.DC, 3)
        assert str(info.value) == self._expected(cover)
        assert str(info.value) == "cover misses on-set minterm '110'"

    def test_lowest_wrongly_covered_off_minterm(self, monkeypatch):
        cover = ("-1-", "--1", "1-0")  # covers every on minterm, and 010, 101, 100
        self._force_cover(monkeypatch, cover)
        with pytest.raises(LogicError) as info:
            minimize_heuristic(self.ON, self.DC, 3)
        assert str(info.value) == self._expected(cover)
        assert str(info.value) == "cover wrongly covers off-set minterm '010'"


class TestFrontDoor:
    def test_auto_uses_exact_for_small(self):
        cover = minimize(["01", "11", "10"], [], 2, method="auto")
        assert set(cover.cubes) == {"1-", "-1"}

    def test_auto_switches_to_heuristic(self):
        # 11 inputs exceeds the default exact limit; just verify it runs
        # and is functionally right on the specified minterms.
        on = ["0" * 11, "1" * 11]
        cover = minimize(on, [], 11, method="auto")
        assert cover.evaluate("0" * 11)
        assert cover.evaluate("1" * 11)
        assert not cover.evaluate("0" * 10 + "1")

    def test_explicit_methods_agree_functionally(self):
        on, dc, off = random_function(5, 4)
        exact = minimize(on, dc, 4, method="exact")
        heur = minimize(on, dc, 4, method="heuristic")
        for minterm in on:
            assert exact.evaluate(minterm) and heur.evaluate(minterm)
        for minterm in off:
            assert not exact.evaluate(minterm) and not heur.evaluate(minterm)

    def test_unknown_method(self):
        with pytest.raises(LogicError):
            minimize(["1"], [], 1, method="quantum")
