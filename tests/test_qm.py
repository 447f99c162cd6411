"""Tests for the exact Quine-McCluskey minimizer."""

import os

import pytest

from repro.exceptions import LogicError
from repro.logic import minimize_exact, prime_implicants, verify_cover


def full_off_set(on_set, dc_set, n):
    care = set(on_set) | set(dc_set)
    return [
        format(v, f"0{n}b") for v in range(2 ** n)
        if format(v, f"0{n}b") not in care
    ]


class TestPrimeImplicants:
    def test_classic_example(self):
        # f(a,b) = a'b + ab + ab' = a + b; primes: "1-", "-1".
        primes = prime_implicants(["01", "11", "10"], [], 2)
        assert set(primes) == {"1-", "-1"}

    def test_xor_has_no_merging(self):
        primes = prime_implicants(["01", "10"], [], 2)
        assert set(primes) == {"01", "10"}

    def test_dont_cares_enlarge_primes(self):
        # on = {11}, dc = {10}: prime "1-" exists thanks to the dc.
        primes = prime_implicants(["11"], ["10"], 2)
        assert "1-" in primes

    def test_full_cube(self):
        primes = prime_implicants(["0", "1"], [], 1)
        assert primes == ["-"]

    def test_input_validation(self):
        with pytest.raises(LogicError):
            prime_implicants(["0x"], [], 2)
        with pytest.raises(LogicError):
            prime_implicants(["0" * 20], [], 20)


class TestMinimizeExact:
    def test_or_function(self):
        cover = minimize_exact(["01", "11", "10"], [], 2)
        assert set(cover.cubes) == {"1-", "-1"}

    def test_xor_function(self):
        cover = minimize_exact(["01", "10"], [], 2)
        assert cover.n_cubes == 2

    def test_majority_function(self):
        on = ["011", "101", "110", "111"]
        cover = minimize_exact(on, [], 3)
        assert cover.n_cubes == 3
        assert set(cover.cubes) == {"-11", "1-1", "11-"}

    def test_empty_on_set(self):
        cover = minimize_exact([], [], 3)
        assert cover.n_cubes == 0
        assert not cover.evaluate("000")

    def test_tautology(self):
        on = [format(v, "02b") for v in range(4)]
        cover = minimize_exact(on, [], 2)
        assert cover.cubes == ("--",)

    def test_dont_cares_reduce_cover(self):
        # Without dc: f = {00, 01} -> "0-"; with dc {10,11} -> "--".
        cover = minimize_exact(["00", "01"], ["10", "11"], 2)
        assert cover.cubes == ("--",)

    def test_functional_correctness_random(self):
        import random

        rng = random.Random(7)
        for trial in range(25):
            n = rng.randint(2, 5)
            space = [format(v, f"0{n}b") for v in range(2 ** n)]
            on = [m for m in space if rng.random() < 0.4]
            remaining = [m for m in space if m not in on]
            dc = [m for m in remaining if rng.random() < 0.2]
            cover = minimize_exact(on, dc, n)
            off = [m for m in remaining if m not in dc]
            verify_cover(cover, on, off)

    def test_cyclic_core(self):
        """The classic cyclic covering benchmark: no essential primes."""
        on = ["000", "001", "011", "111", "110", "100"]  # f = cyclic ring
        cover = minimize_exact(on, [], 3)
        off = full_off_set(on, [], 3)
        verify_cover(cover, on, off)
        assert cover.n_cubes == 3  # known optimum

    def test_minimality_vs_brute_force(self):
        """Exact cover is no larger than any cover found by brute force."""
        from itertools import combinations

        from repro.logic import prime_implicants as primes_of
        from repro.logic.cubes import cube_covers

        on = ["0000", "0101", "0111", "1111", "1010", "1000"]
        cover = minimize_exact(on, [], 4)
        primes = primes_of(on, [], 4)
        # Brute-force the smallest prime cover.
        best = None
        for size in range(1, len(primes) + 1):
            for combo in combinations(primes, size):
                if all(any(cube_covers(p, m) for p in combo) for m in on):
                    best = size
                    break
            if best is not None:
                break
        assert cover.n_cubes == best


class TestDk16CyclicCore:
    """table1/dk16's controller tables, pinned against the string oracle.

    The tables come from the sweep's own path (corpus member, OSTR search
    under the sweep's default budget, Figure-4 encoding), so a change to
    any of those stages shows up here too.  C1 output 4 is a 31-minterm
    cyclic core that only branch-and-bound can cover.
    """

    @pytest.fixture(scope="class")
    def tables(self):
        from repro.encoding import encode_realization
        from repro.ostr import search_ostr
        from repro.suite import corpus
        from repro.suite.sweep import SweepConfig

        config = SweepConfig()
        member = next(
            m for m in corpus.families()["table1"].members if m.name == "dk16"
        )
        result = search_ostr(
            member.build(),
            node_limit=config.node_limit,
            basis_order=config.basis_order,
        )
        encoded = encode_realization(result.realization())
        return {"c1": encoded.c1, "c2": encoded.c2, "lambda": encoded.lambda_}

    @pytest.mark.parametrize("block", ["c1", "c2"])
    def test_exact_columns_match_reference(self, tables, block, monkeypatch):
        from repro.logic import minimize_exact_reference, quine_mccluskey

        cores = []
        branch_and_bound = quine_mccluskey._branch_and_bound

        def spy(rows, literals, covering, uncovered):
            cores.append(uncovered.bit_count())
            return branch_and_bound(rows, literals, covering, uncovered)

        monkeypatch.setattr(quine_mccluskey, "_branch_and_bound", spy)
        table = tables[block]
        n = table.n_inputs
        assert n == 7
        for position in range(table.n_outputs):
            on, dc = table.output_column(position)
            assert minimize_exact(on, dc, n) == minimize_exact_reference(
                on, dc, n
            ), (block, position)
        assert cores == {"c1": [8, 31], "c2": [7, 9]}[block]

    def test_lambda_columns_match_reference(self, tables):
        """λ has 12 inputs, past ``exact_limit``, so the sweep minimizes it
        heuristically.  The exact cover must still be a valid cover no
        larger than the heuristic one; the string oracle needs over a
        minute per column, so comparing against it is opt-in."""
        from repro.logic import minimize, minimize_exact_reference

        table = tables["lambda"]
        n = table.n_inputs
        assert n == 12
        for position in range(table.n_outputs):
            on, dc = table.output_column(position)
            exact = minimize_exact(on, dc, n)
            verify_cover(exact, on, full_off_set(on, dc, n))
            assert len(exact) <= len(minimize(on, dc, n))
            if os.environ.get("REPRO_GOLDEN_HEAVY"):
                assert exact == minimize_exact_reference(on, dc, n)
