"""Tests for the parallel self-test model (paper Section 1, refs [18, 13])."""

import pytest

from repro import suite
from repro.bist import build_parallel_self_test, build_pipeline
from repro.faults import measure_coverage
from repro.fsm import random_mealy
from repro.ostr import search_ostr
from repro.pipeline import build_controller


@pytest.fixture(scope="module")
def shiftreg_parallel():
    return build_parallel_self_test(suite.load("shiftreg"))


class TestStructure:
    def test_no_extra_register(self, shiftreg_parallel):
        # The whole point: the single system register does everything.
        assert shiftreg_parallel.flipflops == 3

    def test_no_delay_penalty(self, shiftreg_parallel):
        from repro.bist import build_plain

        plain = build_plain(suite.load("shiftreg"))
        assert shiftreg_parallel.critical_path() == plain.critical_path()

    def test_signatures_deterministic(self, shiftreg_parallel):
        assert (
            shiftreg_parallel.fault_free_signatures()
            == shiftreg_parallel.fault_free_signatures()
        )


class TestPaperClaim:
    """'the required properties of the test patterns cannot be guaranteed'"""

    def test_pattern_space_not_swept_on_shiftreg(self, shiftreg_parallel):
        distinct, total = shiftreg_parallel.pattern_statistics()
        assert distinct < total  # the signature trajectory collapses

    def test_coverage_below_pipeline(self):
        machine = suite.load("shiftreg")
        parallel = build_parallel_self_test(machine)
        pipeline = build_pipeline(search_ostr(machine).realization())
        parallel_report = measure_coverage(parallel)
        pipeline_report = measure_coverage(pipeline)
        # Normalise over each architecture's own universe: the pipeline
        # catches all detectable faults, the parallel test does not.
        assert parallel_report.coverage < 0.9
        assert pipeline_report.detected == pipeline_report.total - 10  # redundancies

    def test_feasible_in_a_few_cases(self):
        """tav is one of the 'few cases': its trajectory is exhaustive."""
        parallel = build_parallel_self_test(suite.load("tav"))
        distinct, total = parallel.pattern_statistics()
        assert distinct == total

    def test_coverage_varies_by_machine(self):
        rates = {}
        for name in ("shiftreg", "tav"):
            parallel = build_parallel_self_test(suite.load(name))
            rates[name] = measure_coverage(parallel).coverage
        assert rates["tav"] > rates["shiftreg"]


class TestOneStateMachine:
    """A one-state machine's R is zero bits wide: its signature is always
    0 and it feeds no state input into C."""

    @pytest.mark.parametrize("seed", range(16))
    def test_zero_width_register(self, seed):
        controller = build_controller(random_mealy(1, 2, 2, seed=seed), "parallel")
        assert controller.width == 0
        oracle = measure_coverage(controller)
        assert oracle == measure_coverage(controller, dropping=True)
        assert oracle == measure_coverage(controller, engine="interpreted")
        assert controller.fault_free_signatures()[0] == 0
        assert controller.pattern_statistics() == (1, 1)


class TestExperimentIntegration:
    def test_run_coverage_includes_parallel_row(self):
        from repro import experiments

        rows = experiments.run_coverage(suite.load("tav"))
        assert len(rows) == 4
        assert rows[0].architecture.startswith("parallel")
        # ordering claim with the parallel row included
        assert rows[3].detectable_coverage >= rows[0].detectable_coverage
