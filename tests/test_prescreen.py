"""Campaign prescreen integration: static skip, validate, differential.

The contract under test (see :mod:`repro.faults.engine`):

* ``prescreen="static"`` must leave the :class:`CoverageReport`
  field-for-field identical to the serial reference oracle while the
  schedulers simulate strictly fewer faults (the proved ones are
  resolved up front).
* ``prescreen="validate"`` must simulate everything and raise
  :exc:`PrescreenViolation` exactly when an engine detects a fault the
  prover claimed untestable -- soundness as a continuously-checked
  theorem.  Over the real corpus this must never fire, in any engine
  configuration, with and without collapsing.
"""

import pytest

from repro.analysis import prove_controller
from repro.bist import build_pipeline
from repro.exceptions import FaultError, PrescreenViolation
from repro.faults import measure_coverage
from repro.faults.engine import deterministic_telemetry, run_campaign
from repro.ostr import search_ostr
from repro.suite import corpus, paper_example, shift_register


def pipeline_for(machine):
    return build_pipeline(search_ostr(machine).realization())


@pytest.fixture(scope="module")
def shiftreg_controller():
    return pipeline_for(shift_register(3))


@pytest.fixture(scope="module")
def shiftreg_oracle(shiftreg_controller):
    return measure_coverage(shiftreg_controller)


def report_fields(report):
    return {
        "architecture": report.architecture,
        "total": report.total,
        "detected": report.detected,
        "undetected": list(report.undetected),
        "by_block": dict(report.by_block),
        "cycles": report.cycles,
    }


class TestStaticPrescreen:
    def test_report_identical_to_oracle(
        self, shiftreg_controller, shiftreg_oracle
    ):
        static = measure_coverage(shiftreg_controller, prescreen="static")
        assert report_fields(static) == report_fields(shiftreg_oracle)

    def test_strictly_fewer_faults_simulated(self, shiftreg_controller):
        report = measure_coverage(shiftreg_controller, prescreen="static")
        stats = report.telemetry["prescreen"]
        assert stats["mode"] == "static"
        assert stats["universe"] == stats["scheduled"]  # no collapsing
        assert stats["proved"] >= 1
        assert stats["skipped"] == stats["proved"]
        assert sum(stats["by_verdict"].values()) == stats["proved"]
        assert len(stats["reasons"]) == stats["proved"]
        for witness in stats["reasons"].values():
            assert witness  # every proof carries its machine-readable reason

    def test_telemetry_slice_is_scheduler_independent(
        self, shiftreg_controller
    ):
        report = measure_coverage(shiftreg_controller, prescreen="static")
        slice_ = deterministic_telemetry(report.telemetry)["prescreen"]
        assert set(slice_) == {
            "mode", "universe", "scheduled", "proved", "skipped", "by_verdict"
        }
        assert "reasons" not in slice_  # witnesses stay out of the ledger

    def test_composes_with_collapse(self, shiftreg_controller, shiftreg_oracle):
        collapsed = measure_coverage(
            shiftreg_controller, collapse="equiv", prescreen="static",
            dropping=True,
        )
        assert report_fields(collapsed) == report_fields(shiftreg_oracle)
        stats = collapsed.telemetry["prescreen"]
        assert stats["scheduled"] < stats["universe"]

    def test_proved_faults_reported_undetected(self, shiftreg_controller):
        report = measure_coverage(shiftreg_controller, prescreen="static")
        undetected = set(report.undetected)
        verdicts = prove_controller(shiftreg_controller)
        universe = list(shiftreg_controller.fault_universe())
        proved = [
            block_fault
            for block_fault, verdict in zip(universe, verdicts)
            if verdict.is_untestable
        ]
        assert proved
        assert set(proved) <= undetected


class TestValidatePrescreen:
    def test_validate_passes_and_matches_oracle(
        self, shiftreg_controller, shiftreg_oracle
    ):
        report = measure_coverage(shiftreg_controller, prescreen="validate")
        assert report_fields(report) == report_fields(shiftreg_oracle)
        stats = report.telemetry["prescreen"]
        assert stats["mode"] == "validate"
        assert stats["skipped"] == 0  # everything was simulated

    def test_violation_type(self):
        assert issubclass(PrescreenViolation, FaultError)

    def test_lying_prover_raises_violation(
        self, shiftreg_controller, shiftreg_oracle, monkeypatch
    ):
        # Force a violation: claim one *detected* fault untestable and the
        # validate run must catch the (injected) unsoundness.
        import repro.analysis.untestable as untestable

        undetected = set(shiftreg_oracle.undetected)
        universe = list(shiftreg_controller.fault_universe())
        detected_fault = next(
            bf for bf in universe if bf not in undetected
        )

        real_prove = untestable.prove_controller

        def lying_prove(controller, faults=None):
            verdicts = list(real_prove(controller, faults=faults))
            schedule = list(
                controller.fault_universe() if faults is None else faults
            )
            for index, block_fault in enumerate(schedule):
                if block_fault == detected_fault:
                    verdicts[index] = untestable.FaultVerdict(
                        block_fault[1],
                        untestable.UNTESTABLE_CONSTANT,
                        "const[lie]=0",
                    )
            return verdicts

        monkeypatch.setattr(untestable, "prove_controller", lying_prove)
        with pytest.raises(PrescreenViolation) as excinfo:
            run_campaign(shiftreg_controller, prescreen="validate")
        assert detected_fault[1].describe() in str(excinfo.value)
        assert len(excinfo.value.violations) >= 1

    def test_checkpoint_resume_keeps_static_report_identical(
        self, shiftreg_controller, shiftreg_oracle, tmp_path
    ):
        path = str(tmp_path / "prescreen.ckpt")
        first = run_campaign(
            shiftreg_controller, prescreen="static", checkpoint=path
        )
        resumed = run_campaign(
            shiftreg_controller, prescreen="static", checkpoint=path
        )
        assert report_fields(first) == report_fields(shiftreg_oracle)
        assert report_fields(resumed) == report_fields(shiftreg_oracle)


class TestDifferentialCorpus:
    """UNTESTABLE_* verdicts must survive every engine, on real subjects."""

    def members(self):
        picked = corpus.members(family_filter=["table1"], limit=4)
        picked += corpus.members(family_filter=["mcnc"], limit=2)
        return picked

    def controllers(self):
        built = [paper_example(), shift_register(3)]
        built += [member.build() for member in self.members()]
        return [pipeline_for(machine) for machine in built]

    @pytest.mark.parametrize("config", [
        {"dropping": False},
        {"dropping": True, "superpose": True},
        {"dropping": True, "superpose": True, "collapse": "equiv"},
    ], ids=["serial", "superposed", "collapsed"])
    def test_validate_never_fires_on_corpus(self, config):
        proved_somewhere = 0
        for controller in self.controllers():
            report = measure_coverage(
                controller, prescreen="validate", **config
            )
            assert report.total == len(list(controller.fault_universe()))
            proved_somewhere += report.telemetry["prescreen"]["proved"]
        # The differential is vacuous unless the prover actually proved
        # something across the slice.
        assert proved_somewhere >= 10
