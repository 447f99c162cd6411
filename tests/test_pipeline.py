"""The one machine -> controller path and the one static-analysis pass."""

import pytest

from repro import bist, ostr, suite
from repro.exceptions import BistError
from repro.pipeline import ARCHITECTURES, build_controller, static_analysis


@pytest.fixture(scope="module")
def machine():
    return suite.load("shiftreg")


@pytest.mark.parametrize(
    "architecture, cls",
    [
        ("plain", bist.PlainController),
        ("parallel", bist.ParallelSelfTestController),
        ("conventional", bist.ConventionalBistController),
        ("doubled", bist.DoubledController),
        ("pipeline", bist.PipelineController),
    ],
)
def test_every_architecture_builds(machine, architecture, cls):
    assert architecture in ARCHITECTURES
    controller = build_controller(machine, architecture)
    assert type(controller) is cls
    assert controller.machine is machine


def test_unknown_architecture_is_a_bist_error(machine):
    with pytest.raises(BistError, match="unknown architecture 'ring'"):
        build_controller(machine, "ring")


def test_pipeline_uses_a_given_result(machine, monkeypatch):
    result = ostr.search_ostr(machine)

    def no_search(*args, **kwargs):
        raise AssertionError("build_controller searched despite result=")

    monkeypatch.setattr(ostr, "search_ostr", no_search)
    controller = build_controller(machine, result=result)
    assert controller.flipflops == result.solution.flipflops


def test_layer_functions_resolve_at_call_time(machine, monkeypatch):
    """Wrappers installed on package attributes see every call."""
    calls = []
    for owner, name in ((ostr, "search_ostr"), (bist, "build_pipeline")):
        original = getattr(owner, name)

        def wrapper(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    build_controller(machine, node_limit=1000)
    assert calls == ["search_ostr", "build_pipeline"]


@pytest.mark.parametrize("architecture", ["pipeline", "conventional"])
def test_static_analysis_covers_every_netlist_block(machine, architecture):
    controller = build_controller(machine, architecture)
    analysis = static_analysis(controller)
    netlists = sorted(
        block
        for block, netlist in controller.fault_blocks().items()
        if netlist is not None
    )
    assert list(analysis.blocks) == netlists
    assert len(analysis.verdicts) == len(controller.fault_universe())


def test_static_analysis_observation_override(machine):
    controller = build_controller(machine)
    analysis = static_analysis(controller, observed=())
    assert all(report.has_errors for report in analysis.blocks.values())
