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


def test_static_analysis_does_not_keep_netlists_alive(machine):
    """The prover's per-netlist table cache is weak all the way through:
    once a controller is dropped, its netlists -- with their compiled
    evaluators and prover tables -- are freed."""
    import gc
    import weakref

    controller = build_controller(machine)
    analysis = static_analysis(controller)
    assert analysis.verdicts
    netlists = [
        weakref.ref(netlist)
        for netlist in controller.fault_blocks().values()
        if netlist is not None
    ]
    assert netlists
    del controller
    gc.collect()
    assert [ref() for ref in netlists] == [None] * len(netlists)


def test_sweep_path_compiles_lane_out_only(monkeypatch):
    """Build check plus the sweep-default campaign on a pipeline controller
    run only ``lane_out`` -- the fault-free references run it with no hit
    slot -- and compile it only for blocks called ``COMPILE_ON_CALL``
    times: on dk27 no block gets that hot, so nothing compiles.  The
    serial oracle's single-pattern sessions run ``lane_out`` too, many
    times per block, so they compile exactly it for all three blocks."""
    import builtins
    from collections import Counter

    import repro.netlist.compiled as compiled_module
    from repro.faults import measure_coverage
    from repro.suite.sweep import SweepConfig

    compiled = []
    calls = Counter()

    def counting_compile(source, filename, mode):
        compiled.append(filename)
        return builtins.compile(source, filename, mode)

    lane_eval_outputs = compiled_module.CompiledNetlist.lane_eval_outputs

    def counting_lane_eval_outputs(self, *args):
        calls[self.name] += 1
        return lane_eval_outputs(self, *args)

    monkeypatch.setattr(compiled_module, "compile", counting_compile, raising=False)
    monkeypatch.setattr(
        compiled_module.CompiledNetlist, "lane_eval_outputs", counting_lane_eval_outputs
    )
    monkeypatch.setattr(
        compiled_module.CompiledNetlist,
        "lane_eval",
        lambda *args: pytest.fail("the sweep path evaluated every net"),
    )
    config = SweepConfig()
    controller = build_controller(suite.load("dk27"), "pipeline")
    measure_coverage(
        controller,
        cycles=config.cycles,
        seed=config.seed,
        dropping=True,
        collapse=config.collapse,
        prescreen=config.prescreen,
    )
    blocks = (controller.c1, controller.c2, controller.lambda_net)
    assert sorted(calls) == sorted(netlist.name for netlist in blocks)
    assert max(calls.values()) < compiled_module.COMPILE_ON_CALL
    assert compiled == []
    measure_coverage(controller)
    assert sorted(compiled) == sorted(
        f"<compiled netlist {netlist.name!r}: lane_out>" for netlist in blocks
    )
