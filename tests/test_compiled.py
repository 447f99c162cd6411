"""Compiled netlist evaluation must match the interpreted reference exactly.

The slot-indexed lane evaluators replace the interpreted walker in every
hot loop, so these property tests pin the full contract on both of their
tiers -- the interpreted lane kernel a netlist starts on and the
exec-generated code it is compiled to once hot: all nets, arbitrary
masks, stem and branch faults, the packed single-pattern wrapper over the
lane kernel, and pickling (workers recompile lazily).
"""

import pickle
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.netlist.compiled as compiled_module
from repro.exceptions import NetlistError
from repro.netlist import Fault, GateKind, Netlist

_KINDS = (
    GateKind.AND,
    GateKind.OR,
    GateKind.XOR,
    GateKind.NOT,
    GateKind.BUF,
    GateKind.CONST0,
    GateKind.CONST1,
)


@st.composite
def random_netlists(draw, max_inputs=4, max_gates=10):
    n_inputs = draw(st.integers(min_value=1, max_value=max_inputs))
    n_gates = draw(st.integers(min_value=1, max_value=max_gates))
    netlist = Netlist("hyp-compiled")
    nets = []
    for position in range(n_inputs):
        nets.append(netlist.add_input(f"i{position}"))
    for position in range(n_gates):
        kind = draw(st.sampled_from(_KINDS))
        if kind in (GateKind.NOT, GateKind.BUF):
            operands = [nets[draw(st.integers(0, len(nets) - 1))]]
        elif kind in (GateKind.CONST0, GateKind.CONST1):
            operands = []
        else:
            count = draw(st.integers(min_value=1, max_value=3))
            operands = [
                nets[draw(st.integers(0, len(nets) - 1))] for _ in range(count)
            ]
        nets.append(netlist.add_gate(kind, f"g{position}", operands))
    n_outputs = draw(st.integers(min_value=1, max_value=min(3, len(nets))))
    for net in nets[-n_outputs:]:
        netlist.mark_output(net)
    return netlist.freeze()


def _all_faults(netlist):
    faults = [None]
    for net in netlist.nets():
        faults.append(Fault(net=net, stuck_at=0))
        faults.append(Fault(net=net, stuck_at=1))
    for index, gate in enumerate(netlist.gates):
        for pin in range(len(gate.inputs)):
            faults.append(
                Fault(net=gate.inputs[pin], stuck_at=0, gate_index=index, pin=pin)
            )
            faults.append(
                Fault(net=gate.inputs[pin], stuck_at=1, gate_index=index, pin=pin)
            )
    return faults


#: tier -> the ``COMPILE_ON_CALL`` that pins every evaluator call to it.
_TIERS = {"interpreted": sys.maxsize, "compiled": 1}


def _tier(engine, evaluator):
    """Which tier an evaluator slot of ``engine`` runs on now."""
    function = getattr(engine, "_" + evaluator)
    return "compiled" if function.__name__ == evaluator else "interpreted"


def _on_both_tiers(netlist, evaluators, check):
    """Run ``check()`` on a fresh netlist's interpreted tier, then again
    once its ``evaluators`` are compiled.  A small random netlist is
    called fewer than ``COMPILE_ON_CALL`` times, so without pinning the
    tier only the interpreter would ever be checked."""
    engine = netlist.compile()
    for tier, compile_on_call in _TIERS.items():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(compiled_module, "COMPILE_ON_CALL", compile_on_call)
            check()
        assert [_tier(engine, name) for name in evaluators] == [tier] * len(
            evaluators
        )


@given(random_netlists(), st.integers(min_value=1, max_value=8), st.randoms())
def test_compiled_matches_interpreted_all_faults(netlist, n_patterns, rng):
    mask = (1 << n_patterns) - 1
    inputs = {net: rng.randrange(1 << n_patterns) for net in netlist.inputs}

    def check():
        for fault in _all_faults(netlist):
            interpreted = netlist.evaluate_interpreted(inputs, mask=mask, fault=fault)
            assert netlist.evaluate(inputs, mask=mask, fault=fault) == interpreted
            assert netlist.evaluate_outputs(inputs, mask=mask, fault=fault) == {
                net: interpreted[net] for net in netlist.outputs
            }

    _on_both_tiers(netlist, ("lane_all", "lane_out"), check)


@given(random_netlists(), st.randoms())
def test_step_kernel_matches_interpreted(netlist, rng):
    """``single_pattern`` (packed bits through ``lane_out`` with mask 1)
    equals the interpreted walker under every fault."""
    compiled = netlist.compile()
    probes = [rng.randrange(1 << len(netlist.inputs)) for _ in range(3)]

    def check():
        for fault in _all_faults(netlist):
            evaluate = compiled.single_pattern(fault)
            for bits in probes:
                inputs = {
                    net: (bits >> i) & 1 for i, net in enumerate(netlist.inputs)
                }
                reference = netlist.evaluate_interpreted(inputs, mask=1, fault=fault)
                packed = sum(
                    (reference[net] & 1) << position
                    for position, net in enumerate(netlist.outputs)
                )
                assert evaluate(bits) == packed

    _on_both_tiers(netlist, ("lane_out",), check)


def _tiny_netlist():
    netlist = Netlist("tiny")
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_gate(GateKind.AND, "ab", ["a", "b"])
    netlist.add_gate(GateKind.NOT, "na", ["a"])
    netlist.add_gate(GateKind.OR, "out", ["ab", "na"])
    netlist.mark_output("out")
    return netlist


def test_compile_requires_freeze():
    netlist = _tiny_netlist()
    with pytest.raises(NetlistError):
        netlist.compile()
    assert netlist.compiled is None
    netlist.freeze()
    assert netlist.compile() is netlist.compile()  # cached


def test_missing_input_raises_like_interpreted():
    netlist = _tiny_netlist().freeze()
    with pytest.raises(NetlistError):
        netlist.evaluate({"a": 1})


def test_unknown_stem_fault_is_noop():
    netlist = _tiny_netlist().freeze()
    ghost = Fault(net="not-a-net", stuck_at=1)
    inputs = {"a": 1, "b": 0}
    assert netlist.evaluate(inputs, fault=ghost) == netlist.evaluate(inputs)


def test_frozen_structure_tuples_are_cached():
    netlist = _tiny_netlist()
    assert netlist.inputs is not netlist.inputs  # rebuilt while mutable
    netlist.freeze()
    assert netlist.inputs is netlist.inputs
    assert netlist.outputs is netlist.outputs
    assert netlist.gates is netlist.gates


def test_pickle_roundtrip_recompiles():
    netlist = _tiny_netlist().freeze()
    netlist.compile()
    clone = pickle.loads(pickle.dumps(netlist))
    assert clone._compiled is None  # generated code never crosses processes
    inputs = {"a": 1, "b": 1}
    assert clone.evaluate(inputs) == netlist.evaluate(inputs)


def test_evaluators_compile_on_hot_call(monkeypatch):
    """``compile()`` generates nothing; each evaluator runs interpreted
    until its ``COMPILE_ON_CALL``-th call, which compiles exactly it,
    exactly once; faulty, fault-free and single-pattern evaluation all
    count towards and share the same two evaluators."""
    import builtins

    assert set(compiled_module._EVALUATORS) == {"lane_all", "lane_out"}
    hot = compiled_module.COMPILE_ON_CALL
    assert hot > 1
    compiled = []

    def counting_compile(source, filename, mode):
        compiled.append(filename)
        return builtins.compile(source, filename, mode)

    monkeypatch.setattr(compiled_module, "compile", counting_compile, raising=False)
    netlist = _tiny_netlist().freeze()
    engine = netlist.compile()
    assert compiled == []
    overrides = engine.lane_overrides([(Fault(net="na", stuck_at=0), 2)])
    hit, _fix = overrides  # the lane kernel takes (I, mask, hit, fix)
    assert list(hit) == [int(net == "na") for net in engine.net_names]
    stuck = Fault(net="ab", stuck_at=1)
    step = engine.single_pattern(stuck)
    assert compiled == []
    # ``lane_out`` serves single-pattern and output-only evaluation alike:
    # calls 1 .. hot-1 interpret, call ``hot`` compiles it, later calls
    # reuse the compiled function.
    for call in range(1, hot + 3):
        if call % 2:
            assert step(call % 4) == 1  # out = ab | ~a with ab stuck at 1
        else:
            assert netlist.evaluate_outputs({"a": 1, "b": 0}, fault=stuck) == {
                "out": 1
            }
        assert compiled == (
            [] if call < hot else ["<compiled netlist 'tiny': lane_out>"]
        )
        assert _tier(engine, "lane_out") == (
            "interpreted" if call < hot else "compiled"
        )
    assert engine.single_pattern()(1) == 0
    # Whole-net evaluation counts and compiles ``lane_all`` on its own.
    faulty = engine.lane_eval([1, 3], 3, overrides)
    assert faulty != engine.lane_eval([1, 3], 3)
    for call in range(3, hot + 3):
        assert engine.lane_eval([1, 3], 3, overrides) == faulty
        assert compiled[1:] == (
            [] if call < hot else ["<compiled netlist 'tiny': lane_all>"]
        )
    netlist.evaluate({"a": 1, "b": 1}, fault=Fault(net="ab", stuck_at=0))
    engine.lane_eval_outputs([3, 3], 3, overrides)
    assert compiled == [
        "<compiled netlist 'tiny': lane_out>",
        "<compiled netlist 'tiny': lane_all>",
    ]
