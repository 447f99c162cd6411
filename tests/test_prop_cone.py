"""Property tests: the fanout-cone evaluator == field packing == serial runs.

:func:`repro.faults.simulator.superposed_fields` yields every fault's
output streams by one of two packings, chosen by the stream length:
field packing (:func:`packed_fields`) up to ``CONE_CROSSOVER_BITS`` and
fanout cones (:func:`cone_fields`, :meth:`CompiledNetlist.cone_outputs`)
past it.  Hypothesis calls both directly on the same draws -- stem faults
on inputs and gates, branch faults, NOT/BUF/XOR/CONST gates, gates that
read one net on two pins, unknown nets and pins, stream widths on both
sides of the crossover -- and checks each against one
:meth:`Netlist.evaluate_interpreted` per fault.  The cone evaluator must
also do exactly the event-driven work: it re-evaluates a gate iff the
gate reads a net whose faulty value differs from the fault-free one.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import FaultError
from repro.faults import simulator
from repro.faults.simulator import (
    CONE_CROSSOVER_BITS,
    cone_fields,
    packed_fields,
    superposed_fields,
)
from repro.netlist import Fault, GateKind, Netlist
from repro.netlist import compiled as compiled_module
from test_prop_superposed import netlists_with_constants, random_netlists

#: stream widths on both sides of the crossover
_WIDTHS = (
    1,
    3,
    64,
    CONE_CROSSOVER_BITS,
    CONE_CROSSOVER_BITS + 1,
    2 * CONE_CROSSOVER_BITS + 5,
)


@st.composite
def cone_cases(draw):
    """A netlist (with or without CONST gates), known faults of it,
    random ``n``-bit input streams, and ``n``."""
    netlist = draw(st.one_of(random_netlists(max_gates=10), netlists_with_constants()))
    nets = netlist.nets()
    pinned = [index for index, gate in enumerate(netlist.gates) if gate.inputs]
    faults = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        stuck = draw(st.integers(0, 1))
        if not pinned or draw(st.booleans()):
            faults.append(Fault(net=draw(st.sampled_from(nets)), stuck_at=stuck))
            continue
        index = draw(st.sampled_from(pinned))
        gate = netlist.gates[index]
        pin = draw(st.integers(0, len(gate.inputs) - 1))
        faults.append(
            Fault(net=gate.inputs[pin], stuck_at=stuck, gate_index=index, pin=pin)
        )
    n_bits = draw(st.sampled_from(_WIDTHS))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    streams = [rng.getrandbits(n_bits) for _ in netlist.inputs]
    return netlist, faults, streams, n_bits


def _all_nets(netlist, streams, mask, fault=None):
    return netlist.evaluate_interpreted(
        dict(zip(netlist.inputs, streams)), mask=mask, fault=fault
    )


@given(cone_cases())
@settings(max_examples=150, deadline=None)
def test_cone_and_field_paths_equal_serial_runs(case):
    """Both packings, called directly, and the routed entry point yield
    each fault's own interpreted output streams, in fault order."""
    netlist, faults, streams, n_bits = case
    mask = (1 << n_bits) - 1
    compiled = netlist.compile()
    reference = compiled.lane_eval_outputs(streams, mask)
    expected = []
    for fault in faults:
        values = _all_nets(netlist, streams, mask, fault)
        expected.append([values[net] for net in netlist.outputs])
    cones = list(cone_fields(compiled, streams, mask, reference, faults))
    fields = list(packed_fields(compiled, streams, mask, reference, faults))
    routed = list(superposed_fields(compiled, streams, mask, reference, faults))
    assert cones == expected
    assert fields == expected
    assert routed == expected


@given(cone_cases())
@settings(max_examples=150, deadline=None)
def test_cone_evaluates_exactly_the_gates_events_reach(case):
    """Every gate that pops off the event queue reads a net whose faulty
    value differs from the fault-free one, and every such reader pops
    exactly once: no event survives an unchanged value, none is lost."""
    netlist, faults, streams, n_bits = case
    mask = (1 << n_bits) - 1
    compiled = netlist.compile()
    values = compiled.lane_eval(streams, mask)
    good = _all_nets(netlist, streams, mask)
    readers = {net: set() for net in compiled.net_names}
    for index, gate in enumerate(netlist.gates):
        for net in gate.inputs:
            readers[net].add(compiled.n_inputs + index)
    popped = []
    pop = compiled_module.heappop

    def recording_pop(heap):
        popped.append(pop(heap))
        return popped[-1]

    for fault in faults:
        faulty = _all_nets(netlist, streams, mask, fault)
        expected = set()
        for net in compiled.net_names:
            if faulty[net] != good[net]:
                expected |= readers[net]
        popped.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(compiled_module, "heappop", recording_pop)
            outputs = compiled.cone_outputs(values, mask, fault)
        assert outputs == [faulty[net] for net in netlist.outputs], fault
        assert sorted(set(popped)) == popped, "each gate once, in slot order"
        assert set(popped) == expected, fault


@given(
    random_netlists(),
    st.sampled_from(_WIDTHS),
    st.integers(0, 1),
    st.integers(0, 2**32 - 1),
)
@settings(deadline=None)
def test_unknown_nets_and_pins_are_no_ops(netlist, n_bits, stuck, seed):
    """A fault on a net or pin the netlist does not have (the Figure-2
    feedback pseudo-nets) leaves every output fault-free on both paths."""
    rng = random.Random(seed)
    mask = (1 << n_bits) - 1
    streams = [rng.getrandbits(n_bits) for _ in netlist.inputs]
    compiled = netlist.compile()
    reference = compiled.lane_eval_outputs(streams, mask)
    last = netlist.n_gates - 1
    faults = [
        Fault(net="feedback_pseudo_net", stuck_at=stuck),
        Fault(net="x", stuck_at=stuck, gate_index=netlist.n_gates, pin=0),
        Fault(net="x", stuck_at=stuck, gate_index=-1, pin=0),
        Fault(
            net="x",
            stuck_at=stuck,
            gate_index=last,
            pin=len(netlist.gates[last].inputs),
        ),
    ]
    for path in (cone_fields, packed_fields):
        assert list(path(compiled, streams, mask, reference, faults)) == [
            reference
        ] * len(faults)


@pytest.mark.parametrize("n_bits", (1, CONE_CROSSOVER_BITS, CONE_CROSSOVER_BITS + 1, 4096))
def test_streams_route_by_length(monkeypatch, n_bits):
    """Streams up to the crossover take field packing, longer ones the
    cones; the empty stream yields the reference per fault on either."""
    compiled = _small_netlist().compile()
    taken = []
    for name in ("cone_fields", "packed_fields"):
        path = getattr(simulator, name)

        def tagged(*args, _path=path, _name=name):
            taken.append(_name)
            return _path(*args)

        monkeypatch.setattr(simulator, name, tagged)
    mask = (1 << n_bits) - 1
    streams = [mask, 0]
    reference = compiled.lane_eval_outputs(streams, mask)
    faults = [Fault(net="a", stuck_at=0), Fault(net="y", stuck_at=1)]
    assert len(list(superposed_fields(compiled, streams, mask, reference, faults))) == 2
    assert taken == ["cone_fields" if n_bits > CONE_CROSSOVER_BITS else "packed_fields"]
    taken.clear()
    assert list(superposed_fields(compiled, [0, 0], 0, [0], faults)) == [[0], [0]]
    assert taken == []


def _small_netlist():
    netlist = Netlist("route")
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_gate(GateKind.AND, "y", ["a", "b"])
    netlist.mark_output("y")
    return netlist.freeze()


def test_cone_fields_check_the_fault_free_evaluation_in_band():
    """A reference the fault-free evaluation does not reproduce fails
    loudly instead of mis-grading every fault."""
    netlist = _small_netlist()
    compiled = netlist.compile()
    mask = (1 << (CONE_CROSSOVER_BITS + 1)) - 1
    streams = [mask, mask]
    faults = [Fault(net="a", stuck_at=0)]
    with pytest.raises(FaultError, match="fanout cones"):
        list(cone_fields(compiled, streams, mask, [0], faults))
    assert list(cone_fields(compiled, streams, mask, [mask], [])) == []
