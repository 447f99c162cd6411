"""Property tests: superposed lane-packed evaluation == N serial runs.

The superposition engine rests on three mechanisms, each checked here
against its serial counterpart cycle-for-cycle so hypothesis shrinks any
divergence down to the offending fault:

* the multi-lane compiled kernel (``lane_eval`` with per-lane fault
  overrides) against one interpreted evaluation per fault,
* the bit-sliced :class:`LaneMisr` bank against independent
  :class:`Misr` registers,
* a full feedback session -- netlist outputs compacted by a register that
  drives the netlist's own inputs, the shape of the parallel self-test
  and of the pipeline's ``lambda*`` fallback -- superposed over random
  fault subsets against one serial faulty run per fault.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bist.compaction import LaneMisr, broadcast_lanes
from repro.bist.misr import Misr
from repro.netlist import Fault, GateKind, Netlist

_KINDS = (GateKind.AND, GateKind.OR, GateKind.XOR, GateKind.NOT, GateKind.BUF)


@st.composite
def random_netlists(draw, max_inputs=4, max_gates=8):
    n_inputs = draw(st.integers(min_value=1, max_value=max_inputs))
    n_gates = draw(st.integers(min_value=1, max_value=max_gates))
    netlist = Netlist("hyp")
    nets = []
    for position in range(n_inputs):
        nets.append(netlist.add_input(f"i{position}"))
    for position in range(n_gates):
        kind = draw(st.sampled_from(_KINDS))
        if kind in (GateKind.NOT, GateKind.BUF):
            operands = [nets[draw(st.integers(0, len(nets) - 1))]]
        else:
            count = draw(st.integers(min_value=1, max_value=3))
            operands = [
                nets[draw(st.integers(0, len(nets) - 1))] for _ in range(count)
            ]
        nets.append(netlist.add_gate(kind, f"g{position}", operands))
    n_outputs = draw(st.integers(min_value=1, max_value=min(3, n_gates)))
    for net in nets[-n_outputs:]:
        netlist.mark_output(net)
    return netlist.freeze()


@st.composite
def random_faults(draw, netlist, max_faults=6):
    """A non-empty subset of stem and branch faults of ``netlist``."""
    nets = netlist.nets()
    count = draw(st.integers(min_value=1, max_value=max_faults))
    faults = []
    for _ in range(count):
        stuck = draw(st.integers(0, 1))
        if draw(st.booleans()):
            faults.append(Fault(net=nets[draw(st.integers(0, len(nets) - 1))], stuck_at=stuck))
        else:
            gate_index = draw(st.integers(0, netlist.n_gates - 1))
            gate = netlist.gates[gate_index]
            pin = draw(st.integers(0, len(gate.inputs) - 1))
            faults.append(
                Fault(
                    net=gate.inputs[pin],
                    stuck_at=stuck,
                    gate_index=gate_index,
                    pin=pin,
                )
            )
    return faults


@st.composite
def netlist_faults_patterns(draw):
    netlist = draw(random_netlists())
    faults = draw(random_faults(netlist))
    n_cycles = draw(st.integers(min_value=1, max_value=8))
    patterns = [
        [draw(st.integers(0, 1)) for _ in netlist.inputs] for _ in range(n_cycles)
    ]
    return netlist, faults, patterns


def _interpreted_outputs(netlist, values, mask, fault):
    """Serial reference: the interpreted walker's marked outputs, in order."""
    named = netlist.evaluate_interpreted(
        dict(zip(netlist.inputs, values)), mask=mask, fault=fault
    )
    return [named[net] for net in netlist.outputs]


@given(netlist_faults_patterns())
def test_lane_eval_equals_serial_per_fault(data):
    """One multi-lane evaluation == one serial evaluation per fault, per cycle."""
    netlist, faults, patterns = data
    compiled = netlist.compile()
    lane_mask = (1 << (len(faults) + 1)) - 1
    overrides = compiled.lane_overrides(
        [(fault, 1 << (lane + 1)) for lane, fault in enumerate(faults)]
    )
    for pattern in patterns:
        words = [lane_mask if bit else 0 for bit in pattern]
        lane_out = compiled.lane_eval_outputs(words, lane_mask, overrides)
        good = _interpreted_outputs(netlist, pattern, 1, None)
        assert [(word >> 0) & 1 for word in lane_out] == good, "fault-free lane 0"
        for lane, fault in enumerate(faults, start=1):
            serial = _interpreted_outputs(netlist, pattern, 1, fault)
            assert [(word >> lane) & 1 for word in lane_out] == serial, fault


@given(
    st.sampled_from((1, 3, 4, 7, 12)),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=4095),
    st.lists(
        st.lists(st.integers(min_value=0, max_value=4095), min_size=1, max_size=8),
        min_size=1,
        max_size=16,
    ),
)
def test_lane_misr_bank_equals_independent_misrs(width, lanes, seed, stream):
    """Bit-sliced LaneMisr == one Misr per lane, cycle for cycle."""
    space = 1 << width
    lane_mask = (1 << lanes) - 1
    serial = [Misr(width, seed=seed % space) for _ in range(lanes)]
    bank = LaneMisr(width, lane_mask=lane_mask, seed=seed % space)
    for row in stream:
        data = [(row[lane % len(row)] * (lane + 1)) % space for lane in range(lanes)]
        words = [0] * width
        for lane, value in enumerate(data):
            for position in range(width):
                words[position] |= ((value >> position) & 1) << lane
        for lane, register in enumerate(serial):
            register.absorb(data[lane])
        bank.absorb_words(words)
        for lane, register in enumerate(serial):
            assert bank.lane_signature(lane) == register.signature


@given(netlist_faults_patterns(), st.integers(min_value=0, max_value=4095))
@settings(deadline=None)
def test_superposed_feedback_session_equals_serial_runs(data, seed):
    """Feedback session (outputs -> MISR -> inputs) superposed over faults.

    This is the exact shape the fallback sessions superpose: the register
    trajectory depends on every faulty response, so each lane must carry
    its own register state.  The superposed run must equal N independent
    serial faulty runs cycle-for-cycle.
    """
    netlist, faults, patterns = data
    compiled = netlist.compile()
    width = len(netlist.outputs)
    n_inputs = len(netlist.inputs)
    fed = min(width, n_inputs)  # inputs driven by the register
    cycles = len(patterns)

    def serial_states(fault):
        register = Misr(width, seed=seed % (1 << width))
        states = []
        for pattern in patterns:
            bits = [
                (register.signature >> position) & 1 if position < fed else pattern[position]
                for position in range(n_inputs)
            ]
            outputs = _interpreted_outputs(netlist, bits, 1, fault)
            data_word = 0
            for position, value in enumerate(outputs):
                data_word |= (value & 1) << position
            register.absorb(data_word)
            states.append(register.signature)
        return states

    lane_mask = (1 << (len(faults) + 1)) - 1
    overrides = compiled.lane_overrides(
        [(fault, 1 << (lane + 1)) for lane, fault in enumerate(faults)]
    )
    bank = LaneMisr(width, lane_mask=lane_mask, seed=seed % (1 << width))
    lane_states = [[] for _ in range(len(faults) + 1)]
    for pattern in patterns:
        words = bank.stages[:fed] + [
            lane_mask if pattern[position] else 0 for position in range(fed, n_inputs)
        ]
        out_words = compiled.lane_eval_outputs(words, lane_mask, overrides)
        bank.absorb_words(out_words)
        for lane in range(len(faults) + 1):
            lane_states[lane].append(bank.lane_signature(lane))

    assert lane_states[0] == serial_states(None), "fault-free lane 0"
    for lane, fault in enumerate(faults, start=1):
        assert lane_states[lane] == serial_states(fault), fault


@given(
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=6),
)
def test_broadcast_lanes_replicates_bits(value, count, lanes):
    lane_mask = (1 << lanes) - 1
    words = broadcast_lanes(value, count, lane_mask)
    assert len(words) == count
    for position, word in enumerate(words):
        expected = lane_mask if (value >> position) & 1 else 0
        assert word == expected


# -- the lane kernel's per-slot hook: pins of one gate, stems, CONST gates --

_ALL_KINDS = _KINDS + (GateKind.CONST0, GateKind.CONST1)


@st.composite
def netlists_with_constants(draw, max_inputs=3, max_gates=8):
    """Random netlists mixing CONST0/CONST1 (no pins) and single-input
    gates with multi-input ones; gate 0 always has two or three pins."""
    n_inputs = draw(st.integers(min_value=1, max_value=max_inputs))
    n_gates = draw(st.integers(min_value=1, max_value=max_gates))
    netlist = Netlist("hyp-const")
    nets = [netlist.add_input(f"i{position}") for position in range(n_inputs)]
    for position in range(n_gates):
        if position == 0:
            kind = draw(st.sampled_from((GateKind.AND, GateKind.OR, GateKind.XOR)))
            count = draw(st.integers(min_value=2, max_value=3))
        else:
            kind = draw(st.sampled_from(_ALL_KINDS))
            if kind in (GateKind.CONST0, GateKind.CONST1):
                count = 0
            elif kind in (GateKind.NOT, GateKind.BUF):
                count = 1
            else:
                count = draw(st.integers(min_value=1, max_value=3))
        operands = [nets[draw(st.integers(0, len(nets) - 1))] for _ in range(count)]
        nets.append(netlist.add_gate(kind, f"g{position}", operands))
    marked = draw(
        st.lists(st.integers(0, len(nets) - 1), min_size=1, max_size=4, unique=True)
    )
    for position in sorted(marked):
        netlist.mark_output(nets[position])
    return netlist.freeze()


@st.composite
def same_gate_lanes(draw):
    """Faults on different pins of one gate, a stem fault on that gate's
    output in another lane, stems on CONST outputs, plus random faults;
    and a pattern set packed into each lane's field."""
    netlist = draw(netlists_with_constants())
    gates = netlist.gates
    target = draw(
        st.sampled_from([index for index, gate in enumerate(gates) if gate.inputs])
    )
    gate = gates[target]
    pins = draw(
        st.lists(
            st.integers(0, len(gate.inputs) - 1),
            min_size=1,
            max_size=len(gate.inputs),
            unique=True,
        )
    )
    faults = [
        Fault(
            net=gate.inputs[pin],
            stuck_at=draw(st.integers(0, 1)),
            gate_index=target,
            pin=pin,
        )
        for pin in pins
    ]
    faults.append(Fault(net=gate.output, stuck_at=draw(st.integers(0, 1))))
    for constant in gates:
        if not constant.inputs:
            faults.append(Fault(net=constant.output, stuck_at=draw(st.integers(0, 1))))
    nets = netlist.nets()
    pinned = [index for index, candidate in enumerate(gates) if candidate.inputs]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        stuck = draw(st.integers(0, 1))
        if draw(st.booleans()):
            faults.append(Fault(net=draw(st.sampled_from(nets)), stuck_at=stuck))
        else:
            index = draw(st.sampled_from(pinned))
            pin = draw(st.integers(0, len(gates[index].inputs) - 1))
            faults.append(
                Fault(
                    net=gates[index].inputs[pin],
                    stuck_at=stuck,
                    gate_index=index,
                    pin=pin,
                )
            )
    faults = draw(st.permutations(faults))
    n_patterns = draw(st.integers(min_value=1, max_value=6))
    patterns = [
        [draw(st.integers(0, 1)) for _ in netlist.inputs] for _ in range(n_patterns)
    ]
    return netlist, faults, patterns


def _assert_lanes_match_serial(netlist, faults, patterns):
    """Every field of one lane evaluation == that fault's serial runs."""
    compiled = netlist.compile()
    n_patterns = len(patterns)
    mask = (1 << n_patterns) - 1
    packed = [
        sum(pattern[position] << cycle for cycle, pattern in enumerate(patterns))
        for position in range(len(netlist.inputs))
    ]
    fields = len(faults) + 1
    words = [
        sum(value << (lane * n_patterns) for lane in range(fields)) for value in packed
    ]
    word_mask = (1 << (fields * n_patterns)) - 1
    overrides = compiled.lane_overrides(
        [(fault, mask << (lane * n_patterns)) for lane, fault in enumerate(faults, 1)]
    )
    lane_out = compiled.lane_eval_outputs(words, word_mask, overrides)
    lane_all = compiled.lane_eval(words, word_mask, overrides)
    named = dict(zip(netlist.inputs, packed))
    for lane, fault in enumerate([None] + list(faults)):
        shift = lane * n_patterns
        interpreted = netlist.evaluate_interpreted(named, mask=mask, fault=fault)
        assert [(word >> shift) & mask for word in lane_out] == [
            interpreted[net] for net in netlist.outputs
        ], fault
        assert [(word >> shift) & mask for word in lane_all] == [
            interpreted[net] for net in compiled.net_names
        ], fault


@given(same_gate_lanes())
@settings(max_examples=200, deadline=None)
def test_lane_kernel_pins_of_one_gate_equal_serial(data):
    """Several pin overrides of one gate are applied in one recompute, the
    gate's stem fault in its own lane after it; every lane must still be
    its own fault's serial and interpreted evaluation."""
    _assert_lanes_match_serial(*data)


def test_lane_kernel_const_gates():
    """Input-less CONST gates get an empty operand tuple in the lane hook
    (never ``(,)``), and their stem faults flip the constant per lane."""
    netlist = Netlist("consts")
    netlist.add_input("a")
    netlist.add_gate(GateKind.CONST0, "zero", [])
    netlist.add_gate(GateKind.CONST1, "one", [])
    netlist.add_gate(GateKind.AND, "y", ["a", "one"])
    netlist.add_gate(GateKind.OR, "z", ["zero", "a"])
    netlist.add_gate(GateKind.XOR, "w", ["zero", "one", "a"])
    netlist.add_gate(GateKind.NOT, "n", ["w"])
    for net in ("zero", "one", "y", "z", "n"):
        netlist.mark_output(net)
    netlist.freeze()
    source = netlist.compile()._source("lane_out")
    assert "(,)" not in source
    assert "fix(1, v1, ())" in source and "fix(2, v2, ())" in source
    faults = [
        Fault(net="zero", stuck_at=1),
        Fault(net="one", stuck_at=0),
        Fault(net="one", stuck_at=0, gate_index=2, pin=1),
        Fault(net="a", stuck_at=1, gate_index=2, pin=0),
        Fault(net="y", stuck_at=1),
        Fault(net="zero", stuck_at=1, gate_index=4, pin=0),
        Fault(net="one", stuck_at=0, gate_index=4, pin=1),
        Fault(net="w", stuck_at=1, gate_index=5, pin=0),
        Fault(net="n", stuck_at=0),
    ]
    _assert_lanes_match_serial(netlist, faults, [[0], [1]])
