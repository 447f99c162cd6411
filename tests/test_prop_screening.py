"""Property tests: field-packed screening == the serial campaign oracle.

The dropping campaign screens every fault of a free-running-PRPG session
in fault-per-field passes (:func:`repro.faults.simulator.superposed_fields`)
and builds its fault-free references bit-parallel.  On random machines,
for the pipeline, conventional and doubled controllers:

* ``measure_coverage(dropping=True)`` must equal the ``dropping=False``
  oracle (one serial self-test per fault), and
* ``telemetry["dropped"]`` must equal a direct count of the faults that
  show no response error in any session, computed here from the session
  definitions with the interpreted netlist evaluator.

The pass budget is shrunk in one test so that a pass holds a single
fault and the last group is shorter than a pass; another runs a session
longer than half the real budget, where a pass holds one fault anyway.
The parallel self-test, whose sessions cannot be screened, is checked
against its oracle with its one-bit lanes split into small passes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.bist.architectures as architectures
import repro.faults.simulator as simulator
from repro.bist.lfsr import Lfsr
from repro.bist.misr import Misr
from repro.faults.coverage import measure_coverage
from repro.fsm import random_mealy
from repro.netlist import Netlist
from repro.pipeline import build_controller

ARCHITECTURES = ("pipeline", "conventional", "doubled")


def _prpg_words(width: int, seed: int, cycles: int) -> List[int]:
    if width == 0:
        return [0] * cycles  # the one empty pattern, every clock
    prpg = Lfsr.from_any_seed(width, seed, complete=True)
    words = []
    for _ in range(cycles):
        words.append(prpg.state)
        prpg.step()
    return words


def _streams(names: Sequence[str], words: Sequence[int]) -> Dict[str, int]:
    """Cycle-major words -> one stream per net (bit t = cycle t)."""
    streams = {name: 0 for name in names}
    for cycle, word in enumerate(words):
        for position, name in enumerate(names):
            if (word >> position) & 1:
                streams[name] |= 1 << cycle
    return streams


def _excited(netlist: Netlist, streams: Dict[str, int], cycles: int, fault) -> bool:
    """Does ``fault`` change any output in any cycle of the streams?"""
    mask = (1 << cycles) - 1
    good = netlist.evaluate_interpreted(streams, mask=mask)
    bad = netlist.evaluate_interpreted(streams, mask=mask, fault=fault)
    return any(good[net] != bad[net] for net in netlist.outputs)


def _outputs_word(netlist: Netlist, values: Dict[str, int]) -> int:
    return sum((values[net] & 1) << line for line, net in enumerate(netlist.outputs))


def _pipeline_sessions(controller, cycles: int, seed: int):
    """(block, block streams, lambda streams, cycles) per pipeline session,
    along the fault-free trajectory; block is ``None`` for the chained
    lambda session."""
    w1, w2, xw = controller.w1, controller.w2, controller.input_width
    lam = controller.lambda_net
    sessions = []
    for generator, block, source, sink, session_seed in (
        ("R1", controller.c1, w1, w2, seed),
        ("R2", controller.c2, w2, w1, seed + 1),
    ):
        patterns = _prpg_words(source + xw, session_seed, cycles)
        misr = Misr(max(1, sink))
        lambda_words = []
        for pattern in patterns:
            values = block.evaluate_interpreted(
                {
                    net: (pattern >> position) & 1
                    for position, net in enumerate(block.inputs)
                }
            )
            misr.absorb(_outputs_word(block, values))
            register = pattern & ((1 << source) - 1)
            r1, r2 = (
                (register, misr.signature)
                if generator == "R1"
                else (misr.signature, register)
            )
            lambda_words.append(r1 | (r2 << w1) | ((pattern >> source) << (w1 + w2)))
        sessions.append(
            (
                block,
                _streams(block.inputs, patterns),
                _streams(lam.inputs, lambda_words),
                cycles,
            )
        )
    chained = min(4096, 2 ** (w1 + w2 + xw))
    sessions.append(
        (
            None,
            None,
            _streams(lam.inputs, _prpg_words(w1 + w2 + xw, seed + 2, chained)),
            chained,
        )
    )
    return sessions


def direct_dropped(controller, cycles: Optional[int], seed: int) -> int:
    """Faults with no response error in any session, counted fault by fault."""
    universe = controller.fault_universe()
    if isinstance(controller, architectures.PipelineController):
        cycles = controller._default_cycles(cycles)
        sessions = _pipeline_sessions(controller, cycles, seed)
        lam = controller.lambda_net
        dropped = 0
        for block_label, fault in universe:
            if block_label == "LAMBDA":
                dropped += not any(
                    _excited(lam, lambda_streams, length, fault)
                    for _block, _streams_, lambda_streams, length in sessions
                )
            else:
                block, streams, _lambda, length = sessions[
                    0 if block_label == "C1" else 1
                ]
                dropped += not _excited(block, streams, length, fault)
        return dropped
    plain = controller.plain
    cycles = controller._default_cycles(cycles)
    width = plain.state_width + plain.input_width
    seeds = {"C": seed, "C_a": seed, "C_b": seed + 1}
    dropped = 0
    for block_label, fault in universe:
        if block_label == "FEEDBACK":
            dropped += 1  # no live data on R -> T during the session
            continue
        streams = _streams(
            plain.network.inputs, _prpg_words(width, seeds[block_label], cycles)
        )
        dropped += not _excited(plain.network, streams, cycles, fault)
    return dropped


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=40),
    st.sampled_from((1, 2, 3, 7)),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_superposed_fields_equal_serial_per_fault(n_inputs, n_faults, per_pass, seed):
    """Every field :func:`superposed_fields` yields -- full passes and the
    shorter last one alike -- is that fault's own serial evaluation."""
    import random

    from repro.faults.stuck_at import all_faults
    from repro.netlist import GateKind

    rng = random.Random(seed)
    netlist = Netlist("fields")
    nets = [netlist.add_input(f"i{position}") for position in range(n_inputs)]
    for position in range(6):
        kind = rng.choice((GateKind.AND, GateKind.OR, GateKind.XOR, GateKind.NOT))
        count = 1 if kind is GateKind.NOT else rng.randint(1, 3)
        operands = [rng.choice(nets) for _ in range(count)]
        nets.append(netlist.add_gate(kind, f"g{position}", operands))
    for net in nets[-2:]:
        netlist.mark_output(net)
    netlist.freeze()
    compiled = netlist.compile()
    cycles = rng.randint(1, 12)
    mask = (1 << cycles) - 1
    streams = [rng.getrandbits(cycles) for _ in range(n_inputs)]
    reference = compiled.lane_eval_outputs(streams, mask)
    universe = all_faults(netlist)
    faults = [rng.choice(universe) for _ in range(n_faults)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "PPSFP_LANE_BITS", per_pass * cycles)
        fields = list(
            simulator.superposed_fields(compiled, streams, mask, reference, faults)
        )
    named = dict(zip(netlist.inputs, streams))
    expected = []
    for fault in faults:
        values = netlist.evaluate_interpreted(named, mask=mask, fault=fault)
        expected.append([values[net] for net in netlist.outputs])
    assert fields == expected


@st.composite
def random_controllers(draw):
    machine = random_mealy(
        draw(st.integers(min_value=1, max_value=5)),
        draw(st.integers(min_value=1, max_value=3)),
        draw(st.integers(min_value=1, max_value=3)),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )
    return build_controller(machine, draw(st.sampled_from(ARCHITECTURES)))


def _check(controller, cycles: Optional[int], seed: int) -> None:
    oracle = measure_coverage(controller, cycles=cycles, seed=seed)
    fast = measure_coverage(controller, cycles=cycles, seed=seed, dropping=True)
    assert fast == oracle
    assert fast.telemetry["dropped"] == direct_dropped(controller, cycles, seed)


def test_zero_width_session_generators():
    """A pipeline controller whose generating registers and input
    encoding are all zero bits wide applies its one empty pattern per
    clock: the campaign runs, and dropping agrees with the oracle."""
    controller = build_controller(random_mealy(3, 1, 2, seed=0), "pipeline")
    assert (controller.w1, controller.w2, controller.input_width) == (0, 0, 0)
    _check(controller, None, 1)
    _check(controller, 5, 7)


@given(
    random_controllers(),
    st.sampled_from((None, 1, 5, 24)),
    st.integers(min_value=1, max_value=50),
)
@settings(max_examples=30, deadline=None)
def test_screened_campaign_equals_oracle(controller, cycles, seed):
    _check(controller, cycles, seed)


@pytest.mark.parametrize("budget", (16, 40))
@given(random_controllers(), st.integers(min_value=1, max_value=50))
@settings(max_examples=10, deadline=None)
def test_screened_campaign_with_small_passes(budget, controller, seed):
    """16-cycle sessions under a 16- or 40-bit budget: one or two faults
    per pass, so most universes end on a shorter last group, and the
    superposed fallbacks split into groups of 15 or 39 lanes."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "PPSFP_LANE_BITS", budget)
        _check(controller, 16, seed)


@pytest.mark.parametrize("budget", (2, 16))
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=50),
)
@settings(max_examples=10, deadline=None)
def test_parallel_self_test_in_small_lane_passes(
    budget, states, inputs, outputs, machine_seed, seed
):
    """The parallel self-test's superposed replay, split by
    :func:`simulator.lane_passes` into passes of one or fifteen faulty
    lanes, grades every fault as the serial oracle does.  One-state
    machines are drawn too: their R is zero bits wide."""
    controller = build_controller(
        random_mealy(states, inputs, outputs, seed=machine_seed), "parallel"
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "PPSFP_LANE_BITS", budget)
        assert measure_coverage(
            controller, cycles=16, seed=seed, dropping=True
        ) == measure_coverage(controller, cycles=16, seed=seed)


def test_session_longer_than_half_the_budget():
    """4100 cycles > PPSFP_LANE_BITS / 2: every pass holds one fault."""
    assert 4100 * 2 > simulator.PPSFP_LANE_BITS
    controller = build_controller(random_mealy(2, 1, 2, seed=3), "conventional")
    _check(controller, 4100, 1)
