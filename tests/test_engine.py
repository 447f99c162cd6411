"""The campaign engine must be bit-identical to the serial coverage oracle.

Three layers of equivalence:

* the GF(2) linear-compactor model against the real :class:`Misr`,
* compiled BIST sessions against the original interpreted session loops,
* full ``measure_coverage`` campaigns -- fault dropping on/off --
  compared as whole :class:`CoverageReport` objects (dataclass
  equality covers detected counts, per-block tallies and the undetected
  list order).
"""

import multiprocessing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import experiments, suite
from repro.bist.architectures import (
    build_conventional_bist,
    build_doubled,
    build_parallel_self_test,
    build_pipeline,
)
from repro.bist.misr import Misr
from repro.exceptions import FaultError
from repro.faults import engine
from repro.faults.coverage import FAULT_DETECTED, FAULT_MISSED, measure_coverage
from repro.faults.engine import (
    LinearCompactor,
    campaign_telemetry,
    run_campaign,
    stream_errors,
    transpose_words,
)
from repro.faults.simulator import CONE_CROSSOVER_BITS, PPSFP_LANE_BITS
from repro.netlist.compiled import CompiledNetlist
from repro.netlist.netlist import Netlist
from repro.ostr.search import search_ostr

_WIDTHS = (1, 4, 5, 8, 12)


@given(
    st.sampled_from(_WIDTHS),
    st.lists(st.integers(min_value=0, max_value=4095), min_size=0, max_size=24),
    st.integers(min_value=0, max_value=4095),
)
def test_linear_compactor_models_misr(width, stream, seed):
    """``absorb`` is ``L(state) xor data`` with ``L`` the compactor step."""
    space = 1 << width
    misr = Misr(width, seed=seed % space)
    compactor = LinearCompactor(width)
    for data in stream:
        expected = compactor.step(misr.state) ^ (data % space)
        assert misr.absorb(data % space) == expected


@given(
    st.sampled_from(_WIDTHS),
    st.integers(min_value=0, max_value=4095),
    st.integers(min_value=0, max_value=300),
)
def test_advance_equals_repeated_step(width, state, count):
    compactor = LinearCompactor(width)
    state %= 1 << width
    expected = state
    for _ in range(count):
        expected = compactor.step(expected)
    assert compactor.advance(state, count) == expected


@given(
    st.sampled_from(_WIDTHS),
    st.lists(st.integers(min_value=0, max_value=4095), min_size=1, max_size=32),
    st.lists(st.integers(min_value=0, max_value=4095), min_size=1, max_size=32),
    st.integers(min_value=0, max_value=4095),
)
def test_fold_errors_reproduces_signature_difference(width, good, errors, seed):
    """Folding the error stream yields exactly ``sig_faulty ^ sig_good``."""
    space = 1 << width
    cycles = len(good)
    errors = [e % space for e in errors[:cycles]] + [0] * (cycles - len(errors))
    good = [g % space for g in good]
    reference, faulty = Misr(width, seed % space), Misr(width, seed % space)
    for g, e in zip(good, errors):
        reference.absorb(g)
        faulty.absorb(g ^ e)
    sparse = [(t, e) for t, e in enumerate(errors) if e]
    compactor = LinearCompactor(width)
    assert compactor.fold_errors(sparse, cycles) == (
        faulty.signature ^ reference.signature
    )


def test_transpose_and_stream_errors():
    words = [0b101, 0b011, 0b000, 0b110]
    streams = transpose_words(words, 3)
    for j in range(3):
        for t, word in enumerate(words):
            assert (streams[j] >> t) & 1 == (word >> j) & 1
    faulty = [s ^ m for s, m in zip(streams, (0b0010, 0, 0b1000))]
    errors = stream_errors(faulty, streams)
    assert errors == [(1, 0b001), (3, 0b100)]
    assert stream_errors(streams, streams) == []


# -- campaign equivalence ----------------------------------------------------


def _controllers(name):
    machine = suite.load(name)
    pipeline = build_pipeline(search_ostr(machine).realization())
    return {
        "conventional": build_conventional_bist(machine),
        "parallel": build_parallel_self_test(machine),
        "doubled": build_doubled(machine),
        "pipeline": pipeline,
    }


@pytest.fixture(scope="module")
def dk27_controllers():
    return _controllers("dk27")


@pytest.mark.parametrize(
    "label", ("conventional", "parallel", "doubled", "pipeline")
)
def test_compiled_sessions_match_interpreted(dk27_controllers, label):
    """Per-fault signatures: compiled session loops == seed interpreted loops."""
    controller = dk27_controllers[label]
    universe = controller.fault_universe()
    probes = [None] + universe[:: max(1, len(universe) // 12)]
    for fault in probes:
        compiled = controller.self_test_signatures(fault=fault, cycles=64)
        interpreted = controller.self_test_signatures(
            fault=fault, cycles=64, engine="interpreted"
        )
        assert compiled == interpreted


@pytest.mark.parametrize(
    "label", ("conventional", "parallel", "doubled", "pipeline")
)
def test_dropping_campaign_is_bit_identical(dk27_controllers, label):
    controller = dk27_controllers[label]
    oracle = measure_coverage(controller)
    dropped = measure_coverage(controller, dropping=True)
    assert dropped == oracle


def test_dropping_campaign_matches_interpreted_oracle(dk27_controllers):
    """End-to-end: engine report == the original fully-interpreted loop."""
    controller = dk27_controllers["conventional"]
    oracle = measure_coverage(controller, engine="interpreted")
    assert measure_coverage(controller, dropping=True) == oracle


def test_oracle_after_collapsed_campaign_reports_no_stale_telemetry(
    dk27_controllers,
):
    """Telemetry rides on the report: the serial oracle carries none, and
    the last-report slice follows the oracle, not the campaign before it."""
    controller = dk27_controllers["pipeline"]
    universe = len(controller.fault_universe())
    collapsed = measure_coverage(controller, collapse="equiv", dropping=True)
    assert collapsed.telemetry["collapse"]["scheduled"] < universe
    oracle = measure_coverage(controller)
    assert oracle == collapsed  # telemetry is not part of equality
    assert oracle.telemetry == {}
    assert campaign_telemetry()["collapse"] is None


def test_session_options_flow_through_engine(dk27_controllers):
    controller = dk27_controllers["pipeline"]
    oracle = measure_coverage(controller, lambda_session=False)
    fast = measure_coverage(controller, dropping=True, lambda_session=False)
    assert fast == oracle
    # the lambda-session signature must matter: reports differ in general
    assert oracle.total == measure_coverage(controller).total


def test_explicit_cycles_flow_through_engine(dk27_controllers):
    controller = dk27_controllers["doubled"]
    oracle = measure_coverage(controller, cycles=96, seed=5)
    assert measure_coverage(controller, cycles=96, seed=5, dropping=True) == oracle


def test_bbtas_all_architectures_dropping_identical():
    for label, controller in _controllers("bbtas").items():
        oracle = measure_coverage(controller)
        assert measure_coverage(controller, dropping=True) == oracle, label


@pytest.mark.parametrize(
    "label", ("conventional", "parallel", "doubled", "pipeline")
)
def test_dropping_campaign_skips_the_fault_free_self_test(
    dk27_controllers, label, monkeypatch
):
    """A dropping campaign grades faults against its screening bundle
    only; the complete fault-free self-test is never run."""
    controller = dk27_controllers[label]
    oracle = measure_coverage(controller)
    fault_free_runs = []
    original = type(controller).self_test_signatures

    def counting(self, fault=None, *args, **kwargs):
        if fault is None:
            fault_free_runs.append(kwargs)
        return original(self, fault, *args, **kwargs)

    monkeypatch.setattr(type(controller), "self_test_signatures", counting)
    assert run_campaign(controller, dropping=True) == oracle
    assert fault_free_runs == []


@pytest.mark.parametrize("label", ("conventional", "pipeline"))
def test_dropping_campaign_honours_the_interpreted_engine(
    dk27_controllers, label, monkeypatch
):
    """``engine="interpreted"`` grades every fault on the interpreted
    netlists even when dropping is asked for; the compiled screening
    bundle must not take the campaign over."""
    controller = dk27_controllers[label]
    oracle = measure_coverage(controller, engine="interpreted")
    calls = []
    original = Netlist.evaluate_interpreted

    def counting(self, *args, **kwargs):
        calls.append(None)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Netlist, "evaluate_interpreted", counting)
    report = measure_coverage(controller, dropping=True, engine="interpreted")
    assert len(calls) > 0
    assert report == oracle


@pytest.mark.parametrize("workers", (0, 2))
def test_unknown_session_option_fails_fast(dk27_controllers, monkeypatch, workers):
    """A misspelt session option raises TypeError in the caller, before
    any fault is simulated.  ``workers=0`` passes only the misspelt
    option; ``workers=2`` adds the removed ``workers`` knob as well."""
    option = {"bogus": 1} if workers == 0 else {"workers": workers, "bogus": 1}
    _assert_fails_before_simulating(dk27_controllers, monkeypatch, option)


@pytest.mark.parametrize(
    "option",
    (
        {"workers": 2},
        {"pool": object()},
        {"timeout": 1},
        {"degrade": True},
        {"checkpoint": "x"},
    ),
    ids=("workers", "pool", "timeout", "degrade", "checkpoint"),
)
def test_removed_campaign_knob_fails_fast(dk27_controllers, monkeypatch, option):
    """A removed campaign knob reaches session-option binding as an
    unknown option and raises TypeError before any fault is simulated,
    also when it comes through ``experiments.run_coverage``."""
    _assert_fails_before_simulating(dk27_controllers, monkeypatch, option)
    with pytest.raises(TypeError):
        experiments.run_coverage(suite.load("dk27"), **option)


@pytest.mark.parametrize("dropping", (False, True))
@pytest.mark.parametrize("label", ("conventional", "parallel", "doubled", "pipeline"))
def test_unknown_engine_fails_fast(dk27_controllers, monkeypatch, label, dropping):
    """A misspelt ``engine`` raises a ReproError before any session runs,
    on the serial oracle and on the dropping path alike (the dropping
    path never reads the option otherwise)."""
    import repro.bist.architectures as architectures

    def simulated(*_args, **_kwargs):
        raise AssertionError("a session was run")

    monkeypatch.setattr(engine, "_resolve", simulated)
    monkeypatch.setattr(architectures, "_block_evaluator", simulated)
    with pytest.raises(FaultError, match="interpretd"):
        measure_coverage(
            dk27_controllers[label], dropping=dropping, engine="interpretd"
        )


def _assert_fails_before_simulating(dk27_controllers, monkeypatch, option):
    controller = dk27_controllers["pipeline"]

    def simulated(*_args, **_kwargs):
        raise AssertionError("a fault was simulated")

    monkeypatch.setattr(engine, "_resolve", simulated)
    with pytest.raises(TypeError):
        measure_coverage(controller, dropping=True, **option)
    assert multiprocessing.active_children() == []


# -- the pipeline's C1/C2 fallback replay --------------------------------------


@pytest.fixture(scope="module")
def train_fs_pipeline():
    """A pipeline whose C1 and C2 replays both alias (FAULT_MISSED)."""
    (member,) = [
        member
        for member in suite.corpus.members(family_filter=["mcnc"])
        if member.name == "train_fs"
    ]
    return build_pipeline(search_ostr(member.build()).realization())


def _state_block_faults(controller):
    return [pair for pair in controller.fault_universe() if pair[0] != "LAMBDA"]


def test_replay_with_aliasing_matches_serial_oracle(train_fs_pipeline):
    """The replay grades survivors from their screened response streams;
    aliasing in it (excited, but the signature difference compacts to
    zero) must still equal the serial oracle's verdicts, field for field."""
    controller = train_fs_pipeline
    block_faults = _state_block_faults(controller)
    codes = controller.campaign_detects_batch(
        controller.campaign_reference(), block_faults
    )
    aliased = {block for (block, _), code in zip(block_faults, codes) if code == FAULT_MISSED}
    assert aliased == {"C1", "C2"}
    assert run_campaign(controller, dropping=True) == run_campaign(
        controller, dropping=False
    )


#: the C1/C2 kernel entry points the replay guard counts
_COUNTED = ("lane_overrides", "lane_eval_outputs", "lane_eval")


@pytest.mark.parametrize("cycles", (None, 2 * CONE_CROSSOVER_BITS))
def test_replay_never_evaluates_the_faulty_block(
    train_fs_pipeline, monkeypatch, cycles
):
    """During a batch, C1/C2 are evaluated and get ``lane_overrides`` only
    in the screen -- once per field-packed pass, or one fault-free
    evaluation and no overrides on the cone path -- never per replay
    cycle."""
    controller = train_fs_pipeline
    bundle = controller.campaign_reference(cycles=cycles)
    blocks = {id(controller.c1.compile()): "C1", id(controller.c2.compile()): "C2"}
    calls = {(block, method): 0 for block in ("C1", "C2") for method in _COUNTED}
    for method in _COUNTED:

        def counting(self, *args, _method=method, _original=getattr(CompiledNetlist, method)):
            if id(self) in blocks:
                calls[blocks[id(self)], _method] += 1
            return _original(self, *args)

        monkeypatch.setattr(CompiledNetlist, method, counting)
    block_faults = _state_block_faults(controller)
    codes = controller.campaign_detects_batch(bundle, block_faults)
    assert FAULT_MISSED in codes or FAULT_DETECTED in codes  # a replay ran
    for block, session in (("C1", "A"), ("C2", "B")):
        n_faults = sum(1 for label, _ in block_faults if label == block)
        n_bits = bundle["sessions"][session]["cycles"]
        if n_bits > CONE_CROSSOVER_BITS:
            expected = {"lane_overrides": 0, "lane_eval_outputs": 0, "lane_eval": 1}
        else:
            passes = -(-n_faults // max(1, PPSFP_LANE_BITS // n_bits))
            expected = {"lane_overrides": passes, "lane_eval_outputs": passes, "lane_eval": 0}
        assert {method: calls[block, method] for method in _COUNTED} == expected, block

