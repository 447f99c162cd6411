"""Structural fault collapsing: soundness properties and the PO bugfix.

The load-bearing claims of :mod:`repro.faults.collapse`:

* equivalence classes **partition** the canonical fault universe,
* every member of a class receives the **identical detect flag** on any
  pattern set (the property the old ``collapse_trivial`` violated on
  primary-output nets -- hypothesis hammers exactly that corner because
  the netlists here mark arbitrary net subsets as outputs),
* collapsed ``simulate_patterns`` / ``measure_coverage`` are
  field-for-field identical to the uncollapsed runs,
* dominance only ever shrinks the kept universe and is never expanded.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.exceptions import FaultError, ReproError
from repro.faults import all_faults, collapse_trivial
from repro.faults.collapse import (
    COLLAPSE_MODES,
    FaultMap,
    dominated_classes,
    equivalence_classes,
)
from repro.faults.coverage import measure_coverage
from repro.faults.simulator import simulate_patterns
from repro.netlist import Fault, GateKind, Netlist

_KINDS = (GateKind.AND, GateKind.OR, GateKind.XOR, GateKind.NOT, GateKind.BUF)


@st.composite
def random_netlists(draw, max_inputs=4, max_gates=8):
    """Random frozen netlists whose outputs are an arbitrary net subset.

    Unlike the suffix-marking strategy of ``test_prop_netlist``, any net
    (including primary inputs and internal single-fanout nets) may be an
    output -- that is the corner where stem/branch equivalence breaks.
    """
    n_inputs = draw(st.integers(min_value=1, max_value=max_inputs))
    n_gates = draw(st.integers(min_value=1, max_value=max_gates))
    netlist = Netlist("hyp-collapse")
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
    marked = draw(
        st.lists(
            st.integers(0, len(nets) - 1), min_size=1, max_size=4, unique=True
        )
    )
    for position in sorted(marked):
        netlist.mark_output(nets[position])
    return netlist.freeze()


@st.composite
def netlist_with_patterns(draw):
    netlist = draw(random_netlists())
    n_patterns = draw(st.integers(min_value=1, max_value=8))
    patterns = [
        "".join(str(draw(st.integers(0, 1))) for _ in netlist.inputs)
        for _ in range(n_patterns)
    ]
    return netlist, patterns


# -- equivalence-class properties --------------------------------------------


@given(random_netlists())
def test_classes_partition_the_universe(netlist):
    """Every canonical fault has exactly one dense class id."""
    class_of = equivalence_classes(netlist)
    universe = all_faults(netlist)
    assert set(class_of) == set(universe)
    ids = sorted(set(class_of.values()))
    assert ids == list(range(len(ids)))  # dense, 0-based


@given(netlist_with_patterns())
@settings(max_examples=200)
def test_class_members_share_detect_flags(data):
    """Equivalent faults are indistinguishable on any pattern set."""
    netlist, patterns = data
    class_of = equivalence_classes(netlist)
    outcome = simulate_patterns(netlist, patterns, engine="interpreted")
    undetected = set(outcome.undetected)
    by_class = {}
    for fault in all_faults(netlist):
        by_class.setdefault(class_of[fault], set()).add(fault not in undetected)
    for class_id, flags in by_class.items():
        assert len(flags) == 1, (
            f"class {class_id} mixes detected and undetected members on "
            f"patterns {patterns}"
        )


@given(netlist_with_patterns())
def test_collapsed_ppsfp_identical(data):
    """Equiv-collapsed simulate_patterns == uncollapsed, field for field."""
    netlist, patterns = data
    baseline = simulate_patterns(netlist, patterns, engine="interpreted")
    for engine in ("interpreted", "superposed"):
        collapsed = simulate_patterns(
            netlist, patterns, engine=engine, collapse="equiv"
        )
        assert collapsed == baseline


@given(random_netlists())
def test_dominance_only_shrinks(netlist):
    """Kept dominance universe is a subset of the equivalence reps."""
    equiv = FaultMap.for_netlist(netlist, mode="equiv")
    dom = FaultMap.for_netlist(netlist, mode="dominance")
    assert dom.scheduled <= equiv.scheduled <= len(equiv.universe)
    assert set(dom.representatives) <= set(equiv.representatives)
    assert dominated_classes(netlist) is dominated_classes(netlist)  # cached


@given(random_netlists())
def test_fault_map_consistency(netlist):
    """Representatives are a universe subsequence; expansion follows classes."""
    fault_map = FaultMap.for_netlist(netlist, mode="equiv")
    # representatives appear in universe order
    positions = [fault_map.universe.index(rep) for rep in fault_map.representatives]
    assert positions == sorted(positions)
    codes = list(range(fault_map.scheduled))
    expanded = fault_map.expand(codes)
    assert len(expanded) == len(fault_map.universe)
    class_of = equivalence_classes(netlist)
    for member, code in zip(fault_map.universe, expanded):
        # member and its representative share a class id
        assert class_of[member] == class_of[fault_map.representatives[code]]


# -- the primary-output observability bugfix ---------------------------------


def po_branch_netlist() -> Netlist:
    """``t = BUF(a)`` drives both the AND gate (single fanout) *and* a
    primary output -- the exact shape the old ``collapse_trivial``
    mis-collapsed."""
    netlist = Netlist("po_branch")
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_gate(GateKind.BUF, "t", ["a"])
    netlist.add_gate(GateKind.AND, "y", ["t", "b"])
    netlist.mark_output("t")
    netlist.mark_output("y")
    return netlist.freeze()


def test_po_stem_and_branch_verdicts_differ():
    """Regression: stem t/0 is detected where the lone branch is not."""
    netlist = po_branch_netlist()
    stem = Fault(net="t", stuck_at=0)
    branch = Fault(net="t", stuck_at=0, gate_index=1, pin=0)
    # Pattern a=1, b=0: stem flips output t, the branch is masked by b=0.
    outcome = simulate_patterns(netlist, ["10"], faults=[stem, branch])
    assert outcome.undetected == (branch,)


def test_collapse_trivial_keeps_branches_on_output_nets():
    """The bugfix: a net in ``netlist.outputs`` never collapses its branch."""
    netlist = po_branch_netlist()
    kept = collapse_trivial(netlist, all_faults(netlist))
    branches = [fault for fault in kept if not fault.is_stem]
    assert any(
        fault.net == "t" and fault.gate_index == 1 for fault in branches
    ), "branch on the primary-output net t was collapsed into its stem"
    # ... while plain single-fanout nets still collapse (a feeds only BUF).
    assert not any(fault.net == "a" for fault in branches)


def test_equivalence_respects_output_observability():
    """The class layer agrees: stem t and its branch are separate classes."""
    netlist = po_branch_netlist()
    class_of = equivalence_classes(netlist)
    stem = Fault(net="t", stuck_at=0)
    branch = Fault(net="t", stuck_at=0, gate_index=1, pin=0)
    assert class_of[stem] != class_of[branch]
    # a is single-fanout and NOT an output: its stem/branch do merge.
    assert (
        class_of[Fault(net="a", stuck_at=0)]
        == class_of[Fault(net="a", stuck_at=0, gate_index=0, pin=0)]
    )


# -- campaign-level behaviour -------------------------------------------------


def test_collapsed_campaign_identical_and_feedback_singletons(shiftreg):
    """Equiv-collapsed campaigns match the oracle; pseudo-nets never merge."""
    from repro.bist.architectures import build_conventional_bist

    controller = build_conventional_bist(shiftreg)
    baseline = measure_coverage(controller, cycles=32, seed=5)
    collapsed = measure_coverage(
        controller, cycles=32, seed=5, dropping=True, collapse="equiv"
    )
    assert collapsed == baseline
    fault_map = FaultMap.for_controller(controller)
    feedback_reps = [
        item for item in fault_map.representatives if item[0] == "FEEDBACK"
    ]
    assert len(feedback_reps) == len(controller.feedback_faults())


def test_dominance_campaign_reports_kept_universe(shiftreg):
    from repro.bist.architectures import build_conventional_bist

    controller = build_conventional_bist(shiftreg)
    fault_map = FaultMap.for_controller(controller, mode="dominance")
    report = measure_coverage(
        controller, cycles=32, seed=5, dropping=True, collapse="dominance"
    )
    assert report.total == fault_map.scheduled
    assert report.total < len(fault_map.universe)


def test_dominance_expand_refused():
    netlist = po_branch_netlist()
    fault_map = FaultMap.for_netlist(netlist, mode="dominance")
    with pytest.raises(FaultError):
        fault_map.expand([1] * fault_map.scheduled)


def test_invalid_modes_rejected():
    netlist = po_branch_netlist()
    assert COLLAPSE_MODES == ("none", "equiv", "dominance")
    with pytest.raises(FaultError):
        FaultMap.for_netlist(netlist, mode="bogus")
    with pytest.raises(FaultError):
        simulate_patterns(netlist, ["10"], collapse="bogus")
    with pytest.raises(ReproError):  # engine validates before the universe
        measure_coverage(object(), collapse="bogus")


def test_expand_length_checked():
    netlist = po_branch_netlist()
    fault_map = FaultMap.for_netlist(netlist, mode="equiv")
    with pytest.raises(FaultError):
        fault_map.expand([])
    assert "FaultMap(mode='equiv'" in repr(fault_map)


def test_controller_without_fault_blocks_collapses_nothing():
    """A subject outside the block protocol degrades to singleton classes."""

    class Opaque:
        def fault_universe(self):
            return [("B", Fault(net="n0", stuck_at=v)) for v in (0, 1)]

    fault_map = FaultMap.for_controller(Opaque())
    assert fault_map.scheduled == 2
    assert fault_map.reduction == 0.0
    assert fault_map.expand([0, 1]) == [0, 1]


def test_custom_probe_faults_stay_singletons():
    """Faults outside the canonical universe key on their own value."""
    netlist = po_branch_netlist()
    probe = Fault(net="t", stuck_at=0, gate_index=1, pin=1)  # not canonical
    fault_map = FaultMap.for_netlist(netlist, faults=[probe, probe], mode="equiv")
    assert fault_map.scheduled == 1  # equal probes still share one class


# -- integer tables: faulty functions, parent-identical maps, probes ----------


@given(random_netlists())
@settings(max_examples=150)
def test_class_members_compute_one_faulty_function(netlist):
    """Every member of a class computes the same faulty output function
    over all input patterns (interpreted evaluator, exhaustive)."""
    n_inputs = len(netlist.inputs)
    n_patterns = 1 << n_inputs
    packed = {
        name: sum(
            1 << pattern for pattern in range(n_patterns) if (pattern >> position) & 1
        )
        for position, name in enumerate(netlist.inputs)
    }
    mask = (1 << n_patterns) - 1
    functions = {}
    for fault, class_id in equivalence_classes(netlist).items():
        values = netlist.evaluate_interpreted(packed, mask=mask, fault=fault)
        function = tuple(values[net] for net in netlist.outputs)
        assert functions.setdefault(class_id, function) == function, fault


def _collapse_digest(controller) -> str:
    """Digest of the equivalence map (representatives, stats, expansion)
    and of the dominance map (kept representatives, stats)."""
    import hashlib
    import json

    payload = []
    for mode in ("equiv", "dominance"):
        fault_map = FaultMap.for_controller(controller, mode=mode)
        payload.append(
            [[block, fault.describe()] for block, fault in fault_map.representatives]
        )
        payload.append(fault_map.stats())
        if mode == "equiv":
            payload.append(fault_map.rep_index)
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


#: ``_collapse_digest`` and the equivalence-scheduled count of every
#: Table-1 machine's pipeline and doubled controllers, recorded with the
#: ``Fault``-keyed union-find these integer tables replaced.
TABLE1_COLLAPSE = {
    "bbara/pipeline": ("1ea46b6c1fd6ad06", 297),
    "bbara/doubled": ("a4927597a65c3952", 414),
    "bbtas/pipeline": ("368ec296c59b137e", 311),
    "bbtas/doubled": ("04a20f8a3d71c83c", 264),
    "dk14/pipeline": ("069e54b885b7b578", 758),
    "dk14/doubled": ("910139b4f60f8069", 726),
    "dk15/pipeline": ("1acfc16a3190f376", 347),
    "dk15/doubled": ("458bc33ffef97a86", 352),
    "dk16/pipeline": ("7fd6af25199d4100", 1359),
    "dk16/doubled": ("f3f4a23f129f5965", 1402),
    "dk17/pipeline": ("de57f718331286fc", 446),
    "dk17/doubled": ("d04e711f26dc493c", 416),
    "dk27/pipeline": ("5b76cc161ee19047", 189),
    "dk27/doubled": ("26af132311498a17", 186),
    "dk512/pipeline": ("caf776507aeba2eb", 505),
    "dk512/doubled": ("aa828159286622a9", 386),
    "mc/pipeline": ("b2ced4129efbb51c", 354),
    "mc/doubled": ("6fc4bcc15bb9b0f5", 384),
    "s1/pipeline": ("7d8c63049a5feba3", 3254),
    "s1/doubled": ("60197e85f4196523", 3080),
    "shiftreg/pipeline": ("20b1f5cd5463860a", 18),
    "shiftreg/doubled": ("4178fe9485773679", 16),
    "tav/pipeline": ("4a3223b0cad92e87", 70),
    "tav/doubled": ("d6fd8f172b95e078", 136),
    "tbk/pipeline": ("7b8be719eef30f53", 1235),
    "tbk/doubled": ("4c3f72c65065d30d", 1428),
}


def test_table1_collapse_maps_unchanged():
    """Representatives, ``stats()``, expansion and the dominance drops of
    every Table-1 controller match the recorded maps."""
    from repro import suite
    from repro.ostr.search import search_ostr
    from repro.pipeline import build_controller

    seen = {}
    for name in suite.names():
        machine = suite.load(name)
        result = search_ostr(machine, **suite.entry(name).search_kwargs)
        for architecture in ("pipeline", "doubled"):
            controller = build_controller(machine, architecture, result)
            seen[f"{name}/{architecture}"] = (
                _collapse_digest(controller),
                FaultMap.for_controller(controller).scheduled,
            )
    assert seen == TABLE1_COLLAPSE


def test_controller_probe_faults_key_on_block_and_value(shiftreg):
    """A non-canonical probe in an explicit controller list is its own
    class, keyed by (block, "x", fault): equal probes in one block share
    it, the same probe in the other block does not, and no probe merges
    with a canonical fault."""
    from repro.bist.architectures import build_doubled

    controller = build_doubled(shiftreg)
    network = controller.plain.network
    gate = network.gates[0]
    probe = Fault(net=gate.inputs[0], stuck_at=0, gate_index=0, pin=len(gate.inputs))
    canonical = controller.fault_universe()[0]
    faults = [("C_a", probe), canonical, ("C_a", probe), ("C_b", probe)]
    fault_map = FaultMap.for_controller(controller, faults=faults, mode="equiv")
    assert fault_map.representatives == [("C_a", probe), canonical, ("C_b", probe)]
    assert fault_map.rep_index == [0, 1, 0, 2]
    assert fault_map.n_classes == 3
    # A branch fault naming the wrong net for its pin is a probe too, not
    # the canonical branch fault at that position.
    branch = Fault(net=gate.inputs[0], stuck_at=0, gate_index=0, pin=0)
    wrong_net = Fault(
        net=next(net for net in network.nets() if net != gate.inputs[0]),
        stuck_at=0,
        gate_index=0,
        pin=0,
    )
    fault_map = FaultMap.for_controller(
        controller, faults=[("C_a", branch), ("C_a", wrong_net)], mode="equiv"
    )
    assert fault_map.scheduled == 2
