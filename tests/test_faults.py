"""Tests for the stuck-at fault model and pattern-parallel simulation."""

import pytest

from repro.exceptions import FaultError
from repro.faults import (
    all_faults,
    branch_faults,
    detects,
    equivalence_classes,
    exhaustive_patterns,
    pack_patterns,
    simulate_patterns,
    stem_faults,
)
from repro.netlist import Fault, GateKind, Netlist


def and_netlist():
    netlist = Netlist("and2")
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_gate(GateKind.AND, "y", ["a", "b"])
    netlist.mark_output("y")
    return netlist.freeze()


class TestFaultLists:
    def test_stem_fault_count(self):
        netlist = and_netlist()
        faults = stem_faults(netlist)
        assert len(faults) == 2 * 3  # nets a, b, y

    def test_branch_fault_count(self):
        netlist = and_netlist()
        faults = branch_faults(netlist)
        assert len(faults) == 2 * 2  # two pins of the AND gate

    def test_all_faults(self):
        netlist = and_netlist()
        assert len(all_faults(netlist)) == 10

    def test_collapse_drops_single_fanout_branches(self):
        netlist = and_netlist()
        class_of = equivalence_classes(netlist)
        # a and b feed exactly one pin each: each branch joins its stem.
        for pin, net in enumerate(("a", "b")):
            for value in (0, 1):
                stem = Fault(net=net, stuck_at=value)
                branch = Fault(net=net, stuck_at=value, gate_index=0, pin=pin)
                assert class_of[stem] == class_of[branch]

    def test_collapse_keeps_branch_on_primary_output_net(self):
        # Regression: t has a single fanout (the AND pin) but also drives
        # a primary output, so stem and branch verdicts can differ --
        # under a=1, b=0 the stem t/0 is seen at output t while the
        # branch is masked by b=0.  Collapsing must keep the branch apart.
        netlist = Netlist("po")
        netlist.add_input("a")
        netlist.add_input("b")
        netlist.add_gate(GateKind.BUF, "t", ["a"])
        netlist.add_gate(GateKind.AND, "y", ["t", "b"])
        netlist.mark_output("t")
        netlist.mark_output("y")
        netlist.freeze()
        stem = Fault(net="t", stuck_at=0)
        branch = Fault(net="t", stuck_at=0, gate_index=1, pin=0)
        outcome = simulate_patterns(netlist, ["10"], faults=[stem, branch])
        assert outcome.undetected == (branch,)  # the verdicts really differ
        class_of = equivalence_classes(netlist)
        assert class_of[stem] != class_of[branch]


class TestSimulation:
    def test_exhaustive_detects_all_and_faults(self):
        netlist = and_netlist()
        outcome = simulate_patterns(netlist, exhaustive_patterns(2))
        assert outcome.coverage == 1.0

    def test_single_pattern_detects_some(self):
        netlist = and_netlist()
        outcome = simulate_patterns(netlist, ["11"])
        # Pattern 11 detects y/0, a/0, b/0 (stems and branches) but no
        # stuck-at-1 faults.
        assert 0 < outcome.detected < outcome.total
        assert all(f.stuck_at == 1 for f in outcome.undetected)

    def test_detects_api(self):
        netlist = and_netlist()
        packed, mask = pack_patterns(["11", "00"], netlist.inputs)
        assert detects(netlist, Fault(net="y", stuck_at=0), packed, mask)
        assert detects(netlist, Fault(net="y", stuck_at=1), packed, mask)

    def test_undetectable_fault(self):
        # y = a OR (a AND b): the AND gate is redundant; its faults that
        # only weaken the AND term are undetectable.
        netlist = Netlist("red")
        netlist.add_input("a")
        netlist.add_input("b")
        netlist.add_gate(GateKind.AND, "t", ["a", "b"])
        netlist.add_gate(GateKind.OR, "y", ["a", "t"])
        netlist.mark_output("y")
        netlist.freeze()
        outcome = simulate_patterns(netlist, exhaustive_patterns(2))
        assert outcome.coverage < 1.0
        undetected = {f.describe() for f in outcome.undetected}
        assert any("t" in d for d in undetected)

    def test_pattern_validation(self):
        netlist = and_netlist()
        with pytest.raises(FaultError):
            pack_patterns(["1"], netlist.inputs)

    def test_exhaustive_pattern_guard(self):
        with pytest.raises(FaultError):
            exhaustive_patterns(25)

    def test_unknown_engine_rejected(self):
        netlist = and_netlist()
        with pytest.raises(FaultError, match="unknown PPSFP engine"):
            simulate_patterns(netlist, exhaustive_patterns(2), engine="compiled")
