"""SCOAP testability analysis (combinational controllability/observability).

Goldstein's SCOAP measures estimate, per net,

* ``CC0``/``CC1`` -- how many primitive assignments are needed to drive
  the net to 0/1 (controllability; primary inputs cost 1),
* ``CO``        -- how many assignments are needed to propagate the net's
  value to a primary output (observability; outputs cost 0),

and, per stuck-at fault, the classic difficulty score
``CC(opposite value) + CO``.  The measures are heuristic (they ignore
reconvergent fanout) but they are the standard quick ranking of hard
faults, and the tests cross-check them against actual fault simulation:
infinite-score faults must be undetectable.

Constants use ``CC0 = 0`` for a constant-0 net and ``CC1 = INF`` (and
dually), with ``INF`` propagated through sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..exceptions import NetlistError
from ..netlist.netlist import Fault, GateKind, Netlist

INF = float("inf")


@dataclass(frozen=True)
class ScoapReport:
    """SCOAP measures for every net of a combinational netlist.

    ``branch_co`` maps each gate input pin ``(gate_index, pin)`` to its
    observability *through that pin's consuming gate* -- the cost of
    sensitizing the gate plus the stem's remaining path out.  The stem's
    ``co`` is the minimum of its branches (or 0 at a primary output), so
    ``branch_co[(g, p)] >= co[stem]`` always holds.
    """

    netlist_name: str
    cc0: Dict[str, float]
    cc1: Dict[str, float]
    co: Dict[str, float]
    branch_co: Dict[Tuple[int, int], float]

    def fault_score(self, fault: Fault) -> float:
        """Detection-difficulty estimate of a stuck-at fault.

        Detecting stuck-at-v requires controlling the net to ``not v``
        and observing it: ``CC(not v) + CO``.  Branch faults must be
        observed through their own consuming gate, so they use the
        per-branch observability rather than the stem's (which is the
        cheapest branch and underestimates every other one).
        """
        controllability = self.cc1 if fault.stuck_at == 0 else self.cc0
        if fault.is_stem:
            observability = self.co[fault.net]
        else:
            observability = self.branch_co.get(
                (fault.gate_index, fault.pin), self.co[fault.net]
            )
        return controllability[fault.net] + observability

    def hardest_faults(self, faults: List[Fault], count: int = 5) -> List[Tuple[Fault, float]]:
        scored = [(fault, self.fault_score(fault)) for fault in faults]
        scored.sort(key=lambda pair: (-pair[1], pair[0].net, pair[0].stuck_at))
        return scored[:count]


def _xor_controllability(
    operands_cc0: List[float], operands_cc1: List[float]
) -> Tuple[float, float]:
    """Cheapest even/odd-parity assignment over the XOR inputs (DP)."""
    even, odd = 0.0, INF
    for cc0, cc1 in zip(operands_cc0, operands_cc1):
        even, odd = min(even + cc0, odd + cc1), min(even + cc1, odd + cc0)
    return even, odd


def analyze(netlist: Netlist) -> ScoapReport:
    """Compute CC0/CC1/CO for every net."""
    cc0: Dict[str, float] = {}
    cc1: Dict[str, float] = {}
    for net in netlist.inputs:
        cc0[net] = 1.0
        cc1[net] = 1.0

    for gate in netlist.gates:
        in0 = [cc0[n] for n in gate.inputs]
        in1 = [cc1[n] for n in gate.inputs]
        if gate.kind is GateKind.AND:
            cc1[gate.output] = sum(in1) + 1
            cc0[gate.output] = min(in0) + 1
        elif gate.kind is GateKind.OR:
            cc0[gate.output] = sum(in0) + 1
            cc1[gate.output] = min(in1) + 1
        elif gate.kind is GateKind.NOT:
            cc0[gate.output] = in1[0] + 1
            cc1[gate.output] = in0[0] + 1
        elif gate.kind is GateKind.BUF:
            cc0[gate.output] = in0[0] + 1
            cc1[gate.output] = in1[0] + 1
        elif gate.kind is GateKind.XOR:
            even, odd = _xor_controllability(in0, in1)
            cc0[gate.output] = even + 1
            cc1[gate.output] = odd + 1
        elif gate.kind is GateKind.CONST0:
            cc0[gate.output] = 0.0
            cc1[gate.output] = INF
        elif gate.kind is GateKind.CONST1:
            cc0[gate.output] = INF
            cc1[gate.output] = 0.0
        else:  # pragma: no cover
            raise NetlistError(f"unsupported gate kind {gate.kind}")

    co: Dict[str, float] = {net: INF for net in netlist.nets()}
    for net in netlist.outputs:
        co[net] = 0.0
    # One reverse sweep suffices: gates are stored in topological order, so
    # visiting them backwards propagates observability from outputs to
    # inputs along every path -- and every consumer of a gate's output is
    # downstream, so ``co[gate.output]`` is final when the gate is visited.
    # The per-pin ``through`` value is exactly the branch observability:
    # recording it per ``(gate_index, pin)`` is what lets ``fault_score``
    # rank branch faults without the historical stem-CO underestimate.
    branch_co: Dict[Tuple[int, int], float] = {}
    for index in range(len(netlist.gates) - 1, -1, -1):
        gate = netlist.gates[index]
        gate_co = co[gate.output]
        for position, net in enumerate(gate.inputs):
            if gate_co == INF:
                branch_co[(index, position)] = INF
                continue
            others = [n for k, n in enumerate(gate.inputs) if k != position]
            if gate.kind is GateKind.AND:
                through = gate_co + sum(cc1[n] for n in others) + 1
            elif gate.kind is GateKind.OR:
                through = gate_co + sum(cc0[n] for n in others) + 1
            elif gate.kind in (GateKind.NOT, GateKind.BUF):
                through = gate_co + 1
            else:  # XOR: sensitize siblings to either value, cheapest
                through = gate_co + sum(
                    min(cc0[n], cc1[n]) for n in others
                ) + 1
            branch_co[(index, position)] = through
            if through < co[net]:
                co[net] = through
    return ScoapReport(
        netlist_name=netlist.name, cc0=cc0, cc1=cc1, co=co, branch_co=branch_co
    )
