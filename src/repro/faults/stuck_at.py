"""Single-stuck-at fault universe for gate-level netlists.

The fault list is the classic uncollapsed single-stuck-at model:

* a stem fault (stuck-at-0 / stuck-at-1) on every net -- primary inputs
  and every gate output, and
* a branch fault on every gate input pin, which is what makes fanout
  branches independently testable.

This raw universe is what the paper's coverage tables are defined over.
Structural collapsing lives in :mod:`repro.faults.collapse`: *equivalence*
collapsing is verdict-preserving -- campaigns schedule one representative
per class and expand the verdicts back, so reports stay field-for-field
identical to the uncollapsed oracle -- while *dominance* collapsing
changes the reported universe and is therefore opt-in.
"""

from __future__ import annotations

from typing import List

from ..netlist.netlist import Fault, Netlist


def stem_faults(netlist: Netlist) -> List[Fault]:
    """Stuck-at-0/1 on every net of the netlist."""
    faults = []
    for net in netlist.nets():
        faults.append(Fault(net=net, stuck_at=0))
        faults.append(Fault(net=net, stuck_at=1))
    return faults


def branch_faults(netlist: Netlist) -> List[Fault]:
    """Stuck-at-0/1 on every gate input pin."""
    faults = []
    for index, gate in enumerate(netlist.gates):
        for pin, net in enumerate(gate.inputs):
            faults.append(Fault(net=net, stuck_at=0, gate_index=index, pin=pin))
            faults.append(Fault(net=net, stuck_at=1, gate_index=index, pin=pin))
    return faults


def all_faults(netlist: Netlist) -> List[Fault]:
    """The full uncollapsed single-stuck-at universe."""
    return stem_faults(netlist) + branch_faults(netlist)

