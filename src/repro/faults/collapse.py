"""Structural single-stuck-at fault collapsing (equivalence + dominance).

The uncollapsed universe of :func:`repro.faults.stuck_at.all_faults` is the
model the paper's coverage tables are defined over, but most of its faults
are *indistinguishable*: no input vector -- and therefore no self-test
session and no pattern set -- can tell them apart at an observation point.
Classic structural collapsing exploits the gate-local part of that
relation to shrink the universe a campaign has to schedule:

Equivalence (``mode="equiv"``)
    Two faults are equivalent when the faulty netlists compute the same
    function on every marked output, hence receive the *same verdict* from
    every campaign (session signatures and PPSFP flags alike).  The rules
    unioned here are the textbook gate-local ones:

    * AND: any input-pin branch s-a-0 == output stem s-a-0 (a controlling
      0 forces the output); dually OR: branch s-a-1 == output s-a-1;
    * NOT: branch s-a-v == output s-a-(1-v); BUF and single-input
      AND/OR/XOR: branch s-a-v == output s-a-v;
    * fanout-free stem == branch: a net read by exactly one gate pin pins
      to the same faulty function whether the stem or the branch is stuck
      -- **unless the net is also a primary output**, where the stem is
      directly observable but the branch is not (the historical
      ``collapse_trivial`` bug this module replaces).

    Classes are closed under union-find, one canonical representative per
    class (the first member in the canonical fault order).  Equivalence
    collapsing is *verdict-preserving*: run the campaign over the
    representatives, expand each verdict to the whole class, and the
    report is field-for-field identical to the uncollapsed oracle.

Dominance (``mode="dominance"``, opt-in)
    Fault ``f`` dominates ``g`` when every test for ``g`` also detects
    ``f``; the dominating fault can then be dropped from a *test
    generation* universe.  Gate-locally: AND output s-a-1 is dominated by
    each input branch s-a-1 (dually OR output s-a-0), so those stem
    classes are dropped when a distinct keeper class exists.  Unlike
    equivalence this **changes the reported universe** -- an undetected
    keeper says nothing about its dropped dominator, and per-vector
    dominance does not commute with MISR aliasing -- so dominance reports
    cover the kept representatives only and are never expanded.

:class:`FaultMap` packages both modes for the campaign engines: build it
from a controller (block-tagged universe) or a netlist, schedule
``representatives`` instead of the full universe, and -- for equivalence
-- ``expand()`` the per-representative outcome codes back.  The class
tables are cached per netlist object (weakly), so repeated campaigns and
long-lived pool workers pay the union-find once per subject.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..exceptions import FaultError
from ..netlist.netlist import Fault, GateKind, Netlist
from .stuck_at import all_faults

__all__ = [
    "COLLAPSE_MODES",
    "FaultMap",
    "equivalence_classes",
    "dominated_classes",
]

#: accepted values of every ``collapse=`` knob; "none" schedules the raw
#: universe, "equiv" is verdict-preserving, "dominance" shrinks further
#: but changes the reported universe.
COLLAPSE_MODES = ("none", "equiv", "dominance")

#: netlist -> (class_of, dominated class ids); weak so netlists keep their
#: normal lifetime.  Workers of a persistent pool hit this cache through
#: their cached subjects, which is what keeps repeat collapsed jobs cheap.
_TABLE_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _build_classes(netlist: Netlist) -> Dict[Fault, int]:
    """Union-find over the canonical fault universe of one netlist."""
    faults = all_faults(netlist)
    index_of = {fault: index for index, fault in enumerate(faults)}
    parent = list(range(len(faults)))

    def find(node: int) -> int:
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:  # path compression
            parent[node], node = root, parent[node]
        return root

    def union(a: Fault, b: Fault) -> None:
        root_a, root_b = find(index_of[a]), find(index_of[b])
        if root_a != root_b:
            parent[root_b] = root_a

    outputs = set(netlist.outputs)
    fanout: Dict[str, int] = {}
    for gate in netlist.gates:
        for net in gate.inputs:
            fanout[net] = fanout.get(net, 0) + 1

    for index, gate in enumerate(netlist.gates):
        def branch(pin: int, value: int) -> Fault:
            return Fault(
                net=gate.inputs[pin], stuck_at=value, gate_index=index, pin=pin
            )

        for pin, net in enumerate(gate.inputs):
            # Fanout-free stem == branch -- but a net that is also a
            # primary output is observed there directly, so its stem is
            # strictly more visible than the lone branch: never merged.
            if fanout[net] == 1 and net not in outputs:
                union(Fault(net=net, stuck_at=0), branch(pin, 0))
                union(Fault(net=net, stuck_at=1), branch(pin, 1))
        if not gate.inputs:
            continue  # CONST0/CONST1
        out0 = Fault(net=gate.output, stuck_at=0)
        out1 = Fault(net=gate.output, stuck_at=1)
        if len(gate.inputs) == 1:
            # Single-input AND/OR/XOR/BUF compute identity, NOT inverts;
            # either way the lone branch fixes the output completely.
            if gate.kind is GateKind.NOT:
                union(out1, branch(0, 0))
                union(out0, branch(0, 1))
            else:
                union(out0, branch(0, 0))
                union(out1, branch(0, 1))
        elif gate.kind is GateKind.AND:
            for pin in range(len(gate.inputs)):
                union(out0, branch(pin, 0))
        elif gate.kind is GateKind.OR:
            for pin in range(len(gate.inputs)):
                union(out1, branch(pin, 1))
        # multi-input XOR has no controlling value: no gate-local merges.

    class_of: Dict[Fault, int] = {}
    dense: Dict[int, int] = {}
    for index, fault in enumerate(faults):
        root = find(index)
        class_of[fault] = dense.setdefault(root, len(dense))
    return class_of


def _build_dominated(netlist: Netlist, class_of: Dict[Fault, int]) -> Set[int]:
    """Class ids droppable by the gate-local dominance pass.

    AND output s-a-1 (OR output s-a-0) is dominated by every input branch
    of the same polarity: a test for the branch sets that input to the
    non-controlling... controlling-complement value with all siblings
    non-controlling, producing the identical output error, so any test
    detecting the branch detects the stem.  The class is only dropped when
    a keeper class distinct from it exists (single-input gates already
    merged by equivalence keep themselves).  Chains of drops stay covered
    transitively: keepers sit strictly upstream in the DAG.
    """
    dropped: Set[int] = set()
    for index, gate in enumerate(netlist.gates):
        if len(gate.inputs) < 2:
            continue
        if gate.kind is GateKind.AND:
            value = 1
        elif gate.kind is GateKind.OR:
            value = 0
        else:
            continue
        out_class = class_of[Fault(net=gate.output, stuck_at=value)]
        keepers = [
            class_of[
                Fault(net=net, stuck_at=value, gate_index=index, pin=pin)
            ]
            for pin, net in enumerate(gate.inputs)
        ]
        if any(keeper != out_class for keeper in keepers):
            dropped.add(out_class)
    return dropped


def _tables(netlist: Netlist) -> Tuple[Dict[Fault, int], Set[int]]:
    """(class_of, dominated ids) of one netlist, weakly cached."""
    try:
        cached = _TABLE_CACHE.get(netlist)
    except TypeError:  # un-weakref-able stand-in (tests)
        cached = None
    if cached is not None:
        return cached
    class_of = _build_classes(netlist)
    tables = (class_of, _build_dominated(netlist, class_of))
    try:
        _TABLE_CACHE[netlist] = tables
    except TypeError:
        pass
    return tables


def equivalence_classes(netlist: Netlist) -> Dict[Fault, int]:
    """Dense class id of every fault in ``all_faults(netlist)``.

    Ids are assigned by first appearance in the canonical fault order, so
    they are deterministic across processes (the pool workers rely on
    that).
    """
    return _tables(netlist)[0]


def dominated_classes(netlist: Netlist) -> Set[int]:
    """Class ids the opt-in dominance pass drops from the universe."""
    return _tables(netlist)[1]


def _check_mode(mode: str) -> None:
    if mode not in ("equiv", "dominance"):
        raise FaultError(
            f"unknown collapse mode {mode!r}; expected one of "
            f"{COLLAPSE_MODES[1:]} (or 'none' upstream)"
        )


class FaultMap:
    """Collapsed view of one fault universe.

    ``universe`` is the caller's ordered fault list (block-tagged
    ``(block, Fault)`` pairs for controllers, bare :class:`Fault` objects
    for netlists); ``representatives`` is the subsequence holding the
    first member of each (kept) class, in universe order, which is what a
    campaign schedules.  For ``mode="equiv"`` :meth:`expand` maps the
    per-representative outcome codes back onto the full universe; for
    ``mode="dominance"`` the kept representatives *are* the reported
    universe and expansion is refused.
    """

    def __init__(self, mode: str, universe: Sequence, keys: Sequence,
                 dropped_keys: Optional[Set] = None) -> None:
        _check_mode(mode)
        dropped_keys = dropped_keys if mode == "dominance" else set()
        self.mode = mode
        self.universe: List = list(universe)
        self.representatives: List = []
        #: per universe member: index into ``representatives`` (``None``
        #: for members dropped by dominance).
        self.rep_index: List[Optional[int]] = []
        self.n_classes = len(set(keys))
        first: Dict[object, int] = {}
        for item, key in zip(self.universe, keys):
            if dropped_keys and key in dropped_keys:
                self.rep_index.append(None)
                continue
            position = first.get(key)
            if position is None:
                position = first[key] = len(self.representatives)
                self.representatives.append(item)
            self.rep_index.append(position)

    # -- constructors --------------------------------------------------------

    @classmethod
    def for_netlist(
        cls,
        netlist: Netlist,
        faults: Optional[Sequence[Fault]] = None,
        mode: str = "equiv",
    ) -> "FaultMap":
        """Collapse a combinational universe (default: ``all_faults``).

        Explicit fault lists are supported: classes are computed on the
        netlist and restricted to the given list, so the representative of
        a class is its first member *present in the list*.
        """
        _check_mode(mode)
        universe = list(all_faults(netlist) if faults is None else faults)
        class_of, dominated = _tables(netlist)
        # A fault outside the canonical universe (custom probes) stays a
        # singleton keyed by its own value.
        keys = [class_of.get(fault, ("x", fault)) for fault in universe]
        return cls(mode, universe, keys, dropped_keys=dominated)

    @classmethod
    def for_controller(
        cls,
        controller,
        faults: Optional[Sequence] = None,
        mode: str = "equiv",
    ) -> "FaultMap":
        """Collapse a block-tagged controller universe.

        The block -> netlist correspondence comes from the controller's
        ``fault_blocks()``; blocks mapped to ``None`` (e.g. the
        conventional architecture's pseudo-stem ``FEEDBACK`` lines) and
        controllers without the protocol collapse nothing -- every such
        fault stays its own class, keeping the map correct if useless.
        """
        _check_mode(mode)
        universe = list(
            controller.fault_universe() if faults is None else faults
        )
        blocks = getattr(controller, "fault_blocks", dict)() or {}
        tables = {
            block: _tables(netlist)
            for block, netlist in blocks.items()
            if netlist is not None
        }
        keys: List = []
        dropped: Set = set()
        for block, netlist in tables.items():
            dropped.update((block, class_id) for class_id in netlist[1])
        for block, fault in universe:
            table = tables.get(block)
            if table is None or fault not in table[0]:
                keys.append((block, "x", fault))
            else:
                keys.append((block, table[0][fault]))
        return cls(mode, universe, keys, dropped_keys=dropped)

    # -- campaign protocol ---------------------------------------------------

    def expand(self, codes: Sequence[int]) -> List[int]:
        """Per-representative outcome codes -> full-universe codes.

        Only meaningful for equivalence collapsing, whose classes share
        verdicts by construction; a dominance-collapsed universe has no
        verdicts for its dropped members.
        """
        if self.mode != "equiv":
            raise FaultError(
                "dominance-collapsed universes cannot be expanded; the "
                "kept representatives are the reported universe"
            )
        if len(codes) != len(self.representatives):
            raise FaultError(
                f"expected {len(self.representatives)} representative "
                f"codes, got {len(codes)}"
            )
        return [codes[index] for index in self.rep_index]

    @property
    def scheduled(self) -> int:
        """Faults a collapsed campaign actually simulates."""
        return len(self.representatives)

    @property
    def reduction(self) -> float:
        """Fraction of the universe the collapse removed (0..1)."""
        total = len(self.universe)
        return 1.0 - self.scheduled / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        """Telemetry payload for ``CoverageReport.telemetry['collapse']``."""
        return {
            "mode": self.mode,
            "universe": len(self.universe),
            "scheduled": self.scheduled,
            "classes": self.n_classes,
            "reduction": round(self.reduction, 4),
        }

    def __repr__(self) -> str:
        return (
            f"FaultMap(mode={self.mode!r}, universe={len(self.universe)}, "
            f"scheduled={self.scheduled}, classes={self.n_classes})"
        )
