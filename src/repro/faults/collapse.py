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
      directly observable but the branch is not.

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
-- ``expand()`` the per-representative outcome codes back.

The tables are integer-indexed.  A fault's canonical index is its
position in ``all_faults(netlist)``, worked out arithmetically: a stem
fault on net slot ``s`` is ``2*s + v``, a branch fault on pin ``p`` of
gate ``g`` is ``gate_base[g] + 2*p + v``.  Union-find runs over these
indices, class ids and dominated ids live in a list and a set, and a
:class:`FaultMap` keys each fault by its block's offset plus its class
id -- no ``Fault`` is hashed.  A fault outside the canonical universe (a
custom probe) stays a singleton keyed by its own value.
:func:`equivalence_classes` still returns a ``Dict[Fault, int]``, built
on demand.  The tables are cached per netlist object (weakly), so
repeated campaigns pay the union-find once per subject.
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

#: netlist -> its :class:`_Tables`; weak so netlists keep their normal
#: lifetime.  Repeat collapsed campaigns on one controller hit it, which
#: is what keeps them cheap.
_TABLE_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class _Tables:
    """Collapse tables of one netlist over canonical fault indices.

    The index of a fault is its position in ``all_faults(netlist)``: a
    stem fault on net slot ``s`` (inputs, then gate outputs) is
    ``2*s + v``, a branch fault on pin ``p`` of gate ``g`` is
    ``gate_base[g] + 2*p + v``.  ``class_of[i]`` is the dense class id of
    fault ``i``; ``dominated`` holds the class ids the dominance pass
    drops.
    """

    __slots__ = ("net_slot", "gates", "gate_base", "class_of", "dominated")

    def __init__(self, netlist: Netlist) -> None:
        nets = netlist.nets()
        self.net_slot: Dict[str, int] = {net: slot for slot, net in enumerate(nets)}
        self.gates = netlist.gates
        self.gate_base: List[int] = []
        offset = 2 * len(nets)
        for gate in self.gates:
            self.gate_base.append(offset)
            offset += 2 * len(gate.inputs)
        self.class_of = _build_classes(netlist, self.net_slot, self.gate_base, offset)
        self.dominated = _build_dominated(netlist, self.class_of, self.gate_base)

    def index(self, fault: Fault) -> Optional[int]:
        """Canonical index of ``fault``; ``None`` for a fault outside
        ``all_faults(netlist)`` (a custom probe)."""
        gate_index = fault.gate_index
        if gate_index is None:
            slot = self.net_slot.get(fault.net)
            if slot is None or fault.pin is not None:
                return None
            return 2 * slot + fault.stuck_at
        pin = fault.pin
        if not 0 <= gate_index < len(self.gates) or pin is None:
            return None
        pins = self.gates[gate_index].inputs
        if not 0 <= pin < len(pins) or pins[pin] != fault.net:
            return None
        return self.gate_base[gate_index] + 2 * pin + fault.stuck_at


def _build_classes(
    netlist: Netlist, net_slot: Dict[str, int], gate_base: List[int], total: int
) -> List[int]:
    """Union-find over the canonical fault indices of one netlist."""
    parent = list(range(total))

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = node = parent[parent[node]]  # path halving
        return node

    def union(a: int, b: int) -> None:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_b] = root_a

    outputs = set(netlist.outputs)
    fanout: Dict[str, int] = {}
    for gate in netlist.gates:
        for net in gate.inputs:
            fanout[net] = fanout.get(net, 0) + 1

    n_inputs = len(netlist.inputs)
    for index, gate in enumerate(netlist.gates):
        base = gate_base[index]  # branch s-a-v on pin p: base + 2*p + v
        for pin, net in enumerate(gate.inputs):
            # Fanout-free stem == branch -- but a net that is also a
            # primary output is observed there directly, so its stem is
            # strictly more visible than the lone branch: never merged.
            if fanout[net] == 1 and net not in outputs:
                stem = 2 * net_slot[net]
                union(stem, base + 2 * pin)
                union(stem + 1, base + 2 * pin + 1)
        if not gate.inputs:
            continue  # CONST0/CONST1
        out0 = 2 * (n_inputs + index)  # output stem s-a-0; s-a-1 is out0 + 1
        if len(gate.inputs) == 1:
            # Single-input AND/OR/XOR/BUF compute identity, NOT inverts;
            # either way the lone branch fixes the output completely.
            if gate.kind is GateKind.NOT:
                union(out0 + 1, base)
                union(out0, base + 1)
            else:
                union(out0, base)
                union(out0 + 1, base + 1)
        elif gate.kind is GateKind.AND:
            for pin in range(len(gate.inputs)):
                union(out0, base + 2 * pin)
        elif gate.kind is GateKind.OR:
            for pin in range(len(gate.inputs)):
                union(out0 + 1, base + 2 * pin + 1)
        # multi-input XOR has no controlling value: no gate-local merges.

    dense: Dict[int, int] = {}
    return [dense.setdefault(find(index), len(dense)) for index in range(total)]


def _build_dominated(
    netlist: Netlist, class_of: List[int], gate_base: List[int]
) -> Set[int]:
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
    n_inputs = len(netlist.inputs)
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
        out_class = class_of[2 * (n_inputs + index) + value]
        base = gate_base[index]
        if any(
            class_of[base + 2 * pin + value] != out_class
            for pin in range(len(gate.inputs))
        ):
            dropped.add(out_class)
    return dropped


def _tables(netlist: Netlist) -> _Tables:
    """The collapse tables of one netlist, weakly cached."""
    try:
        cached = _TABLE_CACHE.get(netlist)
    except TypeError:  # un-weakref-able stand-in (tests)
        cached = None
    if cached is not None:
        return cached
    tables = _Tables(netlist)
    try:
        _TABLE_CACHE[netlist] = tables
    except TypeError:
        pass
    return tables


def equivalence_classes(netlist: Netlist) -> Dict[Fault, int]:
    """Dense class id of every fault in ``all_faults(netlist)``.

    Ids are assigned by first appearance in the canonical fault order, so
    they are deterministic across processes.  The dict is built on each call from the cached integer
    tables.
    """
    return dict(zip(all_faults(netlist), _tables(netlist).class_of))


def dominated_classes(netlist: Netlist) -> Set[int]:
    """Class ids the opt-in dominance pass drops from the universe."""
    return _tables(netlist).dominated


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
        tables = _tables(netlist)
        if faults is None:
            universe = all_faults(netlist)
            keys: List = list(tables.class_of)
        else:
            universe = list(faults)
            keys = []
            for fault in universe:
                # A fault outside the canonical universe (custom probes)
                # stays a singleton keyed by its own value.
                index = tables.index(fault)
                keys.append(
                    ("x", fault) if index is None else tables.class_of[index]
                )
        return cls(mode, universe, keys, dropped_keys=tables.dominated)

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
        # Each block's class ids are shifted into their own integer range,
        # so a key is one int; faults of blocks without a netlist and
        # non-canonical probes stay singletons keyed ``(block, "x", fault)``.
        tables: Dict[str, Tuple[_Tables, int]] = {}
        dropped: Set = set()
        offset = 0
        for block, netlist in blocks.items():
            if netlist is None:
                continue
            table = _tables(netlist)
            tables[block] = (table, offset)
            dropped.update(offset + class_id for class_id in table.dominated)
            offset += len(table.class_of)
        keys: List = []
        for block, fault in universe:
            entry = tables.get(block)
            index = None if entry is None else entry[0].index(fault)
            if index is None:
                keys.append((block, "x", fault))
            else:
                keys.append(entry[1] + entry[0].class_of[index])
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
