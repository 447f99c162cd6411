"""Sound static proofs of single-stuck-at untestability.

A fault-simulation campaign spends cycles on every fault of the universe,
but two classes of verdicts are decidable *before* any simulation:

``UNTESTABLE_CONSTANT``
    Ternary (0/1/X) constant propagation -- primary inputs ``X``,
    CONST0/CONST1 literal, gates evaluated over the three-valued lattice
    -- pins the fault site to the stuck value for **every** input
    assignment.  The fault is never excited, the faulty netlist computes
    the identical function, and no session, pattern set or compactor can
    ever tell them apart.

``UNTESTABLE_UNOBSERVABLE``
    Every propagation path from the fault site to an observation point is
    blocked by a side input *proven constant at the controlling value*
    (AND blocked by a constant-0 sibling, OR by a constant-1 sibling;
    NOT/BUF/XOR never block).  The fault may be excited, but the
    difference provably cannot reach any observed output.

Everything else is ``UNKNOWN`` -- possibly testable, possibly untestable
for a reason this prover cannot see (reconvergent masking, aliasing);
only simulation decides.

Soundness under fault injection
-------------------------------

The subtlety is that injecting a fault can *change* the constants the
observability argument leans on: a stuck-at on a net inside a constant
cone may flip downstream "constants" and unblock paths.  The prover
therefore evaluates each fault site against a valuation in which the
site's stem is forced to ``X``.  ``X`` abstracts both the fault-free and
every faulty value, so any net still proven constant under that valuation
is constant in *both* circuits, and the blocked-path argument goes
through by induction along the (topologically ordered) DAG.  Sites whose
stem is already ``X`` share one baseline valuation, so the quadratic
worst case only materialises for nets inside constant cones.

Verdicts carry a machine-checkable ``reason`` string:
``const[<net>]=<v>`` (the propagated constant equals the stuck value),
``unobservable[<net>]`` / ``unobservable[gate<i>.pin<p>]`` (no unblocked
path), ``pseudo-net[<block>]`` (architecture-level fault with no netlist
to analyze -- always ``UNKNOWN``).

The campaign engines consume this module through ``prescreen="static"``
(skip proved faults) and ``prescreen="validate"`` (simulate everything
and hard-fail on any detected proof -- the continuously-checked theorem);
see :func:`repro.faults.engine.run_campaign`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..exceptions import NetlistError
from ..netlist.netlist import Fault, Gate, GateKind, Netlist

__all__ = [
    "UNTESTABLE_CONSTANT",
    "UNTESTABLE_UNOBSERVABLE",
    "UNKNOWN",
    "FaultVerdict",
    "ternary_values",
    "prove_faults",
    "untestable_faults",
    "prove_controller",
    "verdict_tally",
]

UNTESTABLE_CONSTANT = "UNTESTABLE_CONSTANT"
UNTESTABLE_UNOBSERVABLE = "UNTESTABLE_UNOBSERVABLE"
UNKNOWN = "UNKNOWN"

#: the three ternary values; ``X`` is the lattice top (either 0 or 1).
TERNARY = ("0", "1", "X")


@dataclass(frozen=True)
class FaultVerdict:
    """Static verdict for one stuck-at fault, with its proof witness."""

    fault: Fault
    verdict: str
    reason: str

    @property
    def is_untestable(self) -> bool:
        return self.verdict != UNKNOWN

    def to_dict(self) -> Dict[str, object]:
        return {
            "fault": self.fault.describe(),
            "verdict": self.verdict,
            "reason": self.reason,
        }


def _eval_gate(gate: Gate, operands: Sequence[str]) -> str:
    """One gate over the ternary lattice (monotone in every operand)."""
    kind = gate.kind
    if kind is GateKind.AND:
        if "0" in operands:
            return "0"
        return "X" if "X" in operands else "1"
    if kind is GateKind.OR:
        if "1" in operands:
            return "1"
        return "X" if "X" in operands else "0"
    if kind is GateKind.NOT:
        value = operands[0]
        return "X" if value == "X" else ("1" if value == "0" else "0")
    if kind is GateKind.BUF:
        return operands[0]
    if kind is GateKind.XOR:
        if "X" in operands:
            return "X"
        ones = sum(1 for value in operands if value == "1")
        return "1" if ones % 2 else "0"
    if kind is GateKind.CONST0:
        return "0"
    if kind is GateKind.CONST1:
        return "1"
    raise NetlistError(f"unsupported gate kind {kind}")  # pragma: no cover


def ternary_values(
    netlist: Netlist, forced: Optional[Mapping[str, str]] = None
) -> Dict[str, str]:
    """Ternary constant propagation over every net.

    Primary inputs start at ``X``; ``forced`` overrides the value of any
    net *after* its driver is evaluated (which is how a fault site's stem
    is abstracted to ``X`` for the soundness argument above).
    """
    return _ternary(netlist.inputs, netlist.gates, forced)


def _ternary(
    inputs: Sequence[str],
    gates: Sequence[Gate],
    forced: Optional[Mapping[str, str]] = None,
) -> Dict[str, str]:
    forced = forced or {}
    values: Dict[str, str] = {}
    for net in inputs:
        values[net] = forced.get(net, "X")
    for gate in gates:
        value = _eval_gate(gate, [values[n] for n in gate.inputs])
        values[gate.output] = forced.get(gate.output, value)
    return values


def _pin_blocked(
    gate: Gate, pin: int, values: Mapping[str, str]
) -> Optional[Tuple[str, str]]:
    """The sibling constant pinning this gate's output, if any.

    Returns ``(net, value)`` of a side input proven at the controlling
    value (AND: 0, OR: 1) -- the output is then that constant regardless
    of pin ``pin`` -- or ``None`` when the path through is open.
    """
    if gate.kind is GateKind.AND:
        controlling = "0"
    elif gate.kind is GateKind.OR:
        controlling = "1"
    else:
        return None
    for position, net in enumerate(gate.inputs):
        if position != pin and values[net] == controlling:
            return net, controlling
    return None


def _observability(
    gates: Sequence[Gate],
    values: Mapping[str, str],
    observed: Iterable[str],
) -> Tuple[Set[str], Set[Tuple[int, int]]]:
    """Nets and gate pins with a constant-unblocked path to an output.

    One reverse sweep suffices: gates are topologically ordered, so
    consumers are visited before producers.  A net absent from the
    returned set provably cannot affect any observed output under any
    circuit the ``values`` abstraction covers.
    """
    observable: Set[str] = set(observed)
    open_pins: Set[Tuple[int, int]] = set()
    for index in range(len(gates) - 1, -1, -1):
        gate = gates[index]
        if gate.output not in observable:
            continue
        for pin, net in enumerate(gate.inputs):
            if _pin_blocked(gate, pin, values) is None:
                open_pins.add((index, pin))
                observable.add(net)
    return observable, open_pins


class _ProverTables:
    """Per-netlist valuations and observability cones, computed lazily.

    Keeps the netlist's inputs and gates, not the netlist: the netlist is
    its tables' key in the weak ``_TABLE_CACHE``, which a reference from
    the tables would keep alive for the life of the process.
    """

    def __init__(self, netlist: Netlist, observed: Tuple[str, ...]) -> None:
        self.inputs = netlist.inputs
        self.gates = netlist.gates
        self.observed = observed
        self.baseline = _ternary(self.inputs, self.gates)
        self._cones: Dict[
            Optional[str], Tuple[Set[str], Set[Tuple[int, int]]]
        ] = {}
        self._site_values: Dict[str, Dict[str, str]] = {}

    def site_values(self, net: str) -> Dict[str, str]:
        """Valuation abstracting both circuits for a fault at ``net``."""
        if self.baseline.get(net, "X") == "X":
            return self.baseline
        cached = self._site_values.get(net)
        if cached is None:
            cached = _ternary(self.inputs, self.gates, forced={net: "X"})
            self._site_values[net] = cached
        return cached

    def cone(self, net: str) -> Tuple[Set[str], Set[Tuple[int, int]]]:
        """Observability cone under the site valuation of ``net``."""
        key: Optional[str] = (
            None if self.baseline.get(net, "X") == "X" else net
        )
        cached = self._cones.get(key)
        if cached is None:
            cached = _observability(
                self.gates, self.site_values(net), self.observed
            )
            self._cones[key] = cached
        return cached


#: (netlist, default-observed) -> tables; weak so netlists keep their
#: normal lifetime.  Mirrors the collapse table cache: pool workers hit
#: it through their cached subjects, so repeated prescreened campaigns
#: pay the propagation once per subject.
_TABLE_CACHE: "weakref.WeakKeyDictionary[Netlist, _ProverTables]" = (
    weakref.WeakKeyDictionary()
)


def _tables(netlist: Netlist, observed: Optional[Iterable[str]]) -> _ProverTables:
    observed_nets = (
        tuple(observed) if observed is not None else netlist.outputs
    )
    if observed is not None and observed_nets != netlist.outputs:
        return _ProverTables(netlist, observed_nets)  # custom: uncached
    try:
        cached = _TABLE_CACHE.get(netlist)
    except TypeError:  # un-weakref-able stand-in (tests)
        cached = None
    if cached is not None:
        return cached
    tables = _ProverTables(netlist, observed_nets)
    try:
        _TABLE_CACHE[netlist] = tables
    except TypeError:
        pass
    return tables


def _prove_one(tables: _ProverTables, fault: Fault) -> FaultVerdict:
    net = fault.net
    baseline = tables.baseline
    if net not in baseline:
        return FaultVerdict(fault, UNKNOWN, f"unknown-net[{net}]")
    stuck = str(fault.stuck_at)
    if baseline[net] == stuck:
        # Never excited: the site already carries the stuck value on
        # every input assignment, so the faulty function is identical.
        return FaultVerdict(fault, UNTESTABLE_CONSTANT, f"const[{net}]={stuck}")
    observable, open_pins = tables.cone(net)
    if fault.is_stem:
        if net not in observable:
            return FaultVerdict(
                fault, UNTESTABLE_UNOBSERVABLE, f"unobservable[{net}]"
            )
        return FaultVerdict(fault, UNKNOWN, "")
    index, pin = fault.gate_index, fault.pin
    gates = tables.gates
    if (
        index is None
        or pin is None
        or index >= len(gates)
        or pin >= len(gates[index].inputs)
        or gates[index].inputs[pin] != net
    ):
        return FaultVerdict(fault, UNKNOWN, f"unknown-branch[{net}]")
    if (index, pin) not in open_pins:
        # Either the consuming gate's output has no unblocked path out,
        # or a sibling constant pins the gate regardless of this pin --
        # both proven under the site-X valuation, hence in both circuits.
        return FaultVerdict(
            fault,
            UNTESTABLE_UNOBSERVABLE,
            f"unobservable[gate{index}.pin{pin}]",
        )
    return FaultVerdict(fault, UNKNOWN, "")


def prove_faults(
    netlist: Netlist,
    faults: Optional[Sequence[Fault]] = None,
    observed: Optional[Iterable[str]] = None,
) -> List[FaultVerdict]:
    """Static verdicts for a fault list (default: the full universe).

    The result is index-aligned with ``faults``; every verdict is either
    a proof of untestability (with its witness in ``reason``) or
    ``UNKNOWN``.  ``observed`` overrides the observation points (default:
    the marked outputs, which is what every BIST session compacts).
    """
    if faults is None:
        from ..faults.stuck_at import all_faults

        faults = all_faults(netlist)
    tables = _tables(netlist, observed)
    return [_prove_one(tables, fault) for fault in faults]


def untestable_faults(
    netlist: Netlist, observed: Optional[Iterable[str]] = None
) -> Dict[Fault, FaultVerdict]:
    """The proved-untestable subset of the canonical universe."""
    verdicts = prove_faults(netlist, observed=observed)
    return {v.fault: v for v in verdicts if v.is_untestable}


def prove_controller(
    controller: object, faults: Optional[Sequence[Tuple[str, Fault]]] = None
) -> List[FaultVerdict]:
    """Static verdicts for a block-tagged controller fault universe.

    Index-aligned with ``faults`` (default: ``fault_universe()``).  The
    block -> netlist correspondence comes from the controller's
    ``fault_blocks()`` protocol; blocks mapped to ``None`` (e.g. the
    conventional architecture's pseudo-stem ``FEEDBACK`` lines) and
    controllers without the protocol yield ``UNKNOWN`` -- the prover
    never guesses about structure it cannot see.
    """
    universe: List[Tuple[str, Fault]] = list(
        controller.fault_universe() if faults is None else faults  # type: ignore[attr-defined]
    )
    blocks: Dict[str, Optional[Netlist]] = (
        getattr(controller, "fault_blocks", dict)() or {}
    )
    tables: Dict[str, _ProverTables] = {}
    verdicts: List[FaultVerdict] = []
    for block, fault in universe:
        netlist = blocks.get(block)
        if netlist is None:
            verdicts.append(
                FaultVerdict(fault, UNKNOWN, f"pseudo-net[{block}]")
            )
            continue
        table = tables.get(block)
        if table is None:
            table = tables[block] = _tables(netlist, None)
        verdicts.append(_prove_one(table, fault))
    return verdicts


def verdict_tally(verdicts: Iterable[FaultVerdict]) -> Dict[str, int]:
    """``{verdict: count}`` of the proved-untestable verdicts, sorted by
    verdict name (``UNKNOWN`` is not counted)."""
    counts: Dict[str, int] = {}
    for verdict in verdicts:
        if verdict.is_untestable:
            counts[verdict.verdict] = counts.get(verdict.verdict, 0) + 1
    return dict(sorted(counts.items()))
