"""Compiled netlist evaluation: exec-generated slot-indexed evaluators.

The interpreted :meth:`Netlist.evaluate` walks the gate list with dict-keyed
net values; that is the inner loop of every fault-simulation campaign and of
every BIST self-test session, so it dominates end-to-end runtime.  This
module compiles a frozen netlist into straight-line Python source
(``exec``-ed, like ``namedtuple`` or ``dataclasses`` do) in which nets are
local variables indexed by *slot* -- primary inputs first, then gate outputs
in topological order -- and evaluates with zero dict traffic.

Two evaluators of one family are generated from the same gate list:

``lane_all`` / ``lane_out(I, mask, hit, fix)``
    The compact multi-lane kernel every evaluation goes through.  Bit
    ``l`` of every net is its value in lane ``l``; ``lane_all`` returns
    the value of every net as a list in slot order, ``lane_out`` only the
    marked outputs.  Each slot has one hook line,
    ``if hit[s]: v = fix(s, v, operands)``; :meth:`lane_overrides` builds
    the ``hit`` table and the fixer from per-lane fault assignments.  The
    fixer applies every pin override of a gate at once, evaluates the gate
    once and applies the slot's stem masks after -- exact because each
    lane carries at most one fault.  A "lane" may be a single bit (the
    superposed fallback sessions, where every lane carries its own
    register trajectory) or a whole ``n``-bit field of patterns or cycles
    (``mask << (lane * n)``: the PPSFP kernel and the campaign screens,
    :func:`repro.faults.simulator.superposed_fields`), so one evaluation
    covers ``lanes x patterns`` fault/pattern pairs.  A single fault on
    every pattern, as in :meth:`Netlist.evaluate`, is one lane spanning
    the whole mask: ``lane_overrides([(fault, mask)])``.  Fault-free evaluation is the
    same kernel with an all-zero ``hit`` table and no fixer: the sweep's
    controller build check and every fault-free campaign reference run
    ``lane_out`` that way.

Single-pattern evaluation (:meth:`CompiledNetlist.single_pattern`, the
serial BIST sessions of :mod:`repro.bist.architectures`) is not generated:
it unpacks the packed input bits, calls ``lane_out`` with mask 1 and packs
the outputs.

Each evaluator is compiled on its first call, at most once per netlist:
:class:`CompiledNetlist` (cached per frozen netlist, see
:meth:`Netlist.compile`) only builds the slot index, and every evaluator
slot starts as a stub that compiles the real function and installs it in
its place, so later calls pay nothing extra.  A sweep, and the serial
oracle too, compiles only ``lane_out`` of each netlist.  The compile runs
in the first caller's time, not in :class:`CompiledNetlist`'s constructor.  The
compiled object is deliberately excluded from pickling so controllers can
be shipped to worker processes and recompile lazily on the other side.

Equivalence with the interpreted evaluator -- all nets, stem and branch
faults, arbitrary masks, single patterns -- is enforced by property tests
(``tests/test_compiled.py``).
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_, xor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..exceptions import NetlistError
from .netlist import Fault, GateKind, Netlist

#: ``lane_overrides()`` result: a per-slot hit table plus the fixer
#: ``fix(slot, value, operands) -> value`` that the lane kernel calls on
#: every hit slot.
LaneOverrides = Tuple[bytearray, Callable[[int, int, tuple], int]]


def _operand_expr(kind: GateKind, operands: Sequence[str], mask_expr: str) -> str:
    """Straight-line expression for one gate over named operand variables."""
    if kind is GateKind.AND:
        return " & ".join(operands)
    if kind is GateKind.OR:
        return " | ".join(operands)
    if kind is GateKind.XOR:
        return " ^ ".join(operands)
    if kind is GateKind.NOT:
        return f"(~{operands[0]}) & {mask_expr}"
    if kind is GateKind.BUF:
        return operands[0]
    if kind is GateKind.CONST0:
        return "0"
    return mask_expr  # CONST1


#: operator a gate with pin overrides recomputes with (``reduce`` over its
#: operands; a lone operand reduces to itself, so BUF takes any of them).
#: NOT maps to ``None``: it flips exactly the changed bits, needing no
#: mask.  CONST gates have no pins and never recompute.
_REDUCE: Dict[GateKind, Optional[Callable[[int, int], int]]] = {
    GateKind.AND: and_,
    GateKind.OR: or_,
    GateKind.XOR: xor,
    GateKind.BUF: or_,
    GateKind.NOT: None,
}


#: evaluator name -> returned nets; both take ``(I, mask, hit, fix)`` and
#: share one straight-line body.
_EVALUATORS: Dict[str, str] = {"lane_all": "all", "lane_out": "out"}


class CompiledNetlist:
    """Slot-indexed compiled evaluators for one frozen :class:`Netlist`."""

    __slots__ = (
        "name",
        "net_names",
        "index",
        "n_inputs",
        "input_names",
        "output_names",
        "output_slots",
        "_gates",
        "_no_overrides",
        "_lane_all",
        "_lane_out",
    )

    # Evaluator slots: a first-call stub until compiled, then the function.
    _lane_all: Callable[..., List[int]]
    _lane_out: Callable[..., List[int]]

    def __init__(self, netlist: Netlist) -> None:
        self.name = netlist.name
        inputs = tuple(netlist.inputs)
        gates = self._gates = tuple(netlist.gates)
        outputs = tuple(netlist.outputs)
        self.input_names = inputs
        self.output_names = outputs
        self.net_names: Tuple[str, ...] = inputs + tuple(g.output for g in gates)
        self.index: Dict[str, int] = {
            net: slot for slot, net in enumerate(self.net_names)
        }
        self.n_inputs = len(inputs)
        self.output_slots: Tuple[int, ...] = tuple(
            self.index[net] for net in outputs
        )
        #: the lane kernel's ``(hit, fix)`` for fault-free evaluation: an
        #: immutable all-zero hit table, so the fixer is never called.
        self._no_overrides: Tuple[bytes, None] = (bytes(len(self.net_names)), None)
        # Every evaluator slot starts as a stub that compiles the real
        # evaluator on its first call and replaces itself with it.
        for evaluator in _EVALUATORS:
            setattr(self, "_" + evaluator, self._compile_on_call(evaluator))

    # -- code generation -----------------------------------------------------

    def _compile_on_call(self, evaluator: str) -> Callable[..., Any]:
        def first_call(*args: Any) -> Any:
            return self._compile(evaluator)(*args)

        return first_call

    def _compile(self, evaluator: str) -> Callable[..., Any]:
        """Generate, compile and install one evaluator; returns it.

        Two threads racing on the same first call may both compile; each
        installs a complete function with one attribute store, so no
        caller ever sees a half-built evaluator.
        """
        namespace: Dict[str, Any] = {}
        source = self._source(evaluator)
        filename = f"<compiled netlist {self.name!r}: {evaluator}>"
        exec(compile(source, filename, "exec"), namespace)
        function: Callable[..., Any] = namespace[evaluator]
        setattr(self, "_" + evaluator, function)
        return function

    def _source(self, evaluator: str) -> str:
        """Straight-line Python source of one evaluator."""
        body = [f"def {evaluator}(I, mask, hit, fix):"]
        for slot in range(self.n_inputs):
            body.append(f"    v{slot} = I[{slot}] & mask")
            body.append(f"    if hit[{slot}]: v{slot} = fix({slot}, v{slot}, ())")
        for gate_index, gate in enumerate(self._gates):
            slot = self.n_inputs + gate_index
            operands = tuple(f"v{self.index[net]}" for net in gate.inputs)
            body.append(f"    v{slot} = {_operand_expr(gate.kind, operands, 'mask')}")
            pinned = f"({', '.join(operands)},)" if operands else "()"
            body.append(f"    if hit[{slot}]: v{slot} = fix({slot}, v{slot}, {pinned})")
        if _EVALUATORS[evaluator] == "all":
            slots: Sequence[int] = range(len(self.net_names))
        else:
            slots = self.output_slots
        body.append(f"    return [{', '.join(f'v{slot}' for slot in slots)}]")
        return "\n".join(body) + "\n"

    # -- fault plumbing ------------------------------------------------------

    def lane_overrides(
        self, assignments: Sequence[Tuple[Optional[Fault], int]]
    ) -> LaneOverrides:
        """Per-lane fault assignments -> the lane kernel's ``(hit, fix)``.

        ``assignments`` is a sequence of ``(fault, lane_mask)`` pairs; each
        fault is applied only in the bit positions of its ``lane_mask``
        (one lane bit, or one whole pattern field).  ``hit[slot]`` is set
        for every net slot that carries an override: a stem fault on the
        net, or a branch fault on a pin of the gate driving it.  On a hit
        slot ``fix`` ORs/ANDs every pin override of the gate into its
        operands at once, evaluates the gate once, and then applies the
        slot's stem masks.  That is exact because every lane carries at
        most one fault: the lanes a pin override leaves alone see their
        own operands and recompute their own value.  A fault on a net or
        pin unknown to this netlist degrades to a no-op, matching the
        interpreted evaluator on unknown nets (architecture-level
        pseudo-nets such as the Figure-2 feedback lines rely on this).
        """
        gates = self._gates
        n_inputs = self.n_inputs
        net_slot = self.index
        stems: Dict[int, List[int]] = {}
        pins: Dict[int, Dict[int, List[int]]] = {}
        for fault, lane_mask in assignments:
            if fault is None:
                continue
            gate_index = fault.gate_index
            if gate_index is None:
                slot = net_slot.get(fault.net)
                if slot is None:
                    continue
                masks = stems.get(slot) or stems.setdefault(slot, [0, -1])
            else:
                pin = fault.pin
                if not (
                    0 <= gate_index < len(gates)
                    and 0 <= pin < len(gates[gate_index].inputs)
                ):
                    continue
                gate_pins = pins.setdefault(n_inputs + gate_index, {})
                masks = gate_pins.get(pin) or gate_pins.setdefault(pin, [0, -1])
            if fault.stuck_at:
                masks[0] |= lane_mask
            else:
                masks[1] &= ~lane_mask
        hit = bytearray(len(self.net_names))
        entries: List[Any] = [None] * len(hit)
        for slot, (stem_or, stem_and) in stems.items():
            hit[slot] = 1
            entries[slot] = ((), None, stem_or, stem_and)
        for slot, gate_pins in pins.items():
            hit[slot] = 1
            stem_or, stem_and = stems.get(slot, (0, -1))
            entries[slot] = (
                [(pin, masks[0], masks[1]) for pin, masks in gate_pins.items()],
                _REDUCE[gates[slot - n_inputs].kind],
                stem_or,
                stem_and,
            )

        def fix(slot: int, value: int, operands: tuple) -> int:
            pin_masks, operator, stem_or, stem_and = entries[slot]
            if pin_masks:
                ops = list(operands)
                for pin, or_mask, and_mask in pin_masks:
                    ops[pin] = (ops[pin] | or_mask) & and_mask
                if operator is None:  # NOT
                    value ^= operands[0] ^ ops[0]
                else:
                    value = reduce(operator, ops)
            return (value | stem_or) & stem_and

        return (hit, fix)

    def pack_inputs(self, input_values: Dict[str, int]) -> List[int]:
        """Dict-keyed input values -> slot-ordered list (with presence check)."""
        values = []
        for net in self.input_names:
            try:
                values.append(input_values[net])
            except KeyError:
                raise NetlistError(f"missing value for primary input {net!r}") from None
        return values

    # -- evaluation ----------------------------------------------------------

    def single_pattern(self, fault: Optional[Fault] = None) -> Callable[[int], int]:
        """``bits -> bits`` evaluator of the marked outputs under ``fault``.

        Input ``i`` is bit ``i`` of the argument and output ``j`` bit ``j``
        of the result -- the register-transfer shape of the serial BIST
        sessions.  Each call runs ``lane_out`` with mask 1 and the fault's
        one-lane overrides; the kernel is looked up on every call, so the
        first call's compile is installed and later calls reuse it.
        """
        hit, fix = self.lane_overrides([(fault, 1)])
        positions = range(self.n_inputs)

        def evaluate(bits: int) -> int:
            packed = 0
            for position, value in enumerate(
                self._lane_out([(bits >> i) & 1 for i in positions], 1, hit, fix)
            ):
                packed |= value << position
            return packed

        return evaluate

    def lane_eval(
        self,
        input_words: Sequence[int],
        mask: int,
        overrides: Optional[LaneOverrides] = None,
    ) -> List[int]:
        """Multi-lane evaluation: bit ``l`` of every net = value in lane ``l``.

        ``input_words`` is slot-ordered (primary inputs in netlist order);
        bit positions index patterns, superposed *lanes* (machine copies)
        or both.  ``overrides`` comes from :meth:`lane_overrides` and pins
        each lane's fault in that lane's bits only.  ``None`` overrides
        evaluate fault-free (no slot is hit).
        """
        return self._lane_all(input_words, mask, *(overrides or self._no_overrides))

    def lane_eval_outputs(
        self,
        input_words: Sequence[int],
        mask: int,
        overrides: Optional[LaneOverrides] = None,
    ) -> List[int]:
        """Marked-output lane words only, in output order."""
        return self._lane_out(input_words, mask, *(overrides or self._no_overrides))
