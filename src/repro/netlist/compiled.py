"""Compiled netlist evaluation: exec-generated slot-indexed evaluators.

The interpreted :meth:`Netlist.evaluate` walks the gate list with dict-keyed
net values; that is the inner loop of every fault-simulation campaign and of
every BIST self-test session, so it dominates end-to-end runtime.  This
module compiles a frozen netlist into straight-line Python source
(``exec``-ed, like ``namedtuple`` or ``dataclasses`` do) in which nets are
local variables indexed by *slot* -- primary inputs first, then gate outputs
in topological order -- and evaluates with zero dict traffic.

Eight evaluators in four specialisations are generated from the same gate
list:

``good_all(I, mask)``
    Fault-free bit-parallel evaluation; returns the value of every net as a
    list in slot order.
``fault_all(I, mask, fs, stuck, fg, fp)``
    The same with the per-fault override hook: ``fs`` pins net slot ``fs``
    to ``stuck`` (stem fault), ``fg``/``fp`` re-evaluates gate ``fg`` with
    input pin ``fp`` pinned (branch fault).  Sentinel ``-1`` disables either
    hook, so a single generated function serves the whole fault universe.
``step_good(bits)`` / ``step_fault(bits, fs, stuck, fg, fp)``
    Single-pattern (``mask == 1``) kernels for sequential BIST sessions:
    primary inputs arrive packed in one integer (bit ``i`` = input ``i``)
    and the marked outputs come back packed the same way, which is exactly
    the register-transfer shape of the session loops in
    :mod:`repro.bist.architectures`.
``lane_all(I, mask, so, br)``
    Multi-lane evaluation with *per-lane* fault overrides: bit ``l`` of
    every net is its value in lane ``l``, where each lane simulates one
    faulty copy of the circuit (lane 0 conventionally fault-free).  ``so``
    maps net slots to ``(or_mask, and_mask)`` stem overrides and ``br``
    maps gate indices to pinned-pin branch overrides, each scoped to its
    lane's bit only.  This is what lets the sequential fallback sessions
    of :mod:`repro.bist.architectures` superpose many faulty machines --
    every lane carrying its own register/``lambda*`` trajectory -- into
    one evaluation per cycle instead of one serial replay per fault.
    A "lane" is really an arbitrary bit *field*: the PPSFP kernel of
    :mod:`repro.faults.simulator` hands each fault a whole pattern-set
    field (``mask << (lane * n_patterns)``) so one evaluation screens
    ``lanes x patterns`` fault/pattern pairs at once.
``good_out`` / ``fault_out`` / ``lane_out``
    Output-slot-only twins of the three ``*_all`` evaluators above; the
    per-fault screening loops and the PPSFP kernels only ever look at the
    marked outputs, so these skip materialising the full net list on
    every call.

Each evaluator is compiled on its first call, at most once per netlist:
:class:`CompiledNetlist` (cached per frozen netlist, see
:meth:`Netlist.compile`) only builds the slot index, and every evaluator
slot starts as a stub that compiles the real function and installs it in
its place, so later calls pay nothing extra.  A sweep calls only some of
the eight on any one netlist, and never compiles the rest.  The compiled
object is deliberately excluded from pickling so controllers can be
shipped to worker processes and recompile lazily on the other side.

Equivalence with the interpreted evaluator -- all nets, stem and branch
faults, arbitrary masks -- is enforced by property tests
(``tests/test_compiled.py``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..exceptions import NetlistError
from .netlist import Fault, GateKind, Netlist

#: ``lane_overrides()`` result: stem ``slot -> (or_mask, and_mask)`` plus
#: branch ``gate_index -> [(pin, stuck_word, lane_mask), ...]`` tables.
LaneOverrides = Tuple[
    Dict[int, Tuple[int, int]], Dict[int, List[Tuple[int, int, int]]]
]

#: fault-hook sentinel: no stem override, no branch override.
NO_FAULT = (-1, 0, -1, -1)


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


def _make_refault(
    kinds: Tuple[GateKind, ...],
) -> Callable[[int, int, int, int, tuple], int]:
    """Generic re-evaluation of one gate with a pinned input (branch fault).

    Runs at most once per evaluation (the single fault matches a single
    gate), so it trades speed for sharing one closure across all gates.
    """

    def _refault(gate_index: int, pin: int, stuck: int, mask: int, ops: tuple) -> int:
        operands = list(ops)
        operands[pin] = stuck
        kind = kinds[gate_index]
        if kind is GateKind.AND:
            result = mask
            for operand in operands:
                result &= operand
            return result
        if kind is GateKind.OR:
            result = 0
            for operand in operands:
                result |= operand
            return result
        if kind is GateKind.XOR:
            result = 0
            for operand in operands:
                result ^= operand
            return result
        if kind is GateKind.NOT:
            return ~operands[0] & mask
        return operands[0]  # BUF (CONST gates have no pins)

    return _refault


def _make_lane_refault(
    kinds: Tuple[GateKind, ...],
) -> Callable[[int, Sequence[Tuple[int, int, int]], int, tuple, int], int]:
    """Per-lane branch-fault merge for the multi-lane kernel.

    ``entries`` is the list of ``(pin, stuck_word, lane_mask)`` overrides
    attached to one gate: the gate is re-evaluated with input ``pin``
    pinned to ``stuck_word`` and the result replaces ``current`` in the
    ``lane_mask`` bits only, so each faulty lane sees its own pin value
    while every other lane keeps the shared computation.
    """

    def _lane_refault(
        gate_index: int,
        entries: Sequence[Tuple[int, int, int]],
        mask: int,
        ops: tuple,
        current: int,
    ) -> int:
        kind = kinds[gate_index]
        for pin, stuck_word, lane_mask in entries:
            operands = list(ops)
            operands[pin] = stuck_word
            if kind is GateKind.AND:
                value = mask
                for operand in operands:
                    value &= operand
            elif kind is GateKind.OR:
                value = 0
                for operand in operands:
                    value |= operand
            elif kind is GateKind.XOR:
                value = 0
                for operand in operands:
                    value ^= operand
            elif kind is GateKind.NOT:
                value = ~operands[0] & mask
            else:  # BUF (CONST gates have no pins)
                value = operands[0]
            current = (current & ~lane_mask) | (value & lane_mask)
        return current

    return _lane_refault


#: evaluator name -> (argument list, body family, returned nets).  The
#: families share one straight-line body between their all-nets and
#: outputs-only variants (identical arguments, only the return differs).
_EVALUATORS: Dict[str, Tuple[str, str, str]] = {
    "good_all": ("I, mask", "good", "all"),
    "good_out": ("I, mask", "good", "out"),
    "fault_all": ("I, mask, fs, stuck, fg, fp", "fault", "all"),
    "fault_out": ("I, mask, fs, stuck, fg, fp", "fault", "out"),
    "step_good": ("bits", "step_good", "packed"),
    "step_fault": ("bits, fs, stuck, fg, fp", "step_fault", "packed"),
    "lane_all": ("I, mask, so, br", "lane", "all"),
    "lane_out": ("I, mask, so, br", "lane", "out"),
}


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
        "_good_all",
        "_fault_all",
        "_step_good",
        "_step_fault",
        "_lane_all",
        "_good_out",
        "_fault_out",
        "_lane_out",
    )

    # Evaluator slots: a first-call stub until compiled, then the function.
    _good_all: Callable[..., List[int]]
    _fault_all: Callable[..., List[int]]
    _step_good: Callable[..., int]
    _step_fault: Callable[..., int]
    _lane_all: Callable[..., List[int]]
    _good_out: Callable[..., List[int]]
    _fault_out: Callable[..., List[int]]
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
        kinds = tuple(g.kind for g in self._gates)
        namespace: Dict[str, Any] = {
            "_refault": _make_refault(kinds),
            "_lane_refault": _make_lane_refault(kinds),
        }
        source = self._source(evaluator)
        filename = f"<compiled netlist {self.name!r}: {evaluator}>"
        exec(compile(source, filename, "exec"), namespace)
        function: Callable[..., Any] = namespace[evaluator]
        setattr(self, "_" + evaluator, function)
        return function

    def _source(self, evaluator: str) -> str:
        """Straight-line Python source of one evaluator."""
        arguments, family, returned = _EVALUATORS[evaluator]
        step = family.startswith("step")
        faulty = family in ("fault", "step_fault")
        lane = family == "lane"
        body = [f"def {evaluator}({arguments}):"]
        if lane:
            body.append("    g = so.get")
        for slot in range(self.n_inputs):
            if step:
                unpack = "bits & 1" if slot == 0 else f"(bits >> {slot}) & 1"
                body.append(f"    v{slot} = {unpack}")
            else:
                body.append(f"    v{slot} = I[{slot}] & mask")
            if faulty:
                body.append(f"    if fs == {slot}: v{slot} = stuck")
            if lane:
                body.append(f"    t = g({slot})")
                body.append(f"    if t is not None: v{slot} = (v{slot} | t[0]) & t[1]")
        mask = "1" if step else "mask"
        for gate_index, gate in enumerate(self._gates):
            slot = self.n_inputs + gate_index
            operands = tuple(f"v{self.index[net]}" for net in gate.inputs)
            if step and gate.kind is GateKind.NOT:
                body.append(f"    v{slot} = {operands[0]} ^ 1")
            else:
                body.append(f"    v{slot} = {_operand_expr(gate.kind, operands, mask)}")
            pinned = f"({', '.join(operands)},)"
            if faulty:
                if gate.inputs:
                    body.append(
                        f"    if fg == {gate_index}: v{slot} = "
                        f"_refault({gate_index}, fp, stuck, {mask}, {pinned})"
                    )
                body.append(f"    if fs == {slot}: v{slot} = stuck")
            if lane:
                if gate.inputs:
                    body.append(f"    e = br.get({gate_index})")
                    body.append(
                        f"    if e is not None: v{slot} = _lane_refault("
                        f"{gate_index}, e, mask, {pinned}, v{slot})"
                    )
                body.append(f"    t = g({slot})")
                body.append(f"    if t is not None: v{slot} = (v{slot} | t[0]) & t[1]")
        if returned == "packed":
            packed = " | ".join(
                f"v{slot}" if position == 0 else f"(v{slot} << {position})"
                for position, slot in enumerate(self.output_slots)
            )
            body.append(f"    return {packed or 0}")
        else:
            slots = range(len(self.net_names)) if returned == "all" else self.output_slots
            body.append(f"    return [{', '.join(f'v{slot}' for slot in slots)}]")
        return "\n".join(body) + "\n"

    # -- fault plumbing ------------------------------------------------------

    def fault_args(self, fault: Optional[Fault], mask: int = 1) -> Tuple[int, int, int, int]:
        """Translate a :class:`Fault` into the ``(fs, stuck, fg, fp)`` hook.

        A stem fault on a net unknown to this netlist degrades to a no-op,
        matching the interpreted evaluator (architecture-level pseudo-nets
        such as the Figure-2 feedback lines rely on this).
        """
        if fault is None:
            return NO_FAULT
        stuck = mask if fault.stuck_at else 0
        if fault.is_stem:
            return (self.index.get(fault.net, -1), stuck, -1, -1)
        return (-1, stuck, fault.gate_index, fault.pin)

    def lane_overrides(
        self, assignments: Sequence[Tuple[Optional[Fault], int]]
    ) -> LaneOverrides:
        """Per-lane fault assignments -> the ``lane_all`` override tables.

        ``assignments`` is a sequence of ``(fault, lane_mask)`` pairs; each
        fault is applied only in the bit positions of its ``lane_mask``
        (normally a single lane bit).  Stem faults merge into one
        ``slot -> (or_mask, and_mask)`` table; branch faults collect per
        gate as ``(pin, stuck_word, lane_mask)`` entries.  A stem fault on
        a net unknown to this netlist degrades to a no-op, exactly like
        :meth:`fault_args`.  Lanes are independent because every lane
        carries at most one fault, so override order within a table cannot
        matter.
        """
        stem: Dict[int, Tuple[int, int]] = {}
        branch: Dict[int, List[Tuple[int, int, int]]] = {}
        for fault, lane_mask in assignments:
            if fault is None:
                continue
            if fault.is_stem:
                slot = self.index.get(fault.net)
                if slot is None:
                    continue
                or_mask, and_mask = stem.get(slot, (0, -1))
                if fault.stuck_at:
                    or_mask |= lane_mask
                else:
                    and_mask &= ~lane_mask
                stem[slot] = (or_mask, and_mask)
            else:
                branch.setdefault(fault.gate_index, []).append(
                    (fault.pin, lane_mask if fault.stuck_at else 0, lane_mask)
                )
        return (stem, branch)

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

    def eval_list(
        self,
        packed_inputs: Sequence[int],
        mask: int,
        fault_args: Tuple[int, int, int, int] = NO_FAULT,
    ) -> List[int]:
        """All net values (slot order) for slot-ordered packed inputs."""
        if fault_args == NO_FAULT:
            return self._good_all(packed_inputs, mask)
        return self._fault_all(packed_inputs, mask, *fault_args)

    def eval_outputs_list(
        self,
        packed_inputs: Sequence[int],
        mask: int,
        fault_args: Tuple[int, int, int, int] = NO_FAULT,
    ) -> List[int]:
        """Marked-output values only, in output order."""
        if fault_args == NO_FAULT:
            return self._good_out(packed_inputs, mask)
        return self._fault_out(packed_inputs, mask, *fault_args)

    def step(self, bits: int, fault_args: Tuple[int, int, int, int] = NO_FAULT) -> int:
        """Single-pattern kernel: packed input bits -> packed output bits."""
        if fault_args == NO_FAULT:
            return self._step_good(bits)
        return self._step_fault(bits, *fault_args)

    def lane_eval(
        self,
        input_words: Sequence[int],
        mask: int,
        overrides: Optional[LaneOverrides] = None,
    ) -> List[int]:
        """Multi-lane evaluation: bit ``l`` of every net = value in lane ``l``.

        ``input_words`` is slot-ordered like :meth:`eval_list`, but bit
        positions index superposed *lanes* (machine copies) instead of
        patterns; ``overrides`` comes from :meth:`lane_overrides` and pins
        each lane's fault in that lane's bit only.  ``None`` overrides
        degrade to the plain bit-parallel evaluator.
        """
        if overrides is None:
            return self._good_all(input_words, mask)
        return self._lane_all(input_words, mask, overrides[0], overrides[1])

    def lane_eval_outputs(
        self,
        input_words: Sequence[int],
        mask: int,
        overrides: Optional[LaneOverrides] = None,
    ) -> List[int]:
        """Marked-output lane words only, in output order."""
        if overrides is None:
            return self._good_out(input_words, mask)
        return self._lane_out(input_words, mask, overrides[0], overrides[1])
