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
    parallel self-test's superposed replay, where every lane carries its
    own register trajectory) or a whole ``n``-bit field of patterns or
    cycles (``mask << (lane * n)``: the field-packed PPSFP passes and
    campaign screens of :func:`repro.faults.simulator.packed_fields`), so
    one evaluation covers ``lanes x patterns`` fault/pattern pairs.  A
    single fault on every pattern, as in :meth:`Netlist.evaluate` and the
    serial sessions, is one lane spanning the whole mask:
    ``lane_overrides([(fault, mask)])``.  Those are the only callers of
    ``fix``.  Fault-free evaluation is the same kernel with an all-zero
    ``hit`` table and no fixer: the sweep's controller build check, every
    fault-free campaign reference and the pipeline's superposed replay
    (whose block responses come from the screen) run ``lane_out`` that
    way.

Next to them, :meth:`CompiledNetlist.cone_outputs` evaluates one fault
on streams longer than the field-packing crossover
(:func:`repro.faults.simulator.cone_fields`): from one fault-free
``lane_all`` result it re-evaluates only the fault's fanout cone, in slot
order, over the same slot program, and calls no fixer.

Single-pattern evaluation (:meth:`CompiledNetlist.single_pattern`, the
serial BIST sessions of :mod:`repro.bist.architectures`) is not generated:
it unpacks the packed input bits, calls ``lane_out`` with mask 1 and packs
the outputs.

Two tiers
---------
:class:`CompiledNetlist` (cached per frozen netlist, see
:meth:`Netlist.compile`) builds one *slot program* -- each gate's kind and
operand slots -- and both backends run it under the same
``(I, mask, hit, fix)`` contract: the generated source of :meth:`_source`,
and an interpreted lane kernel (:meth:`_interpreter`) that walks the
program, masks the inputs the same way, calls ``fix(slot, value,
operands)`` on every hit slot with the operands in pin order (``()`` for
inputs and CONST gates) and returns the same list.  Every evaluator slot
starts as a stub that counts its calls: calls ``1 .. COMPILE_ON_CALL - 1``
run the interpreter, built on the first of them; call ``COMPILE_ON_CALL``
generates and compiles the real evaluator, installs it in the stub's place
and drops the interpreter, so later calls pay nothing extra.  A sweep, and
the serial oracle too, only ever calls ``lane_out`` of a netlist.

``COMPILE_ON_CALL`` is the break-even of code generation.  On a 2-CPU
x86-64 host (CPython 3.11), generating and compiling an evaluator costs
25-50 us per slot, and an interpreted call costs 0.15-0.25 us per slot
more than a compiled one when no slot is hit, 0.35-0.45 us when every
slot is, so compiling pays back after roughly 60-250 calls of the same
evaluator.  Compiling on call ``K`` is the ski-rental rule: it costs at
most ``K - 1`` interpreted calls more than compiling up front, and at
most one compile more than never compiling.  Calls are skewed: in a
corpus sweep most controller blocks are called a few dozen times in all,
and a few hot ones (s1, dk16) hundreds to thousands of times.  Running
the three perfbench workloads' sweeps in-process with ``K`` = 1, 32, 64,
96, 128, 192 and never, ``K`` from 64 to 192 spent the least time in
kernel calls plus compiles on service-small and pop-mix (about half of
``K = 1``: no block there reaches 96 calls), and on table1-classic every
``K`` was within the run-to-run spread; 128 sits in that range.

The compiled object is deliberately excluded from pickling so controllers
can be shipped to worker processes and recompile lazily on the other side.

Equivalence of both tiers with :meth:`Netlist.evaluate_interpreted`, the
reference oracle -- all nets, stem and branch faults, arbitrary masks,
single patterns -- is enforced by property tests
(``tests/test_compiled.py``).
"""

from __future__ import annotations

from functools import reduce
from heapq import heappop, heappush
from operator import and_, itemgetter, or_, xor
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


def _gather(operands: Tuple[int, ...]) -> Callable[[List[int]], tuple]:
    """``values -> (values[o] for o in operands)`` as a tuple, in pin order.

    ``itemgetter`` of a single index returns a bare value, so one-operand
    gates get their own 1-tuple getter.
    """
    if len(operands) > 1:
        return itemgetter(*operands)
    if operands:
        (only,) = operands
        return lambda values: (values[only],)
    return lambda values: ()


#: evaluator name -> returned nets; both take ``(I, mask, hit, fix)`` and
#: share one straight-line body.
_EVALUATORS: Dict[str, str] = {"lane_all": "all", "lane_out": "out"}

#: the call of an evaluator on which it is compiled; the calls before it
#: run the interpreted lane kernel (see the module docstring).
COMPILE_ON_CALL = 128


class CompiledNetlist:
    """Slot-indexed lane evaluators for one frozen :class:`Netlist`."""

    __slots__ = (
        "name",
        "net_names",
        "index",
        "n_inputs",
        "input_names",
        "output_names",
        "output_slots",
        "_program",
        "_cone",
        "_no_overrides",
        "_lane_all",
        "_lane_out",
    )

    # Evaluator slots: a call-counting stub until compiled, then the function.
    _lane_all: Callable[..., List[int]]
    _lane_out: Callable[..., List[int]]

    def __init__(self, netlist: Netlist) -> None:
        self.name = netlist.name
        inputs = tuple(netlist.inputs)
        gates = netlist.gates
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
        #: the slot program both tiers run: gate ``g`` (slot
        #: ``n_inputs + g``) as its kind and its operand slots in pin order.
        self._program: Tuple[Tuple[GateKind, Tuple[int, ...]], ...] = tuple(
            (gate.kind, tuple(self.index[net] for net in gate.inputs))
            for gate in gates
        )
        #: :meth:`cone_outputs`' reader lists and gate steps, built on its
        #: first call.
        self._cone: Optional[Tuple[Tuple[Tuple[int, ...], ...], tuple]] = None
        #: the lane kernel's ``(hit, fix)`` for fault-free evaluation: an
        #: immutable all-zero hit table, so the fixer is never called.
        self._no_overrides: Tuple[bytes, None] = (bytes(len(self.net_names)), None)
        for evaluator in _EVALUATORS:
            setattr(self, "_" + evaluator, self._tiered(evaluator))

    # -- the two tiers ---------------------------------------------------------

    def _tiered(self, evaluator: str) -> Callable[..., Any]:
        """The stub an evaluator slot starts as: it interprets until call
        :data:`COMPILE_ON_CALL`, which compiles and installs the real
        evaluator (dropping the stub and its interpreter)."""
        calls = 0
        interpreter: Optional[Callable[..., List[int]]] = None

        def stub(*args: Any) -> Any:
            nonlocal calls, interpreter
            calls += 1
            if calls >= COMPILE_ON_CALL:
                return self._compile(evaluator)(*args)
            if interpreter is None:
                interpreter = self._interpreter(evaluator)
            return interpreter(*args)

        return stub

    def _interpreter(self, evaluator: str) -> Callable[..., List[int]]:
        """The interpreted lane kernel of one evaluator: walks the slot
        program with the generated code's ``(I, mask, hit, fix)`` contract
        and returns the same list."""
        n_inputs = self.n_inputs
        input_slots = range(n_inputs)
        # (slot, kind, first operand, other operands, operand tuple getter)
        steps = tuple(
            (slot, kind, operands[0] if operands else 0, operands[1:], _gather(operands))
            for slot, (kind, operands) in enumerate(self._program, n_inputs)
        )
        returned = None if _EVALUATORS[evaluator] == "all" else self.output_slots
        AND, OR, XOR, NOT, BUF, CONST0 = (
            GateKind.AND, GateKind.OR, GateKind.XOR,
            GateKind.NOT, GateKind.BUF, GateKind.CONST0,
        )

        def interpret(I, mask, hit, fix):
            values = [I[slot] & mask for slot in input_slots]
            for slot in input_slots:
                if hit[slot]:
                    values[slot] = fix(slot, values[slot], ())
            append = values.append
            for slot, kind, first, rest, gather in steps:
                if kind is AND:
                    v = values[first]
                    for operand in rest:
                        v &= values[operand]
                elif kind is OR:
                    v = values[first]
                    for operand in rest:
                        v |= values[operand]
                elif kind is NOT:
                    v = ~values[first] & mask
                elif kind is BUF:
                    v = values[first]
                elif kind is XOR:
                    v = values[first]
                    for operand in rest:
                        v ^= values[operand]
                elif kind is CONST0:
                    v = 0
                else:  # CONST1
                    v = mask
                if hit[slot]:
                    v = fix(slot, v, gather(values))
                append(v)
            if returned is None:
                return values
            return [values[slot] for slot in returned]

        return interpret

    def _compile(self, evaluator: str) -> Callable[..., Any]:
        """Generate, compile and install one evaluator; returns it.

        Two threads racing on the same call may both compile; each
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
        for slot, (kind, operand_slots) in enumerate(self._program, self.n_inputs):
            operands = tuple(f"v{operand}" for operand in operand_slots)
            body.append(f"    v{slot} = {_operand_expr(kind, operands, 'mask')}")
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
        program = self._program
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
                    0 <= gate_index < len(program)
                    and 0 <= pin < len(program[gate_index][1])
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
                _REDUCE[program[slot - n_inputs][0]],
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

    def cone_outputs(self, values: Sequence[int], mask: int, fault: Fault) -> List[int]:
        """Marked outputs under one fault, re-evaluating only its fanout cone.

        ``values`` holds the fault-free value of every net in slot order
        (one :meth:`lane_eval` call over the ``mask``-wide streams).  The
        fault's stem or pin override gives its site a new value; then the
        gates reading a changed net are re-evaluated in slot (topological)
        order, and an event whose value equals the fault-free one stops
        there.  The result equals ``lane_eval_outputs`` with the fault as
        one lane spanning ``mask``, and a fault on a net or pin unknown to
        this netlist is a no-op, as in :meth:`lane_overrides`.
        """
        n_inputs = self.n_inputs
        readers, steps = self._cone or self._cone_tables()
        stuck = mask if fault.stuck_at else 0
        gate_index = fault.gate_index
        if gate_index is None:
            site = self.index.get(fault.net)
            value = stuck
        elif 0 <= gate_index < len(steps) and 0 <= fault.pin < len(
            self._program[gate_index][1]
        ):
            site = n_inputs + gate_index
            operator, _first, gather = steps[gate_index]
            pinned = list(gather(values))
            pinned[fault.pin] = stuck
            value = (
                ~pinned[0] & mask if operator is None else reduce(operator, pinned)
            )
        else:
            site = None
        if site is None or value == values[site]:
            return [values[slot] for slot in self.output_slots]
        current = list(values)
        current[site] = value
        pending = list(readers[site])
        queued = set(pending)
        while pending:
            slot = heappop(pending)
            operator, first, gather = steps[slot - n_inputs]
            if operator is None:  # NOT
                value = ~current[first] & mask
            else:
                value = reduce(operator, gather(current))
            if value != values[slot]:
                current[slot] = value
                for reader in readers[slot]:
                    if reader not in queued:
                        queued.add(reader)
                        heappush(pending, reader)
        return [current[slot] for slot in self.output_slots]

    def _cone_tables(self) -> Tuple[Tuple[Tuple[int, ...], ...], tuple]:
        """Build, store and return :meth:`cone_outputs`' tables.

        ``readers[slot]`` lists the gate slots reading ``slot`` in
        ascending order, a gate reading one net on several pins once;
        ``steps[g]`` is gate ``g``'s recompute operator (:data:`_REDUCE`),
        first operand slot and operand getter.  CONST gates read nothing,
        so no event ever reaches them.
        """
        readers: List[List[int]] = [[] for _ in self.net_names]
        steps = []
        for slot, (kind, operands) in enumerate(self._program, self.n_inputs):
            for operand in set(operands):
                readers[operand].append(slot)
            steps.append(
                (
                    _REDUCE.get(kind),
                    operands[0] if operands else 0,
                    _gather(operands),
                )
            )
        self._cone = (tuple(tuple(slots) for slots in readers), tuple(steps))
        return self._cone

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
        one-lane overrides; the kernel is looked up on every call, so a
        compile installed by any call is reused by the later ones.
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
