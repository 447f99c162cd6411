"""Gate-level combinational netlists with bit-parallel evaluation.

A :class:`Netlist` is a combinational network: primary inputs, named nets,
and gates (AND/OR/NOT/XOR/BUF/CONST0/CONST1) in topological order.
Sequential behaviour (registers, BIST modes) is layered on top by
:mod:`repro.bist.architectures`, which keeps this class purely
combinational and easy to reason about.

Evaluation is **bit-parallel**: every net carries a Python integer whose
bit ``k`` is the net's value under pattern ``k``.  This gives pattern-
parallel fault simulation (PPSFP style) for free, with no numpy dependency
in the hot loop.

Fault injection: a :class:`Fault` pins either a net (stem fault) or a
specific gate input pin (branch fault) to a constant.  Branch faults are
what make fanout points independently testable, so they are first-class.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..exceptions import NetlistError

if TYPE_CHECKING:  # import cycle: compiled.py imports this module
    from .compiled import CompiledNetlist


class GateKind(Enum):
    AND = "and"
    OR = "or"
    NOT = "not"
    XOR = "xor"
    BUF = "buf"
    CONST0 = "const0"
    CONST1 = "const1"


_ARITY_AT_LEAST = {
    GateKind.AND: 1,
    GateKind.OR: 1,
    GateKind.XOR: 1,
    GateKind.NOT: 1,
    GateKind.BUF: 1,
    GateKind.CONST0: 0,
    GateKind.CONST1: 0,
}
_ARITY_EXACT = {GateKind.NOT: 1, GateKind.BUF: 1, GateKind.CONST0: 0, GateKind.CONST1: 0}


@dataclass(frozen=True)
class Gate:
    """One gate: ``output = kind(inputs)``."""

    kind: GateKind
    output: str
    inputs: Tuple[str, ...]


@dataclass(frozen=True)
class Fault:
    """A single stuck-at fault.

    ``gate_index is None``: stem fault on net ``net``.
    Otherwise: branch fault on input pin ``pin`` of gate ``gate_index``
    (``net`` then records the attached net, for reporting).
    """

    net: str
    stuck_at: int
    gate_index: Optional[int] = None
    pin: Optional[int] = None

    def __post_init__(self) -> None:
        if self.stuck_at not in (0, 1):
            raise NetlistError(f"stuck_at must be 0 or 1, got {self.stuck_at}")

    @property
    def is_stem(self) -> bool:
        return self.gate_index is None

    def describe(self) -> str:
        location = (
            f"net {self.net}"
            if self.is_stem
            else f"gate#{self.gate_index}.pin{self.pin} ({self.net})"
        )
        return f"{location} stuck-at-{self.stuck_at}"


class Netlist:
    """A combinational gate network over named nets."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._inputs: List[str] = []
        self._outputs: List[str] = []
        self._gates: List[Gate] = []
        self._driven: Dict[str, int] = {}  # net -> driving gate index
        self._frozen = False
        # Structure caches, valid once frozen (hot loops read these).
        self._inputs_cache: Optional[Tuple[str, ...]] = None
        self._outputs_cache: Optional[Tuple[str, ...]] = None
        self._gates_cache: Optional[Tuple[Gate, ...]] = None
        self._compiled = None  # lazily built CompiledNetlist

    # -- construction -------------------------------------------------------

    def add_input(self, net: str) -> str:
        self._check_mutable()
        if net in self._driven or net in self._inputs:
            raise NetlistError(f"net {net!r} already exists")
        self._inputs.append(net)
        return net

    def add_gate(self, kind: GateKind, output: str, inputs: Sequence[str]) -> str:
        self._check_mutable()
        inputs = tuple(inputs)
        if output in self._driven or output in self._inputs:
            raise NetlistError(f"net {output!r} already driven")
        minimum = _ARITY_AT_LEAST[kind]
        if len(inputs) < minimum:
            raise NetlistError(f"{kind.value} gate needs >= {minimum} inputs")
        if kind in _ARITY_EXACT and len(inputs) != _ARITY_EXACT[kind]:
            raise NetlistError(
                f"{kind.value} gate takes exactly {_ARITY_EXACT[kind]} input(s)"
            )
        for net in inputs:
            if net not in self._driven and net not in self._inputs:
                raise NetlistError(
                    f"gate input {net!r} is not a primary input or driven net "
                    "(add gates in topological order)"
                )
        self._gates.append(Gate(kind, output, inputs))
        self._driven[output] = len(self._gates) - 1
        return output

    def mark_output(self, net: str) -> None:
        self._check_mutable()
        if net not in self._driven and net not in self._inputs:
            raise NetlistError(f"cannot mark unknown net {net!r} as output")
        self._outputs.append(net)

    def freeze(self) -> "Netlist":
        """Seal the structure; caches the hot-loop tuples and enables
        compiled evaluation (built lazily on first use, see :meth:`compile`)."""
        self._frozen = True
        self._inputs_cache = tuple(self._inputs)
        self._outputs_cache = tuple(self._outputs)
        self._gates_cache = tuple(self._gates)
        return self

    def _check_mutable(self) -> None:
        if self._frozen:
            raise NetlistError(f"netlist {self.name!r} is frozen")

    # -- structure queries ----------------------------------------------------

    @property
    def frozen(self) -> bool:
        """Whether the structure is sealed (and therefore compilable)."""
        return self._frozen

    @property
    def inputs(self) -> Tuple[str, ...]:
        if self._inputs_cache is not None:
            return self._inputs_cache
        return tuple(self._inputs)

    @property
    def outputs(self) -> Tuple[str, ...]:
        if self._outputs_cache is not None:
            return self._outputs_cache
        return tuple(self._outputs)

    @property
    def gates(self) -> Tuple[Gate, ...]:
        if self._gates_cache is not None:
            return self._gates_cache
        return tuple(self._gates)

    @property
    def n_gates(self) -> int:
        return len(self._gates)

    def nets(self) -> List[str]:
        return list(self._inputs) + [gate.output for gate in self._gates]

    def levels(self) -> Dict[str, int]:
        """Unit-delay level of every net (inputs at level 0)."""
        level: Dict[str, int] = {net: 0 for net in self._inputs}
        for gate in self._gates:
            level[gate.output] = (
                1 + max((level[i] for i in gate.inputs), default=0)
                if gate.inputs
                else 0
            )
        return level

    def critical_path(self) -> int:
        """Unit-delay depth from inputs to the deepest output."""
        level = self.levels()
        return max((level[net] for net in self._outputs), default=0)

    def literal_count(self) -> int:
        """Total gate input pins (a technology-independent area proxy)."""
        return sum(len(gate.inputs) for gate in self._gates)

    # -- compiled evaluation ---------------------------------------------------

    def compile(self) -> "CompiledNetlist":
        """The :class:`~repro.netlist.compiled.CompiledNetlist` of this netlist.

        Only frozen netlists can be compiled (mutation would invalidate the
        generated code); the result is cached, so repeated calls are free.
        """
        if not self._frozen:
            raise NetlistError(
                f"netlist {self.name!r} must be frozen before compiling"
            )
        if self._compiled is None:
            from .compiled import CompiledNetlist

            self._compiled = CompiledNetlist(self)
        return self._compiled

    @property
    def compiled(self) -> "Optional[CompiledNetlist]":
        """Compiled evaluators when available (frozen netlists), else ``None``."""
        return self.compile() if self._frozen else None

    def __getstate__(self) -> Dict[str, object]:
        # Generated functions are not picklable; workers recompile lazily.
        state = self.__dict__.copy()
        state["_compiled"] = None
        return state

    # -- evaluation ------------------------------------------------------------

    def evaluate(
        self,
        input_values: Dict[str, int],
        mask: int = 1,
        fault: Optional[Fault] = None,
    ) -> Dict[str, int]:
        """Bit-parallel evaluation; returns values for every net.

        ``input_values`` maps each primary input to an integer of pattern
        bits; ``mask`` must have a 1 for every pattern position in use (it
        implements bounded negation).  ``fault`` optionally pins one stem or
        branch to a constant.

        Frozen netlists evaluate through the compiled slot-indexed lane
        kernel of :mod:`repro.netlist.compiled`, the fault as one lane
        spanning ``mask``; :meth:`evaluate_interpreted` keeps the original
        walker available as the equivalence oracle.
        """
        if self._frozen:
            compiled = self.compile()
            values_list = compiled.lane_eval(
                compiled.pack_inputs(input_values),
                mask,
                None if fault is None else compiled.lane_overrides([(fault, mask)]),
            )
            return dict(zip(compiled.net_names, values_list))
        return self.evaluate_interpreted(input_values, mask=mask, fault=fault)

    def evaluate_interpreted(
        self,
        input_values: Dict[str, int],
        mask: int = 1,
        fault: Optional[Fault] = None,
    ) -> Dict[str, int]:
        """Reference dict-keyed evaluation (the original interpreted walker)."""
        values: Dict[str, int] = {}
        stuck = 0
        if fault is not None:
            stuck = mask if fault.stuck_at else 0
        for net in self._inputs:
            if net not in input_values:
                raise NetlistError(f"missing value for primary input {net!r}")
            value = input_values[net] & mask
            if fault is not None and fault.is_stem and fault.net == net:
                value = stuck
            values[net] = value

        for index, gate in enumerate(self._gates):
            operands = [values[i] for i in gate.inputs]
            if (
                fault is not None
                and not fault.is_stem
                and fault.gate_index == index
            ):
                operands[fault.pin] = stuck
            if gate.kind is GateKind.AND:
                result = mask
                for operand in operands:
                    result &= operand
            elif gate.kind is GateKind.OR:
                result = 0
                for operand in operands:
                    result |= operand
            elif gate.kind is GateKind.XOR:
                result = 0
                for operand in operands:
                    result ^= operand
            elif gate.kind is GateKind.NOT:
                result = ~operands[0] & mask
            elif gate.kind is GateKind.BUF:
                result = operands[0]
            elif gate.kind is GateKind.CONST0:
                result = 0
            else:  # CONST1
                result = mask
            if fault is not None and fault.is_stem and fault.net == gate.output:
                result = stuck
            values[gate.output] = result
        return values

    def evaluate_outputs(
        self,
        input_values: Dict[str, int],
        mask: int = 1,
        fault: Optional[Fault] = None,
    ) -> Dict[str, int]:
        """Like :meth:`evaluate` but returns only the marked outputs."""
        if self._frozen:
            compiled = self.compile()
            outputs = compiled.lane_eval_outputs(
                compiled.pack_inputs(input_values),
                mask,
                None if fault is None else compiled.lane_overrides([(fault, mask)]),
            )
            return dict(zip(compiled.output_names, outputs))
        values = self.evaluate_interpreted(input_values, mask=mask, fault=fault)
        return {net: values[net] for net in self._outputs}

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}, inputs={len(self._inputs)}, "
            f"gates={len(self._gates)}, outputs={len(self._outputs)})"
        )
