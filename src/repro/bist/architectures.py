"""The four controller architectures of the paper's Figures 1-4.

* :class:`PlainController` (Fig. 1): combinational block ``C`` plus system
  register ``R`` -- no self-test capability.
* :class:`ConventionalBistController` (Fig. 2): adds a transparent test
  register ``T`` in the feedback path.  Self-test: ``T`` generates patterns
  into ``C``, ``R`` compacts responses.  Drawbacks modelled explicitly:
  doubled flip-flops, +1 mux level on the critical path in system mode, and
  feedback lines ``R -> T`` that the self-test never exercises.
* :class:`DoubledController` (Fig. 3): duplicates ``C`` and ``R`` into a
  ring; two sessions with alternating generator/compactor roles; no
  transparency, full structural coverage, but ~2x area.
* :class:`PipelineController` (Fig. 4): the paper's contribution -- the
  OSTR realization's blocks ``C1``/``C2`` with registers ``R1``/``R2`` in a
  pipeline ring, plus the output function ``lambda*``.  Two self-test
  sessions, no extra registers, no transparency.

Every architecture exposes the same protocol used by the fault-coverage
machinery:

* ``fault_universe()``: list of ``(block, Fault)`` pairs,
* ``fault_blocks()``: block label -> underlying :class:`Netlist` (``None``
  for architecture-level pseudo-nets), which is what lets
  :mod:`repro.faults.collapse` build per-block equivalence classes,
* ``self_test_signatures(fault=(block, Fault) | None)``: deterministic
  signature tuple of the full self-test.  Each serial session is written
  once over :func:`_block_evaluator`; its ``engine=`` option picks the
  kernel, the compiled lane kernel (``"compiled"``, default) or the
  interpreted netlist walker, the reference oracle (``"interpreted"``),
* ``system_step(...)`` / behavioural verification hooks,
* ``flipflops`` / ``critical_path()`` / ``gate_inputs()`` area metrics.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, TypeVar, Union

from ..encoding import (
    EncodedMachine,
    EncodedRealization,
    encode_machine,
    encode_realization,
)
from ..exceptions import BistError
from ..faults.coverage import (
    FAULT_DETECTED,
    FAULT_DROPPED,
    FAULT_MISSED,
    SESSION_ENGINES,
)
from ..faults.simulator import lane_passes, superposed_fields
from ..faults.stuck_at import all_faults
from ..fsm import MealyMachine
from ..fsm.machine import Symbol
from ..logic.synth import MultiOutputCover, synthesize_table
from ..netlist import Netlist, cover_to_netlist
from ..netlist.netlist import Fault
from ..ostr.theorem1 import PipelineRealization
from .compaction import (
    LaneMisr,
    LinearCompactor,
    broadcast_lanes,
    stream_errors,
    transpose_words,
)
from .lfsr import Lfsr
from .misr import Misr

BlockFault = Tuple[str, Fault]
#: register content of a controller (a state code, or the R1/R2 pair).
Registers = TypeVar("Registers")


def _lane_fault_assignments(compiled, faults: Sequence[Fault]):
    """(lane_mask, overrides) packing ``faults`` into lanes 1..len(faults).

    Lane 0 is left fault-free as the in-band sanity reference.
    """
    lane_mask = (1 << (len(faults) + 1)) - 1
    overrides = compiled.lane_overrides(
        [(fault, 1 << (lane + 1)) for lane, fault in enumerate(faults)]
    )
    return lane_mask, overrides


def _lane_signature_outcomes(
    banks: Sequence[Union[LaneMisr, _EmptyRegister]],
    reference: Tuple[int, ...],
    n_faults: int,
    session_label: str,
) -> List[int]:
    """Per-lane final-signature verdicts against the fault-free reference.

    ``banks`` are the session's signature registers in tuple order; lane 0
    must reproduce the fault-free reference exactly (any divergence means
    the superposed replay is broken, so fail loudly rather than mis-grade
    the whole batch).  The reference comes from code the lane replay does
    not share: the serial session of the parallel self-test, and the
    bit-parallel :meth:`PipelineController._session_reference`.
    """
    if tuple(bank.lane_signature(0) for bank in banks) != reference:
        raise BistError(
            f"superposed {session_label}: fault-free lane diverged from "
            "the reference signatures"
        )
    outcomes = []
    for lane in range(1, n_faults + 1):
        signatures = tuple(bank.lane_signature(lane) for bank in banks)
        outcomes.append(
            FAULT_DETECTED if signatures != reference else FAULT_MISSED
        )
    return outcomes


def _scatter_blocks(
    block_faults: Sequence[BlockFault],
    resolve: Callable[[str, List[Fault]], List[int]],
) -> List[int]:
    """Resolve a batch one block at a time, codes back in batch order.

    ``resolve(block, faults)`` returns one outcome code per fault of that
    block; grouping lets each block's faults share field-packed passes.
    """
    positions: Dict[str, List[int]] = {}
    for index, (block, _fault) in enumerate(block_faults):
        positions.setdefault(block, []).append(index)
    outcomes = [FAULT_MISSED] * len(block_faults)
    for block, indices in positions.items():
        codes = resolve(block, [block_faults[index][1] for index in indices])
        for index, code in zip(indices, codes):
            outcomes[index] = code
    return outcomes


def _drive(names: Sequence[str], bits: int) -> Dict[str, int]:
    """Map net names to single-pattern values from an integer (bit0 = names[0])."""
    return {name: (bits >> position) & 1 for position, name in enumerate(names)}


def _collect(values: Dict[str, int], names: Sequence[str]) -> int:
    return sum((values[name] & 1) << position for position, name in enumerate(names))


def _code_to_int(code: str) -> int:
    """Bit-vector string (MSB first) -> integer with bit0 = first char."""
    return sum((1 << position) for position, ch in enumerate(code) if ch == "1")


def _int_to_code(value: int, width: int) -> str:
    return "".join("1" if (value >> position) & 1 else "0" for position in range(width))


def _block_evaluator(
    network: Netlist, fault: Optional[Fault], engine: str
) -> Callable[[int], int]:
    """``bits -> bits`` evaluator of one block under ``fault`` (``None``:
    fault-free) -- the combinational step of every serial session.

    Input ``i`` of the block is bit ``i`` of the argument and output
    ``j`` is bit ``j`` of the result.  ``engine="compiled"`` runs the
    compiled lane kernel with the fault in its single lane
    (:meth:`~repro.netlist.compiled.CompiledNetlist.single_pattern`);
    ``engine="interpreted"`` walks the dict-keyed interpreted netlist,
    the reference oracle.
    """
    if engine == "compiled":
        return network.compile().single_pattern(fault)
    if engine != "interpreted":
        raise BistError(
            f"unknown session engine {engine!r}; expected one of {SESSION_ENGINES}"
        )
    inputs, outputs = network.inputs, network.outputs

    def evaluate(bits: int) -> int:
        values = network.evaluate_interpreted(_drive(inputs, bits), mask=1, fault=fault)
        return _collect(values, outputs)

    return evaluate


def _linear_session_signature(
    plain, evaluate: Callable[[int], int], cycles: int, seed: int
) -> int:
    """MISR signature of one PRPG -> C -> MISR session over ``plain``'s C.

    The generator spans C's inputs (state bits then x bits, so its state
    is C's packed input word) and the MISR compacts its outputs
    (next-state bits then z bits).  This is the session of the
    conventional (Figure 2) and doubled (Figure 3) architectures;
    ``evaluate`` is C under the session's fault (:func:`_block_evaluator`).
    """
    width = plain.state_width
    generator = _prpg(width + plain.input_width, seed)
    response_register = Misr(max(4, width + plain.output_width))
    for _ in range(cycles):
        response_register.absorb(evaluate(generator.state))
        generator.step()
    return response_register.signature


class _EmptyPrpg:
    """The generator of a session with no source bits.

    A block whose generating register and input encoding are both zero
    bits wide has exactly one input pattern, the empty one; the session
    applies it on every clock.
    """

    state = 0

    def step(self) -> int:
        return 0


class _EmptyRegister:
    """The state register of a one-state machine: zero bits wide, so its
    signature is always 0 and it feeds no input words.  Stands in for
    :class:`Misr` in the serial session and :class:`LaneMisr` in the
    superposed one."""

    signature = 0
    stages: Tuple[int, ...] = ()

    def absorb(self, data: int) -> None:
        pass

    def absorb_words(self, words: Sequence[int]) -> None:
        pass

    def lane_signature(self, lane: int) -> int:
        return 0


def _prpg(width: int, seed: int):
    """A session's free-running complete-cycle PRPG (``width`` may be 0)."""
    if width == 0:
        return _EmptyPrpg()
    return Lfsr.from_any_seed(width, seed, complete=True)


def _prpg_words(width: int, seed: int, cycles: int) -> List[int]:
    """The first ``cycles`` states of a free-running complete-cycle PRPG:
    the fault-independent pattern words of a session."""
    prpg = _prpg(width, seed)
    words = []
    for _ in range(cycles):
        words.append(prpg.state)
        prpg.step()
    return words


def _linear_session_reference(
    network, generator_width: int, misr_width: int, cycles: int, seed: int
) -> Dict[str, object]:
    """Campaign reference for one PRPG -> block -> MISR session.

    The pattern stream is fault-independent (free-running complete-cycle
    LFSR), so the whole session is captured as bit-parallel streams: one
    ``cycles``-bit integer per block input and per block output, plus the
    GF(2) model of the compacting MISR (see :mod:`repro.faults.engine`).
    """
    streams = transpose_words(_prpg_words(generator_width, seed, cycles), generator_width)
    mask = (1 << cycles) - 1
    return {
        "cycles": cycles,
        "mask": mask,
        "streams": streams,
        "ref_out": network.compile().lane_eval_outputs(streams, mask),
        "compactor": LinearCompactor(misr_width),
    }


def _linear_session_outcomes(
    network, session: Dict[str, object], faults: Sequence[Fault]
) -> List[int]:
    """Exact campaign outcomes for one linear session (with fault dropping).

    The faulty response streams of the whole session come from
    fault-per-field evaluations (:func:`superposed_fields`); a fault with
    no response error is dropped, otherwise the final MISR signature
    difference -- aliasing included -- follows from folding its error
    stream through the linear compactor.
    """
    reference = session["ref_out"]
    compactor = session["compactor"]
    outcomes = []
    for faulty in superposed_fields(
        network.compile(), session["streams"], session["mask"], reference, faults
    ):
        errors = stream_errors(faulty, reference)
        if not errors:
            outcomes.append(FAULT_DROPPED)
        elif compactor.fold_errors(errors, session["cycles"]) != 0:
            outcomes.append(FAULT_DETECTED)
        else:
            outcomes.append(FAULT_MISSED)
    return outcomes


class PlainController:
    """Figure 1: conventional synthesis result (no self-test)."""

    def __init__(self, encoded: EncodedMachine, cover: MultiOutputCover) -> None:
        self.encoded = encoded
        self.cover = cover
        self.network = cover_to_netlist(cover)
        self.state_width = encoded.state_encoding.width
        self.input_width = encoded.input_encoding.width
        self.output_width = encoded.output_encoding.width
        # C's outputs: next-state bits first, then output bits.
        self.ns_nets = self.network.outputs[: self.state_width]
        self.z_nets = self.network.outputs[self.state_width :]
        self.state_nets = self.network.inputs[: self.state_width]
        self.x_nets = self.network.inputs[self.state_width :]

    @property
    def machine(self) -> MealyMachine:
        return self.encoded.machine

    @property
    def flipflops(self) -> int:
        return self.state_width

    def critical_path(self) -> int:
        return self.network.critical_path()

    def gate_inputs(self) -> int:
        return self.network.literal_count()

    def step_codes(
        self, state_code: str, input_code: str, fault: Optional[Fault] = None
    ) -> Tuple[str, str]:
        """One system transition on encoded values."""
        inputs = {}
        inputs.update(
            {net: int(state_code[pos]) for pos, net in enumerate(self.state_nets)}
        )
        inputs.update({net: int(input_code[pos]) for pos, net in enumerate(self.x_nets)})
        values = self.network.evaluate_outputs(inputs, mask=1, fault=fault)
        next_code = "".join(str(values[net] & 1) for net in self.ns_nets)
        output_code = "".join(str(values[net] & 1) for net in self.z_nets)
        return next_code, output_code

    def system_trace(
        self, input_symbols: Sequence, fault: Optional[Fault] = None
    ) -> List[str]:
        """Output codes along a run from the reset state (for fault checks)."""
        machine = self.machine
        state_code = self.encoded.state_encoding.encode(machine.reset_state)
        outputs = []
        for symbol in input_symbols:
            input_code = self.encoded.input_encoding.encode(symbol)
            state_code, output_code = self.step_codes(state_code, input_code, fault)
            outputs.append(output_code)
        return outputs


def _check_every_transition(
    what: str,
    machine: MealyMachine,
    registers: Callable[[Symbol], Registers],
    step: Callable[[Registers, Symbol], Tuple[Registers, str]],
    output_code: Callable[[Symbol], str],
) -> None:
    """Step the netlists once from every (state, input) pair of ``machine``.

    ``registers(s)`` encodes spec state ``s``; ``step(registers, x)`` is
    one system clock, returning the next registers and the output code,
    which must encode ``delta(s, x)`` and ``lambda(s, x)``.  By induction
    from reset the controller then equals the machine on every input
    word.  Raises :class:`BistError` at the first pair that disagrees.
    """
    for state in machine.states:
        current = registers(state)
        for symbol in machine.inputs:
            next_registers, output = step(current, symbol)
            expected_state, expected_output = machine.step(state, symbol)
            if next_registers != registers(expected_state):
                wrong = "next state"
            elif output != output_code(expected_output):
                wrong = "output"
            else:
                continue
            raise BistError(
                f"{what} for {machine.name!r} disagrees with the "
                f"specification at state {state!r}, input {symbol!r}: "
                f"wrong {wrong}"
            )


def build_plain(machine: MealyMachine, method: str = "auto") -> PlainController:
    """Synthesize the Figure-1 structure and verify it against the machine."""
    encoded = encode_machine(machine)
    cover = synthesize_table(encoded.table, method=method)
    controller = PlainController(encoded, cover)
    input_code = encoded.input_encoding.encode
    _check_every_transition(
        "netlist C",
        machine,
        encoded.state_encoding.encode,
        lambda code, symbol: controller.step_codes(code, input_code(symbol)),
        encoded.output_encoding.encode,
    )
    return controller


class _SelfTestController:
    """The self-test protocol every BIST architecture shares."""

    self_test_signatures: Callable[..., Tuple[int, ...]]

    def fault_free_signatures(
        self, cycles: Optional[int] = None, seed: int = 1, **options
    ) -> Tuple[int, ...]:
        return self.self_test_signatures(fault=None, cycles=cycles, seed=seed, **options)


class _PlainSelfTest(_SelfTestController):
    """A self-test architecture built around the Figure-1 block C."""

    def __init__(self, plain: PlainController) -> None:
        self.plain = plain
        self.width = plain.state_width

    @property
    def machine(self) -> MealyMachine:
        return self.plain.machine

    def _default_cycles(self, cycles: Optional[int]) -> int:
        """Default: one complete generator cycle (exhaustive patterns for C)."""
        if cycles is not None:
            return cycles
        return min(4096, 2 ** (self.width + self.plain.input_width))


class ConventionalBistController(_PlainSelfTest):
    """Figure 2: system register R plus transparent test register T."""

    #: extra unit delay of the transparency mux in the system path
    TRANSPARENCY_DELAY = 1

    @property
    def flipflops(self) -> int:
        return 2 * self.width  # R and T

    def critical_path(self) -> int:
        """System-mode path: C plus the transparency mux of T."""
        return self.plain.critical_path() + self.TRANSPARENCY_DELAY

    def gate_inputs(self) -> int:
        # C plus a 2-to-1 mux (3 gate inputs) per T bit for the bypass.
        return self.plain.gate_inputs() + 3 * self.width

    # -- fault universe --------------------------------------------------------

    def fault_universe(self) -> List[BlockFault]:
        """All stuck-at faults of C plus the R->T feedback-line faults."""
        faults: List[BlockFault] = [("C", f) for f in all_faults(self.plain.network)]
        faults.extend(("FEEDBACK", f) for f in self.feedback_faults())
        return faults

    def fault_blocks(self) -> Dict[str, Optional[Netlist]]:
        """Block -> netlist; FEEDBACK is architecture-level (no netlist),
        so its pseudo-stem faults never collapse."""
        return {"C": self.plain.network, "FEEDBACK": None}

    def feedback_faults(self) -> List[Fault]:
        """Stuck-ats on the R -> T lines (drawback 3 of the paper).

        These nets exist only at the architecture level; they are modelled
        as pseudo-stem faults named ``fb<j>``.
        """
        faults = []
        for position in range(self.width):
            faults.append(Fault(net=f"fb{position}", stuck_at=0))
            faults.append(Fault(net=f"fb{position}", stuck_at=1))
        return faults

    # -- self-test ----------------------------------------------------------------

    def self_test_signatures(
        self,
        fault: Optional[BlockFault] = None,
        cycles: Optional[int] = None,
        seed: int = 1,
        engine: str = "compiled",
    ) -> Tuple[int, ...]:
        """One-session self-test: T(PRPG) -> C -> R(MISR).

        The feedback lines R -> T carry no live data during the session, so
        ``FEEDBACK`` faults provably cannot change the signature; the
        session runs fault-free for them, which is the paper's point about
        this architecture.

        ``engine`` picks the session kernel (:func:`_block_evaluator`):
        ``"compiled"`` (default) or the ``"interpreted"`` reference oracle,
        bit-identical by property test.
        """
        network_fault = fault[1] if fault is not None and fault[0] == "C" else None
        return (
            _linear_session_signature(
                self.plain,
                _block_evaluator(self.plain.network, network_fault, engine),
                self._default_cycles(cycles),
                seed,
            ),
        )

    # -- campaign fast path (see repro.faults.engine) -------------------------

    def campaign_reference(
        self, cycles: Optional[int] = None, seed: int = 1, **_options
    ) -> Dict[str, object]:
        plain = self.plain
        return _linear_session_reference(
            plain.network,
            self.width + plain.input_width,
            max(4, self.width + plain.output_width),
            self._default_cycles(cycles),
            seed,
        )

    def campaign_detects_batch(
        self, bundle: Dict[str, object], block_faults: Sequence[BlockFault]
    ) -> List[int]:
        """Outcome codes for a batch of faults (the engine's batch protocol).

        The session is fully linear (free-running PRPG patterns), so the
        ``C`` faults resolve through fault-per-field evaluations of the
        whole session; ``FEEDBACK`` faults carry no live data on R -> T
        and are dropped.
        """
        return _scatter_blocks(
            block_faults,
            lambda block, faults: (
                _linear_session_outcomes(self.plain.network, bundle, faults)
                if block == "C"
                else [FAULT_DROPPED] * len(faults)
            ),
        )

    def system_detectable_feedback_fault(
        self, fault: Fault, input_symbols: Sequence
    ) -> bool:
        """Does a feedback-line fault disturb *system* operation?

        Demonstrates that the faults missed by the Figure-2 self-test are
        functionally relevant: in system mode the state travels R -> T -> C,
        so a stuck feedback line corrupts the state word.
        """
        position = int(fault.net[2:])
        machine = self.machine
        encoding = self.plain.encoded.state_encoding
        good_code = encoding.encode(machine.reset_state)
        bad_code = good_code
        good_outputs, bad_outputs = [], []
        for symbol in input_symbols:
            input_code = self.plain.encoded.input_encoding.encode(symbol)
            good_code, good_out = self.plain.step_codes(good_code, input_code)
            corrupted = (
                bad_code[:position]
                + str(fault.stuck_at)
                + bad_code[position + 1 :]
            )
            bad_code, bad_out = self.plain.step_codes(corrupted, input_code)
            good_outputs.append(good_out)
            bad_outputs.append(bad_out)
        return good_outputs != bad_outputs


def build_conventional_bist(
    machine: MealyMachine, method: str = "auto"
) -> ConventionalBistController:
    return ConventionalBistController(build_plain(machine, method=method))


class ParallelSelfTestController(_PlainSelfTest):
    """Figure-1 structure operated as a *parallel self-test*.

    Section 1 of the paper: "This kind of parallel self-test, where the
    signatures are used as test patterns, is only feasible in a few cases,
    but in general the required properties of the test patterns cannot be
    guaranteed [18, 13]."

    Here the single register R simultaneously compacts C's next-state
    responses (MISR mode) and supplies C's state inputs -- its successive
    signature states *are* the patterns.  Nothing guarantees those states
    sweep the input space: the state trajectory can collapse into a short
    cycle, leaving much of C unexercised.  :meth:`pattern_statistics`
    measures exactly that, and the coverage benches show the resulting
    gap against the two-session architectures.
    """

    @property
    def flipflops(self) -> int:
        return self.width  # no extra register at all

    def critical_path(self) -> int:
        return self.plain.critical_path()

    def gate_inputs(self) -> int:
        return self.plain.gate_inputs()

    def fault_universe(self) -> List[BlockFault]:
        return [("C", f) for f in all_faults(self.plain.network)]

    def fault_blocks(self) -> Dict[str, Optional[Netlist]]:
        return {"C": self.plain.network}

    def self_test_signatures(
        self,
        fault: Optional[BlockFault] = None,
        cycles: Optional[int] = None,
        seed: int = 1,
        engine: str = "compiled",
    ) -> Tuple[int, ...]:
        """Signature-as-pattern session.

        The state patterns are the compacting register's own trajectory, so
        they depend on every faulty response and the session cannot be
        unrolled pattern-parallel over *cycles* (which is the paper's
        criticism of the architecture).  Campaigns instead superpose over
        *faults*: :meth:`campaign_detects_batch` packs one faulty machine
        per bit lane -- each lane carrying its own register trajectory --
        and replays all of them in one multi-lane evaluation per cycle.
        :meth:`_session` remains the one-fault-at-a-time oracle; ``engine``
        picks its kernel (:func:`_block_evaluator`).
        """
        evaluate = _block_evaluator(
            self.plain.network, fault[1] if fault is not None else None, engine
        )
        return self._session(evaluate, self._default_cycles(cycles), seed)

    def _session(
        self,
        evaluate: Callable[[int], int],
        cycles: int,
        seed: int,
        visited: Optional[Set[int]] = None,
    ) -> Tuple[int, int]:
        """The serial session; returns (R's signature, output MISR's).

        R compacts C's next-state lines and feeds its signature back as
        C's state inputs; a free-running PRPG drives the primary inputs
        and an output MISR compacts the z lines.  ``visited`` collects the
        state patterns applied.  A one-state machine's R is zero bits wide
        (:class:`_EmptyRegister`).
        """
        plain = self.plain
        width = self.width
        register: Union[Misr, _EmptyRegister] = (
            Misr(width, seed % (1 << width)) if width else _EmptyRegister()
        )
        input_register = _prpg(plain.input_width, seed)
        output_misr = Misr(max(4, plain.output_width))
        state_mask = (1 << width) - 1
        for _ in range(cycles):
            state = register.signature
            if visited is not None:
                visited.add(state)
            # C's inputs are the state bits then x; its outputs are the
            # next-state lines then the z lines.
            packed = evaluate(state | (input_register.state << width))
            register.absorb(packed & state_mask)
            output_misr.absorb(packed >> width)
            input_register.step()
        return (register.signature, output_misr.signature)

    # -- campaign fast path (see repro.faults.engine) -------------------------

    def campaign_reference(
        self, cycles: Optional[int] = None, seed: int = 1, **_options
    ) -> Dict[str, object]:
        """Session parameters + fault-free signatures for the batch path.

        Unlike the linear architectures there are no precomputable pattern
        streams (the patterns are fault-dependent); the bundle pins the
        session and the signatures every superposed lane is graded against.
        """
        cycles = self._default_cycles(cycles)
        return {
            "cycles": cycles,
            "seed": seed,
            "signatures": self._session(
                _block_evaluator(self.plain.network, None, "compiled"), cycles, seed
            ),
        }

    def campaign_detects_batch(
        self, bundle: Dict[str, object], block_faults: Sequence[BlockFault]
    ) -> List[int]:
        """Superposed campaign: every fault simulates in its own bit lane."""
        outcomes: List[int] = []
        for group in lane_passes(list(block_faults)):
            outcomes.extend(
                self._superposed_outcomes(
                    bundle["cycles"],
                    bundle["seed"],
                    [fault for _block, fault in group],
                    bundle["signatures"],
                )
            )
        return outcomes

    def _superposed_outcomes(
        self,
        cycles: int,
        seed: int,
        faults: Sequence[Fault],
        reference: Tuple[int, ...],
    ) -> List[int]:
        """Replay the session once with ``len(faults)`` faulty lanes.

        Lane 0 carries the fault-free machine; lane ``l`` pins fault
        ``faults[l-1]``.  The state register and output MISR run bit-sliced
        (:class:`LaneMisr`), so each lane's signature trajectory -- state
        feedback included -- is exactly the serial loop's for that fault.
        """
        plain = self.plain
        compiled = plain.network.compile()
        lane_mask, overrides = _lane_fault_assignments(compiled, faults)
        width = self.width
        register: Union[LaneMisr, _EmptyRegister] = (
            LaneMisr(width, lane_mask, seed % (1 << width))
            if width
            else _EmptyRegister()
        )
        input_register = _prpg(plain.input_width, seed)
        output_misr = LaneMisr(max(4, plain.output_width))
        lane_eval_outputs = compiled.lane_eval_outputs
        for _ in range(cycles):
            input_words = list(register.stages) + broadcast_lanes(
                input_register.state, plain.input_width, lane_mask
            )
            # network outputs are the next-state lines then the z lines
            out_words = lane_eval_outputs(input_words, lane_mask, overrides)
            register.absorb_words(out_words[:width])
            output_misr.absorb_words(out_words[width:])
            input_register.step()
        return _lane_signature_outcomes(
            (register, output_misr), reference, len(faults), "parallel self-test"
        )

    def pattern_statistics(
        self, cycles: Optional[int] = None, seed: int = 1
    ) -> Tuple[int, int]:
        """(distinct state patterns applied, total state codes).

        The paper's point quantified: the signature trajectory usually
        covers only a fraction of the ``2^width`` state patterns.
        """
        visited: Set[int] = set()
        self._session(
            _block_evaluator(self.plain.network, None, "compiled"),
            self._default_cycles(cycles),
            seed,
            visited,
        )
        return (len(visited), 1 << self.width)


def build_parallel_self_test(
    machine: MealyMachine, method: str = "auto"
) -> ParallelSelfTestController:
    return ParallelSelfTestController(build_plain(machine, method=method))


class DoubledController(_PlainSelfTest):
    """Figure 3: duplicated register and combinational circuitry."""

    @property
    def flipflops(self) -> int:
        return 2 * self.width

    def critical_path(self) -> int:
        return self.plain.critical_path()  # no transparency mux

    def gate_inputs(self) -> int:
        return 2 * self.plain.gate_inputs()

    def fault_universe(self) -> List[BlockFault]:
        base = all_faults(self.plain.network)
        return [("C_a", f) for f in base] + [("C_b", f) for f in base]

    def fault_blocks(self) -> Dict[str, Optional[Netlist]]:
        """Both copies share one synthesized netlist, but their faults are
        distinct physical faults: classes never merge across blocks."""
        return {"C_a": self.plain.network, "C_b": self.plain.network}

    def self_test_signatures(
        self,
        fault: Optional[BlockFault] = None,
        cycles: Optional[int] = None,
        seed: int = 1,
        engine: str = "compiled",
    ) -> Tuple[int, ...]:
        """Two sessions: each copy is exercised by the other register."""
        cycles = self._default_cycles(cycles)
        return tuple(
            _linear_session_signature(
                self.plain,
                _block_evaluator(
                    self.plain.network,
                    fault[1] if fault is not None and fault[0] == block else None,
                    engine,
                ),
                cycles,
                seed + session,
            )
            for session, block in enumerate(("C_a", "C_b"))
        )

    # -- campaign fast path (see repro.faults.engine) -------------------------

    def campaign_reference(
        self, cycles: Optional[int] = None, seed: int = 1, **_options
    ) -> Dict[str, object]:
        plain = self.plain
        cycles = self._default_cycles(cycles)
        misr_width = max(4, self.width + plain.output_width)
        generator_width = self.width + plain.input_width
        return {
            block: _linear_session_reference(
                plain.network, generator_width, misr_width, cycles, seed + session
            )
            for session, block in enumerate(("C_a", "C_b"))
        }

    def campaign_detects_batch(
        self, bundle: Dict[str, object], block_faults: Sequence[BlockFault]
    ) -> List[int]:
        """Outcome codes per fault; both sessions are fully linear."""
        return _scatter_blocks(
            block_faults,
            lambda block, faults: _linear_session_outcomes(
                self.plain.network, bundle[block], faults
            ),
        )



def build_doubled(machine: MealyMachine, method: str = "auto") -> DoubledController:
    return DoubledController(build_plain(machine, method=method))


class PipelineController(_SelfTestController):
    """Figure 4/8: the paper's optimized self-testable structure."""

    def __init__(
        self,
        encoded: EncodedRealization,
        c1_cover: MultiOutputCover,
        c2_cover: MultiOutputCover,
        lambda_cover: MultiOutputCover,
    ) -> None:
        self.encoded = encoded
        self.c1 = cover_to_netlist(c1_cover)
        self.c2 = cover_to_netlist(c2_cover)
        self.lambda_net = cover_to_netlist(lambda_cover)
        self.w1, self.w2 = encoded.register_widths
        self.input_width = encoded.input_encoding.width
        self.output_width = encoded.output_encoding.width

    @property
    def realization(self) -> PipelineRealization:
        return self.encoded.realization

    @property
    def machine(self) -> MealyMachine:
        return self.realization.spec

    @property
    def flipflops(self) -> int:
        return self.w1 + self.w2

    def critical_path(self) -> int:
        """Longest register-to-register / register-to-output path."""
        return max(
            self.c1.critical_path(),
            self.c2.critical_path(),
            self.lambda_net.critical_path(),
        )

    def gate_inputs(self) -> int:
        return (
            self.c1.literal_count()
            + self.c2.literal_count()
            + self.lambda_net.literal_count()
        )

    # -- system mode ---------------------------------------------------------

    def system_step(
        self,
        r1: int,
        r2: int,
        input_code: str,
        faults: Optional[Dict[str, Fault]] = None,
    ) -> Tuple[int, int, str]:
        """One clock: returns (next r1, next r2, output code)."""
        faults = faults or {}
        x_value = _code_to_int(input_code)
        c1_inputs = _drive(self.c1.inputs[: self.w1], r1)
        c1_inputs.update(_drive(self.c1.inputs[self.w1 :], x_value))
        c1_out = self.c1.evaluate_outputs(c1_inputs, fault=faults.get("C1"))
        next_r2 = _collect(c1_out, self.c1.outputs)

        c2_inputs = _drive(self.c2.inputs[: self.w2], r2)
        c2_inputs.update(_drive(self.c2.inputs[self.w2 :], x_value))
        c2_out = self.c2.evaluate_outputs(c2_inputs, fault=faults.get("C2"))
        next_r1 = _collect(c2_out, self.c2.outputs)

        lam_inputs = _drive(self.lambda_net.inputs[: self.w1], r1)
        lam_inputs.update(
            _drive(self.lambda_net.inputs[self.w1 : self.w1 + self.w2], r2)
        )
        lam_inputs.update(
            _drive(self.lambda_net.inputs[self.w1 + self.w2 :], x_value)
        )
        lam_out = self.lambda_net.evaluate_outputs(
            lam_inputs, fault=faults.get("LAMBDA")
        )
        output_code = _int_to_code(
            _collect(lam_out, self.lambda_net.outputs), self.output_width
        )
        return next_r1, next_r2, output_code

    def registers(self, state: Symbol) -> Tuple[int, int]:
        """Register values (R1, R2) encoding ``alpha(state)``."""
        block1, block2 = self.realization.alpha(state)
        return (
            _code_to_int(self.encoded.r1_encoding.encode(block1)),
            _code_to_int(self.encoded.r2_encoding.encode(block2)),
        )

    def system_trace(
        self,
        input_symbols: Sequence,
        faults: Optional[Dict[str, Fault]] = None,
    ) -> List[str]:
        r1, r2 = self.registers(self.machine.reset_state)
        outputs = []
        for symbol in input_symbols:
            input_code = self.encoded.input_encoding.encode(symbol)
            r1, r2, output_code = self.system_step(r1, r2, input_code, faults)
            outputs.append(output_code)
        return outputs

    # -- fault universe -----------------------------------------------------------

    def fault_universe(self) -> List[BlockFault]:
        return (
            [("C1", f) for f in all_faults(self.c1)]
            + [("C2", f) for f in all_faults(self.c2)]
            + [("LAMBDA", f) for f in all_faults(self.lambda_net)]
        )

    def fault_blocks(self) -> Dict[str, Optional[Netlist]]:
        return {"C1": self.c1, "C2": self.c2, "LAMBDA": self.lambda_net}

    # -- self-test -------------------------------------------------------------------

    def self_test_signatures(
        self,
        fault: Optional[BlockFault] = None,
        cycles: Optional[int] = None,
        seed: int = 1,
        lambda_session: bool = True,
        engine: str = "compiled",
    ) -> Tuple[int, ...]:
        """Two sessions (Session A: R1 generates / R2 compacts; B: swapped).

        The output function is observed through a dedicated output MISR in
        both sessions, as is standard for BIST of Mealy outputs.  No
        register is ever transparent and no third register exists -- this
        is precisely the Figure-4 argument.

        ``lambda_session`` adds a third session in which R1 and R2 are
        chained into one combined pattern generator (standard BILBO
        chaining) so that the output function ``lambda*`` is exercised over
        its full ``(r1, r2, x)`` input space.  The paper describes only the
        two state-logic sessions; the extension is reported separately by
        the benches (disable it for the strictly faithful architecture).

        ``engine`` picks the session kernel (:func:`_block_evaluator`).
        """
        cycles = self._default_cycles(cycles)
        evaluate = {
            block: _block_evaluator(
                network,
                fault[1] if fault is not None and fault[0] == block else None,
                engine,
            )
            for block, network in self.fault_blocks().items()
        }
        signatures = self._session("R1", cycles, seed, evaluate)
        signatures += self._session("R2", cycles, seed + 1, evaluate)
        if lambda_session:
            signatures += self._lambda_session(seed + 2, evaluate["LAMBDA"])
        return signatures

    def _lambda_session(self, seed: int, evaluate: Callable[[int], int]) -> Tuple[int]:
        """Session C: R1+R2 chained into one PRPG, lambda* exhaustively driven."""
        total_width = self.w1 + self.w2 + self.input_width
        prpg = _prpg(total_width, seed)
        output_misr = Misr(max(4, self.output_width))
        for _ in range(min(4096, 2 ** total_width)):
            # lambda*'s inputs are (r1, r2, x) low-to-high -- the PRPG word.
            output_misr.absorb(evaluate(prpg.state))
            prpg.step()
        return (output_misr.signature,)

    def _session_geometry(self, generator: str) -> Tuple[Netlist, int, int, int]:
        """(block under test, source width, in-loop MISR width, output MISR
        width) of the session ``generator`` drives.

        The in-loop compactor is exactly R1/R2 in MISR mode (that is the
        architecture's point).  The session's *output* signature register
        -- free test hardware in any BIST -- compacts all observable lines
        of the block under test (lambda outputs and the next-state lines
        feeding the compacting register); its width is chosen >= 4 so
        deterministic parity aliasing of 1-2 bit registers does not mask
        structurally testable faults.
        """
        if generator == "R1":
            block, source_width, response_width = self.c1, self.w1, self.w2
        else:
            block, source_width, response_width = self.c2, self.w2, self.w1
        return (
            block,
            source_width,
            max(1, response_width),
            max(4, self.output_width + response_width),
        )

    def _session(
        self,
        generator: str,
        cycles: int,
        seed: int,
        evaluate: Dict[str, Callable[[int], int]],
    ) -> Tuple[int, int]:
        """One state-logic session; returns (in-loop MISR, output MISR).

        ``evaluate`` maps each block to its evaluator under the session's
        fault (:func:`_block_evaluator`).
        """
        _block, source_width, misr_width, output_misr_width = (
            self._session_geometry(generator)
        )
        evaluate_block = evaluate["C1" if generator == "R1" else "C2"]
        evaluate_lambda = evaluate["LAMBDA"]
        misr = Misr(misr_width)
        output_misr = Misr(output_misr_width)
        # One complete-cycle PRPG spans the generating register and the
        # primary inputs, so the block under test sees every input vector
        # (pseudo-exhaustive session, refs [4, 17] of the paper).
        prpg = _prpg(source_width + self.input_width, seed)
        source_mask = (1 << source_width) - 1
        w1, w2 = self.w1, self.w2
        output_width = self.output_width
        from_r1 = generator == "R1"
        for _ in range(cycles):
            state = prpg.state
            # The block's inputs are its register bits then x -- the PRPG word.
            response = evaluate_block(state)
            misr.absorb(response)
            # lambda* sees (r1, r2, x); the generator provides one operand,
            # the compactor's current state the other.
            register_value = state & source_mask
            if from_r1:
                r1_value, r2_value = register_value, misr.signature
            else:
                r1_value, r2_value = misr.signature, register_value
            lam_bits = r1_value | (r2_value << w1) | ((state >> source_width) << (w1 + w2))
            output_misr.absorb(evaluate_lambda(lam_bits) | (response << output_width))
            prpg.step()
        return (misr.signature, output_misr.signature)

    def _default_cycles(self, cycles: Optional[int]) -> int:
        """Default: one complete cycle of the wider session generator."""
        if cycles is not None:
            return cycles
        return min(4096, 2 ** (max(self.w1, self.w2) + self.input_width))

    # -- campaign fast path (see repro.faults.engine) -------------------------

    def campaign_reference(
        self,
        cycles: Optional[int] = None,
        seed: int = 1,
        lambda_session: bool = True,
        **_options,
    ) -> Dict[str, object]:
        """Reference streams and signatures for exact fault dropping.

        Each session's pattern and ``lambda*``-input streams are recorded
        along the fault-free run; a ``C1``/``C2`` fault is screened against
        its session's block patterns in one bit-parallel evaluation, and
        ``LAMBDA`` faults resolve entirely through the linear output-MISR
        difference (their block responses -- hence the in-loop compactor
        trajectory and the ``lambda*`` input stream -- are fault-free).
        """
        cycles = self._default_cycles(cycles)
        sessions: Dict[str, Dict[str, object]] = {
            "A": self._session_reference("R1", cycles, seed),
            "B": self._session_reference("R2", cycles, seed + 1),
        }
        if lambda_session:
            sessions["C"] = self._chained_lambda_reference(seed + 2)
        return {"sessions": sessions}

    def _session_reference(
        self, generator: str, cycles: int, seed: int
    ) -> Dict[str, object]:
        """Fault-free run of one session, built bit-parallel.

        The block's patterns come from the free-running PRPG, so its
        response streams are one fault-free evaluation over all cycles.
        The in-loop MISR trajectory then follows by integer updates alone,
        which gives the ``lambda*`` input streams -- one more evaluation --
        and the output MISR signature.  The result equals :meth:`_session`
        on the fault-free machine, signatures included.
        """
        from_r1 = generator == "R1"
        block, source_width, misr_width, output_misr_width = (
            self._session_geometry(generator)
        )
        pattern_width = source_width + self.input_width
        patterns = _prpg_words(pattern_width, seed, cycles)
        mask = (1 << cycles) - 1
        streams = transpose_words(patterns, pattern_width)
        ref_out = block.compile().lane_eval_outputs(streams, mask)
        responses = transpose_words(ref_out, cycles)
        compacted = LinearCompactor(misr_width).trajectory(responses)
        source_mask = (1 << source_width) - 1
        w1, w2 = self.w1, self.w2
        lambda_in = []
        for pattern, register in zip(patterns, compacted):
            source = pattern & source_mask
            r1, r2 = (source, register) if from_r1 else (register, source)
            lambda_in.append(
                r1 | (r2 << w1) | ((pattern >> source_width) << (w1 + w2))
            )
        lambda_streams = transpose_words(lambda_in, w1 + w2 + self.input_width)
        ref_lambda_out = self.lambda_net.compile().lane_eval_outputs(
            lambda_streams, mask
        )
        out_compactor = LinearCompactor(output_misr_width)
        observed = out_compactor.trajectory(
            [
                lam_out | (response << self.output_width)
                for lam_out, response in zip(
                    transpose_words(ref_lambda_out, cycles), responses
                )
            ]
        )
        return {
            "generator": generator,
            "block": block,
            "cycles": cycles,
            "seed": seed,
            "mask": mask,
            "streams": streams,
            "ref_out": ref_out,
            "lambda_streams": lambda_streams,
            "ref_lambda_out": ref_lambda_out,
            "out_compactor": out_compactor,
            "signatures": (
                compacted[-1] if compacted else 0,
                observed[-1] if observed else 0,
            ),
        }

    def _chained_lambda_reference(self, seed: int) -> Dict[str, object]:
        total_width = self.w1 + self.w2 + self.input_width
        cycles = min(4096, 2 ** total_width)
        streams = transpose_words(_prpg_words(total_width, seed, cycles), total_width)
        mask = (1 << cycles) - 1
        return {
            "cycles": cycles,
            "mask": mask,
            "lambda_streams": streams,
            "ref_lambda_out": self.lambda_net.compile().lane_eval_outputs(
                streams, mask
            ),
            "out_compactor": LinearCompactor(max(4, self.output_width)),
        }

    def campaign_detects_batch(
        self, bundle: Dict[str, object], block_faults: Sequence[BlockFault]
    ) -> List[int]:
        """Outcome codes for a batch of faults, superposing the fallbacks.

        ``LAMBDA`` faults resolve linearly (their block responses are
        fault-free); ``C1``/``C2`` faults are first screened against their
        session's PRPG streams, one fault per field
        (:func:`superposed_fields`), and the survivors -- whose response
        errors perturb the in-loop compactor and with it the ``lambda*``
        input stream -- are replayed *together*, one faulty machine per
        bit lane, instead of one serial run each.
        """
        sessions = bundle["sessions"]

        def resolve(block: str, faults: List[Fault]) -> List[int]:
            if block == "LAMBDA":
                return self._lambda_outcomes(sessions, faults)
            session = sessions["A" if block == "C1" else "B"]
            reference = session["ref_out"]
            outcomes = [FAULT_DROPPED] * len(faults)
            survivors = [
                index
                for index, faulty in enumerate(
                    superposed_fields(
                        session["block"].compile(),
                        session["streams"],
                        session["mask"],
                        reference,
                        faults,
                    )
                )
                if faulty != reference
            ]
            for group in lane_passes(survivors):
                verdicts = self._superposed_session_outcomes(
                    session, [faults[index] for index in group]
                )
                for index, outcome in zip(group, verdicts):
                    outcomes[index] = outcome
            return outcomes

        return _scatter_blocks(block_faults, resolve)

    def _lambda_outcomes(
        self, sessions: Dict[str, Dict], faults: Sequence[Fault]
    ) -> List[int]:
        """LAMBDA faults: the observation path is linear in the lambda
        output errors in every session, because block responses are
        fault-free.  A fault is detected when any session's signature
        difference is non-zero, missed when it shows errors but every
        difference aliases to zero, and dropped when no session shows
        an error."""
        compiled = self.lambda_net.compile()
        outcomes = [FAULT_DROPPED] * len(faults)
        for session in sessions.values():
            pending = [
                index
                for index, outcome in enumerate(outcomes)
                if outcome != FAULT_DETECTED
            ]
            reference = session["ref_lambda_out"]
            compactor = session["out_compactor"]
            for index, faulty in zip(
                pending,
                superposed_fields(
                    compiled,
                    session["lambda_streams"],
                    session["mask"],
                    reference,
                    [faults[index] for index in pending],
                ),
            ):
                errors = stream_errors(faulty, reference)
                if not errors:
                    continue
                if compactor.fold_errors(errors, session["cycles"]) != 0:
                    outcomes[index] = FAULT_DETECTED
                else:
                    outcomes[index] = FAULT_MISSED
        return outcomes

    def _superposed_session_outcomes(
        self, session: Dict[str, object], faults: Sequence[Fault]
    ) -> List[int]:
        """Replay one session once with ``len(faults)`` faulty lanes.

        Lane 0 carries the fault-free machine, lane ``l`` pins
        ``faults[l-1]`` into the block under test.  Every lane owns its
        complete machine state -- in-loop compactor, ``lambda*`` input
        stream and output MISR run bit-sliced via :class:`LaneMisr` -- so
        the final per-lane signatures equal the serial replay's exactly,
        aliasing included; detection remains the signature comparison.
        """
        generator = session["generator"]
        block, source_width, misr_width, output_misr_width = (
            self._session_geometry(generator)
        )
        compiled = block.compile()
        lambda_compiled = self.lambda_net.compile()
        lane_mask, overrides = _lane_fault_assignments(compiled, faults)
        from_r1 = generator == "R1"
        misr = LaneMisr(misr_width)
        output_misr = LaneMisr(output_misr_width)
        prpg = _prpg(source_width + self.input_width, session["seed"])
        w1, w2 = self.w1, self.w2
        output_width = self.output_width
        for _ in range(session["cycles"]):
            state = prpg.state
            # The block's inputs are its register bits then x -- the PRPG
            # word, identical in every lane; only the faults differ.
            input_words = broadcast_lanes(
                state, source_width + self.input_width, lane_mask
            )
            response_words = compiled.lane_eval_outputs(
                input_words, lane_mask, overrides
            )
            misr.absorb_words(response_words)
            # lambda* sees (r1, r2, x); the generator side is shared, the
            # compactor side is each lane's own (post-absorb) MISR state.
            register_words = input_words[:source_width]
            x_words = input_words[source_width:]
            if from_r1:
                lam_words = register_words + misr.stages[:w2] + x_words
            else:
                lam_words = misr.stages[:w1] + register_words + x_words
            lam_out = lambda_compiled.lane_eval_outputs(lam_words, lane_mask)
            data_words = list(lam_out)
            if len(data_words) < output_width:
                data_words += [0] * (output_width - len(data_words))
            data_words += response_words
            output_misr.absorb_words(data_words)
            prpg.step()
        return _lane_signature_outcomes(
            (misr, output_misr),
            session["signatures"],
            len(faults),
            f"session {generator} fallback",
        )


def build_pipeline(
    realization: PipelineRealization, method: str = "auto"
) -> PipelineController:
    """Synthesize and verify the Figure-4 structure from a realization."""
    encoded = encode_realization(realization)
    c1_cover = synthesize_table(encoded.c1, method=method)
    c2_cover = synthesize_table(encoded.c2, method=method)
    lambda_cover = synthesize_table(encoded.lambda_, method=method)
    controller = PipelineController(encoded, c1_cover, c2_cover, lambda_cover)

    input_code = encoded.input_encoding.encode

    def step(registers: Tuple[int, int], symbol: Symbol) -> Tuple[Tuple[int, int], str]:
        r1, r2, output_code = controller.system_step(*registers, input_code(symbol))
        return (r1, r2), output_code

    _check_every_transition(
        "pipeline controller",
        realization.spec,
        controller.registers,
        step,
        encoded.output_encoding.encode,
    )
    return controller
