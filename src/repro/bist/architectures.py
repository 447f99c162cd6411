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
  signature tuple of the full self-test,
* ``system_step(...)`` / behavioural verification hooks,
* ``flipflops`` / ``critical_path()`` / ``gate_inputs()`` area metrics.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..encoding import (
    EncodedMachine,
    EncodedRealization,
    encode_machine,
    encode_realization,
)
from ..exceptions import BistError
from ..faults.coverage import FAULT_DETECTED, FAULT_DROPPED, FAULT_MISSED
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

#: lane budget of one superposed fallback evaluation (lane 0 is reserved
#: for the fault-free machine, so each pass packs LANE_WIDTH - 1 faults).
#: 128-bit words keep Python's big-int ops cheap while amortising the two
#: per-cycle netlist evaluations over ~100 faulty machines.
LANE_WIDTH = 128


def _lane_groups(items: List, group: int) -> List[List]:
    """Split ``items`` into runs of at most ``group`` (order preserved)."""
    return [items[start : start + group] for start in range(0, len(items), group)]


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
    banks: Sequence[LaneMisr],
    reference: Tuple[int, ...],
    n_faults: int,
    session_label: str,
) -> List[int]:
    """Per-lane final-signature verdicts against the serial reference.

    ``banks`` are the session's signature registers in tuple order; lane 0
    must reproduce the fault-free reference exactly (any divergence means
    the superposed replay is broken, so fail loudly rather than mis-grade
    the whole batch).
    """
    if tuple(bank.lane_signature(0) for bank in banks) != reference:
        raise BistError(
            f"superposed {session_label}: fault-free lane diverged from "
            "the serial reference signatures"
        )
    outcomes = []
    for lane in range(1, n_faults + 1):
        signatures = tuple(bank.lane_signature(lane) for bank in banks)
        outcomes.append(
            FAULT_DETECTED if signatures != reference else FAULT_MISSED
        )
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


def _linear_session_signature(
    plain, fault: Optional[Fault], cycles: int, seed: int, engine: str
) -> int:
    """MISR signature of one PRPG -> C -> MISR session over ``plain``'s C.

    The generator spans C's inputs (state bits then x bits) and the MISR
    compacts its outputs (next-state bits then z bits).  This is the
    session of the conventional (Figure 2) and doubled (Figure 3)
    architectures.  ``engine="compiled"`` runs the packed single-pattern
    kernel of the compiled netlist; ``engine="interpreted"`` keeps the
    dict-driven loop as the bit-identical reference.
    """
    width = plain.state_width
    generator = Lfsr.from_any_seed(width + plain.input_width, seed, complete=True)
    response_register = Misr(max(4, width + plain.output_width))
    if engine == "interpreted":
        for _ in range(cycles):
            inputs = _drive(plain.state_nets, generator.state)
            inputs.update(_drive(plain.x_nets, generator.state >> width))
            values = plain.network.evaluate_interpreted(inputs, mask=1, fault=fault)
            response = _collect(values, list(plain.ns_nets) + list(plain.z_nets))
            response_register.absorb(response)
            generator.step()
        return response_register.signature
    compiled = plain.network.compile()
    fault_args = compiled.fault_args(fault, 1)
    step = compiled.step
    absorb = response_register.absorb
    for _ in range(cycles):
        # C's inputs are state bits then x bits -- exactly the PRPG word.
        absorb(step(generator.state, fault_args))
        generator.step()
    return response_register.signature


def _linear_session_reference(
    network, generator_width: int, misr_width: int, cycles: int, seed: int
) -> Dict[str, object]:
    """Campaign reference for one PRPG -> block -> MISR session.

    The pattern stream is fault-independent (free-running complete-cycle
    LFSR), so the whole session is captured as bit-parallel streams: one
    ``cycles``-bit integer per block input and per block output, plus the
    GF(2) model of the compacting MISR (see :mod:`repro.faults.engine`).
    """
    generator = Lfsr.from_any_seed(generator_width, seed, complete=True)
    words = []
    for _ in range(cycles):
        words.append(generator.state)
        generator.step()
    streams = transpose_words(words, generator_width)
    mask = (1 << cycles) - 1
    return {
        "cycles": cycles,
        "mask": mask,
        "streams": streams,
        "ref_out": network.compile().eval_outputs_list(streams, mask),
        "compactor": LinearCompactor(misr_width),
    }


def _linear_session_outcome(network, session: Dict[str, object], fault: Fault) -> int:
    """Exact campaign outcome for one linear session (with fault dropping).

    One pattern-parallel faulty evaluation yields the session's complete
    response-error stream; no errors drops the fault immediately, otherwise
    the final MISR signature difference -- aliasing included -- follows from
    folding the error stream through the linear compactor.
    """
    compiled = network.compile()
    mask = session["mask"]
    faulty = compiled.eval_outputs_list(
        session["streams"], mask, compiled.fault_args(fault, mask)
    )
    errors = stream_errors(faulty, session["ref_out"])
    if not errors:
        return FAULT_DROPPED
    if session["compactor"].fold_errors(errors, session["cycles"]) != 0:
        return FAULT_DETECTED
    return FAULT_MISSED


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
        values = self.network.evaluate(inputs, mask=1, fault=fault)
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


class ConventionalBistController:
    """Figure 2: system register R plus transparent test register T."""

    #: extra unit delay of the transparency mux in the system path
    TRANSPARENCY_DELAY = 1

    def __init__(self, plain: PlainController) -> None:
        self.plain = plain
        self.width = plain.state_width

    @property
    def machine(self) -> MealyMachine:
        return self.plain.machine

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
        ``FEEDBACK`` faults provably cannot change the signature; they are
        short-circuited here (the session is not even run), which is the
        paper's point about this architecture.

        ``engine="compiled"`` (default) runs the session on the packed
        single-pattern kernel of the compiled netlist;
        ``engine="interpreted"`` keeps the original dict-driven loop as the
        bit-identical reference (property-tested equivalence).
        """
        if fault is not None and fault[0] == "FEEDBACK":
            return self.fault_free_signatures(cycles=cycles, seed=seed, engine=engine)
        network_fault = fault[1] if fault is not None else None
        return (
            _linear_session_signature(
                self.plain, network_fault, self._default_cycles(cycles), seed, engine
            ),
        )

    def fault_free_signatures(
        self, cycles: Optional[int] = None, seed: int = 1, **options
    ) -> Tuple[int, ...]:
        return self.self_test_signatures(fault=None, cycles=cycles, seed=seed, **options)

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
        """Outcome codes for a batch of faults (the engine's chunk protocol).

        The session is fully linear (free-running PRPG patterns), so every
        fault resolves in its own single pattern-parallel evaluation; the
        batch form exists to report drop/alias outcomes uniformly with the
        superposing architectures.
        """
        outcomes = []
        for block, fault in block_faults:
            if block != "C":
                outcomes.append(FAULT_DROPPED)  # no live data on R -> T
            else:
                outcomes.append(
                    _linear_session_outcome(self.plain.network, bundle, fault)
                )
        return outcomes

    def _default_cycles(self, cycles: Optional[int]) -> int:
        """Default: one complete generator cycle (exhaustive patterns for C)."""
        if cycles is not None:
            return cycles
        return min(4096, 2 ** (self.width + self.plain.input_width))

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


class ParallelSelfTestController:
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

    def __init__(self, plain: PlainController) -> None:
        self.plain = plain
        self.width = plain.state_width

    @property
    def machine(self) -> MealyMachine:
        return self.plain.machine

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
        :meth:`_session` remains the one-fault-at-a-time oracle, compiled
        by default.
        """
        return self._session(
            fault[1] if fault is not None else None,
            self._default_cycles(cycles),
            seed,
            engine,
        )

    def _session(
        self, network_fault: Optional[Fault], cycles: int, seed: int, engine: str
    ) -> Tuple[int, int]:
        plain = self.plain
        register = Misr(self.width)
        register.reset(seed % (1 << self.width))
        input_register = (
            Lfsr.from_any_seed(plain.input_width, seed, complete=True)
            if plain.input_width
            else None
        )
        output_misr = Misr(max(4, plain.output_width))
        if engine == "interpreted":
            for _ in range(cycles):
                inputs = _drive(plain.state_nets, register.signature)
                inputs.update(
                    _drive(
                        plain.x_nets,
                        input_register.state if input_register is not None else 0,
                    )
                )
                values = plain.network.evaluate_interpreted(
                    inputs, mask=1, fault=network_fault
                )
                register.absorb(_collect(values, plain.ns_nets))
                output_misr.absorb(_collect(values, plain.z_nets))
                if input_register is not None:
                    input_register.step()
            return (register.signature, output_misr.signature)
        compiled = plain.network.compile()
        fault_args = compiled.fault_args(network_fault, 1)
        step = compiled.step
        width = self.width
        state_mask = (1 << width) - 1
        for _ in range(cycles):
            bits = register.signature | (
                (input_register.state if input_register is not None else 0) << width
            )
            packed = step(bits, fault_args)
            register.absorb(packed & state_mask)
            output_misr.absorb(packed >> width)
            if input_register is not None:
                input_register.step()
        return (register.signature, output_misr.signature)

    def fault_free_signatures(
        self, cycles: Optional[int] = None, seed: int = 1, **options
    ) -> Tuple[int, ...]:
        return self.self_test_signatures(fault=None, cycles=cycles, seed=seed, **options)

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
            "signatures": self._session(None, cycles, seed, "compiled"),
        }

    def campaign_detects_batch(
        self, bundle: Dict[str, object], block_faults: Sequence[BlockFault]
    ) -> List[int]:
        """Superposed campaign: every fault simulates in its own bit lane."""
        outcomes: List[int] = []
        for group in _lane_groups(list(block_faults), LANE_WIDTH - 1):
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
        register = LaneMisr(width, lane_mask, seed % (1 << width))
        input_register = (
            Lfsr.from_any_seed(plain.input_width, seed, complete=True)
            if plain.input_width
            else None
        )
        output_misr = LaneMisr(max(4, plain.output_width))
        lane_eval_outputs = compiled.lane_eval_outputs
        for _ in range(cycles):
            input_words = list(register.stages)
            if input_register is not None:
                input_words += broadcast_lanes(
                    input_register.state, plain.input_width, lane_mask
                )
            # network outputs are the next-state lines then the z lines
            out_words = lane_eval_outputs(input_words, lane_mask, overrides)
            register.absorb_words(out_words[:width])
            output_misr.absorb_words(out_words[width:])
            if input_register is not None:
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
        plain = self.plain
        cycles = self._default_cycles(cycles)
        register = Misr(self.width)
        register.reset(seed % (1 << self.width))
        input_register = (
            Lfsr.from_any_seed(plain.input_width, seed, complete=True)
            if plain.input_width
            else None
        )
        compiled = plain.network.compile()
        step = compiled.step
        width = self.width
        state_mask = (1 << width) - 1
        seen = set()
        for _ in range(cycles):
            seen.add(register.signature)
            bits = register.signature | (
                (input_register.state if input_register is not None else 0) << width
            )
            register.absorb(step(bits) & state_mask)
            if input_register is not None:
                input_register.step()
        return (len(seen), 1 << self.width)

    def _default_cycles(self, cycles: Optional[int]) -> int:
        if cycles is not None:
            return cycles
        return min(4096, 2 ** (self.width + self.plain.input_width))


def build_parallel_self_test(
    machine: MealyMachine, method: str = "auto"
) -> ParallelSelfTestController:
    return ParallelSelfTestController(build_plain(machine, method=method))


class DoubledController:
    """Figure 3: duplicated register and combinational circuitry."""

    def __init__(self, plain: PlainController) -> None:
        self.plain = plain
        self.width = plain.state_width

    @property
    def machine(self) -> MealyMachine:
        return self.plain.machine

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
        signatures: List[int] = []
        for session, block in enumerate(("C_a", "C_b")):
            block_fault = (
                fault[1] if fault is not None and fault[0] == block else None
            )
            signatures.append(
                _linear_session_signature(
                    self.plain, block_fault, cycles, seed + session, engine
                )
            )
        return tuple(signatures)

    def fault_free_signatures(
        self, cycles: Optional[int] = None, seed: int = 1, **options
    ) -> Tuple[int, ...]:
        return self.self_test_signatures(fault=None, cycles=cycles, seed=seed, **options)

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
        return [
            _linear_session_outcome(self.plain.network, bundle[block], fault)
            for block, fault in block_faults
        ]

    def _default_cycles(self, cycles: Optional[int]) -> int:
        """Default: one complete generator cycle (exhaustive patterns for C)."""
        if cycles is not None:
            return cycles
        return min(4096, 2 ** (self.width + self.plain.input_width))


def build_doubled(machine: MealyMachine, method: str = "auto") -> DoubledController:
    return DoubledController(build_plain(machine, method=method))


class PipelineController:
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
        """
        cycles = self._default_cycles(cycles)
        block_faults = {fault[0]: fault[1]} if fault is not None else {}
        sig_a = self._session(
            generator="R1", cycles=cycles, seed=seed, faults=block_faults,
            engine=engine,
        )
        sig_b = self._session(
            generator="R2", cycles=cycles, seed=seed + 1, faults=block_faults,
            engine=engine,
        )
        if not lambda_session:
            return sig_a + sig_b
        sig_c = self._lambda_session(seed=seed + 2, faults=block_faults, engine=engine)
        return sig_a + sig_b + sig_c

    def _lambda_session(
        self, seed: int, faults: Dict[str, Fault], engine: str = "compiled"
    ) -> Tuple[int]:
        """Session C: R1+R2 chained into one PRPG, lambda* exhaustively driven."""
        total_width = self.w1 + self.w2 + self.input_width
        prpg = Lfsr.from_any_seed(total_width, seed, complete=True)
        output_misr = Misr(max(4, self.output_width))
        cycles = min(4096, 2 ** total_width)
        if engine == "interpreted":
            for _ in range(cycles):
                r1_value = prpg.state & ((1 << self.w1) - 1)
                r2_value = (prpg.state >> self.w1) & ((1 << self.w2) - 1)
                x_value = prpg.state >> (self.w1 + self.w2)
                lam_inputs = _drive(self.lambda_net.inputs[: self.w1], r1_value)
                lam_inputs.update(
                    _drive(
                        self.lambda_net.inputs[self.w1 : self.w1 + self.w2], r2_value
                    )
                )
                lam_inputs.update(
                    _drive(self.lambda_net.inputs[self.w1 + self.w2 :], x_value)
                )
                lam_values = self.lambda_net.evaluate_interpreted(
                    lam_inputs, mask=1, fault=faults.get("LAMBDA")
                )
                output_misr.absorb(_collect(lam_values, self.lambda_net.outputs))
                prpg.step()
            return (output_misr.signature,)
        compiled = self.lambda_net.compile()
        fault_args = compiled.fault_args(faults.get("LAMBDA"), 1)
        step = compiled.step
        absorb = output_misr.absorb
        for _ in range(cycles):
            # lambda*'s inputs are (r1, r2, x) low-to-high -- the PRPG word.
            absorb(step(prpg.state, fault_args))
            prpg.step()
        return (output_misr.signature,)

    def fault_free_signatures(
        self, cycles: Optional[int] = None, seed: int = 1, **options
    ) -> Tuple[int, ...]:
        return self.self_test_signatures(fault=None, cycles=cycles, seed=seed, **options)

    def _session(
        self,
        generator: str,
        cycles: int,
        seed: int,
        faults: Dict[str, Fault],
        engine: str = "compiled",
        trace: Optional[List[Tuple[int, int, int, int]]] = None,
    ) -> Tuple[int, int]:
        """One state-logic session; returns (in-loop MISR, output MISR).

        ``trace`` (compiled engine only) receives one ``(pattern,
        response, lambda* input, lambda* output)`` tuple per cycle -- the
        words :meth:`campaign_reference` turns into screening streams.
        """
        if generator == "R1":
            source_width = self.w1
            misr = Misr(max(1, self.w2))
            block = self.c1
            response_width = self.w2
        else:
            source_width = self.w2
            misr = Misr(max(1, self.w1))
            block = self.c2
            response_width = self.w1
        # The in-loop compactor is exactly R1/R2 in MISR mode (that is the
        # architecture's point).  The session's *output* signature register
        # -- free test hardware in any BIST -- compacts all observable
        # lines of the block under test (lambda outputs and the next-state
        # lines feeding the compacting register); its width is chosen >= 4
        # so deterministic parity aliasing of 1-2 bit registers does not
        # mask structurally testable faults.
        output_misr = Misr(max(4, self.output_width + response_width))
        # One complete-cycle PRPG spans the generating register and the
        # primary inputs, so the block under test sees every input vector
        # (pseudo-exhaustive session, refs [4, 17] of the paper).
        prpg = Lfsr.from_any_seed(
            source_width + self.input_width, seed, complete=True
        )
        fault_key = "C1" if generator == "R1" else "C2"
        if engine == "interpreted":
            for _ in range(cycles):
                register_value = prpg.state & ((1 << source_width) - 1)
                x_value = prpg.state >> source_width
                inputs = _drive(block.inputs[:source_width], register_value)
                inputs.update(_drive(block.inputs[source_width:], x_value))
                values = block.evaluate_interpreted(
                    inputs, mask=1, fault=faults.get(fault_key)
                )
                response = _collect(values, block.outputs)
                misr.absorb(response)

                # lambda* sees (r1, r2, x); the generator provides one operand,
                # the compactor's current state the other.
                if generator == "R1":
                    r1_value, r2_value = register_value, misr.signature
                else:
                    r1_value, r2_value = misr.signature, register_value
                lam_inputs = _drive(self.lambda_net.inputs[: self.w1], r1_value)
                lam_inputs.update(
                    _drive(
                        self.lambda_net.inputs[self.w1 : self.w1 + self.w2], r2_value
                    )
                )
                lam_inputs.update(
                    _drive(self.lambda_net.inputs[self.w1 + self.w2 :], x_value)
                )
                lam_values = self.lambda_net.evaluate_interpreted(
                    lam_inputs, mask=1, fault=faults.get("LAMBDA")
                )
                observed = _collect(lam_values, self.lambda_net.outputs)
                observed |= response << self.output_width
                output_misr.absorb(observed)

                prpg.step()
            return (misr.signature, output_misr.signature)

        block_compiled = block.compile()
        block_args = block_compiled.fault_args(faults.get(fault_key), 1)
        block_step = block_compiled.step
        lambda_compiled = self.lambda_net.compile()
        lambda_args = lambda_compiled.fault_args(faults.get("LAMBDA"), 1)
        lambda_step = lambda_compiled.step
        source_mask = (1 << source_width) - 1
        w1, w2 = self.w1, self.w2
        output_width = self.output_width
        from_r1 = generator == "R1"
        for _ in range(cycles):
            state = prpg.state
            # The block's inputs are its register bits then x -- the PRPG word.
            response = block_step(state, block_args)
            misr.absorb(response)
            register_value = state & source_mask
            x_value = state >> source_width
            if from_r1:
                r1_value, r2_value = register_value, misr.signature
            else:
                r1_value, r2_value = misr.signature, register_value
            lam_bits = r1_value | (r2_value << w1) | (x_value << (w1 + w2))
            lam_out = lambda_step(lam_bits, lambda_args)
            if trace is not None:
                trace.append((state, response, lam_bits, lam_out))
            output_misr.absorb(lam_out | (response << output_width))
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
        """Fault-free run of one session, recorded as screening streams."""
        if generator == "R1":
            source_width, block, response_width = self.w1, self.c1, self.w2
        else:
            source_width, block, response_width = self.w2, self.c2, self.w1
        trace: List[Tuple[int, int, int, int]] = []
        signatures = self._session(generator, cycles, seed, {}, trace=trace)
        patterns, responses, lambda_in, lambda_out = (
            list(zip(*trace)) if trace else ([], [], [], [])
        )
        return {
            "generator": generator,
            "block": block,
            "cycles": cycles,
            "seed": seed,
            "mask": (1 << cycles) - 1,
            "streams": transpose_words(patterns, source_width + self.input_width),
            "ref_out": transpose_words(responses, len(block.outputs)),
            "lambda_streams": transpose_words(
                lambda_in, self.w1 + self.w2 + self.input_width
            ),
            "ref_lambda_out": transpose_words(
                lambda_out, len(self.lambda_net.outputs)
            ),
            "out_compactor": LinearCompactor(
                max(4, self.output_width + response_width)
            ),
            "signatures": signatures,
        }

    def _chained_lambda_reference(self, seed: int) -> Dict[str, object]:
        total_width = self.w1 + self.w2 + self.input_width
        cycles = min(4096, 2 ** total_width)
        prpg = Lfsr.from_any_seed(total_width, seed, complete=True)
        words: List[int] = []
        for _ in range(cycles):
            words.append(prpg.state)
            prpg.step()
        streams = transpose_words(words, total_width)
        mask = (1 << cycles) - 1
        return {
            "cycles": cycles,
            "mask": mask,
            "lambda_streams": streams,
            "ref_lambda_out": self.lambda_net.compile().eval_outputs_list(
                streams, mask
            ),
            "out_compactor": LinearCompactor(max(4, self.output_width)),
        }

    def campaign_detects_batch(
        self, bundle: Dict[str, object], block_faults: Sequence[BlockFault]
    ) -> List[int]:
        """Outcome codes for a batch of faults, superposing the fallbacks.

        ``LAMBDA`` faults resolve linearly per fault (their block responses
        are fault-free); ``C1``/``C2`` faults are first screened pattern-
        parallel against their session's PRPG streams, and the survivors --
        whose response errors perturb the in-loop compactor and with it the
        ``lambda*`` input stream -- are replayed *together*, one faulty
        machine per bit lane, instead of one serial run each.
        """
        sessions = bundle["sessions"]
        outcomes: List[int] = [FAULT_MISSED] * len(block_faults)
        pending: Dict[str, List[Tuple[int, Fault]]] = {"A": [], "B": []}
        for index, (block, fault) in enumerate(block_faults):
            if block == "LAMBDA":
                outcomes[index] = self._lambda_outcome(sessions, fault)
                continue
            key = "A" if block == "C1" else "B"
            if self._block_session_excited(sessions[key], fault):
                pending[key].append((index, fault))
            else:
                outcomes[index] = FAULT_DROPPED
        for key, survivors in pending.items():
            session = sessions[key]
            for group in _lane_groups(survivors, LANE_WIDTH - 1):
                verdicts = self._superposed_session_outcomes(
                    session, [fault for _index, fault in group]
                )
                for (index, _fault), outcome in zip(group, verdicts):
                    outcomes[index] = outcome
        return outcomes

    def _lambda_outcome(self, sessions: Dict[str, Dict], fault: Fault) -> int:
        """LAMBDA faults: the observation path is linear in the lambda
        output errors in every session, because block responses are
        fault-free."""
        compiled = self.lambda_net.compile()
        excited = False
        for session in sessions.values():
            mask = session["mask"]
            faulty = compiled.eval_outputs_list(
                session["lambda_streams"], mask, compiled.fault_args(fault, mask)
            )
            errors = stream_errors(faulty, session["ref_lambda_out"])
            if not errors:
                continue
            excited = True
            if session["out_compactor"].fold_errors(errors, session["cycles"]) != 0:
                return FAULT_DETECTED
        return FAULT_MISSED if excited else FAULT_DROPPED

    def _block_session_excited(self, session: Dict[str, object], fault: Fault) -> bool:
        """Pattern-parallel screen: does any cycle show a response error?

        The session's block patterns come from the free-running PRPG, so
        the complete faulty response stream is one bit-parallel evaluation;
        a fault with no error provably leaves the signatures untouched.
        """
        block = session["block"]
        compiled = block.compile()
        mask = session["mask"]
        faulty = compiled.eval_outputs_list(
            session["streams"], mask, compiled.fault_args(fault, mask)
        )
        return bool(stream_errors(faulty, session["ref_out"]))

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
        block = session["block"]
        compiled = block.compile()
        lambda_compiled = self.lambda_net.compile()
        lane_mask, overrides = _lane_fault_assignments(compiled, faults)
        from_r1 = generator == "R1"
        source_width = self.w1 if from_r1 else self.w2
        response_width = self.w2 if from_r1 else self.w1
        misr = LaneMisr(max(1, response_width))
        output_misr = LaneMisr(max(4, self.output_width + response_width))
        prpg = Lfsr.from_any_seed(
            source_width + self.input_width, session["seed"], complete=True
        )
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
