"""Pattern-parallel single-fault propagation (PPSFP) with lane superposition.

For a *combinational* block under an explicit pattern set, faults are
simulated bit-parallel: all patterns are packed into one big integer per
net and a fault is detected iff any output bit position differs from the
fault-free evaluation.  This is the workhorse behind the testability
statistics of individual blocks; session-based BIST coverage has its own
accelerated campaign engine (:mod:`repro.faults.engine`), which superposes
sequential fallback sessions over *faults* the same way this module does.

Two engines share the verdicts bit for bit:

``engine="superposed"`` (default)
    Every fault's complete output streams come from
    :func:`superposed_fields`, the one implementation, shared with the
    campaign screens of :mod:`repro.bist.architectures`.  It packs faults
    one of two ways, chosen by the stream length ``n``:

    * *field packing* (:func:`packed_fields`, ``n`` up to
      :data:`CONE_CROSSOVER_BITS`): field ``l`` of every net carries the
      streams of fault ``l`` (field 0 fault-free, checked in-band against
      the reference), so a single :meth:`CompiledNetlist.lane_eval_outputs`
      pass screens ``lanes x patterns`` fault/pattern pairs.  The bit
      budget (:data:`PPSFP_LANE_BITS`) bounds the superposed word width;
      larger fault lists take several passes.
    * *fanout cones* (:func:`cone_fields`, longer streams): one fault-free
      evaluation of every net (checked in-band the same way), then each
      fault re-evaluates only the gates its site reaches, stopping where
      an event equals the fault-free value
      (:meth:`CompiledNetlist.cone_outputs`).  A long stream leaves room
      for only a few fields per pass, and each pass would evaluate the
      whole block on words ``lanes x n`` bits wide.
``engine="interpreted"``
    The original dict-keyed serial walker, kept as the equivalence oracle.
    Unfrozen netlists have no compiled kernels and always take this path.

``simulate_patterns(..., collapse="equiv")`` packs only one
representative per structural equivalence class into the lanes and
expands the verdicts back (:mod:`repro.faults.collapse`), shrinking the
scheduled universe with a field-for-field identical result.

Equivalence of both engines is enforced by
``tests/test_prop_ppsfp.py`` and the PPSFP axis of
``tests/test_differential.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import FaultError
from ..netlist.netlist import Fault, Netlist
from .collapse import COLLAPSE_MODES, FaultMap
from .stuck_at import all_faults

#: bit budget of one superposed evaluation.  Each pass packs
#: ``PPSFP_LANE_BITS // n`` faults (plus the fault-free field 0) into
#: contiguous ``n``-bit pattern or cycle fields of one big integer; the
#: value trades Python interpreter dispatch (amortised over lanes) against
#: big-int limb work (which grows with the superposed word) and is tuned on
#: the bench's exhaustive blocks.  The campaign screens use the same
#: packing, and the superposed fallback sessions, one bit per faulty
#: machine, the same budget (:func:`lane_passes`).
PPSFP_LANE_BITS = 1 << 13

#: streams longer than this many bits take the fanout-cone evaluator
#: (:func:`cone_fields`), shorter ones field packing (:func:`packed_fields`).
#: Field packing amortises interpreter dispatch over 32 or more faults per
#: pass up to here; past it a pass holds too few faults to pay for
#: evaluating the whole block.  Measured on ``lambda*`` of s1 and dk16 over
#: their equiv-collapsed universes (1282 and 716 faults), random streams,
#: compiled kernel, best of 11, ms, fields / cones, on a shared 2-CPU
#: x86-64 host under CPython 3.11:
#:
#: ====  =========  =========  =========  ==========  ==========  ============
#: bits  64         128        256        512         1024        4096
#: ====  =========  =========  =========  ==========  ==========  ============
#: s1    3.9 / 5.6  5.9 / 6.5  8.6 / 6.4  15.4 / 7.3  29.7 / 8.6  119.7 / 12.0
#: dk16  1.6 / 2.8  2.1 / 2.9  3.3 / 3.3  5.7 / 3.6   10.1 / 4.1  40.3 / 6.3
#: ====  =========  =========  =========  ==========  ==========  ============
#:
#: The sweep campaigns of s1, dk16 and tbk take the same time with any
#: crossover from 64 to 384 bits.  256 keeps the short sessions of small
#: machines on field packing, which wins up to 128 bits and ties at 256 on
#: dk16.
CONE_CROSSOVER_BITS = 256

PPSFP_ENGINES = ("superposed", "interpreted")


def pack_patterns(patterns: Sequence[str], input_names: Sequence[str]) -> Tuple[Dict[str, int], int]:
    """Pack pattern strings (one char per input, MSB-first order of names).

    Returns ``(values, mask)`` where ``values[name]`` holds bit ``k`` =
    value of input ``name`` under pattern ``k``.
    """
    values = {name: 0 for name in input_names}
    for position, pattern in enumerate(patterns):
        if len(pattern) != len(input_names) or not set(pattern) <= {"0", "1"}:
            raise FaultError(f"invalid pattern {pattern!r}")
        for name, ch in zip(input_names, pattern):
            if ch == "1":
                values[name] |= 1 << position
    mask = (1 << len(patterns)) - 1 if patterns else 0
    return values, mask


@dataclass(frozen=True)
class CombinationalCoverage:
    """Outcome of a pattern-parallel fault simulation of one block."""

    netlist: str
    n_patterns: int
    total: int
    detected: int
    undetected: Tuple[Fault, ...]

    @property
    def coverage(self) -> float:
        return self.detected / self.total if self.total else 1.0


def detects(
    netlist: Netlist,
    fault: Fault,
    packed_inputs: Dict[str, int],
    mask: int,
    reference: Optional[Dict[str, int]] = None,
) -> bool:
    """Does the pattern set expose the fault at any primary output?

    Follows :meth:`Netlist.evaluate_outputs` routing (compiled kernels for
    frozen netlists, the interpreted walker otherwise); the superposed
    kernel below must agree with one such call per fault.
    """
    if reference is None:
        reference = netlist.evaluate_outputs(packed_inputs, mask=mask)
    faulty = netlist.evaluate_outputs(packed_inputs, mask=mask, fault=fault)
    return any(faulty[net] != reference[net] for net in netlist.outputs)


# ---------------------------------------------------------------------------
# engine internals
# ---------------------------------------------------------------------------


def lane_passes(items: Sequence) -> List[List]:
    """Split ``items`` into passes of one item per bit lane (order kept).

    A pass holds at most ``PPSFP_LANE_BITS - 1`` items, lane 0 being the
    fault-free machine: the single-bit-lane counterpart of the field
    packing in :func:`superposed_fields`, under the same budget.
    """
    size = PPSFP_LANE_BITS - 1
    return [list(items[start : start + size]) for start in range(0, len(items), size)]


def _replicate(word: int, field_bits: int, fields: int) -> int:
    """``word`` copied into ``fields`` contiguous ``field_bits``-bit fields
    (shift-or doubling: O(log fields) big-int operations)."""
    filled = 1
    while filled < fields:
        word |= word << (filled * field_bits)
        filled *= 2
    return word & ((1 << (fields * field_bits)) - 1)


def superposed_fields(
    compiled,
    inputs: Sequence[int],
    mask: int,
    reference: Sequence[int],
    faults: Sequence[Fault],
) -> Iterator[List[int]]:
    """Each fault's output streams over ``mask``-wide input streams.

    ``inputs`` are slot-ordered input streams of ``n = mask.bit_length()``
    bits (patterns, or the cycles of a session whose patterns do not
    depend on the fault) and ``reference`` is their fault-free output
    streams.  Yields, in fault order, the list of output streams of each
    fault (``reference`` itself when ``n`` is 0).  Streams of at most
    :data:`CONE_CROSSOVER_BITS` bits take :func:`packed_fields`, longer
    ones :func:`cone_fields`; both check the fault-free evaluation against
    ``reference`` in-band and yield the same lists.
    """
    n_bits = mask.bit_length()
    if not n_bits:  # empty streams: every fault looks fault-free
        for _fault in faults:
            yield list(reference)
        return
    route = cone_fields if n_bits > CONE_CROSSOVER_BITS else packed_fields
    yield from route(compiled, inputs, mask, reference, faults)


def packed_fields(
    compiled,
    inputs: Sequence[int],
    mask: int,
    reference: Sequence[int],
    faults: Sequence[Fault],
) -> Iterator[List[int]]:
    """:func:`superposed_fields` by field packing, for non-empty streams.

    Each pass replicates the streams into ``lanes`` contiguous ``n``-bit
    fields, pins fault ``l`` into field ``l`` only
    (:meth:`CompiledNetlist.lane_overrides` with the field as the lane
    mask) and evaluates once.  Field 0 stays fault-free and must equal
    ``reference`` (the in-band check).  A pass packs at most
    ``PPSFP_LANE_BITS // n`` faults (at least one); the streams are
    replicated once per call, and a shorter last pass takes their low
    fields.
    """
    if not faults:
        return
    n_bits = mask.bit_length()
    per_pass = max(1, PPSFP_LANE_BITS // n_bits)
    fields = min(per_pass, len(faults)) + 1
    words = [_replicate(value, n_bits, fields) for value in inputs]
    word_mask = _replicate(mask, n_bits, fields)
    for start in range(0, len(faults), per_pass):
        group = faults[start : start + per_pass]
        lanes = len(group) + 1
        if lanes < fields:
            cut = (1 << (lanes * n_bits)) - 1
            words = [word & cut for word in words]
            word_mask &= cut
        overrides = compiled.lane_overrides(
            [
                (fault, mask << (lane * n_bits))
                for lane, fault in enumerate(group, start=1)
            ]
        )
        out = compiled.lane_eval_outputs(words, word_mask, overrides)
        if [word & mask for word in out] != list(reference):
            raise FaultError(
                "superposed fields: the fault-free field diverged from the "
                "reference evaluation"
            )
        for lane in range(1, lanes):
            shift = lane * n_bits
            yield [(word >> shift) & mask for word in out]


def cone_fields(
    compiled,
    inputs: Sequence[int],
    mask: int,
    reference: Sequence[int],
    faults: Sequence[Fault],
) -> Iterator[List[int]]:
    """:func:`superposed_fields` by fanout cones, for non-empty streams.

    One fault-free :meth:`CompiledNetlist.lane_eval` gives every net's
    streams; its outputs must equal ``reference`` (the in-band check).
    Each fault then re-evaluates only the gates its site reaches, on the
    ``n``-bit streams themselves
    (:meth:`CompiledNetlist.cone_outputs`).
    """
    if not faults:
        return
    values = compiled.lane_eval(inputs, mask)
    if [values[slot] for slot in compiled.output_slots] != list(reference):
        raise FaultError(
            "fanout cones: the fault-free evaluation diverged from the "
            "reference evaluation"
        )
    cone_outputs = compiled.cone_outputs
    for fault in faults:
        yield cone_outputs(values, mask, fault)


def _superposed_flags(
    netlist: Netlist,
    packed: Dict[str, int],
    mask: int,
    faults: Sequence[Fault],
) -> List[int]:
    """Detection flags via fault-per-field superposition
    (:func:`superposed_fields`).

    A fault is detected when any of its output fields differs from the
    fault-free reference.
    """
    compiled = netlist.compile()
    inputs = [packed[name] for name in compiled.input_names]
    reference = compiled.lane_eval_outputs(inputs, mask)
    return [
        int(fields != reference)
        for fields in superposed_fields(compiled, inputs, mask, reference, faults)
    ]


def _interpreted_flags(
    netlist: Netlist,
    packed: Dict[str, int],
    mask: int,
    faults: Sequence[Fault],
) -> List[int]:
    """The serial dict-keyed oracle: one interpreted walk per fault."""
    values = netlist.evaluate_interpreted(packed, mask=mask)
    reference = [values[net] for net in netlist.outputs]
    flags = []
    for fault in faults:
        faulty = netlist.evaluate_interpreted(packed, mask=mask, fault=fault)
        flags.append(int([faulty[net] for net in netlist.outputs] != reference))
    return flags


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------


def simulate_patterns(
    netlist: Netlist,
    patterns: Sequence[str],
    faults: Optional[Sequence[Fault]] = None,
    engine: str = "superposed",
    collapse: str = "none",
) -> CombinationalCoverage:
    """Fault coverage of an explicit pattern set on a combinational block.

    ``engine`` selects between the lane-superposed kernel (default) and
    the interpreted serial walker (the oracle) -- verdicts are
    bit-identical, only the wall clock changes.
    Unfrozen netlists cannot compile and silently take the interpreted
    path.  ``collapse="equiv"`` simulates one representative per
    structural equivalence class (:mod:`repro.faults.collapse`) and
    expands the per-class verdicts back -- the
    :class:`CombinationalCoverage` is field-for-field identical to the
    uncollapsed run; ``"dominance"`` reports over the kept
    representatives only (smaller universe).
    """
    if engine not in PPSFP_ENGINES:
        raise FaultError(
            f"unknown PPSFP engine {engine!r}; expected one of {PPSFP_ENGINES}"
        )
    if collapse not in COLLAPSE_MODES:
        raise FaultError(
            f"unknown collapse mode {collapse!r}; expected one of "
            f"{COLLAPSE_MODES}"
        )
    universe: List[Fault] = list(all_faults(netlist) if faults is None else faults)
    fault_map = None
    schedule = universe
    if collapse != "none":
        fault_map = FaultMap.for_netlist(netlist, faults=universe, mode=collapse)
        schedule = fault_map.representatives
    packed, mask = pack_patterns(patterns, netlist.inputs)
    if engine == "interpreted" or not netlist.frozen:
        flags = _interpreted_flags(netlist, packed, mask, schedule)
    else:
        flags = _superposed_flags(netlist, packed, mask, schedule)
    if fault_map is not None:
        if collapse == "equiv":
            flags = fault_map.expand(flags)
        else:
            universe = schedule  # dominance reports over the kept faults
    undetected = tuple(fault for fault, flag in zip(universe, flags) if not flag)
    return CombinationalCoverage(
        netlist=netlist.name,
        n_patterns=len(patterns),
        total=len(universe),
        detected=len(universe) - len(undetected),
        undetected=undetected,
    )


def exhaustive_patterns(n_inputs: int) -> List[str]:
    """All input patterns of a block (pseudo-exhaustive BIST reference)."""
    if n_inputs > 20:
        raise FaultError(f"{n_inputs} inputs is too wide for exhaustive patterns")
    return [format(value, f"0{n_inputs}b") for value in range(2 ** n_inputs)]
