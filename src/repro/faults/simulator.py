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
    One fault per bit *lane* on top of the per-lane pattern packing: lane
    ``l`` of every net carries the complete pattern-set response of fault
    ``l`` (lane 0 fault-free, checked in-band against the reference), so a
    single :meth:`CompiledNetlist.lane_eval_outputs` pass screens
    ``lanes x patterns`` fault/pattern pairs.  The lane budget
    (:data:`PPSFP_LANE_BITS`) bounds the superposed word width; larger
    fault lists simply take several passes.
``engine="interpreted"``
    The original dict-keyed serial walker, kept as the equivalence oracle.
    Unfrozen netlists have no compiled kernels and always take this path.

``simulate_patterns(..., pool=...)`` fans the fault universe out over a
persistent :class:`~repro.faults.pool.CampaignPool`, whose workers cache
the compiled netlist and packed pattern streams across requests;
``collapse="equiv"`` additionally packs only one representative per
structural equivalence class into the lanes and expands the verdicts back
(:mod:`repro.faults.collapse`), shrinking the scheduled universe with a
field-for-field identical result.

Equivalence of both engines (and the pool) is enforced by
``tests/test_prop_ppsfp.py`` and the PPSFP axis of
``tests/test_differential.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import FaultError
from ..netlist.netlist import Fault, Netlist
from .collapse import COLLAPSE_MODES, FaultMap
from .stuck_at import all_faults

#: bit budget of one superposed PPSFP evaluation.  Each pass packs
#: ``PPSFP_LANE_BITS // n_patterns`` faults (plus the fault-free lane 0)
#: into contiguous pattern-set fields of one big integer; the value trades
#: Python interpreter dispatch (amortised over lanes) against big-int limb
#: work (which grows with the superposed word) and is tuned on the bench's
#: exhaustive blocks.
PPSFP_LANE_BITS = 1 << 13

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
# engine internals (shared with the persistent worker pool)
# ---------------------------------------------------------------------------


def _groups(items: List, size: int) -> List[List]:
    """Split ``items`` into runs of at most ``size`` (order preserved)."""
    return [items[start : start + size] for start in range(0, len(items), size)]


def _ppsfp_state(
    netlist: Netlist,
    patterns: Sequence[str],
    packed: Optional[Dict[str, int]] = None,
    mask: int = 0,
) -> Dict[str, object]:
    """Compiled kernel + slot-ordered pattern streams + fault-free reference.

    Built once per (netlist, pattern set) -- in-process per call, or cached
    across requests by each pool worker.  ``packed``/``mask`` reuse an
    already-packed pattern set (the entry point packs while validating).
    """
    compiled = netlist.compile()
    if packed is None:
        packed, mask = pack_patterns(patterns, netlist.inputs)
    inputs = [packed[name] for name in compiled.input_names]
    return {
        "compiled": compiled,
        "inputs": inputs,
        "mask": mask,
        "n_patterns": len(patterns),
        "reference": compiled.eval_outputs_list(inputs, mask),
    }


def _superposed_flags(state: Dict[str, object], faults: Sequence[Fault]) -> List[int]:
    """Detection flags via fault-per-lane superposition (also the pool
    workers' per-chunk protocol).

    Each pass replicates the packed pattern streams into ``lanes``
    contiguous ``n_patterns``-bit fields (an integer multiply by the field
    replicator), pins fault ``l`` into field ``l`` only
    (:meth:`CompiledNetlist.lane_overrides` with the field as the lane
    mask), and compares every fault's output field against the fault-free
    reference.  Lane 0 stays fault-free as the in-band sanity check.
    """
    compiled = state["compiled"]
    inputs = state["inputs"]
    mask = state["mask"]
    n_patterns = state["n_patterns"]
    reference = state["reference"]
    if n_patterns == 0 or not faults:
        return [0] * len(faults)
    per_pass = max(1, PPSFP_LANE_BITS // n_patterns)
    flags: List[int] = []
    for group in _groups(list(faults), per_pass):
        lanes = len(group) + 1
        replicator = 0
        for lane in range(lanes):
            replicator |= 1 << (lane * n_patterns)
        words = [value * replicator for value in inputs]
        overrides = compiled.lane_overrides(
            [
                (fault, mask << ((lane + 1) * n_patterns))
                for lane, fault in enumerate(group)
            ]
        )
        out = compiled.lane_eval_outputs(words, mask * replicator, overrides)
        if [word & mask for word in out] != reference:
            raise FaultError(
                "superposed PPSFP: fault-free lane diverged from the "
                "reference evaluation"
            )
        for lane in range(1, lanes):
            shift = lane * n_patterns
            flags.append(
                int(
                    any(
                        ((word >> shift) & mask) != ref
                        for word, ref in zip(out, reference)
                    )
                )
            )
    return flags


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
    pool=None,
    collapse: str = "none",
) -> CombinationalCoverage:
    """Fault coverage of an explicit pattern set on a combinational block.

    ``engine`` selects between the lane-superposed kernel (default) and
    the interpreted serial walker (the oracle) -- verdicts are
    bit-identical, only the wall clock changes.
    Unfrozen netlists cannot compile and silently take the interpreted
    path.  ``pool`` fans the fault universe out over a persistent
    :class:`~repro.faults.pool.CampaignPool` whose workers keep the
    compiled netlist and packed pattern streams cached across requests.
    ``collapse="equiv"`` simulates one representative per structural
    equivalence class (:mod:`repro.faults.collapse`) and expands the
    per-class verdicts back -- the :class:`CombinationalCoverage` is
    field-for-field identical to the uncollapsed run; ``"dominance"``
    reports over the kept representatives only (smaller universe).
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
    explicit = faults is not None
    universe: List[Fault] = list(all_faults(netlist) if faults is None else faults)
    fault_map = None
    schedule = universe
    if collapse != "none":
        fault_map = FaultMap.for_netlist(netlist, faults=universe, mode=collapse)
        schedule = fault_map.representatives
    if pool is not None:
        if not netlist.frozen:
            raise FaultError(
                "pooled PPSFP requires a frozen netlist (workers compile it)"
            )
        if engine == "interpreted":
            raise FaultError(
                "pooled PPSFP has no interpreted path; run the oracle "
                "in-process (pool=None, engine='interpreted')"
            )
        # Cheap shape check only -- malformed patterns fail here with a
        # FaultError rather than inside a worker process; the workers do
        # (and cache) the actual packing.
        n_inputs = len(netlist.inputs)
        for pattern in patterns:
            if len(pattern) != n_inputs or not set(pattern) <= {"0", "1"}:
                raise FaultError(f"invalid pattern {pattern!r}")
        flags = pool.ppsfp_flags(
            netlist,
            patterns,
            schedule if explicit else None,
            total=len(schedule),
            collapse=collapse,
        )
    else:
        packed, mask = pack_patterns(patterns, netlist.inputs)
        if engine == "interpreted" or not netlist.frozen:
            flags = _interpreted_flags(netlist, packed, mask, schedule)
        else:
            flags = _superposed_flags(
                _ppsfp_state(netlist, patterns, packed, mask), schedule
            )
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
