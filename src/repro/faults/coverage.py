"""Fault coverage of BIST self-test sessions.

Works against the architecture protocol of
:mod:`repro.bist.architectures`: any object with ``fault_universe()`` and
``self_test_signatures(fault=...)`` can be measured.  A fault is *detected*
when the faulty signature tuple differs from the fault-free one (signature
aliasing therefore counts as a miss, as it does in real BIST).
"""

from __future__ import annotations

import inspect
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..exceptions import FaultError
from ..netlist.netlist import Fault

BlockFault = Tuple[str, Fault]

#: per-fault campaign outcome codes shared by the batch-detection protocol
#: (``campaign_detects_batch``) and the engine's outcome array:
#: a fault is *dropped* when pattern-parallel screening proves the session
#: never excites it, *detected* when the signatures differ, and *missed*
#: when it is excited but the signature difference compacts to zero
#: (aliasing).  Dropped and missed both count as undetected in the report;
#: the distinction feeds the campaign's telemetry only.
FAULT_MISSED = 0
FAULT_DETECTED = 1
FAULT_DROPPED = 2
#: resolved statically by the untestability prover
#: (:mod:`repro.analysis.untestable`) under ``prescreen="static"`` --
#: never simulated, always undetected, with the proof witness recorded in
#: the report's ``telemetry["prescreen"]``.
FAULT_UNTESTABLE = 3

#: accepted values of every ``prescreen=`` knob; ``"static"`` skips
#: proved-untestable faults (report stays field-identical), ``"validate"``
#: simulates everything and raises
#: :exc:`~repro.exceptions.PrescreenViolation` if any engine detects a
#: proved fault.
PRESCREEN_MODES = ("none", "static", "validate")

#: accepted values of the ``engine=`` session option: the compiled lane
#: kernel, or the interpreted netlist walker (the reference oracle).
SESSION_ENGINES = ("compiled", "interpreted")

#: the ``telemetry`` of the last report :func:`measure_coverage` returned,
#: per thread.  Only ``measure_coverage`` writes it; only
#: :func:`repro.faults.engine.campaign_telemetry` reads it.
_LAST_TELEMETRY = threading.local()


@dataclass
class CoverageReport:
    """Result of a full fault-simulation campaign.

    ``telemetry`` records how the campaign ran (see
    :func:`repro.faults.engine.run_campaign`; ``{}`` for the serial
    oracle).  It is left out of equality, so reports compare equal
    whichever path computed them.
    """

    architecture: str
    total: int
    detected: int
    undetected: List[BlockFault] = field(default_factory=list)
    by_block: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    cycles: Optional[int] = None
    telemetry: Dict[str, object] = field(
        default_factory=dict, compare=False, repr=False
    )

    @property
    def coverage(self) -> float:
        """Detected fraction of the fault universe (0..1)."""
        return self.detected / self.total if self.total else 1.0

    def block_coverage(self, block: str) -> float:
        detected, total = self.by_block.get(block, (0, 0))
        return detected / total if total else 1.0

    def summary(self) -> str:
        blocks = ", ".join(
            f"{block}: {detected}/{total}"
            for block, (detected, total) in sorted(self.by_block.items())
        )
        return (
            f"{self.architecture}: {self.detected}/{self.total} faults "
            f"({100.0 * self.coverage:.1f}%) [{blocks}]"
        )


def measure_coverage(
    controller,
    cycles: Optional[int] = None,
    seed: int = 1,
    dropping: bool = False,
    collapse: str = "none",
    prescreen: str = "none",
    **session_options,
) -> CoverageReport:
    """Fault simulation of a controller's complete self-test.

    Every campaign runs in the calling process.  With the defaults this
    is the serial reference oracle: one full self-test per fault, final
    signature tuples compared.  ``dropping=True`` enables the exact
    fault-dropping fast path (pattern-parallel screening, linear
    compaction and lane-superposed fallback sessions) via
    :mod:`repro.faults.engine`, which guarantees a bit-identical
    :class:`CoverageReport`.

    ``collapse="equiv"`` schedules one representative per structural
    equivalence class and expands the verdicts back
    (:mod:`repro.faults.collapse`) -- the report stays field-for-field
    identical to the uncollapsed oracle while simulating a universe that
    is typically 40-60% smaller.  ``collapse="dominance"`` additionally
    drops gate-locally dominated classes; that *changes the reported
    universe* and is opt-in for test-generation style runs.

    ``prescreen="static"`` skips faults the static prover
    (:mod:`repro.analysis.untestable`) proves untestable -- they are
    reported undetected with the proof witness in
    ``report.telemetry["prescreen"]`` and the report stays field-for-field
    identical to a full simulation.  ``prescreen="validate"`` simulates
    everything anyway and raises
    :exc:`~repro.exceptions.PrescreenViolation` if any engine detects a
    proved-untestable fault (the prover's soundness as a continuously
    checked theorem).  Both compose with ``collapse=``: an equivalence
    class is untestable iff its representative is.

    Extra keyword options (e.g. ``lambda_session=False`` for the strictly
    two-session pipeline flow, ``engine="interpreted"`` for the reference
    netlist walker) are forwarded to the controller's
    ``self_test_signatures``; an option it does not take raises
    :exc:`TypeError`, an unknown ``engine`` :exc:`FaultError`, before any
    fault is simulated.
    """
    if dropping or collapse != "none" or prescreen != "none":
        from .engine import run_campaign

        report = run_campaign(
            controller,
            cycles=cycles,
            seed=seed,
            dropping=dropping,
            collapse=collapse,
            prescreen=prescreen,
            **session_options,
        )
    else:
        check_session_options(controller, cycles, seed, session_options)
        reference = controller.self_test_signatures(
            fault=None, cycles=cycles, seed=seed, **session_options
        )
        universe = controller.fault_universe()
        hits = [
            controller.self_test_signatures(
                fault=block_fault, cycles=cycles, seed=seed, **session_options
            )
            != reference
            for block_fault in universe
        ]
        report = tally_report(controller, universe, hits, cycles, {})
    _LAST_TELEMETRY.telemetry = report.telemetry
    return report


def check_session_options(
    controller, cycles: Optional[int], seed: int, options: Mapping[str, Any]
) -> None:
    """Reject bad session options before any fault is simulated.

    ``options`` are bound against ``controller.self_test_signatures``, so
    an option it does not take -- a removed campaign knob included --
    raises :exc:`TypeError`; an unknown ``engine`` raises
    :exc:`~repro.exceptions.FaultError`.
    """
    inspect.signature(controller.self_test_signatures).bind(
        fault=None, cycles=cycles, seed=seed, **options
    )
    engine = options.get("engine", "compiled")
    if engine not in SESSION_ENGINES:
        raise FaultError(
            f"unknown session engine {engine!r}; expected one of {SESSION_ENGINES}"
        )


def tally_report(
    controller,
    universe: List[BlockFault],
    hits: List[bool],
    cycles: Optional[int],
    telemetry: Dict[str, object],
) -> CoverageReport:
    """Report of per-fault verdicts (``hits``, index-aligned with
    ``universe``), tallied in universe order."""
    undetected: List[BlockFault] = []
    by_block: Dict[str, List[int]] = {}
    detected = 0
    for block_fault, hit in zip(universe, hits):
        block = block_fault[0]
        counts = by_block.setdefault(block, [0, 0])
        counts[1] += 1
        if hit:
            detected += 1
            counts[0] += 1
        else:
            undetected.append(block_fault)
    return CoverageReport(
        architecture=type(controller).__name__,
        total=len(universe),
        detected=detected,
        undetected=undetected,
        by_block={block: (c[0], c[1]) for block, c in by_block.items()},
        cycles=cycles,
        telemetry=telemetry,
    )
