"""Fault coverage of BIST self-test sessions.

Works against the architecture protocol of
:mod:`repro.bist.architectures`: any object with ``fault_universe()`` and
``self_test_signatures(fault=...)`` can be measured.  A fault is *detected*
when the faulty signature tuple differs from the fault-free one (signature
aliasing therefore counts as a miss, as it does in real BIST).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..netlist.netlist import Fault

BlockFault = Tuple[str, Fault]

#: per-fault campaign outcome codes shared by the batch-detection protocol
#: (``campaign_detects_batch``) and the engine's shared-memory scheduler:
#: a fault is *dropped* when pattern-parallel screening proves the session
#: never excites it, *detected* when the signatures differ, and *missed*
#: when it is excited but the signature difference compacts to zero
#: (aliasing).  Dropped and missed both count as undetected in the report;
#: the distinction feeds the scheduler's telemetry only.
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
    whatever scheduled them.
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
    workers: int = 0,
    dropping: bool = False,
    superpose: bool = True,
    chunk_size: Optional[int] = None,
    pool=None,
    collapse: str = "none",
    prescreen: str = "none",
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    checkpoint: Optional[str] = None,
    degrade: bool = False,
    **session_options,
) -> CoverageReport:
    """Fault simulation of a controller's complete self-test.

    With the default ``workers=0, dropping=False`` this is the serial
    reference oracle: one full self-test per fault, final signature tuples
    compared.  ``dropping=True`` enables the exact fault-dropping fast
    paths (including lane-superposed fallback sessions;
    ``superpose=False`` keeps the per-fault serial replays) via
    :mod:`repro.faults.engine`, which guarantees a bit-identical
    :class:`CoverageReport`.  Multi-process campaigns always run on a
    :class:`~repro.faults.pool.CampaignPool` (same guarantee): ``pool``
    names a caller-owned persistent pool whose workers keep controllers
    compiled across campaigns, and ``workers=N`` without one opens an
    ephemeral ``N``-worker pool for this campaign only.

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

    Resilience knobs (see :func:`repro.faults.engine.run_campaign` and the
    engine module docstring): ``timeout`` arms the no-progress watchdog,
    ``retries`` bounds crash/hang re-dispatches, ``checkpoint`` names a
    crash-safe snapshot file for bit-identical resume, and
    ``degrade=True`` walks the pool -> serial -> interpreted fallback
    ladder instead of raising on an exhausted budget.

    Extra keyword options (e.g. ``lambda_session=False`` for the strictly
    two-session pipeline flow) are forwarded to the controller's
    ``self_test_signatures``.
    """
    if (
        workers > 1
        or dropping
        or pool is not None
        or collapse != "none"
        or prescreen != "none"
        or timeout is not None
        or retries is not None
        or checkpoint is not None
        or degrade
    ):
        from .engine import run_campaign

        report = run_campaign(
            controller,
            cycles=cycles,
            seed=seed,
            workers=workers,
            dropping=dropping,
            superpose=superpose,
            chunk_size=chunk_size,
            pool=pool,
            collapse=collapse,
            prescreen=prescreen,
            timeout=timeout,
            retries=retries,
            checkpoint=checkpoint,
            degrade=degrade,
            **session_options,
        )
    else:
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
