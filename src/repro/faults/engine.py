"""High-throughput fault-simulation campaigns (exact dropping and lane
superposition).

This engine accelerates :func:`repro.faults.coverage.measure_coverage`
campaigns by orders of magnitude while returning **bit-identical**
:class:`~repro.faults.coverage.CoverageReport` objects.  The serial loop in
:mod:`repro.faults.coverage` remains the reference oracle; everything here
is an exactness-preserving reformulation of it.

Fault dropping (the ``dropping=True`` path)
-------------------------------------------

Classic fault dropping stops a faulty simulation at the first observed
divergence.  Done naively on signature BIST that is *wrong*: a fault whose
response stream diverges mid-session can still compact to the fault-free
signature (MISR aliasing), and the oracle counts such faults as *missed*.
Measured on this code base, 1-7% of the fault universe aliases that way, so
the engine drops faults without ever approximating the final signature:

1. **Session relevance.**  A self-test session's signature depends only on
   the blocks it exercises; faults in other blocks are skipped outright
   (e.g. a ``C2`` fault cannot disturb the pipeline's session A).
2. **Fault-parallel field screening.**  Where a session's block-under-test
   sees patterns that do not depend on compactor state (true for the
   conventional, doubled and pipeline sessions, whose patterns come from a
   free-running PRPG), the whole session's response stream is computed
   bit-parallel -- bit ``t`` of every net is its value in cycle ``t`` --
   by the PPSFP kernel's :func:`~repro.faults.simulator.superposed_fields`.
   Short sessions share evaluations: each fault gets its own
   ``cycles``-bit field of the compiled lane kernel, next to a fault-free
   field that is checked against the reference, under the
   ``PPSFP_LANE_BITS`` budget.  Long sessions evaluate the block once
   fault-free and then only each fault's fanout cone.  A fault with no
   response error in any cycle provably leaves the session signature
   untouched and is dropped.  The fault-free references themselves are
   built the same way, bit-parallel from the fault-free kernel; only the
   compacting registers' integer updates run cycle by cycle.
3. **Linear signature-difference compaction.**  MISR state update is linear
   over GF(2): ``state' = L(state) xor data`` with ``L`` the shift-and-
   feedback map.  The faulty/fault-free signature difference therefore
   evolves as ``d' = L(d) xor e`` where ``e`` is the per-cycle response
   error from step 2, so the *final* signature comparison -- including any
   aliasing -- is reproduced exactly from the error stream with cheap
   integer arithmetic (:class:`LinearCompactor`), never re-running the
   session serially.  Zero-error stretches are jumped over with precomputed
   binary powers of ``L``.
4. **Superposed fallback sessions.**  Sessions that feed compactor state
   back into the logic under observation (the pipeline's ``lambda*`` path
   under a ``C1``/``C2`` fault, and the Figure-1 parallel self-test
   entirely) cannot be unrolled over cycles -- but they *can* be unrolled
   over faults.  The controllers' ``campaign_detects_batch`` packs one
   faulty machine per bit lane (lane 0 fault-free, up to
   ``PPSFP_LANE_BITS - 1`` faults per replay) and replays all of them
   together, cycle by cycle: bit-sliced MISR banks
   (:class:`~repro.bist.compaction.LaneMisr`) for every register
   trajectory and per-lane final-signature comparison, so verdicts --
   aliasing included -- are bit-identical to one serial replay per fault.
   The pipeline replay takes each survivor's block responses from its
   screened streams (step 2): the block's patterns come from the
   free-running PRPG, so each cycle's response lane words are the
   fault-free response XOR a sparse error table, and only ``lambda*``
   is evaluated, fault-free, per cycle.  Only the parallel self-test,
   whose patterns are the register's own faulty trajectory, still
   evaluates its block per cycle with per-lane fault overrides in the
   compiled lane kernel (:meth:`CompiledNetlist.lane_eval`).
   The serial replay is ``self_test_signatures``, which the
   ``dropping=False`` oracle runs once per fault.  Its ``engine=`` option
   picks the serial sessions' kernel: ``"compiled"`` runs the same lane
   kernel with the fault in a single lane, ``"interpreted"`` the
   interpreted netlist walker.  The screening bundle grades with the lane
   kernel only, so an ``engine="interpreted"`` campaign always runs the
   oracle sessions.

Each campaign builds one fault-free reference: the screening bundle
(``campaign_reference``) when dropping, the fault-free signature tuple
otherwise.  Every campaign runs in the calling process; parallelism lives
one level up, across whole sweep members (:mod:`repro.suite.worker`).

Fault collapsing (the ``collapse=`` path)
-----------------------------------------

``collapse="equiv"`` runs the campaign over one
representative per structural equivalence class
(:mod:`repro.faults.collapse`) and expands the per-representative outcome
codes back onto the full universe before the report is tallied --
equivalent faults compute the same faulty function on every observable
output, so they provably share a verdict in every session and the report
stays field-for-field identical while the campaign simulates a universe
that is typically 40-60% smaller (a multiplicative speedup on top of
dropping and superposition).  ``collapse="dominance"`` additionally drops
gate-locally dominated classes; the report then covers the kept
representatives only (the universe genuinely changes), which is why it is
opt-in.  ``report.telemetry["collapse"]`` records class counts and the
achieved reduction.

Static prescreening (the ``prescreen=`` path)
---------------------------------------------

``prescreen="static"`` consults the sound untestability prover
(:mod:`repro.analysis.untestable`) before any fault is simulated: faults it
proves untestable -- constant sites, constant-blocked propagation cones
-- are resolved to ``FAULT_UNTESTABLE`` up front, so the campaign never
simulates them.  Proved faults are genuinely undetected, so the report
stays field-for-field identical to a full simulation while the campaign
simulates strictly fewer faults.  ``prescreen="validate"`` inverts
the bargain: everything is simulated, and a detected proved-untestable
fault raises :exc:`~repro.exceptions.PrescreenViolation` -- the prover's
soundness (and the engines' exactness) as a continuously-checked
theorem.  ``report.telemetry["prescreen"]`` carries the verdict
tallies, the skip count and the per-fault proof witnesses.

Determinism guarantee
---------------------

Campaign results do not depend on ``dropping``, ``collapse="equiv"`` or
``prescreen``: every fault's outcome is computed independently (lanes
never interact), outcome codes are indexed by the controller's canonical
fault order, and the report is tallied in that order, so ``CoverageReport`` equality holds field-for-field against the
serial oracle (tests/test_engine.py and tests/test_differential.py assert
this across all architectures and engines).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..bist.compaction import LinearCompactor, stream_errors, transpose_words
from ..exceptions import PrescreenViolation, ReproError
from .collapse import COLLAPSE_MODES, FaultMap
from .coverage import (
    FAULT_DETECTED,
    FAULT_DROPPED,
    FAULT_UNTESTABLE,
    PRESCREEN_MODES,
    BlockFault,
    CoverageReport,
    _LAST_TELEMETRY,
    check_session_options,
    tally_report,
)

__all__ = [
    "LinearCompactor",
    "transpose_words",
    "stream_errors",
    "run_campaign",
    "deterministic_telemetry",
    "campaign_telemetry",
]


def deterministic_telemetry(telemetry: Mapping[str, Any]) -> Dict[str, object]:
    """Deterministic, JSON-able slice of a report's campaign telemetry.

    The sweep harness (:mod:`repro.suite.sweep`) embeds this in each
    ``metrics.jsonl`` record, so only fields that are a pure function of
    the campaign *configuration* belong here: the collapse class counts
    (structural) and the ``dropped`` count (screening verdicts are
    per-fault), because metrics records must reproduce bit-identically
    from a manifest's seeds.  The prescreen slice qualifies too: proofs
    are a pure function of the netlist structure, so the proved/skipped
    tallies are deterministic (witness strings stay in the full
    telemetry).  The serial oracle's empty telemetry maps to
    all-``None`` fields.
    """
    collapse = telemetry.get("collapse")
    prescreen = telemetry.get("prescreen")
    prescreen_slice: Optional[Dict[str, object]] = None
    if prescreen:
        prescreen_slice = {
            key: prescreen.get(key)
            for key in ("mode", "universe", "scheduled", "proved", "skipped")
        }
        prescreen_slice["by_verdict"] = dict(prescreen.get("by_verdict") or {})
    return {
        "collapse": dict(collapse) if collapse else None,
        "dropped": telemetry.get("dropped"),
        "prescreen": prescreen_slice,
    }


def campaign_telemetry() -> Dict[str, object]:
    """:func:`deterministic_telemetry` of the last report that
    :func:`~repro.faults.coverage.measure_coverage` returned on the
    calling thread.

    This exists for the benchmark tracer, which wraps ``measure_coverage``
    and reads the campaign it just traced from here.  Library code reads
    :attr:`CoverageReport.telemetry` of the report it holds instead.
    """
    return deterministic_telemetry(getattr(_LAST_TELEMETRY, "telemetry", {}))


# ---------------------------------------------------------------------------
# per-fault outcome computation
# ---------------------------------------------------------------------------


def _campaign_state(controller, cycles, seed, dropping, options):
    """(reference signatures, screening bundle) of one campaign.

    Only one of the two is built: a dropping campaign on a controller
    with ``campaign_reference`` needs just the bundle, any other campaign
    just the fault-free signatures.  The bundle grades with compiled
    kernels, so ``engine="interpreted"`` always takes the signature path.
    """
    if (
        dropping
        and options.get("engine", "compiled") != "interpreted"
        and hasattr(controller, "campaign_reference")
    ):
        bundle = controller.campaign_reference(cycles=cycles, seed=seed, **options)
        return None, bundle
    reference = controller.self_test_signatures(
        fault=None, cycles=cycles, seed=seed, **options
    )
    return reference, None


def _resolve(
    controller,
    schedule: List[BlockFault],
    cycles,
    seed,
    dropping: bool,
    options,
    codes: List[int],
) -> None:
    """Fill every unresolved (negative) entry of ``codes`` in place, in
    one batch.

    Entries already resolved (proved untestable) are skipped.  With a
    screening bundle the batch goes through the controller's
    ``campaign_detects_batch`` (screening, linear compaction and
    lane-superposed replays); without one each fault's
    ``self_test_signatures`` is compared against the fault-free
    reference.
    """
    reference, bundle = _campaign_state(controller, cycles, seed, dropping, options)
    todo = [index for index, code in enumerate(codes) if code < 0]
    if not todo:
        return
    batch = [schedule[index] for index in todo]
    if bundle is not None:
        resolved = controller.campaign_detects_batch(bundle, batch)
    else:
        resolved = [
            controller.self_test_signatures(
                fault=block_fault, cycles=cycles, seed=seed, **options
            )
            != reference
            for block_fault in batch
        ]
    for index, code in zip(todo, resolved):
        codes[index] = int(code)


# ---------------------------------------------------------------------------
# campaign runner
# ---------------------------------------------------------------------------


def run_campaign(
    controller,
    cycles: Optional[int] = None,
    seed: int = 1,
    dropping: bool = True,
    faults: Optional[Sequence[BlockFault]] = None,
    collapse: str = "none",
    prescreen: str = "none",
    **session_options,
) -> CoverageReport:
    """Fault-simulation campaign with exact dropping, in the calling process.

    Semantics are identical to the serial
    :func:`repro.faults.coverage.measure_coverage` oracle (see the module
    docstring for why that holds even under fault dropping, lane
    superposition and equivalence collapsing); only the wall-clock
    changes.  ``dropping=True`` resolves faults through the
    controller's screening bundle and lane-superposed replays,
    ``dropping=False`` through one ``self_test_signatures`` run per
    fault.  ``faults`` restricts the universe.  ``collapse`` schedules
    collapsed representatives only -- ``"equiv"`` expands the verdicts
    back to the full universe, ``"dominance"`` reports over the kept
    representatives (see the module docstring).

    ``prescreen="static"`` resolves statically-proved-untestable faults
    (:mod:`repro.analysis.untestable`) to
    :data:`~repro.faults.coverage.FAULT_UNTESTABLE` before any fault is
    simulated; the report is field-for-field identical to a full
    simulation because proved faults are genuinely undetected.
    ``prescreen="validate"`` simulates the full schedule and raises
    :exc:`~repro.exceptions.PrescreenViolation` if any engine detects a
    proved fault.  Both compose with ``collapse=``: verdicts are proved
    on the scheduled representatives, and equivalence classes share them
    by construction.  Proof witnesses and the skip tally land in
    ``report.telemetry["prescreen"]``.

    ``session_options`` are checked before anything runs
    (:func:`~repro.faults.coverage.check_session_options`): an option the
    controller's ``self_test_signatures`` does not take -- a removed
    campaign knob included -- raises :exc:`TypeError`, and an unknown
    ``engine`` raises :exc:`~repro.exceptions.FaultError`, before any
    fault is simulated.

    The report's ``telemetry`` (excluded from report equality) says what
    the campaign did: ``dropped`` (faults screened out pattern-parallel),
    ``collapse`` (class counts, ``None`` when raw) and ``prescreen``
    (``None`` when off).
    """
    if collapse not in COLLAPSE_MODES:
        raise ReproError(
            f"unknown collapse mode {collapse!r}; expected one of "
            f"{COLLAPSE_MODES}"
        )
    if prescreen not in PRESCREEN_MODES:
        raise ReproError(
            f"unknown prescreen mode {prescreen!r}; expected one of "
            f"{PRESCREEN_MODES}"
        )
    options = dict(session_options)
    check_session_options(controller, cycles, seed, options)
    universe: List[BlockFault] = (
        list(controller.fault_universe()) if faults is None else list(faults)
    )
    fault_map = None
    schedule = universe
    if collapse != "none":
        fault_map = FaultMap.for_controller(
            controller, faults=universe, mode=collapse
        )
        schedule = fault_map.representatives

    # -- static prescreen (sound untestability proofs) -----------------------
    prescreen_verdicts = None
    prescreen_stats: Optional[Dict[str, object]] = None
    if prescreen != "none":
        from ..analysis.untestable import prove_controller, verdict_tally

        # Verdicts are proved on the *scheduled* faults: with collapsing
        # active these are the class representatives, and equivalence
        # classes share verdicts by construction, so expanding the codes
        # below spreads each proof over its whole class.
        prescreen_verdicts = prove_controller(controller, faults=schedule)
        by_verdict = verdict_tally(prescreen_verdicts)
        prescreen_stats = {
            "mode": prescreen,
            "universe": len(universe),
            "scheduled": len(schedule),
            "proved": sum(by_verdict.values()),
            "skipped": 0,
            "by_verdict": by_verdict,
            "reasons": {
                f"{block}:{fault.describe()}": verdict.reason
                for (block, fault), verdict in zip(
                    schedule, prescreen_verdicts
                )
                if verdict.is_untestable
            },
        }

    codes: List[int] = [-1] * len(schedule)
    if prescreen == "static" and prescreen_verdicts is not None:
        # Proved faults are resolved up front: codes >= 0 are never
        # simulated.
        skipped = 0
        for index, verdict in enumerate(prescreen_verdicts):
            if verdict.is_untestable:
                codes[index] = FAULT_UNTESTABLE
                skipped += 1
        assert prescreen_stats is not None
        prescreen_stats["skipped"] = skipped

    _resolve(controller, schedule, cycles, seed, dropping, options, codes)

    telemetry: Dict[str, object] = {
        "dropped": sum(1 for code in codes if code == FAULT_DROPPED),
        "collapse": fault_map.stats() if fault_map else None,
        "prescreen": prescreen_stats,
    }
    if prescreen == "validate" and prescreen_verdicts is not None:
        violations = [
            (block, fault.describe(), verdict.reason)
            for (block, fault), verdict, code in zip(
                schedule, prescreen_verdicts, codes
            )
            if verdict.is_untestable and code == FAULT_DETECTED
        ]
        if violations:
            listed = "; ".join(
                f"{block} {description} ({reason})"
                for block, description, reason in violations[:5]
            )
            raise PrescreenViolation(
                f"{len(violations)} statically-proved-untestable fault(s) "
                f"were detected by simulation: {listed}",
                violations=violations,
            )
    if fault_map is not None:
        if collapse == "equiv":
            # Verdict-preserving: every class member inherits its
            # representative's code, restoring the full universe before
            # the report is tallied below.
            codes = fault_map.expand(codes)
        else:
            universe = schedule  # dominance reports over the kept faults

    return tally_report(
        controller,
        universe,
        [code == FAULT_DETECTED for code in codes],
        cycles,
        telemetry,
    )
