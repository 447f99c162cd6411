"""High-throughput fault-simulation campaigns (exact dropping, superposition,
pooled fan-out).

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
   and many faults share one evaluation: each gets its own ``cycles``-bit
   field of the compiled lane kernel, next to a fault-free field that is
   checked against the reference
   (:func:`~repro.faults.simulator.superposed_fields`, the PPSFP kernel's
   packing, under the same ``PPSFP_LANE_BITS`` budget).  A fault with no
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
   ``PPSFP_LANE_BITS - 1`` faults per replay) and replays all of them in
   one multi-lane evaluation per cycle: per-lane fault overrides in the
   same compiled lane kernel (:meth:`CompiledNetlist.lane_eval`), bit-sliced MISR
   banks (:class:`~repro.bist.compaction.LaneMisr`) for every register
   trajectory, and per-lane final-signature comparison, so verdicts --
   aliasing included -- are bit-identical to one serial replay per fault.
   That replay is ``self_test_signatures``, which the ``dropping=False``
   oracle runs once per fault.

Each campaign builds one fault-free reference per process: the screening
bundle (``campaign_reference``) when dropping, the fault-free signature
tuple otherwise.

Multi-process scheduling (the ``workers=N`` and ``pool=`` paths)
----------------------------------------------------------------

Every multi-process campaign runs on a
:class:`~repro.faults.pool.CampaignPool` -- see :mod:`repro.faults.pool`
for the chunk-steal protocol, the no-progress watchdog, the retry loop
and the deterministic index-ordered merge.  ``pool=`` routes the campaign
over a caller-owned, long-lived pool whose workers cache each controller
(and its per-session reference state) across campaigns.  ``workers=N``
without a pool opens an ephemeral ``CampaignPool(N)`` for this one
campaign; its workers are forked with the live controller -- compiled
kernels included -- already in their subject cache, so nothing is
pickled, shipped or recompiled.  Outcome codes, merge order and
therefore the reports are identical either way; the report's
``telemetry`` carries the pool's reuse/respawn counts.

Fault collapsing (the ``collapse=`` path)
-----------------------------------------

``collapse="equiv"`` runs any of the schedules above over one
representative per structural equivalence class
(:mod:`repro.faults.collapse`) and expands the per-representative outcome
codes back onto the full universe before the deterministic merge --
equivalent faults compute the same faulty function on every observable
output, so they provably share a verdict in every session and the report
stays field-for-field identical while the scheduler sees a universe that
is typically 40-60% smaller (a multiplicative speedup on top of dropping,
superposition and fan-out).  ``collapse="dominance"`` additionally drops
gate-locally dominated classes; the report then covers the kept
representatives only (the universe genuinely changes), which is why it is
opt-in.  ``report.telemetry["collapse"]`` records class counts and the
achieved reduction.

Static prescreening (the ``prescreen=`` path)
---------------------------------------------

``prescreen="static"`` consults the sound untestability prover
(:mod:`repro.analysis.untestable`) before any scheduler runs: faults it
proves untestable -- constant sites, constant-blocked propagation cones
-- are resolved to ``FAULT_UNTESTABLE`` up front and ride the
already-resolved-codes machinery (the same path as a checkpoint resume),
so every rung skips them.  Proved faults are genuinely undetected, so the
report stays field-for-field identical to a full simulation while the
schedulers see strictly fewer faults.  ``prescreen="validate"`` inverts
the bargain: everything is simulated, and a detected proved-untestable
fault raises :exc:`~repro.exceptions.PrescreenViolation` -- the prover's
soundness (and the engines' exactness) as a continuously-checked
theorem.  ``report.telemetry["prescreen"]`` carries the verdict
tallies, the skip count and the per-fault proof witnesses.

Resilience (deadlines, retries, checkpoints, the degradation ladder)
--------------------------------------------------------------------

The runtime defends against *its own* failures, not just the simulated
ones:

* ``timeout=`` arms the pool's no-progress watchdog (and a cooperative
  per-chunk deadline on the serial path); hung workers are killed and
  their unfinished chunks re-dispatched with bounded exponential backoff
  up to the ``retries`` budget, after which a structured
  :exc:`~repro.exceptions.JobTimeout` /
  :exc:`~repro.exceptions.WorkerCrash` propagates.
* ``checkpoint=`` periodically snapshots the per-fault outcome array to
  disk (:mod:`repro.faults.checkpoint`), keyed by the SHA of the subject
  and the full campaign token; a rerun resumes from the completed prefix
  and the final report is bit-identical to an uninterrupted run.
* ``degrade=True`` walks the degradation ladder on repeated failure:
  pool (caller-owned or ephemeral) -> serial compiled -> serial
  interpreted, recording each step as a :class:`DegradationEvent`.
* every report carries ``telemetry["resilience"]``: retries, worker
  respawns, watchdog timeouts, re-dispatched chunks/faults, checkpoint
  resume counts, and the fallback events.  A campaign that raises
  returns no report; its exception carries the failure details.

``tests/test_chaos.py`` drives all of this with injected worker crashes,
hangs, closed pipes and poisoned payloads (:mod:`repro.faults.chaos`) and
asserts the reports stay field-for-field identical to the serial oracle.

Determinism guarantee
---------------------

Campaign results do not depend on ``workers``, ``dropping`` or
``chunk_size`` -- nor on crashes, retries, resumes or degradation
fallbacks: every fault's outcome is computed independently (lanes never
interact), the shared outcome array is indexed by the controller's
canonical fault order, and the merge rebuilds the report in that order, so
``CoverageReport`` equality holds field-for-field against the serial
oracle (tests/test_engine.py, tests/test_differential.py and
tests/test_chaos.py assert this across all architectures, engines and
failure schedules).
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import pickle
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from ..bist.compaction import LinearCompactor, stream_errors, transpose_words
from ..exceptions import (
    JobTimeout,
    PrescreenViolation,
    ReproError,
    WorkerCrash,
)
from .checkpoint import CampaignCheckpoint, campaign_key
from .collapse import COLLAPSE_MODES, FaultMap
from .coverage import (
    FAULT_DETECTED,
    FAULT_DROPPED,
    FAULT_UNTESTABLE,
    PRESCREEN_MODES,
    BlockFault,
    CoverageReport,
    _LAST_TELEMETRY,
    tally_report,
)

__all__ = [
    "LinearCompactor",
    "transpose_words",
    "stream_errors",
    "run_campaign",
    "deterministic_telemetry",
    "campaign_telemetry",
    "DegradationEvent",
]


def deterministic_telemetry(telemetry: Mapping[str, Any]) -> Dict[str, object]:
    """Deterministic, JSON-able slice of a report's campaign telemetry.

    The sweep harness (:mod:`repro.suite.sweep`) embeds this in each
    ``metrics.jsonl`` record, so only fields that are a pure function of
    the campaign *configuration* belong here: the collapse class counts
    (structural), the pattern-parallel ``dropped`` count (fixed by the
    chunking parameters, not by which worker stole which chunk) and the
    worker count.  Scheduling noise -- per-worker steal tallies, retries,
    respawns -- stays in :attr:`CoverageReport.telemetry` only, because
    metrics records must reproduce bit-identically from a manifest's
    seeds.  The prescreen slice qualifies too: proofs are a pure function
    of the netlist structure, so the proved/skipped tallies are
    scheduler-independent (witness strings stay in the full telemetry).
    The serial oracle's empty telemetry maps to all-``None`` fields.
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
        "workers": telemetry.get("workers"),
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


#: the degradation ladder, most capable rung first.
_LADDER = ("pool", "serial", "interpreted")


@dataclass(frozen=True)
class DegradationEvent:
    """One step down the degradation ladder, recorded in telemetry.

    ``rung_from``/``rung_to`` name the scheduler rungs (``"pool"``,
    ``"serial"``, ``"interpreted"``); ``kind`` classifies
    the triggering failure (``"timeout"``, ``"crash"``, ``"error"``) and
    ``error`` carries its one-line summary.
    """

    rung_from: str
    rung_to: str
    kind: str
    error: str

    def to_dict(self) -> Dict[str, str]:
        return {
            "rung_from": self.rung_from,
            "rung_to": self.rung_to,
            "kind": self.kind,
            "error": self.error,
        }


def _blank_resilience() -> Dict[str, object]:
    """Fresh ``telemetry["resilience"]`` record of one campaign."""
    return {
        "retries": 0,
        "respawns": 0,
        "timeouts": 0,
        "redispatched_faults": 0,
        "redispatched_chunks": 0,
        "fallbacks": [],
        "resumed": 0,
        "checkpoint": None,
    }


# ---------------------------------------------------------------------------
# per-fault / per-chunk outcome computation (shared by all schedulers)
# ---------------------------------------------------------------------------


def _chunk_outcomes(
    controller,
    bundle,
    reference,
    chunk: Sequence[BlockFault],
    cycles,
    seed,
    options,
) -> List[int]:
    """Outcome codes for one chunk of faults.

    With a screening bundle the whole chunk goes through the controller's
    ``campaign_detects_batch`` (screening, linear compaction and
    lane-superposed replays); without one each fault's
    ``self_test_signatures`` is compared against the fault-free
    ``reference``.
    """
    if bundle is not None:
        return [int(code) for code in controller.campaign_detects_batch(bundle, chunk)]
    return [
        int(
            controller.self_test_signatures(
                fault=block_fault, cycles=cycles, seed=seed, **options
            )
            != reference
        )
        for block_fault in chunk
    ]


def default_chunk_size(total: int, workers: int) -> int:
    """Steal granularity of the pooled scheduler (and the serial rung's
    checkpoint chunks).

    Small enough that the tail balances across workers, large enough that
    superposed batches still fill their fault lanes.
    """
    return max(1, min(256, -(-total // (workers * 4))))


def _campaign_state(controller, cycles, seed, dropping, options):
    """(reference signatures, screening bundle) -- built once per process.

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


# ---------------------------------------------------------------------------
# serial scheduler (chunked for checkpointing and cooperative deadlines)
# ---------------------------------------------------------------------------


def _serial_outcomes(
    controller,
    schedule: List[BlockFault],
    cycles,
    seed,
    dropping: bool,
    options,
    resume: Optional[Sequence[int]] = None,
    progress: Optional[Callable[[int, List[int]], None]] = None,
    deadline: Optional[float] = None,
    chunk_size: Optional[int] = None,
) -> List[int]:
    """In-process campaign, optionally chunked.

    Without resume/progress/deadline this is the historical single-batch
    call.  Otherwise the schedule is processed in chunks: resumed codes
    are skipped, ``progress(0, codes)`` fires after every chunk (the
    checkpoint writer rate-limits actual disk writes), and a chunk whose
    resolution exceeded ``deadline`` seconds raises
    :exc:`~repro.exceptions.JobTimeout` cooperatively -- the in-process
    analogue of the schedulers' no-progress watchdog.
    """
    reference, bundle = _campaign_state(controller, cycles, seed, dropping, options)
    total = len(schedule)
    if resume is None and progress is None and deadline is None:
        return _chunk_outcomes(
            controller, bundle, reference, schedule, cycles, seed, options
        )
    codes = list(resume) if resume is not None else [-1] * total
    step = chunk_size if chunk_size is not None else default_chunk_size(total, 1)
    for start in range(0, total, step):
        chunk_started = time.monotonic()
        todo = [
            (index, schedule[index])
            for index in range(start, min(start + step, total))
            if codes[index] < 0
        ]
        if todo:
            resolved = _chunk_outcomes(
                controller,
                bundle,
                reference,
                [block_fault for _index, block_fault in todo],
                cycles,
                seed,
                options,
            )
            for (index, _block_fault), code in zip(todo, resolved):
                codes[index] = code
        if progress is not None:
            progress(0, codes)
        elapsed = time.monotonic() - chunk_started
        if deadline is not None and elapsed > deadline:
            unprocessed = sum(1 for code in codes if code < 0)
            if unprocessed:
                raise JobTimeout(
                    f"serial campaign chunk exceeded the {deadline}s "
                    f"deadline ({elapsed:.2f}s; {unprocessed} faults "
                    "unprocessed)",
                    deadline=deadline,
                    attempts=1,
                    unprocessed=unprocessed,
                )
    return codes


# ---------------------------------------------------------------------------
# campaign runner
# ---------------------------------------------------------------------------


def _campaign_checkpoint(
    controller,
    schedule: List[BlockFault],
    cycles,
    seed,
    dropping: bool,
    options,
    collapse: str,
    path: str,
    interval: float,
) -> CampaignCheckpoint:
    """Checkpoint keyed by the subject and the *exact* campaign.

    The subject digest is the SHA-256 of the pickled controller -- the
    same content identity the :class:`~repro.faults.pool.CampaignPool`
    subject cache keys on.  (It was SHA-1 before
    the unification; checkpoints written by older versions therefore key
    differently and are ignored as stale -- a safe failure mode, the
    campaign just starts fresh.)
    """
    subject_digest = hashlib.sha256(
        pickle.dumps(controller, protocol=pickle.HIGHEST_PROTOCOL)
    ).hexdigest()
    schedule_digest = hashlib.sha256(
        "\n".join(repr(block_fault) for block_fault in schedule).encode("utf-8")
    ).hexdigest()
    token = (
        cycles,
        seed,
        bool(dropping),
        tuple(sorted(options.items())),
        collapse,
        schedule_digest,
    )
    return CampaignCheckpoint(
        path, campaign_key(subject_digest, token), len(schedule), interval=interval
    )


def _rung_pool(pool, workers: int, total: int, controller):
    """Context manager yielding the pool rung's pool.

    A caller-owned ``pool`` passes through untouched.  Otherwise the
    campaign gets an ephemeral ``CampaignPool(workers)``, closed (workers
    joined) on exit; its workers are forked with the live ``controller``
    preloaded into their subject cache -- compiled kernels included -- so
    the payload never ships and nothing recompiles.
    """
    if pool is not None:
        return contextlib.nullcontext(pool)
    from .pool import CampaignPool

    return CampaignPool(min(workers, total), preload=controller)


def _failure_kind(error: ReproError) -> str:
    if isinstance(error, JobTimeout):
        return "timeout"
    if isinstance(error, WorkerCrash):
        return "crash"
    return "error"


def run_campaign(
    controller,
    cycles: Optional[int] = None,
    seed: int = 1,
    workers: int = 0,
    dropping: bool = True,
    faults: Optional[Sequence[BlockFault]] = None,
    chunk_size: Optional[int] = None,
    pool=None,
    collapse: str = "none",
    prescreen: str = "none",
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    checkpoint: Optional[str] = None,
    checkpoint_interval: float = 5.0,
    degrade: bool = False,
    **session_options,
) -> CoverageReport:
    """Fault-simulation campaign with exact dropping and pooled fan-out.

    Semantics are identical to the serial
    :func:`repro.faults.coverage.measure_coverage` oracle (see the module
    docstring for why that holds even under fault dropping, lane
    superposition and equivalence collapsing); only the wall-clock
    changes.  ``dropping=True`` resolves faults through the
    controller's screening bundle and lane-superposed replays,
    ``dropping=False`` through one ``self_test_signatures`` run per
    fault.  ``workers <= 1`` runs in-process; larger values run the
    campaign on an ephemeral ``CampaignPool(workers)`` whose workers are
    forked with the controller already cached, closed when the campaign
    ends.  ``pool`` routes the campaign over a caller-owned persistent
    :class:`~repro.faults.pool.CampaignPool` instead (``workers`` is then
    ignored; the pool's size applies).  ``chunk_size`` overrides the steal
    granularity.  ``collapse`` schedules collapsed
    representatives only -- ``"equiv"`` expands the verdicts back to the
    full universe, ``"dominance"`` reports over the kept representatives
    (see the module docstring).

    ``prescreen="static"`` resolves statically-proved-untestable faults
    (:mod:`repro.analysis.untestable`) to
    :data:`~repro.faults.coverage.FAULT_UNTESTABLE` before any scheduler
    runs -- they ride the same already-resolved-codes machinery as a
    checkpoint resume, so every rung skips them; the report is
    field-for-field identical to a full simulation because proved faults
    are genuinely undetected.  ``prescreen="validate"`` simulates the
    full schedule and raises
    :exc:`~repro.exceptions.PrescreenViolation` if any engine detects a
    proved fault.  Both compose with ``collapse=``: verdicts are proved
    on the scheduled representatives, and equivalence classes share them
    by construction.  Proof witnesses and the skip tally land in
    ``report.telemetry["prescreen"]``.

    Resilience knobs (module docstring, "Resilience"): ``timeout`` arms
    the pool's no-progress watchdog / the serial rung's cooperative
    deadline, ``retries`` bounds the pool's re-dispatch loop (``None``
    defers to the pool's defaults, ephemeral or caller-owned alike),
    ``checkpoint`` names the snapshot file for crash-safe resume, and
    ``degrade=True`` walks the pool -> serial -> interpreted ladder on
    repeated failure instead of raising at the first exhausted budget.
    All of them preserve the bit-identical report guarantee.

    ``session_options`` are bound against the controller's
    ``self_test_signatures`` before anything runs, so an unknown option
    raises :exc:`TypeError` here instead of inside a pool worker (where
    the deterministic failure would be retried).

    The report's ``telemetry`` (excluded from report equality) says what
    the campaign did: ``workers``, ``chunk_size``, ``chunks_stolen`` (per
    worker), ``dropped`` (faults screened out pattern-parallel, ``None``
    when the interpreted rung ran), ``pool`` (reuse hits, campaigns and
    respawns on the pool rung, else ``None``), ``collapse`` (class counts,
    ``None`` when raw), ``resilience`` (see above) and ``prescreen``
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
    inspect.signature(controller.self_test_signatures).bind(
        fault=None, cycles=cycles, seed=seed, **options
    )
    universe: List[BlockFault] = (
        list(controller.fault_universe()) if faults is None else list(faults)
    )
    fault_map = None
    schedule = universe
    if collapse != "none":
        # When ``faults is None`` the universe above is the controller's
        # canonical order, so workers (which recompute it from their
        # cached subject) derive the exact same representative sequence.
        fault_map = FaultMap.for_controller(
            controller, faults=universe, mode=collapse
        )
        schedule = fault_map.representatives
    resilience = _blank_resilience()

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

    # -- checkpoint / shared progress state ----------------------------------
    ckpt: Optional[CampaignCheckpoint] = None
    codes_state: List[int] = [-1] * len(schedule)
    if checkpoint is not None:
        ckpt = _campaign_checkpoint(
            controller, schedule, cycles, seed, dropping, options, collapse,
            checkpoint, checkpoint_interval,
        )
        loaded = ckpt.load()
        if loaded is not None:
            codes_state = loaded
            resilience["resumed"] = sum(1 for code in codes_state if code >= 0)
        resilience["checkpoint"] = {
            "path": checkpoint,
            "resumed": resilience["resumed"],
        }

    if prescreen == "static" and prescreen_verdicts is not None:
        # Proved faults ride the same already-resolved-codes machinery as
        # a checkpoint resume: every scheduler rung skips codes >= 0, so
        # they are never simulated.  Checkpointed codes take precedence
        # (both are correct; the resumed code is the simulated truth).
        skipped = 0
        for index, verdict in enumerate(prescreen_verdicts):
            if verdict.is_untestable and codes_state[index] < 0:
                codes_state[index] = FAULT_UNTESTABLE
                skipped += 1
        assert prescreen_stats is not None
        prescreen_stats["skipped"] = skipped

    def note_progress(offset: int, slab_codes: List[int]) -> None:
        codes_state[offset : offset + len(slab_codes)] = slab_codes
        if ckpt is not None:
            ckpt.save(codes_state)

    # -- the degradation ladder ----------------------------------------------
    parallel = pool is not None or (
        workers and workers > 1 and len(schedule) > 1
    )
    start_rung = 0 if parallel else 1
    rungs = list(_LADDER[start_rung:]) if degrade else [_LADDER[start_rung]]

    codes: Optional[List[int]] = None
    scheduler: Dict[str, object] = {}
    for position, rung in enumerate(rungs):
        resume = (
            list(codes_state)
            if any(code >= 0 for code in codes_state)
            else None
        )
        try:
            if rung == "pool":
                with _rung_pool(pool, workers, len(schedule), controller) as active:
                    before = {key: active.stats[key] for key in (
                        "respawns", "retries", "timeouts",
                        "redispatched_faults", "redispatched_chunks",
                    )}
                    try:
                        codes = active.campaign_codes(
                            controller,
                            total=len(schedule),
                            faults=schedule if faults is not None else None,
                            cycles=cycles,
                            seed=seed,
                            dropping=dropping,
                            chunk_size=chunk_size,
                            options=options,
                            collapse=collapse,
                            timeout=timeout,
                            retries=retries,
                            resume=resume,
                            progress=note_progress,
                        )
                    finally:
                        for key, value in before.items():
                            resilience[key] += active.stats[key] - value
                    scheduler = {
                        "workers": active.workers,
                        "chunk_size": active.last_job.get("chunk_size"),
                        "chunks_stolen": list(
                            active.last_job.get("chunks_stolen", [])
                        ),
                        "pool": {
                            "reuse_hits": active.last_job.get("reuse_hits", 0),
                            "campaigns": active.stats["campaigns"],
                            "respawns": active.stats["respawns"],
                        },
                    }
                note_progress(0, codes)
            else:
                rung_options = options
                rung_dropping = dropping
                if rung == "interpreted":
                    # Last rung: the seed dict-keyed session loops, no
                    # compiled kernels, no screening -- the slowest and
                    # most battle-tested path in the library.
                    rung_options = dict(options, engine="interpreted")
                    rung_dropping = False
                codes = _serial_outcomes(
                    controller,
                    schedule,
                    cycles,
                    seed,
                    rung_dropping,
                    rung_options,
                    resume=resume,
                    progress=note_progress if (ckpt or degrade) else None,
                    deadline=timeout,
                    chunk_size=chunk_size,
                )
                note_progress(0, codes)
                scheduler = {
                    "workers": 1,
                    "chunk_size": (
                        chunk_size if chunk_size is not None else len(schedule)
                    ),
                    "chunks_stolen": [1],
                    "pool": None,
                }
            break
        except ReproError as error:
            if ckpt is not None:
                ckpt.save(codes_state, flush=True)
            if position == len(rungs) - 1:
                raise
            resilience["fallbacks"].append(
                DegradationEvent(
                    rung_from=rung,
                    rung_to=rungs[position + 1],
                    kind=_failure_kind(error),
                    error=str(error).splitlines()[0],
                )
            )

    assert codes is not None
    telemetry: Dict[str, object] = {
        **scheduler,
        # The interpreted rung never screens, so it has no drops to count.
        "dropped": (
            sum(1 for code in codes if code == FAULT_DROPPED)
            if rung != "interpreted"
            else None
        ),
        "collapse": fault_map.stats() if fault_map else None,
        "resilience": resilience,
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
    if ckpt is not None:
        ckpt.clear()
    if fault_map is not None:
        if collapse == "equiv":
            # Verdict-preserving: every class member inherits its
            # representative's code, restoring the full universe before
            # the deterministic merge below.
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
