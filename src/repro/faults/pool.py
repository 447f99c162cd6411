"""Campaign worker pools: multi-process fault campaigns of one controller.

:class:`CampaignPool` splits one campaign's fault universe across worker
processes.  It serves ``repro coverage --workers N`` and
:mod:`repro.experiments` (one long-lived pool for a machine's
architectures), and a single ``run_campaign(workers=N)`` opens an
ephemeral pool with the controller preloaded into every worker at fork
time (``preload=``), so a one-off campaign ships and recompiles nothing.
Whole sweep members -- the unit a sweep or the campaign service runs in
parallel -- go to :mod:`repro.suite.worker` instead.

* **Long-lived workers.**  ``workers`` processes are spawned once,
  inheriting the shared scheduling state (next-chunk counter, per-fault
  outcome flags, per-worker steal counters), and receive jobs over
  per-worker duplex pipes.  Two job kinds share the protocol: full
  ``measure_coverage`` campaigns and PPSFP pattern-set simulations.
* **Subject + state caches.**  A job references its subject (controller or
  netlist) by the SHA-256 of its pickled bytes (:func:`subject_digest`,
  the key campaign checkpoints use too); the payload ships only to
  workers that have not cached that digest yet ("reuse hits"), and every
  worker keeps the unpickled subject -- with its lazily compiled netlist
  kernels -- plus the per-(subject, session-parameters) campaign state
  across jobs.  Repeated campaigns therefore skip unpickle, recompile
  *and* reference-signature rebuild.
* **Chunk stealing, deterministic merge.**  Within a job, workers steal
  index chunks from the shared counter, so the tail stays balanced even
  when chunks finish unevenly (with dropping they always do: screened-out
  faults cost microseconds, fallback survivors replay whole sessions);
  the parent reads the outcome flags back index-ordered, so
  reports are bit-identical to the serial oracle regardless of schedule.
  The shared outcome array has a fixed ``capacity``; larger fault
  universes are processed in capacity-sized slabs, merged in order.
  Workers skip entries whose outcome flag is already resolved, which is
  what makes re-dispatch after a failure (and checkpoint resume) both
  cheap and exactness-preserving: completed codes persist in the shared
  array and only the gaps are recomputed.
* **Self-healing lifecycle with deadlines and a retry budget.**  An
  exception inside a job does not kill the worker -- the traceback ships
  back in the reply and the worker keeps serving.  A worker that *dies*
  (hard crash, ``os._exit``, closed pipe) is detected via pipe EOF /
  liveness; a worker that *hangs* is detected by the watchdog in
  :meth:`_collect` (no reply and no advance of the shared next-index
  counter within the ``timeout`` deadline) and killed.  Either way the
  pool respawns the dead workers and **re-dispatches the unfinished
  chunks** with bounded exponential backoff, up to ``retries`` times per
  slab; only an exhausted budget raises -- :exc:`JobTimeout` when the
  deadline kept expiring, :exc:`WorkerCrash` when workers kept dying, a
  plain :exc:`ResilienceError` for persistent soft job errors.
  ``close()`` shuts the workers down with join -> terminate -> kill
  escalation (a stuck process is never silently abandoned), is
  idempotent, and using a closed pool raises :exc:`PoolClosed`.  A
  worker whose owner was killed sees its pipe close and exits.
* **Chaos hooks.**  Workers consult :mod:`repro.faults.chaos` at their
  hook points (chunk steal, subject unpickle); with no plan armed --
  neither the ``chaos=`` parameter nor the :data:`~repro.faults.chaos.CHAOS_ENV`
  environment variable -- the hooks are inert.  Respawned workers carry
  their spawn *generation*, which gates non-sticky chaos events off so
  injected failures converge under the retry budget.

Scheduler telemetry (per-worker steal counts, reuse hits, respawns,
retries, watchdog timeouts, re-dispatched chunks) is returned on each
campaign's :attr:`~repro.faults.coverage.CoverageReport.telemetry` and
accumulated in :attr:`CampaignPool.stats`.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import pickle
import time
import traceback
import weakref
from collections import OrderedDict
from multiprocessing import connection as mp_connection
from typing import Callable, Dict, List, Optional, Sequence

from ..exceptions import (
    JobTimeout,
    PoolClosed,
    ReproError,
    ResilienceError,
    WorkerCrash,
)
from .chaos import ChaosPlan, ChaosState
from .collapse import FaultMap
from .simulator import _ppsfp_state, _superposed_flags
from .stuck_at import all_faults

__all__ = ["CampaignPool", "release_owner_end", "spawn_worker", "subject_digest"]


def subject_digest(payload: bytes) -> str:
    """Content identity of a pickled subject: hex SHA-256 of the bytes.

    The pool's worker-side subject caches and the campaign checkpoint
    keys (:mod:`repro.faults.checkpoint`) both key on this value.
    """
    return hashlib.sha256(payload).hexdigest()


#: the owner-side pipe ends of this process's live workers -- campaign
#: pool workers and the member workers of :mod:`repro.suite.worker`.  A
#: forked worker closes its inherited copies before anything else, so
#: each worker's pipe reaches EOF as soon as its owner is gone -- even
#: after a ``kill -9``.
_OWNER_ENDS: set = set()


def spawn_worker(context, target: Callable, args: tuple, name=None):
    """Fork a daemon ``target(connection, *args)`` over a fresh pipe.

    Returns ``(process, owner_end)``; hand ``owner_end`` back through
    :func:`release_owner_end` once the worker is joined.
    """
    owner_end, child_end = context.Pipe()
    process = context.Process(
        target=_run_worker,
        args=(target, child_end) + tuple(args),
        name=name,
        daemon=True,
    )
    _OWNER_ENDS.add(owner_end)  # the child closes its copy of this too
    process.start()
    child_end.close()
    return process, owner_end


def _run_worker(target: Callable, connection, *args) -> None:
    for end in _OWNER_ENDS:
        end.close()
    target(connection, *args)


def release_owner_end(end) -> None:
    """Close the owner end of a joined worker's pipe."""
    _OWNER_ENDS.discard(end)
    end.close()


#: grace period (seconds) the parent keeps waiting for surviving workers
#: after it has observed a crashed sibling -- a dead worker can leave the
#: shared counter lock held, wedging the rest of the slab.  An explicit
#: job ``timeout`` takes precedence when shorter.
_CRASH_GRACE = 10.0

#: ceiling on one exponential-backoff sleep between re-dispatch attempts.
_BACKOFF_CAP = 2.0

#: per-worker bound on cached subjects.  The parent tracks each worker's
#: cache contents, evicts least-recently-used subjects (and their session
#: states) via the job protocol, and re-ships payloads on demand, so a
#: long-lived pool sweeping many machines cannot grow without bound.
_SUBJECT_CACHE_LIMIT = 8

#: minimum spacing (seconds) between progress-callback snapshots of the
#: shared outcome array while a job is collecting.
_PROGRESS_INTERVAL = 0.5


# ---------------------------------------------------------------------------
# worker side (module-level for picklability under spawn contexts)
# ---------------------------------------------------------------------------


def _job_universe(job: Dict[str, object], subject) -> List:
    """This slab's fault slice, recomputed or shipped.

    Explicit fault lists travel in the job; the default universe is
    recomputed from the cached subject (``fault_universe()`` /
    :func:`all_faults` are deterministic), which keeps repeat jobs free of
    per-campaign pickling.  Collapsed jobs recompute the representative
    sequence the same way -- class ids are deterministic in the canonical
    fault order and the collapse tables are cached per (worker-cached)
    subject netlist, so the parent never ships the collapsed list and the
    worker's slice matches the parent's expansion map exactly.
    """
    if job["faults"] is not None:
        return job["faults"]
    if job["kind"] == "campaign":
        universe = subject.fault_universe()
    else:
        universe = all_faults(subject)
    collapse = job.get("collapse", "none")
    if collapse != "none":
        if job["kind"] == "campaign":
            fault_map = FaultMap.for_controller(
                subject, faults=universe, mode=collapse
            )
        else:
            fault_map = FaultMap.for_netlist(
                subject, faults=universe, mode=collapse
            )
        universe = fault_map.representatives
    return universe[job["offset"] : job["offset"] + job["count"]]


#: per-subject bound on cached *campaign* session states (a seed/cycles
#: sweep over one controller would otherwise accumulate one reference
#: bundle per parameter combination forever).  Campaign states rebuild
#: from the job message alone, so workers may evict them unilaterally;
#: PPSFP states may not (the parent stops re-shipping a pattern set it
#: believes cached), so those only leave with their subject.
_SESSION_STATE_LIMIT = 8


def _worker_state(job: Dict[str, object], subject, states: Dict):
    """Per-(subject, session-parameters) state, cached across jobs."""
    state_key = (job["key"], job["token"])
    if state_key in states:
        if job["kind"] == "campaign":
            states[state_key] = states.pop(state_key)  # LRU touch
        return states[state_key]
    if job["kind"] == "campaign":
        from .engine import _campaign_state

        states[state_key] = _campaign_state(
            subject, job["cycles"], job["seed"], job["dropping"], job["options"]
        )
        campaign_keys = [
            sk
            for sk in states
            if sk[0] == job["key"] and sk[1][0] == "campaign"
        ]
        for stale in campaign_keys[: -_SESSION_STATE_LIMIT]:
            del states[stale]
    else:
        if job["patterns"] is None:
            raise ReproError(
                "pool protocol error: PPSFP state missing but the "
                "pattern payload was not shipped"
            )
        states[state_key] = _ppsfp_state(subject, job["patterns"])
    return states[state_key]


def _worker_serve(
    job: Dict[str, object],
    subjects: Dict,
    states: Dict,
    worker_index: int,
    next_index,
    outcomes,
    steal_counts,
    connection,
    chaos: ChaosState,
) -> bool:
    """Run one job's chunk-steal loop; returns True on a subject cache hit."""
    for evicted in job.get("evict", ()):
        subjects.pop(evicted, None)
        for state_key in [sk for sk in states if sk[0] == evicted]:
            del states[state_key]
    key = job["key"]
    reused = key in subjects
    if not reused:
        if job["payload"] is None:
            raise ReproError(
                f"pool worker {worker_index} has no cached subject {key[:12]}"
            )
        chaos.before_unpickle()
        subjects[key] = pickle.loads(job["payload"])
    subject = subjects[key]
    try:
        return _worker_run_job(
            job, subject, states, worker_index, next_index, outcomes,
            steal_counts, reused, connection, chaos,
        )
    except BaseException:
        # The parent's cache mirror only records subjects on successful
        # replies; keep the worker consistent with it (and leak-free) by
        # rolling a failed job's fresh subject and states back out.
        if not reused:
            subjects.pop(key, None)
            for state_key in [sk for sk in states if sk[0] == key]:
                del states[state_key]
        raise


def _worker_run_job(
    job: Dict[str, object],
    subject,
    states: Dict,
    worker_index: int,
    next_index,
    outcomes,
    steal_counts,
    reused: bool,
    connection,
    chaos: ChaosState,
) -> bool:
    """Chunk-steal loop of one job against a resolved, cached subject."""
    state = _worker_state(job, subject, states)
    universe = _job_universe(job, subject)
    total = len(universe)
    chunk_size = job["chunk_size"]
    if job["kind"] == "campaign":
        from .engine import _chunk_outcomes

        reference, bundle = state

        def resolve(chunk):
            return _chunk_outcomes(
                subject,
                bundle,
                reference,
                chunk,
                job["cycles"],
                job["seed"],
                job["options"],
            )

    else:

        def resolve(chunk):
            return _superposed_flags(state, chunk)

    while True:
        with next_index.get_lock():
            start = next_index.value
            if start >= total:
                break
            next_index.value = start + chunk_size
        steal_counts[worker_index] += 1
        chaos.before_chunk(connection)
        chunk = universe[start : start + chunk_size]
        # Re-dispatched and checkpoint-resumed jobs arrive with some
        # outcome flags already resolved; recompute only the gaps (every
        # fault's code is independent, so the merge stays bit-identical).
        todo = [
            (offset, block_fault)
            for offset, block_fault in enumerate(chunk)
            if outcomes[start + offset] < 0
        ]
        if not todo:
            continue
        codes = resolve([block_fault for _offset, block_fault in todo])
        for (offset, _block_fault), code in zip(todo, codes):
            outcomes[start + offset] = code
    return reused


def _pool_worker(
    connection,
    worker_index,
    next_index,
    outcomes,
    steal_counts,
    chaos_plan,
    generation,
    preload,
):
    """Worker main loop: serve jobs until shutdown or parent exit.

    Job-level exceptions are shipped back as ``("error", ...)`` replies and
    the worker keeps serving -- only a hard crash (or shutdown) ends the
    process, and the parent detects that through the pipe.  ``generation``
    counts how many times this worker slot has been (re)spawned; chaos
    events use it to disarm after the first generation (see
    :mod:`repro.faults.chaos`).  ``preload`` is ``{digest: subject}``,
    the subject cache the worker starts with.
    """
    subjects: Dict = dict(preload)
    states: Dict = {}
    chaos = ChaosState(chaos_plan, "pool", worker_index, generation)
    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError):
            break  # parent went away
        if message[0] == "shutdown":
            break
        job = message[1]
        try:
            reused = _worker_serve(
                job,
                subjects,
                states,
                worker_index,
                next_index,
                outcomes,
                steal_counts,
                connection,
                chaos,
            )
            connection.send(("done", worker_index, reused))
        # The worker loop is the process's last frame: the only way to
        # surface *any* failure (including KeyboardInterrupt unpickling
        # poison) is the error channel, so swallowing here is the
        # reporting mechanism, not a leak.
        except BaseException:  # repro-lint: disable=RL006
            connection.send(("error", worker_index, traceback.format_exc()))


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


class CampaignPool:
    """A persistent pool of fault-simulation worker processes.

    Use as a context manager or ``close()`` explicitly.  All jobs are
    deterministic: outcomes are merged index-ordered, so the resulting
    reports equal the serial oracle's field for field (the pooled cells of
    ``tests/test_differential.py`` assert exactly that) -- including
    through worker crashes, hangs and re-dispatches
    (``tests/test_chaos.py``).

    Resilience knobs (overridable per job through
    :func:`repro.faults.engine.run_campaign`):

    ``timeout``
        watchdog deadline in seconds: a job attempt with no scheduling
        progress (no worker reply, no advance of the shared next-index
        counter) for this long has its remaining workers killed and the
        unfinished chunks re-dispatched.  ``None`` disables the watchdog
        (crashes are still detected via pipe EOF / liveness).
    ``retries``
        how many times a failed slab is re-dispatched before the
        structured failure (:exc:`JobTimeout` / :exc:`WorkerCrash` /
        :exc:`ResilienceError`) propagates.
    ``backoff``
        base of the bounded exponential backoff slept between attempts
        (``backoff * 2**(attempt-1)``, capped at 2 s).
    ``chaos``
        a :class:`~repro.faults.chaos.ChaosPlan` injected into the
        workers (tests); the :data:`~repro.faults.chaos.CHAOS_ENV`
        environment variable arms the same hooks process-wide.
    ``preload``
        a subject every worker -- respawns included -- starts with in
        its cache, so its payload never ships.  Under the default fork
        context the workers inherit the live object, compiled kernels
        and all.  :func:`repro.faults.engine.run_campaign` sets it on the
        ephemeral pool of a ``workers=N`` campaign.
    """

    def __init__(
        self,
        workers: int,
        capacity: int = 1 << 15,
        context: Optional[object] = None,
        timeout: Optional[float] = None,
        retries: int = 2,
        backoff: float = 0.05,
        chaos: Optional[ChaosPlan] = None,
        preload=None,
    ) -> None:
        if workers < 1:
            raise ReproError(f"pool needs >= 1 worker, got {workers}")
        if capacity < 1:
            raise ReproError(f"pool capacity must be >= 1, got {capacity}")
        if retries < 0:
            raise ReproError(f"pool retries must be >= 0, got {retries}")
        if timeout is not None and timeout <= 0:
            raise ReproError(f"pool timeout must be > 0, got {timeout}")
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self._capacity = capacity
        self._chaos = chaos
        self._context = context if context is not None else multiprocessing.get_context()
        self._next_index = self._context.Value("l", 0)
        self._outcomes = self._context.Array("b", capacity, lock=False)
        self._steal_counts = self._context.Array("l", workers, lock=False)
        self._members: List[Optional[tuple]] = [None] * workers
        #: spawn generation per worker slot (0 = initial spawn); respawned
        #: workers get a higher generation, which disarms non-sticky chaos
        #: events so injected failures converge under the retry budget.
        self._generations: List[int] = [0] * workers
        # Parent-side mirror of each worker's cache: subject key ->
        # session tokens, LRU-ordered, so payloads/patterns ship only on
        # misses and evictions stay coordinated with the worker.
        self._worker_cache: List[OrderedDict] = [
            OrderedDict() for _ in range(workers)
        ]
        self._pending_evict: List[List[str]] = [[] for _ in range(workers)]
        # subject -> (payload bytes, digest): repeat jobs on a live subject
        # skip re-pickling it just to recompute a known cache key.  Safe
        # because subjects are frozen once built (netlists seal their
        # structure; controllers are static after construction).
        self._payloads: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        # Indices whose worker was observed crashing (pipe EOF / liveness).
        # Tracked explicitly because a freshly-dead child may not be
        # waitable yet, so ``is_alive()`` alone can still say True.
        self._dead: set = set()
        self._closed = False
        self._preload: Dict[str, object] = {}
        if preload is not None:
            self._preload[self._payload(preload)[1]] = preload
        #: cumulative pool telemetry (also folded into each campaign
        #: report's ``telemetry``): jobs served per kind, subject-cache reuse
        #: hits across workers, worker respawns after crashes, slab
        #: re-dispatch retries, watchdog timeout firings, and how many
        #: faults/chunks those retries re-dispatched.
        self.stats: Dict[str, int] = {
            "campaigns": 0,
            "ppsfp": 0,
            "reuse_hits": 0,
            "respawns": 0,
            "retries": 0,
            "timeouts": 0,
            "redispatched_faults": 0,
            "redispatched_chunks": 0,
        }
        #: telemetry of the most recent job (chunk size, per-worker steal
        #: counts summed over slabs and attempts, reuse hits, plus the
        #: job's retry/timeout/re-dispatch counters).
        self.last_job: Dict[str, object] = {}
        for index in range(workers):
            self._spawn(index)

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self, index: int) -> None:
        process, parent_end = spawn_worker(
            self._context,
            _pool_worker,
            (
                index,
                self._next_index,
                self._outcomes,
                self._steal_counts,
                self._chaos,
                self._generations[index],
                self._preload,
            ),
        )
        self._generations[index] += 1
        self._members[index] = (process, parent_end)
        self._worker_cache[index] = OrderedDict(
            (key, set()) for key in self._preload
        )
        self._pending_evict[index] = []

    def _heal(self) -> None:
        """Replace dead workers after a crash.

        A worker can die *while holding* the shared next-index lock (the
        POSIX semaphore underneath is not robust to owner death), which
        would wedge every future job.  A crash therefore resets the whole
        scheduling core: the counter is reallocated and **all** workers
        are restarted against it -- survivors cannot keep running with the
        old counter, and their subject caches are rebuilt on the next job
        (crashes are the exceptional path; reuse only pauses for one job).
        """
        dead = set(self._dead)
        for index, (process, _connection) in enumerate(self._members):
            if not process.is_alive():
                dead.add(index)
        if not dead:
            return
        self._next_index = self._context.Value("l", 0)
        for index, (process, connection) in enumerate(self._members):
            if process.is_alive():
                process.terminate()
            release_owner_end(connection)
            process.join()
            self._spawn(index)
            self.stats["respawns"] += 1
        self._dead.clear()

    def _ensure_open(self) -> None:
        if self._closed:
            raise PoolClosed("campaign pool is closed")

    def close(self, timeout: float = 5.0) -> None:
        """Shut the workers down; idempotent.

        Every worker is joined with escalation -- cooperative shutdown
        message, ``join(timeout)``, then ``terminate`` (SIGTERM), then
        ``kill`` (SIGKILL) -- so a hung or wedged worker can never outlive
        the pool as a zombie child.
        """
        if self._closed:
            return
        self._closed = True
        for process, connection in self._members:
            try:
                connection.send(("shutdown",))
            except (BrokenPipeError, OSError):
                pass
        for process, connection in self._members:
            process.join(timeout=timeout)
            if process.is_alive():
                process.terminate()
                process.join(timeout=timeout)
            if process.is_alive():
                process.kill()
                process.join()
            release_owner_end(connection)

    def __enter__(self) -> "CampaignPool":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    # -- job execution -------------------------------------------------------

    def _payload(self, subject) -> tuple:
        """(pickled bytes, digest) of a subject, memoised per live object."""
        try:
            return self._payloads[subject]
        except (KeyError, TypeError):
            payload = pickle.dumps(subject, protocol=pickle.HIGHEST_PROTOCOL)
            entry = (payload, subject_digest(payload))
            try:
                self._payloads[subject] = entry
            except TypeError:
                pass  # un-weakref-able subject: just recompute next time
            return entry

    def _broadcast(self, job: Dict[str, object], payload: bytes) -> None:
        key = job["key"]
        token = job["token"]
        for attempt in (0, 1):
            try:
                for index in range(self.workers):
                    _process, connection = self._members[index]
                    known = self._worker_cache[index].get(key)
                    shipped = dict(job)
                    shipped["payload"] = None if known is not None else payload
                    if (
                        "patterns" in shipped
                        and known is not None
                        and token in known
                    ):
                        # worker holds the (subject, patterns) state --
                        # don't re-ship the pattern list every slab
                        shipped["patterns"] = None
                    shipped["evict"] = list(self._pending_evict[index])
                    connection.send(("job", shipped))
                    self._pending_evict[index] = []
                return
            except (BrokenPipeError, OSError):
                # A worker died between jobs (e.g. its crash outran the
                # liveness check).  _heal() restarts *every* worker, which
                # also discards any copies of this job already sent, so
                # the whole broadcast restarts cleanly -- once.
                if attempt:
                    raise WorkerCrash(
                        "pool worker pipes broken twice in a row"
                    )
                self._dead.add(index)
                self._heal()

    def _collect(
        self,
        deadline: Optional[float] = None,
        progress: Optional[Callable[[], None]] = None,
    ) -> tuple:
        """Wait for one reply per worker; returns (reuse_flags, failures).

        ``failures`` is a list of dicts ``{"kind", "worker", "detail"}``
        with ``kind`` one of ``"crash"`` (pipe EOF / dead process),
        ``"timeout"`` (the no-progress watchdog fired), ``"stalled"``
        (survivor cut loose after a sibling crash) or ``"error"`` (a soft
        job exception, detail carries the worker traceback).

        The watchdog measures *scheduling progress*: a worker reply or an
        advance of the shared next-index counter resets the clock.  With
        ``deadline=None`` only crash detection runs and a hung worker
        blocks forever (the pre-deadline behaviour).  ``progress`` is
        invoked at most every ``_PROGRESS_INTERVAL`` seconds while
        waiting (checkpoint snapshots of the shared outcome array).
        """
        pending: Dict[object, int] = {
            self._members[index][1]: index for index in range(self.workers)
        }
        reuse_flags: Dict[int, bool] = {}
        failures: List[Dict[str, object]] = []
        crash_seen_at: Optional[float] = None
        last_progress = time.monotonic()
        last_counter = self._next_index.value
        last_snapshot = time.monotonic()

        def mark_dead(index: int) -> None:
            nonlocal crash_seen_at
            process = self._members[index][0]
            failures.append(
                {
                    "kind": "crash",
                    "worker": index,
                    "detail": (
                        f"worker {index} died (exit code {process.exitcode})"
                    ),
                }
            )
            self._dead.add(index)
            crash_seen_at = crash_seen_at or time.monotonic()

        while pending:
            # One blocking wait over all outstanding pipes; a dead
            # worker's pipe becomes ready (EOF) and recv raises.
            ready = mp_connection.wait(list(pending), timeout=0.2)
            now = time.monotonic()
            counter = self._next_index.value
            if ready or counter != last_counter:
                last_progress = now
                last_counter = counter
            for connection in ready:
                index = pending.pop(connection)
                try:
                    reply = connection.recv()
                except (EOFError, OSError):
                    mark_dead(index)
                    continue
                if reply[0] == "done":
                    reuse_flags[index] = reply[2]
                else:
                    failures.append(
                        {
                            "kind": "error",
                            "worker": index,
                            "detail": f"worker {index} raised:\n{reply[2]}",
                        }
                    )
            if not ready:
                for connection, index in list(pending.items()):
                    if not self._members[index][0].is_alive():
                        del pending[connection]
                        mark_dead(index)
            if progress is not None and now - last_snapshot >= _PROGRESS_INTERVAL:
                progress()
                last_snapshot = now
            # Watchdog: no replies and no chunk steals for the whole
            # deadline means the remaining workers are hung (or wedged on
            # a lock a dead sibling left held) -- kill them and let the
            # caller re-dispatch the unfinished chunks.
            if (
                pending
                and deadline is not None
                and now - last_progress > deadline
            ):
                for connection, index in sorted(
                    pending.items(), key=lambda item: item[1]
                ):
                    process = self._members[index][0]
                    failures.append(
                        {
                            "kind": "timeout",
                            "worker": index,
                            "detail": (
                                f"worker {index} hung (no progress within "
                                f"{deadline}s deadline); killed"
                            ),
                        }
                    )
                    process.terminate()
                    self._dead.add(index)
                pending.clear()
                break
            # A crashed worker can leave the shared counter lock held; give
            # the survivors a grace period, then cut them loose too.
            grace = _CRASH_GRACE if deadline is None else min(_CRASH_GRACE, deadline)
            if (
                pending
                and crash_seen_at is not None
                and now - crash_seen_at > grace
            ):
                for connection, index in sorted(
                    pending.items(), key=lambda item: item[1]
                ):
                    process = self._members[index][0]
                    failures.append(
                        {
                            "kind": "stalled",
                            "worker": index,
                            "detail": (
                                f"worker {index} stalled after a sibling "
                                "crash; terminated"
                            ),
                        }
                    )
                    process.terminate()
                    self._dead.add(index)
                pending.clear()
        return reuse_flags, failures

    def _raise_exhausted(
        self,
        kind: str,
        failures: List[Dict[str, object]],
        attempts: int,
        unprocessed: int,
        deadline: Optional[float],
    ) -> None:
        """Raise the structured failure for an exhausted retry budget."""
        details = [failure["detail"] for failure in failures]
        kinds = {failure["kind"] for failure in failures}
        message = (
            f"campaign pool {kind} job failed after {attempts} attempt(s) "
            f"({unprocessed} faults unprocessed):\n" + "\n".join(details)
        )
        common = dict(
            attempts=attempts, unprocessed=unprocessed, failures=details
        )
        if "timeout" in kinds:
            raise JobTimeout(message, deadline=deadline, **common)
        if "crash" in kinds or "stalled" in kinds:
            raise WorkerCrash(message, **common)
        raise ResilienceError(message, **common)

    def _run(
        self,
        kind: str,
        subject,
        total: int,
        faults: Optional[List],
        job_base: Dict[str, object],
        chunk_size: Optional[int],
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        resume: Optional[Sequence[int]] = None,
        progress: Optional[Callable[[int, List[int]], None]] = None,
    ) -> List[int]:
        self._ensure_open()
        self._heal()
        deadline = self.timeout if timeout is None else timeout
        budget = self.retries if retries is None else retries
        if budget < 0:
            raise ReproError(f"retries must be >= 0, got {budget}")
        job_stats = {
            "retries": 0,
            "timeouts": 0,
            "redispatched_faults": 0,
            "redispatched_chunks": 0,
        }
        if total == 0:
            self.last_job = {"chunk_size": 0, "chunks_stolen": [0] * self.workers,
                            "reuse_hits": self.workers, **job_stats}
            return []
        payload, key = self._payload(subject)
        if chunk_size is not None and chunk_size < 1:
            raise ReproError(f"chunk_size must be >= 1, got {chunk_size}")
        codes: List[int] = []
        steals = [0] * self.workers
        reuse_hits = 0
        for slab, offset in enumerate(range(0, total, self._capacity)):
            count = min(self._capacity, total - offset)
            slab_chunk = chunk_size
            if slab_chunk is None:
                from .engine import default_chunk_size

                slab_chunk = default_chunk_size(count, self.workers)
            initial = (
                list(resume[offset : offset + count])
                if resume is not None
                else [-1] * count
            )
            if all(code >= 0 for code in initial):
                # the whole slab was resumed from a checkpoint
                codes.extend(initial)
                continue
            # The slab's outcome flags persist across re-dispatch attempts:
            # completed codes are kept and workers skip them, so each retry
            # only recomputes the gaps.
            self._outcomes[:count] = initial
            job = dict(
                job_base,
                kind=kind,
                key=key,
                offset=offset,
                count=count,
                chunk_size=slab_chunk,
                faults=(
                    faults[offset : offset + count] if faults is not None else None
                ),
            )
            slab_progress = None
            if progress is not None:
                slab_progress = lambda: progress(  # noqa: E731
                    offset, list(self._outcomes[:count])
                )
            failures: List[Dict[str, object]] = []
            for attempt in range(budget + 1):
                if attempt:
                    unfinished = sum(
                        1 for index in range(count) if self._outcomes[index] < 0
                    )
                    job_stats["retries"] += 1
                    job_stats["redispatched_faults"] += unfinished
                    job_stats["redispatched_chunks"] += -(-unfinished // slab_chunk)
                    time.sleep(
                        min(self.backoff * (2 ** (attempt - 1)), _BACKOFF_CAP)
                    )
                self._next_index.value = 0
                self._steal_counts[:] = [0] * self.workers
                self._broadcast(job, payload)
                reuse_flags, failures = self._collect(deadline, slab_progress)
                for index in range(self.workers):
                    steals[index] += self._steal_counts[index]
                if any(f["kind"] == "timeout" for f in failures):
                    job_stats["timeouts"] += 1
                token = job_base["token"]
                for index, reused in reuse_flags.items():
                    cache = self._worker_cache[index]
                    tokens = cache.setdefault(key, set())
                    tokens.add(token)
                    cache.move_to_end(key)
                    while len(cache) > _SUBJECT_CACHE_LIMIT:
                        evicted_key, _tokens = cache.popitem(last=False)
                        self._pending_evict[index].append(evicted_key)
                    # PPSFP states pin their packed pattern streams and cannot
                    # be evicted worker-side (the parent would stop re-shipping
                    # the patterns), so a subject churning through many pattern
                    # sets is evicted wholesale and re-ships on next use.
                    if (
                        kind == "ppsfp"
                        and key in cache
                        and sum(1 for t in cache[key] if t[0] == "ppsfp")
                        > _SESSION_STATE_LIMIT
                    ):
                        del cache[key]
                        self._pending_evict[index].append(key)
                    if slab == 0 and attempt == 0 and reused:
                        reuse_hits += 1
                complete = all(
                    self._outcomes[index] >= 0 for index in range(count)
                )
                if complete:
                    # A late failure with a fully-resolved outcome array is
                    # still a valid result -- every code is deterministic
                    # and the merge is index-ordered -- so accept it (after
                    # healing any casualties) instead of burning retries.
                    if failures:
                        self._heal()
                    break
                self._heal()
            slab_codes = list(self._outcomes[:count])
            if slab_progress is not None:
                slab_progress()  # final snapshot (also feeds on-failure saves)
            if any(code < 0 for code in slab_codes):
                self.stats["retries"] += job_stats["retries"]
                self.stats["timeouts"] += job_stats["timeouts"]
                self.stats["redispatched_faults"] += job_stats["redispatched_faults"]
                self.stats["redispatched_chunks"] += job_stats["redispatched_chunks"]
                self.last_job = {
                    "chunk_size": slab_chunk,
                    "chunks_stolen": steals,
                    "reuse_hits": reuse_hits,
                    **job_stats,
                }
                self._raise_exhausted(
                    kind,
                    failures,
                    attempts=budget + 1,
                    unprocessed=sum(1 for code in slab_codes if code < 0),
                    deadline=deadline,
                )
            codes.extend(slab_codes)
        self.stats[kind if kind == "ppsfp" else "campaigns"] += 1
        self.stats["reuse_hits"] += reuse_hits
        for stat_key, value in job_stats.items():
            self.stats[stat_key] += value
        self.last_job = {
            "chunk_size": slab_chunk,
            "chunks_stolen": steals,
            "reuse_hits": reuse_hits,
            **job_stats,
        }
        return codes

    # -- public job kinds ----------------------------------------------------

    def campaign_codes(
        self,
        controller,
        total: int,
        faults: Optional[List],
        cycles: Optional[int],
        seed: int,
        dropping: bool,
        chunk_size: Optional[int],
        options: Dict[str, object],
        collapse: str = "none",
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        resume: Optional[Sequence[int]] = None,
        progress: Optional[Callable[[int, List[int]], None]] = None,
    ) -> List[int]:
        """Outcome codes of one fault-simulation campaign (engine protocol).

        Called by :func:`repro.faults.engine.run_campaign` with the
        controller's canonical fault order; ``faults`` is the explicit
        list when the caller restricted the universe, else ``None`` and
        workers recompute ``fault_universe()`` -- applying ``collapse``
        to it deterministically -- from their cached subject.
        ``timeout``/``retries`` override the pool defaults for this job;
        ``resume`` pre-fills already-resolved outcome codes (checkpoint
        resume) and ``progress(offset, slab_codes)`` receives periodic
        snapshots of the shared outcome array for checkpointing.
        """
        token = (
            "campaign",
            cycles,
            seed,
            bool(dropping),
            tuple(sorted(options.items())),
        )
        job_base = {
            "cycles": cycles,
            "seed": seed,
            "dropping": bool(dropping),
            "options": options,
            "collapse": collapse,
            "token": token,
        }
        return self._run(
            "campaign",
            controller,
            total,
            faults,
            job_base,
            chunk_size,
            timeout=timeout,
            retries=retries,
            resume=resume,
            progress=progress,
        )

    def ppsfp_flags(
        self,
        netlist,
        patterns: Sequence[str],
        faults: Optional[List],
        total: int,
        chunk_size: Optional[int] = None,
        collapse: str = "none",
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
    ) -> List[int]:
        """Per-fault detection flags of one PPSFP pattern-set simulation."""
        patterns = list(patterns)
        digest = hashlib.sha256("\n".join(patterns).encode("ascii")).hexdigest()
        job_base = {
            "patterns": patterns,
            "collapse": collapse,
            "token": ("ppsfp", len(patterns), digest),
        }
        return self._run(
            "ppsfp",
            netlist,
            total,
            faults,
            job_base,
            chunk_size,
            timeout=timeout,
            retries=retries,
        )
