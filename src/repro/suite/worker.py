"""Member workers: whole sweep members, each run in a forked process.

One corpus member's flow -- OSTR search, realisation, controller build
and fault campaign, :func:`repro.suite.sweep.sweep_member` -- is
independent of every other member's, so the whole member is the unit to
run in parallel.  A :class:`MemberWorker` is one forked, long-lived
process fed ``(member, SweepConfig)`` pairs over a pipe; it answers with
the record and the time its own ``sweep_member`` call took.  Campaigns
run in-process in the worker: nothing is pickled but the member, nothing
compiled twice.

* **Failures.**  A dead worker shows as pipe EOF or its process
  sentinel; ``timeout`` is an optional per-member deadline, past which
  the worker is killed.  The member then runs again in a fresh worker
  (``retries`` times, default once); if that fails too it becomes an
  error record carrying :exc:`~repro.exceptions.WorkerCrash` or
  :exc:`~repro.exceptions.JobTimeout`, never a hang.
* **Chaos.**  Pool-scope :mod:`repro.faults.chaos` events fire as each
  member starts.  Every spawn carries its generation, so a non-sticky
  event fires only in the first worker and the re-run converges.
* **Lifetime.**  :meth:`MemberWorker.close` joins with join -> terminate
  -> kill, so no child outlives its owner and children's CPU is reaped;
  a worker whose owner was killed sees its pipe close and exits.
* **Fork.**  Forking gives the worker the owner's imported package.
  Owners fork before starting threads of their own; only the fresh
  worker after a failure is forked from the driving thread, and the
  child runs nothing but its pipe loop and the pipeline.

:func:`run_members` drives N workers for ``run_sweep(workers=N)``; the
campaign service gives each executor slot one worker
(:mod:`repro.service.jobs`).
"""

from __future__ import annotations

import multiprocessing
import signal
import time
import traceback
from multiprocessing import connection as mp_connection
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..exceptions import JobTimeout, PoolClosed, ReproError, WorkerCrash
from ..faults.pool import release_owner_end, spawn_worker

__all__ = ["WORKER_OPTIONS", "MemberWorker", "run_members"]

#: the keyword options a member worker honours (the service's
#: ``pool_kwargs``).
WORKER_OPTIONS = ("timeout", "retries", "chaos")

#: seconds ``close`` waits at each step of join -> terminate -> kill.
_JOIN_S = 5.0


def _serve(connection, chaos_plan, index: int, generation: int) -> None:
    """Worker main loop: run members until shutdown or parent exit."""
    from ..faults.chaos import ChaosState
    from . import sweep

    # The owner decides when a worker stops; a terminal ^C or a drain
    # handler inherited from a serving process must not act here.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    chaos = ChaosState(chaos_plan, "pool", index, generation)
    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError):
            return  # owner went away
        if message is None:
            return
        member, config = message
        chaos.before_chunk(connection)
        try:
            start = time.perf_counter()
            record = sweep.sweep_member(member, config)
            reply = ("ok", record, time.perf_counter() - start)
        # The loop is the process's last frame: the error reply is the
        # only way to surface an unexpected failure to the owner.
        except Exception:  # repro-lint: disable=RL006
            reply = ("error", traceback.format_exc(), 0.0)
        try:
            connection.send(reply)
        except (BrokenPipeError, OSError):
            return


class MemberWorker:
    """One forked process that runs whole sweep members.

    Not thread-safe: one owner thread calls :meth:`run`; :meth:`close`
    may come from another thread to stop a worker mid-member.
    """

    def __init__(
        self,
        index: int = 0,
        timeout: Optional[float] = None,
        retries: int = 1,
        chaos=None,
    ) -> None:
        if timeout is not None and timeout <= 0:
            raise ReproError(f"member timeout must be > 0, got {timeout}")
        if retries < 0:
            raise ReproError(f"member retries must be >= 0, got {retries}")
        self.index = index
        self.timeout = timeout
        self.retries = retries
        self._chaos = chaos
        self._context = multiprocessing.get_context("fork")
        self._process: Any = None
        self._connection: Any = None
        self._generation = 0
        self._closed = False
        #: members answered, fresh workers after a failure, re-runs,
        #: deadline kills, and worker deaths.
        self.stats: Dict[str, int] = {
            "members": 0,
            "respawns": 0,
            "retries": 0,
            "timeouts": 0,
            "crashes": 0,
        }
        self._spawn()

    def _spawn(self) -> None:
        self._process, self._connection = spawn_worker(
            self._context,
            _serve,
            (self._chaos, self.index, self._generation),
            name=f"repro-member-{self.index}",
        )
        self._generation += 1

    def _stop(self) -> None:
        """Join the current process (terminate, then kill, if it lingers)."""
        process, connection = self._process, self._connection
        self._process = self._connection = None
        if process is None:
            return
        try:
            connection.send(None)
        except (BrokenPipeError, OSError):
            pass
        process.join(_JOIN_S)
        if process.is_alive():
            process.terminate()
            process.join(_JOIN_S)
        if process.is_alive():
            process.kill()
            process.join()
        release_owner_end(connection)

    def _attempt(self, member, config) -> Tuple[str, Any]:
        """One try: ``("ok", (record, member_s))`` or a failure kind."""
        process, connection = self._process, self._connection
        try:
            connection.send((member, config))
        except (BrokenPipeError, OSError):
            return "crash", f"worker {self.index} pipe closed"
        ready = mp_connection.wait(
            [connection, process.sentinel], timeout=self.timeout
        )
        if connection in ready:
            try:
                kind, payload, member_s = connection.recv()
            except (EOFError, OSError):
                kind = ""
            else:
                if kind == "error":
                    raise ReproError(
                        f"member worker {self.index} raised on "
                        f"{member.member_id}:\n{payload}"
                    )
                return "ok", (payload, member_s)
        if ready:
            process.join(_JOIN_S)
            return "crash", (
                f"worker {self.index} died (exit code {process.exitcode})"
            )
        process.kill()
        return "timeout", (
            f"worker {self.index} passed the {self.timeout}s member "
            "deadline; killed"
        )

    def run(self, member, config) -> Tuple[Dict[str, object], float]:
        """``(record, member_s)`` of one member.

        ``member_s`` is the worker's own timing of ``sweep_member`` (0.0
        for a failure record).  An unexpected exception inside
        ``sweep_member`` raises :exc:`~repro.exceptions.ReproError` with
        the worker's traceback; the worker keeps serving.
        """
        failures: List[str] = []
        kinds: Set[str] = set()
        for attempt in range(self.retries + 1):
            if self._closed:
                raise PoolClosed("member worker is closed")
            if self._process is None:
                self._spawn()
                self.stats["respawns"] += 1
            if attempt:
                self.stats["retries"] += 1
            kind, outcome = self._attempt(member, config)
            if kind == "ok":
                self.stats["members"] += 1
                return outcome
            self.stats["timeouts" if kind == "timeout" else "crashes"] += 1
            kinds.add(kind)
            failures.append(str(outcome))
            self._stop()
        if self._closed:
            raise PoolClosed("member worker is closed")
        attempts = self.retries + 1
        message = (
            f"{member.member_id} failed in {attempts} worker(s): "
            + "; ".join(failures)
        )
        error: ReproError
        if "timeout" in kinds:
            error = JobTimeout(
                message, deadline=self.timeout, attempts=attempts,
                failures=failures,
            )
        else:
            error = WorkerCrash(message, attempts=attempts, failures=failures)
        self.stats["members"] += 1
        record: Dict[str, object] = {
            "id": member.member_id,
            "family": member.family,
            "name": member.name,
            "kind": member.kind,
            "status": "error",
            "error": f"{type(error).__name__}: {error}",
        }
        if config.record_timings:
            record["wall"] = {}
        return record, 0.0

    def close(self) -> None:
        """Stop the worker process; idempotent."""
        self._closed = True
        self._stop()


def _member_size(member) -> int:
    """State count for largest-first dispatch (a member that does not
    build sorts last; its worker records the error)."""
    states = getattr(member, "spec", {}).get("n_states")
    if states is None:
        try:
            states = member.build().n_states
        except ReproError:
            states = 0
    return int(states)


def run_members(
    members: Sequence, config, workers: int
) -> Iterator[Tuple[int, Dict[str, object]]]:
    """Yield ``(index, record)`` for every member, in selection order.

    ``workers`` member workers take members largest first (by state
    count), so a slow member does not end up as the tail.  Records are
    exactly those of in-process ``sweep_member`` calls.  Closing the
    generator early stops every worker.
    """
    import queue  # sweep-only; the campaign service never needs these
    from concurrent.futures import ThreadPoolExecutor

    idle: "queue.SimpleQueue[MemberWorker]" = queue.SimpleQueue()
    pool = [MemberWorker(index) for index in range(workers)]
    for worker in pool:
        idle.put(worker)

    def run(index: int) -> Dict[str, object]:
        worker = idle.get()
        try:
            return worker.run(members[index], config)[0]
        finally:
            idle.put(worker)

    order = sorted(range(len(members)), key=lambda i: (-_member_size(members[i]), i))
    with ThreadPoolExecutor(workers) as executor:
        futures = {index: executor.submit(run, index) for index in order}
        try:
            for index in range(len(members)):
                yield index, futures[index].result()
        finally:
            for future in futures.values():
                future.cancel()
            for worker in pool:
                worker.close()
