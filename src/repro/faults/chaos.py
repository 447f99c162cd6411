"""Chaos injection for the fault-simulation runtime itself.

The campaign scheduler (:mod:`repro.faults.pool`, which every
multi-process campaign of :mod:`repro.faults.engine` runs on) promises
bit-identical :class:`CoverageReport` objects *through* worker crashes,
hangs and broken pipes -- promises that are worthless unless those paths
are exercised on purpose.  This module is the fault model for the test
infrastructure: small, deterministic injection plans that the worker
processes consult at well-defined hook points, gated off entirely unless
a plan is supplied (parameter) or armed in the environment
(:data:`CHAOS_ENV`).

Supported event kinds
---------------------

``crash``
    the worker calls ``os._exit`` before resolving its next chunk (the
    parent sees pipe EOF / a dead process and must respawn + re-dispatch).
``hang``
    the worker sleeps (default: an hour) instead of resolving the chunk --
    only the parent's no-progress watchdog can recover from this.
``pipe_close``
    the worker closes its end of the job pipe and exits *successfully*:
    the parent observes EOF with exit code 0, the nastiest crash flavour.
``poison_pickle``
    unpickling a shipped subject payload raises
    :class:`pickle.UnpicklingError` (a *soft* job error: the worker stays
    alive, the parent must re-dispatch).
``slow``
    the worker sleeps ``seconds`` before the chunk and then proceeds
    normally -- jitter that must *not* trip a well-chosen watchdog.

Service-level event kinds (``target="service"``)
------------------------------------------------

The campaign service (:mod:`repro.service`) arms one
:class:`ChaosState` with ``scope="service"`` in the *serving process*
itself, hooked where its durability story must hold:

``kill_server``
    ``SIGKILL`` the serving process after it has journaled its
    ``on_chunk``-th job result -- the honest ``kill -9`` mid-sweep that
    the write-ahead journal plus client reconnect must survive.
``torn_tail``
    after a journal append, truncate the file's final bytes -- the
    torn-write signature a crash mid-``write()`` leaves, which replay
    must tolerate (drop the tail, keep everything before it).
``http_stall``
    sleep ``seconds`` before answering the ``on_chunk``-th HTTP request
    -- a stalled/slow response that must hit the client's timeout and
    retry path instead of hanging a sweep forever.

For service events the generation gate reads
``REPRO_CHAOS_GENERATION`` from the environment: a restarted server is
generation 1+, so a non-``sticky`` ``kill_server`` fires only in the
first boot and the recovery run converges.

Convergence under retries
-------------------------

Every worker process evaluates its own copy of the plan, so a naively
re-armed event would fire again in the respawned worker and defeat any
retry budget.  Events are therefore **generation-gated**: the parent
passes each worker its spawn generation (0 for the initial spawn,
incremented on every respawn / re-dispatch attempt) and a non-``sticky``
event only fires in generation 0.  A retried job thus runs chaos-free and
converges, while ``sticky=True`` events keep firing in every generation
-- the knob for proving that retry budgets *exhaust* and the degradation
ladder engages.

Events also fire at most once per process (the state disarms them), so a
soft failure like ``poison_pickle`` -- which leaves the worker alive and
in generation 0 -- does not poison the re-dispatch.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional

from ..exceptions import ReproError

__all__ = [
    "CHAOS_ENV",
    "CHAOS_EXIT_CODE",
    "GENERATION_ENV",
    "ChaosEvent",
    "ChaosPlan",
    "ChaosState",
    "random_plan",
    "service_generation",
]

#: environment variable holding a JSON-encoded :class:`ChaosPlan`; worker
#: processes (which inherit the environment) arm it at startup.
CHAOS_ENV = "REPRO_CHAOS"

#: exit code of a chaos-injected hard crash (distinctive in diagnostics).
CHAOS_EXIT_CODE = 66

_KINDS = (
    "crash",
    "hang",
    "pipe_close",
    "poison_pickle",
    "slow",
    "kill_server",
    "torn_tail",
    "http_stall",
)
_TARGETS = ("pool", "service", "any")

#: environment variable carrying the serving process's spawn generation
#: (0 = first boot, bumped by whoever restarts it); the same convergence
#: gate worker respawns get from their parent, but delivered through the
#: environment because a killed server's supervisor is outside Python.
GENERATION_ENV = "REPRO_CHAOS_GENERATION"


@dataclass(frozen=True)
class ChaosEvent:
    """One injected infrastructure fault.

    ``on_chunk`` counts the worker's own hook opportunities (stolen chunks
    for the chunk-scoped kinds, subject unpickles for ``poison_pickle``),
    0-based; the event fires at the first opportunity whose counter is
    ``>= on_chunk``.  ``worker`` restricts the event to one worker index
    (``None`` = every worker).  ``target`` selects where the event arms:
    pool workers (``"pool"``), the campaign service's serving process
    (``"service"``), or both (``"any"``).
    """

    kind: str
    worker: Optional[int] = None
    on_chunk: int = 0
    target: str = "pool"
    sticky: bool = False
    seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ReproError(
                f"unknown chaos kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.target not in _TARGETS:
            raise ReproError(
                f"unknown chaos target {self.target!r}; expected one of "
                f"{_TARGETS}"
            )
        if self.on_chunk < 0:
            raise ReproError(f"chaos on_chunk must be >= 0, got {self.on_chunk}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "worker": self.worker,
            "on_chunk": self.on_chunk,
            "target": self.target,
            "sticky": self.sticky,
            "seconds": self.seconds,
        }

    @staticmethod
    def from_dict(data: dict) -> "ChaosEvent":
        return ChaosEvent(
            kind=data["kind"],
            worker=data.get("worker"),
            on_chunk=data.get("on_chunk", 0),
            target=data.get("target", "pool"),
            sticky=data.get("sticky", False),
            seconds=data.get("seconds", 0.05),
        )


@dataclass(frozen=True)
class ChaosPlan:
    """A full injection schedule (a list of :class:`ChaosEvent`)."""

    events: List[ChaosEvent] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({"events": [event.to_dict() for event in self.events]})

    @staticmethod
    def from_json(text: str) -> "ChaosPlan":
        try:
            data = json.loads(text)
            events = [ChaosEvent.from_dict(entry) for entry in data["events"]]
        except (ValueError, KeyError, TypeError) as error:
            raise ReproError(f"malformed chaos plan: {error}") from error
        return ChaosPlan(events=events)

    @staticmethod
    def from_env() -> Optional["ChaosPlan"]:
        """The plan armed in :data:`CHAOS_ENV`, or ``None``."""
        text = os.environ.get(CHAOS_ENV)
        if not text:
            return None
        return ChaosPlan.from_json(text)


def random_plan(
    rng,
    workers: int,
    length: Optional[int] = None,
    kinds=("crash", "pipe_close", "poison_pickle", "slow"),
    target: str = "pool",
) -> ChaosPlan:
    """A seeded random injection schedule (shared by tests and CI seeds).

    ``hang`` is excluded by default: every hang costs a full watchdog
    deadline of wall clock, so randomised sweeps stay fast while the
    dedicated hang tests cover that path explicitly.
    """
    length = rng.randint(1, 3) if length is None else length
    events = [
        ChaosEvent(
            kind=rng.choice(list(kinds)),
            worker=rng.choice([None] + list(range(workers))),
            on_chunk=rng.randint(0, 3),
            target=target,
            seconds=0.01,
        )
        for _ in range(length)
    ]
    return ChaosPlan(events=events)


def service_generation() -> int:
    """The serving process's spawn generation (:data:`GENERATION_ENV`)."""
    try:
        return int(os.environ.get(GENERATION_ENV, "0") or 0)
    except ValueError:
        return 0


class ChaosState:
    """Per-process injection state.

    Built once at worker (or server) startup from the explicit plan
    (shipped through the spawn args) or the environment.  ``scope`` names
    the runtime the state arms in (``"pool"`` or ``"service"``); ``generation`` is the spawn generation for the
    convergence gate described in the module docstring.

    Worker processes consult their state single-threaded; the service
    scope is consulted concurrently (HTTP handler threads + shard
    executor threads), so event take-out and the hook counters are
    guarded by a lock.
    """

    def __init__(
        self,
        plan: Optional[ChaosPlan],
        scope: str,
        worker_index: int,
        generation: int,
    ) -> None:
        plan = plan if plan is not None else ChaosPlan.from_env()
        self._events: List[ChaosEvent] = []
        if plan is not None:
            self._events = [
                event
                for event in plan.events
                if event.target in ("any", scope)
                and event.worker in (None, worker_index)
                and (event.sticky or generation == 0)
            ]
        self._lock = threading.Lock()
        self._chunks = 0
        self._unpickles = 0
        self._responses = 0
        self._results = 0

    @property
    def armed(self) -> bool:
        return bool(self._events)

    def _take(self, kinds, counter: int) -> Optional[ChaosEvent]:
        with self._lock:
            for event in self._events:
                if event.kind in kinds and counter >= event.on_chunk:
                    if not event.sticky:
                        self._events.remove(event)
                    return event
        return None

    def before_chunk(self, connection) -> None:
        """Hook: the worker is about to resolve a stolen chunk."""
        if not self._events:
            self._chunks += 1
            return
        event = self._take(("crash", "hang", "pipe_close", "slow"), self._chunks)
        self._chunks += 1
        if event is None:
            return
        if event.kind == "crash":
            os._exit(CHAOS_EXIT_CODE)
        elif event.kind == "hang":
            time.sleep(event.seconds if event.seconds > 1.0 else 3600.0)
        elif event.kind == "pipe_close":
            connection.close()
            os._exit(0)
        elif event.kind == "slow":
            time.sleep(event.seconds)

    def before_unpickle(self) -> None:
        """Hook: the worker is about to unpickle a shipped subject."""
        if not self._events:
            self._unpickles += 1
            return
        event = self._take(("poison_pickle",), self._unpickles)
        self._unpickles += 1
        if event is not None:
            raise pickle.UnpicklingError(
                "chaos: poisoned subject payload (injected)"
            )

    # -- service-scope hooks --------------------------------------------------

    def before_http_response(self) -> None:
        """Hook: the service is about to handle one HTTP request.

        ``on_chunk`` counts requests; ``http_stall`` sleeps ``seconds``
        before the handler proceeds, simulating a stalled/slow response
        the client's timeout + retry machinery must absorb.
        """
        with self._lock:
            counter = self._responses
            self._responses += 1
        if not self._events:
            return
        event = self._take(("http_stall",), counter)
        if event is not None:
            time.sleep(event.seconds)

    def after_journal_append(self, journal) -> None:
        """Hook: the service journal just appended a record.

        ``torn_tail`` chops the final bytes off the journal file -- the
        exact wreckage a crash mid-``write()`` leaves behind, which the
        next boot's replay must tolerate by dropping the torn record.
        """
        if not self._events:
            return
        with self._lock:
            counter = journal.stats.get("appends", 0) - 1
        event = self._take(("torn_tail",), max(counter, 0))
        if event is not None:
            journal.tear_tail()

    def after_job_result(self) -> None:
        """Hook: the service just journaled one job's terminal result.

        ``kill_server`` delivers ``SIGKILL`` to the serving process
        itself after ``on_chunk`` results -- the honest ``kill -9``
        mid-sweep.  The journal already holds everything up to and
        including this result, so a restart against the same journal
        directory must lose nothing.
        """
        with self._lock:
            counter = self._results
            self._results += 1
        if not self._events:
            return
        event = self._take(("kill_server",), counter)
        if event is not None:
            os.kill(os.getpid(), signal.SIGKILL)
