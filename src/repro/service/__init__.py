"""Campaign service: an async batch job engine over member workers.

The production-shaped front half of the repro stack: clients submit
synthesis→BIST-campaign jobs over HTTP and stream the resulting
:class:`~repro.faults.coverage.CoverageReport`-bearing metrics records
back as they finish, while the service runs each job whole in a forked
member worker (:mod:`repro.suite.worker`) fed from one priority queue,
with bounded queues, SHA-256 content dedupe and graceful drain.

Three layers, each usable on its own:

* :class:`~repro.service.jobs.JobEngine` -- the in-process engine
  (priority queue, executor slots, admission control, dedupe).
* :class:`~repro.service.app.CampaignServer` -- the stdlib
  ``http.server`` REST front-end (``repro serve``).
* :class:`~repro.service.client.ServiceClient` -- the typed HTTP client
  (``repro submit``, ``repro sweep --service``), with transient-fault
  retries and batch reconnect/resume.
* :class:`~repro.service.journal.JobJournal` -- the write-ahead job
  journal (``repro serve --journal``) that makes the engine's state
  survive a ``kill -9``: replay restores completed results and the
  dedupe table, and requeues interrupted jobs.

Determinism contract: a job's metrics record is a pure function of its
subject and deterministic config (:func:`repro.suite.sweep.sweep_member`
is the single unit of work on both sides), so a sweep driven through the
service is bit-identical to the in-process path -- *including* a sweep
that survived a server crash and restart mid-batch.
"""

from .app import CampaignServer
from .client import ServiceClient, ServiceError
from .jobs import AdhocMember, Job, JobEngine, job_payload_key
from .journal import JobJournal, JournalRecord, JournalReplay

__all__ = [
    "AdhocMember",
    "CampaignServer",
    "Job",
    "JobEngine",
    "JobJournal",
    "JournalRecord",
    "JournalReplay",
    "ServiceClient",
    "ServiceError",
    "job_payload_key",
]
