"""Exception hierarchy for the repro library.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single exception type at the API boundary.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class PartitionError(ReproError):
    """Invalid partition construction or an operation on mismatched universes."""


class FsmError(ReproError):
    """Invalid finite state machine specification or operation."""


class KissFormatError(FsmError):
    """Malformed KISS2 input."""


class RealizationError(FsmError):
    """A claimed realization does not satisfy Definition 3 of the paper."""


class SearchError(ReproError):
    """Invalid configuration or internal failure of the OSTR search."""


class EncodingError(ReproError):
    """Invalid state/input/output encoding."""


class LogicError(ReproError):
    """Invalid cube, cover, or minimization request."""


class NetlistError(ReproError):
    """Invalid netlist construction or evaluation."""


class BistError(ReproError):
    """Invalid BIST register configuration or session."""


class FaultError(ReproError):
    """Invalid fault specification or simulation request."""


class PoolClosed(ReproError):
    """A member was sent to a closed member worker
    (:class:`~repro.suite.worker.MemberWorker`)."""


class PrescreenViolation(FaultError):
    """A simulation engine detected a statically-proved-untestable fault.

    Raised by ``prescreen="validate"`` campaigns: the static prover
    (:mod:`repro.analysis.untestable`) claimed the fault can never be
    detected, yet a simulation verdict says otherwise -- one of the two
    is wrong, which is a library bug, never a property of the subject.
    ``violations`` lists ``(block, fault_description, reason)`` triples.
    """

    def __init__(self, message: str, *, violations=()) -> None:
        super().__init__(message)
        self.violations = list(violations)


class ResilienceError(ReproError):
    """A member failed in every worker its retry budget allowed.

    Structured base for the member workers' failure modes
    (:class:`~repro.suite.worker.MemberWorker`): carries the number of
    attempts made and the failure detail of each (one string per failed
    worker, in attempt order).
    """

    def __init__(
        self,
        message: str,
        *,
        attempts: int = 1,
        failures=(),
    ) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.failures = list(failures)


class JobTimeout(ResilienceError):
    """A member passed its deadline in every worker it ran in.

    ``deadline`` is the per-attempt budget in seconds; each worker that
    passed it was killed.
    """

    def __init__(self, message: str, *, deadline=None, **kwargs) -> None:
        super().__init__(message, **kwargs)
        self.deadline = deadline


class WorkerCrash(ResilienceError):
    """Worker processes died (or closed their pipes) on every retry."""


class AdmissionError(ReproError):
    """The campaign service refused a job at admission control.

    Raised when the job engine's bounded queue is full (or the engine is
    draining for shutdown); the HTTP layer maps it to ``429 Too Many
    Requests`` so clients can back off and retry.
    """


class JournalCorrupt(ReproError):
    """A job journal failed its integrity check away from the torn tail.

    A truncated *final* record is the expected signature of a torn write
    (the process died mid-append) and replay tolerates it; a record that
    fails its per-record SHA-256 (or does not parse) *before* the final
    line means the journal bytes were damaged after they were durably
    written -- silently replaying past it could resurrect wrong job
    state, so the journal is quarantined (renamed aside) and this error
    carries where and why.
    """

    def __init__(
        self,
        message: str,
        *,
        path: str = "",
        line_no: int = 0,
        reason: str = "",
        quarantined: str = "",
    ) -> None:
        super().__init__(message)
        self.path = path
        self.line_no = line_no
        self.reason = reason
        self.quarantined = quarantined
