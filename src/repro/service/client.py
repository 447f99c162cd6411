"""Typed HTTP client for the campaign service (stdlib ``http.client``).

:class:`ServiceClient` wraps the REST surface of :mod:`repro.service.app`
with plain-Python calls and structured errors, and adds the protocol
clients should not each reinvent:

* **Transient-fault retries.**  Every request retries connection-level
  failures (refused, reset, EOF, timeout) with capped exponential
  backoff, all inside one deadline (the client's ``timeout``).  Retrying
  ``POST /jobs`` is safe *because* the engine dedupes on content
  identity: a resubmission whose first attempt actually landed returns
  the same job instead of a duplicate campaign.
* **Batch + resume** (:meth:`run_batch`): jobs go up in
  admission-control-sized slices (backing off on 429), completions
  stream back, and a dropped stream -- including the server being killed
  and restarted mid-batch -- falls back to polling with capped backoff,
  re-attaching to restored jobs and resubmitting any the server no
  longer knows.  The return value is reassembled *in submission order*,
  the property the service-driven sweep relies on to write a
  ``metrics.jsonl`` bit-identical to the in-process path.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple
from urllib.parse import quote, urlsplit

from ..exceptions import AdmissionError, ReproError

__all__ = ["ServiceClient", "ServiceError"]

#: terminal job states, mirrored from :mod:`repro.service.jobs` (kept
#: textual here: the client must not import engine internals).
_TERMINAL = ("done", "failed", "cancelled")

#: module-level sleep hook so tests can run the backoff paths instantly.
_sleep = time.sleep

#: connection-level failures worth retrying (the server may just be
#: restarting); HTTP status codes other than 429 are never retried.
_TRANSIENT = (OSError, http.client.HTTPException)


class ServiceError(ReproError):
    """An HTTP-level failure talking to the campaign service."""

    def __init__(self, message: str, status: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status


class ServiceClient:
    """One connection-per-request client for a running campaign service.

    ``timeout`` bounds each request in total, retries and backoff sleeps
    included; past it the request raises :class:`ServiceError` naming the
    deadline.  :meth:`stream` is one long-lived response, so there it
    bounds each read instead.  ``retries`` bounds per-request
    transient-failure retries (``0`` disables them); each attempt's
    connection timeout is an equal share of the time remaining over the
    attempts still allowed.  ``backoff``/``backoff_cap`` shape every
    backoff loop in the client (request retries, 429 waits, reconnect
    polling).
    ``stats`` counts what the resilience machinery actually did:
    ``retries`` (re-sent requests), ``reconnects`` (stream outages
    survived), ``resubmitted`` (jobs re-posted after the server lost
    them).
    """

    def __init__(
        self,
        url: str,
        timeout: float = 120.0,
        retries: int = 4,
        backoff: float = 0.1,
        backoff_cap: float = 2.0,
    ) -> None:
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("http", ""):
            raise ServiceError(f"campaign service wants http://, got {url!r}")
        if not parts.hostname:
            raise ServiceError(f"no host in service URL {url!r}")
        if retries < 0:
            raise ServiceError(f"retries must be >= 0, got {retries}")
        if backoff <= 0 or backoff_cap < backoff:
            raise ServiceError(
                f"need 0 < backoff <= backoff_cap, got "
                f"{backoff}/{backoff_cap}"
            )
        self.host = parts.hostname
        self.port = parts.port or 80
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.stats: Dict[str, int] = {
            "retries": 0,
            "reconnects": 0,
            "resubmitted": 0,
        }

    # -- wire plumbing -------------------------------------------------------

    def _connection(
        self, timeout: Optional[float] = None
    ) -> http.client.HTTPConnection:
        """A connection whose socket operations time out after ``timeout``
        seconds (default: the client's ``timeout``)."""
        if timeout is None:
            timeout = self.timeout
        return http.client.HTTPConnection(self.host, self.port, timeout=timeout)

    def _request(
        self,
        method: str,
        path: str,
        payload=None,
        ok=(200, 202),
    ) -> Tuple[int, object]:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        deadline = time.monotonic() + self.timeout
        where = f"campaign service at {self.host}:{self.port}"
        attempt = 0
        delay = self.backoff
        while True:
            # The attempts still allowed share the time remaining, so a
            # stalled attempt leaves time for a retry; the last gets all.
            remaining = max(deadline - time.monotonic(), 1e-3)
            conn = self._connection(remaining / (self.retries + 1 - attempt))
            try:
                try:
                    conn.request(method, path, body=body, headers=headers)
                    response = conn.getresponse()
                    raw = response.read()
                except _TRANSIENT as exc:
                    # Refused/reset/EOF/timeout: the server may be mid-
                    # restart.  Re-sending is safe for every route --
                    # GETs are pure, cancel and shutdown are idempotent,
                    # and POST /jobs dedupes on content identity.
                    if deadline - time.monotonic() <= delay:
                        raise ServiceError(
                            f"{where}: no response to {method} {path} within "
                            f"the {self.timeout}s request deadline "
                            f"({attempt + 1} attempts): {exc}"
                        ) from exc
                    if attempt >= self.retries:
                        raise ServiceError(
                            f"{where} unreachable after {attempt + 1} "
                            f"attempts: {exc}"
                        ) from exc
                    attempt += 1
                    self.stats["retries"] += 1
                    _sleep(delay)
                    delay = min(delay * 2.0, self.backoff_cap)
                    continue
                try:
                    decoded = json.loads(raw) if raw else None
                except ValueError as exc:
                    raise ServiceError(
                        f"non-JSON response ({response.status}): {raw[:200]!r}",
                        status=response.status,
                    ) from exc
                if response.status == 429:
                    message = "admission control refused the submission"
                    if isinstance(decoded, Mapping) and decoded.get("error"):
                        message = str(decoded["error"])
                    error = AdmissionError(message)
                    error.accepted = (
                        decoded.get("accepted", [])
                        if isinstance(decoded, Mapping)
                        else []
                    )
                    raise error
                if response.status not in ok:
                    message = f"HTTP {response.status} on {method} {path}"
                    if isinstance(decoded, Mapping) and decoded.get("error"):
                        message = f"{message}: {decoded['error']}"
                    raise ServiceError(message, status=response.status)
                return response.status, decoded
            finally:
                conn.close()

    # -- REST surface --------------------------------------------------------

    def health(self) -> Dict[str, object]:
        return self._request("GET", "/healthz")[1]

    def metrics(self) -> Dict[str, object]:
        return self._request("GET", "/metrics")[1]

    def submit(self, job: Mapping) -> Dict[str, object]:
        """Submit one job; returns its description (with ``deduped``)."""
        return self._request("POST", "/jobs", payload=dict(job))[1]

    def submit_batch(self, jobs: Sequence[Mapping]) -> List[Dict[str, object]]:
        """Submit several jobs in one request (all-admitted-or-429)."""
        return self._request("POST", "/jobs", payload=[dict(j) for j in jobs])[1]

    def jobs(self) -> List[Dict[str, object]]:
        return self._request("GET", "/jobs")[1]["jobs"]

    def job(self, job_id: str) -> Dict[str, object]:
        return self._request("GET", f"/jobs/{quote(job_id)}")[1]

    def cancel(self, job_id: str) -> str:
        """Cancel a queued job; returns the job's resulting state."""
        return self._request("DELETE", f"/jobs/{quote(job_id)}")[1]["state"]

    def shutdown(self) -> Dict[str, object]:
        """Ask the service to drain and stop."""
        return self._request("POST", "/shutdown", payload={})[1]

    def stream(
        self, job_ids: Sequence[str], timeout: Optional[float] = None
    ) -> Iterator[Dict[str, object]]:
        """Yield full job descriptions as each finishes (completion order).

        One long-lived chunked-NDJSON response; ``http.client`` decodes
        the chunking transparently, so this just reads lines.  An
        ``{"error": ...}`` line from the server becomes a
        :class:`ServiceError`.
        """
        if not job_ids:
            return
        path = "/stream?jobs=" + quote(",".join(job_ids))
        if timeout is not None:
            path += f"&timeout={timeout}"
        conn = self._connection()
        try:
            try:
                conn.request("GET", path)
                response = conn.getresponse()
            except (OSError, http.client.HTTPException) as exc:
                raise ServiceError(
                    f"campaign service at {self.host}:{self.port} "
                    f"unreachable: {exc}"
                ) from exc
            if response.status != 200:
                raw = response.read()
                try:
                    decoded = json.loads(raw) if raw else {}
                except ValueError:
                    decoded = {}
                raise ServiceError(
                    f"HTTP {response.status} on GET /stream"
                    + (f": {decoded['error']}" if decoded.get("error") else ""),
                    status=response.status,
                )
            buffer = b""
            while True:
                block = response.read1(65536)
                if not block:
                    break
                buffer += block
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if not line.strip():
                        continue
                    decoded = json.loads(line)
                    if "error" in decoded and "job" not in decoded:
                        raise ServiceError(str(decoded["error"]))
                    yield decoded
        finally:
            conn.close()

    # -- batch protocol ------------------------------------------------------

    def _submit_all(
        self,
        payloads: List[Dict[str, object]],
        batch_size: int,
        max_wait: float,
    ) -> List[Dict[str, object]]:
        """Submit every payload in admission-control-sized slices.

        A 429 keeps whatever the service admitted and retries the rest
        with capped *exponential* backoff; partial admission resets the
        ``max_wait`` clock (pressure is clearing, waiting is productive),
        a full refusal does not, so a stuck queue fails within
        ``max_wait`` instead of spinning.
        """
        submitted: List[Dict[str, object]] = []
        pending = list(payloads)
        while pending:
            slice_jobs, pending = pending[:batch_size], pending[batch_size:]
            deadline = time.monotonic() + max_wait
            delay = self.backoff
            while slice_jobs:
                try:
                    submitted.extend(self.submit_batch(slice_jobs))
                    break
                except AdmissionError as exc:
                    admitted = getattr(exc, "accepted", [])
                    if admitted:
                        submitted.extend(admitted)
                        slice_jobs = slice_jobs[len(admitted) :]
                        deadline = time.monotonic() + max_wait
                        delay = self.backoff
                    if time.monotonic() >= deadline:
                        raise ServiceError(
                            f"admission control refused "
                            f"{len(slice_jobs)} jobs for {max_wait}s: "
                            f"{exc}",
                            status=429,
                        ) from exc
                    _sleep(delay)
                    delay = min(delay * 2.0, self.backoff_cap)
        return submitted

    def _poll_remaining(
        self,
        order: List[str],
        payloads: List[Dict[str, object]],
        finished: Dict[str, Dict[str, object]],
        progress,
    ) -> List[str]:
        """One polling pass over unfinished jobs (the stream's fallback).

        Harvests jobs that reached a terminal state while the stream was
        down, and resubmits any id the server no longer knows (a restart
        without a journal, or retention eviction) -- content dedupe makes
        the resubmission *the same job*, so nothing runs twice.  Returns
        the submission-order id list, rewritten where ids were replaced.
        """
        for job_id in list(dict.fromkeys(order)):
            if job_id in finished:
                continue
            try:
                job = self.job(job_id)
            except ServiceError as exc:
                if exc.status != 404:
                    raise
                try:
                    for index, known in enumerate(order):
                        if known == job_id:
                            described = self.submit(payloads[index])
                            order[index] = described["job"]
                            self.stats["resubmitted"] += 1
                except AdmissionError:
                    pass  # queue full; a later pass resubmits the rest
                continue
            if job.get("state") in _TERMINAL:
                finished[job_id] = job
                if progress is not None:
                    progress(
                        len(finished), len(dict.fromkeys(order)), job
                    )
        return order

    def run_batch(
        self,
        jobs: Sequence[Mapping],
        batch_size: int = 16,
        max_wait: float = 30.0,
        progress=None,
        reconnect_wait: float = 60.0,
    ) -> List[Dict[str, object]]:
        """Submit jobs respecting admission control; return them finished,
        in submission order.

        Jobs go up in ``batch_size`` slices (see :meth:`_submit_all`);
        completions stream back as they happen (``progress(done, total,
        job)`` if given).  A dropped stream -- the server crashed, was
        killed, or stalled past the timeout -- switches to polling with
        capped exponential backoff and keeps trying for
        ``reconnect_wait`` seconds of *no progress* (any completed job
        resets the clock): a server restarted on the same journal hands
        back restored results and requeued jobs as if nothing happened,
        and one restarted without a journal gets the lost jobs
        resubmitted.  The return value is reassembled in submission
        order, so callers get deterministic output regardless of
        scheduling, crashes or retries.
        """
        payloads = [dict(job) for job in jobs]
        submitted = self._submit_all(payloads, batch_size, max_wait)
        order = [entry["job"] for entry in submitted]
        finished: Dict[str, Dict[str, object]] = {}
        outage_deadline: Optional[float] = None
        delay = self.backoff
        while True:
            # Dedupe hits alias several submissions onto one job id;
            # stream each id once and fan its completion back out.
            remaining = [
                job_id
                for job_id in dict.fromkeys(order)
                if job_id not in finished
            ]
            if not remaining:
                break
            try:
                for job in self.stream(remaining):
                    if job.get("state") not in _TERMINAL:
                        continue
                    finished[job["job"]] = job
                    outage_deadline = None
                    delay = self.backoff
                    if progress is not None:
                        progress(
                            len(finished), len(dict.fromkeys(order)), job
                        )
                leftover = [
                    job_id
                    for job_id in dict.fromkeys(order)
                    if job_id not in finished
                ]
                if leftover:
                    raise ServiceError(
                        f"stream ended without {len(leftover)} jobs: "
                        f"{leftover[:5]}"
                    )
            except (ServiceError, ValueError, *_TRANSIENT) as exc:
                # ValueError covers a torn NDJSON line from a killed
                # server; _TRANSIENT covers the connection dying mid-
                # stream (those reads sit outside _request's retries).
                now = time.monotonic()
                if outage_deadline is None:
                    outage_deadline = now + reconnect_wait
                    self.stats["reconnects"] += 1
                elif now >= outage_deadline:
                    raise ServiceError(
                        f"campaign service did not recover within "
                        f"{reconnect_wait}s: {exc}"
                    ) from exc
                _sleep(delay)
                delay = min(delay * 2.0, self.backoff_cap)
                before = len(finished)
                try:
                    order = self._poll_remaining(
                        order, payloads, finished, progress
                    )
                except (ServiceError, *_TRANSIENT):
                    continue  # still down; next lap re-checks the deadline
                if len(finished) > before:
                    outage_deadline = None
                    delay = self.backoff
        return [finished[job_id] for job_id in order]
