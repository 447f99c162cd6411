"""Campaign service lifecycle tests: engine, HTTP surface, and resilience.

Covers the contract of :mod:`repro.service`:

* a job's metrics record is identical to running
  :func:`~repro.suite.sweep.sweep_member` in-process (the bit-identity
  contract the service-driven sweep relies on),
* priority scheduling, queued-job cancellation (running jobs are not
  preempted), and graceful drain,
* SHA-256 content dedupe: resubmitting a subject returns the existing
  job and bumps the ``dedupe_hits`` telemetry; failed jobs are not
  dedupe targets,
* admission control: a full queue refuses submissions with
  :exc:`~repro.exceptions.AdmissionError` (HTTP 429 through the client),
* the full HTTP surface -- submit/poll/stream/cancel/metrics -- through
  :class:`~repro.service.client.ServiceClient` against a live server,
* member workers: a chaos crash at member start is re-run once in a
  fresh worker; a crash or hang in every worker surfaces as a *failed
  job* carrying ``WorkerCrash`` / ``JobTimeout`` (never a hung
  request), and the next job runs on a fresh worker,
* ``repro sweep --service`` writes a ``metrics.jsonl`` byte-identical
  to the in-process path for every shard / member-worker layout.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro.exceptions import AdmissionError, ReproError
from repro.faults.chaos import CHAOS_ENV, ChaosEvent, ChaosPlan
from repro.fsm import kiss
from repro.service import (
    AdhocMember,
    CampaignServer,
    JobEngine,
    ServiceClient,
    ServiceError,
)
from repro.suite import shift_register
from repro.suite.sweep import SweepConfig, sweep_member

CONFIG = {"record_timings": False}


def payload(bits: int = 2, **config) -> dict:
    """An inline-KISS job payload for a small shift register."""
    merged = dict(CONFIG, **config)
    return {
        "kiss": kiss.dumps(shift_register(bits)),
        "name": f"sr{bits}",
        "config": merged,
    }


def _sr_record(bits: int = 2) -> dict:
    """The in-process record of a small shift-register job."""
    return sweep_member(
        AdhocMember(name=f"sr{bits}", text=kiss.dumps(shift_register(bits))),
        SweepConfig(record_timings=False),
    )


@pytest.fixture()
def engine():
    with JobEngine(shards=1, pool_workers=0, max_queued=8) as instance:
        yield instance


class _Gate:
    """Monkeypatched stand-in for sweep_member that blocks until released.

    Lets tests hold the single shard busy deterministically: the first
    call parks on ``release`` (after signalling ``entered``); every call
    records the member name so scheduling order is observable.
    """

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.order = []
        self._first = True

    def __call__(self, member, config, pool=None):
        self.order.append(member.name)
        if self._first:
            self._first = False
            self.entered.set()
            assert self.release.wait(30.0), "test forgot to open the gate"
        return {"id": member.member_id, "name": member.name, "status": "ok"}


@pytest.fixture()
def gated(monkeypatch):
    gate = _Gate()
    monkeypatch.setattr("repro.service.jobs.sweep_member", gate)
    return gate


class TestEngine:
    def test_record_matches_in_process_sweep_member(self, engine):
        job, deduped = engine.submit(payload())
        assert not deduped
        finished = engine.wait(job.job_id, timeout=60.0)
        assert finished.state == "done"
        assert finished.record == _sr_record()

    def test_priority_runs_higher_first(self, gated):
        with JobEngine(shards=1, pool_workers=0, max_queued=8) as engine:
            blocker, _ = engine.submit(payload(2))
            assert gated.entered.wait(10.0)
            low, _ = engine.submit(payload(3), priority=0)
            high, _ = engine.submit(payload(4), priority=5)
            gated.release.set()
            engine.wait(low.job_id, timeout=30.0)
            engine.wait(high.job_id, timeout=30.0)
        assert gated.order == ["sr2", "sr4", "sr3"]

    def test_cancel_queued_job(self, gated):
        with JobEngine(shards=1, pool_workers=0, max_queued=8) as engine:
            blocker, _ = engine.submit(payload(2))
            assert gated.entered.wait(10.0)
            queued, _ = engine.submit(payload(3))
            assert engine.cancel(queued.job_id) == "cancelled"
            assert queued.record is None
            # the running job is not preempted
            assert engine.cancel(blocker.job_id) == "running"
            gated.release.set()
            finished = engine.wait(blocker.job_id, timeout=30.0)
            assert finished.state == "done"
        assert engine.stats["cancelled"] == 1
        assert "sr3" not in gated.order

    def test_dedupe_hits_and_telemetry(self, engine):
        first, deduped_first = engine.submit(payload())
        again, deduped_again = engine.submit(payload())
        assert not deduped_first and deduped_again
        assert again.job_id == first.job_id
        assert first.dedupe_hits == 1
        assert engine.stats["dedupe_hits"] == 1
        assert engine.stats["submitted"] == 1
        # a different member name is a different job even with identical
        # config (the metrics record embeds the member id)
        other, deduped_other = engine.submit(
            {**payload(), "name": "renamed"}
        )
        assert not deduped_other
        assert other.job_id != first.job_id

    def test_admission_control_bounds_the_queue(self, gated):
        with JobEngine(shards=1, pool_workers=0, max_queued=1) as engine:
            engine.submit(payload(2))
            assert gated.entered.wait(10.0)
            engine.submit(payload(3))  # fills the queue
            with pytest.raises(AdmissionError, match="admission control"):
                engine.submit(payload(4))
            assert engine.stats["rejected"] == 1
            gated.release.set()

    def test_draining_engine_refuses_new_jobs(self, engine):
        job, _ = engine.submit(payload())
        engine.wait(job.job_id, timeout=60.0)
        engine.drain()
        with pytest.raises(AdmissionError, match="draining"):
            engine.submit(payload(3))
        # dedupe still answers for completed work while draining
        same, deduped = engine.submit(payload())
        assert deduped and same.job_id == job.job_id

    def test_close_drains_queued_work(self, engine):
        jobs = [engine.submit(payload(bits))[0] for bits in (2, 3)]
        engine.close(drain=True)
        assert all(job.state == "done" for job in jobs)

    def test_unknown_job_raises(self, engine):
        with pytest.raises(ReproError, match="unknown job"):
            engine.job("nope")
        with pytest.raises(ReproError, match="unknown job"):
            engine.cancel("nope")


#: a corpus manifest record of a kiss member, minus its spec.
KISS_RECORD = {"family": "mcnc", "name": "x", "kind": "kiss"}
#: inline KISS2 that parses, so a job carrying it is refused only for
#: what else is wrong with it.
SMALL_KISS = kiss.dumps(shift_register(2))


@pytest.fixture()
def server():
    with CampaignServer(port=0, shards=1, pool_workers=0, max_queued=8) as srv:
        yield srv


@pytest.fixture()
def client(server):
    return ServiceClient(server.url, timeout=60.0)


def test_close_of_a_never_started_server_returns():
    """``close()`` on a server whose serve loop never ran must not wait
    for one; run on a thread so a regression fails instead of hanging."""
    srv = CampaignServer(port=0, shards=1, pool_workers=0)
    closer = threading.Thread(target=srv.close, daemon=True)
    closer.start()
    closer.join(30.0)
    assert not closer.is_alive(), "close() of a never-started server hung"


class TestHttpSurface:
    def test_health_and_metrics(self, client):
        health = client.health()
        assert health["ok"] and not health["draining"]
        metrics = client.metrics()
        assert metrics["service"]["shards"] == 1
        assert metrics["service"]["max_queued"] == 8
        assert metrics["pools"] == [None]  # pool_workers=0

    def test_submit_stream_poll_roundtrip(self, client):
        accepted = client.submit(payload())
        assert accepted["state"] in ("queued", "running", "done")
        assert not accepted["deduped"]
        streamed = list(client.stream([accepted["job"]], timeout=60.0))
        assert len(streamed) == 1
        assert streamed[0]["state"] == "done"
        assert streamed[0]["record"]["status"] == "ok"
        polled = client.job(accepted["job"])
        assert polled["record"] == streamed[0]["record"]
        assert any(j["job"] == accepted["job"] for j in client.jobs())
        metrics = client.metrics()
        assert metrics["service"]["completed"] == 1
        # the shard's entry is its last record's telemetry block
        assert metrics["campaigns"][0]["collapse"] is not None

    def test_duplicate_submission_dedupes_over_http(self, client):
        first = client.submit(payload())
        again = client.submit(payload())
        assert again["deduped"] and again["job"] == first["job"]
        assert client.metrics()["service"]["dedupe_hits"] == 1

    def test_admission_control_maps_to_429(self, gated):
        with CampaignServer(
            port=0, shards=1, pool_workers=0, max_queued=1
        ) as srv:
            local = ServiceClient(srv.url, timeout=30.0)
            local.submit(payload(2))
            assert gated.entered.wait(10.0)
            local.submit(payload(3))
            with pytest.raises(AdmissionError):
                local.submit(payload(4))
            # batch submissions report the admitted prefix with the 429
            try:
                local.submit_batch([payload(5), payload(6)])
            except AdmissionError as exc:
                assert exc.accepted == []
            else:  # pragma: no cover - the queue was full
                pytest.fail("expected a 429")
            gated.release.set()

    def test_cancel_over_http(self, gated):
        with CampaignServer(
            port=0, shards=1, pool_workers=0, max_queued=8
        ) as srv:
            local = ServiceClient(srv.url, timeout=30.0)
            local.submit(payload(2))
            assert gated.entered.wait(10.0)
            queued = local.submit(payload(3))
            assert local.cancel(queued["job"]) == "cancelled"
            gated.release.set()

    def test_unknown_routes_and_jobs(self, client):
        with pytest.raises(ServiceError, match="unknown job"):
            client.job("j999999")
        with pytest.raises(ServiceError, match="unknown job"):
            client.cancel("j999999")
        with pytest.raises(ServiceError):
            list(client.stream(["j999999"]))

    def test_malformed_submission_is_a_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"config": {}})  # no subject at all
        assert excinfo.value.status == 400

    @pytest.mark.parametrize(
        "method, path, body, length",
        [
            ("POST", "/jobs", {"kiss": SMALL_KISS, "priority": "high"}, None),
            ("POST", "/jobs", {"kiss": SMALL_KISS, "priority": None}, None),
            ("POST", "/jobs", {"kiss": SMALL_KISS, "config": {"families": 5}}, None),
            ("POST", "/jobs", {"member": {}}, None),
            ("GET", "/stream?jobs=j1&timeout=abc", None, None),
            ("POST", "/jobs", {}, "abc"),
            ("POST", "/jobs", {"kiss": SMALL_KISS, "config": {"limit": "x"}}, None),
            ("POST", "/jobs", {"member": dict(KISS_RECORD, spec={})}, None),
            (
                "POST", "/jobs",
                {"member": dict(KISS_RECORD, spec={"path": "no/such.kiss2"})},
                None,
            ),
            (
                "POST", "/jobs",
                {"member": dict(KISS_RECORD, spec={"path": "../README.md"})},
                None,
            ),
            ("POST", "/jobs", {"kiss": SMALL_KISS, "config": {"seed": "x"}}, None),
            (
                "POST", "/jobs",
                {"kiss": SMALL_KISS, "config": {"node_limit": "x"}},
                None,
            ),
            ("POST", "/jobs", {"kiss": SMALL_KISS, "config": {"cycles": -3}}, None),
            ("POST", "/jobs", {"kiss": "garbage here"}, None),
            ("POST", "/jobs", {"kiss": SMALL_KISS, "name": ["a"]}, None),
            ("POST", "/jobs", {"kiss": SMALL_KISS, "config": {"pool": "x"}}, None),
        ],
        ids=(
            "priority-str", "priority-null", "families-int", "member-empty",
            "stream-timeout", "content-length", "limit-str", "kiss-no-path",
            "kiss-missing-file", "kiss-outside-corpus", "seed-str",
            "node-limit-str", "cycles-negative", "kiss-not-kiss2", "name-list",
            "pool-str",
        ),
    )
    def test_malformed_request_is_a_400(self, server, method, path, body, length):
        """Each malformed request gets a 400 with an error string instead
        of killing its handler thread, and the server keeps serving."""
        import http.client
        import json

        host, port = server.address
        data = b"" if body is None else json.dumps(body).encode("utf-8")
        conn = http.client.HTTPConnection(host, port, timeout=30.0)
        try:
            conn.putrequest(method, path)
            if body is not None:
                conn.putheader("Content-Length", length or str(len(data)))
            conn.endheaders(data or None)
            response = conn.getresponse()
            assert response.status == 400
            assert isinstance(json.loads(response.read())["error"], str)
        finally:
            conn.close()
        assert ServiceClient(server.url, timeout=30.0).health()["ok"]

    def test_client_disconnect_is_quiet_and_counted(self, capfd):
        """A client that resets its connection before the response is
        written is counted in /metrics and prints nothing."""
        import socket
        import struct

        plan = ChaosPlan(
            [ChaosEvent(kind="http_stall", target="service", seconds=1.0)]
        )
        with CampaignServer(port=0, shards=1, pool_workers=0, chaos=plan) as srv:
            sock = socket.create_connection(srv.address, timeout=30.0)
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            # Wait until the request was read and its response stalls,
            # then reset the connection under it.
            deadline = time.monotonic() + 30.0
            while srv.engine.chaos_state._responses < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.close()
            local = ServiceClient(srv.url, timeout=30.0)
            while local.metrics()["service"]["client_disconnects"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            assert local.metrics()["service"]["client_disconnects"] == 1
        assert capfd.readouterr().err == ""

    def test_run_batch_returns_submission_order(self, client):
        jobs = [payload(4), payload(2), payload(3), payload(2)]
        finished = client.run_batch(jobs, batch_size=2)
        assert [job["record"]["name"] for job in finished] == [
            "sr4",
            "sr2",
            "sr3",
            "sr2",
        ]
        assert all(job["state"] == "done" for job in finished)
        # the duplicate sr2 submissions share one job id
        assert finished[1]["job"] == finished[3]["job"]

    def test_shutdown_drains_and_stops(self, server, client):
        accepted = client.submit(payload())
        client.shutdown()
        # A short-timeout probe without retries: once the server has
        # drained, a connect must be refused at once -- never left
        # unanswered in the listen backlog until the timeout fires.
        probe = ServiceClient(server.url, timeout=5.0, retries=0)
        deadline = time.monotonic() + 30.0
        while True:
            assert time.monotonic() < deadline, "still serving after /shutdown"
            started = time.monotonic()
            try:
                probe.health()
            except ServiceError as exc:
                refused = exc
                break
            time.sleep(0.05)
        assert time.monotonic() - started < 1.0
        assert isinstance(refused.__cause__, ConnectionError)
        # the accepted job was finished, not dropped
        job = server.engine.job(accepted["job"])
        assert job.state == "done"


class TestMemberWorkers:
    def test_crash_at_member_start_reruns_and_converges(self):
        """A chaos crash kills the worker as the member starts; the
        member runs again in a fresh worker and the job succeeds."""
        plan = ChaosPlan([ChaosEvent(kind="crash", on_chunk=0)])
        with JobEngine(
            shards=1, pool_workers=1, pool_kwargs={"chaos": plan}
        ) as engine:
            job, _ = engine.submit(payload())
            finished = engine.wait(job.job_id, timeout=60.0)
            assert finished.state == "done"
            assert finished.record == _sr_record()
            stats = engine.metrics()["pools"][0]["stats"]
        assert stats == {
            "members": 1, "respawns": 1, "retries": 1,
            "timeouts": 0, "crashes": 1,
        }

    def test_sticky_crash_fails_job_then_next_job_runs_fresh(
        self, monkeypatch
    ):
        """A crash in every worker generation exhausts the re-run: the
        job fails with WorkerCrash.  The next job gets a fresh worker
        (spawned after the plan was disarmed) and succeeds."""
        plan = ChaosPlan([ChaosEvent(kind="crash", sticky=True)])
        monkeypatch.setenv(CHAOS_ENV, plan.to_json())
        with JobEngine(shards=1, pool_workers=1, max_queued=8) as engine:
            doomed, _ = engine.submit(payload())
            failed = engine.wait(doomed.job_id, timeout=60.0)
            assert failed.state == "failed"
            assert failed.record["status"] == "error"
            assert failed.error.startswith("WorkerCrash: ")
            monkeypatch.delenv(CHAOS_ENV)
            # a failed job is not a dedupe target: the same payload is
            # admitted as a fresh job
            healed, deduped = engine.submit(payload())
            assert not deduped and healed.job_id != doomed.job_id
            finished = engine.wait(healed.job_id, timeout=60.0)
            assert finished.state == "done"
            assert finished.record == _sr_record()
            assert engine.stats == {
                **engine.stats, "failed": 1, "completed": 1,
            }
            stats = engine.metrics()["pools"][0]["stats"]
        assert stats["crashes"] == 2 and stats["respawns"] == 2

    def test_hang_with_timeout_fails_as_job_timeout(self):
        """A worker hung at member start is killed at the deadline, the
        re-run hangs again, and the job fails as JobTimeout within the
        two deadlines (plus spawn and reap time)."""
        plan = ChaosPlan([ChaosEvent(kind="hang", sticky=True)])
        with JobEngine(
            shards=1, pool_workers=1,
            pool_kwargs={"chaos": plan, "timeout": 0.5},
        ) as engine:
            started = time.monotonic()
            job, _ = engine.submit(payload())
            failed = engine.wait(job.job_id, timeout=60.0)
            elapsed = time.monotonic() - started
            assert failed.state == "failed"
            assert failed.error.startswith("JobTimeout: ")
            assert elapsed < 2 * 0.5 + 5.0
            assert engine.metrics()["pools"][0]["stats"]["timeouts"] == 2

    def test_unknown_worker_option_is_refused_before_any_job(self):
        with pytest.raises(ReproError, match="unknown member-worker options"):
            JobEngine(shards=1, pool_workers=1, pool_kwargs={"backoff": 0.1})

    def test_jobs_report_member_and_dispatch_time(self):
        with JobEngine(shards=2, pool_workers=1) as engine:
            jobs = [engine.submit(payload(bits))[0] for bits in (2, 3, 4)]
            views = [
                engine.wait(job.job_id, timeout=60.0).describe(full=False)
                for job in jobs
            ]
            service = engine.metrics()["service"]
        assert service["max_inflight"] == 2
        for view in views:
            assert view["slot"] in (0, 1)
            assert 0.0 < view["member_s"] <= view["run_s"]
            assert view["dispatch_s"] == pytest.approx(
                view["run_s"] - view["member_s"], abs=1e-5
            )
        assert service["member_s"] == pytest.approx(
            sum(view["member_s"] for view in views), abs=1e-4
        )
        assert service["dispatch_s"] == pytest.approx(
            sum(view["dispatch_s"] for view in views), abs=1e-4
        )

    def test_close_leaves_no_child_process(self):
        engine = JobEngine(shards=2, pool_workers=2)
        assert len(multiprocessing.active_children()) == 4
        job, _ = engine.submit(payload())
        engine.wait(job.job_id, timeout=60.0)
        engine.close()
        assert multiprocessing.active_children() == []


@pytest.fixture(scope="module")
def local_sweep(tmp_path_factory):
    """The in-process sweep every service sweep must reproduce."""
    from repro.suite.sweep import run_sweep

    out = tmp_path_factory.mktemp("local")
    result = run_sweep(SERVICE_SLICE, str(out))
    return result, (out / "metrics.jsonl").read_bytes()


SERVICE_SLICE = SweepConfig(
    families=("sequential", "pop-small"), limit=2, record_timings=False
)


class TestServiceSweep:
    def test_service_sweep_is_byte_identical(self, local_sweep, tmp_path):
        """--service against a live server writes the same bytes as the
        in-process sweep, for every shard x member-worker layout."""
        from repro.suite.sweep import run_sweep

        local, local_bytes = local_sweep
        for shards in (1, 2):
            for pool_workers in (0, 1, 2):
                out = tmp_path / f"remote-{shards}-{pool_workers}"
                with CampaignServer(
                    port=0, shards=shards, pool_workers=pool_workers
                ) as srv:
                    remote = run_sweep(SERVICE_SLICE, str(out), service=srv.url)
                assert remote.canonical_sha256 == local.canonical_sha256
                assert (out / "metrics.jsonl").read_bytes() == local_bytes
                assert (
                    remote.manifest["metrics"]["file_sha256"]
                    == local.manifest["metrics"]["file_sha256"]
                )
                assert multiprocessing.active_children() == []
