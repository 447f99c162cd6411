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
* chaos: a pool worker killed mid-campaign surfaces as a *failed job*
  (never a hung request), and the pool self-heals for the next job,
* ``repro sweep --service`` writes a ``metrics.jsonl`` byte-identical
  to the in-process path.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.exceptions import AdmissionError, ReproError
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
        expected = sweep_member(
            AdhocMember(name="sr2", text=kiss.dumps(shift_register(2))),
            SweepConfig(record_timings=False),
        )
        assert finished.record == expected

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


@pytest.fixture()
def server():
    with CampaignServer(port=0, shards=1, pool_workers=0, max_queued=8) as srv:
        yield srv


@pytest.fixture()
def client(server):
    return ServiceClient(server.url, timeout=60.0)


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


class TestChaosResilience:
    def test_killed_pool_worker_fails_job_then_pool_heals(self):
        """A chaos-crashed worker surfaces as a *failed job* -- the
        request never hangs -- and the pool respawns for the next job."""
        from repro.faults.chaos import ChaosEvent, ChaosPlan

        plan = ChaosPlan([ChaosEvent(kind="crash", on_chunk=0)])
        with JobEngine(
            shards=1,
            pool_workers=2,
            max_queued=8,
            pool_kwargs={"chaos": plan, "retries": 0, "backoff": 0.01},
        ) as engine:
            doomed, _ = engine.submit(payload())
            failed = engine.wait(doomed.job_id, timeout=60.0)
            assert failed.state == "failed"
            assert failed.record["status"] == "error"
            assert "WorkerCrash" in failed.error
            # a failed job is not a dedupe target: the same payload is
            # admitted as a fresh job...
            healed, deduped = engine.submit(payload())
            assert not deduped and healed.job_id != doomed.job_id
            # ...and succeeds on the respawned (chaos-free) workers
            finished = engine.wait(healed.job_id, timeout=60.0)
            assert finished.state == "done"
            assert engine.stats == {
                **engine.stats,
                "failed": 1,
                "completed": 1,
            }
            pool_stats = engine.metrics()["pools"][0]["stats"]
            assert pool_stats["respawns"] >= 1


class TestServiceSweep:
    def test_service_sweep_is_byte_identical(self, tmp_path):
        """--service against a live server writes the same bytes as the
        in-process sweep (the PR's acceptance criterion, in miniature)."""
        from repro.suite.sweep import run_sweep

        config = SweepConfig(
            families=("sequential",), limit=2, record_timings=False
        )
        local = run_sweep(config, str(tmp_path / "local"))
        with CampaignServer(port=0, shards=2, pool_workers=0) as srv:
            remote = run_sweep(
                config, str(tmp_path / "remote"), service=srv.url
            )
        assert (
            remote.canonical_sha256
            == local.canonical_sha256
        )
        local_bytes = (tmp_path / "local" / "metrics.jsonl").read_bytes()
        remote_bytes = (tmp_path / "remote" / "metrics.jsonl").read_bytes()
        assert remote_bytes == local_bytes
        assert (
            remote.manifest["metrics"]["file_sha256"]
            == local.manifest["metrics"]["file_sha256"]
        )
