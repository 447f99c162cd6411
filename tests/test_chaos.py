"""Crash/recovery suite for the resilient campaign runtime.

Injects infrastructure faults (worker crashes, hangs, closed pipes,
poisoned payloads, jitter -- :mod:`repro.faults.chaos`) into the campaign
pool -- caller-owned and the ephemeral one behind ``workers=N`` -- and
asserts the central promise of the
resilience layer: a campaign that survives injected failures through
retries, respawns, checkpoint resume or degradation fallbacks returns a
:class:`CoverageReport` that is **field-for-field identical** to the
serial oracle's, and a campaign that cannot survive raises a structured
:class:`~repro.exceptions.JobTimeout` / :class:`~repro.exceptions.WorkerCrash`
with its attempt/unprocessed accounting intact.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bist import build_conventional_bist
from repro.exceptions import JobTimeout, ReproError, WorkerCrash
from repro.faults import (
    CampaignCheckpoint,
    CampaignPool,
    ChaosEvent,
    ChaosPlan,
    measure_coverage,
    random_plan,
)
from repro.faults.chaos import CHAOS_ENV
from repro.faults.checkpoint import campaign_key
from repro.faults.engine import DegradationEvent
from repro.suite import shift_register

CYCLES = 32
SEED = 5


@pytest.fixture
def controller():
    return build_conventional_bist(shift_register(2))


@pytest.fixture
def oracle(controller):
    """The serial reference report every surviving campaign must equal."""
    return measure_coverage(controller, cycles=CYCLES, seed=SEED)


def _pooled(controller, plan, **pool_kwargs):
    """One pooled campaign under the given injection plan."""
    kwargs = dict(timeout=10.0, retries=3, backoff=0.01)
    kwargs.update(pool_kwargs)
    with CampaignPool(2, chaos=plan, **kwargs) as pool:
        report = measure_coverage(
            controller, cycles=CYCLES, seed=SEED, dropping=True, pool=pool
        )
        stats = dict(pool.stats)
    return report, stats


class TestPlanModel:
    def test_event_json_roundtrip(self):
        event = ChaosEvent(kind="crash", worker=1, on_chunk=2, sticky=True)
        assert ChaosEvent.from_dict(event.to_dict()) == event
        plan = ChaosPlan([event, ChaosEvent(kind="slow", seconds=0.2)])
        assert ChaosPlan.from_json(plan.to_json()) == plan

    def test_rejects_unknown_kind_and_target(self):
        with pytest.raises(ReproError):
            ChaosEvent(kind="meteor")
        with pytest.raises(ReproError):
            ChaosEvent(kind="crash", target="gpu")
        with pytest.raises(ReproError):
            ChaosEvent(kind="crash", target="engine")
        with pytest.raises(ReproError):
            ChaosPlan.from_json("{not json")

    def test_from_env_roundtrip(self, monkeypatch):
        plan = ChaosPlan([ChaosEvent(kind="crash", on_chunk=1)])
        monkeypatch.setenv(CHAOS_ENV, plan.to_json())
        assert ChaosPlan.from_env() == plan
        monkeypatch.delenv(CHAOS_ENV)
        assert ChaosPlan.from_env() is None


class TestPoolRecovery:
    """Injected failures the pooled scheduler must absorb bit-identically."""

    def test_crash_respawns_and_matches_oracle(self, controller, oracle):
        # worker=None arms every worker, so whichever worker reaches its
        # second steal crashes -- a worker-pinned event could miss if the
        # sibling drained the queue first.
        plan = ChaosPlan([ChaosEvent(kind="crash", on_chunk=1)])
        report, stats = _pooled(controller, plan)
        assert report == oracle
        assert stats["respawns"] >= 1

    def test_pipe_close_is_recovered(self, controller, oracle):
        # EOF with exit code 0: the nastiest crash flavour.
        plan = ChaosPlan([ChaosEvent(kind="pipe_close", on_chunk=0)])
        report, stats = _pooled(controller, plan)
        assert report == oracle
        assert stats["respawns"] >= 1

    def test_poison_pickle_is_retried_without_respawn(self, controller, oracle):
        # A soft job error on *every* worker: the first attempt resolves
        # nothing, the workers stay alive (the events disarm in-process),
        # and the re-dispatch completes without any respawn.
        plan = ChaosPlan([ChaosEvent(kind="poison_pickle")])
        report, stats = _pooled(controller, plan)
        assert report == oracle
        assert stats["retries"] >= 1
        assert stats["respawns"] == 0

    def test_slow_chunks_do_not_trip_watchdog(self, controller, oracle):
        plan = ChaosPlan(
            [ChaosEvent(kind="slow", worker=index, seconds=0.2) for index in (0, 1)]
        )
        report, stats = _pooled(controller, plan, timeout=10.0)
        assert report == oracle
        assert stats["timeouts"] == 0
        assert stats["retries"] == 0

    def test_hang_watchdog_kills_and_recovers(self, controller, oracle):
        # Every worker hangs on its first steal, so the job cannot finish
        # until the watchdog kills and re-dispatches; the respawned
        # generation runs chaos-free (non-sticky events are gated to
        # generation 0) and converges.
        plan = ChaosPlan([ChaosEvent(kind="hang", on_chunk=0)])
        report, stats = _pooled(controller, plan, timeout=1.0)
        assert report == oracle
        assert stats["timeouts"] >= 1
        assert stats["respawns"] >= 1

    def test_multi_worker_crash_storm(self, controller, oracle):
        plan = ChaosPlan(
            [
                ChaosEvent(kind="crash", on_chunk=1),
                ChaosEvent(kind="pipe_close", on_chunk=3),
            ]
        )
        report, stats = _pooled(controller, plan)
        assert report == oracle
        assert stats["respawns"] >= 1


class TestBudgetExhaustion:
    """Failures that outlive the retry budget must raise structured errors."""

    def test_sticky_crash_exhausts_budget(self, controller):
        plan = ChaosPlan([ChaosEvent(kind="crash", on_chunk=1, sticky=True)])
        with CampaignPool(
            2, chaos=plan, retries=1, backoff=0.01, timeout=10.0
        ) as pool:
            with pytest.raises(WorkerCrash) as excinfo:
                measure_coverage(
                    controller,
                    cycles=CYCLES,
                    seed=SEED,
                    dropping=True,
                    pool=pool,
                    chunk_size=1,
                )
        assert excinfo.value.attempts == 2
        assert excinfo.value.unprocessed > 0
        assert excinfo.value.failures

    def test_sticky_hang_raises_job_timeout(self, controller):
        plan = ChaosPlan([ChaosEvent(kind="hang", on_chunk=0, sticky=True)])
        with CampaignPool(
            2, chaos=plan, retries=0, backoff=0.01, timeout=0.5
        ) as pool:
            with pytest.raises(JobTimeout) as excinfo:
                measure_coverage(
                    controller, cycles=CYCLES, seed=SEED, dropping=True, pool=pool
                )
        assert excinfo.value.deadline == 0.5
        assert excinfo.value.unprocessed > 0


class TestCheckpointResume:
    def test_checkpoint_roundtrip_and_key_mismatch(self, tmp_path):
        path = str(tmp_path / "snap.json")
        key = campaign_key("deadbeef", ("campaign", 1))
        ckpt = CampaignCheckpoint(path, key, total=4, interval=0.0)
        assert ckpt.load() is None
        assert ckpt.save([1, -1, 0, 2], flush=True)
        assert ckpt.load() == [1, -1, 0, 2]
        # a different campaign never adopts this snapshot
        other = CampaignCheckpoint(path, campaign_key("cafe", ("campaign", 1)), 4)
        assert other.load() is None
        wrong_total = CampaignCheckpoint(path, key, total=5)
        assert wrong_total.load() is None
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{corrupt")
        assert ckpt.load() is None
        ckpt.clear()
        ckpt.clear()  # idempotent
        assert not os.path.exists(path)

    def test_save_rate_limit_and_flush(self, tmp_path):
        path = str(tmp_path / "snap.json")
        ckpt = CampaignCheckpoint(path, "k", total=2, interval=3600.0)
        assert ckpt.save([0, -1])
        assert not ckpt.save([0, 1])  # limiter swallows it
        assert ckpt.save([0, 1], flush=True)
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle)["completed"] == 2

    def test_killed_campaign_resumes_bit_identically(
        self, controller, oracle, tmp_path
    ):
        path = str(tmp_path / "campaign.ckpt")
        # Phase 1: every worker crashes on its second chunk, every
        # generation, with no retry budget -- the campaign dies with a
        # partial on-disk snapshot (the on-failure flush).
        plan = ChaosPlan([ChaosEvent(kind="crash", on_chunk=1, sticky=True)])
        with CampaignPool(2, chaos=plan, retries=0, backoff=0.01) as pool:
            with pytest.raises(WorkerCrash):
                measure_coverage(
                    controller,
                    cycles=CYCLES,
                    seed=SEED,
                    dropping=True,
                    pool=pool,
                    chunk_size=1,
                    checkpoint=path,
                )
        assert os.path.exists(path)
        with open(path, encoding="utf-8") as handle:
            snapshot = json.load(handle)
        assert 0 < snapshot["completed"] < snapshot["total"]
        # Phase 2: a chaos-free rerun resumes the completed prefix and the
        # final report equals an uninterrupted serial run field for field.
        report = measure_coverage(
            controller,
            cycles=CYCLES,
            seed=SEED,
            dropping=True,
            workers=2,
            chunk_size=1,
            checkpoint=path,
        )
        assert report == oracle
        resilience = report.telemetry["resilience"]
        assert resilience["resumed"] == snapshot["completed"]
        assert not os.path.exists(path)  # cleared on success

    def test_serial_checkpoint_cleared_on_success(self, controller, oracle, tmp_path):
        path = str(tmp_path / "serial.ckpt")
        report = measure_coverage(
            controller, cycles=CYCLES, seed=SEED, checkpoint=path
        )
        assert report == oracle
        assert not os.path.exists(path)


class TestEphemeralPool:
    """``workers=N`` campaigns run on a pool that lives for one call."""

    @pytest.fixture
    def sticky_pool_crash(self, monkeypatch):
        # The ephemeral pool takes no plan argument; its forked workers
        # arm the plan from the inherited environment.
        plan = ChaosPlan([ChaosEvent(kind="crash", on_chunk=0, sticky=True)])
        monkeypatch.setenv(CHAOS_ENV, plan.to_json())

    def test_success_leaves_no_live_children(self, controller, oracle):
        report = measure_coverage(
            controller, cycles=CYCLES, seed=SEED, workers=2, dropping=True
        )
        assert report == oracle
        assert report.telemetry["workers"] == 2
        # preloaded at fork: no worker needed the payload shipped
        assert report.telemetry["pool"]["reuse_hits"] == 2
        assert multiprocessing.active_children() == []

    def test_exhausted_budget_raises_and_leaves_no_live_children(
        self, controller, sticky_pool_crash
    ):
        with pytest.raises(WorkerCrash) as excinfo:
            measure_coverage(
                controller,
                cycles=CYCLES,
                seed=SEED,
                dropping=True,
                workers=2,
                retries=1,
            )
        assert excinfo.value.attempts == 2
        assert multiprocessing.active_children() == []

    def test_degrade_falls_back_to_serial(
        self, controller, oracle, sticky_pool_crash
    ):
        report = measure_coverage(
            controller,
            cycles=CYCLES,
            seed=SEED,
            dropping=True,
            workers=2,
            retries=1,
            degrade=True,
        )
        assert report == oracle
        resilience = report.telemetry["resilience"]
        (event,) = resilience["fallbacks"]
        assert isinstance(event, DegradationEvent)
        assert (event.rung_from, event.rung_to, event.kind) == (
            "pool", "serial", "crash"
        )
        assert event.to_dict()["rung_to"] == "serial"
        assert resilience["retries"] == 1
        assert resilience["respawns"] >= 2
        assert multiprocessing.active_children() == []


class TestRandomSchedules:
    """Hypothesis-driven fault schedules: every survivable plan converges."""

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    def test_random_pool_plans_match_oracle(self, seed):
        controller = build_conventional_bist(shift_register(2))
        oracle = measure_coverage(controller, cycles=CYCLES, seed=SEED)
        plan = random_plan(random.Random(seed), workers=2)
        report, _stats = _pooled(controller, plan, retries=4)
        assert report == oracle

    def test_ci_seeded_schedule(self, controller, oracle):
        """The CI chaos cells pin REPRO_CHAOS_SEED and rerun this case."""
        seed = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
        plan = random_plan(random.Random(seed), workers=2, length=3)
        report, _stats = _pooled(controller, plan, retries=4)
        assert report == oracle
