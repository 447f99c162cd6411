"""Chaos plans, checkpoint resume, and seeded chaos in member workers.

Injects infrastructure faults (worker crashes, closed pipes, jitter --
:mod:`repro.faults.chaos`) into the member workers that run whole sweep
members, and asserts the central promise of the runtime: a sweep that
survives injected failures by re-running members writes a
``metrics.jsonl`` **byte-identical** to the in-process sweep.  Campaigns
themselves run in-process; a campaign that raises part-way leaves a
checkpoint from which a rerun resumes to a report **field-for-field
identical** to the serial oracle's.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random

import pytest

from repro.bist import build_conventional_bist
from repro.exceptions import ReproError
from repro.faults import (
    CampaignCheckpoint,
    ChaosEvent,
    ChaosPlan,
    measure_coverage,
    random_plan,
)
from repro.faults import engine
from repro.faults.chaos import CHAOS_ENV
from repro.faults.checkpoint import campaign_key, subject_digest
from repro.suite import shift_register
from repro.suite.sweep import SweepConfig, run_sweep

CYCLES = 32
SEED = 5


@pytest.fixture
def controller():
    return build_conventional_bist(shift_register(2))


@pytest.fixture
def oracle(controller):
    """The serial reference report every surviving campaign must equal."""
    return measure_coverage(controller, cycles=CYCLES, seed=SEED)


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
            # no worker unpickles a shipped subject any more
            ChaosEvent(kind="poison_pickle")
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
        self, controller, oracle, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "campaign.ckpt")
        # Phase 1: the campaign raises from its second chunk; the
        # snapshot of the first is flushed on the way out.
        original = engine._chunk_outcomes
        calls = []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise ReproError("injected failure in the second chunk")
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, "_chunk_outcomes", failing)
        with pytest.raises(ReproError, match="second chunk"):
            measure_coverage(
                controller, cycles=CYCLES, seed=SEED, dropping=True,
                checkpoint=path,
            )
        monkeypatch.setattr(engine, "_chunk_outcomes", original)
        with open(path, encoding="utf-8") as handle:
            snapshot = json.load(handle)
        assert 0 < snapshot["completed"] < snapshot["total"]
        # Phase 2: a rerun resumes the completed chunk and the final
        # report equals an uninterrupted serial run field for field.
        report = measure_coverage(
            controller, cycles=CYCLES, seed=SEED, dropping=True,
            checkpoint=path,
        )
        assert report == oracle
        resumed = report.telemetry["checkpoint"]["resumed"]
        assert resumed == snapshot["completed"] > 0
        assert not os.path.exists(path)  # cleared on success

    def test_serial_checkpoint_cleared_on_success(self, controller, oracle, tmp_path):
        path = str(tmp_path / "serial.ckpt")
        report = measure_coverage(
            controller, cycles=CYCLES, seed=SEED, checkpoint=path
        )
        assert report == oracle
        assert not os.path.exists(path)


    def test_subject_digest_is_sha256(self):
        payload = b"some pickled subject"
        assert subject_digest(payload) == hashlib.sha256(payload).hexdigest()
        assert len(subject_digest(b"")) == 64  # SHA-1 would be 40


#: a slice whose members each run in a member worker.
CHAOS_SLICE = SweepConfig(
    families=("mcnc", "pop-small"), limit=2, record_timings=False
)


class TestRandomSchedules:
    """Seeded chaos plans in member workers: every member re-runs
    chaos-free after a failure, so the ledger never changes."""

    def test_ci_seeded_schedule(self, tmp_path, monkeypatch):
        """The CI chaos cells pin REPRO_CHAOS_SEED and rerun this case."""
        run_sweep(CHAOS_SLICE, str(tmp_path / "serial"))
        seed = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
        plan = random_plan(random.Random(seed), workers=2, length=3)
        monkeypatch.setenv(CHAOS_ENV, plan.to_json())
        run_sweep(
            dataclasses.replace(CHAOS_SLICE, workers=2), str(tmp_path / "chaos")
        )
        serial = (tmp_path / "serial" / "metrics.jsonl").read_bytes()
        assert (tmp_path / "chaos" / "metrics.jsonl").read_bytes() == serial
