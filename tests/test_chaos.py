"""Chaos plans and seeded chaos in member workers.

Injects infrastructure faults (worker crashes, closed pipes, jitter --
:mod:`repro.faults.chaos`) into the member workers that run whole sweep
members, and asserts the central promise of the runtime: a sweep that
survives injected failures by re-running members writes a
``metrics.jsonl`` **byte-identical** to the in-process sweep.
"""

from __future__ import annotations

import dataclasses
import os
import random

import pytest

from repro.exceptions import ReproError
from repro.faults import ChaosEvent, ChaosPlan, random_plan
from repro.faults.chaos import CHAOS_ENV
from repro.suite.sweep import SweepConfig, run_sweep


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
            # the worker hook would die in time.sleep instead
            ChaosEvent(kind="slow", seconds=-1.0)
        with pytest.raises(ReproError):
            ChaosPlan.from_json("{not json")

    def test_from_env_roundtrip(self, monkeypatch):
        plan = ChaosPlan([ChaosEvent(kind="crash", on_chunk=1)])
        monkeypatch.setenv(CHAOS_ENV, plan.to_json())
        assert ChaosPlan.from_env() == plan
        monkeypatch.delenv(CHAOS_ENV)
        assert ChaosPlan.from_env() is None


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
