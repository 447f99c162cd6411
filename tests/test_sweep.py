"""Sweep harness integrity: the manifest ledger catches every corruption.

The sweep's reproducibility contract has two halves: (1) any tampering --
with a corpus source file, a metrics record, or the files themselves --
fails verification against the manifest; (2) re-running a sweep from the
manifest alone (seeds and specs, no registry state) reproduces
``metrics.jsonl`` bit-identically.  Both halves are exercised here on a
small slice of the real corpus, with the KISS families redirected to a
scratch copy (``REPRO_CORPUS_ROOT``) so corruption is safe.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from repro.exceptions import ReproError
from repro.faults.chaos import CHAOS_ENV, ChaosEvent, ChaosPlan
from repro.suite import corpus
from repro.suite.sweep import (
    SweepConfig,
    canonical_record,
    load_manifest,
    reproduce_run,
    run_sweep,
    verify_run,
)

CONFIG = SweepConfig(
    families=("mcnc", "pop-small"),
    limit=2,
    record_timings=False,
)


@pytest.fixture
def scratch_corpus(tmp_path, monkeypatch):
    """A writable copy of the kiss corpus, installed via REPRO_CORPUS_ROOT."""
    root = tmp_path / "corpus"
    for family in ("mcnc", "table1"):
        shutil.copytree(
            os.path.join(corpus.corpus_root(), family), root / family
        )
    monkeypatch.setenv(corpus.CORPUS_ENV, str(root))
    return root


@pytest.fixture
def finished_run(scratch_corpus, tmp_path):
    out = tmp_path / "run"
    result = run_sweep(CONFIG, str(out))
    return out, result


def test_sweep_artifacts_and_clean_verification(finished_run):
    out, result = finished_run
    assert (out / "manifest.json").exists()
    assert (out / "metrics.jsonl").exists()
    assert (out / "summary.json").exists()
    assert result.records == 4
    assert result.summary["ok"] == 4
    outcome = verify_run(str(out))
    assert outcome["ok"], outcome["mismatches"]

    manifest = load_manifest(str(out))
    # The ledger covers every member, and generated members embed their
    # full reconstruction spec.
    kinds = {r["id"]: r["kind"] for r in manifest["corpus"]["members"]}
    assert set(kinds.values()) == {"kiss", "generated"}
    for record in manifest["corpus"]["members"]:
        if record["kind"] == "generated":
            assert record["spec"]["generator"] == "random_mealy"
            assert "seed" in record["spec"]


def test_corrupting_a_corpus_file_fails_verification(finished_run, scratch_corpus):
    out, _ = finished_run
    victim = scratch_corpus / "mcnc" / "elevator3.kiss2"
    victim.write_text(victim.read_text().replace("elevator", "elevator_x"))
    outcome = verify_run(str(out))
    assert not outcome["ok"]
    assert any("mcnc/elevator3" in m for m in outcome["mismatches"])


def test_deleting_a_corpus_file_fails_verification(finished_run, scratch_corpus):
    out, _ = finished_run
    os.remove(scratch_corpus / "mcnc" / "elevator3.kiss2")
    outcome = verify_run(str(out))
    assert not outcome["ok"]
    assert any("unreadable" in m for m in outcome["mismatches"])


def test_corrupting_a_metrics_record_fails_verification(finished_run):
    out, _ = finished_run
    path = out / "metrics.jsonl"
    lines = path.read_text().splitlines()
    record = json.loads(lines[0])
    record["coverage"]["detected"] += 1  # a single flipped count
    lines[0] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    outcome = verify_run(str(out))
    assert not outcome["ok"]
    assert any("canonical ledger" in m for m in outcome["mismatches"])
    assert any("file sha256" in m for m in outcome["mismatches"])


def test_truncating_metrics_fails_verification(finished_run):
    out, _ = finished_run
    path = out / "metrics.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    outcome = verify_run(str(out))
    assert not outcome["ok"]
    assert any("records" in m for m in outcome["mismatches"])


def test_tampered_manifest_ledger_is_caught(finished_run):
    out, _ = finished_run
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["corpus"]["members"][0]["sha256"] = "0" * 64
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    outcome = verify_run(str(out))
    assert not outcome["ok"]
    # Both the member hash and the rolled-up ledger digest disagree now.
    assert any("ledger" in m for m in outcome["mismatches"])


def test_reproduction_is_bit_identical(finished_run, tmp_path):
    out, _ = finished_run
    rerun = tmp_path / "rerun"
    outcome = reproduce_run(str(out), str(rerun))
    assert outcome["identical"]
    # record_timings=False: not just the canonical ledger -- the bytes.
    assert (rerun / "metrics.jsonl").read_bytes() == (
        out / "metrics.jsonl"
    ).read_bytes()


def test_reproduction_refuses_drifted_corpus(finished_run, scratch_corpus, tmp_path):
    out, _ = finished_run
    victim = scratch_corpus / "mcnc" / "elevator3.kiss2"
    victim.write_text(victim.read_text() + "# drift\n")
    with pytest.raises(ReproError, match="drifted"):
        reproduce_run(str(out), str(tmp_path / "rerun"))


def test_generated_members_reproduce_without_any_corpus_tree(
    scratch_corpus, tmp_path, monkeypatch
):
    """Generated sweeps need no repository state: specs alone suffice."""
    out = tmp_path / "run"
    run_sweep(
        SweepConfig(families=("pop-small",), limit=2, record_timings=False),
        str(out),
    )
    # Point the corpus root somewhere empty: reproduction still works
    # because every member rebuilds from its embedded generator spec.
    monkeypatch.setenv(corpus.CORPUS_ENV, str(tmp_path / "nowhere"))
    outcome = reproduce_run(str(out), str(tmp_path / "rerun"))
    assert outcome["identical"]


@pytest.fixture(scope="module")
def serial_bytes(tmp_path_factory):
    """``metrics.jsonl`` of the in-process (``workers=0``) sweep of
    ``WORKER_SLICE``, against the real corpus."""
    out = tmp_path_factory.mktemp("serial")
    run_sweep(WORKER_SLICE, str(out))
    return (out / "metrics.jsonl").read_bytes()


WORKER_SLICE = SweepConfig(
    families=("mcnc", "pop-small", "sequential"), limit=3, record_timings=False
)


def test_canonical_ledger_is_scheduler_independent(serial_bytes, tmp_path):
    """``workers`` runs whole members in forked member workers, largest
    first; the records, written in selection order, are the bytes of
    the in-process sweep, and the manifest reproduces at any count
    (4 workers oversubscribe a 2-CPU host)."""
    for workers in (0, 1, 2, 4):
        out = tmp_path / f"run-{workers}"
        seen = []
        result = run_sweep(
            dataclasses.replace(WORKER_SLICE, workers=workers), str(out),
            progress=lambda index, total, record: seen.append(index),
        )
        assert (out / "metrics.jsonl").read_bytes() == serial_bytes
        assert seen == list(range(result.records))
        for rerun_workers in (0, 2):
            manifest = load_manifest(str(out))
            manifest["config"]["workers"] = rerun_workers
            path = tmp_path / f"manifest-{workers}-{rerun_workers}.json"
            path.write_text(json.dumps(manifest))
            rerun = tmp_path / f"rerun-{workers}-{rerun_workers}"
            assert reproduce_run(str(path), str(rerun))["identical"]
            assert (rerun / "metrics.jsonl").read_bytes() == serial_bytes
    assert multiprocessing.active_children() == []


def test_member_worker_crash_is_rerun_and_converges(
    serial_bytes, tmp_path, monkeypatch
):
    """A chaos crash at member start kills every first-generation
    worker; each member runs again in a fresh (chaos-free) worker and
    the ledger is unchanged."""
    _assert_ledger_survives_chaos("crash", serial_bytes, tmp_path, monkeypatch)


@pytest.mark.parametrize("kind", ["pipe_close", "slow"])
def test_member_worker_chaos_is_rerun_and_converges(
    kind, serial_bytes, tmp_path, monkeypatch
):
    """A closed pipe at member start is handled like a crash: the member
    runs again in a fresh worker.  A slow start only delays the member.
    Either way the ledger is unchanged."""
    _assert_ledger_survives_chaos(kind, serial_bytes, tmp_path, monkeypatch)


def _assert_ledger_survives_chaos(kind, serial_bytes, tmp_path, monkeypatch):
    plan = ChaosPlan([ChaosEvent(kind=kind, on_chunk=0)])
    monkeypatch.setenv(CHAOS_ENV, plan.to_json())
    config = dataclasses.replace(WORKER_SLICE, workers=2)
    run_sweep(config, str(tmp_path / "run"))
    assert (tmp_path / "run" / "metrics.jsonl").read_bytes() == serial_bytes


def test_sticky_member_worker_crash_becomes_an_error_record(
    tmp_path, monkeypatch
):
    plan = ChaosPlan([ChaosEvent(kind="crash", sticky=True)])
    monkeypatch.setenv(CHAOS_ENV, plan.to_json())
    config = SweepConfig(
        families=("sequential",), limit=2, record_timings=False, workers=2
    )
    result = run_sweep(config, str(tmp_path / "run"))
    assert result.summary["errors"] == 2
    for line in (tmp_path / "run" / "metrics.jsonl").read_text().splitlines():
        record = json.loads(line)
        assert record["status"] == "error"
        assert record["error"].startswith("WorkerCrash: ")
        assert "failed in 2 worker(s)" in record["error"]


def test_workers_exit_when_their_owner_is_killed():
    """``kill -9`` of a process holding two member workers: each worker
    sees its pipe reach EOF (no worker keeps an owner-side pipe end
    open) and exits on its own."""
    script = (
        "import sys, time\n"
        f"sys.path.insert(0, {os.path.join(os.path.dirname(__file__), os.pardir, 'src')!r})\n"
        "from repro.suite.worker import MemberWorker\n"
        "workers = [MemberWorker(index) for index in range(2)]\n"
        "pids = [worker._process.pid for worker in workers]\n"
        "print('PIDS', *pids, flush=True)\n"
        "time.sleep(600)\n"
    )
    process = subprocess.Popen(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True
    )
    pids = []
    try:
        line = process.stdout.readline()
        assert line.startswith("PIDS"), line
        pids = [int(token) for token in line.split()[1:]]
        assert len(pids) == 2
        process.kill()
        process.wait(30.0)
        deadline = time.monotonic() + 30.0
        while not all(_exited(pid) for pid in pids):
            assert time.monotonic() < deadline, f"orphan workers: {pids}"
            time.sleep(0.05)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(10.0)
        process.stdout.close()
        for pid in pids:  # only alive if the check above failed
            if not _exited(pid):
                os.kill(pid, signal.SIGKILL)


def _exited(pid: int) -> bool:
    """True once ``pid`` has exited; an orphan zombie nobody reaped
    counts as exited."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


@pytest.mark.parametrize("workers", [0, 2])
def test_each_member_is_built_once(workers, tmp_path, monkeypatch):
    """A sweep builds every member's machine exactly once -- the record's
    hash and the manifest's corpus ledger reuse that build -- and the
    ledger equals the members' own manifest records.  The counter is a
    file so builds inside forked member workers count too."""
    config = SweepConfig(
        families=("pop-structured",), limit=3, workers=workers,
        record_timings=False,
    )
    selected = corpus.members(family_filter=config.families, limit=config.limit)
    expected = [member.to_manifest() for member in selected]
    log = tmp_path / "builds.log"
    original = corpus.CorpusMember.build

    def counting_build(self):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(self.member_id + "\n")
        return original(self)

    monkeypatch.setattr(corpus.CorpusMember, "build", counting_build)
    result = run_sweep(config, str(tmp_path / "run"))
    assert result.manifest["corpus"]["members"] == expected
    assert sorted(log.read_text().split()) == sorted(
        member.member_id for member in selected
    )


@pytest.mark.parametrize("workers", [0, 2])
def test_generated_member_that_cannot_build_fails_the_sweep(workers, tmp_path):
    """The corpus ledger needs every member's hash, so a generated member
    that cannot be built still aborts the sweep with its build error."""
    good = corpus.members(family_filter=("sequential",), limit=1)[0]
    bad = corpus.CorpusMember(
        family="sequential", name="bad", kind="generated",
        spec={"generator": "no-such-generator", "name": "bad"},
    )
    config = SweepConfig(workers=workers, record_timings=False)
    with pytest.raises(ReproError, match="unknown generator"):
        run_sweep(config, str(tmp_path / "run"), members=[good, bad])
    assert multiprocessing.active_children() == []


def test_timed_records_share_the_untimed_canonical_ledger(scratch_corpus, tmp_path):
    """``wall`` and ``telemetry`` are the only non-canonical keys: a
    timed run's canonical ledger equals the untimed run's, and the
    canonical form of a timed record equals the untimed record's."""
    untimed = run_sweep(
        SweepConfig(families=("mcnc",), limit=1, record_timings=False),
        str(tmp_path / "untimed"),
    )
    timed = run_sweep(
        SweepConfig(families=("mcnc",), limit=1, record_timings=True),
        str(tmp_path / "timed"),
    )
    assert timed.canonical_sha256 == untimed.canonical_sha256
    timed_record = json.loads(
        (tmp_path / "timed" / "metrics.jsonl").read_text().splitlines()[0]
    )
    assert "wall" in timed_record
    untimed_record = json.loads(
        (tmp_path / "untimed" / "metrics.jsonl").read_text().splitlines()[0]
    )
    assert "wall" not in untimed_record
    assert "telemetry" in untimed_record  # written, just not canonical
    assert canonical_record(timed_record) == canonical_record(untimed_record)


def test_config_roundtrip_and_rejection():
    config = SweepConfig(families=("mcnc",), limit=3, shard_index=1, shard_count=2)
    assert SweepConfig.from_dict(config.to_dict()) == config
    with pytest.raises(ReproError, match="unknown sweep config fields"):
        SweepConfig.from_dict({**config.to_dict(), "bogus": 1})
    with pytest.raises(ReproError, match="unknown architecture"):
        SweepConfig(architecture="systolic")


def test_legacy_pool_field_folds_into_workers(scratch_corpus, tmp_path):
    """Manifests written when the config still had ``pool`` reproduce:
    the field folds into ``workers``, the larger of the two."""
    out = tmp_path / "run"
    run_sweep(
        SweepConfig(families=("mcnc",), limit=1, record_timings=False), str(out)
    )
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"]["pool"] = 2
    manifest_path.write_text(json.dumps(manifest))
    assert SweepConfig.from_dict(manifest["config"]).workers == 2
    assert SweepConfig.from_dict({"workers": 3, "pool": 2}).workers == 3
    assert "pool" not in SweepConfig().to_dict()
    outcome = reproduce_run(str(out), str(tmp_path / "rerun"))
    assert outcome["identical"]


def test_unknown_manifest_format_rejected(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"format": "repro-sweep/99"}))
    with pytest.raises(ReproError, match="unsupported manifest format"):
        load_manifest(str(path))


def test_sweep_errors_are_recorded_not_fatal(scratch_corpus, tmp_path):
    """A member that fails to build yields an error record, not a crash."""
    bad = scratch_corpus / "mcnc" / "broken.kiss2"
    bad.write_text(".i 1\n.o 1\n0 a a 0\n.e\n")  # incompletely specified
    out = tmp_path / "run"
    result = run_sweep(
        SweepConfig(families=("mcnc",), limit=None, record_timings=False),
        str(out),
    )
    assert result.summary["errors"] == 1
    assert result.summary["error_ids"] == ["mcnc/broken"]
    record = next(
        json.loads(line)
        for line in (out / "metrics.jsonl").read_text().splitlines()
        if json.loads(line)["id"] == "mcnc/broken"
    )
    assert record["status"] == "error"
    assert "incompletely specified" in record["error"]
    # The run still verifies: error records are part of the ledger too.
    assert verify_run(str(out))["ok"]


class TestEmptySelections:
    """Empty-slice sweeps (limit/shard combos selecting zero members)
    must produce valid, verifiable, reproducible artifacts -- and the
    silent-footgun inputs that *look* like empty selections must be
    rejected loudly."""

    def test_negative_limit_rejected_by_config(self):
        # Regression: limit=-1 used to slide through to Python slicing
        # and silently drop the *last* member of each family.
        with pytest.raises(ReproError, match="limit must be >= 0"):
            SweepConfig(limit=-1)

    def test_negative_limit_rejected_by_corpus(self):
        with pytest.raises(ReproError, match="limit must be >= 0"):
            corpus.members(family_filter=("sequential",), limit=-1)

    def test_out_of_range_shard_rejected_by_config(self):
        with pytest.raises(ReproError, match="invalid shard"):
            SweepConfig(shard_index=4, shard_count=4)
        with pytest.raises(ReproError, match="invalid shard"):
            SweepConfig(shard_index=0, shard_count=0)

    def test_limit_zero_run_is_valid_and_verifiable(self, tmp_path):
        out = tmp_path / "empty"
        result = run_sweep(
            SweepConfig(
                families=("sequential",), limit=0, record_timings=False
            ),
            str(out),
        )
        assert result.records == 0
        assert result.summary["machines"] == 0
        assert (out / "metrics.jsonl").read_bytes() == b""
        outcome = verify_run(str(out))
        assert outcome["ok"] and outcome["records"] == 0

    def test_empty_shard_run_is_valid_and_reproducible(self, tmp_path):
        # sequential has 4 members; shard 2 of 8 is empty under the
        # stable member hashing.
        config = SweepConfig(
            families=("sequential",),
            shard_index=2,
            shard_count=8,
            record_timings=False,
        )
        assert not corpus.members(
            family_filter=("sequential",), shard_index=2, shard_count=8
        )
        out = tmp_path / "empty-shard"
        result = run_sweep(config, str(out))
        assert result.records == 0
        assert verify_run(str(out))["ok"]
        outcome = reproduce_run(str(out), str(tmp_path / "again"))
        assert outcome["identical"] and outcome["records"] == 0

    def test_empty_run_summary_formats(self, tmp_path):
        from repro.experiments import format_sweep_summary

        result = run_sweep(
            SweepConfig(
                families=("sequential",), limit=0, record_timings=False
            ),
            str(tmp_path / "empty"),
        )
        text = format_sweep_summary(result.summary)
        assert "machines: 0" in text
