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

import json
import os
import shutil

import pytest

from repro.exceptions import ReproError
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


def test_canonical_ledger_is_scheduler_independent(scratch_corpus, tmp_path):
    """``workers`` (a sweep-lifetime pool) changes wall-clock only, never
    the ledger."""
    config = SweepConfig(families=("mcnc",), limit=1, record_timings=False)
    serial = run_sweep(config, str(tmp_path / "serial"))
    parallel = run_sweep(
        SweepConfig(families=("mcnc",), limit=1, record_timings=False, workers=2),
        str(tmp_path / "parallel"),
    )
    assert serial.canonical_sha256 == parallel.canonical_sha256


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
