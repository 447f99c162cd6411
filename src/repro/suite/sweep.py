"""Registry-driven sweep harness: synthesis→BIST campaigns over the corpus.

A *sweep* runs the full pipeline (OSTR search → architecture build →
fault-simulation campaign) over a selection of corpus members
(:mod:`repro.suite.corpus`) and emits the reproducibility artifact
pattern, with no hand-edited numbers anywhere:

``manifest.json``
    environment capture, the complete sweep configuration, the SHA-256
    corpus ledger (per-member hashes plus generator specs, so generated
    members rebuild from the manifest alone), and the metrics ledger.
``metrics.jsonl``
    one JSON record per machine: corpus identity, synthesis result,
    coverage, collapse reduction, and (optionally) wall-clock timings.
    Every record has a *canonical form* -- the record minus the ``wall``
    and ``telemetry`` keys (run configuration, not subject facts),
    serialised with sorted keys -- and the manifest pins the SHA-256
    over all canonical lines.  Re-running a sweep from its manifest's
    seeds reproduces the canonical content bit-identically; with timings
    disabled and matching engine knobs the file itself is byte-identical.
``summary.json``
    aggregates over the run (coverage distribution, exact/inexact search
    counts, collapse reduction, failures).

Work shards across CI cells with the corpus's stable member sharding.
Within a run, ``workers=N`` runs whole members in N forked member
workers (:mod:`repro.suite.worker`); every member's record is the same
either way, which is what makes the ledger meaningful.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import time
from contextlib import closing
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import ReproError
from . import corpus as corpus_mod

MANIFEST_FORMAT = "repro-sweep/1"
METRICS_NAME = "metrics.jsonl"
MANIFEST_NAME = "manifest.json"
SUMMARY_NAME = "summary.json"

#: the architectures a sweep (and ``repro lint``) can build and measure.
SWEEP_ARCHITECTURES = ("pipeline", "conventional")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_positive_or_none(value) -> bool:
    return value is None or (_is_int(value) and value > 0)


def _is_names(value) -> bool:
    return value is None or (
        isinstance(value, (list, tuple)) and all(isinstance(name, str) for name in value)
    )


@dataclass(frozen=True)
class SweepConfig:
    """Everything that determines a sweep's deterministic output.

    All fields are JSON-able; the manifest embeds ``to_dict()`` and
    :meth:`from_dict` rebuilds the exact configuration for reproduction.
    ``workers`` is a wall-clock knob: ``> 1`` runs whole members in that
    many forked member workers (:mod:`repro.suite.worker`), largest
    first, and writes the records in selection order.  Each record is a
    pure function of its member and the other fields, so it may be
    changed on re-run without perturbing the metrics ledger.
    """

    families: Optional[Sequence[str]] = None  # None = whole corpus
    limit: Optional[int] = None  # per-family member cap
    shard_index: int = 0
    shard_count: int = 1
    architecture: str = "pipeline"  # "pipeline" | "conventional"
    coverage: bool = True
    cycles: Optional[int] = None
    seed: int = 1  # campaign seed (session randomisation)
    node_limit: Optional[int] = 200_000
    basis_order: str = "sorted"
    collapse: str = "equiv"
    prescreen: str = "none"
    workers: int = 0
    record_timings: bool = True

    def __post_init__(self):
        from ..faults.collapse import COLLAPSE_MODES
        from ..faults.coverage import PRESCREEN_MODES
        from ..ostr.search import BASIS_ORDERS

        optional_positive = "a positive int or null"
        kinds = (
            ("families", _is_names(self.families), "null or a list of family names"),
            ("limit", self.limit is None or _is_int(self.limit), "an int or null"),
            ("shard_index", _is_int(self.shard_index), "an int"),
            ("shard_count", _is_int(self.shard_count), "an int"),
            ("coverage", isinstance(self.coverage, bool), "a bool"),
            ("cycles", _is_positive_or_none(self.cycles), optional_positive),
            ("seed", _is_int(self.seed), "an int"),
            ("node_limit", _is_positive_or_none(self.node_limit), optional_positive),
            ("workers", _is_int(self.workers) and self.workers >= 0, "an int >= 0"),
            ("record_timings", isinstance(self.record_timings, bool), "a bool"),
        )
        for name, ok, expected in kinds:
            if not ok:
                raise ReproError(
                    f"sweep config {name!r} must be {expected}, "
                    f"got {getattr(self, name)!r}"
                )
        for what, value, choices in (
            ("architecture", self.architecture, SWEEP_ARCHITECTURES),
            ("basis order", self.basis_order, BASIS_ORDERS),
            ("collapse mode", self.collapse, COLLAPSE_MODES),
            ("prescreen mode", self.prescreen, PRESCREEN_MODES),
        ):
            if value not in choices:
                raise ReproError(f"unknown {what} {value!r}; choose from {choices}")
        if self.limit is not None and self.limit < 0:
            raise ReproError(f"limit must be >= 0, got {self.limit}")
        if self.shard_count < 1 or not (0 <= self.shard_index < self.shard_count):
            raise ReproError(
                f"invalid shard {self.shard_index}/{self.shard_count}: "
                f"need 0 <= index < count (the CLI takes 1-based I/N)"
            )

    def to_dict(self) -> Dict[str, object]:
        payload = dataclasses.asdict(self)
        payload["families"] = (
            list(self.families) if self.families is not None else None
        )
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SweepConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Older manifests and journals carry a separate ``pool`` worker
        count; it folds into ``workers`` (the larger of the two).
        """
        kwargs = dict(payload)
        if "pool" in kwargs:
            pool = kwargs.pop("pool")
            if not _is_int(pool):
                raise ReproError(f"sweep config 'pool' must be an int, got {pool!r}")
            workers = kwargs.get("workers", 0)
            if _is_int(workers):  # any other value is refused below
                kwargs["workers"] = max(workers, pool)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(kwargs) - known)
        if unknown:
            raise ReproError(f"unknown sweep config fields: {unknown}")
        if isinstance(kwargs.get("families"), list):
            kwargs["families"] = tuple(kwargs["families"])
        return cls(**kwargs)


@dataclass
class SweepResult:
    """Handle on a finished sweep's artifacts."""

    out_dir: str
    manifest: Dict[str, object]
    summary: Dict[str, object]

    @property
    def records(self) -> int:
        return self.manifest["metrics"]["records"]

    @property
    def canonical_sha256(self) -> str:
        return self.manifest["metrics"]["canonical_sha256"]


def canonical_record(record: Mapping) -> str:
    """A record's canonical line: keys sorted, compact, run-specific
    fields stripped.

    ``wall`` (timings) and ``telemetry`` (collapse/prescreen campaign
    stats) describe *how* a record was computed, not *what* was measured
    -- the same member swept with ``prescreen="static"`` and
    ``prescreen="validate"`` must hash identically, like re-runs with
    different worker counts do.  The ``static`` analysis block, by
    contrast, is a pure function of the controller and stays canonical.
    """
    clean = {
        key: value
        for key, value in record.items()
        if key not in ("wall", "telemetry")
    }
    return json.dumps(clean, sort_keys=True, separators=(",", ":"))


def _canonical_digest(records: Sequence[Mapping]) -> str:
    text = "\n".join(canonical_record(record) for record in records)
    return hashlib.sha256((text + "\n").encode("utf-8")).hexdigest()


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _corpus_ledger_digest(member_records: Sequence[Mapping]) -> str:
    lines = [f"{record['id']} {record['sha256']}" for record in member_records]
    return hashlib.sha256(("\n".join(lines) + "\n").encode("utf-8")).hexdigest()


def _static_block(controller, report=None) -> Dict[str, object]:
    """Canonical static-analysis block of one controller's metrics record.

    Pure function of the controller's netlist structure -- verifier
    diagnostic tallies per block plus the untestability-prover verdict
    tally over the full fault universe -- so it belongs in the canonical
    ledger and reproduces bit-identically from a manifest's seeds.

    Given the campaign's ``report`` over that full universe, only
    ``report.undetected`` is proved: the prover is sound, so a fault the
    campaign detected never gets an untestable verdict, and the tally is
    the full universe's (``prescreen="validate"`` checks that soundness on
    every fault it simulates).  Without a report the whole universe is
    proved.
    """
    from ..analysis.untestable import verdict_tally
    from ..pipeline import static_analysis

    if report is None:
        analysis = static_analysis(controller)
        universe = len(analysis.verdicts)
    else:
        analysis = static_analysis(controller, faults=report.undetected)
        universe = report.total
    by_verdict = verdict_tally(analysis.verdicts)
    return {
        "structure": {
            block: {"counts": verified.counts(), "by_code": verified.by_code()}
            for block, verified in analysis.blocks.items()
        },
        "untestable": {
            "universe": universe,
            "proved": sum(by_verdict.values()),
            "by_verdict": by_verdict,
        },
    }


def sweep_member(member, config: SweepConfig) -> Dict[str, object]:
    """Synthesis→BIST campaign on one corpus member; one metrics record.

    This is the unit of work shared by the in-process sweep loop and the
    campaign service (:mod:`repro.service`): both produce *this* record
    for a given ``(member, config)``, which is why a sweep driven through
    the service is bit-identical to the in-process path -- the canonical
    metrics ledger is a pure function of the member and the deterministic
    config fields, never of who ran the campaign.  ``member`` is anything
    with the :class:`~repro.suite.corpus.CorpusMember` duck surface
    (``member_id``/``family``/``name``/``kind``/``build()``/``sha256()``);
    the member is built once and ``sha256`` hashes that machine.  The
    campaign runs in-process; parallelism is across members
    (:mod:`repro.suite.worker`).
    """
    from ..faults import measure_coverage
    from ..faults.engine import deterministic_telemetry
    from ..ostr import conventional_bist_flipflops, search_ostr
    from ..pipeline import build_controller

    record: Dict[str, object] = {
        "id": member.member_id,
        "family": member.family,
        "name": member.name,
        "kind": member.kind,
    }
    wall: Dict[str, float] = {}
    try:
        machine = member.build()
        record["sha256"] = member.sha256(machine)
        record["n_states"] = machine.n_states
        record["n_inputs"] = machine.n_inputs
        record["n_outputs"] = machine.n_outputs

        start = time.perf_counter()
        result = search_ostr(
            machine,
            node_limit=config.node_limit,
            basis_order=config.basis_order,
        )
        wall["synth_s"] = round(time.perf_counter() - start, 4)
        solution = result.solution
        record["synthesis"] = {
            "s1": max(solution.k1, solution.k2),
            "s2": min(solution.k1, solution.k2),
            "flipflops": solution.flipflops,
            "conventional_ff": conventional_bist_flipflops(machine.n_states),
            "nontrivial": max(solution.k1, solution.k2) < machine.n_states,
            "exact": result.exact,
            "investigated": result.stats.investigated,
            "basis_size": result.stats.basis_size,
        }

        if config.coverage:
            controller = build_controller(machine, config.architecture, result)
            start = time.perf_counter()
            report = measure_coverage(
                controller,
                cycles=config.cycles,
                seed=config.seed,
                dropping=True,
                collapse=config.collapse,
                prescreen=config.prescreen,
            )
            wall["coverage_s"] = round(time.perf_counter() - start, 4)
            record["coverage"] = {
                "architecture": config.architecture,
                "total": report.total,
                "detected": report.detected,
                "coverage": round(report.coverage, 6),
                "by_block": {
                    block: list(counts)
                    for block, counts in sorted(report.by_block.items())
                },
            }
            # The collapse/prescreen telemetry slices are deterministic
            # per config but config-dependent, so canonical_record strips
            # them (like wall): the ledger must not change when a sweep
            # merely *schedules* differently.
            telemetry = deterministic_telemetry(report.telemetry)
            record["telemetry"] = {
                "collapse": telemetry["collapse"],
                "prescreen": telemetry["prescreen"],
            }
            # A dominance-collapsed report covers only the kept classes.
            record["static"] = _static_block(
                controller, None if config.collapse == "dominance" else report
            )
        record["status"] = "ok"
    except ReproError as error:
        record["status"] = "error"
        record["error"] = f"{type(error).__name__}: {error}"
    if config.record_timings:
        record["wall"] = wall
    return record


def _summarize(
    records: Sequence[Mapping], config: SweepConfig, elapsed: Optional[float]
) -> Dict[str, object]:
    ok = [r for r in records if r.get("status") == "ok"]
    errors = [r for r in records if r.get("status") != "ok"]
    families: Dict[str, int] = {}
    for record in records:
        families[record["family"]] = families.get(record["family"], 0) + 1

    summary: Dict[str, object] = {
        "machines": len(records),
        "ok": len(ok),
        "errors": len(errors),
        "error_ids": [r["id"] for r in errors],
        "families": families,
        "shard": {"index": config.shard_index, "count": config.shard_count},
    }
    synthesized = [r for r in ok if "synthesis" in r]
    if synthesized:
        summary["synthesis"] = {
            "exact": sum(1 for r in synthesized if r["synthesis"]["exact"]),
            "inexact": sum(1 for r in synthesized if not r["synthesis"]["exact"]),
            "nontrivial": sum(
                1 for r in synthesized if r["synthesis"]["nontrivial"]
            ),
        }
    covered = [r for r in ok if "coverage" in r]
    if covered:
        total = sum(r["coverage"]["total"] for r in covered)
        detected = sum(r["coverage"]["detected"] for r in covered)
        worst = min(covered, key=lambda r: (r["coverage"]["coverage"], r["id"]))
        summary["coverage"] = {
            "total_faults": total,
            "total_detected": detected,
            "mean_coverage": round(
                sum(r["coverage"]["coverage"] for r in covered) / len(covered), 6
            ),
            "min_coverage": worst["coverage"]["coverage"],
            "min_coverage_id": worst["id"],
        }
        reductions = [
            r["telemetry"]["collapse"]["reduction"]
            for r in covered
            if r.get("telemetry", {}).get("collapse")
        ]
        if reductions:
            summary["collapse"] = {
                "mean_reduction": round(sum(reductions) / len(reductions), 4),
            }
    if elapsed is not None:
        summary["elapsed_s"] = round(elapsed, 2)
    return summary


def _service_records(
    service: str, member_records: Sequence[Mapping], config: SweepConfig
) -> Iterator[Tuple[int, Dict[str, object]]]:
    """Run the sweep's member jobs through a live campaign service.

    Submits one job per member manifest record (admission-control-aware
    batching) and yields ``(index, record)`` *in member order*, so the
    metrics file written from them is bit-identical to the in-process
    loop's.  A job that failed without producing a record (an unexpected
    server exception, not a structured campaign error) aborts the sweep
    -- silently dropping a member would corrupt the ledger.
    """
    from ..service.client import ServiceClient

    client = ServiceClient(service)
    jobs = [
        {"member": member_record, "config": config.to_dict()}
        for member_record in member_records
    ]
    for index, job in enumerate(client.run_batch(jobs)):
        record = job.get("record")
        if record is None:
            raise ReproError(
                f"service job {job.get('job')} for {member_records[index]['id']} "
                f"ended {job.get('state')!r} without a metrics record: "
                f"{job.get('error')}"
            )
        yield index, record


def run_sweep(
    config: SweepConfig,
    out_dir: str,
    members=None,
    progress=None,
    service: Optional[str] = None,
) -> SweepResult:
    """Run a sweep and write ``manifest.json``/``metrics.jsonl``/``summary.json``.

    ``members`` overrides corpus selection (the reproduction path passes
    the manifest's own member list so nothing depends on the current
    registry); ``progress`` is an optional ``callable(index, total,
    record)`` for CLI reporting.  ``service`` routes the campaigns
    through a running campaign service (:mod:`repro.service`) at that
    URL instead of this process -- the artifacts are identical either
    way (with timings disabled, byte-identical).
    """
    if members is None:
        members = corpus_mod.members(
            family_filter=config.families,
            limit=config.limit,
            shard_index=config.shard_index,
            shard_count=config.shard_count,
        )
    os.makedirs(out_dir, exist_ok=True)

    started = time.perf_counter()
    metrics_path = os.path.join(out_dir, METRICS_NAME)
    if service is not None:
        member_records = [member.to_manifest() for member in members]
        results = _service_records(service, member_records, config)
    elif config.workers > 1:
        from .worker import run_members

        results = run_members(members, config, config.workers)
    else:
        results = (
            (index, sweep_member(member, config))
            for index, member in enumerate(members)
        )
    records = []
    with open(metrics_path, "w", encoding="utf-8") as handle, closing(results):
        for index, record in results:
            records.append(record)
            handle.write(
                json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
            )
            if progress is not None:
                progress(index, len(members), record)
    elapsed = time.perf_counter() - started
    if service is None:
        # Each record carries the hash of the machine its member built; a
        # record without one (a worker crash, a member that failed to
        # build) has its member hashed here.
        member_records = [
            member.to_manifest(record.get("sha256"))
            for member, record in zip(members, records)
        ]

    summary = _summarize(
        records, config, elapsed if config.record_timings else None
    )
    with open(os.path.join(out_dir, SUMMARY_NAME), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")

    manifest: Dict[str, object] = {
        "format": MANIFEST_FORMAT,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
        },
        "config": config.to_dict(),
        "corpus": {
            "count": len(member_records),
            "ledger_sha256": _corpus_ledger_digest(member_records),
            "members": member_records,
        },
        "metrics": {
            "path": METRICS_NAME,
            "records": len(records),
            "canonical_sha256": _canonical_digest(records),
            "file_sha256": _file_sha256(metrics_path),
        },
        "summary_path": SUMMARY_NAME,
    }
    if config.record_timings:
        # Deliberate wall-clock: the manifest's creation stamp is run
        # provenance, guarded by record_timings and outside every ledger
        # digest -- reproductions compare ledgers, not manifests.
        manifest["created_unix"] = round(time.time(), 2)  # repro-lint: disable=RL003
    with open(os.path.join(out_dir, MANIFEST_NAME), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return SweepResult(out_dir=out_dir, manifest=manifest, summary=summary)


def load_manifest(path: str) -> Dict[str, object]:
    """Read a manifest file (or a run directory containing one)."""
    if os.path.isdir(path):
        path = os.path.join(path, MANIFEST_NAME)
    try:
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except OSError as exc:
        raise ReproError(f"cannot read manifest: {exc}") from exc
    except ValueError as exc:
        raise ReproError(f"malformed manifest {path!r}: {exc}") from exc
    if manifest.get("format") != MANIFEST_FORMAT:
        raise ReproError(
            f"unsupported manifest format {manifest.get('format')!r} "
            f"(expected {MANIFEST_FORMAT!r})"
        )
    return manifest


def verify_run(run_dir: str) -> Dict[str, object]:
    """Check a finished run against its own manifest ledger.

    Recomputes every corpus member hash (file bytes for kiss members,
    regenerated canonical dumps for generated members) and the metrics
    file/canonical digests.  Returns ``{"ok": bool, "mismatches": [...],
    ...}``; any corruption of a corpus source, a metrics record, or the
    files themselves lands in ``mismatches``.
    """
    manifest = load_manifest(run_dir)
    mismatches: List[str] = []

    for record in manifest["corpus"]["members"]:
        member = corpus_mod.member_from_manifest(record)
        try:
            actual = member.sha256()
        except (OSError, ReproError) as exc:
            mismatches.append(f"corpus {member.member_id}: unreadable ({exc})")
            continue
        if actual != record["sha256"]:
            mismatches.append(
                f"corpus {member.member_id}: sha256 {actual[:12]}... != "
                f"ledger {record['sha256'][:12]}..."
            )
    ledger = _corpus_ledger_digest(manifest["corpus"]["members"])
    if ledger != manifest["corpus"]["ledger_sha256"]:
        mismatches.append("corpus ledger digest does not match the member list")

    metrics_meta = manifest["metrics"]
    metrics_path = os.path.join(run_dir, metrics_meta["path"])
    if not os.path.exists(metrics_path):
        mismatches.append(f"metrics file missing: {metrics_meta['path']}")
    else:
        if _file_sha256(metrics_path) != metrics_meta["file_sha256"]:
            mismatches.append("metrics file sha256 does not match the manifest")
        records = []
        try:
            with open(metrics_path, encoding="utf-8") as handle:
                for line in handle:
                    if line.strip():
                        records.append(json.loads(line))
        except ValueError as exc:
            mismatches.append(f"metrics file has a malformed record: {exc}")
            records = None
        if records is not None:
            if len(records) != metrics_meta["records"]:
                mismatches.append(
                    f"metrics records: {len(records)} != manifest "
                    f"{metrics_meta['records']}"
                )
            if _canonical_digest(records) != metrics_meta["canonical_sha256"]:
                mismatches.append(
                    "metrics canonical ledger does not match the manifest"
                )

    return {
        "ok": not mismatches,
        "members": manifest["corpus"]["count"],
        "records": metrics_meta["records"],
        "mismatches": mismatches,
    }


def reproduce_run(manifest_path: str, out_dir: str) -> Dict[str, object]:
    """Re-run a sweep from its manifest alone; compare the metrics ledgers.

    The member list comes from the manifest's corpus ledger (generated
    members rebuild from their embedded specs; kiss members re-hash their
    sources first, so a drifted corpus file fails loudly instead of
    silently producing different metrics).  Returns the comparison; the
    canonical ledgers must match for ``identical`` to be true, and when
    the original recorded no timings the files are byte-identical too.
    """
    manifest = load_manifest(manifest_path)
    config = SweepConfig.from_dict(manifest["config"])
    members = []
    for record in manifest["corpus"]["members"]:
        member = corpus_mod.member_from_manifest(record)
        actual = member.sha256()
        if actual != record["sha256"]:
            raise ReproError(
                f"corpus member {member.member_id} drifted since the manifest "
                f"was written: sha256 {actual[:12]}... != ledger "
                f"{record['sha256'][:12]}...; reproduction would not be "
                "comparing like with like"
            )
        members.append(member)
    result = run_sweep(config, out_dir, members=members)
    identical = (
        result.canonical_sha256 == manifest["metrics"]["canonical_sha256"]
    )
    return {
        "identical": identical,
        "records": result.records,
        "canonical_sha256": result.canonical_sha256,
        "expected_sha256": manifest["metrics"]["canonical_sha256"],
        "out_dir": out_dir,
    }
