"""Workload definitions and the correctness gate.

A workload is a corpus slice plus a way of running it.  The seed drives
both halves of a run's input: the campaign seed (``SweepConfig.seed``)
and, for the ``pop-*`` workloads, which population members are drawn.
Draws are stratified by machine size so that every seed gets the same
mix of small and large machines, which keeps sweep time steady across
seeds while the members themselves change.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pinned.json")
DEFAULT_SEED = 1
#: members per run re-checked on the reference campaign (small ones only).
ORACLE_MEMBERS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "inprocess" | "service"
    #: (family, sample size) in corpus order; ``None`` takes the whole family.
    families: Tuple[Tuple[str, Optional[int]], ...]


#: why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "table1-classic",
            "inprocess",
            (("mcnc", None), ("table1", None), ("sequential", None)),
        ),
        Workload(
            "pop-mix",
            "inprocess",
            (("pop-small", 20), ("pop-medium", 20), ("pop-structured", 20)),
        ),
        Workload(
            "service-small",
            "service",
            (("pop-small", 60),),
        ),
    )
}


def stratified_sample(family_members: Sequence, count: int, rng: random.Random):
    """``count`` members, one from each of ``count`` equal size strata.

    Members are ranked by state count (then name) and the ranking is cut
    into ``count`` contiguous strata; one member is drawn from each.  The
    result keeps corpus order.
    """
    if not 0 < count <= len(family_members):
        raise ValueError(f"cannot draw {count} of {len(family_members)} members")
    position = {member.member_id: i for i, member in enumerate(family_members)}
    ranked = sorted(
        family_members, key=lambda m: (m.spec.get("n_states", 0), m.name)
    )
    picks = []
    for stratum in range(count):
        low = stratum * len(ranked) // count
        high = (stratum + 1) * len(ranked) // count
        picks.append(ranked[rng.randrange(low, high)])
    return sorted(picks, key=lambda m: position[m.member_id])


def select_members(workload: Workload, seed: int) -> List:
    """The workload's members for ``seed``, in corpus order."""
    from repro.suite import corpus

    families = corpus.families()
    rng = random.Random(f"perfbench:{workload.name}:{seed}")
    chosen: List = []
    for family, count in workload.families:
        members = list(families[family].members)
        chosen.extend(
            members if count is None else stratified_sample(members, count, rng)
        )
    return chosen


def sweep_config(seed: int):
    """``SweepConfig`` defaults except ``record_timings=False``; the
    workload seed is the campaign seed."""
    from repro.suite.sweep import SweepConfig

    return SweepConfig(seed=seed, record_timings=False)


# -- correctness gate ---------------------------------------------------------


def member_facts(record: Mapping) -> str:
    """Digest of the seed-independent part of one metrics record.

    Synthesis, structure, fault universe and static analysis are pure
    functions of the machine; only detection counts depend on the
    campaign seed.  Pinning this digest per member checks every record of
    every seed, not just the default one.
    """
    coverage = record.get("coverage") or {}
    facts = {
        key: record.get(key)
        for key in (
            "id", "sha256", "status", "n_states", "n_inputs", "n_outputs",
            "synthesis", "static",
        )
    }
    facts["universe"] = coverage.get("total")
    facts["blocks"] = {
        block: counts[1] for block, counts in (coverage.get("by_block") or {}).items()
    }
    text = json.dumps(facts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pins(path: str = PINS_PATH) -> Dict[str, object]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def read_records(run_dir: str) -> List[Dict[str, object]]:
    from repro.suite.sweep import METRICS_NAME

    with open(os.path.join(run_dir, METRICS_NAME), encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def canonical_ledger(records: Sequence[Mapping]) -> str:
    """SHA-256 over the records' canonical lines, as the sweep manifest pins it."""
    from repro.suite.sweep import canonical_record

    text = "".join(canonical_record(record) + "\n" for record in records)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def error_rate(records: Sequence[Mapping], bad_jobs: Sequence[str], attempted: int) -> float:
    """Error records plus failed or cancelled jobs, over members attempted.

    A member counts once even when both its record and its job failed;
    a missing record counts as an error.
    """
    if attempted < 1:
        raise ValueError("error_rate needs at least one attempted member")
    bad = {r["id"] for r in records if r.get("status") != "ok"} | set(bad_jobs)
    missing = max(attempted - len(records), 0)
    return (len(bad) + missing) / attempted


def oracle_problems(members: Sequence, records: Sequence[Mapping], seed: int) -> List[str]:
    """Re-run ``ORACLE_MEMBERS`` seeded small members' campaigns on the
    serial reference oracle and compare coverage with their records.

    Detection counts depend on the seed, so only the default seed has a
    pinned ledger; this spot check covers detection at every seed.
    """
    from repro.bist import build_pipeline
    from repro.faults import measure_coverage
    from repro.ostr import search_ostr

    config = sweep_config(seed)
    small = [r for r in records if r.get("n_states", 99) <= 8 and "coverage" in r]
    rng = random.Random(f"perfbench:oracle:{seed}")
    chosen = rng.sample(small, min(ORACLE_MEMBERS, len(small)))
    by_id = {member.member_id: member for member in members}
    problems = []
    for record in chosen:
        result = search_ostr(
            by_id[record["id"]].build(),
            node_limit=config.node_limit,
            basis_order=config.basis_order,
        )
        report = measure_coverage(
            build_pipeline(result.realization()), cycles=config.cycles, seed=config.seed
        )
        expected = {
            "total": report.total,
            "detected": report.detected,
            "by_block": {b: list(c) for b, c in sorted(report.by_block.items())},
        }
        if {key: record["coverage"][key] for key in expected} != expected:
            problems.append(f"{record['id']}: coverage differs from the reference campaign")
    return problems


def gate(
    workload: str,
    seed: int,
    run_dir: str,
    members: Sequence[str],
    bad_jobs: Sequence[str],
    pins: Mapping,
) -> Tuple[str, float, List[str]]:
    """Check one finished sweep; returns ``(ledger, error_rate, problems)``.

    The ledger is recomputed from the records, not read from the
    manifest.  The sweep fails when ``verify_run`` reports a mismatch,
    the error rate is above zero, the records differ from the selected
    members, a record's seed-independent facts differ from the pinned
    ones, or -- at the default seed -- the canonical ledger differs from
    the pinned ledger.
    """
    from repro.suite.sweep import verify_run

    problems = [f"verify_run: {m}" for m in verify_run(run_dir)["mismatches"]]
    records = read_records(run_dir)
    ledger = canonical_ledger(records)
    rate = error_rate(records, bad_jobs, len(members))
    if rate > 0:
        problems.append(f"error_rate {rate:.4f} > 0")
    if [r["id"] for r in records] != list(members):
        problems.append("records do not match the selected members")
    facts = pins["facts"]
    for record in records:
        expected = facts.get(record["id"])
        if expected is None:
            problems.append(f"{record['id']}: no pinned facts")
        elif member_facts(record) != expected:
            problems.append(f"{record['id']}: record differs from its pinned facts")
    if seed == pins["default_seed"] and ledger != pins["ledgers"][workload]:
        problems.append(
            f"ledger {ledger[:12]} != pinned {pins['ledgers'][workload][:12]}"
        )
    return ledger, rate, problems
