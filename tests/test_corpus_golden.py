"""Sharded golden corpus: every member pinned, forever.

``tests/golden/corpus/shard{i}of{N}.json`` partitions the whole corpus by
its stable member sharding (:func:`repro.suite.corpus.shard_of`) and pins,
per member, the ledger SHA-256 and the structural signature; a small
*deep* subset per shard additionally pins the complete sweep record
(synthesis result, coverage report, collapse telemetry) in canonical
form, so the golden corpus is collapse-aware end to end.

Each shard is independently runnable -- a CI cell sets
``REPRO_CORPUS_SHARD=<i>`` and only that shard's members are checked --
while the default run covers all shards.  Regenerate every shard
deterministically with ``pytest tests/test_corpus_golden.py
--update-golden`` (no environment variable set, so all shards rewrite).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.fsm import equivalence_partition, is_strongly_connected
from repro.suite import corpus
from repro.suite.sweep import SweepConfig, canonical_record, sweep_member

SHARD_COUNT = 4
SHARD_ENV = "REPRO_CORPUS_SHARD"
GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "corpus"
)

# Deep pins run the real sweep pipeline; keep the config in lockstep with
# the defaults so a sweep over the same member reproduces these records.
DEEP_CONFIG = SweepConfig(record_timings=False)
# Per shard: the first member of each of these families gets a deep pin
# (mcnc = hand-written kiss, pop-small = random population,
# pop-structured = planted nontrivial factorization).
DEEP_FAMILIES = ("mcnc", "pop-small", "pop-structured")


def shard_path(index: int) -> str:
    return os.path.join(GOLDEN_DIR, f"shard{index}of{SHARD_COUNT}.json")


def shard_members(index: int):
    return corpus.members(shard_index=index, shard_count=SHARD_COUNT)


def structural_record(member: corpus.CorpusMember) -> dict:
    machine = member.build()
    return {
        "sha256": member.sha256(),
        "n_states": machine.n_states,
        "n_inputs": machine.n_inputs,
        "n_outputs": machine.n_outputs,
    }


def deep_ids(members) -> list:
    chosen = []
    for family in DEEP_FAMILIES:
        for member in members:
            if member.family == family:
                chosen.append(member.member_id)
                break
    return chosen


def build_shard(index: int) -> dict:
    members = shard_members(index)
    payload = {
        "shard": {"index": index, "count": SHARD_COUNT},
        "members": {
            member.member_id: structural_record(member) for member in members
        },
        "deep": {},
    }
    by_id = {member.member_id: member for member in members}
    for member_id in deep_ids(members):
        record = sweep_member(by_id[member_id], DEEP_CONFIG)
        assert record["status"] == "ok", record
        payload["deep"][member_id] = json.loads(canonical_record(record))
    return payload


def _skip_unless_selected(index: int) -> None:
    selected = os.environ.get(SHARD_ENV)
    if selected is not None and int(selected) != index:
        pytest.skip(f"{SHARD_ENV}={selected} selects a different shard")


@pytest.mark.parametrize("index", range(SHARD_COUNT))
def test_shard_matches_golden(index, update_golden):
    _skip_unless_selected(index)
    if update_golden:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(shard_path(index), "w", encoding="utf-8") as handle:
            json.dump(build_shard(index), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return
    with open(shard_path(index), encoding="utf-8") as handle:
        golden = json.load(handle)
    assert golden["shard"] == {"index": index, "count": SHARD_COUNT}
    members = shard_members(index)
    assert sorted(golden["members"]) == sorted(m.member_id for m in members)
    by_id = {member.member_id: member for member in members}
    for member_id, expected in golden["members"].items():
        assert structural_record(by_id[member_id]) == expected, member_id
    assert sorted(golden["deep"]) == sorted(deep_ids(members))
    for member_id, expected in golden["deep"].items():
        record = sweep_member(by_id[member_id], DEEP_CONFIG)
        assert json.loads(canonical_record(record)) == expected, member_id


def test_shards_partition_the_corpus():
    """Every member lands in exactly one shard; the union is the corpus."""
    everything = [m.member_id for m in corpus.members()]
    sharded = []
    for index in range(SHARD_COUNT):
        sharded.extend(m.member_id for m in shard_members(index))
    assert sorted(sharded) == sorted(everything)
    assert len(everything) == len(set(everything))
    assert len(everything) >= 500


def test_kiss_sources_are_wellformed():
    """Every on-disk KISS2 source parses reduced and strongly connected."""
    for member in corpus.members(family_filter=("mcnc", "table1")):
        machine = member.build()
        assert equivalence_partition(machine).is_identity(), member.member_id
        assert is_strongly_connected(machine), member.member_id


def test_generated_members_rebuild_from_manifest():
    """A generated member's manifest spec alone reproduces its hash."""
    member = corpus.members(family_filter=("pop-small",), limit=1)[0]
    rebuilt = corpus.member_from_manifest(member.to_manifest())
    assert rebuilt.sha256() == member.sha256()
    assert rebuilt.build().n_states == member.build().n_states
