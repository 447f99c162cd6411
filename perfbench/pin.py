"""Regenerate ``pinned.json``: default-seed ledgers and per-member facts.

    python3 perfbench/pin.py

Sweeps every member any workload can draw (in-process, default seed) and
records the seed-independent facts digest of each record, then sweeps
each workload's default-seed selection and records its canonical ledger.
Run it only when a change is meant to alter sweep results, and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from harness import SRC, WORK
from workloads import (
    DEFAULT_SEED, PINS_PATH, WORKLOADS, member_facts, read_records,
    select_members, sweep_config,
)


def main() -> int:
    sys.path.insert(0, SRC)
    from repro.suite import corpus
    from repro.suite.sweep import run_sweep

    work_dir = os.path.join(WORK, "pin")
    config = sweep_config(DEFAULT_SEED)
    families = sorted({f for w in WORKLOADS.values() for f, _ in w.families})
    run_sweep(config, os.path.join(work_dir, "all"),
              members=corpus.members(family_filter=families))
    facts = {
        record["id"]: member_facts(record)
        for record in read_records(os.path.join(work_dir, "all"))
    }
    ledgers = {}
    for name, workload in WORKLOADS.items():
        result = run_sweep(config, os.path.join(work_dir, name),
                           members=select_members(workload, DEFAULT_SEED))
        ledgers[name] = result.canonical_sha256
    shutil.rmtree(work_dir, ignore_errors=True)
    with open(PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump({"default_seed": DEFAULT_SEED, "ledgers": ledgers,
                   "facts": facts}, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(json.dumps(ledgers, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
