"""End-to-end sweep benchmark with per-layer tracing.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1-classic --seed 1 --seconds 40 --trace 0

Each repetition is a fresh process (``rep.py``) running one ``run_sweep``
over the workload's members.  With ``--trace 0`` the benchmark repeats
untraced sweeps for ``--seconds`` seconds (at least two) and reports the
medians of the end-to-end metrics, times in reference seconds: wall and
CPU time scaled to one fixed host speed, which the repetition samples
while it runs (``speed.py``).  With ``--trace 1`` it runs one
untraced and one traced sweep and reports the per-layer metrics of the
traced one; the trace itself is kept under ``.perfbench/traces/``.

Every sweep passes the correctness gate of ``workloads.gate`` or counts
as failed and is left out of the figures.  The last line of output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from harness import ROOT, SRC, WORK, LineReader, child_env, stop
from workloads import (
    DEFAULT_SEED, WORKLOADS, gate, load_pins, oracle_problems, read_records,
    select_members,
)

REP = os.path.join(os.path.dirname(os.path.abspath(__file__)), "rep.py")
MIN_REPS = 2
REP_S = 75.0  # hard deadline of one repetition, set-up to exit

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
#: the repetition result each end-to-end metric is the median of: times
#: in reference seconds (see ``speed.py``), memory as measured.
FIELDS = {
    "setup_s": "setup_ref_s",
    "sweep_s": "sweep_ref_s",
    "cpu_s": "cpu_ref_s",
    "peak_rss_mb": "peak_rss_mb",
}

#: per-layer metrics and units; layer ``_s`` figures are self times.
PER_LAYER = {
    "fsm.build_s": "s",
    "ostr.search_s": "s",
    "ostr.investigated": "count",
    "ostr.exact_ratio": "ratio",
    "ostr.realize_s": "s",
    "encoding.encode_s": "s",
    "logic.minimise_s": "s",
    "logic.tables": "count",
    "logic.cover_rows": "count",
    "netlist.build_s": "s",
    "netlist.compile_s": "s",
    "netlist.compiles": "count",
    "bist.build_s": "s",
    "bist.verify_s": "s",
    "faults.campaign_s": "s",
    "faults.universe": "count",
    "faults.scheduled": "count",
    "faults.detected": "count",
    "faults.pool.campaigns": "count",
    "faults.pool.reuse_hits": "count",
    "faults.pool.retries": "count",
    "faults.pool.respawns": "count",
    "analysis.structure_s": "s",
    "analysis.prove_s": "s",
    "analysis.proved": "count",
    "suite.member_s": "s",
    "suite.overhead_s": "s",
    "error_rate": "ratio",
    "service.queue_wait_p50_s": "s",
    "service.queue_wait_tail_s": "s",
    "service.queue_wait_tail_pct": "%",
    "service.queue_wait_n": "count",
    "service.run_s": "s",
    "service.job_overhead_s": "s",
    "service.shard_idle_s": "s",
    "service.journal_appends": "count",
    "service.journal_fsyncs": "count",
    "service.journal_bytes": "bytes",
    "service.rejected": "count",
    "service.dedupe_hits": "count",
    "service.client_retries": "count",
    "service.client_reconnects": "count",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


class RepFailed(Exception):
    pass


def run_rep(workload: str, seed: int, trace: int, rep_dir: str):
    """One repetition; returns its result with ``setup_s`` (wall) and
    ``setup_ref_s`` (reference seconds) added, or raises ``RepFailed``."""
    deadline = time.monotonic() + REP_S
    started = time.monotonic()
    proc = subprocess.Popen(
        [
            sys.executable, REP, "--workload", workload, "--seed", str(seed),
            "--trace", str(trace), "--dir", rep_dir,
        ],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    last = None
    try:
        reader = LineReader(proc.stdout)
        ready, began, tail = map(float, reader.wait_for("READY ", deadline).split()[1:])
        while True:
            line = reader.get(deadline)
            if line is None:
                break
            last = line
    except (TimeoutError, EOFError) as exc:
        raise RepFailed(f"repetition did not finish: {exc}") from exc
    finally:
        ended = stop(proc, grace=5.0, group=True)
    if proc.returncode != 0 or last is None:
        raise RepFailed(f"repetition {ended} with code {proc.returncode}")
    # Interpreter start-up, before the repetition's speed meter runs, is
    # counted as wall time.
    return dict(
        json.loads(last), setup_s=ready - started, setup_ref_s=began - started + tail
    )


def schedule(trace: int, seconds: float, durations):
    """Which repetitions to run: an untraced then a traced one with
    ``trace``; otherwise untraced ones, at least ``MIN_REPS``, while the
    slowest so far would still end within ``seconds``."""
    if trace:
        yield from (0, 1)
        return
    began = time.monotonic()
    while len(durations) < MIN_REPS or (
        time.monotonic() - began + max(durations) <= seconds
    ):
        yield 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from repro.exceptions import ReproError

    seed = args.seed
    pins = load_pins()
    members = select_members(WORKLOADS[args.workload], seed)
    member_ids = [m.member_id for m in members]
    run_root = os.path.join(WORK, "runs", f"{args.workload}-{seed}-{os.getpid()}")
    good, problems, ledgers, durations = [], [], [], []
    for traced in schedule(args.trace, args.seconds, durations):
        rep_dir = os.path.join(run_root, str(len(durations)))
        began = time.monotonic()
        try:
            result = run_rep(args.workload, seed, traced, rep_dir)
            ledger, rate, found = gate(
                args.workload, seed, result["out"], member_ids,
                result["bad_jobs"], pins,
            )
        except (RepFailed, OSError, ValueError, KeyError, ReproError) as exc:
            found = [str(exc)]
        else:
            if ledgers and ledger != ledgers[0]:
                found.append(f"ledger {ledger[:12]} differs from this run's first")
            ledgers.append(ledger)
        durations.append(time.monotonic() - began)
        if found:
            problems.extend(f"repetition {len(durations)}: {i}" for i in found)
            continue
        result["error_rate"] = rate
        good.append(result)
        if "trace_file" in result:
            traces = os.path.join(WORK, "traces")
            os.makedirs(traces, exist_ok=True)
            kept = os.path.join(traces, f"{args.workload}-seed{seed}.json")
            shutil.move(result["trace_file"], kept)
            result["trace_file"] = kept
    if good:
        # Every good repetition has the same ledger, so one check covers all.
        try:
            wrong = oracle_problems(members, read_records(good[0]["out"]), seed)
        except (OSError, ValueError, KeyError, ReproError) as exc:
            wrong = [f"reference campaign failed: {exc}"]
        if wrong:
            problems.extend(f"all repetitions: {problem}" for problem in wrong)
            good = []
    shutil.rmtree(run_root, ignore_errors=True)

    attempted = len(durations)
    failed = attempted - len(good)
    for problem in problems:
        print(f"FAILED {problem}")
    endings = [rep["shutdown"] for rep in good if rep["shutdown"] is not None]
    if endings:
        print("server shutdown: " + ", ".join(
            f"{ending} x{endings.count(ending)}" for ending in sorted(set(endings))
        ))
    metrics = {}
    if args.trace:
        if failed == 0:
            untraced, traced_rep = good
            values = dict.fromkeys(PER_LAYER, 0.0)
            values.update(traced_rep["layers"])
            values["error_rate"] = traced_rep["error_rate"]
            values["trace.overhead_s"] = traced_rep["sweep_s"] - (
                untraced["sweep_s"] - untraced["sweep_probe_s"]
            )
            metrics = {
                name: {"value": values[name], "unit": unit}
                for name, unit in PER_LAYER.items()
            }
            sweep_s = traced_rep["sweep_s"]
            print(f"traced sweep_s {sweep_s:.3f} s "
                  f"(untraced {untraced['sweep_s']:.3f} s); trace {traced_rep['trace_file']}")
            for name, value in traced_rep["top"]:
                print(f"top layer {name}: {value:.3f} s self "
                      f"({100.0 * value / sweep_s:.1f}% of sweep_s)")
            print(f"unattributed {values['trace.unattributed_s']:.3f} s")
    elif good:
        for name, unit in END_TO_END.items():
            samples = [rep[FIELDS[name]] for rep in good]
            q1, q3 = quartiles(samples)
            value = statistics.median(samples)
            metrics[name] = {"value": value, "unit": unit}
            wall = statistics.median(rep[name] for rep in good)
            print(f"{name}: median {value:.4f} {unit} (n={len(samples)}, "
                  f"q1 {q1:.4f}, q3 {q3:.4f}); as measured {wall:.4f}")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
