"""One repetition of a workload, in a fresh process.

Prints ``READY <monotonic time> <process start> <set-up reference s>``
once set-up is done (imports, member selection and, for the service
workload, a booted and healthy server), runs one ``run_sweep``, and
prints a JSON result as its last line.  An untraced repetition samples
the host's speed throughout (``speed.SpeedMeter``) and reports its times
in reference seconds as well as measured.
``run.py`` starts one process per repetition, so no memo cache survives
from one repetition to the next, and it checks the sweep's artifacts
itself after this process has exited.

Run it directly to look at one sweep, for example the service workload's
members in-process::

    python3 perfbench/rep.py --workload service-small --seed 1 \
        --mode inprocess --trace 1 --dir .perfbench/look
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time

from harness import ROOT, SRC, LineReader, child_env, stop
from speed import SpeedMeter
from workloads import WORKLOADS, select_members, sweep_config

sys.path.insert(0, SRC)

BOOT_S = 30.0  # server process start until it prints its address
HEALTH_S = 10.0  # address printed until /healthz answers
HTTP_S = 10.0  # one request after the sweep
SHUTDOWN_S = 10.0  # POST /shutdown until the server has exited
CLOSE_S = 30.0  # in-process server drain and close


def http_json(url: str, method: str, path: str, timeout: float):
    host, port = url.split("//", 1)[1].rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
    try:
        conn.request(method, path, body=b"{}" if method == "POST" else None)
        response = conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"{method} {path}: HTTP {response.status}")
        return json.loads(body)
    finally:
        conn.close()


def wait_healthy(url: str, deadline: float) -> None:
    while True:
        try:
            if http_json(url, "GET", "/healthz", timeout=1.0).get("ok"):
                return
        except (OSError, http.client.HTTPException, RuntimeError, ValueError):
            pass
        if time.monotonic() >= deadline:
            raise TimeoutError(f"{url} not healthy within {HEALTH_S}s")
        time.sleep(0.02)


class ServerProcess:
    """``python -m repro.cli serve`` on a free port, with bounded waits."""

    def __init__(self, journal_dir: str) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--host", "127.0.0.1", "--port", "0",
                "--shards", "1", "--pool-workers", "1",
                "--journal", journal_dir, "--fsync", "always", "--quiet",
            ],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = LineReader(self.proc.stdout).wait_for(
                "campaign service on ", time.monotonic() + BOOT_S
            )
            self.url = line.split()[3]
            wait_healthy(self.url, time.monotonic() + HEALTH_S)
        except BaseException:
            stop(self.proc, grace=0.0)
            raise

    def jobs(self):
        return http_json(self.url, "GET", "/jobs", HTTP_S)["jobs"]

    def close(self) -> str:
        """POST /shutdown, then wait, terminate, kill; returns how it ended."""
        try:
            http_json(self.url, "POST", "/shutdown", timeout=5.0)
        except (OSError, http.client.HTTPException, RuntimeError, ValueError):
            pass  # the escalation below still ends it
        return stop(self.proc, grace=SHUTDOWN_S)


class InProcessServer:
    """The same ``CampaignServer`` inside this process, so spans see its work."""

    def __init__(self, journal_dir: str) -> None:
        from repro.service import CampaignServer

        self.server = CampaignServer(
            port=0, shards=1, pool_workers=1, journal_dir=journal_dir,
            fsync="always",
        ).start()
        self.url = self.server.url
        wait_healthy(self.url, time.monotonic() + HEALTH_S)

    def jobs(self):
        return [job.describe(full=False) for job in self.server.engine.jobs()]

    def close(self) -> str:
        closer = threading.Thread(target=self.server.close, daemon=True)
        closer.start()
        closer.join(CLOSE_S)
        return "closed" if not closer.is_alive() else "close timed out"


def usage() -> dict:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "cpu_s": own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime,
        "peak_rss_mb": max(own.ru_maxrss, children.ru_maxrss) / 1024.0,
    }


def executor_layers(jobs, member_s: float, sweep_s: float) -> dict:
    """Queue wait and run time of a sweep's jobs, given as
    ``(submitted, started, finished)`` times in seconds."""
    from spans import tail_percentile

    waits = [started - submitted for submitted, started, _ in jobs]
    run_s = sum(finished - started for _, started, finished in jobs)
    tail = tail_percentile(waits) or (0.0, 0.0, len(waits))
    return {
        "service.queue_wait_p50_s": statistics.median(waits) if waits else 0.0,
        "service.queue_wait_tail_s": tail[1],
        "service.queue_wait_tail_pct": tail[0],
        "service.queue_wait_n": tail[2],
        "service.run_s": run_s,
        "service.job_overhead_s": run_s - member_s,
        "service.shard_idle_s": sweep_s - run_s,
    }


def service_counters(engine_metrics, clients) -> dict:
    """Pool, journal, admission and client counters of a traced service sweep."""
    pool = (engine_metrics["pools"][0] or {}).get("stats", {})
    journal = engine_metrics["journal"] or {}
    service = engine_metrics["service"]
    return {
        "faults.pool.campaigns": pool.get("campaigns", 0),
        "faults.pool.reuse_hits": pool.get("reuse_hits", 0),
        "faults.pool.retries": pool.get("retries", 0),
        "faults.pool.respawns": pool.get("respawns", 0),
        "service.journal_appends": journal.get("appends", 0),
        "service.journal_fsyncs": journal.get("fsyncs", 0),
        "service.journal_bytes": journal.get("bytes", 0),
        "service.rejected": service["rejected"],
        "service.dedupe_hits": service["dedupe_hits"],
        "service.client_retries": sum(c.stats["retries"] for c in clients),
        "service.client_reconnects": sum(c.stats["reconnects"] for c in clients),
    }


def traced_layers(tracer, sweep_s: float) -> dict:
    from spans import MEMBER, inclusive_times, layer_breakdown

    layers, top, unattributed = layer_breakdown(tracer.spans, sweep_s)
    counts = tracer.counts
    member_s = inclusive_times(tracer.spans).get(MEMBER, 0.0)
    out = {f"{name}_s": value for name, value in layers.items()}
    out.update(
        {
            name: counts.get(name, 0)
            for name in (
                "ostr.investigated", "logic.tables", "logic.cover_rows",
                "netlist.compiles", "faults.universe", "faults.scheduled",
                "faults.detected", "analysis.proved",
            )
        }
    )
    searches = counts.get("ostr.searches", 0)
    out["ostr.exact_ratio"] = counts["ostr.exact"] / searches if searches else 0.0
    out["suite.member_s"] = member_s
    out["suite.overhead_s"] = sweep_s - member_s
    out["trace.unattributed_s"] = unattributed
    return {"layers": out, "top": top}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("inprocess", "service"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", required=True, help="fresh directory for artifacts")
    args = parser.parse_args(argv)
    # Untraced repetitions sample the host's speed from here to the end; a
    # traced one does not, so probes never land inside its spans.
    meter = None if args.trace else SpeedMeter().start()
    began, began_mono = time.perf_counter(), time.monotonic()

    def reference_s(start: float, end: float) -> float:
        return end - start if meter is None else meter.reference_s(start, end)

    def probe_s(start: float, end: float) -> float:
        return 0.0 if meter is None else meter.probe_s(start, end)

    # -- set-up ---------------------------------------------------------------
    import repro.analysis.structure  # noqa: F401  (imported here, not mid-sweep)
    import repro.analysis.untestable  # noqa: F401
    import repro.bist  # noqa: F401
    import repro.faults.engine  # noqa: F401
    import repro.ostr  # noqa: F401
    import repro.service.client as client_mod
    from repro.suite.sweep import run_sweep
    from spans import MEMBER, SWEEP, Tracer, install

    workload = WORKLOADS[args.workload]
    mode = args.mode or workload.mode
    members = select_members(workload, args.seed)
    config = sweep_config(args.seed)
    os.makedirs(args.dir, exist_ok=True)
    out_dir = os.path.join(args.dir, "sweep")
    journal_dir = os.path.join(args.dir, "journal")
    server = None
    if mode == "service":
        server = (InProcessServer if args.trace else ServerProcess)(journal_dir)
    ready = time.perf_counter()
    # READY <now> <when this process began> <its set-up in reference seconds>
    print(
        f"READY {time.monotonic()!r} {began_mono!r} {reference_s(began, ready)!r}",
        flush=True,
    )

    # -- the timed sweep ------------------------------------------------------
    tracer = Tracer() if args.trace else None
    clients = []
    written = []  # in-process and traced: when each member's record was written
    progress = None
    if tracer is not None:
        install(tracer)

        class RecordingClient(client_mod.ServiceClient):
            def __init__(self, *a, **kw):
                super().__init__(*a, **kw)
                clients.append(self)

        client_mod.ServiceClient = RecordingClient
        if server is None:
            def progress(*_args):
                written.append(time.perf_counter())
    url = server.url if server is not None else None
    start = time.perf_counter()
    if tracer is not None:
        with tracer.span(SWEEP):
            run_sweep(config, out_dir, members=members, service=url, progress=progress)
    else:
        run_sweep(config, out_dir, members=members, service=url)
    end = time.perf_counter()
    sweep_s = end - start

    # -- after the sweep ------------------------------------------------------
    result = {
        "sweep_s": sweep_s,
        "sweep_ref_s": reference_s(start, end),
        "sweep_probe_s": probe_s(start, end),
        "out": out_dir,
        "bad_jobs": [],
        "shutdown": None,
    }
    if server is not None:
        jobs = server.jobs()
        result["bad_jobs"] = [
            job["member"] for job in jobs if job["state"] in ("failed", "cancelled")
        ]
        engine_metrics = (
            server.server.engine.metrics() if tracer is not None else None
        )
        result["shutdown"] = server.close()
    if tracer is not None:
        traced = traced_layers(tracer, sweep_s)
        layers = traced["layers"]
        if server is None:
            # The run_sweep loop is the executor: every member is submitted
            # at the sweep start and finishes once its record is written.
            starts = [span["start"] for span in tracer.spans if span["name"] == MEMBER]
            times = [(start, began, done) for began, done in zip(starts, written)]
        else:
            times = [
                (job["submitted_unix"], job["started_unix"], job["finished_unix"])
                for job in jobs
            ]
            layers.update(service_counters(engine_metrics, clients))
        layers.update(executor_layers(times, layers["suite.member_s"], sweep_s))
        trace_path = os.path.join(args.dir, "trace.json")
        tracer.dump(trace_path, origin=start, summary=traced)
        result.update(traced, trace_file=trace_path)
    stopped = time.perf_counter()
    if meter is not None:
        meter.stop()
    result.update(usage())
    # CPU time stretches with the host's speed like wall time, so it is
    # scaled by this process's mean speed over its whole life.
    probes = probe_s(began, stopped)
    result["cpu_ref_s"] = (result["cpu_s"] - probes) * (
        reference_s(began, stopped) / (stopped - began - probes)
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
