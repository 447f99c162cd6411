#!/usr/bin/env python
"""End-to-end speed benchmark for the compiled/parallel performance engine.

Measures the two hot paths the engine accelerates, always verifying that
the optimised results are bit-identical to the reference paths:

* **coverage**: a full ``measure_coverage`` BIST campaign -- seed serial
  path (interpreted netlist evaluation, no dropping) versus the engine
  (compiled kernels + exact fault dropping + ``workers=N`` fan-out on a
  preloaded ephemeral pool);
* **superposition**: the pipeline architecture's ``C1``/``C2`` fallback
  sessions (the faults whose response errors perturb the in-loop compactor
  and the ``lambda*`` stream) -- one serial replay per fault versus the
  lane-superposed replay that packs one faulty machine per bit lane;
* **ppsfp**: exhaustive pattern-set fault simulation of the widest
  combinational block -- the serial interpreted walker (the oracle)
  versus the per-fault compiled kernels versus the lane-superposed PPSFP
  kernel (one fault per bit lane on top of the pattern packing);
* **collapse**: the same full campaign with and without equivalence
  fault collapsing -- the collapsed run schedules one representative per
  structural equivalence class (typically 40-60% fewer faults) and
  expands the verdicts back, so the reports must stay field-for-field
  identical while the wall clock drops multiplicatively on top of
  dropping/superposition;
* **pool-reuse**: a sweep of repeated campaigns -- a preloaded ephemeral
  pool per campaign (``workers=N``: workers forked with the controller
  already compiled, reference state rebuilt every campaign) versus one
  persistent ``CampaignPool`` whose workers keep the controller compiled
  and its campaign state cached across campaigns;
* **synthesis_table1**: the Table-1 depth-first OSTR sweep --
  ``search_ostr`` on the label-tuple reference engine versus the
  bitset-native engine (identical solutions and search statistics);
* **partition_kernel**: the raw partition algebra -- label-tuple kernel
  functions versus :class:`~repro.partitions.kernel.BitsetKernel` on a
  pinned workload of meet/join/refines/m/M over real machine structure;
* **logic_minimize**: two-level minimization -- the string-cube reference
  minimizers versus the packed integer-cube engines on a pinned corpus
  (identical covers);
* **logic_controller**: the exact minimizer on real controller logic --
  every C1/C2/λ output column of the table1 family that the sweep sends
  down the exact path, string reference versus packed engine (identical
  covers; dk16's C1 holds a 31-minterm cyclic core);
* **corpus_sweep**: the registry-driven sweep harness end to end over a
  corpus slice -- uncollapsed versus equivalence-collapsed campaigns,
  with the metrics records (modulo collapse telemetry) required to be
  identical.

Emits a machine-readable ``BENCH JSON: {...}`` line (and writes
``benchmarks/results/bench_speed.json``) so speedups are tracked across
PRs; when a previous results file exists, a speedup-vs-baseline table is
printed so the trajectory is visible in ``scripts/verify.sh`` and CI
logs.  ``--smoke`` runs a seconds-scale subset for CI.

Usage::

    PYTHONPATH=src python benchmarks/bench_speed.py [--smoke] [--workers N]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro import suite  # noqa: E402
from repro.bist.architectures import (  # noqa: E402
    build_conventional_bist,
    build_pipeline,
)
from repro.faults.coverage import measure_coverage  # noqa: E402
from repro.faults.engine import CAMPAIGN_STATS, run_campaign  # noqa: E402
from repro.faults.pool import CampaignPool  # noqa: E402
from repro.faults.simulator import (  # noqa: E402
    exhaustive_patterns,
    simulate_patterns,
)
from repro.ostr.search import search_ostr  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

HEAVY = ("dk16", "dk512", "s1", "tbk")


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def bench_coverage(name: str, architecture: str, workers: int) -> dict:
    machine = suite.load(name)
    if architecture == "pipeline":
        controller = build_pipeline(search_ostr(machine).realization())
    else:
        controller = build_conventional_bist(machine)
    reference, baseline_s = _timed(
        lambda: measure_coverage(controller, engine="interpreted")
    )
    optimized, engine_s = _timed(
        lambda: measure_coverage(controller, workers=workers, dropping=True)
    )
    return {
        "bench": f"coverage/{name}/{architecture}",
        "faults": reference.total,
        "coverage": round(reference.coverage, 6),
        "baseline_s": round(baseline_s, 4),
        "optimized_s": round(engine_s, 4),
        "speedup": round(baseline_s / engine_s, 2) if engine_s else float("inf"),
        "workers": workers,
        "identical": optimized == reference,
    }


def bench_superposition(name: str) -> dict:
    """Pipeline C1/C2 fallback sessions: serial per-fault replay vs lanes.

    Both runs screen pattern-parallel first; the A/B difference is purely
    how the surviving faults replay their ``lambda*``-dependent session --
    one serial compiled run each (``superpose=False``) versus all of them
    superposed into bit lanes of one multi-lane run (the default).
    """
    machine = suite.load(name)
    controller = build_pipeline(search_ostr(machine).realization())
    fallback = [bf for bf in controller.fault_universe() if bf[0] in ("C1", "C2")]
    serial, serial_s = _timed(
        lambda: run_campaign(
            controller, dropping=True, faults=fallback, superpose=False
        )
    )
    superposed, lanes_s = _timed(
        lambda: run_campaign(controller, dropping=True, faults=fallback)
    )
    return {
        "bench": f"superposition/{name}/pipeline-fallback",
        "faults": serial.total,
        "coverage": round(serial.coverage, 6),
        "baseline_s": round(serial_s, 4),
        "optimized_s": round(lanes_s, 4),
        "speedup": round(serial_s / lanes_s, 2) if lanes_s else float("inf"),
        "identical": superposed == serial,
    }


def bench_ppsfp(name: str) -> dict:
    """Exhaustive PPSFP on the widest combinational block of ``name``.

    Baseline is the serial interpreted walker (the seed oracle); the
    per-fault compiled kernels are recorded as the intermediate; the
    optimised path is the lane-superposed kernel, which packs one fault
    per bit lane on top of the pattern packing so one evaluation screens
    ``lanes x patterns`` fault/pattern pairs.
    """
    machine = suite.load(name)
    network = build_conventional_bist(machine).plain.network
    patterns = exhaustive_patterns(len(network.inputs))
    interpreted, interpreted_s = _timed(
        lambda: simulate_patterns(network, patterns, engine="interpreted")
    )
    compiled, compiled_s = _timed(
        lambda: simulate_patterns(network, patterns, engine="compiled")
    )
    superposed, lanes_s = _timed(
        lambda: simulate_patterns(network, patterns, engine="superposed")
    )
    return {
        "bench": f"ppsfp/{name}/C-exhaustive",
        "inputs": len(network.inputs),
        "patterns": len(patterns),
        "faults": interpreted.total,
        "coverage": round(interpreted.coverage, 6),
        "baseline_s": round(interpreted_s, 4),
        "compiled_s": round(compiled_s, 4),
        "optimized_s": round(lanes_s, 4),
        "speedup": round(interpreted_s / lanes_s, 2) if lanes_s else float("inf"),
        "speedup_vs_compiled": (
            round(compiled_s / lanes_s, 2) if lanes_s else float("inf")
        ),
        "identical": superposed == interpreted == compiled,
    }


def bench_collapse(name: str) -> dict:
    """Full pipeline campaign, uncollapsed vs equivalence-collapsed.

    Both runs use the full engine (dropping + superposed fallbacks); the
    A/B difference is purely the scheduled universe -- all faults versus
    one representative per equivalence class with verdicts expanded back.
    ``identical`` asserts the field-for-field report equality the
    collapse layer guarantees.
    """
    machine = suite.load(name)
    controller = build_pipeline(search_ostr(machine).realization())
    baseline, baseline_s = _timed(lambda: run_campaign(controller, dropping=True))
    collapsed, collapsed_s = _timed(
        lambda: run_campaign(controller, dropping=True, collapse="equiv")
    )
    stats = CAMPAIGN_STATS["collapse"]
    return {
        "bench": f"collapse/{name}/pipeline-equiv",
        "faults": baseline.total,
        "scheduled": stats["scheduled"],
        "classes": stats["classes"],
        "reduction": stats["reduction"],
        "coverage": round(baseline.coverage, 6),
        "baseline_s": round(baseline_s, 4),
        "optimized_s": round(collapsed_s, 4),
        "speedup": (
            round(baseline_s / collapsed_s, 2) if collapsed_s else float("inf")
        ),
        "identical": collapsed == baseline,
    }


def bench_pool_reuse(names, workers: int, rounds: int = 2, pipelines: bool = True) -> dict:
    """Campaign sweep: a preloaded ephemeral pool per campaign vs one
    persistent pool.

    The Table-style shape the persistent pool exists for: many campaigns
    over many controllers, repeated.  The baseline runs every campaign
    with ``workers=N``, i.e. on its own ephemeral pool whose workers are
    forked with the controller preloaded (no payload, no recompile) but
    rebuild reference signatures and screening bundles every campaign;
    the persistent pool keeps the workers -- and their per-controller
    subject/state caches -- alive across the whole sweep, so every
    repeated campaign is a cache hit.
    """
    controllers = [build_conventional_bist(suite.load(name)) for name in names]
    if pipelines:
        controllers += [
            build_pipeline(search_ostr(suite.load(name)).realization())
            for name in names
        ]
    campaigns = len(controllers) * rounds
    ephemeral_reports, ephemeral_s = _timed(
        lambda: [
            run_campaign(controller, workers=workers, dropping=True)
            for _ in range(rounds)
            for controller in controllers
        ]
    )

    def pooled_sweep():
        with CampaignPool(workers) as pool:
            return (
                [
                    run_campaign(controller, dropping=True, pool=pool)
                    for _ in range(rounds)
                    for controller in controllers
                ],
                dict(pool.stats),
            )

    (pool_reports, stats), pool_s = _timed(pooled_sweep)
    return {
        "bench": f"pool-reuse/sweep-{len(controllers)}x{rounds}",
        "machines": list(names),
        "faults": sum(report.total for report in ephemeral_reports),
        "campaigns": campaigns,
        "workers": workers,
        "baseline": "preloaded ephemeral pool per campaign",
        "optimized": "one persistent pool",
        "baseline_s": round(ephemeral_s, 4),
        "optimized_s": round(pool_s, 4),
        "speedup": round(ephemeral_s / pool_s, 2) if pool_s else float("inf"),
        "reuse_hits": stats["reuse_hits"],
        "identical": ephemeral_reports == pool_reports,
    }


def bench_synthesis_table1(names) -> dict:
    """The Table-1 OSTR sweep: reference engine vs the bitset engine.

    ``identical`` asserts bit-identical solution partitions *and* search
    statistics per machine -- the acceptance contract of the bitset
    engine, not just a same-cost check.
    """
    import dataclasses

    per_machine = {}
    total_reference = total_fast = 0.0
    identical = True
    for name in names:
        machine = suite.load(name)
        kwargs = suite.entry(name).search_kwargs
        reference, reference_s = _timed(
            lambda: search_ostr(machine, reference=True, **kwargs)
        )
        fast, fast_s = _timed(lambda: search_ostr(machine, **kwargs))
        fast_stats = dataclasses.asdict(fast.stats)
        reference_stats = dataclasses.asdict(reference.stats)
        fast_stats.pop("elapsed_seconds")
        reference_stats.pop("elapsed_seconds")
        identical = identical and (
            repr(fast.solution.pi) == repr(reference.solution.pi)
            and repr(fast.solution.theta) == repr(reference.solution.theta)
            and fast_stats == reference_stats
        )
        total_reference += reference_s
        total_fast += fast_s
        per_machine[name] = {
            "reference_s": round(reference_s, 4),
            "fast_s": round(fast_s, 4),
        }
    return {
        # The machine count keys smoke (light subset) and full sweeps
        # apart, so the baseline comparison never ratios unlike sweeps.
        "bench": f"synthesis_table1/{len(names)}-machines",
        "machines": per_machine,
        "baseline_s": round(total_reference, 4),
        "optimized_s": round(total_fast, 4),
        "speedup": round(total_reference / total_fast, 2) if total_fast else 1.0,
        "identical": identical,
    }


def bench_partition_kernel(name: str, repeats: int) -> dict:
    """Raw partition algebra: label-tuple kernel vs the bitset kernel.

    The workload is real machine structure, not noise: the machine's
    m-basis elements and their pairwise joins, i.e. exactly the partitions
    the OSTR search churns through -- and it repeats, because that is the
    search's access pattern and what the kernel's per-SuccTable memo
    caches exist for (the label kernel recomputes every call).  Every
    bitset result is checked against the label result while timing.
    """
    from repro.partitions import kernel
    from repro.partitions.mm import m_basis_labels

    machine = suite.load(name)
    succ = machine.succ_table
    basis = m_basis_labels(succ)
    joins = [
        kernel.join(a, b) for a in basis[:24] for b in basis[:24][::3]
    ]
    workload = (basis + joins)[: 600]
    pairs = list(zip(workload, workload[1:] + workload[:1]))

    def label_pass():
        out = 0
        for _ in range(repeats):
            for a, b in pairs:
                out ^= hash(kernel.join(a, b))
                out ^= hash(kernel.meet(a, b))
                out ^= hash(kernel.refines(a, b))
                out ^= hash(kernel.m_operator(succ, a))
                out ^= hash(kernel.big_m_operator(succ, b))
        return out

    def bitset_pass():
        kern = kernel.BitsetKernel(succ)  # fresh caches: no warm-start head start
        out = 0
        for _ in range(repeats):
            for a, b in pairs:
                am, bm = kern.from_labels(a), kern.from_labels(b)
                out ^= hash(kern.to_labels(kern.join(am, bm)))
                out ^= hash(kern.to_labels(kern.meet(am, bm)))
                out ^= hash(kern.refines(am, bm))
                out ^= hash(kern.to_labels(kern.m(am)))
                out ^= hash(kern.to_labels(kern.big_m(bm)))
        return out

    kern = kernel.BitsetKernel(succ)
    identical = all(
        kern.join_labels(a, b) == kernel.join(a, b)
        and kern.meet_labels(a, b) == kernel.meet(a, b)
        and kern.refines_labels(a, b) == kernel.refines(a, b)
        and kern.m_labels(a) == kernel.m_operator(succ, a)
        and kern.big_m_labels(b) == kernel.big_m_operator(succ, b)
        for a, b in pairs
    )
    label_digest, label_s = _timed(label_pass)
    bitset_digest, bitset_s = _timed(bitset_pass)
    return {
        "bench": f"partition_kernel/{name}",
        "operations": len(pairs) * 5 * repeats,
        "baseline_s": round(label_s, 4),
        "optimized_s": round(bitset_s, 4),
        "speedup": round(label_s / bitset_s, 2) if bitset_s else float("inf"),
        "identical": identical and label_digest == bitset_digest,
    }


def bench_logic_minimize(n_functions: int, max_inputs: int) -> dict:
    """Two-level minimization: string reference vs packed integer engines.

    A pinned pseudo-random corpus of incompletely specified functions is
    minimized exactly and heuristically by both engines; ``identical``
    demands cover-for-cover equality, which is the contract the integer
    engines are shipped under.
    """
    import random

    from repro.logic import (
        minimize_exact,
        minimize_exact_reference,
        minimize_heuristic,
        minimize_heuristic_reference,
    )

    rng = random.Random(20260727)
    corpus = []
    for index in range(n_functions):
        n = 4 + index % (max_inputs - 3)
        space = [format(v, f"0{n}b") for v in range(2 ** n)]
        on = [m for m in space if rng.random() < 0.35]
        dc = [m for m in space if m not in on and rng.random() < 0.1]
        if on:
            corpus.append((on, dc, n))

    reference_covers, reference_s = _timed(
        lambda: [
            (minimize_exact_reference(*f), minimize_heuristic_reference(*f))
            for f in corpus
        ]
    )
    packed_covers, packed_s = _timed(
        lambda: [(minimize_exact(*f), minimize_heuristic(*f)) for f in corpus]
    )
    return {
        "bench": f"logic_minimize/{len(corpus)}-functions",
        "functions": len(corpus),
        "max_inputs": max_inputs,
        "baseline_s": round(reference_s, 4),
        "optimized_s": round(packed_s, 4),
        "speedup": (
            round(reference_s / packed_s, 2) if packed_s else float("inf")
        ),
        "identical": reference_covers == packed_covers,
    }


def bench_logic_controller(names) -> dict:
    """Exact minimization of the table1 family's controller tables.

    Each member goes through the sweep's own synthesis path (OSTR search
    under the ``SweepConfig`` budget, Figure-4 encoding); every C1, C2
    and λ output column within ``exact_limit`` inputs -- the ones the
    sweep minimizes exactly -- is replayed through the string reference
    and the packed engine.  ``identical`` demands equal covers.
    """
    from repro.encoding import encode_realization
    from repro.logic import minimize_exact, minimize_exact_reference
    from repro.suite import corpus
    from repro.suite.sweep import SweepConfig

    exact_limit = 10  # synthesize_table's default: the sweep's exact path
    config = SweepConfig()
    columns = []
    for member in corpus.families()["table1"].members:
        if member.name not in names:
            continue
        result = search_ostr(
            member.build(),
            node_limit=config.node_limit,
            basis_order=config.basis_order,
        )
        encoded = encode_realization(result.realization())
        for table in (encoded.c1, encoded.c2, encoded.lambda_):
            if table.n_inputs > exact_limit:
                continue
            for position in range(table.n_outputs):
                on, dc = table.output_column(position)
                if on:
                    columns.append((on, dc, table.n_inputs))

    reference_covers, reference_s = _timed(
        lambda: [minimize_exact_reference(*column) for column in columns]
    )
    packed_covers, packed_s = _timed(
        lambda: [minimize_exact(*column) for column in columns]
    )
    return {
        "bench": f"logic_controller/{len(names)}-machines",
        "machines": len(names),
        "columns": len(columns),
        "baseline_s": round(reference_s, 4),
        "optimized_s": round(packed_s, 4),
        "speedup": (
            round(reference_s / packed_s, 2) if packed_s else float("inf")
        ),
        "identical": reference_covers == packed_covers,
    }


def bench_corpus_sweep(limit: int) -> dict:
    """The registry-driven corpus sweep harness end to end.

    Runs the same corpus slice (kiss classics + planted structures)
    through ``run_sweep`` uncollapsed versus equivalence-collapsed --
    the configuration the sweep ships with.  ``identical`` compares the
    full metrics records modulo the collapse telemetry itself (the
    collapse layer's contract: scheduled work shrinks, reports don't
    move), so the harness's ledger determinism is exercised under both
    configurations on every benchmark run.
    """
    import shutil
    import tempfile

    from repro.suite.sweep import SweepConfig, run_sweep

    base = dict(
        families=("mcnc", "pop-structured"), limit=limit, record_timings=False
    )

    def records_of(out_dir):
        with open(os.path.join(out_dir, "metrics.jsonl"), encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh if line.strip()]
        for row in rows:
            row.pop("telemetry", None)
        return rows

    plain_dir = tempfile.mkdtemp(prefix="sweep_plain_")
    collapsed_dir = tempfile.mkdtemp(prefix="sweep_collapsed_")
    try:
        plain, plain_s = _timed(
            lambda: run_sweep(SweepConfig(**base, collapse="none"), plain_dir)
        )
        collapsed, collapsed_s = _timed(
            lambda: run_sweep(SweepConfig(**base, collapse="equiv"), collapsed_dir)
        )
        identical = records_of(plain_dir) == records_of(collapsed_dir)
    finally:
        shutil.rmtree(plain_dir, ignore_errors=True)
        shutil.rmtree(collapsed_dir, ignore_errors=True)
    return {
        "bench": f"corpus_sweep/{plain.records}-machines",
        "machines": plain.records,
        "faults": plain.summary["coverage"]["total_faults"],
        "baseline_s": round(plain_s, 4),
        "optimized_s": round(collapsed_s, 4),
        "speedup": (
            round(plain_s / collapsed_s, 2) if collapsed_s else float("inf")
        ),
        "identical": identical and plain.summary["errors"] == 0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="seconds-scale subset for CI"
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="engine worker processes"
    )
    parser.add_argument("--no-json-file", action="store_true")
    args = parser.parse_args(argv)

    if args.smoke:
        coverage_cases = [("dk27", "conventional"), ("dk27", "pipeline")]
        sweep_names = [n for n in suite.names() if n not in HEAVY]
        ppsfp_name = "dk16"  # widest block outside the heavy OSTR cases
        pool_case = dict(
            names=("shiftreg", "tav", "dk27"), workers=2, pipelines=False
        )
        collapse_name = "dk27"
        kernel_case = dict(name="dk512", repeats=5)
        logic_case = dict(n_functions=12, max_inputs=7)
        corpus_limit = 3
    else:
        coverage_cases = [
            ("dk27", "conventional"),
            ("bbtas", "pipeline"),
            ("dk14", "pipeline"),
        ]
        sweep_names = list(suite.names())
        ppsfp_name = "s1"  # the suite's widest combinational block
        pool_case = dict(
            names=("shiftreg", "tav", "dk27", "bbtas"), workers=2
        )
        collapse_name = "dk14"
        kernel_case = dict(name="dk16", repeats=5)
        logic_case = dict(n_functions=40, max_inputs=8)
        corpus_limit = 8

    baseline_payload = None
    baseline_path = os.path.join(RESULTS_DIR, "bench_speed.json")
    if os.path.exists(baseline_path):
        try:
            with open(baseline_path, encoding="utf-8") as handle:
                baseline_payload = json.load(handle)
        except (OSError, ValueError):
            baseline_payload = None

    results = []
    for name, architecture in coverage_cases:
        outcome = bench_coverage(name, architecture, args.workers)
        results.append(outcome)
        print(
            f"{outcome['bench']}: {outcome['faults']} faults, "
            f"{outcome['baseline_s']:.2f}s -> {outcome['optimized_s']:.2f}s "
            f"(x{outcome['speedup']}, identical={outcome['identical']})"
        )
    superposition = bench_superposition("dk14")
    results.append(superposition)
    print(
        f"{superposition['bench']}: {superposition['faults']} faults, "
        f"{superposition['baseline_s']:.2f}s -> "
        f"{superposition['optimized_s']:.2f}s "
        f"(x{superposition['speedup']}, identical={superposition['identical']})"
    )
    ppsfp = bench_ppsfp(ppsfp_name)
    results.append(ppsfp)
    print(
        f"{ppsfp['bench']}: {ppsfp['faults']} faults x {ppsfp['patterns']} "
        f"patterns, {ppsfp['baseline_s']:.2f}s -> {ppsfp['optimized_s']:.2f}s "
        f"(x{ppsfp['speedup']} vs oracle, x{ppsfp['speedup_vs_compiled']} vs "
        f"compiled, identical={ppsfp['identical']})"
    )
    collapse = bench_collapse(collapse_name)
    results.append(collapse)
    print(
        f"{collapse['bench']}: {collapse['faults']} faults -> "
        f"{collapse['scheduled']} scheduled "
        f"({100.0 * collapse['reduction']:.1f}% fewer), "
        f"{collapse['baseline_s']:.2f}s -> {collapse['optimized_s']:.2f}s "
        f"(x{collapse['speedup']}, identical={collapse['identical']})"
    )
    pool_reuse = bench_pool_reuse(**pool_case)
    results.append(pool_reuse)
    print(
        f"{pool_reuse['bench']}: {pool_reuse['campaigns']} campaigns / "
        f"{pool_reuse['faults']} faults total, "
        f"ephemeral pool per campaign {pool_reuse['baseline_s']:.2f}s -> "
        f"persistent pool {pool_reuse['optimized_s']:.2f}s "
        f"(x{pool_reuse['speedup']}, "
        f"{pool_reuse['reuse_hits']} reuse hits, "
        f"identical={pool_reuse['identical']})"
    )
    sweep = bench_synthesis_table1(sweep_names)
    results.append(sweep)
    print(
        f"{sweep['bench']}: {len(sweep['machines'])} machines, "
        f"{sweep['baseline_s']:.2f}s -> {sweep['optimized_s']:.2f}s "
        f"(x{sweep['speedup']}, identical={sweep['identical']})"
    )
    kernel_bench = bench_partition_kernel(**kernel_case)
    results.append(kernel_bench)
    print(
        f"{kernel_bench['bench']}: {kernel_bench['operations']} ops, "
        f"{kernel_bench['baseline_s']:.2f}s -> "
        f"{kernel_bench['optimized_s']:.2f}s "
        f"(x{kernel_bench['speedup']}, identical={kernel_bench['identical']})"
    )
    logic_bench = bench_logic_minimize(**logic_case)
    results.append(logic_bench)
    print(
        f"{logic_bench['bench']}: {logic_bench['functions']} functions, "
        f"{logic_bench['baseline_s']:.2f}s -> "
        f"{logic_bench['optimized_s']:.2f}s "
        f"(x{logic_bench['speedup']}, identical={logic_bench['identical']})"
    )
    controller_bench = bench_logic_controller(sweep_names)
    results.append(controller_bench)
    print(
        f"{controller_bench['bench']}: {controller_bench['columns']} columns, "
        f"{controller_bench['baseline_s']:.2f}s -> "
        f"{controller_bench['optimized_s']:.2f}s "
        f"(x{controller_bench['speedup']}, "
        f"identical={controller_bench['identical']})"
    )
    corpus_bench = bench_corpus_sweep(corpus_limit)
    results.append(corpus_bench)
    print(
        f"{corpus_bench['bench']}: {corpus_bench['machines']} machines / "
        f"{corpus_bench['faults']} faults, "
        f"{corpus_bench['baseline_s']:.2f}s -> "
        f"{corpus_bench['optimized_s']:.2f}s "
        f"(x{corpus_bench['speedup']}, identical={corpus_bench['identical']})"
    )

    _print_baseline_comparison(results, baseline_payload)

    payload = {
        "suite": "bench_speed",
        "mode": "smoke" if args.smoke else "full",
        "results": results,
    }
    print("BENCH JSON: " + json.dumps(payload))
    if not args.no_json_file:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        # Smoke runs land in their own file: bench_speed.json is the
        # committed full-mode baseline, and a CI/verify.sh smoke run must
        # not overwrite it with smoke-mode numbers.
        filename = "bench_speed_smoke.json" if args.smoke else "bench_speed.json"
        with open(
            os.path.join(RESULTS_DIR, filename), "w", encoding="utf-8"
        ) as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")

    if not all(r["identical"] for r in results):
        print("FAILED: optimised results diverged from the reference paths")
        return 1
    return 0


def _print_baseline_comparison(results, baseline_payload) -> None:
    """Speedup-vs-baseline table against the committed results file.

    The committed ``benchmarks/results/bench_speed.json`` is the previous
    run's trajectory point; printing the delta here makes regressions (or
    wins) visible directly in ``scripts/verify.sh`` and CI logs before
    the file is overwritten.
    """
    if not baseline_payload:
        print("-- no committed baseline yet; this run becomes the baseline --")
        return
    baseline = {
        r.get("bench"): r for r in baseline_payload.get("results", [])
    }
    mode = baseline_payload.get("mode", "?")
    print(f"-- speedup vs committed baseline (mode={mode}) --")
    for result in results:
        previous = baseline.get(result["bench"])
        if previous is None or not previous.get("speedup"):
            print(f"  {result['bench']}: x{result['speedup']} (new scenario)")
            continue
        ratio = (
            result["speedup"] / previous["speedup"]
            if previous["speedup"]
            else float("inf")
        )
        print(
            f"  {result['bench']}: x{result['speedup']} "
            f"(baseline x{previous['speedup']}, ratio {ratio:.2f})"
        )


if __name__ == "__main__":
    sys.exit(main())
