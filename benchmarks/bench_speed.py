#!/usr/bin/env python
"""End-to-end speed benchmark for the compiled performance engine.

Measures the two hot paths the engine accelerates, always verifying that
the optimised results are bit-identical to the reference paths:

* **coverage**: a full ``measure_coverage`` BIST campaign -- seed serial
  path (interpreted netlist evaluation, no dropping) versus the in-process
  engine (compiled kernels + exact fault dropping);
* **superposition**: the pipeline architecture's ``C1``/``C2`` faults
  (whose response errors perturb the in-loop compactor and the
  ``lambda*`` stream) -- the serial oracle, one complete compiled
  self-test per fault, versus the dropping engine, which screens them
  pattern-parallel and replays the survivors with one faulty machine per
  bit lane;
* **ppsfp**: exhaustive pattern-set fault simulation of the widest
  combinational block -- the serial interpreted walker (the oracle)
  versus the lane-superposed PPSFP kernel (one fault per bit lane on top
  of the pattern packing);
* **collapse**: the same full campaign with and without equivalence
  fault collapsing -- the collapsed run schedules one representative per
  structural equivalence class (typically 40-60% fewer faults) and
  expands the verdicts back, so the reports must stay field-for-field
  identical while the wall clock drops multiplicatively on top of
  dropping/superposition;
* **synthesis_table1**: the Table-1 depth-first OSTR sweep --
  ``search_ostr`` on the label-tuple reference engine versus the
  bitset-native engine (identical solutions and search statistics);
* **partition_kernel**: the raw partition algebra -- label-tuple kernel
  functions versus the relation-integer
  :class:`~repro.partitions.kernel.BitsetKernel` on a pinned workload of
  meet/join/refines/m/M over real machine structure;
* **logic_minimize**: two-level minimization -- the string-cube reference
  minimizers versus the packed integer-cube engines on a pinned corpus
  (identical covers);
* **logic_controller**: the exact minimizer on real controller logic --
  every C1/C2/λ output column of the table1 family that the sweep sends
  down the exact path, string reference versus packed engine (identical
  covers; dk16's C1 holds a 31-minterm cyclic core).

Emits a machine-readable ``BENCH JSON: {...}`` line (and writes
``benchmarks/results/bench_speed.json``) so speedups are tracked across
PRs; when a previous results file exists, a speedup-vs-baseline table is
printed so the trajectory is visible in ``scripts/verify.sh`` and CI
logs.  ``--smoke`` runs a seconds-scale subset for CI.

Usage::

    PYTHONPATH=src python benchmarks/bench_speed.py [--smoke]
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
from repro.faults.coverage import measure_coverage  # noqa: E402
from repro.faults.engine import run_campaign  # noqa: E402
from repro.faults.simulator import (  # noqa: E402
    exhaustive_patterns,
    simulate_patterns,
)
from repro.ostr.search import search_ostr  # noqa: E402
from repro.pipeline import build_controller  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

HEAVY = ("dk16", "dk512", "s1", "tbk")


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def bench_coverage(name: str, architecture: str) -> dict:
    """The interpreted oracle vs the in-process dropping campaign."""
    controller = build_controller(suite.load(name), architecture)
    reference, baseline_s = _timed(
        lambda: measure_coverage(controller, engine="interpreted")
    )
    optimized, engine_s = _timed(
        lambda: measure_coverage(controller, dropping=True)
    )
    return {
        "bench": f"coverage/{name}/{architecture}",
        "faults": reference.total,
        "coverage": round(reference.coverage, 6),
        "baseline_s": round(baseline_s, 4),
        "optimized_s": round(engine_s, 4),
        "speedup": round(baseline_s / engine_s, 2) if engine_s else float("inf"),
        "identical": optimized == reference,
    }


def bench_superposition(name: str) -> dict:
    """Pipeline C1/C2 faults: the serial oracle vs screening plus lanes.

    The baseline runs one complete compiled self-test per fault
    (``dropping=False``); the optimised run screens every fault
    pattern-parallel and replays the survivors' ``lambda*``-dependent
    session with all of them superposed into bit lanes of one multi-lane
    run.
    """
    controller = build_controller(suite.load(name))
    fallback = [bf for bf in controller.fault_universe() if bf[0] in ("C1", "C2")]
    serial, serial_s = _timed(
        lambda: run_campaign(controller, dropping=False, faults=fallback)
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
    optimised path is the lane-superposed kernel, which packs one fault
    per bit lane on top of the pattern packing so one evaluation screens
    ``lanes x patterns`` fault/pattern pairs.
    """
    network = build_controller(suite.load(name), "plain").network
    patterns = exhaustive_patterns(len(network.inputs))
    interpreted, interpreted_s = _timed(
        lambda: simulate_patterns(network, patterns, engine="interpreted")
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
        "optimized_s": round(lanes_s, 4),
        "speedup": round(interpreted_s / lanes_s, 2) if lanes_s else float("inf"),
        "identical": superposed == interpreted,
    }


def bench_collapse(name: str) -> dict:
    """Full pipeline campaign, uncollapsed vs equivalence-collapsed.

    Both runs use the full engine (dropping + superposed fallbacks); the
    A/B difference is purely the scheduled universe -- all faults versus
    one representative per equivalence class with verdicts expanded back.
    ``identical`` asserts the field-for-field report equality the
    collapse layer guarantees.
    """
    controller = build_controller(suite.load(name))
    baseline, baseline_s = _timed(lambda: run_campaign(controller, dropping=True))
    collapsed, collapsed_s = _timed(
        lambda: run_campaign(controller, dropping=True, collapse="equiv")
    )
    stats = collapsed.telemetry["collapse"]
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
    """Raw partition algebra: label-tuple kernel vs the relation kernel.

    The workload is real machine structure, not noise: the machine's
    m-basis elements and their pairwise joins, i.e. exactly the partitions
    the OSTR search churns through -- and it repeats, because that is the
    search's access pattern and what the kernel's per-SuccTable ``m``/``M``
    memo caches exist for (the label kernel recomputes every call).  The
    relation pass pays the label boundary on every operation (operands in
    through ``from_labels``, results out through ``to_labels``), as the
    ``Partition`` and pair helpers do.  Every relation result is checked
    against the label result, and the two passes' digests must agree.
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

    def relation_pass():
        kern = kernel.BitsetKernel(succ)  # fresh caches: no warm-start head start
        to_labels = kern.to_labels
        out = 0
        for _ in range(repeats):
            for a, b in pairs:
                ra, rb = kern.from_labels(a), kern.from_labels(b)
                out ^= hash(to_labels(kern.join(ra, rb)))
                out ^= hash(to_labels(kern.meet(ra, rb)))
                out ^= hash(kern.refines(ra, rb))
                out ^= hash(to_labels(kern.m(ra)))
                out ^= hash(to_labels(kern.big_m(rb)))
        return out

    kern = kernel.BitsetKernel(succ)
    relations = [(kern.from_labels(a), kern.from_labels(b)) for a, b in pairs]
    identical = all(
        kern.to_labels(kern.join(ra, rb)) == kernel.join(a, b)
        and kern.to_labels(kern.meet(ra, rb)) == kernel.meet(a, b)
        and kern.refines(ra, rb) == kernel.refines(a, b)
        and kern.to_labels(kern.m(ra)) == kernel.m_operator(succ, a)
        and kern.to_labels(kern.big_m(rb)) == kernel.big_m_operator(succ, b)
        for (a, b), (ra, rb) in zip(pairs, relations)
    )
    label_digest, label_s = _timed(label_pass)
    relation_digest, relation_s = _timed(relation_pass)
    return {
        "bench": f"partition_kernel/{name}",
        "operations": len(pairs) * 5 * repeats,
        "baseline_s": round(label_s, 4),
        "optimized_s": round(relation_s, 4),
        "speedup": round(label_s / relation_s, 2) if relation_s else float("inf"),
        "identical": identical and label_digest == relation_digest,
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
    """Two-level minimization of the table1 family's controller tables.

    Each member goes through the sweep's own synthesis path (OSTR search
    under the ``SweepConfig`` budget, Figure-4 encoding); every C1, C2
    and λ output column is replayed through the string reference and the
    packed engine: columns within ``exact_limit`` inputs through the
    exact minimizers, wider ones (s1's and dk16's λ) through the
    heuristic ones -- the split the sweep itself makes.  ``identical``
    demands equal covers on both paths.
    """
    from repro.encoding import encode_realization
    from repro.logic import (
        minimize_exact,
        minimize_exact_reference,
        minimize_heuristic,
        minimize_heuristic_reference,
    )
    from repro.suite import corpus
    from repro.suite.sweep import SweepConfig

    exact_limit = 10  # synthesize_table's default: the sweep's exact path
    config = SweepConfig()
    exact_columns, heuristic_columns = [], []
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
            columns = (
                heuristic_columns
                if table.n_inputs > exact_limit
                else exact_columns
            )
            for on, dc in table.output_columns():
                if on:
                    columns.append((on, dc, table.n_inputs))

    def replay(exact, heuristic):
        return [exact(*column) for column in exact_columns] + [
            heuristic(*column) for column in heuristic_columns
        ]

    reference_covers, reference_s = _timed(
        lambda: replay(minimize_exact_reference, minimize_heuristic_reference)
    )
    packed_covers, packed_s = _timed(
        lambda: replay(minimize_exact, minimize_heuristic)
    )
    return {
        "bench": f"logic_controller/{len(names)}-machines",
        "machines": len(names),
        "columns": len(exact_columns) + len(heuristic_columns),
        "heuristic_columns": len(heuristic_columns),
        "baseline_s": round(reference_s, 4),
        "optimized_s": round(packed_s, 4),
        "speedup": (
            round(reference_s / packed_s, 2) if packed_s else float("inf")
        ),
        "identical": reference_covers == packed_covers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="seconds-scale subset for CI"
    )
    parser.add_argument("--no-json-file", action="store_true")
    args = parser.parse_args(argv)

    if args.smoke:
        coverage_cases = [("dk27", "conventional"), ("dk27", "pipeline")]
        sweep_names = [n for n in suite.names() if n not in HEAVY]
        ppsfp_name = "dk16"  # widest block outside the heavy OSTR cases
        collapse_name = "dk27"
        kernel_case = dict(name="dk512", repeats=5)
        logic_case = dict(n_functions=12, max_inputs=7)
        # dk16's λ is the narrowest heuristic-path table (12 inputs).
        controller_names = sweep_names + ["dk16"]
    else:
        coverage_cases = [
            ("dk27", "conventional"),
            ("bbtas", "pipeline"),
            ("dk14", "pipeline"),
        ]
        sweep_names = list(suite.names())
        ppsfp_name = "s1"  # the suite's widest combinational block
        collapse_name = "dk14"
        kernel_case = dict(name="dk16", repeats=5)
        logic_case = dict(n_functions=40, max_inputs=8)
        controller_names = sweep_names

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
        outcome = bench_coverage(name, architecture)
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
        f"(x{ppsfp['speedup']} vs oracle, identical={ppsfp['identical']})"
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
    controller_bench = bench_logic_controller(controller_names)
    results.append(controller_bench)
    print(
        f"{controller_bench['bench']}: {controller_bench['columns']} columns "
        f"({controller_bench['heuristic_columns']} heuristic), "
        f"{controller_bench['baseline_s']:.2f}s -> "
        f"{controller_bench['optimized_s']:.2f}s "
        f"(x{controller_bench['speedup']}, "
        f"identical={controller_bench['identical']})"
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
