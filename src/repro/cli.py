"""Command-line interface: ``ostr <subcommand>``.

Subcommands
-----------

* ``list``                    -- the benchmark suite with paper rows
* ``info NAME|FILE``          -- machine statistics (suite name or KISS2 file)
* ``synth NAME|FILE``         -- run the OSTR search; print solution, factor
                                 tables, and optionally the realized machine
* ``table1`` / ``table2``     -- regenerate the paper's tables
* ``arch NAME|FILE``          -- Figure 1-4 architecture comparison
* ``coverage NAME|FILE``      -- self-test stuck-at fault coverage
* ``sweep``                   -- synthesis→BIST campaigns over the corpus
                                 with a manifest ledger (see ``--list``,
                                 ``--verify``, ``--reproduce``, ``--service``)
* ``serve``                   -- the campaign service: an HTTP job queue
                                 over forked member workers
                                 (``--journal`` arms crash recovery)
* ``submit``                  -- submit one machine to a running service
                                 and stream the result back
* ``lint NAME|FILE``          -- static netlist verifier + untestability
                                 prover over a machine or corpus slice
                                 (JSON diagnostics)
* ``example``                 -- the Figure 5-8 worked example
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, Optional, Tuple

from . import experiments, suite
from .exceptions import ReproError
from .faults import COLLAPSE_MODES, PRESCREEN_MODES
from .fsm import MealyMachine, equivalence_partition, is_strongly_connected, kiss
from .ostr import conventional_bist_flipflops, search_ostr
from .pipeline import build_controller, static_analysis
from .suite.sweep import SWEEP_ARCHITECTURES


def _load_machine(spec: str) -> MealyMachine:
    if spec in suite.names():
        return suite.load(spec)
    if spec == "paper_example":
        return suite.paper_example()
    return kiss.load(spec)


def _cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for name in suite.names():
        entry = suite.entry(name)
        paper = entry.paper
        rows.append(
            (
                name,
                entry.category,
                paper.n_states,
                f"{paper.s1}x{paper.s2}",
                paper.pipeline_ff,
                paper.conventional_ff,
            )
        )
    from .reporting import format_table

    print(
        format_table(
            ("Name", "category", "|S|", "paper S1xS2", "pipe FF", "conv FF"),
            rows,
            title="Benchmark suite (stand-ins for IWLS'93; see DESIGN.md)",
            align_left=(0, 1),
        )
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    machine = _load_machine(args.machine)
    epsilon = equivalence_partition(machine)
    print(f"name:        {machine.name}")
    print(f"states:      {machine.n_states}")
    print(f"inputs:      {machine.n_inputs}")
    print(f"outputs:     {machine.n_outputs}")
    print(f"reduced:     {epsilon.is_identity()}")
    print(f"strongly connected: {is_strongly_connected(machine)}")
    print(f"conv. BIST flip-flops: {conventional_bist_flipflops(machine.n_states)}")
    if args.table:
        print()
        print(machine.transition_table())
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    machine = _load_machine(args.machine)
    kwargs = {}
    if args.node_limit is not None:
        kwargs["node_limit"] = args.node_limit
    if args.time_limit is not None:
        kwargs["time_limit"] = args.time_limit
    result = search_ostr(
        machine,
        policy=args.policy,
        basis_order=args.basis_order,
        reference=args.reference,
        **kwargs,
    )
    print(result.summary())
    solution = result.solution
    print(f"pi    = {solution.pi!r}")
    print(f"theta = {solution.theta!r}")
    realization = result.realization()
    print()
    print(realization.factor_tables())
    if args.output:
        kiss.dump(realization.machine, args.output)
        print(f"\nrealization written to {args.output}")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    names = args.names if args.names else None
    print(experiments.format_table1(experiments.run_table1(names)))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    names = args.names if args.names else None
    print(experiments.format_table2(experiments.run_table2(names)))
    return 0


def _cmd_arch(args: argparse.Namespace) -> int:
    machine = _load_machine(args.machine)
    print(experiments.format_architectures(experiments.run_architectures(machine)))
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    machine = _load_machine(args.machine)
    rows = experiments.run_coverage(
        machine,
        cycles=args.cycles,
        dropping=not args.reference,
        engine=args.engine,
        collapse=args.collapse,
        prescreen=args.prescreen,
    )
    print(experiments.format_coverage(rows))
    # The lines below describe the pipeline campaign, the last row.
    telemetry: Dict[str, Any] = rows[-1].telemetry
    stats = telemetry.get("collapse")
    if stats:
        note = (
            "verdicts expanded back to the full universe"
            if stats["mode"] == "equiv"
            else "reported universe is the kept representatives"
        )
        print(
            f"collapse (pipeline campaign): mode {stats['mode']}, "
            f"{stats['universe']} faults -> {stats['scheduled']} "
            f"scheduled ({100.0 * stats['reduction']:.1f}% fewer, "
            f"{stats['classes']} classes); {note}"
        )
    stats = telemetry.get("prescreen")
    if stats:
        note = (
            f"{stats['skipped']} skipped before simulation"
            if stats["mode"] == "static"
            else "all simulated, verdicts cross-checked"
        )
        tally = ", ".join(
            f"{count} {verdict}"
            for verdict, count in sorted(stats["by_verdict"].items())
        ) or "none proved"
        print(
            f"prescreen (pipeline campaign): mode {stats['mode']}, "
            f"{stats['proved']}/{stats['scheduled']} scheduled faults "
            f"proved untestable ({tally}); {note}"
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .suite import corpus
    from .suite.sweep import SweepConfig, reproduce_run, run_sweep, verify_run

    if args.list:
        from .reporting import format_table

        rows = [
            (family.name, family.kind, len(family), family.description)
            for family in corpus.families().values()
        ]
        print(
            format_table(
                ("family", "kind", "members", "description"),
                rows,
                title="Benchmark corpus families",
                align_left=(0, 1, 3),
            )
        )
        return 0
    if args.verify:
        outcome = verify_run(args.verify)
        for mismatch in outcome["mismatches"]:
            print(f"MISMATCH: {mismatch}")
        status = "OK" if outcome["ok"] else "FAILED"
        print(
            f"ledger {status}: {outcome['members']} corpus members, "
            f"{outcome['records']} metrics records"
        )
        return 0 if outcome["ok"] else 1
    if args.reproduce:
        if not args.out:
            print("error: --reproduce needs --out for the re-run", file=sys.stderr)
            return 2
        outcome = reproduce_run(args.reproduce, args.out)
        status = "bit-identical" if outcome["identical"] else "DIVERGED"
        print(
            f"reproduction {status}: {outcome['records']} records, "
            f"canonical {outcome['canonical_sha256'][:16]}... vs "
            f"manifest {outcome['expected_sha256'][:16]}..."
        )
        return 0 if outcome["identical"] else 1

    if not args.out:
        print("error: sweep needs --out for the artifacts", file=sys.stderr)
        return 2
    shard = _parse_shard(args.shard)
    if shard is None:
        return 2
    shard_index, shard_count = shard
    config = SweepConfig(
        families=tuple(args.families) if args.families else None,
        limit=args.limit,
        shard_index=shard_index,
        shard_count=shard_count,
        architecture=args.architecture,
        cycles=args.cycles,
        node_limit=args.node_limit,
        collapse=args.collapse,
        prescreen=args.prescreen,
        workers=args.workers,
        record_timings=not args.no_timings,
    )

    def progress(index, total, record):
        if args.quiet:
            return
        status = record["status"]
        note = ""
        if status == "ok" and "coverage" in record:
            note = f" cov={100.0 * record['coverage']['coverage']:.2f}%"
        print(f"[{index + 1}/{total}] {record['id']}: {status}{note}")

    result = run_sweep(config, args.out, progress=progress, service=args.service)
    print()
    print(experiments.format_sweep_summary(result.summary))
    print(f"artifacts: {args.out} (manifest.json, metrics.jsonl, summary.json)")
    print(f"metrics ledger: {result.canonical_sha256}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import CampaignServer

    server = CampaignServer(
        host=args.host,
        port=args.port,
        shards=args.shards,
        pool_workers=args.pool_workers,
        max_queued=args.max_queued,
        verbose=not args.quiet,
        journal_dir=args.journal,
        fsync=args.fsync,
    )
    host, port = server.address
    print(
        f"campaign service on http://{host}:{port} "
        f"({args.shards} shard(s) x {args.pool_workers} member worker(s), "
        f"queue limit {args.max_queued})",
        flush=True,
    )
    if args.journal is not None:
        recovery = server.engine.recovery
        print(
            f"journal: {args.journal} (fsync={args.fsync}); recovery: "
            f"{recovery['replayed_records']} records replayed, "
            f"{recovery['restored_done']} done / "
            f"{recovery['restored_failed']} failed / "
            f"{recovery['restored_cancelled']} cancelled restored, "
            f"{recovery['requeued']} requeued"
            + (", torn tail dropped" if recovery["torn_tail"] else ""),
            flush=True,
        )
    # SIGTERM (and a first ^C) drain gracefully: queued and running jobs
    # finish -- and reach the journal -- before the process exits.
    server.install_signal_handlers()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("draining...", flush=True)
        server.close()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json as _json

    from .service import ServiceClient

    machine = _load_machine(args.machine)
    config = {"architecture": args.architecture, "record_timings": False}
    if args.cycles is not None:
        config["cycles"] = args.cycles
    job_payload = {
        "kiss": kiss.dumps(machine),
        "name": machine.name,
        "config": config,
        "priority": args.priority,
    }
    client = ServiceClient(args.service)
    accepted = client.submit(job_payload)
    note = " (deduplicated onto an existing job)" if accepted.get("deduped") else ""
    print(f"job {accepted['job']} {accepted['state']}{note}")
    if args.no_wait:
        return 0
    for job in client.stream([accepted["job"]], timeout=args.timeout):
        if args.json:
            print(_json.dumps(job, sort_keys=True))
        elif job["state"] == "done":
            record = job["record"]
            synthesis = record["synthesis"]
            line = (
                f"{record['name']}: S1xS2 = {synthesis['s1']}x{synthesis['s2']}, "
                f"{synthesis['flipflops']} flip-flops "
                f"(conventional {synthesis['conventional_ff']})"
            )
            if "coverage" in record:
                coverage = record["coverage"]
                line += (
                    f"; coverage {100.0 * coverage['coverage']:.2f}% "
                    f"({coverage['detected']}/{coverage['total']} faults, "
                    f"{coverage['architecture']})"
                )
            print(line)
        else:
            print(f"job {job['job']} {job['state']}: {job.get('error')}")
            return 1
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .netlist import controller_to_verilog, netlist_to_blif

    controller = build_controller(_load_machine(args.machine))
    if args.format == "verilog":
        text = controller_to_verilog(controller)
    else:
        blocks = [
            netlist_to_blif(controller.c1),
            netlist_to_blif(controller.c2),
            netlist_to_blif(controller.lambda_net),
        ]
        text = "\n".join(blocks)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"{args.format} written to {args.output} "
              f"({controller.flipflops} flip-flops, "
              f"{controller.gate_inputs()} gate inputs)")
    else:
        print(text)
    return 0


def _cmd_split(args: argparse.Namespace) -> int:
    from .ostr import search_with_splitting

    machine = _load_machine(args.machine)
    baseline = search_ostr(machine)
    outcome = search_with_splitting(machine, max_splits=args.max_splits)
    print(f"baseline: {baseline.summary()}")
    print(f"split:    {outcome.summary()}")
    for step in outcome.steps:
        print(f"  split {step.state}: {step.flipflops_before} -> "
              f"{step.flipflops_after} flip-flops")
    return 0


def _cmd_scoap(args: argparse.Namespace) -> int:
    from .analysis import analyze
    from .faults import all_faults
    from .reporting import format_table

    machine = _load_machine(args.machine)
    controller = build_controller(machine)
    rows = []
    for label, network in (
        ("C1", controller.c1),
        ("C2", controller.c2),
        ("lambda", controller.lambda_net),
    ):
        report = analyze(network)
        for fault, score in report.hardest_faults(
            all_faults(network), count=args.top
        ):
            rows.append((label, fault.describe(), score))
    print(
        format_table(
            ("block", "fault", "SCOAP score"),
            rows,
            title=f"Hardest faults of {machine.name}'s pipeline blocks",
            align_left=(0, 1),
        )
    )
    return 0


def _parse_shard(text: Optional[str]) -> Optional[Tuple[int, int]]:
    """``--shard I/N`` (1-based) -> 0-based ``(index, count)``.

    No ``--shard`` means the whole corpus, ``(0, 1)``.  Invalid input
    prints an error and returns None (the command then exits 2).
    """
    if not text:
        return 0, 1
    try:
        index_text, count_text = text.split("/", 1)
        shard_1based, shard_count = int(index_text), int(count_text)
    except ValueError:
        print(f"error: --shard wants I/N, got {text!r}", file=sys.stderr)
        return None
    # Range-check the user's 1-based input here, before it is converted
    # to the library's 0-based convention -- otherwise "--shard 0/4" dies
    # deep in the corpus with the baffling internal message "invalid
    # shard -1/4".
    if shard_count < 1 or not (1 <= shard_1based <= shard_count):
        print(
            f"error: --shard {text} out of range: I/N needs "
            f"1 <= I <= N (shards are numbered 1..N)",
            file=sys.stderr,
        )
        return None
    return shard_1based - 1, shard_count


def _cmd_lint(args: argparse.Namespace) -> int:
    import json as _json

    from .analysis.untestable import verdict_tally

    if args.corpus:
        from .suite import corpus

        shard = _parse_shard(args.shard)
        if shard is None:
            return 2
        shard_index, shard_count = shard
        members = corpus.members(
            tuple(args.families) if args.families else None,
            args.limit,
            shard_index,
            shard_count,
        )
        subjects = [(member.member_id, member.build()) for member in members]
    else:
        if not args.machine:
            print(
                "error: lint needs a machine (suite name or KISS2 file) "
                "or --corpus",
                file=sys.stderr,
            )
            return 2
        subjects = [(args.machine, _load_machine(args.machine))]

    observed_override = tuple(args.observe) if args.observe is not None else None
    totals = {"error": 0, "warning": 0, "info": 0}
    proved_total = 0
    targets = []
    for name, machine in subjects:
        controller = build_controller(
            machine, args.architecture, node_limit=args.node_limit
        )
        analysis = static_analysis(controller, observed_override)
        blocks = {}
        for block, report in analysis.blocks.items():
            blocks[block] = report.to_dict()
            for severity, count in report.counts().items():
                totals[severity] += count
        verdicts = analysis.verdicts
        proved = [v.to_dict() for v in verdicts if v.is_untestable]
        proved_total += len(proved)
        targets.append(
            {
                "name": name,
                "architecture": args.architecture,
                "blocks": blocks,
                "untestable": {
                    "universe": len(verdicts),
                    "proved": len(proved),
                    "by_verdict": verdict_tally(verdicts),
                    "faults": proved,
                },
            }
        )

    failed = totals["error"] > 0 or (args.strict and totals["warning"] > 0)
    payload = {
        "targets": targets,
        "summary": {
            "targets": len(targets),
            "counts": totals,
            "proved_untestable": proved_total,
            "strict": bool(args.strict),
            "status": "fail" if failed else "ok",
        },
    }
    print(_json.dumps(payload, indent=2, sort_keys=True))
    return 1 if failed else 0


def _cmd_example(args: argparse.Namespace) -> int:
    outcome = experiments.run_paper_example()
    machine = outcome["machine"]
    print("Figure 5 state transition table:")
    print(machine.transition_table())
    print()
    pi, theta = outcome["published_pair"]
    print(f"Figure 6 partition pair: pi = {pi!r}, theta = {theta!r}")
    print(f"search found the published pair: {outcome['found_published_pair']}")
    print()
    print("Figure 7 factor tables:")
    print(outcome["realization"].factor_tables())
    pipeline = outcome["pipeline"]
    print()
    print(
        f"Figure 8 structure: R1={pipeline.w1} bit, R2={pipeline.w2} bit, "
        f"{pipeline.gate_inputs()} gate inputs, depth {pipeline.critical_path()}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ostr",
        description="Synthesis of self-testable controllers (DATE 1994 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list the benchmark suite").set_defaults(
        handler=_cmd_list
    )

    info = commands.add_parser("info", help="machine statistics")
    info.add_argument("machine", help="suite name or KISS2 file path")
    info.add_argument("--table", action="store_true", help="print the STT")
    info.set_defaults(handler=_cmd_info)

    synth = commands.add_parser("synth", help="run the OSTR search")
    synth.add_argument("machine", help="suite name or KISS2 file path")
    synth.add_argument("--policy", default="paper", choices=("paper", "extended"))
    synth.add_argument(
        "--basis-order",
        default="sorted",
        choices=("sorted", "coarse_first", "fine_first"),
    )
    synth.add_argument("--node-limit", type=int, default=None)
    synth.add_argument("--time-limit", type=float, default=None)
    synth.add_argument(
        "--reference",
        action="store_true",
        help="run the label-tuple oracle engine instead of the bitset-native "
        "default (identical solutions and search statistics, slower)",
    )
    synth.add_argument(
        "-o", "--output", default=None, help="write the realization as KISS2"
    )
    synth.set_defaults(handler=_cmd_synth)

    table1 = commands.add_parser("table1", help="regenerate Table 1")
    table1.add_argument("names", nargs="*", help="subset of benchmarks")
    table1.set_defaults(handler=_cmd_table1)

    table2 = commands.add_parser("table2", help="regenerate Table 2")
    table2.add_argument("names", nargs="*", help="subset of benchmarks")
    table2.set_defaults(handler=_cmd_table2)

    arch = commands.add_parser("arch", help="Figure 1-4 architecture comparison")
    arch.add_argument("machine", help="suite name or KISS2 file path")
    arch.set_defaults(handler=_cmd_arch)

    coverage = commands.add_parser("coverage", help="self-test fault coverage")
    coverage.add_argument("machine", help="suite name or KISS2 file path")
    coverage.add_argument("--cycles", type=int, default=None)
    coverage.add_argument(
        "--reference",
        action="store_true",
        help="serial oracle without fault dropping (identical report, slower)",
    )
    coverage.add_argument(
        "--collapse",
        choices=COLLAPSE_MODES,
        default="none",
        help="structural fault collapsing: 'equiv' schedules one "
        "representative per equivalence class and expands the verdicts "
        "back (identical report, 40-60%% fewer simulated faults); "
        "'dominance' also drops dominated classes (smaller reported "
        "universe, opt-in)",
    )
    coverage.add_argument(
        "--prescreen",
        choices=PRESCREEN_MODES,
        default="none",
        help="static untestability prescreen: 'static' skips faults the "
        "prover shows can never be detected (identical report -- they "
        "count as undetected either way -- fewer simulated faults); "
        "'validate' simulates everything and hard-fails if a campaign "
        "engine claims to detect a proved-untestable fault",
    )
    coverage.add_argument(
        "--engine",
        choices=("compiled", "interpreted"),
        default="compiled",
        help="session evaluation kernels; 'interpreted' runs the seed "
        "dict-keyed serial oracle end to end (disables fault dropping so "
        "verdicts really come from it; identical report, slower)",
    )
    coverage.set_defaults(handler=_cmd_coverage)

    sweep = commands.add_parser(
        "sweep",
        help="synthesis→BIST campaigns over the benchmark corpus "
        "(manifest ledger, shardable, reproducible)",
    )
    sweep.add_argument(
        "-o", "--out", default=None, metavar="DIR",
        help="output directory for manifest.json/metrics.jsonl/summary.json",
    )
    sweep.add_argument(
        "--families", nargs="*", default=None,
        help="corpus families to sweep (default: all; see --list)",
    )
    sweep.add_argument(
        "--limit", type=int, default=None,
        help="cap members per family (deterministic prefix)",
    )
    sweep.add_argument(
        "--shard", default=None, metavar="I/N",
        help="run shard I of N (1-based; stable member hashing)",
    )
    sweep.add_argument(
        "--architecture", choices=SWEEP_ARCHITECTURES, default="pipeline",
    )
    sweep.add_argument("--cycles", type=int, default=None)
    sweep.add_argument("--node-limit", type=int, default=200_000)
    sweep.add_argument(
        "--collapse", choices=COLLAPSE_MODES, default="equiv"
    )
    sweep.add_argument(
        "--prescreen", choices=PRESCREEN_MODES, default="none",
        help="static untestability prescreen per campaign: 'static' skips "
        "proved-untestable faults, 'validate' cross-checks the engines "
        "against the prover (the canonical ledger is identical either way)",
    )
    sweep.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="run whole members in N forked worker processes, largest "
        "first (N > 1; wall-clock only: records are written in selection "
        "order and the metrics ledger is the same at any N)",
    )
    sweep.add_argument(
        "--no-timings", action="store_true",
        help="omit wall-clock fields; metrics.jsonl becomes byte-identical "
        "across re-runs (the canonical ledger always is)",
    )
    sweep.add_argument("--quiet", action="store_true")
    sweep.add_argument(
        "--list", action="store_true", help="list corpus families and exit"
    )
    sweep.add_argument(
        "--verify", default=None, metavar="DIR",
        help="verify a finished run's corpus + metrics ledgers and exit",
    )
    sweep.add_argument(
        "--reproduce", default=None, metavar="MANIFEST",
        help="re-run a sweep from its manifest into --out and compare ledgers",
    )
    sweep.add_argument(
        "--service", default=None, metavar="URL",
        help="run the campaigns through a live campaign service "
        "(see 'serve'); artifacts are identical to the in-process path",
    )
    sweep.set_defaults(handler=_cmd_sweep)

    serve = commands.add_parser(
        "serve",
        help="run the campaign service (HTTP job queue over member workers)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8337)
    serve.add_argument(
        "--shards", type=int, default=1,
        help="executor shards; with --pool-workers N there are shards x N "
        "slots, all pulling from one queue (bounds in-flight jobs)",
    )
    serve.add_argument(
        "--pool-workers", type=int, default=2, metavar="N",
        help="forked member workers per shard, each running whole jobs "
        "(search, build and campaign) in parallel; 0 = one in-process "
        "slot per shard",
    )
    serve.add_argument(
        "--max-queued", type=int, default=64, metavar="N",
        help="admission control: refuse submissions past N queued jobs (429)",
    )
    serve.add_argument(
        "--journal", default=None, metavar="DIR",
        help="write-ahead job journal directory: every submission and "
        "result is journaled before it is visible, and a restart on the "
        "same directory restores finished results and requeues "
        "interrupted jobs",
    )
    serve.add_argument(
        "--fsync", choices=("always", "interval", "never"), default="always",
        help="journal fsync policy (default: always)",
    )
    serve.add_argument("--quiet", action="store_true")
    serve.set_defaults(handler=_cmd_serve)

    submit = commands.add_parser(
        "submit",
        help="submit one machine to a campaign service and stream the result",
    )
    submit.add_argument("machine", help="suite name or KISS2 file path")
    submit.add_argument(
        "--service", default="http://127.0.0.1:8337", metavar="URL"
    )
    submit.add_argument(
        "--architecture", choices=SWEEP_ARCHITECTURES, default="pipeline",
    )
    submit.add_argument("--cycles", type=int, default=None)
    submit.add_argument(
        "--priority", type=int, default=0,
        help="higher runs earlier within the queue",
    )
    submit.add_argument(
        "--no-wait", action="store_true",
        help="submit and return the job id without waiting for the result",
    )
    submit.add_argument(
        "--timeout", type=float, default=None,
        help="bound the wait for the result (seconds)",
    )
    submit.add_argument(
        "--json", action="store_true",
        help="print the finished job as JSON instead of a summary line",
    )
    submit.set_defaults(handler=_cmd_submit)

    commands.add_parser(
        "example", help="reproduce the Figure 5-8 worked example"
    ).set_defaults(handler=_cmd_example)

    export = commands.add_parser(
        "export", help="export the pipeline controller (Verilog/BLIF)"
    )
    export.add_argument("machine", help="suite name or KISS2 file path")
    export.add_argument("--format", choices=("verilog", "blif"), default="verilog")
    export.add_argument("-o", "--output", default=None)
    export.set_defaults(handler=_cmd_export)

    split = commands.add_parser(
        "split", help="OSTR with state splitting (the paper's future work)"
    )
    split.add_argument("machine", help="suite name or KISS2 file path")
    split.add_argument("--max-splits", type=int, default=2)
    split.set_defaults(handler=_cmd_split)

    scoap = commands.add_parser(
        "scoap", help="SCOAP testability ranking of the pipeline blocks"
    )
    scoap.add_argument("machine", help="suite name or KISS2 file path")
    scoap.add_argument("--top", type=int, default=5)
    scoap.set_defaults(handler=_cmd_scoap)

    lint = commands.add_parser(
        "lint",
        help="static netlist verifier + untestability prover (JSON "
        "diagnostics; exit 1 on error-severity findings)",
    )
    lint.add_argument(
        "machine", nargs="?", default=None,
        help="suite name or KISS2 file path (or use --corpus)",
    )
    lint.add_argument(
        "--corpus", action="store_true",
        help="lint a corpus slice instead of a single machine",
    )
    lint.add_argument(
        "--families", nargs="*", default=None,
        help="corpus families to lint (with --corpus; default: all)",
    )
    lint.add_argument(
        "--limit", type=int, default=None,
        help="cap members per family (with --corpus)",
    )
    lint.add_argument(
        "--shard", default=None, metavar="I/N",
        help="lint shard I of N (with --corpus; 1-based)",
    )
    lint.add_argument(
        "--architecture", choices=SWEEP_ARCHITECTURES, default="pipeline",
    )
    lint.add_argument("--node-limit", type=int, default=200_000)
    lint.add_argument(
        "--observe", nargs="*", default=None, metavar="NET",
        help="override the observation points for the structural verifier "
        "(applied to every block; unknown nets are error-severity SV003, "
        "an empty list is SV001)",
    )
    lint.add_argument(
        "--strict", action="store_true",
        help="treat warning-severity diagnostics as failures too",
    )
    lint.set_defaults(handler=_cmd_lint)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
