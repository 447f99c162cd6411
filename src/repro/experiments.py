"""Reproduction experiment runners (Tables 1-2, Figures 1-8, claims).

Each function regenerates one artifact of the paper's evaluation and
returns structured results; the benchmark harness and the CLI are thin
wrappers around this module.  EXPERIMENTS.md records paper-vs-measured for
every artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import faults, ostr, suite
from .exceptions import ReproError
from .fsm import MealyMachine
from .ostr import OstrResult, conventional_bist_flipflops
from .pipeline import build_controller
from .reporting import flag, format_percent, format_table


def _suite_searches(
    names: Optional[Sequence[str]], search_overrides: Optional[Dict]
) -> Iterator[Tuple[str, OstrResult]]:
    """One OSTR search per suite machine, with its registry search options
    (updated by ``search_overrides``), in ``names`` order (default: all)."""
    for name in names if names is not None else suite.names():
        kwargs = {**suite.entry(name).search_kwargs, **(search_overrides or {})}
        yield name, ostr.search_ostr(suite.load(name), **kwargs)


# ---------------------------------------------------------------------------
# Table 1: OSTR results on the benchmark suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table1Row:
    """One measured row of Table 1 next to the published row."""

    name: str
    n_states: int
    s1: int
    s2: int
    conventional_ff: int
    pipeline_ff: int
    exact: bool
    investigated: int
    basis_size: int
    elapsed_seconds: float
    paper: suite.PaperRow

    @property
    def matches_paper(self) -> bool:
        """Same factor sizes (unordered) and flip-flop counts as published."""
        return (
            {self.s1, self.s2} == {self.paper.s1, self.paper.s2}
            and self.pipeline_ff == self.paper.pipeline_ff
            and self.conventional_ff == self.paper.conventional_ff
        )


def run_table1(
    names: Optional[Sequence[str]] = None,
    search_overrides: Optional[Dict] = None,
) -> List[Table1Row]:
    """Regenerate Table 1 (one OSTR search per benchmark)."""
    return [
        table1_row(name, result)
        for name, result in _suite_searches(names, search_overrides)
    ]


def table1_row(name: str, result: OstrResult) -> Table1Row:
    """The Table-1 row of suite machine ``name`` from its search result.

    The measured factor sizes take the published row's order when they
    agree with it as a set, else the larger first.
    """
    paper = suite.entry(name).paper
    k1, k2 = result.solution.k1, result.solution.k2
    if {k1, k2} == {paper.s1, paper.s2}:
        s1, s2 = paper.s1, paper.s2
    else:
        s1, s2 = max(k1, k2), min(k1, k2)
    n_states = result.machine.n_states
    return Table1Row(
        name=name,
        n_states=n_states,
        s1=s1,
        s2=s2,
        conventional_ff=conventional_bist_flipflops(n_states),
        pipeline_ff=result.solution.flipflops,
        exact=result.exact,
        investigated=result.stats.investigated,
        basis_size=result.stats.basis_size,
        elapsed_seconds=result.stats.elapsed_seconds,
        paper=paper,
    )


def format_table1(rows: Sequence[Table1Row]) -> str:
    """Render measured Table 1 side by side with the published values."""
    body = [
        (
            row.name + flag(not row.exact),
            row.n_states,
            row.s1,
            row.s2,
            row.conventional_ff,
            row.pipeline_ff,
            f"{row.paper.s1}/{row.paper.s2}/{row.paper.pipeline_ff}"
            + flag(row.paper.timeout),
            "yes" if row.matches_paper else "NO",
        )
        for row in rows
    ]
    return format_table(
        ("Name", "|S|", "|S1|", "|S2|", "conv.BIST", "pipeline", "paper", "match"),
        body,
        title="Table 1: OSTR results (measured vs. published; * = node/time limit)",
    )


# ---------------------------------------------------------------------------
# Table 2: impact of Lemma 1 (pruning)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table2Row:
    name: str
    n_states: int
    basis_size: int
    tree_size: int  # |V| = 2^basis
    investigated: int
    pruned_subtrees: int
    exact: bool


def run_table2(
    names: Optional[Sequence[str]] = None,
    search_overrides: Optional[Dict] = None,
) -> List[Table2Row]:
    """Regenerate Table 2: total tree size vs nodes investigated."""
    return [
        Table2Row(
            name=name,
            n_states=result.machine.n_states,
            basis_size=result.stats.basis_size,
            tree_size=result.stats.tree_size,
            investigated=result.stats.investigated,
            pruned_subtrees=result.stats.pruned_subtrees,
            exact=result.exact,
        )
        for name, result in _suite_searches(names, search_overrides)
    ]


def format_table2(rows: Sequence[Table2Row]) -> str:
    body = [
        (
            row.name + flag(not row.exact),
            row.n_states,
            f"2^{row.basis_size}",
            row.investigated,
            row.pruned_subtrees,
        )
        for row in rows
    ]
    return format_table(
        ("Name", "|S|", "|V|", "# investigated", "# pruned subtrees"),
        body,
        title="Table 2: impact of Lemma 1 on the search effort",
    )


# ---------------------------------------------------------------------------
# Figures 1-4: architecture comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArchitectureRow:
    machine: str
    architecture: str
    figure: str
    flipflops: int
    critical_path: int
    gate_inputs: int
    self_testable: bool
    transparent_register: bool


#: (architecture, label, figure, self-testable, transparent register)
_FIGURES = (
    ("plain", "plain", "Fig.1", False, False),
    ("conventional", "conventional BIST", "Fig.2", True, True),
    ("doubled", "doubled", "Fig.3", True, False),
    ("pipeline", "pipeline (paper)", "Fig.4", True, False),
)


def run_architectures(machine: MealyMachine, method: str = "auto") -> List[ArchitectureRow]:
    """Build all four Figure architectures for one machine."""
    rows = []
    for architecture, label, figure, self_testable, transparent in _FIGURES:
        controller = build_controller(machine, architecture, method=method)
        rows.append(
            ArchitectureRow(
                machine.name, label, figure, controller.flipflops,
                controller.critical_path(), controller.gate_inputs(),
                self_testable, transparent,
            )
        )
    return rows


def format_architectures(rows: Sequence[ArchitectureRow]) -> str:
    body = [
        (
            row.machine,
            f"{row.architecture} ({row.figure})",
            row.flipflops,
            row.critical_path,
            row.gate_inputs,
            "yes" if row.self_testable else "no",
            "yes" if row.transparent_register else "no",
        )
        for row in rows
    ]
    return format_table(
        ("Machine", "Architecture", "FFs", "crit.path", "gate inputs",
         "self-test", "transparent reg"),
        body,
        title="Figures 1-4: architecture comparison",
        align_left=(0, 1),
    )


# ---------------------------------------------------------------------------
# Fault-coverage claims (Section 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageRow:
    machine: str
    architecture: str
    total: int
    detected: int
    coverage: float
    structurally_missed: int  # faults the self-test cannot exercise at all
    detectable_coverage: float  # vs combinationally detectable faults
    #: the campaign's CoverageReport.telemetry (not part of equality)
    telemetry: Dict[str, object] = field(
        default_factory=dict, compare=False, repr=False
    )


#: (architecture, label) of the coverage table's rows, in order.
_COVERAGE_ROWS = (
    ("parallel", "parallel self-test (Fig.1)"),
    ("conventional", "conventional BIST (Fig.2)"),
    ("doubled", "doubled (Fig.3)"),
    ("pipeline", "pipeline (Fig.4)"),
)


def run_coverage(
    machine: MealyMachine,
    method: str = "auto",
    **campaign,
) -> List[CoverageRow]:
    """Measure self-test stuck-at coverage of Figures 1-4 on one machine.

    ``campaign`` options go to every :func:`repro.faults.measure_coverage`
    call.
    """
    rows = []
    for architecture, label in _COVERAGE_ROWS:
        controller = build_controller(machine, architecture, method=method)
        report = faults.measure_coverage(controller, **campaign)
        redundant = _redundant_fault_count(controller)
        detectable = report.total - redundant
        structurally_missed = (
            len(controller.feedback_faults())
            if hasattr(controller, "feedback_faults")
            else 0
        )
        rows.append(
            CoverageRow(
                machine=machine.name,
                architecture=label,
                total=report.total,
                detected=report.detected,
                coverage=report.coverage,
                structurally_missed=structurally_missed,
                detectable_coverage=(
                    report.detected / detectable if detectable else 1.0
                ),
                telemetry=report.telemetry,
            )
        )
    return rows


def _redundant_fault_count(controller) -> int:
    """Faults no input pattern can detect (combinational redundancy)."""
    redundant = 0
    for network in controller.fault_blocks().values():
        if network is None:
            continue
        patterns = faults.exhaustive_patterns(len(network.inputs))
        outcome = faults.simulate_patterns(network, patterns)
        redundant += outcome.total - outcome.detected
    return redundant


def format_coverage(rows: Sequence[CoverageRow]) -> str:
    body = [
        (
            row.machine,
            row.architecture,
            row.total,
            row.detected,
            format_percent(row.coverage),
            format_percent(row.detectable_coverage),
            row.structurally_missed,
        )
        for row in rows
    ]
    return format_table(
        ("Machine", "Architecture", "faults", "detected", "coverage",
         "of detectable", "structurally missed"),
        body,
        title="Self-test stuck-at fault coverage (Section 1 claims)",
        align_left=(0, 1),
    )


# ---------------------------------------------------------------------------
# Figure 5-8 worked example
# ---------------------------------------------------------------------------


def run_paper_example() -> Dict[str, object]:
    """Reproduce the running example end to end (Figures 5-8)."""
    machine = suite.paper_example()
    pi, theta = suite.paper_example_pair()
    result = ostr.search_ostr(machine)
    pipeline = build_controller(machine, result=result)
    return {
        "machine": machine,
        "published_pair": (pi, theta),
        "search_result": result,
        "realization": pipeline.realization,
        "pipeline": pipeline,
        "found_published_pair": {result.solution.pi, result.solution.theta}
        == {pi, theta},
    }


# ---------------------------------------------------------------------------
# Corpus sweeps (beyond the paper: population-scale validation)
# ---------------------------------------------------------------------------


def run_sweep(config=None, out_dir=None, service=None, **kwargs):
    """Run a corpus sweep (see :mod:`repro.suite.sweep`).

    Thin wrapper so the experiment surface stays one module: either pass a
    ready :class:`~repro.suite.sweep.SweepConfig` or keyword fields for
    one.  ``out_dir`` is required; ``service`` routes the campaigns
    through a running campaign service URL (:mod:`repro.service`).
    Returns the :class:`~repro.suite.sweep.SweepResult`.
    """
    from .suite.sweep import SweepConfig, run_sweep as _run

    if out_dir is None:
        raise ReproError("run_sweep needs an out_dir for the artifacts")
    if config is None:
        config = SweepConfig(**kwargs)
    elif kwargs:
        raise ReproError("pass either a SweepConfig or keyword fields, not both")
    return _run(config, out_dir, service=service)


def format_sweep_summary(summary: Dict[str, object]) -> str:
    """Human-readable digest of a sweep's ``summary.json`` payload."""
    lines = [
        f"machines: {summary['machines']} "
        f"({summary['ok']} ok, {summary['errors']} errors)",
    ]
    shard = summary.get("shard")
    if shard and shard.get("count", 1) > 1:
        lines.append(f"shard:    {shard['index'] + 1} of {shard['count']}")
    for record in summary.get("error_ids", []):
        lines.append(f"  error: {record}")
    synthesis = summary.get("synthesis")
    if synthesis:
        lines.append(
            f"synthesis: {synthesis['exact']} exact, "
            f"{synthesis['inexact']} inexact, "
            f"{synthesis['nontrivial']} nontrivial factorizations"
        )
    coverage = summary.get("coverage")
    if coverage:
        lines.append(
            f"coverage: mean {100.0 * coverage['mean_coverage']:.2f}%, "
            f"min {100.0 * coverage['min_coverage']:.2f}% "
            f"({coverage['min_coverage_id']}); "
            f"{coverage['total_detected']}/{coverage['total_faults']} faults"
        )
    collapse = summary.get("collapse")
    if collapse:
        lines.append(
            f"collapse: mean reduction "
            f"{100.0 * collapse['mean_reduction']:.1f}%"
        )
    if "elapsed_s" in summary:
        lines.append(f"elapsed:  {summary['elapsed_s']:.2f}s")
    return "\n".join(lines)
