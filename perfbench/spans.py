"""In-memory spans around the program's layer functions, and their summaries.

The traced run patches public functions at the places the sweep looks
them up (module attributes and class methods) with wrappers that record a
span per call and, for some layers, counts taken from the return value.
Spans stay in memory; :meth:`Tracer.dump` writes them once at the end.
Nothing the wrappers do reaches a return value, so a traced sweep's
ledger must equal the untraced one -- the benchmark checks that.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: the span around ``run_sweep``; its self time is sweep overhead.
SWEEP = "suite.sweep"
#: the span around ``sweep_member``; it sets the member id of its subtree.
MEMBER = "suite.member"


class Tracer:
    """Collects spans (name, start, end, parent, member id, thread) and counts."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, member: Optional[str] = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if member is None and parent is not None:
            member = self.spans[parent]["member"]
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent,
            "member": member,
            "thread": threading.get_ident(),
        }
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def dump(self, path: str, origin: float, summary: Dict[str, object]) -> None:
        """Write every span (times relative to ``origin``), the counts and
        ``summary`` as one JSON file."""
        spans = [
            {
                **span,
                "start": round(span["start"] - origin, 6),
                "end": round(span["end"] - origin, 6),
            }
            for span in self.spans
            if span["end"] is not None
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"summary": summary, "counts": dict(self.counts), "spans": spans},
                handle,
            )


def self_times(spans: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Per-name self time: each span's duration minus its children's."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    totals: Dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        totals[span["name"]] += span["end"] - span["start"] - child_time[index]
    return dict(totals)


def inclusive_times(spans: Sequence[Dict[str, object]]) -> Dict[str, float]:
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["name"]] += span["end"] - span["start"]
    return dict(totals)


def layer_breakdown(
    spans: Sequence[Dict[str, object]], sweep_s: float
) -> Tuple[Dict[str, float], List[Tuple[str, float]], float]:
    """Layer self times, the top three layers, and the unattributed rest.

    Layers are every span name except the sweep and member spans; the
    unattributed remainder is ``sweep_s`` minus all layer self time.
    """
    layers = {
        name: value
        for name, value in self_times(spans).items()
        if name not in (SWEEP, MEMBER)
    }
    top = sorted(layers.items(), key=lambda item: (-item[1], item[0]))[:3]
    return layers, top, sweep_s - sum(layers.values())


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value, n)``: the ``k``-th smallest of ``n``
    samples with ``k = n - 10``, i.e. the ``100 k / n``-th percentile.
    ``None`` when fewer than eleven samples exist.
    """
    ordered = sorted(samples)
    rank = len(ordered) - 10
    if rank < 1:
        return None
    return 100.0 * rank / len(ordered), ordered[rank - 1], len(ordered)


# -- wrappers -----------------------------------------------------------------


def _wrap(tracer: Tracer, name: str, fn: Callable, after=None, member_of=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        member = member_of(*args) if member_of is not None else None
        with tracer.span(name, member):
            result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, result)
        return result

    return traced


def _after_search(tracer: Tracer, result) -> None:
    tracer.count("ostr.searches")
    tracer.count("ostr.exact", 1 if result.exact else 0)
    tracer.count("ostr.investigated", result.stats.investigated)


def _after_table(tracer: Tracer, cover) -> None:
    tracer.count("logic.tables")
    tracer.count("logic.cover_rows", cover.n_rows)


def _after_compile(tracer: Tracer, _result) -> None:
    tracer.count("netlist.compiles")


def _after_campaign(tracer: Tracer, report) -> None:
    from repro.faults.engine import campaign_telemetry

    tracer.count("faults.universe", report.total)
    tracer.count("faults.detected", report.detected)
    collapse = campaign_telemetry()["collapse"] or {}
    tracer.count("faults.scheduled", collapse.get("scheduled", report.total))


def _after_prove(tracer: Tracer, verdicts) -> None:
    tracer.count("analysis.proved", sum(1 for v in verdicts if v.is_untestable))


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced layer function; returns a function that unwraps."""
    import repro.analysis.structure as structure
    import repro.analysis.untestable as untestable
    import repro.bist as bist
    import repro.bist.architectures as architectures
    import repro.faults as faults
    import repro.ostr as ostr
    import repro.service.jobs as jobs
    import repro.suite.sweep as sweep
    from repro.netlist.compiled import CompiledNetlist
    from repro.ostr.search import OstrResult
    from repro.suite.corpus import CorpusMember

    def member_id(member, *_rest):
        return member.member_id

    patches = [
        (CorpusMember, "build", "fsm.build", None, member_id),
        (ostr, "search_ostr", "ostr.search", _after_search, None),
        (OstrResult, "realization", "ostr.realize", None, None),
        (architectures, "encode_realization", "encoding.encode", None, None),
        (architectures, "synthesize_table", "logic.minimise", _after_table, None),
        (architectures, "cover_to_netlist", "netlist.build", None, None),
        (CompiledNetlist, "__init__", "netlist.compile", _after_compile, None),
        (bist, "build_pipeline", "bist.build", None, None),
        (architectures.PipelineController, "system_trace", "bist.verify", None, None),
        (faults, "measure_coverage", "faults.campaign", _after_campaign, None),
        (structure, "verify", "analysis.structure", None, None),
        (untestable, "prove_controller", "analysis.prove", _after_prove, None),
        (sweep, "sweep_member", MEMBER, None, member_id),
        (jobs, "sweep_member", MEMBER, None, member_id),
    ]
    originals = []
    for owner, attr, name, after, member_of in patches:
        original = owner.__dict__[attr]
        originals.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, name, original, after, member_of))

    def restore() -> None:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return restore
