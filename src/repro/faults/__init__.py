"""Single-stuck-at fault model, collapsing, simulation, and BIST coverage."""

from .stuck_at import all_faults, branch_faults, stem_faults
from .collapse import (
    COLLAPSE_MODES,
    FaultMap,
    dominated_classes,
    equivalence_classes,
)
from .simulator import (
    CombinationalCoverage,
    detects,
    exhaustive_patterns,
    pack_patterns,
    simulate_patterns,
)
from .coverage import (
    FAULT_UNTESTABLE,
    PRESCREEN_MODES,
    CoverageReport,
    measure_coverage,
)
from .engine import LinearCompactor, run_campaign
from .chaos import ChaosEvent, ChaosPlan, random_plan

__all__ = [
    "ChaosEvent",
    "ChaosPlan",
    "random_plan",
    "COLLAPSE_MODES",
    "FaultMap",
    "LinearCompactor",
    "run_campaign",
    "stem_faults",
    "branch_faults",
    "all_faults",
    "equivalence_classes",
    "dominated_classes",
    "pack_patterns",
    "detects",
    "simulate_patterns",
    "exhaustive_patterns",
    "CombinationalCoverage",
    "CoverageReport",
    "measure_coverage",
    "FAULT_UNTESTABLE",
    "PRESCREEN_MODES",
]
