"""OSTR: Optimal Self-Testable Realization (the paper's core contribution).

High-level entry point::

    from repro.ostr import search_ostr

    result = search_ostr(machine)
    realization = result.realization()       # verified Theorem-1 object
    print(realization.factor_tables())        # Figure-7 style tables

"""

from .problem import (
    OstrSolution,
    balance,
    conventional_bist_flipflops,
    doubling_flipflops,
    pipeline_flipflops,
    register_bits,
    trivial_solution,
)
from .theorem1 import (
    PipelineRealization,
    realize,
    supports_self_testable_structure,
)
from .search import OstrResult, SearchStats, search_ostr
from .exhaustive import all_symmetric_pairs, count_symmetric_pairs, exhaustive_ostr
from .splitting import (
    SplitSearchResult,
    SplitStep,
    incoming_transitions,
    search_with_splitting,
    split_state,
)


__all__ = [
    "OstrSolution",
    "OstrResult",
    "SearchStats",
    "PipelineRealization",
    "register_bits",
    "pipeline_flipflops",
    "balance",
    "conventional_bist_flipflops",
    "doubling_flipflops",
    "trivial_solution",
    "realize",
    "supports_self_testable_structure",
    "search_ostr",
    "exhaustive_ostr",
    "all_symmetric_pairs",
    "count_symmetric_pairs",
    "split_state",
    "incoming_transitions",
    "search_with_splitting",
    "SplitStep",
    "SplitSearchResult",
]
