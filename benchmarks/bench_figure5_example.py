"""Figures 5-8: the paper's worked example, reproduced exactly.

* Figure 5: the state transition table (OCR-corrected, see DESIGN.md);
* Figure 6: the symmetric partition pair pi = {{1,2},{3,4}},
  theta = {{1,4},{2,3}} -- asserted to be exactly what the search finds;
* Figure 7: the factor tables delta1/delta2 -- asserted cell by cell;
* Figure 8: the 2-flip-flop pipeline structure -- synthesized to gates and
  self-tested.
"""

from __future__ import annotations

from _bench_util import register_artifact
from repro import experiments
from repro.faults import measure_coverage


def test_figure5_to_8(benchmark):
    outcome = benchmark.pedantic(
        experiments.run_paper_example, iterations=1, rounds=3
    )
    machine = outcome["machine"]
    realization = outcome["realization"]
    pipeline = outcome["pipeline"]

    # Figure 6: the search reproduces the published pair exactly.
    assert outcome["found_published_pair"]

    # Figure 7: both factor tables, cell by cell.
    assert realization.delta1[("{1,2}", "1")] == "{2,3}"
    assert realization.delta1[("{1,2}", "0")] == "{1,4}"
    assert realization.delta1[("{3,4}", "1")] == "{1,4}"
    assert realization.delta1[("{3,4}", "0")] == "{2,3}"
    assert realization.delta2[("{1,4}", "1")] == "{3,4}"
    assert realization.delta2[("{1,4}", "0")] == "{1,2}"
    assert realization.delta2[("{2,3}", "1")] == "{1,2}"
    assert realization.delta2[("{2,3}", "0")] == "{3,4}"

    # Figure 8: one flip-flop per register.
    assert pipeline.w1 == pipeline.w2 == 1

    coverage = measure_coverage(pipeline)
    lines = [
        "Figure 5 state transition table:",
        machine.transition_table(),
        "",
        "Figure 6 symmetric partition pair:",
        f"  pi    = {outcome['search_result'].solution.pi!r}",
        f"  theta = {outcome['search_result'].solution.theta!r}",
        "",
        "Figure 7 factor tables:",
        realization.factor_tables(),
        "",
        "Figure 8 pipeline structure:",
        f"  R1 = {pipeline.w1} FF, R2 = {pipeline.w2} FF "
        f"(total {pipeline.flipflops}; conventional BIST would use 4)",
        f"  C1 depth {pipeline.c1.critical_path()}, "
        f"C2 depth {pipeline.c2.critical_path()}, "
        f"lambda depth {pipeline.lambda_net.critical_path()}",
        f"  self-test stuck-at coverage: {100 * coverage.coverage:.1f}%",
    ]
    register_artifact("Figures 5-8 (worked example)", "\n".join(lines))
