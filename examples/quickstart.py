#!/usr/bin/env python3
"""Quickstart: synthesize a self-testable controller from an FSM spec.

Walks the paper's running example (Figure 5) through the complete flow:

1. specify a Mealy machine,
2. solve OSTR (find the optimal symmetric partition pair),
3. build the verified Theorem-1 realization (Figures 6-7),
4. synthesize the Figure-8 pipeline hardware (encoding, two-level logic,
   gate-level netlists), checked against the specification on every
   (state, input) pair,
5. run the built-in self-test and measure stuck-at fault coverage.

Run:  python examples/quickstart.py
"""

from repro import MealyMachine
from repro.faults import measure_coverage
from repro.ostr import conventional_bist_flipflops, search_ostr
from repro.pipeline import build_controller

# -- 1. the specification (Figure 5 of the paper) ---------------------------

controller = MealyMachine(
    "quickstart",
    states=("1", "2", "3", "4"),
    inputs=("1", "0"),
    outputs=("1", "0"),
    transitions={
        ("1", "1"): ("3", "1"),
        ("1", "0"): ("1", "1"),
        ("2", "1"): ("2", "0"),
        ("2", "0"): ("4", "0"),
        ("3", "1"): ("1", "1"),
        ("3", "0"): ("3", "0"),
        ("4", "1"): ("4", "0"),
        ("4", "0"): ("2", "1"),
    },
)
print("Specification:")
print(controller.transition_table())

# -- 2. solve OSTR -----------------------------------------------------------

result = search_ostr(controller)
print()
print(f"OSTR solution: {result.summary()}")
print(f"  pi    = {result.solution.pi!r}")
print(f"  theta = {result.solution.theta!r}")

# -- 3. the verified realization (Theorem 1) ---------------------------------

realization = result.realization()
print()
print("Factor machines (Figure 7):")
print(realization.factor_tables())

# -- 4. hardware synthesis (Figure 8) -----------------------------------------

pipeline = build_controller(controller, result=result)
print()
print("Pipeline structure:")
print(f"  R1: {pipeline.w1} flip-flop(s), R2: {pipeline.w2} flip-flop(s)")
print(f"  total flip-flops: {pipeline.flipflops} "
      f"(a conventional BIST needs {conventional_bist_flipflops(controller.n_states)})")
print(f"  logic depth: {pipeline.critical_path()} levels, "
      f"{pipeline.gate_inputs()} gate inputs")

# -- 5. built-in self-test -----------------------------------------------------

signatures = pipeline.self_test_signatures()
print()
print(f"Self-test signatures (2 sessions + lambda session): {signatures}")
report = measure_coverage(pipeline)
print(f"Stuck-at fault coverage: {report.detected}/{report.total} "
      f"({100 * report.coverage:.1f}%)")
