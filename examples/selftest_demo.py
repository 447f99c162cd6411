#!/usr/bin/env python3
"""Compare the four controller architectures of the paper's Figures 1-4.

Uses the ``shiftreg`` benchmark (reconstructed exactly) to show:

* flip-flop, delay and area cost of each architecture,
* the conventional BIST's blind spot: feedback-line faults that the
  self-test cannot exercise but that corrupt system operation,
* the pipeline structure detecting every combinationally detectable fault.

Run:  python examples/selftest_demo.py
"""

from repro import suite
from repro.faults import exhaustive_patterns, measure_coverage, simulate_patterns
from repro.fsm.random_machines import random_input_word
from repro.pipeline import build_controller

machine = suite.load("shiftreg")
print(f"Machine: {machine.name} "
      f"(|S|={machine.n_states}, |I|={machine.n_inputs})")

plain, conventional, doubled, pipeline = (
    build_controller(machine, architecture)
    for architecture in ("plain", "conventional", "doubled", "pipeline")
)

print()
print(f"{'architecture':24s} {'FFs':>4} {'depth':>6} {'gate inputs':>12}")
for name, controller in (
    ("plain (Fig.1)", plain),
    ("conventional BIST (Fig.2)", conventional),
    ("doubled (Fig.3)", doubled),
    ("pipeline (Fig.4)", pipeline),
):
    print(f"{name:24s} {controller.flipflops:>4} "
          f"{controller.critical_path():>6} {controller.gate_inputs():>12}")

# -- the conventional architecture's structural blind spot -------------------

print()
word = random_input_word(machine, 100, seed=23)
reference = conventional.fault_free_signatures()
print("Feedback-line faults (R -> T), conventional BIST:")
for fault in conventional.feedback_faults():
    caught = conventional.self_test_signatures(fault=("FEEDBACK", fault)) != reference
    disturbs = conventional.system_detectable_feedback_fault(fault, word)
    print(f"  {fault.describe():28s} caught by self-test: {str(caught):5s} "
          f"disturbs system mode: {disturbs}")

# -- coverage comparison -------------------------------------------------------

print()
for name, controller in (
    ("conventional BIST", conventional),
    ("doubled", doubled),
    ("pipeline", pipeline),
):
    report = measure_coverage(controller)
    print(f"{name:20s} {report.summary()}")

# The pipeline's misses are don't-care redundancies, not test escapes:
redundant = 0
for network in (pipeline.c1, pipeline.c2, pipeline.lambda_net):
    outcome = simulate_patterns(network, exhaustive_patterns(len(network.inputs)))
    redundant += outcome.total - outcome.detected
print()
print(f"pipeline: {redundant} of its faults are combinationally redundant "
      f"(undetectable by ANY pattern); every detectable fault is caught.")
