"""repro: synthesis of self-testable controllers.

A production-quality reproduction of

    S. Hellebrand, H.-J. Wunderlich,
    "Synthesis of Self-Testable Controllers", DATE 1994.

The library synthesizes pipeline-structured, built-in self-testable
controller implementations from Mealy finite state machine specifications
via symmetric partition pairs (problem OSTR), and provides the full
substrate needed to evaluate them: state encoding, two-level logic
minimization, gate-level netlists, LFSR/MISR/BILBO registers, stuck-at
fault simulation, and the Table-1 benchmark suite.

Quickstart::

    from repro import suite
    from repro.ostr import search_ostr
    from repro.pipeline import build_controller

    machine = suite.load("shiftreg")
    result = search_ostr(machine)
    print(result.summary())                # |S1|=4, |S2|=2, flipflops=3
    realization = result.realization()     # verified Theorem-1 object
    print(realization.factor_tables())
    controller = build_controller(machine, result=result)  # Figure 4, checked
"""

from . import analysis
from . import bist
from . import encoding
from . import exceptions
from . import faults
from . import fsm
from . import logic
from . import netlist
from . import partitions
from . import ostr
from . import pipeline
from . import suite
from .fsm import MealyMachine
from .ostr import OstrResult, OstrSolution, PipelineRealization
from .partitions import Partition

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "exceptions",
    "fsm",
    "partitions",
    "ostr",
    "pipeline",
    "suite",
    "MealyMachine",
    "Partition",
    "OstrResult",
    "OstrSolution",
    "PipelineRealization",
    "__version__",
]
