"""One path from a Mealy machine to a verified controller, and its analysis.

:func:`build_controller` runs the paper's chain -- OSTR search,
Theorem-1 realization, ``C1``/``C2``/``lambda*`` synthesis, the Figure-4
controller -- or builds a Figure 1-3 architecture instead; every builder
checks its netlists on every (state, input) pair of the machine.
:func:`static_analysis` runs the structural verifier and the
untestability prover over a controller.  Layer functions are looked up
on their modules at each call, so wrappers installed on module
attributes (``repro.ostr.search_ostr``, ``repro.bist.build_pipeline``,
...) see every call made here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from . import bist, ostr
from .analysis import structure, untestable
from .exceptions import BistError

#: architecture name -> builder of :mod:`repro.bist` (looked up per call).
#: ``pipeline`` builds from a realization, the others from the machine.
ARCHITECTURES: Dict[str, str] = {
    "plain": "build_plain",
    "parallel": "build_parallel_self_test",
    "conventional": "build_conventional_bist",
    "doubled": "build_doubled",
    "pipeline": "build_pipeline",
}


def build_controller(
    machine,
    architecture: str = "pipeline",
    result=None,
    method: str = "auto",
    **search_options,
):
    """Synthesize ``machine`` as a verified controller of ``architecture``.

    ``"pipeline"`` builds from the realization of ``result`` (an
    :class:`~repro.ostr.OstrResult`), or of ``search_ostr(machine,
    **search_options)`` when ``result`` is None; the other architectures
    ignore both.  ``method`` selects the two-level minimiser.  Raises
    :class:`~repro.exceptions.BistError` if a netlist disagrees with the
    machine on any (state, input) pair.
    """
    if architecture not in ARCHITECTURES:
        raise BistError(
            f"unknown architecture {architecture!r}; choose from "
            f"{tuple(ARCHITECTURES)}"
        )
    builder = getattr(bist, ARCHITECTURES[architecture])
    if architecture != "pipeline":
        return builder(machine, method=method)
    if result is None:
        result = ostr.search_ostr(machine, **search_options)
    return builder(result.realization(), method=method)


@dataclass(frozen=True)
class StaticAnalysis:
    """Verifier reports of a controller's netlist blocks (by block name;
    pseudo-blocks without a netlist are skipped) and the prover's
    verdicts, index-aligned with the faults proved (by default
    ``controller.fault_universe()``)."""

    blocks: Dict[str, structure.StructureReport]
    verdicts: List[untestable.FaultVerdict]


def static_analysis(
    controller,
    observed: Optional[Iterable[str]] = None,
    faults: Optional[List] = None,
) -> StaticAnalysis:
    """Run the structural verifier on every netlist block of ``controller``
    (``observed`` overrides each block's observation points) and the
    untestability prover on ``faults`` (default: its fault universe)."""
    blocks = {
        block: structure.verify(netlist, observed)
        for block, netlist in sorted(controller.fault_blocks().items())
        if netlist is not None
    }
    return StaticAnalysis(blocks, untestable.prove_controller(controller, faults))


__all__ = ["ARCHITECTURES", "StaticAnalysis", "build_controller", "static_analysis"]
