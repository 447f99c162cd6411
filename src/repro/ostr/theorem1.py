"""The constructive core of the paper: Theorem 1.

Given a machine ``M = (S, I, O, delta, lambda)`` and a symmetric partition
pair ``(pi, theta)`` with ``pi ∩ theta ⊆ epsilon``, Theorem 1 constructs

* ``S* = S/pi x S/theta``, ``I* = I``, ``O* = O``,
* ``delta*((b1, b2), i) = (delta2(b2, i), delta1(b1, i))`` where
  ``delta1([s]pi, i)   = [delta(s, i)]theta`` and
  ``delta2([s]theta, i) = [delta(s, i)]pi``,
* ``lambda*((b1, b2), i) = lambda(s, i)`` for any ``s in b1 ∩ b2`` if the
  intersection is non-empty, else an arbitrary output ``o*``,

and proves that ``M*`` supports a self-testable structure and realizes ``M``
through ``alpha(s) = ([s]pi, [s]theta)``, ``iota = id``, ``zeta = id``.

This module builds that realization as an explicit
:class:`PipelineRealization` object holding the factor functions (the
Figure-7 tables), the full product machine, and the Definition-3 witness --
and verifies all of it eagerly, so a constructed object is always sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from ..exceptions import RealizationError
from ..fsm import MealyMachine, RealizationWitness, check_realization
from ..fsm.equivalence import equivalence_labels
from ..partitions import Partition
from ..partitions import kernel
from .problem import OstrSolution, pipeline_flipflops, register_bits

FactorTable = Mapping[Tuple[str, object], str]


def _block_name(block: Tuple) -> str:
    """Readable block names in the paper's style: ``{1,2}``."""
    return "{" + ",".join(str(x) for x in block) + "}"


@dataclass(frozen=True)
class PipelineRealization:
    """A verified self-testable realization ``M*`` of a specification.

    Attributes mirror the objects of Theorem 1 and Figure 4:

    * ``s1_blocks`` / ``s2_blocks``: the factor state sets ``S1 = S/pi`` and
      ``S2 = S/theta`` (as named blocks);
    * ``delta1``: ``S1 x I -> S2`` -- implemented by combinational block C1;
    * ``delta2``: ``S2 x I -> S1`` -- implemented by combinational block C2;
    * ``machine``: the full product machine ``M*`` over ``S1 x S2``;
    * ``witness``: the Definition-3 triple ``(alpha, iota, zeta)``;
    * ``fallback_output``: the arbitrary ``o*`` used for product states
      outside the image of ``alpha``.
    """

    spec: MealyMachine
    solution: OstrSolution
    s1_blocks: Tuple[str, ...]
    s2_blocks: Tuple[str, ...]
    delta1: Dict[Tuple[str, object], str]
    delta2: Dict[Tuple[str, object], str]
    machine: MealyMachine
    witness: RealizationWitness
    fallback_output: object

    @property
    def pi(self) -> Partition:
        return self.solution.pi

    @property
    def theta(self) -> Partition:
        return self.solution.theta

    @property
    def flipflops(self) -> int:
        """Register bits of the pipeline structure (R1 + R2)."""
        return pipeline_flipflops(len(self.s1_blocks), len(self.s2_blocks))

    @property
    def register_widths(self) -> Tuple[int, int]:
        """Bits of R1 and R2 individually."""
        return (register_bits(len(self.s1_blocks)), register_bits(len(self.s2_blocks)))

    def alpha(self, state) -> Tuple[str, str]:
        """The state embedding ``alpha(s) = ([s]pi, [s]theta)``."""
        return self.witness.alpha[state]

    def factor_tables(self) -> str:
        """Pretty-print the Figure-7 style tables for ``delta1`` and ``delta2``."""
        lines = ["delta1: S1 x I -> S2"]
        lines.extend(self._table_lines(self.delta1, self.s1_blocks))
        lines.append("")
        lines.append("delta2: S2 x I -> S1")
        lines.extend(self._table_lines(self.delta2, self.s2_blocks))
        return "\n".join(lines)

    def _table_lines(self, table, rows):
        header = [""] + [str(i) for i in self.spec.inputs]
        body = []
        for row in rows:
            body.append([row] + [str(table[(row, i)]) for i in self.spec.inputs])
        widths = [
            max(len(line[c]) for line in [header] + body) for c in range(len(header))
        ]
        return [
            "  ".join(cell.rjust(width) for cell, width in zip(line, widths))
            for line in [header] + body
        ]


def realize(
    spec: MealyMachine,
    pi: Partition,
    theta: Partition,
    fallback_output=None,
    name: str = None,
) -> PipelineRealization:
    """Apply Theorem 1 to ``(spec, pi, theta)`` and verify the result.

    Raises :class:`RealizationError` when the hypotheses fail:
    ``(pi, theta)`` must be a symmetric partition pair and ``pi ∩ theta``
    must refine the state equivalence ``epsilon``.

    ``fallback_output`` is the arbitrary value ``o*`` of Theorem 1 used on
    product states outside ``alpha(S)``; it defaults to the first output
    symbol of the specification.
    """
    if pi.universe != spec.states or theta.universe != spec.states:
        raise RealizationError("partition universes must equal the machine states")
    succ = spec.succ_table
    # Hypothesis checks run on relation integers of the machine's shared
    # kernel, the one the search that produced (pi, theta) ran on.
    kern = kernel.bitset_kernel(succ)
    r_pi, r_theta = kern.from_labels(pi.labels), kern.from_labels(theta.labels)
    if not kern.is_pair(r_pi, r_theta):
        raise RealizationError("(pi, theta) is not a partition pair")
    if not kern.is_pair(r_theta, r_pi):
        raise RealizationError("(pi, theta) is not symmetric ((theta, pi) fails)")
    epsilon = kern.from_labels(equivalence_labels(spec))
    if not kern.meet_refines(r_pi, r_theta, epsilon):
        raise RealizationError(
            "pi ∩ theta does not refine the state equivalence epsilon; "
            "lambda* would be ill-defined"
        )
    if fallback_output is None:
        fallback_output = spec.outputs[0]
    else:
        spec.output_index(fallback_output)  # validate

    pi_blocks = pi.blocks()
    theta_blocks = theta.blocks()
    s1_names = tuple(_block_name(block) for block in pi_blocks)
    s2_names = tuple(_block_name(block) for block in theta_blocks)

    # Factor functions (Figure 7).  Well-definedness is guaranteed by the
    # partition-pair checks above; we compute from block representatives.
    delta1: Dict[Tuple[str, object], str] = {}
    for b1, block in enumerate(pi_blocks):
        representative = block[0]
        for symbol in spec.inputs:
            target = spec.delta(representative, symbol)
            delta1[(s1_names[b1], symbol)] = s2_names[theta.block_index(target)]
    delta2: Dict[Tuple[str, object], str] = {}
    for b2, block in enumerate(theta_blocks):
        representative = block[0]
        for symbol in spec.inputs:
            target = spec.delta(representative, symbol)
            delta2[(s2_names[b2], symbol)] = s1_names[pi.block_index(target)]

    # lambda*: defined through any witness state in b1 ∩ b2.
    intersection_witness: Dict[Tuple[str, str], object] = {}
    for state in spec.states:
        key = (
            s1_names[pi.block_index(state)],
            s2_names[theta.block_index(state)],
        )
        intersection_witness.setdefault(key, state)

    product_states = [(n1, n2) for n1 in s1_names for n2 in s2_names]
    transitions = {}
    for n1, n2 in product_states:
        for symbol in spec.inputs:
            next_state = (delta2[(n2, symbol)], delta1[(n1, symbol)])
            witness_state = intersection_witness.get((n1, n2))
            if witness_state is not None:
                output = spec.lam(witness_state, symbol)
            else:
                output = fallback_output
            transitions[((n1, n2), symbol)] = (next_state, output)

    alpha = {
        state: (
            s1_names[pi.block_index(state)],
            s2_names[theta.block_index(state)],
        )
        for state in spec.states
    }
    machine = MealyMachine(
        name if name is not None else f"{spec.name}*",
        product_states,
        spec.inputs,
        spec.outputs,
        transitions,
        reset_state=alpha[spec.reset_state],
    )
    witness = RealizationWitness(
        alpha=alpha,
        iota={symbol: symbol for symbol in spec.inputs},
        zeta={output: output for output in spec.outputs},
    )
    # Eager verification: a PipelineRealization object is sound by
    # construction, but we check Definition 3 exhaustively anyway so that
    # any future change to this constructor cannot silently break it.
    check_realization(spec, machine, witness)

    return PipelineRealization(
        spec=spec,
        solution=OstrSolution(pi=pi, theta=theta),
        s1_blocks=s1_names,
        s2_blocks=s2_names,
        delta1=delta1,
        delta2=delta2,
        machine=machine,
        witness=witness,
        fallback_output=fallback_output,
    )


def supports_self_testable_structure(
    machine: MealyMachine, s1_size: int, s2_size: int, state_splitter=None
) -> bool:
    """Definition 2 check for an explicitly product-structured machine.

    ``machine`` must have tuple states ``(s1, s2)``; the function verifies
    ``delta((s1,s2), i) = (delta2(s2,i), delta1(s1,i))`` for consistent
    single-argument functions ``delta1``/``delta2``.  ``state_splitter`` can
    override how a state decomposes into its two coordinates.
    """
    splitter = state_splitter if state_splitter is not None else lambda s: s
    delta1: Dict[Tuple[object, object], object] = {}
    delta2: Dict[Tuple[object, object], object] = {}
    for state in machine.states:
        parts = splitter(state)
        if not isinstance(parts, tuple) or len(parts) != 2:
            return False
        s1, s2 = parts
        for symbol in machine.inputs:
            target1, target2 = splitter(machine.delta(state, symbol))
            if delta2.setdefault((s2, symbol), target1) != target1:
                return False
            if delta1.setdefault((s1, symbol), target2) != target2:
                return False
    if len({splitter(s)[0] for s in machine.states}) != s1_size:
        return False
    if len({splitter(s)[1] for s in machine.states}) != s2_size:
        return False
    return True
