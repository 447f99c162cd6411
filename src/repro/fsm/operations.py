"""Structural operations on Mealy machines: quotient, product, isomorphism.

The quotient construction is the bridge between the partition algebra and
machine synthesis: given a partition with the substitution property the
quotient machine is well defined on states, and given an output-consistent
partition it is well defined on outputs too.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from ..exceptions import FsmError
from ..partitions import Partition
from ..partitions.kernel import is_pair
from .machine import MealyMachine, Symbol


def quotient(
    machine: MealyMachine, partition: Partition, name: Optional[str] = None
) -> MealyMachine:
    """The quotient machine ``M / p`` for a substitution-property partition.

    Requires ``(p, p)`` to be a partition pair (so the next-state function
    is well defined on blocks) and all states of a block to have identical
    output rows (so the output function is well defined).  Raises
    :class:`FsmError` otherwise.
    """
    if partition.universe != machine.states:
        raise FsmError("partition universe does not match machine states")
    labels = partition.labels
    succ = machine.succ_table
    out = machine.out_table
    if not is_pair(succ, labels, labels):
        raise FsmError(
            "partition does not have the substitution property; quotient "
            "next-state function would be ill-defined"
        )
    representative: Dict[int, int] = {}
    for s in range(machine.n_states):
        block = labels[s]
        if block not in representative:
            representative[block] = s
        elif out[s] != out[representative[block]]:
            raise FsmError(
                "states in one block have different output rows; quotient "
                "output function would be ill-defined"
            )

    n_blocks = partition.num_blocks
    block_states = tuple(
        "{" + ",".join(str(x) for x in block) + "}" for block in partition.blocks()
    )
    new_succ: List[List[int]] = []
    new_out: List[List[int]] = []
    for block in range(n_blocks):
        s = representative[block]
        new_succ.append([labels[t] for t in succ[s]])
        new_out.append(list(out[s]))
    return MealyMachine.from_tables(
        name if name is not None else f"{machine.name}/quotient",
        block_states,
        machine.inputs,
        machine.outputs,
        new_succ,
        new_out,
        reset_state=block_states[labels[machine.state_index(machine.reset_state)]],
    )


def product(
    machine_a: MealyMachine, machine_b: MealyMachine, name: Optional[str] = None
) -> MealyMachine:
    """Synchronous product over a shared input alphabet.

    Output symbols are pairs of the component outputs.  Used by analysis
    tools (e.g. distinguishing-sequence search) and tests.
    """
    if machine_a.inputs != machine_b.inputs:
        raise FsmError("product requires identical input alphabets")
    states = [(sa, sb) for sa in machine_a.states for sb in machine_b.states]
    outputs = sorted(
        {(oa, ob) for oa in machine_a.outputs for ob in machine_b.outputs},
        key=str,
    )
    transitions = {}
    for sa, sb in states:
        for symbol in machine_a.inputs:
            next_a, out_a = machine_a.step(sa, symbol)
            next_b, out_b = machine_b.step(sb, symbol)
            transitions[((sa, sb), symbol)] = ((next_a, next_b), (out_a, out_b))
    return MealyMachine(
        name if name is not None else f"{machine_a.name}x{machine_b.name}",
        states,
        machine_a.inputs,
        outputs,
        transitions,
        reset_state=(machine_a.reset_state, machine_b.reset_state),
    )


def relabel_states(machine: MealyMachine, mapping: Dict[Symbol, Symbol]) -> MealyMachine:
    """Rename states through a bijective mapping."""
    new_states = []
    for state in machine.states:
        if state not in mapping:
            raise FsmError(f"mapping misses state {state!r}")
        new_states.append(mapping[state])
    if len(set(new_states)) != len(new_states):
        raise FsmError("state relabelling is not injective")
    return MealyMachine.from_tables(
        machine.name,
        new_states,
        machine.inputs,
        machine.outputs,
        machine.succ_table,
        machine.out_table,
        reset_state=mapping[machine.reset_state],
    )


def find_isomorphism(
    machine_a: MealyMachine, machine_b: MealyMachine
) -> Optional[Dict[Symbol, Symbol]]:
    """A state bijection making the machines identical, or ``None``.

    Requires equal input/output alphabets (same order).  Works by anchored
    propagation from each candidate image of the first state over the
    *connected* part, then brute-force matching of any remaining states; it
    is intended for the small machines of this domain.
    """
    if (
        machine_a.n_states != machine_b.n_states
        or machine_a.inputs != machine_b.inputs
        or machine_a.outputs != machine_b.outputs
    ):
        return None

    n = machine_a.n_states
    succ_a, out_a = machine_a.succ_table, machine_a.out_table
    succ_b, out_b = machine_b.succ_table, machine_b.out_table

    def try_anchor(anchor: int) -> Optional[Dict[int, int]]:
        mapping = {0: anchor}
        used = {anchor}
        stack = [0]
        while stack:
            a = stack.pop()
            b = mapping[a]
            if out_a[a] != out_b[b]:
                return None
            for i in range(machine_a.n_inputs):
                ta, tb = succ_a[a][i], succ_b[b][i]
                if ta in mapping:
                    if mapping[ta] != tb:
                        return None
                else:
                    if tb in used:
                        return None
                    mapping[ta] = tb
                    used.add(tb)
                    stack.append(ta)
        if len(mapping) == n:
            return mapping
        # Disconnected remainder: recurse over the unmapped sub-machines.
        remainder_a = sorted(set(range(n)) - set(mapping))
        remainder_b = sorted(set(range(n)) - used)
        return _match_remainder(
            remainder_a, remainder_b, mapping, used, succ_a, out_a, succ_b, out_b,
            machine_a.n_inputs,
        )

    for anchor in range(n):
        mapping = try_anchor(anchor)
        if mapping is not None:
            return {
                machine_a.states[a]: machine_b.states[b] for a, b in mapping.items()
            }
    return None


def _match_remainder(
    remainder_a: Sequence[int],
    remainder_b: Sequence[int],
    mapping: Dict[int, int],
    used: Set[int],
    succ_a: Sequence[Sequence[int]],
    out_a: Sequence[Sequence[Symbol]],
    succ_b: Sequence[Sequence[int]],
    out_b: Sequence[Sequence[Symbol]],
    n_inputs: int,
) -> Optional[Dict[int, int]]:
    """Backtracking completion of a partial isomorphism (small machines)."""
    if not remainder_a:
        return dict(mapping)
    a = remainder_a[0]
    for b in remainder_b:
        if b in used:
            continue
        trial = dict(mapping)
        trial_used = set(used)
        trial[a] = b
        trial_used.add(b)
        stack = [a]
        consistent = True
        while stack and consistent:
            x = stack.pop()
            y = trial[x]
            if out_a[x] != out_b[y]:
                consistent = False
                break
            for i in range(n_inputs):
                tx, ty = succ_a[x][i], succ_b[y][i]
                if tx in trial:
                    if trial[tx] != ty:
                        consistent = False
                        break
                else:
                    if ty in trial_used:
                        consistent = False
                        break
                    trial[tx] = ty
                    trial_used.add(ty)
                    stack.append(tx)
        if not consistent:
            continue
        result = _match_remainder(
            [x for x in remainder_a if x not in trial],
            [y for y in remainder_b if y not in trial_used],
            trial,
            trial_used,
            succ_a,
            out_a,
            succ_b,
            out_b,
            n_inputs,
        )
        if result is not None:
            return result
    return None


def is_isomorphic(machine_a: MealyMachine, machine_b: MealyMachine) -> bool:
    """Do the machines differ only by state names?"""
    return find_isomorphism(machine_a, machine_b) is not None
