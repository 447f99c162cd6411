"""The paper's depth-first OSTR search (Section 3) with Lemma-1 pruning.

The search tree's nodes are subsets ``N`` of the deduplicated basis
``M-basis = { m(rho_{s,t}) | s,t in S }``; an edge adds one basis element of
larger index, so the tree enumerates each subset exactly once and has
``|V| = 2^|M-basis|`` nodes.  For each node the relation
``pi = (union N)^t`` (the lattice join) is formed and up to two candidate
solutions are evaluated:

* the *M-side* ``(M(pi), pi)`` -- usable when the Mm-pair is symmetric
  (equivalently ``m(pi) ⊆ M(pi)``) and ``M(pi) ∩ pi ⊆ epsilon``;
* otherwise the *m-side* ``(m(pi), pi)`` -- which by Theorem 2 has the
  minimal intersection of its family -- when ``m(pi) ∩ pi ⊆ epsilon``.

**Lemma 1** prunes: ``m(pi) ∩ pi ⊄ epsilon`` is inherited by every superset
node, so the whole subtree can be discarded.

Two faithful-but-safe engineering additions, both switchable for the
accounting ablations:

* ``skip_redundant``: a child whose basis element is already below the
  current join contributes nothing new; its subtree is a duplicate of
  sibling subtrees and is skipped (node counts report how many).
* memoisation of node evaluations keyed by the join (different subsets can
  produce the same relation).

Two engines traverse the same tree.  The default runs on relation
integers: a partition of ``n`` states is its equivalence relation as one
``n*n``-bit integer, row ``x`` holding the block of ``x`` (the kernel's
relation form).  One partition has one integer, so the integer is the
node's cache key, and ``R(a) & R(b)`` is ``R(meet(a, b))``, so every
Lemma-1 test ``meet(a, pi) ⊄ epsilon`` is exactly one AND chain,
``R(a) & R(pi) & ~R(epsilon) != 0``.  ``m`` is maintained
*incrementally* along DFS edges through the join-homomorphism ``m(pi v
rho) = m(pi) v m(rho)`` (m is the smallest half of a pair algebra, hence
a complete join-morphism), and most nodes are pruned by join-free
sufficient tests before ``m(pi)`` is even joined.  ``M`` is only computed
on symmetric nodes that survive the Lemma-1 test: if ``m(pi) ∩ pi ⊄
epsilon`` no candidate can exist at the node, because ``M(pi) ∩ pi ⊆
epsilon`` together with ``m(pi) ⊆ M(pi)`` would force the m-side
condition.  Only survivors go back to blocks, and by the Galois
connection ``pair(a, b) <=> a ⊆ M(b)`` a survivor is symmetric iff
``pair(m(pi), pi)``, a scan with no ``M`` at all; on the corpus machines
only a handful of survivors per search pass it (details in
``_run_bitset``).
A node's subtree depends only on its join and its ``next_index``, and
different subsets reach the same join, so the engine also *replays*
finished subtrees: when an expanded node's subtree is done, a post-order
marker records what it added to ``investigated``, ``pruned_subtrees``,
``skipped_redundant`` and ``candidates_evaluated``; a later node with the
same join and ``next_index`` adds those counts instead of walking the
subtree again, as long as the node limit would not cut inside it
(otherwise it is walked, so the limit cuts at exactly the same node).
``unique_joins`` is unchanged, because every join of a finished subtree
is already in the evaluation cache, and so is ``improvements``: every
candidate of the subtree was already compared, the incumbent only ever
improves, and :func:`~repro.ostr.problem.better` is a strict ``<``.
``reference=True`` runs the seed's label-tuple interpreters operator by
operator instead; both produce identical solutions and identical search
statistics (asserted by the equivalence tests and the Table-1
golden-stats file), only the wall clock differs.

An optional ``policy="extended"`` additionally coarsens the m-side first
factor greedily towards ``M(pi)`` while the intersection condition holds;
the paper's procedure does not do this, and the ablation benchmark uses the
flag to probe the paper's exactness claim.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..exceptions import SearchError
from ..fsm import MealyMachine
from ..fsm.equivalence import equivalence_labels
from ..partitions import Partition
from ..partitions import kernel
from ..partitions.mm import m_basis_labels
from .problem import OstrSolution, better, trivial_solution
from .theorem1 import PipelineRealization, realize

Labels = Tuple[int, ...]


@dataclass
class SearchStats:
    """Search-effort accounting (the substance of Table 2)."""

    basis_size: int = 0
    tree_size: int = 0
    investigated: int = 0
    pruned_subtrees: int = 0
    skipped_redundant: int = 0
    unique_joins: int = 0
    candidates_evaluated: int = 0
    improvements: int = 0
    elapsed_seconds: float = 0.0
    timed_out: bool = False
    node_limit_hit: bool = False

    @property
    def exact(self) -> bool:
        """Did the search cover the whole (pruned) tree?"""
        return not (self.timed_out or self.node_limit_hit)


@dataclass
class OstrResult:
    """Outcome of an OSTR search on one machine."""

    machine: MealyMachine
    solution: OstrSolution
    stats: SearchStats
    policy: str

    @property
    def exact(self) -> bool:
        return self.stats.exact

    def realization(self, name: str = None) -> PipelineRealization:
        """Instantiate (and verify) the Theorem-1 realization of the solution."""
        return realize(
            self.machine, self.solution.pi, self.solution.theta, name=name
        )

    def summary(self) -> str:
        sol = self.solution
        flag = "" if self.exact else " *"
        return (
            f"{self.machine.name}: |S|={self.machine.n_states} -> "
            f"|S1|={sol.k1}, |S2|={sol.k2}, flipflops={sol.flipflops}{flag} "
            f"(investigated {self.stats.investigated} of 2^"
            f"{self.stats.basis_size} nodes)"
        )


BASIS_ORDERS = ("sorted", "coarse_first", "fine_first")
_POLICIES = ("paper", "extended")


def search_ostr(
    machine: MealyMachine,
    prune: bool = True,
    skip_redundant: bool = True,
    node_limit: Optional[int] = None,
    time_limit: Optional[float] = None,
    policy: str = "paper",
    basis_order: str = "sorted",
    reference: bool = False,
) -> OstrResult:
    """Solve OSTR for ``machine`` with the paper's depth-first procedure.

    Always returns a valid solution: the trivial doubling solution is the
    incumbent before the search starts, exactly as the paper observes that
    ``(identity, identity)`` always solves OSTR.  When ``node_limit`` or
    ``time_limit`` stop the search early, the best solution so far is
    returned and flagged (``result.exact == False``) -- this mirrors the
    ``tbk``/timeout row of Table 1.

    The default engine runs on relation integers (see the module
    docstring): each partition is one ``n*n``-bit integer from
    :func:`~repro.partitions.kernel.bitset_kernel`, each Lemma-1 test one
    AND chain, ``m`` carried incrementally along DFS edges, ``M`` only on
    unpruned symmetric nodes, and memo caches keyed by the relation
    integer for node evaluations and by node id for the ``join(pi,
    basis[i])`` DFS edges.
    Pass ``reference=True`` for the seed's label-tuple operator-by-operator
    oracle; solutions and every search statistic are identical across the
    engines, only the wall clock differs.
    """
    if policy not in _POLICIES:
        raise SearchError(f"unknown policy {policy!r}; choose from {_POLICIES}")
    if basis_order not in BASIS_ORDERS:
        raise SearchError(
            f"unknown basis order {basis_order!r}; choose from {BASIS_ORDERS}"
        )
    if node_limit is not None and node_limit < 1:
        raise SearchError("node_limit must be positive")

    succ = machine.succ_table
    states = machine.states
    epsilon = equivalence_labels(machine)
    basis = m_basis_labels(succ)
    if basis_order == "coarse_first":
        basis.sort(key=kernel.num_blocks)
    elif basis_order == "fine_first":
        basis.sort(key=kernel.num_blocks, reverse=True)
    n_basis = len(basis)

    stats = SearchStats(basis_size=n_basis, tree_size=2 ** n_basis)
    best = trivial_solution(states)

    start_time = time.perf_counter()
    deadline = None if time_limit is None else start_time + time_limit
    if reference:
        best = _run_reference(
            machine, succ, states, epsilon, basis, stats, best,
            prune, skip_redundant, node_limit, deadline, policy,
        )
    else:
        best = _run_bitset(
            machine, succ, states, epsilon, basis, stats, best,
            prune, skip_redundant, node_limit, deadline, policy,
        )
    stats.elapsed_seconds = time.perf_counter() - start_time
    return OstrResult(machine=machine, solution=best, stats=stats, policy=policy)


def _run_reference(
    machine, succ, states, epsilon, basis, stats, best,
    prune, skip_redundant, node_limit, deadline, policy,
):
    """The seed's label-tuple DFS, kept verbatim as the equivalence oracle."""
    n = machine.n_states
    n_basis = len(basis)
    refines = kernel.refines
    m_of = lambda labels: kernel.m_operator(succ, labels)  # noqa: E731
    big_m_of = lambda labels: kernel.big_m_operator(succ, labels)  # noqa: E731
    meet_refines = lambda a, b, eps: kernel.refines(  # noqa: E731
        kernel.meet(a, b), eps
    )
    join_of = kernel.join

    # Memo table: joins repeat across subsets, and m/M are pure in the join.
    evaluation_cache: Dict[Labels, Tuple[List[Tuple[Labels, Labels]], bool]] = {}

    def evaluate(labels: Labels) -> Tuple[List[Tuple[Labels, Labels]], bool]:
        """Candidates at this join and whether Lemma 1 prunes the subtree."""
        cached = evaluation_cache.get(labels)
        if cached is not None:
            return cached
        mu = m_of(labels)
        big = big_m_of(labels)
        m_side_ok = meet_refines(mu, labels, epsilon)
        prunable = not m_side_ok
        candidates: List[Tuple[Labels, Labels]] = []
        if refines(mu, big):  # symmetry of the Mm-pair
            if meet_refines(big, labels, epsilon):
                candidates.append((big, labels))
            elif m_side_ok:
                candidates.append((mu, labels))
            if m_side_ok and policy == "extended":
                candidates.extend(
                    _extended_candidates(succ, mu, big, labels, epsilon)
                )
        outcome = (candidates, prunable)
        evaluation_cache[labels] = outcome
        return outcome

    root = kernel.identity(n)
    stack: List[Tuple[Labels, int]] = [(root, 0)]

    while stack:
        if node_limit is not None and stats.investigated >= node_limit:
            stats.node_limit_hit = True
            break
        if deadline is not None and stats.investigated % 128 == 0:
            if time.perf_counter() > deadline:
                stats.timed_out = True
                break
        labels, next_index = stack.pop()
        stats.investigated += 1

        candidates, prunable = evaluate(labels)
        for pi_labels, theta_labels in candidates:
            stats.candidates_evaluated += 1
            candidate = OstrSolution(
                pi=Partition(states, pi_labels),
                theta=Partition(states, theta_labels),
            )
            if better(candidate, best):
                best = candidate
                stats.improvements += 1

        if prune and prunable:
            stats.pruned_subtrees += 1
            continue

        for child_index in range(n_basis - 1, next_index - 1, -1):
            child = join_of(labels, basis[child_index])
            if skip_redundant and child == labels:
                stats.skipped_redundant += 1
                continue
            stack.append((child, child_index + 1))

    stats.unique_joins = len(evaluation_cache)
    return best


def _run_bitset(
    machine, succ, states, epsilon, basis, stats, best,
    prune, skip_redundant, node_limit, deadline, policy,
):
    """The relation-integer DFS: the production engine.

    Same tree, same statistics as :func:`_run_reference`.  Every partition
    is its equivalence relation as one ``n*n``-bit integer, row ``x``
    holding the block of ``x`` (see the kernel's relation form): the root
    is the diagonal, the integer is the evaluation-cache key, and
    ``R(a) & R(b)`` is ``R(meet(a, b))``, so each "``meet(a, pi) ⊄
    epsilon``" test is exactly ``R(a) & R(pi) & ~R(epsilon) != 0``.  Five
    structural savings:

    * ``m(pi)`` is carried down DFS edges as ``join(m(parent),
      m(basis[i]))`` -- m is a join-morphism, so no node recomputes the
      full successor-image closure;
    * on an evaluation-cache miss Lemma 1 is first decided *without*
      that join.  With ``pi = parent v b`` for the edge's basis element
      ``b``, two join-free sufficient conditions for pruning are tried:

      (a) ``m(b) ∩ b ⊄ epsilon`` -- one flag per basis element, computed
          once per search;
      (b, c) ``(m(b) ∪ m(parent)) ∩ pi ⊄ epsilon`` -- one AND chain over
          the precomputed ``R(m(b)) & ~R(epsilon)`` and the parent's
          ``R(m(parent)) & ~R(epsilon)``.

      Each implies the exact test ``m(pi) ∩ pi ⊄ epsilon``: ``m(pi) =
      m(parent) v m(b)`` lies above ``m(parent)`` and ``m(b)``, ``pi``
      lies above ``b``, meet is monotone and "⊄ epsilon" is upward
      closed.  So every prune decision and every counter is the one the
      exact test gives.  Only when neither fires is ``m(pi)`` joined and
      the exact test run.  A pre-tested entry stores no ``m`` (a pruned
      node is never expanded); with ``prune=False`` every node computes
      ``m(pi)``, because its children extend it;
    * ``M(pi)`` is only computed on symmetric nodes that pass the
      Lemma-1 test (``m(pi) ∩ pi ⊆ epsilon``).  For a failing node
      ``meet(M(pi), pi) ⊆ epsilon`` would imply the m-side condition via
      ``m(pi) ⊆ M(pi)``, so no candidate exists and the subtree is pruned
      without touching ``M`` -- on the Table-1 machines ~99% of
      investigated nodes prune.  Only survivors go back to blocks: a
      survivor is tested for symmetry as ``is_pair(m(pi), pi)``
      (equivalent to ``m(pi) ⊆ M(pi)`` by the Galois connection) against
      ``pi``'s owner array, and only the rare symmetric ones (1 of dk16's 3,286
      survivors, 2 of tbk's 178) build ``M(pi)`` for the M-side test;
    * DFS edges, and the incremental ``m`` join, take the basis element
      (or its ``m`` image) as element lists precomputed once per search
      and resolve them through the parent's owner array (``pi``'s, or
      ``m(pi)``'s, built once per expanded node): a block whose union is
      ``owner[e0]`` already lies in one block, and each merged block
      ``B`` is ORed in as ``B * spread(B)``.  A fully redundant edge
      (``basis[i] <= pi``) returns the parent integer itself, so the
      ``skip_redundant`` test is an identity check instead of a compare.
    """
    kern = kernel.bitset_kernel(succ)
    n_basis = len(basis)
    relation = kern.relation
    owners = kern.owners
    join = kern.join_relation
    basis_masks = [kern.from_labels(b) for b in basis]
    basis_m_masks = [kern.m(masks) for masks in basis_masks]
    # The basis and its m images as element lists (the DFS-edge join
    # constraints) and, for the Lemma-1 pre-tests, the pairs of each m
    # image that leave epsilon.
    basis_el = [kern.element_blocks(kern.nontrivial(m)) for m in basis_masks]
    basis_m_el = [kern.element_blocks(kern.nontrivial(m)) for m in basis_m_masks]
    not_eps = ~relation(kern.from_labels(epsilon))
    basis_m_out = [relation(m) & not_eps for m in basis_m_masks]
    # Pre-test (a): every node reached over edge i prunes.
    via_prunes = [
        bool(out & relation(b)) for out, b in zip(basis_m_out, basis_masks)
    ]
    from_sparse = kern.from_sparse
    to_labels = kern.to_labels
    is_pair_owner = kern.is_pair_owner
    extended = policy == "extended"

    # Memo tables: node evaluations are keyed by the relation integer;
    # each entry carries the node's m relation (so expansion gets it for
    # free on cache hits; None where a Lemma-1 pre-test pruned) and a
    # dense node id, which keys the join(pi, basis[i]) DFS-edge memo as a
    # single small int.
    evaluation_cache: Dict[int, Tuple[list, bool, Optional[int], int, int]] = {}
    join_cache: Dict[int, int] = {}
    eval_get = evaluation_cache.get
    join_get = join_cache.get

    # Finished subtrees: (node id, next_index) -> what the subtree added to
    # (investigated, pruned_subtrees, skipped_redundant,
    # candidates_evaluated).  Written by the post-order marker an expanded
    # node leaves under its children; see the module docstring.
    replay: Dict[int, Tuple[int, int, int, int]] = {}
    replay_get = replay.get
    replay_stride = n_basis + 1

    investigated = 0
    candidates_evaluated = 0
    improvements = 0
    pruned_subtrees = 0
    skipped_redundant = 0
    ticks = 0  # loop iterations, for the deadline (replays jump investigated)
    limit = float("inf") if node_limit is None else node_limit

    # A stack item is (pi, parent, via_index, next_index), where parent is
    # (m(parent), its owner array, its pairs outside epsilon), built once per
    # expanded node; the root has none.
    stack: List[tuple] = [(kern.diagonal, None, 0, 0)]
    push = stack.append
    pop = stack.pop

    while stack:
        item = pop()
        r = item[0]
        if r is None:  # post-order marker: the subtree below is done
            _, key, inv0, pruned0, skipped0, cand0 = item
            replay[key] = (
                investigated - inv0,
                pruned_subtrees - pruned0,
                skipped_redundant - skipped0,
                candidates_evaluated - cand0,
            )
            continue
        if investigated >= limit:
            stats.node_limit_hit = True
            break
        if deadline is not None:
            ticks += 1
            if not ticks & 127 and time.perf_counter() > deadline:
                stats.timed_out = True
                break
        _, parent, via_index, next_index = item

        entry = eval_get(r)
        if entry is not None:
            done = replay_get(entry[3] * replay_stride + next_index)
            if done is not None and investigated + done[0] <= limit:
                # A finished subtree, walked again node for node, adds the
                # same counts and finds no improvement (see the docstring).
                investigated += done[0]
                pruned_subtrees += done[1]
                skipped_redundant += done[2]
                candidates_evaluated += done[3]
                continue
        investigated += 1
        if entry is None:
            if parent is None:  # root: m(identity) computed outright
                mu = relation(kern.m(kern.identity_masks))
            elif prune and (
                via_prunes[via_index]
                or (basis_m_out[via_index] | parent[2]) & r
            ):
                mu = None  # Lemma 1 decided without m(pi), see the docstring
            else:  # incremental: m(pi v basis[i]) == m(pi) v m(basis[i])
                mu = join(parent[0], parent[1], basis_m_el[via_index])
            if mu is None or mu & r & not_eps:
                # No candidate can exist here (see the docstring): prune
                # without computing M at all.
                entry = ((), True, mu, len(evaluation_cache), r)
            else:
                candidates: List[Tuple[Labels, Labels]] = []
                # Symmetry of the Mm-pair, m(pi) <= M(pi), is pair(m(pi), pi)
                # by the Galois connection; M(pi) is only built when it holds.
                mu_blocks = {row for row in owners(mu) if row & (row - 1)}
                owner = owners(r)
                if is_pair_owner(mu_blocks, owner):
                    full = from_sparse({row for row in owner if row & (row - 1)})
                    big = kern.big_m(full)
                    labels = to_labels(full)
                    mu_labels = to_labels(from_sparse(mu_blocks))
                    if not relation(big) & r & not_eps:
                        candidates.append((to_labels(big), labels))
                    else:  # m side is known to hold here
                        candidates.append((mu_labels, labels))
                    if extended:
                        candidates.extend(
                            _extended_candidates(
                                succ, mu_labels, to_labels(big), labels, epsilon
                            )
                        )
                entry = (candidates, False, mu, len(evaluation_cache), r)
            evaluation_cache[r] = entry

        # The interned integer replaces the popped one: value-equal joins
        # reached over different DFS paths are distinct objects, and the
        # ``child is r`` redundancy test below needs the one object the
        # join memo was built against.
        candidates, prunable, mu, node_id, r = entry
        if candidates:
            for pi_labels, theta_labels in candidates:
                candidates_evaluated += 1
                candidate = OstrSolution(
                    pi=Partition(states, pi_labels),
                    theta=Partition(states, theta_labels),
                )
                if better(candidate, best):
                    best = candidate
                    improvements += 1

        if prune and prunable:
            pruned_subtrees += 1
            continue

        if next_index < n_basis:
            push((
                None, node_id * replay_stride + next_index, investigated - 1,
                pruned_subtrees, skipped_redundant,
                candidates_evaluated - len(candidates),
            ))
            owner = None  # pi's owner array, built on the first join-memo miss
            node = (mu, owners(mu), mu & not_eps)
            edge_base = node_id * n_basis
            for child_index in range(n_basis - 1, next_index - 1, -1):
                key = edge_base + child_index
                child = join_get(key)
                if child is None:
                    if owner is None:
                        owner = owners(r)
                    child = join(r, owner, basis_el[child_index])
                    join_cache[key] = child
                if child is r:  # basis[i] <= pi: redundant edge
                    if skip_redundant:
                        skipped_redundant += 1
                        continue
                push((child, node, child_index, child_index + 1))

    stats.investigated += investigated
    stats.candidates_evaluated += candidates_evaluated
    stats.improvements += improvements
    stats.pruned_subtrees += pruned_subtrees
    stats.skipped_redundant += skipped_redundant
    stats.unique_joins = len(evaluation_cache)
    return best


def _color_coarsen(
    fine: Labels, bound: Labels, other: Labels, epsilon: Labels
) -> Labels:
    """Group blocks of ``fine`` within ``bound``-blocks, avoiding conflicts.

    A merged block must never contain two states that share an ``other``
    block without being ``epsilon``-equivalent (the meet condition of
    Theorem 1).  Any grouping between ``fine`` and ``bound`` keeps the
    symmetric-pair property, so fewer groups means a cheaper factor.
    Greedy first-fit over blocks ordered largest-first (Welsh-Powell
    style); deterministic, so runs are reproducible.
    """
    n = len(fine)
    members: Dict[int, List[int]] = {}
    for state in range(n):
        members.setdefault(fine[state], []).append(state)
    order = sorted(
        members, key=lambda block: (-len(members[block]), members[block][0])
    )

    def conflicts(states_a: List[int], states_b: List[int]) -> bool:
        for a in states_a:
            for b in states_b:
                if other[a] == other[b] and epsilon[a] != epsilon[b]:
                    return True
        return False

    groups: List[List[int]] = []  # states per group
    group_bound: List[int] = []
    assignment: Dict[int, int] = {}
    for block in order:
        states = members[block]
        placed = False
        for index, group in enumerate(groups):
            if group_bound[index] != bound[states[0]]:
                continue
            if not conflicts(states, group):
                group.extend(states)
                assignment[block] = index
                placed = True
                break
        if not placed:
            assignment[block] = len(groups)
            groups.append(list(states))
            group_bound.append(bound[states[0]])
    return kernel.canonical([assignment[fine[state]] for state in range(n)])


def _extended_candidates(
    succ, mu: Labels, big: Labels, pihat: Labels, epsilon: Labels
) -> List[Tuple[Labels, Labels]]:
    """Alternating coarsening of both factors (beyond the paper's policy).

    The paper evaluates only ``(M(pi), pi)`` and ``(m(pi), pi)`` per node,
    which provably misses optima whose factors lie strictly between those
    bounds (see EXPERIMENTS.md).  Starting from the always-valid m-side
    pair, alternately re-colour one side against the other until a
    fixpoint; every intermediate pair is a valid solution candidate.
    """
    candidates: List[Tuple[Labels, Labels]] = []
    first = _color_coarsen(mu, big, pihat, epsilon)
    second = pihat
    for _ in range(4):
        if not kernel.refines(kernel.meet(first, second), epsilon):
            break  # defensive; coloring should preserve the invariant
        candidates.append((first, second))
        second_low = kernel.m_operator(succ, first)
        second_high = kernel.big_m_operator(succ, first)
        if not kernel.refines(second_low, second_high):
            break
        new_second = _color_coarsen(second_low, second_high, first, epsilon)
        first_low = kernel.m_operator(succ, new_second)
        first_high = kernel.big_m_operator(succ, new_second)
        if not kernel.refines(first_low, first_high):
            break
        new_first = _color_coarsen(first_low, first_high, new_second, epsilon)
        if (new_first, new_second) == (first, second):
            break
        first, second = new_first, new_second
    # Belt and braces: the constructions above guarantee validity, but a
    # candidate that slipped through a bug here must never become the
    # reported optimum, so re-verify each pair.
    return [
        (a, b)
        for a, b in candidates
        if kernel.is_symmetric_pair(succ, a, b)
        and kernel.refines(kernel.meet(a, b), epsilon)
    ]
