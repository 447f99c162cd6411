"""Low-level partition operations: canonical label tuples and relation integers.

The OSTR depth-first search evaluates partition-algebra operators at every
node of a potentially very large search tree, so the inner loop avoids
objects entirely.  Two interchangeable representations of a partition of
``{0, .., n-1}`` are provided:

* a *canonical label tuple*: ``labels[i]`` is the block id of element ``i``
  and block ids are assigned in order of first occurrence (``labels[0] ==
  0``, a new id is always exactly one larger than the current maximum).
  This is the "restricted growth string" normal form, so structural
  equality of partitions is plain tuple equality and tuples are directly
  hashable for memo tables.  The pure functions of this module
  (:func:`meet`, :func:`join`, :func:`refines`, :func:`m_operator`,
  :func:`big_m_operator`, ...) operate on this form and are the *reference
  oracle* for everything faster;

* a *relation integer*: the equivalence relation as one ``n*n``-bit
  integer, row ``x`` holding ``x``'s block mask.  This is the paper's own
  view of a partition, a subset of ``S x S`` ordered by inclusion: meet
  is one AND and refinement one AND-NOT.  The :class:`BitsetLattice` /
  :class:`BitsetKernel` classes implement the algebra on this form, with
  one :meth:`~BitsetLattice.from_labels` / :meth:`~BitsetLattice.to_labels`
  pair at the label boundary; the production OSTR search and the
  :class:`~repro.partitions.partition.Partition` call sites run on it.

Machine transition structure enters through a *successor table*
``succ[s][i]`` giving the next-state index of state ``s`` under input ``i``.
The two operators of algebraic structure theory (Hartmanis/Stearns, as used
by the paper) are provided in both representations:

* ``m`` -- the smallest equivalence ``m(pi)`` such that ``(pi, m(pi))`` is
  a partition pair (:func:`m_operator` / :meth:`BitsetKernel.m`),
* ``M`` -- the largest equivalence ``M(theta)`` such that ``(M(theta),
  theta)`` is a partition pair (:func:`big_m_operator` /
  :meth:`BitsetKernel.big_m`).

The module-level functions are pure and side-effect free; the kernel
classes are immutable except for their ``m``/``M`` memo caches.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from .unionfind import UnionFind

Labels = Tuple[int, ...]
SuccTable = Sequence[Sequence[int]]


def canonical(raw: Sequence[int]) -> Labels:
    """Renumber arbitrary block labels into first-occurrence canonical form."""
    mapping: Dict[int, int] = {}
    out: List[int] = []
    for value in raw:
        label = mapping.get(value)
        if label is None:
            label = len(mapping)
            mapping[value] = label
        out.append(label)
    return tuple(out)


def identity(n: int) -> Labels:
    """The finest partition: every element in its own block."""
    return tuple(range(n))


def one_block(n: int) -> Labels:
    """The coarsest partition: a single block (empty tuple for ``n == 0``)."""
    return (0,) * n


def is_canonical(labels: Sequence[int]) -> bool:
    """Return whether ``labels`` is in first-occurrence canonical form."""
    seen = -1
    for value in labels:
        if value > seen + 1 or value < 0:
            return False
        if value == seen + 1:
            seen = value
    return True


def num_blocks(labels: Labels) -> int:
    """Number of blocks of a canonical label tuple."""
    return (max(labels) + 1) if labels else 0


def blocks(labels: Labels) -> Tuple[Tuple[int, ...], ...]:
    """Return the blocks as tuples of element indices, in block-id order."""
    out: List[List[int]] = [[] for _ in range(num_blocks(labels))]
    for element, label in enumerate(labels):
        out[label].append(element)
    return tuple(tuple(block) for block in out)


def from_pairs(n: int, pairs: Iterable[Tuple[int, int]]) -> Labels:
    """Smallest equivalence relation on ``0..n-1`` containing ``pairs``."""
    uf = UnionFind(n)
    uf.add_pairs(pairs)
    return uf.labels()


def from_blocks(n: int, block_list: Iterable[Iterable[int]]) -> Labels:
    """Partition whose non-singleton structure is given by ``block_list``.

    Elements not mentioned become singletons.  Blocks may overlap (the
    result is the equivalence closure), which keeps this convenient for
    building test fixtures.
    """
    uf = UnionFind(n)
    for block in block_list:
        members = list(block)
        for other in members[1:]:
            uf.union(members[0], other)
    return uf.labels()


def join(a: Labels, b: Labels) -> Labels:
    """Finest common coarsening (lattice join) of two partitions."""
    n = len(a)
    uf = UnionFind(n)
    first_a: Dict[int, int] = {}
    first_b: Dict[int, int] = {}
    for element in range(n):
        la, lb = a[element], b[element]
        if la in first_a:
            uf.union(first_a[la], element)
        else:
            first_a[la] = element
        if lb in first_b:
            uf.union(first_b[lb], element)
        else:
            first_b[lb] = element
    return uf.labels()


def meet(a: Labels, b: Labels) -> Labels:
    """Coarsest common refinement (lattice meet) of two partitions."""
    mapping: Dict[Tuple[int, int], int] = {}
    out: List[int] = []
    for la, lb in zip(a, b):
        key = (la, lb)
        label = mapping.get(key)
        if label is None:
            label = len(mapping)
            mapping[key] = label
        out.append(label)
    return tuple(out)


def refines(a: Labels, b: Labels) -> bool:
    """Return whether ``a <= b`` (every block of ``a`` is inside a block of ``b``)."""
    seen: Dict[int, int] = {}
    for la, lb in zip(a, b):
        previous = seen.get(la)
        if previous is None:
            seen[la] = lb
        elif previous != lb:
            return False
    return True


def related(labels: Labels, x: int, y: int) -> bool:
    """Return whether ``x`` and ``y`` are in the same block."""
    return labels[x] == labels[y]


def meet_refines(a: Labels, b: Labels, bound: Labels) -> bool:
    """Fused ``refines(meet(a, b), bound)`` without materialising the meet.

    The OSTR search asks this question for every node of the tree (twice
    for symmetric nodes), so the fused single pass -- group elements by
    their ``(a, b)`` label pair and demand a consistent ``bound`` label per
    group -- removes one full meet construction and one refinement pass
    from the hot path.  Equivalent to the composition by definition of the
    lattice meet.
    """
    seen: Dict[Tuple[int, int], int] = {}
    for la, lb, limit in zip(a, b, bound):
        key = (la, lb)
        previous = seen.get(key)
        if previous is None:
            seen[key] = limit
        elif previous != limit:
            return False
    return True


def meet_is_identity(a: Labels, b: Labels) -> bool:
    """Fast check that ``a ∧ b`` is the identity partition."""
    seen = set()
    for pair in zip(a, b):
        if pair in seen:
            return False
        seen.add(pair)
    return True


def m_operator(succ: SuccTable, labels: Labels) -> Labels:
    """The ``m`` operator: smallest ``theta`` with ``(labels, theta)`` a pair.

    Constructively, ``m(pi)`` is the equivalence closure of all successor
    pairs ``(delta(s, i), delta(t, i))`` with ``s ~pi t``.  It suffices to
    chain each block through one representative.
    """
    n = len(labels)
    uf = UnionFind(n)
    n_inputs = len(succ[0]) if n else 0
    representative: Dict[int, int] = {}
    for state in range(n):
        label = labels[state]
        rep = representative.get(label)
        if rep is None:
            representative[label] = state
            continue
        row_rep = succ[rep]
        row_state = succ[state]
        for i in range(n_inputs):
            uf.union(row_rep[i], row_state[i])
    return uf.labels()


def big_m_operator(succ: SuccTable, labels: Labels) -> Labels:
    """The ``M`` operator: largest ``pi`` with ``(pi, labels)`` a pair.

    Two states are related by ``M(theta)`` iff for every input their
    successors are ``theta``-related, i.e. iff their successor *signature*
    (tuple of successor block ids) is identical.  Grouping by signature
    yields the partition directly; transitivity is inherited from equality
    of signatures.
    """
    mapping: Dict[Tuple[int, ...], int] = {}
    out: List[int] = []
    for row in succ:
        signature = tuple(labels[next_state] for next_state in row)
        label = mapping.get(signature)
        if label is None:
            label = len(mapping)
            mapping[signature] = label
        out.append(label)
    return tuple(out)


def is_pair(succ: SuccTable, a: Labels, b: Labels) -> bool:
    """Definition 4: is ``(a, b)`` a partition pair for the machine?

    ``(s, t) in a  ==>  (delta(s,i), delta(t,i)) in b`` for all inputs ``i``.
    Equivalently each ``a``-block maps under every input into a single
    ``b``-block, which we check through per-block representatives.
    """
    n = len(a)
    n_inputs = len(succ[0]) if n else 0
    representative: Dict[int, int] = {}
    for state in range(n):
        label = a[state]
        rep = representative.get(label)
        if rep is None:
            representative[label] = state
            continue
        row_rep = succ[rep]
        row_state = succ[state]
        for i in range(n_inputs):
            if b[row_rep[i]] != b[row_state[i]]:
                return False
    return True


def is_symmetric_pair(succ: SuccTable, a: Labels, b: Labels) -> bool:
    """Is ``(a, b)`` a symmetric partition pair (both orders are pairs)?"""
    return is_pair(succ, a, b) and is_pair(succ, b, a)


# ---------------------------------------------------------------------------
# Relation-integer partition algebra
# ---------------------------------------------------------------------------


_SPREADERS: Dict[int, Callable[[int], int]] = {}


def _spreader(n: int) -> Callable[[int], int]:
    """``spread`` for universe size ``n``: bit ``x`` -> bit ``n*x``.

    Up to 32 elements it ORs one byte-table entry per mask byte; the
    tables are built once per ``n`` and shared, so a search pays no
    fixed cost for them.  Larger universes walk the mask's bits.
    """
    spread = _SPREADERS.get(n)
    if spread is not None:
        return spread
    if n > 32:

        def spread(mask: int) -> int:
            out = 0
            while mask:
                low = mask & -mask
                out |= 1 << n * (low.bit_length() - 1)
                mask ^= low
            return out

    else:
        tables = [[0] * 256 for _ in range((n + 7) // 8)]
        for byte, table in enumerate(tables):
            for value in range(1, 256):
                low = value & -value
                bit = 8 * byte + low.bit_length() - 1
                table[value] = table[value ^ low] | 1 << n * bit
        t0, t1, t2, t3 = tables + [[0] * 256] * (4 - len(tables))
        if n <= 8:
            spread = t0.__getitem__
        else:

            def spread(mask: int) -> int:
                return (
                    t0[mask & 255] | t1[mask >> 8 & 255]
                    | t2[mask >> 16 & 255] | t3[mask >> 24]
                )

    _SPREADERS[n] = spread
    return spread


def _elements(mask: int) -> Tuple[int, ...]:
    """The set bits of ``mask``, lowest first."""
    out: List[int] = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class BitsetLattice:
    """The partition lattice of an ``n``-element universe on relation integers.

    A partition is its equivalence relation as one ``n*n``-bit integer:
    row ``x`` (bits ``n*x .. n*x + n - 1``) is the block mask of ``x``, so
    ``R = sum(owner[x] << n*x)``.  One partition has exactly one relation
    integer, so the integer is directly a memo key, and the lattice is
    the paper's inclusion order on ``S x S``: ``a & b`` is the meet, ``a
    <= b`` is ``not a & ~b``, and ``meet(a, b) <= bound`` is one AND
    chain.  A block ``B`` contributes ``B * spread(B)``, where ``spread``
    moves bit ``x`` to bit ``n*x`` (the product has no carries: each
    shifted copy of ``B`` fills one row).
    """

    __slots__ = ("n", "full", "diagonal", "universal", "spread", "_shifts")

    def __init__(self, n: int) -> None:
        self.n = n
        self.full = (1 << n) - 1
        self.diagonal = sum(1 << (n + 1) * x for x in range(n))
        self.universal = (1 << n * n) - 1
        self.spread = _spreader(n)
        self._shifts = range(0, n * n, n or 1)

    # -- the label boundary ---------------------------------------------------

    def from_labels(self, labels: Sequence[int]) -> int:
        """Relation integer of a label tuple (block ids in ``0..n-1``, in
        any order)."""
        blocks = [0] * self.n
        bit = 1
        for label in labels:
            blocks[label] |= bit
            bit <<= 1
        return self.relation(blocks)

    def to_labels(self, relation: int) -> Labels:
        """Canonical label tuple of a relation integer."""
        owner = self.owners(relation)
        # dict.fromkeys lists the blocks in first-occurrence order.
        ids = dict(zip(dict.fromkeys(owner), range(self.n)))
        return tuple(map(ids.__getitem__, owner))

    # -- blocks ---------------------------------------------------------------

    def relation(self, masks: Iterable[int]) -> int:
        """Relation integer of a partition given by its block masks.

        Singleton (and empty) masks may be left out or passed: only
        multi-element blocks are spread, the diagonal stands in for the
        rest.
        """
        spread = self.spread
        out = self.diagonal
        for mask in masks:
            if mask & (mask - 1):
                out |= mask * spread(mask)
        return out

    def owners(self, relation: int) -> List[int]:
        """Owner array of a relation: ``owners(R)[x]`` is the block of ``x``."""
        full = self.full
        return [relation >> shift & full for shift in self._shifts]

    def element_blocks(self, relation: int) -> Tuple[Tuple[int, ...], ...]:
        """The blocks with more than one element, each as the tuple of its
        elements, in order of lowest element.

        The constraint form :meth:`join_relation` takes; the search builds
        it once per basis element and reuses it on every DFS edge.
        """
        out: List[Tuple[int, ...]] = []
        low = 1
        for row in self.owners(relation):
            if row != low and not row & (low - 1):  # x is its block's lowest
                out.append(_elements(row))
            low <<= 1
        return tuple(out)

    def join_relation(
        self, base: int, owner: List[int], blocks: Sequence[Sequence[int]]
    ) -> int:
        """Join a relation with constraint blocks given as element lists.

        ``owner`` is ``base``'s owner array (:meth:`owners`).  Each
        constraint block resolves to ``acc = owner[e0] | owner[e1] | ...``;
        when that equals ``owner[e0]`` the block already lies inside one
        ``base`` block and adds nothing, so deciding ``blocks <= base``
        costs one owner lookup per element.  Overlapping ``acc`` masks are
        unioned (the running ``union`` skips the overlap scan for disjoint
        ones), and each merged block is ORed in as ``acc * spread(acc)``:
        every row it covers grows to the merged block.  A fully redundant
        call returns ``base`` itself, so the search's redundancy test is an
        identity check.
        """
        merged: List[int] = []
        union = 0
        for block in blocks:
            first = owner[block[0]]
            acc = first
            for element in block:
                acc |= owner[element]
            if acc == first:
                continue  # block already inside one base block: no-op
            if acc & union:
                for i in range(len(merged) - 1, -1, -1):
                    other = merged[i]
                    if other & acc:
                        acc |= other
                        del merged[i]
            merged.append(acc)
            union |= acc
        if not merged:
            return base
        spread = self.spread
        for acc in merged:
            base |= acc * spread(acc)
        return base

    # -- lattice operations -------------------------------------------------

    @staticmethod
    def meet(a: int, b: int) -> int:
        """Coarsest common refinement: the intersection of the relations."""
        return a & b

    def join(self, a: int, b: int) -> int:
        """Finest common coarsening: merge ``a``-blocks along ``b``'s blocks."""
        return self.join_relation(a, self.owners(a), self.element_blocks(b))

    @staticmethod
    def refines(a: int, b: int) -> bool:
        """``a <= b``: the relation ``a`` is a subset of ``b``."""
        return not a & ~b

    @staticmethod
    def meet_refines(a: int, b: int, bound: int) -> bool:
        """``refines(meet(a, b), bound)`` as one AND chain."""
        return not a & b & ~bound


class BitsetKernel(BitsetLattice):
    """Machine-bound relation algebra (the paper's Mm operators).

    Binds :class:`BitsetLattice` to one successor table: the rows and the
    per-input preimage masks are precomputed once, and ``m``/``big_m``
    results are memo cached per relation integer -- the OSTR search,
    Theorem-1 verification and the ``pairs``/``mm`` helpers all share one
    kernel per machine through :func:`bitset_kernel`.  Caches self-clear
    past a size limit so long campaigns cannot grow them without bound.
    """

    __slots__ = ("rows", "_singletons", "_pre", "_m_cache", "_big_m_cache")

    _CACHE_LIMIT = 1 << 17

    def __init__(self, succ: SuccTable) -> None:
        rows = tuple(tuple(row) for row in succ)
        super().__init__(len(rows))
        self.rows = rows
        self._singletons = self.owners(self.diagonal)
        pre = [[0] * self.n for _ in rows[0]] if rows else []
        for state, row in enumerate(rows):
            bit = 1 << state
            for i, target in enumerate(row):
                pre[i][target] |= bit
        self._pre: Tuple[Tuple[int, ...], ...] = tuple(tuple(p) for p in pre)
        self._m_cache: Dict[int, int] = {}
        self._big_m_cache: Dict[int, int] = {}

    def m(self, relation: int) -> int:
        """Relation :func:`m_operator`: join the block images into the diagonal.

        Every nontrivial block contributes its successor list under each
        input as one join constraint.  Memoised per partition.
        """
        cached = self._m_cache.get(relation)
        if cached is not None:
            return cached
        if len(self._m_cache) >= self._CACHE_LIMIT:
            self._m_cache.clear()
        rows = self.rows
        images: List[Tuple[int, ...]] = []
        for block in self.element_blocks(relation):
            images.extend(zip(*[rows[state] for state in block]))
        result = self.join_relation(self.diagonal, self._singletons, images)
        self._m_cache[relation] = result
        return result

    def big_m(self, relation: int) -> int:
        """Relation :func:`big_m_operator`: the AND over inputs of the
        preimage relations.

        Under input ``i`` the blocks ``{ delta_i^{-1}(B) | B in theta }``
        partition the states; each is an OR of per-target preimage masks.
        With no inputs ``M`` is the universal relation.  Memoised per
        partition.
        """
        cached = self._big_m_cache.get(relation)
        if cached is not None:
            return cached
        if len(self._big_m_cache) >= self._CACHE_LIMIT:
            self._big_m_cache.clear()
        blocks = [_elements(row) for row in set(self.owners(relation))]
        result = self.universal
        for pre_i in self._pre:
            preimages = []
            for block in blocks:
                pm = 0
                for target in block:
                    pm |= pre_i[target]
                preimages.append(pm)
            result &= self.relation(preimages)
        self._big_m_cache[relation] = result
        return result

    def is_pair(self, a: int, b: int) -> bool:
        """Definition 4: the states of each ``a``-block have, input by
        input, successors in one ``b``-block -- the same rows of ``b``'s
        owner array."""
        owner = self.owners(b)
        seen: Dict[int, List[int]] = {}
        for block, row in zip(self.owners(a), self.rows):
            if block & (block - 1):
                targets = [owner[target] for target in row]
                if seen.setdefault(block, targets) != targets:
                    return False
        return True

    def is_symmetric_pair(self, a: int, b: int) -> bool:
        return self.is_pair(a, b) and self.is_pair(b, a)


_LATTICES: Dict[int, BitsetLattice] = {}
_KERNELS: Dict[Tuple[Tuple[int, ...], ...], BitsetKernel] = {}
_KERNEL_LIMIT = 64


def bitset_lattice(n: int) -> BitsetLattice:
    """The shared per-universe-size :class:`BitsetLattice` instance."""
    lattice = _LATTICES.get(n)
    if lattice is None:
        if len(_LATTICES) >= _KERNEL_LIMIT:
            _LATTICES.clear()
        lattice = _LATTICES[n] = BitsetLattice(n)
    return lattice


def bitset_kernel(succ: SuccTable) -> BitsetKernel:
    """The shared per-successor-table :class:`BitsetKernel` instance.

    Sharing matters: the search, Theorem-1 verification and the pair
    helpers all query the same machine, and the kernel's memo caches make
    the second and later callers cheap.
    """
    key = tuple(tuple(row) for row in succ)
    kern = _KERNELS.get(key)
    if kern is None:
        if len(_KERNELS) >= _KERNEL_LIMIT:
            _KERNELS.clear()
        kern = _KERNELS[key] = BitsetKernel(key)
    return kern


def all_partitions(n: int) -> Iterable[Labels]:
    """Yield every partition of ``0..n-1`` in canonical form.

    Enumerates restricted growth strings; the count is the Bell number
    ``B(n)``, so this is only for small ``n`` (reference/exhaustive search
    and property tests).
    """
    if n == 0:
        yield ()
        return
    labels = [0] * n
    maxima = [0] * n

    while True:
        yield tuple(labels)
        position = n - 1
        while position > 0 and labels[position] == maxima[position - 1] + 1:
            position -= 1
        if position == 0:
            return
        labels[position] += 1
        maxima[position] = max(maxima[position - 1], labels[position])
        for tail in range(position + 1, n):
            labels[tail] = 0
            maxima[tail] = maxima[position]
