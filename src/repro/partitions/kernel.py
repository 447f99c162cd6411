"""Low-level partition operations: canonical label tuples and block bitsets.

The OSTR depth-first search evaluates partition-algebra operators at every
node of a potentially very large search tree, so the inner loop avoids
objects entirely.  Three interchangeable representations of a partition of
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

* a *canonical mask tuple*: one Python-int bitmask per block (bit ``i``
  set iff element ``i`` is in the block), ordered by lowest set bit --
  which coincides with first-occurrence label order, so the two forms are
  bijective (:func:`labels_to_masks` / :func:`masks_to_labels`).  The
  :class:`BitsetLattice` / :class:`BitsetKernel` classes implement the
  same algebra word-parallel on this form (AND/OR/popcount over whole
  blocks at once) with per-universe and per-``SuccTable`` memo caches;
  the :class:`~repro.partitions.partition.Partition` call sites route
  through them;

* a *relation integer*: the equivalence relation as one ``n*n``-bit
  integer, row ``x`` holding ``x``'s block mask
  (:meth:`BitsetLattice.relation` / :meth:`BitsetLattice.owners`).  Meet
  is one AND, and the production OSTR search runs on this form.

Machine transition structure enters through a *successor table*
``succ[s][i]`` giving the next-state index of state ``s`` under input ``i``.
The two operators of algebraic structure theory (Hartmanis/Stearns, as used
by the paper) are provided in both representations:

* ``m`` -- the smallest equivalence ``m(pi)`` such that ``(pi, m(pi))`` is
  a partition pair (:func:`m_operator` / :meth:`BitsetKernel.m`),
* ``M`` -- the largest equivalence ``M(theta)`` such that ``(M(theta),
  theta)`` is a partition pair (:func:`big_m_operator` /
  :meth:`BitsetKernel.big_m`).

The module-level functions are pure and side-effect free; the bitset
classes are immutable except for their internal memo caches.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .unionfind import UnionFind

Labels = Tuple[int, ...]
Masks = Tuple[int, ...]
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


def join_many(parts: Sequence[Labels], n: int) -> Labels:
    """Join of an arbitrary collection of partitions of ``0..n-1``."""
    uf = UnionFind(n)
    for labels in parts:
        first: Dict[int, int] = {}
        for element in range(n):
            label = labels[element]
            if label in first:
                uf.union(first[label], element)
            else:
                first[label] = element
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
# Bitset-native partition algebra
# ---------------------------------------------------------------------------


def labels_to_masks(labels: Sequence[int]) -> Masks:
    """Canonical label tuple -> canonical mask tuple (one int per block).

    Block ``k``'s mask has bit ``i`` set iff ``labels[i] == k``.  Canonical
    first-occurrence label order is exactly ascending lowest-set-bit order
    of the masks, so the conversion is a bijection on canonical forms.
    """
    if not labels:
        return ()
    out = [0] * (max(labels) + 1)
    bit = 1
    for label in labels:
        out[label] |= bit
        bit <<= 1
    return tuple(out)


def masks_to_labels(masks: Masks, n: int) -> Labels:
    """Canonical mask tuple -> canonical label tuple (inverse conversion)."""
    out = [0] * n
    for index, mask in enumerate(masks):
        rest = mask
        while rest:
            low = rest & -rest
            out[low.bit_length() - 1] = index
            rest ^= low
    return tuple(out)


def _lowbit_key(mask: int) -> int:
    """Sort key: a block mask's lowest set bit (canonical block order)."""
    return mask & -mask


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


class BitsetLattice:
    """Word-parallel partition lattice over a fixed ``n``-element universe.

    Partitions are canonical mask tuples; every operation touches whole
    blocks with single big-int AND/OR/subset instructions instead of
    per-element label scans.  Derived per-partition structure (the
    nontrivial blocks, the element->block arrays, the label form) is memo
    cached keyed by the masks tuple, because the same operands recur
    constantly in the OSTR search and in :class:`~repro.partitions.
    partition.Partition` call sites.  Caches self-clear past a size limit
    so long campaigns cannot grow them without bound.
    """

    __slots__ = (
        "n",
        "identity_masks",
        "one_masks",
        "_nontrivial",
        "_arrays",
        "_masks_of",
        "_labels_of",
        "full",
        "diagonal",
        "spread",
        "_shifts",
    )

    _CACHE_LIMIT = 1 << 17

    def __init__(self, n: int) -> None:
        self.n = n
        self.identity_masks: Masks = tuple(1 << i for i in range(n))
        self.one_masks: Masks = ((1 << n) - 1,) if n else ()
        self._nontrivial: Dict[Masks, Tuple[int, ...]] = {}
        self._arrays: Dict[Masks, Tuple[List[int], List[int]]] = {}
        self._masks_of: Dict[Labels, Masks] = {}
        self._labels_of: Dict[Masks, Labels] = {}
        self.full = (1 << n) - 1
        self.diagonal = sum(1 << (n + 1) * x for x in range(n))
        self.spread = _spreader(n)
        self._shifts = range(0, n * n, n)

    # -- conversions and cached structure views -----------------------------

    def from_labels(self, labels: Labels) -> Masks:
        """Cached :func:`labels_to_masks` (labels must be canonical)."""
        masks = self._masks_of.get(labels)
        if masks is None:
            if len(self._masks_of) >= self._CACHE_LIMIT:
                self._masks_of.clear()
            masks = self._masks_of[labels] = labels_to_masks(labels)
        return masks

    def to_labels(self, masks: Masks) -> Labels:
        """Cached :func:`masks_to_labels`."""
        labels = self._labels_of.get(masks)
        if labels is None:
            if len(self._labels_of) >= self._CACHE_LIMIT:
                self._labels_of.clear()
            labels = self._labels_of[masks] = masks_to_labels(masks, self.n)
        return labels

    def nontrivial(self, masks: Masks) -> Tuple[int, ...]:
        """The canonical sparse form: blocks with more than one element
        (all others are inert), in ascending integer order."""
        nt = self._nontrivial.get(masks)
        if nt is None:
            if len(self._nontrivial) >= self._CACHE_LIMIT:
                self._nontrivial.clear()
            nt = self._nontrivial[masks] = tuple(
                sorted(mask for mask in masks if mask & (mask - 1))
            )
        return nt

    def arrays(self, masks: Masks) -> Tuple[List[int], List[int]]:
        """Per-element views: ``labels[i]`` block index, ``owner[i]`` block mask."""
        entry = self._arrays.get(masks)
        if entry is None:
            if len(self._arrays) >= self._CACHE_LIMIT:
                self._arrays.clear()
            labels = [0] * self.n
            owner = [0] * self.n
            for index, mask in enumerate(masks):
                rest = mask
                while rest:
                    low = rest & -rest
                    element = low.bit_length() - 1
                    labels[element] = index
                    owner[element] = mask
                    rest ^= low
            entry = self._arrays[masks] = (labels, owner)
        return entry

    # -- the sparse (nontrivial-blocks-only) representation -----------------
    #
    # A partition is equally determined by its nontrivial blocks alone
    # (every uncovered element is a singleton).  The canonical sparse form
    # (:meth:`nontrivial`) orders the blocks by plain integer value: blocks
    # are disjoint, so that is highest-set-bit order and one partition has
    # exactly one sparse tuple, while sorting needs no key function.  The
    # full form keeps lowest-bit order, which :meth:`from_sparse` restores
    # from a sparse collection in any order.

    def from_sparse(self, sparse: Iterable[int]) -> Masks:
        """Nontrivial-blocks form -> full canonical mask tuple."""
        covered = 0
        for mask in sparse:
            covered |= mask
        out = list(sparse)
        rest = (self.one_masks[0] & ~covered) if self.n else 0
        while rest:
            low = rest & -rest
            out.append(low)
            rest ^= low
        out.sort(key=_lowbit_key)
        return tuple(out)

    @staticmethod
    def _resolve_constraints(
        owner: List[int], constraints: Sequence[int]
    ) -> Optional[List[int]]:
        """Resolve constraint masks through ``owner`` into merged masks.

        The core of :meth:`join_constraints`: each constraint visits one
        representative bit per distinct block (the rest cleared with a
        single AND) and accumulates the union of the blocks it touches;
        constraints already inside one block are dropped, and overlapping
        accumulated masks are unioned.  Returns ``None`` when every
        constraint was a no-op (the join is ``base``).
        """
        merged: Optional[List[int]] = None
        for constraint in constraints:
            rest = constraint
            block = owner[(rest & -rest).bit_length() - 1]
            acc = block
            rest &= ~block
            if not rest:
                continue  # constraint already inside one block: no-op
            while rest:
                block = owner[(rest & -rest).bit_length() - 1]
                acc |= block
                rest &= ~block
            if merged is None:
                merged = [acc]
                continue
            for i in range(len(merged) - 1, -1, -1):
                other = merged[i]
                if other & acc:
                    acc |= other
                    del merged[i]
            merged.append(acc)
        return merged

    # -- the relation form ----------------------------------------------------
    #
    # The OSTR search runs on the partition as its equivalence relation:
    # one ``n*n``-bit integer whose row ``x`` (bits ``n*x .. n*x + n - 1``)
    # is the block mask of ``x``, ``R = sum(owner[x] << n*x)``.  One
    # partition has exactly one relation integer, so the integer itself is
    # the search's evaluation-cache key, and relations compose bitwise:
    # ``R(a) & R(b)`` is ``R(meet(a, b))``, so ``meet(a, b) <= eps`` is
    # ``R(a) & R(b) & ~R(eps) == 0``.  A block ``B`` contributes ``B *
    # spread(B)``, where ``spread`` moves bit ``x`` to bit ``n*x`` (the
    # product has no carries: each shifted copy of ``B`` fills one row).

    def relation(self, masks: Iterable[int]) -> int:
        """Relation integer of a partition given by its blocks (full or
        sparse form: the diagonal stands in for the singletons)."""
        spread = self.spread
        out = self.diagonal
        for mask in masks:
            out |= mask * spread(mask)
        return out

    def owners(self, relation: int) -> List[int]:
        """Owner array of a relation: ``owners(R)[x]`` is the block of ``x``."""
        full = self.full
        return [relation >> shift & full for shift in self._shifts]

    @staticmethod
    def element_blocks(sparse: Masks) -> Tuple[Tuple[int, ...], ...]:
        """Each block of ``sparse`` as the tuple of its element indices.

        The constraint form :meth:`join_relation` takes; the search builds
        it once per basis element and reuses it on every DFS edge.
        """
        out: List[Tuple[int, ...]] = []
        for mask in sparse:
            elements: List[int] = []
            rest = mask
            while rest:
                low = rest & -rest
                elements.append(low.bit_length() - 1)
                rest ^= low
            out.append(tuple(elements))
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

    def meet(self, a: Masks, b: Masks) -> Masks:
        """Coarsest common refinement: split every block of ``a`` by ``b``."""
        if a == b:
            return a
        owner_b = self.arrays(b)[1]
        out: List[int] = []
        for am in a:
            if am & (am - 1):
                rest = am
                while rest:
                    low = rest & -rest
                    block = rest & owner_b[low.bit_length() - 1]
                    out.append(block)
                    rest ^= block
            else:
                out.append(am)
        out.sort(key=_lowbit_key)
        return tuple(out)

    def join_constraints(
        self,
        base: Masks,
        constraints: Sequence[int],
        owner: Optional[List[int]] = None,
    ) -> Masks:
        """Coarsen ``base`` until every constraint mask lies inside one block.

        The workhorse behind :meth:`join` and :meth:`BitsetKernel.m` (the
        search joins on the relation form, :meth:`join_relation`).  Each
        constraint's reach is resolved through the owner array into one
        merged mask -- visiting a single representative bit per distinct
        block, the rest cleared with one AND -- overlapping merged masks
        are unioned, and the result is assembled in canonical order by
        emitting each merged mask in place of its lowest block.
        Constraints already inside one block are dropped on the fly, so a
        fully redundant call returns ``base`` itself without rebuilding it.
        """
        if not constraints:
            return base
        if owner is None:
            owner = self.arrays(base)[1]
        merged = self._resolve_constraints(owner, constraints)
        if merged is None:
            return base
        # Every base block is either disjoint from the merged region or a
        # subset of exactly one merged mask; emit each merged mask in
        # place of its lowest block and drop the other absorbed blocks.
        union = 0
        lows: Dict[int, int] = {}
        for acc in merged:
            union |= acc
            lows[acc & -acc] = acc
        return tuple(
            lows[mask & -mask] if mask & union else mask
            for mask in base
            if not mask & union or (mask & -mask) in lows
        )

    def join(self, a: Masks, b: Masks) -> Masks:
        """Finest common coarsening: merge ``a``-blocks along ``b``'s blocks."""
        if a == b:
            return a
        return self.join_constraints(a, self.nontrivial(b))

    def refines(self, a: Masks, b: Masks) -> bool:
        """``a <= b``: every (nontrivial) block of ``a`` inside a ``b`` block."""
        if a == b:
            return True
        owner_b = self.arrays(b)[1]
        for am in self.nontrivial(a):
            low = am & -am
            if am & ~owner_b[low.bit_length() - 1]:
                return False
        return True

    def meet_refines(self, a: Masks, b: Masks, bound: Masks) -> bool:
        """Fused ``refines(meet(a, b), bound)`` without materialising the meet."""
        return self.meet_refines_owner(a, b, self.arrays(bound)[1])

    def meet_refines_owner(
        self, a: Masks, b: Masks, bound_owner: List[int]
    ) -> bool:
        """:meth:`meet_refines` against a precomputed bound owner array.

        Only multi-element intersections can violate the bound, so the scan
        walks nontrivial-block pairs and tests each intersection against
        the bound block of its lowest element with one subset instruction.
        """
        nt_b = self.nontrivial(b)
        for am in self.nontrivial(a):
            for bm in nt_b:
                x = am & bm
                if x & (x - 1):
                    if x & ~bound_owner[(x & -x).bit_length() - 1]:
                        return False
        return True

    # -- label-level wrappers (Partition and friends) -----------------------

    def meet_labels(self, a: Labels, b: Labels) -> Labels:
        return self.to_labels(self.meet(self.from_labels(a), self.from_labels(b)))

    def join_labels(self, a: Labels, b: Labels) -> Labels:
        return self.to_labels(self.join(self.from_labels(a), self.from_labels(b)))

    def refines_labels(self, a: Labels, b: Labels) -> bool:
        return self.refines(self.from_labels(a), self.from_labels(b))


class BitsetKernel(BitsetLattice):
    """Machine-bound bitset partition algebra (the paper's Mm operators).

    Binds :class:`BitsetLattice` to one successor table: successor bits
    (``1 << succ[s][i]``) and per-input preimage masks are precomputed
    once, and ``m``/``big_m`` results are memo cached per partition -- the
    OSTR search, Theorem-1 verification and the ``pairs``/``mm`` helpers
    all share one kernel per machine through :func:`bitset_kernel`.
    """

    __slots__ = ("rows", "n_inputs", "succ_bits", "_pre", "_m_cache", "_big_m_cache")

    def __init__(self, succ: SuccTable) -> None:
        rows = tuple(tuple(row) for row in succ)
        super().__init__(len(rows))
        self.rows = rows
        self.n_inputs = len(rows[0]) if rows else 0
        self.succ_bits: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(1 << target for target in row) for row in rows
        )
        pre = [[0] * self.n for _ in range(self.n_inputs)]
        for state, row in enumerate(rows):
            bit = 1 << state
            for i, target in enumerate(row):
                pre[i][target] |= bit
        self._pre: Tuple[Tuple[int, ...], ...] = tuple(tuple(p) for p in pre)
        self._m_cache: Dict[Masks, Masks] = {}
        self._big_m_cache: Dict[Masks, Masks] = {}

    def image(self, mask: int, i: int) -> int:
        """Successor image of a state set under input ``i``, as a mask."""
        succ_bits = self.succ_bits
        out = 0
        rest = mask
        while rest:
            low = rest & -rest
            out |= succ_bits[low.bit_length() - 1][i]
            rest ^= low
        return out

    def m(self, masks: Masks) -> Masks:
        """Bitset :func:`m_operator`: close the successor images of blocks.

        Every nontrivial block contributes one image mask per input; the
        result is the identity partition coarsened until each image lies
        inside one block.  Memoised per partition.
        """
        cached = self._m_cache.get(masks)
        if cached is not None:
            return cached
        if len(self._m_cache) >= self._CACHE_LIMIT:
            self._m_cache.clear()
        constraints: List[int] = []
        n_inputs = self.n_inputs
        for bm in self.nontrivial(masks):
            for i in range(n_inputs):
                img = self.image(bm, i)
                if img & (img - 1):
                    constraints.append(img)
        result = self.join_constraints(self.identity_masks, constraints)
        self._m_cache[masks] = result
        return result

    def big_m(self, masks: Masks) -> Masks:
        """Bitset :func:`big_m_operator` via word-parallel preimages.

        ``M(theta)`` is the meet over inputs of the preimage partitions
        ``{ delta_i^{-1}(B) | B in theta }``; each preimage block is an OR
        of per-target preimage masks.  Memoised per partition.
        """
        cached = self._big_m_cache.get(masks)
        if cached is not None:
            return cached
        if len(self._big_m_cache) >= self._CACHE_LIMIT:
            self._big_m_cache.clear()
        if self.n_inputs == 0:
            result = self.one_masks
        else:
            result = None
            for i in range(self.n_inputs):
                pre_i = self._pre[i]
                blocks: List[int] = []
                for tb in masks:
                    pm = 0
                    rest = tb
                    while rest:
                        low = rest & -rest
                        pm |= pre_i[low.bit_length() - 1]
                        rest ^= low
                    if pm:
                        blocks.append(pm)
                blocks.sort(key=_lowbit_key)
                part = tuple(blocks)
                result = part if result is None else self.meet(result, part)
        self._big_m_cache[masks] = result
        return result

    def is_pair(self, a: Masks, b: Masks) -> bool:
        """Definition 4 on masks: each ``a``-block's images stay in ``b`` blocks."""
        return self.is_pair_owner(self.nontrivial(a), self.arrays(b)[1])

    def is_pair_owner(self, a_blocks: Iterable[int], owner_b: List[int]) -> bool:
        """:meth:`is_pair` for ``a``'s nontrivial blocks against ``b``'s
        owner array (from :meth:`arrays` or :meth:`owners`)."""
        image = self.image
        inputs = range(self.n_inputs)
        for am in a_blocks:
            for i in inputs:
                img = image(am, i)
                if img & ~owner_b[(img & -img).bit_length() - 1]:
                    return False
        return True

    def is_symmetric_pair(self, a: Masks, b: Masks) -> bool:
        return self.is_pair(a, b) and self.is_pair(b, a)

    # -- label-level wrappers -----------------------------------------------

    def m_labels(self, labels: Labels) -> Labels:
        return self.to_labels(self.m(self.from_labels(labels)))

    def big_m_labels(self, labels: Labels) -> Labels:
        return self.to_labels(self.big_m(self.from_labels(labels)))

    def is_pair_labels(self, a: Labels, b: Labels) -> bool:
        return self.is_pair(self.from_labels(a), self.from_labels(b))

    def meet_refines_labels(self, a: Labels, b: Labels, bound: Labels) -> bool:
        return self.meet_refines(
            self.from_labels(a), self.from_labels(b), self.from_labels(bound)
        )


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
