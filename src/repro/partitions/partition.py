"""The public :class:`Partition` type: an equivalence relation on a finite set.

A :class:`Partition` wraps a canonical label tuple (see
:mod:`repro.partitions.kernel`) together with an ordered *universe* of
arbitrary hashable elements.  All lattice operations require both operands
to share the same universe, in the same order; this is checked and raised
as :class:`~repro.exceptions.PartitionError` otherwise.

The paper works with equivalence relations as subsets of ``S x S`` ordered
by inclusion; here ``pi <= theta`` (``pi.refines(theta)``) corresponds to
``pi ⊆ theta`` in the paper's notation, ``|`` is the lattice join (union
followed by transitive closure) and ``&`` is the meet (intersection).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, Sequence, Tuple

from ..exceptions import PartitionError
from . import kernel


class Partition:
    """An equivalence relation on an ordered finite universe.

    Derived structures (the element index, the block tuples, the hash)
    are computed lazily and cached on the instance, and lattice-operation
    results share the universe tuple and the element index of their
    operands -- building a Partition per search candidate or per lattice
    op costs one tuple, not a dict rebuild.
    """

    __slots__ = ("_universe", "_labels", "_index", "_blocks", "_hash")

    def __init__(self, universe: Sequence[Hashable], labels: Sequence[int]) -> None:
        universe = tuple(universe)
        if len(universe) != len(set(universe)):
            raise PartitionError("universe contains duplicate elements")
        if len(labels) != len(universe):
            raise PartitionError(
                f"labels length {len(labels)} does not match universe size {len(universe)}"
            )
        if not kernel.is_canonical(labels):
            labels = kernel.canonical(labels)
        self._universe: Tuple[Hashable, ...] = universe
        self._labels: Tuple[int, ...] = tuple(labels)
        self._index = None
        self._blocks = None
        self._hash = None

    @classmethod
    def _from_canonical(
        cls,
        universe: Tuple[Hashable, ...],
        labels: Tuple[int, ...],
        index: Dict[Hashable, int] = None,
    ) -> "Partition":
        """Internal fast constructor: trusted canonical labels, shared index.

        Used where the invariants hold by construction (lattice-op results
        over an already-validated universe), skipping the duplicate check
        and re-canonicalization scan of the public constructor.
        """
        self = object.__new__(cls)
        self._universe = universe
        self._labels = labels
        self._index = index
        self._blocks = None
        self._hash = None
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, universe: Sequence[Hashable]) -> "Partition":
        """The finest partition (the identity relation ``=`` of the paper)."""
        return cls(universe, kernel.identity(len(universe)))

    @classmethod
    def one(cls, universe: Sequence[Hashable]) -> "Partition":
        """The coarsest partition (all elements related)."""
        return cls(universe, kernel.one_block(len(universe)))

    @classmethod
    def from_blocks(
        cls,
        universe: Sequence[Hashable],
        block_list: Iterable[Iterable[Hashable]],
    ) -> "Partition":
        """Build from explicit blocks; unmentioned elements become singletons."""
        universe = tuple(universe)
        index = {x: i for i, x in enumerate(universe)}
        try:
            index_blocks = [[index[x] for x in block] for block in block_list]
        except KeyError as exc:
            raise PartitionError(f"block element {exc.args[0]!r} not in universe") from exc
        built = cls(universe, kernel.from_blocks(len(universe), index_blocks))
        built._index = index
        return built

    @classmethod
    def from_pairs(
        cls,
        universe: Sequence[Hashable],
        pairs: Iterable[Tuple[Hashable, Hashable]],
    ) -> "Partition":
        """Smallest equivalence relation containing all given pairs."""
        universe = tuple(universe)
        index = {x: i for i, x in enumerate(universe)}
        try:
            index_pairs = [(index[x], index[y]) for x, y in pairs]
        except KeyError as exc:
            raise PartitionError(f"pair element {exc.args[0]!r} not in universe") from exc
        built = cls(universe, kernel.from_pairs(len(universe), index_pairs))
        built._index = index
        return built

    # -- basic queries -----------------------------------------------------

    @property
    def universe(self) -> Tuple[Hashable, ...]:
        return self._universe

    @property
    def labels(self) -> Tuple[int, ...]:
        """Canonical label tuple (block id per universe position)."""
        return self._labels

    @property
    def num_blocks(self) -> int:
        return kernel.num_blocks(self._labels)

    def blocks(self) -> Tuple[Tuple[Hashable, ...], ...]:
        """Blocks as tuples of elements, in canonical (first-occurrence) order."""
        blocks = self._blocks
        if blocks is None:
            blocks = self._blocks = tuple(
                tuple(self._universe[i] for i in block)
                for block in kernel.blocks(self._labels)
            )
        return blocks

    def block_of(self, element: Hashable) -> FrozenSet[Hashable]:
        """The equivalence class ``[element]`` as a frozenset."""
        position = self._position(element)
        label = self._labels[position]
        return frozenset(
            x for x, l in zip(self._universe, self._labels) if l == label
        )

    def block_index(self, element: Hashable) -> int:
        """Canonical block id of ``element``."""
        return self._labels[self._position(element)]

    def related(self, x: Hashable, y: Hashable) -> bool:
        """Are ``x`` and ``y`` equivalent?"""
        return self._labels[self._position(x)] == self._labels[self._position(y)]

    def is_identity(self) -> bool:
        return self.num_blocks == len(self._universe)

    def _position(self, element: Hashable) -> int:
        index = self._index
        if index is None:
            index = self._index = {x: i for i, x in enumerate(self._universe)}
        try:
            return index[element]
        except KeyError as exc:
            raise PartitionError(f"element {element!r} not in universe") from exc

    def _check_universe(self, other: "Partition") -> None:
        if self._universe != other._universe:
            raise PartitionError("partitions are over different universes")

    # -- lattice operations --------------------------------------------------

    def _relations(self, other: "Partition"):
        """The lattice of the universe and both operands as relation integers."""
        self._check_universe(other)
        ops = kernel.bitset_lattice(len(self._labels))
        return ops, ops.from_labels(self._labels), ops.from_labels(other._labels)

    def join(self, other: "Partition") -> "Partition":
        """Finest common coarsening (the ``u`` + transitive closure of the paper)."""
        ops, a, b = self._relations(other)
        return Partition._from_canonical(
            self._universe, ops.to_labels(ops.join(a, b)), self._index
        )

    def meet(self, other: "Partition") -> "Partition":
        """Coarsest common refinement (set intersection of the relations)."""
        ops, a, b = self._relations(other)
        return Partition._from_canonical(
            self._universe, ops.to_labels(ops.meet(a, b)), self._index
        )

    def refines(self, other: "Partition") -> bool:
        """``self ⊆ other`` as relations (``self`` is finer)."""
        ops, a, b = self._relations(other)
        return ops.refines(a, b)

    def __or__(self, other: "Partition") -> "Partition":
        return self.join(other)

    def __and__(self, other: "Partition") -> "Partition":
        return self.meet(other)

    def __le__(self, other: "Partition") -> bool:
        return self.refines(other)

    def __ge__(self, other: "Partition") -> bool:
        return other.refines(self)

    def __lt__(self, other: "Partition") -> bool:
        return self.refines(other) and self != other

    def __gt__(self, other: "Partition") -> bool:
        return other.refines(self) and self != other

    # -- relation view -------------------------------------------------------

    def pairs(self) -> Iterator[Tuple[Hashable, Hashable]]:
        """Yield all ordered related pairs including reflexive ones.

        This is the subset-of-``S x S`` view used by the paper (an
        equivalence relation *is* its set of pairs).
        """
        for block in self.blocks():
            for x in block:
                for y in block:
                    yield (x, y)

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self._universe == other._universe and self._labels == other._labels

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash((self._universe, self._labels))
        return value

    def __len__(self) -> int:
        return self.num_blocks

    def __iter__(self) -> Iterator[Tuple[Hashable, ...]]:
        return iter(self.blocks())

    def __repr__(self) -> str:
        body = ", ".join(
            "{" + ",".join(str(x) for x in block) + "}" for block in self.blocks()
        )
        return f"Partition[{body}]"
