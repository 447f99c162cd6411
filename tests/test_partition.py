"""Unit tests for the public Partition class."""

import pytest

from repro.exceptions import PartitionError
from repro.partitions import Partition


UNIVERSE = ("a", "b", "c", "d")


class TestConstruction:
    def test_identity(self):
        partition = Partition.identity(UNIVERSE)
        assert partition.num_blocks == 4
        assert partition.is_identity()

    def test_one(self):
        partition = Partition.one(UNIVERSE)
        assert partition.num_blocks == 1
        assert partition.related("a", "d")

    def test_from_blocks(self):
        partition = Partition.from_blocks(UNIVERSE, [("a", "b")])
        assert partition.blocks() == (("a", "b"), ("c",), ("d",))

    def test_from_pairs(self):
        partition = Partition.from_pairs(UNIVERSE, [("a", "c"), ("c", "d")])
        assert partition.block_of("a") == {"a", "c", "d"}

    def test_duplicate_universe_rejected(self):
        with pytest.raises(PartitionError):
            Partition.identity(("a", "a"))

    def test_unknown_block_element_rejected(self):
        with pytest.raises(PartitionError):
            Partition.from_blocks(UNIVERSE, [("a", "z")])

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(PartitionError):
            Partition(UNIVERSE, (0, 0))

    def test_non_canonical_labels_are_normalised(self):
        partition = Partition(UNIVERSE, (7, 7, 3, 1))
        assert partition.labels == (0, 0, 1, 2)


class TestQueries:
    def test_block_index(self):
        partition = Partition.from_blocks(UNIVERSE, [("b", "d")])
        assert partition.block_index("b") == partition.block_index("d")
        assert partition.block_index("a") != partition.block_index("b")

    def test_related_unknown_element(self):
        partition = Partition.identity(UNIVERSE)
        with pytest.raises(PartitionError):
            partition.related("a", "z")

    def test_len_and_iter(self):
        partition = Partition.from_blocks(UNIVERSE, [("a", "b"), ("c", "d")])
        assert len(partition) == 2
        assert list(partition) == [("a", "b"), ("c", "d")]

    def test_pairs_view(self):
        partition = Partition.from_blocks(("x", "y", "z"), [("x", "y")])
        pairs = set(partition.pairs())
        assert ("x", "y") in pairs and ("y", "x") in pairs
        assert ("x", "x") in pairs  # reflexive
        assert ("x", "z") not in pairs

    def test_repr_shows_blocks(self):
        partition = Partition.from_blocks(UNIVERSE, [("a", "b")])
        assert "{a,b}" in repr(partition)


class TestLattice:
    def test_join(self):
        p = Partition.from_blocks(UNIVERSE, [("a", "b")])
        q = Partition.from_blocks(UNIVERSE, [("b", "c")])
        assert (p | q).block_of("a") == {"a", "b", "c"}

    def test_meet(self):
        p = Partition.from_blocks(UNIVERSE, [("a", "b", "c")])
        q = Partition.from_blocks(UNIVERSE, [("b", "c", "d")])
        assert (p & q).block_of("b") == {"b", "c"}

    def test_order_operators(self):
        fine = Partition.identity(UNIVERSE)
        coarse = Partition.one(UNIVERSE)
        assert fine <= coarse
        assert fine < coarse
        assert coarse >= fine
        assert not (coarse <= fine)

    def test_mismatched_universe_rejected(self):
        p = Partition.identity(("a", "b"))
        q = Partition.identity(("a", "c"))
        with pytest.raises(PartitionError):
            p.join(q)

    def test_equality_and_hash(self):
        p = Partition.from_blocks(UNIVERSE, [("a", "b")])
        q = Partition.from_pairs(UNIVERSE, [("a", "b")])
        assert p == q
        assert hash(p) == hash(q)
        assert p != Partition.identity(UNIVERSE)

    def test_join_meet_duality_on_example(self):
        p = Partition.from_blocks(UNIVERSE, [("a", "b"), ("c", "d")])
        q = Partition.from_blocks(UNIVERSE, [("a", "c"), ("b", "d")])
        assert (p | q) == Partition.one(UNIVERSE)
        assert (p & q) == Partition.identity(UNIVERSE)

    def test_empty_universe_lattice_operations(self):
        empty = Partition([], ())
        assert empty.join(empty) == empty
        assert empty.meet(empty) == empty
        assert empty.refines(empty)
        assert (empty | empty).labels == (empty & empty).labels == ()
