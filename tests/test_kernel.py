"""Unit tests for the low-level partition kernel."""

import pytest

from repro.partitions import kernel


class TestCanonical:
    def test_already_canonical(self):
        assert kernel.canonical((0, 1, 0, 2)) == (0, 1, 0, 2)

    def test_renumbering(self):
        assert kernel.canonical((5, 3, 5, 9)) == (0, 1, 0, 2)

    def test_empty(self):
        assert kernel.canonical(()) == ()

    def test_is_canonical(self):
        assert kernel.is_canonical((0, 0, 1, 2))
        assert not kernel.is_canonical((1, 0))
        assert not kernel.is_canonical((0, 2))
        assert not kernel.is_canonical((0, -1))


class TestConstructors:
    def test_identity(self):
        assert kernel.identity(4) == (0, 1, 2, 3)

    def test_one_block(self):
        assert kernel.one_block(3) == (0, 0, 0)
        assert kernel.one_block(0) == ()

    def test_from_pairs(self):
        assert kernel.from_pairs(5, [(0, 2), (2, 4)]) == (0, 1, 0, 2, 0)

    def test_from_blocks(self):
        assert kernel.from_blocks(5, [[1, 3], [0, 4]]) == (0, 1, 2, 1, 0)

    def test_from_blocks_overlap_closes(self):
        assert kernel.from_blocks(4, [[0, 1], [1, 2]]) == (0, 0, 0, 1)


class TestLatticeOps:
    def test_join_basic(self):
        a = (0, 0, 1, 2)
        b = (0, 1, 1, 2)
        assert kernel.join(a, b) == (0, 0, 0, 1)

    def test_join_with_identity_is_noop(self):
        a = (0, 1, 0, 2)
        assert kernel.join(a, kernel.identity(4)) == a

    def test_meet_basic(self):
        a = (0, 0, 1, 1)
        b = (0, 1, 1, 1)
        assert kernel.meet(a, b) == (0, 1, 2, 2)

    def test_meet_with_one_block_is_noop(self):
        a = (0, 1, 0, 2)
        assert kernel.meet(a, kernel.one_block(4)) == a

    def test_refines(self):
        fine = (0, 1, 2, 3)
        coarse = (0, 0, 1, 1)
        assert kernel.refines(fine, coarse)
        assert not kernel.refines(coarse, fine)
        assert kernel.refines(coarse, coarse)

    def test_meet_is_identity(self):
        assert kernel.meet_is_identity((0, 0, 1, 1), (0, 1, 0, 1))
        assert not kernel.meet_is_identity((0, 0, 1, 1), (0, 0, 1, 1))


class TestBlocks:
    def test_blocks(self):
        assert kernel.blocks((0, 1, 0, 2)) == ((0, 2), (1,), (3,))

    def test_num_blocks(self):
        assert kernel.num_blocks((0, 1, 0, 2)) == 3
        assert kernel.num_blocks(()) == 0

    def test_related(self):
        labels = (0, 1, 0)
        assert kernel.related(labels, 0, 2)
        assert not kernel.related(labels, 0, 1)


class TestAllPartitions:
    @pytest.mark.parametrize(
        "n,bell", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)]
    )
    def test_counts_are_bell_numbers(self, n, bell):
        partitions = list(kernel.all_partitions(n))
        assert len(partitions) == bell
        assert len(set(partitions)) == bell

    def test_all_canonical(self):
        for labels in kernel.all_partitions(5):
            assert kernel.is_canonical(labels)

    def test_contains_extremes(self):
        partitions = set(kernel.all_partitions(4))
        assert kernel.identity(4) in partitions
        assert kernel.one_block(4) in partitions


class TestMachineOperators:
    # delta for a 4-state machine with 2 inputs:
    #   succ[s][i]
    SUCC = ((2, 0), (1, 3), (0, 2), (3, 1))

    def test_m_operator_definition(self):
        # pi = {{0,1},{2},{3}} -> m must relate successors of 0 and 1.
        pi = (0, 0, 1, 2)
        result = kernel.m_operator(self.SUCC, pi)
        # successors: input0: (2,1); input1: (0,3) -> closure {1,2},{0,3}
        assert result == kernel.from_pairs(4, [(2, 1), (0, 3)])

    def test_m_of_identity_is_identity(self):
        assert kernel.m_operator(self.SUCC, kernel.identity(4)) == kernel.identity(4)

    def test_big_m_definition(self):
        theta = (0, 0, 1, 1)  # {{0,1},{2,3}}
        result = kernel.big_m_operator(self.SUCC, theta)
        # signatures: s0 -> (2,0) -> (1,0); s1 -> (1,3) -> (0,1);
        # s2 -> (0,2) -> (0,1); s3 -> (3,1) -> (1,0)
        assert kernel.related(result, 0, 3)
        assert kernel.related(result, 1, 2)
        assert not kernel.related(result, 0, 1)

    def test_is_pair_accepts_m_construction(self):
        pi = (0, 0, 1, 2)
        theta = kernel.m_operator(self.SUCC, pi)
        assert kernel.is_pair(self.SUCC, pi, theta)

    def test_is_pair_rejects_too_fine_second(self):
        pi = (0, 0, 1, 2)
        assert not kernel.is_pair(self.SUCC, pi, kernel.identity(4))

    def test_is_pair_monotone_in_second(self):
        pi = (0, 0, 1, 2)
        theta = kernel.m_operator(self.SUCC, pi)
        assert kernel.is_pair(self.SUCC, pi, kernel.one_block(4))
        assert kernel.is_pair(self.SUCC, pi, theta)

    def test_big_m_gives_pair(self):
        theta = (0, 0, 1, 1)
        pi = kernel.big_m_operator(self.SUCC, theta)
        assert kernel.is_pair(self.SUCC, pi, theta)

    def test_symmetric_pair_check(self):
        # identity with anything coarse is a pair; symmetric only if the
        # coarse one maps back.
        assert kernel.is_symmetric_pair(
            self.SUCC, kernel.identity(4), kernel.identity(4)
        )
