import pytest
from hypothesis import given
from hypothesis import strategies as st

from corewalk.abacus import (
    AbacusDisplay,
    BeadMultiplicities,
    abacus_to_partition,
    bead_multiplicities,
    is_top_aligned,
    partition_to_abacus,
    size_from_bead_multiplicities,
)
from corewalk.partitions import Partition, is_p_core

partitions = st.lists(st.integers(1, 25), max_size=10).map(
    lambda xs: Partition(tuple(sorted(xs, reverse=True)))
)


def test_round_trip_frozen():
    lam = Partition((4, 2, 2, 1, 1))
    disp = partition_to_abacus(lam, 3)
    assert disp.beads == frozenset({1, 2, 4, 5, 8})
    assert abacus_to_partition(disp) == lam


def test_empty_partition_has_empty_display():
    disp = partition_to_abacus(Partition(()), 5)
    assert disp.beads == frozenset()
    assert abacus_to_partition(disp).parts == ()


def test_consecutive_beads_give_all_ones():
    # position 0 is always a gap, so beads at 1..k encode the partition (1^k)
    disp = AbacusDisplay(3, frozenset({1, 2, 3}))
    assert abacus_to_partition(disp).parts == (1, 1, 1)


@given(partitions, st.sampled_from([2, 3, 5, 7]))
def test_round_trip_is_identity(lam, p):
    assert abacus_to_partition(partition_to_abacus(lam, p)) == lam


@given(partitions, st.sampled_from([2, 3, 5, 7]))
def test_top_aligned_iff_p_core(lam, p):
    assert is_top_aligned(partition_to_abacus(lam, p)) == is_p_core(lam, p)


def test_alignment_frozen():
    disp = AbacusDisplay(3, frozenset({1, 2, 4, 5, 8}))
    assert is_top_aligned(disp)
    # bead on runner 0 above a gap in row 1: not top-aligned
    assert not is_top_aligned(AbacusDisplay(3, frozenset({1, 3})))


def test_bead_multiplicities_frozen():
    disp = AbacusDisplay(3, frozenset({1, 2, 4, 5, 8}))
    bm = bead_multiplicities(disp)
    assert bm.b.tolist() == [2, 3]
    assert size_from_bead_multiplicities(bm) == 10


def test_bead_multiplicities_requires_alignment():
    with pytest.raises(ValueError):
        bead_multiplicities(AbacusDisplay(3, frozenset({4})))


@given(st.sampled_from([3, 5, 7]), st.data())
def test_size_formula_matches_materialized_partition(p, data):
    b = data.draw(st.tuples(*[st.integers(0, 6)] * (p - 1)))
    beads = frozenset(
        r + (t - 1) * p for r in range(1, p) for t in range(1, b[r - 1] + 1)
    )
    disp = AbacusDisplay(p, beads)
    assert is_top_aligned(disp)
    lam = abacus_to_partition(disp)
    assert lam.size == size_from_bead_multiplicities(BeadMultiplicities(p, b))
    assert is_p_core(lam, p)


def test_display_validation():
    with pytest.raises(ValueError):
        AbacusDisplay(3, frozenset({0, 1}))
    with pytest.raises(ValueError):
        AbacusDisplay(1, frozenset())


def test_multiplicities_validation():
    with pytest.raises(ValueError):
        BeadMultiplicities(3, (1, 2, 3))
    with pytest.raises(ValueError):
        BeadMultiplicities(3, (1, -1))
