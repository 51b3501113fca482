import pytest
from hypothesis import given
from hypothesis import strategies as st

from corewalk.partitions import (
    Partition,
    conjugate,
    format_partition,
    hook_lengths,
    is_p_core,
    is_p_regular,
)

partitions = st.lists(st.integers(1, 30), max_size=12).map(
    lambda xs: Partition(tuple(sorted(xs, reverse=True)))
)


def test_partition_basics():
    lam = Partition((4, 2, 2, 1, 1))
    assert lam.size == 10
    assert len(lam) == 5
    assert Partition(()).size == 0


def test_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition((2, 3))
    with pytest.raises(ValueError):
        Partition((3, 0))
    with pytest.raises(ValueError):
        Partition((3, -1))
    with pytest.raises(TypeError):
        Partition(("3", "1"))


def test_partition_coerces_sequences():
    assert Partition([3, 1]).parts == (3, 1)


def test_conjugate_frozen():
    assert conjugate(Partition((4, 2, 2, 1, 1))).parts == (5, 3, 1, 1)
    assert conjugate(Partition(())).parts == ()
    assert conjugate(Partition((1, 1, 1))).parts == (3,)


@given(partitions)
def test_conjugate_is_an_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert conjugate(lam).size == lam.size


def test_hook_lengths_frozen():
    assert list(hook_lengths(Partition((4, 2, 2, 1, 1)))) == [8, 5, 2, 1, 5, 2, 4, 1, 2, 1]
    assert list(hook_lengths(Partition((1,)))) == [1]
    assert list(hook_lengths(Partition(()))) == []


@given(partitions)
def test_hook_lengths_shape(lam):
    hooks = list(hook_lengths(lam))
    assert len(hooks) == lam.size
    assert all(h >= 1 for h in hooks)
    # first-row, first-column hook is the largest
    if lam.parts:
        assert hooks[0] == max(hooks)
        assert hooks[0] == lam.parts[0] + len(lam) - 1


@given(partitions)
def test_hook_multiset_is_conjugation_invariant(lam):
    assert sorted(hook_lengths(lam)) == sorted(hook_lengths(conjugate(lam)))


def test_is_p_core_frozen():
    assert is_p_core(Partition((4, 2, 2, 1, 1)), 3)
    assert not is_p_core(Partition((2, 1)), 3)
    assert not is_p_core(Partition((4,)), 3)
    assert is_p_core(Partition((2, 1, 1)), 3)
    assert is_p_core(Partition(()), 7)


def test_is_p_regular_frozen():
    assert is_p_regular(Partition((4, 2)), 3)
    assert not is_p_regular(Partition((3, 1)), 3)
    assert is_p_regular(Partition(()), 2)
    assert not is_p_regular(Partition((10, 5)), 5)


@given(partitions, st.sampled_from([2, 3, 5, 7]))
def test_is_p_core_matches_hook_scan(lam, p):
    assert is_p_core(lam, p) == all(h % p for h in hook_lengths(lam))


@given(partitions)
def test_format_parse_round_trip(lam):
    text = format_partition(lam)
    assert Partition(tuple(int(part) for part in text.split(",")) if text else ()) == lam


def test_format_partition_frozen():
    assert format_partition(Partition((4, 2, 2, 1, 1))) == "4,2,2,1,1"
    assert format_partition(Partition(())) == ""
    assert format_partition(Partition((7,))) == "7"
