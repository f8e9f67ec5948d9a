import pytest
from hypothesis import given, strategies as st

from klrim.compositions import (
    check_composition,
    check_partition,
    compositions_of,
    conjugate,
    dominates,
    is_partition,
    partial_sums,
    reverse_composition,
)

compositions = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6).map(tuple)
partitions = compositions.map(lambda p: tuple(sorted(p, reverse=True)))


def test_check_composition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_composition(())
    with pytest.raises(ValueError):
        check_composition((2, 0, 1))
    with pytest.raises(ValueError):
        check_partition((1, 2))


def test_check_composition_refuses_non_integers_rather_than_truncating():
    for parts in [(2.7, 1), ("3", " 2"), (2, 1.0), "32"]:
        with pytest.raises(ValueError, match="^composition parts must be integers: "):
            check_composition(parts)
    # anything with __index__ is an integer: bools and int subclasses pass
    assert check_composition([True, 2]) == (1, 2)


def test_partial_sums():
    assert partial_sums((2, 1)) == (0, 2, 3)
    assert partial_sums((5,)) == (0, 5)


def test_conjugate_examples():
    assert conjugate((4,)) == (1, 1, 1, 1)
    assert conjugate((1, 2, 2, 1)) == (4, 2)
    assert conjugate((2, 3, 1)) == (3, 2, 1)


@given(compositions)
def test_conjugate_is_partition_of_same_total(parts):
    conj = conjugate(parts)
    assert is_partition(conj)
    assert sum(conj) == sum(parts)


@given(compositions)
def test_double_conjugate_sorts(parts):
    assert conjugate(conjugate(parts)) == tuple(sorted(parts, reverse=True))


@given(partitions)
def test_conjugate_involutive_on_partitions(parts):
    assert conjugate(conjugate(parts)) == parts


def test_dominance_examples():
    assert dominates((1, 1, 1, 1), (4,))
    assert dominates((2, 2), (3, 1))
    assert not dominates((3, 1), (2, 2))
    with pytest.raises(ValueError):
        dominates((2, 1), (2, 2))


@given(partitions)
def test_dominance_reflexive_and_extremes(parts):
    n = sum(parts)
    assert dominates(parts, parts)
    assert dominates((1,) * n, parts)
    assert dominates(parts, (n,))


@given(partitions, partitions)
def test_dominance_antisymmetric(a, b):
    if sum(a) == sum(b) and dominates(a, b) and dominates(b, a):
        assert a == b


def test_reverse_composition():
    assert reverse_composition((2, 3, 1)) == (1, 3, 2)
    assert reverse_composition((4,)) == (4,)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_compositions_of_counts(n):
    all_parts = list(compositions_of(n))
    assert len(all_parts) == 2 ** (n - 1)
    assert len(set(all_parts)) == len(all_parts)
    assert all(sum(p) == n for p in all_parts)
