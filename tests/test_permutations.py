from itertools import combinations, permutations as all_perms

import pytest
from hypothesis import given, strategies as st

from klrim.permutations import (
    check_permutation,
    compose,
    dot_conjugate,
    from_generator_word,
    identity,
    inverse,
    is_coset_rep,
    is_prefix,
    is_standard_young_tableau,
    length,
    longest_element,
    longest_parabolic_element,
    reduced_word,
    rsk,
    rsk_inverse,
    shape,
)
from klrim.compositions import compositions_of

from support import restart_reduced_word

perms = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(tuple)
)


def everything(n):
    return (tuple(p) for p in all_perms(range(1, n + 1)))


def test_check_permutation():
    assert check_permutation([2, 1, 3]) == (2, 1, 3)
    with pytest.raises(ValueError):
        check_permutation([0, 1])
    with pytest.raises(ValueError):
        check_permutation([])


def test_check_permutation_refuses_non_integers_rather_than_truncating():
    for row_form in [(2.9, 1.2), (2.0, 1.0), ("2", "1")]:
        with pytest.raises(ValueError, match="^row-form entries must be integers: "):
            check_permutation(row_form)


def test_length_examples():
    assert length(identity(4)) == 0
    assert length((2, 1, 3)) == 1
    assert length(longest_element(4)) == 6


def test_compose_examples():
    w = (2, 1, 3)
    assert compose(w, identity(3)) == w
    assert compose(w, w) == identity(3)
    assert compose((2, 1, 3), (1, 3, 2)) == (3, 1, 2)
    with pytest.raises(ValueError):
        compose((1, 2), (1, 2, 3))


def test_reduced_word_examples():
    assert reduced_word(identity(4)) == ()
    assert reduced_word((2, 1, 3)) == (1,)
    assert reduced_word((1, 2, 4, 3)) == (3,)


def test_length_equals_inversions_equals_word_length_exhaustive():
    # exhaustive through S_7
    for n in range(1, 8):
        for w in everything(n):
            assert length(w) == len(reduced_word(w))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_reduced_word_evaluates_back(n):
    for w in everything(n):
        assert from_generator_word(n, reduced_word(w)) == w


def _all_reduced_words(w):
    if length(w) == 0:
        yield ()
        return
    for k in range(1, len(w)):
        if w[k - 1] > w[k]:  # position descent: s_k can start a reduced word
            rest = list(w)
            rest[k - 1], rest[k] = rest[k], rest[k - 1]
            for tail in _all_reduced_words(tuple(rest)):
                yield (k,) + tail


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reduced_word_is_lexicographically_least(n):
    for w in everything(n):
        assert reduced_word(w) == min(_all_reduced_words(w))


@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.permutations(range(1, n + 1)).map(tuple)
    )
)
def test_reduced_word_matches_the_restarting_scan(w):
    assert reduced_word(w) == restart_reduced_word(w)


def test_prefix_examples():
    for w in everything(4):
        assert is_prefix(identity(4), w)
    assert is_prefix((2, 1, 3), (3, 1, 2))  # s_1 begins s_1 s_2
    assert not is_prefix((1, 3, 2), (2, 1, 3))


def test_prefix_order_properties_exhaustive():
    for n in (3, 4):
        for x in everything(n):
            assert is_prefix(x, x)
            for y in everything(n):
                if is_prefix(x, y):
                    assert length(x) <= length(y)
                    if is_prefix(y, x):
                        assert x == y


@given(perms)
def test_prefix_via_reduced_word_truncation(w):
    word = reduced_word(w)
    for cut in range(len(word) + 1):
        assert is_prefix(from_generator_word(len(w), word[:cut]), w)


def test_longest_parabolic_element_examples():
    assert longest_parabolic_element((2, 1)) == (2, 1, 3)
    assert longest_parabolic_element((1, 1, 1, 1)) == identity(4)
    assert longest_parabolic_element((4,)) == longest_element(4)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_longest_parabolic_blockwise(n):
    for parts in compositions_of(n):
        w = longest_parabolic_element(parts)
        assert length(w) == sum(p * (p - 1) // 2 for p in parts)
        offset = 0
        for p in parts:
            block = w[offset : offset + p]
            assert block == tuple(range(offset + p, offset, -1))
            offset += p


def test_is_coset_rep_examples():
    assert is_coset_rep(identity(3), (2, 1))
    assert is_coset_rep((1, 3, 2), (2, 1))
    assert not is_coset_rep((2, 1, 3), (2, 1))
    with pytest.raises(ValueError):
        is_coset_rep((1, 2, 3), (2, 2))


def test_rsk_examples():
    assert rsk(identity(3)) == (((1, 2, 3),), ((1, 2, 3),))
    assert rsk((2, 1, 3)) == (((1, 3), (2,)), ((1, 3), (2,)))
    assert rsk((3, 1, 2)) == (((1, 2), (3,)), ((1, 3), (2,)))


def test_recording_tableau_is_insertion_of_inverse_exhaustive():
    # exhaustive through S_6
    for n in range(1, 7):
        for w in everything(n):
            assert rsk(w)[1] == rsk(inverse(w))[0]


@given(perms)
def test_rsk_produces_standard_tableaux(w):
    p, q = rsk(w)
    assert is_standard_young_tableau(p)
    assert is_standard_young_tableau(q)
    assert tuple(len(r) for r in p) == tuple(len(r) for r in q)


@given(perms)
def test_rsk_inverse_undoes_rsk(w):
    assert rsk_inverse(*rsk(w)) == w


def test_rsk_inverse_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        rsk_inverse(((1, 2),), ((1,), (2,)))


def test_is_standard_young_tableau_rejects():
    assert not is_standard_young_tableau(((1, 2), (2,)))
    assert not is_standard_young_tableau(((2, 1),))
    assert not is_standard_young_tableau(((1,), (2, 3)))


def test_shape_examples():
    assert shape(identity(5)) == (5,)
    assert shape(longest_element(5)) == (1, 1, 1, 1, 1)
    assert shape((2, 1, 3)) == (2, 1)


@given(perms)
def test_shape_invariant_under_inverse(w):
    assert shape(w) == shape(inverse(w))


def _longest_monotone_subsequence(w, increasing):
    """Brute force over every subsequence of w, longest first."""
    for size in range(len(w), 1, -1):
        for picked in combinations(w, size):
            if all((a < b) == increasing for a, b in zip(picked, picked[1:])):
                return size
    return 1


@given(st.integers(1, 10).flatmap(lambda n: st.permutations(range(1, n + 1)).map(tuple)))
def test_shape_follows_schensted(w):
    rows = shape(w)
    assert sum(rows) == len(w)
    assert list(rows) == sorted(rows, reverse=True)
    assert rows[0] == _longest_monotone_subsequence(w, increasing=True)
    assert len(rows) == _longest_monotone_subsequence(w, increasing=False)


def test_dot_conjugate():
    assert dot_conjugate(identity(4)) == identity(4)
    assert dot_conjugate((1, 3, 2)) == (2, 1, 3)
    for w in everything(4):
        assert dot_conjugate(dot_conjugate(w)) == w
        assert length(dot_conjugate(w)) == length(w)
