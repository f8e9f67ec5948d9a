"""
Permutations of {1..n} in row-form, Coxeter combinatorics, and the
Robinson-Schensted correspondence.

A permutation w is represented by its row-form, the tuple
``(1w, 2w, ..., nw)``.  Permutations act on the right, so the product
``compose(w, v)`` sends i to ``(iw)v``.  The Coxeter generators are the
adjacent transpositions ``s_k = (k, k+1)`` for 1 <= k <= n-1; a word in the
generators is a tuple of such indices and is evaluated left to right.

Standard Young tableaux are represented by their rows, as a tuple of tuples
of entries.
"""
from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from operator import index
from typing import Iterable, Sequence

from .compositions import (
    Composition,
    check_composition,
    partial_sums,
)

Perm = tuple[int, ...]
Word = tuple[int, ...]
Tableau = tuple[tuple[int, ...], ...]


def check_permutation(row_form: Iterable[int]) -> Perm:
    """
    Validate a row-form: a rearrangement of 1..n for some n >= 1.

    >>> check_permutation([2, 1, 3])
    (2, 1, 3)
    >>> check_permutation([1, 1, 2])
    Traceback (most recent call last):
        ...
    ValueError: not a row-form of a permutation of {1..3}: (1, 1, 2)
    """
    try:
        w = tuple(map(index, row_form))
    except TypeError as exc:
        raise ValueError(f"row-form entries must be integers: {exc}") from None
    if not w or sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"not a row-form of a permutation of {{1..{len(w)}}}: {w}")
    return w


def identity(n: int) -> Perm:
    """
    >>> identity(3)
    (1, 2, 3)
    """
    return tuple(range(1, n + 1))


def longest_element(n: int) -> Perm:
    """
    The order-reversing permutation, the longest element of S_n.

    >>> longest_element(4)
    (4, 3, 2, 1)
    """
    return tuple(range(n, 0, -1))


def length(w: Sequence[int]) -> int:
    """
    Coxeter length = number of inversions of the row-form.

    >>> length((1, 2, 3, 4))
    0
    >>> length((4, 3, 2, 1))
    6
    """
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def inverse(w: Sequence[int]) -> Perm:
    """
    >>> inverse((2, 3, 1))
    (3, 1, 2)
    """
    inv = [0] * len(w)
    for i, wi in enumerate(w):
        inv[wi - 1] = i + 1
    return tuple(inv)


def compose(w: Sequence[int], v: Sequence[int]) -> Perm:
    """
    Product under the right-action convention: i(wv) = (iw)v.

    >>> compose((2, 1, 3), (1, 3, 2))
    (3, 1, 2)
    """
    if len(w) != len(v):
        raise ValueError(f"cannot compose permutations of sizes {len(w)} and {len(v)}")
    return tuple(v[wi - 1] for wi in w)


def from_generator_word(n: int, word: Iterable[int]) -> Perm:
    """
    Evaluate a word in the generators, left to right.

    >>> from_generator_word(3, (1, 2))
    (3, 1, 2)
    """
    w = list(identity(n))
    for k in word:
        if not 1 <= k <= n - 1:
            raise ValueError(f"generator index {k} out of range for n={n}")
        # right multiplication by s_k swaps the values k and k+1
        i, j = w.index(k), w.index(k + 1)
        w[i], w[j] = w[j], w[i]
    return tuple(w)


def reduced_word(w: Sequence[int]) -> Word:
    """
    The lexicographically smallest reduced word for w.

    Repeatedly peel the smallest descent k off the left: s_k * (remaining
    suffix) still evaluates to w, and the smallest k gives the lex-least
    word.  Positions left of k stay ascending, so the scan resumes at k-1.

    >>> reduced_word((1, 2, 3))
    ()
    >>> reduced_word((2, 1, 3))
    (1,)
    >>> reduced_word((1, 2, 4, 3))
    (3,)
    >>> from_generator_word(4, reduced_word((3, 1, 4, 2)))
    (3, 1, 4, 2)
    """
    w, word, k = list(w), [], 0
    while k < len(w) - 1:
        if w[k] > w[k + 1]:
            word.append(k + 1)
            w[k], w[k + 1] = w[k + 1], w[k]
            k = max(k - 1, 0)
        else:
            k += 1
    return tuple(word)


def is_prefix(x: Sequence[int], y: Sequence[int]) -> bool:
    """
    Weak right-order test: x is a prefix of y when some reduced word for y
    begins with one for x, equivalently l(x) + l(x^-1 y) = l(y).

    >>> is_prefix((2, 1, 3), (3, 1, 2))
    True
    >>> is_prefix((1, 3, 2), (2, 1, 3))
    False
    """
    if len(x) != len(y):
        raise ValueError("prefix test requires permutations of the same size")
    return length(x) + length(compose(inverse(x), y)) == length(y)


def dot_conjugate(w: Sequence[int]) -> Perm:
    """
    Conjugation by the longest element: w -> w0 w w0.  This is the
    involutive automorphism swapping s_i with s_{n-i}.

    >>> dot_conjugate((1, 3, 2))
    (2, 1, 3)
    >>> dot_conjugate(dot_conjugate((3, 1, 4, 2)))
    (3, 1, 4, 2)
    """
    n = len(w)
    return tuple(n + 1 - w[n - i] for i in range(1, n + 1))


def longest_parabolic_element(parts: Iterable[int]) -> Perm:
    """
    The longest element of the Young subgroup attached to a composition:
    the row-form reverses each consecutive block of positions.

    >>> longest_parabolic_element((2, 1))
    (2, 1, 3)
    >>> longest_parabolic_element((1, 1, 1))
    (1, 2, 3)
    >>> longest_parabolic_element((3,))
    (3, 2, 1)
    """
    sums = partial_sums(parts)
    row: list[int] = []
    for lo, hi in zip(sums, sums[1:]):
        row.extend(range(hi, lo, -1))
    return tuple(row)


def is_coset_rep(e: Sequence[int], parts: Iterable[int]) -> bool:
    """
    True when e is the minimum-length representative of its right coset of
    the Young subgroup of the composition: the row-form must be strictly
    increasing inside every block of positions.

    >>> is_coset_rep((1, 3, 2), (2, 1))
    True
    >>> is_coset_rep((2, 1, 3), (2, 1))
    False
    """
    parts = check_composition(parts)
    if sum(parts) != len(e):
        raise ValueError(f"composition {parts} does not sum to n={len(e)}")
    sums = (0, *accumulate(parts))  # partial_sums would check parts again
    return all(
        e[i] < e[i + 1]
        for lo, hi in zip(sums, sums[1:])
        for i in range(lo, hi - 1)
    )


def _insert(rows: list[list[int]], x: int) -> int:
    """
    Row-insert x into the tableau rows, in place; returns the index of the
    row where the new box lands, which may be a new last row.
    """
    r = 0  # counted by hand: an enumerate per insertion costs more
    for row in rows:
        j = bisect_left(row, x)
        if j == len(row):
            row.append(x)
            return r
        row[j], x = x, row[j]
        r += 1
    rows.append([x])
    return r


def rsk(w: Sequence[int]) -> tuple[Tableau, Tableau]:
    """
    Robinson-Schensted row insertion of the row-form; returns the pair
    (insertion tableau, recording tableau).  Each step records its index
    in the row where ``_insert`` lands the new box.

    >>> rsk((2, 1, 3))
    (((1, 3), (2,)), ((1, 3), (2,)))
    >>> rsk((3, 1, 2))
    (((1, 2), (3,)), ((1, 3), (2,)))
    """
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, x in enumerate(w, start=1):
        r = _insert(p_rows, x)
        if r < len(q_rows):
            q_rows[r].append(step)
        else:
            q_rows.append([step])
    return tuple(map(tuple, p_rows)), tuple(map(tuple, q_rows))


def rsk_inverse(p: Tableau, q: Tableau) -> Perm:
    """
    The row-form with ``rsk`` pair (p, q), for standard tableaux of one
    shape: reverse bumping, from the largest recording entry down.

    >>> rsk_inverse(((1, 2), (3,)), ((1, 3), (2,)))
    (3, 1, 2)
    """
    if [len(row) for row in p] != [len(row) for row in q]:
        raise ValueError("insertion and recording tableaux must have the same shape")
    p_rows = [list(row) for row in p]
    row_of = {step: r for r, row in enumerate(q) for step in row}
    w = [0] * len(row_of)
    for step in range(len(w), 0, -1):
        r = row_of[step]
        x = p_rows[r].pop()
        for row in reversed(p_rows[:r]):
            j = bisect_left(row, x) - 1
            row[j], x = x, row[j]
        w[step - 1] = x
    return tuple(w)


def is_standard_young_tableau(rows: Sequence[Sequence[int]]) -> bool:
    """
    Rows and columns strictly increasing, shape weakly decreasing, entries
    a rearrangement of 1..n.

    >>> is_standard_young_tableau(((1, 3), (2,)))
    True
    >>> is_standard_young_tableau(((1, 2), (2,)))
    False
    """
    if not rows or any(not row for row in rows):
        return False
    lengths = [len(row) for row in rows]
    if any(a < b for a, b in zip(lengths, lengths[1:])):
        return False
    entries = sorted(x for row in rows for x in row)
    if entries != list(range(1, len(entries) + 1)):
        return False
    for row in rows:
        if any(a >= b for a, b in zip(row, row[1:])):
            return False
    for upper, lower in zip(rows, rows[1:]):
        if any(upper[j] >= lower[j] for j in range(len(lower))):
            return False
    return True


def shape(w: Sequence[int]) -> Composition:
    """
    The common shape of the Robinson-Schensted pair of w, as a partition:
    row insertion alone, with no recording tableau.  By Schensted's theorem
    the first row is as long as the longest increasing subsequence of w and
    the row count is the length of the longest decreasing one.

    >>> shape((2, 1, 3))
    (2, 1)
    >>> shape(longest_element(4))
    (1, 1, 1, 1)
    """
    rows: list[list[int]] = []
    for x in w:
        _insert(rows, x)
    return tuple(map(len, rows))
