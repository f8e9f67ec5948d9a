"""
Compositions and partitions of a positive integer.

A composition is represented as a tuple of positive parts; a partition is a
composition whose parts are weakly decreasing.  All compositions here are
proper (no zero parts).  Parts are 1-based everywhere, matching the
convention used for permutation row-forms and diagram coordinates.
"""
from __future__ import annotations

from itertools import accumulate
from operator import index
from typing import Iterable, Iterator

Composition = tuple[int, ...]


def check_composition(parts: Iterable[int]) -> Composition:
    """
    Validate and normalise a composition to a tuple of positive ints;
    parts that are not integers are refused, not truncated.

    >>> check_composition([2, 1])
    (2, 1)
    >>> check_composition([])
    Traceback (most recent call last):
        ...
    ValueError: composition must be nonempty
    """
    try:
        parts = tuple(map(index, parts))
    except TypeError as exc:
        raise ValueError(f"composition parts must be integers: {exc}") from None
    if not parts:
        raise ValueError("composition must be nonempty")
    if any(p < 1 for p in parts):
        raise ValueError(f"composition parts must be positive: {parts}")
    return parts


def is_partition(parts: Iterable[int]) -> bool:
    """
    True if the parts are weakly decreasing (and form a valid composition).

    >>> is_partition((3, 1, 1))
    True
    >>> is_partition((1, 2))
    False
    """
    parts = check_composition(parts)
    return all(a >= b for a, b in zip(parts, parts[1:]))


def check_partition(parts: Iterable[int]) -> Composition:
    parts = check_composition(parts)
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"parts are not weakly decreasing: {parts}")
    return parts


def reverse_composition(parts: Iterable[int]) -> Composition:
    """
    The composition with the parts in the opposite order.

    >>> reverse_composition((2, 3, 1))
    (1, 3, 2)
    """
    return tuple(reversed(check_composition(parts)))


def partial_sums(parts: Iterable[int]) -> Composition:
    """
    The running sums of the parts, starting from 0.

    >>> partial_sums((2, 1))
    (0, 2, 3)
    """
    return (0, *accumulate(check_composition(parts)))


def conjugate(parts: Iterable[int]) -> Composition:
    """
    The conjugate partition: entry i counts the parts that are >= i.

    The conjugate of any composition is a partition, and conjugating twice
    sorts the parts into weakly decreasing order.

    >>> conjugate((4,))
    (1, 1, 1, 1)
    >>> conjugate((1, 2, 2, 1))
    (4, 2)
    >>> conjugate((2, 3, 1))
    (3, 2, 1)
    """
    return _conjugate(check_composition(parts))


def _conjugate(parts: Composition) -> Composition:
    """``conjugate`` of parts already known to form a composition."""
    return tuple(sum(1 for p in parts if p >= i) for i in range(1, max(parts) + 1))


def dominates(nu: Iterable[int], mu: Iterable[int]) -> bool:
    """
    Dominance order on partitions of the same integer: every prefix sum of
    ``nu`` is at most the corresponding prefix sum of ``mu``.

    >>> dominates((1, 1, 1), (3,))
    True
    >>> dominates((2, 2), (3, 1))
    True
    >>> dominates((3, 1), (2, 2))
    False
    """
    nu = check_partition(nu)
    mu = check_partition(mu)
    if sum(nu) != sum(mu):
        raise ValueError(f"partitions of different integers: {nu} vs {mu}")
    acc_nu = acc_mu = 0
    for k in range(max(len(nu), len(mu))):
        acc_nu += nu[k] if k < len(nu) else 0
        acc_mu += mu[k] if k < len(mu) else 0
        if acc_nu > acc_mu:
            return False
    return True


def compositions_of(n: int) -> Iterator[Composition]:
    """
    All 2**(n-1) compositions of n, in lexicographic order.

    >>> list(compositions_of(3))
    [(1, 1, 1), (1, 2), (2, 1), (3,)]
    """
    if n < 1:
        raise ValueError("n must be positive")

    def rec(remaining: int, prefix: list[int]) -> Iterator[Composition]:
        if remaining == 0:
            yield tuple(prefix)
            return
        for p in range(1, remaining + 1):
            prefix.append(p)
            yield from rec(remaining - p, prefix)
            prefix.pop()

    yield from rec(n, [])
