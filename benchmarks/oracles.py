"""
Independent reference computations the benchmark checks program output
against.  Nothing here imports klrim: each fact is recomputed from its
definition so that a defect in the library cannot hide in its own check.
"""
from __future__ import annotations

import time
from math import factorial
from typing import Iterable, Sequence

Node = tuple[int, int]


def conjugate(parts: Iterable[int]) -> tuple[int, ...]:
    """Entry j counts the parts that are >= j, so sorting is implied."""
    parts = list(parts)
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, max(parts) + 1))


def cell_size(parts: Sequence[int]) -> int:
    """
    f^{lambda'} by the Frame-Robinson-Thrall hook-length formula, where
    lambda' is the conjugate of the sorted parts: the right cell of w_J has
    one element per standard Young tableau of that shape.
    """
    shape = conjugate(parts)
    columns = conjugate(shape)
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j) + (columns[j] - i) - 1
    return factorial(sum(shape)) // hooks


def evaluate_word(n: int, word: Sequence[int]) -> tuple[int, ...]:
    """The row-form of s_{k1} s_{k2} ... applied on the right, one value swap per letter."""
    row = list(range(1, n + 1))
    pos = list(range(-1, n))  # pos[v] = index of value v in row
    for k in word:
        if not 1 <= k < n:
            raise ValueError(f"generator {k} out of range for n={n}")
        i, j = pos[k], pos[k + 1]
        row[i], row[j] = k + 1, k
        pos[k], pos[k + 1] = j, i
    return tuple(row)


def inversions(row: Sequence[int]) -> int:
    n = len(row)
    return sum(1 for i in range(n) for j in range(i + 1, n) if row[i] > row[j])


def longest_parabolic(parts: Sequence[int]) -> tuple[int, ...]:
    """w_J: the row-form reversing each block of consecutive positions."""
    row: list[int] = []
    start = 0
    for p in parts:
        row.extend(range(start + p, start, -1))
        start += p
    return tuple(row)


def rim_size_of_cell(parts: Sequence[int], rows: Iterable[Sequence[int]]) -> int:
    """
    The number of prefix-maximal elements of Z, read off the cell: with
    e = w_J^{-1} w for every cell element w, count the e that no ascent
    s_k extends inside Z.
    """
    w_j = longest_parabolic(parts)  # an involution
    zone = {tuple(row[w_j[i] - 1] for i in range(len(w_j))) for row in rows}
    maximal = 0
    for e in zone:
        pos = [0] * (len(e) + 1)
        for i, v in enumerate(e):
            pos[v] = i
        extendable = False
        for k in range(1, len(e)):
            if pos[k] < pos[k + 1]:
                up = list(e)
                up[pos[k]], up[pos[k + 1]] = k + 1, k
                if tuple(up) in zone:
                    extendable = True
                    break
        maximal += not extendable
    return maximal


def is_path(path: Sequence[Node]) -> bool:
    """Rows strictly increase and columns weakly increase along the path."""
    return all(a1 < a2 and b1 <= b2 for (a1, b1), (a2, b2) in zip(path, path[1:]))


def precedes(first: Iterable[Node], second: Iterable[Node]) -> bool:
    """Every node of ``first`` in a row at or above a node of ``second`` lies in a smaller column."""
    second = list(second)
    return all(b1 < b2 for a1, b1 in first for a2, b2 in second if a1 <= a2)


def is_ordered(paths: Sequence[Sequence[Node]]) -> bool:
    return all(
        precedes(paths[i], paths[j])
        for i in range(len(paths))
        for j in range(i + 1, len(paths))
    )


def longest_path(nodes: Iterable[Node]) -> int:
    """The most nodes one path can cover: a longest chain by dynamic programming."""
    nodes = sorted(nodes)
    best = []
    for i, (a, b) in enumerate(nodes):
        best.append(1 + max(
            (best[j] for j, (a2, b2) in enumerate(nodes[:i]) if a2 < a and b2 <= b),
            default=0,
        ))
    return max(best)


def reference_loop_s() -> float:
    """Seconds for a fixed pure-Python loop: a probe of machine speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start
