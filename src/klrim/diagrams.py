"""
Generalized principal diagrams and their tableau calculus.

A diagram is a finite set of nodes (row, column), 1-based, with every row
1..r and column 1..c occupied.  Filling such a diagram with 1..n by rows
gives the tableau ``row_fill``; filling by columns gives ``column_fill``;
the permutation carrying the first filling to the second is
``w_of_diagram``.  Standard fillings of a diagram biject with the weak-order
prefixes of that permutation, which is what makes diagrams a tool for
producing reduced forms.

A diagram's column reading and its subsequence type, which decides
admissibility, are computed once per diagram and kept on it: one
shape-only Robinson-Schensted insertion, with no recording tableau, serves
both ``subsequence_type`` and ``is_admissible``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import index
from typing import Iterable, Iterator, Sequence

from .compositions import Composition, _conjugate, check_composition, check_partition
from .permutations import Perm, Word, check_permutation, is_coset_rep, length, shape

Node = tuple[int, int]


@dataclass(frozen=True)
class Diagram:
    """An immutable principal diagram; nodes are kept row-major sorted."""

    nodes: tuple[Node, ...]

    def __post_init__(self) -> None:
        try:
            nodes = tuple(sorted((index(r), index(c)) for r, c in self.nodes))
        except TypeError as exc:
            raise ValueError(f"diagram nodes must be pairs of integers: {exc}") from None
        if not nodes:
            raise ValueError("diagram must be nonempty")
        if len(set(nodes)) != len(nodes):
            raise ValueError("diagram nodes must be distinct")
        if any(r < 1 or c < 1 for r, c in nodes):
            raise ValueError("diagram coordinates are 1-based positive")
        # positive rows fill 1..m exactly when m distinct ones reach m; no
        # set of 1..m is built, so a huge coordinate costs nothing
        rows = {r for r, _ in nodes}
        cols = {c for _, c in nodes}
        if len(rows) != max(rows):
            raise ValueError(f"diagram has empty rows: {nodes}")
        if len(cols) != max(cols):
            raise ValueError(f"diagram has empty columns: {nodes}")
        object.__setattr__(self, "nodes", nodes)

    @property
    def size(self) -> int:
        return len(self.nodes)

    @cached_property
    def node_set(self) -> frozenset[Node]:
        return frozenset(self.nodes)

    @cached_property
    def row_count(self) -> int:
        return self.nodes[-1][0]

    @cached_property
    def column_count(self) -> int:
        return max(c for _, c in self.nodes)

    @cached_property
    def row_composition(self) -> Composition:
        counts = [0] * self.row_count
        for r, _ in self.nodes:
            counts[r - 1] += 1
        return tuple(counts)

    @cached_property
    def column_composition(self) -> Composition:
        counts = [0] * self.column_count
        for _, c in self.nodes:
            counts[c - 1] += 1
        return tuple(counts)

    @cached_property
    def column_reading(self) -> Perm:
        """w_D, the column filling read row-major; see ``w_of_diagram``."""
        # a stable sort of the row-major indices by column alone keeps the
        # rows of each column in order
        column_of = [c for _, c in self.nodes]
        by_column = sorted(range(len(column_of)), key=column_of.__getitem__)
        w = [0] * len(column_of)
        for e, i in enumerate(by_column, start=1):
            w[i] = e
        return tuple(w)

    @cached_property
    def subsequence_type(self) -> Composition:
        """The shape of w_J·w_D; see the function ``subsequence_type``."""
        w_d = self.column_reading
        word: list[int] = []
        hi = 0
        for size in self.row_composition:
            lo, hi = hi, hi + size
            word.extend(reversed(w_d[lo:hi]))
        return shape(word)

    def __contains__(self, node: Node) -> bool:
        return node in self.node_set


def young_diagram(parts: Iterable[int]) -> Diagram:
    """
    The left-justified diagram of a partition.

    >>> young_diagram((2, 1)).nodes
    ((1, 1), (1, 2), (2, 1))
    """
    parts = check_partition(parts)
    return Diagram(tuple((i, j) for i, p in enumerate(parts, 1) for j in range(1, p + 1)))


@dataclass(frozen=True)
class DTableau:
    """A bijective filling of a diagram; entries are parallel to the
    row-major node order of the diagram."""

    diagram: Diagram
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            entries = tuple(map(index, self.entries))
        except TypeError as exc:
            raise ValueError(f"tableau entries must be integers: {exc}") from None
        n = self.diagram.size
        if sorted(entries) != list(range(1, n + 1)):
            raise ValueError(f"entries must be a bijection onto 1..{n}: {entries}")
        object.__setattr__(self, "entries", entries)


def row_fill(diagram: Diagram) -> DTableau:
    """Fill the nodes with 1..n by rows (top to bottom, left to right)."""
    return DTableau(diagram, tuple(range(1, diagram.size + 1)))


def column_fill(diagram: Diagram) -> DTableau:
    """Fill the nodes with 1..n by columns (left to right, top to bottom)."""
    return DTableau(diagram, w_of_diagram(diagram))


def w_of_diagram(diagram: Diagram) -> Perm:
    """
    The permutation w with ``act(row_fill(D), w) == column_fill(D)``.

    Because the row filling is the identity labelling, the row-form of w is
    just the column filling read in row-major order: entry i is the rank of
    node i when the nodes are sorted by (column, row).  It is computed once
    per diagram and kept on it, as ``Diagram.column_reading``.

    >>> w_of_diagram(young_diagram((2, 1)))
    (1, 3, 2)
    """
    return diagram.column_reading


def act(tableau: DTableau, w: Sequence[int]) -> DTableau:
    """Replace every entry e by ew."""
    if len(w) != tableau.diagram.size:
        raise ValueError("permutation size must equal the diagram size")
    return DTableau(tableau.diagram, tuple(w[e - 1] for e in tableau.entries))


def is_standard(tableau: DTableau) -> bool:
    """
    True when entries weakly increase towards the south-east: whenever one
    node is componentwise <= another, its entry is smaller.

    With nodes in row-major order, node i precedes node j componentwise for
    i < j exactly when the column of i is <= the column of j.
    """
    nodes = tableau.diagram.nodes
    entries = tableau.entries
    n = len(nodes)
    for i in range(n):
        ci, ei = nodes[i][1], entries[i]
        for j in range(i + 1, n):
            if nodes[j][1] >= ci and entries[j] < ei:
                return False
    return True


def is_special(diagram: Diagram) -> bool:
    """
    True when the diagram is a row/column rearrangement of a Young diagram:
    for any two nodes (i, j), (i', j') in distinct rows and columns, one of
    the crossing positions (i', j), (i, j') is also a node.

    Both crossing positions are missing exactly when the column sets of rows
    i and i' are incomparable, so the diagram is special exactly when the
    rows' column sets, sorted by size, each lie inside the next.

    >>> is_special(young_diagram((2, 2, 1)))
    True
    >>> is_special(Diagram(((1, 2), (2, 1))))
    False
    """
    # each row's column set as a bitmask; the last node's row is the row count
    rows = [0] * diagram.nodes[-1][0]
    for r, c in diagram.nodes:
        rows[r - 1] |= 1 << c
    rows.sort(key=int.bit_count)
    return all(a & b == a for a, b in zip(rows, rows[1:]))


def rotate180(diagram: Diagram) -> Diagram:
    """
    Rotate the diagram half a turn; row and column compositions reverse.

    >>> rotate180(young_diagram((2, 1))).nodes
    ((1, 2), (2, 1), (2, 2))
    """
    r, c = diagram.row_count, diagram.column_count
    return Diagram(tuple((r + 1 - i, c + 1 - j) for i, j in diagram.nodes))


def diagram_from_element(d: Sequence[int], parts: Iterable[int]) -> Diagram:
    """
    The canonical diagram attached to a coset representative d and a
    composition: split the row-form of d into blocks of the given sizes,
    one block per row, then push entries right as little as possible so
    that reading the result by columns gives 1..n.  Among all diagrams with
    the given row composition whose column reading reproduces d, this one
    has the fewest columns.

    >>> diagram_from_element((1, 3, 2), (2, 1)).nodes
    ((1, 1), (1, 2), (2, 1))
    >>> diagram_from_element((1, 2, 3, 4), (2, 2)).nodes
    ((1, 1), (1, 2), (2, 2), (2, 3))
    """
    d = check_permutation(d)
    parts = check_composition(parts)
    # is_coset_rep also refuses parts that do not sum to n
    if not is_coset_rep(d, parts):
        raise ValueError(f"{d} is not a minimal coset representative for {parts}")
    return _diagram_from_element(d, parts)


def _diagram_from_element(d: Perm, parts: Composition) -> Diagram:
    """
    ``diagram_from_element`` without validating its input, for coset
    representatives a search has just produced; the column reading is still
    checked against d.
    """
    sums = (0, *accumulate(parts))  # partial_sums would check parts again
    row_of = [0] * (len(d) + 1)
    for r, (lo, hi) in enumerate(zip(sums, sums[1:]), start=1):
        for pos in range(lo, hi):
            row_of[d[pos]] = r

    last_col = [0] * (len(parts) + 1)
    nodes: list[Node] = []
    prev_col = 0
    prev_row = 0
    for e in range(1, len(d) + 1):
        r = row_of[e]
        c = max(last_col[r] + 1, prev_col)
        if c == prev_col and r <= prev_row:
            c += 1
        nodes.append((r, c))
        last_col[r] = c
        prev_col, prev_row = c, r

    result = Diagram(tuple(nodes))
    if w_of_diagram(result) != d:
        raise RuntimeError("column reading must reproduce the input")
    return result


def standard_tableaux(diagram: Diagram) -> Iterator[DTableau]:
    """
    All standard fillings of the diagram, i.e. the linear extensions of the
    componentwise order on its nodes.  Deterministic order: at each step the
    smallest available row-major node receives the next entry first.
    """
    nodes = diagram.nodes
    n = len(nodes)
    preds = []
    for i, (r, c) in enumerate(nodes):
        mask = 0
        for j, (r2, c2) in enumerate(nodes):
            if j != i and r2 <= r and c2 <= c:
                mask |= 1 << j
        preds.append(mask)

    entries = [0] * n

    def rec(placed: int, step: int) -> Iterator[DTableau]:
        if step > n:
            yield DTableau(diagram, tuple(entries))
            return
        for i in range(n):
            bit = 1 << i
            if not placed & bit and preds[i] & ~placed == 0:
                entries[i] = step
                yield from rec(placed | bit, step + 1)
        # entries[i] is overwritten on the next branch; no cleanup needed

    return rec(0, 1)


def prefixes_of_wd(diagram: Diagram) -> Iterator[Perm]:
    """
    The weak-order prefixes of ``w_of_diagram(diagram)``: u is a prefix
    exactly when acting with u on the row filling gives a standard tableau,
    and that image tableau has entries equal to the row-form of u.
    """
    for tableau in standard_tableaux(diagram):
        yield tuple(tableau.entries)


def complete_prefix(u: Sequence[int], diagram: Diagram) -> Word:
    """
    A word (k_1, ..., k_m) of generator indices with
    ``u s_{k_1} ... s_{k_m} == w_of_diagram(diagram)``, every step raising
    the length by one.  Each step applies the smallest k whose entry k+1
    currently sits in a strictly smaller column than k.

    >>> complete_prefix((1, 2, 3), young_diagram((2, 1)))
    (2,)
    """
    u = check_permutation(u)
    if len(u) != diagram.size:
        raise ValueError("permutation size must equal the diagram size")
    tableau = act(row_fill(diagram), u)
    if not is_standard(tableau):
        raise ValueError(f"the image of the row filling under {u} is not standard")

    target = w_of_diagram(diagram)
    n = diagram.size
    current = list(u)
    # node index holding each value
    pos = [0] * (n + 1)
    for i, e in enumerate(current):
        pos[e] = i
    cols = [c for _, c in diagram.nodes]

    word: list[int] = []
    while tuple(current) != target:
        for k in range(1, n):
            if cols[pos[k + 1]] < cols[pos[k]]:
                i, j = pos[k], pos[k + 1]
                current[i], current[j] = current[j], current[i]
                pos[k], pos[k + 1] = j, i
                word.append(k)
                break
        else:
            raise RuntimeError("standard non-final tableau must admit a raising step")
    if len(word) != length(target) - length(u):
        raise RuntimeError("every step of the completion must raise the length by one")
    return tuple(word)


def subsequence_type(diagram: Diagram) -> Composition:
    """
    The partition whose k-th prefix sum is the maximum number of nodes
    coverable by k disjoint paths, computed as the Robinson-Schensted
    shape of the associated permutation w_J·w_D.  Left multiplication by
    w_J, the longest element of the row composition's Young subgroup,
    reverses each row's block of the row-form of w_D = ``w_of_diagram``.
    The shape comes from row insertion alone, once per diagram: it is kept
    on the diagram, and ``is_admissible`` reads the same value.

    >>> subsequence_type(young_diagram((2, 2)))
    (2, 2)
    >>> subsequence_type(Diagram(((1, 2), (2, 1))))
    (1, 1)
    """
    return diagram.subsequence_type


def is_admissible(diagram: Diagram) -> bool:
    """
    True when the subsequence type is the conjugate of the row composition,
    the largest value the dominance order allows.

    >>> is_admissible(young_diagram((3, 1)))
    True
    >>> is_admissible(Diagram(((1, 2), (2, 1))))
    False
    """
    return diagram.subsequence_type == _conjugate(diagram.row_composition)
