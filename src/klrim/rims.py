"""
Rims of the right cells attached to compositions.

For a composition of n, the right cell containing the longest element of
the associated Young subgroup consists of the products w_J * e where e runs
over a prefix-closed set of minimal coset representatives.  The *rim* is
the set of prefix-maximal elements of that set; knowing it gives reduced
forms for the entire cell by concatenation.  This module finds rims two
ways: a search for the elements of Z with no one-generator extension
inside Z; and closed-form constructions for the composition families where
the rim is known explicitly.  ``verify_theorems`` diffs the two engines.

Z holds the minimal coset representatives e with Q(w_J e) = Q(w_J); by the
characterization the diagram calculus rests on, e lies in Z exactly when
``is_admissible(diagram_from_element(e, λ))``.

A ``RimResult`` stores only the canonical diagrams of the rim; elements and
flags are read off them.  Each closed family is built once, as written; the
rim of a reversed member is the half-turn of the reverse's rim.

Both searches walk the Robinson-Schensted fiber {v : Q(v) = Q(w_J)} =
w_J Z by reverse-bumping Q(w_J), whose rows ``_q_rows`` reads off the
blocks of the composition.  The walk below a step depends on the tableau
left alone, and the two searches revisit tableaux at very different
rates, so they walk two ways.  A cell revisits a few tableaux very often:
the 628,357 steps above the last three of the cell of (3,1,2,4,1,3,2)
reach 514 tableaux.  So ``_tableaux`` builds the walk once per cell, a
level at a time, as a DAG of the tableaux left, and the cell walks it,
with every code entry made once per edge.  ``rim_search`` cuts its walks
early and visits most tableaux once or twice: ``verify all --max-n 8``
makes 16,743 steps over 5,724 tableaux.  It keeps the bump walk
``_fiber``, which calls one callback at every step and keeps nothing per
shape; its live rows are what an in-walk probe would read.

The cell's walk records every element as one str: the key, l(e) and e
with one character per entry, so the records sort as (l(e), e) by plain
string comparison; then the text of the values of w_J e and of the
lex-least reduced word of e.  Each DAG edge holds the slots its step
writes and the text of its run of generators, so a step only stores.
``_cell`` hands each record out cut after its key, so its readers see
only the values, a mark where w_J's word goes, and the word of e:
``klrim cell`` spells the numbers in decimal and puts in the word,
``cell_elements`` spells them as one character each and splits at the
mark.  A cell past a record budget is walked once per band of lengths,
each walk over a cut of the DAG that keeps only the edges with an
element in its band; the lengths are counted, and the cuts made, a
level at a time off the DAG, so the records held stay within about the
budget, however large the cell, for no walk more than the bands.

``rim_search`` cuts every subtree whose elements a dual Knuth move shows
to have an extension inside Z, and tests the leaves that survive exactly,
by an insertion that stops at the first box landing in another row than
in Q(w_J); it never holds Z and runs no RSK.  The cell size needs no
search: it is f^{λ'}, the number of standard tableaux of the shape of
Q(w_J), by the hook-length formula.
"""
from __future__ import annotations

import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations
from math import comb, factorial, prod
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .compositions import (
    Composition,
    check_composition,
    compositions_of,
    conjugate,
    is_partition,
    reverse_composition,
)
from .diagrams import (
    Diagram,
    _diagram_from_element,
    is_admissible,
    is_special,
    rotate180,
    w_of_diagram,
    young_diagram,
)
from .permutations import (
    Perm,
    Word,
    _insert,
    longest_parabolic_element,
)

DEFAULT_SEARCH_BOUND = 10
_MAX_RECORD_N = 1492  # see _check_record_range
# the most records _cell holds at a time, but for a single length that holds
# more: an n = 18 record of JSON text takes about 270 B, so 450,000 of them
# about 120 MB.  A cell just past the budget is two band walks where one
# walk would do: `klrim cell` on the 500,500 elements of (1,2,4,2,3,4)
# took 0.97-1.08 s, against 0.75-0.77 s for the 416,988 of (3,1,2,4,1,3,2)
# in one walk (2 cores, JSON to a pipe; 1.15-1.22 and 0.87-0.94 s when a
# step made its slots and run)
_RECORD_BUDGET = 450_000

THEOREMS = ("T2.16a", "T3.5a", "T3.7a", "T3.15a", "C3.16a", "P3.2a")

# place(s, x, i) -> whether the walk goes below step s; see _fiber
Place = Callable[[int, int, int], bool]


class SearchBoundExceeded(ValueError):
    """Raised when a search is requested past the configured bound."""


@dataclass(frozen=True)
class RimResult:
    """
    The rim of one cell, stored as the canonical diagrams of its elements:
    ``rim`` holds their column readings ``w_of_diagram`` and ``special``
    their ``is_special`` flags, both derived on first use.  Diagrams are
    sorted by row-form, so results compare and serialize deterministically;
    the constructor takes them in any order, from any iterable.
    """

    composition: Composition
    diagrams: tuple[Diagram, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "composition", check_composition(self.composition))
        object.__setattr__(self, "diagrams", tuple(sorted(self.diagrams, key=w_of_diagram)))

    @cached_property
    def rim(self) -> tuple[Perm, ...]:
        return tuple(map(w_of_diagram, self.diagrams))

    @cached_property
    def special(self) -> tuple[bool, ...]:
        return tuple(map(is_special, self.diagrams))

    @property
    def rim_size(self) -> int:
        return len(self.diagrams)

    @property
    def special_count(self) -> int:
        return sum(self.special)


def check_search_bound(n: int, bound: int | None) -> int:
    """
    n, after refusing an n past ``bound`` (by default
    ``DEFAULT_SEARCH_BOUND``) with SearchBoundExceeded.
    """
    bound = DEFAULT_SEARCH_BOUND if bound is None else bound
    if n > bound:
        raise SearchBoundExceeded(
            f"n={n} exceeds the search bound {bound}; raise the bound explicitly"
        )
    return n


def _too_deep(n: int) -> SearchBoundExceeded:
    """The refusal of a walk of n steps that runs into Python's recursion limit."""
    return SearchBoundExceeded(
        f"n={n} exceeds the depth that the recursive fiber walk can reach "
        f"under Python's recursion limit {sys.getrecursionlimit()}"
    )


def _check_depth(n: int) -> int:
    """
    n, after refusing, before any work, a cell whose listing walk ``_zone``,
    a frame per step, would run into Python's recursion limit.  A probe of
    n + 5 frames leaves the walk a margin and refuses where ``rim`` does,
    from (987,) under the default limit.
    """
    try:
        _probe(n + 4)
    except RecursionError:
        raise _too_deep(n) from None
    return n


def _probe(s: int) -> None:  # s + 1 frames deep
    if s:
        _probe(s - 1)


def _q_rows(parts: Composition) -> tuple[list[list[int]], list[int]]:
    """
    The rows of Q(w_J), written with the values 0..n-1, and the slot table:
    slot[x] = w_J(x+1) - 1, the position in e of the value placed at
    position x of v = w_J e, w_J being an involution.

    Q(w_J) needs no insertion: row r holds the (r+1)-th position of every
    block longer than r.  w_J lists each block in decreasing order, above
    every value before the block, so the block's (j+1)-th value bumps its
    j earlier values down one row each and lands in row j.
    """
    starts = list(accumulate(parts, initial=0))
    rows = [[a + r for a, p in zip(starts, parts) if p > r] for r in range(max(parts))]
    return rows, [x - 1 for x in longest_parabolic_element(parts)]


def _fiber(parts: Composition) -> Callable[[Place], None]:
    """
    A depth-first walk of the Robinson-Schensted fiber {v : Q(v) = Q(w_J)},
    the elements w_J e for e in Z: ``walk(place)`` calls ``place(s, x, i)``
    after each ejection, at every step s = n, ..., 1, and goes below step s
    only when it returns true.  ``rim_search``, its one caller, checks the
    bound on n before it asks for the walk.  The walk recurses once per
    step; one that runs into Python's recursion limit is refused with
    SearchBoundExceeded, before its caller has written anything.

    The fiber holds the inverses of {u : P(u) = Q(w_J)} (Schützenberger's
    symmetry P(v^-1) = Q(v)), so the walk reverse-bumps the fixed tableau
    Q(w_J) of ``_q_rows``: at step s = n, ..., 1 it pops a corner of the
    remaining shape, and the corners chosen run over the standard tableaux
    of shape λ'.  Tableaux sharing their largest entries share those bumps,
    and backtracking undoes a bump by inserting the ejected value again.
    The value x ejected at step s is the position of s in v = w_J e, and
    i = slot[x] the position of s in e.  Q(w_J) has descent set J, so every
    e is a minimal coset representative.  ``_tableaux`` makes the same
    bumps once per tableau left, for the cell.

    Each row of Q(w_J) has a bump table: the row, the row below it, and the
    rows above it bottom-up and top-down.  The tables hold the very lists
    of the rows, popped, bumped and appended in place, so a step reads no
    row by index.  A step scans the tables in row order, up to the first
    empty row, and ejects from each row longer than the row below, a
    corner of the remaining shape; an ejection is undone before the scan
    moves on, so the scan sees the shape it started from.
    """
    n = sum(parts)
    rows, slot = _q_rows(parts)
    table = [
        (row, lower, tuple(reversed(rows[:r])), tuple(rows[:r]))
        for r, (row, lower) in enumerate(zip(rows, rows[1:] + [[]]))
    ]

    def walk(place: Place) -> None:
        def remove(s: int) -> None:
            for row, lower, rising, falling in table:
                if len(row) > len(lower):
                    x = row.pop()
                    for up in rising:
                        j = bisect_left(up, x) - 1
                        up[j], x = x, up[j]
                    if place(s, x, slot[x]):
                        remove(s - 1)
                    for up in falling:
                        j = bisect_left(up, x)
                        up[j], x = x, up[j]
                    row.append(x)
                elif not row:  # nor is any row below
                    break

        try:
            remove(n)
        except RecursionError:
            raise _too_deep(n) from None
        finally:
            # remove's closure holds remove itself; unbinding it breaks that
            # cycle, so what place kept is freed by its last reader, not by a
            # later cyclic collection
            del remove

    return walk


def _check_record_range(n: int) -> int:
    """
    n, after refusing with SearchBoundExceeded an n past 1492.  The key of a
    ``_zone`` record holds l(e) < n(n-1)/2 as one character, which would fit
    U+10FFFF up to n = 1493; the refusal keeps the limit of 1492 that the
    earlier code characters set, so ``klrim cell`` refuses the inputs it
    always refused.  Only cells of a few elements can be written this far:
    at n = 1492 the shapes λ' = (n-2, 2) and (n-2, 1, 1) already have
    f^{λ'} > 10^6.
    """
    if n > _MAX_RECORD_N:
        raise SearchBoundExceeded(
            f"n={n} exceeds {_MAX_RECORD_N}, the largest n whose cell elements "
            f"klrim writes"
        )
    return n


# stands in a _zone record between the values of w_J e and the word of e
_MARK = "\x00"


@dataclass(frozen=True)
class _Spelling:
    """
    How ``_tableaux``, ``_zone`` and ``_cell`` spell numbers: k is
    ``number(k)``, each value of w_J e opens with ``value_sep`` and each
    generator of a word with ``word_sep``.  The default spells every number
    as one character with no separators, the records ``cell_elements`` reads.
    """

    number: Callable[[int], str] = chr
    value_sep: str = ""
    word_sep: str = ""

    def run(self, run: range) -> str:
        """The text of the generators of ``run``, each after its separator."""
        return "".join(self.word_sep + self.number(k) for k in run)


class _Node(list):
    """
    One tableau left in the rows of the fiber walk, as the steps below it,
    each made once.  With s >= 4 boxes, an edge (1 + i, n + 1 + x,
    2n + 2 + i, run, c, child) per corner in the order of ``_fiber``'s
    scan: the step s ejects the value x and writes the position i, whose
    code entry is c = c_i, into those slots of a ``_zone`` record, the last
    with ``run``, the text of its run; ``child`` is the node of the tableau
    left, one level below.  With 3 boxes, a leaf per element below: the
    slots and runs of the steps 3, 2 and 1, then the sum of their code
    entries.  ``_length_counts`` sets ``least`` and ``most``, the least and
    the largest sum of the code entries from the node's step down.
    """

    __slots__ = ("least", "most")


def _tableaux(parts: Composition, spelling: _Spelling = _Spelling()) -> list[list[_Node]]:
    """
    The walk of ``_fiber`` as a DAG of the tableaux left in its rows, built
    a level, a box count, at a time: the root is Q(w_J), and level s - 1
    holds the distinct tableaux one bump of ``_fiber`` leaves from those of
    level s, each made once and keyed by the tuple of its rows, a row the
    bits of its values; the keys of two levels are held at a time.  Below a
    step, the walk depends on the tableau left alone: the positions written
    are those of the values ejected, so each code entry and its run, as
    ``spelling`` spells it, are read off it too.  The 628,357 steps above
    the last three of the cell of (3,1,2,4,1,3,2), n = 16, reach 514
    tableaux.

    The levels are returned from the leaves up, the root alone in the last:
    the nodes of 3 boxes, each listing every path through the tableaux
    below it, then those of 4, 5, ..., n boxes.  A walk with n <= 2 has
    one element, the identity; its root is its level of leaves, and each
    path opens with 3 - n steps that write only slot 0, the key, which a
    leaf writes last.
    """
    n = sum(parts)
    rows, slot = _q_rows(parts)
    bit = [1 << x for x in range(n)]
    left = [b - 1 for b in bit]  # the values below x, or the positions left of i
    runs: dict[int, str] = {}  # the run of c_i = c, under n * i + c
    v, w = n + 1, 2 * n + 2
    levels = [[_Node()]]
    # each tableau of a level, as the tuple of its nonempty rows, a row as the
    # bits of its values: its node, and the bits of the positions written above it
    level = {tuple(sum(bit[x] for x in row) for row in rows): (levels[0][0], 0)}
    for _ in range(n):
        below: dict[tuple[int, ...], tuple[_Node, int]] = {}
        for tableau, (node, filled) in level.items():
            for r, (row, lower) in enumerate(zip(tableau, tableau[1:] + (0,))):
                if row.bit_count() > lower.bit_count():
                    x = row.bit_length() - 1
                    child = list(tableau)
                    if row & row - 1:
                        child[r] = row ^ bit[x]
                    else:  # the last row, which empties
                        del child[r]
                    # each row above takes x for its largest value below x, which moves up
                    for u in range(r - 1, -1, -1):
                        up = child[u]
                        y = (up & left[x]).bit_length() - 1
                        child[u] = up ^ bit[y] | bit[x]
                        x = y
                    i = slot[x]
                    key = tuple(child)
                    got = below.get(key)
                    if got is None:
                        got = below[key] = _Node(), filled | bit[i]
                    c = (filled & left[i]).bit_count()
                    run = runs.get(n * i + c)
                    if run is None:
                        run = runs[n * i + c] = spelling.run(range(i, i - c, -1))
                    node.append((1 + i, v + x, w + i, run, c, got[0]))
        levels.append([node for node, _ in below.values()])
        level = below
    top = min(n, 3)
    pad = (0, 0, 0, "") * (3 - top)
    for node in levels[n - top]:
        node[:] = [pad + path for path in _paths(node)]
    return levels[n - top :: -1]


def _paths(edges: list, above: int = 0) -> list[tuple]:
    """Each path below a tableau of 3 boxes or fewer: slots and runs, then ``above`` + its c."""
    if not edges:
        return [(above,)]
    return [step[:4] + path for step in edges for path in _paths(step[5], above + step[4])]


def _zone(root: _Node, n: int, spelling: _Spelling = _Spelling()) -> list[str]:
    """
    Every element e below ``root``, a DAG of ``_tableaux`` built with
    ``spelling`` or a band of one from ``_band``, in walk order, as one str
    record: the key, chr(l(e)) and then e with one character chr(s) per
    entry s, so the records compare as (l(e), e); then the text of the
    values of w_J e, ``_MARK``, and the text of the word of e, each
    generator after its separator, as ``spelling`` spells them.  The walk
    writes the entries of e largest first, so the code entry c_i = #{j < i
    : e_j > e_i} counts the positions left of i already written when i is;
    l(e) is their sum, and the lex-least reduced word of e, the one
    ``reduced_word`` returns, is the concatenation of the runs (i, i-1,
    ..., i-c_i+1) over the positions i counted from 0.  A step stores
    chr(s), the text of s and its run in its edge's slots, and a leaf
    stores its three steps and joins the record.  Every value opens with
    its separator, the first one too, which ``_cell`` cuts off with the key.
    """
    entry = [chr(s) for s in range(max(n, 3) + 1)]
    values = [spelling.value_sep + spelling.number(s) for s in range(max(n, 3) + 1)]
    # record[1 + i] = e_i, record[n + 1 + x] = v_x, record[2n + 2 + i] = the run of i
    record = [""] * (3 * n + 2)
    record[2 * n + 1] = _MARK
    zone = []
    e3, e2, e1 = entry[3], entry[2], entry[1]
    v3, v2, v1 = values[3], values[2], values[1]

    def visit(node: _Node, s: int, above: int) -> None:
        es, vs = entry[s], values[s]
        for ei, vx, wi, run, c, child in node:
            record[ei] = es
            record[vx] = vs
            record[wi] = run
            if s > 4:
                visit(child, s - 1, above + c)
            else:
                leaves(child, above + c)

    def leaves(node: _Node, above: int) -> None:
        for ei, vx, wi, ri, ej, vy, wj, rj, ek, vz, wk, rk, total in node:
            record[ei] = e3
            record[vx] = v3
            record[wi] = ri
            record[ej] = e2
            record[vy] = v2
            record[wj] = rj
            record[ek] = e1
            record[vz] = v1
            record[wk] = rk
            record[0] = chr(above + total)
            zone.append("".join(record))

    if n > 3:
        visit(root, n, 0)
    else:
        leaves(root, 0)
    del visit  # its closure holds it, and the records, until a cyclic collection
    return zone


def _band(levels: list[list[_Node]], lo: int, hi: int) -> _Node:
    """
    The root of the DAG of ``levels`` cut to the elements e with lo <= l(e)
    <= hi, once ``_length_counts`` has set the nodes' bounds: from the root
    down, a node reached with code entries summing to ``above`` keeps an
    edge with code entry c whole when above + c plus the child's least and
    largest sums lie in the band, and over the child's cut, made once per
    child and sum, when they meet it; a 3-box node keeps the leaves whose
    lengths lie in the band.  The steps below a tableau run over its Knuth
    class, joined by Knuth moves that each swap two values s and s+1 of e
    and so change l(e) by one: their sums have no gaps, and a cut keeps
    something.
    """
    root = _Node()
    # the cuts of a level, under their node's id and sum: node, sum and cut
    cuts = {(id(levels[-1][0]), 0): (levels[-1][0], 0, root)}
    for _ in levels[1:]:  # from the root down to the nodes of 4 boxes
        below: dict[tuple[int, int], tuple[_Node, int, _Node]] = {}
        for node, above, kept in cuts.values():
            for edge in node:
                ei, vx, wi, run, c, child = edge
                at = above + c
                if lo <= at + child.least and at + child.most <= hi:
                    kept.append(edge)
                elif at + child.least <= hi and lo <= at + child.most:
                    got = below.get((id(child), at))
                    if got is None:
                        got = below[id(child), at] = child, at, _Node()
                    kept.append((ei, vx, wi, run, c, got[2]))
        cuts = below
    for node, above, kept in cuts.values():
        kept.extend(leaf for leaf in node if lo <= above + leaf[-1] <= hi)
    return root


def _length_counts(levels: list[list[_Node]], n: int) -> list[int]:
    """
    How many elements e of Z have each length l(e) = 0, 1, ..., n(n-1)/2,
    by dynamic programming over the levels of ``_tableaux`` from the leaves
    up, with no walk: the sums of the code entries below a node are those
    below each child, moved up by the edge's code entry, or the leaves'
    own.  Each node is counted once and gets its ``least`` and ``most``
    sum, the bounds ``_band`` cuts by; the sums of two levels are held at a
    time.
    """
    below: dict[int, list[int]] = {}
    for k, level in enumerate(levels):
        # sums[m]: the elements below a node whose code entries from its step down sum to m
        counted: dict[int, list[int]] = {}
        for node in level:
            sums = counted[id(node)] = []
            if k:
                for *_, c, child in node:
                    added = below[id(child)]
                    sums.extend([0] * (c + len(added) - len(sums)))
                    for m, count in enumerate(added, c):
                        sums[m] += count
            else:
                for *_, m in node:
                    sums.extend([0] * (m + 1 - len(sums)))
                    sums[m] += 1
            node.least = next(m for m, count in enumerate(sums) if count)
            node.most = len(sums) - 1
        below = counted
    lengths = below[id(levels[-1][0])]
    return lengths + [0] * (comb(n, 2) + 1 - len(lengths))


def _bands(counts: Sequence[int], budget: int) -> list[tuple[int, int]]:
    """
    The lengths cut into consecutive bands (lo, hi) of at most ``budget``
    elements each, but for a single length that alone holds more.
    """
    bands, lo, held = [], 0, 0
    for length, count in enumerate(counts):
        if held and held + count > budget:
            bands.append((lo, length - 1))
            lo, held = length, 0
        held += count
    bands.append((lo, len(counts) - 1))
    return bands


def _cell(
    parts: Composition,
    bound: int | None,
    number: Callable[[int], str] = chr,
    value_sep: str = "",
    word_sep: str = "",
) -> tuple[str, Iterator[str]]:
    """
    The cell as the text of w_J's word, which every word of the cell opens
    with, and one text per element e of Z, ordered by (l(e), e): the values
    of w_J e, ``_MARK`` where w_J's word goes, and the word of e.  Each
    number k is spelled ``number(k)``, after ``value_sep`` in a list of
    values and after ``word_sep`` in a word, but for the first of each
    list: the first value and w_J's first generator drop their separator.
    By default every number is one character, with no separators.  The
    texts are the records of ``_zone`` cut after the key and the first
    value's separator, as they are read.  w_J reverses each block of
    positions, so its code counts 0, 1, ..., p-1 along a block of p.

    The DAG of ``_tableaux`` is built once per call.  A cell of at most
    ``_RECORD_BUDGET`` elements is one walk of it and one sort.  A larger
    one holds about a budget of records at a time: ``_length_counts``
    counts the elements of each length off the DAG, the lengths are cut
    into bands of at most a budget each by ``_bands``, and the records come
    band by band, each band a walk of its own cut of the DAG, sorted as it
    is read.  The checks, the DAG, and the one walk or the count, are made
    at the call.
    """
    n = _check_depth(_check_record_range(check_search_bound(sum(parts), bound)))
    spelling = _Spelling(number, value_sep, word_sep)
    starts = accumulate(parts, initial=0)
    head = "".join(
        spelling.run(range(i, a, -1)) for a, p in zip(starts, parts) for i in range(a + 1, a + p)
    )[len(word_sep):]
    cut = itemgetter(slice(n + 1 + len(value_sep), None))
    levels = _tableaux(parts, spelling)
    if cell_size(parts) <= _RECORD_BUDGET:
        zone = _zone(levels[-1][0], n, spelling)
        zone.sort()  # by (l(e), e); e never repeats, so nothing further is compared
        return head, map(cut, zone)
    bands = _bands(_length_counts(levels, n), _RECORD_BUDGET)
    return head, _banded(levels, n, spelling, bands, cut)


def _banded(
    levels: list[list[_Node]],
    n: int,
    spelling: _Spelling,
    bands: list[tuple[int, int]],
    cut: Callable[[str], str],
) -> Iterator[str]:
    """The cut records of each band in turn, sorted; one band is held at a time."""
    for lo, hi in bands:
        zone = _zone(_band(levels, lo, hi), n, spelling)
        zone.sort()
        yield from map(cut, zone)
        del zone  # before the next band's walk


def _keeps_recording(w: Sequence[int], landing: Sequence[int]) -> bool:
    """
    Whether Q(w) is the recording tableau whose step j stands in row
    ``landing[j-1]``: w is inserted one step at a time into fresh rows,
    and the answer is no at the first step whose box lands in another row.
    """
    rows: list[list[int]] = []
    for x, r in zip(w, landing):
        if _insert(rows, x) != r:
            return False
    return True


def rim_search(parts: Iterable[int], bound: int | None = None) -> RimResult:
    """
    Compute the rim by search: the elements e of Z admitting no
    length-increasing generator extension e s_k inside Z.

    The search walks the fiber with ``_fiber``, its ``place`` deciding at
    every step whether to go below, and never holds Z.  Right multiplication
    by s_k swaps the values k and k+1 in e and in v = w_J e, and lengthens e
    exactly when k stands left of k+1 in e.  When k-1 or k+2 stands strictly
    between k and k+1 in v, that swap is a dual Knuth move, which keeps the
    recording tableau (Knuth 1970; Haiman 1992), so e s_k lies in Z.  Once
    step s places the value s, this test for k = s+1 depends only on values
    already placed, so it holds for every element below and the subtree is
    cut; k = 1 is tested at step 1, the leaf.  The test is sufficient but
    not necessary (v = (1, 4, 2, 5, 3), k = 1 keeps Q(v) without a witness),
    so each ascent k of a surviving leaf is tested exactly: Q(v s_k) ==
    Q(w_J).  Q is fixed by the row each step's box lands in, so the test
    inserts v s_k one step at a time and stops at the first step that lands
    in another row than in Q(w_J); those rows are read off the blocks of the
    composition, and no leaf builds a tableau.  Only the survivors are kept.

    >>> rim_search((2, 1)).rim
    ((1, 3, 2),)
    >>> rim_search((1, 2)).rim
    ((2, 1, 3),)
    """
    parts = check_composition(parts)
    n = check_search_bound(sum(parts), bound)
    walk = _fiber(parts)
    # the rows of Q(w_J) by step: the j-th position of a block lands in row j
    landing = [r for p in parts for r in range(p)]
    # where the values stand in v and in e; 0 and n+1 stand nowhere
    in_v, in_e = [-1] * (n + 2), [-1] * (n + 2)
    e, v = [0] * n, [0] * n
    # the k tested for a witness once step s has placed s: s+1, and at s = 1
    # also k = 1
    witnessed = [(), (2, 1)] + [(s + 1,) for s in range(2, n + 1)]
    rim = []

    def place(s: int, x: int, i: int) -> bool:
        in_v[s], in_e[s], v[x], e[i] = x, i, s, s
        for k in witnessed[s]:
            if k < n and in_e[k] < in_e[k + 1]:
                a, b = in_v[k], in_v[k + 1]
                if a > b:
                    a, b = b, a
                if a < in_v[k - 1] < b or a < in_v[k + 2] < b:
                    return False
        if s > 1:
            return True
        for k in range(1, n):
            if in_e[k] < in_e[k + 1]:
                a, b = in_v[k], in_v[k + 1]
                v[a], v[b] = k + 1, k
                same = _keeps_recording(v, landing)
                v[a], v[b] = k, k + 1
                if same:
                    return False
        rim.append(tuple(e))
        return False

    walk(place)
    return RimResult(parts, (_diagram_from_element(y, parts) for y in rim))


def cell_size(parts: Iterable[int]) -> int:
    """
    Number of elements in the cell of the composition, which is also the
    size of Z: f^{λ'}, for λ' the conjugate of the sorted parts, by the
    Frame-Robinson-Thrall hook-length formula.

    >>> cell_size((2, 1, 1))
    3
    """
    shape = conjugate(check_composition(parts))
    columns = conjugate(shape)
    hooks = prod(
        (row - j) + (columns[j] - i) - 1
        for i, row in enumerate(shape)
        for j in range(row)
    )
    return factorial(sum(shape)) // hooks


def cell_elements(
    parts: Iterable[int], bound: int | None = None
) -> Iterator[tuple[Perm, Word]]:
    """
    Every element of the cell with a reduced word for it: pairs
    (w_J e, word of w_J followed by word of e), for e running over Z.
    Lengths add because e is a minimal coset representative.  Ordered by
    (length, row-form) of e.  The pairs are made as they are read, off the
    records of ``_cell`` as ``klrim cell`` reads them, with one character
    per value and per generator in place of its text; so a cell past the
    record budget is read in bands of lengths, a walk each, with at most
    about a budget of records held.  The call checks its input, builds the
    DAG of ``_tableaux`` and makes the one walk, or counts the lengths of a
    banded cell off the DAG.  Each word is the lex-least
    one, the one ``reduced_word`` gives, and the characters become ints
    through one list per call, which all pairs share.

    >>> [(w, word) for w, word in cell_elements((2, 1))]
    [((2, 1, 3), (1,)), ((3, 1, 2), (1, 2))]
    """
    parts = check_composition(parts)
    head, records = _cell(parts, bound)
    number = list(range(sum(parts) + 1)).__getitem__

    def ints(text: str) -> tuple[int, ...]:
        return tuple(map(number, map(ord, text)))

    def pair(text: str) -> tuple[Perm, Word]:
        values, word = text.split(_MARK)
        return ints(values), ints(head + word)

    return map(pair, records)


def star_extend(diagram: Diagram) -> Diagram:
    """
    Append a single node on a new last row, in the least column keeping the
    diagram admissible.  Only columns already present are scanned; if none
    works a ValueError reports the diagram (no such case is known at desk
    scale, and when the last row has one node the new node provably lands
    directly beneath it).

    >>> star_extend(young_diagram((2, 1))).nodes
    ((1, 1), (1, 2), (2, 1), (3, 1))
    """
    if not is_admissible(diagram):
        raise ValueError("star_extend is defined for admissible diagrams")
    new_row = diagram.row_count + 1
    for column in range(1, diagram.column_count + 1):
        candidate = Diagram(diagram.nodes + ((new_row, column),))
        if is_admissible(candidate):
            return candidate
    raise ValueError(f"no admissible single-node extension found for {diagram.nodes}")


def theta_star(result: RimResult) -> RimResult:
    """
    Push a rim through the append-a-part-1 extension: every rim diagram gains
    one node on a new last row, directly beneath the single node of its last
    row, and the new rim is read off the extended diagrams.  Defined when the
    last part is 1, where the map is a bijection onto the rim of the extended
    composition; it is the node ``star_extend`` finds, and each extended
    diagram is checked admissible once.
    """
    if result.composition[-1] != 1:
        raise ValueError("theta_star requires the last part of the composition to be 1")
    extended = []
    for diagram in result.diagrams:
        row, column = diagram.nodes[-1]  # row-major: the last row's node
        grown = Diagram(diagram.nodes + ((row + 1, column),))
        if not is_admissible(grown):
            raise ValueError(f"{diagram.nodes} is not a rim diagram of {result.composition}")
        extended.append(grown)
    return RimResult(result.composition + (1,), extended)


# ---------------------------------------------------------------------------
# closed-form families


def _d_tsu_diagram(t: int, s: int, u: int, rows: int) -> Diagram:
    """
    Rim diagram for the family (t, s, 1, ..., 1) with t <= s: a full second
    row of s nodes, the first row occupying column u plus the last t-1
    columns, and a tail of single nodes below column u.
    """
    nodes = {(1, u)}
    nodes.update((1, i) for i in range(s - t + 2, s + 1))
    nodes.update((2, i) for i in range(1, s + 1))
    nodes.update((i, u) for i in range(3, rows + 1))
    return Diagram(tuple(nodes))


def _g_diagram(s: int, t: int, u: int, cols: Sequence[int]) -> Diagram:
    """Rim diagram for the pattern (t, s, u) with s >= t >= u: full middle
    row; top row on ``cols`` plus the last t-u columns; bottom row on
    ``cols``."""
    nodes = {(1, i) for i in cols}
    nodes.update((1, i) for i in range(s - t + u + 1, s + 1))
    nodes.update((2, i) for i in range(1, s + 1))
    nodes.update((3, i) for i in cols)
    return Diagram(tuple(nodes))


def _h_diagram(s: int, t: int, u: int, cols: Sequence[int]) -> Diagram:
    """Rim diagram for the pattern (t, u, s) with s >= t >= u: full bottom
    row; top row on the last t columns; middle row on ``cols``."""
    nodes = {(1, i) for i in range(s - t + 1, s + 1)}
    nodes.update((2, i) for i in cols)
    nodes.update((3, i) for i in range(1, s + 1))
    return Diagram(tuple(nodes))


def _p_diagram(rows: int, v: int) -> Diagram:
    """
    The v-th rim diagram of the double-staircase family (1, 2, ..., 2, 1)
    with ``rows`` rows, 0 <= v <= rows-2: a full column of height ``rows``
    and a second column of height rows-2, interlocked with offset v.
    """
    r = rows
    if not 0 <= v <= r - 2:
        raise ValueError(f"v must lie in 0..{r - 2}")
    if v == 0:
        nodes = {(i, 1) for i in range(1, r + 1)}
        nodes.update((i, 2) for i in range(2, r))
    else:
        nodes = {(i, 1) for i in range(2, v + 2)}
        nodes.update((i, 2) for i in range(1, r + 1))
        nodes.update((i, 3) for i in range(v + 2, r))
    return Diagram(tuple(nodes))


def _three_part_diagrams(parts: Composition) -> list[Diagram]:
    """Rim diagrams for any three-part composition, per the dispatch on the
    pattern of (s, t, u) = sorted parts; the remaining patterns rotate."""
    s, t, u = sorted(parts, reverse=True)
    if parts == (s, t, u):
        return [young_diagram(parts)]
    if parts == (t, s, u):
        return [
            _g_diagram(s, t, u, cols)
            for cols in combinations(range(1, s - t + u + 1), u)
        ]
    if parts == (t, u, s):
        return [
            _h_diagram(s, t, u, cols)
            for cols in combinations(range(s - t + 1, s + 1), u)
        ]
    return [rotate180(d) for d in _three_part_diagrams(reverse_composition(parts))]


def _three_part_count(parts: Composition) -> int:
    """Predicted rim size for a three-part composition."""
    s, t, u = sorted(parts, reverse=True)
    if parts in ((s, t, u), (u, t, s)):
        return 1
    if parts in ((t, s, u), (u, s, t)):
        return comb(s - t + u, u)
    # remaining patterns: (t, u, s) and (s, u, t)
    return comb(t, u)


def _match_staircase(parts: Composition) -> tuple[int, int, int] | None:
    """Match (1^a, 2^{r-2}, 1^b) with a, b >= 1, r >= 3; return (a, r, b)."""
    i = 0
    while i < len(parts) and parts[i] == 1:
        i += 1
    j = i
    while j < len(parts) and parts[j] == 2:
        j += 1
    if j < len(parts) and any(p != 1 for p in parts[j:]):
        return None
    if i == 0 or j == i or j == len(parts):
        return None
    return i, (j - i) + 2, len(parts) - j


def _staircase_diagrams(a: int, rows: int, b: int) -> list[Diagram]:
    """
    Rim diagrams for (1^a, 2^{rows-2}, 1^b): each two-column diagram
    P(rows, v) moved down a-1 rows, with its full column run through all
    rows+a+b-2 rows.  That column, column 1 for v = 0 and column 2
    otherwise, holds the single nodes of the first and the last row of
    P(rows, v).
    """
    height = rows + a + b - 2
    diagrams = []
    for v in range(rows - 1):
        full = 1 if v == 0 else 2
        nodes = {(r + a - 1, c) for r, c in _p_diagram(rows, v).nodes}
        nodes.update((r, full) for r in range(1, height + 1))
        diagrams.append(Diagram(tuple(nodes)))
    return diagrams


def _family_diagrams(parts: Composition) -> list[Diagram] | None:
    """
    The rim diagrams of a composition of a closed family, taken as written:
    partitions, three-part compositions, (t, s, 1, ..., 1) with t < s, and
    (1^a, 2^k, 1^b); None for any other composition.
    """
    if is_partition(parts):
        return [young_diagram(parts)]
    if len(parts) == 3:
        return _three_part_diagrams(parts)
    if len(parts) > 3 and all(p == 1 for p in parts[2:]) and parts[0] < parts[1]:
        t, s = parts[0], parts[1]
        return [_d_tsu_diagram(t, s, u, len(parts)) for u in range(1, s - t + 2)]
    staircase = _match_staircase(parts)
    if staircase is not None:
        return _staircase_diagrams(*staircase)
    return None


def rim_closed_form(parts: Iterable[int]) -> RimResult | None:
    """
    The rim from an explicit construction, when the composition or its
    reverse is a partition, has three parts, is (t, s, 1, ..., 1) with
    t < s, or is (1^a, 2^k, 1^b); None otherwise.  Each family is built on
    the composition as written; the rim of a reversed member is the
    half-turn ``rotate180`` of every diagram of the reverse's rim.

    >>> rim_closed_form((2, 1)).rim
    ((1, 3, 2),)
    >>> rim_closed_form((1, 3, 1, 2)) is None
    True
    """
    parts = check_composition(parts)
    diagrams = _family_diagrams(parts)
    if diagrams is not None:
        return RimResult(parts, diagrams)
    reverse = _family_diagrams(reverse_composition(parts))
    return None if reverse is None else RimResult(parts, map(rotate180, reverse))


# ---------------------------------------------------------------------------
# verification harness

if TYPE_CHECKING:  # for type checkers only: typing's cache would keep RimResult alive
    Search = Callable[[Composition], RimResult]


@dataclass(frozen=True)
class TheoremCheck:
    composition: Composition
    ok: bool
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    theorem: str
    checks: tuple[TheoremCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> tuple[TheoremCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def _check_family(
    found: RimResult, diagrams: Sequence[Diagram], count: int, special: int
) -> TheoremCheck:
    """Compare a searched rim against a predicted one, given by its diagrams,
    its size and its number of special diagrams."""
    expected = {d.nodes for d in diagrams}
    actual = {d.nodes for d in found.diagrams}
    ok = expected == actual
    detail = "ok"
    if not ok:
        detail = f"expected diagrams {sorted(expected)} but search found {sorted(actual)}"
    if ok and found.rim_size != count:
        ok, detail = False, f"rim size {found.rim_size}, predicted {count}"
    if ok and found.special_count != special:
        ok, detail = False, f"special count {found.special_count}, predicted {special}"
    return TheoremCheck(found.composition, ok, detail)


def _checks_single_element(max_n: int, search: Search) -> Iterator[TheoremCheck]:
    # rims with exactly one element <=> sorted or reverse-sorted parts
    for n in range(1, max_n + 1):
        for parts in compositions_of(n):
            single = search(parts).rim_size == 1
            predicted = is_partition(parts) or is_partition(reverse_composition(parts))
            ok = single == predicted
            detail = "ok" if ok else f"rim size 1: {single}, predicted {predicted}"
            yield TheoremCheck(parts, ok, detail)


def _checks_two_big_parts(max_n: int, search: Search) -> Iterator[TheoremCheck]:
    # compositions (a, b, 1, ..., 1) with at least three parts
    for n in range(4, max_n + 1):
        for rows in range(3, n):
            head = n - (rows - 2)
            for a in range(1, head):
                b = head - a
                parts = (a, b) + (1,) * (rows - 2)
                if a >= b:
                    yield _check_family(search(parts), [young_diagram(parts)], 1, 1)
                else:
                    diagrams = [_d_tsu_diagram(a, b, u, rows) for u in range(1, b - a + 2)]
                    yield _check_family(search(parts), diagrams, b - a + 1, b - a + 1)


def _checks_three_parts(max_n: int, search: Search) -> Iterator[TheoremCheck]:
    for n in range(3, max_n + 1):
        for parts in compositions_of(n):
            if len(parts) == 3:
                count = _three_part_count(parts)
                yield _check_family(search(parts), _three_part_diagrams(parts), count, count)


def _checks_staircase_base(max_n: int, search: Search) -> Iterator[TheoremCheck]:
    for rows in range(3, max_n // 2 + 2):
        if 2 * rows - 2 > max_n:
            break
        parts = (1,) + (2,) * (rows - 2) + (1,)
        diagrams = [_p_diagram(rows, v) for v in range(rows - 1)]
        yield _check_family(search(parts), diagrams, rows - 1, 2)


def _checks_staircase_general(max_n: int, search: Search) -> Iterator[TheoremCheck]:
    for n in range(4, max_n + 1):
        for parts in compositions_of(n):
            match = _match_staircase(parts)
            if match is not None:
                diagrams = _staircase_diagrams(*match)
                yield _check_family(search(parts), diagrams, match[1] - 1, 2)


def _checks_append_part(max_n: int, search: Search) -> Iterator[TheoremCheck]:
    # appending a part 1 carries the rim onto the rim of the longer composition
    for n in range(1, max_n):
        for parts in compositions_of(n):
            if parts[-1] != 1:
                continue
            extended = theta_star(search(parts))
            direct = search(parts + (1,))
            ok = extended == direct
            detail = "ok" if ok else f"extension rim {extended.rim} vs direct rim {direct.rim}"
            yield TheoremCheck(parts, ok, detail)


_CHECKERS = {
    "T2.16a": _checks_single_element,
    "T3.5a": _checks_two_big_parts,
    "T3.7a": _checks_three_parts,
    "T3.15a": _checks_staircase_base,
    "C3.16a": _checks_staircase_general,
    "P3.2a": _checks_append_part,
}


def verify_theorems(
    theorems: Sequence[str], max_n: int, bound: int | None = None
) -> list[VerifyReport]:
    """
    Exhaustively compare closed-form rules, each one of the identifiers in
    ``THEOREMS``, against the search engine, over every applicable
    composition of every n <= max_n.  Each composition is searched once per
    call, however many rules check it.  No rules, or a rule with no
    applicable composition, raise ValueError rather than pass on zero checks.
    """
    if not theorems:
        raise ValueError(f"no rule to verify; choose from {THEOREMS}")
    for theorem in theorems:
        if theorem not in _CHECKERS:
            raise ValueError(f"unknown rule {theorem!r}; choose from {THEOREMS}")
    check_search_bound(max_n, bound)
    searched: dict[Composition, RimResult] = {}

    def search(parts: Composition) -> RimResult:
        if parts not in searched:
            searched[parts] = rim_search(parts, bound)
        return searched[parts]

    reports = []
    for theorem in theorems:
        checks = tuple(_CHECKERS[theorem](max_n, search))
        if not checks:
            raise ValueError(f"rule {theorem} has no compositions to check at max_n={max_n}")
        reports.append(VerifyReport(theorem, checks))
    return reports


def verify_theorem(theorem: str, max_n: int, bound: int | None = None) -> VerifyReport:
    """``verify_theorems`` for one rule."""
    return verify_theorems((theorem,), max_n, bound)[0]
