"""
k-paths in a diagram and the ordering calculus.

A path is a node sequence descending strictly through rows while moving
weakly right through columns; a k-path is a sequence of k mutually disjoint
paths.  Two node sets satisfy ``precedes`` when everything weakly below the
first set is strictly to its right, and a k-path is *ordered* when its
constituents are pairwise related this way; ``is_ordered`` decides that in
one sweep over the constituents.  Every k-path can be rearranged into an
equivalent ordered one by repeatedly peeling a maximal "staircase" path off
the support; ``order_kpath`` implements that rearrangement, peeling from
per-row buckets of columns built once.  Its peels are paths on the input's
support by construction, so the result is built without the constructor's
checks; only the result's order and support are checked.  Coordinates are
1-based positive.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import index
from typing import Callable, Iterable, Sequence

from .diagrams import Diagram, Node, act, is_standard, row_fill, w_of_diagram

Path = tuple[Node, ...]


@dataclass(frozen=True)
class KPath:
    """
    A sequence of mutually disjoint paths.  ``host`` is the diagram the
    nodes live in; it may be omitted when only the ordering calculus is
    needed (the wire format carries no host), but ``diagram_of_ordered``
    requires it.
    """

    paths: tuple[Path, ...]
    host: Diagram | None = None

    def __post_init__(self) -> None:
        try:
            paths = tuple(tuple((index(r), index(c)) for r, c in p) for p in self.paths)
        except TypeError as exc:
            raise ValueError(f"k-path nodes must be pairs of integers: {exc}") from None
        if not paths:
            raise ValueError("a k-path needs at least one constituent path")
        seen: set[Node] = set()
        for p in paths:
            if not p:
                raise ValueError("constituent paths must be nonempty")
            for (a1, b1), (a2, b2) in zip(p, p[1:]):
                if not (a1 < a2 and b1 <= b2):
                    raise ValueError(
                        f"not a path (rows must increase strictly, columns weakly): {p}"
                    )
            # rows rise strictly and columns weakly, so p[0] is the least
            if p[0][0] < 1 or p[0][1] < 1:
                raise ValueError(f"k-path coordinates are 1-based positive: {p[0]}")
            for node in p:
                if node in seen:
                    raise ValueError(f"constituent paths must be disjoint; {node} repeats")
                seen.add(node)
        if self.host is not None:
            outside = seen - self.host.node_set
            if outside:
                raise ValueError(f"nodes outside the host diagram: {sorted(outside)}")
        object.__setattr__(self, "paths", paths)

    @classmethod
    def _trusted(cls, paths: tuple[Path, ...], host: Diagram | None) -> KPath:
        """
        A k-path from paths known to pass every check of ``__post_init__``:
        tuples of int pairs, forming disjoint paths inside ``host``.
        """
        kpath = object.__new__(cls)
        object.__setattr__(kpath, "paths", paths)
        object.__setattr__(kpath, "host", host)
        return kpath

    @property
    def k(self) -> int:
        return len(self.paths)

    @cached_property
    def support(self) -> frozenset[Node]:
        return frozenset(node for p in self.paths for node in p)

    @property
    def length(self) -> int:
        return sum(len(p) for p in self.paths)

    @cached_property
    def type(self) -> tuple[int, ...]:
        return tuple(sorted((len(p) for p in self.paths), reverse=True))


def precedes(first: Iterable[Node], second: Iterable[Node]) -> bool:
    """
    True when for every node (a1, b1) of ``first`` and (a2, b2) of
    ``second`` with a1 <= a2 one has b1 < b2: every node of ``second``
    lies in ``right_side(first)``.

    >>> precedes({(2, 3)}, {(1, 1)})
    True
    >>> precedes({(1, 1)}, {(3, 2)})
    True
    >>> precedes({(2, 3)}, {(3, 2)})
    False
    >>> precedes({(1, -1)}, {(2, 0)})
    True
    """
    first, second = tuple(first), tuple(second)
    if not first or not second:
        raise ValueError("precedes is defined for nonempty node sets")
    return all(map(right_side(first), second))


def _delta(nodes: Sequence[Node], row: int, default: int) -> int:
    """Smallest column used by ``nodes`` in rows >= row; ``default`` if none."""
    cols = [c for r, c in nodes if r >= row]
    return min(cols) if cols else default


def right_side(nodes: Iterable[Node]) -> Callable[[Node], bool]:
    """
    Membership predicate of the region strictly right of the staircase
    profile of ``nodes``: (n, m) belongs iff m exceeds every column the set
    uses in rows <= n, which holds at once when the set has no node there.
    A query bisects the sorted rows and reads the running column maximum.

    >>> right_side({(2, 5)})((1, -3))
    True
    """
    pts = sorted(nodes)
    if not pts:
        raise ValueError("right_side is defined for nonempty node sets")
    rows = [r for r, _ in pts]
    # highest[i]: the largest column among the first i+1 nodes in row order
    highest = list(accumulate((c for _, c in pts), max))

    def inside(node: Node) -> bool:
        i = bisect_right(rows, node[0])
        return i == 0 or node[1] > highest[i - 1]

    return inside


def left_side(nodes: Iterable[Node], host: Diagram) -> Callable[[Node], bool]:
    """
    Membership predicate of the region strictly left of the staircase
    profile of ``nodes``: (n, m) belongs iff m is below every column the
    set uses in rows >= n.  Rows past the set fall back to one more than
    the host's column count, so they belong entirely.
    """
    pts = sorted(nodes)
    if not pts:
        raise ValueError("left_side is defined for nonempty node sets")
    default = 1 + host.column_count
    return lambda node: node[1] < _delta(pts, node[0], default)


def is_ordered(kpath: KPath) -> bool:
    """
    True when every constituent precedes all later ones.

    One sweep over the constituents in order: a Fenwick tree over the ranks
    of the occupied rows keeps, per row, the largest column the earlier
    constituents use there, and answers the running maximum over all rows
    at or above a given one.  A node fails when its column does not exceed
    that maximum at its own row, which is exactly a failed ``precedes``
    against some earlier constituent.  Rows are indexed by rank, never by
    value, so a huge coordinate costs nothing.

    >>> is_ordered(KPath((((1, 1), (2, 1)),)))
    True
    >>> is_ordered(KPath((((1, 2),), ((2, 1),))))
    False
    """
    rank = {r: i for i, r in enumerate(sorted({r for p in kpath.paths for r, _ in p}), 1)}
    size = len(rank)
    # tree[i] holds the largest column over a Fenwick range of row ranks;
    # 0 means no node, as coordinates are positive
    tree = [0] * (size + 1)
    for path in kpath.paths:
        for r, c in path:
            i = rank[r]
            while i:
                if tree[i] >= c:
                    return False
                i &= i - 1
        for r, c in path:
            i = rank[r]
            while i <= size:
                if tree[i] < c:
                    tree[i] = c
                i += i & -i
    return True


def _row_buckets(nodes: Iterable[Node]) -> dict[int, list[int]]:
    """The columns of each occupied row in ascending order, rows top to bottom."""
    buckets: dict[int, list[int]] = {}
    for r, c in sorted(nodes):
        buckets.setdefault(r, []).append(c)
    return buckets


def _peel(buckets: dict[int, list[int]]) -> Path:
    """
    Peel one path off the nodes held in ``buckets``, as ``peel_path`` does,
    popping its nodes from their buckets and dropping the rows it empties.
    """
    path: list[Node] = []
    kept_col = 0
    for r, cols in buckets.items():
        if cols[-1] >= kept_col:
            kept_col = cols.pop()
            path.append((r, kept_col))
    if not path:
        raise RuntimeError("a peel must remove at least one node")
    for r, _ in path:
        if not buckets[r]:
            del buckets[r]
    return tuple(path)


def peel_path(nodes: Iterable[Node]) -> Path:
    """
    Extract one path from a node set of positive coordinates: walk the
    rows top to bottom, look at the rightmost node of the current row, and
    keep it whenever its column is not smaller than everything kept so
    far.  Whatever remains precedes the peeled path.

    >>> peel_path({(1, 1), (1, 3), (2, 2)})
    ((1, 3),)
    """
    buckets = _row_buckets(set(nodes))
    if not buckets:
        raise ValueError("cannot peel a path from an empty node set")
    return _peel(buckets)


def _split_with_tail_singletons(path: Path, extra: int) -> list[Path]:
    """
    Rearrange one path into an ordered (extra+1)-path: the last ``extra``
    nodes become singleton paths, listed bottom-up, followed by the initial
    remainder of the path.
    """
    cut = len(path) - extra
    pieces: list[Path] = [(path[-i],) for i in range(1, extra + 1)]
    pieces.append(path[:cut])
    return pieces


def order_kpath(kpath: KPath, parts: int | None = None) -> KPath:
    """
    An ordered k'-path with the same support, built by peeling paths off
    the support repeatedly and listing them in reverse peel order.  The
    support is sorted into per-row buckets of columns once; each peel pops
    the rightmost column of the rows it keeps.  The peel count k' never
    exceeds the constituent count of the input.

    When ``parts`` is given and exceeds k', constituents are split from the
    front of the sequence, the surplus nodes becoming singleton paths, so
    that the result has exactly ``parts`` constituents.

    The peels and their splits are paths, disjoint, and cover the input's
    support, so the result skips the constructor's checks; whether it is
    ordered and keeps the support is still checked.

    >>> order_kpath(KPath((((1, 2),), ((1, 1), (2, 1)),))).paths
    (((1, 1), (2, 1)), ((1, 2),))
    """
    buckets = _row_buckets(kpath.support)
    peels: list[Path] = []
    while buckets:
        peels.append(_peel(buckets))

    constituents: list[Path] = list(reversed(peels))
    if parts is not None:
        if parts < len(constituents):
            raise ValueError(
                f"support needs at least {len(constituents)} ordered paths here; "
                f"{parts} requested"
            )
        extra = parts - len(constituents)
        idx = 0
        while extra > 0 and idx < len(constituents):
            path = constituents[idx]
            if len(path) >= 2:
                take = min(extra, len(path) - 1)
                constituents[idx : idx + 1] = _split_with_tail_singletons(path, take)
                extra -= take
                idx += take + 1
            else:
                idx += 1
        if extra > 0:
            raise ValueError(f"support has fewer than {parts} nodes")

    result = KPath._trusted(tuple(constituents), kpath.host)
    if not (is_ordered(result) and result.support == kpath.support):
        raise RuntimeError("peeling must give an ordered k-path on the same support")
    return result


def diagram_of_ordered(kpath: KPath) -> Diagram:
    """
    Compress an ordered k-path covering its whole host diagram: every node
    of the j-th constituent moves to column j of its own row.  The column
    filling of the host, transported along, is a standard filling of the
    result; this is checked.
    """
    if kpath.host is None:
        raise ValueError("diagram_of_ordered needs a host diagram")
    if kpath.support != kpath.host.node_set:
        raise ValueError("the k-path must cover the whole host diagram")
    if not is_ordered(kpath):
        raise ValueError("the k-path must be ordered")
    nodes = tuple((a, j) for j, path in enumerate(kpath.paths, start=1) for a, _ in path)
    result = Diagram(nodes)
    image = act(row_fill(result), w_of_diagram(kpath.host))
    if not is_standard(image):
        raise RuntimeError("transported column filling must stay standard")
    return result


def _sandwiching_constituents(kpath: KPath, node: Node) -> list[int]:
    a, b = node
    found = []
    for idx, path in enumerate(kpath.paths):
        if any(r < a and c == b for r, c in path) and any(r > a and c == b for r, c in path):
            found.append(idx)
    return found


def insert_singleton(kpath: KPath, node: Node) -> KPath:
    """
    Extend an ordered k-path by one extra node.  If some constituent runs
    through the node's column both above and below it, the node joins that
    constituent; otherwise it becomes a singleton path placed after the
    longest initial run of constituents preceding it.  The result is
    ordered again.
    """
    try:
        node = (index(node[0]), index(node[1]))
    except TypeError as exc:
        raise ValueError(f"a node must be a pair of integers: {exc}") from None
    if not is_ordered(kpath):
        raise ValueError("insert_singleton expects an ordered k-path")
    if node in kpath.support:
        raise ValueError(f"node {node} already covered")
    if kpath.host is not None and node not in kpath.host:
        raise ValueError(f"node {node} outside the host diagram")

    sandwich = _sandwiching_constituents(kpath, node)
    if sandwich:
        # two constituents of an ordered k-path can never both bracket the
        # same column position
        if len(sandwich) != 1:
            raise RuntimeError(f"constituents {sandwich} all bracket {node}")
        j = sandwich[0]
        widened = tuple(sorted(kpath.paths[j] + (node,)))
        paths = kpath.paths[:j] + (widened,) + kpath.paths[j + 1 :]
    else:
        run = 0
        while run < kpath.k and precedes(kpath.paths[run], (node,)):
            run += 1
        paths = kpath.paths[:run] + ((node,),) + kpath.paths[run:]

    result = KPath(paths, host=kpath.host)
    if not is_ordered(result):
        raise RuntimeError(f"inserting {node} must keep the k-path ordered")
    return result


def extend_by_singletons(kpath: KPath, nodes: Iterable[Node]) -> KPath:
    """
    Insert several extra nodes as singleton paths into an ordered k-path.
    No constituent may bracket any of the new nodes within its column, so
    every insertion genuinely adds a constituent.
    """
    try:
        nodes = [(index(r), index(c)) for r, c in nodes]
    except TypeError as exc:
        raise ValueError(f"nodes must be pairs of integers: {exc}") from None
    if len(set(nodes)) != len(nodes):
        raise ValueError("nodes to insert must be distinct")
    for node in nodes:
        if _sandwiching_constituents(kpath, node):
            raise ValueError(f"a constituent path brackets {node}; cannot add as singleton")
    result = kpath
    for node in nodes:
        result = insert_singleton(result, node)
    if result.k != kpath.k + len(nodes):
        raise RuntimeError("every inserted node must add one constituent")
    return result
