"""Shared generators and independent oracles for the test suite."""
from __future__ import annotations

import random
from bisect import bisect_left
from itertools import combinations, groupby

from klrim import (
    Diagram,
    KPath,
    Node,
    Perm,
    RimResult,
    compose,
    conjugate,
    diagram_from_element,
    identity,
    inverse,
    is_coset_rep,
    longest_parabolic_element,
    partial_sums,
    precedes,
    prefixes_of_wd,
    rotate180,
    rsk,
    rsk_inverse,
    standard_tableaux,
    star_extend,
    young_diagram,
)
from klrim import rims
from klrim.rims import _MARK, _p_diagram, _tableaux, _zone


def decode(record: str, n: int) -> tuple[int, Perm, Perm, tuple[int, ...]]:
    """
    A record of ``rims._zone`` in its default spelling, one character per
    number, as (l(e), e, w_J e, the reduced word of e).
    """
    key, values, word = record[: n + 1], *record[n + 1 :].split(_MARK)
    return ord(key[0]), tuple(map(ord, key[1:])), tuple(map(ord, values)), tuple(map(ord, word))


def zone_records(parts) -> list[str]:
    """The records of ``rims._zone`` for the whole cell, in walk order."""
    return _zone(_tableaux(parts), sum(parts))


def count_walks(monkeypatch) -> list[int]:
    """
    Patch ``rims._zone``, the walk of a cell or of a band of its lengths,
    so that each walk it makes is listed, by the number of records it
    made, in the list returned.
    """
    walks = []
    zone = rims._zone

    def counted(*args):
        records = zone(*args)
        walks.append(len(records))
        return records

    monkeypatch.setattr(rims, "_zone", counted)
    return walks


def compress_nodes(nodes) -> tuple[Node, ...]:
    """Renumber rows and columns consecutively from 1."""
    nodes = set(nodes)
    rows = sorted({r for r, _ in nodes})
    cols = sorted({c for _, c in nodes})
    rmap = {r: i for i, r in enumerate(rows, 1)}
    cmap = {c: i for i, c in enumerate(cols, 1)}
    return tuple(sorted((rmap[r], cmap[c]) for r, c in nodes))


def random_diagram(rng: random.Random, max_nodes: int = 8, grid: int = 6) -> Diagram:
    k = rng.randint(1, max_nodes)
    cells = [(r, c) for r in range(1, grid + 1) for c in range(1, grid + 1)]
    return Diagram(compress_nodes(rng.sample(cells, k)))


def random_kpath(rng: random.Random, diagram: Diagram, cover: bool = False) -> KPath:
    """A random k-path in the diagram: sweep the nodes row-major and either
    extend a compatible path or open a new one, then shuffle the paths."""
    if cover:
        chosen = list(diagram.nodes)
    else:
        chosen = [nd for nd in diagram.nodes if rng.random() < 0.8]
        if not chosen:
            chosen = [diagram.nodes[0]]
    paths: list[list[Node]] = []
    for node in chosen:
        options = [p for p in paths if p[-1][0] < node[0] and p[-1][1] <= node[1]]
        if options and rng.random() < 0.7:
            rng.choice(options).append(node)
        else:
            paths.append([node])
    rng.shuffle(paths)
    return KPath(tuple(tuple(p) for p in paths), host=diagram)


def node_of_entry(tableau) -> dict[int, Node]:
    """The node of a ``DTableau`` holding each entry."""
    return dict(zip(tableau.entries, tableau.diagram.nodes))


def times_gen(w: Perm, k: int) -> Perm:
    """Right-multiply by the generator s_k, i.e. swap the values k and k+1."""
    return tuple(k + 1 if x == k else k if x == k + 1 else x for x in w)


def brute_prefixes(w: Perm) -> set[Perm]:
    """The weak-order prefixes of w, by walking right descents downward.
    Independent of the diagram/tableau machinery."""
    seen = {w}
    stack = [w]
    while stack:
        v = stack.pop()
        pos = {value: i for i, value in enumerate(v)}
        for k in range(1, len(v)):
            if pos[k] > pos[k + 1]:
                u = times_gen(v, k)
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    return seen


def ascents(e: Perm) -> list[int]:
    """Generators k with l(e s_k) = l(e) + 1, i.e. value k left of k+1."""
    return [k for k in range(1, len(e)) if e.index(k) < e.index(k + 1)]


def restart_reduced_word(w: Perm) -> tuple[int, ...]:
    """The lex-least reduced word by rescanning from the left after every
    swap of the smallest descent: O(n l(w)), the reference for
    ``reduced_word``."""
    w = list(w)
    word = []
    while True:
        for k in range(len(w) - 1):
            if w[k] > w[k + 1]:
                word.append(k + 1)
                w[k], w[k + 1] = w[k + 1], w[k]
                break
        else:
            return tuple(word)


def bfs_zone(parts) -> list[Perm]:
    """
    Z for the composition by breadth-first search from the identity over
    one-generator length-increasing extensions, each candidate tested for
    being a coset representative with the recording tableau of w_J.  Z is
    prefix-closed, so the search reaches everything.  Independent of the
    DAG of ``rims._tableaux`` behind ``rims._zone``.
    """
    n = sum(parts)
    w_j = longest_parabolic_element(parts)
    q_ref = rsk(w_j)[1]

    start = identity(n)
    seen: set[Perm] = {start}
    frontier: list[Perm] = [start]
    while frontier:
        grown: list[Perm] = []
        for e in sorted(frontier):
            for k in ascents(e):
                e2 = times_gen(e, k)
                if e2 in seen or not is_coset_rep(e2, parts):
                    continue
                if rsk(compose(w_j, e2))[1] == q_ref:
                    seen.add(e2)
                    grown.append(e2)
        frontier = grown
    return sorted(seen)


def inverse_insertion_zone(parts) -> list[Perm]:
    """
    Z for the composition, sorted, as w_J * rsk_inverse(P, Q(w_J)) for P
    running over the standard tableaux of shape λ' from
    ``standard_tableaux``: the validated primitives one call per element,
    the reference for the DAG of ``rims._tableaux`` behind ``rims._zone``.
    """
    w_j = longest_parabolic_element(parts)
    q_ref = rsk(w_j)[1]
    shape = conjugate(parts)
    sums = partial_sums(shape)
    spans = list(zip(sums, sums[1:]))
    return sorted(
        compose(w_j, rsk_inverse(tuple(t.entries[lo:hi] for lo, hi in spans), q_ref))
        for t in standard_tableaux(young_diagram(shape))
    )


def row_scanning_walk(parts):
    """
    The fiber walk of ``rims._fiber`` from Q(w_J) as ``rsk`` records it,
    bumping every step down to the last: at every step it tests each row of
    the remaining shape for a corner, a row longer than the row below it,
    and reverse-bumps from each corner in row order.  ``walk(place)`` calls
    ``place(s, x, i, filled)`` at every step, in the order ``_fiber``'s
    walk makes its steps, with the bits of the positions written before
    step s; the reference for the tableau ``rims._q_rows`` reads off the
    blocks, for ``_fiber``'s walk of it, and for the edges and leaves of
    the DAG of ``rims._tableaux``.
    """
    w_j = longest_parabolic_element(parts)
    rows = [[x - 1 for x in row] for row in rsk(w_j)[1]]
    below = rows[1:] + [[]]
    table = [
        (row, below[r], tuple(reversed(rows[:r])), tuple(rows[:r]))
        for r, row in enumerate(rows)
    ]
    slot = [x - 1 for x in w_j]

    def walk(place) -> None:
        def remove(s: int, filled: int) -> None:
            for row, lower, rising, falling in table:
                if len(row) > len(lower):
                    x = row.pop()
                    for up in rising:
                        j = bisect_left(up, x) - 1
                        up[j], x = x, up[j]
                    i = slot[x]
                    if place(s, x, i, filled) and s > 1:
                        remove(s - 1, filled | 1 << i)
                    for up in falling:
                        j = bisect_left(up, x)
                        up[j], x = x, up[j]
                    row.append(x)

        remove(sum(parts), 0)

    return walk


def full_zone_rim(parts) -> RimResult:
    """
    The rim by filtering all of Z: the elements e of ``rims._zone`` such
    that no ascent k puts e s_k in Z, each probe a lookup in a set of Z;
    the result holds their diagrams.  The reference for the pruned search
    in ``rim_search``, which never holds Z.
    """
    zone = [decode(record, sum(parts))[1] for record in zone_records(parts)]
    zset = set(zone)
    rim = []
    for e in zone:
        at, scratch = inverse(e), list(e)
        for k in range(1, len(e)):
            i, j = at[k - 1] - 1, at[k] - 1
            if i < j:  # e s_k swaps the values k and k+1 and is one longer
                scratch[i], scratch[j] = k + 1, k
                if tuple(scratch) in zset:
                    break
                scratch[i], scratch[j] = k, k + 1
        else:
            rim.append(e)
    return RimResult(tuple(parts), (diagram_from_element(y, parts) for y in rim))


def coset_reps(parts) -> list[Perm]:
    """
    The minimal coset representatives for the composition, generated
    directly: their row-forms increase inside every block of positions, so
    they are the ordered set partitions of 1..n into blocks of the given
    sizes, each block written in increasing order.
    """
    reps: list[Perm] = [()]
    for size in parts:
        reps = [
            rep + block
            for rep in reps
            for block in combinations(sorted(set(range(1, sum(parts) + 1)) - set(rep)), size)
        ]
    return reps


def prefix_union(result: RimResult) -> set[Perm]:
    """Z recovered from a rim: the union of the prefix sets of the rim
    elements, read off the standard fillings of their diagrams."""
    elements: set[Perm] = set()
    for diagram in result.diagrams:
        elements.update(prefixes_of_wd(diagram))
    return elements


# subset DP over node masks; past ~20 nodes use the RSK route instead
BRUTE_FORCE_NODE_LIMIT = 20


def _chain_union_profile(diagram: Diagram) -> tuple[int, ...]:
    """
    Exhaustive oracle: entry k-1 is the maximum size of a node subset that
    can be covered by at most k disjoint paths.

    A path is a chain of the strict order (a, b) < (a', b') iff a < a' and
    b <= b', so by Dilworth's theorem a subset is coverable by k paths iff
    it has no antichain of size k+1.  Maximum antichains are maximum
    independent sets of the incomparability graph, computed for every node
    subset by one bottom-up DP over bitmasks.
    """
    nodes = diagram.nodes
    n = len(nodes)
    if n > BRUTE_FORCE_NODE_LIMIT:
        raise ValueError(f"brute-force oracle limited to {BRUTE_FORCE_NODE_LIMIT} nodes")

    def comparable(a: Node, b: Node) -> bool:
        return (a[0] < b[0] and a[1] <= b[1]) or (b[0] < a[0] and b[1] <= a[1])

    incompat = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and not comparable(nodes[i], nodes[j]):
                incompat[i] |= 1 << j

    # max_antichain[mask] = size of the largest antichain inside mask
    size = 1 << n
    max_antichain = [0] * size
    for mask in range(1, size):
        low = (mask & -mask).bit_length() - 1
        skip = max_antichain[mask ^ (1 << low)]
        take = 1 + max_antichain[mask & incompat[low]]
        max_antichain[mask] = take if take > skip else skip

    best_by_cover = [0] * (n + 1)
    for mask in range(size):
        c = max_antichain[mask]
        pc = mask.bit_count()
        if pc > best_by_cover[c]:
            best_by_cover[c] = pc

    profile = []
    running = 0
    for k in range(1, n + 1):
        running = max(running, best_by_cover[k])
        profile.append(running)
    return tuple(profile)


def brute_force_kpath_max(diagram: Diagram, k: int) -> int:
    """
    The exact maximum number of nodes covered by at most k mutually
    disjoint paths, found by exhaustive search (no Robinson-Schensted
    machinery involved; used to cross-check ``subsequence_type``).

    >>> brute_force_kpath_max(Diagram(((1, 2), (2, 1))), 1)
    1
    >>> brute_force_kpath_max(young_diagram((2, 2)), 5)
    4
    """
    if k < 1:
        raise ValueError("k must be positive")
    profile = _chain_union_profile(diagram)
    return profile[min(k, diagram.size) - 1]


def oracle_type(profile: tuple[int, ...]) -> tuple[int, ...]:
    """Turn the cumulative k-path maxima into a partition of increments."""
    typ: list[int] = []
    prev = 0
    for g in profile:
        if g == prev:
            break
        typ.append(g - prev)
        prev = g
    return tuple(typ)


def all_pairs_is_ordered(kpath: KPath) -> bool:
    """``is_ordered`` by its definition: every constituent precedes every
    later one, one ``precedes`` call per pair."""
    paths = kpath.paths
    return all(
        precedes(paths[i], paths[j])
        for i in range(len(paths))
        for j in range(i + 1, len(paths))
    )


def peel_path_oracle(nodes) -> tuple[Node, ...]:
    """One peel, row group by row group of the sorted node set: keep each
    row's rightmost node if its column is not below every column kept."""
    path: list[Node] = []
    kept_col = 0
    for _, group in groupby(sorted(set(nodes)), key=lambda node: node[0]):
        candidate = max(group, key=lambda node: node[1])
        if candidate[1] >= kept_col:
            path.append(candidate)
            kept_col = candidate[1]
    return tuple(path)


def order_kpath_oracle(kpath: KPath, parts: int | None = None) -> tuple:
    """
    The constituents ``order_kpath`` returns, by peeling a shrinking node
    set with ``peel_path_oracle`` until it is empty, then splitting the
    front constituents into singletons up to ``parts``.  ValueError where
    ``order_kpath`` refuses.
    """
    remaining = set(kpath.support)
    peels = []
    while remaining:
        rho = peel_path_oracle(remaining)
        peels.append(rho)
        remaining.difference_update(rho)
    constituents = list(reversed(peels))
    if parts is None:
        return tuple(constituents)
    if parts < len(constituents):
        raise ValueError(f"{parts} parts are fewer than {len(constituents)} peels")
    extra = parts - len(constituents)
    idx = 0
    while extra > 0 and idx < len(constituents):
        path = constituents[idx]
        take = min(extra, len(path) - 1)
        if take > 0:
            # the last `take` nodes become singletons, bottom-up
            constituents[idx : idx + 1] = [(node,) for node in reversed(path[-take:])] + [
                path[:-take]
            ]
            extra -= take
            idx += take
        idx += 1
    if extra > 0:
        raise ValueError(f"support has fewer than {parts} nodes")
    return tuple(constituents)


def staircase_row_form(r: int, v: int) -> Perm:
    """
    Frozen row-forms for the rim of (1, 2^{r-2}, 1), written directly from
    the closed pattern: an interleave of 1..r-ish low entries with the high
    entries r..2r-2, with the interlock position controlled by v.
    """
    if v == 0:
        row = [1]
        for i in range(2, r):
            row += [i, r + i - 1]
        row.append(r)
    elif v == r - 2:
        row = [r - 1]
        for i in range(1, r - 1):
            row += [i, r + i - 1]
        row.append(2 * r - 2)
    else:
        row = [v + 1]
        for i in range(1, v + 1):
            row += [i, v + 1 + i]
        for j in range(1, r - 1 - v):
            row += [2 * v + 1 + j, v + r + j]
        row.append(v + r)
    return tuple(row)


def star_extended_staircase(a: int, rows: int, b: int) -> list[Diagram]:
    """
    The rim diagrams of (1^a, 2^{rows-2}, 1^b) by admissibility search: the
    two-column diagrams P(rows, v), each extended downward by ``star_extend``
    b-1 times, turned half round, extended a-1 times and turned back.  The
    reference for the direct construction ``rims._staircase_diagrams``.
    """
    diagrams = [_p_diagram(rows, v) for v in range(rows - 1)]
    for _ in range(b - 1):
        diagrams = [star_extend(d) for d in diagrams]
    diagrams = [rotate180(d) for d in diagrams]
    for _ in range(a - 1):
        diagrams = [star_extend(d) for d in diagrams]
    return [rotate180(d) for d in diagrams]


# three-row special-diagram fixtures, one per composition pattern of
# (s, t, u) sorted decreasingly; used to cross-check the rotation dispatch
def f_fixture(s: int, t: int, u: int, cols) -> Diagram:
    nodes = {(1, i) for i in range(1, s + 1)}
    nodes.update((2, i) for i in cols)
    nodes.update((3, i) for i in range(1, t + 1))
    return Diagram(tuple(nodes))


def k_fixture(s: int, t: int, u: int, cols) -> Diagram:
    nodes = {(1, i) for i in cols}
    nodes.update((2, i) for i in range(1, s + 1))
    nodes.update((3, i) for i in range(1, t - u + 1))
    nodes.update((3, i) for i in cols)
    return Diagram(tuple(nodes))


def l_fixture(s: int, t: int, u: int) -> Diagram:
    nodes = {(1, i) for i in range(s - u + 1, s + 1)}
    nodes.update((2, i) for i in range(s - t + 1, s + 1))
    nodes.update((3, i) for i in range(1, s + 1))
    return Diagram(tuple(nodes))
