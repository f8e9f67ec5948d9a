import random

import pytest

import klrim.paths as paths_module
from hypothesis import given, strategies as st

from klrim.diagrams import Diagram, act, diagram_from_element, is_standard, row_fill, w_of_diagram, young_diagram
from klrim.paths import (
    KPath,
    diagram_of_ordered,
    extend_by_singletons,
    insert_singleton,
    is_ordered,
    left_side,
    order_kpath,
    peel_path,
    precedes,
)
from klrim.paths import right_side
from klrim.rims import _d_tsu_diagram, _p_diagram

from support import (
    all_pairs_is_ordered,
    compress_nodes,
    node_of_entry,
    order_kpath_oracle,
    peel_path_oracle,
    random_diagram,
    random_kpath,
)

# a 7-path on a 6x7 board that is not ordered, its canonical ordered
# 5-path equivalent, and another equivalent ordered 7-path
SEVEN_PATH = (
    ((1, 1), (4, 2), (6, 4)),
    ((1, 2), (3, 3), (4, 3), (6, 5)),
    ((1, 3), (3, 4), (4, 4)),
    ((3, 5), (4, 5)),
    ((1, 4), (2, 4), (5, 4), (6, 6)),
    ((1, 5), (3, 6), (4, 7)),
    ((2, 1), (5, 3)),
)
ORDERED_FIVE = (
    ((1, 1), (2, 1), (4, 2)),
    ((1, 2), (3, 3), (4, 3), (5, 3), (6, 4)),
    ((1, 3), (3, 4), (4, 4), (5, 4), (6, 5)),
    ((1, 4), (2, 4), (3, 5), (4, 5), (6, 6)),
    ((1, 5), (3, 6), (4, 7)),
)
ORDERED_SEVEN = (
    ((2, 1), (5, 3)),
    ((1, 1), (4, 2), (6, 4)),
    ((1, 2), (3, 3), (4, 3), (6, 5)),
    ((5, 4), (6, 6)),
    ((1, 3), (3, 4), (4, 4)),
    ((1, 4), (2, 4), (3, 5), (4, 5)),
    ((1, 5), (3, 6), (4, 7)),
)


def test_kpath_validation():
    with pytest.raises(ValueError):
        KPath(())
    with pytest.raises(ValueError):
        KPath((((1, 1), (1, 2)),))  # same row twice
    with pytest.raises(ValueError):
        KPath((((1, 2), (2, 1)),))  # column decreases
    with pytest.raises(ValueError):
        KPath((((1, 1),), ((1, 1),)))  # overlap
    with pytest.raises(ValueError):
        KPath((((1, 1),), ((9, 9),)), host=young_diagram((2, 1)))
    for node in [(1, -1), (0, 1), (1, 0)]:
        with pytest.raises(ValueError, match="1-based positive"):
            KPath(((node, (5, 5)),))
    kp = KPath(SEVEN_PATH)
    assert kp.k == 7
    assert kp.length == 21
    assert kp.type == (4, 4, 3, 3, 3, 2, 2)


def test_kpath_refuses_non_integer_nodes_rather_than_truncating():
    for paths in [(((1.5, 1), (2, 1.9)),), (((1, 1),), ((2, "2"),)), ((1,),)]:
        with pytest.raises(ValueError, match="^k-path nodes must be pairs of integers: "):
            KPath(paths)


def test_insert_singleton_refuses_a_non_integer_node():
    kpath = KPath((((1, 1),),))
    for node in [(2.0, 1), (2, 1.5), ("2", 1)]:
        with pytest.raises(ValueError, match="^a node must be a pair of integers: "):
            insert_singleton(kpath, node)
    assert insert_singleton(kpath, (1, 2)).paths == (((1, 1),), ((1, 2),))


def test_extend_by_singletons_refuses_non_integer_nodes():
    kpath = KPath((((1, 1),),))
    for nodes in [[(1, 2.0)], [(1, 2), (1.5, 3)], [("1", 2)]]:
        with pytest.raises(ValueError, match="^nodes must be pairs of integers: "):
            extend_by_singletons(kpath, nodes)


def test_precedes_examples():
    assert precedes({(2, 3)}, {(1, 1)})
    assert precedes({(1, 1)}, {(3, 2)})
    assert not precedes({(2, 3)}, {(3, 2)})
    # both directions can hold at once
    assert precedes({(1, 1)}, {(2, 2)})
    assert precedes({(2, 2)}, {(1, 1)})
    # any integer coordinates; with no node of the first set in rows <= 1,
    # the condition holds vacuously for (1, -3)
    assert precedes({(1, -1)}, {(2, 0)})
    assert precedes({(2, 5)}, {(1, -3)})
    # never reflexive
    for nodes in [{(1, 1)}, {(1, 2), (2, 1)}, set(SEVEN_PATH[0])]:
        assert not precedes(nodes, nodes)
    with pytest.raises(ValueError):
        precedes(set(), {(1, 1)})


node_sets = st.frozensets(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=8)


@given(node_sets, node_sets)
def test_precedes_and_right_side_follow_their_definition_on_any_coordinates(first, second):
    def right_of_first(node):
        return all(b1 < node[1] for a1, b1 in first if a1 <= node[0])

    in_right = right_side(first)
    for node in second:
        assert in_right(node) == right_of_first(node), node
    assert precedes(first, second) == all(map(right_of_first, second))


def _random_subsets(rng, diagram):
    while True:
        first = frozenset(n for n in diagram.nodes if rng.random() < 0.4)
        second = frozenset(n for n in diagram.nodes if rng.random() < 0.4)
        if first and second:
            return first, second


def test_left_right_side_equivalence():
    rng = random.Random(41)
    for _ in range(200):
        d = random_diagram(rng)
        first, second = _random_subsets(rng, d)
        in_left = left_side(second, d)
        in_right = right_side(first)
        expected = precedes(first, second)
        assert all(in_left(node) for node in first) == expected
        assert all(in_right(node) for node in second) == expected


def test_side_defaults():
    d = young_diagram((2, 2))
    assert right_side({(1, 1)})((1, 2))
    assert left_side({(2, 2)}, d)((1, 1))
    # rows past the set: the left side extends to one past the host's columns
    assert left_side({(1, 1)}, d)((2, 2))
    assert not left_side({(1, 1)}, d)((2, 3))


def test_precedes_subset_monotone_and_union():
    rng = random.Random(43)
    for _ in range(200):
        d = random_diagram(rng)
        first, second = _random_subsets(rng, d)
        if precedes(first, second):
            sub1 = frozenset(list(first)[: max(1, len(first) // 2)])
            sub2 = frozenset(list(second)[: max(1, len(second) // 2)])
            assert precedes(sub1, sub2)
        third = frozenset(n for n in d.nodes if rng.random() < 0.4)
        if third and precedes(first, third) and precedes(second, third):
            assert precedes(first | second, third)


def test_is_ordered_on_worked_example():
    assert not is_ordered(KPath(SEVEN_PATH))
    assert is_ordered(KPath(ORDERED_FIVE))
    assert is_ordered(KPath(ORDERED_SEVEN))
    assert KPath(SEVEN_PATH).support == KPath(ORDERED_FIVE).support


def test_peel_path_examples():
    path = ((1, 1), (2, 1), (4, 3))
    assert peel_path(set(path)) == path
    assert peel_path({(1, 1), (1, 3), (2, 2)}) == ((1, 3),)
    with pytest.raises(ValueError):
        peel_path(set())
    # no column reaches the empty start, so nothing could be peeled
    with pytest.raises(RuntimeError):
        peel_path({(1, -1)})


def test_peel_remainder_precedes_peeled():
    rng = random.Random(47)
    for _ in range(300):
        d = random_diagram(rng, max_nodes=10)
        nodes = {n for n in d.nodes if rng.random() < 0.7} or {d.nodes[0]}
        rho = peel_path(nodes)
        remainder = nodes - set(rho)
        if remainder:
            assert precedes(remainder, rho)


def test_order_kpath_worked_example():
    out = order_kpath(KPath(SEVEN_PATH))
    assert out.paths == ORDERED_FIVE


def test_order_kpath_identity_on_ordered_input():
    kp = KPath(ORDERED_FIVE)
    out = order_kpath(kp)
    assert out.support == kp.support
    assert is_ordered(out)


def test_order_kpath_split_to_requested_parts():
    # a single path split into k parts: bottom nodes become singletons
    # listed bottom-up, then the initial remainder
    path = tuple((i, i) for i in range(1, 6))
    kp = KPath((path,))
    out = order_kpath(kp, parts=3)
    assert out.paths == (((5, 5),), ((4, 4),), ((1, 1), (2, 2), (3, 3)))
    assert order_kpath(kp, parts=5).paths == (
        ((5, 5),),
        ((4, 4),),
        ((3, 3),),
        ((2, 2),),
        ((1, 1),),
    )
    with pytest.raises(ValueError):
        order_kpath(kp, parts=6)


def test_order_kpath_requested_parts_below_peel_count():
    kp = KPath((((1, 2),), ((2, 1),)))  # two incomparable nodes: two peels
    with pytest.raises(ValueError):
        order_kpath(kp, parts=1)


def test_order_kpath_random_properties():
    rng = random.Random(53)
    for _ in range(500):
        d = random_diagram(rng, max_nodes=10)
        kp = random_kpath(rng, d)
        out = order_kpath(kp)
        assert out.support == kp.support
        assert is_ordered(out)
        assert out.k <= kp.k
        exact = order_kpath(kp, parts=kp.k)
        assert exact.k == kp.k
        assert exact.support == kp.support
        assert is_ordered(exact)


# coordinates up to 8, or 10**12: a row or column indexed by value would
# not fit in memory
coordinates = st.integers(1, 8) | st.just(10**12)


@st.composite
def kpaths(draw) -> KPath:
    """Sweep a random node set row-major, extending a compatible path or
    opening a new one, then list the paths in a random order."""
    cells = draw(st.sets(st.tuples(coordinates, coordinates), min_size=1, max_size=30))
    paths: list[list] = []
    for node in sorted(cells):
        options = [p for p in paths if p[-1][0] < node[0] and p[-1][1] <= node[1]]
        pick = draw(st.integers(0, len(options)))
        if pick < len(options):
            options[pick].append(node)
        else:
            paths.append([node])
    return KPath(tuple(map(tuple, draw(st.permutations(paths)))))


@given(kpaths(), st.randoms(use_true_random=False))
def test_is_ordered_matches_the_all_pairs_oracle(kp, rng):
    assert is_ordered(kp) == all_pairs_is_ordered(kp)
    ordered = KPath(order_kpath_oracle(kp))
    assert is_ordered(ordered) and all_pairs_is_ordered(ordered)
    # a reordering of ordered constituents may or may not stay ordered
    shuffled = KPath(tuple(rng.sample(ordered.paths, ordered.k)))
    assert is_ordered(shuffled) == all_pairs_is_ordered(shuffled)


@given(kpaths(), st.integers(-1, 40))
def test_order_kpath_matches_the_peeling_oracle(kp, parts):
    assert peel_path(kp.support) == peel_path_oracle(kp.support)
    assert order_kpath(kp).paths == order_kpath_oracle(kp)
    try:
        expected = order_kpath_oracle(kp, parts)
    except ValueError:
        with pytest.raises(ValueError):
            order_kpath(kp, parts)
    else:
        assert order_kpath(kp, parts).paths == expected


@given(kpaths(), st.integers(1, 40), st.randoms(use_true_random=False))
def test_order_kpath_results_pass_the_constructor_checks(kp, parts, rng):
    # order_kpath builds its result without KPath's checks; each would pass
    hosted = random_kpath(rng, random_diagram(rng, max_nodes=20), cover=rng.random() < 0.5)
    for source in (kp, hosted):
        results = [order_kpath(source)]
        try:
            results.append(order_kpath(source, parts))
        except ValueError:
            pass  # parts below the peel count or above the node count
        for r in results:
            assert KPath(r.paths, host=r.host) == r


def test_order_kpath_still_checks_its_result(monkeypatch):
    kp = KPath(SEVEN_PATH)
    with monkeypatch.context() as m:
        m.setattr(paths_module, "is_ordered", lambda kpath: False)
        with pytest.raises(RuntimeError, match="ordered"):
            order_kpath(kp)
    # peeling a support that lost a node gives an ordered k-path on less
    real_buckets = paths_module._row_buckets
    monkeypatch.setattr(paths_module, "_row_buckets", lambda nodes: real_buckets(sorted(nodes)[1:]))
    with pytest.raises(RuntimeError, match="same support"):
        order_kpath(kp)


def test_huge_rows_and_columns_are_ranked_not_indexed():
    big = 10**12
    kp = KPath((((2, big + 1),), ((big, big),), ((1, 1), (big - 1, big))))
    assert not is_ordered(kp)
    assert not all_pairs_is_ordered(kp)
    out = order_kpath(kp)
    expected = (((big - 1, big), (big, big)), ((1, 1), (2, big + 1)))
    assert out.paths == order_kpath_oracle(kp) == expected
    assert is_ordered(out)


def test_diagram_of_ordered_on_column_decompositions():
    for parts in [(2, 1), (3, 3, 1), (4, 2, 2, 1)]:
        d = young_diagram(parts)
        columns = {}
        for r, c in d.nodes:
            columns.setdefault(c, []).append((r, c))
        kp = KPath(tuple(tuple(columns[c]) for c in sorted(columns)), host=d)
        assert is_ordered(kp)
        assert diagram_of_ordered(kp) == d


def test_diagram_of_ordered_fixed_points_of_staircase_family():
    # decompose each two-column interlock the way its rim membership forces
    # and check the compression returns the same diagram
    r = 5
    for v in range(1, r - 2):
        d = _p_diagram(r, v)
        rho1 = tuple((i, 1) for i in range(2, v + 2))
        rho2 = tuple((i, 2) for i in range(1, r + 1))
        rho3 = tuple((i, 3) for i in range(v + 2, r))
        kp = KPath((rho1, rho2, rho3), host=d)
        assert is_ordered(kp)
        assert diagram_of_ordered(kp) == d


def test_diagram_of_ordered_requires_cover_and_order():
    d = young_diagram((2, 1))
    with pytest.raises(ValueError):
        diagram_of_ordered(KPath((((1, 1), (2, 1)),), host=d))  # not full support
    crossing = KPath((((1, 2),), ((1, 1), (2, 1))), host=d)
    assert not is_ordered(crossing)
    with pytest.raises(ValueError):
        diagram_of_ordered(crossing)
    with pytest.raises(ValueError):
        diagram_of_ordered(KPath((((1, 1), (2, 1)), ((1, 2),))))  # no host


def test_insert_singleton_cases():
    # append after everything
    kp = KPath((((1, 1),),))
    out = insert_singleton(kp, (2, 2))
    assert out.paths == (((1, 1),), ((2, 2),))
    # vertical sandwich joins the bracketing path
    kp = KPath((((1, 1), (3, 1)),))
    out = insert_singleton(kp, (2, 1))
    assert out.paths == (((1, 1), (2, 1), (3, 1)),)
    # placed after the longest preceding run
    kp = KPath((((2, 1),), ((1, 2), (2, 2))))
    out = insert_singleton(kp, (3, 2))
    assert out.k == 3
    assert is_ordered(out)
    with pytest.raises(ValueError):
        insert_singleton(kp, (2, 1))


def test_extend_by_singletons_families():
    # second-row leftovers of the two-big-parts rim diagrams extend an
    # ordered (t+...)-path to a full cover of the right type
    t, s, rows = 2, 4, 3
    d = _d_tsu_diagram(t, s, 1, rows)
    long_path = ((1, 1), (2, 1), (3, 1))
    second = ((1, 4), (2, 4))
    base = KPath((long_path, second), host=d)
    assert is_ordered(base)
    leftovers = sorted(d.node_set - base.support)
    full = extend_by_singletons(base, leftovers)
    assert full.k == base.k + len(leftovers)
    assert full.support == d.node_set
    assert is_ordered(full)
    assert full.type == (3, 2, 1, 1)
    assert diagram_of_ordered(full) == d

    assert extend_by_singletons(base, ()) == base
    with pytest.raises(ValueError):
        extend_by_singletons(KPath((((1, 1), (3, 1)),)), [(2, 1)])


def _theta(source, target):
    """Row-wise index bijection between diagrams of one row composition."""
    by_row_src = {}
    by_row_dst = {}
    for r, c in source.nodes:
        by_row_src.setdefault(r, []).append((r, c))
    for r, c in target.nodes:
        by_row_dst.setdefault(r, []).append((r, c))
    mapping = {}
    for r in by_row_src:
        for a, b in zip(by_row_src[r], by_row_dst[r]):
            mapping[a] = b
    return mapping


def test_row_bijection_maps_kpaths_to_kpaths():
    # when the transported column filling is standard, images of k-paths
    # are again k-paths (though not necessarily ordered ones)
    rng = random.Random(59)
    hits = 0
    for _ in range(200):
        d = random_diagram(rng, max_nodes=8)
        e = diagram_from_element(w_of_diagram(d), d.row_composition)
        assert is_standard(act(row_fill(e), w_of_diagram(d)))
        theta = _theta(e, d)
        kp = random_kpath(rng, e)
        image = KPath(
            tuple(tuple(theta[node] for node in path) for path in kp.paths), host=d
        )
        assert image.support == frozenset(theta[n] for n in kp.support)
        hits += 1
    assert hits == 200


def test_row_bijection_does_not_preserve_order():
    # explicit ten-node witness: an ordered 4-path whose image is unordered
    e = Diagram(
        ((1, 1), (1, 2), (2, 1), (2, 4), (2, 5), (3, 1), (3, 3), (3, 5), (3, 6), (4, 2))
    )
    d = Diagram(
        ((1, 1), (1, 2), (2, 1), (2, 2), (2, 4), (3, 1), (3, 3), (3, 4), (3, 5), (4, 2))
    )
    assert e.row_composition == d.row_composition == (2, 3, 4, 1)
    w = w_of_diagram(d)
    tableau = act(row_fill(e), w)
    assert is_standard(tableau)
    groups = [(1, 2, 3, 6), (4, 7), (5, 9), (8, 10)]
    paths = tuple(
        tuple(sorted(node_of_entry(tableau)[x] for x in group)) for group in groups
    )
    kp = KPath(paths, host=e)
    assert is_ordered(kp)
    theta = _theta(e, d)
    image = KPath(tuple(tuple(theta[n] for n in p) for p in kp.paths), host=d)
    assert not is_ordered(image)
