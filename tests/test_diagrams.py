import random
from itertools import combinations, permutations as all_permutations, product

import pytest
from hypothesis import given, settings, strategies as st

import klrim.diagrams as diagrams_module
import klrim.permutations as permutations_module

from klrim.compositions import compositions_of, conjugate, dominates
from klrim.diagrams import (
    Diagram,
    DTableau,
    act,
    column_fill,
    complete_prefix,
    diagram_from_element,
    is_admissible,
    is_special,
    is_standard,
    prefixes_of_wd,
    rotate180,
    row_fill,
    standard_tableaux,
    subsequence_type,
    w_of_diagram,
    young_diagram,
)
from klrim.permutations import (
    compose,
    dot_conjugate,
    from_generator_word,
    identity,
    is_coset_rep,
    length,
    longest_parabolic_element,
    shape,
)
from klrim.rims import _p_diagram

from support import (
    _chain_union_profile,
    brute_force_kpath_max,
    brute_prefixes,
    compress_nodes,
    oracle_type,
    random_diagram,
    staircase_row_form,
)

V21 = young_diagram((2, 1))


def test_diagram_validation():
    with pytest.raises(ValueError):
        Diagram(())
    with pytest.raises(ValueError):
        Diagram(((1, 1), (1, 1)))
    with pytest.raises(ValueError):
        Diagram(((1, 1), (3, 1)))  # empty row 2
    with pytest.raises(ValueError):
        Diagram(((1, 2),))  # empty column 1
    assert Diagram(((2, 1), (1, 1), (1, 2))).nodes == ((1, 1), (1, 2), (2, 1))


def test_diagram_refuses_non_integer_nodes_rather_than_truncating():
    for nodes in [((1.9, 1.2),), ((1, 1), (1, 2.0)), (("1", 1),), (1,)]:
        with pytest.raises(ValueError, match="^diagram nodes must be pairs of integers: "):
            Diagram(nodes)


def test_dtableau_refuses_non_integer_entries_rather_than_truncating():
    for entries in [(1.0, 2, 3), (1, 2, 3.5), ("1", 2, 3)]:
        with pytest.raises(ValueError, match="^tableau entries must be integers: "):
            DTableau(V21, entries)
    assert DTableau(V21, (3, 1, 2)).entries == (3, 1, 2)


def test_row_and_column_compositions():
    assert V21.row_composition == (2, 1)
    assert V21.column_composition == (2, 1)
    p0 = _p_diagram(3, 0)
    assert p0.row_composition == (1, 2, 1)
    assert p0.column_composition == (3, 1)
    single_row = Diagram(tuple((1, j) for j in range(1, 6)))
    assert single_row.row_composition == (5,)
    assert single_row.column_composition == (1,) * 5


def test_fills_on_young_diagram():
    t_row = row_fill(V21)
    t_col = column_fill(V21)
    assert dict(zip(V21.nodes, t_row.entries)) == {(1, 1): 1, (1, 2): 2, (2, 1): 3}
    assert dict(zip(V21.nodes, t_col.entries)) == {(1, 1): 1, (1, 2): 3, (2, 1): 2}


def test_w_of_diagram_examples():
    single_row = Diagram(tuple((1, j) for j in range(1, 5)))
    assert w_of_diagram(single_row) == identity(4)
    assert w_of_diagram(V21) == (1, 3, 2)


@given(st.sets(st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=1, max_size=45))
def test_w_of_diagram_ranks_the_nodes_by_column_then_row(cells):
    d = Diagram(compress_nodes(cells))
    by_column = sorted(d.nodes, key=lambda node: (node[1], node[0]))
    assert w_of_diagram(d) == tuple(by_column.index(node) + 1 for node in d.nodes)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_w_of_staircase_diagrams_matches_closed_row_forms(r):
    for v in range(r - 1):
        assert w_of_diagram(_p_diagram(r, v)) == staircase_row_form(r, v)


def test_staircase_column_fill_matches_displayed_tableau():
    # r = 4, v = 1: the interlocked two-column diagram with a third-column spur
    t = column_fill(_p_diagram(4, 1))
    assert dict(zip(t.diagram.nodes, t.entries)) == {
        (1, 2): 2,
        (2, 1): 1,
        (2, 2): 3,
        (3, 2): 4,
        (3, 3): 6,
        (4, 2): 5,
    }


def test_is_standard():
    assert is_standard(row_fill(V21))
    assert is_standard(column_fill(V21))
    assert not is_standard(DTableau(V21, (2, 3, 1)))
    rng = random.Random(1)
    for _ in range(50):
        d = random_diagram(rng)
        assert is_standard(row_fill(d))
        assert is_standard(column_fill(d))


def test_act():
    t = row_fill(V21)
    assert act(t, identity(3)) == t
    assert act(t, w_of_diagram(V21)) == column_fill(V21)
    with pytest.raises(ValueError):
        act(t, identity(4))


def test_is_special_examples():
    assert is_special(young_diagram((3, 2, 2)))
    assert not is_special(Diagram(((1, 2), (2, 1))))
    # three full-ish rows with matching column sets, a known special shape
    g = Diagram(
        tuple({(1, i) for i in (2, 4, 5, 7, 8)}
              | {(2, i) for i in range(1, 9)}
              | {(3, i) for i in (2, 4, 5)})
    )
    assert is_special(g)


def _sorted_desc(parts):
    return tuple(sorted(parts, reverse=True))


@settings(max_examples=60)
@given(st.integers(0, 10**9))
def test_special_iff_conjugate_condition(seed):
    d = random_diagram(random.Random(seed))
    # the definition: any two nodes in distinct rows and columns have a
    # crossing position that is also a node
    crossing = all(
        i == i2 or j == j2 or (i2, j) in d or (i, j2) in d
        for i, j in d.nodes
        for i2, j2 in d.nodes
    )
    algebraic = _sorted_desc(d.row_composition) == conjugate(d.column_composition)
    assert is_special(d) == crossing == algebraic


def _random_special(rng):
    parts = tuple(sorted(rng.choices(range(1, 5), k=rng.randint(1, 4)), reverse=True))
    d = young_diagram(parts)
    rows = list(range(1, d.row_count + 1))
    cols = list(range(1, d.column_count + 1))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return Diagram(tuple((rows[r - 1], cols[c - 1]) for r, c in d.nodes))


def test_special_implies_admissible_and_canonical():
    rng = random.Random(5)
    for _ in range(40):
        d = _random_special(rng)
        assert is_special(d)
        assert is_admissible(d)
        assert diagram_from_element(w_of_diagram(d), d.row_composition) == d


def test_diagram_from_element_examples():
    assert diagram_from_element((1, 3, 2), (2, 1)) == V21
    # identity with two blocks: the second row starts under the last entry
    # of the first, giving the three-column minimal form
    assert diagram_from_element(identity(4), (2, 2)).nodes == (
        (1, 1),
        (1, 2),
        (2, 2),
        (2, 3),
    )
    for r in (3, 4):
        parts = (1,) + (2,) * (r - 2) + (1,)
        for v in range(r - 1):
            assert diagram_from_element(staircase_row_form(r, v), parts) == _p_diagram(r, v)
    with pytest.raises(ValueError):
        diagram_from_element((2, 1, 3), (2, 1))
    with pytest.raises(ValueError):
        diagram_from_element((1, 2, 3), (2, 2))


def _all_diagrams_with(parts, d):
    """Every principal diagram with the given row composition whose column
    reading gives d; exhaustive over column placements."""
    n = sum(parts)
    per_row = [combinations(range(1, n + 1), p) for p in parts]
    for placement in product(*per_row):
        nodes = tuple(
            (r, c) for r, cols in enumerate(placement, 1) for c in cols
        )
        used_cols = {c for _, c in nodes}
        if used_cols != set(range(1, max(used_cols) + 1)):
            continue
        diagram = Diagram(nodes)
        if w_of_diagram(diagram) == d:
            yield diagram


def test_diagram_from_element_has_fewest_columns():
    for n in (3, 4):
        for parts in compositions_of(n):
            for w in all_permutations(range(1, n + 1)):
                d = tuple(w)
                if not is_coset_rep(d, parts):
                    continue
                canonical = diagram_from_element(d, parts)
                rivals = list(_all_diagrams_with(parts, d))
                assert canonical in rivals
                fewest = min(r.column_count for r in rivals)
                assert canonical.column_count == fewest
                assert [r for r in rivals if r.column_count == fewest] == [canonical]


def test_standard_tableaux_counts():
    assert len(list(standard_tableaux(V21))) == 2
    column = Diagram(tuple((i, 1) for i in range(1, 5)))
    assert len(list(standard_tableaux(column))) == 1
    offset = Diagram(((1, 1), (2, 2)))
    assert len(list(standard_tableaux(offset))) == 1
    for t in standard_tableaux(V21):
        assert is_standard(t)


def test_prefixes_of_wd_examples():
    assert set(prefixes_of_wd(V21)) == {identity(3), (1, 3, 2)}
    staircase = Diagram(((1, 1), (1, 2), (2, 3), (2, 4)))
    assert w_of_diagram(staircase) == identity(4)
    assert set(prefixes_of_wd(staircase)) == {identity(4)}


def test_prefix_bijection_on_random_diagrams():
    rng = random.Random(11)
    for _ in range(40):
        d = random_diagram(rng, max_nodes=6)
        via_tableaux = set(prefixes_of_wd(d))
        assert via_tableaux == brute_prefixes(w_of_diagram(d))


def test_complete_prefix_examples():
    assert complete_prefix((1, 3, 2), V21) == ()
    assert complete_prefix(identity(3), V21) == (2,)
    staircase = Diagram(((1, 1), (1, 2), (2, 3), (2, 4)))
    assert complete_prefix(identity(4), staircase) == ()
    with pytest.raises(ValueError):
        complete_prefix((2, 1, 3), V21)  # image tableau not standard


def test_complete_prefix_walks_up_by_one():
    rng = random.Random(23)
    for _ in range(30):
        d = random_diagram(rng, max_nodes=7)
        target = w_of_diagram(d)
        prefixes = list(prefixes_of_wd(d))
        u = rng.choice(prefixes)
        word = complete_prefix(u, d)
        walk = u
        for k in word:
            nxt = compose(walk, from_generator_word(len(u), (k,)))
            assert length(nxt) == length(walk) + 1
            walk = nxt
        assert walk == target


def test_subsequence_type_examples():
    single_row = Diagram(tuple((1, j) for j in range(1, 6)))
    assert subsequence_type(single_row) == (1,) * 5
    for parts in [(3, 1), (2, 2), (4, 2, 1)]:
        assert subsequence_type(young_diagram(parts)) == conjugate(parts)
    assert subsequence_type(_p_diagram(4, 1)) == (4, 2)


@given(st.sets(st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=1, max_size=45))
def test_subsequence_type_is_the_shape_of_w_j_times_w_d(cells):
    d = Diagram(compress_nodes(cells))
    rows = d.row_composition
    expected = shape(compose(longest_parabolic_element(rows), w_of_diagram(d)))
    assert subsequence_type(d) == expected
    assert is_admissible(d) == (expected == conjugate(rows))


def test_a_diagram_inserts_once_for_admissibility_and_type(monkeypatch):
    shapes, inserted = [], []
    real_shape, real_insert = diagrams_module.shape, permutations_module._insert

    def counting_shape(word):
        shapes.append(word)
        return real_shape(word)

    def counting_insert(rows, x):
        inserted.append(x)
        return real_insert(rows, x)

    monkeypatch.setattr(diagrams_module, "shape", counting_shape)
    monkeypatch.setattr(permutations_module, "_insert", counting_insert)
    d = _p_diagram(4, 1)
    assert is_admissible(d)
    assert subsequence_type(d) == (4, 2)
    # one shape, and one insertion step per node: no recording tableau,
    # no second pass
    assert len(shapes) == 1
    assert len(inserted) == d.size


def test_brute_force_kpath_max_examples():
    anti = Diagram(((1, 2), (2, 1)))
    assert brute_force_kpath_max(anti, 1) == 1
    assert brute_force_kpath_max(anti, 2) == 2
    column = Diagram(tuple((i, 1) for i in range(1, 7)))
    assert brute_force_kpath_max(column, 1) == 6
    d = young_diagram((2, 2))
    assert brute_force_kpath_max(d, 9) == d.size


def test_oracle_matches_rsk_type_small_grid():
    # exhaustive over principal diagrams inside a 3x3 grid
    cells = [(r, c) for r in range(1, 4) for c in range(1, 4)]
    for k in range(1, 7):
        for combo in combinations(cells, k):
            rows = {r for r, _ in combo}
            cols = {c for _, c in combo}
            if rows != set(range(1, max(rows) + 1)):
                continue
            if cols != set(range(1, max(cols) + 1)):
                continue
            d = Diagram(combo)
            assert oracle_type(_chain_union_profile(d)) == subsequence_type(d)


def test_is_admissible_examples():
    assert is_admissible(young_diagram((3, 2)))
    for r in (3, 4, 5):
        for v in range(r - 1):
            assert is_admissible(_p_diagram(r, v))
    assert not is_admissible(Diagram(((1, 2), (2, 1))))


def test_rotate180():
    assert rotate180(V21).nodes == ((1, 2), (2, 1), (2, 2))
    rng = random.Random(3)
    for _ in range(40):
        d = random_diagram(rng)
        rot = rotate180(d)
        assert rotate180(rot) == d
        assert rot.row_composition == tuple(reversed(d.row_composition))
        assert rot.column_composition == tuple(reversed(d.column_composition))
        assert subsequence_type(rot) == subsequence_type(d)
        assert w_of_diagram(rot) == dot_conjugate(w_of_diagram(d))


def test_type_sits_between_column_and_row_conjugates():
    rng = random.Random(17)
    for _ in range(60):
        d = random_diagram(rng)
        nu = subsequence_type(d)
        assert dominates(_sorted_desc(d.column_composition), nu)
        assert dominates(nu, conjugate(d.row_composition))


def _plus_roots(w):
    n = len(w)
    return {(p, q) for p in range(1, n) for q in range(p + 1, n + 1) if w[p - 1] < w[q - 1]}


def test_southeast_pairs_are_the_unshuffled_roots_of_w():
    # the pairs (l, m) with node(l) weakly north-west of node(m) in the row
    # filling are exactly the positive roots kept positive by w_of_diagram
    rng = random.Random(29)
    for _ in range(40):
        d = random_diagram(rng, max_nodes=7)
        nodes = d.nodes
        se_pairs = {
            (l, m)
            for l in range(1, d.size + 1)
            for m in range(1, d.size + 1)
            if l != m
            and nodes[l - 1][0] <= nodes[m - 1][0]
            and nodes[l - 1][1] <= nodes[m - 1][1]
        }
        assert se_pairs == _plus_roots(w_of_diagram(d))
