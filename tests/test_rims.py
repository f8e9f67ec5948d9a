import hashlib
import tracemalloc
from collections import Counter
from functools import cached_property
from itertools import chain, permutations
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from klrim import rims
from klrim.compositions import compositions_of, is_partition, reverse_composition
from klrim.diagrams import (
    Diagram,
    diagram_from_element,
    is_admissible,
    is_special,
    rotate180,
    w_of_diagram,
    young_diagram,
)
from klrim.permutations import (
    compose,
    dot_conjugate,
    from_generator_word,
    identity,
    is_coset_rep,
    is_prefix,
    length,
    longest_element,
    longest_parabolic_element,
    rsk,
)
from klrim.rims import (
    THEOREMS,
    RimResult,
    SearchBoundExceeded,
    cell_elements,
    cell_size,
    rim_closed_form,
    rim_search,
    star_extend,
    theta_star,
    verify_theorem,
    verify_theorems,
    _band,
    _bands,
    _cell,
    _check_record_range,
    _d_tsu_diagram,
    _fiber,
    _g_diagram,
    _h_diagram,
    _keeps_recording,
    _length_counts,
    _p_diagram,
    _Spelling,
    _staircase_diagrams,
    _tableaux,
    _three_part_count,
    _three_part_diagrams,
    _zone,
)

from support import (
    bfs_zone,
    coset_reps,
    count_walks,
    decode,
    f_fixture,
    full_zone_rim,
    inverse_insertion_zone,
    k_fixture,
    l_fixture,
    prefix_union,
    restart_reduced_word,
    row_scanning_walk,
    staircase_row_form,
    star_extended_staircase,
    zone_records,
)


def test_rim_search_on_partitions():
    # sorted compositions always have the one-element rim of the stacked
    # left-justified diagram
    for n in range(1, 7):
        for parts in compositions_of(n):
            if not is_partition(parts):
                continue
            result = rim_search(parts)
            assert result.rim == (w_of_diagram(young_diagram(parts)),)
            assert result.special == (True,)


def test_rim_search_examples():
    assert rim_search((2, 1)).rim == ((1, 3, 2),)
    assert rim_search((1, 2)).rim == ((2, 1, 3),)
    result = rim_search((1, 2, 1))
    assert result.rim == ((1, 2, 4, 3), (2, 1, 3, 4))
    assert result.rim_size == 2


def test_pruned_rim_search_matches_the_full_zone_filter():
    for n in range(1, 11):
        for parts in compositions_of(n):
            assert rim_search(parts) == full_zone_rim(parts), parts


def test_the_search_of_a_tall_shape_matches_its_closed_form():
    # Q(w_J) of (1, 40, 1) has 40 rows, 39 of them one box wide, and each
    # step's scan stops at the first empty row
    for parts, size in [((1, 40, 1), 40), ((2, 30, 1), 29)]:
        result = rim_search(parts, sum(parts))
        assert result == rim_closed_form(parts), parts
        assert result.rim_size == size, parts


def test_rim_search_past_the_default_bound_is_pinned():
    # sha256 of the rim, its diagrams and flags as the full-Z filter gives
    # them from 416,988 elements of Z; the pruned search visits 3351 leaves
    result = rim_search((3, 1, 2, 4, 1, 3, 2), bound=16)
    assert (result.rim_size, result.special_count) == (107, 24)
    nodes = tuple(d.nodes for d in result.diagrams)
    digest = hashlib.sha256(repr((result.rim, nodes, result.special)).encode())
    assert digest.hexdigest() == (
        "43e2724369253671cf80f355f2a40eed7d35c90c9dba579ac8e97651698888d2"
    )


def test_the_leaf_test_agrees_with_the_recording_tableau_of_rsk():
    # rsk is the oracle of the row-by-row test that stops at the first box
    # landing in another row
    for n in range(1, 8):
        recordings = [(v, rsk(v)[1]) for v in permutations(range(1, n + 1))]
        for parts in compositions_of(n):
            q = rsk(longest_parabolic_element(parts))[1]
            landing = [r for p in parts for r in range(p)]
            for v, q_v in recordings:
                assert _keeps_recording(v, landing) == (q_v == q), (parts, v)


def test_a_search_runs_no_rsk(monkeypatch):
    # Q(w_J) is read off the blocks and the leaves build no tableau, so a
    # search never reaches rsk
    def no_rsk(w):
        raise AssertionError(f"rsk called on {w}")

    searches = []
    real_search = rims.rim_search

    def counting_search(parts, bound=None):
        searches.append(parts)
        return real_search(parts, bound)

    assert "rsk" not in vars(rims)
    monkeypatch.setattr("klrim.permutations.rsk", no_rsk)
    assert rim_search((3, 1, 2, 4, 1, 3, 2), bound=16).rim_size == 107
    monkeypatch.setattr(rims, "rim_search", counting_search)
    assert all(report.passed for report in verify_theorems(THEOREMS, 8))
    assert len(searches) == 2 ** 8 - 1


def swap_values(v, k):
    return tuple(k + 1 if x == k else k if x == k + 1 else x for x in v)


@given(st.integers(1, 12).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_a_dual_knuth_witness_keeps_the_recording_tableau(v):
    # the rule rim_search cuts by: k-1 or k+2 strictly between k and k+1
    at = {x: i for i, x in enumerate(v)}
    q = rsk(v)[1]
    for k in range(1, len(v)):
        lo, hi = sorted((at[k], at[k + 1]))
        if any(lo < at.get(w, -1) < hi for w in (k - 1, k + 2)):
            assert rsk(swap_values(v, k))[1] == q, (v, k)


def test_the_witness_rule_misses_some_recording_preserving_swaps():
    # no witness for k = 1 (3 stands right of both 1 and 2), yet Q is kept:
    # this is why rim_search tests each surviving leaf exactly
    v = (1, 4, 2, 5, 3)
    assert not v.index(1) < v.index(3) < v.index(2)
    assert swap_values(v, 1) == (2, 4, 1, 5, 3)
    assert rsk(swap_values(v, 1))[1] == rsk(v)[1]


def zone_of(parts):
    """Z as a sorted list of row-forms."""
    return sorted(decode(record, sum(parts))[1] for record in zone_records(parts))


def test_zone_prefix_closed_and_rim_maximal():
    for n in range(1, 8):
        for parts in compositions_of(n):
            zone = set(zone_of(parts))
            for e in zone:
                pos = {v: i for i, v in enumerate(e)}
                for k in range(1, n):
                    if pos[k] > pos[k + 1]:  # descent: shorter neighbour
                        shorter = tuple(
                            k + 1 if x == k else k if x == k + 1 else x for x in e
                        )
                        assert shorter in zone
            result = rim_search(parts)
            assert set(result.rim) <= zone
            # every zone element is a prefix of some rim element
            for e in zone:
                assert any(is_prefix(e, y) for y in result.rim)
            # rim elements are pairwise non-prefixes
            for y1 in result.rim:
                for y2 in result.rim:
                    if y1 != y2:
                        assert not is_prefix(y1, y2)


def test_zone_matches_the_bfs_oracle():
    for n in range(1, 10):
        for parts in compositions_of(n):
            assert zone_of(parts) == bfs_zone(parts), parts


def test_zone_matches_inverse_insertion_of_every_tableau():
    for n in range(1, 10):
        for parts in compositions_of(n):
            assert zone_of(parts) == inverse_insertion_zone(parts), parts


def walk_trace(walk, prune):
    """
    Every step the walk makes, as a call to place, which cuts below (s, x,
    i) when ``prune`` says so.
    """
    trace = []

    def place(s, x, i):
        trace.append((s, x, i))
        return not prune(s, x, i)

    walk(place)
    return trace


def scanning(parts):
    """``row_scanning_walk`` with the place of ``_fiber``'s walk, which gets no bits."""
    return lambda place: row_scanning_walk(parts)(lambda s, x, i, filled: place(s, x, i))


def test_the_corner_walk_makes_the_calls_of_the_row_scanning_walk():
    # the whole trace of steps, on full walks and on walks cut at about one
    # call in five, so pruned subtrees leave the rows as they found them;
    # and cut at every call of step 3, or of step 2, where the walks with
    # n <= 3 start.  The walks with n <= 2 are compared step for step too.
    # The tall shapes have many rows to scan, each scan up to the first
    # empty row.
    def never(s, x, i):
        return False

    def sometimes(s, x, i):
        return (31 * s + 7 * x + i) % 5 == 0

    def at_3(s, x, i):
        return s == 3

    def at_2(s, x, i):
        return s == 2

    n12 = [(3, 1, 2, 4, 2), (1, 3, 2, 1, 3, 2), (2, 2, 2, 2, 2, 2), (4, 1, 3, 1, 3)]
    tall = [(1, 20, 1), (30,), (2, 9, 1, 1, 1), (1, 1, 6, 1, 1)]
    cut = 0
    for parts in chain(*map(compositions_of, range(1, 9)), n12, tall):
        full = walk_trace(scanning(parts), never)
        pruned = walk_trace(scanning(parts), sometimes)
        assert walk_trace(_fiber(parts), never) == full, parts
        assert walk_trace(_fiber(parts), sometimes) == pruned, parts
        cut += len(pruned) < len(full)
        for prune in (at_3, at_2):
            expected = walk_trace(scanning(parts), prune)
            assert walk_trace(_fiber(parts), prune) == expected, (parts, prune)
    assert cut > 200


def dag_walk(parts, spelling=_Spelling()):
    """
    Every step below the root of the DAG of ``_tableaux`` built with
    ``spelling``, in the order of a depth-first walk, as (s, x, i, j, c),
    with x, i and j read off the slots of its value, its entry and its
    run: each edge, then each leaf as its steps 3, 2 and 1, whose c is
    None, since a leaf holds only their sum; the texts of their runs; and
    the sums of the leaves, in walk order.  The root of a walk with n <= 2
    repeats its top step for each step missing above it; only the last of
    the repeats is kept.
    """
    n = sum(parts)
    v, w = n + 1, 2 * n + 2
    steps, runs, sums = [], [], []

    def visit(node, s):
        if s > 3:
            for ei, vx, wi, run, c, child in node:
                steps.append((s, vx - v, ei - 1, wi - w, c))
                runs.append(run)
                visit(child, s - 1)
            return
        for ei, vx, wi, ri, ej, vy, wj, rj, ek, vz, wk, rk, total in node:
            steps.append((3, vx - v, ei - 1, wi - w, None))
            steps.append((2, vy - v, ej - 1, wj - w, None))
            steps.append((1, vz - v, ek - 1, wk - w, None))
            runs.extend((ri, rj, rk))
            sums.append(total)

    visit(_tableaux(parts, spelling), max(n, 3))
    del steps[: max(3 - n, 0)], runs[: max(3 - n, 0)]
    return steps, runs, sums


def dag_trace(parts):
    """
    Every step below the root of the DAG of ``_tableaux``, in the order of
    a depth-first walk, as (s, x, i, c): each edge, then each leaf as its
    steps 3, 2 and 1.  The default spelling writes each generator as one
    character, so a leaf step's c is the length of its run.
    """
    steps, runs, _ = dag_walk(parts)
    return [(s, x, i, len(run) if c is None else c) for (s, x, i, _, c), run in zip(steps, runs)]


def test_the_dag_walks_as_the_row_scanning_walk():
    # each edge's code entry is made once, from the bits written above it;
    # the oracle bumps every step and counts c_i off its own bits
    tall = [(1, 20, 1), (30,), (2, 9, 1, 1, 1), (1, 1, 6, 1, 1)]
    for parts in chain(*map(compositions_of, range(1, 11)), tall):
        expected = []

        def place(s, x, i, filled):
            expected.append((s, x, i, (filled & ((1 << i) - 1)).bit_count()))
            return True

        row_scanning_walk(parts)(place)
        assert dag_trace(parts) == expected, parts


def test_the_dag_spells_each_run_as_the_row_scanning_walk_counts_it():
    # each edge and leaf step holds its slots and the text of its run,
    # spelled once at the build, in the default spelling and in the two of
    # klrim cell; the oracle bumps every step and counts c_i off its own
    # bits, and a leaf's sum is the code entries of its steps 3, 2 and 1
    tall = [(1, 20, 1), (30,), (2, 9, 1, 1, 1), (1, 1, 6, 1, 1)]
    spellings = [_Spelling(), _Spelling(str, ", ", ", "), _Spelling(str, ", ", " ")]
    for parts in chain(*map(compositions_of, range(1, 11)), tall):
        positions, runs, sums = [], [], []
        top = min(sum(parts), 3)

        def place(s, x, i, filled):
            c = (filled & ((1 << i) - 1)).bit_count()
            positions.append((s, x, i, i))
            runs.append((i, c))
            if s == top:
                sums.append(0)
            if s <= 3:
                sums[-1] += c
            return True

        row_scanning_walk(parts)(place)
        for spelling in spellings:
            texts = {(i, c): spelling.run(range(i, i - c, -1)) for i, c in set(runs)}
            steps, dag_runs, dag_sums = dag_walk(parts, spelling)
            assert [step[:4] for step in steps] == positions, (parts, spelling)
            assert dag_runs == [texts[run] for run in runs], (parts, spelling)
            assert dag_sums == sums, (parts, spelling)


def test_the_dag_shares_the_tableaux_left():
    # the 628,357 steps above the last three of this n = 16 walk reach 514
    # tableaux below the root; a DAG that shared none would hold a node each
    seen = set()

    def gather(node, s):
        if id(node) not in seen:
            seen.add(id(node))
            if s > 3:
                for *_, child in node:
                    gather(child, s - 1)

    gather(_tableaux((3, 1, 2, 4, 1, 3, 2)), 16)
    assert len(seen) < 1000


def test_a_cell_with_n_at_most_2_holds_the_identity_element_alone():
    # a walk with n <= 2 has one element, the identity e, so w_J e = w_J
    for parts in [(1,), (2,), (1, 1)]:
        assert [e for e, _ in cell_elements(parts)] == [longest_parabolic_element(parts)], parts
        assert [decode(record, sum(parts))[:2] for record in zone_records(parts)] == [
            (0, tuple(range(1, sum(parts) + 1)))
        ], parts


def test_length_counts_are_the_histogram_of_the_zone_lengths():
    for parts in chain(*map(compositions_of, range(1, 9)), [(2, 1, 3, 1, 2, 3, 2)]):
        n = sum(parts)
        lengths = Counter(ord(record[0]) for record in zone_records(parts))
        counts = _length_counts(_tableaux(parts), n)
        assert len(counts) == comb(n, 2) + 1, parts
        assert counts == [lengths[ell] for ell in range(len(counts))], parts
        assert sum(counts) == cell_size(parts), parts


def composition_from_cuts(n, cuts):
    """The composition of n whose blocks end after the positions in cuts."""
    ends = sorted(cuts) + [n]
    return tuple(b - a for a, b in zip([0] + ends, ends))


compositions_to_60 = st.integers(1, 60).flatmap(
    lambda n: st.sets(st.integers(1, n))
    .map(lambda cuts: composition_from_cuts(n, cuts - {n}))
)


@settings(deadline=None)
@given(compositions_to_60)
def test_the_block_rule_walks_as_the_tableau_of_rsk(parts):
    # _fiber walks Q(w_J) as _q_rows reads it off the blocks, the
    # row-scanning walk as rsk records it;
    # the first three steps of both walks, up to n = 60, where the full
    # traces above stop at n = 12
    n = sum(parts)

    def first_three(s, x, i):
        return s == n - 2

    expected = walk_trace(scanning(parts), first_three)
    assert walk_trace(_fiber(parts), first_three) == expected


def test_zone_records_length_cell_element_and_word():
    # a record holds l(e), e, w_J e and the word of e, and the head the word
    # of w_J, each the lex-least one; the cell's texts are the records
    # sorted by (l(e), e), cut after their key
    for n in range(1, 9):
        for parts in compositions_of(n):
            w_j = longest_parabolic_element(parts)
            head, texts = _cell(parts, 10)
            assert tuple(map(ord, head)) == restart_reduced_word(w_j)
            records = sorted(zone_records(parts))
            assert list(texts) == [record[n + 1 :] for record in records]
            for ell, e, w, word in (decode(record, n) for record in records):
                assert ell == length(e)
                assert w == compose(w_j, e)
                assert word == restart_reduced_word(e)


def test_prefix_union_of_the_rim_is_the_zone():
    for n in range(1, 9):
        for parts in compositions_of(n):
            assert prefix_union(rim_search(parts)) == set(zone_of(parts)), parts


def test_cell_size_counts_the_prefix_union_of_closed_forms():
    checked = 0
    for n in range(1, 11):
        for parts in compositions_of(n):
            closed = rim_closed_form(parts)
            if closed is not None:
                assert len(prefix_union(closed)) == cell_size(closed.composition), parts
                checked += 1
    assert checked > 200


def test_zone_membership_matches_admissibility():
    # every permutation is either no coset representative, and then outside
    # the zone, or one of the generated representatives (diagram_from_element
    # refuses anything else), and then in the zone exactly when its
    # canonical diagram is admissible
    for n in range(1, 8):
        for parts in compositions_of(n):
            zone = set(zone_of(parts))
            assert all(is_coset_rep(e, parts) for e in zone)
            reps = coset_reps(parts)
            assert len(set(reps)) == len(reps) == factorial(n) // prod(map(factorial, parts))
            for e in reps:
                assert (e in zone) == is_admissible(diagram_from_element(e, parts))


def test_rim_diagrams_are_admissible_and_canonical():
    for n in range(1, 7):
        for parts in compositions_of(n):
            result = rim_search(parts)
            for y, d, flag in zip(result.rim, result.diagrams, result.special):
                assert d == diagram_from_element(y, parts)
                assert is_admissible(d)
                assert flag == is_special(d)


def test_the_column_reading_is_computed_once_per_diagram(monkeypatch):
    # the sort key of RimResult, its rim and the readback check of the search
    # all read the one column reading a diagram keeps
    computed = []  # the diagrams themselves, so that no id is reused
    reading = Diagram.__dict__["column_reading"]

    def counted(diagram):
        computed.append(diagram)
        return reading.func(diagram)

    counting = cached_property(counted)
    counting.__set_name__(Diagram, "column_reading")
    monkeypatch.setattr(Diagram, "column_reading", counting)
    for result in (rim_closed_form((1, 30, 1)), rim_search((2, 1, 3, 1, 2))):
        assert result.rim == tuple(map(reading.func, result.diagrams))
        assert {id(d) for d in result.diagrams} <= {id(d) for d in computed}
    assert len(computed) == len({id(d) for d in computed}) > 30


def test_rotation_duality():
    for n in range(1, 9):
        for parts in compositions_of(n):
            result = rim_search(parts)
            reversed_result = rim_search(reverse_composition(parts))
            assert set(reversed_result.rim) == {dot_conjugate(y) for y in result.rim}
            assert set(reversed_result.diagrams) == {rotate180(d) for d in result.diagrams}


def test_star_extend_examples():
    assert star_extend(young_diagram((2, 1))) == young_diagram((2, 1, 1))
    # a new last row lands directly beneath a single last-row node
    for parts in [(2, 1), (1, 2, 1), (3, 1)]:
        for d in rim_search(parts).diagrams:
            extended = star_extend(d)
            last = [c for r, c in d.nodes if r == d.row_count]
            assert len(last) == 1
            assert (d.row_count + 1, last[0]) in extended.node_set
    with pytest.raises(ValueError):
        star_extend(Diagram(((1, 2), (2, 1))))  # not admissible


def test_theta_star_matches_direct_search():
    for n in range(1, 6):
        for parts in compositions_of(n):
            if parts[-1] != 1:
                continue
            extended = theta_star(rim_search(parts))
            direct = rim_search(parts + (1,))
            assert extended.rim == direct.rim
            assert extended.diagrams == direct.diagrams
    with pytest.raises(ValueError):
        theta_star(rim_search((1, 2)))


def test_theta_star_matches_the_star_extend_route():
    # theta_star puts the new node beneath the last row's node; star_extend
    # scans the columns for the least admissible one
    checked = 0
    for n in range(1, 10):
        for parts in compositions_of(n):
            if parts[-1] == 1:
                result = rim_search(parts)
                expected = RimResult(parts + (1,), map(star_extend, result.diagrams))
                assert theta_star(result) == expected, parts
                checked += result.rim_size
    assert checked == 801


def test_theta_star_refuses_a_diagram_whose_extension_is_not_admissible():
    not_a_rim = RimResult((1, 1), [Diagram(((1, 2), (2, 1)))])
    with pytest.raises(ValueError, match="is not a rim diagram of"):
        theta_star(not_a_rim)


def test_closed_form_matches_search_everywhere():
    recognized = 0
    for n in range(1, 9):
        for parts in compositions_of(n):
            closed = rim_closed_form(parts)
            if closed is None:
                continue
            recognized += 1
            searched = rim_search(parts)
            assert closed.rim == searched.rim, parts
            assert closed.diagrams == searched.diagrams, parts
            assert closed.special == searched.special, parts
    assert recognized > 100


def test_closed_form_unrecognized_compositions():
    assert rim_closed_form((1, 3, 1, 2)) is None
    assert rim_closed_form((2, 1, 3, 1)) is None


def test_closed_form_counts():
    assert rim_closed_form((2, 3, 1)).rim_size == 2  # climbs by s - t + 1
    assert rim_closed_form((2, 3, 1)).rim_size == comb(2, 1)  # three-part table
    staircase = rim_closed_form((1, 2, 2, 1))
    assert staircase.rim_size == 3
    assert staircase.special_count == 2
    assert set(staircase.diagrams) == {_p_diagram(4, v) for v in range(3)}


def test_staircase_diagrams_match_the_star_extend_route():
    for rows in range(3, 9):
        for a in range(1, 7):
            for b in range(1, 7):
                expected = star_extended_staircase(a, rows, b)
                assert _staircase_diagrams(a, rows, b) == expected, (a, rows, b)


def test_closed_forms_to_n_14_are_pinned():
    # sha256 of every closed-form rim with n <= 14, with its diagrams and
    # flags: past n = 8 no test compares the closed forms with the search
    pinned = []
    for n in range(1, 15):
        for parts in compositions_of(n):
            closed = rim_closed_form(parts)
            if closed is not None:
                nodes = tuple(d.nodes for d in closed.diagrams)
                pinned.append((parts, closed.rim, nodes, closed.special))
    assert len(pinned) == 1565
    assert hashlib.sha256(repr(pinned).encode()).hexdigest() == (
        "e968da900a190bc89681eb92b6dffb7abfb60e1393e4d2c6c3ce6f6851818176"
    )


def test_staircase_rim_row_forms_are_the_closed_pattern():
    for r in (3, 4, 5):
        parts = (1,) + (2,) * (r - 2) + (1,)
        assert set(rim_closed_form(parts).rim) == {
            staircase_row_form(r, v) for v in range(r - 1)
        }


def test_three_part_dispatch_consistency():
    # compositions matching several families must agree with the search and
    # with each other
    for n in range(3, 9):
        for parts in compositions_of(n):
            if len(parts) != 3:
                continue
            diagrams = _three_part_diagrams(parts)
            assert len(diagrams) == _three_part_count(parts)
            assert all(is_special(d) for d in diagrams)
            searched = rim_search(parts)
            assert set(searched.diagrams) == set(diagrams)


def test_two_big_parts_family_matches_three_part_table_at_three_rows():
    # (t, s, 1) belongs to both closed-form families
    for t, s in [(1, 2), (1, 3), (2, 3), (2, 4)]:
        family = {_d_tsu_diagram(t, s, u, 3) for u in range(1, s - t + 2)}
        assert family == set(_three_part_diagrams((t, s, 1)))


def test_rotation_fixtures_match_dispatch():
    # the three remaining three-part patterns are rotations of the directly
    # constructed ones; verified against independent fixture constructors
    s, t, u = 8, 5, 3
    g_family = _three_part_diagrams((u, s, t))
    assert set(g_family) == {
        k_fixture(s, t, u, cols)
        for cols in _u_subsets(range(t - u + 1, s + 1), u)
    }
    h_family = _three_part_diagrams((s, u, t))
    assert set(h_family) == {
        f_fixture(s, t, u, cols) for cols in _u_subsets(range(1, t + 1), u)
    }
    assert _three_part_diagrams((u, t, s)) == [l_fixture(s, t, u)]


def _u_subsets(pool, u):
    from itertools import combinations

    return combinations(pool, u)


def test_example_picture_diagrams_are_special():
    # the five displayed three-row shapes
    assert is_special(f_fixture(8, 5, 3, (2, 3, 4)))
    assert is_special(_g_diagram(8, 5, 3, (2, 4, 5)))
    assert is_special(_h_diagram(8, 5, 3, (5, 6, 8)))
    assert is_special(k_fixture(8, 5, 3, (3, 5, 7)))
    assert is_special(l_fixture(8, 5, 3))
    assert _g_diagram(8, 5, 3, (2, 4, 5)).row_composition == (5, 8, 3)
    assert _h_diagram(8, 5, 3, (5, 6, 8)).row_composition == (5, 3, 8)


def test_cell_elements_examples():
    n = 4
    only = list(cell_elements((n,)))
    assert len(only) == 1
    w, word = only[0]
    assert w == longest_element(n)
    assert from_generator_word(n, word) == w

    pairs = list(cell_elements((2, 1)))
    assert [p[0] for p in pairs] == [(2, 1, 3), (3, 1, 2)]
    assert [p[1] for p in pairs] == [(1,), (1, 2)]


def test_cell_words_are_reduced_and_cell_size_cross_checks():
    for n in range(1, 6):
        for parts in compositions_of(n):
            result = rim_search(parts)
            zone = zone_of(parts)
            assert cell_size(parts) == len(zone)
            for w, word in cell_elements(parts):
                assert from_generator_word(n, word) == w
                assert len(word) == length(w)


def test_cell_elements_are_ordered_by_length_then_row_form():
    for n in range(1, 9):
        for parts in compositions_of(n):
            w_j = longest_parabolic_element(parts)
            zone = sorted(zone_of(parts), key=lambda e: (length(e), e))
            expected = [
                (compose(w_j, e), restart_reduced_word(w_j) + restart_reduced_word(e))
                for e in zone
            ]
            assert list(cell_elements(parts)) == expected, parts


def test_search_bound():
    with pytest.raises(SearchBoundExceeded):
        rim_search((2,) * 6)
    assert rim_search((11,), bound=11).rim == (identity(11),)


def test_the_search_bound_is_checked_before_any_work():
    # past the check, n = 10**12 would build lists of that length
    with pytest.raises(SearchBoundExceeded, match="^n=1000000000000 exceeds the search bound 8"):
        rim_search((10**12,), bound=8)
    with pytest.raises(SearchBoundExceeded, match="^n=1000000000000 exceeds the search bound 8"):
        next(cell_elements((10**12,), 8))


def test_zone_memory_follows_the_cell_not_n_cubed():
    # (300,) has a one-element cell, whose code runs are all empty: all
    # n(n+1)/2 runs of the walk's positions would take about 45 MB
    tracemalloc.start()
    try:
        assert len(list(cell_elements((300,), 300))) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_the_fiber_walk_keeps_no_state_per_shape():
    # a walk that goes below every step above the last three holds its
    # stack of frames and nothing per shape: with a corner list per shape,
    # keyed by a mixed-radix shape id that grows to n bits on a column,
    # these walks peaked at 17 KB and 442 KB on Python 3.11, against about
    # 2 KB and 194 KB without.  The walks are cut below step 4, since a
    # walk to step 1 takes about 1.5 times as long under tracemalloc
    def peak(parts):
        walk = _fiber(parts)
        tracemalloc.start()
        try:
            walk(lambda s, x, i: s > 4)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak((3, 1, 2, 4, 1, 3, 2)) < 8_000
    assert peak((900,)) < 300_000


def test_zone_holds_one_short_string_per_element():
    # one str of 1 + 3n characters and its list slot, about 100 B at n = 14
    parts = (2, 1, 3, 1, 2, 3, 2)
    tracemalloc.start()
    try:
        zone = zone_records(parts)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(zone) == cell_size(parts) == 14014
    assert held / len(zone) < 200


def test_a_one_element_cell_at_n_900_peaks_no_higher_than_with_tuple_records():
    # w_J's word has 404,550 generators.  Read as tuples of runs, a flat
    # tuple and the line, each its own ints, it peaked at 13.6 MB; read as
    # one text of characters, with one shared int per generator, at 8.0 MB,
    # the bump tables of the 900-row column, each row with the rows above
    # it twice over, being the largest part.  The DAG holds a key of two
    # bytes a box per tableau, about 1.6 MB here, and peaks at about 4.5 MB;
    # keys of nested tuples would hold a tuple per row per tableau
    tracemalloc.start()
    try:
        assert len(list(cell_elements((900,), 2000))) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


# sha256 of the repr of list(cell_elements((2, 1, 3, 1, 2, 3, 2), 14)),
# from the tuple records' decode
CELL_ELEMENTS_14_DIGEST = "5ec1842f6c14a923b9dc6ac28e018b2e73e2388c29138b4749307db74ef66948"


def test_cell_elements_at_n_14_are_pinned():
    elements = list(cell_elements((2, 1, 3, 1, 2, 3, 2), 14))
    assert len(elements) == 14014
    digest = hashlib.sha256(repr(elements).encode()).hexdigest()
    assert digest == CELL_ELEMENTS_14_DIGEST


def test_cell_elements_at_n_14_are_pinned_when_read_in_bands(monkeypatch):
    # a budget of a quarter of the cell: at least four bands, a walk each
    monkeypatch.setattr(rims, "_RECORD_BUDGET", 14014 // 4)
    walks = count_walks(monkeypatch)
    elements = list(cell_elements((2, 1, 3, 1, 2, 3, 2), 14))
    assert len(walks) >= 4 and sum(walks) == 14014
    digest = hashlib.sha256(repr(elements).encode()).hexdigest()
    assert digest == CELL_ELEMENTS_14_DIGEST


def test_a_band_walk_keeps_exactly_the_elements_of_its_lengths():
    # the cuts are bounds on l(e) below each step; a bound that is off
    # by one drops elements or keeps some outside the band
    for n in range(1, 8):
        for parts in compositions_of(n):
            root = _tableaux(parts)
            _length_counts(root, n)  # sets the bounds the cuts read
            full = sorted(_zone(root, n))
            top = max(ord(record[0]) for record in full)
            for lo in range(top + 2):
                for hi in (lo, lo + 2):
                    band = sorted(_zone(_band(root, n, lo, hi), n))
                    assert band == [r for r in full if lo <= ord(r[0]) <= hi], (parts, lo, hi)


def test_bands_hold_at_most_the_budget_but_for_a_single_length():
    counts = [1, 5, 2, 2, 7, 0, 1]
    assert _bands(counts, 5) == [(0, 0), (1, 1), (2, 3), (4, 4), (5, 6)]
    assert _bands(counts, 100) == [(0, 6)]
    assert _bands(counts, 0) == [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 6)]


def test_a_cell_within_the_budget_is_one_walk(monkeypatch):
    walks = count_walks(monkeypatch)
    parts = (2, 1, 3, 1, 2, 3, 2)
    assert len(list(cell_elements(parts, 14))) == 14014
    assert walks == [14014]
    monkeypatch.setattr(rims, "_RECORD_BUDGET", 14013)
    walks.clear()
    assert len(list(cell_elements(parts, 14))) == 14014
    # the lengths are counted off the DAG, with no walk
    assert len(walks) == len(_bands(_length_counts(_tableaux(parts), 14), 14013)) == 2
    assert sum(walks) == 14014


def test_the_peak_of_a_cell_follows_the_budget_not_the_cell(monkeypatch):
    def peak(parts, budget):
        monkeypatch.setattr(rims, "_RECORD_BUDGET", budget)
        tracemalloc.start()
        try:
            for _ in _cell(parts, sum(parts))[1]:
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    n12, n14 = (1, 3, 2, 1, 3, 2), (2, 1, 3, 1, 2, 3, 2)
    assert (cell_size(n12), cell_size(n14)) == (2673, 14014)
    held = peak(n14, 2000)
    # five times the cell, about the same peak
    assert held < 1.5 * peak(n12, 2000)
    # four times the budget, more than twice the peak
    assert peak(n14, 8000) > 2 * held
    assert peak(n14, 14014) > 4 * held


def test_cell_records_refuse_an_n_past_the_character_range():
    # the code character of c_{n-1} = n-1 is n(n+1)/2 - 1, and str stops at
    # U+10FFFF: 1492 * 1493 / 2 = 1,113,778 <= 0x110000 < 1493 * 1494 / 2
    assert _check_record_range(1492) == 1492
    with pytest.raises(SearchBoundExceeded, match="^n=1493 exceeds 1492, "):
        _check_record_range(1493)
    with pytest.raises(SearchBoundExceeded, match="^n=1493 exceeds 1492, "):
        next(cell_elements((1493,), 2000))
    # the search bound is still checked first
    with pytest.raises(SearchBoundExceeded, match="^n=1493 exceeds the search bound 1000"):
        next(cell_elements((1493,), 1000))
    # and the range before anything of size n is built, however large n is
    with pytest.raises(SearchBoundExceeded, match="^n=1000000000 exceeds 1492, "):
        cell_elements((10**9,), 10**9)


def test_cell_elements_refuses_when_called_not_when_read():
    # nothing is iterated: the checks and the walk run at the call
    with pytest.raises(SearchBoundExceeded, match="^n=11 exceeds the search bound 10"):
        cell_elements((1,) * 11)
    with pytest.raises(ValueError, match="^composition parts must be positive"):
        cell_elements((0,))


def test_searches_refuse_non_integer_parts_rather_than_truncating():
    for search in (rim_search, cell_elements):
        with pytest.raises(ValueError, match="^composition parts must be integers: "):
            search([2.7, 1])


def test_rim_result_derives_rim_and_flags_from_its_diagrams():
    for n in range(1, 7):
        for parts in compositions_of(n):
            result = rim_search(parts)
            assert RimResult(parts, reversed(result.diagrams)) == result
            assert result.rim == tuple(map(w_of_diagram, result.diagrams))
            assert result.special == tuple(map(is_special, result.diagrams))


def test_verify_theorem_reports():
    for theorem in ("T2.16a", "T3.5a", "T3.7a", "T3.15a", "C3.16a", "P3.2a"):
        report = verify_theorem(theorem, max_n=5)
        assert report.passed, report.failures
        assert report.checks
    with pytest.raises(ValueError):
        verify_theorem("T9.99", max_n=5)
    with pytest.raises(SearchBoundExceeded, match="^n=11 exceeds the search bound 10"):
        verify_theorem("T2.16a", max_n=11)


def test_verify_theorems_searches_each_composition_once_per_call(monkeypatch):
    searched = []
    real_search = rims.rim_search

    def counting_search(parts, bound=None):
        searched.append(parts)
        return real_search(parts, bound)

    monkeypatch.setattr(rims, "rim_search", counting_search)
    reports = verify_theorems(THEOREMS, max_n=6)
    assert len(searched) == len(set(searched)) == sum(2 ** (n - 1) for n in range(1, 7))
    searched.clear()
    # one rule per call searches afresh: nothing is kept between calls
    assert reports == [verify_theorem(t, max_n=6) for t in THEOREMS]
    assert len(searched) > len(set(searched))
    with pytest.raises(ValueError):
        verify_theorems(("T2.16a", "T9.99"), max_n=5)


def test_verify_theorems_refuses_an_empty_rule_list(monkeypatch):
    # no rule means no check, which must not read as a pass
    searched = []
    monkeypatch.setattr(rims, "rim_search", lambda parts, bound=None: searched.append(parts))
    with pytest.raises(ValueError, match="^no rule to verify"):
        verify_theorems((), 5)
    assert searched == []
