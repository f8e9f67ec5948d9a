"""
Acceptance suite: one test per criterion, each printing a PASS line with
its runtime once the assertions hold.  Expected values are frozen here,
written out independently of the library's own constructors wherever the
criterion is about cross-checking two routes.
"""
import io
import itertools
import json
import random
import time
from math import comb

import klrim.rims as rims
from klrim.cli import main
from klrim.compositions import compositions_of, is_partition, reverse_composition
from klrim.diagrams import (
    Diagram,
    standard_tableaux,
    subsequence_type,
    w_of_diagram,
)
from klrim.paths import KPath, is_ordered, order_kpath
from klrim.permutations import dot_conjugate
from klrim.rims import rim_search, theta_star

from support import (
    _chain_union_profile,
    brute_prefixes,
    compress_nodes,
    oracle_type,
    random_diagram,
    random_kpath,
    staircase_row_form,
)


def _report(criterion, started, note):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {criterion} PASS ({elapsed:.1f}s): {note}")
    return elapsed


def _expected_two_big_parts(t, s, u, rows):
    nodes = {(1, u)}
    nodes.update((1, i) for i in range(s - t + 2, s + 1))
    nodes.update((2, i) for i in range(1, s + 1))
    nodes.update((i, u) for i in range(3, rows + 1))
    return Diagram(tuple(nodes))


def test_criterion_01_two_big_parts_family():
    started = time.time()
    for t, s, rows in [(1, 2, 3), (2, 3, 3), (2, 3, 4), (1, 3, 3), (2, 4, 3)]:
        parts = (t, s) + (1,) * (rows - 2)
        result = rim_search(parts)
        assert result.rim_size == s - t + 1, parts
        expected = {_expected_two_big_parts(t, s, u, rows) for u in range(1, s - t + 2)}
        assert set(result.diagrams) == expected, parts
    elapsed = _report("C1", started, "five (t,s,1^k) compositions, counts and diagram sets")
    assert elapsed < 30


def _table_entry(parts):
    s, t, u = sorted(parts, reverse=True)
    if parts == (s, t, u):
        return 1
    if parts == (s, u, t):
        return comb(t, u)
    if parts == (t, s, u):
        return comb(s - t + u, u)
    if parts == (t, u, s):
        return comb(t, u)
    if parts == (u, s, t):
        return comb(s - t + u, u)
    assert parts == (u, t, s)
    return 1


def test_criterion_02_three_part_table():
    started = time.time()
    checked = 0
    for n in range(3, 9):
        for parts in compositions_of(n):
            if len(parts) != 3:
                continue
            result = rim_search(parts)
            assert result.rim_size == _table_entry(parts), parts
            assert all(result.special), parts
            checked += 1
    elapsed = _report("C2", started, f"{checked} three-part compositions match the binomial table")
    assert elapsed < 120


def test_criterion_03_staircase_family_row_forms():
    started = time.time()
    for r in (3, 4, 5):
        parts = (1,) + (2,) * (r - 2) + (1,)
        result = rim_search(parts)
        assert result.rim_size == r - 1
        assert result.special_count == 2
        assert set(result.rim) == {staircase_row_form(r, v) for v in range(r - 1)}
    elapsed = _report("C3", started, "two-column interlock rims for r=3,4,5, verbatim row-forms")
    assert elapsed < 120


def test_criterion_04_padded_staircase_counts():
    started = time.time()
    for s, r, t in [(2, 3, 1), (1, 3, 2), (2, 4, 1)]:
        parts = (1,) * s + (2,) * (r - 2) + (1,) * t
        result = rim_search(parts)
        assert result.rim_size == r - 1, parts
        assert result.special_count == 2, parts
    _report("C4", started, "padded staircases keep r-1 rim elements, 2 special")


def test_criterion_05_single_element_rims():
    started = time.time()
    checked = 0
    for n in range(3, 8):
        for parts in compositions_of(n):
            single = rim_search(parts).rim_size == 1
            sorted_either_way = is_partition(parts) or is_partition(
                reverse_composition(parts)
            )
            assert single == sorted_either_way, parts
            checked += 1
    elapsed = _report("C5", started, f"{checked} compositions of 3..7")
    assert elapsed < 300


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


def test_criterion_06_ordering_algorithm():
    started = time.time()
    assert order_kpath(KPath(SEVEN_PATH)).paths == ORDERED_FIVE

    rng = random.Random(20260809)
    for _ in range(10_000):
        d = random_diagram(rng, max_nodes=12)
        kp = random_kpath(rng, d)
        out = order_kpath(kp)
        assert out.support == kp.support
        assert is_ordered(out)
        assert out.k <= kp.k
        exact = order_kpath(kp, parts=kp.k)
        assert exact.k == kp.k and exact.support == kp.support and is_ordered(exact)
    _report("C6", started, "worked 7-path gives the exact 5-path; 10^4 random instances")


def test_criterion_07_oracle_equivalence():
    started = time.time()
    cells = [(r, c) for r in range(1, 5) for c in range(1, 5)]
    checked = 0
    for k in range(1, 8):
        for combo in itertools.combinations(cells, k):
            rows = {r for r, _ in combo}
            cols = {c for _, c in combo}
            if rows != set(range(1, max(rows) + 1)):
                continue
            if cols != set(range(1, max(cols) + 1)):
                continue
            d = Diagram(combo)
            assert oracle_type(_chain_union_profile(d)) == subsequence_type(d), combo
            checked += 1

    rng = random.Random(4)
    for _ in range(1_000):
        k = rng.randint(1, 10)
        nodes = rng.sample([(r, c) for r in range(1, 9) for c in range(1, 9)], k)
        d = Diagram(compress_nodes(nodes))
        assert oracle_type(_chain_union_profile(d)) == subsequence_type(d), d.nodes
    _report("C7", started, f"{checked} grid diagrams exhaustively + 10^3 random")


def test_criterion_08_prefix_bijection():
    started = time.time()
    rng = random.Random(8)
    for _ in range(200):
        d = random_diagram(rng, max_nodes=7)
        tableau_count = sum(1 for _ in standard_tableaux(d))
        prefix_count = len(brute_prefixes(w_of_diagram(d)))
        assert tableau_count == prefix_count, d.nodes
    _report("C8", started, "200 random diagrams: filling count equals prefix count")


def test_criterion_09_dualities():
    started = time.time()
    for n in range(1, 7):
        for parts in compositions_of(n):
            result = rim_search(parts)
            mirrored = rim_search(reverse_composition(parts))
            assert set(mirrored.rim) == {dot_conjugate(y) for y in result.rim}, parts
            if parts[-1] == 1:
                extended = theta_star(result)
                direct = rim_search(parts + (1,))
                assert extended.rim == direct.rim, parts
                assert extended.diagrams == direct.diagrams, parts
    _report("C9", started, "rotation and extension dualities over all compositions of n<=6")


def _run_cli(argv):
    out = io.StringIO()
    return main(argv, stdout=out), out.getvalue()


def test_criterion_10_cross_check_gate(monkeypatch):
    started = time.time()
    gate = [
        ["verify", "T3.5a", "--max-n", "7"],
        ["verify", "T3.7a", "--max-n", "8"],
        ["verify", "T3.15a", "--max-n", "8"],
        ["verify", "C3.16a", "--max-n", "7"],
        ["verify", "T2.16a", "--max-n", "7"],
    ]
    for argv in gate:
        code, out = _run_cli(argv)
        assert code == 0, (argv, out)

    true_builder = rims._d_tsu_diagram

    def skewed(t, s, u, rows):
        diagram = true_builder(t, s, u, rows)
        if u == 1:
            nodes = tuple(
                (r, 2) if (r, c) == (rows, 1) else (r, c) for r, c in diagram.nodes
            )
            return Diagram(nodes)
        return diagram

    monkeypatch.setattr(rims, "_d_tsu_diagram", skewed)
    code, out = _run_cli(["verify", "T3.5a", "--max-n", "6"])
    assert code == 1 and "FAIL" in out
    monkeypatch.undo()
    code, _ = _run_cli(["verify", "T3.5a", "--max-n", "5"])
    assert code == 0
    _report("C10", started, "verify gate exits 0; a skewed tail column flips it to 1")
