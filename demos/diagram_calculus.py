"""
Walkthrough: the diagram calculus behind the rim computations.

A principal diagram is a finite node set with no empty rows or columns.
Filling it with 1..n by rows and by columns yields two tableaux; the
permutation carrying the first to the second is the diagram's `w`.  The
standard fillings of the diagram biject with the weak-order prefixes of
that permutation, and the diagram's subsequence type (the profile of
maximal k disjoint path covers) equals the Robinson-Schensted shape of a
shifted version of `w`.

Run:  python3 demos/diagram_calculus.py
"""
import random

from klrim import (
    Diagram,
    column_fill,
    complete_prefix,
    conjugate,
    is_admissible,
    is_special,
    prefixes_of_wd,
    rotate180,
    row_fill,
    subsequence_type,
    w_of_diagram,
)
from klrim.cli import render_diagram


def entries_grid(tableau):
    d = tableau.diagram
    by_node = dict(zip(d.nodes, tableau.entries))
    for r in range(1, d.row_count + 1):
        cells = [
            f"{by_node[(r, c)]:2d}" if (r, c) in d else "  "
            for c in range(1, d.column_count + 1)
        ]
        print("   " + " ".join(cells).rstrip())


if __name__ == "__main__":
    d = Diagram(((1, 2), (1, 3), (2, 1), (2, 2), (3, 2), (3, 4), (2, 4)))
    print("diagram:")
    print(render_diagram(d, indent="   "))
    print(f"row composition {d.row_composition}, column composition {d.column_composition}")
    print(f"special: {is_special(d)},  admissible: {is_admissible(d)}")
    print()

    print("row filling:")
    entries_grid(row_fill(d))
    print("column filling:")
    entries_grid(column_fill(d))
    w = w_of_diagram(d)
    print(f"w carrying the first to the second: {list(w)}")
    print()

    prefixes = sorted(prefixes_of_wd(d))
    print(f"{len(prefixes)} standard fillings = {len(prefixes)} prefixes of w; a few:")
    for u in prefixes[:4]:
        word = complete_prefix(u, d)
        print(f"   {list(u)}  completes to w via {' '.join(map(str, word)) or '(nothing)'}")
    print()

    print(f"subsequence type via insertion shape: {subsequence_type(d)}")
    print(f"conjugate of the row composition:     {conjugate(d.row_composition)}")
    print()

    print("half-turn rotation (same subsequence type):")
    print(render_diagram(rotate180(d), indent="   "))
    print(f"type after rotation: {subsequence_type(rotate180(d))}")
