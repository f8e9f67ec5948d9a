"""
Walkthrough: from a composition to reduced forms for a whole cell.

Every composition of n picks out a Young subgroup of the symmetric group
S_n, and the right cell containing that subgroup's longest element w_J.
The cell is w_J * Z for a prefix-closed set Z of minimal coset
representatives, so it is completely described by the *rim*: the elements
of Z that are not prefixes of any other.  Reduced words for the whole cell
then come for free, by concatenating a word for w_J with a word for each
prefix of a rim element.

Run:  python3 demos/rims_and_reduced_forms.py
"""
from klrim import (
    cell_elements,
    cell_size,
    longest_parabolic_element,
    reduced_word,
    rim_search,
)
from klrim.cli import render_diagram


def show(parts):
    print(f"composition {parts}")
    w_j = longest_parabolic_element(parts)
    print(f"  longest parabolic element w_J = {list(w_j)}, word {list(reduced_word(w_j))}")

    result = rim_search(parts)
    print(f"  rim size {result.rim_size}, cell size {cell_size(result.composition)}")
    for y, diagram, special in zip(result.rim, result.diagrams, result.special):
        tag = "special" if special else "not special"
        print(f"  rim element {list(y)}  word {list(reduced_word(y))}  ({tag})")
        print(render_diagram(diagram, indent="      "))

    print("  the full cell, with one reduced word per element:")
    for w, word in cell_elements(parts):
        print(f"    {list(w)}  <-  {' '.join(map(str, word)) or '(empty word)'}")
    print()


if __name__ == "__main__":
    for parts in [(2, 1), (1, 2, 1), (2, 3, 1)]:
        show(parts)
