"""
klrim: right Kazhdan-Lusztig cells of symmetric groups attached to
compositions — rims, reduced forms for every cell element, and the
supporting diagram / ordered k-path calculus.
"""
from .compositions import (
    Composition,
    check_composition,
    check_partition,
    compositions_of,
    conjugate,
    dominates,
    is_partition,
    partial_sums,
    reverse_composition,
)
from .diagrams import (
    Diagram,
    DTableau,
    Node,
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
from .paths import (
    KPath,
    diagram_of_ordered,
    extend_by_singletons,
    insert_singleton,
    is_ordered,
    left_side,
    order_kpath,
    peel_path,
    precedes,
    right_side,
)
from .permutations import (
    Perm,
    Word,
    check_permutation,
    compose,
    dot_conjugate,
    from_generator_word,
    identity,
    inverse,
    is_coset_rep,
    is_prefix,
    is_standard_young_tableau,
    length,
    longest_element,
    longest_parabolic_element,
    reduced_word,
    rsk,
    rsk_inverse,
    shape,
)
from .rims import (
    DEFAULT_SEARCH_BOUND,
    RimResult,
    SearchBoundExceeded,
    THEOREMS,
    TheoremCheck,
    VerifyReport,
    cell_elements,
    cell_size,
    rim_closed_form,
    rim_search,
    star_extend,
    theta_star,
    verify_theorem,
    verify_theorems,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
