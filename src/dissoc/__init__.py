"""Counting, enumeration and verification of maximal dissociation sets.

A dissociation set of a graph is a vertex subset inducing maximum degree at
most one.  The package provides a brute-force oracle, a branching enumerator
for graphs up to 32 vertices, generators for the extremal families, a graph6
codec, and an exhaustive small-order verification harness.
"""

from .branching import (
    CountResult,
    count,
    enumerate_maximal,
    maximal_masks,
    maximum_dissociation_set,
)
from .canonical import CANONICAL_ORDER_CAP, canonical_form
from .extremal import (
    ExtremalRecord,
    SweepFilter,
    SweepRefusedError,
    VerificationReport,
    Violation,
    is_bipartite,
    is_triangle_free,
    random_bipartite_graph,
    random_graph,
    sweep,
    verify_asymptotic_bounds,
    verify_family_values,
    verify_path_cycle_bounds,
    verify_recurrences,
)
from .graph6 import GRAPH6_ORDER_CAP, Graph6Error, parse_graph6, serialize_graph6
from .graphs import (
    ENUMERATION_ORDER_CAP,
    FamilySpecError,
    Graph,
    UnsupportedSizeError,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    k_star_graph,
    path_graph,
)
from .oracle import (
    ORACLE_ORDER_CAP,
    DissociationFamily,
    OracleTimeoutError,
    count_maximum_bruteforce,
    dissociation_number,
    enumerate_maximal_bruteforce,
    is_dissociation,
    is_maximal,
)

__version__ = "0.1.0"

__all__ = [
    "CANONICAL_ORDER_CAP",
    "CountResult",
    "DissociationFamily",
    "ENUMERATION_ORDER_CAP",
    "ExtremalRecord",
    "FamilySpecError",
    "GRAPH6_ORDER_CAP",
    "Graph",
    "Graph6Error",
    "ORACLE_ORDER_CAP",
    "OracleTimeoutError",
    "SweepFilter",
    "SweepRefusedError",
    "UnsupportedSizeError",
    "VerificationReport",
    "Violation",
    "canonical_form",
    "complete_bipartite_graph",
    "complete_graph",
    "count",
    "count_maximum_bruteforce",
    "cycle_graph",
    "disjoint_union",
    "dissociation_number",
    "enumerate_maximal",
    "enumerate_maximal_bruteforce",
    "is_bipartite",
    "is_dissociation",
    "is_maximal",
    "is_triangle_free",
    "k_star_graph",
    "maximal_masks",
    "maximum_dissociation_set",
    "parse_graph6",
    "path_graph",
    "random_bipartite_graph",
    "random_graph",
    "serialize_graph6",
    "sweep",
    "verify_asymptotic_bounds",
    "verify_family_values",
    "verify_path_cycle_bounds",
    "verify_recurrences",
]
