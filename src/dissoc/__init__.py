"""Counting, enumeration and verification of maximal dissociation sets.

A dissociation set of a graph is a vertex subset inducing maximum degree at
most one.  The package provides a brute-force oracle, a branching enumerator
for graphs up to 32 vertices, generators for the extremal families, a graph6
codec, and an exhaustive small-order verification harness.

Importing the package imports none of its modules.  Each public name loads
its module on first use (PEP 562 ``__getattr__``) and is then cached here,
so a program that counts graphs never loads the sweeps and verification
suites of ``extremal`` or the labelling search of ``canonical``.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "branching": ("CountResult", "count", "enumerate_maximal", "maximal_masks",
                  "maximum_dissociation_set"),
    "canonical": ("canonical_form",),
    "extremal": ("ExtremalRecord", "SweepFilter", "VerificationReport", "Violation",
                 "is_bipartite", "is_triangle_free", "random_bipartite_graph", "random_graph",
                 "sweep", "verify_asymptotic_bounds", "verify_family_values",
                 "verify_path_cycle_bounds", "verify_recurrences"),
    "graph6": ("GRAPH6_ORDER_CAP", "Graph6Error", "parse_graph6", "serialize_graph6"),
    "graphs": ("ENUMERATION_ORDER_CAP", "FamilySpecError", "Graph", "TimeLimitError",
               "UnsupportedSizeError", "complete_bipartite_graph", "complete_graph",
               "cycle_graph", "disjoint_union", "k_star_graph", "path_graph"),
    "oracle": ("ORACLE_ORDER_CAP", "DissociationFamily", "count_maximum_bruteforce",
               "dissociation_number", "enumerate_maximal_bruteforce", "is_dissociation",
               "is_maximal"),
}
# public name -> the module that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
