"""Certifying graph algorithms.

Solvers return each answer together with a witness; checkers decide,
exactly and in exact arithmetic, whether a witness proves its answer;
brute-force oracles (``certigraph.oracles``) give ground truth for testing both.
Accepting a checker run means the answer is correct regardless of how the
solver computed it.
"""

import importlib

# Each exported name and the submodule that defines it. A name's module is
# imported on first access, so ``import certigraph`` loads no submodule and
# each CLI command loads only the checker or solver it runs.
_EXPORTS = {
    "ACCEPT": "verdict",
    "ConnectivityTriple": "connectivity",
    "ConnectivityWitness": "connectivity",
    "CutWitness": "connectivity",
    "ExtNat": "extnat",
    "GcdTriple": "gcd",
    "Graph": "graph",
    "INFINITY": "extnat",
    "LengthMismatchError": "formats",
    "MatchingTriple": "matching",
    "MatchingWitness": "matching",
    "ParseError": "formats",
    "PreconditionError": "verdict",
    "SolverResult": "solvers",
    "SpTriple": "shortest_paths",
    "SpWitness": "shortest_paths",
    "SpanningTreeWitness": "connectivity",
    "Verdict": "verdict",
    "WellformednessError": "formats",
    "check_cardinality": "matching",
    "check_connectivity": "connectivity",
    "check_cut": "connectivity",
    "check_gcd": "gcd",
    "check_just": "shortest_paths",
    "check_matching": "matching",
    "check_max_matching": "matching",
    "check_no_path": "shortest_paths",
    "check_osc": "matching",
    "check_parent_num": "connectivity",
    "check_r": "connectivity",
    "check_shortest_paths": "shortest_paths",
    "check_start_val": "shortest_paths",
    "check_subset": "matching",
    "check_trian": "shortest_paths",
    "has_no_duplicate_edges": "graph",
    "has_no_self_loops": "graph",
    "parse_connectivity_witness": "formats",
    "parse_gcd_line": "formats",
    "parse_graph": "formats",
    "parse_matching_witness": "formats",
    "parse_sp_witness": "formats",
    "reject": "verdict",
    "serialize_connectivity_witness": "formats",
    "serialize_gcd": "formats",
    "serialize_graph": "formats",
    "serialize_matching_witness": "formats",
    "serialize_sp_witness": "formats",
    "solve_connectivity": "solvers",
    "solve_gcd": "solvers",
    "solve_max_matching": "solvers",
    "solve_shortest_paths": "solvers",
    "wellformed": "graph",
    "weight": "matching",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
