"""Certifying graph algorithms.

Solvers return each answer together with a witness; checkers decide,
exactly and in exact arithmetic, whether a witness proves its answer;
brute-force oracles provide independent ground truth for testing both.
Accepting a checker run means the answer is correct regardless of how the
solver computed it.
"""

from .connectivity import (
    ConnectivityTriple,
    ConnectivityWitness,
    CutWitness,
    SpanningTreeWitness,
    check_connectivity,
    check_cut,
    check_parent_num,
    check_r,
)
from .extnat import INFINITY, ExtNat
from .formats import (
    LengthMismatchError,
    ParseError,
    WellformednessError,
    parse_connectivity_witness,
    parse_gcd_line,
    parse_graph,
    parse_matching_witness,
    parse_sp_witness,
    serialize_connectivity_witness,
    serialize_gcd,
    serialize_graph,
    serialize_matching_witness,
    serialize_sp_witness,
)
from .gcd import GcdTriple, check_gcd
from .graph import (
    Edge,
    Graph,
    has_no_duplicate_edges,
    has_no_self_loops,
    wellformed,
)
from .matching import (
    MatchingTriple,
    MatchingWitness,
    check_cardinality,
    check_matching,
    check_max_matching,
    check_osc,
    check_subset,
    weight,
)
from .shortest_paths import (
    SpTriple,
    SpWitness,
    check_just,
    check_no_path,
    check_shortest_paths,
    check_start_val,
    check_trian,
)
from .solvers import (
    SolverResult,
    solve_connectivity,
    solve_gcd,
    solve_max_matching,
    solve_shortest_paths,
)
from .verdict import ACCEPT, PreconditionError, Verdict, reject

__all__ = [
    "ACCEPT",
    "ConnectivityTriple",
    "ConnectivityWitness",
    "CutWitness",
    "Edge",
    "ExtNat",
    "GcdTriple",
    "Graph",
    "INFINITY",
    "InstanceTooLargeError",
    "LengthMismatchError",
    "MatchingTriple",
    "MatchingWitness",
    "ParseError",
    "PreconditionError",
    "SolverResult",
    "SpTriple",
    "SpWitness",
    "SpanningTreeWitness",
    "Verdict",
    "WellformednessError",
    "check_cardinality",
    "check_connectivity",
    "check_cut",
    "check_gcd",
    "check_just",
    "check_matching",
    "check_max_matching",
    "check_no_path",
    "check_osc",
    "check_parent_num",
    "check_r",
    "check_shortest_paths",
    "check_start_val",
    "check_subset",
    "check_trian",
    "eval_witness_predicate",
    "has_no_duplicate_edges",
    "has_no_self_loops",
    "oracle_connected",
    "oracle_max_matching_size",
    "oracle_mu",
    "parse_connectivity_witness",
    "parse_gcd_line",
    "parse_graph",
    "parse_matching_witness",
    "parse_sp_witness",
    "reject",
    "serialize_connectivity_witness",
    "serialize_gcd",
    "serialize_graph",
    "serialize_matching_witness",
    "serialize_sp_witness",
    "solve_connectivity",
    "solve_gcd",
    "solve_max_matching",
    "solve_shortest_paths",
    "wellformed",
    "weight",
]


_ORACLES = (
    "InstanceTooLargeError",
    "eval_witness_predicate",
    "oracle_connected",
    "oracle_max_matching_size",
    "oracle_mu",
)


def __getattr__(name: str):
    # The brute-force oracles are test machinery that no solver, checker
    # or CLI command uses, so they load on first access, not with the CLI.
    if name in _ORACLES:
        from . import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
