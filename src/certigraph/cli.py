"""Command-line driver.

``check-*`` commands read a graph file and a witness file (or a single gcd
file), print exactly one line, and exit 0 on ACCEPT, 1 on REJECT, and 2 on
any parse or precondition error. ``solve-*`` commands read an input, write
a witness file in the same formats, and exit 0, or 2 on bad input. The
stdout lines ``ACCEPT`` / ``REJECT: <clause>`` / ``ERROR: <reason>`` are a
stable interface. Any other exception is an internal error: nothing on
stdout, one line on stderr, exit 3.

Importing this module loads only ``verdict`` from the package. Each command
imports its reader and its checker or solver when it runs, so a process loads
the one problem module it needs, and a gcd command loads no graph code.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .verdict import ParseError, PreconditionError, Verdict


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


def cli_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="certigraph",
        description="Check witnesses for graph answers, or solve and emit witnesses.",
    )
    sub = parser.add_subparsers(required=True, metavar="command")
    for name, help_, run, operands in _COMMANDS:
        p = sub.add_parser(name, help=help_)
        if name.startswith("solve-"):
            p.add_argument("-o", "--output", help="write the witness here instead of stdout")
        for operand in operands:
            p.add_argument(operand, type=int if operand in ("source", "a", "b") else None)
        p.set_defaults(run=run)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        result = args.run(args)
        if isinstance(result, Verdict):
            print("ACCEPT" if result.accepted else f"REJECT: {result.clause}")
            return 0 if result.accepted else 1
        if args.output:
            Path(args.output).write_text(result)
        else:
            sys.stdout.write(result)
        return 0
    except (ParseError, PreconditionError, OSError) as exc:
        print(f"ERROR: {exc}")
        return 2
    except Exception as exc:  # no verdict, so never exit 1 ("a clause failed")
        print(f"certigraph: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _read(path: str) -> str:
    """The file's text; bytes that do not decode are a parse error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start} does not decode: {exc.reason}")


def _check_connected(args: argparse.Namespace) -> Verdict:
    from . import formats
    from .connectivity import ConnectivityTriple, SpanningTreeWitness, check_connectivity

    g, _ = formats.parse_graph(_read(args.graph_file))
    w = formats.parse_connectivity_witness(_read(args.witness_file), g)
    triple = ConnectivityTriple(g, isinstance(w, SpanningTreeWitness), w)
    return check_connectivity(triple)


def _check_sp(args: argparse.Namespace) -> Verdict:
    from . import formats
    from .shortest_paths import SpTriple, check_shortest_paths

    g, cost = formats.parse_graph(_read(args.graph_file))
    if cost is None:
        raise ParseError("check-sp needs explicit edge costs in the graph file")
    w = formats.parse_sp_witness(_read(args.witness_file), g, cost)
    return check_shortest_paths(SpTriple(g, w))


def _check_matching(args: argparse.Namespace) -> Verdict:
    from . import formats
    from .matching import MatchingTriple, check_max_matching

    g, _ = formats.parse_graph(_read(args.graph_file))
    w = formats.parse_matching_witness(_read(args.witness_file), g)
    return check_max_matching(MatchingTriple(g, w))


def _check_gcd(args: argparse.Namespace) -> Verdict:
    from .gcd import check_gcd, parse_gcd_line

    triple = parse_gcd_line(_read(args.gcd_file))
    return check_gcd(triple)


def _solve_connected(args: argparse.Namespace) -> str:
    from . import formats
    from .solvers import solve_connectivity

    g, _ = formats.parse_graph(_read(args.graph_file))
    result = solve_connectivity(g)
    return formats.serialize_connectivity_witness(result.witness)


def _solve_sp(args: argparse.Namespace) -> str:
    from . import formats
    from .solvers import solve_shortest_paths

    g, cost = formats.parse_graph(_read(args.graph_file))
    if cost is None:
        cost = (1,) * g.num_edges
    result = solve_shortest_paths(g, cost, args.source)
    return formats.serialize_sp_witness(result.witness)


def _solve_matching(args: argparse.Namespace) -> str:
    from . import formats
    from .solvers import solve_max_matching

    g, _ = formats.parse_graph(_read(args.graph_file))
    result = solve_max_matching(g)
    return formats.serialize_matching_witness(result.witness)


def _solve_gcd(args: argparse.Namespace) -> str:
    from .gcd import GcdTriple, serialize_gcd
    from .solvers import solve_gcd

    result = solve_gcd(args.a, args.b)
    s, t = result.witness
    return serialize_gcd(GcdTriple(args.a, args.b, result.output, s, t))


# One row per command, in --help order: name, help text, handler, operands.
_COMMANDS = (
    ("check-connected", "verify a spanning-tree or cut witness", _check_connected,
     ("graph_file", "witness_file")),
    ("check-sp", "verify a shortest-path witness (graph file must carry costs unless it "
     "has no edges)", _check_sp, ("graph_file", "witness_file")),
    ("check-matching", "verify a maximum-matching witness", _check_matching,
     ("graph_file", "witness_file")),
    ("check-gcd", "verify a gcd witness line", _check_gcd, ("gcd_file",)),
    ("solve-connected", "emit a spanning tree or a cut", _solve_connected, ("graph_file",)),
    ("solve-sp", "emit a shortest-path witness", _solve_sp, ("graph_file", "source")),
    ("solve-matching", "emit a maximum matching plus cover", _solve_matching, ("graph_file",)),
    ("solve-gcd", "emit a gcd witness line", _solve_gcd, ("a", "b")),
)
