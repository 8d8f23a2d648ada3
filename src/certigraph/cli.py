"""Command-line driver.

``check-*`` commands read a graph file and a witness file (or a single gcd
file), print exactly one line, and exit 0 on ACCEPT, 1 on REJECT, and 2 on
any parse or precondition error. ``solve-*`` commands read an input, write
a witness file in the same formats, and exit 0, or 2 on bad input. The
stdout lines ``ACCEPT`` / ``REJECT: <clause>`` / ``ERROR: <reason>`` are a
stable interface. Any other exception is an internal error: nothing on
stdout, one line on stderr, exit 3.

Each command imports its checker or solver when it runs, so a process
loads the parser and the one problem module it needs and nothing else.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import formats
from .verdict import PreconditionError, Verdict


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


def cli_main(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.run(args)
    except (formats.ParseError, PreconditionError, OSError) as exc:
        print(f"ERROR: {exc}")
        return 2
    except Exception as exc:  # no verdict, so never exit 1 ("a clause failed")
        print(f"certigraph: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="certigraph",
        description="Check witnesses for graph answers, or solve and emit witnesses.",
    )
    sub = parser.add_subparsers(required=True, metavar="command")

    def checker(name: str, help_: str, run, files: list[str]):
        p = sub.add_parser(name, help=help_)
        for f in files:
            p.add_argument(f)
        p.set_defaults(run=run)
        return p

    checker(
        "check-connected",
        "verify a spanning-tree or cut witness",
        _check_connected,
        ["graph_file", "witness_file"],
    )
    checker(
        "check-sp",
        "verify a shortest-path witness (graph file must carry costs)",
        _check_sp,
        ["graph_file", "witness_file"],
    )
    checker(
        "check-matching",
        "verify a maximum-matching witness",
        _check_matching,
        ["graph_file", "witness_file"],
    )
    checker("check-gcd", "verify a gcd witness line", _check_gcd, ["gcd_file"])

    def solver(name: str, help_: str, run):
        p = sub.add_parser(name, help=help_)
        p.add_argument("-o", "--output", help="write the witness here instead of stdout")
        p.set_defaults(run=run)
        return p

    p = solver("solve-connected", "emit a spanning tree or a cut", _solve_connected)
    p.add_argument("graph_file")
    p = solver("solve-sp", "emit a shortest-path witness", _solve_sp)
    p.add_argument("graph_file")
    p.add_argument("source", type=int)
    p = solver("solve-matching", "emit a maximum matching plus cover", _solve_matching)
    p.add_argument("graph_file")
    p = solver("solve-gcd", "emit a gcd witness line", _solve_gcd)
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    return parser


def _verdict_to_exit(v: Verdict) -> int:
    if v.accepted:
        print("ACCEPT")
        return 0
    print(f"REJECT: {v.clause}")
    return 1


def _emit(text: str, args: argparse.Namespace) -> int:
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _read(path: str) -> str:
    """The file's text; bytes that do not decode are a parse error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise formats.ParseError(f"{path}: byte {exc.start} does not decode: {exc.reason}")


def _check_connected(args: argparse.Namespace) -> int:
    from .connectivity import ConnectivityTriple, SpanningTreeWitness, check_connectivity

    g, _ = formats.parse_graph(_read(args.graph_file))
    w = formats.parse_connectivity_witness(_read(args.witness_file), g)
    triple = ConnectivityTriple(g, isinstance(w, SpanningTreeWitness), w)
    return _verdict_to_exit(check_connectivity(triple))


def _check_sp(args: argparse.Namespace) -> int:
    from .shortest_paths import SpTriple, check_shortest_paths

    g, cost = formats.parse_graph(_read(args.graph_file))
    if cost is None:
        # A zero-edge graph has the (empty) cost vector whether or not a
        # cost column is present; with edges, the column is mandatory.
        if g.num_edges > 0:
            raise formats.ParseError(
                "check-sp needs explicit edge costs in the graph file"
            )
        cost = ()
    w = formats.parse_sp_witness(_read(args.witness_file), g, cost)
    return _verdict_to_exit(check_shortest_paths(SpTriple(g, w)))


def _check_matching(args: argparse.Namespace) -> int:
    from .matching import MatchingTriple, check_max_matching

    g, _ = formats.parse_graph(_read(args.graph_file))
    w = formats.parse_matching_witness(_read(args.witness_file), g)
    return _verdict_to_exit(check_max_matching(MatchingTriple(g, w)))


def _check_gcd(args: argparse.Namespace) -> int:
    from .gcd import check_gcd

    triple = formats.parse_gcd_line(_read(args.gcd_file))
    return _verdict_to_exit(check_gcd(triple))


def _solve_connected(args: argparse.Namespace) -> int:
    from .solvers import solve_connectivity

    g, _ = formats.parse_graph(_read(args.graph_file))
    result = solve_connectivity(g)
    return _emit(formats.serialize_connectivity_witness(result.witness), args)


def _solve_sp(args: argparse.Namespace) -> int:
    from .solvers import solve_shortest_paths

    g, cost = formats.parse_graph(_read(args.graph_file))
    if cost is None:
        cost = (1,) * g.num_edges
    result = solve_shortest_paths(g, cost, args.source)
    return _emit(formats.serialize_sp_witness(result.witness), args)


def _solve_matching(args: argparse.Namespace) -> int:
    from .solvers import solve_max_matching

    g, _ = formats.parse_graph(_read(args.graph_file))
    result = solve_max_matching(g)
    return _emit(formats.serialize_matching_witness(result.witness), args)


def _solve_gcd(args: argparse.Namespace) -> int:
    from .gcd import GcdTriple
    from .solvers import solve_gcd

    result = solve_gcd(args.a, args.b)
    s, t = result.witness
    return _emit(formats.serialize_gcd(GcdTriple(args.a, args.b, result.output, s, t)), args)
