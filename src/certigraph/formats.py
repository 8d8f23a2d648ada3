"""Plain-text file formats for graphs, witnesses, and gcd instances.

All files are line-based with whitespace-separated tokens. Trailing
whitespace and trailing blank lines are tolerated; anything else is
rejected with a line number. ``-`` encodes a missing parent edge and
``INF`` an infinite value; negative integers are rejected everywhere
except the Bezout coefficients of a gcd line, which are signed by nature.

Formats (first line is a tag line):

* graph:     ``graph <n> <m>`` then m lines ``<src> <trg>`` or
  ``<src> <trg> <cost>`` (arity uniform across the file)
* tree:      ``tree <root>`` then n lines ``<edge-id|-> <num>``
* cut:       ``cut <k>`` then k lines ``<vertex>``
* sp:        ``sp <source>`` then n lines ``<dist|INF> <num|INF> <edge-id|->``
* matching:  ``matching <m_M>`` then m_M lines ``<src> <trg> <f>`` then one
  line of n labels (omitted when n = 0)
* gcd:       ``gcd <a> <b> <g> <s> <t>``

Edge costs live in the graph file; shortest-path witness files reference
them implicitly, so parsing one requires the graph (and its costs).

Numbers have no digit limit in either direction: long tokens are read and
written in pieces, and the interpreter's int/str digit limit is never
changed.

Graph, tree and sp files in the layout the serializers write (single
spaces, ``\n`` line ends, no blank line) are read in bulk: one regular
expression scan for a line of the wrong shape, then one ``split`` and
``int`` over all tokens. Any other input, and any bulk read that finds a
bad count, an out-of-range endpoint or a number past the digit limit,
goes to the per-line reader, which defines what is accepted and is the
only source of error messages.

Each reader imports the classes it builds when it runs, so reading a gcd
line loads no graph module and reading a graph loads no witness checker.
"""

from __future__ import annotations

import functools
import re
from typing import TYPE_CHECKING

from .verdict import PreconditionError

if TYPE_CHECKING:
    from .connectivity import ConnectivityWitness, SpanningTreeWitness
    from .extnat import ExtNat
    from .gcd import GcdTriple
    from .graph import Graph
    from .matching import MatchingWitness
    from .shortest_paths import SpWitness


class ParseError(ValueError):
    """The file does not conform to its format."""


class LengthMismatchError(ParseError):
    """A declared count disagrees with the number of records present."""


class WellformednessError(PreconditionError):
    """A graph file names an endpoint outside its own vertex range."""


_Rows = list[tuple[int, list[str]]]


def _rows(text: str) -> _Rows:
    rows = [(i, raw.split()) for i, raw in enumerate(text.splitlines(), start=1)]
    while rows and not rows[-1][1]:
        rows.pop()
    for lineno, toks in rows:
        if not toks:
            raise ParseError(f"line {lineno}: blank line inside the file")
    return rows


_SAFE_DIGITS = 640  # the lowest digit limit CPython can be set to


def _digits_value(digits: str) -> int:
    """The value of an ASCII digit string of any length.

    Long strings are split in halves until each piece is short enough for
    ``int`` under any digit limit.
    """
    if len(digits) <= _SAFE_DIGITS:
        return int(digits)
    low = len(digits) // 2
    return _digits_value(digits[:-low]) * 10**low + _digits_value(digits[-low:])


def _decimal(x: int) -> str:
    """``str(x)`` for an int of any size, whatever the digit limit."""
    try:
        return str(x)
    except ValueError:  # past the limit: write the halves
        pass
    if x < 0:
        return "-" + _decimal(-x)
    low = x.bit_length() * 3 // 20  # about half the digits, as log10(2) ~ 0.3
    high, rest = divmod(x, 10**low)
    return _decimal(high) + _decimal(rest).zfill(low)


def _ext_decimal(x: ExtNat) -> str:
    return "INF" if x.value is None else _decimal(x.value)


def _nat(token: str, lineno: int) -> int:
    if not (token.isascii() and token.isdigit()):
        raise ParseError(f"line {lineno}: expected a nonnegative integer, got {token!r}")
    return _digits_value(token)


def _signed(token: str, lineno: int) -> int:
    body = token[1:] if token.startswith("-") else token
    if not (body and body.isascii() and body.isdigit()):
        raise ParseError(f"line {lineno}: expected an integer, got {token!r}")
    return -_digits_value(body) if token.startswith("-") else _digits_value(body)


def _tag_row(rows: _Rows, tag: str, values: int) -> list[int]:
    if not rows:
        raise ParseError("line 1: empty file")
    lineno, toks = rows[0]
    if len(toks) != values + 1 or toks[0] != tag:
        raise ParseError(
            f"line {lineno}: expected '{tag}' followed by {values} value(s)"
        )
    return [_nat(tok, lineno) for tok in toks[1:]]


def _body(rows: _Rows, expected: int, what: str) -> _Rows:
    body = rows[1:]
    if len(body) != expected:
        raise LengthMismatchError(
            f"expected {_decimal(expected)} {what} line(s), found {len(body)}"
        )
    return body


def _opt_edge_id(token: str, lineno: int) -> int | None:
    return None if token == "-" else _nat(token, lineno)


@functools.cache
def _misfit(shape: str) -> re.Pattern[str]:
    """A search for the start of a line that is not exactly ``shape``."""
    return re.compile(rf"^(?!{shape}$)", re.MULTILINE)


def _bulk_tokens(text: str, tag: str, values: int, shape: str) -> tuple[list[int], list[str]] | None:
    """The header values and body tokens of a file in the serializers' layout.

    None unless the tag line is ``<tag>`` and ``values`` numbers and every
    body line is ``shape``, all separated by single spaces and ended by
    ``\n``. Each line is matched on its own, so the regular expression
    engine's memory does not grow with the file.
    """
    if not text.endswith("\n"):
        return None
    body = text.find("\n") + 1
    head = text[: body - 1].split(" ")
    if head[0] != tag or len(head) != values + 1:
        return None
    if not all(tok.isascii() and tok.isdigit() for tok in head[1:]):
        return None
    if body < len(text) and _misfit(shape).search(text, body, len(text) - 1):
        return None
    return list(map(int, head[1:])), text.split()[values + 1 :]


def _opt_edge_ids(tokens: list[str]) -> list[int | None]:
    return [None if tok == "-" else int(tok) for tok in tokens]


def _in_bulk_or_by_line(in_bulk, by_line, *args):
    """``in_bulk(*args)``, or ``by_line(*args)`` where the bulk reader gives None."""
    try:
        parsed = in_bulk(*args)
    except ValueError:  # int() refused a number past the digit limit
        parsed = None
    return by_line(*args) if parsed is None else parsed


_EDGE_LINES = {2: "[0-9]+ [0-9]+", 3: "[0-9]+ [0-9]+ [0-9]+"}
_TREE_LINE = "(?:-|[0-9]+) [0-9]+"
_SP_LINE = "(?:INF|[0-9]+) (?:INF|[0-9]+) (?:-|[0-9]+)"


def _graph_in_bulk(text: str) -> tuple[Graph, tuple[int, ...] | None] | None:
    from .graph import Graph

    first = text.find("\n") + 1
    arity = text.count(" ", first, text.find("\n", first)) + 1
    if arity not in _EDGE_LINES:
        return None
    bulk = _bulk_tokens(text, "graph", 2, _EDGE_LINES[arity])
    if bulk is None:
        return None
    (n, m), tokens = bulk
    if len(tokens) != arity * m:
        return None
    ints = list(map(int, tokens))
    src, trg = ints[0::arity], ints[1::arity]
    # arity > 1 means a non-empty first edge line, so m >= 1 here.
    if max(max(src), max(trg)) >= n:
        return None
    return Graph(n, zip(src, trg)), tuple(ints[2::3]) if arity == 3 else None


def _tree_in_bulk(text: str, g: Graph) -> SpanningTreeWitness | None:
    from .connectivity import SpanningTreeWitness

    bulk = _bulk_tokens(text, "tree", 1, _TREE_LINE)
    if bulk is None or len(bulk[1]) != 2 * g.num_verts:
        return None
    (root,), tokens = bulk
    return SpanningTreeWitness(root, _opt_edge_ids(tokens[0::2]), list(map(int, tokens[1::2])))


def _sp_in_bulk(text: str, g: Graph, cost: tuple[int, ...]) -> SpWitness | None:
    from .extnat import INFINITY, ExtNat
    from .shortest_paths import SpWitness

    bulk = _bulk_tokens(text, "sp", 1, _SP_LINE)
    if bulk is None or len(bulk[1]) != 3 * g.num_verts:
        return None
    (source,), tokens = bulk
    dist, num = tokens[0::3], tokens[1::3]
    # ExtNat is frozen, so equal tokens can share one value.
    shared = {tok: INFINITY if tok == "INF" else ExtNat(int(tok)) for tok in {*dist, *num}}
    return SpWitness(
        source,
        map(shared.__getitem__, dist),
        map(shared.__getitem__, num),
        _opt_edge_ids(tokens[2::3]),
        cost,
    )


def parse_graph(text: str) -> tuple[Graph, tuple[int, ...] | None]:
    """Parse a graph file; returns the graph and its costs, if present."""
    return _in_bulk_or_by_line(_graph_in_bulk, _graph_by_line, text)


def _graph_by_line(text: str) -> tuple[Graph, tuple[int, ...] | None]:
    from .graph import Graph

    rows = _rows(text)
    n, m = _tag_row(rows, "graph", 2)
    body = _body(rows, m, "edge")
    edges: list[tuple[int, int]] = []
    costs: list[int] = []
    arity: int | None = None
    for lineno, toks in body:
        if len(toks) not in (2, 3):
            raise ParseError(f"line {lineno}: expected 'src trg' or 'src trg cost'")
        if arity is None:
            arity = len(toks)
        elif len(toks) != arity:
            raise ParseError(f"line {lineno}: mixed cost/no-cost edge lines")
        src, trg = _nat(toks[0], lineno), _nat(toks[1], lineno)
        if src >= n or trg >= n:
            raise WellformednessError(
                "wellformed",
                f"line {lineno}: endpoint out of range for {_decimal(n)} vertices",
            )
        edges.append((src, trg))
        if arity == 3:
            costs.append(_nat(toks[2], lineno))
    return Graph(n, edges), tuple(costs) if arity == 3 else None


def parse_connectivity_witness(text: str, g: Graph) -> ConnectivityWitness:
    """Parse a tree or cut witness file (the tag line says which)."""
    return _in_bulk_or_by_line(_tree_in_bulk, _connectivity_by_line, text, g)


def _connectivity_by_line(text: str, g: Graph) -> ConnectivityWitness:
    from .connectivity import CutWitness, SpanningTreeWitness

    rows = _rows(text)
    if rows and rows[0][1] and rows[0][1][0] == "cut":
        (k,) = _tag_row(rows, "cut", 1)
        body = _body(rows, k, "cut vertex")
        members: set[int] = set()
        for lineno, toks in body:
            if len(toks) != 1:
                raise ParseError(f"line {lineno}: expected one vertex id")
            v = _nat(toks[0], lineno)
            if v in members:
                raise ParseError(f"line {lineno}: vertex {v} repeats in the cut")
            members.add(v)
        return CutWitness(frozenset(members))
    (root,) = _tag_row(rows, "tree", 1)
    body = _body(rows, g.num_verts, "vertex")
    parent_edge: list[int | None] = []
    num: list[int] = []
    for lineno, toks in body:
        if len(toks) != 2:
            raise ParseError(f"line {lineno}: expected '<edge-id|-> <num>'")
        parent_edge.append(_opt_edge_id(toks[0], lineno))
        num.append(_nat(toks[1], lineno))
    return SpanningTreeWitness(root, parent_edge, num)


def parse_sp_witness(text: str, g: Graph, cost: tuple[int, ...]) -> SpWitness:
    """Parse a shortest-path witness; costs come from the graph file."""
    return _in_bulk_or_by_line(_sp_in_bulk, _sp_by_line, text, g, cost)


def _sp_by_line(text: str, g: Graph, cost: tuple[int, ...]) -> SpWitness:
    from .extnat import INFINITY, ExtNat
    from .shortest_paths import SpWitness

    def ext_nat(token: str, lineno: int) -> ExtNat:
        return INFINITY if token == "INF" else ExtNat(_nat(token, lineno))

    rows = _rows(text)
    (source,) = _tag_row(rows, "sp", 1)
    body = _body(rows, g.num_verts, "vertex")
    dist: list[ExtNat] = []
    num: list[ExtNat] = []
    parent_edge: list[int | None] = []
    for lineno, toks in body:
        if len(toks) != 3:
            raise ParseError(f"line {lineno}: expected '<dist|INF> <num|INF> <edge-id|->'")
        dist.append(ext_nat(toks[0], lineno))
        num.append(ext_nat(toks[1], lineno))
        parent_edge.append(_opt_edge_id(toks[2], lineno))
    return SpWitness(source, dist, num, parent_edge, cost)


def parse_matching_witness(text: str, g: Graph) -> MatchingWitness:
    """Parse a matching witness: M's edges, the edge map, and the labels."""
    from .graph import Graph
    from .matching import MatchingWitness

    rows = _rows(text)
    (m_edges,) = _tag_row(rows, "matching", 1)
    label_rows = 1 if g.num_verts > 0 else 0
    body = _body(rows, m_edges + label_rows, "witness")
    edges: list[tuple[int, int]] = []
    edge_map: list[int] = []
    for lineno, toks in body[:m_edges]:
        if len(toks) != 3:
            raise ParseError(f"line {lineno}: expected '<src> <trg> <f>'")
        edges.append((_nat(toks[0], lineno), _nat(toks[1], lineno)))
        edge_map.append(_nat(toks[2], lineno))
    labels: list[int] = []
    if label_rows:
        lineno, toks = body[m_edges]
        if len(toks) != g.num_verts:
            raise LengthMismatchError(
                f"line {lineno}: expected {g.num_verts} labels, found {len(toks)}"
            )
        labels = [_nat(tok, lineno) for tok in toks]
    return MatchingWitness(Graph(g.num_verts, edges), edge_map, labels)


def parse_gcd_line(text: str) -> GcdTriple:
    """Parse a one-line gcd instance ``gcd a b g s t``."""
    from .gcd import GcdTriple

    rows = _rows(text)
    if len(rows) != 1:
        raise ParseError("expected a single 'gcd a b g s t' line")
    lineno, toks = rows[0]
    if len(toks) != 6 or toks[0] != "gcd":
        raise ParseError(f"line {lineno}: expected 'gcd a b g s t'")
    a, b, g = (_nat(tok, lineno) for tok in toks[1:4])
    s, t = (_signed(tok, lineno) for tok in toks[4:6])
    return GcdTriple(a, b, g, s, t)


def serialize_graph(g: Graph, cost: tuple[int, ...] | None = None) -> str:
    lines = [f"graph {g.num_verts} {g.num_edges}"]
    for i, e in enumerate(g.edges):
        lines.append(
            f"{e.src} {e.trg}" if cost is None else f"{e.src} {e.trg} {_decimal(cost[i])}"
        )
    return "\n".join(lines) + "\n"


def serialize_connectivity_witness(w: ConnectivityWitness) -> str:
    from .connectivity import CutWitness

    if isinstance(w, CutWitness):
        members = sorted(w.cut_set)
        return "\n".join([f"cut {len(members)}"] + [str(v) for v in members]) + "\n"
    lines = [f"tree {w.root}"]
    for e, k in zip(w.parent_edge, w.num):
        lines.append(f"{'-' if e is None else e} {k}")
    return "\n".join(lines) + "\n"


def serialize_sp_witness(w: SpWitness) -> str:
    lines = [f"sp {w.source}"]
    for d, k, e in zip(w.dist, w.num, w.parent_edge):
        lines.append(f"{_ext_decimal(d)} {_ext_decimal(k)} {'-' if e is None else e}")
    return "\n".join(lines) + "\n"


def serialize_matching_witness(w: MatchingWitness) -> str:
    lines = [f"matching {w.matching.num_edges}"]
    for e, f in zip(w.matching.edges, w.edge_map):
        lines.append(f"{e.src} {e.trg} {f}")
    if w.matching.num_verts > 0:
        lines.append(" ".join(str(l) for l in w.osc))
    return "\n".join(lines) + "\n"


def serialize_gcd(t: GcdTriple) -> str:
    return "gcd " + " ".join(map(_decimal, (t.a, t.b, t.g, t.s, t.t))) + "\n"
