"""Plain-text file formats for graphs and their witnesses.

All files are line-based with whitespace-separated tokens. Trailing
whitespace and trailing blank lines are tolerated; anything else is
rejected with a line number. ``-`` encodes a missing parent edge and
``INF`` an infinite value; negative integers are rejected everywhere.

Formats (first line is a tag line):

* graph:     ``graph <n> <m>`` then m lines ``<src> <trg>`` or
  ``<src> <trg> <cost>`` (arity uniform across the file)
* tree:      ``tree <root>`` then n lines ``<edge-id|-> <num>``
* cut:       ``cut <k>`` then k lines ``<vertex>``
* sp:        ``sp <source>`` then n lines ``<dist|INF> <num|INF> <edge-id|->``
* matching:  ``matching <m_M>`` then m_M lines ``<src> <trg> <f>`` then one
  line of n labels (omitted when n = 0)

Edge costs live in the graph file; shortest-path witness files reference
them implicitly, so parsing one requires the graph (and its costs).

Numbers have no digit limit in either direction: long tokens are read and
written in pieces (``numerals``), and the interpreter's int/str digit limit
is never changed.

The graph, tree, cut, sp and matching formats are one ``_Layout`` each.
``_write`` writes any of them (single spaces, ``\n`` line ends, no blank
line). ``_in_bulk`` reads that form with a shape check in C, then one
``json`` decode and C-level slices. It gives None for any other file and
for numbers ``json`` refuses: leading zeros, or past the digit limit.
``_by_line`` reads every file row by row; it defines what is accepted and
gives every error message. A row check per kind adds what no layout
states: graph lines and their endpoints, and no repeated cut vertex.

Each witness reader imports the classes it builds when it runs, so reading
a graph loads no witness checker.
"""

from __future__ import annotations

import collections
import functools
import gc

from .graph import Graph
from .numerals import _decimal, _digits_value, _nat, _rows
from .verdict import ParseError, PreconditionError

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at run time
if TYPE_CHECKING:
    from typing import Callable, Sequence

    from .connectivity import ConnectivityWitness
    from .matching import MatchingWitness
    from .shortest_paths import SpWitness

    _Check = Callable[[list[int], int, list[str]], None]  # a row check, see _by_line


class LengthMismatchError(ParseError):
    """A declared count disagrees with the number of records present."""


class WellformednessError(PreconditionError):
    """A graph file names an endpoint outside its own vertex range."""


_Layout = collections.namedtuple(
    "_Layout", "tag values per_vertex columns row_error what labels", defaults=(False,)
)
_Layout.__doc__ = """A file kind: a tag line, then one row of ``columns`` per record.

The tag line holds ``values`` numbers, the last of which counts the rows,
unless there is one row per vertex (``per_vertex``). A column is None for
numbers, or the one word it also takes (``-`` or ``INF``), which reads as
None. With ``labels``, a line of n numbers follows the rows. ``row_error``
and ``what`` go into error messages.
"""
_EDGE_ERROR = "expected 'src trg' or 'src trg cost'"
_EDGES = {w: _Layout("graph", 2, False, (None,) * w, _EDGE_ERROR, "edge") for w in (2, 3)}
_TREE = _Layout("tree", 1, True, ("-", None), "expected '<edge-id|-> <num>'", "vertex")
_CUT = _Layout("cut", 1, False, (None,), "expected one vertex id", "cut vertex")
_SP = _Layout(
    "sp", 1, True, ("INF", "INF", "-"), "expected '<dist|INF> <num|INF> <edge-id|->'", "vertex"
)
_MATCHING = _Layout(
    "matching", 1, False, (None, None, None), "expected '<src> <trg> <f>'", "witness", labels=True
)

_Read = tuple[list[int], list[list], list[int]]  # header values, columns, labels


def _column(tokens: list[str], word: str | None) -> list:
    """The values of a column of well-formed tokens (see ``_Layout``), mostly in C."""
    try:
        if word is None:
            return list(map(int, tokens))
        return [None if tok == word else int(tok) for tok in tokens]
    except ValueError:  # int() refused a number past the digit limit
        return [None if tok == word else _digits_value(tok) for tok in tokens]


def _in_bulk(text: str, layout: _Layout, n: int | None = None) -> _Read | None:
    """A file in the serializers' layout, read in a few passes in C.

    None unless the tag line, each row and the labels line fit ``layout``
    with single spaces and ``\n`` line ends. Their shape is checked before
    ``json``, which never meets a bracket to recurse into: without digits
    and word letters, the rows must leave the layout's separators once per
    declared row (counted first: a huge count allocates nothing), and each
    word must end at its column's separator. ``json`` refuses other tokens.
    """
    if not (text.endswith("\n") and text.isascii()):
        return None
    start = text.find("\n") + 1
    end = len(text)  # where the rows end
    head = text[: start - 1].split(" ")
    labels: list[str] = []
    if layout.labels and n:
        end = text.rfind("\n", 0, end - 1) + 1  # the labels line, or the tag line (no digits)
        labels = text[end:-1].split(" ")
    numbers = head[1:] + labels
    if head[0] != layout.tag or len(head) != layout.values + 1 or len(labels) not in (0, n):
        return None
    if not (all(numbers) and "".join(numbers).isdigit()):
        return None
    rows, width = text[start:end], len(layout.columns)
    ends = {w: " " if i < width - 1 else "\n" for i, w in enumerate(layout.columns) if w}
    skeleton = rows.encode().translate(None, b"0123456789" + "".join(ends).encode())
    count = skeleton.count(b"\n")
    if (count != n) if layout.per_vertex else (str(count) != head[-1]):
        return None
    if skeleton != (b" " * (width - 1) + b"\n") * count:
        return None
    if any(rows.count(w) != rows.count(w + sep) for w, sep in ends.items()):
        return None
    import json  # here, not at the top: importing the CLI does not load it

    doc = "[%s]" % text[len(layout.tag) + 1 : -1].translate(str.maketrans(" \n", ",,"))
    for word in ends:
        doc = doc.replace(word, "null")
    try:
        values = json.loads(doc)
    except ValueError:  # a leading zero or a number past the digit limit: _by_line reads it
        return None
    first = layout.values  # the rows' values start here
    last = first + width * count
    columns = [values[first + i : last : width] for i in range(width)]
    return values[:first], columns, values[last:]


def _by_line(
    text: str, layout: _Layout, n: int | None = None, check: _Check | None = None
) -> _Read:
    """Any file of ``layout``, read row by row: raises its first fault.

    ``check(head, lineno, toks)``, where given, checks each row before it
    is read, in place of the layout's width check; a row narrower than the
    layout leaves its last columns out.
    """
    rows = _rows(text)
    if not rows:
        raise ParseError("line 1: empty file")
    tag = rows[0][1]
    body = rows[1:]
    if len(tag) != layout.values + 1 or tag[0] != layout.tag:
        raise ParseError(
            f"line 1: expected '{layout.tag}' followed by {layout.values} value(s)"
        )
    head = [_nat(tok, 1) for tok in tag[1:]]
    count = n if layout.per_vertex else head[-1]
    labels = 1 if layout.labels and n else 0
    if len(body) != count + labels:
        raise LengthMismatchError(
            f"expected {_decimal(count + labels)} {layout.what} line(s), found {len(body)}"
        )
    for lineno, toks in body[:count]:
        if check is not None:
            check(head, lineno, toks)
        elif len(toks) != len(layout.columns):
            raise ParseError(f"line {lineno}: {layout.row_error}")
        for word, tok in zip(layout.columns, toks):
            if tok != word and not (tok.isascii() and tok.isdigit()):
                _nat(tok, lineno)  # which raises the error
    cells = list(zip(*(toks for _, toks in body[:count]))) or [[] for _ in layout.columns]
    columns = [_column(list(column), word) for column, word in zip(cells, layout.columns)]
    if not labels:
        return head, columns, []
    lineno, toks = body[count]
    if len(toks) != n:
        raise LengthMismatchError(
            f"line {lineno}: expected {_decimal(n)} labels, found {len(toks)}"
        )
    return head, columns, [_nat(tok, lineno) for tok in toks]


def _edge_line(widths: set[int], head: list[int], lineno: int, toks: list[str]) -> None:
    """An edge line's own rules: two or three columns, one width, endpoints below n."""
    if len(toks) not in (2, 3):
        raise ParseError(f"line {lineno}: {_EDGE_ERROR}")
    widths.add(len(toks))
    if len(widths) > 1:
        raise ParseError(f"line {lineno}: mixed cost/no-cost edge lines")
    if max(_nat(toks[0], lineno), _nat(toks[1], lineno)) >= head[0]:
        raise WellformednessError(
            "wellformed",
            f"line {lineno}: endpoint out of range for {_decimal(head[0])} vertices",
        )


def parse_graph(text: str) -> tuple[Graph, tuple[int, ...] | None]:
    """Parse a graph file; returns the graph and its costs (None if edges lack them)."""
    first = text.find("\n") + 1
    layout = _EDGES.get(text.count(" ", first, text.find("\n", first)) + 1)
    # The decode and the build make only tuples of ints, so cyclic GC has nothing to find.
    enabled = gc.isenabled()
    gc.disable()
    try:
        read = layout and _in_bulk(text, layout)
        # _in_bulk does not check endpoints; a file it reads has edges, so max() has values.
        if not read or max(max(read[1][0]), max(read[1][1])) >= read[0][0]:
            read = _by_line(text, _EDGES[3], check=functools.partial(_edge_line, set()))
        (n, _), (src, trg, *cost), _ = read
        return Graph(n, zip(src, trg)), tuple(cost[0]) if cost else None
    finally:
        if enabled:
            gc.enable()


def _cut_line(seen: set[int], head: list[int], lineno: int, toks: list[str]) -> None:
    """A cut line's own rules: one vertex, named on no earlier line."""
    if len(toks) != 1:
        raise ParseError(f"line {lineno}: {_CUT.row_error}")
    v = _nat(toks[0], lineno)
    if v in seen:
        raise ParseError(f"line {lineno}: vertex {_decimal(v)} repeats in the cut")
    seen.add(v)


def parse_connectivity_witness(text: str, g: Graph) -> ConnectivityWitness:
    """Parse a tree or cut witness file (the tag line says which)."""
    from .connectivity import CutWitness, SpanningTreeWitness

    if text.split(maxsplit=1)[:1] != ["cut"]:
        n = g.num_verts
        (root,), (parent_edge, num), _ = _in_bulk(text, _TREE, n) or _by_line(text, _TREE, n)
        return SpanningTreeWitness(root, parent_edge, num)
    read = _in_bulk(text, _CUT)
    # The bulk reader does not look for repeats.
    if not read or len(set(read[1][0])) < read[0][0]:
        read = _by_line(text, _CUT, check=functools.partial(_cut_line, set()))
    return CutWitness(frozenset(read[1][0]))


def parse_sp_witness(text: str, g: Graph, cost: tuple[int, ...]) -> SpWitness:
    """Parse a shortest-path witness; costs come from the graph file."""
    from .shortest_paths import SpWitness, extnat_column

    n = g.num_verts
    (source,), (dist, num, parent_edge), _ = _in_bulk(text, _SP, n) or _by_line(text, _SP, n)
    return SpWitness(source, extnat_column(dist), extnat_column(num), parent_edge, cost)


def parse_matching_witness(text: str, g: Graph) -> MatchingWitness:
    """Parse a matching witness: M's edges, the edge map, and the labels."""
    from .matching import MatchingWitness

    n = g.num_verts
    read = _in_bulk(text, _MATCHING, n) or _by_line(text, _MATCHING, n)
    _, (src, trg, edge_map), labels = read
    return MatchingWitness(Graph(n, zip(src, trg)), edge_map, labels)


def _write(layout: _Layout, head: Sequence, columns: list, labels: Sequence | None = None) -> str:
    """A file of ``layout`` in the form ``_in_bulk`` reads; ``labels``, if given, ends it."""
    cells = [
        column if word is None else [word if x is None else x for x in column]
        for column, word in zip(columns, layout.columns)
    ]
    row = " ".join(["%s"] * len(cells))
    try:
        lines = list(map(row.__mod__, zip(*cells)))
    except ValueError:  # str() refused a number past the digit limit; words pass through
        lines = [" ".join(map(_decimal, r)) for r in zip(*cells)]
    lines.insert(0, " ".join([layout.tag, *map(_decimal, head)]))
    if labels is not None:
        lines.append(" ".join(map(_decimal, labels)))
    return "\n".join(lines) + "\n"


def serialize_graph(g: Graph, cost: tuple[int, ...] | None = None) -> str:
    columns = [[src for src, _ in g.edges], [trg for _, trg in g.edges]]
    if cost is not None:
        columns.append(cost)
    return _write(_EDGES[len(columns)], (g.num_verts, g.num_edges), columns)


def serialize_connectivity_witness(w: ConnectivityWitness) -> str:
    from .connectivity import CutWitness

    if isinstance(w, CutWitness):
        return _write(_CUT, (len(w.cut_set),), [sorted(w.cut_set)])
    return _write(_TREE, (w.root,), [w.parent_edge, w.num])


def serialize_sp_witness(w: SpWitness) -> str:
    dist, num = ([x.value for x in column] for column in (w.dist, w.num))
    return _write(_SP, (w.source,), [dist, num, w.parent_edge])


def serialize_matching_witness(w: MatchingWitness) -> str:
    m = w.matching
    columns = [[src for src, _ in m.edges], [trg for _, trg in m.edges], w.edge_map]
    return _write(_MATCHING, (m.num_edges,), columns, w.osc if m.num_verts > 0 else None)

