"""The contract of ``certigraph.record.Record``, for every record class of the package.

The data classes were frozen dataclasses; ``Record`` replaces them with the
same equality, hashing, repr and immutability, but builds a record from its
fields by position only. The reprs below are the literal strings the
dataclass-generated methods gave.
"""

from __future__ import annotations

import ast
import copy
import importlib
import pickle
import pkgutil
import sys
from pathlib import Path

import pytest

import certigraph
from certigraph import record
from certigraph.connectivity import ConnectivityTriple, CutWitness, SpanningTreeWitness
from certigraph.gcd import GcdTriple
from certigraph.graph import Graph
from certigraph.matching import MatchingTriple, MatchingWitness
from certigraph.record import Record
from certigraph.shortest_paths import INFINITY, ExtNat, SpTriple, SpWitness
from certigraph.solvers import SolverResult
from certigraph.verdict import Verdict

PATH = Graph(2, [[0, 1]])
SP = SpWitness(0, [ExtNat(0), INFINITY], [ExtNat(0), INFINITY], [None, None], [3])
MATCHED = MatchingWitness(Graph(2, [(1, 0)]), [0], [1, 0])
SP_REPR = (
    "SpWitness(source=0, dist=(ExtNat(value=0), ExtNat(value=None)), "
    "num=(ExtNat(value=0), ExtNat(value=None)), parent_edge=(None, None), cost=(3,))"
)
MATCHED_REPR = (
    "MatchingWitness(matching=Graph(num_verts=2, edges=((1, 0),)), edge_map=(0,), osc=(1, 0))"
)

# One record per class, and its repr as a frozen dataclass wrote it.
SAMPLES = {
    Verdict: (Verdict(False, "trian", "edge 3"), "Verdict(accepted=False, clause='trian', detail='edge 3')"),
    Graph: (PATH, "Graph(num_verts=2, edges=((0, 1),))"),
    SpanningTreeWitness: (
        SpanningTreeWitness(0, [None, 0], [0, 1]),
        "SpanningTreeWitness(root=0, parent_edge=(None, 0), num=(0, 1))",
    ),
    CutWitness: (CutWitness([1]), "CutWitness(cut_set=frozenset({1}))"),
    ConnectivityTriple: (
        ConnectivityTriple(PATH, False, CutWitness({1})),
        "ConnectivityTriple(graph=Graph(num_verts=2, edges=((0, 1),)), connected_claim=False, "
        "witness=CutWitness(cut_set=frozenset({1})))",
    ),
    ExtNat: (ExtNat(7), "ExtNat(value=7)"),
    SpWitness: (SP, SP_REPR),
    SpTriple: (SpTriple(PATH, SP), f"SpTriple(graph=Graph(num_verts=2, edges=((0, 1),)), witness={SP_REPR})"),
    MatchingWitness: (MATCHED, MATCHED_REPR),
    MatchingTriple: (
        MatchingTriple(PATH, MATCHED),
        f"MatchingTriple(graph=Graph(num_verts=2, edges=((0, 1),)), witness={MATCHED_REPR})",
    ),
    GcdTriple: (GcdTriple(240, 46, 2, -9, 47), "GcdTriple(a=240, b=46, g=2, s=-9, t=47)"),
    SolverResult: (
        SolverResult(True, CutWitness(range(2, 4))),
        "SolverResult(output=True, witness=CutWitness(cut_set=frozenset({2, 3})))",
    ),
}
CLASSES = list(SAMPLES)


def subclasses(cls: type) -> set[type]:
    return {c for sub in cls.__subclasses__() for c in {sub, *subclasses(sub)}}


def raw(cls: type, values) -> Record:
    """A record holding ``values`` as they are, without its construction checks."""
    made = object.__new__(cls)
    for name, value in zip(cls.__match_args__, values):
        object.__setattr__(made, name, value)
    return made


def test_the_samples_cover_every_record_class_of_the_package():
    for module in pkgutil.iter_modules(certigraph.__path__):
        if module.name != "__main__":
            importlib.import_module(f"certigraph.{module.name}")
    assert {c for c in subclasses(Record) if c.__module__.startswith("certigraph.")} == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_the_fields_are_the_annotations_in_source_order(cls):
    tree = ast.parse(Path(sys.modules[cls.__module__].__file__).read_text())
    (body,) = [n.body for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls.__name__]
    annotated = tuple(n.target.id for n in body if isinstance(n, ast.AnnAssign))
    assert cls.__match_args__ == annotated == tuple(vars(cls)["__annotations__"])
    sample = SAMPLES[cls][0]
    match sample:
        case cls(first):
            assert first is getattr(sample, annotated[0])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_records_are_equal_only_for_the_same_class_and_fields(cls):
    fields = cls.__match_args__
    one = raw(cls, range(len(fields)))
    same = raw(cls, range(len(fields)))
    assert one == same and not one != same and hash(one) == hash(same)
    assert hash(one) == hash(tuple(range(len(fields))))
    for i in range(len(fields)):
        values = list(range(len(fields)))
        values[i] = -1
        assert one != raw(cls, values)
    for other in CLASSES:
        if other is not cls:
            assert one != raw(other, range(len(other.__match_args__)))
    assert one.__eq__(tuple(range(len(fields)))) is NotImplemented
    sample = SAMPLES[cls][0]
    assert type(sample)(*(getattr(sample, f) for f in fields)) == sample


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_reads_as_the_dataclass_repr(cls):
    sample, expected = SAMPLES[cls]
    assert repr(sample) == expected


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    sample = SAMPLES[cls][0]
    for name in (*cls.__match_args__, "extra"):
        with pytest.raises(AttributeError):
            setattr(sample, name, 0)
        with pytest.raises(AttributeError):
            delattr(sample, name)
    assert repr(sample) == SAMPLES[cls][1]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_bad_arguments_raise_type_error(cls):
    sample = SAMPLES[cls][0]
    fields = cls.__match_args__
    values = [getattr(sample, f) for f in fields]
    bad = [
        ((*values, 0), {}),  # too many
        (values, {"extra": 0}),  # unknown
        (values, {fields[0]: values[0]}),  # the first field twice
        ((), {}),  # every field missing
        (values[:-1], {}),  # the last field missing
        ((), dict(zip(fields, values))),  # every field by keyword
    ]
    for args, kwargs in bad:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_pickling_builds_the_record_again(cls):
    """Pickling and copying restore the instance dict as it is; a record class
    with ``__slots__`` would have its slots set through the raising ``__setattr__``."""
    sample = SAMPLES[cls][0]
    for again in (pickle.loads(pickle.dumps(sample)), copy.copy(sample), copy.deepcopy(sample)):
        assert type(again) is cls and again == sample and repr(again) == repr(sample)


def test_post_init_still_normalizes_and_checks():
    g = Graph(3, iter([[0, 1], (1, 2)]))
    assert g.edges == ((0, 1), (1, 2)) and {type(e) for e in (g.edges, *g.edges)} == {tuple}
    assert CutWitness([2, 1, 2]).cut_set == frozenset({1, 2})
    assert type(CutWitness([2]).cut_set) is frozenset
    assert SpanningTreeWitness(0, [None], [0]).parent_edge == (None,)
    with pytest.raises(TypeError):
        Graph(3, [(0, 1, 2)])
    with pytest.raises(ValueError):
        ExtNat(-1)
    with pytest.raises(ValueError):
        ConnectivityTriple(PATH, True, CutWitness({1}))


IMPLICIT = ("__eq__", "__hash__", "__repr__", "__init_subclass__", "_values")


def test_the_methods_a_checker_runs_implicitly_are_total():
    """A checker runs these without naming them (``ExtNat ==`` in ``check_start_val``),
    and the static totality test reads only the check modules, so they are held
    here to its rule: no ``raise``, no ``while``, no call of themselves."""
    tree = ast.parse(Path(record.__file__).read_text())
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Record"]
    methods = {n.name: n for n in cls.body if isinstance(n, ast.FunctionDef)}
    calls = {}
    for name in IMPLICIT:
        nodes = list(ast.walk(methods[name]))
        assert not [n for n in nodes if isinstance(n, (ast.Raise, ast.While, ast.Assert))], name
        calls[name] = {
            c.func.attr if isinstance(c.func, ast.Attribute) else c.func.id
            for c in nodes
            if isinstance(c, ast.Call) and not _calls_super(c)
        }
    assert [name for name in IMPLICIT if name in calls[name]] == []
    # Only __eq__ and __hash__ call another of them, _values, which calls none back.
    assert {name: calls[name] & set(IMPLICIT) for name in IMPLICIT if calls[name] & set(IMPLICIT)} == {
        "__eq__": {"_values"},
        "__hash__": {"_values"},
    }


def _calls_super(call: ast.Call) -> bool:
    """``super().name(...)``: the base class's method, not a call of the method itself."""
    inner = call.func.value if isinstance(call.func, ast.Attribute) else None
    return isinstance(inner, ast.Call) and getattr(inner.func, "id", None) == "super"
