"""Termination and totality of the checkers, by construction.

The paper proves that its C checker terminates without runtime errors.
Here the same two facts are read off the syntax: every clause, every
checker entry point, and every function of the check modules that one of
them calls has no ``while`` loop (its loops run over finite sequences), no
recursion, and no ``raise`` or ``assert``. Precondition functions
(``require_*``), constructors and the gcd line reader (``parse_gcd_line``
and its ``_signed``) raise by design and are exempt by name; they are
neither checked nor followed. Class methods can run implicitly (``__bool__``
of a verdict, a property read), so every method that is not a constructor
is checked too. The CLI fuzz test is the dynamic half of this argument.
"""

from __future__ import annotations

import ast
from pathlib import Path

from certigraph import connectivity, gcd, graph, matching, shortest_paths, verdict

MODULES = {
    m.__name__.rpartition(".")[2]: m
    for m in (connectivity, shortest_paths, matching, gcd, graph, verdict)
}
EXEMPT = {"__init__", "__post_init__", "parse_gcd_line", "_signed"}

Key = tuple[str, str]  # (module, function name)


def _exempt(name: str) -> bool:
    return name in EXEMPT or name.startswith("require_")


def _call_graph() -> tuple[dict[Key, ast.AST], set[Key], dict[Key, set[Key]]]:
    """Every function of the check modules, the roots, and who calls whom.

    A call by plain name resolves to the module's own function or to the
    one it imports from another check module; a call through an attribute
    resolves to every class method of that name.
    """
    trees = {name: ast.parse(Path(m.__file__).read_text()) for name, m in MODULES.items()}
    functions: dict[Key, ast.AST] = {}
    methods: dict[str, set[Key]] = {}
    scopes: dict[str, dict[str, Key]] = {}
    roots: set[Key] = set()
    for mod, tree in trees.items():
        scope = scopes[mod] = {}
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions[mod, node.name] = node
                scope[node.name] = (mod, node.name)
                if node.name.startswith("check_"):
                    roots.add((mod, node.name))
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in MODULES:
                for alias in node.names:
                    scope[alias.asname or alias.name] = (node.module, alias.name)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not _exempt(item.name):
                        key = (mod, f"{node.name}.{item.name}")
                        functions[key] = item
                        methods.setdefault(item.name, set()).add(key)
                        roots.add(key)
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id.endswith("CLAUSES") for t in node.targets
            ):
                assert isinstance(node.value, ast.Tuple), ast.dump(node)
                for i, entry in enumerate(node.value.elts):
                    if isinstance(entry, ast.Lambda):
                        functions[mod, f"{node.targets[0].id}[{i}]"] = entry
                        roots.add((mod, f"{node.targets[0].id}[{i}]"))
                    else:
                        roots.add(scopes[mod][entry.id])
    calls: dict[Key, set[Key]] = {}
    for key, node in functions.items():
        callees = calls[key] = set()
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            if isinstance(call.func, ast.Name) and call.func.id in scopes[key[0]]:
                callees.add(scopes[key[0]][call.func.id])
            elif isinstance(call.func, ast.Attribute):
                callees |= methods.get(call.func.attr, set())
    return functions, roots, calls


def _reached() -> tuple[dict[Key, ast.AST], dict[Key, set[Key]]]:
    """The functions a root reaches, skipping exempt ones and classes, with their calls."""
    functions, roots, calls = _call_graph()
    reached: set[Key] = set()
    todo = [key for key in roots if not _exempt(key[1])]
    while todo:
        key = todo.pop()
        if key in reached or key not in functions or _exempt(key[1]):
            continue
        reached.add(key)
        todo.extend(calls[key])
    return {k: functions[k] for k in reached}, {k: calls[k] & reached for k in reached}


def test_the_reached_set_holds_every_clause_and_its_helpers():
    reached, _ = _reached()
    names = {name for _, name in reached}
    assert {
        "check_r", "check_parent_num", "check_cut", "check_start_val", "check_no_path",
        "check_trian", "check_just", "check_subset", "check_matching", "check_osc",
        "check_cardinality", "weight", "check_gcd", "_divides", "first_rejection",
        "reject", "shown", "Verdict.__bool__", "ExtNat.is_infinite", "Graph.num_edges",
        "check_connectivity", "check_shortest_paths", "check_max_matching",
    } <= names, names
    assert not [name for name in names if _exempt(name.rpartition(".")[2])]


def test_checker_code_has_no_while_loop_and_no_raise():
    reached, _ = _reached()
    found = [
        (key, type(node).__name__, node.lineno)
        for key, fn in reached.items()
        for node in ast.walk(fn)
        if isinstance(node, (ast.While, ast.Raise, ast.Assert))
    ]
    assert found == []


def test_checker_code_has_no_recursion():
    _, calls = _reached()
    # Depth-first search for a cycle, a function calling itself included.
    state: dict[Key, str] = {}

    def visit(key: Key, path: list[Key]) -> list[Key] | None:
        state[key] = "open"
        for callee in sorted(calls[key]):
            if state.get(callee) == "open":
                return path + [key, callee]
            if callee not in state:
                cycle = visit(callee, path + [key])
                if cycle:
                    return cycle
        state[key] = "done"
        return None

    cycles = [visit(key, []) for key in sorted(calls) if key not in state]
    assert [c for c in cycles if c] == []
