"""No library function recurses on the Python stack, except the few allowed below.

Deep certificate walks are generators that yield each recursive step to
``poset._run``.  A call to a generator function only creates such a
sub-walk, so it is not an edge of the call graph read here; every other
plain call to a function of the package is.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "cdposet").glob("*.py"))

# qualified name -> why its depth is bounded by something smaller than the stack
ALLOWED = {
    "ncpoly._peel": "depth is the degree; the work is already 2^degree",
    "ncpoly.cd_words": "its output is exponential in the degree",
    "zoo._facet_poset.rank_of": "fixture-only ranking of hand-written face tables",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(fn: ast.AST):
    """The nodes of a function body, without those of nested functions or classes."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def call_graph() -> dict[str, set[str]]:
    """Caller -> callees over every function of the package, by qualified name ``module.scope.name``."""
    defs: dict[str, ast.AST] = {}  # qualified name -> def
    scopes: dict[str, tuple[str, ...]] = {}  # qualified name -> enclosing scopes, innermost last
    imports: dict[str, dict[str, str]] = {}  # module -> local name -> qualified name

    def collect(node: ast.AST, prefix: str, enclosing: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (*_FUNCTIONS, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if isinstance(child, _FUNCTIONS):
                    defs[name], scopes[name] = child, enclosing
                inner = enclosing + (name,) if isinstance(child, _FUNCTIONS) else enclosing
                collect(child, name, inner)

    for path in SOURCES:
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        collect(tree, module, (module,))
        imports[module] = {
            alias.asname or alias.name: f"{node.module}.{alias.name}"
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names
        }

    def generator(fn: ast.AST) -> bool:
        return any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in _own_nodes(fn))

    def resolve(caller: str, call: ast.Call) -> str | None:
        func = call.func
        if isinstance(func, ast.Name):
            for scope in reversed(scopes[caller] + (caller,)):
                if f"{scope}.{func.id}" in defs:
                    return f"{scope}.{func.id}"
            return imports[caller.split(".")[0]].get(func.id)
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in ("self", "cls"):
            method = f"{caller.rsplit('.', 1)[0]}.{func.attr}"
            return method if method in defs else None
        return None

    graph: dict[str, set[str]] = {}
    for name, fn in defs.items():
        callees = {resolve(name, node) for node in _own_nodes(fn) if isinstance(node, ast.Call)}
        graph[name] = {c for c in callees if c in defs and not generator(defs[c])}
    return graph


def recursive_functions(graph: dict[str, set[str]]) -> set[str]:
    """The functions that reach themselves through the graph."""
    out = set()
    for start in graph:
        seen, todo = set(), list(graph[start])
        while todo:
            name = todo.pop()
            if name == start:
                out.add(start)
                break
            if name not in seen:
                seen.add(name)
                todo.extend(graph[name])
    return out


def test_the_graph_sees_the_package():
    graph = call_graph()
    assert "partition._search.fits" in graph and "poset._run" in graph
    assert "partition._gamma_checked" in graph["partition._search.fits"]
    # generator functions are sub-walks: starting one is not an edge
    assert "partition._search" not in graph["partition._search_checked"]


def test_no_plain_recursion_outside_the_allow_list():
    found = recursive_functions(call_graph())
    assert sorted(found - set(ALLOWED)) == []


def test_every_allowed_entry_still_recurses():
    assert set(ALLOWED) <= recursive_functions(call_graph())
