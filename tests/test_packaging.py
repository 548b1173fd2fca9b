"""The library stays dependency-free (no declared runtime dependency, stdlib-only imports); its scripts run."""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

from cdposet import cli

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "cdposet").glob("*.py"))


def imported_packages(path: Path) -> set[str]:
    """Top-level package of every import statement in a module; relative imports are cdposet."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            out.add("cdposet" if node.level else node.module.split(".")[0])
    return out


def scoped_nodes(path: Path) -> list[tuple[str, ast.AST]]:
    """(enclosing class and function names, node) for every node of a module."""
    out = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            out.append((".".join(scope), child))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, scope + (child.name,) if named else scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return out


def attribute_touches(path: Path, attrs: set[str]) -> list[tuple[str, str, int]]:
    """(enclosing class and function names, attribute, line) of every use of one of attrs in a module."""
    return [
        (scope, node.attr, node.lineno)
        for scope, node in scoped_nodes(path)
        if isinstance(node, ast.Attribute) and node.attr in attrs
    ]


def attribute_stores(path: Path, attrs: set[str]) -> list[tuple[str, str, int]]:
    """(scope, attribute, line) of every assignment to one of attrs, or to an item of one, in a module."""
    out = []
    for scope, node in scoped_nodes(path):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            node = node.value  # p._up[i] = ... changes p._up
        elif not isinstance(getattr(node, "ctx", None), ast.Store):
            continue
        if isinstance(node, ast.Attribute) and node.attr in attrs:
            out.append((scope, node.attr, node.lineno))
    return out


def test_only_the_memo_helper_touches_the_poset_memo():
    """Every memo, per poset or per structure-table entry, is set up by ``_fill`` and read through ``poset.memoized``."""
    allowed = {("poset.py", "memoized.wrapper"), ("poset.py", "GradedPoset._fill")}
    memos = {"_cache", "_shared"}
    touches = [(path.name, *touch) for path in SOURCES for touch in attribute_touches(path, memos)]
    assert {attr for _, _, attr, _ in touches} == memos
    assert [t for t in touches if t[:2] not in allowed] == []


# the derivation core of poset.py: the two functions that derive a table entry from a parent's and keep it in
# the parent's ``_derived``, and the one that puts a poset of a derived entry in the parent's family
DERIVING = {("poset.py", "_cap_entry"), ("poset.py", "_suspension_entry")}
DERIVED_POSET = ("poset.py", "_derived_poset")


def test_only_derived_constructions_pass_the_structure_table_on():
    """A poset shares its structure table only with the posets the derivation core derives from it (for
    ``cap``, ``semisuspension`` and the certificate classes), and only the core keeps name-free results in its
    entry's ``_derived``."""
    fill = ("poset.py", "GradedPoset._fill")
    for attr, allowed in (("_table", {fill, *DERIVING, DERIVED_POSET}), ("_derived", {fill, *DERIVING})):
        touches = [(path.name, *touch) for path in SOURCES for touch in attribute_touches(path, {attr})]
        assert {t[:2] for t in touches} == allowed, attr


def test_only_the_search_reads_or_writes_the_replay_table():
    """The S-search replay table lives for one call: ``_replay_table`` makes it, the walks pass it on as ``replay``,
    and only ``_search`` looks in it or records in it.  It is kept on no poset: no memo gains a writer."""
    uses = []
    for path in SOURCES:
        for scope, node in scoped_nodes(path):
            if isinstance(node, ast.Compare) and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
                operands = node.comparators
            elif isinstance(node, (ast.Subscript, ast.Attribute)):
                operands = [node.value]
            else:
                continue
            if any(isinstance(x, ast.Name) and x.id == "replay" for x in operands):
                stored = isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                uses.append((path.name, scope, "write" if stored else "read"))
    assert set(uses) == {("partition.py", "_search", "read"), ("partition.py", "_search", "write")}
    writers = {(path.name, store[0]) for path in SOURCES for store in attribute_stores(path, {"_cache", "_shared", "_derived"})}
    assert writers == {("poset.py", "GradedPoset._fill"), *DERIVING}


def test_only_fill_sets_the_poset_core():
    """Constructors hand ``_fill`` the elements and their structure's table entry; it alone sets the core."""
    core = {"_elements", "_index", "_ranks", "_up", "_down", "_downset", "_upset", "_levels", "rank_top", "_table", "_shared"}
    stores = [(path.name, *store) for path in SOURCES for store in attribute_stores(path, core)]
    assert {attr for _, _, attr, _ in stores} == core
    assert [s for s in stores if s[:2] != ("poset.py", "GradedPoset._fill")] == []


def test_only_read_lines_splits_a_text_into_lines():
    """The poset, certificate and pairs files are read through one line reader, ``poset.read_lines``."""
    touches = [(path.name, *touch) for path in SOURCES for touch in attribute_touches(path, {"splitlines"})]
    assert [t[:2] for t in touches] == [("poset.py", "read_lines")]


def test_private_names_come_only_from_the_core():
    """A module imports another's private (``_``) names only from the poset and polynomial core."""
    imports = [
        (path.name, node.module, alias.name)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert imports
    assert [i for i in imports if i[1] not in ("poset", "ncpoly")] == []


def test_every_python_file_parses_as_python_3_10():
    """pyproject.toml declares Python 3.10 as the oldest supported version, so no file may use newer syntax."""
    paths = [path for top in ("src", "tests", "scripts") for path in sorted((ROOT / top).rglob("*.py"))]
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_no_runtime_dependencies_declared():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert re.search(r"^dependencies\s*=\s*\[\s*\]\s*$", project, re.M), "dependencies must stay []"


def test_console_script_is_cli_main():
    """The README's ``cdposet ...`` commands run this entry point; the CI runs the tests uninstalled."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    target = re.search(r'^cdposet\s*=\s*"([\w.]+):(\w+)"\s*$', scripts, re.M)
    assert target, "[project.scripts] must declare cdposet"
    module, attr = target.groups()
    assert getattr(importlib.import_module(module), attr) is cli.main


def test_every_import_is_stdlib_or_cdposet():
    assert SOURCES
    for path in SOURCES:
        foreign = imported_packages(path) - set(sys.stdlib_module_names) - {"cdposet"}
        assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_reproduce_tables_script_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_tables.py")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().splitlines()[-1] == "all recursive totals agree with the direct pipeline"
