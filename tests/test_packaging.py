"""The library stays dependency-free (no declared runtime dependency, stdlib-only imports); its scripts run."""

from __future__ import annotations

import ast
import importlib
import json
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


def test_only_the_entries_test_a_certificate_poset_eulerian():
    """Only the root of a certificate is tested (semi-)Eulerian, by the entries that take it: every poset below
    the root is an interval of an Eulerian or semi-Eulerian parent, or a semisuspension the class checks found
    Eulerian (see the ``partition`` module docstring)."""
    tests = {"is_eulerian", "is_semi_eulerian"}
    nodes = scoped_nodes(ROOT / "src" / "cdposet" / "partition.py")
    users = {scope for scope, node in nodes if isinstance(node, ast.Name) and node.id in tests}
    converters = {"order_to_s_certificate", "simplicial_partition_to_s_certificate", "se_certificate_from_classes"}
    assert users == {"verify_partition", "_search_checked", *converters}


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


def run_script(name: str, *args: str) -> str:
    """The stdout of scripts/<name> run with the library on its path; it must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_reproduce_tables_script_runs():
    assert run_script("reproduce_tables.py").rstrip().splitlines()[-1] == "all recursive totals agree with the direct pipeline"


# sha256 of each stage's results on the cd workload's 24 posets: parsed elements, ranks and lower-cover masks,
# validate lists, Eulerian verdicts, flag f-vectors and (semi-)cd-indices; then on the ten benchmark certificates:
# the parsed roots' kinds, posets, initial coatoms and classes, the violation lists, the checked per-coatom
# contributions and totals, and the formatted texts
STAGE_HASHES = {
    "parse": "83839741def9f11ef54a1514ea8c47a328c55c2de1a22d90246a07d416a5290f",
    "validate": "5e3393def462e8228a8c31420b2ff02ef0fae506c917d4086cdd730360aec84a",
    "is_eulerian": "6416dd73c273a86bcfca4899090d3f4062710461463ba058ebd4f6c31e32472d",
    "flag_f": "6936095c506fe54041198283fa75c15f1f29551ab321cc76a41bc25c629968ed",
    "cd": "218d14ae0d0efc7dd767da51846c949737a65aed7f6dbc383c75df285ae65549",
    "cert_parse": "1ec0e2be74b258fcebd4e19100ce1e4c930d0436d895ead8f7c505fead05e8fb",
    "cert_verify": "3cb845f78f7c3bdce4b7d749b6039ee6a28da83e8d0fb07449397e05ae10800c",
    "cert_contributions": "8fa4eee20530c1d45622817222479e959c63fd9b4a9e3bc037dda2ab4c8b9996",
    "cert_format": "121fb6fdf5aae810cfc5f3b8a0b4092e855c1c794a9d5431dfd1a376aa8045e3",
}


def test_stages_script_runs_and_its_answers_stay():
    report = json.loads(run_script("stages.py", "--repeat", "1"))
    assert report["posets"] == 24 and report["certificates"] == 10 and set(report["seconds"]) == set(STAGE_HASHES)
    assert report["sha256"] == STAGE_HASHES


def test_only_numbered_sorts_elements_into_rank_name_order():
    """One step numbers named elements: ``_numbered`` alone sorts by rank (by name, then stably by rank), and only
    the name constructor and ``parse_poset`` call it.  Derived posets renumber bitsets instead."""
    rank_sorts, users = [], []
    for path in SOURCES:
        for scope, node in scoped_nodes(path):
            if isinstance(node, ast.Name) and node.id == "_numbered":
                users.append((path.name, scope))
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if (isinstance(fn, ast.Name) and fn.id == "sorted") or (isinstance(fn, ast.Attribute) and fn.attr == "sort"):
                keys = [kw.value for kw in node.keywords if kw.arg == "key"]
                words = {getattr(n, "id", getattr(n, "attr", "")) for key in keys for n in ast.walk(key)}
                if any("rank" in word for word in words):
                    rank_sorts.append((path.name, scope))
    assert rank_sorts == [("poset.py", "_numbered")]
    assert sorted(users) == [("poset.py", "GradedPoset.__init__"), ("poset.py", "parse_poset")]
