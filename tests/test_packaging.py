"""The library stays dependency-free (no declared runtime dependency, stdlib-only imports); its scripts run."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

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


def test_no_runtime_dependencies_declared():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert re.search(r"^dependencies\s*=\s*\[\s*\]\s*$", project, re.M), "dependencies must stay []"


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
