"""Count the code lines of each module of ``src/cdposet/``: lines that are not blank, comment or docstring.

Stdlib only.  Prints one JSON line, ``{"<module>.py": lines, ..., "total": lines}``, so that a change's line
delta can be read from two runs.  A docstring is the string that opens a module, class or function body; every
line it spans is left out, and so is a line that holds only a comment.

    python scripts/loc.py [source dir]      # default: src/cdposet next to this script
"""

from __future__ import annotations

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of the module and of its classes and functions span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold a token of code outside every docstring."""
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(n for n in range(token.start[0], token.end[0] + 1) if n not in skip)
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "cdposet"
    counts = {path.name: code_lines(path.read_text(encoding="utf-8")) for path in sorted(root.glob("*.py"))}
    counts["total"] = sum(counts.values())
    print(json.dumps(counts))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
