"""README stays in step with the CLI: its command block shows every verb and parses, and it lists every gen family."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from cdposet import zoo
from cdposet.cli import VERBS, build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def command_lines() -> list[list[str]]:
    """The ``cdposet ...`` lines of the README's command-line block, comments dropped."""
    block = README.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("cdposet ")]


def test_every_command_line_parses_and_every_verb_is_shown():
    lines = command_lines()
    assert lines
    verbs = {build_parser().parse_args(argv[1:]).verb for argv in lines}
    assert verbs == set(VERBS)


def test_gen_families_listed():
    listed = re.search(r"Available `gen` families: (.*?)\.\n", README, re.S).group(1)
    assert re.findall(r"`([^`]+)`", listed) == zoo.families()
