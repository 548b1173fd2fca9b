"""README stays in step with the CLI: its command block shows every verb and runs as written, and it lists every gen family."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from cdposet import zoo
from cdposet.cli import VERBS, build_parser, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# the comments of the command block that show a command's first line of output
OUTPUT_COMMENTS = ("c^3 + 5cd + 5dc", "OK", "c^3 + 13cd + 7dc", "semi-eulerian")


def command_lines() -> list[tuple[list[str], str]]:
    """(argv, comment) of each ``cdposet ...`` line of the README's command-line block."""
    block = README.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.partition("#") for line in block.splitlines() if line.startswith("cdposet ")]
    return [(shlex.split(command), comment.strip()) for command, _, comment in lines]


def test_every_command_line_parses_and_every_verb_is_shown():
    lines = command_lines()
    assert lines
    verbs = {build_parser().parse_args(argv[1:]).verb for argv, _ in lines}
    assert verbs == set(VERBS)


def test_command_block_runs_as_written(tmp_path, monkeypatch, capsys):
    """Each line exits 0, or 1 where its comment says so; an output comment is the first line printed."""
    pairs = README.split("A pairs file", 1)[1].split("```\n", 2)[1]
    (tmp_path / "pairs.txt").write_text(pairs, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    shown = []
    for argv, comment in command_lines():
        code = main(argv[1:])
        out = capsys.readouterr().out
        assert code == (1 if "exit 1" in comment else 0), argv
        output = comment.split(" (", 1)[0]
        if output in OUTPUT_COMMENTS:
            assert out.splitlines()[0] == output, argv
            shown.append(output)
    assert set(shown) == set(OUTPUT_COMMENTS)


def test_gen_families_listed():
    listed = re.search(r"Available `gen` families: (.*?)\.\n", README, re.S).group(1)
    assert re.findall(r"`([^`]+)`", listed) == zoo.families()
