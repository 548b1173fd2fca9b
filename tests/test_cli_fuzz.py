"""Malformed-input fuzz of every CLI verb.

Each example runs one verb of ``cli.VERBS`` in process on mutated poset,
certificate and pairs files, with a small ``--budget``. Whatever the input,
no exception escapes ``main``, the exit code is 0, 1 or 2, ``--json`` prints
one JSON report, and in text mode exit 2 prints nothing on stdout.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdposet import zoo
from cdposet.cli import VERBS, main
from cdposet.partition import format_certificate
from cdposet.poset import format_poset

# (poset, its certificate): the valid files that the mutations start from
SEEDS = [
    (zoo.gen("q-polytope"), zoo.fixture_certificate("q-polytope")),
    (zoo.gen("torus-fig6"), zoo.fixture_certificate("torus-fig6")),
    (zoo.gen("simplex-boundary", (3,)), None),
    (zoo.gen("polygon", (4,)), None),
]
SIMPLEX = SEEDS[2][0]
PAIRS = "".join(f"pair {r} {f}\n" for r, f in zoo.shelling_restrictions(SIMPLEX, sorted(SIMPLEX.coatoms())))
TOKENS = [
    "", "bot", "top", "0", "1", "-1", "--1", "²", "99", "x", "s1", "abc", "kind=initial", "kind=bogus", "#",
    "poset", "rank", "elem", "cover", "spart", "separt", "class", "members", "sub", "subclass", "pair",
]


@st.composite
def mutated(draw, text: str) -> str | bytes:
    """``text`` after up to three line edits; sometimes cut short or not UTF-8."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        edit = draw(st.sampled_from(["drop", "duplicate", "swap", "token", "indent", "insert"]))
        if not lines:
            lines = [draw(st.text(max_size=20))]
        elif edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "token":
            fields = lines[i].split(" ")
            k = draw(st.integers(0, len(fields) - 1))
            fields[k] = draw(st.sampled_from(TOKENS) | st.text(max_size=8))
            lines[i] = " ".join(fields)
        elif edit == "indent":
            lines[i] = " " * draw(st.integers(0, 5)) + lines[i].lstrip(" ")
        else:
            lines.insert(i, draw(st.text(max_size=20)))
    out = "\n".join(lines) + "\n"
    ending = draw(st.sampled_from(["whole"] * 8 + ["cut", "latin-1"]))
    if ending == "cut":
        return out[: draw(st.integers(0, len(out)))]
    if ending == "latin-1":
        return out.encode("utf-8") + b"\xe9\n"
    return out


def write(path, content: str | bytes) -> str:
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    return str(path)


@st.composite
def invocations(draw, workdir) -> list[str]:
    """An argv for one verb of the table, its files written to ``workdir``."""
    verb = draw(st.sampled_from(sorted(VERBS)))
    poset, cert = draw(st.sampled_from(SEEDS))
    cert = cert or draw(st.sampled_from([c for _, c in SEEDS if c]))
    argv = ["--json"] if draw(st.booleans()) else []
    argv.append(verb)
    for names, _ in VERBS[verb][2]:
        name = names[0]
        if name == "poset":
            argv.append(write(workdir / "in.poset", draw(mutated(format_poset(poset)))))
        elif name == "certificate":
            argv.append(write(workdir / "in.cert", draw(mutated(format_certificate(cert)))))
        elif name == "family":
            argv.append(draw(st.sampled_from(zoo.families() + ["nosuch"])))
        elif name == "params":
            argv.extend(str(n) for n in draw(st.lists(st.integers(-1, 3), max_size=3)))
        elif name == "--budget":
            argv += ["--budget", str(draw(st.integers(-1, 40)))]
        elif name == "--order":
            facets = st.sampled_from(sorted(poset.coatoms()) + TOKENS)
            argv += ["--order", ",".join(draw(st.lists(facets, max_size=8)))]
        elif name == "--pairs":
            argv += ["--pairs", write(workdir / "in.pairs", draw(mutated(PAIRS)))]
        elif name in ("--out", "--emit-cert"):
            if draw(st.booleans()):
                argv += [name, str(workdir / f"out{name}")]
        else:
            raise AssertionError(f"no strategy for argument {name} of {verb}")
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(data=st.data())
@settings(deadline=None, max_examples=150)
def test_no_verb_escapes_main(workdir, data):
    argv = data.draw(invocations(workdir))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejections exit 2
            code = exc.code
    assert code in (0, 1, 2), (code, err.getvalue())
    if argv[0] == "--json":
        json.loads(out.getvalue())
    elif code == 2:
        assert out.getvalue() == ""
