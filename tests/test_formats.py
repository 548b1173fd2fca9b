"""The one line reader behind the poset, certificate and pairs formats.

Comment lines, trailing comments and blank lines inserted anywhere change
nothing that is parsed, and an error names the line of the file as written.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdposet import zoo
from cdposet.cli import _parse_pairs
from cdposet.partition import (
    CertificateParseError,
    format_certificate,
    parse_certificate,
    search_s_certificate,
    search_se_certificate,
)
from cdposet.poset import PosetParseError, format_poset, parse_poset, read_lines

# whole lines that hold no content; odd indentation is allowed before a comment
NOISE_LINES = st.sampled_from(["", "   ", "\t", "#", "# comment", "     # odd indent", "#pair x y", " \t # tab"])
TRAILING = st.sampled_from(["", "  ", " # trailing comment", "#x", "\t#"])


@st.composite
def noisy(draw, text: str) -> tuple[str, list[int]]:
    """``text`` with noise lines inserted and trailing comments appended, and the
    line number at which each original line now stands."""
    out: list[str] = []
    where: list[int] = []
    for line in text.splitlines():
        out.extend(draw(st.lists(NOISE_LINES, max_size=2)))
        where.append(len(out) + 1)
        out.append(line + draw(TRAILING))
    out.extend(draw(st.lists(NOISE_LINES, max_size=2)))
    return "\n".join(out) + "\n", where


POSETS = [
    zoo.gen("polygon", (4,)),
    zoo.gen("q-polytope"),
    zoo.gen("torus-fig6"),
    zoo.gen("fig13-nonsemi"),
    zoo.gen("product", (3, 3)),
    zoo.gen("point"),
]


@functools.cache
def certificates() -> list:
    """Transcribed S and SE certificates and searched ones with nested sub-certificates."""
    certs = [zoo.fixture_certificate(f) for f in ("q-polytope", "torus-fig6", "torus-fig12")]
    certs.append(search_s_certificate(zoo.gen("cube", (3,))))
    certs.append(search_se_certificate(zoo.gen("product", (3, 4))))
    certs.append(search_s_certificate(zoo.gen("simplex-boundary", (4,))))
    return certs


NAMES = st.text(st.characters(blacklist_categories=("Z", "C"), blacklist_characters="#"), min_size=1, max_size=6)
PAIRS = st.lists(st.tuples(NAMES, NAMES), max_size=6)


def format_pairs(pairs: list[tuple[str, str]]) -> str:
    return "".join(f"pair {r} {f}\n" for r, f in pairs)


class TestReadLines:
    CASES = [
        ("# header comment\n\nposet x  # name\n  class a kind=initial\n\t\n   #\n    members a b#c\n",
         [(3, "poset x  ", ["poset", "x"]), (4, "  class a kind=initial", ["class", "a", "kind=initial"]),
          (7, "    members a b", ["members", "a", "b"])]),
        # a tab-led line keeps its tab and its fields
        ("\tpair a b\n \t  sub\n\t# x\n", [(1, "\tpair a b", ["pair", "a", "b"]), (2, " \t  sub", ["sub"])]),
        # CRLF and a lone CR end lines as LF does
        ("poset x\r\n  rank 1\r\n\r\nelem a 0 # c\relem b 1\r\n",
         [(1, "poset x", ["poset", "x"]), (2, "  rank 1", ["rank", "1"]), (4, "elem a 0 ", ["elem", "a", "0"]),
          (5, "elem b 1", ["elem", "b", "1"])]),
        # lines that hold only a comment count but yield nothing
        ("#\n# poset x\n   # indented\n\t#tab\nposet y\n#", [(5, "poset y", ["poset", "y"])]),
        ("# only comments\n  #\n", []),
        ("", []),
    ]

    def test_fields_indent_and_line_numbers(self):
        for text, expected in self.CASES:
            assert list(read_lines(text)) == expected, text

    def test_no_python_frame_runs_per_line(self):
        assert type(read_lines("poset x # name\n")) is filter
        assert type(read_lines("poset x\n")) is filter


class TestRoundTrip:
    @given(data=st.data(), index=st.integers(0, len(POSETS) - 1))
    @settings(deadline=None, max_examples=60)
    def test_poset(self, data, index):
        p = POSETS[index]
        text, _ = data.draw(noisy(format_poset(p, provenance="a comment line of the format")))
        back = parse_poset(text)
        assert back == p and back.name == p.name

    @given(data=st.data(), seed=st.integers(0, 10_000))
    @settings(deadline=None, max_examples=30)
    def test_random_poset(self, data, seed):
        p = zoo.random_eulerian_small(seed, 4)
        text, _ = data.draw(noisy(format_poset(p)))
        assert parse_poset(text) == p

    @given(data=st.data(), index=st.integers(0, 5))
    @settings(deadline=None, max_examples=40)
    def test_certificate(self, data, index):
        cert = certificates()[index]
        text, _ = data.draw(noisy(format_certificate(cert)))
        assert parse_certificate(text, cert.poset) == cert

    @given(data=st.data(), pairs=PAIRS)
    @settings(deadline=None, max_examples=60)
    def test_pairs(self, data, pairs):
        text, _ = data.draw(noisy(format_pairs(pairs)))
        assert _parse_pairs(text) == pairs


HEAD = "poset x\nrank 1\n"
ELEMS = "elem bot 0\nelem top 1\n"

# (text, line, message): one row or more per ``PosetParseError`` message
PARSE_ERRORS = [
    ("poset\nrank 1\n" + ELEMS, 1, "expected: poset <name>"),
    ("poset x y\nrank 1\n" + ELEMS, 1, "expected: poset <name>"),
    ("poset x\nrank\n" + ELEMS, 2, "expected: rank <integer>"),
    ("poset x\nrank one\n" + ELEMS, 2, "expected: rank <integer>"),
    ("poset x\nrank 1 2\n" + ELEMS, 2, "expected: rank <integer>"),
    ("poset x\nrank +1\n" + ELEMS, 2, "expected: rank <integer>"),
    (HEAD + "elem bot\nelem top 1\n", 3, "expected: elem <id> <rank>"),
    (HEAD + "elem bot 0 1\nelem top 1\n", 3, "expected: elem <id> <rank>"),
    (HEAD + "elem bot zero\nelem top 1\n", 3, "expected: elem <id> <rank>"),
    (HEAD + "elem bot 0\nelem top -\n", 4, "expected: elem <id> <rank>"),
    (HEAD + "elem bot 0\nelem top +1\n", 4, "expected: elem <id> <rank>"),
    (HEAD + "elem bot 0\nelem top 1_0\n", 4, "expected: elem <id> <rank>"),
    (HEAD + "elem bot 0\nelem bot 1\nelem top 1\n", 4, "duplicate element 'bot'"),
    (HEAD + ELEMS + "cover bot\n", 5, "expected: cover <lower> <upper>"),
    (HEAD + ELEMS + "cover bot top top\n", 5, "expected: cover <lower> <upper>"),
    (HEAD + ELEMS + "cover bot a\n", 5, "cover references undeclared element"),
    (HEAD + "cover bot top\n" + ELEMS, 3, "cover references undeclared element"),
    (HEAD + ELEMS + "cover top bot\n", 5, "cover top bot does not go up in rank"),
    (HEAD + ELEMS + "cover bot bot\n", 5, "cover bot bot does not go up in rank"),
    (HEAD + ELEMS + "wat is this\n", 5, "unknown directive 'wat'"),
    ("", 1, "missing poset header"),
    ("rank 1\n" + ELEMS, 1, "missing poset header"),
    (HEAD + "elem top 1\n", 1, "missing elem bot with rank 0"),
    (HEAD + "elem bot 1\nelem top 2\n", 1, "missing elem bot with rank 0"),
    (HEAD + "elem bot 0\n", 1, "missing elem top at the declared rank"),
    ("poset x\nrank 2\n" + ELEMS, 1, "missing elem top at the declared rank"),
    # the first malformed line wins, before the checks at the end of the file
    ("rank 1\nelem bot 0\nbogus\nelem bot 0\n", 3, "unknown directive 'bogus'"),
    (HEAD + "elem bot 0\nelem bot 0\ncover bot top\n", 4, "duplicate element 'bot'"),
]

# rank fields that pass a sign-stripped ``isdigit`` test but are no integer in ASCII digits
RANK_FIELD_ERRORS = [
    ("poset x\nrank --1\n" + ELEMS, 2, "expected: rank <integer>"),
    ("poset x\nrank ²\n" + ELEMS, 2, "expected: rank <integer>"),
    (HEAD + "elem bot 0\nelem top --1\n", 4, "expected: elem <id> <rank>"),
    (HEAD + "elem bot 0\nelem top ²\n", 4, "expected: elem <id> <rank>"),
    (HEAD + "elem bot 0\nelem top ١\n", 4, "expected: elem <id> <rank>"),
]


class TestPosetParseErrors:
    @pytest.mark.parametrize("text,line,message", PARSE_ERRORS + RANK_FIELD_ERRORS)
    def test_message_and_line(self, text, line, message):
        with pytest.raises(PosetParseError) as exc:
            parse_poset(text)
        assert exc.value.line == line and str(exc.value) == f"line {line}: {message}"

    def test_negative_and_signed_zero_ranks_parse(self):
        p = parse_poset("poset x\nrank 1\nelem bot 0\nelem low -2\nelem zero -0\nelem top 1\ncover bot top\n")
        assert p.ranks() == {"bot": 0, "low": -2, "zero": 0, "top": 1}


class TestMalformedLineNumber:
    """A malformed line after inserted comment and blank lines reports its line in the file as written."""

    @given(data=st.data(), index=st.integers(0, len(POSETS) - 1))
    @settings(deadline=None, max_examples=40)
    def test_poset(self, data, index):
        lines = format_poset(POSETS[index]).splitlines()
        bad = data.draw(st.integers(0, len(lines) - 1))
        lines[bad] = "wat is this"
        text, where = data.draw(noisy("\n".join(lines)))
        with pytest.raises(PosetParseError) as exc:
            parse_poset(text)
        assert exc.value.line == where[bad] and str(exc.value) == f"line {where[bad]}: unknown directive 'wat'"

    @given(data=st.data(), index=st.integers(0, 5))
    @settings(deadline=None, max_examples=40)
    def test_certificate_odd_indentation(self, data, index):
        cert = certificates()[index]
        lines = format_certificate(cert).splitlines()
        bad = data.draw(st.integers(1, len(lines) - 1))
        lines[bad] = " " + lines[bad]
        text, where = data.draw(noisy("\n".join(lines)))
        with pytest.raises(CertificateParseError) as exc:
            parse_certificate(text, cert.poset)
        assert exc.value.line == where[bad] and str(exc.value) == f"line {where[bad]}: odd indentation"

    @pytest.mark.parametrize(
        "text, line",
        [
            ("# c\n\nspart\n", 3),
            ("\n  # indented comment\n\nseparti q-polytope\n", 4),
            ("   \n\nspart q-polytope extra\n", 3),
            ("", 1),
            ("# only a comment\n\n", 1),
        ],
    )
    def test_certificate_header(self, text, line):
        """A malformed header names the line it stands on; a text without any line names line 1."""
        with pytest.raises(CertificateParseError) as exc:
            parse_certificate(text, zoo.gen("q-polytope"))
        assert exc.value.line == line and str(exc.value) == f"line {line}: expected header: spart|separt <poset-name>"

    @given(data=st.data(), pairs=PAIRS.filter(bool))
    @settings(deadline=None, max_examples=40)
    def test_pairs(self, data, pairs):
        lines = format_pairs(pairs).splitlines()
        bad = data.draw(st.integers(0, len(lines) - 1))
        lines[bad] = lines[bad].rsplit(" ", 1)[0]
        text, where = data.draw(noisy("\n".join(lines)))
        with pytest.raises(CertificateParseError) as exc:
            _parse_pairs(text)
        assert str(exc.value) == f"line {where[bad]}: expected `pair <restriction> <facet>`"
