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
    def test_fields_indent_and_line_numbers(self):
        text = "# header comment\n\nposet x  # name\n  class a kind=initial\n\t\n   #\n    members a b#c\n"
        assert list(read_lines(text)) == [
            (3, 0, ["poset", "x"]),
            (4, 2, ["class", "a", "kind=initial"]),
            (7, 4, ["members", "a", "b"]),
        ]


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
