"""Noncommutative polynomial arithmetic and the ab/cd substitutions."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdposet.ncpoly import (
    AB,
    CD,
    AlphabetMismatch,
    InhomogeneousInput,
    NcPolynomial,
    NotInImage,
    ab_mask,
    ab_to_cd,
    ab_word,
    ab_words,
    cd_words,
    expand_cd_to_ab,
    format_polynomial,
    multiply_right_letter,
    substitute_a_minus_b,
    substitute_a_plus_b,
    word_degree,
)


def cd(terms):
    return NcPolynomial(CD, terms)


def ab(terms):
    return NcPolynomial(AB, terms)


def cd_polys(max_degree=5, max_coeff=6):
    def build(draw):
        degree = draw(st.integers(min_value=0, max_value=max_degree))
        words = cd_words(degree)
        coeffs = draw(
            st.lists(st.integers(-max_coeff, max_coeff), min_size=len(words), max_size=len(words))
        )
        return cd(dict(zip(words, coeffs)))

    return st.composite(build)()


class TestArithmetic:
    def test_add_disjoint_supports(self):
        assert cd({"cc": 1}) + cd({"d": 2}) == cd({"cc": 1, "d": 2})

    def test_add_cancellation(self):
        assert (cd({"cd": 1}) + cd({"cd": -1})).is_zero()

    def test_add_collects(self):
        assert ab({"a": 1, "b": 1}) + ab({"a": 1, "b": -1}) == ab({"a": 2})

    def test_add_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            cd({"c": 1}) + ab({"a": 1})

    def test_right_letter_square_example(self):
        assert multiply_right_letter(cd({"cc": 1, "d": 2}), "c") == cd({"ccc": 1, "dc": 2})

    def test_right_letter_unit(self):
        assert multiply_right_letter(NcPolynomial.unit(CD), "d") == cd({"d": 1})

    def test_right_letter_word(self):
        assert multiply_right_letter(cd({"cd": 1}), "c") == cd({"cdc": 1})

    def test_right_letter_foreign(self):
        with pytest.raises(AlphabetMismatch):
            multiply_right_letter(cd({"c": 1}), "a")

    @given(p=cd_polys(), q=cd_polys())
    def test_right_letter_distributes(self, p, q):
        assert multiply_right_letter(p + q, "d") == multiply_right_letter(p, "d") + multiply_right_letter(q, "d")

    @given(p=cd_polys())
    def test_degree_additive(self, p):
        if p.is_zero():
            return
        if not p.is_homogeneous():
            return
        assert multiply_right_letter(p, "d").degree() == p.degree() + 2
        assert multiply_right_letter(p, "c").degree() == p.degree() + 1


class TestSubstitutions:
    def test_expand_generators(self):
        assert expand_cd_to_ab(cd({"c": 1})) == ab({"a": 1, "b": 1})
        assert expand_cd_to_ab(cd({"d": 1})) == ab({"ab": 1, "ba": 1})

    def test_expand_c_squared(self):
        assert expand_cd_to_ab(cd({"cc": 1})) == ab({"aa": 1, "ab": 1, "ba": 1, "bb": 1})

    def test_extract_degree_one(self):
        assert ab_to_cd(ab({"a": 1, "b": 1})) == cd({"c": 1})

    def test_extract_square(self):
        assert ab_to_cd(ab({"aa": 1, "ab": 3, "ba": 3, "bb": 1})) == cd({"cc": 1, "d": 2})

    def test_extract_not_in_image(self):
        with pytest.raises(NotInImage):
            ab_to_cd(ab({"a": 1}))

    def test_extract_inhomogeneous(self):
        with pytest.raises(InhomogeneousInput):
            ab_to_cd(ab({"a": 1, "aa": 1}))

    def test_substitute_diamond_chain_polynomial(self):
        assert substitute_a_minus_b(ab({"a": 1, "b": 2})) == ab({"a": 1, "b": 1})

    def test_substitute_fixes_b(self):
        assert substitute_a_minus_b(ab({"b": 1})) == ab({"b": 1})

    def test_substitute_aa(self):
        assert substitute_a_minus_b(ab({"aa": 1})) == ab({"aa": 1, "ab": -1, "ba": -1, "bb": 1})

    @given(p=cd_polys())
    @settings(deadline=None)
    def test_expand_extract_round_trip(self, p):
        assert ab_to_cd(expand_cd_to_ab(p)) == p

    @given(p=cd_polys(max_degree=4))
    @settings(deadline=None)
    def test_substitution_inverse(self, p):
        q = expand_cd_to_ab(p)
        assert substitute_a_plus_b(substitute_a_minus_b(q)) == q


class TestWords:
    def test_fibonacci_dimension(self):
        assert [len(cd_words(d)) for d in range(11)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]

    def test_ab_words_count(self):
        assert len(ab_words(6)) == 64

    def test_degree_counts_d_twice(self):
        assert word_degree("cdc") == 4
        assert word_degree("dd") == 4


class TestTextForm:
    def test_exponent_compression(self):
        assert str(cd({"ccc": 1, "cd": 5, "dc": 5})) == "c^3 + 5cd + 5dc"

    def test_zero_and_unit(self):
        assert str(NcPolynomial.zero(CD)) == "0"
        assert str(NcPolynomial.unit(CD)) == "1"

    def test_negative_coefficients(self):
        assert format_polynomial(ab({"aa": 1, "ab": -1})) == "a^2 - ab"
        assert format_polynomial(ab({"ab": -2})) == "-2ab"

    def test_canonical_order_is_graded_lex(self):
        p = cd({"dc": 1, "cd": 1, "ccc": 1, "c": 4})
        assert [w for w, _ in p.items()] == ["c", "ccc", "cd", "dc"]


# -- reference extraction: the exact linear solve that the first-letter peel replaced


def _bareiss_solve(rows: list[list[int]], ncols: int) -> list[Fraction]:
    """Solve the augmented integer system (last column is the rhs).

    Fraction-free (Bareiss) forward elimination followed by exact rational
    back-substitution.  Raises NotInImage on inconsistency or rank deficiency.
    """
    nrows = len(rows)
    prev = 1
    pivot_rows: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][col]), None)
        if pivot is None:
            raise NotInImage(f"rank-deficient system at column {col}")
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pr = rows[r]
        pc = pr[col]
        for i in range(r + 1, nrows):
            ri = rows[i]
            f = ri[col]
            if f:
                for j in range(col, ncols + 1):
                    ri[j] = (ri[j] * pc - f * pr[j]) // prev
            elif prev != 1:
                for j in range(col, ncols + 1):
                    ri[j] = (ri[j] * pc) // prev
        prev = pc
        pivot_rows.append(r)
        r += 1
    for i in range(r, nrows):
        if rows[i][ncols]:
            raise NotInImage(f"inconsistent system, residual {rows[i][ncols]}")
    sol = [Fraction(0)] * ncols
    for col in reversed(range(ncols)):
        row = rows[pivot_rows[col]]
        acc = Fraction(row[ncols])
        for j in range(col + 1, ncols):
            acc -= row[j] * sol[j]
        sol[col] = acc / row[col]
    return sol


def reference_ab_to_cd(p: NcPolynomial) -> NcPolynomial:
    """Solve for the cd-coefficients over the basis of all cd-words, then expand back."""
    if p.is_zero():
        return NcPolynomial.zero(CD)
    degree = p.degree()
    basis = cd_words(degree)
    col_index = {w: i for i, w in enumerate(ab_words(degree))}
    nvars = len(basis)
    rows = [[0] * (nvars + 1) for _ in col_index]
    for k, word in enumerate(basis):
        for u, c in expand_cd_to_ab(cd({word: 1})).items():
            rows[col_index[u]][k] = c
    for u, c in p.items():
        rows[col_index[u]][nvars] = c
    coeffs: dict[str, int] = {}
    for word, value in zip(basis, _bareiss_solve(rows, nvars)):
        if value.denominator != 1:
            raise NotInImage(f"non-integer coefficient {value} at word {word!r}")
        if value:
            coeffs[word] = int(value)
    result = cd(coeffs)
    if expand_cd_to_ab(result) != p:
        raise NotInImage("round-trip verification failed")
    return result


def _outcome(extract, p):
    try:
        return extract(p)
    except NotInImage:
        return NotInImage


@st.composite
def _images_and_near_misses(draw, max_degree=7):
    """expand(random cd), optionally with one ab-coefficient moved by +-1."""
    degree = draw(st.integers(min_value=0, max_value=max_degree))
    words = cd_words(degree)
    coeffs = draw(st.lists(st.integers(-6, 6), min_size=len(words), max_size=len(words)))
    terms = expand_cd_to_ab(cd(dict(zip(words, coeffs)))).to_dict()
    if draw(st.booleans()):
        word = draw(st.sampled_from(ab_words(degree)))
        terms[word] = terms.get(word, 0) + draw(st.sampled_from((1, -1)))
    return ab(terms)


class TestPeelAgainstLinearSolve:
    @given(p=_images_and_near_misses())
    @settings(deadline=None, max_examples=150)
    def test_same_polynomial_or_both_not_in_image(self, p):
        assert _outcome(ab_to_cd, p) == _outcome(reference_ab_to_cd, p)

    def test_every_single_word_of_degree_four(self):
        for word in ab_words(4):
            for coeff in (1, -1):
                q = ab({word: coeff})
                assert _outcome(ab_to_cd, q) is NotInImage is _outcome(reference_ab_to_cd, q)

    def test_peel_is_exact_on_a_large_image(self):
        p = cd({w: (i % 7) - 3 for i, w in enumerate(cd_words(11))})
        assert ab_to_cd(expand_cd_to_ab(p)) == p

    def test_word_masks(self):
        assert ab_mask("abb") == 0b110 and ab_word(0b110, 3) == "abb"
        assert ab_mask("") == 0 and ab_word(0, 0) == ""
        assert all(ab_word(ab_mask(w), 5) == w for w in ab_words(5))
