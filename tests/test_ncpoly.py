"""Noncommutative polynomial arithmetic and the ab/cd substitutions."""

from __future__ import annotations

import copy
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdposet import zoo
from cdposet.flags import cd_index
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
    cd_words,
    expand_cd_to_ab,
    format_polynomial,
    substitute_a_minus_b,
    substitute_a_plus_b,
    word_degree,
)


def ab_words(degree):
    """All 2^degree ab-words of the given degree, in lexicographic order."""
    return ["".join(w) for w in itertools.product("ab", repeat=degree)]


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


class TestResultsFromCheckedTerms:
    """``+``, ``sum`` and ``times_letter`` skip the word check on terms built from checked words;
    their results equal the same terms passed through the checked constructor."""

    @given(p=cd_polys(), q=cd_polys(), r=cd_polys())
    def test_sums(self, p, q, r):
        assert p + q == cd([*p.items(), *q.items()])
        assert sum([p, q, r], NcPolynomial.zero(CD)) == cd([*p.items(), *q.items(), *r.items()])
        assert p + (q - p) == q  # every word of p cancels
        for total in (p + q, p + (q - p), p + (-p)):
            assert 0 not in total.to_dict().values()
        assert (p + (-p)).to_dict() == {}

    @given(p=cd_polys(), letter=st.sampled_from(CD))
    def test_times_letter(self, p, letter):
        product = p.times_letter(letter)
        assert product == cd({word + letter: coeff for word, coeff in p.items()})
        assert 0 not in product.to_dict().values() and len(product.to_dict()) == len(p.to_dict())

    def test_foreign_letters_still_raise(self):
        with pytest.raises(AlphabetMismatch):
            cd({"cx": 1})
        with pytest.raises(AlphabetMismatch):
            cd({"c": 1}).times_letter("x")
        with pytest.raises(AlphabetMismatch):
            cd({"c": 1}) + ab({"a": 1})


class TestPickleAndCopy:
    """A polynomial round-trips through pickle and copy by its checked constructor, and stays immutable."""

    @given(p=cd_polys())
    def test_round_trips(self, p):
        for back in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
            assert back == p and back.alphabet == p.alphabet and back.items() == p.items()
            with pytest.raises(AttributeError, match="NcPolynomial is immutable"):
                back.alphabet = AB

    def test_the_cd_index_of_the_cube(self):
        phi = cd_index(zoo.gen("cube", (3,)))
        assert pickle.loads(pickle.dumps(phi)) == phi == copy.deepcopy(phi)
        assert ab({"ab": 2, "ba": -1}) == pickle.loads(pickle.dumps(ab({"ab": 2, "ba": -1})))


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
        assert cd({"cc": 1, "d": 2}).times_letter("c") == cd({"ccc": 1, "dc": 2})

    def test_right_letter_unit(self):
        assert NcPolynomial.unit(CD).times_letter("d") == cd({"d": 1})

    def test_right_letter_word(self):
        assert cd({"cd": 1}).times_letter("c") == cd({"cdc": 1})

    def test_right_letter_foreign(self):
        with pytest.raises(AlphabetMismatch):
            cd({"c": 1}).times_letter("a")

    @given(p=cd_polys(), q=cd_polys())
    def test_right_letter_distributes(self, p, q):
        assert (p + q).times_letter("d") == p.times_letter("d") + q.times_letter("d")

    @given(p=cd_polys())
    def test_degree_additive(self, p):
        if p.is_zero():
            return
        if not p.is_homogeneous():
            return
        assert p.times_letter("d").degree() == p.degree() + 2
        assert p.times_letter("c").degree() == p.degree() + 1


class TestProducts:
    """``*`` with a polynomial or an int scalar, ``coeff``, ``__hash__`` and ``__repr__``."""

    @settings(max_examples=50)
    @given(p=cd_polys(max_degree=3), q=cd_polys(max_degree=3))
    def test_expansion_is_multiplicative(self, p, q):
        assert expand_cd_to_ab(p * q) == expand_cd_to_ab(p) * expand_cd_to_ab(q)

    def test_word_concatenation(self):
        assert cd({"c": 1, "d": 2}) * cd({"c": 3}) == cd({"cc": 3, "dc": 6})
        assert cd({"c": 1}) * NcPolynomial.unit(CD) == cd({"c": 1})
        assert (cd({"c": 1}) * NcPolynomial.zero(CD)).is_zero()

    @given(p=cd_polys(), k=st.integers(-5, 5))
    def test_int_scalars_on_both_sides(self, p, k):
        scaled = cd({word: k * coeff for word, coeff in p.items()})
        assert k * p == p * k == scaled
        assert (0 * p).is_zero() and 1 * p == p

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch, match="cd \\* ab"):
            cd({"c": 1}) * ab({"a": 1})

    @pytest.mark.parametrize("product", [lambda p: p * "c", lambda p: "c" * p, lambda p: p * 1.0])
    def test_other_operands(self, product):
        with pytest.raises(TypeError):
            product(cd({"c": 1}))

    def test_coeff(self):
        p = cd({"cc": 1, "d": -2})
        assert (p.coeff("cc"), p.coeff("d"), p.coeff("dc"), p.coeff("")) == (1, -2, 0, 0)
        assert NcPolynomial.unit(CD).coeff("") == 1

    def test_equal_polynomials_built_in_another_order_hash_alike(self):
        p, q = cd([("cc", 1), ("d", 2), ("cd", -1)]), cd([("cd", -1), ("d", 2), ("cc", 1)])
        assert p == q and hash(p) == hash(q) and len({p, q}) == 1

    def test_repr(self):
        assert repr(cd({"cc": 1, "d": 2})) == "NcPolynomial('cd', c^2 + 2d)"
        assert repr(ab({"ab": -1})) == "NcPolynomial('ab', -ab)"
        assert repr(NcPolynomial.zero(CD)) == "NcPolynomial('cd', 0)"


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
