"""Exact noncommutative polynomial arithmetic over the integers in two letters.

Two alphabets are supported: ``ab`` (letters ``a``, ``b``, both of degree 1)
and ``cd`` (letter ``c`` of degree 1, letter ``d`` of degree 2).  Words are
plain strings over one alphabet; the empty word is the multiplicative unit of
both alphabets.  Coefficients are arbitrary-precision Python integers, so
nothing ever overflows silently.

The module also houses the two substitution homomorphisms relating the
alphabets (``c -> a+b``, ``d -> ab+ba`` and ``a -> a-b``) and the inverse
extraction ``ab_to_cd``.  That one holds a homogeneous ab-polynomial as a
list of coefficients indexed by bitmask and peels off the first letter
(Psi = c*P + d*Q, the Bayer-Klapper change of basis), in O(2^degree)
integer steps.  ``flags.cd_index`` already holds such a list and enters the
peel directly through ``_cd_from_masks``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from itertools import groupby, product

AB = "ab"
CD = "cd"

_FOREIGN = {alphabet: str.maketrans("", "", alphabet) for alphabet in (AB, CD)}  # deletes the letters


class AlphabetMismatch(ValueError):
    """Operands live in different alphabets (or a letter is foreign)."""


class InhomogeneousInput(ValueError):
    """An operation required a homogeneous polynomial."""


class NotInImage(ValueError):
    """An ab-polynomial has no cd-expression (inconsistent or non-integral solve)."""


def word_degree(word: str) -> int:
    """Degree of a word: a, b, c count 1 and d counts 2."""
    return len(word) + word.count("d")


def canonical_key(word: str) -> tuple[int, str]:
    """Sort key realizing graded-then-lexicographic order with a<b, c<d."""
    return (word_degree(word), word)


def _check_word(word: str, alphabet: str) -> None:
    foreign = word.translate(_FOREIGN[alphabet])
    if foreign:
        raise AlphabetMismatch(f"letter {foreign[0]!r} is not in alphabet {alphabet!r}")


class NcPolynomial:
    """Immutable noncommutative polynomial with exact integer coefficients.

    ``terms`` maps words to nonzero coefficients; zero terms are dropped on
    construction.  All operations return fresh values, safe for concurrent use.
    """

    __slots__ = ("alphabet", "_terms")

    def __init__(self, alphabet: str, terms: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        if alphabet not in (AB, CD):
            raise AlphabetMismatch(f"unknown alphabet {alphabet!r}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[str, int] = {}
        for word, coeff in items:
            _check_word(word, alphabet)
            if coeff:
                clean[word] = clean.get(word, 0) + coeff
                if not clean[word]:
                    del clean[word]
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("NcPolynomial is immutable")

    def __reduce__(self):
        """Pickle and copy through the checked constructor: the slot state cannot be set back past the guard."""
        return NcPolynomial, (self.alphabet, self._terms)

    @classmethod
    def _of(cls, alphabet: str, terms: dict[str, int]) -> "NcPolynomial":
        """The polynomial with these terms, which must be clean: words of the alphabet, nonzero coefficients."""
        out = cls.__new__(cls)
        object.__setattr__(out, "alphabet", alphabet)
        object.__setattr__(out, "_terms", terms)
        return out

    @classmethod
    def zero(cls, alphabet: str) -> "NcPolynomial":
        return cls(alphabet)

    @classmethod
    def unit(cls, alphabet: str) -> "NcPolynomial":
        return cls(alphabet, {"": 1})

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, word: str) -> int:
        return self._terms.get(word, 0)

    def words(self) -> list[str]:
        return sorted(self._terms, key=canonical_key)

    def items(self) -> list[tuple[str, int]]:
        """Terms in canonical word order."""
        return [(w, self._terms[w]) for w in self.words()]

    def to_dict(self) -> dict[str, int]:
        return dict(self._terms)

    def degrees(self) -> set[int]:
        return {word_degree(w) for w in self._terms}

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degree(self) -> int | None:
        """Common degree of all terms (None for the zero polynomial)."""
        degs = self.degrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise InhomogeneousInput(f"mixed degrees {sorted(degs)}")
        return degs.pop()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "NcPolynomial") -> "NcPolynomial":
        if self.alphabet != other.alphabet:
            raise AlphabetMismatch(f"{self.alphabet} + {other.alphabet}")
        terms = dict(self._terms)
        for w, c in other._terms.items():
            c += terms.get(w, 0)
            if c:
                terms[w] = c
            else:
                del terms[w]
        return NcPolynomial._of(self.alphabet, terms)

    def __neg__(self) -> "NcPolynomial":
        return NcPolynomial(self.alphabet, {w: -c for w, c in self._terms.items()})

    def __sub__(self, other: "NcPolynomial") -> "NcPolynomial":
        return self + (-other)

    def __rmul__(self, scalar: int) -> "NcPolynomial":
        if not isinstance(scalar, int):
            return NotImplemented
        return NcPolynomial(self.alphabet, {w: scalar * c for w, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return other * self
        if not isinstance(other, NcPolynomial):
            return NotImplemented
        if self.alphabet != other.alphabet:
            raise AlphabetMismatch(f"{self.alphabet} * {other.alphabet}")
        terms: dict[str, int] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = w1 + w2
                terms[w] = terms.get(w, 0) + c1 * c2
        return NcPolynomial(self.alphabet, terms)

    def times_letter(self, letter: str) -> "NcPolynomial":
        """Right-multiply every word by a single letter."""
        _check_word(letter, self.alphabet)
        if len(letter) != 1:
            raise ValueError("expected a single letter")
        return NcPolynomial._of(self.alphabet, {w + letter: c for w, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NcPolynomial)
            and self.alphabet == other.alphabet
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, frozenset(self._terms.items())))

    # -- text form ------------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"NcPolynomial({self.alphabet!r}, {self!s})"


def _compress_word(word: str) -> str:
    """Exponent-compress maximal runs of a repeated letter (c^3 for ccc)."""
    runs = ((letter, len(list(run))) for letter, run in groupby(word))
    return "".join(letter if n == 1 else f"{letter}^{n}" for letter, n in runs) or "1"


def format_polynomial(p: NcPolynomial) -> str:
    """Canonical text form: terms in graded-lex order joined by ' + '/' - '."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for word, coeff in p.items():
        mag = abs(coeff)
        body = _compress_word(word)
        if word and mag == 1:
            text = body
        elif not word:
            text = str(mag)
        else:
            text = f"{mag}{body}"
        if not parts:
            parts.append(text if coeff > 0 else f"-{text}")
        else:
            parts.append(f"{' + ' if coeff > 0 else ' - '}{text}")
    return "".join(parts)


# -- word enumeration ----------------------------------------------------------


def cd_words(degree: int) -> list[str]:
    """All cd-words of the given degree, in lexicographic order.

    The count is the Fibonacci number F(degree+1) with F1 = F2 = 1.
    """
    if degree < 0:
        return []
    if degree == 0:
        return [""]
    if degree == 1:
        return ["c"]
    return ["c" + w for w in cd_words(degree - 1)] + ["d" + w for w in cd_words(degree - 2)]


# -- substitution homomorphisms -----------------------------------------------

_CD_IMAGE = {"c": ("a", "b"), "d": ("ab", "ba")}  # every image word has coefficient 1


def expand_cd_to_ab(p: NcPolynomial) -> NcPolynomial:
    """Apply the graded substitution c -> a+b, d -> ab+ba multiplicatively.

    The images of distinct cd-words are collected in one dict, so the work is
    linear in the number of ab-terms written.
    """
    if p.alphabet != CD:
        raise AlphabetMismatch("expand_cd_to_ab expects a cd-polynomial")
    out: dict[str, int] = {}
    for word, coeff in p._terms.items():
        for parts in product(*(_CD_IMAGE[x] for x in word)):
            w = "".join(parts)
            out[w] = out.get(w, 0) + coeff
    return NcPolynomial(AB, out)


def _substitute_a(p: NcPolynomial, sign: int) -> NcPolynomial:
    """Replace a -> a + sign*b (b fixed), one letter position at a time, in one dict."""
    if p.alphabet != AB:
        raise AlphabetMismatch("substitution expects an ab-polynomial")
    out = dict(p._terms)
    for i in range(max(map(len, out), default=0)):
        for word, coeff in list(out.items()):
            if word[i : i + 1] == "a":
                w = word[:i] + "b" + word[i + 1 :]
                out[w] = out.get(w, 0) + sign * coeff
    return NcPolynomial(AB, out)


def substitute_a_minus_b(p: NcPolynomial) -> NcPolynomial:
    """Replace a -> a-b (b fixed), expand and collect.

    Sends the chain polynomial of a poset to its ab-polynomial.
    """
    return _substitute_a(p, -1)


def substitute_a_plus_b(p: NcPolynomial) -> NcPolynomial:
    """Inverse substitution a -> a+b; exact inverse of substitute_a_minus_b."""
    return _substitute_a(p, 1)


# -- cd extraction by first-letter peel ------------------------------------------
#
# A homogeneous ab-polynomial of degree n is held as a list of 2^n
# coefficients indexed by bitmask: bit i stands for letter i of the word
# (bit 0 is the first letter) and is set for b.

_AB_BITS = str.maketrans("ab", "01")
_BITS_AB = str.maketrans("01", "ab")


def ab_mask(word: str) -> int:
    """Bitmask of an ab-word: bit i is set when letter i is b."""
    return int(word[::-1].translate(_AB_BITS) or "0", 2)


def ab_word(mask: int, degree: int) -> str:
    """The ab-word of the given degree whose bitmask is mask."""
    return format(mask, f"0{degree}b")[::-1].translate(_BITS_AB) if degree else ""


def _peel(psi: list[int], prefix: str, out: dict[str, int]) -> None:
    """Add prefix*w to out for every cd-term w of the mask-indexed psi.

    Writes psi = a*X + b*Y.  It equals c*P + d*Q exactly when
    X - Y = (b - a)*Q, and then P = X - b*Q; P and Q are peeled in turn.
    """
    if not any(psi):
        return
    if len(psi) == 1:
        out[prefix] = psi[0]
        return
    x, y = psi[0::2], psi[1::2]
    z = [u - v for u, v in zip(x, y)]
    q = z[1::2]  # the b-half of (b - a)*Q is Q, its a-half must be -Q
    residual = z if len(z) == 1 else [u + v for u, v in zip(z[0::2], q)]
    if any(residual):
        raise NotInImage(f"nonzero residual after cd-prefix {prefix!r}")
    x[1::2] = [u - v for u, v in zip(x[1::2], q)]
    _peel(x, prefix + "c", out)
    _peel(q, prefix + "d", out)


def _cd_from_masks(psi: list[int]) -> NcPolynomial:
    """The cd-polynomial whose expansion has coefficient psi[mask] on each ab-word.

    psi is mask-indexed with 2^degree entries; raises NotInImage at the first
    nonzero residual.  ``ab_to_cd`` and ``flags.cd_index`` both end here.
    """
    out: dict[str, int] = {}
    _peel(psi, "", out)
    return NcPolynomial(CD, out)


def ab_to_cd(p: NcPolynomial) -> NcPolynomial:
    """Invert the cd expansion on its image by peeling off the first cd-letter.

    Every coefficient stays an integer and every residual is checked, so the
    result expands back to p; the work is O(2^degree).  Raises NotInImage at
    the first nonzero residual and InhomogeneousInput when the input mixes
    degrees.
    """
    if p.alphabet != AB:
        raise AlphabetMismatch("ab_to_cd expects an ab-polynomial")
    if p.is_zero():
        return NcPolynomial.zero(CD)
    psi = [0] * (1 << p.degree())
    for word, coeff in p._terms.items():
        psi[ab_mask(word)] = coeff
    return _cd_from_masks(psi)
