"""Chain enumeration, flag f/h-vectors, Dehn-Sommerville checks and cd-indices.

Rank sets are subsets of [d] for a poset of rank d+1 and are carried as
bitmasks internally (bit i-1 stands for rank i, which is also letter i of the
ab-word); the public dataclasses key their counts by frozenset for
readability.  Chains are extended one rank at a time over the poset's
down-closure bitsets, so each rank set costs one pass over the comparable
pairs of two rank levels; the counts are memoized on the poset.  The f <-> h
transforms are subset zeta/Möbius transforms over mask-indexed lists,
O(d 2^d).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

from .ncpoly import AB, NcPolynomial, NotInImage, ab_to_cd, ab_word
from .poset import GradedPoset, _bits, is_semi_eulerian, memoized


@dataclass(frozen=True)
class FlagVector:
    """Chain counts f_K by rank set K, including f_emptyset = 1."""

    d: int
    counts: dict[frozenset[int], int]

    def get(self, ranks) -> int:
        return self.counts[frozenset(ranks)]


@dataclass(frozen=True)
class FlagHVector:
    """Alternating-sum transform h_K of a flag vector."""

    d: int
    counts: dict[frozenset[int], int]

    def get(self, ranks) -> int:
        return self.counts[frozenset(ranks)]


@dataclass(frozen=True)
class ModifiedFlagVector:
    """Flag vector with the top-rank count shifted by chi(sphere) - chi(poset)."""

    base: FlagVector
    correction: int

    @property
    def d(self) -> int:
        return self.base.d

    @cached_property
    def counts(self) -> dict[frozenset[int], int]:
        out = dict(self.base.counts)
        if self.d >= 1:
            out[frozenset({self.d})] += self.correction
        return out

    def get(self, ranks) -> int:
        return self.counts[frozenset(ranks)]


@dataclass(frozen=True)
class DsViolation:
    """One failed generalized Dehn-Sommerville equation."""

    K: frozenset[int]
    i: int
    k: int
    lhs: int
    rhs: int

    def __str__(self) -> str:
        ks = "{" + ",".join(str(j) for j in sorted(self.K)) + "}"
        return f"K={ks} i={self.i} k={self.k}: {self.lhs} != {self.rhs}"


def _rank_sets(d: int) -> list[frozenset[int]]:
    """The rank set of every mask below 2^d, indexed by mask."""
    sets = [frozenset()]
    for mask in range(1, 1 << d):
        low = mask & -mask
        sets.append(sets[mask ^ low] | {low.bit_length()})
    return sets


def _set_to_mask(K) -> int:
    return sum(1 << (i - 1) for i in K)


def _subset_transform(f: FlagVector | ModifiedFlagVector | FlagHVector, sign: int) -> list[int]:
    """Mask-indexed sum over T in K of sign^{|K - T|} counts[T], one rank at a time."""
    values = [0] * (1 << f.d)
    for K, c in f.counts.items():
        values[_set_to_mask(K)] = c
    for _ in range(f.d):  # transform along bit 0, then rotate it to the top
        low = values[0::2]
        values = low + [u + sign * v for u, v in zip(values[1::2], low)]
    return values


@memoized
def _flag_masks(p: GradedPoset) -> tuple[int, ...]:
    """Chain counts indexed by rank-set bitmask.

    Extends chains upward one rank at a time: the count vector of a rank set
    holds, per element of its highest rank, the chains with that rank set
    ending there.  Rank sets are visited depth first, so only the vectors on
    the current path are alive.
    """
    d = p.rank_top - 1
    levels = [p._levels.get(r, 0) for r in range(1, d + 1)]
    first = [(level & -level).bit_length() - 1 for level in levels]
    # below[a][b][k]: positions within level a of the elements under the k-th element of level b
    below = [
        [
            [[i - first[a] for i in _bits(p._downset[z] & levels[a])] for z in _bits(levels[b])] if a < b else []
            for b in range(d)
        ]
        for a in range(d)
    ]
    counts = [0] * (1 << d)
    counts[0] = 1
    stack = [(1 << a, a, [1] * levels[a].bit_count()) for a in range(d)]
    while stack:
        mask, a, ends = stack.pop()
        counts[mask] = sum(ends)
        if counts[mask]:
            for b in range(a + 1, d):
                stack.append((mask | 1 << b, b, [sum([ends[k] for k in ks]) for ks in below[a][b]]))
    return tuple(counts)


def flag_f(p: GradedPoset) -> FlagVector:
    """Flag f-vector: number of chains with each rank set K in [d]."""
    d = p.rank_top - 1
    return FlagVector(d, dict(zip(_rank_sets(d), _flag_masks(p))))


def flag_h(f: FlagVector | ModifiedFlagVector) -> FlagHVector:
    """h_K = sum over T in K of (-1)^{|K - T|} f_T (subset Möbius transform)."""
    return FlagHVector(f.d, dict(zip(_rank_sets(f.d), _subset_transform(f, -1))))


def flag_f_from_h(h: FlagHVector) -> FlagVector:
    """Inverse transform f_K = sum over T in K of h_T (subset zeta transform)."""
    return FlagVector(h.d, dict(zip(_rank_sets(h.d), _subset_transform(h, 1))))


def ab_polynomial(h: FlagHVector) -> NcPolynomial:
    """The ab-polynomial: sum of h_K u_K with u_i = b exactly when i is in K."""
    return NcPolynomial(AB, {ab_word(_set_to_mask(K), h.d): c for K, c in h.counts.items()})


def chain_polynomial(f: FlagVector | ModifiedFlagVector) -> NcPolynomial:
    """The chain polynomial: sum of f_K u_K; relates to the ab-polynomial by a -> a-b."""
    d = f.d
    return NcPolynomial(AB, {ab_word(_set_to_mask(K), d): c for K, c in f.counts.items()})


def euler_characteristic(p: GradedPoset) -> int:
    """Alternating sum of the rank counts over ranks 1..d."""
    d = p.rank_top - 1
    return sum((-1) ** (i - 1) * len(p.elements_of_rank(i)) for i in range(1, d + 1))


def sphere_euler_characteristic(dim: int) -> int:
    """chi of the dim-dimensional sphere: 1 + (-1)^dim."""
    return 1 + (-1) ** dim


def check_dehn_sommerville(f: FlagVector | ModifiedFlagVector) -> list[DsViolation]:
    """Violated generalized Dehn-Sommerville equations, empty iff all hold.

    For each K in [d] and each pair i < k consecutive in K + {0, d+1} with
    k - i >= 2:  sum_{j=i+1}^{k-1} (-1)^{j-i-1} f_{K+j} = (1 - (-1)^{k-i-1}) f_K.
    """
    d = f.d
    counts = f.counts
    out: list[DsViolation] = []
    for K in sorted(counts, key=lambda s: (len(s), sorted(s))):
        anchors = sorted(K | {0, d + 1})
        for i, k in zip(anchors, anchors[1:]):
            if k - i < 2:
                continue
            lhs = sum((-1) ** (j - i - 1) * counts[K | {j}] for j in range(i + 1, k))
            rhs = (1 - (-1) ** (k - i - 1)) * counts[K]
            if lhs != rhs:
                out.append(DsViolation(K, i, k, lhs, rhs))
    return out


def _extract_cd(f: FlagVector | ModifiedFlagVector) -> NcPolynomial:
    try:
        return ab_to_cd(ab_polynomial(flag_h(f)))
    except NotInImage as exc:
        ds = check_dehn_sommerville(f)
        if ds:
            raise NotInImage(f"first failing Dehn-Sommerville equation: {ds[0]}") from exc
        raise


def cd_index(p: GradedPoset) -> NcPolynomial:
    """The cd-index via flag_f -> flag_h -> ab-polynomial -> exact extraction.

    Raises NotInImage (with the first failing Dehn-Sommerville triple when one
    exists) if the flag vector admits no cd-expression.
    """
    return _extract_cd(flag_f(p))


def _modified(p: GradedPoset) -> ModifiedFlagVector:
    d = p.rank_top - 1
    correction = sphere_euler_characteristic(d - 1) - euler_characteristic(p) if d >= 1 else 0
    return ModifiedFlagVector(flag_f(p), correction)


def modified_flag_f(p: GradedPoset) -> ModifiedFlagVector:
    """Flag vector with f_{d} shifted by chi(S^{d-1}) - chi(p).

    Meaningful for semi-Eulerian posets; computed (with a warning) otherwise.
    """
    if not is_semi_eulerian(p):
        warnings.warn(f"{p.name}: modified flag vector of a non-semi-Eulerian poset", stacklevel=2)
    return _modified(p)


def semi_cd_index(p: GradedPoset) -> NcPolynomial:
    """cd-index of the modified flag vector; equals cd_index on Eulerian input."""
    return _extract_cd(_modified(p))


def format_flag_vector(f: FlagVector | ModifiedFlagVector) -> str:
    """Lines ``K={1,3}: 36`` in subset-size then lexicographic order."""
    lines = []
    for K in sorted(f.counts, key=lambda s: (len(s), sorted(s))):
        ks = "{" + ",".join(str(i) for i in sorted(K)) + "}"
        lines.append(f"K={ks}: {f.counts[K]}")
    return "\n".join(lines) + "\n"
