"""Chain enumeration, flag f/h-vectors, Dehn-Sommerville checks and cd-indices.

Rank sets are subsets of [d] for a poset of rank d+1.  Every computation
holds them as bitmasks: bit i-1 stands for rank i, which is also letter i of
the ab-word, so one list of 2^d numbers indexed by mask carries chain counts,
their h-transform and the ab-polynomial alike.  Frozensets appear only in
the public dataclasses, whose counts are keyed by rank set for readability.

Chains are counted in one pass over the elements in rank order.  Each
element holds one packed integer whose fixed-width fields count the chains
ending there, one field per rank set, and the packed integers of an
element's down-set are summed in C.  The field width bounds every chain
count, so no field carries into its neighbour (see ``_flag_masks``).  The
counts and the cd-index read no element names, so they are memoized once
per numbered structure of the poset's family (see ``poset.memoized``).
The f <-> h transforms are subset zeta/Möbius transforms over mask-indexed
lists, O(d 2^d).
``cd_index`` and ``semi_cd_index`` stay in masks from the chain counts to
the cd-index: they transform the count list and hand it to the first-letter
peel of ``ncpoly``.  The staged API (``flag_f``, ``flag_h``,
``ab_polynomial``, ``ab_to_cd``) computes the same index one step at a time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import compress, repeat

from .ncpoly import AB, NcPolynomial, NotInImage, _cd_from_masks, ab_word
from .poset import GradedPoset, RankTooLow, _bits, is_semi_eulerian, memoized


@dataclass(frozen=True)
class FlagVector:
    """Counts by rank set K in [d]: chain counts f_K with f_emptyset = 1, or their h-transform."""

    d: int
    counts: dict[frozenset[int], int]

    def get(self, ranks) -> int:
        return self.counts[frozenset(ranks)]


@dataclass(frozen=True)
class ModifiedFlagVector(FlagVector):
    """Flag vector whose top-rank count f_{d} already includes ``correction``, chi(S^{d-1}) - chi(poset)."""

    correction: int


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


def _by_rank_set(values: list[int] | tuple[int, ...]) -> dict[frozenset[int], int]:
    """The counts of a mask-indexed list of length 2^d, keyed by rank set."""
    return dict(zip(_rank_sets(len(values).bit_length() - 1), values))


def _by_mask(f: FlagVector) -> list[int]:
    """The counts of a flag vector as a mask-indexed list."""
    values = [0] * (1 << f.d)
    for K, c in f.counts.items():
        values[_set_to_mask(K)] = c
    return values


def _subset_transform(values: list[int] | tuple[int, ...], sign: int) -> list[int]:
    """Mask-indexed sum over T in K of sign^{|K - T|} values[T], one rank at a time."""
    values = list(values)
    for _ in range(len(values).bit_length() - 1):  # transform along bit 0, then rotate it to the top
        low = values[0::2]
        values = low + [u + sign * v for u, v in zip(values[1::2], low)]
    return values


_SELECT = bytes.maketrans(b"01", b"\0\1")  # a reversed bin() string -> one selector byte per element


@memoized(shared=True)
def _flag_masks(p: GradedPoset) -> tuple[int, ...]:
    """Chain counts indexed by rank-set bitmask, from one packed integer per element.

    For z of rank a+1, P[z] is one int of 2^a fields of W bits: field m holds
    the number of chains ending at z whose rank set is m | 1 << a.  Extending
    a chain that ends at k (rank b+1 < a+1) by z moves its field m to
    m | 1 << b, which is a shift by W 2^b bits, so

        P[z] = 1 + sum over k < z of rank >= 1 of P[k] << (W 2^(rank k - 1)),

    and the fields of the sum of P[z] over level a are the counts of the rank
    sets whose highest bit is a: the slice ``counts[2^a : 2^(a+1)]``.  The
    shifted values wait in one list by element number; the strict down-set
    of z selects them in C, so no comparable pair costs a Python step.

    No field carries into its neighbour: each is a chain count, and a chain
    takes at most one element of each rank, so no count exceeds the product
    of (|L_r| + 1) over the ranks 1..d, which W holds.  That holds on any
    poset, validated or not.  W is rounded up to whole bytes, so the fields
    come out of ``to_bytes``, which raises rather than wraps.
    """
    d = p.rank_top - 1
    levels = [p._levels.get(r, 0) for r in range(1, d + 1)]
    bound = 1
    for level in levels:
        bound *= level.bit_count() + 1
    width = (bound.bit_length() + 7) // 8  # bytes per field
    shifted = [0] * len(p)  # P[k] << (W 2^(rank k - 1)) by element number k; 0 below rank 1
    counts = [1]
    for a, level in enumerate(levels):
        total = 0
        for z in _bits(level):
            below = p._downset[z] ^ 1 << z
            packed = 1 + sum(compress(shifted, bin(below)[:1:-1].encode().translate(_SELECT)))
            shifted[z] = packed << (8 * width << a)
            total += packed
        fields = total.to_bytes(width << a, "little")
        counts += map(int.from_bytes, zip(*[iter(fields)] * width), repeat("little"))  # width bytes each, lowest first
    return tuple(counts)


def _chain_counts(p: GradedPoset) -> tuple[int, ...]:
    """``_flag_masks(p)``, after checking that p has rank sets at all."""
    if p.rank_top < 1:
        raise RankTooLow(f"{p.name} has rank {p.rank_top}; a flag vector needs rank 1 or more")
    return _flag_masks(p)


def flag_f(p: GradedPoset) -> FlagVector:
    """Flag f-vector: number of chains with each rank set K in [d].

    Raises RankTooLow when p has rank 0 or no elements: the rank sets need d >= 0.
    """
    return FlagVector(p.rank_top - 1, _by_rank_set(_chain_counts(p)))


def flag_h(f: FlagVector) -> FlagVector:
    """h_K = sum over T in K of (-1)^{|K - T|} f_T (subset Möbius transform)."""
    return FlagVector(f.d, _by_rank_set(_subset_transform(_by_mask(f), -1)))


def ab_polynomial(h: FlagVector) -> NcPolynomial:
    """The ab-polynomial: sum of h_K u_K with u_i = b exactly when i is in K."""
    return NcPolynomial(AB, {ab_word(_set_to_mask(K), h.d): c for K, c in h.counts.items()})


def euler_characteristic(p: GradedPoset) -> int:
    """Alternating sum of the rank counts over ranks 1..d."""
    d = p.rank_top - 1
    return sum((-1) ** (i - 1) * len(p.elements_of_rank(i)) for i in range(1, d + 1))


def sphere_euler_characteristic(dim: int) -> int:
    """chi of the dim-dimensional sphere: 1 + (-1)^dim."""
    return 1 + (-1) ** dim


def check_dehn_sommerville(f: FlagVector) -> list[DsViolation]:
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


def _extract_cd(counts: list[int] | tuple[int, ...]) -> NcPolynomial:
    """The cd-index of mask-indexed chain counts: Möbius transform, then peel.

    Only on failure are the counts keyed by rank set, to name the first
    failing Dehn-Sommerville equation.
    """
    try:
        return _cd_from_masks(_subset_transform(counts, -1))
    except NotInImage as exc:
        ds = check_dehn_sommerville(FlagVector(len(counts).bit_length() - 1, _by_rank_set(counts)))
        if ds:
            raise NotInImage(f"first failing Dehn-Sommerville equation: {ds[0]}") from exc
        raise


@memoized(shared=True)
def cd_index(p: GradedPoset) -> NcPolynomial:
    """The cd-index of the flag vector, by exact extraction.

    The chain counts stay a mask-indexed list: their subset Möbius transform
    is the ab-polynomial's coefficient list, from which the cd-index is
    peeled letter by letter.  It equals
    ``ab_to_cd(ab_polynomial(flag_h(flag_f(p))))``.

    Raises NotInImage (with the first failing Dehn-Sommerville triple when one
    exists) if the flag vector admits no cd-expression, and RankTooLow (a
    PosetError) below rank 1, like ``flag_f``.
    """
    return _extract_cd(_chain_counts(p))


def _correction(p: GradedPoset) -> int:
    """chi(S^{d-1}) - chi(p), the shift of the top-rank count; 0 at rank 1."""
    d = p.rank_top - 1
    return sphere_euler_characteristic(d - 1) - euler_characteristic(p) if d >= 1 else 0


def _modified_counts(p: GradedPoset) -> tuple[list[int], int]:
    """Chain counts by mask with the correction added at mask 2^(d-1), the rank set {d}; and the correction."""
    counts = list(_chain_counts(p))
    correction = _correction(p)
    if correction:  # never at rank 1, where there is no rank set {d}
        counts[1 << (p.rank_top - 2)] += correction
    return counts, correction


def modified_flag_f(p: GradedPoset) -> ModifiedFlagVector:
    """Flag vector with f_{d} shifted by chi(S^{d-1}) - chi(p).

    Meaningful for semi-Eulerian posets; computed (with a warning) otherwise.
    Raises RankTooLow below rank 1, like ``flag_f``.
    """
    counts, correction = _modified_counts(p)
    modified = ModifiedFlagVector(p.rank_top - 1, _by_rank_set(counts), correction)
    if not is_semi_eulerian(p):
        warnings.warn(f"{p.name}: modified flag vector of a non-semi-Eulerian poset", stacklevel=2)
    return modified


def semi_cd_index(p: GradedPoset) -> NcPolynomial:
    """cd-index of the modified flag vector; equals cd_index on Eulerian input.

    Raises like ``cd_index``.
    """
    return _extract_cd(_modified_counts(p)[0])


def format_flag_vector(f: FlagVector) -> str:
    """Lines ``K={1,3}: 36`` in subset-size then lexicographic order."""
    lines = []
    for K in sorted(f.counts, key=lambda s: (len(s), sorted(s))):
        ks = "{" + ",".join(str(i) for i in sorted(K)) + "}"
        lines.append(f"K={ks}: {f.counts[K]}")
    return "\n".join(lines) + "\n"
