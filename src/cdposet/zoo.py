"""Deterministic poset generators and transcribed fixtures.

Every family is a face table turned into a poset by ``_facet_poset``.  A face
table is a dict from each face (a cell of the complex) to the faces one rank
below it, vertices to ``[]``; it is ranked in one pass in insertion order, so
each face comes after the faces it lists.  ``bot`` and ``top`` are adjoined.
A simplicial complex is given by its facets instead, which
``_simplicial_poset`` turns into a face table; products and connected sums
combine built posets (``poset.product``, ``_glued``).  To add a family, write
a builder that checks its parameters (``BadParams``) and returns one of
these, and give it a row of ``_FAMILIES``: builder, number of parameters,
provenance.  A fixture that publishes a certificate also gets a row of
``_CERTIFICATES``.

Every generator returns a validated poset with deterministic element names.
The transcribed fixtures (the truncated-bipyramid polytope and the two torus
decompositions) assert their published invariants at build time, so any
transcription drift fails fast.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations, product as iproduct

from .flags import cd_index, euler_characteristic, semi_cd_index
from .ncpoly import CD, NcPolynomial
from .partition import (
    FailureReport,
    NotSimplicial,
    SEPartitionCert,
    SPartitionCert,
    order_to_s_certificate,
    se_certificate_from_classes,
)
from .poset import (
    BOT,
    TOP,
    GradedPoset,
    PosetError,
    _all_simplices,
    _bits,
    _union,
    closure,
    connected_sum,
    is_eulerian,
    is_semi_eulerian,
    product,
    validate,
)


class UnknownFamily(PosetError):
    pass


class BadParams(PosetError):
    pass


class NoPublishedCertificate(PosetError):
    pass


@dataclass(frozen=True)
class FixtureSpec:
    family: str
    params: tuple[int, ...]
    provenance: str


def _facet_poset(name: str, rank_top: int, faces: dict[str, list[str]]) -> GradedPoset:
    """Poset of a face table (see the module docstring), ranked in one pass.

    A vertex gets rank 1, every other face one more than the first face it
    lists (a KeyError if that face has no entry yet); top covers every
    element of rank ``rank_top - 1``, bot included.
    """
    ranks = {BOT: 0, TOP: rank_top}
    covers = [(BOT, TOP)] if rank_top == 1 else []
    for x, below in faces.items():
        ranks[x] = ranks[below[0]] + 1 if below else 1
        for y in below or (BOT,):
            covers.append((y, x))
        if ranks[x] == rank_top - 1:
            covers.append((x, TOP))
    return GradedPoset(name, ranks, covers)


def _simplicial_poset(name: str, rank_top: int, facets: list[tuple[str, ...]]) -> GradedPoset:
    """Face poset of the simplicial complex generated by the given facets.

    A face is named by joining its sorted vertex names.
    """
    faces: set[tuple[str, ...]] = set()
    for facet in facets:
        vs = tuple(sorted(facet))
        for k in range(1, len(vs) + 1):
            faces.update(combinations(vs, k))
    table = {
        "".join(face): ["".join(sub) for sub in combinations(face, len(face) - 1) if sub]
        for face in sorted(faces, key=len)
    }
    return _facet_poset(name, rank_top, table)


# -- generated families -----------------------------------------------------------


def polygon(n: int) -> GradedPoset:
    if n < 2:
        raise BadParams(f"polygon needs n >= 2, got {n}")
    faces: dict[str, list[str]] = {f"v{i}": [] for i in range(n)}
    faces |= {f"e{i}": [f"v{i}", f"v{(i + 1) % n}"] for i in range(n)}
    return _facet_poset(f"polygon{n}", 3, faces)


def simplex_boundary(n: int) -> GradedPoset:
    """Boundary of the n-simplex: proper nonempty subsets of n+1 vertices."""
    if n < 1:
        raise BadParams(f"simplex-boundary needs n >= 1, got {n}")
    vs = [chr(ord("a") + i) for i in range(n + 1)]
    facets = [tuple(v for v in vs if v != skip) for skip in vs]
    return _simplicial_poset(f"simplex-boundary{n}", n + 1, facets)


def boolean_lattice(n: int) -> GradedPoset:
    """The boolean lattice of subsets of n vertices; the full set is the top."""
    if n < 1:
        raise BadParams(f"boolean needs n >= 1, got {n}")
    vs = [chr(ord("a") + i) for i in range(n)]
    facets = [tuple(v for v in vs if v != skip) for skip in vs]
    return _simplicial_poset(f"boolean{n}", n, facets)


def cube(n: int) -> GradedPoset:
    """Boundary of the n-cube; cells are words over 0, 1, * with at least one fixed bit."""
    if n < 1:
        raise BadParams(f"cube needs n >= 1, got {n}")
    words = sorted(("".join(w) for w in iproduct("01*", repeat=n)), key=lambda w: w.count("*"))
    faces = {}
    for cell in words[:-1]:  # the last word, all stars, is the top
        stars = [i for i, x in enumerate(cell) if x == "*"]
        faces[cell] = [cell[:i] + bit + cell[i + 1 :] for i in stars for bit in "01"]
    return _facet_poset(f"cube{n}", n + 1, faces)


def cross_polytope(n: int) -> GradedPoset:
    """Boundary of the n-dimensional cross-polytope (octahedron for n = 3)."""
    if n < 1:
        raise BadParams(f"cross-polytope needs n >= 1, got {n}")
    axes = [chr(ord("u") + i) for i in range(n)] if n <= 6 else [f"x{i}" for i in range(n)]
    facets = [tuple(f"{a}{s}" for a, s in zip(axes, signs)) for signs in iproduct("pn", repeat=n)]
    return _simplicial_poset(f"cross-polytope{n}", n + 1, facets)


def sphere_two_cells(d: int) -> GradedPoset:
    """Sphere with exactly two cells in every dimension 0..d (rank d+2 poset)."""
    if d < 0:
        raise BadParams(f"sphere2cells needs d >= 0, got {d}")
    faces = {f"c{i}{s}": [f"c{i-1}A", f"c{i-1}B"] if i else [] for i in range(d + 1) for s in "AB"}
    return _facet_poset(f"sphere2cells{d}", d + 2, faces)


def discrete_points(n: int) -> GradedPoset:
    if n < 1:
        raise BadParams(f"discrete-points needs n >= 1, got {n}")
    return _facet_poset(f"discrete{n}", 2, {f"p{i}": [] for i in range(1, n + 1)})


def point() -> GradedPoset:
    """The one-point complex, the identity-like factor for products."""
    return _facet_poset("point", 2, {"pt": []})


def torus_seven_vertices() -> GradedPoset:
    """The minimal 7-vertex triangulation of the torus (14 facets on K7)."""
    facets = []
    for i in range(7):
        facets.append((f"t{i}", f"t{(i + 1) % 7}", f"t{(i + 3) % 7}"))
        facets.append((f"t{i}", f"t{(i + 2) % 7}", f"t{(i + 3) % 7}"))
    p = _simplicial_poset("torus-7vertex", 4, facets)
    assert euler_characteristic(p) == 0 and is_semi_eulerian(p) and not is_eulerian(p)
    return p


def icosahedron() -> GradedPoset:
    """The icosahedron boundary: gyroelongated pentagonal bipyramid combinatorics."""
    up = [f"u{i}" for i in range(5)]
    lo = [f"l{i}" for i in range(5)]
    facets = []
    for i in range(5):
        j = (i + 1) % 5
        facets.append(("t0", up[i], up[j]))
        facets.append((up[i], up[j], lo[i]))
        facets.append((lo[i], lo[j], up[j]))
        facets.append(("m0", lo[i], lo[j]))
    p = _simplicial_poset("icosahedron", 4, facets)
    assert euler_characteristic(p) == 2 and is_eulerian(p)
    return p


# -- transcribed fixtures ------------------------------------------------------------


def q_polytope() -> GradedPoset:
    """Truncated bipyramid over a triangle: 7 vertices, 12 edges, 7 facets.

    Base triangle A B C with bottom apex D; truncating the top apex leaves the
    triangle P Q R with P over A, Q over B, R over C.  Facets s1..s7 are named
    in the shelling order whose induced classes reproduce the published
    contribution table.
    """
    faces: dict[str, list[str]] = {v: [] for v in "ABCD"} | {v: [] for v in "PQR"}

    def edge(a: str, b: str) -> str:
        name = "".join(sorted((a, b)))
        faces[name] = [a, b]
        return name

    ab, bc, ca = edge("A", "B"), edge("B", "C"), edge("C", "A")
    ap, bq, cr = edge("A", "P"), edge("B", "Q"), edge("C", "R")
    pq, qr, rp = edge("P", "Q"), edge("Q", "R"), edge("R", "P")
    ad, bd, cd_ = edge("A", "D"), edge("B", "D"), edge("C", "D")
    faces["s1"] = [ab, bq, pq, ap]
    faces["s2"] = [bc, cr, qr, bq]
    faces["s3"] = [pq, qr, rp]
    faces["s4"] = [ca, ap, rp, cr]
    faces["s5"] = [ab, bd, ad]
    faces["s6"] = [bc, cd_, bd]
    faces["s7"] = [ca, ad, cd_]
    p = _facet_poset("q-polytope", 4, faces)
    assert not validate(p) and is_eulerian(p)
    assert cd_index(p) == NcPolynomial(CD, {"ccc": 1, "cd": 5, "dc": 5})
    return p


def torus_fig6() -> GradedPoset:
    """Flat-torus grid of 5 squares and 8 triangles (13 facets, 22 edges, 9 vertices).

    Squares sit at positions (col,row) on a 3x3 grid with wraparound; the four
    squares at (0,1), (1,2), (1,0), (2,1) are split into two triangles by the
    diagonal from their bottom-left to their top-right corner.
    """
    split = {(0, 1), (1, 2), (1, 0), (2, 1)}

    def v(i: int, j: int) -> str:
        return f"p{i % 3}{j % 3}"

    def h(i: int, j: int) -> str:
        return f"h{i % 3}{j % 3}"

    def vt(i: int, j: int) -> str:
        return f"v{i % 3}{j % 3}"

    faces: dict[str, list[str]] = {v(i, j): [] for i in range(3) for j in range(3)}
    for i in range(3):
        for j in range(3):
            faces[h(i, j)] = [v(i, j), v(i + 1, j)]
            faces[vt(i, j)] = [v(i, j), v(i, j + 1)]
    for c, r in sorted(split):
        faces[f"d{c}{r}"] = [v(c, r), v(c + 1, r + 1)]
    for c in range(3):
        for r in range(3):
            if (c, r) in split:
                faces[f"L{c}{r}"] = [h(c, r), vt(c + 1, r), f"d{c}{r}"]
                faces[f"U{c}{r}"] = [vt(c, r), h(c, r + 1), f"d{c}{r}"]
            else:
                faces[f"F{c}{r}"] = [h(c, r), h(c, r + 1), vt(c, r), vt(c + 1, r)]
    p = _facet_poset("torus-fig6", 4, faces)
    assert not validate(p)
    assert euler_characteristic(p) == 0 and is_semi_eulerian(p) and not is_eulerian(p)
    assert semi_cd_index(p) == NcPolynomial(CD, {"ccc": 1, "cd": 13, "dc": 7})
    return p


_TORUS6_CLASSES: dict[str, list[str] | None] = {
    "F02": None,  # initial: full closure
    "U12": ["h10", "d12", "p20"],
    "L12": ["h12", "v22", "p22"],
    "F22": ["h22", "h20"],
    "U01": ["v01", "d01", "p01"],
    "L01": ["h01", "v11", "p11"],
    "F11": ["h11", "v21", "p21"],
    "F20": [],
    "F00": ["v00", "v10"],
    "U10": ["d10"],
    "L10": ["v20"],
    "U21": ["d21"],
    "L21": ["h21"],
}


def torus_fig12() -> GradedPoset:
    """Torus tiled by four pentagons, four squares and one central octagon.

    13 vertices, 22 edges, 9 faces; corner pentagons have one cut edge glued
    to the octagon, edge squares are glued across the torus identifications.
    """
    vertices = "abcegh mnpqwyz".replace(" ", "")
    faces: dict[str, list[str]] = {f"v{x}": [] for x in vertices}

    def e(x: str, y: str) -> str:
        name = "e" + "".join(sorted((x, y)))
        faces[name] = [f"v{x}", f"v{y}"]
        return name

    faces["PA"] = [e("a", "b"), e("b", "c"), e("c", "g"), e("e", "g"), e("a", "e")]
    faces["QF"] = [e("b", "y"), e("n", "y"), e("c", "n"), "ebc"]
    faces["PJ"] = [e("a", "y"), "eae", e("e", "m"), e("m", "n"), "eny"]
    faces["QN"] = ["eem", e("e", "p"), e("p", "q"), e("m", "q")]
    faces["PR"] = ["epq", e("a", "p"), "eay", e("w", "y"), e("q", "w")]
    faces["QW"] = ["ewy", "eby", e("b", "z"), e("w", "z")]
    faces["PO"] = ["ebz", "eab", "eap", e("h", "p"), e("h", "z")]
    faces["QS"] = ["eeg", e("g", "h"), "ehp", "eep"]
    faces["OC"] = ["ecn", "emn", "emq", "eqw", "ewz", "ehz", "egh", "ecg"]
    p = _facet_poset("torus-fig12", 4, faces)
    assert not validate(p)
    assert euler_characteristic(p) == 0 and is_semi_eulerian(p) and not is_eulerian(p)
    assert semi_cd_index(p) == NcPolynomial(CD, {"ccc": 1, "cd": 9, "dc": 11})
    return p


_TORUS12_CLASSES = {
    "OC": None,  # initial: full closure
    "PA": ["eab", "ebc", "eeg", "eae", "va", "vb", "ve"],
    "QF": [],
    "PJ": ["eny"],
    "QN": ["eem"],
    "PR": ["epq", "eay"],
    "QW": ["ewy", "eby", "vy"],
    "PO": ["ebz", "eap"],
    "QS": ["ehp", "eep", "vp"],
}


def fig13_nonsemi() -> GradedPoset:
    """Pure 2-dimensional complex on 11 vertices that is not semi-Eulerian.

    The link of the distinguished vertex g is two disjoint arcs, so the upper
    interval [g, top] fails the Möbius test while chi is still 0.
    """
    triangles = ["abc", "bcd", "cde", "def", "dfg", "ghi", "hij", "hjk", "abk", "bhk"]
    p = _simplicial_poset("fig13-nonsemi", 4, [tuple(t) for t in triangles])
    assert not validate(p)
    assert euler_characteristic(p) == 0 and not is_semi_eulerian(p)
    return p


# -- composition families ----------------------------------------------------------


def _glued(kind: str, build: Callable[[int], GradedPoset], *params: int) -> GradedPoset:
    """Connected sum of build(params[0]) and build(params[-1]) along their first coatoms.

    The open facet closures are glued by name; the sum is ``sum-<kind><params joined by ->``.
    """
    left, right = build(params[0]), build(params[-1])
    fp, fq = left.coatoms()[0], right.coatoms()[0]
    iso = {x: x for x in closure(left, [fp]) - {fp}}
    name = f"sum-{kind}{'-'.join(map(str, params))}"
    return connected_sum(left, right, fp, fq, iso, name=name)


def glued_simplex_spheres(n: int) -> GradedPoset:
    """Connected sum of two n-simplex boundaries along canonical first facets."""
    return _glued("simplex", simplex_boundary, n)


# rank -> the pieces random_eulerian_small picks from (no draw for one); each draws its parameters
_PIECES: dict[int, list[Callable[[random.Random], GradedPoset]]] = {
    2: [lambda r: sphere_two_cells(0)],
    3: [
        lambda r: polygon(r.randint(3, 8)),
        lambda r: _glued("polygon", polygon, r.randint(3, 5), r.randint(3, 5)),
        lambda r: sphere_two_cells(1),
    ],
    4: [
        lambda r: simplex_boundary(3),
        lambda r: cube(3),
        lambda r: boolean_lattice(4),
        lambda r: sphere_two_cells(2),
        lambda r: q_polytope(),
        lambda r: cross_polytope(3),
        lambda r: glued_simplex_spheres(3),
    ],
    5: [
        lambda r: simplex_boundary(4),
        lambda r: boolean_lattice(5),
        lambda r: sphere_two_cells(3),
        lambda r: cross_polytope(4),
    ],
}


def random_eulerian_small(seed: int, max_rank: int = 4) -> GradedPoset:
    """Deterministic small Eulerian poset composed from Eulerian-preserving pieces."""
    if not 2 <= max_rank <= 5:
        raise BadParams(f"max_rank must be from 2 to 5, got {max_rank}")
    rng = random.Random(seed)
    pieces = _PIECES[rng.randint(2, max_rank)]
    return (rng.choice(pieces) if len(pieces) > 1 else pieces[0])(rng)


# -- registry -------------------------------------------------------------------------


_FAMILIES: dict[str, tuple] = {
    "polygon": (polygon, 1, "generator"),
    "simplex-boundary": (simplex_boundary, 1, "generator"),
    "boolean": (boolean_lattice, 1, "generator"),
    "cube": (cube, 1, "generator"),
    "cross-polytope": (cross_polytope, 1, "generator"),
    "octahedron": (lambda: cross_polytope(3), 0, "generator"),
    "icosahedron": (icosahedron, 0, "generator"),
    "sphere2cells": (sphere_two_cells, 1, "generator"),
    "discrete-points": (discrete_points, 1, "generator"),
    "point": (point, 0, "generator"),
    "product": (lambda m, n: product(polygon(m), polygon(n)), 2, "generator"),
    "connected-sum": (glued_simplex_spheres, 1, "generator"),
    "torus-7vertex": (torus_seven_vertices, 0, "generator"),
    "q-polytope": (q_polytope, 0, "transcribed fixture: truncated bipyramid over a triangle"),
    "torus-fig6": (torus_fig6, 0, "transcribed fixture: mixed square/triangle torus grid"),
    "torus-fig12": (torus_fig12, 0, "transcribed fixture: pentagon/square/octagon torus tiling"),
    "fig13-nonsemi": (fig13_nonsemi, 0, "transcribed fixture: complex with a bad vertex link"),
}


def families() -> list[str]:
    return sorted(_FAMILIES)


def _family(family: str, params: tuple[int, ...] | list[int]) -> tuple:
    """The ``_FAMILIES`` row of family, after checking that it takes as many parameters as given."""
    if family not in _FAMILIES:
        raise UnknownFamily(f"unknown family {family!r}; available: {', '.join(families())}")
    row = _FAMILIES[family]
    if len(params) != row[1]:
        raise BadParams(f"{family} takes {row[1]} parameter(s), got {len(params)}")
    return row


def fixture_spec(family: str, params: tuple[int, ...] = ()) -> FixtureSpec:
    """The provenance of a family; UnknownFamily, or BadParams on a wrong number of parameters (values: ``gen``)."""
    params = tuple(params)
    return FixtureSpec(family, params, _family(family, params)[2])


def gen(family: str, params: tuple[int, ...] | list[int] = ()) -> GradedPoset:
    """Build a validated poset of the given family; UnknownFamily/BadParams on misuse."""
    params = tuple(params)
    p = _family(family, params)[0](*params)
    problems = validate(p)
    if problems:
        raise PosetError(f"generated poset invalid: {problems[0]}")
    return p


def _se_from_table(
    p: GradedPoset, table: dict[str, list[str] | None]
) -> SEPartitionCert | FailureReport:
    """The SE-certificate whose classes the table lists; its first entry is the initial class."""
    classes = {
        sigma: frozenset(closure(p, [sigma]) if members is None else [*members, sigma])
        for sigma, members in table.items()
    }
    return se_certificate_from_classes(p, next(iter(table)), classes)


# family -> (converter, what the converter reads besides the poset)
_CERTIFICATES: dict[str, tuple] = {
    "q-polytope": (order_to_s_certificate, [f"s{i}" for i in range(1, 8)]),
    "torus-fig6": (_se_from_table, _TORUS6_CLASSES),
    "torus-fig12": (_se_from_table, _TORUS12_CLASSES),
}


def fixture_certificate(
    family: str, params: tuple[int, ...] | list[int] = ()
) -> SPartitionCert | SEPartitionCert:
    """Transcribed partition certificate for fixtures that publish one; BadParams as ``gen``."""
    if family not in _CERTIFICATES:
        raise NoPublishedCertificate(f"no transcribed certificate for family {family!r}")
    return published_certificate(family, gen(family, params))


def published_certificate(family: str, p: GradedPoset) -> SPartitionCert | SEPartitionCert:
    """The transcribed certificate of a fixture family on p, the poset ``gen`` built for it.

    NoPublishedCertificate for a family that publishes none; PosetError when
    the certificate does not fit p.
    """
    if family not in _CERTIFICATES:
        raise NoPublishedCertificate(f"no transcribed certificate for family {family!r}")
    convert, data = _CERTIFICATES[family]
    cert = convert(p, data)
    if isinstance(cert, FailureReport):
        raise PosetError(f"the published certificate of {family} does not fit {p.name}: {cert}")
    return cert


def shelling_restrictions(p: GradedPoset, order: list[str]) -> list[tuple[str, str]]:
    """Restriction faces of a shelling of a simplicial poset, as (R, facet) pairs.

    R is the smallest face of the facet not contained in any earlier facet;
    for a valid shelling the interval [R, facet] is exactly the set of new
    faces.  Used to feed the boolean-interval partition converter.  R is
    spanned by the facet's vertices whose opposite ridge is already covered.

    Raises NotSimplicial (a PosetError) naming the first facet in the order
    whose lower interval is not boolean.
    """
    covered = 0
    pairs: list[tuple[str, str]] = []
    for facet in order:
        below = _union(p._downset, p._mask([facet]))
        if not _all_simplices(p, below):
            raise NotSimplicial(f"{p.name}: facet {facet!r} is not a simplex")
        ridges = below & p._levels.get(p.rank(facet) - 1, 0)
        spans, k = below, 0  # the faces above every restriction vertex so far, and their count
        for a in _bits(below & p._levels.get(1, 0)):
            if ridges & ~p._upset[a] & covered:
                spans, k = spans & p._upset[a], k + 1
        pairs.append((min(p._names(spans & p._levels.get(k, 0))) if k else BOT, facet))
        covered |= below
    return pairs
