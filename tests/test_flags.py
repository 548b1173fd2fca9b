"""Flag vectors, Dehn-Sommerville, cd-indices and the semi-Eulerian pipeline."""

from __future__ import annotations

import ast
import random
import warnings
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdposet import flags, ncpoly, zoo
from cdposet.flags import (
    FlagVector,
    ab_polynomial,
    cd_index,
    check_dehn_sommerville,
    euler_characteristic,
    flag_f,
    flag_h,
    format_flag_vector,
    modified_flag_f,
    semi_cd_index,
)
from cdposet.ncpoly import AB, CD, NcPolynomial, NotInImage, ab_to_cd, expand_cd_to_ab
from cdposet.poset import BOT, TOP, GradedPoset, PosetError, RankTooLow, format_poset, validate


def flag_f_from_h(h):
    """The inverse of ``flag_h``: f_K = sum over T in K of h_T (subset zeta transform)."""
    return FlagVector(h.d, flags._by_rank_set(flags._subset_transform(flags._by_mask(h), 1)))


# the chain polynomial is the sum of f_K u_K, the ab-polynomial's sum over f; a -> a-b turns it into the ab-polynomial
chain_polynomial = ab_polynomial


def brute_flag_f(p):
    """Independent oracle: enumerate every chain over ranks 1..d directly."""
    d = p.rank_top - 1
    proper = [x for x in p.elements() if 0 < p.rank(x) <= d]
    counts = {frozenset(K): 0 for k in range(d + 1) for K in combinations(range(1, d + 1), k)}

    def grow(chain, start):
        ranks = frozenset(p.rank(x) for x in chain)
        counts[ranks] += 1
        for i in range(start, len(proper)):
            x = proper[i]
            if p.rank(x) in ranks:
                continue
            if chain and not p.less(chain[-1], x):
                continue
            grow(chain + [x], i + 1)

    grow([], 0)
    return counts


def K(*ranks):
    return frozenset(ranks)


class TestFlagVectors:
    def test_diamond(self):
        f = flag_f(zoo.gen("sphere2cells", (0,)))
        assert f.counts == {K(): 1, K(1): 2}

    def test_square_lattice(self):
        f = flag_f(zoo.gen("polygon", (4,)))
        assert f.counts == {K(): 1, K(1): 4, K(2): 4, K(1, 2): 8}

    def test_product_torus(self):
        f = flag_f(zoo.gen("product", (3, 3)))
        assert f.get({1}) == 9 and f.get({2}) == 18 and f.get({3}) == 9
        assert f.get({1, 2, 3}) == 72

    def test_matches_brute_force(self, q_poset, torus6):
        for p in (q_poset, torus6, zoo.gen("cube", (3,))):
            assert flag_f(p).counts == brute_flag_f(p)

    def test_serialization(self):
        text = format_flag_vector(flag_f(zoo.gen("polygon", (4,))))
        assert "K={1,2}: 8" in text.splitlines()


def random_unvalidated(rng: random.Random) -> GradedPoset:
    """Up to 10 elements with ranks in -2..5 and random covers that go up in rank."""
    ranks = {f"e{i}": rng.randint(-2, 5) for i in range(rng.randint(1, 10))}
    names = list(ranks)
    pairs = [(rng.choice(names), rng.choice(names)) for _ in range(3 * len(names))]
    return GradedPoset("random", ranks, [(x, y) for x, y in pairs if ranks[x] < ranks[y]])


class TestChainCountOracles:
    """Chain counts against enumeration and closed forms, which share nothing with the packed count."""

    UNVALIDATED = {
        "missing-rank-level": (
            {BOT: 0, "a": 1, "b": 1, "c": 3, TOP: 4},
            [(BOT, "a"), (BOT, "b"), ("a", "c"), ("b", "c"), ("c", TOP)],
        ),
        "two-rank-0-elements": (
            {BOT: 0, "bot2": 0, "a": 1, "b": 1, TOP: 2},
            [(BOT, "a"), ("bot2", "a"), ("bot2", "b"), ("a", TOP), ("b", TOP)],
        ),
        "cover-skips-a-rank": (
            {BOT: 0, "v1": 1, "v2": 1, "e1": 2, "e2": 2, TOP: 3},
            [(BOT, "v1"), (BOT, "v2"), ("v1", "e1"), ("v2", "e1"), (BOT, "e2"), ("v1", TOP), ("e1", TOP), ("e2", TOP)],
        ),
        "negative-ranks": (
            {"m2": -2, "m1": -1, BOT: 0, "a": 1, "b": 1, "c": 2, TOP: 3},
            [("m2", "m1"), ("m1", BOT), ("m2", "a"), (BOT, "a"), (BOT, "b"), ("a", "c"), ("b", "c"), ("c", TOP)],
        ),
    }

    @pytest.mark.parametrize("name", UNVALIDATED)
    def test_unvalidated_posets_against_enumeration(self, name):
        p = GradedPoset(name, *self.UNVALIDATED[name])
        assert validate(p)
        assert flag_f(p).counts == brute_flag_f(p)

    def test_random_unvalidated_posets_against_enumeration(self):
        rng = random.Random(15)
        for _ in range(300):
            p = random_unvalidated(rng)
            if p.rank_top >= 1:
                assert flag_f(p).counts == brute_flag_f(p), format_poset(p)

    @pytest.mark.parametrize("k", range(17))
    def test_two_cell_spheres_have_two_to_the_size_chains(self, k):
        d = k + 1
        subsets = (frozenset(S) for n in range(d + 1) for S in combinations(range(1, d + 1), n))
        assert flag_f(zoo.gen("sphere2cells", (k,))).counts == {S: 2 ** len(S) for S in subsets}

    def test_polygons_across_one_two_and_three_byte_fields(self):
        # the width bound (k + 1)^2 passes 2^8 at k = 15 and 2^16 at k = 255
        for k in range(3, 301):
            assert flag_f(zoo.gen("polygon", (k,))).counts == {K(): 1, K(1): k, K(2): k, K(1, 2): 2 * k}


class TestFlagH:
    def test_square(self):
        h = flag_h(flag_f(zoo.gen("polygon", (4,))))
        assert h.counts == {K(): 1, K(1): 3, K(2): 3, K(1, 2): 1}

    def test_boolean_degenerate(self):
        from cdposet.flags import FlagVector

        f = FlagVector(2, {K(): 1, K(1): 1, K(2): 1, K(1, 2): 1})
        h = flag_h(f)
        assert h.counts == {K(): 1, K(1): 0, K(2): 0, K(1, 2): 0}

    def test_diamond(self):
        h = flag_h(flag_f(zoo.gen("sphere2cells", (0,))))
        assert h.counts == {K(): 1, K(1): 1}

    def test_round_trip_on_random_posets(self):
        for seed in range(100):
            f = flag_f(zoo.random_eulerian_small(seed))
            assert flag_f_from_h(flag_h(f)).counts == f.counts

    def test_h_sums_to_full_flag_number(self, q_poset, torus6):
        for p in (q_poset, torus6, zoo.gen("cube", (3,))):
            f, h = flag_f(p), flag_h(flag_f(p))
            d = f.d
            assert h.get(()) == 1
            assert sum(h.counts.values()) == f.get(range(1, d + 1))

    def test_flag_monotonicity_bound(self, q_poset, torus6):
        # every f_K is at most the product of its singleton flag numbers
        for p in (q_poset, torus6):
            f = flag_f(p)
            for K, value in f.counts.items():
                bound = 1
                for i in K:
                    bound *= f.get({i})
                assert value <= bound


class TestAbPolynomial:
    def test_square(self):
        psi = ab_polynomial(flag_h(flag_f(zoo.gen("polygon", (4,)))))
        assert psi == NcPolynomial(AB, {"aa": 1, "ba": 3, "ab": 3, "bb": 1})

    def test_rank_one(self):
        p = zoo.gen("boolean", (1,))
        assert ab_polynomial(flag_h(flag_f(p))) == NcPolynomial.unit(AB)

    def test_diamond(self):
        psi = ab_polynomial(flag_h(flag_f(zoo.gen("sphere2cells", (0,)))))
        assert psi == NcPolynomial(AB, {"a": 1, "b": 1})


class TestEulerCharacteristic:
    def test_torus(self, torus6):
        assert euler_characteristic(torus6) == 0

    def test_sphere_like(self, q_poset):
        assert euler_characteristic(q_poset) == 2

    def test_diamond(self):
        assert euler_characteristic(zoo.gen("sphere2cells", (0,))) == 2

    def test_sphere_parity(self):
        for d in range(7):
            chi = euler_characteristic(zoo.gen("sphere2cells", (d,)))
            assert chi == (0 if d % 2 else 2)


class TestDehnSommerville:
    def test_eulerian_fixtures_pass(self, q_poset):
        for p in (q_poset, zoo.gen("cube", (3,)), zoo.gen("simplex-boundary", (4,))):
            assert check_dehn_sommerville(flag_f(p)) == []

    def test_raw_torus_fails_at_euler_relation(self, torus6):
        violations = check_dehn_sommerville(flag_f(torus6))
        assert violations
        first = violations[0]
        assert (first.K, first.i, first.k) == (frozenset(), 0, 4)

    def test_modified_torus_passes(self, torus6):
        assert check_dehn_sommerville(modified_flag_f(torus6)) == []


class TestCdIndex:
    def test_q_polytope(self, q_poset):
        assert cd_index(q_poset) == NcPolynomial(CD, {"ccc": 1, "cd": 5, "dc": 5})

    def test_two_cell_spheres(self):
        for d in range(9):
            assert cd_index(zoo.gen("sphere2cells", (d,))) == NcPolynomial(CD, {"c" * (d + 1): 1})

    def test_polygons_against_oracle(self):
        for n in range(3, 13):
            p = zoo.gen("polygon", (n,))
            assert flag_f(p).counts == brute_flag_f(p)
            assert cd_index(p) == NcPolynomial(CD, {"cc": 1, "d": n - 2})

    def test_torus_raises_not_in_image(self, torus6):
        with pytest.raises(NotInImage) as err:
            cd_index(torus6)
        assert "Dehn-Sommerville" in str(err.value)

    def test_expand_matches_ab_polynomial(self, q_poset):
        psi = ab_polynomial(flag_h(flag_f(q_poset)))
        assert expand_cd_to_ab(cd_index(q_poset)) == psi


class TestRankTooLow:
    """Below rank 1 there are no rank sets: a documented PosetError, not a shift error."""

    @pytest.mark.parametrize(
        "p", [GradedPoset("point-only", {BOT: 0}, []), GradedPoset("empty", {}, [])], ids=["rank-0", "empty"]
    )
    @pytest.mark.parametrize("fn", [flag_f, cd_index, semi_cd_index, modified_flag_f])
    def test_raises_a_poset_error_naming_the_rank(self, p, fn):
        with pytest.raises(RankTooLow, match=f"{p.name} has rank 0") as err:
            fn(p)
        assert isinstance(err.value, PosetError)

    def test_rank_1_is_the_empty_word(self):
        chain = GradedPoset("chain", {BOT: 0, TOP: 1}, [(BOT, TOP)])
        assert flag_f(chain).counts == {K(): 1}
        assert cd_index(chain) == NcPolynomial.unit(CD)


class TestModified:
    def test_torus_correction(self, torus6):
        mf = modified_flag_f(torus6)
        assert mf.correction == 2
        assert mf.get({3}) == 13 + 2
        assert mf.get({1}) == flag_f(torus6).get({1})

    def test_eulerian_correction_vanishes(self, q_poset):
        assert modified_flag_f(q_poset).correction == 0

    def test_product_correction(self):
        mf = modified_flag_f(zoo.gen("product", (3, 3)))
        assert mf.get({3}) == 9 + 2

    def test_warns_on_non_semi_eulerian(self):
        with pytest.warns(UserWarning):
            modified_flag_f(zoo.gen("fig13-nonsemi"))


class TestOneRecord:
    """f-, h- and modified flag vectors are all ``FlagVector``s; the chi correction is added in one place."""

    def test_only_modified_counts_calls_correction(self):
        tree = ast.parse(Path(flags.__file__).read_text(encoding="utf-8"))
        callers = {
            fn.name: {n.func.id for n in ast.walk(fn) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
            for fn in tree.body
            if isinstance(fn, ast.FunctionDef)
        }
        assert [name for name, called in callers.items() if "_correction" in called] == ["_modified_counts"]
        assert "_modified_counts" in callers["modified_flag_f"] and "_modified_counts" in callers["semi_cd_index"]

    def test_transforms_return_flag_vectors(self, q_poset):
        h = flag_h(flag_f(q_poset))
        assert type(h) is FlagVector
        assert type(flag_f_from_h(h)) is FlagVector

    @pytest.mark.parametrize("family,params", [("torus-fig6", ()), ("product", (3, 3)), ("q-polytope", ())])
    def test_modified_differs_only_at_the_top_rank(self, family, params):
        p = zoo.gen(family, params)
        f, mf = flag_f(p), modified_flag_f(p)
        assert isinstance(mf, FlagVector)
        assert mf.d == f.d == 3
        assert {S: c - f.counts[S] for S, c in mf.counts.items() if c != f.counts[S]} == (
            {K(3): mf.correction} if mf.correction else {}
        )
        assert mf.correction == (0 if family == "q-polytope" else 2)


class TestSemiCdIndex:
    def test_torus_fig6(self, torus6):
        assert semi_cd_index(torus6) == NcPolynomial(CD, {"ccc": 1, "cd": 13, "dc": 7})

    def test_torus_fig12(self, torus12):
        assert semi_cd_index(torus12) == NcPolynomial(CD, {"ccc": 1, "cd": 9, "dc": 11})

    def test_product(self):
        assert semi_cd_index(zoo.gen("product", (3, 3))) == NcPolynomial(
            CD, {"ccc": 1, "cd": 9, "dc": 7}
        )

    def test_equals_cd_index_on_eulerian(self, q_poset):
        for p in (q_poset, zoo.gen("polygon", (7,)), zoo.gen("cross-polytope", (3,))):
            assert semi_cd_index(p) == cd_index(p)

    def test_fig13_not_in_image(self):
        with pytest.raises(NotInImage):
            semi_cd_index(zoo.gen("fig13-nonsemi"))

    def test_chain_polynomial_route_consistent(self, torus6):
        from cdposet.ncpoly import substitute_a_minus_b

        mf = modified_flag_f(torus6)
        psi = substitute_a_minus_b(chain_polynomial(mf))
        assert expand_cd_to_ab(semi_cd_index(torus6)) == psi


def naive_flag_h(f):
    """Independent oracle: h_K summed over every subset T of K, 3^d terms in all."""
    return {
        K: sum(
            (-1) ** (len(K) - k) * f.counts[frozenset(T)]
            for k in range(len(K) + 1)
            for T in combinations(sorted(K), k)
        )
        for K in f.counts
    }


@st.composite
def flag_vectors(draw, max_d=6):
    d = draw(st.integers(min_value=0, max_value=max_d))
    sets = [frozenset(T) for k in range(d + 1) for T in combinations(range(1, d + 1), k)]
    values = draw(st.lists(st.integers(-50, 50), min_size=len(sets), max_size=len(sets)))
    return FlagVector(d, dict(zip(sets, values)))


class TestSubsetTransforms:
    @given(f=flag_vectors())
    @settings(deadline=None, max_examples=60)
    def test_flag_h_matches_naive_sum(self, f):
        assert flag_h(f).counts == naive_flag_h(f)

    @given(f=flag_vectors())
    @settings(deadline=None, max_examples=60)
    def test_flag_f_from_h_inverts(self, f):
        assert flag_f_from_h(flag_h(f)).counts == f.counts

    def test_modified_counts_built_once(self, torus6):
        mf = modified_flag_f(torus6)
        assert mf.counts is mf.counts
        assert mf.get({3}) == mf.counts[frozenset({3})]

    def test_semi_cd_index_skips_the_semi_eulerian_test(self, monkeypatch):
        calls = []
        monkeypatch.setattr(flags, "is_semi_eulerian", lambda p: calls.append(p) or True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            semi_cd_index(zoo.gen("product", (3, 3)))
        assert calls == []


# one sample of every zoo family, plus larger and non-Eulerian cases
DIFFERENTIAL = {
    "polygon(5)": ("polygon", (5,)),
    "simplex-boundary(4)": ("simplex-boundary", (4,)),
    "boolean(5)": ("boolean", (5,)),
    "cube(4)": ("cube", (4,)),
    "cross-polytope(4)": ("cross-polytope", (4,)),
    "octahedron": ("octahedron", ()),
    "icosahedron": ("icosahedron", ()),
    "sphere2cells(10)": ("sphere2cells", (10,)),
    "discrete-points(4)": ("discrete-points", (4,)),
    "point": ("point", ()),
    "product(6,8)": ("product", (6, 8)),
    "connected-sum(4)": ("connected-sum", (4,)),
    "torus-7vertex": ("torus-7vertex", ()),
    "q-polytope": ("q-polytope", ()),
    "torus-fig6": ("torus-fig6", ()),
    "torus-fig12": ("torus-fig12", ()),
    "fig13-nonsemi": ("fig13-nonsemi", ()),
}
RANDOM_SEEDS = (0, 4, 13, 23)  # cross-polytope(4), a polygon sum, boolean(4), a simplex sum


def _outcome(call):
    """("ok", value) or ("raises", message, message of the cause) for a cd extraction."""
    try:
        return ("ok", call())
    except NotInImage as exc:
        return ("raises", str(exc), str(exc.__cause__))


def _staged(f):
    """The staged route ab_to_cd(ab_polynomial(flag_h(f))), with cd_index's diagnosis on failure."""
    try:
        return ab_to_cd(ab_polynomial(flag_h(f)))
    except NotInImage as exc:
        ds = check_dehn_sommerville(f)
        if not ds:
            raise
        raise NotInImage(f"first failing Dehn-Sommerville equation: {ds[0]}") from exc


def _builders():
    """One fresh-poset builder per differential case, so each route counts chains on its own object."""
    builders = [pytest.param(lambda f=f, a=a: zoo.gen(f, a), id=pid) for pid, (f, a) in DIFFERENTIAL.items()]
    return builders + [
        pytest.param(lambda s=s: zoo.random_eulerian_small(s, max_rank=5), id=f"random_eulerian_small({s})")
        for s in RANDOM_SEEDS
    ]


class TestMaskPath:
    """cd_index and semi_cd_index stay in masks; the staged API is their oracle."""

    @pytest.mark.parametrize("build", _builders())
    def test_cd_index_matches_the_staged_route(self, build):
        expected = _outcome(lambda: _staged(flag_f(build())))
        assert _outcome(lambda: cd_index(build())) == expected

    @pytest.mark.parametrize("build", _builders())
    def test_semi_cd_index_matches_the_staged_route(self, build):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            modified = modified_flag_f(build())
        assert _outcome(lambda: semi_cd_index(build())) == _outcome(lambda: _staged(modified))

    @pytest.mark.parametrize("family", ["torus-fig6", "torus-fig12", "torus-7vertex"])
    def test_torus_message_is_unchanged(self, family):
        assert _outcome(lambda: cd_index(zoo.gen(family))) == (
            "raises",
            "first failing Dehn-Sommerville equation: K={} i=0 k=4: 0 != 2",
            "nonzero residual after cd-prefix 'cc'",
        )

    def test_fig13_message_is_unchanged(self):
        assert _outcome(lambda: semi_cd_index(zoo.gen("fig13-nonsemi"))) == (
            "raises",
            "first failing Dehn-Sommerville equation: K={1} i=1 k=4: 12 != 0",
            "nonzero residual after cd-prefix 'd'",
        )

    def test_no_rank_set_word_or_staged_step_on_the_way(self, monkeypatch):
        sphere, torus = zoo.gen("sphere2cells", (8,)), zoo.gen("product", (3, 3))

        def forbidden(*args, **kwargs):
            raise AssertionError("the cd path left the mask-indexed list")

        for module, name in ((flags, "_rank_sets"), (flags, "flag_h"), (flags, "ab_polynomial"), (ncpoly, "ab_mask")):
            monkeypatch.setattr(module, name, forbidden)
        assert cd_index(sphere) == NcPolynomial(CD, {"c" * 9: 1})
        assert semi_cd_index(torus) == NcPolynomial(CD, {"ccc": 1, "cd": 9, "dc": 7})
        monkeypatch.undo()
        with pytest.raises(NotInImage, match=r"first failing Dehn-Sommerville equation: K=\{\} i=0 k=4"):
            cd_index(torus)


def _derivation(phi: NcPolynomial) -> NcPolynomial:
    """The derivation G with c -> d and d -> cd."""
    image = {"c": "d", "d": "cd"}
    terms: dict[str, int] = {}
    for word, coeff in phi.items():
        for i, letter in enumerate(word):
            w = word[:i] + image[letter] + word[i + 1 :]
            terms[w] = terms.get(w, 0) + coeff
    return NcPolynomial(CD, terms)


def boolean_cd_indices(n_max: int) -> dict[int, NcPolynomial]:
    """Phi(B_1) = 1 and Phi(B_{n+1}) = Phi(B_n) c + G(Phi(B_n)) (Ehrenborg-Readdy)."""
    phis = {1: NcPolynomial.unit(CD)}
    for n in range(1, n_max):
        phis[n + 1] = phis[n].times_letter("c") + _derivation(phis[n])
    return phis


class TestClosedForms:
    """cd-indices from formulas that share nothing with flag_f -> flag_h -> extraction."""

    BOOLEAN = boolean_cd_indices(10)

    def test_recursion_gives_the_tetrahedron(self):
        assert self.BOOLEAN[4] == NcPolynomial(CD, {"ccc": 1, "cd": 2, "dc": 2})

    @pytest.mark.parametrize("n", range(1, 11))
    def test_boolean_lattices(self, n):
        assert cd_index(zoo.gen("boolean", (n,))) == self.BOOLEAN[n]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_simplex_boundaries(self, n):
        assert cd_index(zoo.gen("simplex-boundary", (n,))) == self.BOOLEAN[n + 1]

    @pytest.mark.parametrize("k", range(9, 15))
    def test_two_cell_spheres_up_to_degree_fifteen(self, k):
        assert cd_index(zoo.gen("sphere2cells", (k,))) == NcPolynomial(CD, {"c" * (k + 1): 1})
