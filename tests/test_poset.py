"""Graded posets: validation, Möbius, derived constructions, file format."""

from __future__ import annotations

import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdposet import zoo
from cdposet.flags import flag_f
from cdposet.partition import (
    boundary_poset,
    contributions,
    format_certificate,
    gamma_poset,
    initial_boundary_poset,
    parse_certificate,
    search_s_certificate,
    search_se_certificate,
    verify_partition,
)
from cdposet.poset import (
    BOT,
    TOP,
    GradedPoset,
    NotAnIsomorphism,
    NotComparable,
    PosetError,
    PosetParseError,
    RankTooLow,
    boundary_set,
    cap,
    closure,
    connected_sum,
    find_isomorphism,
    format_poset,
    is_eulerian,
    is_near_eulerian,
    is_semi_eulerian,
    mobius,
    near_eulerian_suspension,
    parse_poset,
    product,
    semisuspension,
    validate,
)


def diamond():
    return zoo.gen("sphere2cells", (0,))


def brute_mobius(p, x, y):
    """Independent oracle: the textbook recursion, no caching tricks."""
    if x == y:
        return 1
    total = 0
    for z in [x] + sorted(p.above(x)):
        if z != y and p.leq(z, y):
            total += brute_mobius(p, x, z)
    return -total


class TestValidate:
    def test_diamond_clean(self):
        assert validate(diamond()) == []

    def test_unbounded_above(self):
        p = GradedPoset(
            "broken",
            {BOT: 0, "s1": 1, "s2": 1, TOP: 2},
            [(BOT, "s1"), (BOT, "s2"), ("s1", TOP)],
        )
        assert any(v.code == "not-bounded-above" and v.path == "s2" for v in validate(p))

    def test_rank_skipping_cover(self):
        p = GradedPoset("skippy", {BOT: 0, "e": 2, TOP: 3}, [(BOT, "e"), ("e", TOP)])
        assert any(v.code == "not-graded" for v in validate(p))

    def test_not_graded_violations_in_cover_name_order(self):
        # the jumping covers come from elements of ranks 0, 1 and 2; their names sort the other way
        p = GradedPoset(
            "jumps",
            {BOT: 0, "x": 1, "a": 2, "b": 3, TOP: 4},
            [(BOT, "x"), ("x", "a"), ("a", "b"), ("b", TOP), (BOT, "a"), ("x", "b"), ("a", TOP)],
        )
        assert [str(v) for v in validate(p)] == [
            "VIOLATION not-graded a<top rank jump 2->4",
            "VIOLATION not-graded bot<a rank jump 0->2",
            "VIOLATION not-graded x<b rank jump 1->3",
        ]


class TestBadCovers:
    """A cover must go up in rank; a rank jump still constructs and fails validation."""

    RANK1_COVER = (
        "poset rank1cover\nrank 2\nelem bot 0\nelem v0 1\nelem v1 1\nelem top 2\n"
        "cover bot v0\ncover bot v1\ncover v0 v1\ncover v0 top\ncover v1 top\n"
    )

    def test_cover_within_a_rank(self):
        with pytest.raises(PosetError, match="does not go up in rank"):
            GradedPoset("flat", {BOT: 0, "v0": 1, "v1": 1, TOP: 2},
                        [(BOT, "v0"), (BOT, "v1"), ("v0", "v1"), ("v0", TOP), ("v1", TOP)])

    def test_downward_cover(self):
        with pytest.raises(PosetError, match="does not go up in rank"):
            GradedPoset("down", {BOT: 0, TOP: 1}, [(TOP, BOT)])

    def test_parse_reports_the_line(self):
        with pytest.raises(PosetParseError) as err:
            parse_poset(self.RANK1_COVER)
        assert "line 9" in str(err.value)
        with pytest.raises(PosetParseError) as err:
            parse_poset("poset down\nrank 1\nelem bot 0\nelem top 1\ncover top bot\n")
        assert "line 5" in str(err.value)

    def test_rank_jump_still_parses(self):
        p = parse_poset("poset skippy\nrank 3\nelem bot 0\nelem e 2\nelem top 3\ncover bot e\ncover e top\n")
        assert [v.code for v in validate(p)] == ["not-graded"]


class TestMobius:
    def test_diamond_top(self):
        assert mobius(diamond(), BOT, TOP) == 1

    def test_triangle_boundary_matches_brute_force(self):
        p = zoo.gen("simplex-boundary", (2,))
        assert mobius(p, BOT, TOP) == brute_mobius(p, BOT, TOP) == -1

    def test_reflexive(self):
        assert mobius(diamond(), "c0A", "c0A") == 1

    def test_not_comparable(self):
        with pytest.raises(NotComparable):
            mobius(diamond(), "c0A", "c0B")

    def test_matches_brute_force_on_q(self, q_poset):
        for x in q_poset.elements():
            for y in sorted(q_poset.above(x)):
                assert mobius(q_poset, x, y) == brute_mobius(q_poset, x, y)


class TestEulerian:
    def test_q_polytope(self, q_poset):
        assert is_eulerian(q_poset)

    def test_torus_not_eulerian_but_semi(self, torus6):
        assert not is_eulerian(torus6)
        assert is_semi_eulerian(torus6)

    def test_diamond(self):
        assert is_eulerian(diamond())

    def test_fig13_not_semi_eulerian(self):
        p = zoo.gen("fig13-nonsemi")
        assert not is_semi_eulerian(p)
        # the bad vertex has a disconnected link, so its upper interval fails
        assert mobius(p, "g", TOP) != (-1) ** (p.rank_top - p.rank("g"))

    def test_eulerian_implies_semi(self, q_poset):
        assert is_semi_eulerian(q_poset)


class TestClosureCapBoundary:
    def test_closure_of_top_is_everything(self, q_poset):
        assert closure(q_poset, [TOP]) == set(q_poset.elements())

    def test_closure_of_empty_is_empty(self, q_poset):
        assert closure(q_poset, []) == set()

    def test_closure_of_square_facet(self, q_poset):
        got = closure(q_poset, ["s1"])
        assert got == {BOT, "A", "B", "P", "Q", "AB", "BQ", "PQ", "AP", "s1"}

    def test_cap_of_open_facet_is_square_lattice(self, q_poset):
        sub = cap(q_poset, closure(q_poset, ["s1"]) - {"s1"}, 3)
        assert validate(sub) == []
        assert find_isomorphism(sub, zoo.gen("polygon", (4,))) is not None

    def test_cap_of_bot_is_chain(self, q_poset):
        sub = cap(q_poset, {BOT}, 1)
        assert validate(sub) == [] and len(sub) == 2

    def test_cap_rank_too_low(self, q_poset):
        with pytest.raises(RankTooLow):
            cap(q_poset, closure(q_poset, ["AB"]), 2)

    def test_boundary_of_three_edge_path(self, q_poset):
        gamma = cap(q_poset, closure(q_poset, ["BC", "CR", "QR"]), 3)
        assert boundary_set(gamma) == {BOT, "B", "Q"}

    def test_boundary_of_eulerian_is_empty(self):
        assert boundary_set(zoo.gen("polygon", (4,))) == set()

    def test_boundary_of_capped_closed_facet(self, q_poset):
        capped = cap(q_poset, closure(q_poset, ["s1"]), 4)
        assert boundary_set(capped) == closure(q_poset, ["s1"]) - {"s1"}

    def test_boundary_is_down_closed(self, q_poset):
        gamma = cap(q_poset, closure(q_poset, ["BC", "CR", "QR"]), 3)
        bdry = boundary_set(gamma)
        assert closure(gamma, bdry) == bdry


class TestSemisuspension:
    def test_three_edge_path_closes_to_square(self, q_poset):
        gamma = cap(q_poset, closure(q_poset, ["BC", "CR", "QR"]), 3)
        ss, tau = semisuspension(gamma)
        assert ss.lower_covers(tau) == ("B", "Q")
        assert find_isomorphism(ss, zoo.gen("polygon", (4,))) is not None

    def test_two_edge_path_closes_to_triangle(self, q_poset):
        gamma = cap(q_poset, closure(q_poset, ["AD", "BD"]), 3)
        ss, _ = semisuspension(gamma)
        assert find_isomorphism(ss, zoo.gen("polygon", (3,))) is not None

    def test_capped_closed_square_suspends_to_eulerian(self, q_poset):
        capped = cap(q_poset, closure(q_poset, ["s1"]), 4)
        ss, _ = semisuspension(capped)
        assert validate(ss) == [] and is_eulerian(ss)

    def test_near_eulerian_examples(self, q_poset, torus6):
        path = cap(q_poset, closure(q_poset, ["BC", "CR", "QR"]), 3)
        assert is_near_eulerian(path)
        assert not is_near_eulerian(zoo.gen("polygon", (5,)))
        two_components = cap(torus6, closure(torus6, ["h22", "h20"]), 3)
        assert not is_near_eulerian(two_components)

    def test_near_eulerian_suspension_is_the_checked_semisuspension(self, q_poset, torus6):
        path = cap(q_poset, closure(q_poset, ["BC", "CR", "QR"]), 3)
        ss = near_eulerian_suspension(path, "tau@x")
        assert ss == semisuspension(path, "tau@x")[0] and is_eulerian(ss)
        assert near_eulerian_suspension(zoo.gen("polygon", (5,))) is None
        assert near_eulerian_suspension(cap(torus6, closure(torus6, ["h22", "h20"]), 3)) is None

    def test_suspend_delete_recap_round_trip(self, q_poset):
        gamma = cap(q_poset, closure(q_poset, ["BC", "CR", "QR"]), 3)
        ss, tau = semisuspension(gamma)
        members = set(ss.elements()) - {tau, TOP}
        recapped = cap(ss, members, gamma.rank_top)
        assert recapped == gamma

    def test_no_qualifying_elements_fails_validation(self):
        ss, tau = semisuspension(zoo.gen("polygon", (4,)))
        assert ss.lower_covers(tau) == ()
        assert any(v.code == "not-bounded-below" for v in validate(ss))


class TestFindIsomorphism:
    def test_large_polygon_needs_no_recursion(self):
        p = zoo.gen("polygon", (600,))
        assert len(p) == 1202
        iso = find_isomorphism(p, zoo.gen("polygon", (600,)))
        assert iso == {x: x for x in p.elements()}

    def test_large_polygon_on_a_shallow_stack(self, shallow_stack):
        p = zoo.gen("polygon", (600,))
        assert find_isomorphism(p, zoo.gen("polygon", (600,))) == {x: x for x in p.elements()}

    @pytest.mark.parametrize("m, n", [(3, 4), (4, 5)])
    def test_transposed_products(self, m, n):
        """A wrong vertex image fails at the first edge it shares, not one rank later."""
        p, q = zoo.gen("product", (m, n)), zoo.gen("product", (n, m))
        start = time.perf_counter()
        iso = find_isomorphism(p, q)
        assert time.perf_counter() - start < 10
        assert iso is not None and sorted(iso.values()) == sorted(q.elements())
        assert all(p.rank(x) == q.rank(iso[x]) for x in p.elements())
        assert sorted((iso[x], iso[y]) for x, y in p.covers()) == q.covers()

    def test_same_size_non_isomorphic_pair(self):
        hexagon = zoo.gen("polygon", (6,))
        ranks = {BOT: 0, TOP: 3}
        covers = []
        for t in "pq":  # two triangles: vertices t0..t2, edge tij between ti and tj
            for i in range(3):
                ranks[f"{t}{i}"], ranks[f"{t}e{i}"] = 1, 2
                covers += [(BOT, f"{t}{i}"), (f"{t}e{i}", TOP)]
                covers += [(f"{t}{i}", f"{t}e{i}"), (f"{t}{(i + 1) % 3}", f"{t}e{i}")]
        triangles = GradedPoset("two-triangles", ranks, covers)
        assert [len(triangles.elements_of_rank(r)) for r in range(4)] == [1, 6, 6, 1]
        assert find_isomorphism(hexagon, triangles) is None
        assert find_isomorphism(triangles, hexagon) is None
        assert find_isomorphism(triangles, triangles) is not None


class TestProduct:
    def test_polygon_product_counts(self):
        tri = zoo.gen("polygon", (3,))
        prod = product(tri, tri)
        assert [len(prod.elements_of_rank(r)) for r in range(5)] == [1, 9, 18, 9, 1]
        assert validate(prod) == []

    def test_one_point_factor_is_identity_like(self, q_poset):
        prod = product(q_poset, zoo.gen("point"))
        assert prod.rank_top == q_poset.rank_top
        assert find_isomorphism(prod, q_poset) is not None

    def test_factor_without_cells_collapses(self, q_poset):
        chain = GradedPoset("chain", {BOT: 0, TOP: 1}, [(BOT, TOP)])
        assert len(product(q_poset, chain)) == 2

    def test_products_of_eulerian_are_semi_eulerian(self):
        factors = [diamond(), zoo.gen("polygon", (3,)), zoo.gen("polygon", (4,))]
        for a in factors:
            for b in factors:
                prod = product(a, b)
                assert validate(prod) == []
                assert is_semi_eulerian(prod), (a.name, b.name)


class TestConnectedSum:
    def test_glued_simplex_spheres(self):
        p = zoo.gen("connected-sum", (3,))
        assert validate(p) == [] and is_eulerian(p)
        assert len(p.coatoms()) == 4 + 4 - 2

    def test_self_sum_facet_count(self):
        q = zoo.gen("polygon", (5,))
        fp = q.coatoms()[0]
        iso = {x: x for x in closure(q, [fp]) - {fp}}
        s = connected_sum(q, zoo.gen("polygon", (5,)), fp, fp, iso)
        assert len(s.coatoms()) == 2 * 5 - 2
        assert is_eulerian(s)

    def test_shape_mismatch_rejected(self, q_poset):
        # s1 is a square facet, s5 a triangle: their open closures differ
        dom = sorted(closure(q_poset, ["s1"]) - {"s1"})
        cod = sorted(closure(q_poset, ["s5"]) - {"s5"})
        assert find_isomorphism(
            cap(q_poset, set(dom), 3), cap(q_poset, set(cod), 3)
        ) is None
        bogus = dict(zip(dom, (cod * 2)[: len(dom)]))
        with pytest.raises(NotAnIsomorphism):
            connected_sum(q_poset, zoo.gen("q-polytope"), "s1", "s5", bogus)


class TestFileFormat:
    def test_round_trip(self, torus6):
        assert parse_poset(format_poset(torus6, "generator")) == torus6

    def test_parse_error_carries_line(self):
        with pytest.raises(PosetParseError) as err:
            parse_poset("poset x\nrank 2\nelem bot 0\nelem top 2\nbogus line here\n")
        assert "line 5" in str(err.value)

    def test_cover_before_elem_rejected(self):
        with pytest.raises(PosetParseError):
            parse_poset("poset x\ncover bot top\nelem bot 0\nelem top 1\n")


class TestEulerianProperty:
    def test_mobius_pattern_exhaustive(self):
        for name, params in [("polygon", (6,)), ("cube", (3,)), ("simplex-boundary", (3,))]:
            p = zoo.gen(name, params)
            assert len(p.elements()) <= 200
            for x in p.elements():
                for y in sorted(p.above(x)):
                    assert mobius(p, x, y) == (-1) ** (p.rank(y) - p.rank(x))

    def test_coatom_closure_cap_is_eulerian(self, q_poset):
        for sigma in q_poset.coatoms():
            sub = cap(q_poset, closure(q_poset, [sigma]) - {sigma}, 3)
            assert is_eulerian(sub)


# zoo posets of at most 64 elements, Eulerian, semi-Eulerian and neither
SMALL_ZOO = [
    ("point", ()),
    ("discrete-points", (3,)),
    ("polygon", (3,)),
    ("polygon", (8,)),
    ("simplex-boundary", (3,)),
    ("boolean", (5,)),
    ("cube", (3,)),
    ("octahedron", ()),
    ("icosahedron", ()),
    ("sphere2cells", (5,)),
    ("connected-sum", (3,)),
    ("product", (3, 3)),
    ("torus-7vertex", ()),
    ("q-polytope", ()),
    ("torus-fig6", ()),
    ("torus-fig12", ()),
    ("fig13-nonsemi", ()),
]


def brute_verdicts(p):
    """(Eulerian, semi-Eulerian) from brute_mobius on every comparable pair."""
    failing = {
        (x, y)
        for x in p.elements()
        for y in p.above(x)
        if brute_mobius(p, x, y) != (-1) ** (p.rank(y) - p.rank(x))
    }
    return not failing, not failing - {(p.bot(), p.top())}


def mutations(p, seed):
    """One dropped cover, and one added cover between incomparable elements two or more ranks apart."""
    rng = random.Random(seed)
    covers = p.covers()
    dropped = rng.choice(covers)
    yield GradedPoset(f"{p.name}-{dropped}", p.ranks(), [c for c in covers if c != dropped])
    jumps = [
        (x, y)
        for x in p.elements()
        for y in p.elements()
        if p.rank(y) >= p.rank(x) + 2 and not p.less(x, y)
    ]
    if jumps:
        added = rng.choice(jumps)
        yield GradedPoset(f"{p.name}+{added}", p.ranks(), covers + [added])


class TestParityAgainstMobius:
    @pytest.mark.parametrize("family,params", SMALL_ZOO)
    def test_zoo_verdicts(self, family, params):
        p = zoo.gen(family, params)
        assert (is_eulerian(p), is_semi_eulerian(p)) == brute_verdicts(p)

    @pytest.mark.parametrize("family,params", SMALL_ZOO)
    def test_single_cover_mutations(self, family, params):
        base = zoo.gen(family, params)
        for seed in range(20):
            for p in mutations(base, seed):
                assert (is_eulerian(p), is_semi_eulerian(p)) == brute_verdicts(p), p.name

    def test_fixtures_cover_all_three_verdicts(self):
        verdicts = {brute_verdicts(zoo.gen(f, params)) for f, params in SMALL_ZOO}
        assert verdicts == {(True, True), (False, True), (False, False)}


class TestMemo:
    """Derived values are memoized on the poset object they come from, never shared mutably."""

    @staticmethod
    def fresh(family="q-polytope", params=()):
        return parse_poset(format_poset(zoo.gen(family, params)))

    def test_second_call_returns_the_same_object(self):
        p = self.fresh()
        gamma = gamma_poset(p, "s2", {"C", "R", "BC", "CR", "QR"})
        assert gamma_poset(p, "s2", frozenset({"C", "R", "BC", "CR", "QR"})) is gamma
        assert gamma_poset(p, "s2", {"BC", "CR", "QR"}) is gamma  # the same closure
        assert initial_boundary_poset(p, "s1") is initial_boundary_poset(p, "s1")
        assert boundary_poset(gamma) is boundary_poset(gamma)
        assert semisuspension(gamma, "tau@s2") is semisuspension(gamma, "tau@s2")
        assert semisuspension(gamma) is semisuspension(gamma)
        assert is_eulerian(p) is is_eulerian(p) is True

    def test_different_arguments_give_different_objects(self):
        p = self.fresh()
        gamma = gamma_poset(p, "s2", {"BC", "CR", "QR"})
        assert gamma_poset(p, "s3", {"BC", "CR", "QR"}) is not gamma  # sigma names the result
        assert gamma_poset(p, "s2", {"BC", "CR"}) is not gamma
        assert initial_boundary_poset(p, "s1") is not initial_boundary_poset(p, "s2")
        assert semisuspension(gamma, "tau@a")[0] is not semisuspension(gamma, "tau@b")[0]
        assert semisuspension(gamma, "tau@a")[0].name == semisuspension(gamma, "tau@b")[0].name

    def test_a_reparsed_poset_starts_with_an_empty_memo(self):
        p = self.fresh()
        gamma = gamma_poset(p, "s2", {"BC", "CR", "QR"})
        assert validate(p) == [] and is_eulerian(p) and p._cache
        q = parse_poset(format_poset(p))
        assert q == p and q._cache == {}
        assert gamma_poset(q, "s2", {"BC", "CR", "QR"}) is not gamma

    def test_returned_values_are_not_shared_mutably(self):
        p = GradedPoset("unbounded", {BOT: 0, "v0": 1, "v1": 1, TOP: 2}, [(BOT, "v0"), (BOT, "v1"), ("v0", TOP)])
        first = validate(p)
        first.append("junk")
        assert validate(p) == first[:-1] and len(first) == 2
        q = self.fresh()
        counts = flag_f(q).counts
        counts[frozenset({1})] = -1
        assert flag_f(q).counts[frozenset({1})] == len(q.elements_of_rank(1))

    def test_a_poset_with_a_memo_pickles(self):
        p = self.fresh()
        assert is_eulerian(p) and p._cache
        back = pickle.loads(pickle.dumps(p))
        assert back == p and is_eulerian(back)

    def test_every_memoized_value_is_immutable(self):
        p = self.fresh("torus-fig6")
        contributions(search_se_certificate(p), check=True)
        seen, stack = set(), [p]
        while stack:
            q = stack.pop()
            if id(q) in seen:
                continue
            seen.add(id(q))
            for value in q._cache.values():
                for item in value if isinstance(value, tuple) else (value,):
                    assert isinstance(item, (bool, int, str, GradedPoset))
                    if isinstance(item, GradedPoset):
                        stack.append(item)
        assert len(seen) > 50


# every field that the bitset core sets, besides the name and the memo
CORE_FIELDS = ("_elements", "_index", "_rank", "_up", "_down", "_downset", "_upset", "_levels", "rank_top")


def assert_name_built_twin(q):
    """q has every core field of the same poset built from its names, and the same covers and violations."""
    twin = GradedPoset(q.name, q.ranks(), q.covers())
    for field in CORE_FIELDS:
        assert getattr(q, field) == getattr(twin, field), (q.name, field)
    assert q.covers() == twin.covers() and q == twin
    assert validate(q) == validate(twin)


def memo_tree(p):
    """Every poset memoized below p, each once."""
    seen, stack, out = {id(p)}, [p], []
    while stack:
        for value in stack.pop()._cache.values():
            for item in value if isinstance(value, tuple) else (value,):
                if isinstance(item, GradedPoset) and id(item) not in seen:
                    seen.add(id(item))
                    out.append(item)
                    stack.append(item)
    return out


class TestDerivedEdgeCases:
    """Derived constructions on edge and invalid inputs, pinned before the bitset rewrite."""

    def test_cap_over_the_parents_own_top(self, q_poset):
        with pytest.raises(PosetError) as err:
            cap(q_poset, q_poset.elements(), q_poset.rank_top + 1)
        assert type(err.value) is PosetError and str(err.value) == "cover top top does not go up in rank"

    def test_cap_over_a_top_that_is_not_maximal(self):
        p = GradedPoset("low-top", {BOT: 0, TOP: 1, "x": 2, "y": 2}, [(BOT, TOP), (TOP, "y"), (TOP, "x")])
        with pytest.raises(PosetError) as err:
            cap(p, p.elements(), 3)
        assert type(err.value) is PosetError and str(err.value) == "cover top x does not go up in rank"

    @pytest.mark.parametrize("tau", ["AA", "C0", "CS", "ZZ", "tau"])
    def test_semisuspension_places_tau_among_the_coatoms(self, q_poset, tau):
        gamma = cap(q_poset, closure(q_poset, ["BC", "CR", "QR"]), 3)
        assert gamma.elements_of_rank(2) == ["BC", "CR", "QR"]
        ss, name = semisuspension(gamma, tau)
        assert name == tau and sorted(ss.elements_of_rank(2)) == ss.elements_of_rank(2)
        assert ss.lower_covers(tau) == ("B", "Q") and ss.upper_covers(tau) == (TOP,)
        assert_name_built_twin(ss)

    def test_semisuspension_of_an_invalid_rank_2_poset(self):
        p = GradedPoset("unbounded", {BOT: 0, "s1": 1, "s2": 1, TOP: 2}, [(BOT, "s1"), (BOT, "s2"), ("s1", TOP)])
        ss, tau = semisuspension(p)
        assert ss.lower_covers(tau) == ()
        assert_name_built_twin(ss)
        assert [(v.code, v.path) for v in validate(ss)] == [("not-bounded-above", "s2"), ("not-bounded-below", tau)]

    def test_semisuspension_without_elements_below_the_top_rank(self):
        p = GradedPoset("gap", {BOT: 0, "e": 1, TOP: 3}, [(BOT, "e"), ("e", TOP)])
        ss, tau = semisuspension(p, "m")
        assert ss.elements() == (BOT, "e", "m", TOP) and ss.lower_covers(tau) == ()
        assert_name_built_twin(ss)
        assert [str(v) for v in validate(ss)] == [
            "VIOLATION not-bounded-below m covers nothing",
            "VIOLATION not-graded e<top rank jump 1->3",
        ]


# search, then checked totals: each poset's memo tree holds every kind of derived poset
DIFFERENTIAL_ZOO = [
    ("polygon", (25,)),
    ("simplex-boundary", (5,)),
    ("cube", (4,)),
    ("cross-polytope", (4,)),
    ("connected-sum", (4,)),
    ("sphere2cells", (8,)),
    ("q-polytope", ()),
    ("torus-fig6", ()),
    ("torus-fig12", ()),
    ("torus-7vertex", ()),
    ("product", (4, 5)),
    ("icosahedron", ()),
]


@pytest.fixture()
def count_inits(monkeypatch):
    """The list that gains one entry per ``GradedPoset.__init__`` call from here on."""
    calls = []
    real = GradedPoset.__init__

    def counted(self, *args, **kwargs):
        calls.append(args[0] if args else kwargs.get("name"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(GradedPoset, "__init__", counted)
    return calls


class TestBitsetCore:
    """Derived posets renumber their parent's bitsets; they equal the posets built from their names."""

    @pytest.mark.parametrize("family,params", DIFFERENTIAL_ZOO)
    def test_memo_tree_matches_name_built_posets(self, family, params):
        p = parse_poset(format_poset(zoo.gen(family, params)))
        cert = search_s_certificate(p) if is_eulerian(p) else search_se_certificate(p)
        assert cert is not None
        contributions(cert, check=True)
        derived = memo_tree(p)
        assert len(derived) > 5
        for q in derived:
            assert_name_built_twin(q)

    @settings(deadline=None, max_examples=60)
    @given(
        st.sampled_from([("q-polytope", ()), ("cube", (3,)), ("torus-fig6", ()), ("product", (3, 4))]),
        st.data(),
    )
    def test_cap_of_a_random_down_closed_set(self, family_params, data):
        p = zoo.gen(*family_params)
        picked = data.draw(st.lists(st.sampled_from(p.elements()[:-1]), max_size=6))
        members = closure(p, picked) | {BOT}
        top_rank = max(p.rank(x) for x in members) + data.draw(st.integers(1, 2))
        sub = cap(p, members, top_rank)
        expected = [(x, y) for x, y in p.covers() if x in members and y in members]
        expected += [(x, TOP) for x in members if not set(p.upper_covers(x)) & members]
        assert sub.covers() == sorted(expected) and sub.rank(TOP) == top_rank
        assert_name_built_twin(sub)

    def test_search_builds_no_poset_from_names(self, count_inits):
        p = zoo.gen("cube", (4,))
        count_inits.clear()
        assert search_s_certificate(p) is not None
        assert count_inits == []

    def test_verify_and_totals_after_parse_build_no_poset_from_names(self, count_inits, torus12_cert):
        text, poset_text = format_certificate(torus12_cert), format_poset(torus12_cert.poset)
        cert = parse_certificate(text, parse_poset(poset_text))
        assert len(count_inits) == 1
        count_inits.clear()
        assert verify_partition(cert) == []
        contributions(cert, check=True)
        assert count_inits == []
