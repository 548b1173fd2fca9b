"""Graded posets: validation, Möbius, derived constructions, file format."""

from __future__ import annotations

import bisect
import copy
import pickle
import random
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdposet import partition as partition_module, poset as poset_module, zoo
from cdposet.flags import cd_index, flag_f
from cdposet.ncpoly import NcPolynomial
from cdposet.partition import (
    Budget,
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
    Violation,
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


class TestMissingRanks:
    """bot, top, coatoms and is_semi_eulerian raise PosetError where a rank has no element."""

    @pytest.mark.parametrize("query", [
        GradedPoset.bot, GradedPoset.top, GradedPoset.coatoms, is_semi_eulerian,
    ])
    def test_empty_poset(self, query):
        with pytest.raises(PosetError, match="^e has no element of rank 0$"):
            query(GradedPoset("e", {}, []))

    def test_no_bottom(self):
        p = GradedPoset("no-bot", {"x": 1, "y": 2}, [("x", "y")])
        assert p.top() == "y" and p.coatoms() == ["x"]
        with pytest.raises(PosetError, match="^no-bot has no element of rank 0$"):
            p.bot()


class TestUnknownNames:
    """A query about a name outside the poset raises KeyError, except for the upper end of leq and less."""

    @pytest.mark.parametrize("query", [
        lambda p: p.leq("zz", "zz"),
        lambda p: p.leq("zz", TOP),
        lambda p: p.less("zz", "zz"),
        lambda p: p.rank("zz"),
        lambda p: p.above("zz"),
        lambda p: p.upper_covers("zz"),
    ])
    def test_an_unknown_element_raises(self, query):
        with pytest.raises(KeyError):
            query(diamond())

    def test_nothing_is_below_an_unknown_element(self):
        p = diamond()
        assert not p.leq(BOT, "zz") and not p.less(BOT, "zz") and "zz" not in p


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

    def test_pair_names_that_collide_are_refused(self):
        # a,b x c and a x b,c are both named a,b,c; merged, the product had 5 elements instead of 6
        p = GradedPoset("p", {BOT: 0, "a,b": 1, "a": 1, TOP: 2}, [(BOT, "a,b"), (BOT, "a"), ("a,b", TOP), ("a", TOP)])
        q = GradedPoset("q", {BOT: 0, "c": 1, "b,c": 1, TOP: 2}, [(BOT, "c"), (BOT, "b,c"), ("c", TOP), ("b,c", TOP)])
        with pytest.raises(PosetError) as err:
            product(p, q)
        assert type(err.value) is PosetError
        assert str(err.value) == "product cell 'a,b,c' of 'a,b' and 'c' has the name of another cell"
        assert len(product(p, p)) == 6  # names with commas that do not collide stay apart

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


    @staticmethod
    def triangle(name, vertices):
        x, y, z = vertices
        edges = {f"e{x}{y}": (x, y), f"e{x}{z}": (x, z), f"e{y}{z}": (y, z)}
        ranks = {BOT: 0, **dict.fromkeys(vertices, 1), **dict.fromkeys(edges, 2), TOP: 3}
        covers = [(BOT, v) for v in vertices] + [(v, e) for e, ends in edges.items() for v in ends]
        return GradedPoset(name, ranks, covers + [(e, TOP) for e in edges])

    def test_a_renamed_element_that_p_has_is_refused(self):
        # q's vertex z becomes q.z, which p has; merged, the sum had 9 elements instead of 10 and validated
        p, q = self.triangle("p", ("x", "y", "q.z")), self.triangle("q", ("x", "y", "z"))
        iso = {BOT: BOT, "x": "x", "y": "y"}
        with pytest.raises(PosetError) as err:
            connected_sum(p, q, "exy", "exy", iso)
        assert type(err.value) is PosetError
        assert str(err.value) == "renamed element 'q.z' of q is already an element of p"
        s = connected_sum(p, self.triangle("q", ("x", "y", "w")), "exy", "exy", iso)
        assert len(s) == 10 and validate(s) == [] and {"q.z", "q.w"} <= set(s.elements())


class TestFileFormat:
    def test_round_trip(self, torus6):
        back = parse_poset(format_poset(torus6, "generator"))
        assert back == torus6 and back.name == torus6.name

    def test_default_named_connected_sum_round_trips(self):
        p = zoo.gen("simplex-boundary", (3,))
        fp = p.coatoms()[0]
        s = connected_sum(p, p, fp, fp, {x: x for x in closure(p, [fp]) - {fp}})
        assert s.name == "sum(simplex-boundary3,simplex-boundary3)"
        back = parse_poset(format_poset(s))
        assert back == s and back.name == s.name
        text = format_certificate(search_s_certificate(s))
        assert format_certificate(parse_certificate(text, back)) == text

    def test_parse_error_carries_line(self):
        with pytest.raises(PosetParseError) as err:
            parse_poset("poset x\nrank 2\nelem bot 0\nelem top 2\nbogus line here\n")
        assert "line 5" in str(err.value)

    def test_cover_before_elem_rejected(self):
        with pytest.raises(PosetParseError):
            parse_poset("poset x\ncover bot top\nelem bot 0\nelem top 1\n")


class TestWritableNames:
    """Names the file formats cannot carry (empty, split by whitespace, or holding '#') are refused when given."""

    @staticmethod
    def refused(name):
        return pytest.raises(PosetError, match=re.escape(f"name {name!r} cannot be written"))

    @pytest.mark.parametrize("name", ["a b", "", "a#b", "a\tb", " a", "a\n"])
    def test_poset_name(self, name):
        with self.refused(name):
            GradedPoset(name, {BOT: 0, TOP: 1}, [(BOT, TOP)])

    @pytest.mark.parametrize("name", ["x y", "x#y", "x\ty", ""])
    def test_element_name(self, name):
        with self.refused(name):
            GradedPoset("p", {BOT: 0, name: 1, TOP: 2}, [(BOT, name), (name, TOP)])

    def test_cap_name(self, q_poset):
        with self.refused("c d"):
            cap(q_poset, closure(q_poset, ["s1"]), 4, "c d")

    def test_semisuspension_tau_name(self, q_poset):
        with self.refused("t u"):
            semisuspension(q_poset, "t u")

    def test_every_zoo_family_round_trips(self):
        assert {family for family, _ in SMALL_ZOO + DEEPER_ZOO} == set(zoo.families())
        for family, params in SMALL_ZOO + DEEPER_ZOO:
            p = zoo.gen(family, params)
            back = parse_poset(format_poset(p))
            assert back == p and back.name == p.name, family


class TestNameAndCoverTypes:
    """A name that is not a str, or a cover that is not a pair of str names, is a PosetError naming it; these
    raised a bare AttributeError, ValueError or TypeError, and the cover ``"ab"`` was read as ``a < b``."""

    @staticmethod
    def refused(text):
        return pytest.raises(PosetError, match=f"^{re.escape(text)}$")

    def test_element_name(self):
        with self.refused("name 5 is not a string"):
            GradedPoset("p", {BOT: 0, 5: 1, TOP: 2}, [(BOT, 5), (5, TOP)])

    def test_poset_name(self):
        with self.refused("name 7 is not a string"):
            GradedPoset(7, {BOT: 0, TOP: 1}, [(BOT, TOP)])

    def test_cap_name(self, q_poset):
        with self.refused("name 5 is not a string"):
            cap(q_poset, closure(q_poset, ["s1"]), 4, name=5)

    def test_semisuspension_tau_name(self, q_poset):
        with self.refused("name 5 is not a string"):
            semisuspension(q_poset, 5)

    @pytest.mark.parametrize("cover", [(BOT, TOP, "x"), (BOT,), ([BOT], TOP), (BOT, {}), "ab", {BOT, TOP}, 3, None])
    def test_cover(self, cover):
        with self.refused(f"cover {cover!r} is not a pair of element names"):
            GradedPoset("p", {BOT: 0, "a": 1, "b": 2, TOP: 3}, [(BOT, "a"), ("a", "b"), cover, ("b", TOP)])

    def test_cover_name_of_another_type(self):
        with self.refused("cover references unknown element 1"):
            GradedPoset("p", {BOT: 0, "a": 1, TOP: 2}, [(BOT, "a"), ("a", 1)])

    def test_list_pairs_are_covers(self):
        ranks = {BOT: 0, "a": 1, TOP: 2}
        assert GradedPoset("p", ranks, [[BOT, "a"], ["a", TOP]]) == GradedPoset("p", ranks, [(BOT, "a"), ("a", TOP)])


class TestArgumentTypes:
    """An argument that does not hash, or a set of names given as an int, is a PosetError naming it; these raised
    a bare TypeError from the memo's key or from iterating the int."""

    refused = staticmethod(TestNameAndCoverTypes.refused)

    def test_semisuspension_tau_name_that_does_not_hash(self, q_poset):
        with self.refused("name ['x'] is not a string"):
            semisuspension(q_poset, ["x"])

    def test_initial_coatom_that_does_not_hash(self, q_poset):
        with self.refused("unknown element ['s1']"):
            initial_boundary_poset(q_poset, ["s1"])

    def test_gamma_members_given_as_an_int(self, q_poset):
        with self.refused("5 is not a collection of element names"):
            partition_module.gamma_poset(q_poset, "s2", 5)

    def test_closure_members_given_as_an_int(self, q_poset):
        with self.refused("5 is not a collection of element names"):
            closure(q_poset, 5)

    def test_the_memo_still_serves_hashable_arguments(self, q_poset):
        assert initial_boundary_poset(q_poset, "s1") is initial_boundary_poset(q_poset, "s1")
        assert semisuspension(q_poset, "t") is semisuspension(q_poset, "t")


class TestIntegerRanks:
    """The name constructor takes only int ranks: a float or a bool rank built a poset that validated but did
    not round-trip (``elem bot 0.0`` fails to parse), and a str rank raised a bare TypeError."""

    @pytest.mark.parametrize("rank", [0.0, False, "0", None])
    def test_bot_rank(self, rank):
        with pytest.raises(PosetError) as err:
            GradedPoset("p", {BOT: rank, TOP: 1}, [(BOT, TOP)])
        assert type(err.value) is PosetError and str(err.value) == f"rank {rank!r} of 'bot' is not an integer"

    @pytest.mark.parametrize("rank", [1.0, True, "1"])
    def test_middle_rank(self, rank):
        with pytest.raises(PosetError, match=re.escape(f"rank {rank!r} of 'a' is not an integer")):
            GradedPoset("p", {BOT: 0, "a": rank, TOP: 2}, [(BOT, "a"), ("a", TOP)])

    def test_int_ranks_round_trip(self):
        p = GradedPoset("p", {BOT: 0, "a": 1, TOP: 2}, [(BOT, "a"), ("a", TOP)])
        assert validate(p) == [] and parse_poset(format_poset(p)) == p


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
# Eulerian posets whose mutated intervals have length 4 to 6
DEEPER_ZOO = [("cube", (4,)), ("cross-polytope", (4,)), ("boolean", (6,))]


def brute_verdicts(p):
    """(Eulerian, semi-Eulerian) from the textbook Möbius recursion on every comparable pair.

    It is ``brute_mobius`` with a table of mu(x, z) per x, filled in (rank, name)
    order, so the deeper posets below stay cheap to check.
    """
    failing = set()
    for x in p.elements():
        mu = {x: 1}
        for y in p.elements():
            if p.less(x, y):
                mu[y] = -sum(m for z, m in mu.items() if p.leq(z, y))
                if mu[y] != (-1) ** (p.rank(y) - p.rank(x)):
                    failing.add((x, y))
    return not failing, not failing - {(p.bot(), p.top())}


def mutations(p, seed):
    """One dropped cover, and one added cover between incomparable elements two or more ranks apart."""
    rng = random.Random(seed)
    covers = p.covers()
    dropped = rng.choice(covers)
    yield GradedPoset(f"{p.name}-{dropped[0]}<{dropped[1]}", p.ranks(), [c for c in covers if c != dropped])
    jumps = [
        (x, y)
        for x in p.elements()
        for y in p.elements()
        if p.rank(y) >= p.rank(x) + 2 and not p.less(x, y)
    ]
    if jumps:
        added = rng.choice(jumps)
        yield GradedPoset(f"{p.name}+{added[0]}<{added[1]}", p.ranks(), covers + [added])


class TestParityAgainstMobius:
    @pytest.mark.parametrize("family,params", SMALL_ZOO)
    def test_zoo_verdicts(self, family, params):
        p = zoo.gen(family, params)
        assert (is_eulerian(p), is_semi_eulerian(p)) == brute_verdicts(p)

    @pytest.mark.parametrize("family,params", SMALL_ZOO + DEEPER_ZOO)
    def test_single_cover_mutations(self, family, params):
        base = zoo.gen(family, params)
        for seed in range(20):
            for p in mutations(base, seed):
                assert (is_eulerian(p), is_semi_eulerian(p)) == brute_verdicts(p), p.name

    def test_an_interval_around_the_skipped_one_is_counted(self):
        # [x, top] has odd length and contains [bot, top], which fails, so it does not follow from its sub-intervals
        atoms = ("a1", "a2", "a3", "a4")
        ranks = {"x": -1, BOT: 0, "c1": 0, "c2": 0, **dict.fromkeys(atoms, 1), TOP: 2}
        covers = [("x", BOT), ("x", "c1"), ("x", "c2"), ("c1", "a1"), ("c1", "a2"), ("c2", "a3"), ("c2", "a4")]
        p = GradedPoset("below-bot", ranks, covers + [(BOT, a) for a in atoms] + [(a, TOP) for a in atoms])
        assert brute_mobius(p, BOT, TOP) != 1 and brute_mobius(p, "x", TOP) != -1
        assert (is_eulerian(p), is_semi_eulerian(p)) == brute_verdicts(p) == (False, False)

    def test_fixtures_cover_all_three_verdicts(self):
        verdicts = {brute_verdicts(zoo.gen(f, params)) for f, params in SMALL_ZOO}
        assert verdicts == {(True, True), (False, True), (False, False)}


class TestMemo:
    """Derived values are memoized on the poset object they come from, or on its structure-table
    entry when they read no names, and never shared mutably."""

    @staticmethod
    def fresh(family="q-polytope", params=()):
        return parse_poset(format_poset(zoo.gen(family, params)))

    def test_second_call_returns_the_same_object(self):
        p = self.fresh()
        gamma = gamma_poset(p, "s2", {"C", "R", "BC", "CR", "QR"})
        assert gamma_poset(p, "s2", frozenset({"C", "R", "BC", "CR", "QR"})) is gamma
        assert gamma_poset(p, "s2", {"BC", "CR", "QR"}) is gamma  # the same closure
        assert initial_boundary_poset(p, "s1") is initial_boundary_poset(p, "s1")
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
        assert validate(p) == [] and is_eulerian(p) and p._cache and p._shared and len(p._table) > 1
        q = parse_poset(format_poset(p))
        assert q == p and q._cache == {} and q._shared == {}
        assert q._table is not p._table and list(q._table) == [(q._ranks, q._down)]  # only its own structure
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

    def test_validate_returns_a_fresh_list_per_call(self):
        p = self.fresh()
        first = validate(p)
        first.append(Violation("junk", p.name, ""))
        second = validate(p)
        assert second == [] and second is not first and validate(p) is not second

    def test_an_invalid_poset_lists_every_violation_after_a_memo_hit(self):
        ranks = {"a": 0, BOT: 0, "x": 1, "z": 1, "y": 2, TOP: 3, "t2": 3}
        p = GradedPoset("bad", ranks, [(BOT, "x"), ("x", TOP), ("a", "y"), ("y", TOP), (BOT, "t2")])
        expected = [
            "VIOLATION bot-count bad rank-0 elements: ['a', 'bot']",
            "VIOLATION top-count bad rank-3 elements: ['t2', 'top']",
            "VIOLATION not-bounded-below z covers nothing",
            "VIOLATION not-bounded-above z covered by nothing",
            "VIOLATION not-graded a<y rank jump 0->2",
            "VIOLATION not-graded bot<t2 rank jump 0->3",
            "VIOLATION not-graded x<top rank jump 1->3",
        ]
        assert [str(v) for v in validate(p)] == expected
        memo = dict(p._cache)
        assert memo  # the verdict is kept
        validate(p).clear()
        assert [str(v) for v in validate(p)] == expected and p._cache == memo

    def test_a_poset_with_a_memo_pickles(self):
        p = self.fresh()
        gamma = gamma_poset(p, "s2", {"BC", "CR", "QR"})
        phi = cd_index(p)
        assert is_eulerian(p) and p._cache and phi in p._shared.values()  # both memos hold values
        for back, back_gamma in (pickle.loads(pickle.dumps((p, gamma))), copy.deepcopy((p, gamma))):
            assert back == p and back_gamma == gamma and is_eulerian(back)
            assert back._shared == p._shared and cd_index(back) == phi
            assert back_gamma._table is back._table  # the family still shares one table
            assert gamma_poset(back, "s2", {"BC", "CR", "QR"}) is back_gamma  # read from the copied memo

    def test_every_memoized_value_is_immutable(self):
        p = self.fresh("torus-fig6")
        contributions(search_se_certificate(p), check=True)
        seen, stack, kinds = set(), [p], set()
        while stack:
            q = stack.pop()
            if id(q) in seen:
                continue
            seen.add(id(q))
            # the closures a structure-table entry shares
            assert {type(getattr(q, f)) for f in ("_ranks", "_down", "_up", "_downset", "_upset")} == {tuple}
            for store in (q._cache, q._shared):
                for value in store.values():
                    for item in value if isinstance(value, tuple) else (value,):
                        # a certificate-level token holds no state: it is compared by identity
                        assert isinstance(item, (bool, int, str, NcPolynomial, GradedPoset, partition_module._Level))
                        kinds.add(type(item))
                        if isinstance(item, GradedPoset):
                            assert store is q._cache  # a poset has names, so it is never shared by structure
                            stack.append(item)
        assert len(seen) > 50 and NcPolynomial in kinds and partition_module._Level in kinds
        assert partition_module._Level.__slots__ == ("__weakref__",)


class TestStructureTable:
    """The posets of one family share the closures and name-free memo of each numbered structure."""

    @staticmethod
    def fresh(family, params=()):
        return parse_poset(format_poset(zoo.gen(family, params)))

    def test_equal_structures_of_one_family_share_closures_and_verdicts(self):
        p = self.fresh("polygon", (6,))
        a, b = initial_boundary_poset(p, "e1"), initial_boundary_poset(p, "e2")
        assert a.elements() != b.elements() and (a._ranks, a._down) == (b._ranks, b._down)
        for field in ("_ranks", "_down", "_up", "_downset", "_upset", "_levels", "_shared"):
            assert getattr(a, field) is getattr(b, field), field
        assert a._cache is not b._cache and a._index is not b._index
        assert is_eulerian(a) and flag_f(a).counts == {frozenset(): 1, frozenset({1}): 2}
        assert set(b._shared) == {("cdposet.poset.is_eulerian", ()), ("cdposet.flags._flag_masks", ())}
        assert is_eulerian(b) is is_eulerian(a) and flag_f(b) == flag_f(a) and cd_index(b) is cd_index(a)

    def test_names_stay_on_the_object(self):
        p = self.fresh("polygon", (6,))
        a, b = initial_boundary_poset(p, "e1"), initial_boundary_poset(p, "e2")
        assert a._shared is b._shared and a.name != b.name
        assert validate(a) == validate(b) == [] and a._cache and b._cache  # each holds its own verdict
        assert semisuspension(a, "t")[0].elements() != semisuspension(b, "t")[0].elements()

    def test_isomorphic_posets_of_two_parses_share_nothing(self):
        p, q = self.fresh("cube", (3,)), self.fresh("cube", (3,))
        assert p == q and p._table is not q._table and p._up is not q._up and p._shared is not q._shared
        assert is_eulerian(p) and p._shared and q._shared == {}
        gp, gq = initial_boundary_poset(p, p.coatoms()[0]), initial_boundary_poset(q, q.coatoms()[0])
        assert gp == gq and gp._table is p._table and gq._table is q._table and gp._downset is not gq._downset

    # family, params, search; then (builds, structures) after the search and after the checked totals,
    # the parity tests of both, the search's Budget.used, and (builds, structures) of the parsed,
    # verified and totalled benchmark certificate
    SHARING = [
        ("polygon", (100,), search_s_certificate, (296, 4), (296, 4), 2, 298, (296, 4)),
        ("cube", (4,), search_s_certificate, (210, 23), (210, 23), 13, 239, (200, 17)),
        ("product", (4, 5), search_se_certificate, (137, 12), (137, 12), 6, 158, (137, 12)),
    ]

    @pytest.mark.parametrize("family, params, search, searched, totalled, parities, nodes, parsed", SHARING)
    def test_builds_and_derivations(
        self, monkeypatch, family, params, search, searched, totalled, parities, nodes, parsed
    ):
        """Search, parse and checked totals build many posets of few structures: each structure is derived
        and tested once (its table entry), however many posets of it are built."""
        p = self.fresh(family, params)
        filled, tested = [], []
        real_fill, real_parity = GradedPoset._fill, poset_module._parity_holds
        monkeypatch.setattr(GradedPoset, "_fill", lambda q, *a: filled.append(1) or real_fill(q, *a))
        monkeypatch.setattr(poset_module, "_parity_holds", lambda *a: tested.append(1) or real_parity(*a))
        budget = Budget()
        cert = search(p, budget)
        assert (len(filled), len(p._table)) == searched and budget.used == nodes
        contributions(cert, check=True)
        assert (len(filled), len(p._table)) == totalled and len(tested) == parities
        q = self.fresh(family, params)
        filled.clear()
        text = (BENCH_CERT_DIR / f"{family}-{'-'.join(map(str, params))}.cert").read_text(encoding="utf-8")
        cert = parse_certificate(text, q)
        assert verify_partition(cert) == []
        contributions(cert, check=True)
        assert (len(filled), len(q._table)) == parsed


class TestDerivedEntries:
    """``cap`` and ``semisuspension`` keep their name-free results in the parent's table entry, and
    ``validate`` keeps a structural verdict there; a repeated derivation only attaches names."""

    @staticmethod
    def recorded_hits(monkeypatch, p, search):
        """(function, parent, args, kwargs, result) of every cap and semisuspension of search and checked totals
        on p that its parent's ``_derived`` already held."""
        hits = []

        def recording(fn, key):
            def wrapped(parent, *args, **kwargs):
                known = key(parent, *args) in parent._derived
                result = fn(parent, *args, **kwargs)
                if known:
                    hits.append((fn, parent, args, kwargs, result))
                return result

            return wrapped

        def cap_key(parent, mask, rank_top):
            return mask, rank_top, parent._index.get(BOT), parent._index.get(TOP)

        def ssusp_key(parent, tau="tau"):
            end = len(parent) - parent._levels[parent.rank_top].bit_count()
            start = end - parent._levels.get(parent.rank_top - 1, 0).bit_count()
            return bisect.bisect_left(parent._elements, tau, start, end)

        monkeypatch.setattr(partition_module, "cap", recording(cap, cap_key))
        monkeypatch.setattr(partition_module, "semisuspension", recording(semisuspension, ssusp_key))
        contributions(search(p), check=True)
        return hits

    @pytest.mark.parametrize(
        "family, params, search",
        [("cube", (4,), search_s_certificate), ("torus-fig12", (), search_se_certificate),
         ("product", (4, 5), search_se_certificate)],
    )
    def test_warm_hits_equal_their_name_built_twins_and_cold_calls(self, monkeypatch, family, params, search):
        p = parse_poset(format_poset(zoo.gen(family, params)))
        hits = self.recorded_hits(monkeypatch, p, search)
        assert {fn for fn, *_ in hits} == {cap, semisuspension} and len(hits) > 20
        for fn, parent, args, kwargs, result in hits:
            q = result[0] if fn is semisuspension else result
            assert_name_built_twin(q)
            cold_parent = GradedPoset(parent.name, parent.ranks(), parent.covers())  # a fresh table
            cold = fn(cold_parent, *args, **kwargs)
            cold_q = cold[0] if fn is semisuspension else cold
            assert cold_q == q and cold_q.name == q.name and q._table is p._table
            for field in CORE_FIELDS:
                assert getattr(q, field) == getattr(cold_q, field), (q.name, field)

    @pytest.mark.parametrize(
        "members, rank_top",
        [({BOT, "s1"}, 4), ({"A", "B", "AB"}, 3), (set(), 3), ({BOT, "A", "B", "AB"}, 2), (None, 5)],
    )
    def test_errors_on_a_warm_table_are_those_of_a_cold_one(self, members, rank_top):
        warm = parse_poset(format_poset(zoo.gen("q-polytope")))
        contributions(search_s_certificate(warm), check=True)
        cold = zoo.gen("q-polytope")
        members = warm.elements() if members is None else members
        messages = []
        for p in (cold, warm, warm):  # the second warm call meets whatever the first one kept
            derived = dict(p._derived)
            with pytest.raises(PosetError) as err:
                cap(p, p._mask(members), rank_top)
            messages.append(f"{type(err.value).__name__}: {err.value}")
            assert p._derived == derived  # an error keeps nothing
        assert len(set(messages)) == 1

    def test_semisuspension_errors_on_a_warm_table_are_those_of_a_cold_one(self):
        warm = parse_poset(format_poset(zoo.gen("q-polytope")))
        contributions(search_s_certificate(warm), check=True)
        gamma = gamma_poset(warm, "s2", {"BC", "CR", "QR"})
        cold_gamma = gamma_poset(zoo.gen("q-polytope"), "s2", {"BC", "CR", "QR"})
        semisuspension(gamma, "t1")
        for tau, error in (("BC", "name 'BC' already present"), ("a b", "name 'a b' cannot be written")):
            for p in (cold_gamma, gamma, gamma):
                with pytest.raises(PosetError, match=re.escape(error)):
                    semisuspension(p, tau)

    @staticmethod
    def renamed(p, name, elems):
        """A poset of p's structure and family with other element names, which must keep the (rank, name) order."""
        assert sorted(elems, key=lambda x: (p._ranks[elems.index(x)], x)) == list(elems)
        return GradedPoset._from_bits(name, tuple(elems), p._table[p._ranks, p._down], p._table)

    def test_bot_and_top_numbers_key_a_cap(self):
        p = GradedPoset("diamond", {BOT: 0, "a": 1, "b": 1, TOP: 2}, [(BOT, "a"), (BOT, "b"), ("a", TOP), ("b", TOP)])
        low_top = self.renamed(p, "low-top", (BOT, "a", TOP, "zz"))  # a rank-1 element named top
        no_bot = self.renamed(p, "no-bot", ("b0", "a", "b", TOP))
        assert cap(p, 0b0111, 3).elements() == (BOT, "a", "b", TOP)
        with pytest.raises(PosetError, match="^cover top top does not go up in rank$"):
            cap(low_top, 0b0111, 3)
        with pytest.raises(PosetError, match="^cap expects a down-closed set containing bot$"):
            cap(no_bot, 0b0111, 3)
        assert cap(p, 0b0111, 3)._downset is cap(p, 0b0111, 3)._downset

    def test_misnamed_posets_of_one_structure_get_their_own_violations(self):
        p = GradedPoset("diamond", {BOT: 0, "a": 1, "b": 1, TOP: 2}, [(BOT, "a"), (BOT, "b"), ("a", TOP), ("b", TOP)])
        assert validate(p) == []
        posets = [
            self.renamed(p, "low", ("b0", "a", "b", TOP)),
            self.renamed(p, "high", (BOT, "a", "b", "t")),
            self.renamed(p, "both", ("b0", "a", "b", "t")),
            self.renamed(p, "fine", (BOT, "x", "y", TOP)),
        ]
        assert {id(q._shared) for q in posets} == {id(p._shared)}
        assert [[str(v) for v in validate(q)] for q in posets] == [
            ["VIOLATION bot-name low rank-0 element is 'b0', expected 'bot'"],
            ["VIOLATION top-name high maximum is 't', expected 'top'"],
            ["VIOLATION bot-name both rank-0 element is 'b0', expected 'bot'",
             "VIOLATION top-name both maximum is 't', expected 'top'"],
            [],
        ]
        assert ("cdposet.poset._well_formed", ()) in p._shared

    @staticmethod
    def per_object(q, monkeypatch):
        """validate(q) with every check run on the poset itself, on a fresh twin."""
        with monkeypatch.context() as m:
            m.setattr(poset_module, "_well_formed", lambda p: False)
            return validate(GradedPoset(q.name, q.ranks(), q.covers()))

    @staticmethod
    def misshapen(p):
        """p with a second rank-0 element, with a second top-rank element, with an element below bot,
        and without bot; each keeps the covers of the element it copies."""
        ranks, covers = p.ranks(), p.covers()
        yield GradedPoset(f"{p.name}+b", {**ranks, "bot.2": 0}, covers + [("bot.2", y) for y in p.upper_covers(BOT)])
        top2 = [(x, "top.2") for x in p.lower_covers(TOP)]
        yield GradedPoset(f"{p.name}+t", {**ranks, "top.2": p.rank_top}, covers + top2)
        yield GradedPoset(f"{p.name}+m", {**ranks, "bot.-1": -1}, covers + [("bot.-1", BOT)])
        del ranks[BOT]
        yield GradedPoset(f"{p.name}-b", ranks, [c for c in covers if BOT not in c])

    @pytest.mark.parametrize("family,params", SMALL_ZOO + DEEPER_ZOO)
    def test_validate_agrees_with_the_per_object_checks(self, monkeypatch, family, params):
        base = zoo.gen(family, params)
        posets = [base, *self.misshapen(base)] + [q for seed in range(20) for q in mutations(base, seed)]
        if base.rank_top >= 2:
            posets.append(semisuspension(base)[0])
        assert any(validate(q) for q in posets[1:])
        for q in posets:
            assert validate(q) == self.per_object(q, monkeypatch), q.name


# every field that the bitset core sets, besides the name and the memo
CORE_FIELDS = ("_elements", "_index", "_ranks", "_up", "_down", "_downset", "_upset", "_levels", "rank_top")


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


# the certificates of the benchmark, read only: file stem -> family and parameters of the poset
BENCH_CERT_DIR = Path(__file__).resolve().parent.parent / "bench_cdposet" / "certs"
BENCH_CERTS = {
    "q-polytope": ("q-polytope", ()),
    "torus-fig6": ("torus-fig6", ()),
    "torus-fig12": ("torus-fig12", ()),
    "polygon-100": ("polygon", (100,)),
    "cube-4": ("cube", (4,)),
    "sphere2cells-8": ("sphere2cells", (8,)),
    "connected-sum-4": ("connected-sum", (4,)),
    "torus-7vertex": ("torus-7vertex", ()),
    "product-4-5": ("product", (4, 5)),
    "icosahedron": ("icosahedron", ()),
}


def level_posets(cert):
    """The poset of every sub-certificate below cert."""
    out, stack = [], [cert]
    while stack:
        level = stack.pop()
        for sub in (level.subcert_initial, *level.subcerts.values()):
            if sub is not None:
                out.append(sub.poset)
                stack.append(sub)
    return out


class TestCertificateSubposets:
    """Every sub-poset of a certificate, capped or suspended bitset to bitset, equals its name-built twin."""

    @staticmethod
    def assert_twins(cert):
        assert verify_partition(cert) == []
        contributions(cert, check=True)
        derived = memo_tree(cert.poset)
        levels = level_posets(cert)
        assert levels and {id(q) for q in levels} <= {id(q) for q in derived}
        for q in derived:
            assert_name_built_twin(q)

    @pytest.mark.parametrize("name", sorted(BENCH_CERTS))
    def test_benchmark_certificates(self, name):
        p = parse_poset(format_poset(zoo.gen(*BENCH_CERTS[name])))
        self.assert_twins(parse_certificate((BENCH_CERT_DIR / f"{name}.cert").read_text(encoding="utf-8"), p))

    @pytest.mark.parametrize(
        "family, params, search", [("cube", (4,), search_s_certificate), ("product", (4, 5), search_se_certificate)]
    )
    def test_searched_certificates(self, family, params, search):
        self.assert_twins(search(parse_poset(format_poset(zoo.gen(family, params)))))


def ordinary_blocks(cert):
    """(gamma, sub-certificate) of every ordinary block at every level of cert."""
    out, stack = [], [cert]
    while stack:
        level = stack.pop()
        stack.extend(sub for sub in (level.subcert_initial, *level.subcerts.values()) if sub is not None)
        for sigma in level.ordinary():
            for _, part, key in level._subclasses(sigma):
                out.append((gamma_poset(level.poset, sigma, part), level.subcerts[key]))
    return out


class TestOrdinaryBlockBoundary:
    """An ordinary block's boundary, capped one rank below its gamma, is the capped closure of tau in the
    block's sub-certificate: the totals read its cd-index there, cross-checked one level down."""

    @staticmethod
    def checked_blocks(cert) -> int:
        """The number of ordinary blocks of cert, after checking each one's boundary."""
        assert verify_partition(cert) == []
        blocks = ordinary_blocks(cert)
        for gamma, sub in blocks:
            bnd = cap(gamma, poset_module._boundary(gamma), gamma.rank_top - 1)
            initial = initial_boundary_poset(sub.poset, sub.initial)
            assert bnd == initial and bnd._shared is initial._shared, gamma.name
        return len(blocks)

    @pytest.mark.parametrize("name", sorted(BENCH_CERTS))
    def test_benchmark_certificates(self, name):
        p = parse_poset(format_poset(zoo.gen(*BENCH_CERTS[name])))
        text = (BENCH_CERT_DIR / f"{name}.cert").read_text(encoding="utf-8")
        # every class of a sphere2cells certificate is initial or terminal, at every level
        assert (self.checked_blocks(parse_certificate(text, p)) == 0) == name.startswith("sphere2cells")

    @pytest.mark.parametrize(
        "family, params, search",
        [
            ("simplex-boundary", (5,), search_s_certificate),
            ("cross-polytope", (4,), search_s_certificate),
            ("connected-sum", (3,), search_s_certificate),
            ("torus-7vertex", (), search_se_certificate),
            ("product", (3, 5), search_se_certificate),
        ],
    )
    def test_searched_certificates(self, family, params, search):
        assert self.checked_blocks(search(zoo.gen(family, params))) > 0


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

    @pytest.mark.parametrize(
        "members, rank_top, error",
        [
            ({BOT, "s1"}, 4, "PosetError: cap expects a down-closed set containing bot"),
            ({"A", "B", "AB"}, 3, "PosetError: cap expects a down-closed set containing bot"),
            (set(), 3, "PosetError: cap expects a down-closed set containing bot"),
            ({BOT, "A", "B", "AB"}, 2, "RankTooLow: rank-2 cap over elements ['AB']"),
            (None, 5, "PosetError: cover top top does not go up in rank"),
        ],
    )
    def test_cap_by_bitset_raises_as_cap_by_names(self, q_poset, members, rank_top, error):
        members = q_poset.elements() if members is None else members
        for form in (members, q_poset._mask(members)):
            with pytest.raises(PosetError) as err:
                cap(q_poset, form, rank_top)
            assert f"{type(err.value).__name__}: {err.value}" == error

    @pytest.mark.parametrize("mask", [-1, -6, 1 << 40])
    def test_cap_rejects_a_bitset_outside_the_poset(self, q_poset, mask):
        with pytest.raises(PosetError, match=f"bitset {mask} is not a set of elements of q-polytope"):
            cap(q_poset, mask, 3)

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
        assert_name_built_twin(p)
        cert = search_s_certificate(p) if is_eulerian(p) else search_se_certificate(p)
        assert cert is not None
        contributions(cert, check=True)
        derived = memo_tree(p)
        assert len(derived) > 5
        for q in derived:
            assert_name_built_twin(q)

    @pytest.mark.parametrize("family,params", [("polygon", (5,)), ("cube", (3,)), ("torus-fig6", ()), ("product", (3, 4))])
    @pytest.mark.parametrize("layout", ["reversed", "duplicate covers", "interleaved", "comments"])
    def test_parsed_layouts_match_name_built_posets(self, family, params, layout):
        q = zoo.gen(family, params)
        head = f"poset {q.name}\nrank {q.rank_top}\n"
        elems = [f"elem {x} {q.rank(x)}\n" for x in q.elements()]
        covers = [f"cover {lo} {hi}\n" for lo, hi in q.covers()]
        text = {
            "reversed": head + "".join(reversed(elems)) + "".join(reversed(covers)),
            "duplicate covers": head + "".join(elems) + "".join(covers + covers[::2]),
            "interleaved": head + "".join(e + "".join(f"cover {lo} {x}\n" for lo in q.lower_covers(x))
                                          for x, e in zip(q.elements(), elems)),
            "comments": "# c\n" + head.replace("\n", " # c\n") + "".join(e + "#\n" for e in elems) + "".join(covers),
        }[layout]
        p = parse_poset(text)
        assert_name_built_twin(p)
        assert p == q and p.name == q.name

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

    def test_ranks_are_the_ranks_given_by_name(self):
        given = {TOP: 2, "b": 1, BOT: 0, "a": 1}
        p = GradedPoset("diamond", given, [(BOT, "a"), (BOT, "b"), ("a", TOP), ("b", TOP)])
        assert p.ranks() == given and list(p.ranks()) == [BOT, "a", "b", TOP]
        assert parse_poset(format_poset(p)).ranks() == given
        text = format_poset(zoo.gen("torus-fig6"))
        declared = {f[1]: int(f[2]) for f in map(str.split, text.splitlines()) if f[0] == "elem"}
        assert parse_poset(text).ranks() == declared

    @pytest.mark.parametrize("build", [
        lambda: zoo.gen("q-polytope"),
        lambda: parse_poset(format_poset(zoo.gen("cube", (3,)))),
        lambda: cap(zoo.gen("q-polytope"), closure(zoo.gen("q-polytope"), ["s1"]) - {"s1"}, 3),
        lambda: semisuspension(zoo.gen("torus-fig6"))[0],
    ])
    def test_a_pickled_poset_is_equal_and_keeps_its_name(self, build):
        p = build()
        back = pickle.loads(pickle.dumps(p))
        assert back == p and back.name == p.name
        assert_name_built_twin(back)

    def test_search_builds_no_poset_from_names(self, count_inits):
        p = zoo.gen("cube", (4,))
        count_inits.clear()
        assert search_s_certificate(p) is not None
        assert count_inits == []

    def test_verify_and_totals_after_parse_build_no_poset_from_names(self, count_inits, torus12_cert):
        text, poset_text = format_certificate(torus12_cert), format_poset(torus12_cert.poset)
        cert = parse_certificate(text, parse_poset(poset_text))
        assert len(count_inits) == 0
        count_inits.clear()
        assert verify_partition(cert) == []
        contributions(cert, check=True)
        assert count_inits == []
