"""Generators and transcribed fixtures: published invariants hold at load."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdposet import zoo
from cdposet.flags import cd_index, euler_characteristic, semi_cd_index
from cdposet.ncpoly import CD, NcPolynomial
from cdposet.partition import NotSimplicial
from cdposet.poset import PosetError, is_eulerian, is_semi_eulerian, validate


class TestGenerators:
    def test_all_families_validate(self):
        samples = {
            "polygon": (5,),
            "simplex-boundary": (3,),
            "boolean": (4,),
            "cube": (3,),
            "cross-polytope": (3,),
            "octahedron": (),
            "icosahedron": (),
            "sphere2cells": (2,),
            "discrete-points": (4,),
            "point": (),
            "product": (3, 4),
            "connected-sum": (3,),
            "torus-7vertex": (),
            "q-polytope": (),
            "torus-fig6": (),
            "torus-fig12": (),
            "fig13-nonsemi": (),
        }
        assert sorted(samples) == zoo.families()
        for family, params in samples.items():
            assert validate(zoo.gen(family, params)) == [], family

    def test_sphere2cells_profile(self):
        for d in range(9):
            p = zoo.gen("sphere2cells", (d,))
            assert all(len(p.elements_of_rank(r)) == 2 for r in range(1, d + 2))
            assert cd_index(p) == NcPolynomial(CD, {"c" * (d + 1): 1})

    def test_sphere2cells_rank2_is_diamond(self):
        p = zoo.gen("sphere2cells", (0,))
        assert p.rank_top == 2 and cd_index(p) == NcPolynomial(CD, {"c": 1})

    def test_polygon4_square(self):
        assert cd_index(zoo.gen("polygon", (4,))) == NcPolynomial(CD, {"cc": 1, "d": 2})

    def test_q_polytope_profile(self, q_poset):
        assert len(q_poset.coatoms()) == 7
        assert is_eulerian(q_poset)
        assert cd_index(q_poset) == NcPolynomial(CD, {"ccc": 1, "cd": 5, "dc": 5})

    def test_unknown_family(self):
        with pytest.raises(zoo.UnknownFamily):
            zoo.gen("dodecahedron")
        with pytest.raises(zoo.UnknownFamily):
            zoo.fixture_spec("dodecahedron")

    def test_bad_params(self):
        with pytest.raises(zoo.BadParams):
            zoo.gen("polygon", ())
        with pytest.raises(zoo.BadParams):
            zoo.gen("polygon", (1,))
        for lookup in (zoo.fixture_spec, zoo.gen):  # one check of the number of parameters for both
            for params in [(3, 5), (1,)]:
                with pytest.raises(zoo.BadParams, match=rf"^q-polytope takes 0 parameter\(s\), got {len(params)}$"):
                    lookup("q-polytope", params)
        for family, low in [
            ("simplex-boundary", 0), ("boolean", 0), ("cube", 0), ("cross-polytope", 0), ("sphere2cells", -1),
            ("discrete-points", 0),
        ]:
            with pytest.raises(zoo.BadParams, match=f"^{family} needs .*, got {low}$"):
                zoo.gen(family, (low,))

    def test_boolean_lattices_eulerian(self):
        for n in range(2, 6):
            assert is_eulerian(zoo.gen("boolean", (n,)))


def deep_faces(depth: int) -> dict[str, list[str]]:
    """Two cells per rank, each covering both cells one rank below, listed bottom-up."""
    return {f"x{i}{s}": [f"x{i-1}a", f"x{i-1}b"] if i else [] for i in range(depth) for s in "ab"}


class TestFaceTable:
    def test_deeper_than_the_recursion_limit(self, shallow_stack):
        p = zoo._facet_poset("deep", 2001, deep_faces(2000))
        assert p.rank("x1999b") == 2000 and p.coatoms() == ["x1999a", "x1999b"]
        assert p.lower_covers("x1000a") == ("x999a", "x999b")
        assert validate(p) == []

    def test_a_face_listed_before_its_entry_fails_at_once(self, shallow_stack):
        top_down = dict(reversed(deep_faces(2000).items()))
        with pytest.raises(KeyError, match="x1998a"):
            zoo._facet_poset("top-down", 2001, top_down)

    def test_an_empty_table_is_the_rank_1_boolean_lattice(self):
        p = zoo._facet_poset("empty", 1, {})
        assert p.elements() == ("bot", "top") and p.covers() == [("bot", "top")]


class TestTranscribedFixtures:
    def test_torus_fig6_invariants(self, torus6):
        assert euler_characteristic(torus6) == 0
        assert is_semi_eulerian(torus6) and not is_eulerian(torus6)
        assert semi_cd_index(torus6) == NcPolynomial(CD, {"ccc": 1, "cd": 13, "dc": 7})
        assert len(torus6.coatoms()) == 13

    def test_torus_fig12_invariants(self, torus12):
        assert euler_characteristic(torus12) == 0
        assert semi_cd_index(torus12) == NcPolynomial(CD, {"ccc": 1, "cd": 9, "dc": 11})
        assert len(torus12.coatoms()) == 9

    def test_fig13_not_semi_eulerian(self):
        p = zoo.gen("fig13-nonsemi")
        assert euler_characteristic(p) == 0
        assert not is_semi_eulerian(p)
        assert len(p.coatoms()) == 10 and len(p.elements_of_rank(1)) == 11

    def test_certificates_published_only(self):
        with pytest.raises(zoo.NoPublishedCertificate):
            zoo.fixture_certificate("polygon", (4,))

    def test_certificate_params_checked_as_gen(self):
        with pytest.raises(zoo.BadParams):
            zoo.gen("q-polytope", (3,))
        with pytest.raises(zoo.BadParams):
            zoo.fixture_certificate("q-polytope", (3,))

    def test_published_certificate_of_a_built_poset(self, torus6, torus6_cert):
        assert zoo.published_certificate("torus-fig6", torus6) == torus6_cert
        with pytest.raises(zoo.NoPublishedCertificate):
            zoo.published_certificate("polygon", zoo.gen("polygon", (4,)))
        with pytest.raises(PosetError, match="^the published certificate of q-polytope does not fit torus-fig6: "):
            zoo.published_certificate("q-polytope", torus6)

    def test_fixture_spec_provenance(self):
        spec = zoo.fixture_spec("torus-fig6")
        assert spec.family == "torus-fig6" and "transcribed" in spec.provenance
        assert zoo.fixture_spec("polygon", (4,)).provenance == "generator"


class TestRandomEulerian:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_any_seed_validates(self, seed):
        assert validate(zoo.random_eulerian_small(seed)) == []

    def test_deterministic_per_seed(self):
        a, b = zoo.random_eulerian_small(11), zoo.random_eulerian_small(11)
        assert a == b

    def test_sample_is_eulerian(self):
        for seed in range(25):
            p = zoo.random_eulerian_small(seed)
            assert validate(p) == []
            assert is_eulerian(p), p.name

    def test_max_rank_respected(self):
        for seed in range(20):
            assert zoo.random_eulerian_small(seed, max_rank=3).rank_top <= 3
        with pytest.raises(zoo.BadParams):
            zoo.random_eulerian_small(0, max_rank=6)

    @pytest.mark.parametrize("max_rank", [-1, 0, 1, 6])
    def test_max_rank_outside_2_to_5_rejected(self, max_rank):
        with pytest.raises(zoo.BadParams, match=f"got {max_rank}"):
            zoo.random_eulerian_small(0, max_rank=max_rank)

    def test_max_rank_bounds_accepted(self):
        for seed in range(10):
            assert zoo.random_eulerian_small(seed, max_rank=2).rank_top == 2
            assert 2 <= zoo.random_eulerian_small(seed, max_rank=5).rank_top <= 5


class TestShellingRestrictions:
    def test_first_restriction_empty_last_full(self):
        p = zoo.gen("simplex-boundary", (4,))
        pairs = zoo.shelling_restrictions(p, sorted(p.coatoms()))
        assert pairs[0][0] == "bot"
        assert pairs[-1][0] == pairs[-1][1]

    def test_h_vector_counts(self):
        # restriction-face sizes of a shelling enumerate the h-vector
        p = zoo.gen("simplex-boundary", (3,))
        pairs = zoo.shelling_restrictions(p, sorted(p.coatoms()))
        sizes = sorted(0 if r == "bot" else p.rank(r) for r, _ in pairs)
        assert sizes == [0, 1, 2, 3]

    def test_a_facet_that_is_not_a_simplex_is_named(self):
        # s1 of the q-polytope is a square; its restriction face is undefined
        p = zoo.gen("q-polytope")
        with pytest.raises(NotSimplicial, match="facet 's1' is not a simplex") as err:
            zoo.shelling_restrictions(p, [f"s{i}" for i in range(1, 8)])
        assert isinstance(err.value, PosetError)
