"""Certificates: verification, contributions, searches, conversions, file IO."""

from __future__ import annotations

import itertools
import random
from dataclasses import replace

import pytest

from cdposet import partition, zoo
from cdposet.flags import cd_index, semi_cd_index
from cdposet.ncpoly import CD, NcPolynomial
from cdposet.partition import (
    Budget,
    BudgetExhausted,
    CertificateInvalid,
    CertificateParseError,
    FailureReport,
    NegativeCoefficient,
    NotAPartition,
    NotSimplicial,
    RankNotThree,
    SEPartitionCert,
    SPartitionCert,
    cd_word_multiset,
    check_reverse_partition,
    contributions_s,
    contributions_se,
    format_certificate,
    gamma_poset,
    order_to_s_certificate,
    parse_certificate,
    product_se_partition,
    search_s_certificate,
    search_se_certificate,
    simplicial_partition_to_s_certificate,
    verify_s_partition,
    verify_se_partition,
)
from cdposet.poset import BOT, PosetError, boundary_set, parse_poset


def poly(terms):
    return NcPolynomial(CD, terms)


def assert_nonnegative(cm):
    cd_word_multiset(cm)  # raises NegativeCoefficient on any negative entry


class TestVerifyS:
    def test_q_certificate_clean(self, q_cert):
        assert verify_s_partition(q_cert) == []

    def test_moved_vertex_detected(self, q_poset, q_cert):
        classes = dict(q_cert.classes)
        classes["s2"] = classes["s2"] - {"C"}
        classes["s3"] = classes["s3"] | {"C"}
        bad = SPartitionCert(q_poset, classes, q_cert.initial, q_cert.terminal,
                             q_cert.subcert_initial, q_cert.subcerts)
        codes = {v.code for v in verify_s_partition(bad)}
        assert codes & {"class-not-in-closure", "non-disjoint-boundary", "gamma-decomposition"}

    def test_diamond_certificate(self):
        cert = search_s_certificate(zoo.gen("sphere2cells", (0,)))
        assert verify_s_partition(cert) == []
        assert cert.classes[cert.initial] == {BOT, cert.initial}
        assert cert.classes[cert.terminal] == {cert.terminal}

    def test_non_eulerian_rejected(self, torus6, q_cert):
        bad = SPartitionCert(torus6, {}, None, None, None, {})
        assert any(v.code in ("not-eulerian", "class-keys") for v in verify_s_partition(bad))

    def test_rank_one_base_case(self):
        chain = zoo.gen("boolean", (1,))
        assert verify_s_partition(SPartitionCert(chain, {}, None, None, None, {})) == []
        cm = contributions_s(SPartitionCert(chain, {}, None, None, None, {}))
        assert cm.per_coatom == {} and cm.total == NcPolynomial.unit(CD)


class TestVerifySE:
    def test_torus_fig6_clean(self, torus6_cert):
        assert verify_se_partition(torus6_cert) == []

    def test_discrete_points(self):
        cert = search_se_certificate(zoo.gen("discrete-points", (6,)))
        assert verify_se_partition(cert) == []
        assert len(cert.singletons) == 5

    def test_non_semi_eulerian_rejected(self):
        p = zoo.gen("fig13-nonsemi")
        bad = SEPartitionCert(p, {}, None, frozenset(), {}, None, {})
        assert any(v.code == "not-semi-eulerian" for v in verify_se_partition(bad))

    def test_undecomposed_two_component_class(self, torus6, torus6_cert):
        merged = torus6_cert.subclass_decomp["F22"]
        assert len(merged) == 2
        decomp = dict(torus6_cert.subclass_decomp)
        decomp["F22"] = (merged[0] | merged[1],)
        subcerts = {k: v for k, v in torus6_cert.subcerts.items() if k[0] != "F22"}
        subcerts[("F22", 1)] = torus6_cert.subcerts[("F22", 1)]
        bad = SEPartitionCert(torus6, dict(torus6_cert.classes), torus6_cert.initial,
                              torus6_cert.singletons, decomp, torus6_cert.subcert_initial, subcerts)
        codes = {v.code for v in verify_se_partition(bad)}
        assert "gamma-not-near-eulerian" in codes


class TestContributionsS:
    def test_q_per_coatom_table(self, q_cert, q_poset):
        cm = contributions_s(q_cert)
        assert cm.per_coatom["s1"] == poly({"ccc": 1, "dc": 2})
        assert cm.per_coatom["s2"] == poly({"cd": 1, "dc": 2})
        for s in ("s3", "s4", "s6"):
            assert cm.per_coatom[s] == poly({"cd": 1})
        assert cm.per_coatom["s5"] == poly({"cd": 1, "dc": 1})
        assert cm.per_coatom["s7"].is_zero()
        assert cm.total == cd_index(q_poset)
        assert_nonnegative(cm)

    def test_diamond(self):
        cert = search_s_certificate(zoo.gen("sphere2cells", (0,)))
        cm = contributions_s(cert)
        assert cm.per_coatom[cert.initial] == poly({"c": 1})
        assert cm.per_coatom[cert.terminal].is_zero()

    def test_two_cell_sphere_rank_five(self):
        cert = search_s_certificate(zoo.gen("sphere2cells", (4,)))
        cm = contributions_s(cert)
        assert cm.per_coatom[cert.initial] == poly({"ccccc": 1})
        assert cm.per_coatom[cert.terminal].is_zero()

    def test_invalid_certificate_raises(self, q_poset, q_cert):
        classes = dict(q_cert.classes)
        classes["s7"] = classes["s7"] | {"CD"}
        classes["s6"] = classes["s6"] - {"CD"}
        bad = SPartitionCert(q_poset, classes, q_cert.initial, q_cert.terminal,
                             q_cert.subcert_initial, q_cert.subcerts)
        with pytest.raises(CertificateInvalid):
            contributions_s(bad)

    def test_boundary_subcertificates_verify(self, q_cert):
        # the capped boundary of every ordinary class is itself certified
        for sigma in q_cert.ordinary():
            sub = q_cert.subcerts[sigma]
            assert sub.subcert_initial is not None
            assert verify_s_partition(sub.subcert_initial) == []


class TestContributionsSE:
    def test_torus_fig6_table(self, torus6_cert, torus6):
        cm = contributions_se(torus6_cert)
        expected = {
            "F02": poly({"ccc": 1, "dc": 2}),
            "U12": poly({"cd": 1, "dc": 1}),
            "L12": poly({"cd": 1, "dc": 1}),
            "F22": poly({"cd": 2}),
            "U01": poly({"cd": 1, "dc": 1}),
            "L01": poly({"cd": 1, "dc": 1}),
            "F11": poly({"cd": 1, "dc": 1}),
            "F20": NcPolynomial.zero(CD),
            "F00": poly({"cd": 2}),
            "U10": poly({"cd": 1}),
            "L10": poly({"cd": 1}),
            "U21": poly({"cd": 1}),
            "L21": poly({"cd": 1}),
        }
        assert cm.per_coatom == expected
        assert cm.total == semi_cd_index(torus6)
        assert_nonnegative(cm)

    def test_torus_fig12_table(self, torus12_cert, torus12):
        cm = contributions_se(torus12_cert)
        assert cm.per_coatom["OC"] == poly({"ccc": 1, "dc": 6})
        assert cm.per_coatom["PA"] == poly({"cd": 1, "dc": 3})
        assert cm.per_coatom["QF"].is_zero()
        assert cm.total == poly({"ccc": 1, "cd": 9, "dc": 11}) == semi_cd_index(torus12)
        assert_nonnegative(cm)


class TestCdWordMultiset:
    def test_q_entry(self, q_cert):
        words = cd_word_multiset(contributions_s(q_cert))
        assert words["s2"] == {"cd": 1, "dc": 2}
        assert sum(words["s7"].values()) == 0
        total = sum((w for w in words.values()), start=type(words["s2"])())
        assert sum(total.values()) == 11

    def test_negative_rejected(self, q_cert):
        from cdposet.partition import ContributionMap

        bad = ContributionMap({"x": poly({"cd": -1})}, poly({"cd": -1}))
        with pytest.raises(NegativeCoefficient):
            cd_word_multiset(bad)


class TestOrderConversion:
    def test_q_shelling_matches_fixture(self, q_poset, q_cert):
        cert = order_to_s_certificate(q_poset, [f"s{i}" for i in range(1, 8)])
        assert isinstance(cert, SPartitionCert)
        assert cert.classes == q_cert.classes

    def test_simplex_boundary_any_order(self):
        p = zoo.gen("simplex-boundary", (3,))
        for order in itertools.permutations(sorted(p.coatoms())):
            cert = order_to_s_certificate(p, list(order))
            assert isinstance(cert, SPartitionCert), (order, cert)

    def test_larger_simplex_random_orders(self):
        rng = random.Random(7)
        for n in (4, 5):
            p = zoo.gen("simplex-boundary", (n,))
            order = sorted(p.coatoms())
            rng.shuffle(order)
            cert = order_to_s_certificate(p, order)
            assert isinstance(cert, SPartitionCert)
            assert contributions_s(cert, check=False).total == cd_index(p)

    def test_torus_rejected(self, torus6):
        report = order_to_s_certificate(torus6, sorted(torus6.coatoms()))
        assert isinstance(report, FailureReport) and report.code == "not-eulerian"

    def test_connected_sum_glue_order(self):
        p = zoo.gen("connected-sum", (3,))
        m_side = sorted(c for c in p.coatoms() if not c.startswith("q."))
        n_side = sorted(c for c in p.coatoms() if c.startswith("q."))
        cert = order_to_s_certificate(p, m_side + n_side)
        assert isinstance(cert, SPartitionCert)
        assert contributions_s(cert).total == cd_index(p)


class TestSimplicialConversion:
    def test_simplex_boundary_with_shelling_restrictions(self):
        p = zoo.gen("simplex-boundary", (4,))
        pairs = zoo.shelling_restrictions(p, sorted(p.coatoms()))
        cert = simplicial_partition_to_s_certificate(p, pairs)
        assert isinstance(cert, SPartitionCert)
        assert verify_s_partition(cert) == []
        assert contributions_s(cert, check=False).total == cd_index(p)

    def test_missing_empty_restriction(self):
        p = zoo.gen("simplex-boundary", (3,))
        pairs = zoo.shelling_restrictions(p, sorted(p.coatoms()))
        # replace the empty restriction by a vertex of its facet
        bad = [
            (next(a for a in p.elements_of_rank(1) if p.leq(a, f)) if r == BOT else r, f)
            for r, f in pairs
        ]
        with pytest.raises(NotAPartition):
            simplicial_partition_to_s_certificate(p, bad)

    def test_non_simplicial_rejected(self, q_poset):
        with pytest.raises(NotSimplicial):
            simplicial_partition_to_s_certificate(q_poset, [(BOT, s) for s in q_poset.coatoms()])

    def test_semi_eulerian_fixture_routed_to_se(self):
        p = zoo.gen("torus-7vertex")
        order = sorted(p.coatoms())
        try:
            pairs = zoo.shelling_restrictions(p, order)
            outcome = simplicial_partition_to_s_certificate(p, pairs)
        except NotAPartition:
            return  # restriction faces of a non-shelling need not partition
        assert isinstance(outcome, FailureReport)
        assert outcome.code == "not-eulerian"


class TestSearch:
    def test_diamond_unique(self):
        cert = search_s_certificate(zoo.gen("sphere2cells", (0,)))
        assert cert is not None and verify_s_partition(cert) == []

    def test_polygons(self):
        for n in range(3, 9):
            cert = search_s_certificate(zoo.gen("polygon", (n,)))
            assert cert is not None
            assert contributions_s(cert, check=False).total == poly({"cc": 1, "d": n - 2})

    def test_q_polytope(self, q_poset):
        cert = search_s_certificate(q_poset)
        assert contributions_s(cert).total == poly({"ccc": 1, "cd": 5, "dc": 5})

    def test_budget_exhaustion(self, q_poset):
        with pytest.raises(BudgetExhausted):
            search_s_certificate(q_poset, budget=3)

    def test_zero_budget(self, q_poset, torus6):
        assert Budget.of(0).limit == 0
        with pytest.raises(BudgetExhausted):
            search_s_certificate(q_poset, budget=0)
        with pytest.raises(BudgetExhausted):
            search_se_certificate(torus6, budget=0)

    def test_not_eulerian_precondition(self, torus6):
        with pytest.raises(PosetError):
            search_s_certificate(torus6)

    def test_assignment_fallback_agrees_with_order_search(self):
        from cdposet.partition import Budget, _search_s_assignments

        p = zoo.gen("polygon", (4,))
        cert = _search_s_assignments(p, Budget(10**6), first=None)
        assert cert is not None and verify_s_partition(cert) == []
        assert contributions_s(cert, check=False).total == poly({"cc": 1, "d": 2})

    def test_se_torus(self, torus6):
        cert = search_se_certificate(torus6)
        assert cert is not None
        assert contributions_se(cert, check=False).total == semi_cd_index(torus6)

    def test_se_discrete_points(self):
        cert = search_se_certificate(zoo.gen("discrete-points", (9,)))
        assert cert is not None
        assert contributions_se(cert, check=False).total == poly({"c": 1})

    def test_se_pseudomanifolds(self):
        for fam in ("octahedron", "icosahedron", "torus-7vertex"):
            p = zoo.gen(fam)
            cert = search_se_certificate(p)
            assert cert is not None, fam
            cm = contributions_se(cert, check=False)
            assert cm.total == semi_cd_index(p)
            assert_nonnegative(cm)


class TestProductSE:
    def test_polygon33(self, polygon3_cert):
        other = search_s_certificate(zoo.gen("polygon", (3,)))
        cert = product_se_partition(polygon3_cert, other)
        assert verify_se_partition(cert) == []
        assert contributions_se(cert, check=False).total == poly({"ccc": 1, "cd": 9, "dc": 7})

    def test_polygon43(self, polygon3_cert):
        cert4 = search_s_certificate(zoo.gen("polygon", (4,)))
        cert = product_se_partition(cert4, polygon3_cert)
        assert verify_se_partition(cert) == []
        assert contributions_se(cert, check=False).total == semi_cd_index(cert.poset)

    def test_rank_not_three(self, polygon3_cert, q_poset):
        qc = search_s_certificate(q_poset)
        with pytest.raises(RankNotThree):
            product_se_partition(qc, polygon3_cert)


class TestReversePartition:
    def test_q_fixture(self, q_cert):
        ok, assignment = check_reverse_partition(q_cert)
        assert ok
        assert assignment[()] == q_cert.terminal
        # every assigned chain avoids rank d and gains a coatom strictly above nothing in it
        p = q_cert.poset
        for chain, sigma in assignment.items():
            assert all(p.rank(x) < p.rank_top - 1 for x in chain)
            assert sigma in p.coatoms()

    def test_diamond(self):
        cert = search_s_certificate(zoo.gen("sphere2cells", (0,)))
        ok, assignment = check_reverse_partition(cert)
        assert ok and assignment == {(): cert.terminal}

    def test_probe_on_polygon_corpus(self):
        # empirical record: every order-induced polygon certificate is reversible
        for n in (3, 4, 5, 6):
            cert = search_s_certificate(zoo.gen("polygon", (n,)))
            ok, _ = check_reverse_partition(cert)
            assert ok is True


class TestMiddleChains:
    """Chains of the poset containing an ordinary coatom, with the remainder in
    the class boundary, biject (by deleting the coatom) with boundary chains."""

    def test_bijection_counts(self, q_cert, torus6_cert):
        for sigma in q_cert.ordinary():
            self._check_one(q_cert.poset, sigma, q_cert.classes[sigma] - {sigma})
        for (sigma, j), _sub in sorted(torus6_cert.subcerts.items()):
            part = torus6_cert.subclass_decomp[sigma][j - 1]
            self._check_one(torus6_cert.poset, sigma, part)

    def _check_one(self, p, sigma, members):
        gamma = gamma_poset(p, sigma, members)
        bdry = sorted(boundary_set(gamma) - {BOT}, key=lambda x: (p.rank(x), x))
        boundary_chains = self._chains(p, bdry, require=None)
        middle_chains = self._chains(p, bdry + [sigma], require=sigma)
        assert middle_chains == boundary_chains

    def _chains(self, p, elems, require):
        """Number of chains (in the ambient order) on elems, containing `require`."""
        count = 0

        def grow(last, start, seen):
            nonlocal count
            if seen:
                count += 1
            for i in range(start, len(elems)):
                x = elems[i]
                if last is not None and not p.less(last, x):
                    continue
                grow(x, i + 1, seen or require is None or x == require)

        grow(None, 0, require is None)
        return count


class TestCertificateIO:
    def test_s_round_trip(self, q_cert, q_poset):
        text = format_certificate(q_cert)
        back = parse_certificate(text, q_poset)
        assert isinstance(back, SPartitionCert)
        assert verify_s_partition(back) == []
        assert format_certificate(back) == text

    def test_se_round_trip(self, torus6_cert, torus6):
        text = format_certificate(torus6_cert)
        back = parse_certificate(text, torus6)
        assert verify_se_partition(back) == []
        assert format_certificate(back) == text

    def test_name_mismatch(self, q_cert, torus6):
        with pytest.raises(CertificateParseError):
            parse_certificate(format_certificate(q_cert), torus6)

    def test_bad_indentation(self, q_poset):
        with pytest.raises(CertificateParseError) as err:
            parse_certificate("spart q-polytope\n   class s1 kind=initial\n", q_poset)
        assert "line 2" in str(err.value)


# -- pinned violation lists and searched round trips -----------------------------

_UNBOUNDED = (
    "poset unbounded\nrank 2\nelem bot 0\nelem v0 1\nelem v1 1\nelem top 2\n"
    "cover bot v0\ncover bot v1\ncover v0 top\n"
)


def _moved(classes, x, src, dst):
    out = dict(classes)
    out[src] = out[src] - {x}
    out[dst] = out[dst] | {x}
    return out


def _without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


def _decomp(c, **parts):
    return {**c.subclass_decomp, **parts}


# name -> (fixture, single-field mutation, exact violation list).  Together
# the cases reach every violation code that a well-formed class map can
# produce; gamma-unbuildable cannot occur once the class-map checks pass.
_MUTATIONS = {
    "s-poset-invalid": ("q_cert", lambda c: replace(c, poset=parse_poset(_UNBOUNDED)), [
        "VIOLATION poset-invalid spart VIOLATION not-bounded-above v1 covered by nothing",
    ]),
    "s-base-not-empty": ("q_cert", lambda c: replace(c, poset=zoo.gen("boolean", (1,))), [
        "VIOLATION base-not-empty spart rank-1 certificate carries classes",
    ]),
    "s-not-eulerian": ("q_cert", lambda c: replace(c, poset=zoo.gen("torus-fig6")), [
        "VIOLATION not-eulerian spart torus-fig6",
    ]),
    "s-class-keys": ("q_cert", lambda c: replace(c, classes=_without(c.classes, "s7")), [
        "VIOLATION class-keys spart classes for ['s1', 's2', 's3', 's4', 's5', 's6'] "
        "but coatoms are ['s1', 's2', 's3', 's4', 's5', 's6', 's7']",
    ]),
    "s-moved-member": ("q_cert", lambda c: replace(c, classes=_moved(c.classes, "C", "s2", "s3")), [
        "VIOLATION class-not-in-closure spart/class[s3] ['C']",
    ]),
    "s-overlapping-classes": ("q_cert", lambda c: replace(c, classes={**c.classes, "s3": c.classes["s3"] | {"AC"}}), [
        "VIOLATION overlapping-classes spart/class[s4] AC already in class[s3]",
        "VIOLATION class-not-in-closure spart/class[s3] ['AC']",
    ]),
    "s-foreign-member": ("q_cert", lambda c: replace(c, classes={**c.classes, "s7": c.classes["s7"] | {"zz"}}), [
        "VIOLATION foreign-members spart ['zz']",
        "VIOLATION class-not-in-closure spart/class[s7] ['zz']",
    ]),
    "s-coatom-dropped": ("q_cert", lambda c: replace(c, classes={**c.classes, "s3": c.classes["s3"] - {"s3"}}), [
        "VIOLATION not-covering spart unassigned elements ['s3']",
        "VIOLATION coatom-not-in-class spart/class[s3] s3",
    ]),
    "s-initial-missing": ("q_cert", lambda c: replace(c, initial="nope"), [
        "VIOLATION initial-missing spart 'nope'",
    ]),
    "s-initial-not-closure": ("q_cert", lambda c: replace(c, classes=_moved(c.classes, "P", "s1", "s3")), [
        "VIOLATION initial-not-closure spart/class[s1] must be the full closure",
    ]),
    "s-terminal-missing": ("q_cert", lambda c: replace(c, terminal=None), [
        "VIOLATION terminal-missing spart None",
    ]),
    "s-initial-terminal-clash": ("q_cert", lambda c: replace(c, terminal="s1"), [
        "VIOLATION initial-terminal-clash spart s1",
    ]),
    "s-terminal-not-singleton": ("q_cert", lambda c: replace(c, classes=_moved(c.classes, "AC", "s4", "s7")), [
        "VIOLATION terminal-not-singleton spart/class[s7] must be a one-element class",
        "VIOLATION ordinary-singleton spart/class[s4] ordinary class has no members besides its coatom",
    ]),
    "s-ordinary-singleton": ("q_cert", lambda c: replace(c, classes=_moved(c.classes, "PR", "s3", "s4")), [
        "VIOLATION ordinary-singleton spart/class[s3] ordinary class has no members besides its coatom",
        "VIOLATION gamma-not-near-eulerian spart/class[s4] gamma(q-polytope@s4)",
    ]),
    "s-boundary-overlap": ("q_cert", lambda c: replace(c, classes=_moved(c.classes, "BC", "s2", "s6")), [
        "VIOLATION non-disjoint-boundary spart/class[s2] ['C']",
        "VIOLATION gamma-decomposition spart/class[s6] uncovered closure part ['C']",
    ]),
    "s-missing-initial-subcert": ("q_cert", lambda c: replace(c, subcert_initial=None), [
        "VIOLATION missing-initial-subcert spart/class[s1] no sub-certificate",
    ]),
    "s-initial-wrong-subposet": ("q_cert", lambda c: replace(c, subcert_initial=c.subcerts["s2"]), [
        "VIOLATION subposet-mismatch spart/class[s1]/sub capped boundary differs",
    ]),
    "s-missing-subcert": ("q_cert", lambda c: replace(c, subcerts=_without(c.subcerts, "s3")), [
        "VIOLATION subcert-keys spart ['s2', 's4', 's5', 's6'] vs ordinary ['s2', 's3', 's4', 's5', 's6']",
    ]),
    "s-wrong-subposet": ("q_cert", lambda c: replace(c, subcerts={**c.subcerts, "s3": c.subcerts["s4"]}), [
        "VIOLATION subposet-mismatch spart/class[s3]/sub semisuspension differs",
    ]),
    "s-initial-not-tau": ("q_cert", lambda c: replace(
        c, subcerts={**c.subcerts, "s3": replace(c.subcerts["s3"], initial="PR", terminal="tau@s3")}), [
        "VIOLATION initial-not-tau spart/class[s3]/sub initial is 'PR', expected 'tau@s3'",
    ]),
    "s-nested-path": ("q_cert", lambda c: replace(
        c, subcerts={**c.subcerts, "s5": replace(c.subcerts["s5"], subcert_initial=None)}), [
        "VIOLATION missing-initial-subcert spart/class[s5]/sub/class[tau@s5] no sub-certificate",
    ]),
    "se-not-semi-eulerian": ("torus6_cert", lambda c: replace(c, poset=zoo.gen("fig13-nonsemi")), [
        "VIOLATION not-semi-eulerian separt fig13-nonsemi",
    ]),
    "se-base-not-empty": ("torus6_cert", lambda c: replace(c, poset=zoo.gen("boolean", (1,))), [
        "VIOLATION base-not-empty separt rank-1 certificate carries classes",
    ]),
    "se-initial-missing": ("torus6_cert", lambda c: replace(c, initial=None), [
        "VIOLATION initial-missing separt None",
    ]),
    "se-initial-singleton-clash": ("torus6_cert", lambda c: replace(c, singletons=c.singletons | {"F02"}), [
        "VIOLATION initial-singleton-clash separt F02",
    ]),
    "se-singleton-not-singleton": ("torus6_cert", lambda c: replace(c, singletons=c.singletons | {"F11"}), [
        "VIOLATION singleton-not-singleton separt/class[F11] declared singleton has extra members",
        "VIOLATION subclass-keys separt ['F00', 'F11', 'F22', 'L01', 'L10', 'L12', 'L21', 'U01', 'U10', 'U12', 'U21'] "
        "vs ordinary ['F00', 'F22', 'L01', 'L10', 'L12', 'L21', 'U01', 'U10', 'U12', 'U21']",
    ]),
    "se-undeclared-singleton": ("torus6_cert", lambda c: replace(c, singletons=frozenset()), [
        "VIOLATION undeclared-singleton separt/class[F20] one-element class not declared singleton",
        "VIOLATION subclass-keys separt ['F00', 'F11', 'F22', 'L01', 'L10', 'L12', 'L21', 'U01', 'U10', 'U12', 'U21'] "
        "vs ordinary ['F00', 'F11', 'F20', 'F22', 'L01', 'L10', 'L12', 'L21', 'U01', 'U10', 'U12', 'U21']",
    ]),
    "se-moved-member": ("torus6_cert", lambda c: replace(c, classes=_moved(c.classes, "v00", "F00", "F20")), [
        "VIOLATION singleton-not-singleton separt/class[F20] declared singleton has extra members",
        "VIOLATION subclasses-not-partition separt/class[F00] union ['v00', 'v10'] vs ['v10']",
    ]),
    "se-dropped-decomposition-key": ("torus6_cert", lambda c: replace(
        c, subclass_decomp=_without(c.subclass_decomp, "F11")), [
        "VIOLATION subclass-keys separt ['F00', 'F22', 'L01', 'L10', 'L12', 'L21', 'U01', 'U10', 'U12', 'U21'] "
        "vs ordinary ['F00', 'F11', 'F22', 'L01', 'L10', 'L12', 'L21', 'U01', 'U10', 'U12', 'U21']",
    ]),
    "se-empty-decomposition": ("torus6_cert", lambda c: replace(c, subclass_decomp=_decomp(c, F11=())), [
        "VIOLATION empty-decomposition separt/class[F11] ordinary class with no subclasses",
    ]),
    "se-overlapping-subclasses": ("torus6_cert", lambda c: replace(c, subclass_decomp=_decomp(
        c, F00=(c.subclass_decomp["F00"][0], c.subclass_decomp["F00"][0] | c.subclass_decomp["F00"][1]))), [
        "VIOLATION overlapping-subclasses separt/class[F00] ['v00']",
    ]),
    "se-subclasses-not-partition": ("torus6_cert", lambda c: replace(
        c, subclass_decomp=_decomp(c, F00=c.subclass_decomp["F00"][:1])), [
        "VIOLATION subclasses-not-partition separt/class[F00] union ['v00'] vs ['v00', 'v10']",
    ]),
    "se-merged-subclasses": ("torus6_cert", lambda c: replace(c, subclass_decomp=_decomp(
        c, F22=(c.subclass_decomp["F22"][0] | c.subclass_decomp["F22"][1],))), [
        "VIOLATION gamma-not-near-eulerian separt/class[F22]/subclass[1] gamma(torus-fig6@F22)",
    ]),
    "se-missing-initial-subcert": ("torus6_cert", lambda c: replace(c, subcert_initial=None), [
        "VIOLATION missing-initial-subcert separt/class[F02] no sub-certificate",
    ]),
    "se-missing-subcert": ("torus6_cert", lambda c: replace(c, subcerts=_without(c.subcerts, ("F00", 2))), [
        "VIOLATION missing-subcert separt/class[F00]/subclass[2] no sub-certificate",
    ]),
    "se-wrong-subposet": ("torus6_cert", lambda c: replace(
        c, subcerts={**c.subcerts, ("F00", 1): c.subcerts[("F00", 2)]}), [
        "VIOLATION subposet-mismatch separt/class[F00]/subclass[1]/sub semisuspension differs",
    ]),
}


class TestViolationLists:
    @pytest.mark.parametrize("name", sorted(_MUTATIONS))
    def test_exact_violations(self, request, name):
        fixture, mutate, expected = _MUTATIONS[name]
        cert = mutate(request.getfixturevalue(fixture))
        verify = verify_s_partition if isinstance(cert, SPartitionCert) else verify_se_partition
        assert [str(v) for v in verify(cert)] == expected


class TestSearchedRoundTrip:
    @pytest.mark.parametrize(
        "family, params, search",
        [
            ("polygon", (12,), search_s_certificate),
            ("cube", (3,), search_s_certificate),
            ("connected-sum", (3,), search_s_certificate),
            ("product", (3, 4), search_se_certificate),
            ("torus-7vertex", (), search_se_certificate),
        ],
    )
    def test_format_parse_identity(self, family, params, search):
        p = zoo.gen(family, params)
        text = format_certificate(search(p))
        assert format_certificate(parse_certificate(text, p)) == text


class TestEulerianTestCalls:
    def test_s_search_tests_its_input_once(self, monkeypatch):
        p = zoo.gen("polygon", (60,))
        tested = []
        real = partition.is_eulerian
        monkeypatch.setattr(partition, "is_eulerian", lambda q: tested.append(q) or real(q))
        assert search_s_certificate(p) is not None
        assert sum(q is p for q in tested) == 1
        # the sub-searches test their sub-posets at the call sites
        assert len(tested) > 1
