"""Certificates: verification, contributions, searches, conversions, file IO."""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import traceback
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import pytest

from cdposet import partition, poset as poset_module, zoo
from cdposet.flags import cd_index, flag_f, semi_cd_index
from cdposet.ncpoly import CD, NcPolynomial
from cdposet.partition import (
    Budget,
    BudgetExhausted,
    CertificateInvalid,
    CertificateParseError,
    CrossCheckError,
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
    order_to_s_certificate,
    parse_certificate,
    product_se_partition,
    se_certificate_from_classes,
    search_s_certificate,
    search_se_certificate,
    simplicial_partition_to_s_certificate,
    verify_s_partition,
    verify_se_partition,
)
from cdposet.poset import (
    BOT,
    TOP,
    GradedPoset,
    PosetError,
    boundary_set,
    cap,
    closure,
    format_poset,
    is_eulerian,
    is_semi_eulerian,
    near_eulerian_suspension,
    parse_poset,
    product,
    validate,
)
from test_poset import SMALL_ZOO, gamma_poset, mutations


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
        """A hand-built record is verified first, with or without ``check``: a moved member, a zero class whose
        coatom is not an element, and an ordinary block whose sub-certificate has rank 1 each raise the violations."""
        classes = dict(q_cert.classes)
        classes["s7"] = classes["s7"] | {"CD"}
        classes["s6"] = classes["s6"] - {"CD"}
        moved = SPartitionCert(q_poset, classes, q_cert.initial, q_cert.terminal,
                               q_cert.subcert_initial, q_cert.subcerts)
        point = SPartitionCert(GradedPoset("point", {BOT: 0, TOP: 1}, [(BOT, TOP)]), {})
        expected = [
            (moved, "VIOLATION terminal-not-singleton spart/class[s7] must be a one-element class"),
            (replace(q_cert, terminal="zzz"), "VIOLATION terminal-missing spart 'zzz'"),
            (
                replace(q_cert, subcerts={**q_cert.subcerts, "s2": point}),
                "VIOLATION subposet-mismatch spart/class[s2]/sub semisuspension differs",
            ),
        ]
        for (bad, first), check in itertools.product(expected, (True, False)):
            with pytest.raises(CertificateInvalid) as err:
                contributions_s(bad, check=check)
            assert str(err.value.violations[0]) == first

    def test_the_map_pickles_and_copies(self, q_cert):
        cm = contributions_s(q_cert)
        for back in (pickle.loads(pickle.dumps(cm)), copy.deepcopy(cm)):
            assert back == cm and back.total == cd_index(q_cert.poset)
            assert all(type(v) is NcPolynomial for v in back.per_coatom.values())

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

    @pytest.mark.parametrize("order", [["s1", 1], [f"s{i}" for i in range(1, 7)] + [None]])
    def test_an_order_of_other_than_names(self, q_poset, order):
        """sorted raised a bare TypeError comparing an int or None with a name."""
        report = order_to_s_certificate(q_poset, order)
        assert report == FailureReport(None, "bad-order", "order must enumerate all coatoms exactly once")

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

    def test_unknown_restriction(self):
        p = zoo.gen("simplex-boundary", (3,))
        pairs = zoo.shelling_restrictions(p, sorted(p.coatoms()))
        assert pairs[0] == (BOT, "abc")
        with pytest.raises(NotAPartition, match="'nosuch' not below facet 'abc'"):
            simplicial_partition_to_s_certificate(p, [("nosuch", "abc")] + pairs[1:])

    @pytest.mark.parametrize("pair", [(BOT, "abc", "x"), (BOT, 1), [BOT], "ab", (BOT, None)])
    def test_a_pair_that_is_not_two_names(self, pair):
        """A triple raised a bare ValueError from unpacking, and (bot, 1) a TypeError from sorted."""
        p = zoo.gen("simplex-boundary", (3,))
        pairs = zoo.shelling_restrictions(p, sorted(p.coatoms()))
        with pytest.raises(NotAPartition) as err:
            simplicial_partition_to_s_certificate(p, pairs[1:] + [pair])
        assert str(err.value) == f"pair {pair!r} is not a pair of element names"

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

    # the benchmark's unbounded.poset: v1 is covered by nothing, so it parses and fails validation
    UNBOUNDED = (
        "poset unbounded\nrank 2\nelem bot 0\nelem v0 1\nelem v1 1\nelem top 2\n"
        "cover bot v0\ncover bot v1\ncover v0 top\n"
    )

    @pytest.mark.parametrize("search", [search_s_certificate, search_se_certificate])
    def test_invalid_poset(self, search):
        with pytest.raises(PosetError) as err:
            search(parse_poset(self.UNBOUNDED))
        assert type(err.value) is PosetError
        assert str(err.value) == "invalid poset: VIOLATION not-bounded-above v1 covered by nothing"

    def test_se_search_of_a_poset_that_is_not_semi_eulerian(self):
        with pytest.raises(PosetError) as err:
            search_se_certificate(zoo.gen("fig13-nonsemi"))
        assert type(err.value) is PosetError and str(err.value) == "fig13-nonsemi is not semi-Eulerian"

    def test_budget_runs_out_inside_nested_sub_searches(self):
        # cube(3) spends 45 nodes: 7 on its own facet order, 38 in nested sub-searches
        p = zoo.gen("cube", (3,))
        for limit in range(45):
            budget = Budget(limit)
            with pytest.raises(BudgetExhausted):
                search_s_certificate(p, budget)
            assert budget.used == limit + 1
        cert = search_s_certificate(p, Budget(45))
        digest = hashlib.sha256(format_certificate(cert).encode("utf-8")).hexdigest()
        assert digest == "3f71bed6a0c82f3067d01751cd1a1269aaaa7809224c55315b1ec913228ad340"

    def test_zero_budget(self, q_poset, torus6):
        assert Budget.of(0).limit == 0
        with pytest.raises(BudgetExhausted):
            search_s_certificate(q_poset, budget=0)
        with pytest.raises(BudgetExhausted):
            search_se_certificate(torus6, budget=0)

    @pytest.mark.parametrize("limit", ["5", 1.5, True, -1])
    def test_a_limit_that_is_not_a_nonnegative_int(self, q_poset, limit):
        """"5" raised a bare TypeError, 1.5 and True were taken as limits, and -1 raised BudgetExhausted."""
        for make in (lambda: search_s_certificate(q_poset, budget=limit), lambda: Budget(limit)):
            with pytest.raises(PosetError) as err:
                make()
            assert type(err.value) is PosetError
            assert str(err.value) == f"node limit must be a nonnegative int, got {limit!r}"

    def test_not_eulerian_precondition(self, torus6):
        with pytest.raises(PosetError):
            search_s_certificate(torus6)

    def test_both_families_exhausted_on_s1_x_s2(self):
        """The CW product S^1 x S^2 is Eulerian with a nonnegative cd-index, but no facet order certifies it."""
        p = product(zoo.gen("polygon", (3,)), zoo.gen("sphere2cells", (2,)))
        assert len(p) == 38 and p.rank_top == 5
        assert cd_index(p) == poly({"cccc": 1, "ccd": 4, "cdc": 6, "dcc": 4, "dd": 4})
        budget = Budget()
        assert search_s_certificate(p, budget) is None and budget.used == 60
        with pytest.raises(BudgetExhausted):
            search_s_certificate(p, 59)
        budget = Budget()
        assert search_se_certificate(p, budget) is None and budget.used == 324

    def test_se_torus(self, torus6):
        cert = search_se_certificate(torus6)
        assert cert is not None
        assert contributions_se(cert, check=False).total == semi_cd_index(torus6)

    def test_se_discrete_points(self):
        cert = search_se_certificate(zoo.gen("discrete-points", (9,)))
        assert cert is not None
        assert contributions_se(cert, check=False).total == poly({"c": 1})

    def test_se_order_deeper_than_the_recursion_limit(self):
        # 1100 facets: one stack slot per placed facet, no Python frame per facet
        p = zoo.gen("discrete-points", (1100,))
        cert = search_se_certificate(p)
        assert cert is not None and verify_se_partition(cert) == []
        assert len(cert.singletons) == 1099

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


class TestClassesConversion:
    """``se_certificate_from_classes`` returns a FailureReport where verify would reject its result."""

    def test_empty_class_map(self, q_poset):
        report = se_certificate_from_classes(q_poset, "s1", {})
        assert isinstance(report, FailureReport)
        assert report.code == "class-keys"

    def test_not_semi_eulerian(self):
        p = zoo.gen("fig13-nonsemi")
        first, *rest = p.coatoms()
        classes = {first: frozenset(closure(p, [first]))} | {s: frozenset({s}) for s in rest}
        assert se_certificate_from_classes(p, first, classes) == FailureReport(None, "not-semi-eulerian", p.name)

    def test_invalid_poset(self):
        square = zoo.gen("polygon", (4,))
        p = GradedPoset("square-minus-a-cover", square.ranks(), square.covers()[1:])
        report = se_certificate_from_classes(p, p.coatoms()[0], {})
        assert isinstance(report, FailureReport) and report.code == "poset-invalid"

    def test_overlapping_classes(self, torus6):
        classes = dict(zoo.fixture_certificate("torus-fig6").classes)
        stolen = sorted(classes["U12"] - {"U12"})[0]
        classes["L12"] = classes["L12"] | {stolen}
        report = se_certificate_from_classes(torus6, "F02", classes)
        assert isinstance(report, FailureReport) and report.code == "overlapping-classes"

    def test_fixture_classes_still_assemble(self, torus6):
        cert = zoo.fixture_certificate("torus-fig6")
        again = se_certificate_from_classes(torus6, cert.initial, cert.classes)
        assert format_certificate(again) == format_certificate(cert)
        assert verify_se_partition(again) == []


# three of s2's members also put in the terminal class s7 of the q-polytope certificate
_OVERLAP_SCRIPT = """
import json
from dataclasses import replace
from cdposet import zoo
from cdposet.partition import se_certificate_from_classes, verify_s_partition
cert = zoo.fixture_certificate("q-polytope")
classes = dict(cert.classes)
classes["s7"] = classes["s7"] | set(sorted(classes["s2"] - {"s2"})[:3])
violations = [str(v) for v in verify_s_partition(replace(cert, classes=classes))]
print(json.dumps([violations, repr(se_certificate_from_classes(cert.poset, "s1", classes))]))
"""


def test_overlapping_classes_do_not_depend_on_string_hashing():
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = set()
    for seed in range(1, 5):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _OVERLAP_SCRIPT], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1
    violations, report = json.loads(outs.pop())
    assert [v for v in violations if "overlapping-classes" in v] == [
        f"VIOLATION overlapping-classes spart/class[s7] {m} already in class[s2]" for m in ("BC", "C", "CR")
    ]
    assert "BC already in class[s2]" in report


class TestReversePartition:
    def test_q_fixture(self, q_cert):
        owner, count = check_reverse_partition(q_cert)
        assert owner[BOT] == q_cert.terminal  # the empty chain goes to the terminal
        # every element below the top is owned, and every owner is a coatom
        p = q_cert.poset
        assert set(owner) == set(p.elements()) - {p.top()}
        assert set(owner.values()) <= set(p.coatoms())
        assert count == 44

    def test_diamond(self):
        cert = search_s_certificate(zoo.gen("sphere2cells", (0,)))
        owner, count = check_reverse_partition(cert)
        assert count == 1 and owner[BOT] == cert.terminal

    def test_probe_on_polygon_corpus(self):
        # empirical record: every order-induced polygon certificate is reversible
        for n in (3, 4, 5, 6):
            cert = search_s_certificate(zoo.gen("polygon", (n,)))
            assert check_reverse_partition(cert) is not None

    def test_not_a_partition(self, q_cert):
        # PR moved from s3 to s4: the reverse classes of s3 and s4 overlap
        assert check_reverse_partition(replace(q_cert, classes=_moved(q_cert.classes, "PR", "s3", "s4"))) is None

    @pytest.mark.parametrize("family, params", [
        ("q-polytope", ()), ("polygon", (3,)), ("polygon", (4,)), ("polygon", (5,)), ("polygon", (6,)),
        ("cube", (4,)), ("simplex-boundary", (5,)),
    ])
    def test_count_is_flag_f_below_d(self, family, params):
        # oracle: the chains avoiding rank d are counted by flag_f over rank sets without d
        p = zoo.gen(family, params)
        f = flag_f(p)
        _, count = check_reverse_partition(search_s_certificate(p))
        assert count == sum(c for K, c in f.counts.items() if f.d not in K)

    def test_count_at_rank_100(self):
        # sphere2cells(d) has two elements per rank, so 3**d chains avoid rank d
        _, count = check_reverse_partition(search_s_certificate(zoo.gen("sphere2cells", (100,))))
        assert count == 3**100

    def test_memory_stays_flat(self):
        cert = search_s_certificate(zoo.gen("sphere2cells", (12,)))
        tracemalloc.start()
        try:
            check_reverse_partition(cert)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # one entry per element, not one per chain (3**12 of them)


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

    # (fixture, text replaced once, replacement, offending line within it, message):
    # text that format_certificate never writes
    NEVER_WRITTEN = {
        "subclass-misnumbered": ("torus6_cert", "    subclass 2\n", "    subclass 9\n", 0, "expected: subclass 2"),
        "subclass-unnumbered": ("torus6_cert", "    subclass 1\n", "    subclass\n", 0, "expected: subclass 1"),
        "unknown-initial": ("q_cert", "  class s1 kind=initial\n", "  class zz kind=initial\n", 0, "unknown element 'zz'"),
        "terminal-sub": (
            "q_cert", "  class s7 kind=terminal\n    members s7\n", "  class s7 kind=terminal\n    members s7\n    sub\n",
            2, "terminal class 's7' takes no sub block",
        ),
        "singleton-sub": (
            "torus6_cert", "  class F20 kind=singleton\n    members F20\n",
            "  class F20 kind=singleton\n    members F20\n    sub\n", 2, "singleton class 'F20' takes no sub block",
        ),
        "second-members": (
            "q_cert", "    members C R BC CR QR s2\n", "    members C R BC CR QR s2\n    members C R BC CR QR s2\n",
            1, "second 'members' line in ordinary class 's2'",
        ),
        "second-sub": (
            "q_cert", "        members bot B Q tau@s2\n        sub\n", "        members bot B Q tau@s2\n        sub\n        sub\n",
            2, "second 'sub' line in initial class 'tau@s2'",
        ),
        "header-without-name": ("q_cert", "spart q-polytope\n", "spart\n", 0, "expected header: spart|separt <poset-name>"),
        "indented-two-levels": (
            "q_cert", "  class s7 kind=terminal\n    members s7\n", "  class s7 kind=terminal\n      members s7\n",
            1, "unexpected indentation",
        ),
        "unknown-field": (
            "q_cert", "  class s7 kind=terminal\n    members s7\n", "  class s7 kind=terminal\n    members s7\n    note s7\n",
            2, "unexpected 'note'",
        ),
        "unknown-member": (
            "q_cert", "  class s7 kind=terminal\n    members s7\n", "  class s7 kind=terminal\n    members s7 zz\n",
            0, "unknown members ['zz']",
        ),
        "rank-1-with-class": (
            "q_cert", "            members bot A\n            sub\n",
            "            members bot A\n            sub\n              class A kind=initial\n",
            2, "rank-1 certificate must have no classes",
        ),
        "class-without-kind": ("q_cert", "  class s7 kind=terminal\n", "  class s7 terminal\n", 0,
                               "expected: class <coatom> kind=<kind>"),
        "kind-of-other-format": ("q_cert", "  class s7 kind=terminal\n", "  class s7 kind=singleton\n", 0,
                                 "unknown kind 'singleton'"),
        "duplicate-class": ("q_cert", "  class s7 kind=terminal\n", "  class s6 kind=terminal\n", 0,
                            "duplicate class 's6'"),
        "ordinary-without-subclasses": (
            "torus6_cert", "  class F02 kind=initial\n", "  class F11 kind=ordinary\n  class F02 kind=initial\n",
            0, "ordinary class 'F11' has no subclasses",
        ),
        "second-initial": ("q_cert", "  class s7 kind=terminal\n", "  class s7 kind=initial\n", 0, "two initial classes"),
        "class-without-members": (
            "q_cert", "  class s1 kind=initial\n    members bot A B P Q AB AP BQ PQ s1\n", "  class s1 kind=initial\n",
            0, "initial class 's1' has no members line",
        ),
        "subclass-without-members": (
            "torus6_cert", "    subclass 1\n      members v00\n", "    subclass 1\n", 0,
            "subclass 1 of 'F00' has no members line",
        ),
        "second-terminal": (
            "q_cert", "  class s7 kind=terminal\n    members s7\n",
            "  class s7 kind=terminal\n    members s7\n  class s8 kind=terminal\n    members s7\n",
            2, "two terminal classes",
        ),
    }

    @pytest.mark.parametrize("name", sorted(NEVER_WRITTEN))
    def test_text_never_written_is_rejected(self, request, name):
        fixture, old, new, offset, message = self.NEVER_WRITTEN[name]
        cert = request.getfixturevalue(fixture)
        text = format_certificate(cert)
        lineno = text[: text.index(old)].count("\n") + 1 + offset
        with pytest.raises(CertificateParseError) as err:
            parse_certificate(text.replace(old, new, 1), cert.poset)
        assert str(err.value) == f"line {lineno}: {message}"

    # (row edited in the sub block of s2, its edit, its error alone, the line of that error relative to the row,
    # a row added to the block of s2 after its sub block, the error that row makes first)
    READ_ORDER = [
        ("      class BC kind=ordinary\n", "      class BC kind=nonsense\n", "unknown kind 'nonsense'", 0,
         "    members C R BC CR QR s2\n", "second 'members' line in ordinary class 's2'"),
        ("          class C kind=terminal\n", "          class C kind=bogus\n", "unknown kind 'bogus'", 0,
         "    sub\n", "second 'sub' line in ordinary class 's2'"),
        ("            members C\n", "            members C zz\n", "unknown members ['zz']", -1, "    note s2\n", "unexpected 'note'"),
    ]

    def test_a_block_reads_its_own_rows_before_its_sub_block(self, q_cert):
        """The sub block of s2 is read as soon as its sub row follows its members row, and its error waits until
        the rest of s2's block has been read: a later row of that block is the error named.  A sub row may
        also come before the members row."""
        text = format_certificate(q_cert)
        head, tail = text[: text.index("  class s3")], text[text.index("  class s3") :]
        for old, new, alone, offset, later, message in self.READ_ORDER:
            broken = head.replace(old, new, 1)
            with pytest.raises(CertificateParseError) as err:
                parse_certificate(broken + tail, q_cert.poset)
            assert str(err.value) == f"line {broken[: broken.index(new)].count(chr(10)) + 1 + offset}: {alone}"
            with pytest.raises(CertificateParseError) as err:
                parse_certificate(broken + later + tail, q_cert.poset)
            assert str(err.value) == f"line {head.count(chr(10)) + 1}: {message}"
        moved = head.replace("    members C R BC CR QR s2\n    sub\n", "    sub\n", 1) + "    members C R BC CR QR s2\n"
        assert format_certificate(parse_certificate(moved + tail, q_cert.poset)) == text

    # (fixture, class line whose whole block is dropped, message): the error names the header line
    MISSING_CLASS = {
        "no-initial": ("torus6_cert", "  class F02 kind=initial", "certificate needs an initial class"),
        "no-terminal": ("q_cert", "  class s7 kind=terminal", "certificate needs an initial and a terminal class"),
    }

    @pytest.mark.parametrize("name", sorted(MISSING_CLASS))
    def test_level_without_a_required_class_is_rejected(self, request, name):
        fixture, head, message = self.MISSING_CLASS[name]
        cert = request.getfixturevalue(fixture)
        lines = format_certificate(cert).splitlines(keepends=True)
        start = lines.index(head + "\n")
        end = next((k for k in range(start + 1, len(lines)) if not lines[k].startswith("    ")), len(lines))
        with pytest.raises(CertificateParseError) as err:
            parse_certificate("".join(lines[:start] + lines[end:]), cert.poset)
        assert str(err.value) == f"line 1: {message}"

    def test_writer_names_the_least_unknown_member(self, q_cert):
        # not the first one met, which hangs on the order of the members (for a frozenset, on the hash seed)
        for members in (q_cert.classes["s7"] | {"zz", "yy", "xx", "ww"}, ("s7", "zz", "yy", "ww", "xx")):
            with pytest.raises(PosetError) as err:
                format_certificate(replace(q_cert, classes={**q_cert.classes, "s7": members}))
            assert type(err.value) is PosetError and str(err.value) == "unknown element 'ww'"

    # name -> (winning error, losing error), each as (line number in the q-polytope
    # fixture text, the line that replaces it or, with insert, goes before it,
    # insert, error): with several errors in one text, indentation is checked
    # on every line first, then the header, then the block structure, then the
    # classes in file order, each block's own lines before its sub block
    SEVERAL_ERRORS = {
        "odd-indent-before-header": (
            (31, "   class s2 kind=ordinary", False, "line 31: odd indentation"),
            (1, "spart other-poset", False, "line 1: certificate is for 'other-poset', poset is 'q-polytope'"),
        ),
        "header-before-structure": (
            (1, "spart other-poset", False, "line 1: certificate is for 'other-poset', poset is 'q-polytope'"),
            (41, "                sub", False, "line 41: unexpected indentation"),
        ),
        "structure-before-members": (
            (41, "                sub", False, "line 41: unexpected indentation"),
            (3, "    members bot A B P Q AB AP BQ PQ s1 zz", False, "line 2: unknown members ['zz']"),
        ),
        "own-line-before-sub-block": (
            (60, "    note x", True, "line 60: unexpected 'note'"),
            (34, "      klass BC kind=ordinary", False, "line 34: expected: class <coatom> kind=<kind>"),
        ),
    }

    @staticmethod
    def _edited(cert, *edits):
        lines = format_certificate(cert).splitlines()
        for lineno, line, insert, _ in sorted(edits, reverse=True):
            lines[lineno - 1 : lineno - 1 + (not insert)] = [line]
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("name", sorted(SEVERAL_ERRORS))
    def test_first_error_wins(self, q_cert, name):
        winner, loser = self.SEVERAL_ERRORS[name]
        for edits, expected in (((winner,), winner), ((loser,), loser), ((winner, loser), winner)):
            with pytest.raises(CertificateParseError) as err:
                parse_certificate(self._edited(q_cert, *edits), q_cert.poset)
            assert str(err.value) == expected[-1], edits


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


def _se_initial_sub(c):
    """An SE-certificate of c's capped initial boundary: valid on its own, but of the wrong kind there."""
    return search_se_certificate(partition.initial_boundary_poset(c.poset, c.initial))


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
    "s-initial-subcert-se": ("q_cert", lambda c: replace(c, subcert_initial=_se_initial_sub(c)), [
        "VIOLATION subcert-not-spart spart/class[s1]/sub separt certificate, expected spart",
    ]),
    "s-nested-subcert-se": ("q_cert", lambda c: replace(
        c, subcerts={**c.subcerts, "s2": replace(c.subcerts["s2"], subcert_initial=_se_initial_sub(c.subcerts["s2"]))}), [
        "VIOLATION subcert-not-spart spart/class[s2]/sub/class[tau@s2]/sub separt certificate, expected spart",
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
    "se-initial-subcert-se": ("torus6_cert", lambda c: replace(c, subcert_initial=_se_initial_sub(c)), [
        "VIOLATION subcert-not-spart separt/class[F02]/sub separt certificate, expected spart",
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


class TestSubcertKind:
    """A sub-certificate must be an S-certificate (``TestViolationLists`` and ``TestWalk`` take the cases)."""

    def test_the_wrong_kind_verifies_on_its_own(self, q_cert, torus6_cert):
        for cert in (q_cert, q_cert.subcerts["s2"], torus6_cert):
            sub = _se_initial_sub(cert)
            assert isinstance(sub, SEPartitionCert) and verify_se_partition(sub) == []


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


class TestDepth:
    """Every certificate walk keeps its levels on a list, not on the Python stack (``shallow_stack``)."""

    def test_search(self, shallow_stack):
        assert search_s_certificate(zoo.gen("sphere2cells", (120,))) is not None

    def test_verify(self, deep_sphere, shallow_stack):
        assert verify_s_partition(deep_sphere[1]) == []

    def test_format_and_parse(self, deep_sphere, shallow_stack):
        p, cert = deep_sphere
        text = format_certificate(cert)
        assert format_certificate(parse_certificate(text, p)) == text

    def test_contributions(self, monkeypatch):
        """Every level takes its cd-indices at one stack depth (a deep total costs O(2^rank) anyway)."""
        depths = set()
        real = partition.cd_index

        def recorded(q):
            depths.add(len(traceback.extract_stack()))
            return real(q)

        cert = search_s_certificate(zoo.gen("sphere2cells", (8,)))
        monkeypatch.setattr(partition, "cd_index", recorded)
        assert contributions_s(cert, check=False).total == poly({"c" * 9: 1})
        assert len(depths) == 1


class TestSearchPins:
    """Searched certificates and node counts stay byte-identical: sha256 of the text, Budget.used."""

    @pytest.mark.parametrize(
        "family, params, search, sha256, nodes",
        [
            ("polygon", (25,), search_s_certificate, "944e1a9db99ab350bebd945d8057c84a37060dc088c0f264a348ea1964ee38f5", 73),
            ("cube", (3,), search_s_certificate, "3f71bed6a0c82f3067d01751cd1a1269aaaa7809224c55315b1ec913228ad340", 45),
            ("connected-sum", (3,), search_s_certificate, "46c97dfed676bcb497187f59fac3d88b1cc8e05fd70320a9bd6828ae929af4c5", 35),
            ("torus-fig6", (), search_se_certificate, "cb524d7fdbd2432acf69e37188ee7d968b847966af05a4fca78dcc2147998d7b", 90),
            ("product", (3, 4), search_se_certificate, "25c17a03b03c2d61bf2bc481eea95ea1e8cede3527233dd5e4f90d7f2f66d9fb", 94),
            ("icosahedron", (), search_se_certificate, "c36d81aee0fa267b12c14d5bd52c5b5e2e19554a95ac6bcc5ed50f235aa393d3", 126),
            ("polygon", (50,), search_s_certificate, "ca6af9554c9f119546a0a97f318ff1eee481e4fd3793c454646a61bd1f35ddad", 148),
            ("polygon", (100,), search_s_certificate, "308091667281d628fd01d33e7c4e6f898c6431c0bebd57bc7d2e50cd3db48609", 298),
            ("polygon", (200,), search_s_certificate, "b2170cbd315451fad13d3f75383edcd99f951c0fc182f2426a996c7fd1073b30", 598),
            ("cube", (4,), search_s_certificate, "501af56b9d469a2faec155ba9b6d5f83da68cb1e49ee345407a049266da06461", 239),
            ("simplex-boundary", (5,), search_s_certificate, "57902771889b58e76073a0f4407cd61804948965b5f37d6d1f2dd58b23a7e610", 292),
            ("product", (5, 5), search_se_certificate, "48d2d5023c12322216daafcc84a143e8b3eacda97467c2edbd414d4bee3e6d45", 198),
        ],
    )
    def test_certificate_and_node_count(self, family, params, search, sha256, nodes):
        budget = Budget()
        cert = search(zoo.gen(family, params), budget)
        assert hashlib.sha256(format_certificate(cert).encode("utf-8")).hexdigest() == sha256
        assert budget.used == nodes


class TestEulerianTestCalls:
    def test_s_search_tests_its_input_once(self, monkeypatch):
        p = zoo.gen("polygon", (60,))
        tested = []
        real = partition.is_eulerian
        monkeypatch.setattr(partition, "is_eulerian", lambda q: tested.append(q) or real(q))
        assert search_s_certificate(p) is not None
        # the sub-posets are intervals of p or semisuspensions the class checks found Eulerian: only p is tested
        assert len(tested) == 1 and tested[0] is p

    @pytest.mark.parametrize("d", [8, 120])
    def test_search_and_verify_test_the_root_only(self, monkeypatch, shallow_stack, d):
        """One parity test each on fresh posets, of the root, however deep the certificate (rank d + 2)."""
        p = parse_poset(format_poset(zoo.gen("sphere2cells", (d,))))
        tested = []
        real = poset_module._parity_holds
        monkeypatch.setattr(poset_module, "_parity_holds", lambda q, *a: tested.append(q) or real(q, *a))
        cert = search_s_certificate(p)
        assert len(tested) == 1 and tested[0] is p
        q = parse_poset(format_poset(p))
        parsed = parse_certificate(format_certificate(cert), q)
        tested.clear()
        assert partition.verify_partition(parsed) == []
        assert len(tested) == 1 and tested[0] is q


class TestCrossChecks:
    """A wrong direct boundary cd-index must be caught by the comparison with the recursion.  An ordinary
    block's boundary is the capped closure of tau in its sub-certificate, so it is checked one level down.
    Each certificate is the fresh counterpart of a session fixture: a level whose token already has totals
    is not walked again, and other tests total the session fixtures."""

    FAMILIES = {"q_cert": "q-polytope", "torus6_cert": "torus-fig6"}

    @pytest.mark.parametrize(
        "fixture, target, message",
        [
            ("q_cert", "bnd(q-polytope@s1)", "initial boundary cd-index mismatch"),
            ("q_cert", "bnd(ssusp(gamma(q-polytope@s2))@tau@s2)", "initial boundary cd-index mismatch"),
            ("torus6_cert", "bnd(torus-fig6@F02)", "initial boundary cd-index mismatch"),
            ("torus6_cert", "bnd(ssusp(gamma(torus-fig6@F11))@tau@F11/1)", "initial boundary cd-index mismatch"),
        ],
    )
    def test_perturbed_boundary_raises(self, fresh_cert, monkeypatch, fixture, target, message):
        cert = fresh_cert(self.FAMILIES[fixture])
        real = partition.cd_index
        hits = []

        def perturbed(q):
            phi = real(q)
            if q.name != target:
                return phi
            hits.append(q)
            return phi + phi

        monkeypatch.setattr(partition, "cd_index", perturbed)
        with pytest.raises(CrossCheckError, match=message):
            contributions_s(cert, check=True)
        assert hits


class TestWalk:
    @pytest.mark.parametrize("name", sorted(_MUTATIONS))
    def test_contributions_raise_the_exact_violations(self, request, name):
        fixture, mutate, expected = _MUTATIONS[name]
        cert = mutate(request.getfixturevalue(fixture))
        with pytest.raises(CertificateInvalid) as err:
            contributions_s(cert, check=True)
        assert [str(v) for v in err.value.violations] == expected

    def test_checked_totals_build_no_more_subposets(self, monkeypatch):
        """Both passes read the sub-posets that the fixture's conversion built or that reading its levels named;
        the counter's positive control is ``TestSharedSubposets.test_parse_from_scratch_builds_through_partition``."""
        cert = zoo.fixture_certificate("torus-fig12")  # a fresh poset: no other test warmed its memo
        _levels(cert)  # a replayed sub-search is a view, which names its sub-posets when they are first read
        built = TestSharedSubposets.record_builds(monkeypatch)
        unchecked = contributions_se(cert, check=False)
        checked = contributions_se(cert, check=True)
        assert checked == unchecked and TestSharedSubposets.named(built) == []

    def test_search_checks_each_class_once(self, monkeypatch):
        calls = []
        real = partition._class_failure

        def recorded(p, sigma, rest, *args):
            calls.append((p, sigma, rest))  # holds p, so its id stays unique; rest is a bitset
            return real(p, sigma, rest, *args)

        monkeypatch.setattr(partition, "_class_failure", recorded)
        assert search_s_certificate(zoo.gen("simplex-boundary", (6,))) is not None
        distinct = {(id(p), sigma, rest) for p, sigma, rest in calls}
        assert calls and len(calls) == len(distinct)


class TestSharedSubposets:
    """Parse, verify, totals and search read one set of sub-posets, memoized on the objects
    they come from.  Every object here is built from text, so no session fixture warms a memo."""

    @staticmethod
    def record_builds(monkeypatch) -> list:
        """(parent name, name) of every poset that ``partition`` derives from here on; a view has the name None."""
        built = []
        real = partition._derived_poset

        def recorded(p, entry, name=None, elems=()):
            built.append((p.name, name))
            return real(p, entry, name, elems)

        monkeypatch.setattr(partition, "_derived_poset", recorded)
        return built

    @staticmethod
    def named(built) -> list:
        return [name for _, name in built if name is not None]

    @staticmethod
    def parsed_torus12():
        cert = zoo.fixture_certificate("torus-fig12")
        return parse_certificate(format_certificate(cert), parse_poset(format_poset(cert.poset)))

    def test_parse_from_scratch_builds_through_partition(self, monkeypatch):
        """The positive control of the counts here: building the sub-posets anew is seen."""
        cert = zoo.fixture_certificate("torus-fig12")
        text, poset_text = format_certificate(cert), format_poset(cert.poset)
        built = self.record_builds(monkeypatch)
        parse_certificate(text, parse_poset(poset_text))
        # one named poset per level below the root, by the name of the level it is derived from: the top
        # level, capped boundaries, semisuspensions; and a view of the gamma of each semisuspension
        assert Counter(parent.split("(")[0] for parent, name in built if name) == {"torus-fig12": 10, "bnd": 17, "ssusp": 25}
        assert Counter(name.split("(")[0] for name in self.named(built)) == {"bnd": 32, "ssusp": 20}
        assert len(built) - len(self.named(built)) == 20

    def test_verify_after_parse_builds_no_subposet(self, monkeypatch):
        cert = self.parsed_torus12()
        built = self.record_builds(monkeypatch)
        assert verify_se_partition(cert) == []
        assert self.named(built) == []

    def test_checked_totals_after_parse_build_no_subposet(self, monkeypatch):
        cert = self.parsed_torus12()
        built = self.record_builds(monkeypatch)
        contributions_se(cert, check=True)
        assert self.named(built) == []

    def test_verify_and_totals_after_search_build_no_subposet(self, monkeypatch):
        cert = search_s_certificate(parse_poset(format_poset(zoo.gen("simplex-boundary", (5,)))))
        _levels(cert)  # a replayed sub-search is a view, which names its sub-posets when they are first read
        built = self.record_builds(monkeypatch)
        assert verify_s_partition(cert) == []
        contributions_s(cert, check=False)
        assert self.named(built) == []


def _renamed_polygon4():
    """polygon(4) with its vertex v2 renamed tau@e1, the tau name of the class of e1 (valid and Eulerian)."""
    text = format_poset(zoo.gen("polygon", (4,)))
    return parse_poset("\n".join(line.replace(" v2", " tau@e1") for line in text.splitlines()))


class TestTakenTauName:
    """A class whose tau name is already an element of its gamma fails with tau-name-taken."""

    def test_the_poset_is_valid_and_eulerian(self):
        q = _renamed_polygon4()
        assert validate(q) == [] and is_eulerian(q) and "tau@e1" in q and "v2" not in q

    def test_search_finds_a_certificate_that_verifies(self):
        q = _renamed_polygon4()
        assert partition._replay_table(q) is None  # a tau name can be taken here: no replay
        cert = search_s_certificate(q)
        assert verify_s_partition(cert) == [] and cert.terminal == "e1"
        assert contributions_s(cert, check=True).total == cd_index(q)

    def test_the_converter_returns_the_failure(self):
        report = order_to_s_certificate(_renamed_polygon4(), ["e0", "e1", "e2", "e3"])
        assert report == FailureReport("e1", "tau-name-taken", "tau@e1 is already an element of gamma(polygon4@e1)")

    def test_verify_reports_the_class(self):
        good = order_to_s_certificate(zoo.gen("polygon", (4,)), ["e0", "e1", "e2", "e3"])
        q = _renamed_polygon4()
        classes = {s: frozenset("tau@e1" if m == "v2" else m for m in members) for s, members in good.classes.items()}
        cert = replace(good, poset=q, classes=classes)
        assert [str(v) for v in verify_s_partition(cert)] == [
            "VIOLATION tau-name-taken spart/class[e1] tau@e1 is already an element of gamma(polygon4@e1)"
        ]


class TestReplay:
    """Within one call, an S search whose key (``partition._replay_key``) was already searched replays the recorded
    node count and level; every replay gives the certificate text and ``Budget.used`` of a fresh search."""

    @staticmethod
    def replayed(monkeypatch, run):
        """(outcome of run(), (poset, first, certificate, nodes) per replayed S search inside it)."""
        real = partition._search
        hits = []

        def recorded(p, budget, cls, first=None, replay=None):
            known = replay is not None and cls is SPartitionCert and partition._replay_key(p, first) in replay
            before = budget.used
            cert = yield real(p, budget, cls, first, replay)
            if known:
                hits.append((p, first, cert, budget.used - before))
            return cert

        with monkeypatch.context() as patched:
            patched.setattr(partition, "_search", recorded)
            return run(), hits

    @staticmethod
    def outcome(cert_or_report, budget):
        if isinstance(cert_or_report, (SPartitionCert, SEPartitionCert)):
            return format_certificate(cert_or_report), budget.used
        return cert_or_report, budget.used

    def assert_exact(self, monkeypatch, call):
        """call(budget) replays exactly: each replay equals a fresh search, the whole call equals one without replay."""
        budget = Budget()
        result, hits = self.replayed(monkeypatch, lambda: call(budget))
        with_replay = self.outcome(result, budget)
        for q, first, cert, nodes in hits:
            fresh = Budget()
            again = partition._run(partition._search(q, fresh, SPartitionCert, first))
            assert (again is None) == (cert is None), q.name
            assert fresh.used == nodes, q.name
            assert cert is None or format_certificate(again) == format_certificate(cert), q.name
        with monkeypatch.context() as patched:
            patched.setattr(partition, "_replay_table", lambda root: None)
            budget = Budget()
            assert self.outcome(call(budget), budget) == with_replay
        return hits

    SEARCHED = [
        ("polygon", (25,), search_s_certificate),
        ("cube", (3,), search_s_certificate),
        ("cube", (4,), search_s_certificate),
        ("connected-sum", (3,), search_s_certificate),
        ("simplex-boundary", (5,), search_s_certificate),
        ("cross-polytope", (4,), search_s_certificate),
        ("sphere2cells", (8,), search_s_certificate),
        ("q-polytope", (), search_s_certificate),
        ("torus-fig6", (), search_se_certificate),
        ("torus-fig12", (), search_se_certificate),
        ("torus-7vertex", (), search_se_certificate),
        ("octahedron", (), search_se_certificate),
        ("icosahedron", (), search_se_certificate),
        ("product", (3, 4), search_se_certificate),
        ("product", (4, 5), search_se_certificate),
    ]

    @pytest.mark.parametrize("family, params, search", SEARCHED)
    def test_searched_families(self, monkeypatch, family, params, search):
        p = parse_poset(format_poset(zoo.gen(family, params)))
        self.assert_exact(monkeypatch, lambda budget: search(p, budget))

    @pytest.mark.parametrize("family, params, replays", [("cube", (4,), 25), ("simplex-boundary", (5,), 31), ("sphere2cells", (8,), 0)])
    def test_replays_counted(self, monkeypatch, family, params, replays):
        """cube(4) and simplex-boundary(5) repeat many sub-searches; every level of sphere2cells(8) has its own structure."""
        p = zoo.gen(family, params)
        assert len(self.assert_exact(monkeypatch, lambda budget: search_s_certificate(p, budget))) == replays

    def test_s1_x_s2_exhausted(self, monkeypatch):
        p = product(zoo.gen("polygon", (3,)), zoo.gen("sphere2cells", (2,)))
        for search in (search_s_certificate, search_se_certificate):
            self.assert_exact(monkeypatch, lambda budget: search(p, budget))

    def test_converters(self, monkeypatch):
        q = zoo.gen("q-polytope")
        order = [f"s{i}" for i in range(1, 8)]
        assert self.assert_exact(monkeypatch, lambda budget: order_to_s_certificate(q, order, budget))
        cp, cq = (search_s_certificate(zoo.gen("polygon", (k,))) for k in (3, 4))
        assert self.assert_exact(monkeypatch, lambda budget: product_se_partition(cp, cq, budget))

    def test_random_eulerian_small(self, monkeypatch):
        replays = 0
        for seed in range(200):
            p = zoo.random_eulerian_small(seed, 5)
            for search, passes in ((search_s_certificate, is_eulerian), (search_se_certificate, is_semi_eulerian)):
                if p.rank_top >= 2 and validate(p) == [] and passes(p):
                    replays += len(self.assert_exact(monkeypatch, lambda budget: search(p, budget)))
        assert replays > 1900  # 1,922 replays, each compared with a fresh search

    # prefixes, each followed by "_", that put a name before every tau name (t, ta, tau0, s) or after them (tau, tauA, u)
    PREFIXES = ("t", "ta", "tau", "tau0", "tauA", "s", "u")
    RENAMED = [
        ("q-polytope", ()), ("torus-fig6", ()), ("octahedron", ()), ("cube", (3,)), ("cross-polytope", (4,)),
        ("product", (3, 4)),
    ]

    @staticmethod
    def renamed(p, seed):
        """p with each element but bot and top renamed by a prefix drawn from PREFIXES, so that posets of one numbered
        structure below it can place their tau names apart."""
        rng = random.Random(seed)
        names = {x: x if x in (BOT, TOP) else f"{rng.choice(TestReplay.PREFIXES)}_{x}" for x in p.elements()}
        covers = [(names[x], names[y]) for x, y in p.covers()]
        return GradedPoset(f"{p.name}-{seed}", {names[x]: r for x, r in p.ranks().items()}, covers)

    @pytest.mark.parametrize("family, params", RENAMED)
    def test_renamed_around_the_tau_names(self, monkeypatch, family, params):
        """Replay keys count, per rank level, the names that sort before ``tau@``: without that count a replayed
        level would name the wrong elements of a poset whose taus sort elsewhere, and still verify from its mark
        (25 of these 140 searches differed from their twin without replay)."""
        p = zoo.gen(family, params)
        searches = [search_s_certificate, search_se_certificate] if is_eulerian(p) else [search_se_certificate]

        def outcome(q, search):
            budget = Budget()
            cert = search(q, budget)
            if cert is None:
                return None, budget.used
            total = partition.contributions(cert, check=False).total
            return format_certificate(cert), budget.used, [str(v) for v in partition.verify_partition(cert)], total

        for seed in range(14):
            for search in searches:
                with_replay = outcome(self.renamed(p, seed), search)
                with monkeypatch.context() as patched:
                    patched.setattr(partition, "_replay_table", lambda root: None)
                    assert outcome(self.renamed(p, seed), search) == with_replay, (seed, search.__name__)

    def test_no_replay_where_a_tau_name_can_be_taken(self, monkeypatch):
        q = _renamed_polygon4()
        for search in (search_s_certificate, search_se_certificate):
            assert self.assert_exact(monkeypatch, lambda budget: search(q, budget)) == []

    def test_budget_at_the_pinned_cube4_count(self):
        """The pinned cube(4) search spends 239 nodes, some charged at once by replays: 238 raise, 239 suffice."""
        p = zoo.gen("cube", (4,))
        budget = Budget(238)
        with pytest.raises(BudgetExhausted):
            search_s_certificate(p, budget)
        assert budget.used == 239
        cert = search_s_certificate(p, Budget(239))
        digest = hashlib.sha256(format_certificate(cert).encode("utf-8")).hexdigest()
        assert digest == "501af56b9d469a2faec155ba9b6d5f83da68cb1e49ee345407a049266da06461"

    @pytest.mark.parametrize("used, limit, nodes", [(0, 5, 3), (0, 5, 5), (0, 5, 6), (2, 5, 9), (5, 5, 1), (6, 5, 1)])
    def test_spending_at_once_is_spending_one_at_a_time(self, used, limit, nodes):
        one_by_one, at_once = Budget(limit, used), Budget(limit, used)
        try:
            for _ in range(nodes):
                one_by_one.spend()
        except BudgetExhausted:
            with pytest.raises(BudgetExhausted):
                at_once.spend(nodes)
        else:
            at_once.spend(nodes)
        assert at_once.used == one_by_one.used


def reference_gamma_checked(p, sigma, rest, j):
    """The class check by names, as the library made it before it decided classes on numbers: gamma is a
    named cap, validated with its semisuspension by ``near_eulerian_suspension``, its boundary a set of names."""
    if not rest:
        return FailureReport(sigma, "ordinary-singleton", "ordinary class has no members besides its coatom")
    members = set(p._names(rest))
    try:
        gamma = cap(p, closure(p, members), p.rank_top - 1, name=f"gamma({p.name}@{sigma})")
    except PosetError as exc:
        return FailureReport(sigma, "gamma-unbuildable", str(exc))
    tau = partition.tau_name(sigma, j)
    if tau in gamma:
        return FailureReport(sigma, "tau-name-taken", f"{tau} is already an element of {gamma.name}")
    suspended = near_eulerian_suspension(gamma, tau)
    if suspended is None:
        return FailureReport(sigma, "gamma-not-near-eulerian", gamma.name)
    bdry = boundary_set(gamma)
    if members & bdry:
        return FailureReport(sigma, "non-disjoint-boundary", f"{sorted(members & bdry)}")
    missing = set(gamma.elements()) - {TOP} - members - bdry
    if missing:
        return FailureReport(sigma, "gamma-decomposition", f"uncovered closure part {sorted(missing)}")
    return suspended


class TestNumberedClassCheck:
    """``_gamma_checked`` decides a class on numbers and nameless views; it gives the failure text, or a
    semisuspension equal to and named as, the name-level reference's, and a failing check names no poset."""

    @staticmethod
    def compare(monkeypatch, checks) -> Counter:
        """Compare every (p, sigma, rest, j) of checks with the reference; the outcome codes ("pass" for none)."""
        codes = Counter()
        built = TestSharedSubposets.record_builds(monkeypatch)
        for p, sigma, rest, j in checks:
            expected = reference_gamma_checked(p, sigma, rest, j)
            built.clear()
            failure = partition._class_failure(p, sigma, rest, j)
            assert TestSharedSubposets.named(built) == []  # a check, failing or not, names nothing
            got = partition._gamma_checked(p, sigma, rest, j)
            if isinstance(expected, FailureReport):
                assert got == failure == expected and str(got) == str(expected), (p.name, sigma, rest)
                codes[expected.code] += 1
            else:
                assert failure is None and got == expected and got.name == expected.name, (p.name, sigma, rest)
                codes["pass"] += 1
        return codes

    @staticmethod
    def searched_checks(monkeypatch, run) -> list:
        """The (p, sigma, rest, j) of every class check that run() makes."""
        checks = []
        real = partition._class_failure

        def recorded(p, sigma, rest, j):
            checks.append((p, sigma, rest, j))
            return real(p, sigma, rest, j)

        with monkeypatch.context() as patched:
            patched.setattr(partition, "_class_failure", recorded)
            run()
        return checks

    @pytest.mark.parametrize("family", ["q-polytope", "torus-fig6", "torus-fig12"])
    def test_zoo_published_certificates(self, monkeypatch, fresh_cert, family):
        checks = [
            (level.poset, sigma, level.poset._mask(part), j)
            for level in _levels(fresh_cert(family))
            for sigma in level.ordinary()
            for j, part, _ in level._subclasses(sigma)
        ]
        assert self.compare(monkeypatch, checks) == {"pass": len(checks)} and checks

    @pytest.mark.parametrize("family, params, search", TestReplay.SEARCHED)
    def test_searched_families(self, monkeypatch, family, params, search):
        p = parse_poset(format_poset(zoo.gen(family, params)))
        checks = self.searched_checks(monkeypatch, lambda: search(p))
        codes = self.compare(monkeypatch, checks)
        # sphere2cells has two facets, the initial and the terminal one: no class to check
        assert sum(codes.values()) == len(checks) and (codes["pass"] > 0) == (family != "sphere2cells")

    def test_random_eulerian_small(self, monkeypatch):
        codes = Counter()
        for seed in range(200):
            p = zoo.random_eulerian_small(seed, 5)
            for search, passes in ((search_s_certificate, is_eulerian), (search_se_certificate, is_semi_eulerian)):
                if p.rank_top >= 2 and validate(p) == [] and passes(p):
                    codes += self.compare(monkeypatch, self.searched_checks(monkeypatch, lambda: search(p)))
        assert codes == {"pass": 2184, "gamma-not-near-eulerian": 6}

    def test_random_class_masks_reach_every_code(self, monkeypatch):
        """Classes of random facets minus random down-closed covered parts, sometimes with an element of another
        class, on zoo posets, their mutations (some invalid) and one with a taken tau name."""
        rng = random.Random(29)
        posets = [_renamed_polygon4()]
        for family, params in SMALL_ZOO:
            base = zoo.gen(family, params)
            posets += [base, *mutations(base, 0)]
        checks = []
        for p in posets:
            if p.rank_top < 2 or not p.elements_of_rank(p.rank_top):
                continue
            coatoms = [p._index[x] for x in p.coatoms()]
            for _ in range(12):
                i = rng.choice(coatoms) if coatoms else p._index[p.top()]
                covered = 0
                for k in rng.sample(coatoms, rng.randint(0, min(3, len(coatoms)))):
                    covered |= p._downset[k] if k != i else 0
                rest = p._downset[i] & ~covered & ~(1 << i)
                if rng.random() < 0.2:
                    rest |= 1 << rng.randrange(len(p) - 1)
                j = rng.choice([None, 1, 2])
                checks.append((p, p._elements[i], rest, j))
        codes = self.compare(monkeypatch, checks)
        assert set(codes) == {
            "pass", "ordinary-singleton", "gamma-unbuildable", "tau-name-taken", "gamma-not-near-eulerian",
            "non-disjoint-boundary", "gamma-decomposition",
        }, codes


class TestGammaKeepsTheRootBot:
    """In ``_class_failure``, the conjunct ``p._elements[kept[0]] == BOT`` never fails on a reachable input, which is
    why replacing it by ``True`` (mutant m5 of the ROADMAP's mutant sweep) survives the suite: every caller runs
    under a root that ``validate`` passed, every poset derived from it keeps the root's bot as element 0, and a
    class's closure is not empty, so it holds element 0.  This pins that reason on the checks that certificates
    and searches make."""

    def test_first_kept_element_is_bot(self, monkeypatch, fresh_cert):
        firsts = Counter()
        checking = []
        real_cap_entry, real_class_failure = partition._cap_entry, partition._class_failure

        def cap_entry(p, mask, rank_top):
            kept, entry = real_cap_entry(p, mask, rank_top)
            if checking:
                firsts[checking[-1], p._elements[kept[0]]] += 1
            return kept, entry

        def class_failure(*args):
            checking.append(part)
            try:
                return real_class_failure(*args)
            finally:
                checking.pop()

        monkeypatch.setattr(partition, "_cap_entry", cap_entry)
        monkeypatch.setattr(partition, "_class_failure", class_failure)
        part = "published"
        for family in ("q-polytope", "torus-fig6", "torus-fig12"):
            assert partition.verify_partition(fresh_cert(family)) == []
        part = "searched"
        for family, params, search in TestReplay.SEARCHED:
            search(parse_poset(format_poset(zoo.gen(family, params))))
        part = "random"
        for seed in range(50):
            p = zoo.random_eulerian_small(seed, 5)
            for search, passes in ((search_s_certificate, is_eulerian), (search_se_certificate, is_semi_eulerian)):
                if p.rank_top >= 2 and validate(p) == [] and passes(p):
                    search(p)
        assert {first for _, first in firsts} == {BOT}
        assert {part for part, _ in firsts} == {"published", "searched", "random"}, firsts


def _forgetting(patched, slot, blank):
    """Turn a memo slot of ``partition._Level`` off: it reads blank and keeps nothing, so every walk walks every level.

    A token made meanwhile holds blank, its initial value, once the patch is undone.
    """
    real = vars(partition._Level)[slot]
    patched.setattr(partition._Level, slot, property(lambda token: blank, lambda token, _: real.__set__(token, blank)))


def _levels(cert):
    """Every level of a certificate: the record and its sub-certificates, depth first."""
    out, stack = [], [cert]
    while stack:
        level = stack.pop()
        out.append(level)
        stack.extend(sub for sub in (level.subcert_initial, *level.subcerts.values()) if sub is not None)
    return out


_BENCH_CERTS = Path(__file__).resolve().parent.parent / "bench_cdposet" / "certs"


def _bench_cert(name, family, params=()):
    """A benchmark certificate parsed against a freshly built poset, so no other test has walked its levels."""
    text = (_BENCH_CERTS / f"{name}.cert").read_text(encoding="utf-8")
    return parse_certificate(text, parse_poset(format_poset(zoo.gen(family, params))))


class TestVerificationMemo:
    """A level whose token a full walk has verified passes at once; the memo changes no verification outcome."""

    @staticmethod
    def both_ways(monkeypatch, cert):
        """The violations of cert with the memo on, twice (the second from the memo), and with it off."""
        on = [str(v) for v in partition.verify_partition(cert)]
        again = [str(v) for v in partition.verify_partition(cert)]
        with monkeypatch.context() as patched:
            _forgetting(patched, "verified", False)
            off = [str(v) for v in partition.verify_partition(cert)]
        assert on == again == off
        return on

    @pytest.mark.parametrize("family", ["q-polytope", "torus-fig6", "torus-fig12"])
    def test_zoo_published_certificates(self, monkeypatch, family):
        cert = zoo.fixture_certificate(family)
        assert cert._level is not None and self.both_ways(monkeypatch, cert) == []

    @pytest.mark.parametrize("family, params, search", TestReplay.SEARCHED)
    def test_searched_certificates(self, monkeypatch, family, params, search):
        cert = search(parse_poset(format_poset(zoo.gen(family, params))))
        assert all(level._level is not None for level in _levels(cert))
        assert self.both_ways(monkeypatch, cert) == []

    @pytest.mark.parametrize("name", sorted(_MUTATIONS))
    def test_mutations(self, request, monkeypatch, name):
        fixture, mutate, expected = _MUTATIONS[name]
        cert = mutate(request.getfixturevalue(fixture))
        assert cert._level is None  # a replace result is verified in full
        assert self.both_ways(monkeypatch, cert) == expected

    def test_polygon100_walks_each_distinct_level_once(self, monkeypatch):
        """199 levels of 3 numbered shapes: the poset, its rank-2 boundaries and semisuspensions, and rank 1."""
        cert = _bench_cert("polygon-100", "polygon", (100,))
        levels = _levels(cert)
        tokens = {id(level._level) for level in levels}
        assert len(levels) == 199 and len(tokens) == 3 and None not in {level._level for level in levels}
        walked = []
        real = partition._passed  # a full walk of a level ends here once; a memo hit does not
        monkeypatch.setattr(partition, "_passed", lambda level, out: walked.append(level.poset) or real(level, out))
        assert verify_s_partition(cert) == [] and len(walked) == 3
        assert verify_s_partition(cert) == [] and len(walked) == 3
        assert contributions_s(cert, check=True).total == cd_index(cert.poset) and len(walked) == 3

    def test_levels_of_one_structure_share_a_token(self):
        cert = _bench_cert("polygon-100", "polygon", (100,))
        subs = list(cert.subcerts.values())
        assert len(subs) == 98 and len({id(sub._level) for sub in subs}) == 1
        assert len({sub.poset.name for sub in subs}) == 98  # 98 posets, named apart, of one numbered structure
        assert subs[0]._level is cert.subcert_initial._level  # the capped boundary of an edge has that shape too

    def test_a_replace_result_has_no_token_and_is_walked_in_full(self, monkeypatch):
        cert = _bench_cert("q-polytope", "q-polytope")
        assert verify_s_partition(cert) == []
        copy_ = replace(cert)
        assert cert._level is not None and copy_._level is None and copy_ == cert
        walked = []
        real = partition._passed
        monkeypatch.setattr(partition, "_passed", lambda level, out: walked.append(level.poset) or real(level, out))
        assert verify_s_partition(cert) == [] and walked == []
        assert verify_s_partition(copy_) == [] and walked == [cert.poset]  # its sub-certificates are the library's

    def test_records_are_immutable(self, q_cert, torus6_cert):
        for cert in (q_cert, torus6_cert, replace(q_cert)):
            with pytest.raises(TypeError):
                cert.classes["s1"] = frozenset()
            with pytest.raises(TypeError):
                cert.subcerts["s1"] = cert
            with pytest.raises(FrozenInstanceError):
                cert.initial = "s2"
            with pytest.raises(FrozenInstanceError):
                cert._level = None
        with pytest.raises(TypeError):
            torus6_cert.subclass_decomp["F00"] = ()

    def test_a_hand_built_record_copies_its_mappings(self, q_cert):
        classes = dict(q_cert.classes)
        c = q_cert
        cert = SPartitionCert(c.poset, classes, c.initial, c.terminal, c.subcert_initial, c.subcerts)
        classes.pop("s1")
        assert cert == q_cert and "s1" in cert.classes and cert._level is None

    def test_a_record_pickles_and_copies_as_a_hand_built_one(self, q_cert):
        for back in (pickle.loads(pickle.dumps(q_cert)), copy.deepcopy(q_cert), copy.copy(q_cert)):
            assert back == q_cert and back._level is None
            assert format_certificate(back) == format_certificate(q_cert) and verify_s_partition(back) == []

    def test_a_sub_certificate_that_does_not_start_at_its_tau(self, monkeypatch, q_cert):
        """It verifies on its own, so it has a token; the level above it fails and has none."""
        text = format_certificate(q_cert)
        tau_first = (
            "          class P kind=terminal\n            members P\n"
            "          class tau@AP kind=initial\n            members bot tau@AP\n            sub\n"
        )
        assert tau_first in text
        p_first = (
            "          class P kind=initial\n            members bot P\n            sub\n"
            "          class tau@AP kind=terminal\n            members tau@AP\n"
        )
        cert = parse_certificate(text.replace(tau_first, p_first), parse_poset(format_poset(q_cert.poset)))
        level = cert.subcert_initial
        assert level.subcerts["AP"]._level is not None and verify_s_partition(level.subcerts["AP"]) == []
        assert level._level is None and cert._level is None
        assert self.both_ways(monkeypatch, cert) == [
            "VIOLATION initial-not-tau spart/class[s1]/sub/class[AP]/sub initial is 'P', expected 'tau@AP'"
        ]

    @staticmethod
    def mutated(text, names, rng):
        """text with one random edit of its lines: a member moved or replaced, two kinds or two coatoms swapped."""
        lines = text.splitlines()
        members = [i for i, line in enumerate(lines) if line.lstrip().startswith("members ")]
        classes = [i for i, line in enumerate(lines) if line.lstrip().startswith("class ")]
        edit = rng.randrange(4)
        if edit < 2:
            i, k = rng.sample(members, 2)
            fields = lines[i].split()
            x = fields.pop(rng.randrange(1, len(fields)))
            if edit == 0:  # moved to another class
                lines[k] += f" {x}"
            else:  # replaced by another element
                fields.append(rng.choice(names))
            lines[i] = lines[i][: len(lines[i]) - len(lines[i].lstrip())] + " ".join(fields)
        else:
            i, k = rng.sample(classes, 2)
            a, b = lines[i].split(), lines[k].split()
            part = 2 if edit == 2 else 1  # the kinds, or the coatoms
            a[part], b[part] = b[part], a[part]
            lines[i] = lines[i][: len(lines[i]) - len(lines[i].lstrip())] + " ".join(a)
            lines[k] = lines[k][: len(lines[k]) - len(lines[k].lstrip())] + " ".join(b)
        return "\n".join(lines) + "\n"

    # family, params, and the search that finds the certificate to edit (None: the published one)
    MUTATED_FAMILIES = [
        ("q-polytope", (), None),
        ("torus-fig6", (), None),
        ("polygon", (8,), search_s_certificate),
        ("cube", (3,), search_s_certificate),
        ("product", (3, 4), search_se_certificate),
    ]

    @pytest.mark.parametrize("family, params, search", MUTATED_FAMILIES)
    def test_mutated_texts_of_one_family(self, monkeypatch, family, params, search):
        """Mutated texts parsed against one poset share its structure table, so their levels share tokens;
        each verifies as it does without the memo, whatever the texts verified before it."""
        p = zoo.gen(family, params)
        text = format_certificate(zoo.fixture_certificate(family) if search is None else search(p))
        q = parse_poset(format_poset(p))
        assert verify_s_partition(parse_certificate(text, q)) == []  # marks the tokens of every level of text
        rng = random.Random(1)
        failing = 0
        for _ in range(300):
            mutated = self.mutated(text, q.elements(), rng)
            try:
                cert = parse_certificate(mutated, q)
            except CertificateParseError:
                continue
            on = [str(v) for v in verify_s_partition(cert)]
            with monkeypatch.context() as patched:
                _forgetting(patched, "verified", False)
                assert [str(v) for v in verify_s_partition(parse_certificate(mutated, q))] == on
            failing += on != []
        assert failing >= 20

    def test_no_token_where_a_tau_name_can_be_taken(self):
        """There each record gets a level of its own, so no verified mark or totals pass between records."""
        q = _renamed_polygon4()
        cert = search_s_certificate(q)
        parsed = parse_certificate(format_certificate(cert), q)
        records = _levels(cert) + _levels(parsed)
        levels = [record._level for record in records]
        assert None not in levels and len({id(level) for level in levels}) == len(levels) == 14
        assert not any(key[0] == "cdposet.partition._level" for record in records for key in record.poset._shared)
        assert verify_s_partition(parsed) == []

    def test_no_token_on_an_invalid_poset(self):
        p = parse_poset(_UNBOUNDED)
        assert partition._reads_numbers(p) is False and partition._reads_numbers(zoo.gen("polygon", (4,))) is True


# the certificates of bench_cdposet/certs/, by file name: (poset family, params)
_BENCH_FAMILIES = {
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


class TestParseOutcomes:
    """What reading a fixed corpus of certificate texts gives, pinned by one hash across changes to the reader.

    The corpus: the ten benchmark texts, the three published ones, the ``TestVerificationMemo.mutated`` texts of
    ``MUTATED_FAMILIES`` (each family's texts read into one poset family, after its unedited text) and seeded
    one-line edits of the thirteen texts, each read into a fresh family.
    """

    # sha256 of the repr of every outcome, in corpus order
    PINNED = "0b93e543de844241f257a4270b7e7ecd52de7b452b321c34141fb86ec0baf806"

    @staticmethod
    def outcome(text, q):
        """The parse error, or the formatted text, the violations and the checked total or the error it raises."""
        try:
            cert = parse_certificate(text, q)
        except CertificateParseError as exc:
            return str(exc)
        try:
            total = str(partition.contributions(cert, check=True).total)
        except PosetError as exc:
            total = f"{type(exc).__name__}: {exc}"
        return format_certificate(cert), [str(v) for v in partition.verify_partition(cert)], total

    @staticmethod
    def edited(text, names, rng):
        """text with one seeded edit of one line: its indentation moved by ±1 or ±2, the line dropped or
        doubled, a member renamed, or a class's kind swapped."""
        lines = text.splitlines()
        edit = rng.randrange(8)
        if edit < 6:
            i = rng.randrange(1, len(lines))
            if edit < 4:
                shift = (1, -1, 2, -2)[edit]
                pad = len(lines[i]) - len(lines[i].lstrip())
                lines[i] = " " * max(pad + shift, 0) + lines[i].lstrip()
            elif edit == 4:
                del lines[i]
            else:
                lines.insert(i, lines[i])
        elif edit == 6:
            i = rng.choice([i for i, line in enumerate(lines) if line.lstrip().startswith("members ")])
            fields = lines[i].split()
            fields[rng.randrange(1, len(fields))] = rng.choice([*names, "nowhere"])
            lines[i] = lines[i][: len(lines[i]) - len(lines[i].lstrip())] + " ".join(fields)
        else:
            i = rng.choice([i for i, line in enumerate(lines) if " kind=" in line])
            kind = rng.choice(["initial", "ordinary", "terminal", "singleton"])
            lines[i] = lines[i][: lines[i].index(" kind=")] + f" kind={kind}"
        return "\n".join(lines) + "\n"

    @classmethod
    def corpus_outcomes(cls):
        posets = {name: format_poset(zoo.gen(*family)) for name, family in _BENCH_FAMILIES.items()}
        texts = {name: (_BENCH_CERTS / f"{name}.cert").read_text(encoding="utf-8") for name in posets}
        for family in ("q-polytope", "torus-fig6", "torus-fig12"):
            posets[f"published {family}"] = format_poset(zoo.gen(family))
            texts[f"published {family}"] = format_certificate(zoo.fixture_certificate(family))
        out = [cls.outcome(texts[name], parse_poset(posets[name])) for name in texts]
        for family, params, search in TestVerificationMemo.MUTATED_FAMILIES:
            p = zoo.gen(family, params)
            text = format_certificate(zoo.fixture_certificate(family) if search is None else search(p))
            q = parse_poset(format_poset(p))
            out.append(cls.outcome(text, q))
            rng = random.Random(1)
            out += [cls.outcome(TestVerificationMemo.mutated(text, q.elements(), rng), q) for _ in range(300)]
        rng = random.Random(7)
        for name, text in texts.items():
            names = parse_poset(posets[name]).elements()
            out += [cls.outcome(cls.edited(text, names, rng), parse_poset(posets[name])) for _ in range(24)]
        return out

    def test_outcomes_stay(self):
        out = self.corpus_outcomes()
        assert sum(isinstance(o, str) for o in out) > 1000 and sum(isinstance(o, tuple) and o[1] != [] for o in out) > 200
        assert hashlib.sha256(repr(out).encode()).hexdigest() == self.PINNED


def _comparisons(monkeypatch, run):
    """The cross-check comparisons that run() makes: each takes one direct cd-index in ``partition``."""
    calls = []
    real = partition.cd_index
    with monkeypatch.context() as patched:
        patched.setattr(partition, "cd_index", lambda q: calls.append(q) or real(q))
        run()
    return len(calls)


class TestTotalsMemo:
    """A level whose token already has totals is read, not walked: each distinct numbered level is totalled
    and cross-checked once per family, and the memo changes no contribution map."""

    @staticmethod
    def both_ways(monkeypatch, cert):
        """The checked contribution map of cert with the memo on, twice (the second from the memo), and off."""
        on = partition.contributions(cert)
        again = partition.contributions(cert)
        with monkeypatch.context() as patched:
            _forgetting(patched, "totals", None)
            off = partition.contributions(cert)
        assert on == again == off and list(on.per_coatom) == list(off.per_coatom)
        assert on.total == (cd_index if isinstance(cert, SPartitionCert) else semi_cd_index)(cert.poset)
        return on

    @pytest.mark.parametrize("family", ["q-polytope", "torus-fig6", "torus-fig12"])
    def test_zoo_published_certificates(self, monkeypatch, fresh_cert, family):
        self.both_ways(monkeypatch, fresh_cert(family))

    @pytest.mark.parametrize("family, params, search", TestReplay.SEARCHED)
    def test_searched_certificates(self, monkeypatch, family, params, search):
        self.both_ways(monkeypatch, search(parse_poset(format_poset(zoo.gen(family, params)))))

    @pytest.mark.parametrize("name", sorted(_BENCH_FAMILIES))
    def test_benchmark_certificates(self, monkeypatch, name):
        self.both_ways(monkeypatch, _bench_cert(name, *_BENCH_FAMILIES[name]))

    def test_polygon100_cross_checks_each_distinct_level_once(self, monkeypatch):
        """The poset and its rank-2 levels each compare once.  Walking every level compared 198 times: once per
        level above rank 1, and once more per ordinary block, whose boundary index was taken again above it."""
        cert = _bench_cert("polygon-100", "polygon", (100,))
        assert verify_s_partition(cert) == []
        assert _comparisons(monkeypatch, lambda: contributions_s(cert, check=True)) == 2
        assert _comparisons(monkeypatch, lambda: contributions_s(cert, check=True)) == 0
        hand_built = pickle.loads(pickle.dumps(cert))  # no level has a token, so every level is walked
        assert _comparisons(monkeypatch, lambda: contributions_s(hand_built, check=True)) == 100
        assert contributions_s(hand_built) == contributions_s(cert)

    def test_the_benchmark_certificates_make_83_comparisons(self, monkeypatch):
        """804 levels of 93 distinct numbered ones; walking every level compared 794 times."""
        certs = [_bench_cert(name, *family) for name, family in _BENCH_FAMILIES.items()]
        assert all(partition.verify_partition(cert) == [] for cert in certs)
        made = _comparisons(monkeypatch, lambda: [partition.contributions(cert, check=True) for cert in certs])
        assert made == 83

    def test_a_changed_map_leaves_the_next_call_unchanged(self, fresh_cert):
        cert = fresh_cert("q-polytope")
        first = contributions_s(cert)
        kept = copy.deepcopy(first)
        first.per_coatom["s1"] = NcPolynomial.zero(CD)
        del first.per_coatom["s2"]
        first.total = NcPolynomial.zero(CD)
        again = contributions_s(cert)
        assert again == kept and again.per_coatom is not first.per_coatom

    def test_a_level_that_raises_keeps_no_totals(self, monkeypatch, fresh_cert):
        cert = fresh_cert("q-polytope")
        real = partition.cd_index
        with monkeypatch.context() as patched:
            patched.setattr(partition, "cd_index", lambda q: real(q) * 2 if q.name == "bnd(q-polytope@s1)" else real(q))
            with pytest.raises(CrossCheckError):
                contributions_s(cert)
        assert cert._level.totals is None and cert.subcert_initial._level.totals is not None
        assert contributions_s(cert).total == cd_index(cert.poset)

    def test_a_replace_result_is_walked_at_its_own_level(self, monkeypatch, fresh_cert):
        cert = fresh_cert("q-polytope")
        totals = contributions_s(cert)
        copy_ = replace(cert)  # no token; its sub-certificates are the library's and have totals
        assert _comparisons(monkeypatch, lambda: contributions_s(copy_)) == 1
        assert contributions_s(copy_) == totals

    def test_tokens_read_the_builders_numbers(self, monkeypatch):
        """Parsing, verifying and totalling the ten benchmark certificates, and reading the levels of searched
        ones, turn no name back into a bitset: ``GradedPoset._mask`` is not called."""
        texts = {name: (_BENCH_CERTS / f"{name}.cert").read_text(encoding="utf-8") for name in _BENCH_FAMILIES}
        posets = {name: parse_poset(format_poset(zoo.gen(*family))) for name, family in _BENCH_FAMILIES.items()}
        searched = [
            search_s_certificate(parse_poset(format_poset(zoo.gen("cube", (3,))))),
            search_se_certificate(parse_poset(format_poset(zoo.gen("product", (3, 4))))),
        ]
        calls = []
        real = GradedPoset._mask
        monkeypatch.setattr(GradedPoset, "_mask", lambda p, names: calls.append(names) or real(p, names))
        for name, text in texts.items():
            cert = parse_certificate(text, posets[name])
            assert partition.verify_partition(cert) == []
            assert partition.contributions(cert, check=True).total == partition.contributions(cert).total
            assert all(level._level is not None for level in _levels(cert))
        assert all(level._level is not None for cert in searched for level in _levels(cert))
        assert calls == []


class TestSubLevelsAreEulerian:
    """The property that lets only the root be tested: the poset of every level below it is valid and Eulerian.

    Each is the capped initial boundary of its parent, an interval [bot, sigma1] of an Eulerian or
    semi-Eulerian poset, or a semisuspension that the class checks found Eulerian.  The parity test is called
    directly, not through the memo of ``is_eulerian``.
    """

    @staticmethod
    def sub_levels_checked(cert) -> int:
        """The number of levels below cert's root, after asserting each one's poset valid and Eulerian."""
        subs = _levels(cert)[1:]
        for level in subs:
            q = level.poset
            assert validate(q) == [] and poset_module._parity_holds(q), q.name
        return len(subs)

    @pytest.mark.parametrize("family, params, search", TestReplay.SEARCHED)
    def test_searched_zoo_certificates(self, family, params, search):
        assert self.sub_levels_checked(search(zoo.gen(family, params))) > 1

    def test_searched_random_eulerian_small(self):
        levels = 0
        for seed in range(200):
            p = zoo.random_eulerian_small(seed, 5)
            for search, passes in ((search_s_certificate, is_eulerian), (search_se_certificate, is_semi_eulerian)):
                if p.rank_top >= 2 and validate(p) == [] and passes(p):
                    cert = search(p)
                    levels += 0 if cert is None else self.sub_levels_checked(cert)
        assert levels == 7958  # below the roots of 400 certificates

    @pytest.mark.parametrize("family", ["q-polytope", "torus-fig6", "torus-fig12"])
    def test_zoo_published_certificates(self, family):
        assert self.sub_levels_checked(zoo.fixture_certificate(family)) > 1

    @pytest.mark.parametrize(
        "name, family, params",
        [
            ("connected-sum-4", "connected-sum", (4,)),
            ("cube-4", "cube", (4,)),
            ("icosahedron", "icosahedron", ()),
            ("polygon-100", "polygon", (100,)),
            ("product-4-5", "product", (4, 5)),
            ("q-polytope", "q-polytope", ()),
            ("sphere2cells-8", "sphere2cells", (8,)),
            ("torus-7vertex", "torus-7vertex", ()),
            ("torus-fig12", "torus-fig12", ()),
            ("torus-fig6", "torus-fig6", ()),
        ],
    )
    def test_benchmark_certificates(self, name, family, params):
        assert self.sub_levels_checked(_bench_cert(name, family, params)) > 1
