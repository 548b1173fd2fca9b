"""A reference verifier from the paper's definitions of S- and SE-partitions, compared with the library's.

The reference reads certificates by names, through the public poset API
only (``closure``, ``cap``, ``boundary_set``, ``semisuspension``,
``validate``, the Eulerian tests), and recurses on the sub-certificates.  It
keeps no memo, bitset or numbered level, and it totals each level with a direct
``cd_index`` of its capped boundaries.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

import test_partition as tp
from cdposet import zoo
from cdposet.flags import cd_index
from cdposet.ncpoly import CD, NcPolynomial
from cdposet.partition import (
    CertificateParseError,
    SPartitionCert,
    contributions,
    format_certificate,
    parse_certificate,
    search_s_certificate,
    search_se_certificate,
    tau_name,
    verify_partition,
)
from cdposet.poset import (
    PosetError,
    boundary_set,
    cap,
    closure,
    format_poset,
    is_eulerian,
    is_semi_eulerian,
    parse_poset,
    semisuspension,
    validate,
)


def reference_verdict(cert) -> bool:
    """Whether cert certifies its poset: an S-certificate an Eulerian one, an SE-certificate a semi-Eulerian one."""
    p = cert.poset
    eulerian = is_eulerian if isinstance(cert, SPartitionCert) else is_semi_eulerian
    if validate(p) or p.rank_top > 1 and not eulerian(p):
        return False
    return _level_holds(cert)


def _capped_boundary(p, sigma):
    """[bot, sigma) of p with a fresh top at sigma's rank."""
    return cap(p, closure(p, [sigma]) - {sigma}, p.rank_top - 1)


def _level_holds(cert) -> bool:
    p, s_rules = cert.poset, isinstance(cert, SPartitionCert)
    if p.rank_top == 1:
        return not (cert.classes or cert.initial or cert.zero_classes() or cert.subcerts or cert.subcert_initial)
    classes, coatoms, initial, zero = cert.classes, set(p.coatoms()), cert.initial, cert.zero_classes()
    # one class per coatom, holding it, inside its closure; together the classes partition p minus its top
    members = Counter(m for c in classes.values() for m in c)
    if set(classes) != coatoms or members != Counter(set(p.elements()) - {p.top()}):
        return False
    if any(sigma not in classes[sigma] or not classes[sigma] <= closure(p, [sigma]) for sigma in classes):
        return False
    if initial not in coatoms or classes[initial] != closure(p, [initial]):
        return False
    # the zero classes: S, one terminal singleton; SE, exactly the one-element classes besides the initial one
    singletons = {sigma for sigma in classes if sigma != initial and classes[sigma] == {sigma}}
    if not (len(zero) == 1 and zero <= singletons if s_rules else zero == singletons):
        return False
    if not _sub_holds(cert.subcert_initial, _capped_boundary(p, initial), None):
        return False
    ordinary = coatoms - {initial} - zero
    if set(cert.subcerts if s_rules else cert.subclass_decomp) != ordinary:
        return False
    for sigma in sorted(ordinary):
        rest = classes[sigma] - {sigma}
        parts = [(None, rest)] if s_rules else list(enumerate(cert.subclass_decomp[sigma], start=1))
        if not parts or Counter(m for _, part in parts for m in part) != Counter(rest):
            return False
        for j, part in parts:
            suspended = _gamma_suspension(p, sigma, part, j)
            key = sigma if j is None else (sigma, j)
            if suspended is None or not _sub_holds(cert.subcerts.get(key), suspended, tau_name(sigma, j)):
                return False
    return True


def _gamma_suspension(p, sigma, part, j):
    """The semisuspension of gamma, the closure of part capped at sigma's rank, at its tau; None unless gamma is
    near-Eulerian, with the members of part off its boundary and covering the rest of it."""
    if not part:
        return None
    try:
        gamma = cap(p, closure(p, part), p.rank_top - 1)
    except PosetError:
        return None
    tau = tau_name(sigma, j)
    if tau in gamma or gamma.rank_top < 2 or validate(gamma):
        return None
    suspended, _ = semisuspension(gamma, tau)
    if validate(suspended) or not is_eulerian(suspended):
        return None
    bdry = boundary_set(gamma)
    return suspended if not part & bdry and part | bdry == set(gamma.elements()) - {gamma.top()} else None


def _sub_holds(sub, expected, tau) -> bool:
    """A sub-certificate is an S-certificate of the expected poset, starting at tau if given, that holds."""
    if not isinstance(sub, SPartitionCert) or sub.poset != expected or tau is not None and sub.initial != tau:
        return False
    return _level_holds(sub)


def reference_totals(cert) -> dict[str, NcPolynomial]:
    """The per-coatom contributions of a valid certificate by the paper's recursion: the initial coatom gives
    cd(its capped boundary)·c, a zero class 0, and an ordinary one, per block, cd(gamma's boundary)·d plus the
    ordinary contributions of the block's sub-certificate times c."""
    p, zero = cert.poset, NcPolynomial.zero(CD)
    if p.rank_top == 1:
        return {}
    out = {cert.initial: cd_index(_capped_boundary(p, cert.initial)).times_letter("c")}
    out |= dict.fromkeys(cert.zero_classes(), zero)
    for sigma in cert.ordinary():
        if isinstance(cert, SPartitionCert):
            subs = [cert.subcerts[sigma]]
        else:
            subs = [cert.subcerts[sigma, j] for j in range(1, len(cert.subclass_decomp[sigma]) + 1)]
        out[sigma] = zero
        for sub in subs:
            below = reference_totals(sub)
            ordinary = sum((below[omega] for omega in sub.ordinary()), zero)
            phi = cd_index(_capped_boundary(sub.poset, sub.initial))
            out[sigma] += phi.times_letter("d") + ordinary.times_letter("c")
    return out


class TestReferenceVerifier:
    """``verify_partition`` gives the reference's verdict, and ``contributions`` its per-coatom totals."""

    @staticmethod
    def agree(cert) -> bool:
        valid = verify_partition(cert) == []
        assert reference_verdict(cert) is valid
        if valid:
            assert contributions(cert, check=False).per_coatom == reference_totals(cert)
        return valid

    @pytest.mark.parametrize("name", sorted(tp._MUTATIONS))
    def test_mutations(self, request, name):
        fixture, mutate, expected = tp._MUTATIONS[name]
        assert self.agree(mutate(request.getfixturevalue(fixture))) is (expected == [])

    @pytest.mark.parametrize("family", ["q-polytope", "torus-fig6", "torus-fig12"])
    def test_published_certificates(self, fresh_cert, family):
        assert self.agree(fresh_cert(family))

    @pytest.mark.parametrize("family, params, search", tp.TestReplay.SEARCHED)
    def test_searched_certificates(self, family, params, search):
        assert self.agree(search(parse_poset(format_poset(zoo.gen(family, params)))))

    def test_random_eulerian_small(self):
        """The S and SE searches of 50 random posets: every search finds a certificate."""
        found = 0
        for seed in range(50):
            p = zoo.random_eulerian_small(seed, 5)
            for search, passes in ((search_s_certificate, is_eulerian), (search_se_certificate, is_semi_eulerian)):
                if p.rank_top >= 2 and validate(p) == [] and passes(p):
                    cert = search(p)
                    found += cert is not None and self.agree(cert)
        assert found == 100

    @pytest.mark.parametrize("family, params, search", tp.TestVerificationMemo.MUTATED_FAMILIES)
    def test_mutated_texts(self, family, params, search):
        """Randomly edited certificate texts that parse, each into a fresh family and into one shared family whose
        levels the unedited text has already verified: a parsed level shared within a family changes no verdict."""
        p = zoo.gen(family, params)
        text = format_certificate(zoo.fixture_certificate(family) if search is None else search(p))
        poset_text = format_poset(p)
        shared = parse_poset(poset_text)
        assert self.agree(parse_certificate(text, shared))
        rng = random.Random(2)
        verdicts = Counter()
        for _ in range(150):
            mutated = tp.TestVerificationMemo.mutated(text, shared.elements(), rng)
            try:
                parse_certificate(mutated, shared)
            except CertificateParseError:
                continue
            for q in (parse_poset(poset_text), shared):
                verdicts[self.agree(parse_certificate(mutated, q))] += 1
        assert verdicts[True] >= 10 and verdicts[False] >= 30, verdicts  # 172 texts parse, 2 families each

