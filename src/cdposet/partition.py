"""Recursive partition certificates and the per-coatom cd-index recursion.

An SE-certificate partitions the elements of a semi-Eulerian poset (minus
the top) into one class per coatom: the full closure of an initial coatom,
zero classes that hold only their coatom, and ordinary classes split into
subclasses whose capped closures (gamma) are near-Eulerian with recursively
certified semisuspensions.  An S-certificate is the Eulerian special case:
its one zero class is the terminal singleton and each ordinary class is a
single subclass.  Every walk is written once over the view both share.

The derived sub-posets (capped initial boundary, gamma, its boundary and
semisuspension) and their Eulerian verdicts are memoized on the poset they
come from, so parsing, verifying, totalling and searching one certificate
build each of them once.  Searching, verifying, totalling, parsing and
formatting walk the levels of a certificate as generators that yield each
sub-level to ``poset._run``, so depth costs no Python frames.
``verify_partition`` checks an explicit witness and never searches.  Both
searches walk facet orders depth first, one slot per level of the walk.  A
search that returns None has exhausted the facet orders, not shown that no
certificate exists.

The initial coatom contributes the cd-index of its capped boundary times
c; ordinary coatoms contribute, per subclass, the boundary cd-index times d
plus the ordinary contributions of the semisuspension times c; zero classes
contribute zero.  The boundary cd-indices come from the direct flag
pipeline and are cross-checked against the recursive totals at every level.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable
from dataclasses import dataclass

from .flags import cd_index
from .ncpoly import CD, NcPolynomial
from .poset import (
    BOT,
    TOP,
    GradedPoset,
    PosetError,
    Violation,
    _bits,
    _run,
    _union,
    boundary_set,
    cap,
    closure,
    is_eulerian,
    is_semi_eulerian,
    memoized,
    near_eulerian_suspension,
    pair_name,
    product as poset_product,
    read_lines,
    semisuspension,
    validate,
)


class BudgetExhausted(Exception):
    """The search node budget ran out before a verdict."""


class NegativeCoefficient(ValueError):
    pass


class NotSimplicial(PosetError):
    pass


class NotAPartition(PosetError):
    pass


class RankNotThree(PosetError):
    pass


class CertificateInvalid(PosetError):
    """A contribution computation was asked for an invalid certificate."""

    def __init__(self, violations: list[Violation]):
        super().__init__("; ".join(str(v) for v in violations[:3]))
        self.violations = violations


class CrossCheckError(PosetError):
    """Direct and recursive boundary cd-indices disagreed (data corruption)."""


class CertificateParseError(PosetError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class Budget:
    """Deterministic search-node counter shared across recursive searches."""

    limit: int = 10**6
    used: int = 0

    @classmethod
    def of(cls, budget: "Budget | int | None") -> "Budget":
        """The caller's budget, or a fresh one with that node limit (None: the default)."""
        if isinstance(budget, Budget):
            return budget
        return cls() if budget is None else cls(budget)

    def spend(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise BudgetExhausted(f"search budget of {self.limit} nodes exhausted")


class _Certificate:
    """The view of a certificate that every walk reads.

    ``header`` is the file-format word and the default violation path;
    ``zero_kind`` names the kind of class that contributes zero.
    """

    header = ""
    zero_kind = ""

    def zero_classes(self) -> frozenset[str]:
        raise NotImplementedError

    def _subclasses(self, sigma: str) -> list[tuple[int | None, frozenset[str], Hashable]]:
        """(j, members without sigma, subcerts key) per subclass of an ordinary class.

        j is None for the single, unnumbered subclass of an S-certificate.
        """
        raise NotImplementedError

    def ordinary(self) -> list[str]:
        zero = self.zero_classes()
        return sorted(s for s in self.classes if s != self.initial and s not in zero)


@dataclass
class SPartitionCert(_Certificate):
    """Witness of S-partitionability; sub-certificates are nested certs."""

    poset: GradedPoset
    classes: dict[str, frozenset[str]]
    initial: str | None
    terminal: str | None
    subcert_initial: "SPartitionCert | None"
    subcerts: dict[str, "SPartitionCert"]

    header = "spart"
    zero_kind = "terminal"

    def zero_classes(self) -> frozenset[str]:
        return frozenset() if self.terminal is None else frozenset({self.terminal})

    def _subclasses(self, sigma: str) -> list[tuple[int | None, frozenset[str], Hashable]]:
        return [(None, self.classes[sigma] - {sigma}, sigma)]


@dataclass
class SEPartitionCert(_Certificate):
    """Witness of SE-partitionability with per-coatom subclass decompositions."""

    poset: GradedPoset
    classes: dict[str, frozenset[str]]
    initial: str | None
    singletons: frozenset[str]
    subclass_decomp: dict[str, tuple[frozenset[str], ...]]
    subcert_initial: "SPartitionCert | None"
    subcerts: dict[tuple[str, int], SPartitionCert]

    header = "separt"
    zero_kind = "singleton"

    def zero_classes(self) -> frozenset[str]:
        return self.singletons

    def _subclasses(self, sigma: str) -> list[tuple[int | None, frozenset[str], Hashable]]:
        parts = self.subclass_decomp[sigma]
        return [(j, frozenset(part), (sigma, j)) for j, part in enumerate(parts, start=1)]


def _base_cert(p: GradedPoset, cls: type) -> SPartitionCert | SEPartitionCert:
    """The empty certificate of a rank-1 poset."""
    if cls is SPartitionCert:
        return SPartitionCert(p, {}, None, None, None, {})
    return SEPartitionCert(p, {}, None, frozenset(), {}, None, {})


@dataclass
class ContributionMap:
    """Per-coatom cd-polynomials summing to the poset's cd-index."""

    per_coatom: dict[str, NcPolynomial]
    total: NcPolynomial


@dataclass(frozen=True)
class FailureReport:
    """Negative outcome of a conversion: the first facet whose class fails."""

    facet: str | None
    code: str
    detail: str

    def __str__(self) -> str:
        where = self.facet if self.facet is not None else "-"
        return f"FAILURE {self.code} {where} {self.detail}"


# -- derived sub-posets -----------------------------------------------------------


def tau_name(sigma: str, j: int | None = None) -> str:
    return f"tau@{sigma}" if j is None else f"tau@{sigma}/{j}"


@memoized
def initial_boundary_poset(p: GradedPoset, sigma1: str) -> GradedPoset:
    """The capped open closure of the initial coatom, a rank-d poset."""
    d = p.rank_top - 1
    members = closure(p, [sigma1]) - {sigma1}
    return cap(p, members, d, name=f"bnd({p.name}@{sigma1})")


def gamma_poset(p: GradedPoset, sigma: str, members: set[str] | frozenset[str]) -> GradedPoset:
    """Capped closure of a class minus its coatom (or of an SE subclass)."""
    return _gamma(p, sigma, _union(p._downset, p._mask(members)))


@memoized
def _gamma(p: GradedPoset, sigma: str, closed: int) -> GradedPoset:
    """gamma_poset on the bitset of a down-closed set."""
    return cap(p, p._names(closed), p.rank_top - 1, name=f"gamma({p.name}@{sigma})")


@memoized
def boundary_poset(gamma: GradedPoset) -> GradedPoset:
    """The boundary of a capped near-Eulerian poset, capped one rank lower."""
    return cap(gamma, boundary_set(gamma), gamma.rank_top - 1, name=f"bnd({gamma.name})")


def _suspended(p: GradedPoset, sigma: str, rest: set[str] | frozenset[str], j: int | None) -> GradedPoset:
    """The semisuspension of the gamma of subclass j (None: the whole class) at its tau, unchecked."""
    return semisuspension(gamma_poset(p, sigma, rest), tau_name(sigma, j))[0]


def _gamma_checked(p: GradedPoset, sigma: str, rest: set[str] | frozenset[str], j: int | None) -> GradedPoset | FailureReport:
    """``_suspended`` after the full check of an ordinary (sub)class, or the failure."""
    if not rest:
        return FailureReport(sigma, "ordinary-singleton", "ordinary class has no members besides its coatom")
    try:
        gamma = gamma_poset(p, sigma, rest)
    except PosetError as exc:
        return FailureReport(sigma, "gamma-unbuildable", str(exc))
    suspended = near_eulerian_suspension(gamma, tau_name(sigma, j))
    if suspended is None:
        return FailureReport(sigma, "gamma-not-near-eulerian", gamma.name)
    bdry = boundary_set(gamma)
    if set(rest) & bdry:
        return FailureReport(sigma, "non-disjoint-boundary", f"{sorted(set(rest) & bdry)}")
    if set(rest) | bdry != set(gamma.elements()) - {TOP}:
        missing = (set(gamma.elements()) - {TOP}) - (set(rest) | bdry)
        return FailureReport(sigma, "gamma-decomposition", f"uncovered closure part {sorted(missing)}")
    return suspended


# -- verification ------------------------------------------------------------------


def _check_partition(
    cert: SPartitionCert | SEPartitionCert, path: str, out: list[Violation]
) -> bool:
    """Shared class-map checks; returns False when deeper checks are hopeless."""
    p = cert.poset
    coatoms = set(p.coatoms())
    if set(cert.classes) != coatoms:
        out.append(
            Violation(
                "class-keys",
                path,
                f"classes for {sorted(cert.classes)} but coatoms are {sorted(coatoms)}",
            )
        )
        return False
    ground = set(p.elements()) - {p.top()}
    owner: dict[str, str] = {}
    for sigma in sorted(cert.classes):
        for m in cert.classes[sigma]:
            if m in owner:
                out.append(
                    Violation("overlapping-classes", f"{path}/class[{sigma}]", f"{m} already in class[{owner[m]}]")
                )
            owner[m] = sigma
    missing = ground - set(owner)
    stray = set(owner) - ground
    if missing:
        out.append(Violation("not-covering", path, f"unassigned elements {sorted(missing)}"))
    if stray:
        out.append(Violation("foreign-members", path, f"{sorted(stray)}"))
    for sigma in sorted(cert.classes):
        members = cert.classes[sigma]
        if sigma not in members:
            out.append(Violation("coatom-not-in-class", f"{path}/class[{sigma}]", sigma))
        allowed = closure(p, [sigma])
        if not set(members) <= allowed:
            bad = sorted(set(members) - allowed)
            out.append(Violation("class-not-in-closure", f"{path}/class[{sigma}]", f"{bad}"))
    if cert.initial not in coatoms:
        out.append(Violation("initial-missing", path, f"{cert.initial!r}"))
        return False
    if cert.classes[cert.initial] != frozenset(closure(p, [cert.initial])):
        out.append(Violation("initial-not-closure", f"{path}/class[{cert.initial}]", "must be the full closure"))
    return not out


def _verify_sub(sub: SPartitionCert | None, expected: GradedPoset, cpath: str, tau: str | None, out: list[Violation]):
    """Check the sub-certificate of the initial class (tau None) or of a subclass, then walk it."""
    if sub is None:
        code = "missing-initial-subcert" if tau is None else "missing-subcert"
        out.append(Violation(code, cpath, "no sub-certificate"))
    elif sub.poset != expected:
        what = "capped boundary" if tau is None else "semisuspension"
        out.append(Violation("subposet-mismatch", f"{cpath}/sub", f"{what} differs"))
    elif tau is not None and sub.initial != tau:
        out.append(Violation("initial-not-tau", f"{cpath}/sub", f"initial is {sub.initial!r}, expected {tau!r}"))
    else:
        out.extend((yield _verify(sub, f"{cpath}/sub")))


def _check_terminal(cert: SPartitionCert, path: str, out: list[Violation]) -> bool:
    """S zero-class rules: one terminal singleton, distinct from the initial coatom."""
    if cert.terminal not in cert.poset.coatoms():
        out.append(Violation("terminal-missing", path, f"{cert.terminal!r}"))
        return False
    if cert.terminal == cert.initial:
        out.append(Violation("initial-terminal-clash", path, cert.initial))
        return False
    if cert.classes[cert.terminal] != frozenset({cert.terminal}):
        out.append(Violation("terminal-not-singleton", f"{path}/class[{cert.terminal}]", "must be a one-element class"))
    return True


def _check_singletons(cert: SEPartitionCert, path: str, out: list[Violation]) -> bool:
    """SE zero-class rules: exactly the one-element classes besides the initial one are declared.

    Always True: unlike the S rules, none of these stops the deeper checks.
    """
    for sigma in sorted(cert.singletons):
        if sigma == cert.initial:
            out.append(Violation("initial-singleton-clash", path, sigma))
        elif cert.classes.get(sigma) != frozenset({sigma}):
            out.append(Violation("singleton-not-singleton", f"{path}/class[{sigma}]", "declared singleton has extra members"))
    for sigma in sorted(cert.classes):
        if sigma != cert.initial and sigma not in cert.singletons and cert.classes[sigma] == frozenset({sigma}):
            out.append(Violation("undeclared-singleton", f"{path}/class[{sigma}]", "one-element class not declared singleton"))
    return True


def _check_decomposition(cert: SEPartitionCert, sigma: str, cpath: str, out: list[Violation]) -> bool:
    """SE only: the subclasses of an ordinary class partition it minus its coatom."""
    parts = cert.subclass_decomp[sigma]
    if not parts:
        out.append(Violation("empty-decomposition", cpath, "ordinary class with no subclasses"))
        return False
    rest = cert.classes[sigma] - {sigma}
    union: set[str] = set()
    ok = True
    for part in parts:
        if union & part:
            out.append(Violation("overlapping-subclasses", cpath, f"{sorted(union & part)}"))
            ok = False
        union |= part
    if union != set(rest):
        out.append(Violation("subclasses-not-partition", cpath, f"union {sorted(union)} vs {sorted(rest)}"))
        ok = False
    return ok


def verify_partition(cert: SPartitionCert | SEPartitionCert) -> list[Violation]:
    """Full recursive check; empty list iff the certificate is a valid witness.

    An S-certificate needs an Eulerian poset and one terminal singleton; an
    SE-certificate a semi-Eulerian poset, declared singletons and a subclass
    decomposition of every ordinary class.
    """
    return _run(_verify(cert, cert.header))


def _verify(cert: SPartitionCert | SEPartitionCert, path: str):
    eulerian = isinstance(cert, SPartitionCert)
    p = cert.poset
    bad = validate(p)
    if bad:
        return [Violation("poset-invalid", path, str(v)) for v in bad]
    if p.rank_top - 1 == 0:
        if cert.classes or cert.initial or cert.zero_classes() or cert.subcerts or cert.subcert_initial:
            return [Violation("base-not-empty", path, "rank-1 certificate carries classes")]
        return []
    if not (is_eulerian(p) if eulerian else is_semi_eulerian(p)):
        return [Violation("not-eulerian" if eulerian else "not-semi-eulerian", path, p.name)]
    out: list[Violation] = []
    if not _check_partition(cert, path, out):
        return out
    if not (_check_terminal if eulerian else _check_singletons)(cert, path, out):
        return out
    boundary = initial_boundary_poset(p, cert.initial)
    yield from _verify_sub(cert.subcert_initial, boundary, f"{path}/class[{cert.initial}]", None, out)
    keyed, code = (cert.subcerts, "subcert-keys") if eulerian else (cert.subclass_decomp, "subclass-keys")
    if set(keyed) != set(cert.ordinary()):
        out.append(Violation(code, path, f"{sorted(keyed)} vs ordinary {cert.ordinary()}"))
        return out
    for sigma in cert.ordinary():
        cpath = f"{path}/class[{sigma}]"
        if not eulerian and not _check_decomposition(cert, sigma, cpath, out):
            continue
        for j, part, key in cert._subclasses(sigma):
            spath = cpath if j is None else f"{cpath}/subclass[{j}]"
            suspended = _gamma_checked(p, sigma, part, j)
            if isinstance(suspended, FailureReport):
                out.append(Violation(suspended.code, spath, suspended.detail))
                continue
            yield from _verify_sub(cert.subcerts.get(key), suspended, spath, tau_name(sigma, j), out)
    return out


verify_s_partition = verify_se_partition = verify_partition


# -- contributions -----------------------------------------------------------------


def _contributions(cert: SPartitionCert | SEPartitionCert):
    """The walk of the contribution map, one certificate level per sub-walk.

    Each boundary cd-index, direct through the flag vector, must equal its
    sub-certificate's recursive total, or for an ordinary block that
    sub-certificate's initial block (else CrossCheckError).
    """
    p = cert.poset
    if p.rank_top - 1 == 0:
        return ContributionMap({}, NcPolynomial.unit(CD))
    phi = cd_index(initial_boundary_poset(p, cert.initial))
    rec = yield _contributions(cert.subcert_initial)
    if rec.total != phi:
        raise CrossCheckError(f"initial boundary cd-index mismatch: {phi} vs {rec.total}")
    per: dict[str, NcPolynomial] = {cert.initial: phi.times_letter("c")}
    for sigma in sorted(cert.zero_classes()):
        per[sigma] = NcPolynomial.zero(CD)
    for sigma in cert.ordinary():
        acc = NcPolynomial.zero(CD)
        for _, part, key in cert._subclasses(sigma):
            sub = cert.subcerts[key]
            phi_bdry = cd_index(boundary_poset(gamma_poset(p, sigma, part)))
            rec = yield _contributions(sub)
            if sub.subcert_initial is None:
                direct, recursive = phi_bdry, NcPolynomial.unit(CD)
            else:
                direct, recursive = phi_bdry.times_letter("c"), rec.per_coatom[sub.initial]
            if direct != recursive:
                raise CrossCheckError(f"boundary cd-index mismatch at {sigma}: {direct} vs {recursive}")
            ordinary = (rec.per_coatom[omega].times_letter("c") for omega in sub.ordinary())
            acc = acc + sum(ordinary, phi_bdry.times_letter("d"))
        per[sigma] = acc
    return ContributionMap(per, sum(per.values(), NcPolynomial.zero(CD)))


def contributions(cert: SPartitionCert | SEPartitionCert, check: bool = True) -> ContributionMap:
    """Per-coatom contributions of a certificate; the total is the (semi-)cd-index.

    ``check`` verifies first, raising all violations as CertificateInvalid
    before any cd-index.  The totals read the same memoized boundaries and
    gammas as verification, so checking builds no sub-poset twice.  Each
    boundary cd-index, from the direct flag pipeline, must equal its
    sub-certificate's recursive total (else CrossCheckError).
    """
    violations = verify_partition(cert) if check else []
    if violations:
        raise CertificateInvalid(violations)
    return _run(_contributions(cert))


contributions_s = contributions_se = contributions


def cd_word_multiset(cm: ContributionMap) -> dict[str, Counter]:
    """Explode nonnegative per-coatom polynomials into word multisets."""
    out: dict[str, Counter] = {}
    for sigma in sorted(cm.per_coatom):
        words: Counter = Counter()
        for word, coeff in cm.per_coatom[sigma].items():
            if coeff < 0:
                raise NegativeCoefficient(f"{sigma}: coefficient {coeff} at {word!r}")
            words[word] = coeff
        out[sigma] = words
    return out


# -- certificate assembly (shared by searches and converters) ------------------------


def _components(p: GradedPoset, members: int) -> list[frozenset[str]]:
    """Connected components of the comparability graph restricted to a bitset, by least name."""
    comps = []
    while members:
        comp = frontier = members & -members
        while frontier:
            frontier = (_union(p._upset, frontier) | _union(p._downset, frontier)) & members & ~comp
            comp |= frontier
        comps.append(frozenset(p._names(comp)))
        members &= ~comp
    return sorted(comps, key=min)


def _certificate(
    p: GradedPoset,
    cls: type,
    initial: str,
    classes: dict[str, frozenset[str]],
    budget: Budget,
    checked: bool = False,
):
    """The certificate with these classes and its searched sub-certificates, or the first class failure.

    The zero classes are the one-element classes besides the initial one: the
    S terminal (every caller leaves exactly one) or the SE singletons.  SE
    ordinary classes split into their connected components.  ``checked``:
    the caller already ran the class checks.
    """
    zero = sorted(s for s in classes if s != initial and classes[s] == {s})
    if cls is SPartitionCert:
        cert = SPartitionCert(p, dict(classes), initial, zero[0] if zero else None, None, {})
    else:
        cert = SEPartitionCert(p, dict(classes), initial, frozenset(zero), {}, None, {})
        cert.subclass_decomp = {s: tuple(_components(p, p._mask(classes[s] - {s}))) for s in cert.ordinary()}
    boundary = initial_boundary_poset(p, initial)
    # a rank-1 boundary is the two-element chain and needs no test
    if boundary.rank_top == 1 or is_eulerian(boundary):
        cert.subcert_initial = yield _search(boundary, budget, SPartitionCert)
    if cert.subcert_initial is None:
        return FailureReport(initial, "initial-subcert", "capped boundary admits no certificate")
    for sigma in cert.ordinary():
        for j, part, key in cert._subclasses(sigma):
            suspended = (_suspended if checked else _gamma_checked)(p, sigma, part, j)
            if isinstance(suspended, FailureReport):
                return suspended
            # the class check found the semisuspension Eulerian
            cert.subcerts[key] = yield _search(suspended, budget, SPartitionCert, first=tau_name(sigma, j))
            if cert.subcerts[key] is None:
                where = "" if j is None else f"subclass {j} "
                return FailureReport(sigma, "subcert-search", f"{where}semisuspension admits no certificate")
    return cert


def se_certificate_from_classes(
    p: GradedPoset,
    initial: str,
    classes: dict[str, frozenset[str]],
    budget: Budget | None = None,
) -> SEPartitionCert | FailureReport:
    """Assemble an SE-certificate from explicit classes (subclasses split by connectivity).

    p must be valid and semi-Eulerian, and the classes must pass the top-level
    class-map checks of ``verify_partition``; the first failure is returned.
    """
    bad = validate(p)
    if bad:
        return FailureReport(None, "poset-invalid", str(bad[0]))
    if not is_semi_eulerian(p):
        return FailureReport(None, "not-semi-eulerian", p.name)
    zero = frozenset(s for s in classes if s != initial and classes[s] == {s})
    draft = SEPartitionCert(p, dict(classes), initial, zero, {}, None, {})
    out: list[Violation] = []
    if _check_partition(draft, draft.header, out):
        _check_singletons(draft, draft.header, out)
    if out:
        return FailureReport(None, out[0].code, f"{out[0].path}: {out[0].detail}")
    return _run(_certificate(p, SEPartitionCert, initial, classes, Budget.of(budget)))


# -- search ---------------------------------------------------------------------------


def _classes_from_order(p: GradedPoset, order: list[str]) -> dict[str, frozenset[str]]:
    covered = 0
    classes: dict[str, frozenset[str]] = {}
    for sigma in order:
        cl = p._downset[p._index[sigma]]
        classes[sigma] = frozenset(p._names(cl & ~covered))
        covered |= cl
    return classes


def _search(p: GradedPoset, budget: Budget, cls: type, first: str | None = None):
    """Depth-first search over facet orders: the first order whose certificate assembles, or None.

    Facets are placed one at a time, in name order among the candidates, and
    each class is the facet's closure minus what is already covered.  Every
    facet after the first shares a ridge with the covered region.  S: the
    last class is a singleton, no other is, and the rest of each other class
    passes ``_gamma_checked`` whole; ``first``, if given, fills the first
    slot.  SE: every connected part of the rest passes.  The ``first`` filter
    and the ridge test come before a facet's search node is spent, the class
    checks after.  Each slot is one level of the walk, and the last slot
    yields ``_certificate``, which finds the semisuspensions the checks built
    memoized on p.  p must be Eulerian (S, so it has two facets or more) or
    semi-Eulerian (SE).

    The ridge test loses no S-certificate: a facet sharing no ridge with the
    covered region keeps all its ridges, so its rest is not empty and its
    gamma caps the whole open interval below it.  Every rank-2 interval of
    an Eulerian poset is a diamond, so gamma has an empty boundary and its
    semisuspension, with a coatom covering nothing, fails validation.
    """
    if p.rank_top == 1:
        return _base_cert(p, cls)
    s_rules = cls is SPartitionCert
    facets = p._levels[p.rank_top - 1]
    ridges = p._levels.get(p.rank_top - 2, 0)
    n = facets.bit_count()

    def fits(i: int, members: int, last: bool) -> bool:
        """Whether the rules admit facet i (not the first) with these members."""
        sigma = p._elements[i]
        rest = members & ~(1 << i)
        if not s_rules:
            parts = list(enumerate(_components(p, rest), start=1))
        elif last == bool(rest):
            return False
        else:
            parts = [(None, frozenset(p._names(rest)))] if rest else []
        return not any(isinstance(_gamma_checked(p, sigma, part, j), FailureReport) for j, part in parts)

    order = [0] * n  # the facet number placed in each slot

    def place(slot: int, placed: int, covered: int):
        """The first certificate whose facet order extends order[:slot], or None."""
        pool = facets & ~placed
        while pool:  # lowest bit first
            i = (pool & -pool).bit_length() - 1
            pool ^= 1 << i
            if slot == 0 and first is not None and p._elements[i] != first:
                continue
            if slot and not p._downset[i] & ridges & covered:
                continue
            budget.spend()
            if slot and not fits(i, p._downset[i] & ~covered, slot == n - 1):
                continue
            order[slot] = i
            if slot + 1 < n:
                cert = yield place(slot + 1, placed | 1 << i, covered | p._downset[i])
            else:
                names = [p._elements[k] for k in order]
                cert = yield _certificate(p, cls, names[0], _classes_from_order(p, names), budget, checked=True)
            if isinstance(cert, _Certificate):
                return cert
        return None

    return (yield place(0, 0, 0))


def _search_checked(
    p: GradedPoset, budget: Budget | int | None, cls: type
) -> SPartitionCert | SEPartitionCert | None:
    """Validate, test (semi-)Eulerian, search: the entry shared by both searches."""
    bad = validate(p)
    if bad:
        raise PosetError(f"invalid poset: {bad[0]}")
    if cls is SPartitionCert and not is_eulerian(p):
        raise PosetError(f"{p.name} is not Eulerian")
    if cls is SEPartitionCert and not is_semi_eulerian(p):
        raise PosetError(f"{p.name} is not semi-Eulerian")
    return _run(_search(p, Budget.of(budget), cls))


def search_s_certificate(p: GradedPoset, budget: Budget | int | None = None) -> SPartitionCert | None:
    """Search an S-certificate over facet orders (see ``_search`` for the rules).

    Returns None when the facet-order family is exhausted, which does not
    prove that p has no S-certificate; raises BudgetExhausted when the node
    budget runs out and PosetError on an invalid or non-Eulerian input.
    """
    return _search_checked(p, budget, SPartitionCert)


def search_se_certificate(p: GradedPoset, budget: Budget | int | None = None) -> SEPartitionCert | None:
    """Search an SE-certificate over ridge-adjacent facet orders (see ``_search``).

    Classes split into connected subclasses.  Returns None when the
    facet-order family is exhausted; raises BudgetExhausted, or PosetError on
    an invalid or non-semi-Eulerian input.
    """
    return _search_checked(p, budget, SEPartitionCert)


# -- conversions ------------------------------------------------------------------------


def order_to_s_certificate(
    p: GradedPoset,
    facet_order: list[str],
    budget: Budget | int | None = None,
) -> SPartitionCert | FailureReport:
    """Certificate induced by a shelling-style facet order, or a failure report."""
    bad = validate(p)
    if bad:
        return FailureReport(None, "poset-invalid", str(bad[0]))
    if not is_eulerian(p):
        return FailureReport(None, "not-eulerian", p.name)
    if sorted(facet_order) != sorted(p.coatoms()):
        return FailureReport(None, "bad-order", "order must enumerate all coatoms exactly once")
    if len(facet_order) < 2:
        return FailureReport(None, "bad-order", "need at least two facets")
    classes = _classes_from_order(p, facet_order)
    terminal = facet_order[-1]
    if classes[terminal] != frozenset({terminal}):
        return FailureReport(terminal, "terminal-not-singleton", "last facet class has extra members")
    for sigma in facet_order[1:-1]:
        if classes[sigma] == frozenset({sigma}):
            return FailureReport(sigma, "ordinary-singleton", "intermediate facet already covered")
    return _run(_certificate(p, SPartitionCert, facet_order[0], classes, Budget.of(budget)))


def _is_simplicial(p: GradedPoset) -> bool:
    atoms = p._levels.get(1, 0)
    top = p.top()
    for x, below in zip(p.elements(), p._downset):
        r = p.rank(x)
        if x == top or r == 0:
            continue
        if (below & atoms).bit_count() != r or below.bit_count() != 2**r:
            return False
    return True


def simplicial_partition_to_s_certificate(
    p: GradedPoset,
    pairs: list[tuple[str, str]],
    budget: Budget | int | None = None,
) -> SPartitionCert | FailureReport:
    """Certificate from a boolean-interval partition [R_i, facet_i] of a simplicial poset.

    Raises NotSimplicial when some lower interval is not boolean and
    NotAPartition when the pairs do not form one partition class per facet
    with a unique empty restriction and a unique full restriction.
    """
    bad = validate(p)
    if bad:
        return FailureReport(None, "poset-invalid", str(bad[0]))
    if not _is_simplicial(p):
        raise NotSimplicial(f"{p.name}: a lower interval is not boolean")
    coatoms = sorted(p.coatoms())
    if sorted(facet for _, facet in pairs) != coatoms:
        raise NotAPartition("pairs must name every facet exactly once")
    for restriction, facet in pairs:
        if restriction not in p or not p.leq(restriction, facet):
            raise NotAPartition(f"restriction {restriction!r} not below facet {facet!r}")
    initials = [facet for restriction, facet in pairs if restriction == BOT]
    terminals = [facet for restriction, facet in pairs if restriction == facet]
    if len(initials) != 1:
        raise NotAPartition(f"expected exactly one empty restriction, got {len(initials)}")
    if len(terminals) != 1:
        raise NotAPartition(f"expected exactly one full restriction, got {len(terminals)}")
    classes: dict[str, frozenset[str]] = {}
    for restriction, facet in pairs:
        interval = p._upset[p._index[restriction]] & p._downset[p._index[facet]]
        classes[facet] = frozenset(p._names(interval))
    ground = set(p.elements()) - {p.top()}
    total = [m for members in classes.values() for m in members]
    if len(total) != len(set(total)) or set(total) != ground:
        raise NotAPartition("boolean intervals do not partition the poset")
    if not is_eulerian(p):
        return FailureReport(None, "not-eulerian", p.name)
    return _run(_certificate(p, SPartitionCert, initials[0], classes, Budget.of(budget)))


def product_se_partition(
    cp: SPartitionCert,
    cq: SPartitionCert,
    budget: Budget | int | None = None,
) -> SEPartitionCert:
    """SE-certificate of the product of two rank-3 S-certified posets.

    Classes are the pairwise products of the factor classes; sub-certificates
    are searched per subclass.  Raises RankNotThree on wrong ranks and
    CertificateInvalid when a factor certificate does not verify.
    """
    p, q = cp.poset, cq.poset
    if p.rank_top != 3 or q.rank_top != 3:
        raise RankNotThree(f"ranks {p.rank_top} and {q.rank_top}, both must be 3")
    for cert in (cp, cq):
        violations = verify_partition(cert)
        if violations:
            raise CertificateInvalid(violations)
    prod = poset_product(p, q)
    classes: dict[str, frozenset[str]] = {}
    for s in sorted(cp.classes):
        for t in sorted(cq.classes):
            members = {
                pair_name(x, y)
                for x in cp.classes[s] - {BOT}
                for y in cq.classes[t] - {BOT}
            }
            classes[pair_name(s, t)] = frozenset(members)
    initial = pair_name(cp.initial, cq.initial)
    classes[initial] = classes[initial] | {BOT}
    cert = _run(_certificate(prod, SEPartitionCert, initial, classes, Budget.of(budget)))
    if isinstance(cert, FailureReport):
        raise PosetError(f"product classes failed: {cert}")
    return cert


# -- reverse partitions ---------------------------------------------------------------


def check_reverse_partition(cert: SPartitionCert) -> tuple[dict[str, str], int] | None:
    """Do the reverse classes (boundary minus Gamma, plus the coatom) partition too?

    The reverse class of sigma is its closed boundary minus the closure of
    class(sigma) - sigma, plus sigma: {sigma} for the initial coatom, the whole
    closed boundary for the terminal.  `cert` must pass `verify_partition`.

    None when the reverse classes do not partition the elements below the top;
    otherwise (owner, count).  `owner` maps each element below the top to the
    coatom whose reverse class holds it, which fixes the top-chain assignment:
    a chain avoiding rank d gets owner[chain[-1]], the empty chain owner["bot"].
    `count` is the number of such chains, the empty one included.
    """
    p = cert.poset
    owner: dict[str, str] = {}
    covered = 0
    for sigma in sorted(cert.classes):
        i = p._index[sigma]
        reverse = p._downset[i] & ~_union(p._downset, p._mask(cert.classes[sigma] - {sigma})) | 1 << i
        if reverse & covered:
            return None
        covered |= reverse
        owner.update(dict.fromkeys(p._names(reverse), sigma))
    if covered != (1 << len(p)) - 1 ^ 1 << p._index[p.top()]:
        return None
    below_d = covered & ~p._levels[p.rank_top - 1] ^ 1 << p._index[BOT]  # ranks 1..d-1
    ending = [0] * len(p)  # chains within ranks 1..d-1 whose highest element is i
    for i in _bits(below_d):  # lower ranks first
        ending[i] = 1 + sum(ending[j] for j in _bits(p._downset[i] & below_d ^ 1 << i))
    return owner, 1 + sum(ending)


# -- certificate file format ------------------------------------------------------------


def _emit_classes(cert: SPartitionCert | SEPartitionCert, depth: int, lines: list[str]):
    pad = "  " * depth
    zero = cert.zero_classes()
    for sigma in sorted(cert.classes):
        # (subclass number, members, sub-certificate) per block; only SE subclasses are numbered
        if sigma == cert.initial:
            kind, blocks = "initial", [(None, cert.classes[sigma], cert.subcert_initial)]
        elif sigma in zero:
            kind, blocks = cert.zero_kind, [(None, cert.classes[sigma], None)]
        else:
            kind = "ordinary"
            blocks = [
                (j, cert.classes[sigma] if j is None else part, cert.subcerts[key])
                for j, part, key in cert._subclasses(sigma)
            ]
        lines.append(f"{pad}class {sigma} kind={kind}")
        for j, members, sub in blocks:
            inner = depth + 1
            if j is not None:
                lines.append(f"{pad}  subclass {j}")
                inner += 1
            lines.append(f"{'  ' * inner}members {' '.join(cert.poset._names(cert.poset._mask(members)))}")
            if sub is not None:
                lines.append(f"{'  ' * inner}sub")
                yield _emit_classes(sub, inner + 1, lines)


def format_certificate(cert: SPartitionCert | SEPartitionCert) -> str:
    lines = [f"{cert.header} {cert.poset.name}"]
    _run(_emit_classes(cert, 1, lines))
    return "\n".join(lines) + "\n"


@dataclass
class _Line:
    indent: int
    fields: list[str]
    lineno: int


def _scan_lines(text: str) -> list[_Line]:
    out = []
    for lineno, spaces, fields in read_lines(text):
        if spaces % 2:
            raise CertificateParseError("odd indentation", lineno)
        out.append(_Line(spaces // 2, fields, lineno))
    return out


def _parse_block(lines: list[_Line]) -> list[tuple[_Line, list]]:
    """The tree of the lines below the header: each line with the block of lines nested in it."""
    open_blocks: list[list] = [[]]  # open_blocks[k] collects the lines at indentation level k + 1
    for line in lines[1:]:
        if line.indent == 0:
            raise CertificateParseError("trailing content", line.lineno)
        if line.indent > len(open_blocks):
            raise CertificateParseError("unexpected indentation", line.lineno)
        del open_blocks[line.indent :]
        nested: list[tuple[_Line, list]] = []
        open_blocks[-1].append((line, nested))
        open_blocks.append(nested)
    return open_blocks[0]


def _read_block(
    nested: list, poset: GradedPoset, what: str, lineno: int, sub: bool = True
) -> tuple[frozenset[str], list]:
    """The members and the ``sub`` block (none unless ``sub``) of a class or subclass block."""
    members: frozenset[str] | None = None
    sub_blocks: list = []
    seen: set[str] = set()
    for inner, inner_nested in nested:
        if inner.fields[0] in seen:
            raise CertificateParseError(f"second {inner.fields[0]!r} line in {what}", inner.lineno)
        seen.add(inner.fields[0])
        if inner.fields[0] == "members":
            members = frozenset(inner.fields[1:])
        elif inner.fields == ["sub"] and not sub:
            raise CertificateParseError(f"{what} takes no sub block", inner.lineno)
        elif inner.fields == ["sub"]:
            sub_blocks = inner_nested
        else:
            raise CertificateParseError(f"unexpected {inner.fields[0]!r}", inner.lineno)
    if members is None:
        raise CertificateParseError(f"{what} has no members line", lineno)
    unknown = sorted(m for m in members if m not in poset)
    if unknown:
        raise CertificateParseError(f"unknown members {unknown}", lineno)
    return members, sub_blocks


def _parse_sub(blocks: list, lineno: int, build, *args):
    """Build the poset a sub-certificate certifies; the walk that parses its ``sub`` block."""
    try:
        sub_poset = build(*args)
    except PosetError as exc:
        raise CertificateParseError(str(exc), lineno)
    return _parse_classes(blocks, sub_poset, lineno, SPartitionCert)


def _parse_classes(blocks: list, poset: GradedPoset, lineno: int, cls: type):
    """The class blocks of one certificate level; SE ordinary classes hold subclass blocks."""
    split = cls is SEPartitionCert
    if poset.rank_top - 1 == 0:
        if blocks:
            raise CertificateParseError("rank-1 certificate must have no classes", blocks[0][0].lineno)
        return _base_cert(poset, cls)
    classes: dict[str, frozenset[str]] = {}
    initial = None
    zero: list[str] = []
    decomp: dict[str, tuple[frozenset[str], ...]] = {}
    subcert_initial = None
    subcerts: dict = {}
    for line, nested in blocks:
        if line.fields[0] != "class" or len(line.fields) != 3 or not line.fields[2].startswith("kind="):
            raise CertificateParseError("expected: class <coatom> kind=<kind>", line.lineno)
        sigma = line.fields[1]
        kind = line.fields[2].removeprefix("kind=")
        if kind not in ("initial", "ordinary", cls.zero_kind):
            raise CertificateParseError(f"unknown kind {kind!r}", line.lineno)
        if sigma in classes:
            raise CertificateParseError(f"duplicate class {sigma!r}", line.lineno)
        if kind == "ordinary" and split:
            parts: list[frozenset[str]] = []
            for j, (inner, inner_nested) in enumerate(nested, start=1):
                if inner.fields != ["subclass", str(j)]:
                    raise CertificateParseError(f"expected: subclass {j}", inner.lineno)
                part, sub_blocks = _read_block(inner_nested, poset, f"subclass {j} of {sigma!r}", inner.lineno)
                parts.append(part)
                subcerts[(sigma, j)] = yield _parse_sub(sub_blocks, inner.lineno, _suspended, poset, sigma, part, j)
            if not parts:
                raise CertificateParseError(f"ordinary class {sigma!r} has no subclasses", line.lineno)
            decomp[sigma] = tuple(parts)
            classes[sigma] = frozenset({sigma}).union(*parts)
            continue
        members, sub_blocks = _read_block(nested, poset, f"{kind} class {sigma!r}", line.lineno, kind != cls.zero_kind)
        classes[sigma] = members
        if kind == "initial":
            if initial is not None:
                raise CertificateParseError("two initial classes", line.lineno)
            initial = sigma
            subcert_initial = yield _parse_sub(sub_blocks, line.lineno, initial_boundary_poset, poset, sigma)
        elif kind == "ordinary":
            subcerts[sigma] = yield _parse_sub(sub_blocks, line.lineno, _suspended, poset, sigma, members - {sigma}, None)
        elif zero and not split:
            raise CertificateParseError("two terminal classes", line.lineno)
        else:
            zero.append(sigma)
    if split:
        if initial is None:
            raise CertificateParseError("certificate needs an initial class", lineno)
        return SEPartitionCert(poset, classes, initial, frozenset(zero), decomp, subcert_initial, subcerts)
    if initial is None or not zero:
        raise CertificateParseError("certificate needs an initial and a terminal class", lineno)
    return SPartitionCert(poset, classes, initial, zero[0], subcert_initial, subcerts)


def parse_certificate(text: str, poset: GradedPoset) -> SPartitionCert | SEPartitionCert:
    """Parse the indentation-nested certificate format against a loaded poset."""
    kinds = {cls.header: cls for cls in (SPartitionCert, SEPartitionCert)}
    lines = _scan_lines(text)
    if not lines or lines[0].fields[0] not in kinds or len(lines[0].fields) != 2:
        raise CertificateParseError("expected header: spart|separt <poset-name>", 1)
    header = lines[0]
    if header.fields[1] != poset.name:
        raise CertificateParseError(
            f"certificate is for {header.fields[1]!r}, poset is {poset.name!r}", header.lineno
        )
    return _run(_parse_classes(_parse_block(lines), poset, header.lineno, kinds[header.fields[0]]))
