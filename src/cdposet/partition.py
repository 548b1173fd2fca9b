"""Recursive partition certificates and the per-coatom cd-index recursion.

An SE-certificate partitions the elements of a semi-Eulerian poset (minus
the top) into one class per coatom: the full closure of an initial coatom,
zero classes that hold only their coatom, and ordinary classes split into
subclasses whose capped closures are near-Eulerian with recursively
certified semisuspensions.  An S-certificate is the Eulerian special case:
its one zero class is the terminal singleton and each ordinary class is a
single subclass.  Every certificate walk (verification, contributions,
assembly, the file format) is written once over the view both dataclasses
share; they differ only in the Eulerian or semi-Eulerian test, the rules
for zero classes and the SE decomposition checks.

Verification never searches: a certificate is an explicit witness and
``verify_partition`` only checks it.  The searches produce certificates: a
facet-order backtracking search (with a full per-element assignment fallback
below a size threshold) for the Eulerian case, and a greedy
adjacency-order search with backtracking for the semi-Eulerian case.

Contribution maps implement the recursion: the initial coatom contributes
the cd-index of its capped boundary times c, ordinary coatoms contribute,
per subclass, the boundary cd-index times d plus the ordinary contributions
of the semisuspension times c, and zero classes contribute zero.  The
boundary cd-indices are computed by the direct flag pipeline and
cross-checked against the recursive totals at every level.
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
    RankTooLow,
    Violation,
    boundary_set,
    cap,
    closure,
    is_eulerian,
    is_near_eulerian,
    is_semi_eulerian,
    pair_name,
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


def _base_cert(p: GradedPoset, cls: type = SPartitionCert) -> SPartitionCert | SEPartitionCert:
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


class _ClassFailure(Exception):
    def __init__(self, facet: str | None, code: str, detail: str):
        super().__init__(f"{code} at {facet}: {detail}")
        self.facet = facet
        self.code = code
        self.detail = detail

    def report(self) -> FailureReport:
        return FailureReport(self.facet, self.code, self.detail)


# -- derived sub-posets -----------------------------------------------------------


def tau_name(sigma: str, j: int | None = None) -> str:
    return f"tau@{sigma}" if j is None else f"tau@{sigma}/{j}"


def initial_boundary_poset(p: GradedPoset, sigma1: str) -> GradedPoset:
    """The capped open closure of the initial coatom, a rank-d poset."""
    d = p.rank_top - 1
    members = closure(p, [sigma1]) - {sigma1}
    return cap(p, members, d, name=f"bnd({p.name}@{sigma1})")


def gamma_poset(p: GradedPoset, sigma: str, members: set[str] | frozenset[str]) -> GradedPoset:
    """Capped closure of a class minus its coatom (or of an SE subclass)."""
    d = p.rank_top - 1
    return cap(p, closure(p, members), d, name=f"gamma({p.name}@{sigma})")


def boundary_poset(gamma: GradedPoset) -> GradedPoset:
    """The boundary of a capped near-Eulerian poset, capped one rank lower."""
    return cap(gamma, boundary_set(gamma), gamma.rank_top - 1, name=f"bnd({gamma.name})")


def _gamma_checked(p: GradedPoset, sigma: str, rest: set[str] | frozenset[str]) -> GradedPoset:
    """Build and fully check an ordinary class closure; raises _ClassFailure."""
    if not rest:
        raise _ClassFailure(sigma, "ordinary-singleton", "ordinary class has no members besides its coatom")
    try:
        gamma = gamma_poset(p, sigma, rest)
    except (RankTooLow, PosetError) as exc:
        raise _ClassFailure(sigma, "gamma-unbuildable", str(exc))
    if not is_near_eulerian(gamma):
        raise _ClassFailure(sigma, "gamma-not-near-eulerian", gamma.name)
    bdry = boundary_set(gamma)
    if set(rest) & bdry:
        raise _ClassFailure(sigma, "non-disjoint-boundary", f"{sorted(set(rest) & bdry)}")
    if set(rest) | bdry != set(gamma.elements()) - {TOP}:
        missing = (set(gamma.elements()) - {TOP}) - (set(rest) | bdry)
        raise _ClassFailure(sigma, "gamma-decomposition", f"uncovered closure part {sorted(missing)}")
    return gamma


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


def _verify_sub(
    sub: SPartitionCert | None, expected: GradedPoset, cpath: str, tau: str | None, out: list[Violation]
) -> None:
    """Check the sub-certificate of the initial class (tau None) or of a subclass, then recurse."""
    if sub is None:
        code = "missing-initial-subcert" if tau is None else "missing-subcert"
        out.append(Violation(code, cpath, "no sub-certificate"))
    elif sub.poset != expected:
        what = "capped boundary" if tau is None else "semisuspension"
        out.append(Violation("subposet-mismatch", f"{cpath}/sub", f"{what} differs"))
    elif tau is not None and sub.initial != tau:
        out.append(Violation("initial-not-tau", f"{cpath}/sub", f"initial is {sub.initial!r}, expected {tau!r}"))
    else:
        out.extend(verify_partition(sub, f"{cpath}/sub"))


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


def verify_partition(cert: SPartitionCert | SEPartitionCert, path: str | None = None) -> list[Violation]:
    """Full recursive check; empty list iff the certificate is a valid witness.

    An S-certificate needs an Eulerian poset and one terminal singleton; an
    SE-certificate a semi-Eulerian poset, declared singletons and a subclass
    decomposition of every ordinary class.
    """
    path = cert.header if path is None else path
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
    _verify_sub(cert.subcert_initial, boundary, f"{path}/class[{cert.initial}]", None, out)
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
            try:
                gamma = _gamma_checked(p, sigma, part)
            except _ClassFailure as cf:
                out.append(Violation(cf.code, spath, cf.detail))
                continue
            tau = tau_name(sigma, j)
            expected, _ = semisuspension(gamma, tau)
            _verify_sub(cert.subcerts.get(key), expected, spath, tau, out)
    return out


verify_s_partition = verify_se_partition = verify_partition


# -- contributions -----------------------------------------------------------------


def _ordinary_block(p: GradedPoset, sigma: str, part: frozenset[str], sub: SPartitionCert, tau: str) -> NcPolynomial:
    """Phi(boundary)*d plus the ordinary contributions of the semisuspension times c.

    The boundary is the capped boundary of the sub-certificate's initial
    coatom, whose block the recursion already checked against its own
    recursive total; comparing with that block closes the cross-check.
    """
    phi_bdry = cd_index(boundary_poset(gamma_poset(p, sigma, part)))
    rec = _contributions(sub)
    if sub.subcert_initial is None:
        direct, recursive = phi_bdry, NcPolynomial.unit(CD)
    else:
        direct, recursive = phi_bdry.times_letter("c"), rec.per_coatom[sub.initial]
    if direct != recursive:
        raise CrossCheckError(f"boundary cd-index mismatch at {sigma}: {direct} vs {recursive}")
    out = phi_bdry.times_letter("d")
    for omega in sub.ordinary():
        out = out + rec.per_coatom[omega].times_letter("c")
    return out


def _initial_block(cert: SPartitionCert | SEPartitionCert) -> NcPolynomial:
    phi = cd_index(initial_boundary_poset(cert.poset, cert.initial))
    rec = _contributions(cert.subcert_initial)
    if rec.total != phi:
        raise CrossCheckError(f"initial boundary cd-index mismatch: {phi} vs {rec.total}")
    return phi.times_letter("c")


def _contributions(cert: SPartitionCert | SEPartitionCert) -> ContributionMap:
    p = cert.poset
    if p.rank_top - 1 == 0:
        return ContributionMap({}, NcPolynomial.unit(CD))
    per: dict[str, NcPolynomial] = {cert.initial: _initial_block(cert)}
    for sigma in sorted(cert.zero_classes()):
        per[sigma] = NcPolynomial.zero(CD)
    for sigma in cert.ordinary():
        acc = NcPolynomial.zero(CD)
        for j, part, key in cert._subclasses(sigma):
            acc = acc + _ordinary_block(p, sigma, part, cert.subcerts[key], tau_name(sigma, j))
        per[sigma] = acc
    total = NcPolynomial.zero(CD)
    for poly in per.values():
        total = total + poly
    return ContributionMap(per, total)


def contributions(cert: SPartitionCert | SEPartitionCert, check: bool = True) -> ContributionMap:
    """Per-coatom contributions of a verified certificate; the total is the (semi-)cd-index."""
    if check:
        violations = verify_partition(cert)
        if violations:
            raise CertificateInvalid(violations)
    return _contributions(cert)


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


def _search_sub(q: GradedPoset, budget: Budget, first: str | None) -> SPartitionCert | None:
    """S-search on a derived sub-poset, None unless it is Eulerian.

    A rank-1 sub-poset is always the two-element chain, so it skips the test.
    """
    if q.rank_top > 1 and not is_eulerian(q):
        return None
    return _search_s(q, budget, first)


def _with_subcerts(cert: SPartitionCert | SEPartitionCert, budget: Budget) -> SPartitionCert | SEPartitionCert:
    """Search the initial and every subclass sub-certificate; raises _ClassFailure on defects."""
    p = cert.poset
    cert.subcert_initial = _search_sub(initial_boundary_poset(p, cert.initial), budget, first=None)
    if cert.subcert_initial is None:
        raise _ClassFailure(cert.initial, "initial-subcert", "capped boundary admits no certificate")
    for sigma in cert.ordinary():
        for j, part, key in cert._subclasses(sigma):
            ss, tau = semisuspension(_gamma_checked(p, sigma, part), tau_name(sigma, j))
            cert.subcerts[key] = _search_sub(ss, budget, first=tau)
            if cert.subcerts[key] is None:
                where = "" if j is None else f"subclass {j} "
                raise _ClassFailure(sigma, "subcert-search", f"{where}semisuspension admits no certificate")
    return cert


def _assemble_s_cert(
    p: GradedPoset,
    initial: str,
    terminal: str,
    classes: dict[str, frozenset[str]],
    budget: Budget,
) -> SPartitionCert:
    return _with_subcerts(SPartitionCert(p, dict(classes), initial, terminal, None, {}), budget)


def _components(p: GradedPoset, members: frozenset[str]) -> list[frozenset[str]]:
    """Connected components of the comparability graph restricted to members."""
    remaining = set(members)
    comps = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = [seed]
        while frontier:
            x = frontier.pop()
            for y in remaining - comp:
                if p.less(x, y) or p.less(y, x):
                    comp.add(y)
                    frontier.append(y)
        comps.append(frozenset(comp))
        remaining -= comp
    return sorted(comps, key=min)


def _assemble_se_cert(
    p: GradedPoset,
    initial: str,
    classes: dict[str, frozenset[str]],
    budget: Budget,
) -> SEPartitionCert:
    others = [s for s in sorted(classes) if s != initial]
    singletons = frozenset(s for s in others if not classes[s] - {s})
    decomp = {s: tuple(_components(p, classes[s] - {s})) for s in others if s not in singletons}
    return _with_subcerts(SEPartitionCert(p, dict(classes), initial, singletons, decomp, None, {}), budget)


def se_certificate_from_classes(
    p: GradedPoset,
    initial: str,
    classes: dict[str, frozenset[str]],
    budget: Budget | None = None,
) -> SEPartitionCert | FailureReport:
    """Assemble an SE-certificate from explicit classes (subclasses split by connectivity)."""
    try:
        return _assemble_se_cert(p, initial, classes, Budget.of(budget))
    except _ClassFailure as cf:
        return cf.report()


# -- searches -------------------------------------------------------------------------


def _classes_from_order(p: GradedPoset, order: list[str]) -> dict[str, frozenset[str]]:
    covered: set[str] = set()
    classes: dict[str, frozenset[str]] = {}
    for sigma in order:
        cl = closure(p, [sigma])
        classes[sigma] = frozenset(cl - covered)
        covered |= cl
    return classes


def _search_s(p: GradedPoset, budget: Budget, first: str | None) -> SPartitionCert | None:
    """Backtracking over facet orders with per-step class checks; p must be Eulerian."""
    d = p.rank_top - 1
    if d == 0:
        return _base_cert(p)
    coatoms = sorted(p.coatoms())
    if len(coatoms) < 2:
        return None
    closures = {s: closure(p, [s]) for s in coatoms}

    def extend(order: list[str], covered: set[str]) -> SPartitionCert | None:
        if len(order) == len(coatoms):
            try:
                return _assemble_s_cert(p, order[0], order[-1], _classes_from_order(p, order), budget)
            except _ClassFailure:
                return None
        last_slot = len(order) == len(coatoms) - 1
        for sigma in coatoms:
            if sigma in order:
                continue
            if not order and first is not None and sigma != first:
                continue
            budget.spend()
            members = closures[sigma] - covered
            if order:
                if last_slot:
                    if members != {sigma}:
                        continue
                else:
                    if members == {sigma}:
                        continue
                    try:
                        _gamma_checked(p, sigma, members - {sigma})
                    except _ClassFailure:
                        continue
            found = extend(order + [sigma], covered | closures[sigma])
            if found is not None:
                return found
        return None

    return extend([], set())


def _search_s_assignments(p: GradedPoset, budget: Budget, first: str | None) -> SPartitionCert | None:
    """Exhaustive per-element assignment search, for small posets only."""
    coatoms = sorted(p.coatoms())
    ground = set(p.elements()) - {p.top()}
    eligible = {
        x: [s for s in coatoms if p.less(x, s)] for x in sorted(ground) if x not in coatoms
    }
    for initial in coatoms if first is None else [first]:
        init_class = closure(p, [initial])
        for terminal in coatoms:
            if terminal == initial:
                continue
            free = sorted(x for x in eligible if x not in init_class)
            assign: dict[str, set[str]] = {s: {s} for s in coatoms if s not in (initial, terminal)}

            def place(i: int) -> SPartitionCert | None:
                if i == len(free):
                    classes = {s: frozenset(v) for s, v in assign.items()}
                    classes[initial] = frozenset(init_class)
                    classes[terminal] = frozenset({terminal})
                    try:
                        return _assemble_s_cert(p, initial, terminal, classes, budget)
                    except _ClassFailure:
                        return None
                x = free[i]
                for s in eligible[x]:
                    if s in (initial, terminal):
                        continue
                    budget.spend()
                    assign[s].add(x)
                    found = place(i + 1)
                    if found is not None:
                        return found
                    assign[s].discard(x)
                return None

            found = place(0)
            if found is not None:
                return found
    return None


# posets with at most this many elements also get the exhaustive assignment search
_ASSIGNMENT_THRESHOLD = 40


def search_s_certificate(p: GradedPoset, budget: Budget | int | None = None) -> SPartitionCert | None:
    """Search an S-certificate: facet orders first, assignment fallback when small.

    Returns None when the search family is exhausted; raises BudgetExhausted
    when the node budget runs out and PosetError on a non-Eulerian input.
    """
    budget = Budget.of(budget)
    bad = validate(p)
    if bad:
        raise PosetError(f"invalid poset: {bad[0]}")
    if not is_eulerian(p):
        raise PosetError(f"{p.name} is not Eulerian")
    cert = _search_s(p, budget, None)
    if cert is None and len(p) <= _ASSIGNMENT_THRESHOLD and p.rank_top >= 2:
        cert = _search_s_assignments(p, budget, None)
    return cert


def _facet_adjacent(p: GradedPoset, sigma: str, covered: set[str]) -> bool:
    ridge_rank = p.rank_top - 2
    return any(x in covered and p.rank(x) == ridge_rank for x in closure(p, [sigma]))


def search_se_certificate(
    p: GradedPoset,
    budget: Budget | int | None = None,
) -> SEPartitionCert | None:
    """Search an SE-certificate by adjacency orders with backtracking.

    Facets are added one at a time, each sharing a ridge with the region
    covered so far; classes split into connected subclasses.  Returns None
    on exhaustion, raises BudgetExhausted or PosetError (non-semi-Eulerian).
    """
    budget = Budget.of(budget)
    bad = validate(p)
    if bad:
        raise PosetError(f"invalid poset: {bad[0]}")
    if not is_semi_eulerian(p):
        raise PosetError(f"{p.name} is not semi-Eulerian")
    d = p.rank_top - 1
    if d == 0:
        return _base_cert(p, SEPartitionCert)
    coatoms = sorted(p.coatoms())
    closures = {s: closure(p, [s]) for s in coatoms}

    def class_ok(sigma: str, members: set[str]) -> bool:
        rest = frozenset(members - {sigma})
        if not rest:
            return True
        for part in _components(p, rest):
            try:
                _gamma_checked(p, sigma, part)
            except _ClassFailure:
                return False
        return True

    def extend(order: list[str], covered: set[str]) -> SEPartitionCert | None:
        if len(order) == len(coatoms):
            try:
                return _assemble_se_cert(p, order[0], _classes_from_order(p, order), budget)
            except _ClassFailure:
                return None
        for sigma in coatoms:
            if sigma in order:
                continue
            if order and not _facet_adjacent(p, sigma, covered):
                continue
            budget.spend()
            if order and not class_ok(sigma, closures[sigma] - covered):
                continue
            found = extend(order + [sigma], covered | closures[sigma])
            if found is not None:
                return found
        return None

    return extend([], set())


# -- conversions ------------------------------------------------------------------------


def order_to_s_certificate(
    p: GradedPoset,
    facet_order: list[str],
    budget: Budget | int | None = None,
) -> SPartitionCert | FailureReport:
    """Certificate induced by a shelling-style facet order, or a failure report."""
    budget = Budget.of(budget)
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
    try:
        return _assemble_s_cert(p, facet_order[0], terminal, classes, budget)
    except _ClassFailure as cf:
        return cf.report()


def _is_simplicial(p: GradedPoset) -> bool:
    atoms = set(p.elements_of_rank(1))
    for x in p.elements():
        r = p.rank(x)
        if x == p.top() or r == 0:
            continue
        below = closure(p, [x])
        if len(below & atoms) != r or len(below) != 2**r:
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
    budget = Budget.of(budget)
    bad = validate(p)
    if bad:
        return FailureReport(None, "poset-invalid", str(bad[0]))
    if not _is_simplicial(p):
        raise NotSimplicial(f"{p.name}: a lower interval is not boolean")
    coatoms = sorted(p.coatoms())
    if sorted(facet for _, facet in pairs) != coatoms:
        raise NotAPartition("pairs must name every facet exactly once")
    for restriction, facet in pairs:
        if not p.leq(restriction, facet):
            raise NotAPartition(f"restriction {restriction!r} not below facet {facet!r}")
    initials = [facet for restriction, facet in pairs if restriction == BOT]
    terminals = [facet for restriction, facet in pairs if restriction == facet]
    if len(initials) != 1:
        raise NotAPartition(f"expected exactly one empty restriction, got {len(initials)}")
    if len(terminals) != 1:
        raise NotAPartition(f"expected exactly one full restriction, got {len(terminals)}")
    classes: dict[str, frozenset[str]] = {}
    for restriction, facet in pairs:
        interval = {y for y in closure(p, [facet]) if p.leq(restriction, y)}
        classes[facet] = frozenset(interval)
    ground = set(p.elements()) - {p.top()}
    total = [m for members in classes.values() for m in members]
    if len(total) != len(set(total)) or set(total) != ground:
        raise NotAPartition("boolean intervals do not partition the poset")
    if not is_eulerian(p):
        return FailureReport(None, "not-eulerian", p.name)
    try:
        return _assemble_s_cert(p, initials[0], terminals[0], classes, budget)
    except _ClassFailure as cf:
        return cf.report()


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
    budget = Budget.of(budget)
    p, q = cp.poset, cq.poset
    if p.rank_top != 3 or q.rank_top != 3:
        raise RankNotThree(f"ranks {p.rank_top} and {q.rank_top}, both must be 3")
    for cert in (cp, cq):
        violations = verify_partition(cert)
        if violations:
            raise CertificateInvalid(violations)
    from .poset import product as poset_product

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
    try:
        return _assemble_se_cert(prod, initial, classes, budget)
    except _ClassFailure as cf:
        raise PosetError(f"product classes failed: {cf.report()}")


# -- reverse partitions ---------------------------------------------------------------


def check_reverse_partition(cert: SPartitionCert) -> tuple[bool, dict[tuple[str, ...], str] | None]:
    """Do the reverse classes (boundary minus Gamma, plus the coatom) partition too?

    When they do, also emit the explicit top-chain assignment: every chain
    avoiding rank d gets the reverse-class owner of its highest element
    appended (the terminal coatom for the empty chain).
    """
    p = cert.poset
    d = p.rank_top - 1
    ground = set(p.elements()) - {p.top()}
    reverse: dict[str, frozenset[str]] = {}
    for sigma in sorted(cert.classes):
        bdry = closure(p, [sigma]) - {sigma}
        if sigma == cert.initial:
            gamma_members = bdry
        elif sigma == cert.terminal:
            gamma_members = set()
        else:
            gamma_members = closure(p, cert.classes[sigma] - {sigma})
        reverse[sigma] = frozenset((bdry - gamma_members) | {sigma})
    owner: dict[str, str] = {}
    for sigma, members in sorted(reverse.items()):
        for m in members:
            if m in owner:
                return False, None
            owner[m] = sigma
    if set(owner) != ground:
        return False, None
    assignment: dict[tuple[str, ...], str] = {(): owner[BOT]}
    proper = [x for x in p.elements() if 0 < p.rank(x) < p.rank_top]

    def chains(prefix: tuple[str, ...], start: int) -> None:
        for i in range(start, len(proper)):
            x = proper[i]
            if p.rank(x) == d:
                continue
            if prefix and not p.less(prefix[-1], x):
                continue
            chain = prefix + (x,)
            assignment[chain] = owner[x]
            chains(chain, i + 1)

    chains((), 0)
    return True, assignment


# -- certificate file format ------------------------------------------------------------


def _members_line(members: frozenset[str], p: GradedPoset) -> str:
    ordered = sorted(members, key=lambda x: (p.rank(x), x))
    return "members " + " ".join(ordered)


def _emit_classes(cert: SPartitionCert | SEPartitionCert, depth: int, lines: list[str]) -> None:
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
            lines.append(f"{'  ' * inner}{_members_line(members, cert.poset)}")
            if sub is not None:
                lines.append(f"{'  ' * inner}sub")
                _emit_classes(sub, inner + 1, lines)


def format_certificate(cert: SPartitionCert | SEPartitionCert) -> str:
    lines = [f"{cert.header} {cert.poset.name}"]
    _emit_classes(cert, 1, lines)
    return "\n".join(lines) + "\n"


@dataclass
class _Line:
    indent: int
    fields: list[str]
    lineno: int


def _scan_lines(text: str) -> list[_Line]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        body = stripped.lstrip(" ")
        spaces = len(stripped) - len(body)
        if spaces % 2:
            raise CertificateParseError("odd indentation", lineno)
        out.append(_Line(spaces // 2, body.split(), lineno))
    return out


def _parse_block(lines: list[_Line], pos: int, depth: int) -> tuple[list[tuple[_Line, list]], int]:
    """Group lines at the given depth with their nested blocks."""
    out: list[tuple[_Line, list]] = []
    while pos < len(lines) and lines[pos].indent >= depth:
        line = lines[pos]
        if line.indent > depth:
            raise CertificateParseError("unexpected indentation", line.lineno)
        nested, pos = _parse_block(lines, pos + 1, depth + 1)
        out.append((line, nested))
    return out, pos


def _read_block(nested: list, poset: GradedPoset, what: str, lineno: int) -> tuple[frozenset[str], list]:
    """The members and the ``sub`` block of a class or subclass block."""
    members: frozenset[str] | None = None
    sub_blocks: list = []
    for inner, inner_nested in nested:
        if inner.fields[0] == "members":
            members = frozenset(inner.fields[1:])
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


def _suspended(p: GradedPoset, sigma: str, j: int | None, part: frozenset[str]) -> GradedPoset:
    return semisuspension(gamma_poset(p, sigma, part), tau_name(sigma, j))[0]


def _parse_sub(blocks: list, lineno: int, build, *args) -> SPartitionCert:
    """Build the poset a sub-certificate certifies, then parse its ``sub`` block."""
    try:
        sub_poset = build(*args)
    except PosetError as exc:
        raise CertificateParseError(str(exc), lineno)
    return _parse_classes(blocks, sub_poset, lineno, SPartitionCert)


def _parse_classes(blocks: list, poset: GradedPoset, lineno: int, cls: type) -> SPartitionCert | SEPartitionCert:
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
                if inner.fields[0] != "subclass":
                    raise CertificateParseError("expected: subclass <j>", inner.lineno)
                part, sub_blocks = _read_block(inner_nested, poset, f"subclass {j} of {sigma!r}", inner.lineno)
                parts.append(part)
                subcerts[(sigma, j)] = _parse_sub(sub_blocks, inner.lineno, _suspended, poset, sigma, j, part)
            if not parts:
                raise CertificateParseError(f"ordinary class {sigma!r} has no subclasses", line.lineno)
            decomp[sigma] = tuple(parts)
            classes[sigma] = frozenset({sigma}).union(*parts)
            continue
        members, sub_blocks = _read_block(nested, poset, f"class {sigma!r}", line.lineno)
        classes[sigma] = members
        if kind == "initial":
            if initial is not None:
                raise CertificateParseError("two initial classes", line.lineno)
            initial = sigma
            subcert_initial = _parse_sub(sub_blocks, line.lineno, initial_boundary_poset, poset, sigma)
        elif kind == "ordinary":
            subcerts[sigma] = _parse_sub(sub_blocks, line.lineno, _suspended, poset, sigma, None, members - {sigma})
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
    blocks, pos = _parse_block(lines, 1, 1)
    if pos != len(lines):
        raise CertificateParseError("trailing content", lines[pos].lineno)
    return _parse_classes(blocks, poset, header.lineno, kinds[header.fields[0]])
