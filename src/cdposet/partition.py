"""Recursive partition certificates and the per-coatom cd-index recursion.

An SE-certificate partitions the elements of a semi-Eulerian poset (minus
the top) into one class per coatom: the full closure of an initial coatom,
zero classes that hold only their coatom, and ordinary classes split into
subclasses whose capped closures (gamma) are near-Eulerian with recursively
certified semisuspensions.  An S-certificate is the Eulerian special case:
its one zero class is the terminal singleton and each ordinary class is a
single subclass.  Every walk is written once over the view both share.

Each certificate level below the root holds one named poset, its capped
initial boundary or a semisuspension, memoized on its parent level's poset
by coatom number (and class bitset), so parsing, verifying, totalling and
searching one certificate name each of them once.  Only the root's poset is
validated and tested (semi-)Eulerian: every proper interval of a
semi-Eulerian poset, such as a capped initial boundary [bot, sigma1], is
Eulerian, and each semisuspension is one the class checks found so.  A
class is decided on numbers (``_class_failure``): its gamma, the capped
closure of the class minus its coatom, is a nameless view of the table
entry that ``poset._cap_entry`` derives from the parent's bitsets, and its
semisuspension is decided at tau's number without being named.  The
well-formedness, near-Eulerian verdict and boundary of a gamma, and the
boundary cd-indices of the named sub-posets, read no names: they are
memoized once per numbered structure in the family's structure table (see
``poset.memoized``), so the sub-posets of one shape derive their closures
and compute those values once.  Inside the walks a class stays one bitset,
from the facet order or the certificate's names to the class-map and gamma
rules and the certificate record; names are formed only for the posets the
levels hold, that record, violation and failure text and file output.
Searching, verifying, totalling, parsing and formatting walk the levels of
a certificate as generators that yield each sub-level to ``poset._run``,
so depth costs no Python frames.
The reader keeps a certificate file as one list of the rows ``poset.read_lines``
yields, and its block tree as index ranges over that list: ``ends[i]`` is
the row after row i's block, which is also where row i's next sibling
starts, so a level is a range of rows and no row holds a list of its own.
Every row's indentation, then the header, then the tree's shape are
checked before the walk reads any class.
``verify_partition`` checks an explicit witness and never searches.  Both
searches walk facet orders depth first, one slot per level of the walk.  A
search that returns None has exhausted the facet orders, not shown that no
certificate exists.  Within one public call, an S sub-search of a numbered
structure (and tau number) already searched replays the recorded node
count and facet order instead of searching again (see ``_search``).

Certificate records are frozen dataclasses with read-only mappings, so a
record never changes once built.  ``parse_certificate`` and ``_certificate``
(the searches and converters) build each level once, after its
sub-certificates, and give it a level token: an object interned in the
structure-table entry of the level's poset and keyed by numbers only (see
``_level``), derived from the class and subclass bitsets the builder kept.
A full walk of a level that finds no violation marks its token verified,
and a later walk of any level with that token returns at once, so each
distinct numbered level is verified once per poset family.  The token
holds that mark and the level's totals, so they go with the family.  A
record built by hand, with the constructor or ``dataclasses.replace``, has
no token and is verified in full.

The initial coatom contributes the cd-index of its capped boundary times
c; ordinary coatoms contribute, per subclass, the boundary cd-index times d
plus the ordinary contributions of the semisuspension times c; zero classes
contribute zero.  Each level makes one cross-check: its initial boundary's
cd-index, from the direct flag pipeline, must equal its initial
sub-certificate's recursive total.  An ordinary block's boundary is the
capped closure of tau in its sub-certificate, so the block reads that index
from the sub-certificate's totals.  Totals hold no names and live on the
level token, so each distinct numbered level is totalled and cross-checked
once per poset family, and a record built by hand is walked in full.
"""

from __future__ import annotations

import bisect
from collections import Counter
from collections.abc import Hashable, Iterable, Mapping
from dataclasses import dataclass, field, fields
from itertools import repeat
from types import MappingProxyType
from typing import NamedTuple

from .flags import cd_index
from .ncpoly import CD, NcPolynomial
from .poset import (
    BOT,
    TOP,
    GradedPoset,
    PosetError,
    PosetParseError,
    Violation,
    _all_simplices,
    _bits,
    _boundary,
    _cap_entry,
    _derived_poset,
    _is_name_pair,
    _near_eulerian_at,
    _run,
    _suspension_entry,
    _union,
    is_eulerian,
    is_semi_eulerian,
    memoized,
    pair_name,
    product as poset_product,
    read_lines,
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


class CertificateParseError(PosetParseError):
    """A certificate or pairs file line that cannot be read; the message names the line."""


@dataclass
class Budget:
    """Deterministic search-node counter shared across recursive searches.

    The limit must be a nonnegative int (0 runs out at the first node); any
    other value is a PosetError that names it.
    """

    limit: int = 10**6
    used: int = 0

    def __post_init__(self) -> None:
        if type(self.limit) is not int or self.limit < 0:
            raise PosetError(f"node limit must be a nonnegative int, got {self.limit!r}")

    @classmethod
    def of(cls, budget: "Budget | int | None") -> "Budget":
        """The caller's budget, or a fresh one with that node limit (None: the default)."""
        if isinstance(budget, Budget):
            return budget
        return cls() if budget is None else cls(budget)

    def spend(self, nodes: int = 1) -> None:
        """Spend nodes at once: raise, and leave ``used``, exactly as spending them one at a time would."""
        if self.used + nodes > self.limit:
            self.used = max(self.used, self.limit) + 1
            raise BudgetExhausted(f"search budget of {self.limit} nodes exhausted")
        self.used += nodes


class _Level:
    """The token of a numbered certificate level: one object per key in its structure's table entry (``_level``).

    A token is compared by identity and is its level's one memo.  Its key
    fixes whether a record with this token verifies, so ``verified`` turns
    True once a full walk of such a record has found no violation, and a
    later walk of any record with this token returns at once.  Its key fixes
    the level's totals too, which ``totals`` keeps once a walk of
    ``_contributions`` has made them.
    """

    __slots__ = ("verified", "totals")

    def __init__(self) -> None:
        self.verified = False
        self.totals: _Totals | None = None


class _Totals(NamedTuple):
    """The contributions of one certificate level, with no names in them (see ``_contributions``)."""

    per: dict[int, NcPolynomial]  # by coatom number: the initial coatom, the zero classes, the ordinary ones
    total: NcPolynomial
    phi: NcPolynomial | None  # the initial boundary's cd-index; None at rank 1
    ordinary: NcPolynomial  # per[omega]·c summed over the ordinary coatoms omega


_NO_ITEMS = MappingProxyType({})


class _Certificate:
    """The view of a certificate that every walk reads.

    Records are frozen dataclasses with read-only mappings, so a record
    never changes after it is built.  ``header`` is the file-format
    word and the default violation path; ``zero_kind`` names the kind of
    class that contributes zero.  A record that ``parse_certificate`` or
    ``_certificate`` built gets its level ``token`` when it is first asked
    for (``_derive_tokens``) from the numbers its builder kept on it; a
    record built by hand (the constructor, ``dataclasses.replace``, a copy)
    has none.
    """

    header = ""
    zero_kind = ""
    _mappings: tuple[str, ...] = ()
    _token_due = False  # the library built this record, and ``_derive_tokens`` has not yet derived its token
    _token: _Level | None = None
    # the bitsets that the builder kept for the token (see ``_token_of``): the classes', an SE record's subclasses'
    _masks: dict | None = None
    _blocks: dict | None = None

    def __post_init__(self) -> None:
        """Keep a read-only copy of each mapping, so that the caller's dicts cannot change the record."""
        for name in self._mappings:
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    @classmethod
    def _built(cls, token_due: bool, **fields):
        """``cls(**fields)`` as the library's builders make it, marked for a level token when ``token_due``.

        fields are every field and ``_masks`` (and an SE record's
        ``_blocks``), or only the poset of a rank-1 record, whose mappings
        are empty and whose other fields keep their defaults.  The builders'
        mappings are fresh dicts that nothing else holds, so they are wrapped
        read-only as they are: the constructor's copies and field-by-field
        writes would only cost time.
        """
        cert = object.__new__(cls)
        state = cert.__dict__
        state.update(fields)
        if len(fields) == 1:
            state.update(cls._rank1)
        else:
            for name in cls._mappings:
                state[name] = MappingProxyType(state[name])
        state["_token_due"] = token_due
        return cert

    @property
    def token(self) -> _Level | None:
        """The level token of a record the library built (see ``_level``); None on a record built by hand."""
        _derive_tokens(self)
        return self._token

    def __reduce__(self):
        """Pickle and copy through the constructor: the copy is a hand-built record."""
        values = (getattr(self, f.name) for f in fields(self))
        return type(self), tuple(dict(v) if isinstance(v, MappingProxyType) else v for v in values)

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


@dataclass(frozen=True)
class SPartitionCert(_Certificate):
    """Witness of S-partitionability; sub-certificates are nested certs."""

    poset: GradedPoset
    classes: Mapping[str, frozenset[str]]
    initial: str | None = None
    terminal: str | None = None
    subcert_initial: "SPartitionCert | None" = None
    subcerts: Mapping[str, "SPartitionCert"] = field(default_factory=dict)

    header = "spart"
    zero_kind = "terminal"
    _mappings = ("classes", "subcerts")

    def zero_classes(self) -> frozenset[str]:
        return frozenset() if self.terminal is None else frozenset({self.terminal})

    def _subclasses(self, sigma: str) -> list[tuple[int | None, frozenset[str], Hashable]]:
        return [(None, self.classes[sigma] - {sigma}, sigma)]


@dataclass(frozen=True)
class SEPartitionCert(_Certificate):
    """Witness of SE-partitionability with per-coatom subclass decompositions."""

    poset: GradedPoset
    classes: Mapping[str, frozenset[str]]
    initial: str | None = None
    singletons: frozenset[str] = frozenset()
    subclass_decomp: Mapping[str, tuple[frozenset[str], ...]] = field(default_factory=dict)
    subcert_initial: "SPartitionCert | None" = None
    subcerts: Mapping[tuple[str, int], SPartitionCert] = field(default_factory=dict)

    header = "separt"
    zero_kind = "singleton"
    _mappings = ("classes", "subclass_decomp", "subcerts")

    def zero_classes(self) -> frozenset[str]:
        return self.singletons

    def _subclasses(self, sigma: str) -> list[tuple[int | None, frozenset[str], Hashable]]:
        parts = self.subclass_decomp[sigma]
        return [(j, frozenset(part), (sigma, j)) for j, part in enumerate(parts, start=1)]


for _kind in (SPartitionCert, SEPartitionCert):  # the fields of a rank-1 record besides its poset
    _kind._rank1 = {f.name: _NO_ITEMS if f.name in _kind._mappings else f.default for f in fields(_kind)[1:]}


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


def initial_boundary_poset(p: GradedPoset, sigma1: str) -> GradedPoset:
    """The capped open closure of the initial coatom, a rank-d poset; PosetError on an unknown name."""
    return _initial_boundary(p, p._mask([sigma1]).bit_length() - 1)


@memoized
def _initial_boundary(p: GradedPoset, i: int) -> GradedPoset:
    """``initial_boundary_poset`` of the coatom numbered i, with the errors of ``cap``."""
    kept, entry = _cap_entry(p, p._downset[i] ^ 1 << i, p.rank_top - 1)
    elems = (*map(p._elements.__getitem__, kept), TOP)
    return _derived_poset(p, entry, f"bnd({p.name}@{p._elements[i]})", elems)


def _tau_number(p: GradedPoset, kept: tuple[int, ...], gamma: GradedPoset, tau: str) -> int:
    """tau's number in the semisuspension of gamma, the cap of p that keeps kept: its place by name among the
    coatoms of gamma, whose names are p's.  They are the last members; the fresh top follows them."""
    end = len(kept)
    start = end - gamma._levels.get(gamma.rank_top - 1, 0).bit_count()
    return bisect.bisect_left(kept, tau, start, end, key=p._elements.__getitem__)


def _suspended(p: GradedPoset, sigma: str, rest: int, j: int | None) -> GradedPoset:
    """The semisuspension of the gamma of subclass j (None: the whole class) at its tau, unchecked.

    rest is the bitset of the (sub)class's members besides sigma.
    """
    return _suspension(p, sigma, _union(p._downset, rest), j)


@memoized
def _suspension(p: GradedPoset, sigma: str, closed: int, j: int | None) -> GradedPoset:
    """The named semisuspension of gamma(p@sigma), the cap of the bitset closed, at tau_name(sigma, j).

    gamma is a view, never named; the errors are those of ``cap`` and
    ``semisuspension`` on the named gamma.
    """
    kept, entry = _cap_entry(p, closed, p.rank_top - 1)
    gamma = _derived_poset(p, entry)
    if gamma.rank_top < 2:
        raise PosetError("semisuspension needs rank at least 2")
    tau = tau_name(sigma, j)
    if closed >> p._index.get(tau, len(p)) & 1:
        raise PosetError(f"name {tau!r} already present")
    at = _tau_number(p, kept, gamma, tau)
    names = tuple(map(p._elements.__getitem__, kept))
    elems = (*names[:at], tau, *names[at:], TOP)
    return _derived_poset(p, _suspension_entry(gamma, at), f"ssusp({_gamma_name(p, sigma)})", elems)


def _class_failure(p: GradedPoset, sigma: str, rest: int, j: int | None) -> FailureReport | None:
    """The first rule that an ordinary (sub)class breaks, or None: decided on numbers, naming no poset.

    gamma is a view of the table entry that ``_cap_entry`` keeps.  Its first
    element is the bot of a valid root, which every derived poset keeps
    first, and its top is the fresh one, so it is valid and near-Eulerian
    exactly when ``_near_eulerian_at`` holds at its tau's number; that
    verdict and its boundary are memos of gamma's entry.  Names are formed
    for the failure text only, gamma's from p's.
    """
    if not rest:
        return FailureReport(sigma, "ordinary-singleton", "ordinary class has no members besides its coatom")
    closed = _union(p._downset, rest)
    try:
        kept, entry = _cap_entry(p, closed, p.rank_top - 1)
    except PosetError as exc:
        return FailureReport(sigma, "gamma-unbuildable", str(exc))
    tau = tau_name(sigma, j)
    if closed >> p._index.get(tau, len(p)) & 1:  # only a poset with an element named like a tau gets here
        return FailureReport(sigma, "tau-name-taken", f"{tau} is already an element of {_gamma_name(p, sigma)}")
    gamma = _derived_poset(p, entry)
    if gamma.rank_top < 2 or not _near_eulerian_at(gamma, _tau_number(p, kept, gamma, tau)):
        return FailureReport(sigma, "gamma-not-near-eulerian", _gamma_name(p, sigma))
    # gamma numbers the elements of closed in order, so a member's number there is the count of closed below it
    members = sum(1 << (closed & (1 << i) - 1).bit_count() for i in _bits(rest))
    bdry = _boundary(gamma)
    if members & bdry:
        return FailureReport(sigma, "non-disjoint-boundary", f"{_kept_names(p, kept, members & bdry)}")
    below_top = (1 << len(kept)) - 1  # the fresh top comes last
    if members | bdry != below_top:
        missing = below_top & ~(members | bdry)
        return FailureReport(sigma, "gamma-decomposition", f"uncovered closure part {_kept_names(p, kept, missing)}")
    return None


def _gamma_name(p: GradedPoset, sigma: str) -> str:
    return f"gamma({p.name}@{sigma})"


def _kept_names(p: GradedPoset, kept: tuple[int, ...], mask: int) -> list[str]:
    """The sorted names of a bitset over the numbers of a cap of p that keeps kept, its top excluded."""
    return sorted(p._elements[kept[i]] for i in _bits(mask))


def _gamma_checked(p: GradedPoset, sigma: str, rest: int, j: int | None) -> GradedPoset | FailureReport:
    """``_suspended`` after the full check of an ordinary (sub)class (``_class_failure``), or the failure."""
    failure = _class_failure(p, sigma, rest, j)
    return failure if failure is not None else _suspended(p, sigma, rest, j)


# -- verification ------------------------------------------------------------------


def _check_partition(
    cert: SPartitionCert | SEPartitionCert, path: str, out: list[Violation]
) -> dict[str, int] | None:
    """Shared class-map checks, decided on one mask per class: the masks by coatom, or None on any violation.

    The poset must be valid, so its top is numbered last and covers exactly the coatoms.
    """
    p = cert.poset
    coatoms = p._down[-1]
    keys = 0
    for sigma in cert.classes:
        keys |= 1 << p._index.get(sigma, len(p))  # a name outside p gets a number no coatom has
    if keys != coatoms:
        out.append(
            Violation(
                "class-keys",
                path,
                f"classes for {sorted(cert.classes)} but coatoms are {sorted(p._names(coatoms))}",
            )
        )
        return None
    order = sorted(cert.classes)
    foreign: dict[str, int] = {}  # member names outside p, numbered after its elements
    masks = []
    for sigma in order:
        mask = 0
        for m in cert.classes[sigma]:
            i = p._index.get(m)
            mask |= 1 << (foreign.setdefault(m, len(p) + len(foreign)) if i is None else i)
        masks.append(mask)
    names = p._elements + tuple(foreign)

    def named(mask: int) -> list[str]:
        return sorted(names[i] for i in _bits(mask))

    owned = 0
    for k, (sigma, mask) in enumerate(zip(order, masks)):
        for i in sorted(_bits(mask & owned), key=names.__getitem__) if mask & owned else ():
            owner = next(order[o] for o in reversed(range(k)) if masks[o] >> i & 1)  # the last one before
            detail = f"{names[i]} already in class[{owner}]"
            out.append(Violation("overlapping-classes", f"{path}/class[{sigma}]", detail))
        owned |= mask
    ground = (1 << len(p) - 1) - 1  # all but the top
    if ground & ~owned:
        out.append(Violation("not-covering", path, f"unassigned elements {named(ground & ~owned)}"))
    if owned & ~ground:
        out.append(Violation("foreign-members", path, f"{named(owned & ~ground)}"))
    for sigma, mask in zip(order, masks):
        i = p._index[sigma]
        if not mask >> i & 1:
            out.append(Violation("coatom-not-in-class", f"{path}/class[{sigma}]", sigma))
        if mask & ~p._downset[i]:
            out.append(Violation("class-not-in-closure", f"{path}/class[{sigma}]", f"{named(mask & ~p._downset[i])}"))
    i = p._index.get(cert.initial, len(p))
    if not coatoms >> i & 1:
        out.append(Violation("initial-missing", path, f"{cert.initial!r}"))
        return None
    by_coatom = dict(zip(order, masks))
    if by_coatom[cert.initial] != p._downset[i]:
        out.append(Violation("initial-not-closure", f"{path}/class[{cert.initial}]", "must be the full closure"))
    return None if out else by_coatom


def _verify_sub(sub: SPartitionCert | None, expected: GradedPoset, cpath: str, tau: str | None, out: list[Violation]):
    """Check the sub-certificate of the initial class (tau None) or of a subclass, then walk it."""
    if sub is None:
        code = "missing-initial-subcert" if tau is None else "missing-subcert"
        out.append(Violation(code, cpath, "no sub-certificate"))
    elif not isinstance(sub, SPartitionCert):  # the data model and the file format hold only S here
        out.append(Violation("subcert-not-spart", f"{cpath}/sub", f"{sub.header} certificate, expected spart"))
    elif sub.poset != expected:
        what = "capped boundary" if tau is None else "semisuspension"
        out.append(Violation("subposet-mismatch", f"{cpath}/sub", f"{what} differs"))
    elif tau is not None and sub.initial != tau:
        out.append(Violation("initial-not-tau", f"{cpath}/sub", f"initial is {sub.initial!r}, expected {tau!r}"))
    else:
        out.extend((yield _verify(sub, f"{cpath}/sub")))


def _check_terminal(cert: SPartitionCert, masks: dict[str, int], path: str, out: list[Violation]) -> bool:
    """S zero-class rules: one terminal singleton, distinct from the initial coatom."""
    p = cert.poset
    i = p._index.get(cert.terminal, len(p))
    if not p._down[-1] >> i & 1:  # the coatoms of the valid p
        out.append(Violation("terminal-missing", path, f"{cert.terminal!r}"))
        return False
    if cert.terminal == cert.initial:
        out.append(Violation("initial-terminal-clash", path, cert.initial))
        return False
    if masks[cert.terminal] != 1 << i:
        out.append(Violation("terminal-not-singleton", f"{path}/class[{cert.terminal}]", "must be a one-element class"))
    return True


def _check_singletons(cert: SEPartitionCert, masks: dict[str, int], path: str, out: list[Violation]) -> bool:
    """SE zero-class rules: exactly the one-element classes besides the initial one are declared.

    Always True: unlike the S rules, none of these stops the deeper checks.
    """
    index = cert.poset._index
    for sigma in sorted(cert.singletons):
        if sigma == cert.initial:
            out.append(Violation("initial-singleton-clash", path, sigma))
        elif sigma not in masks or masks[sigma] != 1 << index[sigma]:
            out.append(Violation("singleton-not-singleton", f"{path}/class[{sigma}]", "declared singleton has extra members"))
    for sigma in sorted(cert.classes):
        if sigma != cert.initial and sigma not in cert.singletons and masks[sigma] == 1 << index[sigma]:
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
    decomposition of every ordinary class.  Only the root's poset is tested,
    here; every level below holds an interval or a checked semisuspension.
    """
    p, eulerian = cert.poset, isinstance(cert, SPartitionCert)
    bad = validate(p)
    if bad:
        return [Violation("poset-invalid", cert.header, str(v)) for v in bad]
    if p.rank_top > 1 and not (is_eulerian(p) if eulerian else is_semi_eulerian(p)):
        return [Violation("not-eulerian" if eulerian else "not-semi-eulerian", cert.header, p.name)]
    return _run(_verify(cert, cert.header))


def _verify(cert: SPartitionCert | SEPartitionCert, path: str):
    """The walk of ``verify_partition`` at one level; a level whose token is verified passes at once."""
    if cert._token_due:
        _derive_tokens(cert)
    if cert._token is not None and cert._token.verified:
        return []
    p, eulerian = cert.poset, isinstance(cert, SPartitionCert)
    if p.rank_top - 1 == 0:
        if cert.classes or cert.initial or cert.zero_classes() or cert.subcerts or cert.subcert_initial:
            return [Violation("base-not-empty", path, "rank-1 certificate carries classes")]
        return _passed(cert, [])
    out: list[Violation] = []
    masks = _check_partition(cert, path, out)
    if masks is None:
        return out
    if not (_check_terminal if eulerian else _check_singletons)(cert, masks, path, out):
        return out
    boundary = _initial_boundary(p, p._index[cert.initial])
    yield from _verify_sub(cert.subcert_initial, boundary, f"{path}/class[{cert.initial}]", None, out)
    keyed, code = (cert.subcerts, "subcert-keys") if eulerian else (cert.subclass_decomp, "subclass-keys")
    ordinary = cert.ordinary()
    if set(keyed) != set(ordinary):
        out.append(Violation(code, path, f"{sorted(keyed)} vs ordinary {ordinary}"))
        return out
    for sigma in ordinary:
        cpath = f"{path}/class[{sigma}]"
        if not eulerian and not _check_decomposition(cert, sigma, cpath, out):
            continue
        for j, part, key in cert._subclasses(sigma):
            spath = cpath if j is None else f"{cpath}/subclass[{j}]"
            # a checked decomposition holds only members of the class
            rest = masks[sigma] & ~(1 << p._index[sigma]) if j is None else p._mask(part)
            suspended = _gamma_checked(p, sigma, rest, j)
            if isinstance(suspended, FailureReport):
                out.append(Violation(suspended.code, spath, suspended.detail))
                continue
            yield from _verify_sub(cert.subcerts.get(key), suspended, spath, tau_name(sigma, j), out)
    return _passed(cert, out)


def _passed(cert: SPartitionCert | SEPartitionCert, out: list[Violation]) -> list[Violation]:
    """out, the violations of a full walk of cert's level; its token is marked verified when there are none."""
    if cert._token is not None and not out:
        cert._token.verified = True
    return out


verify_s_partition = verify_se_partition = verify_partition


# -- contributions -----------------------------------------------------------------


_RANK1_TOTALS = _Totals({}, NcPolynomial.unit(CD), None, NcPolynomial.zero(CD))


def _known_totals(cert: SPartitionCert | SEPartitionCert) -> _Totals | None:
    """The totals of cert's level token, after deriving the token; None without them."""
    if cert._token_due:
        _derive_tokens(cert)
    return None if cert._token is None else cert._token.totals


def _contributions(cert: SPartitionCert | SEPartitionCert):
    """The walk of the contributions of one certificate level: its ``_Totals``, one sub-level per sub-walk.

    The one cross-check of a level: the initial boundary's cd-index phi,
    direct through the flag vector, must equal the initial sub-certificate's
    recursive total (else CrossCheckError).  The initial coatom contributes
    phi·c, and an ordinary block the phi·d plus the ordinary part of its
    sub-certificate's totals.  A walked level with a token keeps its totals
    on the token, unless it raises, and a sub-level whose token has totals is
    read, not walked.
    """
    p = cert.poset
    if p.rank_top - 1 == 0:
        return _RANK1_TOTALS
    index = p._index
    zero = NcPolynomial.zero(CD)
    phi = cd_index(initial_boundary_poset(p, cert.initial))
    sub = cert.subcert_initial
    rec = _known_totals(sub)
    if rec is None:
        rec = yield _contributions(sub)
    if rec.total != phi:
        raise CrossCheckError(f"initial boundary cd-index mismatch: {phi} vs {rec.total}")
    per = {index[cert.initial]: phi.times_letter("c")}
    for sigma in sorted(cert.zero_classes()):
        per[index[sigma]] = zero
    ordinary = zero
    for sigma in cert.ordinary():
        acc = zero
        for _, _, key in cert._subclasses(sigma):
            sub = cert.subcerts[key]
            rec = _known_totals(sub)
            if rec is None:
                rec = yield _contributions(sub)
            acc = acc + rec.phi.times_letter("d") + rec.ordinary
        per[index[sigma]] = acc
        ordinary = ordinary + acc
    totals = _Totals(per, sum(per.values(), zero), phi, ordinary.times_letter("c"))
    if cert._token is not None:
        cert._token.totals = totals
    return totals


def contributions(cert: SPartitionCert | SEPartitionCert, check: bool = True) -> ContributionMap:
    """Per-coatom contributions of a certificate; the total is the (semi-)cd-index.

    ``check`` verifies first, raising all violations as CertificateInvalid
    before any cd-index; without it the certificate must be valid, and an
    invalid one may raise any error or give a meaningless map.  The totals
    read the same memoized sub-posets as verification, so they build none
    after it.  At every level walked the initial boundary's cd-index, from
    the direct flag pipeline, must equal the initial sub-certificate's
    recursive total (else CrossCheckError).  Each distinct numbered level is
    walked once per poset family, and a record built by hand is walked in
    full.  The walk keeps no names: the map is named here, a fresh one on
    every call.
    """
    violations = verify_partition(cert) if check else []
    if violations:
        raise CertificateInvalid(violations)
    totals = _known_totals(cert)
    if totals is None:
        totals = _run(_contributions(cert))
    names = cert.poset._elements
    return ContributionMap({names[i]: phi for i, phi in totals.per.items()}, totals.total)


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


def _components(p: GradedPoset, members: int) -> list[int]:
    """Connected components of the comparability graph restricted to a bitset, as bitsets, by least name."""
    comps = []
    while members:
        comp = frontier = members & -members
        while frontier:
            frontier = (_union(p._upset, frontier) | _union(p._downset, frontier)) & members & ~comp
            comp |= frontier
        comps.append(comp)
        members &= ~comp
    return sorted(comps, key=lambda comp: min(p._names(comp)))


@memoized(shared=True)
def _level(p: GradedPoset, key: tuple) -> _Level:
    """The token of the numbered certificate level key on p's structure, interned in its table entry.

    key is the record's kind, (coatom number, member bitset) per class, and
    (coatom number, subclass number, subclass bitset, sub-certificate token)
    per block, the initial block first; an S block and the initial one are
    not numbered and have the bitset 0, since their members are their
    class's.  Tokens are compared and hashed by identity, so a key holds its
    sub-levels at the cost of one object each (hash-consing).  The key needs
    no zero classes: the library gives a record a sub-certificate exactly for
    its initial class and for each block of its ordinary classes, so the zero
    classes are the class coatoms that are neither the initial one nor the
    coatom of a block.

    The key fixes whether a record verifies.  The walk reads numbers, and
    the names it reads give the same answer on every record that gets a
    token (see ``_reads_numbers``): the poset's bot and top are named right,
    no class can find its tau name taken, every sub-certificate certifies the
    sub-poset ``_verify`` derives (it is that object), and every ordinary
    sub-certificate starts at its tau.
    """
    return _Level()


def _derive_tokens(cert: SPartitionCert | SEPartitionCert) -> None:
    """Derive the level tokens that cert and the sub-certificates below it are due, sub-certificates first."""
    due, stack = [], [cert]
    while stack:
        level = stack.pop()
        if level._token_due:
            vars(level)["_token_due"] = False
            due.append(level)
            if level.subcert_initial is not None:
                stack.append(level.subcert_initial)
            stack.extend(level.subcerts.values())
    for level in reversed(due):  # each after the levels below it
        vars(level)["_token"] = _token_of(level)


def _token_of(cert: SPartitionCert | SEPartitionCert) -> _Level | None:
    """cert's level token, from its sub-certificates' tokens and the numbers its builder kept.

    The numbers are the member bitset of each class by coatom number, in
    the order of ``classes``, and for an SE record the (j, member bitset) of
    each subclass j by coatom number, the j-th in its list.  None when a
    sub-certificate has no token, a class's coatom is not an element (the
    parser's numbers are then not read), or an ordinary sub-certificate does
    not start at its tau (verification fails there).
    """
    p = cert.poset
    if not cert.classes:  # a rank-1 record
        return _level(p, (cert.header, (), ()))
    index = p._index
    if not all(map(index.__contains__, cert.classes)) or cert.subcert_initial._token is None:
        return None
    masks, blocks = cert._masks, cert._blocks
    subs = [(index[cert.initial], None, 0, cert.subcert_initial._token)]
    for key, sub in cert.subcerts.items():
        sigma, j = key if type(key) is tuple else (key, None)
        if sub._token is None or sub.initial != tau_name(sigma, j):
            return None
        i = index[sigma]
        subs.append((i, j, 0 if j is None else blocks[i][j - 1][1], sub._token))
    return _level(p, (cert.header, tuple(masks.items()), tuple(subs)))


def _certificate(
    p: GradedPoset,
    cls: type,
    initial: int,
    classes: dict[int, int],
    budget: Budget,
    replay: dict | None,
    checked: bool = False,
):
    """The certificate with these classes and its searched sub-certificates, or the first class failure.

    classes holds the member bitset of each coatom's class by the coatom's
    number, and initial is a number.  The coatoms are one rank level, so
    their numbers sort as their names.  The zero classes are the one-element
    classes besides the initial one: the S terminal (every caller leaves
    exactly one) or the SE singletons.  SE ordinary classes split into their
    connected components.  ``checked``: the caller already ran the class
    checks.  p is (semi-)Eulerian, so its capped initial boundary, an
    interval of p, is Eulerian and searched untested.  The record is built
    once, after its sub-certificates, and names are formed only for it; it is
    marked for a level token unless ``replay`` is None.
    """
    names = p._elements
    zero = [i for i in sorted(classes) if i != initial and classes[i] == 1 << i]
    if cls is SPartitionCert:
        zero = zero[:1]
    blocks = {}  # (j, members besides the coatom) per subclass of each ordinary class
    for i in sorted(classes):
        if i != initial and i not in zero:
            rest = classes[i] & ~(1 << i)
            blocks[i] = [(None, rest)] if cls is SPartitionCert else list(enumerate(_components(p, rest), start=1))
    sub_initial = yield _search(_initial_boundary(p, initial), budget, SPartitionCert, replay=replay)
    if sub_initial is None:
        return FailureReport(names[initial], "initial-subcert", "capped boundary admits no certificate")
    subcerts = {}
    for i, parts in blocks.items():
        sigma = names[i]
        for j, rest in parts:
            suspended = (_suspended if checked else _gamma_checked)(p, sigma, rest, j)
            if isinstance(suspended, FailureReport):
                return suspended
            sub = yield _search(suspended, budget, SPartitionCert, tau_name(sigma, j), replay)
            if sub is None:
                where = "" if j is None else f"subclass {j} "
                return FailureReport(sigma, "subcert-search", f"{where}semisuspension admits no certificate")
            subcerts[sigma if j is None else (sigma, j)] = sub
    record = {names[i]: frozenset(p._names(members)) for i, members in classes.items()}
    token_due = replay is not None
    if cls is SPartitionCert:
        terminal = names[zero[0]] if zero else None
        return SPartitionCert._built(
            token_due, poset=p, classes=record, initial=names[initial], terminal=terminal,
            subcert_initial=sub_initial, subcerts=subcerts, _masks=classes,
        )
    decomp = {names[i]: tuple(frozenset(p._names(m)) for _, m in parts) for i, parts in blocks.items()}
    singletons = frozenset(map(names.__getitem__, zero))
    return SEPartitionCert._built(
        token_due, poset=p, classes=record, initial=names[initial], singletons=singletons, subclass_decomp=decomp,
        subcert_initial=sub_initial, subcerts=subcerts, _masks=classes, _blocks=blocks,
    )


def _reads_numbers(p: GradedPoset) -> bool:
    """Whether p is valid and no element of p is named like a tau: then certificate outcomes below p read numbers only.

    Every poset that ``cap`` and ``semisuspension`` derive from a valid poset
    has one bot and one top, named right, so ``validate`` reads only its
    numbered structure.  Without a tau-like name in p, each derived poset
    holds at most one, its own tau, a coatom, so no class can fail
    ``tau-name-taken``.  Searches of p replay (``_replay_table``), and the
    records that ``_certificate`` and ``parse_certificate`` build on p get
    level tokens (``_level``).
    """
    return not validate(p) and not any(map(str.startswith, p._elements, repeat("tau@")))


def _replay_table(p: GradedPoset) -> dict | None:
    """The replay table of one public call on p: empty, or None (no replay, no level tokens) unless ``_reads_numbers``."""
    return {} if _reads_numbers(p) else None


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
    draft = SEPartitionCert(p, dict(classes), initial, zero)
    out: list[Violation] = []
    masks = _check_partition(draft, draft.header, out)
    if masks is not None:
        _check_singletons(draft, masks, draft.header, out)
    if out:
        return FailureReport(None, out[0].code, f"{out[0].path}: {out[0].detail}")
    numbered = {p._index[sigma]: members for sigma, members in masks.items()}
    return _run(_certificate(p, SEPartitionCert, p._index[initial], numbered, Budget.of(budget), _replay_table(p)))


# -- search ---------------------------------------------------------------------------


def _class_masks(p: GradedPoset, order: list[int] | tuple[int, ...]) -> dict[int, int]:
    """The class of each facet of a facet order: its closure minus what the facets before it cover."""
    covered = 0
    classes = {}
    for i in order:
        classes[i] = p._downset[i] & ~covered
        covered |= p._downset[i]
    return classes


def _search(p: GradedPoset, budget: Budget, cls: type, first: str | None = None, replay: dict | None = None):
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
    memoized on p.  p is Eulerian (S, so it has two facets or more) or
    semi-Eulerian (SE): only a root is tested, and a sub-search's poset is an
    interval of its parent or a semisuspension the class checks found so.

    The ridge test loses no S-certificate: a facet sharing no ridge with the
    covered region keeps all its ridges, so its rest is not empty and its
    gamma caps the whole open interval below it.  Every rank-2 interval of
    an Eulerian poset is a diamond, so gamma has an empty boundary and its
    semisuspension, with a coatom covering nothing, fails validation.

    An S search records its node count and facet order (None when the
    orders ran out) in ``replay``, the table of one public call, by p's
    numbered structure and the number of ``first``.  A search with a
    recorded key charges that count at once, raising BudgetExhausted exactly
    when the search would, and rebuilds the certificate from the order.  The
    caller's budget has paid for the nested searches of the rebuild, so they
    charge a budget of their own.  A search that raises records nothing.
    The key fixes the outcome: the walk reads numbers, and the one name it
    depends on is where a semisuspension puts its tau among the elements of
    its rank.  But a tau is the forced first facet of the one search that
    sees it, and no poset derived from that search keeps it, so its place
    changes nothing else.  A root with an element named like a tau gets no
    table (``_replay_table``), since there a tau name can be taken.
    """
    if p.rank_top == 1:
        return cls._built(replay is not None, poset=p)
    s_rules = cls is SPartitionCert
    key = None
    if s_rules and replay is not None:
        key = p._ranks, p._down, None if first is None else p._index[first]
        known = replay.get(key)
        if known is not None:
            nodes, order = known
            budget.spend(nodes)
            if order is None:
                return None
            return (yield _certificate(p, cls, order[0], _class_masks(p, order), Budget(nodes), replay, checked=True))
        start = budget.used
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
            parts = [(None, rest)] if rest else []
        return not any(_class_failure(p, sigma, part, j) for j, part in parts)

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
                cert = yield _certificate(p, cls, order[0], _class_masks(p, order), budget, replay, checked=True)
            if isinstance(cert, _Certificate):
                return cert
        return None

    cert = yield place(0, 0, 0)
    if key is not None:
        replay[key] = budget.used - start, None if cert is None else tuple(order)
    return cert


def _search_checked(
    p: GradedPoset, budget: Budget | int | None, cls: type
) -> SPartitionCert | SEPartitionCert | None:
    """Validate, test (semi-)Eulerian, search: the entry shared by both searches."""
    bad = validate(p)
    if bad:
        raise PosetError(f"invalid poset: {bad[0]}")
    eulerian = cls is SPartitionCert
    if not (is_eulerian(p) if eulerian else is_semi_eulerian(p)):
        raise PosetError(f"{p.name} is not {'Eulerian' if eulerian else 'semi-Eulerian'}")
    return _run(_search(p, Budget.of(budget), cls, replay=_replay_table(p)))


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
    """Certificate induced by a shelling-style facet order, or a failure report.

    An order that is not an iterable of all the coatom names, each once, is
    the ``bad-order`` report.
    """
    bad = validate(p)
    if bad:
        return FailureReport(None, "poset-invalid", str(bad[0]))
    if not is_eulerian(p):
        return FailureReport(None, "not-eulerian", p.name)
    if (
        not isinstance(facet_order, Iterable)
        or not all(isinstance(sigma, str) for sigma in facet_order)
        or sorted(facet_order) != sorted(p.coatoms())
    ):
        return FailureReport(None, "bad-order", "order must enumerate all coatoms exactly once")
    if len(facet_order) < 2:
        return FailureReport(None, "bad-order", "need at least two facets")
    order = [p._index[sigma] for sigma in facet_order]
    classes = _class_masks(p, order)
    if classes[order[-1]] != 1 << order[-1]:
        return FailureReport(facet_order[-1], "terminal-not-singleton", "last facet class has extra members")
    for sigma, i in zip(facet_order[1:-1], order[1:-1]):
        if classes[i] == 1 << i:
            return FailureReport(sigma, "ordinary-singleton", "intermediate facet already covered")
    return _run(_certificate(p, SPartitionCert, order[0], classes, Budget.of(budget), _replay_table(p)))


def simplicial_partition_to_s_certificate(
    p: GradedPoset,
    pairs: list[tuple[str, str]],
    budget: Budget | int | None = None,
) -> SPartitionCert | FailureReport:
    """Certificate from a boolean-interval partition [R_i, facet_i] of a simplicial poset.

    Raises NotSimplicial when some lower interval is not boolean and
    NotAPartition when pairs is not iterable, a pair is not two element
    names, or the pairs do not form one partition class per facet with a
    unique empty restriction and a unique full restriction.
    """
    bad = validate(p)
    if bad:
        return FailureReport(None, "poset-invalid", str(bad[0]))
    if not _all_simplices(p, ~p._mask([p.top()])):
        raise NotSimplicial(f"{p.name}: a lower interval is not boolean")
    if not isinstance(pairs, Iterable):
        raise NotAPartition(f"{pairs!r} is not a collection of pairs")
    odd = next((pair for pair in pairs if not _is_name_pair(pair)), None)
    if odd is not None:
        raise NotAPartition(f"pair {odd!r} is not a pair of element names")
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
    classes: dict[int, int] = {}
    covered = overlap = 0
    for restriction, facet in pairs:
        i = p._index[facet]
        classes[i] = p._upset[p._index[restriction]] & p._downset[i]
        overlap |= covered & classes[i]
        covered |= classes[i]
    if overlap or covered != (1 << len(p)) - 1 ^ 1 << p._index[p.top()]:
        raise NotAPartition("boolean intervals do not partition the poset")
    if not is_eulerian(p):
        return FailureReport(None, "not-eulerian", p.name)
    return _run(_certificate(p, SPartitionCert, p._index[initials[0]], classes, Budget.of(budget), _replay_table(p)))


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
    classes: dict[int, int] = {}
    for s in sorted(cp.classes):
        for t in sorted(cq.classes):
            members = {
                pair_name(x, y)
                for x in cp.classes[s] - {BOT}
                for y in cq.classes[t] - {BOT}
            }
            classes[prod._index[pair_name(s, t)]] = prod._mask(members)
    initial = prod._index[pair_name(cp.initial, cq.initial)]
    classes[initial] |= 1 << prod._index[BOT]
    cert = _run(_certificate(prod, SEPartitionCert, initial, classes, Budget.of(budget), _replay_table(prod)))
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
    index = cert.poset._index
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
            try:
                names = " ".join(sorted(members, key=index.__getitem__))  # in (rank, name) order
            except KeyError:
                raise PosetError(f"unknown element {min(set(members) - index.keys(), key=str)!r}") from None
            lines.append(f"{'  ' * inner}members {names}")
            if sub is not None:
                lines.append(f"{'  ' * inner}sub")
                yield _emit_classes(sub, inner + 1, lines)


def format_certificate(cert: SPartitionCert | SEPartitionCert) -> str:
    lines = [f"{cert.header} {cert.poset.name}"]
    _run(_emit_classes(cert, 1, lines))
    return "\n".join(lines) + "\n"


def _block_tree(text: str) -> tuple[list, list[int], CertificateParseError | None]:
    """The rows of a certificate text, the end of each row's block, and the first misplaced row.

    The rows are the ``(lineno, line, fields)`` triples of ``read_lines``.  A
    row's level is half its leading spaces, and the block of row i is the rows
    nested in it: rows i + 1 to ``ends[i] - 1``, so ``ends[i]`` is also where
    its next sibling starts.  The first row is the header, whose block is the
    rest.  An odd indentation raises at once; the first row below the header
    at level 0 or more than one level deeper than the row before it is
    returned as the error to raise once the header has been checked.
    """
    rows = list(read_lines(text))
    ends = [len(rows)] * len(rows)
    open_rows: list[int] = []  # the rows whose blocks are open, at levels 1, 2, ...
    misplaced = None
    for i, (lineno, line, _) in enumerate(rows):
        spaces = len(line) - len(line.lstrip(" ")) if line[0] == " " else 0
        if spaces % 2:
            raise CertificateParseError("odd indentation", lineno)
        if misplaced is not None or not i:
            continue
        level = spaces // 2
        if level == 0:
            misplaced = CertificateParseError("trailing content", lineno)
        elif level > len(open_rows) + 1:
            misplaced = CertificateParseError("unexpected indentation", lineno)
        else:
            for k in open_rows[level - 1 :]:
                ends[k] = i
            del open_rows[level - 1 :]
            open_rows.append(i)
    return rows, ends, misplaced


def _read_block(
    tree: tuple[list, list[int]], i: int, poset: GradedPoset, what: str, sub: bool = True
) -> tuple[frozenset[str], int, tuple[int, int]]:
    """The members, their bitset and the ``sub`` block (empty unless ``sub``) of the (sub)class block of row i."""
    rows, ends = tree
    members: list[str] | None = None
    sub_block = (0, 0)
    seen: set[str] = set()
    k = i + 1
    while k < ends[i]:
        lineno, _, fields = rows[k]
        if fields[0] in seen:
            raise CertificateParseError(f"second {fields[0]!r} line in {what}", lineno)
        seen.add(fields[0])
        if fields[0] == "members":
            members = fields[1:]
        elif fields == ["sub"] and not sub:
            raise CertificateParseError(f"{what} takes no sub block", lineno)
        elif fields == ["sub"]:
            sub_block = (k + 1, ends[k])
        else:
            raise CertificateParseError(f"unexpected {fields[0]!r}", lineno)
        k = ends[k]
    if members is None:
        raise CertificateParseError(f"{what} has no members line", rows[i][0])
    index, mask = poset._index, 0
    for name in members:
        number = index.get(name)
        if number is None:
            raise CertificateParseError(f"unknown members {sorted(set(members) - index.keys())}", rows[i][0])
        mask |= 1 << number
    return frozenset(members), mask, sub_block


def _parse_sub(tree: tuple[list, list[int]], block: tuple[int, int], lineno: int, tokens: bool, build, *args):
    """Build the poset a sub-certificate certifies; the walk that parses its ``sub`` block."""
    try:
        sub_poset = build(*args)
    except PosetError as exc:
        raise CertificateParseError(str(exc), lineno)
    return _parse_classes(tree, block, sub_poset, lineno, SPartitionCert, tokens)


def _parse_classes(
    tree: tuple[list, list[int]], block: tuple[int, int], poset: GradedPoset, lineno: int, cls: type, tokens: bool
):
    """The class blocks of one certificate level, rows ``block[0]`` to ``block[1] - 1``.

    SE ordinary classes hold subclass blocks.  lineno is the line of the
    level's header or ``sub`` row, named by the errors of the whole level.
    The record is built once, after its sub-certificates; with ``tokens`` it
    is marked for a level token (``_derive_tokens``), and it keeps the
    bitsets read here by coatom number for that token (``_token_of``).
    """
    rows, ends = tree
    i, stop = block
    split = cls is SEPartitionCert
    if poset.rank_top - 1 == 0:
        if i < stop:
            raise CertificateParseError("rank-1 certificate must have no classes", rows[i][0])
        return cls._built(tokens, poset=poset)
    index = poset._index
    classes: dict[str, frozenset[str]] = {}
    decomp: dict[str, tuple[frozenset[str], ...]] = {}
    subcerts: dict = {}
    zero: list[str] = []
    masks: dict = {}  # the member bitset of each class, by coatom number (None: not an element)
    blocks: dict = {}  # the (j, member bitset) of each SE subclass j, by coatom number; empty for S
    initial = sub_initial = None
    while i < stop:
        line_no, _, fields = rows[i]
        if fields[0] != "class" or len(fields) != 3 or not fields[2].startswith("kind="):
            raise CertificateParseError("expected: class <coatom> kind=<kind>", line_no)
        sigma = fields[1]
        kind = fields[2].removeprefix("kind=")
        if kind not in ("initial", "ordinary", cls.zero_kind):
            raise CertificateParseError(f"unknown kind {kind!r}", line_no)
        if sigma in classes:
            raise CertificateParseError(f"duplicate class {sigma!r}", line_no)
        number = index.get(sigma)  # None when sigma is not an element: the record then gets no token
        if kind == "ordinary" and split:
            parts: list[frozenset[str]] = []
            rests = blocks[number] = []
            mask = 0 if number is None else 1 << number
            k = i + 1
            while k < ends[i]:
                j = len(parts) + 1
                inner_no, _, inner = rows[k]
                if inner != ["subclass", str(j)]:
                    raise CertificateParseError(f"expected: subclass {j}", inner_no)
                part, rest, sub_block = _read_block(tree, k, poset, f"subclass {j} of {sigma!r}")
                parts.append(part)
                rests.append((j, rest))
                mask |= rest
                sub = _parse_sub(tree, sub_block, inner_no, tokens, _suspended, poset, sigma, rest, j)
                subcerts[sigma, j] = yield sub
                k = ends[k]
            if not parts:
                raise CertificateParseError(f"ordinary class {sigma!r} has no subclasses", line_no)
            decomp[sigma] = tuple(parts)
            classes[sigma] = frozenset({sigma}).union(*parts)
            masks[number] = mask
            i = ends[i]
            continue
        members, mask, sub_block = _read_block(tree, i, poset, f"{kind} class {sigma!r}", kind != cls.zero_kind)
        classes[sigma] = members
        masks[number] = mask
        if kind == "initial":
            if initial is not None:
                raise CertificateParseError("two initial classes", line_no)
            initial = sigma
            sub_initial = yield _parse_sub(tree, sub_block, line_no, tokens, initial_boundary_poset, poset, sigma)
        elif kind == "ordinary":
            rest = mask if number is None else mask & ~(1 << number)
            subcerts[sigma] = yield _parse_sub(tree, sub_block, line_no, tokens, _suspended, poset, sigma, rest, None)
        elif split or not zero:
            zero.append(sigma)
        else:
            raise CertificateParseError("two terminal classes", line_no)
        i = ends[i]
    if split:
        if initial is None:
            raise CertificateParseError("certificate needs an initial class", lineno)
        return SEPartitionCert._built(
            tokens, poset=poset, classes=classes, initial=initial, singletons=frozenset(zero), subclass_decomp=decomp,
            subcert_initial=sub_initial, subcerts=subcerts, _masks=masks, _blocks=blocks,
        )
    if initial is None or not zero:
        raise CertificateParseError("certificate needs an initial and a terminal class", lineno)
    return SPartitionCert._built(
        tokens, poset=poset, classes=classes, initial=initial, terminal=zero[0], subcert_initial=sub_initial,
        subcerts=subcerts, _masks=masks,
    )


def parse_certificate(text: str, poset: GradedPoset) -> SPartitionCert | SEPartitionCert:
    """Parse the indentation-nested certificate format against a loaded poset."""
    kinds = {cls.header: cls for cls in (SPartitionCert, SEPartitionCert)}
    rows, ends, misplaced = _block_tree(text)
    if not rows or rows[0][2][0] not in kinds or len(rows[0][2]) != 2:
        raise CertificateParseError("expected header: spart|separt <poset-name>", rows[0][0] if rows else 1)
    lineno, _, (header, name) = rows[0]
    if name != poset.name:
        raise CertificateParseError(f"certificate is for {name!r}, poset is {poset.name!r}", lineno)
    if misplaced is not None:
        raise misplaced
    return _run(_parse_classes((rows, ends), (1, len(rows)), poset, lineno, kinds[header], _reads_numbers(poset)))
