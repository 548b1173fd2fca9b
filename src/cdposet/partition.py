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
by coatom number (and class bitset), so each is named once, when a parse
or search reaches it or a walk first builds its level's view.  Only the
root's poset is validated and tested (semi-)Eulerian: every proper
interval of a semi-Eulerian poset, such as a capped initial boundary
[bot, sigma1], is Eulerian, and each semisuspension is one the class checks
found so.  A
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

The reader keeps a certificate file as the list of rows ``poset.read_lines``
yields and their indentations.  Every row's indentation, then the header,
then the shape of the nesting are checked before the walk reads any class;
the walk then reads the rows once, in order, and a block ends at the first
row indented no deeper than it.  A block's members are read into a bitset
against its level's poset, and its ``sub`` block against the poset derived
from the class coatom's number.  The errors come in the order of a read
that checks all of a block's own rows before its ``sub`` block: a ``sub``
block is read as soon as its row follows the ``members`` row, and its
error waits until the block's later rows are read.  A parse interns each
level it reads and returns the view of the root's level, naming nothing
but the sub-posets.  The writer reads a view's key, a record built by hand
its fields: members in number order are in (rank, name) order.

``verify_partition`` checks an explicit witness and never searches.  Both
searches walk facet orders depth first, one slot per level of the walk.  A
search that returns None has exhausted the facet orders, not shown that no
certificate exists.  Within one public call, an S sub-search whose key was
already searched spends the recorded node count and returns the recorded
level instead of searching again (see ``_search``).

A certificate level is numbered data, a ``_Level``: its key holds the kind,
the class bitsets by coatom number and the sub-level of each block, and it
is interned in the structure-table entry of the level's poset (``_level``).
Every record the library builds (``_certificate`` for the searches and
converters, ``parse_certificate``) is a view of (poset, level): a frozen
dataclass with read-only mappings whose named fields are formed from the
key when one of them is first read (``_view_fields``).  A search, a parse,
and formatting, verifying and totalling a view form none: the walks read a
view's key (a key that breaks a rule of its level is verified by name, for
the violation text), and build the view of a sub-level only to walk it.  A
full walk of a level that finds no violation marks the level verified, and
a later walk of any record of that level returns at once, so each distinct
numbered level is verified once per poset family.  A record
built by hand, with the constructor, ``dataclasses.replace``, pickling or
copying, has no level and is walked in full.

The initial coatom contributes the cd-index of its capped boundary times
c; ordinary coatoms contribute, per subclass, the boundary cd-index times d
plus the ordinary contributions of the semisuspension times c; zero classes
contribute zero.  Each level makes one cross-check: its initial boundary's
cd-index, from the direct flag pipeline, must equal its initial
sub-certificate's recursive total.  An ordinary block's boundary is the
capped closure of tau in its sub-certificate, so the block reads that index
from the sub-certificate's totals.  Totals hold no names and live on the
level, so each distinct numbered level is totalled and cross-checked once
per poset family.
"""

from __future__ import annotations

import bisect
import operator
from collections import Counter
from collections.abc import Hashable, Iterable, Mapping
from dataclasses import dataclass, field, fields
from itertools import compress, count, repeat
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
    """A numbered certificate level: its key, and the one memo of what the key fixes (see ``_level``).

    A level is compared by identity.  Its key fixes whether a record of
    this level verifies, so ``verified`` turns True once a full walk of such
    a record has found no violation, and a later walk of any record of it
    returns at once.  Its key fixes the level's totals too, which ``totals``
    keeps once a walk of ``_contributions`` has made them.
    """

    __slots__ = ("key", "verified", "totals")

    def __init__(self, key: tuple) -> None:
        self.key = key
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
    class that contributes zero.  A record the library builds is a view of
    its poset and ``_level`` (``_view``); a record built by hand (the
    constructor, ``dataclasses.replace``, a copy) has the level None.
    """

    header = ""
    zero_kind = ""
    _mappings: tuple[str, ...] = ()
    _level: _Level | None = None

    def __post_init__(self) -> None:
        """Keep a read-only copy of each mapping, so that the caller's dicts cannot change the record."""
        for name in self._mappings:
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    @classmethod
    def _view(cls, p: GradedPoset, level: _Level):
        """The view of level on p: its named fields are all formed when one is first read."""
        cert = object.__new__(cls)
        cert.__dict__.update(poset=p, _level=level)
        return cert

    def __getattr__(self, name: str):
        """A field of a view, read for the first time: all its fields are formed at once (``_view_fields``).

        The class namespace keeps no field defaults, so ``==``, ``repr``, ``replace`` and pickling reach this too.
        """
        level = self._level
        if level is None or name not in self.__dataclass_fields__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        state = self.__dict__
        state.update(_view_fields(type(self), self.poset, level.key))
        return state[name]

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


for _kind in (SPartitionCert, SEPartitionCert):
    # the fields of a rank-1 record besides its poset; the generated __init__ keeps its own defaults
    _kind._rank1 = {f.name: _NO_ITEMS if f.name in _kind._mappings else f.default for f in fields(_kind)[1:]}
    for _name in _kind._rank1.keys() & vars(_kind).keys():
        delattr(_kind, _name)


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


def _check_decomposition(cert: SEPartitionCert, sigma: str, cpath: str, out: list[Violation]) -> list[int]:
    """SE only: the subclasses of an ordinary class partition it minus its coatom: their bitsets, or [] if not.

    The class's members are elements of the poset (``_check_partition``).
    """
    parts = cert.subclass_decomp[sigma]
    if not parts:
        out.append(Violation("empty-decomposition", cpath, "ordinary class with no subclasses"))
        return []
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
    index = cert.poset._index
    return [sum(map((1).__lshift__, map(index.__getitem__, part))) for part in parts] if ok else []


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


def _key_holds(p: GradedPoset, key: tuple, eulerian: bool) -> bool:
    """Whether the level key on p keeps the rules that ``_verify`` checks by name on a level before its class
    checks and sub-levels: the classes partition the elements below the top, one per coatom and each in its
    coatom's closure, the initial one being the whole closure; the zero classes are singletons, one for S;
    and the subclasses of each SE ordinary class partition it minus its coatom.  What else the named walk
    checks holds for every key by how keys are built (see ``_level``): a key's blocks are its ordinary
    classes and its initial one, each sub-level is an S level that starts at its tau on the sub-poset
    ``_verify`` derives, and no SE ordinary class is a singleton, since its subclasses would be empty and
    the cap of an empty set has no poset."""
    _, classes, blocks = key
    if not blocks:
        return p.rank_top == 1 and not classes
    owned = keys = 0
    for i, m in classes:
        if m & owned or not m >> i & 1 or m & ~p._downset[i]:
            return False
        owned |= m
        keys |= 1 << i
    masks, first = dict(classes), blocks[0][0]
    if keys != p._down[-1] or owned != (1 << len(p) - 1) - 1 or masks[first] != p._downset[first]:
        return False
    parts: dict[int, int] = {}  # the union of the subclasses by coatom number (0 for S)
    for i, _, rest, _ in blocks[1:]:
        if rest & parts.get(i, 0):
            return False
        parts[i] = parts.get(i, 0) | rest
    zero = [i for i in masks if i != first and i not in parts]
    if eulerian:
        return len(zero) == 1 and masks[zero[0]] == 1 << zero[0]
    singletons = all(masks[i] == 1 << i for i in zero)
    return singletons and all(part == masks[i] & ~(1 << i) for i, part in parts.items())


def _block_path(path: str, sigma: str, j: int | None) -> str:
    return f"{path}/class[{sigma}]" if j is None else f"{path}/class[{sigma}]/subclass[{j}]"


def _verify(cert: SPartitionCert | SEPartitionCert, path: str):
    """The walk of ``verify_partition`` at one level; a record of a verified level passes at once.

    A view whose key keeps its level's rules (``_key_holds``) is walked on
    numbers and forms no name: its blocks come from the key in name order,
    and a sub-level is walked, as a view, only while it is not verified.
    Any other record, a view whose key breaks a rule among them, is walked
    by name, so each violation text comes from one check.
    """
    level = cert._level
    if level is not None and level.verified:
        return []
    p, eulerian = cert.poset, isinstance(cert, SPartitionCert)
    if level is not None and _key_holds(p, level.key, eulerian):
        out: list[Violation] = []
        _, classes, blocks = level.key
        masks, names = dict(classes), p._elements
        for n, (i, j, rest, sub) in enumerate([*blocks[:1], *sorted(blocks[1:], key=operator.itemgetter(0))]):
            if not n:
                poset = _initial_boundary(p, i)
            else:
                poset = _gamma_checked(p, names[i], rest if j else masks[i] & ~(1 << i), j)
                if isinstance(poset, FailureReport):
                    out.append(Violation(poset.code, _block_path(path, names[i], j), poset.detail))
                    continue
            if not sub.verified:
                out.extend((yield _verify(SPartitionCert._view(poset, sub), f"{_block_path(path, names[i], j)}/sub")))
        return _passed(cert, out)
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
        rests = [masks[sigma] & ~(1 << p._index[sigma])] if eulerian else _check_decomposition(cert, sigma, cpath, out)
        for (j, _, key), rest in zip(cert._subclasses(sigma), rests):
            spath = cpath if j is None else f"{cpath}/subclass[{j}]"
            suspended = _gamma_checked(p, sigma, rest, j)
            if isinstance(suspended, FailureReport):
                out.append(Violation(suspended.code, spath, suspended.detail))
                continue
            yield from _verify_sub(cert.subcerts.get(key), suspended, spath, tau_name(sigma, j), out)
    return _passed(cert, out)


def _passed(cert: SPartitionCert | SEPartitionCert, out: list[Violation]) -> list[Violation]:
    """out, the violations of a full walk of cert's level; its level is marked verified when there are none."""
    if cert._level is not None and not out:
        cert._level.verified = True
    return out


verify_s_partition = verify_se_partition = verify_partition


# -- contributions -----------------------------------------------------------------


_RANK1_TOTALS = _Totals({}, NcPolynomial.unit(CD), None, NcPolynomial.zero(CD))


def _contributions(cert: SPartitionCert | SEPartitionCert):
    """The walk of the contributions of one certificate level: its ``_Totals``, one sub-level per sub-walk.

    The one cross-check of a level: the initial boundary's cd-index phi,
    direct through the flag vector, must equal the initial sub-certificate's
    recursive total (else CrossCheckError).  The initial coatom contributes
    phi·c, and an ordinary block the phi·d plus the ordinary part of its
    sub-certificate's totals.  A walked record with a level keeps its totals
    on the level, unless it raises, and a sub-level that has totals is read,
    not walked.  A view's blocks are read from its key, in name order, so it
    forms no name, and a sub-level that is not walked is not built.
    """
    p = cert.poset
    if p.rank_top - 1 == 0:
        return _RANK1_TOTALS
    level = cert._level
    if level is None:
        index, masks = p._index, None
        blocks = [(index[cert.initial], None, 0, cert.subcert_initial)]
        blocks += [(index[s], j, 0, cert.subcerts[key]) for s in cert.ordinary() for j, _, key in cert._subclasses(s)]
        zero_classes = sorted(map(index.__getitem__, cert.zero_classes()))
    else:
        _, classes, blocks = level.key
        masks = dict(classes)
        zero_classes = sorted(masks.keys() - {i for i, *_ in blocks})
        blocks = [*blocks[:1], *sorted(blocks[1:], key=operator.itemgetter(0))]
    zero = NcPolynomial.zero(CD)
    phi = cd_index(_initial_boundary(p, blocks[0][0]))
    per: dict[int, NcPolynomial] = {}
    ordinary = zero
    for n, (i, j, rest, sub) in enumerate(blocks):
        sub_level = sub if type(sub) is _Level else sub._level  # a view's key holds levels, a record records
        rec = sub_level and (sub_level.totals or (None if sub_level.key[2] else _RANK1_TOTALS))
        if rec is None:
            if type(sub) is _Level:
                sub = SPartitionCert._view(_key_sub(p, i, j, rest if j else masks[i], not n), sub)
            rec = yield _contributions(sub)
        if n:
            part = rec.phi.times_letter("d") + rec.ordinary
            per[i] = per.get(i, zero) + part
            ordinary = ordinary + part
            continue
        if rec.total != phi:
            raise CrossCheckError(f"initial boundary cd-index mismatch: {phi} vs {rec.total}")
        per[i] = phi.times_letter("c")
        per.update(dict.fromkeys(zero_classes, zero))
    totals = _Totals(per, sum(per.values(), zero), phi, ordinary.times_letter("c"))
    if level is not None:
        level.totals = totals
    return totals


def contributions(cert: SPartitionCert | SEPartitionCert, check: bool = True) -> ContributionMap:
    """Per-coatom contributions of a certificate; the total is the (semi-)cd-index.

    ``check`` verifies first, raising all violations as CertificateInvalid
    before any cd-index; a record built by hand is verified first either
    way.  Without ``check``, a record the library built (searched, converted
    or parsed) must be valid: an invalid one may raise any error or give a
    meaningless map.  The totals read the same memoized sub-posets as
    verification.  At every level walked the initial boundary's cd-index, from
    the direct flag pipeline, must equal the initial sub-certificate's
    recursive total (else CrossCheckError).  Each distinct numbered level is
    walked once per poset family, and a record built by hand is walked in
    full.  The walk keeps no names: the map is named here, a fresh one on
    every call.
    """
    violations = verify_partition(cert) if check or cert._level is None else []
    if violations:
        raise CertificateInvalid(violations)
    totals = cert._level and cert._level.totals
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
    """The numbered certificate level key on p's structure, interned in its table entry.

    key is the record's kind, (coatom number, member bitset) per class in
    the record's order, and (coatom number, subclass number, subclass
    bitset, sub-level) per block in the record's order, the initial block
    first; an S block and the initial one are not numbered and have the
    bitset 0, since their members are their class's.  Levels are compared
    and hashed by identity (hash-consing).  The key needs no zero classes:
    the library gives a record a sub-certificate exactly for its initial
    class and each block of its ordinary classes, so the zero classes are
    the class coatoms that are neither the initial one nor a block's.

    The key fixes whether a record verifies.  The walk reads numbers, and
    the names it reads give the same answer on every record of an interned
    level (see ``_reads_numbers``): the poset's bot and top are named right,
    no class can find its tau name taken, every sub-certificate certifies the
    sub-poset ``_verify`` derives (it is that object), and every ordinary
    sub-certificate starts at its tau.
    """
    return _Level(key)


def _level_of(p: GradedPoset, key: tuple, shared: bool) -> _Level:
    """The level key on p: interned (``_level``) when shared, else a fresh one that only its record holds."""
    return _level(p, key) if shared else _Level(key)


def _view_fields(cls: type, p: GradedPoset, key: tuple) -> dict:
    """The named fields, besides the poset, of the view of the level key on p (see ``_level`` for the key).

    Each sub-certificate is the view of its sub-level on the poset of its
    block (``_key_sub``), so its own fields are formed when first read.
    """
    _, classes, blocks = key
    if not blocks:
        return cls._rank1
    names, masks = p._elements, dict(classes)
    subcerts: dict = {}
    decomp: dict[str, list[frozenset[str]]] = {}
    for n, (i, j, rest, level) in enumerate(blocks):
        sub = SPartitionCert._view(_key_sub(p, i, j, rest if j else masks[i], not n), level)
        if not n:
            first = sub
        elif j is None:
            subcerts[names[i]] = sub
        else:
            decomp.setdefault(names[i], []).append(frozenset(map(names.__getitem__, _bits(rest))))
            subcerts[names[i], j] = sub
    blocked = {i for i, *_ in blocks}
    zero = [names[i] for i, _ in classes if i not in blocked]
    named = {
        "classes": MappingProxyType({names[i]: frozenset(map(names.__getitem__, _bits(m))) for i, m in classes}),
        "initial": names[blocks[0][0]],
        "subcert_initial": first,
        "subcerts": MappingProxyType(subcerts),
    }
    if cls is SPartitionCert:
        named["terminal"] = zero[0]  # every builder leaves an S record exactly one
    else:
        named["singletons"] = frozenset(zero)
        named["subclass_decomp"] = MappingProxyType({sigma: tuple(parts) for sigma, parts in decomp.items()})
    return named


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
    interval of p, is Eulerian and searched untested.  The record is the
    view of a level made after its sub-levels, interned unless ``replay`` is
    None, and it forms no names.
    """
    zero = [i for i in sorted(classes) if i != initial and classes[i] == 1 << i]
    if cls is SPartitionCert:
        zero = zero[:1]
    sub = yield _search(_initial_boundary(p, initial), budget, SPartitionCert, replay=replay)
    if sub is None:
        return FailureReport(p._elements[initial], "initial-subcert", "capped boundary admits no certificate")
    blocks = [(initial, None, 0, sub._level)]
    for i in sorted(classes):
        if i == initial or i in zero:
            continue
        sigma, rest = p._elements[i], classes[i] & ~(1 << i)
        for j, part in [(None, rest)] if cls is SPartitionCert else enumerate(_components(p, rest), start=1):
            suspended = (_suspended if checked else _gamma_checked)(p, sigma, part, j)
            if isinstance(suspended, FailureReport):
                return suspended
            sub = yield _search(suspended, budget, SPartitionCert, tau_name(sigma, j), replay)
            if sub is None:
                where = "" if j is None else f"subclass {j} "
                return FailureReport(sigma, "subcert-search", f"{where}semisuspension admits no certificate")
            blocks.append((i, j, 0 if j is None else part, sub._level))
    key = (cls.header, tuple(classes.items()), tuple(blocks))
    return cls._view(p, _level_of(p, key, replay is not None))


def _reads_numbers(p: GradedPoset) -> bool:
    """Whether p is valid and no element of p is named like a tau: then certificate outcomes below p read numbers only.

    Every poset that ``cap`` and ``semisuspension`` derive from a valid poset
    has one bot and one top, named right, so ``validate`` reads only its
    numbered structure.  Without a tau-like name in p, each derived poset
    holds at most one, its own tau, a coatom, so no class can fail
    ``tau-name-taken``.  Searches of p replay (``_replay_table``), and the
    records that ``_certificate`` and ``parse_certificate`` build on p get
    interned levels (``_level``); on another root each record gets a fresh
    level of its own.
    """
    return not validate(p) and not any(map(str.startswith, p._elements, repeat("tau@")))


def _replay_table(p: GradedPoset) -> dict | None:
    """The replay table of one public call on p: empty, or None (no replay, fresh levels) unless ``_reads_numbers``."""
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


def _replay_key(p: GradedPoset, first: str | None) -> tuple:
    """The replay-table key of an S search of p (see ``_search``): p's numbered structure, the number of ``first``,
    and per rank level the number of its first element whose name does not sort before ``tau@``."""
    levels = p._levels.values()
    at = tuple(bisect.bisect_left(p._elements, "tau@", (m & -m).bit_length() - 1, m.bit_length()) for m in levels)
    return p._ranks, p._down, None if first is None else p._index[first], at


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

    An S search records its node count and level (None when the orders ran
    out) in ``replay``, the table of one public call, by ``_replay_key``.  A
    search with a recorded key spends that count at once, raising
    BudgetExhausted exactly when the search would, and returns the view of
    the recorded level on p; a search that raises records nothing.  The key
    fixes the level and what its view names.  The walk reads numbers; the
    one name it reads is where a semisuspension puts its tau among gamma's
    coatoms, which fixes the numbering of every poset below it.  The names
    below p are p's plus one tau per poset, its own, which no poset derived
    from it keeps.  A name not starting with ``tau@`` sorts before every tau
    name exactly when it sorts before ``tau@``, and a rank level is one run
    of names in name order, so the count of such names per level fixes where
    every tau below p goes: without it, two posets of one structure would
    share a level whose sub-levels number the wrong sub-posets.  A root with
    an element named like a tau gets no table (``_replay_table``).
    """
    if p.rank_top == 1:
        return cls._view(p, _level_of(p, (cls.header, (), ()), replay is not None))
    s_rules = cls is SPartitionCert
    key = None
    if s_rules and replay is not None:
        key = _replay_key(p, first)
        known = replay.get(key)
        if known is not None:
            nodes, level = known
            budget.spend(nodes)
            return None if level is None else cls._view(p, level)
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
        replay[key] = budget.used - start, None if cert is None else cert._level
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


def _key_sub(p: GradedPoset, i: int, j: int | None, members: int, first: bool) -> GradedPoset:
    """The poset of a block's sub-certificate in a level key on p (see ``_level``), the one ``_verify`` derives:
    the capped boundary of the initial coatom i (first), else the semisuspension of the block's gamma.

    members is the block's bitset: its class's for an S block, its own for an SE subclass.
    """
    if first:
        return _initial_boundary(p, i)
    return _suspended(p, p._elements[i], members if j else members & ~(1 << i), j)


def _member_names(index: Mapping[str, int], members: Iterable[str]) -> str:
    """The members of a block built by hand, in (rank, name) order; PosetError on one that is not an element."""
    try:
        return " ".join(sorted(members, key=index.__getitem__))
    except KeyError:
        raise PosetError(f"unknown element {min(set(members) - index.keys(), key=str)!r}") from None


def _emit_classes(cert: SPartitionCert | SEPartitionCert, depth: int, lines: list[str]):
    """The walk that writes the classes of one certificate level in name order, one sub-walk per sub-certificate.

    A view is written from its level's key and forms no named field: a
    block's members in number order, which is their (rank, name) order, and
    a sub-level that holds classes as the view on its block's poset
    (``_key_sub``).  A record built by hand is written from its fields.
    """
    pad, inner = "  " * depth, "  " * (depth + 1)
    if cert._level is None:
        index, zero = cert.poset._index, cert.zero_classes()
        for sigma in sorted(cert.classes):
            if sigma == cert.initial:
                kind, blocks = "initial", [(None, cert.classes[sigma], cert.subcert_initial)]
            elif sigma in zero:
                kind, blocks = cert.zero_kind, [(None, cert.classes[sigma], None)]
            else:
                kind = "ordinary"
                blocks = [(j, part if j else cert.classes[sigma], cert.subcerts[k]) for j, part, k in cert._subclasses(sigma)]
            lines.append(f"{pad}class {sigma} kind={kind}")
            for j, members, sub in blocks:
                at = inner if j is None else f"{inner}  "
                if j is not None:
                    lines.append(f"{inner}subclass {j}")
                lines.append(f"{at}members {_member_names(index, members)}")
                if sub is not None:
                    lines.append(f"{at}sub")
                    yield _emit_classes(sub, depth + (2 if j is None else 3), lines)
        return
    p = cert.poset
    _, classes, blocks = cert._level.key
    names, by_coatom = p._elements, {}
    for n, (i, j, rest, level) in enumerate(blocks):
        by_coatom.setdefault(i, []).append((n, j, rest, level))
    for i, mask in sorted(classes, key=lambda c: names[c[0]]):
        if i not in by_coatom:
            lines.append(f"{pad}class {names[i]} kind={cert.zero_kind}")
            lines.append(f"{inner}members {' '.join(map(names.__getitem__, _bits(mask)))}")
            continue
        lines.append(f"{pad}class {names[i]} kind={'ordinary' if blocks[0][0] != i else 'initial'}")
        for n, j, rest, level in by_coatom[i]:
            at, members = (inner, mask) if j is None else (f"{inner}  ", rest)
            if j is not None:
                lines.append(f"{inner}subclass {j}")
            lines.append(f"{at}members {' '.join(map(names.__getitem__, _bits(members)))}")
            lines.append(f"{at}sub")
            if level.key[1]:  # a level with no class writes nothing
                sub = SPartitionCert._view(_key_sub(p, i, j, members, not n), level)
                yield _emit_classes(sub, depth + (2 if j is None else 3), lines)


def format_certificate(cert: SPartitionCert | SEPartitionCert) -> str:
    lines = [f"{cert.header} {cert.poset.name}"]
    _run(_emit_classes(cert, 1, lines))
    return "\n".join(lines) + "\n"


def _rows(text: str) -> tuple[list, list[int], CertificateParseError | None]:
    """The rows of a certificate text, the indentation of each, and the first misplaced row.

    The rows are the ``(lineno, line, fields)`` triples of ``read_lines``,
    and a row's indentation is its leading spaces; the header's counts as 0
    wherever it stands.  An odd indentation raises at once.  The first row
    below the header indented by 0, or by more than two spaces more than the
    row before it, is returned as the error to raise once the header has
    been checked.  Then every row but the header is nested in the one
    before it or in a row above that, which is all the walk needs.
    """
    rows = list(read_lines(text))
    indents = [len(line) - len(line.lstrip(" ")) for _, line, _ in rows]
    odd = next(compress(rows, map(operator.and_, indents, repeat(1))), None)
    if odd is not None:
        raise CertificateParseError("odd indentation", odd[0])
    if rows:
        indents[0] = 0
    deeper = map(operator.gt, map(operator.sub, indents[1:], indents), repeat(2))
    at = next(compress(count(1), map(operator.or_, map(operator.not_, indents[1:]), deeper)), None)
    if at is None:
        return rows, indents, None
    return rows, indents, CertificateParseError("unexpected indentation" if indents[at] else "trailing content", rows[at][0])


def _block_name(kind: str, sigma: str, j: int | None) -> str:
    return f"{kind} class {sigma!r}" if j is None else f"subclass {j} of {sigma!r}"


def _children(tree: tuple, k: int, indent: int, members: list | None, sub_at: int | None, what: tuple, takes_sub: bool):
    """Read the rows of a (sub)class block that are indented by indent, from row k on, passing over the rows
    nested in them: (the ``members`` row's fields, the ``sub`` row, the row reached).

    members and sub_at are what the block's earlier rows gave.  The read
    stops at the end of the block, or right after a ``sub`` row that follows
    the ``members`` row, so that the walk reads the ``sub`` block before the
    block's later rows.  what names the block (``_block_name``) in the errors.
    """
    rows, indents = tree
    n = len(rows)
    while k < n and indents[k] >= indent:
        if indents[k] == indent:
            lineno, _, fields = rows[k]
            word = fields[0]
            if word == "members" and members is None:
                members = fields
            elif word == "members" or word == "sub" and sub_at is not None:
                raise CertificateParseError(f"second {word!r} line in {_block_name(*what)}", lineno)
            elif fields != ["sub"]:
                raise CertificateParseError(f"unexpected {word!r}", lineno)
            elif not takes_sub:
                raise CertificateParseError(f"{_block_name(*what)} takes no sub block", lineno)
            elif members is not None:
                return members, k, k + 1
            else:
                sub_at = k
        k += 1
    return members, sub_at, k


def _block_poset(poset: GradedPoset, what: tuple, number: int | None, members: list, lineno: int, initial) -> tuple:
    """The member bitset of a (sub)class block and the poset its sub-certificate certifies, or their error.

    These checks follow a block's own rows and precede its ``sub`` block.
    number is the class coatom's, and initial the initial class read before.
    """
    index, mask = poset._index, 0
    for name in members[1:]:
        i = index.get(name)
        if i is None:
            raise CertificateParseError(f"unknown members {sorted(set(members[1:]) - index.keys())}", lineno)
        mask |= 1 << i
    kind, sigma, j = what
    if kind == "initial":
        if initial is not None:
            raise CertificateParseError("two initial classes", lineno)
        if number is None:
            raise CertificateParseError(f"unknown element {sigma!r}", lineno)
        build, args = _initial_boundary, (poset, number)
    elif kind == "ordinary" or j is not None:
        build, args = _suspended, (poset, sigma, mask if j or number is None else mask & ~(1 << number), j)
    else:
        return mask, None
    try:
        return mask, build(*args)
    except PosetError as exc:
        raise CertificateParseError(str(exc), lineno) from None


def _rank1(tree: tuple, k: int, indent: int, poset: GradedPoset, cls: type, shared: bool) -> tuple:
    """What ``_parse_classes`` reads of a rank-1 level, which holds no class, without a walk of its own."""
    rows, indents = tree
    if k < len(rows) and indents[k] == indent:
        return CertificateParseError("rank-1 certificate must have no classes", rows[k][0]), k
    return _level_of(poset, (cls.header, (), ()), shared), k


def _parse_classes(tree: tuple, k: int, indent: int, poset: GradedPoset, lineno: int, cls: type, shared: bool):
    """The walk that reads one certificate level against poset: the class rows indented by indent from row k on.

    Its value is (the level's ``_Level``, or its record where it is built by
    name, or else the first error; the row after the level's rows).  SE
    ordinary classes hold subclass blocks.  lineno is the line of the
    level's header or ``sub`` row, named by the errors of the whole level.
    A block's members are read into a bitset, and its ``sub`` block against
    the poset derived from the class coatom's number.  The errors keep the
    order of a read that checks all of a block's own rows before its
    ``sub`` block: where the ``members`` row comes first, the ``sub`` block
    is read at once and its error kept until the block's later rows have
    been read.  So the walk returns an error, and a walk that reads a
    ``sub`` block goes on past the rows of an error it keeps.  Where the
    numbers read stand for the text (every class coatom is an element, every
    sub-certificate has a level, and every ordinary one starts at its tau),
    the level they key is interned (``_level_of``) and no name is formed;
    otherwise the constructor builds the record by name, as by hand.
    """
    if poset.rank_top == 1:
        return _rank1(tree, k, indent, poset, cls, shared)
    rows, indents = tree
    n = len(rows)
    try:
        split = cls is SEPartitionCert
        index = poset._index
        seen: set[str] = set()
        sigmas: list[str] = []  # the class coatoms, as read
        masks = []  # (coatom number, member bitset) per class, as in the level key
        blocks = []  # (coatom, its number, subclass number, bitset, sub-poset, sub-level or record) per ordinary block
        zero: list[str] = []
        numbered = True  # every class coatom is an element, and every ordinary sub-certificate has a level at its tau
        initial = sub_initial = se = None  # se: the SE ordinary class whose subclass rows come next
        while True:
            if se is not None and k < n and indents[k] == indent + 2:
                j += 1
                block_no, _, fields = rows[k]
                if fields != ["subclass", str(j)]:
                    raise CertificateParseError(f"expected: subclass {j}", block_no)
                what, child = ("subclass", se, j), indent + 4
            else:
                if se is not None:
                    if not j:
                        raise CertificateParseError(f"ordinary class {se!r} has no subclasses", line_no)
                    sigmas.append(se)
                    masks.append((number, se_mask))
                    se = None
                if k == n or indents[k] != indent:
                    break
                line_no, _, fields = rows[k]
                if fields[0] != "class" or len(fields) != 3 or not fields[2].startswith("kind="):
                    raise CertificateParseError("expected: class <coatom> kind=<kind>", line_no)
                sigma, kind = fields[1], fields[2][5:]
                if kind not in ("initial", "ordinary", cls.zero_kind):
                    raise CertificateParseError(f"unknown kind {kind!r}", line_no)
                if sigma in seen:
                    raise CertificateParseError(f"duplicate class {sigma!r}", line_no)
                seen.add(sigma)
                number = index.get(sigma)
                numbered = numbered and number is not None
                if kind == "ordinary" and split:
                    se, j, se_mask = sigma, 0, 0 if number is None else 1 << number
                    k += 1
                    continue
                block_no, what, child = line_no, (kind, sigma, None), indent + 2
            # the block of row k: its own rows, and its sub block, read at once after a members row before it
            members, sub_at, k = _children(tree, k + 1, child, None, None, what, what[0] != cls.zero_kind)
            if members is None:
                raise CertificateParseError(f"{_block_name(*what)} has no members line", block_no)
            early = sub_at is not None and k == sub_at + 1
            at = k if sub_at is None else sub_at + 1
            try:
                mask, sub_poset = _block_poset(poset, what, number, members, block_no, initial)
            except CertificateParseError as exc:
                sub = exc
            else:
                if sub_poset is None:
                    sub = None
                elif sub_poset.rank_top == 1:
                    sub, end = _rank1(tree, at, child + 2, sub_poset, SPartitionCert, shared)
                else:
                    sub, end = yield _parse_classes(tree, at, child + 2, sub_poset, block_no, SPartitionCert, shared)
            if early:
                if type(sub) is not CertificateParseError:
                    k = end
                if k < n and indents[k] >= child:  # rows of the block after its sub block
                    members, _, k = _children(tree, k, child, members, sub_at, what, True)
            if type(sub) is CertificateParseError:
                raise sub
            kind, sigma, j = what
            if kind == "subclass":
                se_mask |= mask
                numbered = numbered and _starts_at(sub, sub_poset, tau_name(sigma, j))
                blocks.append((sigma, number, j, mask, sub_poset, sub))
                continue
            sigmas.append(sigma)
            masks.append((number, mask))
            if kind == "initial":
                initial, sub_initial = number, (sub_poset, sub)
            elif kind == "ordinary":
                numbered = numbered and _starts_at(sub, sub_poset, tau_name(sigma))
                blocks.append((sigma, number, None, 0, sub_poset, sub))
            elif split or not zero:
                zero.append(sigma)
            else:
                raise CertificateParseError("two terminal classes", block_no)
        if initial is None or not (split or zero):
            what = "an initial class" if split else "an initial and a terminal class"
            raise CertificateParseError(f"certificate needs {what}", lineno)
        if numbered and type(sub_initial[1]) is _Level:
            ordinary = ((number, j, rest, sub) for _, number, j, rest, _, sub in blocks)
            key = (cls.header, tuple(masks), ((initial, None, 0, sub_initial[1]), *ordinary))
            return _level_of(poset, key, shared), k
        return _by_name(cls, poset, sigmas, masks, initial, sub_initial, blocks, zero), k
    except CertificateParseError as exc:
        return exc, k


def _starts_at(level, p: GradedPoset, tau: str) -> bool:
    """Whether level, what the reader read of a sub-certificate on p, is a level whose initial coatom is tau."""
    return type(level) is _Level and level.key[2] != () and level.key[2][0][0] == p._index.get(tau)


def _record(p: GradedPoset, sub) -> SPartitionCert:
    """The record of a sub-certificate that the walk read on p: the view of its level, or the record built by name."""
    return SPartitionCert._view(p, sub) if type(sub) is _Level else sub


def _by_name(cls: type, p: GradedPoset, sigmas: list[str], masks: list, initial: int, sub_initial, blocks, zero):
    """The record of a parsed level whose numbers do not stand for the text, built by name as by hand."""
    subcerts: dict = {}
    decomp: dict[str, list[frozenset[str]]] = {}
    for sigma, _, j, rest, sub_poset, sub in blocks:
        subcerts[sigma if j is None else (sigma, j)] = _record(sub_poset, sub)
        if j is not None:
            decomp.setdefault(sigma, []).append(frozenset(p._names(rest)))
    classes = {s: frozenset(p._names(mask)).union([s] if s in decomp else ()) for s, (_, mask) in zip(sigmas, masks)}
    first, sub = p._elements[initial], _record(*sub_initial)
    if cls is SPartitionCert:
        return cls(p, classes, first, zero[0], sub, subcerts)
    return cls(p, classes, first, frozenset(zero), {s: tuple(parts) for s, parts in decomp.items()}, sub, subcerts)


def parse_certificate(text: str, poset: GradedPoset) -> SPartitionCert | SEPartitionCert:
    """Parse the indentation-nested certificate format against a loaded poset."""
    kinds = {cls.header: cls for cls in (SPartitionCert, SEPartitionCert)}
    rows, indents, misplaced = _rows(text)
    if not rows or rows[0][2][0] not in kinds or len(rows[0][2]) != 2:
        raise CertificateParseError("expected header: spart|separt <poset-name>", rows[0][0] if rows else 1)
    lineno, _, (header, name) = rows[0]
    if name != poset.name:
        raise CertificateParseError(f"certificate is for {name!r}, poset is {poset.name!r}", lineno)
    if misplaced is not None:
        raise misplaced
    cls = kinds[header]
    level, _ = _run(_parse_classes((rows, indents), 1, 2, poset, lineno, cls, _reads_numbers(poset)))
    if type(level) is CertificateParseError:
        raise level
    return cls._view(poset, level) if type(level) is _Level else level
