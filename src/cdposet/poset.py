"""Bounded graded posets given by ranks and cover relations.

A poset is immutable after construction; comparability is precomputed as a
transitive closure at load (fixtures stay small, a few thousand elements at
most).  All iteration orders are sorted by element name so that derived
objects, certificates and reports are reproducible.

The reserved names ``bot`` and ``top`` denote the minimum and maximum.
Synthetic elements created by derived constructions follow a fixed scheme:
capped sub-posets get a fresh ``top``, semisuspensions get ``tau`` (callers
may pass qualified names such as ``tau@<coatom>``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

BOT = "bot"
TOP = "top"


class PosetError(Exception):
    """Base class for poset failures."""


class NotComparable(PosetError):
    pass


class RankTooLow(PosetError):
    pass


class NotAnIsomorphism(PosetError):
    pass


class PosetParseError(PosetError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Violation:
    """A single invariant failure; violations are data, not exceptions."""

    code: str
    path: str
    detail: str

    def __str__(self) -> str:
        return f"VIOLATION {self.code} {self.path} {self.detail}"


@dataclass(frozen=True)
class Interval:
    """The induced sub-poset [lower, upper], elements sorted by (rank, name)."""

    lower: str
    upper: str
    elements: tuple[str, ...]


class GradedPoset:
    """Finite bounded graded poset with explicit ranks and covers."""

    def __init__(self, name: str, ranks: Mapping[str, int], covers: Iterable[tuple[str, str]]):
        self.name = name
        self._rank = dict(ranks)
        self.rank_top = max(self._rank.values(), default=0)
        self._elements = tuple(sorted(self._rank, key=self._sort_key))
        up: dict[str, set[str]] = {x: set() for x in self._rank}
        down: dict[str, set[str]] = {x: set() for x in self._rank}
        cover_pairs = set()
        for lo, hi in covers:
            if lo not in self._rank or hi not in self._rank:
                missing = lo if lo not in self._rank else hi
                raise PosetError(f"cover references unknown element {missing!r}")
            if self._rank[hi] <= self._rank[lo]:
                raise PosetError(f"cover {lo} {hi} does not go up in rank")
            cover_pairs.add((lo, hi))
            up[lo].add(hi)
            down[hi].add(lo)
        self._covers = frozenset(cover_pairs)
        self._up = {x: tuple(sorted(up[x], key=self._sort_key)) for x in self._rank}
        self._down = {x: tuple(sorted(down[x], key=self._sort_key)) for x in self._rank}
        # strict up-sets, computed top-down so each element unions its covers
        above: dict[str, frozenset[str]] = {}
        for x in sorted(self._rank, key=lambda e: -self._rank[e]):
            acc: set[str] = set()
            for y in self._up[x]:
                acc.add(y)
                acc.update(above[y])
            above[x] = frozenset(acc)
        self._above = above
        self._mobius_cache: dict[tuple[str, str], int] = {}
        self._cache: dict = {}

    def _sort_key(self, x: str) -> tuple[int, str]:
        return (self._rank[x], x)

    # -- basic queries --------------------------------------------------------

    def elements(self) -> tuple[str, ...]:
        return self._elements

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, x: str) -> bool:
        return x in self._rank

    def rank(self, x: str) -> int:
        return self._rank[x]

    def ranks(self) -> dict[str, int]:
        return dict(self._rank)

    def covers(self) -> list[tuple[str, str]]:
        return sorted(self._covers)

    def upper_covers(self, x: str) -> tuple[str, ...]:
        return self._up[x]

    def lower_covers(self, x: str) -> tuple[str, ...]:
        return self._down[x]

    def less(self, x: str, y: str) -> bool:
        return y in self._above[x]

    def leq(self, x: str, y: str) -> bool:
        return x == y or y in self._above[x]

    def above(self, x: str) -> frozenset[str]:
        """Elements strictly above x."""
        return self._above[x]

    def elements_of_rank(self, r: int) -> list[str]:
        return [x for x in self._elements if self._rank[x] == r]

    def bot(self) -> str:
        return self.elements_of_rank(0)[0]

    def top(self) -> str:
        return self.elements_of_rank(self.rank_top)[0]

    def coatoms(self) -> list[str]:
        return list(self._down[self.top()])

    def interval(self, x: str, y: str) -> Interval:
        if not self.leq(x, y):
            raise NotComparable(f"{x!r} is not below {y!r}")
        inner = [z for z in self._above[x] if self.less(z, y)]
        elems = sorted([x, y] + inner if x != y else [x], key=self._sort_key)
        return Interval(x, y, tuple(elems))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedPoset)
            and self._rank == other._rank
            and self._covers == other._covers
        )

    __hash__ = None  # mutable caches inside; structural equality only

    def __repr__(self) -> str:
        return f"GradedPoset({self.name!r}, {len(self)} elements, rank {self.rank_top})"


# -- validation ----------------------------------------------------------------


def validate(p: GradedPoset) -> list[Violation]:
    """All GradedPoset invariant failures, empty iff the poset is well formed."""
    out: list[Violation] = []
    bots = p.elements_of_rank(0)
    tops = p.elements_of_rank(p.rank_top)
    if len(bots) != 1:
        out.append(Violation("bot-count", p.name, f"rank-0 elements: {bots}"))
    elif bots[0] != BOT:
        out.append(Violation("bot-name", p.name, f"rank-0 element is {bots[0]!r}, expected {BOT!r}"))
    if len(tops) != 1:
        out.append(Violation("top-count", p.name, f"rank-{p.rank_top} elements: {tops}"))
    elif tops[0] != TOP:
        out.append(Violation("top-name", p.name, f"maximum is {tops[0]!r}, expected {TOP!r}"))
    for x in p.elements():
        r = p.rank(x)
        if r < 0 or r > p.rank_top:
            out.append(Violation("rank-range", x, f"rank {r} outside 0..{p.rank_top}"))
        if r > 0 and not p.lower_covers(x):
            out.append(Violation("not-bounded-below", x, "covers nothing"))
        if r < p.rank_top and not p.upper_covers(x):
            out.append(Violation("not-bounded-above", x, "covered by nothing"))
    for lo, hi in p.covers():
        if p.rank(hi) - p.rank(lo) != 1:
            out.append(Violation("not-graded", f"{lo}<{hi}", f"rank jump {p.rank(lo)}->{p.rank(hi)}"))
    return out


# -- Möbius function and Eulerian tests -----------------------------------------


def mobius(p: GradedPoset, x: str, y: str) -> int:
    """Exact Möbius value of the interval [x, y]."""
    if not p.leq(x, y):
        raise NotComparable(f"{x!r} is not below {y!r}")
    cache = p._mobius_cache
    key = (x, y)
    if key in cache:
        return cache[key]
    # iterative bottom-up over [x, y] keeps recursion depth flat
    inner = sorted((z for z in p.above(x) if p.leq(z, y)), key=p._sort_key)
    cache[(x, x)] = 1
    for z in inner:
        if (x, z) in cache:
            continue
        total = 1  # mu(x, x)
        for w in inner:
            if w != z and p.less(w, z):
                total += cache[(x, w)]
        cache[(x, z)] = -total
    return cache[key]


def is_eulerian(p: GradedPoset) -> bool:
    """Every interval has Möbius value (-1)^(rank difference)."""
    for x in p.elements():
        for y in sorted(p.above(x), key=p._sort_key):
            if mobius(p, x, y) != (-1) ** (p.rank(y) - p.rank(x)):
                return False
    return True


def is_semi_eulerian(p: GradedPoset) -> bool:
    """Every proper interval (all but [bot, top]) passes the Möbius test."""
    b, t = p.bot(), p.top()
    for x in p.elements():
        for y in sorted(p.above(x), key=p._sort_key):
            if (x, y) == (b, t):
                continue
            if mobius(p, x, y) != (-1) ** (p.rank(y) - p.rank(x)):
                return False
    return True


# -- closures, capping, boundary, semisuspension --------------------------------


def closure(p: GradedPoset, members: Iterable[str]) -> set[str]:
    """Down-closure of a set; the empty union is the empty set."""
    out: set[str] = set()
    stack = [x for x in members]
    for x in stack:
        if x not in p:
            raise PosetError(f"unknown element {x!r}")
    while stack:
        x = stack.pop()
        if x in out:
            continue
        out.add(x)
        stack.extend(p.lower_covers(x))
    return out


def cap(p: GradedPoset, members: Iterable[str], rank_top: int, name: str | None = None) -> GradedPoset:
    """Poset on a down-closed set with a fresh ``top`` adjoined at rank_top."""
    elems = set(members)
    if BOT not in elems or any(y not in elems for x in elems for y in p.lower_covers(x)):
        raise PosetError("cap expects a down-closed set containing bot")
    too_high = [x for x in elems if p.rank(x) >= rank_top]
    if too_high:
        raise RankTooLow(f"rank-{rank_top} cap over elements {sorted(too_high)}")
    ranks = {x: p.rank(x) for x in elems}
    ranks[TOP] = rank_top
    covers = [(lo, hi) for lo, hi in p.covers() if lo in elems and hi in elems]
    maximal = [x for x in sorted(elems, key=p._sort_key) if not any(y in elems for y in p.upper_covers(x))]
    covers.extend((x, TOP) for x in maximal)
    return GradedPoset(name or f"cap({p.name},{rank_top})", ranks, covers)


def _qualifying(p: GradedPoset) -> list[str]:
    """Elements y whose upper interval [y, top] is a three-element chain."""
    t = p.top()
    out = []
    for y in p.elements_of_rank(p.rank_top - 2):
        between = [z for z in p.above(y) if z != t]
        if len(between) == 1:
            out.append(y)
    return out


def boundary_set(p: GradedPoset) -> set[str]:
    """Closure of all y with [y, top] a three-element chain (may be empty)."""
    qs = _qualifying(p)
    return closure(p, qs) if qs else set()


def semisuspension(p: GradedPoset, tau_name: str = "tau") -> tuple[GradedPoset, str]:
    """Adjoin a new coatom covering every qualifying y; returns (poset, tau id).

    If no y qualifies the result has a coatom covering nothing, which
    ``validate`` reports.
    """
    if p.rank_top < 2:
        raise PosetError("semisuspension needs rank at least 2")
    if tau_name in p:
        raise PosetError(f"name {tau_name!r} already present")
    ranks = p.ranks()
    ranks[tau_name] = p.rank_top - 1
    covers = p.covers()
    covers.extend((y, tau_name) for y in _qualifying(p))
    covers.append((tau_name, p.top()))
    return GradedPoset(f"ssusp({p.name})", ranks, covers), tau_name


def is_near_eulerian(p: GradedPoset) -> bool:
    """True iff the semisuspension restores an Eulerian poset."""
    if p.rank_top < 2 or validate(p):
        return False
    susp, _ = semisuspension(p, "tau!near")
    if validate(susp):
        return False
    return is_eulerian(susp)


# -- products and connected sums -------------------------------------------------


def pair_name(x: str, y: str) -> str:
    return f"{x},{y}"


def product(p: GradedPoset, q: GradedPoset, name: str | None = None) -> GradedPoset:
    """Face poset of the CW product: cells are pairs of proper cells.

    rank(x,y) = r(x)+r(y)-1 and the result has rank p.rank_top+q.rank_top-2,
    with a fresh bot and a fresh top above all coatom pairs.  polygon(3) x
    polygon(3) has 9, 18, 9 elements in ranks 1, 2, 3.
    """
    name = name or f"{p.name}x{q.name}"
    p_cells = [x for x in p.elements() if 0 < p.rank(x) < p.rank_top]
    q_cells = [y for y in q.elements() if 0 < q.rank(y) < q.rank_top]
    if not p_cells or not q_cells:
        return GradedPoset(name, {BOT: 0, TOP: 1}, [(BOT, TOP)])
    ranks = {BOT: 0, TOP: p.rank_top + q.rank_top - 2}
    covers: list[tuple[str, str]] = []
    for x in p_cells:
        for y in q_cells:
            ranks[pair_name(x, y)] = p.rank(x) + q.rank(y) - 1
    for x in p_cells:
        for y in q_cells:
            cell = pair_name(x, y)
            if p.rank(x) + q.rank(y) == 2:
                covers.append((BOT, cell))
            if p.rank(x) == p.rank_top - 1 and q.rank(y) == q.rank_top - 1:
                covers.append((cell, TOP))
            for x2 in p.upper_covers(x):
                if p.rank(x2) < p.rank_top:
                    covers.append((cell, pair_name(x2, y)))
            for y2 in q.upper_covers(y):
                if q.rank(y2) < q.rank_top:
                    covers.append((cell, pair_name(x, y2)))
    return GradedPoset(name, ranks, covers)


def find_isomorphism(p: GradedPoset, q: GradedPoset) -> dict[str, str] | None:
    """A rank- and cover-preserving bijection p -> q, or None; backtracking."""
    if p.rank_top != q.rank_top or len(p) != len(q):
        return None
    by_rank_p = [p.elements_of_rank(r) for r in range(p.rank_top + 1)]
    by_rank_q = [q.elements_of_rank(r) for r in range(q.rank_top + 1)]
    if any(len(a) != len(b) for a, b in zip(by_rank_p, by_rank_q)):
        return None
    order = [x for level in by_rank_p for x in level]
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def compatible(x: str, y: str) -> bool:
        if len(p.lower_covers(x)) != len(q.lower_covers(y)):
            return False
        if len(p.upper_covers(x)) != len(q.upper_covers(y)):
            return False
        for lo in p.lower_covers(x):
            if lo in mapping and mapping[lo] not in q.lower_covers(y):
                return False
        return True

    def assign(i: int) -> bool:
        if i == len(order):
            return True
        x = order[i]
        for y in by_rank_q[p.rank(x)]:
            if y in used or not compatible(x, y):
                continue
            mapping[x] = y
            used.add(y)
            if assign(i + 1):
                return True
            del mapping[x]
            used.discard(y)
        return False

    return dict(mapping) if assign(0) else None


def connected_sum(
    p: GradedPoset,
    q: GradedPoset,
    fp: str,
    fq: str,
    iso: Mapping[str, str],
    name: str | None = None,
) -> GradedPoset:
    """Glue [bot, fp) to [bot, fq) along iso and delete both facets.

    iso must be a rank- and cover-preserving bijection between the two open
    facet closures; surviving q-side elements are renamed ``q.<name>``.
    """
    if fp not in p.coatoms() or fq not in q.coatoms():
        raise PosetError("connected_sum expects coatoms of the respective posets")
    dom = closure(p, [fp]) - {fp}
    cod = closure(q, [fq]) - {fq}
    if set(iso) != dom or set(iso.values()) != cod or len(set(iso.values())) != len(iso):
        raise NotAnIsomorphism("iso is not a bijection between the open facet closures")
    for x, y in iso.items():
        if p.rank(x) != q.rank(y):
            raise NotAnIsomorphism(f"rank mismatch {x!r}->{y!r}")
    for lo, hi in p.covers():
        if lo in dom and hi in dom and (iso[lo], iso[hi]) not in q._covers:
            raise NotAnIsomorphism(f"cover {lo}<{hi} not preserved")
    inv = {y: x for x, y in iso.items()}
    for lo, hi in q.covers():
        if lo in cod and hi in cod and (inv[lo], inv[hi]) not in p._covers:
            raise NotAnIsomorphism(f"cover {lo}<{hi} not reflected")

    def q_side(y: str) -> str:
        if y == BOT or y == TOP:
            return y
        if y in cod:
            return inv[y]
        return f"q.{y}"

    ranks = {x: p.rank(x) for x in p.elements() if x != fp}
    for y in q.elements():
        if y != fq:
            ranks[q_side(y)] = q.rank(y)
    covers = {(lo, hi) for lo, hi in p.covers() if fp not in (lo, hi)}
    covers.update((q_side(lo), q_side(hi)) for lo, hi in q.covers() if fq not in (lo, hi))
    return GradedPoset(name or f"{p.name}#{q.name}", ranks, covers)


# -- file format ------------------------------------------------------------------


def parse_poset(text: str) -> GradedPoset:
    """Parse the line-oriented poset file format (``#`` starts a comment)."""
    name: str | None = None
    declared_rank: int | None = None
    ranks: dict[str, int] = {}
    covers: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "poset":
            if len(fields) != 2:
                raise PosetParseError("expected: poset <name>", lineno)
            name = fields[1]
        elif kind == "rank":
            if len(fields) != 2 or not fields[1].lstrip("-").isdigit():
                raise PosetParseError("expected: rank <integer>", lineno)
            declared_rank = int(fields[1])
        elif kind == "elem":
            if len(fields) != 3 or not fields[2].lstrip("-").isdigit():
                raise PosetParseError("expected: elem <id> <rank>", lineno)
            if fields[1] in ranks:
                raise PosetParseError(f"duplicate element {fields[1]!r}", lineno)
            ranks[fields[1]] = int(fields[2])
        elif kind == "cover":
            if len(fields) != 3:
                raise PosetParseError("expected: cover <lower> <upper>", lineno)
            if fields[1] not in ranks or fields[2] not in ranks:
                raise PosetParseError(f"cover references undeclared element", lineno)
            if ranks[fields[2]] <= ranks[fields[1]]:
                raise PosetParseError(f"cover {fields[1]} {fields[2]} does not go up in rank", lineno)
            covers.append((fields[1], fields[2]))
        else:
            raise PosetParseError(f"unknown directive {kind!r}", lineno)
    if name is None:
        raise PosetParseError("missing poset header", 1)
    if BOT not in ranks or ranks[BOT] != 0:
        raise PosetParseError("missing elem bot with rank 0", 1)
    if TOP not in ranks or (declared_rank is not None and ranks[TOP] != declared_rank):
        raise PosetParseError("missing elem top at the declared rank", 1)
    return GradedPoset(name, ranks, covers)


def format_poset(p: GradedPoset, provenance: str | None = None) -> str:
    lines = []
    if provenance:
        lines.append(f"# provenance: {provenance}")
    lines.append(f"poset {p.name}")
    lines.append(f"rank {p.rank_top}")
    for x in p.elements():
        lines.append(f"elem {x} {p.rank(x)}")
    for lo, hi in p.covers():
        lines.append(f"cover {lo} {hi}")
    return "\n".join(lines) + "\n"
