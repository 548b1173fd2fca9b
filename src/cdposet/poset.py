"""Bounded graded posets given by ranks and cover relations.

A poset is immutable after construction.  The constructor numbers the
elements 0..n-1 in (rank, name) order and computes, once, every order
relation as Python-int bitsets over those numbers (bit i is element i):
the upper and lower cover masks, the down- and up-closure masks and one
mask per rank level.  Every query and derived construction reads these
masks; element names are used only to name inputs and results, and names
come out in (rank, name) order.  ``covers()`` sorts the cover pairs by name
on demand.  Derived posets (capped sub-posets, semisuspensions) renumber the
parent's masks and never go through the name constructor.

Derived values (Eulerian verdicts, semisuspensions, flag counts,
certificate sub-posets) are ``memoized`` on the poset object they come from.

The reserved names ``bot`` and ``top`` denote the minimum and maximum.
Synthetic elements created by derived constructions follow a fixed scheme:
capped sub-posets get a fresh ``top``, semisuspensions get ``tau`` (callers
may pass qualified names such as ``tau@<coatom>``).
"""

from __future__ import annotations

import bisect
import functools
import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

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


def _bits(mask: int) -> list[int]:
    """The set bits of a mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _union(sets: list[int], mask: int) -> int:
    """The union of sets[i] over the bits i of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= sets[low.bit_length() - 1]
        mask ^= low
    return out


def _run(walk):
    """The value of a walk: a generator that yields each recursive call as a sub-walk.

    The sub-walk's value is sent back.  Suspended walks wait on a list, so depth costs heap,
    not Python frames.  Exceptions pass out unchanged: no walk catches one around a ``yield``.
    """
    stack, value = [walk], None
    while stack:
        try:
            sub = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(sub)
            value = None
    return value


def memoized(fn):
    """Compute ``fn(p, ...)`` once per poset p and arguments, kept in ``p._cache`` and gone with p.

    A poset never changes after it is built; the values must not change either.
    Keys name fn by string, so a poset with a memo still pickles.
    """
    name = f"{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn)
    def wrapper(p: GradedPoset, *args, **kwargs):
        key = (name, args, *kwargs.items())
        if key not in p._cache:
            p._cache[key] = fn(p, *args, **kwargs)
        return p._cache[key]

    return wrapper


class GradedPoset:
    """Finite bounded graded poset with explicit ranks and covers."""

    def __init__(self, name: str, ranks: Mapping[str, int], covers: Iterable[tuple[str, str]]):
        rank = dict(ranks)
        elems = tuple(sorted(rank, key=lambda x: (rank[x], x)))
        index = {x: i for i, x in enumerate(elems)}
        up = [0] * len(elems)
        down = [0] * len(elems)
        for lo, hi in covers:
            i, j = index.get(lo), index.get(hi)
            if i is None or j is None:
                raise PosetError(f"cover references unknown element {lo if i is None else hi!r}")
            if rank[hi] <= rank[lo]:
                raise PosetError(f"cover {lo} {hi} does not go up in rank")
            up[i] |= 1 << j
            down[j] |= 1 << i
        self._fill(name, rank, elems, up, down)

    @classmethod
    def _from_bits(cls, name: str, rank: dict[str, int], elems: tuple[str, ...], up: list[int], down: list[int]) -> GradedPoset:
        """The poset with these cover masks over elems, which must be in (rank, name) order."""
        p = cls.__new__(cls)
        p._fill(name, rank, elems, up, down)
        return p

    def _fill(self, name: str, rank: dict[str, int], elems: tuple[str, ...], up: list[int], down: list[int]) -> None:
        """Set the name, the cover masks and everything computed from them."""
        self.name, self._rank, self._elements, self._up, self._down = name, rank, elems, up, down
        self._index = dict(zip(elems, range(len(elems))))
        self.rank_top = rank[elems[-1]] if elems else 0
        # closures include the element itself; every lower cover has a smaller number
        self._downset = [0] * len(elems)
        for j in range(len(elems)):
            self._downset[j] = _union(self._downset, down[j]) | 1 << j
        self._upset = [0] * len(elems)
        for i in reversed(range(len(elems))):
            self._upset[i] = _union(self._upset, up[i]) | 1 << i
        levels: dict[int, int] = {}
        for i, x in enumerate(elems):
            levels[rank[x]] = levels.get(rank[x], 0) | 1 << i
        self._levels = levels
        self._cache: dict = {}  # the values of ``memoized`` functions of this poset

    def _mask(self, names: Iterable[str]) -> int:
        """The bitset of the named elements; PosetError on an unknown name."""
        mask = 0
        for x in names:
            i = self._index.get(x)
            if i is None:
                raise PosetError(f"unknown element {x!r}")
            mask |= 1 << i
        return mask

    def _names(self, mask: int) -> tuple[str, ...]:
        """The elements of a bitset, in (rank, name) order."""
        return tuple(map(self._elements.__getitem__, _bits(mask)))

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
        return sorted((x, y) for x, above in zip(self._elements, self._up) for y in self._names(above))

    def upper_covers(self, x: str) -> tuple[str, ...]:
        return self._names(self._up[self._index[x]])

    def lower_covers(self, x: str) -> tuple[str, ...]:
        return self._names(self._down[self._index[x]])

    def less(self, x: str, y: str) -> bool:
        return self.leq(x, y) and x != y

    def leq(self, x: str, y: str) -> bool:
        # an unknown y gets the number n, which no bitset holds
        return x == y or self._upset[self._index[x]] >> self._index.get(y, len(self._elements)) & 1 == 1

    def above(self, x: str) -> frozenset[str]:
        """Elements strictly above x."""
        i = self._index[x]
        return frozenset(self._names(self._upset[i] ^ 1 << i))

    def elements_of_rank(self, r: int) -> list[str]:
        level = self._levels.get(r, 0)  # a level is a run of consecutive numbers
        return list(self._elements[(level & -level).bit_length() - 1 : level.bit_length()]) if level else []

    def bot(self) -> str:
        return self.elements_of_rank(0)[0]

    def top(self) -> str:
        return self.elements_of_rank(self.rank_top)[0]

    def coatoms(self) -> list[str]:
        return list(self.lower_covers(self.top()))

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, GradedPoset)
            and self._rank == other._rank
            and self._up == other._up  # the same ranks give the same numbering
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
    jumps = []
    for i, x in enumerate(p.elements()):
        r = p.rank(x)
        if r < 0 or r > p.rank_top:
            out.append(Violation("rank-range", x, f"rank {r} outside 0..{p.rank_top}"))
        if r > 0 and not p._down[i]:
            out.append(Violation("not-bounded-below", x, "covers nothing"))
        if r < p.rank_top and not p._up[i]:
            out.append(Violation("not-bounded-above", x, "covered by nothing"))
        jump = p._up[i] & ~p._levels.get(r + 1, 0)
        if jump:
            jumps.extend((x, y) for y in p._names(jump))
    for lo, hi in sorted(jumps):
        out.append(Violation("not-graded", f"{lo}<{hi}", f"rank jump {p.rank(lo)}->{p.rank(hi)}"))
    return out


# -- Möbius function and Eulerian tests -----------------------------------------


def mobius(p: GradedPoset, x: str, y: str) -> int:
    """Exact Möbius value of the interval [x, y]."""
    if not p.leq(x, y):
        raise NotComparable(f"{x!r} is not below {y!r}")
    i, j = p._index[x], p._index[y]
    span = p._upset[i] & p._downset[j]
    mu = {i: 1}  # mu(x, z) by the number of z; lower elements come first
    for k in _bits(span ^ 1 << i):
        mu[k] = -sum(mu[w] for w in _bits(p._downset[k] & span ^ 1 << k))
    return mu[j]


def _parity_holds(p: GradedPoset, skip: tuple[str, str] | None = None) -> bool:
    """Every interval [x, y] with x < y, except skip, has as many even-rank as odd-rank elements.

    By induction over [x, y] this holds exactly when mu(x, z) = (-1)^(rank z - rank x)
    for all x <= z <= y, on any finite poset.  An interval is the intersection
    of an up-closure and a down-closure.
    """
    even = 0
    for r, level in p._levels.items():
        if r % 2 == 0:
            even |= level
    skip_pair = None if skip is None else (p._index[skip[0]], p._index[skip[1]])
    for i, up in enumerate(p._upset):
        for j in _bits(up ^ 1 << i):
            span = up & p._downset[j]
            if span.bit_count() != 2 * (span & even).bit_count() and (i, j) != skip_pair:
                return False
    return True


@memoized
def is_eulerian(p: GradedPoset) -> bool:
    """Every interval has Möbius value (-1)^(rank difference).

    Tested as Stanley's even/odd count: every interval [x, y] with x < y has
    as many elements of even rank as of odd rank.
    """
    return _parity_holds(p)


@memoized
def is_semi_eulerian(p: GradedPoset) -> bool:
    """Every proper interval (all but [bot, top]) passes the Möbius test."""
    return _parity_holds(p, (p.bot(), p.top()))


# -- closures, capping, boundary, semisuspension --------------------------------


def closure(p: GradedPoset, members: Iterable[str]) -> set[str]:
    """Down-closure of a set; the empty union is the empty set."""
    return set(p._names(_union(p._downset, p._mask(members))))


def cap(p: GradedPoset, members: Iterable[str], rank_top: int, name: str | None = None) -> GradedPoset:
    """Poset on a down-closed set with a fresh ``top`` adjoined at rank_top.

    The members keep their (rank, name) order and the fresh top comes last, so
    the parent's cover masks are renumbered by the kept bits.
    """
    mask = p._mask(members)
    if BOT not in p or not mask >> p._index[BOT] & 1 or _union(p._downset, mask) != mask:
        raise PosetError("cap expects a down-closed set containing bot")
    kept = _bits(mask)
    elems = tuple(map(p._elements.__getitem__, kept))
    if p._rank[elems[-1]] >= rank_top:
        raise RankTooLow(f"rank-{rank_top} cap over elements {sorted(x for x in elems if p._rank[x] >= rank_top)}")
    if TOP in p and mask >> p._index[TOP] & 1:  # the member top would cover the fresh top
        above = (*p._names(p._up[p._index[TOP]] & mask), TOP)
        raise PosetError(f"cover {TOP} {above[0]} does not go up in rank")
    n = len(kept)
    new = dict(zip(kept, range(n)))
    up, down = [0] * (n + 1), [0] * (n + 1)
    for k, i in enumerate(kept):
        for j in _bits(p._down[i]):
            down[k] |= 1 << new[j]
            up[new[j]] |= 1 << k
    for k in range(n):
        if not up[k]:
            up[k] = 1 << n
            down[n] |= 1 << k
    ranks = {x: p._rank[x] for x in elems} | {TOP: rank_top}
    return GradedPoset._from_bits(name or f"cap({p.name},{rank_top})", ranks, elems + (TOP,), up, down)


def _qualifying(p: GradedPoset) -> int:
    """Bitset of the elements y whose upper interval [y, top] is a three-element chain."""
    not_top = ~(1 << p._index[p.top()])
    out = 0
    for i in _bits(p._levels.get(p.rank_top - 2, 0)):
        if (p._upset[i] & not_top).bit_count() == 2:  # y and the one element between
            out |= 1 << i
    return out


def boundary_set(p: GradedPoset) -> set[str]:
    """Closure of all y with [y, top] a three-element chain (may be empty)."""
    return set(p._names(_union(p._downset, _qualifying(p))))


@memoized
def semisuspension(p: GradedPoset, tau_name: str = "tau") -> tuple[GradedPoset, str]:
    """Adjoin a new coatom covering every qualifying y; returns (poset, tau id).

    If no y qualifies the result has a coatom covering nothing, which
    ``validate`` reports.
    """
    if p.rank_top < 2:
        raise PosetError("semisuspension needs rank at least 2")
    if tau_name in p:
        raise PosetError(f"name {tau_name!r} already present")
    r = p.rank_top - 1
    at = bisect.bisect_left(p._elements, (r, tau_name), key=lambda x: (p._rank[x], x))
    low = (1 << at) - 1  # tau takes number at; the numbers from at on move up by one
    up = [m & low | (m & ~low) << 1 for m in p._up]
    down = [m & low | (m & ~low) << 1 for m in p._down]
    top, qualifying = p._index[p.top()] + 1, _qualifying(p)  # qualifying ranks are below r
    up.insert(at, 1 << top)
    down.insert(at, qualifying)
    down[top] |= 1 << at
    for i in _bits(qualifying):
        up[i] |= 1 << at
    elems = p._elements[:at] + (tau_name,) + p._elements[at:]
    return GradedPoset._from_bits(f"ssusp({p.name})", {**p._rank, tau_name: r}, elems, up, down), tau_name


def near_eulerian_suspension(p: GradedPoset, tau_name: str = "tau") -> GradedPoset | None:
    """The semisuspension of p at tau_name if it is a valid Eulerian poset, else None.

    p is near-Eulerian exactly when this is not None; the semisuspension is
    memoized on p and its Eulerian verdict on itself.
    """
    if p.rank_top < 2 or validate(p):
        return None
    susp, _ = semisuspension(p, tau_name)
    if validate(susp) or not is_eulerian(susp):
        return None
    return susp


def is_near_eulerian(p: GradedPoset) -> bool:
    """True iff the semisuspension restores an Eulerian poset."""
    return near_eulerian_suspension(p, "tau!near") is not None


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
    """A rank- and cover-preserving bijection p -> q, or None; backtracking.

    Each element of p is mapped as soon as all its lower covers are, the
    highest rank first and then in (rank, name) order, so a wrong image fails
    at the first element above it with another mapped lower cover.  The image
    is an unused element of q of the same rank, in (rank, name) order, whose
    lower covers are the images of its own and which has as many upper
    covers.  Each mapped element is one level of a walk (see ``_run``).
    """
    if p.rank_top != q.rank_top or len(p) != len(q):
        return None
    if any(p._levels.get(r, 0).bit_count() != q._levels.get(r, 0).bit_count() for r in range(p.rank_top + 1)):
        return None
    order = []  # p-numbers, each after its lower covers
    waiting = [down.bit_count() for down in p._down]  # lower covers not yet in order
    ready = [(-p.rank(x), i) for i, x in enumerate(p._elements) if not waiting[i]]
    heapq.heapify(ready)
    while ready:
        i = heapq.heappop(ready)[1]
        order.append(i)
        for k in _bits(p._up[i]):
            waiting[k] -= 1
            if not waiting[k]:
                heapq.heappush(ready, (-p.rank(p._elements[k]), k))
    image = [0] * len(p)  # the q-number of each mapped p-number

    def extend(n: int, used: int):
        """The first completion of the images of order[:n], whose q-numbers are the bits of used, or None."""
        if n == len(p):
            return {x: q._elements[j] for x, j in zip(p._elements, image)}
        i = order[n]
        lower = sum(1 << image[k] for k in _bits(p._down[i]))  # lower covers are mapped already
        pool = q._levels.get(p.rank(p._elements[i]), 0) & ~used
        for k in _bits(lower):
            pool &= q._up[k]
        n_up = p._up[i].bit_count()
        for j in _bits(pool):
            if q._down[j] == lower and q._up[j].bit_count() == n_up:
                image[i] = j
                found = yield extend(n + 1, used | 1 << j)
                if found is not None:
                    return found
        return None

    return _run(extend(0, 0))


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
    p_covers, q_covers = set(p.covers()), set(q.covers())
    for lo, hi in p.covers():
        if lo in dom and hi in dom and (iso[lo], iso[hi]) not in q_covers:
            raise NotAnIsomorphism(f"cover {lo}<{hi} not preserved")
    inv = {y: x for x, y in iso.items()}
    for lo, hi in q.covers():
        if lo in cod and hi in cod and (inv[lo], inv[hi]) not in p_covers:
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


def read_lines(text: str) -> Iterator[tuple[int, int, list[str]]]:
    """The lines of a poset, certificate or pairs file as ``(lineno, indent, fields)``.

    ``#`` starts a comment that runs to the end of the line, and lines left
    blank are skipped.  ``lineno`` counts from 1 over every line of ``text``,
    ``indent`` is the number of leading spaces and ``fields`` are the
    whitespace-separated words (never empty).
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
        fields = line.split()
        if fields:
            yield lineno, len(line) - len(line.lstrip(" ")), fields


def parse_poset(text: str) -> GradedPoset:
    """Parse the line-oriented poset file format (``#`` starts a comment)."""
    name: str | None = None
    declared_rank: int | None = None
    ranks: dict[str, int] = {}
    covers: list[tuple[str, str]] = []
    for lineno, _, fields in read_lines(text):
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
