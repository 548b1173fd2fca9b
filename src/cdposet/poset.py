"""Bounded graded posets given by ranks and cover relations.

A poset is immutable after construction.  Its elements are numbered
0..n-1 in (rank, name) order, and every order relation is computed once as
Python-int bitsets over those numbers (bit i is element i): the upper and
lower cover masks, the down- and up-closure masks and one mask per rank
level.  Every query and derived construction reads these masks; element
names are used only to name inputs and results, and names come out in
(rank, name) order.  ``covers()`` sorts the cover pairs by name on demand.

Every constructor hands the core one input: the elements in (rank, name)
order, their ranks by number and their lower-cover masks.  One step,
``_numbered``, numbers named elements and ORs their lower-cover masks.  The
name constructor calls it after checking the covers, and ``parse_poset``
calls it after checking each line, so a parsed poset is not built by name.
Derived posets are built bitset to bitset: ``cap`` takes its down-closed
set as names or as a bitset over the parent's numbers and renumbers the
parent's lower-cover masks, and ``semisuspension`` shifts them to make room
for tau.  ``_structure`` then derives the rest, the one routine that
computes upper covers, closures and levels, and ``_fill``, the one routine
that sets them on a poset, adds the names.

Every poset built by a constructor, ``parse_poset``, ``product``,
``connected_sum`` or ``zoo`` is a root with a fresh structure table, and
every poset ``cap`` or ``semisuspension`` derives from it shares that
table.  The table is keyed by the numbered structure, the pair (ranks,
lower-cover masks) by number.  ``_structure`` derives the closures and
levels of a structure once per table, and ``_fill`` hands every poset of
that structure the same tuples.  The table lives as long as the posets of
its family and is never shared between two roots, even isomorphic ones.

A structure's entry also keeps, in ``_derived``, what ``cap`` and
``semisuspension`` derived from it, by number: for a cap, the kept numbers
and the entry of the result, by (bitset, rank, number of bot, number of
top); for a semisuspension, the entry of the result, by tau's number.  A
repeated derivation from any poset of that structure then checks its names
and builds only the element tuple and the index.  A derivation that raises
keeps nothing.

Derived values are ``memoized``.  Those that read the numbered structure
only (Eulerian verdicts, chain counts, cd-indices, boundaries, and whether
the structure passes every check of ``validate`` but the names of bot and
top) are kept in the structure's table entry, shared by every poset of that
structure in the family.  Those that read names (validation verdicts,
semisuspensions, certificate sub-posets) are kept on the poset object they
come from; a poset of a well-formed structure checks only the names of its
first and last element.

The reserved names ``bot`` and ``top`` denote the minimum and maximum.
Synthetic elements created by derived constructions follow a fixed scheme:
capped sub-posets get a fresh ``top``, semisuspensions get ``tau`` (callers
may pass qualified names such as ``tau@<coatom>``).
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
from dataclasses import dataclass
from operator import itemgetter
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


def _numbered(
    rank: dict[str, int], covers: list[tuple[str, str]]
) -> tuple[tuple[str, ...], tuple[int, ...], list[int]]:
    """The elements in (rank, name) order, their ranks and the lower-cover masks over their numbers.

    Every cover must join two elements of rank.  The masks are OR-ed, so a
    repeated cover changes nothing.
    """
    elems = tuple(sorted(sorted(rank), key=rank.__getitem__))  # by name, then stably by rank
    index = dict(zip(elems, range(len(elems))))
    down = [0] * len(elems)
    for lo, hi in covers:
        down[index[hi]] |= 1 << index[lo]
    return elems, tuple(map(rank.__getitem__, elems)), down


def _check_name(name: str) -> None:
    """Raise PosetError unless the file formats can carry name: a str, one field of ``str.split``, no ``#``."""
    if not isinstance(name, str):
        raise PosetError(f"name {name!r} is not a string")
    if name.split() != [name] or "#" in name:
        raise PosetError(f"name {name!r} cannot be written to a file: it must be non-empty, without whitespace or '#'")


def _is_name_pair(cover) -> bool:
    return type(cover) in (tuple, list) and len(cover) == 2 and all(isinstance(x, str) for x in cover)


def _structure(table: dict, ranks: tuple[int, ...], down: list[int]) -> tuple:
    """table's entry for the numbered structure (ranks, down), derived on its first use.

    The one routine for covers and closures: it derives upper covers,
    closures and levels once per structure in the table and keeps them, as
    tuples, in the entry, which also keeps its key, an empty ``_shared`` memo
    and an empty ``_derived`` dict (see ``GradedPoset._fill``).
    """
    key = ranks, tuple(down)
    entry = table.get(key) if table else None  # an empty table (a root's) holds nothing: skip hashing the key
    if entry is None:
        n = len(ranks)
        # closures include the element itself; every lower cover has a smaller number
        downset, up = [0] * n, [0] * n
        for j, m in enumerate(down):
            acc = bit = 1 << j
            while m:
                low = m & -m
                i = low.bit_length() - 1
                acc |= downset[i]
                up[i] |= bit
                m ^= low
            downset[j] = acc
        upset = [0] * n
        for i in range(n - 1, -1, -1):
            m, acc = up[i], 1 << i
            while m:
                low = m & -m
                acc |= upset[low.bit_length() - 1]
                m ^= low
            upset[i] = acc
        # the elements are in rank order, so each level is one run of numbers
        levels: dict[int, int] = {}
        start = 0
        while start < n:
            end = bisect.bisect_right(ranks, ranks[start], start)
            levels[ranks[start]] = (1 << end) - (1 << start)
            start = end
        entry = table[key] = (key, tuple(up), tuple(downset), tuple(upset), levels, ranks[-1] if n else 0, {}, {})
    return entry


_MISSING = object()  # no memoized value yet


def memoized(fn=None, *, shared: bool = False):
    """Compute ``fn(p, ...)`` once per poset p and arguments, kept in ``p._cache`` and gone with p.

    ``@memoized(shared=True)`` is for functions that read p's numbered
    structure only, never its element names: the value is kept in
    ``p._shared``, the memo of p's structure-table entry, so every poset of
    p's family with the same structure reads it.  A poset never changes after
    it is built; the values must not change either, and a shared value holds
    no poset.  The derived table entries of ``cap`` and ``semisuspension``
    sit beside this memo, in ``p._derived``.  Keys name fn by string, so a
    poset with a memo still pickles.  A call with an argument that does not
    hash, such as a list, is not memoized: fn runs, and its own checks raise
    the ``PosetError`` that names the argument.
    """
    if fn is None:
        return functools.partial(memoized, shared=shared)
    name = f"{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn)
    def wrapper(p: GradedPoset, *args, **kwargs):
        key = (name, args, *kwargs.items()) if kwargs else (name, args)
        store = p._shared if shared else p._cache
        try:
            value = store.get(key, _MISSING)
        except TypeError:  # an argument does not hash
            return fn(p, *args, **kwargs)
        if value is _MISSING:
            value = store[key] = fn(p, *args, **kwargs)
        return value

    return wrapper


class GradedPoset:
    """Finite bounded graded poset with explicit ranks and covers."""

    def __init__(self, name: str, ranks: Mapping[str, int], covers: Iterable[tuple[str, str]]):
        rank, covers = dict(ranks), list(covers)
        for x in (name, *rank):
            _check_name(x)
        if not set(map(type, rank.values())) <= {int}:  # a bool or a float would not round-trip
            x = next(x for x, r in rank.items() if type(r) is not int)
            raise PosetError(f"rank {rank[x]!r} of {x!r} is not an integer")
        try:
            if not set(map(type, covers)) <= {tuple, list}:  # a str such as "ab" would unpack as the cover a < b
                raise TypeError
            for lo, hi in covers:  # ValueError on a cover of another length, TypeError on an unhashable name
                if lo not in rank or hi not in rank:
                    raise PosetError(f"cover references unknown element {lo if lo not in rank else hi!r}")
                if rank[hi] <= rank[lo]:
                    raise PosetError(f"cover {lo} {hi} does not go up in rank")
        except (TypeError, ValueError):
            bad = next(c for c in covers if not _is_name_pair(c))  # every cover before the one that raised is a pair
            raise PosetError(f"cover {bad!r} is not a pair of element names") from None
        elems, ranks, down = _numbered(rank, covers)
        table: dict = {}
        self._fill(name, elems, _structure(table, ranks, down), table)

    @classmethod
    def _from_bits(cls, name: str, elems: tuple[str, ...], entry: tuple, table: dict) -> GradedPoset:
        """The poset of structure-table entry entry over elems, which must be in (rank, name) order.

        table is the structure table of the poset's family (a fresh dict for a
        root) and entry its entry for the poset's numbered structure (see
        ``_structure``).
        """
        p = cls.__new__(cls)
        p._fill(name, elems, entry, table)
        return p

    def _fill(self, name: str, elems: tuple[str, ...], entry: tuple, table: dict) -> None:
        """Set the name, elements and table, and the name-free rest from the structure's table entry.

        The one routine that sets the poset core.  Every poset of a structure
        shares the entry: its tuples (ranks, lower and upper covers,
        closures), ``_levels`` (which nothing writes), ``_shared`` (the memo
        of ``memoized(shared=True)``) and ``_derived`` (what ``cap`` and
        ``semisuspension`` derived from the structure).  Names stay on the
        object: ``_index`` is built here, and ``_cache`` starts empty.
        """
        (
            (self._ranks, self._down), self._up, self._downset, self._upset, self._levels, self.rank_top,
            self._shared, self._derived,
        ) = entry
        self.name, self._elements, self._table = name, elems, table
        self._index = dict(zip(elems, range(len(elems))))
        self._cache: dict = {}  # the values of ``memoized`` functions that read this poset's names

    def _mask(self, names: Iterable[str]) -> int:
        """The bitset of the named elements; PosetError on an unknown name, and when names is not iterable."""
        mask = 0
        x = names  # named by the error when names is not iterable
        try:
            for x in names:
                i = self._index.get(x)
                if i is None:
                    raise PosetError(f"unknown element {x!r}")
                mask |= 1 << i
        except TypeError:  # names is not iterable, or x does not hash
            what = f"{x!r} is not a collection of element names" if x is names else f"unknown element {x!r}"
            raise PosetError(what) from None
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
        return x in self._index

    def rank(self, x: str) -> int:
        return self._ranks[self._index[x]]

    def ranks(self) -> dict[str, int]:
        """Every element's rank, in (rank, name) order."""
        return dict(zip(self._elements, self._ranks))

    def covers(self) -> list[tuple[str, str]]:
        return sorted((x, y) for x, above in zip(self._elements, self._up) for y in self._names(above))

    def upper_covers(self, x: str) -> tuple[str, ...]:
        return self._names(self._up[self._index[x]])

    def lower_covers(self, x: str) -> tuple[str, ...]:
        return self._names(self._down[self._index[x]])

    def less(self, x: str, y: str) -> bool:
        return self.leq(x, y) and x != y

    def leq(self, x: str, y: str) -> bool:
        # an up-closure holds its own element; an unknown y gets the number n, which no bitset holds
        return self._upset[self._index[x]] >> self._index.get(y, len(self._elements)) & 1 == 1

    def above(self, x: str) -> frozenset[str]:
        """Elements strictly above x."""
        i = self._index[x]
        return frozenset(self._names(self._upset[i] ^ 1 << i))

    def elements_of_rank(self, r: int) -> list[str]:
        level = self._levels.get(r, 0)  # a level is a run of consecutive numbers
        return list(self._elements[(level & -level).bit_length() - 1 : level.bit_length()]) if level else []

    def bot(self) -> str:
        """The first element of rank 0; PosetError if there is none (the empty poset)."""
        return self._first_of_rank(0)

    def top(self) -> str:
        """The first element of the top rank; PosetError on the empty poset."""
        return self._first_of_rank(self.rank_top)

    def _first_of_rank(self, r: int) -> str:
        level = self._levels.get(r, 0)
        if not level:
            raise PosetError(f"{self.name} has no element of rank {r}")
        return self._elements[(level & -level).bit_length() - 1]

    def coatoms(self) -> list[str]:
        """The lower covers of top; PosetError on the empty poset."""
        return list(self._names(self._down[self._index[self.top()]]))

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, GradedPoset)
            and self._elements == other._elements
            and self._ranks == other._ranks
            and self._down == other._down
        )

    __hash__ = None  # mutable memos inside; structural equality only

    def __repr__(self) -> str:
        return f"GradedPoset({self.name!r}, {len(self)} elements, rank {self.rank_top})"


# -- validation ----------------------------------------------------------------


def validate(p: GradedPoset) -> list[Violation]:
    """All GradedPoset invariant failures, empty iff the poset is well formed; a fresh list per call."""
    return list(_violations(p))


@memoized(shared=True)
def _well_formed(p: GradedPoset) -> bool:
    """Whether p's numbered structure passes every check of ``validate`` but the names of bot and top.

    Then p has one rank-0 element, numbered first, and one top-rank element, numbered last.  A negative
    rank fails too: the lowest element has no lower cover.
    """
    levels, rank_top = p._levels, p.rank_top
    if levels.get(0, 0).bit_count() != 1 or levels[rank_top].bit_count() != 1:
        return False
    return not any(
        (r and not below) or (r < rank_top and not above) or above & ~levels.get(r + 1, 0)
        for r, above, below in zip(p._ranks, p._up, p._down)
    )


@memoized
def _violations(p: GradedPoset) -> tuple[Violation, ...]:
    """The verdict of ``validate``, computed once per poset.

    A poset of a well-formed structure (``_well_formed``, kept per structure)
    can only misname bot or top; any other poset is checked in full.
    """
    out: list[Violation] = []
    well_formed = _well_formed(p)
    if well_formed:
        bots, tops = p._elements[:1], p._elements[-1:]
    else:
        bots, tops = p.elements_of_rank(0), p.elements_of_rank(p.rank_top)
    if len(bots) != 1:
        out.append(Violation("bot-count", p.name, f"rank-0 elements: {bots}"))
    elif bots[0] != BOT:
        out.append(Violation("bot-name", p.name, f"rank-0 element is {bots[0]!r}, expected {BOT!r}"))
    if len(tops) != 1:
        out.append(Violation("top-count", p.name, f"rank-{p.rank_top} elements: {tops}"))
    elif tops[0] != TOP:
        out.append(Violation("top-name", p.name, f"maximum is {tops[0]!r}, expected {TOP!r}"))
    if well_formed:
        return tuple(out)
    jumps = []
    rank_top, levels = p.rank_top, p._levels
    for x, r, above, below in zip(p._elements, p._ranks, p._up, p._down):
        if r < 0 or r > rank_top:
            out.append(Violation("rank-range", x, f"rank {r} outside 0..{rank_top}"))
        if r > 0 and not below:
            out.append(Violation("not-bounded-below", x, "covers nothing"))
        if r < rank_top and not above:
            out.append(Violation("not-bounded-above", x, "covered by nothing"))
        jump = above & ~levels.get(r + 1, 0)
        if jump:
            jumps.extend((x, y) for y in p._names(jump))
    for lo, hi in sorted(jumps):
        out.append(Violation("not-graded", f"{lo}<{hi}", f"rank jump {p.rank(lo)}->{p.rank(hi)}"))
    return tuple(out)


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

    Only intervals of even rank length are counted; the others follow from
    their sub-intervals.  Let e(u, w) be the sum of (-1)^(rank v - rank u) over
    u <= v <= w, and suppose e vanishes on every proper sub-interval of
    [x, y], x < y.  Summing (-1)^(rank u + rank w) over the pairs
    x <= u <= w <= y, first grouped by u and then by w, gives
    e(x, y) + 1 = 1 + (-1)^(rank y - rank x) e(x, y), so e(x, y) = 0 when
    the length is odd.  Nothing here needs a graded or bounded poset.

    A skipped interval [lo, hi] may fail, so the intervals [x, y] with
    x <= lo and hi <= y that contain it are counted whatever their length.
    No other interval has it as a sub-interval.  On an unvalidated poset an
    element can lie below bot, and [x, top] is then such an interval.
    """
    even = 0
    for r, level in p._levels.items():
        if r % 2 == 0:
            even |= level
    odd = (1 << len(p)) - 1 ^ even
    # ends[x]: the y > x whose interval [x, y] is counted
    ends = [(up ^ 1 << i) & (even if even >> i & 1 else odd) for i, up in enumerate(p._upset)]
    if skip is not None:
        lo, hi = p._index[skip[0]], p._index[skip[1]]
        for i in _bits(p._downset[lo]):
            ends[i] |= p._upset[i] & p._upset[hi]
        ends[lo] &= ~(1 << hi)
    for up, counted in zip(p._upset, ends):
        for j in _bits(counted):
            span = up & p._downset[j]
            if span.bit_count() != 2 * (span & even).bit_count():
                return False
    return True


@memoized(shared=True)
def is_eulerian(p: GradedPoset) -> bool:
    """Every interval has Möbius value (-1)^(rank difference).

    Tested as Stanley's even/odd count: every interval [x, y] with x < y has
    as many elements of even rank as of odd rank.  Only the intervals of even
    rank length are counted: an odd-length interval balances whenever its
    proper sub-intervals do (see ``_parity_holds``).
    """
    return _parity_holds(p)


@memoized(shared=True)
def is_semi_eulerian(p: GradedPoset) -> bool:
    """Every proper interval (all but [bot, top]) passes the Möbius test; PosetError without a bot."""
    return _parity_holds(p, (p.bot(), p.top()))


def _all_simplices(p: GradedPoset, faces: int) -> bool:
    """Whether every face in the mask has a boolean lower interval: r atoms and 2^r elements at rank r."""
    atoms = p._levels.get(1, 0)
    return all(
        (p._downset[x] & atoms).bit_count() == r and p._downset[x].bit_count() == 1 << r
        for r, level in p._levels.items()
        for x in _bits(faces & level)
    )


# -- closures, capping, boundary, semisuspension --------------------------------


def closure(p: GradedPoset, members: Iterable[str]) -> set[str]:
    """Down-closure of a set; the empty union is the empty set."""
    return set(p._names(_union(p._downset, p._mask(members))))


def cap(p: GradedPoset, members: Iterable[str] | int, rank_top: int, name: str | None = None) -> GradedPoset:
    """Poset on a down-closed set with a fresh ``top`` adjoined at rank_top.

    members names the set, or is its bitset over p's numbers.  The members
    keep their (rank, name) order and the fresh top comes last, so the
    parent's cover masks are renumbered by the kept bits.  That renumbering
    reads no names but those of bot and top, so the kept numbers and the
    result's table entry are kept in p's ``_derived`` by the bitset, the rank
    and the numbers of bot and top; a cap that raises keeps nothing.
    """
    if name is not None:
        _check_name(name)
    mask = members if isinstance(members, int) else p._mask(members)
    if mask < 0 or mask >> len(p):
        raise PosetError(f"bitset {mask} is not a set of elements of {p.name}")
    key = mask, rank_top, p._index.get(BOT), p._index.get(TOP)
    known = p._derived.get(key)
    if known is None:
        kept, ranks, down = _capped(p, mask, rank_top)
        known = p._derived[key] = kept, _structure(p._table, ranks, down)
    kept, entry = known
    elems = (*map(p._elements.__getitem__, kept), TOP)
    return GradedPoset._from_bits(name or f"cap({p.name},{rank_top})", elems, entry, p._table)


def _capped(p: GradedPoset, mask: int, rank_top: int) -> tuple[tuple[int, ...], tuple[int, ...], list[int]]:
    """The numbers ``cap`` keeps of p, and the ranks and lower-cover masks of its result; the errors of ``cap``."""
    kept = _bits(mask)
    n = len(kept)
    new = dict(zip(kept, range(n)))
    p_down, down, covered = p._down, [], 0
    closed = BOT in p._index and mask >> p._index[BOT] & 1
    try:
        for i in kept:
            m, below = p_down[i], 0
            while m:
                low = m & -m
                below |= 1 << new[low.bit_length() - 1]
                m ^= low
            down.append(below)
            covered |= below
    except KeyError:  # a lower cover of a member is not a member
        closed = False
    if not closed:
        raise PosetError("cap expects a down-closed set containing bot")
    ranks = tuple(map(p._ranks.__getitem__, kept))
    if ranks[-1] >= rank_top:
        low = kept[bisect.bisect_left(ranks, rank_top):]
        raise RankTooLow(f"rank-{rank_top} cap over elements {sorted(map(p._elements.__getitem__, low))}")
    if TOP in p._index and mask >> p._index[TOP] & 1:  # the member top would cover the fresh top
        above = (*p._names(p._up[p._index[TOP]] & mask), TOP)
        raise PosetError(f"cover {TOP} {above[0]} does not go up in rank")
    down.append((1 << n) - 1 & ~covered)  # the fresh top covers every member that no member covers
    return tuple(kept), ranks + (rank_top,), down


@memoized(shared=True)
def _qualifying(p: GradedPoset) -> int:
    """Bitset of the elements y whose upper interval [y, top] is a three-element chain."""
    not_top = ~(1 << p._index[p.top()])
    out = 0
    for i in _bits(p._levels.get(p.rank_top - 2, 0)):
        if (p._upset[i] & not_top).bit_count() == 2:  # y and the one element between
            out |= 1 << i
    return out


@memoized(shared=True)
def _boundary(p: GradedPoset) -> int:
    """Bitset of the closure of all y with [y, top] a three-element chain (may be empty)."""
    return _union(p._downset, _qualifying(p))


def boundary_set(p: GradedPoset) -> set[str]:
    """Closure of all y with [y, top] a three-element chain (may be empty)."""
    return set(p._names(_boundary(p)))


@memoized
def semisuspension(p: GradedPoset, tau_name: str = "tau") -> tuple[GradedPoset, str]:
    """Adjoin a new coatom covering every qualifying y; returns (poset, tau id).

    If no y qualifies the result has a coatom covering nothing, which
    ``validate`` reports.
    """
    if p.rank_top < 2:
        raise PosetError("semisuspension needs rank at least 2")
    _check_name(tau_name)
    if tau_name in p:
        raise PosetError(f"name {tau_name!r} already present")
    r = p.rank_top - 1
    # the rank-r elements are one run that ends where the top rank begins
    top_level = p._levels[p.rank_top]
    end = (top_level & -top_level).bit_length() - 1
    at = bisect.bisect_left(p._elements, tau_name, end - p._levels.get(r, 0).bit_count(), end)
    entry = p._derived.get(at)  # keyed by tau's number; cap's keys are tuples, so the two never meet
    if entry is None:
        low = (1 << at) - 1  # tau takes number at; the numbers from at on move up by one
        down = [m & low | (m & ~low) << 1 for m in p._down]
        down.insert(at, _qualifying(p))  # qualifying ranks are below r, so their numbers stay
        down[end + 1] |= 1 << at  # the first top moves up too
        ranks = p._ranks[:at] + (r,) + p._ranks[at:]
        entry = p._derived[at] = _structure(p._table, ranks, down)
    elems = p._elements[:at] + (tau_name,) + p._elements[at:]
    return GradedPoset._from_bits(f"ssusp({p.name})", elems, entry, p._table), tau_name


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
    polygon(3) has 9, 18, 9 elements in ranks 1, 2, 3.  Names may hold
    ``,``, so two pairs can get one name (``a,b`` x ``c`` and ``a`` x ``b,c``);
    that is a PosetError.
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
            cell = pair_name(x, y)
            if cell in ranks:
                raise PosetError(f"product cell {cell!r} of {x!r} and {y!r} has the name of another cell")
            ranks[cell] = p.rank(x) + q.rank(y) - 1
            if ranks[cell] == 1:
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
    ready = [(-r, i) for i, r in enumerate(p._ranks) if not waiting[i]]
    heapq.heapify(ready)
    while ready:
        i = heapq.heappop(ready)[1]
        order.append(i)
        for k in _bits(p._up[i]):
            waiting[k] -= 1
            if not waiting[k]:
                heapq.heappush(ready, (-p._ranks[k], k))
    image = [0] * len(p)  # the q-number of each mapped p-number

    def extend(n: int, used: int):
        """The first completion of the images of order[:n], whose q-numbers are the bits of used, or None."""
        if n == len(p):
            return {x: q._elements[j] for x, j in zip(p._elements, image)}
        i = order[n]
        lower = sum(1 << image[k] for k in _bits(p._down[i]))  # lower covers are mapped already
        pool = q._levels.get(p._ranks[i], 0) & ~used
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
    facet closures; surviving q-side elements are renamed ``q.<name>``, and
    a renamed element that p already has is a PosetError.
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
    clash = sorted({f"q.{y}" for y in q.elements() if y not in (BOT, TOP, fq) and y not in cod} & set(ranks))
    if clash:
        raise PosetError(f"renamed element {clash[0]!r} of {q.name} is already an element of {p.name}")
    for y in q.elements():
        if y != fq:
            ranks[q_side(y)] = q.rank(y)
    covers = {(lo, hi) for lo, hi in p.covers() if fp not in (lo, hi)}
    covers.update((q_side(lo), q_side(hi)) for lo, hi in q.covers() if fq not in (lo, hi))
    return GradedPoset(name or f"sum({p.name},{q.name})", ranks, covers)


# -- file format ------------------------------------------------------------------


def read_lines(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """The lines of a poset, certificate or pairs file as ``(lineno, line, fields)``.

    ``#`` starts a comment that runs to the end of the line, and lines left
    blank are skipped.  ``lineno`` counts from 1 over every line of ``text``,
    ``line`` is the text of the line with its comment removed (the
    certificate reader measures indentation from it) and ``fields`` are its
    whitespace-separated words (never empty).  The poset, certificate and
    pairs parsers all read their files through it.  It numbers the lines
    only: ``parse_poset`` numbers a poset's elements.  The iterator it
    returns is built from ``zip``, ``map`` and ``filter`` alone, so no Python
    frame runs per line.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] if "#" in line else line for line in lines]
    return filter(itemgetter(2), zip(itertools.count(1), lines, map(str.split, lines)))


def _integer(field: str) -> int | None:
    """The value of a field of ASCII digits with an optional leading ``-``, else None."""
    digits = field[1:] if field[:1] == "-" else field
    return int(field) if digits.isdigit() and digits.isascii() else None


def parse_poset(text: str) -> GradedPoset:
    """Parse the line-oriented poset file format (``#`` starts a comment).

    Each line is checked as it is read, and an error names its line.  The
    elements are then numbered once, in (rank, name) order, and the cover
    masks over those numbers go straight to the bitset core: no poset is
    built from names.
    """
    name: str | None = None
    declared_rank: int | None = None
    ranks: dict[str, int] = {}
    covers: list[tuple[str, str]] = []
    for lineno, _, fields in read_lines(text):
        kind = fields[0]
        if kind == "cover":
            if len(fields) != 3:
                raise PosetParseError("expected: cover <lower> <upper>", lineno)
            _, lo, hi = fields
            try:
                rises = ranks[hi] > ranks[lo]
            except KeyError:
                raise PosetParseError("cover references undeclared element", lineno) from None
            if not rises:
                raise PosetParseError(f"cover {lo} {hi} does not go up in rank", lineno)
            covers.append((lo, hi))
        elif kind == "elem":
            r = _integer(fields[2]) if len(fields) == 3 else None
            if r is None:
                raise PosetParseError("expected: elem <id> <rank>", lineno)
            if fields[1] in ranks:
                raise PosetParseError(f"duplicate element {fields[1]!r}", lineno)
            ranks[fields[1]] = r
        elif kind == "rank":
            declared_rank = _integer(fields[1]) if len(fields) == 2 else None
            if declared_rank is None:
                raise PosetParseError("expected: rank <integer>", lineno)
        elif kind == "poset":
            if len(fields) != 2:
                raise PosetParseError("expected: poset <name>", lineno)
            name = fields[1]
        else:
            raise PosetParseError(f"unknown directive {kind!r}", lineno)
    if name is None:
        raise PosetParseError("missing poset header", 1)
    if BOT not in ranks or ranks[BOT] != 0:
        raise PosetParseError("missing elem bot with rank 0", 1)
    if TOP not in ranks or (declared_rank is not None and ranks[TOP] != declared_rank):
        raise PosetParseError("missing elem top at the declared rank", 1)
    elems, by_number, down = _numbered(ranks, covers)
    table: dict = {}
    return GradedPoset._from_bits(name, elems, _structure(table, by_number, down), table)


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
