"""The bitset poset core against a name-keyed brute-force reference.

The reference keeps ranks and covers by name, finds strict up-sets by a
depth-first search over the covers and sorts on every query.  Both are built
from the same ranks and cover list (the core from a shuffled copy), then
every query, derived construction and the flag f-vector must agree.
"""

from __future__ import annotations

import random

import pytest
from test_flags import brute_flag_f
from test_poset import SMALL_ZOO, mutations

from cdposet import zoo
from cdposet.flags import flag_f
from cdposet.poset import (
    BOT,
    TOP,
    GradedPoset,
    PosetError,
    boundary_set,
    cap,
    closure,
    format_poset,
    semisuspension,
)


class RefPoset:
    """Name-keyed reference poset; nothing is shared with GradedPoset."""

    def __init__(self, name, ranks, covers):
        self.name = name
        self.ranks = dict(ranks)
        self.rank_top = max(self.ranks.values())
        self.cover_pairs = set(covers)
        self.up = {x: set() for x in self.ranks}
        self.down = {x: set() for x in self.ranks}
        for lo, hi in self.cover_pairs:
            self.up[lo].add(hi)
            self.down[hi].add(lo)
        self.strictly_above = {x: self._reach(x, self.up) for x in self.ranks}

    @staticmethod
    def _reach(x, step):
        seen, stack = set(), list(step[x])
        while stack:
            y = stack.pop()
            if y not in seen:
                seen.add(y)
                stack.extend(step[y])
        return frozenset(seen)

    def _key(self, x):
        return (self.ranks[x], x)

    def elements(self):
        return sorted(self.ranks, key=self._key)

    def rank(self, x):
        return self.ranks[x]

    def less(self, x, y):
        return y in self.strictly_above[x]

    def covers(self):
        return sorted(self.cover_pairs)

    def upper_covers(self, x):
        return tuple(sorted(self.up[x], key=self._key))

    def lower_covers(self, x):
        return tuple(sorted(self.down[x], key=self._key))

    def elements_of_rank(self, r):
        return [x for x in self.elements() if self.ranks[x] == r]

    def top(self):
        return self.elements_of_rank(self.rank_top)[0]

    def coatoms(self):
        return list(self.lower_covers(self.top()))

    def closure(self, members):
        return set(members).union(*(self._reach(x, self.down) for x in members))

    def cap(self, members, rank_top):
        elems = set(members)
        if any(self.ranks[x] >= rank_top for x in elems):
            raise PosetError("too high")
        ranks = {x: self.ranks[x] for x in elems} | {TOP: rank_top}
        covers = {(lo, hi) for lo, hi in self.cover_pairs if lo in elems and hi in elems}
        covers |= {(x, TOP) for x in elems if not self.up[x] & elems}
        return RefPoset(f"cap({self.name},{rank_top})", ranks, covers)

    def qualifying(self):
        t = self.top()
        return [y for y in self.elements_of_rank(self.rank_top - 2) if len(self.strictly_above[y] - {t}) == 1]

    def boundary_set(self):
        return self.closure(self.qualifying())

    def semisuspension(self, tau):
        ranks = self.ranks | {tau: self.rank_top - 1}
        covers = self.cover_pairs | {(y, tau) for y in self.qualifying()} | {(tau, self.top())}
        return RefPoset(f"ssusp({self.name})", ranks, covers)

    def format(self):
        lines = [f"poset {self.name}", f"rank {self.rank_top}"]
        lines += [f"elem {x} {self.ranks[x]}" for x in self.elements()]
        lines += [f"cover {lo} {hi}" for lo, hi in self.covers()]
        return "\n".join(lines) + "\n"


def pairs_of(p):
    """The core poset rebuilt from shuffled covers, and the reference from the same input."""
    covers = p.covers()
    random.Random(len(covers)).shuffle(covers)
    return GradedPoset(p.name, p.ranks(), covers), RefPoset(p.name, p.ranks(), covers)


def assert_same_order(p, ref):
    assert p.elements() == tuple(ref.elements())
    assert p.covers() == ref.covers()
    for x in p.elements():
        assert p.upper_covers(x) == ref.upper_covers(x)
        assert p.lower_covers(x) == ref.lower_covers(x)
        assert p.above(x) == ref.strictly_above[x]
        assert [y for y in p.elements() if p.less(x, y)] == [y for y in ref.elements() if ref.less(x, y)]
    for r in range(-1, p.rank_top + 2):
        assert p.elements_of_rank(r) == ref.elements_of_rank(r)
    assert p.top() == ref.top()
    assert p.coatoms() == ref.coatoms()


def assert_same_fields(q, twin):
    """Two posets with the same name and every field the core sets, besides the memos, and one structure-table entry."""
    memos = ("_cache", "_table", "_shared")
    assert {k: v for k, v in vars(q).items() if k not in memos} == {k: v for k, v in vars(twin).items() if k not in memos}
    assert q._table is twin._table and q._shared is twin._shared


def assert_same_derived(p, ref):
    """closure, cap, boundary_set and semisuspension, compared as sets and format_poset text."""
    rng = random.Random(p.name)
    for _ in range(3):
        sample = rng.sample(p.elements(), min(3, len(p)))
        assert closure(p, sample) == ref.closure(sample)
    if p.rank_top >= 2:
        assert boundary_set(p) == ref.boundary_set()
        assert format_poset(semisuspension(p, "tau@x")[0]) == ref.semisuspension("tau@x").format()
    for sigma in p.coatoms()[:4]:
        members = closure(p, [sigma])
        for mem, r in ((members - {sigma}, p.rank_top - 1), (members, p.rank_top)):
            if BOT not in mem:
                continue
            try:
                expected = ref.cap(mem, r)
            except PosetError:
                with pytest.raises(PosetError):
                    cap(p, mem, r)
                continue
            capped = cap(p, mem, r)
            assert_same_fields(cap(p, p._mask(mem), r), capped)
            assert format_poset(capped) == expected.format()
            assert_same_order(capped, expected)
            if r >= 2:
                assert boundary_set(capped) == expected.boundary_set()
                susp = semisuspension(capped, "tau@x")[0]
                assert format_poset(susp) == expected.semisuspension("tau@x").format()


def corpus(family, params):
    base = zoo.gen(family, params)
    yield base
    for seed in range(20):
        yield from mutations(base, seed)


class TestCoreAgainstReference:
    @pytest.mark.parametrize("family,params", SMALL_ZOO)
    def test_queries_and_covers_order(self, family, params):
        for q in corpus(family, params):
            assert_same_order(*pairs_of(q))

    @pytest.mark.parametrize("family,params", SMALL_ZOO)
    def test_derived_constructions(self, family, params):
        for q in corpus(family, params):
            assert_same_derived(*pairs_of(q))

    @pytest.mark.parametrize("family,params", SMALL_ZOO)
    def test_flag_f(self, family, params):
        for q in corpus(family, params):
            p, ref = pairs_of(q)
            assert flag_f(p).counts == brute_flag_f(ref)
