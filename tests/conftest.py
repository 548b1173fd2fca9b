"""Shared fixtures: the poset corpus and its certificates, and a shallow recursion limit."""

from __future__ import annotations

import sys

import pytest

from cdposet import zoo
from cdposet.partition import search_s_certificate


@pytest.fixture(scope="session")
def q_poset():
    return zoo.gen("q-polytope")


@pytest.fixture(scope="session")
def q_cert():
    return zoo.fixture_certificate("q-polytope")


@pytest.fixture(scope="session")
def torus6():
    return zoo.gen("torus-fig6")


@pytest.fixture(scope="session")
def torus6_cert():
    return zoo.fixture_certificate("torus-fig6")


@pytest.fixture(scope="session")
def torus12():
    return zoo.gen("torus-fig12")


@pytest.fixture(scope="session")
def torus12_cert():
    return zoo.fixture_certificate("torus-fig12")


@pytest.fixture()
def fresh_cert():
    """A factory of unwarmed fixture certificates: each call builds the family's poset and certificate anew,
    so no memo that other tests warmed (verified marks, totals, sub-posets) is read."""
    return zoo.fixture_certificate


@pytest.fixture(scope="session")
def polygon3_cert():
    return search_s_certificate(zoo.gen("polygon", (3,)))


@pytest.fixture(scope="session")
def deep_sphere():
    """sphere2cells(120), of rank 122, and its searched S-certificate, 121 levels deep."""
    p = zoo.gen("sphere2cells", (120,))
    return p, search_s_certificate(p)


@pytest.fixture()
def shallow_stack():
    """The recursion limit at the current stack depth + 100, restored afterwards.

    A walk that takes a Python frame per certificate level then fails on
    sphere2cells(120) in about a second, where the default limit needs
    rank-500 posets and ~53 s of search.
    """
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    yield
    sys.setrecursionlimit(limit)
