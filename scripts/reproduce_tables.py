"""Reproduce the per-coatom contribution tables of the transcribed fixtures.

For each fixture with a published certificate this prints the per-class
cd-polynomials, the recursive total and the direct (semi-)cd-index, and
checks them against each other.

Usage: python scripts/reproduce_tables.py
"""

from __future__ import annotations

from cdposet import zoo
from cdposet.flags import semi_cd_index
from cdposet.ncpoly import format_polynomial
from cdposet.partition import contributions


def show(family: str) -> None:
    poset = zoo.gen(family)
    cert = zoo.fixture_certificate(family)
    cm = contributions(cert)
    direct = semi_cd_index(poset)  # cd_index on the Eulerian poset of an S-certificate
    print(f"== {family} ({len(poset.coatoms())} facets) ==")
    for sigma in sorted(cm.per_coatom):
        print(f"  {sigma:6s} {format_polynomial(cm.per_coatom[sigma])}")
    print(f"  total  {format_polynomial(cm.total)}")
    print(f"  direct {format_polynomial(direct)}")
    assert cm.total == direct
    print()


def main() -> None:
    for family in ("q-polytope", "torus-fig6", "torus-fig12"):
        show(family)
    print("all recursive totals agree with the direct pipeline")


if __name__ == "__main__":
    main()
