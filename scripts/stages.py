"""Time the stages of the cd-index pipeline and of certificate I/O on the benchmark's inputs.

The cd stages run on the 24 posets of the benchmark's ``cd`` workload,
built with ``zoo`` from the workload's families and parameters and written
out with ``format_poset``.  Each run parses every text into a fresh poset,
so no memo survives from one run to the next, and then times, stage by
stage over all 24 posets: parse, ``validate``, ``is_eulerian``, ``flag_f``
and ``cd_index`` (``semi_cd_index`` on a poset that is not Eulerian).  The
certificate stages run on the ten texts of ``bench_cdposet/certs/``: each
run parses every text against a freshly parsed poset (a fresh family), then
times ``verify_partition``, ``contributions(check=True)`` and
``format_certificate`` over the ten parsed records.  ``gc.collect()`` runs
before each timed stage.  The script prints one JSON line: each stage's
minimum over the runs, in seconds, and a sha256 of each stage's results,
which must not change when only the speed does.

Usage: python scripts/stages.py [--repeat N]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import time
from pathlib import Path

from cdposet import flags, ncpoly, partition, poset, zoo

DEEP = [("sphere2cells", (k,)) for k in range(6, 11)]
WIDE = [("simplex-boundary", (k,)) for k in (6, 7, 8)] + [("boolean", (k,)) for k in (7, 8)]
WIDE += [("cube", (k,)) for k in (4, 5)] + [("cross-polytope", (k,)) for k in (4, 5)]
WIDE += [("polygon", (k,)) for k in (50, 100, 200)] + [("product", mn) for mn in ((3, 3), (4, 5), (6, 8))]


# the certificates of bench_cdposet/certs/, by file name: (poset family, params)
CERTS = {
    "q-polytope": ("q-polytope", ()),
    "torus-fig6": ("torus-fig6", ()),
    "torus-fig12": ("torus-fig12", ()),
    "polygon-100": ("polygon", (100,)),
    "cube-4": ("cube", (4,)),
    "sphere2cells-8": ("sphere2cells", (8,)),
    "connected-sum-4": ("connected-sum", (4,)),
    "torus-7vertex": ("torus-7vertex", ()),
    "product-4-5": ("product", (4, 5)),
    "icosahedron": ("icosahedron", ()),
}
CERT_DIR = Path(__file__).resolve().parent.parent / "bench_cdposet" / "certs"


def texts() -> list[str]:
    """The poset files of the workload: cd-deep's spheres and sphere-circle products, then cd-wide."""
    posets = [zoo.gen(family, params) for family, params in DEEP]
    posets += [poset.product(zoo.gen("sphere2cells", (k,)), zoo.gen("polygon", (3,))) for k in range(4, 8)]
    posets += [zoo.gen(family, params) for family, params in WIDE]
    return [poset.format_poset(p) for p in posets]


def cd(p: poset.GradedPoset) -> str:
    return ncpoly.format_polynomial(flags.cd_index(p) if poset.is_eulerian(p) else flags.semi_cd_index(p))


STAGES = {
    "validate": lambda p: [str(v) for v in poset.validate(p)],
    "is_eulerian": poset.is_eulerian,
    "flag_f": lambda p: flags.format_flag_vector(flags.flag_f(p)),
    "cd": cd,
}


def totals(cert) -> tuple:
    cm = partition.contributions(cert, check=True)
    return sorted((sigma, str(phi)) for sigma, phi in cm.per_coatom.items()), str(cm.total)


CERT_STAGES = {
    "cert_verify": lambda cert: [str(v) for v in partition.verify_partition(cert)],
    "cert_contributions": totals,
    "cert_format": partition.format_certificate,
}


def timed(fn, items: list) -> tuple[float, list]:
    gc.collect()
    start = time.perf_counter()
    out = [fn(x) for x in items]
    return time.perf_counter() - start, out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=5, help="runs to take the minimum of (default 5)")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    corpus = texts()
    certs = [
        (poset.format_poset(zoo.gen(*family)), (CERT_DIR / f"{name}.cert").read_text("utf-8"))
        for name, family in CERTS.items()
    ]
    best, digests = {}, {}
    for _ in range(args.repeat):
        seconds, posets = timed(poset.parse_poset, corpus)
        results = {"parse": [(p.name, p.elements(), p._ranks, p._down) for p in posets]}
        times = {"parse": seconds}
        for stage, fn in STAGES.items():
            times[stage], results[stage] = timed(fn, posets)
        pairs = [(text, poset.parse_poset(poset_text)) for poset_text, text in certs]
        times["cert_parse"], records = timed(lambda pair: partition.parse_certificate(*pair), pairs)
        for stage, fn in CERT_STAGES.items():
            times[stage], results[stage] = timed(fn, records)
        results["cert_parse"] = [
            (c.header, c.poset.name, c.initial, sorted((sigma, sorted(m)) for sigma, m in c.classes.items()))
            for c in records
        ]
        for stage, seconds in times.items():
            best[stage] = min(best.get(stage, seconds), seconds)
            digests[stage] = hashlib.sha256(repr(results[stage]).encode()).hexdigest()
    report = {"posets": len(corpus), "certificates": len(certs), "repeat": args.repeat}
    print(json.dumps({**report, "seconds": best, "sha256": digests}))


if __name__ == "__main__":
    main()
