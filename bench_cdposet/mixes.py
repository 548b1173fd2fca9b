"""The workloads: their inputs, their op mixes and each op's exact result.

An op is one closed-loop request. Its ``run`` is the timed part: it parses
its poset (and certificate) text into fresh objects and calls the library,
so no per-poset cache survives from one op to the next. Its ``result``
turns what ``run`` returned into a small canonical JSON value, outside the
timed region, which the oracle compares with the value pinned at the seed.

Every call into the library goes through a module attribute
(``flags.cd_index``, not a name imported from it), so the traced run sees
the calls once ``spans.Tracer`` has rebound those attributes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

from cdposet import cli, flags, ncpoly, partition, poset, zoo

HERE = Path(__file__).resolve().parent
CERT_DIR = HERE / "certs"
EXPECTED_FILE = HERE / "expected.json"

# Long enough that no search in a mix runs out; a search that did would be
# reported as a failed op.
SEARCH_BUDGET = 10**6


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(value: Any) -> Any:
    """The value itself when its JSON is short, else the SHA-256 of that JSON."""
    text = json.dumps(value, sort_keys=True)
    return value if len(text) <= 160 else {"sha256": sha256(text)}


@dataclass
class Inputs:
    """What set-up hands to the ops: poset texts, certificate texts, a work dir."""

    posets: dict[str, str] = field(default_factory=dict)
    certs: dict[str, str] = field(default_factory=dict)
    workdir: Path | None = None


@dataclass(frozen=True)
class Op:
    """One kind of request in a mix.

    ``subject`` names the input (a poset id, or the CLI argument vector);
    ``expect`` is the contract's outcome for ops whose expected result is not
    pinned from the seed; ``known_defect`` marks ops that fail at the seed
    for a recorded reason and stay in the mix so the defect shows.
    """

    kind: str
    subject: str
    run: Callable[[Inputs], Any]
    result: Callable[[Any], Any]
    poset_id: str | None = None
    expect: Any = None
    known_defect: str | None = None
    group: str = ""  # the part of the workload the op belongs to

    @property
    def id(self) -> str:
        return f"{self.kind} {self.subject}"


@dataclass(frozen=True)
class Workload:
    """A named op mix with its inputs; also used for each group of a mix."""

    name: str
    posets: dict[str, Callable[[], str]]
    certs: tuple[str, ...]  # names of the certificates under certs/
    ops: list[Op]
    files: Callable[[Inputs], None] | None = None


# -- inputs -------------------------------------------------------------------


def gen_text(family: str, *params: int) -> Callable[[], str]:
    return lambda: poset.format_poset(zoo.gen(family, params))


def sphere_times_circle(k: int) -> Callable[[], str]:
    """S^k x S^1 as the CW product of sphere2cells(k) and a triangle."""
    return lambda: poset.format_poset(
        poset.product(zoo.gen("sphere2cells", (k,)), zoo.gen("polygon", (3,)))
    )


def load(text: str) -> poset.GradedPoset:
    """Parse and validate, as the CLI loads a poset file."""
    p = poset.parse_poset(text)
    problems = poset.validate(p)
    if problems:
        raise poset.PosetError(str(problems[0]))
    return p


def load_cert(inp: Inputs, name: str, poset_id: str):
    p = load(inp.posets[poset_id])
    return p, partition.parse_certificate(inp.certs[name], p)


def poly(p: ncpoly.NcPolynomial) -> str:
    return ncpoly.format_polynomial(p)


# -- cd-deep: high rank, few elements -------------------------------------------


def _cd_deep() -> Workload:
    posets: dict[str, Callable[[], str]] = {}
    ops: list[Op] = []
    for k in range(6, 11):
        pid = f"sphere2cells({k})"
        posets[pid] = gen_text("sphere2cells", k)
        ops.append(
            Op(
                "cd_index",
                pid,
                lambda inp, pid=pid: flags.cd_index(load(inp.posets[pid])),
                lambda phi: digest(poly(phi)),
                poset_id=pid,
            )
        )
    for k in range(4, 8):
        pid = f"sphere2cells({k})xpolygon(3)"
        posets[pid] = sphere_times_circle(k)
        ops.append(
            Op(
                "semi_cd_index",
                pid,
                lambda inp, pid=pid: flags.semi_cd_index(load(inp.posets[pid])),
                lambda phi: digest(poly(phi)),
                poset_id=pid,
            )
        )
    return Workload("cd-deep", posets, (), ops)


# -- cd-wide: many elements, rank at most 9 ---------------------------------------


def _eulerian_pipeline(text: str):
    p = load(text)
    return poset.is_eulerian(p), flags.flag_f(p), flags.cd_index(p)


def _eulerian_result(out) -> Any:
    eulerian, f, phi = out
    return {"eulerian": eulerian, "flag_f": sha256(flags.format_flag_vector(f)), "cd": digest(poly(phi))}


def _torus_pipeline(text: str):
    p = load(text)
    eulerian, semi = poset.is_eulerian(p), poset.is_semi_eulerian(p)
    f = flags.flag_f(p)
    try:
        flags.cd_index(p)
        not_in_image = None
    except ncpoly.NotInImage as exc:
        not_in_image = str(exc)
    return eulerian, semi, f, not_in_image, flags.semi_cd_index(p)


def _torus_result(out) -> Any:
    eulerian, semi, f, not_in_image, phi = out
    return {
        "eulerian": eulerian,
        "semi_eulerian": semi,
        "flag_f": sha256(flags.format_flag_vector(f)),
        "cd_index_raises": not_in_image,
        "semi_cd": poly(phi),
    }


def _cd_wide() -> Workload:
    posets: dict[str, Callable[[], str]] = {}
    ops: list[Op] = []
    eulerian = [("simplex-boundary", k) for k in (6, 7, 8)]
    eulerian += [("boolean", k) for k in (7, 8)]
    eulerian += [("cube", k) for k in (4, 5)] + [("cross-polytope", k) for k in (4, 5)]
    eulerian += [("polygon", k) for k in (50, 100, 200)]
    for family, k in eulerian:
        pid = f"{family}({k})"
        posets[pid] = gen_text(family, k)
        ops.append(
            Op(
                "eulerian_flag_cd",
                pid,
                lambda inp, pid=pid: _eulerian_pipeline(inp.posets[pid]),
                _eulerian_result,
                poset_id=pid,
            )
        )
    for m, n in [(3, 3), (4, 5), (6, 8)]:
        pid = f"product({m},{n})"
        posets[pid] = gen_text("product", m, n)
        ops.append(
            Op(
                "torus_flag_cd",
                pid,
                lambda inp, pid=pid: _torus_pipeline(inp.posets[pid]),
                _torus_result,
                poset_id=pid,
            )
        )
    return Workload("cd-wide", posets, (), ops)


# -- certify: searches, verification, contributions, certificate I/O ---------------

S_SEARCH = (
    [("polygon", (k,)) for k in (25, 50, 100)]
    + [("simplex-boundary", (k,)) for k in (4, 5)]
    + [("cube", (k,)) for k in (3, 4)]
    + [("cross-polytope", (k,)) for k in (3, 4)]
    + [("connected-sum", (k,)) for k in (3, 4)]
    + [("sphere2cells", (k,)) for k in range(4, 9)]
    + [("q-polytope", ())]
)
SE_SEARCH = (
    [("torus-fig6", ()), ("torus-fig12", ()), ("torus-7vertex", ())]
    + [("product", (m, n)) for m in (3, 4, 5) for n in (3, 4, 5) if m <= n]
    + [("icosahedron", ())]
)
# Certificates read from certs/: the three transcribed fixtures and seven
# found by the searches at the seed. Name -> (poset family, params).
PINNED_CERTS = {
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


def poset_id(family: str, params: tuple[int, ...]) -> str:
    return family if not params else f"{family}({','.join(map(str, params))})"


def _search(kind: str, text: str):
    p = load(text)
    budget = partition.Budget(SEARCH_BUDGET)
    if kind == "S":
        return partition.search_s_certificate(p, budget=budget)
    return partition.search_se_certificate(p, budget=budget)


class SearchOutcome:
    """Checks a found certificate by outcome, not by text.

    The search order may change, so the certificate must verify and its
    recursive total is what is compared with the pinned (semi-)cd-index.
    A certificate text already checked in this process is not checked again.
    """

    def __init__(self) -> None:
        self._seen: dict[str, Any] = {}

    def __call__(self, cert) -> Any:
        if cert is None:
            return {"found": False}
        text = partition.format_certificate(cert)
        if text not in self._seen:
            if isinstance(cert, partition.SPartitionCert):
                violations = partition.verify_s_partition(cert)
                total = partition.contributions_s(cert, check=False).total if not violations else None
            else:
                violations = partition.verify_se_partition(cert)
                total = partition.contributions_se(cert, check=False).total if not violations else None
            self._seen[text] = {
                "found": True,
                "violations": [str(v) for v in violations],
                "total": poly(total) if total is not None else None,
            }
        return self._seen[text]


def _check_pinned(inp: Inputs, name: str, pid: str):
    _p, cert = load_cert(inp, name, pid)
    if isinstance(cert, partition.SPartitionCert):
        return partition.verify_s_partition(cert), partition.contributions_s(cert, check=True)
    return partition.verify_se_partition(cert), partition.contributions_se(cert, check=True)


def _pinned_result(out) -> Any:
    violations, cm = out
    return {
        "violations": [str(v) for v in violations],
        "total": poly(cm.total),
        "per_coatom": digest({sigma: poly(phi) for sigma, phi in sorted(cm.per_coatom.items())}),
    }


def _round_trip(inp: Inputs, name: str, pid: str) -> str:
    _p, cert = load_cert(inp, name, pid)
    return partition.format_certificate(cert)


def _certify() -> Workload:
    posets: dict[str, Callable[[], str]] = {}
    ops: list[Op] = []
    check_search = SearchOutcome()
    for kind, corpus in (("S", S_SEARCH), ("SE", SE_SEARCH)):
        for family, params in corpus:
            pid = poset_id(family, params)
            posets[pid] = gen_text(family, *params)
            ops.append(
                Op(
                    f"search_{kind.lower()}",
                    pid,
                    lambda inp, kind=kind, pid=pid: _search(kind, inp.posets[pid]),
                    check_search,
                    poset_id=pid,
                )
            )
    for name, (family, params) in PINNED_CERTS.items():
        pid = poset_id(family, params)
        posets[pid] = gen_text(family, *params)
        ops.append(
            Op(
                "verify_contributions",
                name,
                lambda inp, name=name, pid=pid: _check_pinned(inp, name, pid),
                _pinned_result,
                poset_id=pid,
            )
        )
        ops.append(
            Op(
                "cert_round_trip",
                name,
                lambda inp, name=name, pid=pid: _round_trip(inp, name, pid) == inp.certs[name],
                lambda same: same,
                poset_id=pid,
                expect=True,
            )
        )
    return Workload("certify", posets, tuple(PINNED_CERTS), ops)


# -- cli: whole verbs in process on small files ---------------------------------------

CLI_POSETS = {
    "q.poset": ("q-polytope", ()),
    "t6.poset": ("torus-fig6", ()),
    "t12.poset": ("torus-fig12", ()),
    "cube3.poset": ("cube", (3,)),
    "polygon6.poset": ("polygon", (6,)),
    "prod33.poset": ("product", (3, 3)),
    "s2c3.poset": ("sphere2cells", (3,)),
    "fig13.poset": ("fig13-nonsemi", ()),
    "simplex3.poset": ("simplex-boundary", (3,)),
}
CLI_CERTS = {"q.spart": "q-polytope", "t6.separt": "torus-fig6", "t12.separt": "torus-fig12"}
CLI_LITERALS = {
    # a shelling of simplex-boundary(3) as boolean-interval pairs
    "simplex3.pairs": "pair bot abc\npair d abd\npair cd acd\npair bcd bcd\n",
    "directive.poset": "poset bad\nrank 2\nelem bot 0\nwat\n",
    "undeclared.poset": "poset bad\nrank 2\nelem bot 0\nelem top 2\ncover bot v\n",
    # v1 is covered by nothing: parses, then fails validation
    "unbounded.poset": (
        "poset unbounded\nrank 2\nelem bot 0\nelem v0 1\nelem v1 1\nelem top 2\n"
        "cover bot v0\ncover bot v1\ncover v0 top\n"
    ),
    # a cover between two rank-1 elements
    "rank1cover.poset": (
        "poset rank1cover\nrank 2\nelem bot 0\nelem v0 1\nelem v1 1\nelem top 2\n"
        "cover bot v0\ncover bot v1\ncover v0 v1\ncover v0 top\ncover v1 top\n"
    ),
    "indent.spart": "spart q-polytope\n   class s1 kind=initial\n",
}
# [verb, args...] whose outcome (exit code, output) is pinned from the seed
CLI_CALLS = (
    [["validate", f] for f in ("q.poset", "t6.poset", "t12.poset", "cube3.poset", "unbounded.poset")]
    + [["flags", f] for f in ("q.poset", "t6.poset", "t12.poset", "polygon6.poset")]
    + [["euler", f] for f in ("q.poset", "t6.poset", "t12.poset")]
    + [["cd", f] for f in ("q.poset", "t6.poset", "t12.poset", "cube3.poset", "s2c3.poset")]
    + [["semicd", f] for f in ("q.poset", "t6.poset", "t12.poset", "prod33.poset", "fig13.poset")]
    + [["check-eulerian", f] for f in ("q.poset", "t6.poset", "t12.poset", "fig13.poset")]
    + [["check-spart", "q.poset", "q.spart"]]
    + [["check-separt", "t6.poset", "t6.separt"], ["check-separt", "t12.poset", "t12.separt"]]
    + [[verb, "q.poset", "q.spart"] for verb in ("cd-recursive", "contributions")]
    + [[verb, f"t{n}.poset", f"t{n}.separt"] for verb in ("cd-recursive", "contributions") for n in (6, 12)]
    + [["reverse-check", "q.poset", "q.spart"]]
    + [["search-spart", "q.poset", "--emit-cert", "found-q.spart"], ["search-spart", "cube3.poset"]]
    + [["search-separt", "t6.poset", "--emit-cert", "found-t6.separt"], ["search-separt", "prod33.poset"]]
    + [
        ["gen", "q-polytope", "--out", "gen-q.poset", "--emit-cert", "gen-q.spart"],
        ["gen", "torus-fig6", "--out", "gen-t6.poset", "--emit-cert", "gen-t6.separt"],
        ["gen", "polygon", "6"],
    ]
    + [["convert-shelling", "q.poset", "--order", ",".join(f"s{i}" for i in range(1, 8))]]
    + [["convert-simplicial-partition", "simplex3.poset", "--pairs", "simplex3.pairs"]]
)
# [verb, args...] on malformed input; the CLI contract says exit 2
CLI_MALFORMED = [
    ["cd", "missing.poset"],
    ["cd", "directive.poset"],
    ["cd", "undeclared.poset"],
    ["cd", "unbounded.poset"],
    ["check-spart", "q.poset", "indent.spart"],
    ["check-spart", "q.poset", "t6.separt"],
    ["gen", "no-such-family"],
    ["cd", "rank1cover.poset"],
]
KNOWN_DEFECTS = {
    "rank1cover.poset": "GradedPoset raises KeyError on a cover between two rank-1 elements, "
    "so the CLI exits 1 with a traceback (ROADMAP item 5)",
}


def run_cli(argv: list[str]) -> tuple[int, str, str, str | None]:
    """cdposet.cli.main in process: (exit code, stdout, stderr, escaped exception).

    An exception that escapes ``main`` is what a shell user sees as a
    traceback and exit code 1, so it is reported as exit 1.
    """
    out, err = io.StringIO(), io.StringIO()
    escaped = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 - a crash is an outcome here
            code, escaped = 1, type(exc).__name__
    return code, out.getvalue(), err.getvalue(), escaped


def _cli_result(out) -> Any:
    code, stdout, stderr, escaped = out
    if stdout.startswith("{"):
        report = json.loads(stdout)
        report.pop("timings")
        stdout = json.dumps(report, sort_keys=True)
    return {"exit": code, "stdout": digest(stdout), "stderr": digest(stderr), "escaped": escaped}


def _exit_code(out) -> Any:
    code, _stdout, _stderr, escaped = out
    return {"exit": code, "escaped": escaped}


def _write_cli_files(inp: Inputs) -> None:
    for fname, (family, params) in CLI_POSETS.items():
        (inp.workdir / fname).write_text(inp.posets[poset_id(family, params)], encoding="utf-8")
    for fname, cert in CLI_CERTS.items():
        (inp.workdir / fname).write_text(inp.certs[cert], encoding="utf-8")
    for fname, text in CLI_LITERALS.items():
        (inp.workdir / fname).write_text(text, encoding="utf-8")


def _cli() -> Workload:
    posets = {poset_id(f, p): gen_text(f, *p) for f, p in CLI_POSETS.values()}
    ops: list[Op] = []
    for json_flag in ([], ["--json"]):
        for call in CLI_CALLS:
            argv = json_flag + call
            ops.append(Op("cli", " ".join(argv), lambda inp, argv=argv: run_cli(argv), _cli_result, poset_id=call[1]))
        for call in CLI_MALFORMED:
            argv = json_flag + call
            defect = next((why for f, why in KNOWN_DEFECTS.items() if f in call), None)
            ops.append(
                Op(
                    "cli",
                    " ".join(argv),
                    lambda inp, argv=argv: run_cli(argv),
                    _exit_code,
                    poset_id=call[1],
                    expect={"exit": 2, "escaped": None},
                    known_defect=defect,
                )
            )
    return Workload("cli", posets, tuple(CLI_CERTS.values()), ops, files=_write_cli_files)


def _merge(name: str, *groups: Workload) -> Workload:
    """One workload running the ops of several groups, each op tagged with its group."""
    posets: dict[str, Callable[[], str]] = {}
    for g in groups:
        posets.update(g.posets)
    return Workload(
        name,
        posets,
        tuple(dict.fromkeys(c for g in groups for c in g.certs)),
        [replace(op, group=g.name) for g in groups for op in g.ops],
        next((g.files for g in groups if g.files is not None), None),
    )


# Two workloads, each the union of two groups of ops: "cd" runs the cd-index
# pipeline along the rank axis (cd-deep) and along the element axis
# (cd-wide); "certify" runs the certificate layer through the library
# (certify) and through the CLI (cli). Two workloads rather than four: the
# host's speed changes by up to a factor of two for minutes at a time, and
# two leave each run 50 s within the run budget, so that, with timings
# scaled by speed.py, a run averages over more of that noise (see
# README.md, "Host speed").
WORKLOADS = {
    w.name: w
    for w in (_merge("cd", _cd_deep(), _cd_wide()), _merge("certify", _certify(), _cli()))
}


# -- set-up and the oracle ------------------------------------------------------------


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))


class InputMismatch(Exception):
    """A generated or pinned input differs from the hash pinned at the seed."""


def setup(w: Workload, expected: dict, workdir: Path | None) -> Inputs:
    """Generate the workload's poset texts, read its certificates, check hashes.

    For the CLI workload the files its verbs read are written to ``workdir``.
    """
    inp = Inputs(workdir=workdir)
    for pid, build in w.posets.items():
        text = build()
        if sha256(text) != expected["inputs"][pid]:
            raise InputMismatch(f"generated poset {pid} differs from the pinned hash")
        inp.posets[pid] = text
    for name in w.certs:
        text = (CERT_DIR / f"{name}.cert").read_text(encoding="utf-8")
        if sha256(text) != expected["certs"][name]:
            raise InputMismatch(f"certificate {name} differs from the pinned hash")
        inp.certs[name] = text
    if w.files is not None:
        w.files(inp)
    return inp


def expected_result(op: Op, expected: dict) -> Any:
    return op.expect if op.expect is not None else expected["results"][op.id]


def execute(op: Op, inp: Inputs) -> tuple[Any, str | None]:
    """Run the timed part; an unexpected exception becomes a recorded outcome."""
    try:
        return op.run(inp), None
    except Exception as exc:  # noqa: BLE001 - counted as a failed op, never aborts the run
        return None, f"{type(exc).__name__}: {exc}"


def judge(op: Op, raw: Any, error: str | None, expected: dict) -> tuple[bool, Any]:
    """(passed, canonical result) of one executed op."""
    if error is not None:
        return False, {"error": error}
    got = op.result(raw)
    return got == expected_result(op, expected), got
