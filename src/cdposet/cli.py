"""Command-line front end: load posets and certificates, run analyses, report.

Exit codes: 0 on success or a true predicate, 1 on a definite negative
(failed check, NotInImage, exhausted search), 2 on input errors.  Every verb
accepts ``--json``; the JSON report carries the same numeric content as the
text report.  ``CDX_COLOR`` switches ANSI styling on (any value but ``0``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import zoo
from .flags import cd_index, euler_characteristic, flag_f, format_flag_vector, semi_cd_index
from .ncpoly import NcPolynomial, NotInImage, format_polynomial
from .partition import (
    BudgetExhausted,
    CertificateInvalid,
    CertificateParseError,
    FailureReport,
    SEPartitionCert,
    SPartitionCert,
    check_reverse_partition,
    contributions,
    format_certificate,
    order_to_s_certificate,
    parse_certificate,
    search_s_certificate,
    search_se_certificate,
    simplicial_partition_to_s_certificate,
    verify_partition,
)
from .poset import GradedPoset, PosetError, PosetParseError, format_poset, is_eulerian, is_semi_eulerian, parse_poset, validate


class InputError(Exception):
    pass


class _UsageError(SystemExit):
    """The exit-2 SystemExit of an argparse rejection, carrying its message for the JSON report."""

    def __init__(self, message: str):
        super().__init__(2)
        self.message = message


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        try:
            super().error(message)  # prints the usage and the message, then exits 2
        except SystemExit:
            raise _UsageError(message) from None


def _color(text: str, code: str) -> str:
    if os.environ.get("CDX_COLOR", "") in ("", "0"):
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _ok(text: str = "OK") -> str:
    return _color(text, "32")


def _bad(text: str) -> str:
    return _color(text, "31")


def _load_poset(path: str) -> GradedPoset:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: {exc}")
    try:
        p = parse_poset(text)
    except PosetParseError as exc:
        raise InputError(f"{path}: {exc}")
    problems = validate(p)
    if problems:
        raise InputError(f"{path}: {problems[0]}")
    return p


def _load_certificate(path: str, poset: GradedPoset, want: type) -> SPartitionCert | SEPartitionCert:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: {exc}")
    try:
        cert = parse_certificate(text, poset)
    except (CertificateParseError, PosetError) as exc:
        raise InputError(f"{path}: {exc}")
    if want is not object and not isinstance(cert, want):
        raise InputError(f"{path}: expected a {want.header} certificate")
    return cert


def _poly_json(p: NcPolynomial) -> dict[str, int]:
    return {w: c for w, c in p.items()}


class Report:
    """Collects text lines and the structured payload for one command."""

    def __init__(self, command: str, inputs: list[str]):
        self.command = command
        self.inputs = inputs
        self.lines: list[str] = []
        self.result: dict = {}
        self.polynomials: dict[str, dict[str, int]] = {}
        self.violations: list[str] = []

    def say(self, line: str) -> None:
        self.lines.append(line)

    def poly(self, name: str, p: NcPolynomial) -> None:
        self.polynomials[name] = _poly_json(p)

    def with_error(self, message: str) -> "Report":
        self.result["error"] = message
        return self

    def to_json(self, seconds: float) -> str:
        payload = {
            "command": self.command,
            "input": self.inputs,
            "result": self.result,
            "polynomials": self.polynomials,
            "violations": self.violations,
            "timings": {"seconds": round(seconds, 6)},
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _cmd_validate(args, rep: Report) -> int:
    p = _load_poset_lenient(args.poset)
    problems = [str(v) for v in validate(p)]
    rep.violations = problems
    rep.result["valid"] = not problems
    if problems:
        rep.lines.extend(_bad(v) for v in problems)
        return 1
    rep.say(_ok())
    return 0


def _load_poset_lenient(path: str) -> GradedPoset:
    """Parse without the validity gate, so `validate` can report violations."""
    try:
        return parse_poset(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise InputError(f"{path}: {exc}")
    except PosetParseError as exc:
        raise InputError(f"{path}: {exc}")


def _cmd_flags(args, rep: Report) -> int:
    p = _load_poset(args.poset)
    f = flag_f(p)
    rep.result["flags"] = {
        "{" + ",".join(str(i) for i in sorted(K)) + "}": v for K, v in f.counts.items()
    }
    rep.say(format_flag_vector(f).rstrip("\n"))
    return 0


def _cmd_euler(args, rep: Report) -> int:
    p = _load_poset(args.poset)
    chi = euler_characteristic(p)
    rep.result["euler_characteristic"] = chi
    rep.say(f"chi = {chi}")
    return 0


def _cmd_cd(args, rep: Report) -> int:
    p = _load_poset(args.poset)
    try:
        phi = cd_index(p)
    except NotInImage as exc:
        rep.result["cd_index"] = None
        rep.result["reason"] = str(exc)
        rep.say(_bad(f"NotInImage: {exc}"))
        return 1
    rep.poly("cd_index", phi)
    rep.say(format_polynomial(phi))
    return 0


def _cmd_semicd(args, rep: Report) -> int:
    p = _load_poset(args.poset)
    try:
        phi = semi_cd_index(p)
    except NotInImage as exc:
        rep.result["semi_cd_index"] = None
        rep.result["reason"] = str(exc)
        rep.say(_bad(f"NotInImage: {exc}"))
        return 1
    rep.poly("semi_cd_index", phi)
    rep.say(format_polynomial(phi))
    return 0


def _cmd_check_eulerian(args, rep: Report) -> int:
    p = _load_poset(args.poset)
    eul = is_eulerian(p)
    semi = eul or is_semi_eulerian(p)
    rep.result["eulerian"] = eul
    rep.result["semi_eulerian"] = semi
    rep.say("eulerian" if eul else ("semi-eulerian" if semi else "not-semi-eulerian"))
    return 0 if eul else 1


def _cmd_check_cert(args, rep: Report) -> int:
    p = _load_poset(args.poset)
    want = SPartitionCert if args.verb == "check-spart" else SEPartitionCert
    cert = _load_certificate(args.certificate, p, want)
    violations = verify_partition(cert)
    rep.violations = [str(v) for v in violations]
    rep.result["valid"] = not violations
    if violations:
        rep.lines.extend(_bad(str(v)) for v in violations)
        return 1
    rep.say(_ok())
    return 0


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: {exc}")


def _emit_cert(cert, path: str | None, rep: Report) -> None:
    if path:
        _write(path, format_certificate(cert))
        rep.say(f"certificate written to {path}")


def _cmd_search(args, rep: Report) -> int:
    p = _load_poset(args.poset)
    search = search_s_certificate if args.verb == "search-spart" else search_se_certificate
    try:
        cert = search(p, budget=args.budget)
    except (BudgetExhausted, PosetError) as exc:
        rep.result["found"] = False
        rep.result["reason"] = str(exc)
        rep.say(_bad(str(exc)))
        return 1
    if cert is None:
        rep.result["found"] = False
        rep.say(_bad("exhausted: no certificate in the search family"))
        return 1
    total = contributions(cert, check=False).total
    rep.result["found"] = True
    rep.poly("total", total)
    rep.say(f"FOUND total {format_polynomial(total)}")
    _emit_cert(cert, args.emit_cert, rep)
    return 0


def _cmd_contributions(args, rep: Report) -> int:
    """`cd-recursive` reports the recursive total; `contributions` the whole table, checked."""
    p = _load_poset(args.poset)
    cert = _load_certificate(args.certificate, p, object)
    try:
        cm = contributions(cert)
    except CertificateInvalid as exc:
        rep.violations = [str(v) for v in exc.violations]
        rep.lines.extend(_bad(str(v)) for v in exc.violations)
        return 1
    if args.verb == "cd-recursive":
        rep.poly("total", cm.total)
        rep.say(format_polynomial(cm.total))
        return 0
    direct = cd_index(p) if isinstance(cert, SPartitionCert) else semi_cd_index(p)
    for sigma in sorted(cm.per_coatom):
        rep.poly(sigma, cm.per_coatom[sigma])
        rep.say(f"{sigma}: {format_polynomial(cm.per_coatom[sigma])}")
    rep.poly("total", cm.total)
    rep.say(f"total: {format_polynomial(cm.total)}")
    agrees = cm.total == direct
    rep.result["agrees_with_direct"] = agrees
    rep.say(f"agrees-with-direct: {'yes' if agrees else 'no'}")
    return 0 if agrees else 1


def _cmd_gen(args, rep: Report) -> int:
    params = tuple(args.params)
    p = zoo.gen(args.family, params)
    text = format_poset(p, provenance=zoo.fixture_spec(args.family, params).provenance)
    if args.out:
        _write(args.out, text)
        rep.say(f"poset written to {args.out}")
    else:
        rep.say(text.rstrip("\n"))
    rep.result["name"] = p.name
    rep.result["elements"] = len(p)
    if args.emit_cert:
        _emit_cert(zoo.fixture_certificate(args.family, params), args.emit_cert, rep)
    return 0


def _report_conversion(outcome, args, rep: Report) -> int:
    if isinstance(outcome, FailureReport):
        rep.result["converted"] = False
        rep.violations = [str(outcome)]
        rep.say(_bad(str(outcome)))
        return 1
    total = contributions(outcome, check=False).total
    rep.result["converted"] = True
    rep.poly("total", total)
    rep.say(f"OK total {format_polynomial(total)}")
    _emit_cert(outcome, args.emit_cert, rep)
    return 0


def _cmd_convert_shelling(args, rep: Report) -> int:
    p = _load_poset(args.poset)
    order = [s.strip() for s in args.order.split(",") if s.strip()]
    outcome = order_to_s_certificate(p, order, budget=args.budget)
    return _report_conversion(outcome, args, rep)


def _parse_pairs_file(path: str) -> list[tuple[str, str]]:
    pairs = []
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise InputError(f"{path}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] != "pair" or len(fields) != 3:
            raise InputError(f"{path}: line {lineno}: expected `pair <restriction> <facet>`")
        pairs.append((fields[1], fields[2]))
    return pairs


def _cmd_convert_simplicial(args, rep: Report) -> int:
    p = _load_poset(args.poset)
    pairs = _parse_pairs_file(args.pairs)
    try:
        outcome = simplicial_partition_to_s_certificate(p, pairs, budget=args.budget)
    except PosetError as exc:
        raise InputError(str(exc))
    return _report_conversion(outcome, args, rep)


def _cmd_reverse_check(args, rep: Report) -> int:
    p = _load_poset(args.poset)
    cert = _load_certificate(args.certificate, p, SPartitionCert)
    violations = verify_partition(cert)
    if violations:
        rep.violations = [str(v) for v in violations]
        rep.lines.extend(_bad(str(v)) for v in violations)
        return 1
    ok, assignment = check_reverse_partition(cert)
    rep.result["reverse_partitionable"] = ok
    rep.result["top_chain_assignments"] = len(assignment) if assignment else 0
    rep.say(f"reverse-partitionable: {'yes' if ok else 'no'}")
    if ok:
        rep.say(f"top-chain assignments: {len(assignment)}")
    return 0 if ok else 1


def _budget(text: str) -> int:
    """A search node limit: a nonnegative integer (0 is exhausted at once)."""
    try:
        limit = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid node limit {text!r}")
    if limit < 0:
        raise argparse.ArgumentTypeError(f"node limit must be nonnegative, got {limit}")
    return limit


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cdposet",
        description="Flag vectors, cd-indices and partition certificates of graded posets.",
    )
    parser.add_argument("--json", action="store_true", help="emit a structured JSON report")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, func, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(func=func)
        return sp

    for name, func, doc in [
        ("validate", _cmd_validate, "check poset invariants"),
        ("flags", _cmd_flags, "flag f-vector"),
        ("euler", _cmd_euler, "Euler characteristic"),
        ("cd", _cmd_cd, "cd-index by the direct pipeline"),
        ("semicd", _cmd_semicd, "semi-Eulerian cd-index (modified chain polynomial)"),
        ("check-eulerian", _cmd_check_eulerian, "Eulerian / semi-Eulerian status"),
    ]:
        sp = add(name, func, help=doc)
        sp.add_argument("poset")
    for name, func, doc in [
        ("check-spart", _cmd_check_cert, "verify an S-partition certificate"),
        ("check-separt", _cmd_check_cert, "verify an SE-partition certificate"),
        ("cd-recursive", _cmd_contributions, "cd-index via certificate contributions"),
        ("contributions", _cmd_contributions, "per-coatom contribution table"),
        ("reverse-check", _cmd_reverse_check, "reverse-partition probe"),
    ]:
        sp = add(name, func, help=doc)
        sp.add_argument("poset")
        sp.add_argument("certificate")
    for name in ("search-spart", "search-separt"):
        sp = add(name, _cmd_search, help="budgeted certificate search")
        sp.add_argument("poset")
        sp.add_argument("--budget", type=_budget, default=10**6, help="search node limit")
        sp.add_argument("--emit-cert", metavar="PATH")
    sp = add("gen", _cmd_gen, help="generate a fixture poset")
    sp.add_argument("family", choices=zoo.families())
    sp.add_argument("params", nargs="*", type=int)
    sp.add_argument("--out", metavar="PATH")
    sp.add_argument("--emit-cert", metavar="PATH", help="also write the published certificate")
    sp = add("convert-shelling", _cmd_convert_shelling, help="facet order to S-certificate")
    sp.add_argument("poset")
    sp.add_argument("--order", required=True, help="comma-separated facet names")
    sp.add_argument("--budget", type=_budget, default=10**6, help="search node limit")
    sp.add_argument("--emit-cert", metavar="PATH")
    sp = add("convert-simplicial-partition", _cmd_convert_simplicial, help="boolean-interval partition to S-certificate")
    sp.add_argument("poset")
    sp.add_argument("--pairs", required=True, help="file of `pair <restriction> <facet>` lines")
    sp.add_argument("--budget", type=_budget, default=10**6, help="search node limit")
    sp.add_argument("--emit-cert", metavar="PATH")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = argparse.Namespace(json=False, verb=None)  # --json comes before the verb, so it is read first
    try:
        build_parser().parse_args(argv, namespace=args)
    except _UsageError as exc:
        if args.json:
            print(Report(args.verb, []).with_error(exc.message).to_json(0.0))
        raise
    rep = Report(args.verb, [v for k, v in vars(args).items() if k in ("poset", "certificate", "family") and v])
    start = time.perf_counter()
    try:
        code = args.func(args, rep)
    except (InputError, zoo.UnknownFamily, zoo.BadParams, zoo.NoPublishedCertificate) as exc:
        if args.json:
            print(rep.with_error(str(exc)).to_json(time.perf_counter() - start))
        print(_bad(f"error: {exc}"), file=sys.stderr)
        return 2
    if args.json:
        print(rep.to_json(time.perf_counter() - start))
    else:
        for line in rep.lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
