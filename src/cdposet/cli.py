"""Command-line front end: load posets and certificates, run analyses, report.

Exit codes: 0 on success or a true predicate, 1 on a definite negative
(failed check, NotInImage, exhausted search), 2 on input errors.  Every verb
accepts ``--json``; the JSON report carries the same numeric content as the
text report.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable

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
from .poset import GradedPoset, PosetError, format_poset, is_eulerian, is_semi_eulerian, parse_poset, read_lines, validate


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


def _load(path: str, parse: Callable, *args):
    """``parse(text, *args)`` of the file at ``path``; a read or parse failure is an input error."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"), *args)
    except (OSError, UnicodeDecodeError, PosetError) as exc:
        raise InputError(f"{path}: {exc}")


def _load_poset(path: str) -> GradedPoset:
    p = _load(path, parse_poset)
    problems = validate(p)
    if problems:
        raise InputError(f"{path}: {problems[0]}")
    return p


def _load_certificate(path: str, poset: GradedPoset, want: type) -> SPartitionCert | SEPartitionCert:
    cert = _load(path, parse_certificate, poset)
    if want is not object and not isinstance(cert, want):
        raise InputError(f"{path}: expected a {want.header} certificate")
    return cert


def _parse_pairs(text: str) -> list[tuple[str, str]]:
    """The ``pair <restriction> <facet>`` lines of a boolean-interval partition file."""
    pairs = []
    for lineno, _, fields in read_lines(text):
        if fields[0] != "pair" or len(fields) != 3:
            raise CertificateParseError("expected `pair <restriction> <facet>`", lineno)
        pairs.append((fields[1], fields[2]))
    return pairs


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
        self.polynomials[name] = dict(p.items())

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


def _report_violations(violations: list, rep: Report) -> int:
    """One line per violation (there is at least one); exit code 1."""
    rep.violations = [str(v) for v in violations]
    rep.lines.extend(rep.violations)
    return 1


def _cmd_check(args, rep: Report) -> int:
    """`validate` a poset, loaded without the validity gate so that it reports every violation, or a certificate."""
    if args.verb == "validate":
        violations = validate(_load(args.poset, parse_poset))
    else:
        want = SPartitionCert if args.verb == "check-spart" else SEPartitionCert
        violations = verify_partition(_load_certificate(args.certificate, _load_poset(args.poset), want))
    rep.result["valid"] = not violations
    if violations:
        return _report_violations(violations, rep)
    rep.say("OK")
    return 0


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
    """`cd` by the direct pipeline, `semicd` through the modified flag vector."""
    p = _load_poset(args.poset)
    key, index = ("cd_index", cd_index) if args.verb == "cd" else ("semi_cd_index", semi_cd_index)
    try:
        phi = index(p)
    except NotInImage as exc:
        rep.result[key] = None
        rep.result["reason"] = str(exc)
        rep.say(f"NotInImage: {exc}")
        return 1
    rep.poly(key, phi)
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


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: {exc}")


def _emit_cert(cert, path: str | None, rep: Report) -> None:
    if path:
        _write(path, format_certificate(cert))
        rep.say(f"certificate written to {path}")


def _report_found(outcome, key: str, args, rep: Report) -> int:
    """Report a searched (key ``found``) or converted (``converted``) certificate, written to
    ``--emit-cert``, or why there is none: None, a FailureReport or the exception that stopped it."""
    rep.result[key] = False
    if outcome is None:
        rep.say("exhausted: no certificate in the search family")
        return 1
    if isinstance(outcome, FailureReport):
        return _report_violations([outcome], rep)
    if isinstance(outcome, Exception):
        rep.result["reason"] = str(outcome)
        rep.say(str(outcome))
        return 1
    total = contributions(outcome, check=False).total
    rep.result[key] = True
    rep.poly("total", total)
    rep.say(f"{'FOUND' if key == 'found' else 'OK'} total {format_polynomial(total)}")
    _emit_cert(outcome, args.emit_cert, rep)
    return 0


def _cmd_search(args, rep: Report) -> int:
    p = _load_poset(args.poset)
    search = search_s_certificate if args.verb == "search-spart" else search_se_certificate
    try:
        outcome = search(p, budget=args.budget)
    except (BudgetExhausted, PosetError) as exc:
        outcome = exc
    return _report_found(outcome, "found", args, rep)


def _cmd_contributions(args, rep: Report) -> int:
    """`cd-recursive` reports the recursive total; `contributions` the whole table, checked."""
    p = _load_poset(args.poset)
    cert = _load_certificate(args.certificate, p, object)
    try:
        cm = contributions(cert)
    except CertificateInvalid as exc:
        return _report_violations(exc.violations, rep)
    rep.poly("total", cm.total)
    if args.verb == "cd-recursive":
        rep.say(format_polynomial(cm.total))
        return 0
    direct = semi_cd_index(p)  # cd_index on the Eulerian poset of an S-certificate
    for sigma in sorted(cm.per_coatom):
        rep.poly(sigma, cm.per_coatom[sigma])
        rep.say(f"{sigma}: {format_polynomial(cm.per_coatom[sigma])}")
    rep.say(f"total: {format_polynomial(cm.total)}")
    agrees = cm.total == direct
    rep.result["agrees_with_direct"] = agrees
    rep.say(f"agrees-with-direct: {'yes' if agrees else 'no'}")
    return 0 if agrees else 1


def _cmd_gen(args, rep: Report) -> int:
    params = tuple(args.params)
    p = zoo.gen(args.family, params)
    rep.result["name"] = p.name
    rep.result["elements"] = len(p)
    cert = zoo.published_certificate(args.family, p) if args.emit_cert else None  # before writing any file
    text = format_poset(p, provenance=zoo.fixture_spec(args.family, params).provenance)
    if args.out:
        _write(args.out, text)
        rep.say(f"poset written to {args.out}")
    else:
        rep.say(text.rstrip("\n"))
    _emit_cert(cert, args.emit_cert, rep)
    return 0


def _cmd_convert(args, rep: Report) -> int:
    """`convert-shelling` converts a facet order, `convert-simplicial-partition` a file of pairs."""
    p = _load_poset(args.poset)
    try:
        if args.verb == "convert-shelling":
            order = [s.strip() for s in args.order.split(",") if s.strip()]
            outcome = order_to_s_certificate(p, order, budget=args.budget)
        else:
            outcome = simplicial_partition_to_s_certificate(p, _load(args.pairs, _parse_pairs), budget=args.budget)
    except BudgetExhausted as exc:
        outcome = exc
    except PosetError as exc:
        raise InputError(str(exc))
    return _report_found(outcome, "converted", args, rep)


def _cmd_reverse_check(args, rep: Report) -> int:
    p = _load_poset(args.poset)
    cert = _load_certificate(args.certificate, p, SPartitionCert)
    violations = verify_partition(cert)
    if violations:
        return _report_violations(violations, rep)
    found = check_reverse_partition(cert)
    rep.result["reverse_partitionable"] = found is not None
    rep.result["top_chain_assignments"] = found[1] if found else 0
    rep.say(f"reverse-partitionable: {'yes' if found else 'no'}")
    if found:
        rep.say(f"top-chain assignments: {found[1]}")
    return 0 if found else 1


def _budget(text: str) -> int:
    """A search node limit: a nonnegative integer (0 is exhausted at once)."""
    try:
        limit = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid node limit {text!r}")
    if limit < 0:
        raise argparse.ArgumentTypeError(f"node limit must be nonnegative, got {limit}")
    return limit


def _arg(*names: str, **options) -> tuple[tuple[str, ...], dict]:
    """The positional and keyword arguments of one `add_argument` call."""
    return names, options


_POSET = _arg("poset")
_CERTIFICATE = _arg("certificate")
_BUDGET = _arg("--budget", type=_budget, default=10**6, help="search node limit")
_EMIT_CERT = _arg("--emit-cert", metavar="PATH")
_ORDER = _arg("--order", required=True, help="comma-separated facet names")
_PAIRS = _arg("--pairs", required=True, help="file of `pair <restriction> <facet>` lines")
_FAMILY = _arg("family", choices=zoo.families())
_PARAMS = _arg("params", nargs="*", type=int)
_OUT = _arg("--out", metavar="PATH")
_PUBLISHED_CERT = _arg("--emit-cert", metavar="PATH", help="also write the published certificate")

# verb -> (handler, help, arguments), in the order `cdposet --help` lists the verbs
# and each verb's usage line lists its arguments
VERBS: dict[str, tuple[Callable[[argparse.Namespace, Report], int], str, tuple]] = {
    "validate": (_cmd_check, "check poset invariants", (_POSET,)),
    "flags": (_cmd_flags, "flag f-vector", (_POSET,)),
    "euler": (_cmd_euler, "Euler characteristic", (_POSET,)),
    "cd": (_cmd_cd, "cd-index by the direct pipeline", (_POSET,)),
    "semicd": (_cmd_cd, "semi-Eulerian cd-index (modified chain polynomial)", (_POSET,)),
    "check-eulerian": (_cmd_check_eulerian, "Eulerian / semi-Eulerian status", (_POSET,)),
    "check-spart": (_cmd_check, "verify an S-partition certificate", (_POSET, _CERTIFICATE)),
    "check-separt": (_cmd_check, "verify an SE-partition certificate", (_POSET, _CERTIFICATE)),
    "cd-recursive": (_cmd_contributions, "cd-index via certificate contributions", (_POSET, _CERTIFICATE)),
    "contributions": (_cmd_contributions, "per-coatom contribution table", (_POSET, _CERTIFICATE)),
    "reverse-check": (_cmd_reverse_check, "reverse-partition probe", (_POSET, _CERTIFICATE)),
    "search-spart": (_cmd_search, "budgeted certificate search", (_POSET, _BUDGET, _EMIT_CERT)),
    "search-separt": (_cmd_search, "budgeted certificate search", (_POSET, _BUDGET, _EMIT_CERT)),
    "gen": (_cmd_gen, "generate a fixture poset", (_FAMILY, _PARAMS, _OUT, _PUBLISHED_CERT)),
    "convert-shelling": (_cmd_convert, "facet order to S-certificate", (_POSET, _ORDER, _BUDGET, _EMIT_CERT)),
    "convert-simplicial-partition": (
        _cmd_convert, "boolean-interval partition to S-certificate", (_POSET, _PAIRS, _BUDGET, _EMIT_CERT)
    ),
}


def _print(text: str) -> None:
    """Print to stdout; a reader that closes the pipe early gets less output, not a traceback."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # Python flushes stdout again at exit: point it at devnull, as the Python docs advise for SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb in `VERBS`, built once per process and shared by every `main` call."""
    parser = _Parser(
        prog="cdposet",
        description="Flag vectors, cd-indices and partition certificates of graded posets.",
    )
    parser.add_argument("--json", action="store_true", help="emit a structured JSON report")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (handler, doc, arguments) in VERBS.items():
        sp = sub.add_parser(name, help=doc)
        sp.set_defaults(func=handler)
        for names, options in arguments:
            sp.add_argument(*names, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = argparse.Namespace(json=False, verb=None)  # --json comes before the verb, so it is read first
    try:
        build_parser().parse_args(argv, namespace=args)
    except _UsageError as exc:
        if args.json:
            _print(Report(args.verb, []).with_error(exc.message).to_json(0.0))
        raise
    rep = Report(args.verb, [v for k, v in vars(args).items() if k in ("poset", "certificate", "family") and v])
    start = time.perf_counter()
    try:
        code = args.func(args, rep)
    except (InputError, zoo.UnknownFamily, zoo.BadParams, zoo.NoPublishedCertificate) as exc:
        if args.json:
            _print(rep.with_error(str(exc)).to_json(time.perf_counter() - start))
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        _print(rep.to_json(time.perf_counter() - start))
    elif rep.lines:
        _print("\n".join(rep.lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
