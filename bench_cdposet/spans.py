"""Spans around the calls into each cdposet module, recorded from outside.

``Tracer.install`` rebinds every ``cdposet.*`` module attribute that is one
of the traced functions (found by identity, so ``partition.cd_index`` and
``cli.parse_poset`` are caught as well as ``flags.cd_index``) to a wrapper
that records a span: layer name, function, start, end, parent span and op
id. Spans stay in memory; ``layer_metrics`` reduces them once the run ends.
Per-element ``GradedPoset`` methods and ``mobius`` are not wrapped: their
time is the self time of the function that called them.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import defaultdict
from pathlib import Path
from types import ModuleType
from typing import Any, Callable

from cdposet import cli, flags, ncpoly, partition, poset, zoo

MODULES: tuple[ModuleType, ...] = (ncpoly, poset, flags, partition, zoo, cli)

# layer -> the public functions whose calls are its spans
LAYERS: dict[str, tuple[Callable, ...]] = {
    "ncpoly.ab_to_cd": (ncpoly.ab_to_cd,),
    "ncpoly.expand": (ncpoly.expand_cd_to_ab,),
    "ncpoly.substitute": (ncpoly.substitute_a_minus_b, ncpoly.substitute_a_plus_b),
    "flags.flag_h": (flags.flag_h,),
    "flags.flag_f": (flags.flag_f,),
    "flags.cd": (flags.cd_index, flags.semi_cd_index, flags.modified_flag_f, flags.check_dehn_sommerville),
    "poset.parse": (poset.parse_poset,),
    "poset.validate": (poset.validate,),
    "poset.eulerian": (poset.is_eulerian, poset.is_semi_eulerian, poset.is_near_eulerian),
    "poset.derive": (
        poset.closure,
        poset.cap,
        poset.boundary_set,
        poset.semisuspension,
        poset.product,
        poset.connected_sum,
    ),
    "partition.search": (partition.search_s_certificate, partition.search_se_certificate),
    "partition.verify": (partition.verify_s_partition, partition.verify_se_partition),
    "partition.contributions": (partition.contributions_s, partition.contributions_se),
    "partition.cert_io": (partition.parse_certificate, partition.format_certificate),
    "cli.main": (cli.main,),
    "zoo.gen": (zoo.gen,),
    "zoo.fixture_certificate": (zoo.fixture_certificate,),
}

# every per-layer metric of the traced run, with its unit
UNITS = {
    "ncpoly.ab_to_cd.self_s": "s",
    "ncpoly.ab_to_cd.calls": "count",
    "ncpoly.ab_to_cd.terms_in": "count",
    "ncpoly.ab_to_cd.max_degree": "degree",
    "ncpoly.expand.self_s": "s",
    "ncpoly.substitute.self_s": "s",
    "flags.flag_h.self_s": "s",
    "flags.flag_f.self_s": "s",
    "flags.flag_f.calls": "count",
    "flags.cd.self_s": "s",
    "flags.cd.calls": "count",
    "poset.parse.self_s": "s",
    "poset.parse.calls": "count",
    "poset.validate.self_s": "s",
    "poset.eulerian.self_s": "s",
    "poset.eulerian.calls": "count",
    "poset.derive.self_s": "s",
    "poset.subposets_built": "count",
    "poset.subposet_elements": "count",
    "partition.search.self_s": "s",
    "partition.search.nodes": "count",
    "partition.search.found_per_knode": "1/knode",
    "partition.verify.self_s": "s",
    "partition.contributions.self_s": "s",
    "partition.cross_checks": "count",
    "partition.cert_io.self_s": "s",
    "cli.main.self_s": "s",
    "cli.main.calls": "count",
    "zoo.gen.s": "s",
    "zoo.fixture_certificate.s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Records spans and per-layer counts while installed.

    Span fields live in flat arrays, one entry per span, so that holding
    hundreds of thousands of spans adds no objects for the cyclic garbage
    collector to walk between ops.
    """

    def __init__(self) -> None:
        self.functions: list[tuple[str, str]] = []  # (layer, function name)
        self.op_names: list[str] = ["setup"]
        self.op_groups: list[str] = ["setup"]
        self.func = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.counts: dict[str, float] = defaultdict(float)
        self._op = 0  # index into op_names; -1 records nothing (oracle checks)
        self._stack: list[int] = []
        self._patched: list[tuple[ModuleType, str, Any]] = []

    def begin_op(self, name: str, group: str) -> None:
        self.op_names.append(name)
        self.op_groups.append(group)
        self._op = len(self.op_names) - 1

    def end_op(self) -> None:
        self._op = -1

    def __len__(self) -> int:
        return len(self.start)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer, funcs in LAYERS.items():
            for fn in funcs:
                wrappers[id(fn)] = self._wrap(layer, fn)
        for module in MODULES:
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, name, value))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        self.functions.append((layer, fn.__name__))
        func_id = len(self.functions) - 1
        stack, counts = self._stack, self.counts
        starts, ends, parents, funcs, ops = self.start, self.end, self.parent, self.func, self.op
        count = _COUNTERS.get(fn.__name__)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            op = self._op
            if op < 0:
                return fn(*args, **kwargs)
            i = len(starts)
            funcs.append(func_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(op)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None and op > 0:
                count(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def layer(self, i: int) -> str:
        return self.functions[self.func[i]][0]

    # -- output ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        """All spans as gzip'd TSV: index, layer, function, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("span\tlayer\tfunction\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self)):
                layer, name = self.functions[self.func[i]]
                out.write(
                    f"{i}\t{layer}\t{name}\t{self.start[i] - t0:.7f}\t{self.end[i] - t0:.7f}"
                    f"\t{self.parent[i]}\t{self.op_names[self.op[i]]}\n"
                )


# -- counts taken at the span boundary ------------------------------------------


def _count_ab_to_cd(counts, args, kwargs, result) -> None:
    p = args[0]
    counts["ncpoly.ab_to_cd.terms_in"] += len(p.items())
    degree = p.degree() or 0
    counts["ncpoly.ab_to_cd.max_degree"] = max(counts["ncpoly.ab_to_cd.max_degree"], degree)


def _count_subposet(counts, args, kwargs, result) -> None:
    built = result[0] if isinstance(result, tuple) else result
    counts["poset.subposets_built"] += 1
    counts["poset.subposet_elements"] += len(built)


def _count_search(counts, args, kwargs, result) -> None:
    budget = kwargs.get("budget", args[1] if len(args) > 1 else None)
    if isinstance(budget, partition.Budget):
        counts["partition.search.nodes"] += budget.used
        counts["partition.search.found"] += result is not None


_COUNTERS = {
    "ab_to_cd": _count_ab_to_cd,
    "cap": _count_subposet,
    "semisuspension": _count_subposet,
    "search_s_certificate": _count_search,
    "search_se_certificate": _count_search,
}


# -- reduction --------------------------------------------------------------------


def self_times(t: Tracer) -> list[float]:
    """Span duration minus the durations of its direct children (spans nest)."""
    out = [e - s for s, e in zip(t.start, t.end)]
    for i, parent in enumerate(t.parent):
        if parent >= 0:
            out[parent] -= t.end[i] - t.start[i]
    return out


def _under(t: Tracer, i: int, layer: str) -> bool:
    parent = t.parent[i]
    while parent >= 0:
        if t.layer(parent) == layer:
            return True
        parent = t.parent[parent]
    return False


def layer_metrics(
    t: Tracer, rounds: int, group_seconds: dict[str, float]
) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
    """Per-layer metrics per round of the mix, and each module's share of op time per group.

    Every value comes from the spans of the ops and is divided by ``rounds``,
    except ``zoo.*.s``: the seconds in that function during one traced set-up
    plus one round of ops.
    """
    own = self_times(t)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    setup_zoo: dict[str, float] = defaultdict(float)
    op_zoo: dict[str, float] = defaultdict(float)
    module_self: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    cross_checks = 0
    for i in range(len(t)):
        layer = t.layer(i)
        in_setup = t.op[i] == 0
        if layer.startswith("zoo."):
            (setup_zoo if in_setup else op_zoo)[layer] += t.end[i] - t.start[i]
        if in_setup:
            continue
        self_s[layer] += own[i]
        module_self[t.op_groups[t.op[i]]][layer.split(".")[0]] += own[i]
        calls[layer] += 1
        if layer == "flags.cd" and _under(t, i, "partition.contributions"):
            cross_checks += 1
    counts = t.counts
    nodes = counts["partition.search.nodes"]
    totals = {
        "ncpoly.ab_to_cd.self_s": self_s["ncpoly.ab_to_cd"],
        "ncpoly.ab_to_cd.calls": calls["ncpoly.ab_to_cd"],
        "ncpoly.ab_to_cd.terms_in": counts["ncpoly.ab_to_cd.terms_in"],
        "ncpoly.expand.self_s": self_s["ncpoly.expand"],
        "ncpoly.substitute.self_s": self_s["ncpoly.substitute"],
        "flags.flag_h.self_s": self_s["flags.flag_h"],
        "flags.flag_f.self_s": self_s["flags.flag_f"],
        "flags.flag_f.calls": calls["flags.flag_f"],
        "flags.cd.self_s": self_s["flags.cd"],
        "flags.cd.calls": calls["flags.cd"],
        "poset.parse.self_s": self_s["poset.parse"],
        "poset.parse.calls": calls["poset.parse"],
        "poset.validate.self_s": self_s["poset.validate"],
        "poset.eulerian.self_s": self_s["poset.eulerian"],
        "poset.eulerian.calls": calls["poset.eulerian"],
        "poset.derive.self_s": self_s["poset.derive"],
        "poset.subposets_built": counts["poset.subposets_built"],
        "poset.subposet_elements": counts["poset.subposet_elements"],
        "partition.search.self_s": self_s["partition.search"],
        "partition.search.nodes": nodes,
        "partition.verify.self_s": self_s["partition.verify"],
        "partition.contributions.self_s": self_s["partition.contributions"],
        "partition.cross_checks": cross_checks,
        "partition.cert_io.self_s": self_s["partition.cert_io"],
        "cli.main.self_s": self_s["cli.main"],
        "cli.main.calls": calls["cli.main"],
    }
    metrics = {name: value / rounds for name, value in totals.items()}
    metrics["ncpoly.ab_to_cd.max_degree"] = counts["ncpoly.ab_to_cd.max_degree"]
    metrics["partition.search.found_per_knode"] = (
        1000 * counts["partition.search.found"] / nodes if nodes else 0.0
    )
    for layer in ("zoo.gen", "zoo.fixture_certificate"):
        metrics[f"{layer}.s"] = setup_zoo[layer] + op_zoo[layer] / rounds
    shares = {}
    for group, seconds in sorted(group_seconds.items()):
        modules = module_self[group]
        modules["outside"] = max(seconds - sum(modules.values()), 0.0)
        shares[group] = {m: own_s / seconds for m, own_s in sorted(modules.items())}
    return metrics, shares
