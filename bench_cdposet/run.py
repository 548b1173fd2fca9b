"""cdposet benchmark: one closed-loop client runs a workload's op mix.

    python3 bench_cdposet/run.py --workload cd-deep --seed 1 --seconds 20 --trace 0

Ops run in rounds; each round holds every op of the mix once, in an order
drawn from ``--seed``. A warm-up round runs first, untimed. Timing
stops at the end of the round during which ``--seconds`` ran out, so every
run measures whole rounds. Every op's result is checked against the value
pinned at the seed, outside the timed region. Every timing is scaled to
the reference host speed by the probe in speed.py, timed between ops.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``). The line before it is a JSON report
with the tail percentile, failures and the workload's input properties.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import mixes  # noqa: E402 - imports cdposet from SRC
import spans  # noqa: E402
import speed  # noqa: E402

SETUP_REPEATS = 15
PROBE_EVERY = 0.05  # seconds of run between two host speed probes
TAIL_BEYOND = 10
# the end-to-end metrics of an untraced run, with their units
END_TO_END = {
    "throughput_ops_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def rounds(ops: list[mixes.Op], seed: int):
    """Endless rounds: each is the whole mix in a seed-determined order."""
    rng = random.Random(seed)
    while True:
        order = list(ops)
        rng.shuffle(order)
        yield order


class Run:
    """One pass over whole rounds, with the oracle's verdict on every op."""

    def __init__(self, inp: mixes.Inputs, expected: dict, seen: Counter | None = None, tracer=None) -> None:
        self.inp = inp
        self.expected = expected
        self.tracer = tracer
        self.latencies: list[float] = []
        self.op_ids: list[str] = []
        self.by_group: Counter = Counter()  # op seconds per group
        self.ok = 0
        self.failures: list[dict] = []
        self.rounds: list[list[mixes.Op]] = []
        # inputs of earlier passes count as seen: a cache would still hold them
        self.seen = Counter(seen)
        self.repeats = 0
        self.speed = speed.Normalizer(PROBE_EVERY)
        self.probe_before: list[int] = []  # per op, the probe taken before it

    def play(self, orders, seconds: float = math.inf) -> None:
        """Run rounds from ``orders`` until ``seconds`` ran out or none are left."""
        t0 = time.perf_counter()
        for order in orders:
            for op in order:
                self.op(op)
            self.rounds.append(order)
            if time.perf_counter() - t0 >= seconds:
                break
        self.speed.close()

    def op(self, op: mixes.Op) -> None:
        self.probe_before.append(self.speed.mark())
        if self.tracer is not None:
            self.tracer.begin_op(f"{len(self.rounds)}:{op.id}", op.group)
        start = time.perf_counter()
        raw, error = mixes.execute(op, self.inp)
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.end_op()
        self.latencies.append(elapsed)
        self.op_ids.append(op.id)
        self.by_group[op.group] += elapsed
        try:
            passed, got = mixes.judge(op, raw, error, self.expected)
        except Exception as exc:  # noqa: BLE001 - a crash in checking the output fails the op
            passed, got = False, {"error": f"{type(exc).__name__}: {exc}"}
        if passed:
            self.ok += 1
        else:
            self.failures.append({"op": op.id, "got": got, "known_defect": op.known_defect})
        key = op.poset_id or op.subject
        self.repeats += self.seen[key] > 0
        self.seen[key] += 1
        # every op starts on a collected heap, as in a fresh CLI process, so
        # garbage left by the previous op is not collected on this op's clock
        gc.collect()

    def normalized(self) -> list[float]:
        """Each op's latency scaled to the reference host speed."""
        return [t * self.speed.scale(b) for t, b in zip(self.latencies, self.probe_before)]

    def unexpected_failures(self) -> list[dict]:
        return [f for f in self.failures if not f["known_defect"]]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it."""
    ordered = sorted(latencies)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def timing_figures(latencies: list[float], ok: int, setup_times: list[float]) -> dict[str, float]:
    value, _pct = tail(latencies)
    return {
        "throughput_ops_s": ok / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_tail_ms": value * 1000,
        "setup_s": statistics.median(setup_times),
    }


def input_properties(inp: mixes.Inputs, run: Run) -> dict:
    parsed = [mixes.poset.parse_poset(text) for text in inp.posets.values()]
    ranks = [p.rank_top for p in parsed]
    sizes = [len(p) for p in parsed]
    return {
        "posets": len(parsed),
        "rank_range": [min(ranks), max(ranks)],
        "element_range": [min(sizes), max(sizes)],
        "cd_degree_range": [min(ranks) - 1, max(ranks) - 1],
        "ops_per_round_by_group": dict(sorted(Counter(op.group for op in run.rounds[0]).items())),
        "ops_per_round_by_kind": dict(sorted(Counter(op.kind for op in run.rounds[0]).items())),
        "ops_by_kind": dict(sorted(Counter(op.kind for order in run.rounds for op in order).items())),
        "repeat_input_share": run.repeats / len(run.latencies),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(mixes.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(mixes.poset.__file__).resolve().parent != SRC / "cdposet":
        print(f"error: imported cdposet from {mixes.poset.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("CDX_COLOR", None)  # CLI output must not depend on the caller's terminal settings
    w = mixes.WORKLOADS[args.workload]
    expected = mixes.load_expected()
    tracer = spans.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_work-") as tmp:
        workdir = Path(tmp)
        setup_times = []
        setup_speed = speed.Normalizer()
        try:
            for _ in range(SETUP_REPEATS):
                setup_speed.mark()
                start = time.perf_counter()
                inp = mixes.setup(w, expected, workdir)
                setup_times.append(time.perf_counter() - start)
        except mixes.InputMismatch as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        setup_speed.close()
        cwd = os.getcwd()
        os.chdir(workdir)  # CLI ops name their files relative to the work dir
        try:
            orders = rounds(w.ops, args.seed)
            warm = Run(inp, expected)
            warm.play([next(orders)])
            timed = Run(inp, expected, warm.seen)
            # the traced run times half as many seconds untraced, then replays those rounds traced
            timed.play(orders, args.seconds / 2 if tracer is not None else args.seconds)
            if tracer is not None:
                with tracer:
                    traced = Run(mixes.setup(w, expected, workdir), expected, tracer=tracer)
                    traced.play(timed.rounds)
        finally:
            os.chdir(cwd)
    report = {
        "workload": w.name,
        "seed": args.seed,
        "rounds": len(timed.rounds),
        "ops_per_round": len(timed.rounds[0]),
        "failed_frac": len(timed.failures) / len(timed.latencies),
        "failures": sorted({f["op"]: f for f in timed.failures}.values(), key=lambda f: f["op"]),
        "inputs": input_properties(inp, timed),
    }
    result = {
        "correct": not timed.unexpected_failures(),
        "attempted": len(timed.latencies),
        "failed": len(timed.failures),
    }
    if tracer is not None:
        layer, shares = spans.layer_metrics(tracer, len(traced.rounds), traced.by_group)
        layer["trace.overhead_frac"] = sum(traced.normalized()) / sum(timed.normalized()) - 1
        report["self_time_shares_by_group"] = shares
        out = ROOT / ".bench_out" / f"spans-{w.name}-seed{args.seed}.tsv.gz"
        tracer.write(out)
        report["spans"] = {"count": len(tracer), "file": str(out.relative_to(ROOT))}
        result["correct"] = result["correct"] and not traced.unexpected_failures()
        result["metrics"] = {name: {"value": layer[name], "unit": unit} for name, unit in spans.UNITS.items()}
    else:
        latencies = timed.normalized()
        by_op: dict[str, list[float]] = {}
        for op_id, t in zip(timed.op_ids, latencies):
            by_op.setdefault(op_id, []).append(t)
        _value, pct = tail(latencies)
        report["tail"] = {"percentile": pct, "samples": len(latencies), "beyond": TAIL_BEYOND}
        report["p50_ms_by_op"] = {k: statistics.median(v) * 1000 for k, v in sorted(by_op.items())}
        setup_scaled = [t * setup_speed.scale(i) for i, t in enumerate(setup_times)]
        values = timing_figures(latencies, timed.ok, setup_scaled)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # the same figures in unscaled wall-clock time, and the host speed they were taken at
        report["wall_clock"] = timing_figures(timed.latencies, timed.ok, setup_times)
        report["wall_clock"]["probe_ms_quartiles"] = [q * 1000 for q in statistics.quantiles(timed.speed.probes, n=4)]
        result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
