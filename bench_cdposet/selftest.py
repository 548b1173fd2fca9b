"""Self-test of the benchmark: every op of every mix once, under two seeds.

    python3 bench_cdposet/selftest.py

Exits 0 when: every op's result matches the oracle, except the ops marked
as known defects, which must fail; two seeds put each round in a different
order and give the same result for every op; and BENCHMARK.json names
exactly the metrics, with the units, that run.py reports.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mixes  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SEEDS = (1, 2)


def check_workload(w: mixes.Workload, expected: dict) -> list[str]:
    problems = []
    orders, results = [], []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_work-") as tmp:
        inp = mixes.setup(w, expected, Path(tmp))
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for seed in SEEDS:
                order = next(run.rounds(w.ops, seed))
                got = {}
                for op in order:
                    raw, error = mixes.execute(op, inp)
                    got[op.id] = mixes.judge(op, raw, error, expected)
                orders.append([op.id for op in order])
                results.append(got)
        finally:
            os.chdir(cwd)
    if len(set(orders[0])) != len(w.ops) or sorted(orders[0]) != sorted(orders[1]):
        problems.append("a seed's round does not hold every op once")
    if orders[0] == orders[1]:
        problems.append(f"seeds {SEEDS} give the same order")
    if results[0] != results[1]:
        differ = sorted(k for k in results[0] if results[0][k] != results[1].get(k))
        problems.append(f"per-op results differ between seeds: {differ[:5]}")
    failed = {op_id for op_id, (passed, _got) in results[0].items() if not passed}
    defects = {op.id for op in w.ops if op.known_defect}
    if failed != defects:
        problems.append(f"failed ops {sorted(failed - defects)}; known defects that passed {sorted(defects - failed)}")
    print(f"{w.name}: {len(w.ops)} ops, {len(failed)} failed ({len(defects)} known defects), "
          f"orders differ: {orders[0] != orders[1]}")
    return problems


def check_benchmark_json() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != spans.UNITS:
        problems.append("BENCHMARK.json per_layer differs from spans.UNITS")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(mixes.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from mixes.WORKLOADS")
    return problems


def main() -> int:
    os.environ.pop("CDX_COLOR", None)
    expected = mixes.load_expected()
    problems = check_benchmark_json()
    for w in mixes.WORKLOADS.values():
        problems += [f"{w.name}: {p}" for p in check_workload(w, expected)]
    for p in problems:
        print(f"FAIL {p}")
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
