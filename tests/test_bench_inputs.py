"""The benchmark's inputs and cd results still match those pinned in ``bench_cdposet/expected.json``.

Set-up builds every benchmark poset with ``cdposet.zoo`` and raises
``InputMismatch`` on any drift, so a change to the zoo that alters an input
fails here, not only in a benchmark run.  Each op of the ``cd`` workload runs
once through the benchmark's own oracle, so a wrong cd-index fails here too.
The benchmark files are only read.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

MIXES = Path(__file__).resolve().parent.parent / "bench_cdposet" / "mixes.py"


@pytest.fixture(scope="module")
def mixes():
    spec = importlib.util.spec_from_file_location("bench_cdposet_mixes", MIXES)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("workload", ["cd", "certify"])
def test_setup_matches_the_pinned_inputs(mixes, workload, tmp_path):
    workload = mixes.WORKLOADS[workload]
    inputs = mixes.setup(workload, mixes.load_expected(), tmp_path)  # InputMismatch on any drift
    assert set(inputs.posets) == set(workload.posets) and set(inputs.certs) == set(workload.certs)


def test_cd_ops_give_the_pinned_results(mixes, tmp_path):
    workload, expected = mixes.WORKLOADS["cd"], mixes.load_expected()
    inputs = mixes.setup(workload, expected, tmp_path)
    wrong = {}
    for op in workload.ops:
        raw, error = mixes.execute(op, inputs)
        passed, got = mixes.judge(op, raw, error, expected)
        if not passed:
            wrong[op.id] = got
    assert wrong == {}
