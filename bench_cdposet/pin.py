"""Pin the benchmark's inputs and expected results from the current code.

    python3 bench_cdposet/pin.py

Writes certs/*.cert (the transcribed fixture certificates and the
certificates the searches find) and expected.json (hashes of every generated
poset text and certificate, and every op's canonical result). These were
pinned once, at the commit that added the benchmark; a change to the library
must be measured against them, not re-pin them.
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
from cdposet import partition, zoo  # noqa: E402

FIXTURES = {"q-polytope", "torus-fig6", "torus-fig12"}


def pin_certificates(expected: dict) -> None:
    mixes.CERT_DIR.mkdir(exist_ok=True)
    for name, (family, params) in mixes.PINNED_CERTS.items():
        if family in FIXTURES:
            cert = zoo.fixture_certificate(family, params)
        elif (family, params) in mixes.SE_SEARCH:
            cert = partition.search_se_certificate(zoo.gen(family, params))
        else:
            cert = partition.search_s_certificate(zoo.gen(family, params))
        text = partition.format_certificate(cert)
        (mixes.CERT_DIR / f"{name}.cert").write_text(text, encoding="utf-8")
        expected["certs"][name] = mixes.sha256(text)


def main() -> int:
    expected: dict = {"inputs": {}, "certs": {}, "results": {}}
    pin_certificates(expected)
    for w in mixes.WORKLOADS.values():
        for pid, build in w.posets.items():
            expected["inputs"][pid] = mixes.sha256(build())
    os.environ.pop("CDX_COLOR", None)
    cwd = os.getcwd()
    for w in mixes.WORKLOADS.values():
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_work-") as tmp:
            inp = mixes.setup(w, expected, Path(tmp))
            os.chdir(tmp)
            try:
                for op in w.ops:
                    if op.expect is not None:
                        continue
                    raw, error = mixes.execute(op, inp)
                    if error is not None:
                        print(f"error: {w.name}: {op.id}: {error}", file=sys.stderr)
                        return 1
                    if op.id in expected["results"]:
                        print(f"error: op id {op.id!r} is not unique", file=sys.stderr)
                        return 1
                    expected["results"][op.id] = op.result(raw)
            finally:
                os.chdir(cwd)
    mixes.EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(expected['inputs'])} inputs, {len(expected['certs'])} certificates, "
          f"{len(expected['results'])} results")
    return 0


if __name__ == "__main__":
    sys.exit(main())
