"""Recompute ``expected.json`` from the unrelabelled inputs.

    python3 perfbench/freeze.py

The expected values are frozen: regenerate them only for a change that is
meant to alter the program's results, and review the diff.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src/ on the path)


def main() -> int:
    expected = {}
    workdir = ROOT / ".perfbench_work" / "freeze"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for workload, make_ops in workloads.WORKLOADS.items():
            sources = workloads.SOURCES[workload]
            if workloads.write_inputs(workdir, sources, seed=None):
                raise SystemExit("an unrelabelled input changed identity")
            expected[workload] = {}
            for op in make_ops(workdir, 0):
                result = op.call()
                if op.verify is not None:
                    op.verify(result)
                expected[workload][op.name] = op.summary(op.finish(result))
                print(f"{workload} {op.name}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = Path(__file__).parent / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
