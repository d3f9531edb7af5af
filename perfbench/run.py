"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Set-up writes the seeded inputs under ``.perfbench_work/``; the
run then makes whole passes over the workload's operations, one at a time
from this one thread (a closed loop with one client), checking every output.
Each pass but the last runs its own labelling of the inputs; the last
repeats the first, whose outputs must come back byte for byte.  Every
time is corrected for the shared host's drifting speed (``hostclock.py``).
With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` the first passes run untraced and the rest traced, and the
last line carries the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from hostclock import HostClock
from spans import OP, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
TAIL_BEYOND = 10


class Run:
    """Latencies, failures and output digests of the operations run so far.

    ``latencies`` are corrected by ``clock``; ``wall`` holds them as timed.
    """

    def __init__(self, expected: dict, clock: HostClock) -> None:
        self.expected = expected
        self.clock = clock
        self.latencies: list[float] = []
        self.wall: list[float] = []
        self.failed = 0
        self.digests: dict[tuple[int, str], str] = {}

    def fail(self, op_name: str, why: str) -> bool:
        self.failed += 1
        print(f"FAIL {op_name}: {why}", file=sys.stderr)
        return False

    def _timed(self, wall_s: float) -> None:
        self.wall.append(wall_s)
        self.latencies.append(self.clock.scale(wall_s))

    def op(self, op, copy: int, tracer=None) -> bool:
        """Run and check one operation on input ``copy``; a failure is counted, never raised."""
        start = perf_counter()
        try:
            with tracer.span(OP) if tracer is not None else nullcontext():
                result = op.call()
        except Exception:  # the program failed this op; count it and go on
            self._timed(perf_counter() - start)
            return self.fail(op.name, traceback.format_exc())
        self._timed(perf_counter() - start)
        try:
            out = op.finish(result)
            digest = hashlib.sha256(out).hexdigest()
            if (copy, op.name) in self.digests:
                if digest != self.digests[copy, op.name]:
                    return self.fail(op.name, "output differs from an earlier run of the same input")
                return True
            if op.verify is not None:
                op.verify(result)
            got = json.loads(json.dumps(op.summary(out)))
        except Exception as e:  # an unreadable output or a bad certificate
            return self.fail(op.name, f"{type(e).__name__}: {e}")
        want = self.expected.get(op.name)
        if got != want:
            return self.fail(op.name, f"expected {want!r}, got {got!r}")
        self.digests[copy, op.name] = digest
        return True


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it, and its value.

    Runs make at least two passes of nine or more operations, so there are
    always more than ``TAIL_BEYOND`` samples.
    """
    xs = sorted(latencies)
    k = len(xs) - TAIL_BEYOND - 1
    return 100.0 * (k + 1) / len(xs), xs[k]


def measure(
    ops_by_copy: list[list], passes: int, expected: dict, tracer=None, untraced: int = 0, clock=None
) -> Run:
    """Run ``passes`` passes, pass p over input copy p mod the number of copies.

    Passes from ``untraced`` on are traced.
    """
    run = Run(expected, clock or HostClock())
    for p in range(passes):
        copy = p % len(ops_by_copy)
        traced = tracer if tracer is not None and p >= untraced else None
        for op in ops_by_copy[copy]:
            run.op(op, copy, traced)
    return run


def ops_per_s(latencies: list[float], ops_per_pass: int) -> float:
    """Operations per second of a pass in which each operation takes its median latency.

    ``latencies`` holds whole passes in order.  An operation's median is
    over passes made at different times of the run and on different
    labellings, so neither a slow spell of the shared host nor a labelling
    that is unusually hard for one operation (``fries`` on F40 takes from
    55 to 330 ms by labelling) moves the figure much.  Only the operations'
    own calls are timed: the output checks between them are think time.
    """
    n = ops_per_pass
    return n / sum(statistics.median(latencies[i::n]) for i in range(n))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "resonantk" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'resonantk'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    clock = HostClock()
    start = perf_counter()
    import workloads  # imports resonantk
    import_wall = perf_counter() - start
    import_s = clock.scale(import_wall)

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import resonantk.kernels

    expected = json.loads((Path(__file__).parent / "expected.json").read_text())[args.workload]
    sources = workloads.SOURCES[args.workload]
    # At least two passes, so that an input repeats.
    passes = max(2, round(args.seconds / workloads.PASS_SECONDS[args.workload]))
    if args.trace:
        # The traced half of the passes runs the labellings of the untraced half.
        copies = passes // 2
        passes = 2 * copies
    else:
        # A labelling per pass spreads the run over as many as it can; the
        # last pass repeats the first labelling to check repeats.
        copies = passes - 1
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # One set-up per labelling; setup_s takes their median.
        setup_times, setup_wall, mismatched = [], [], []
        for copy in range(copies):
            start = perf_counter()
            mismatched += workloads.write_inputs(workdir, sources, args.seed, copy)
            setup_wall.append(perf_counter() - start)
            setup_times.append(clock.scale(setup_wall[-1]))
        for name in mismatched:
            print(f"FAIL set-up {name}: relabelled input changed identity", file=sys.stderr)

        ops_by_copy = [workloads.WORKLOADS[args.workload](workdir, c) for c in range(copies)]
        tracer = Tracer() if args.trace else None
        untraced = copies if args.trace else passes
        if tracer is not None:
            tracer.install()
        try:
            run = measure(ops_by_copy, passes, expected, tracer, untraced, clock)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(run.latencies) + copies * len(sources)
    failed = run.failed + len(mismatched)
    pct, tail_s = tail(run.latencies)
    ops_per_pass = len(ops_by_copy[0])
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "backend": resonantk.kernels.BACKEND,
        "nproc": os.cpu_count(),
        "passes": passes,
        "labellings": copies,
        "ops_per_pass": ops_per_pass,
        "samples": len(run.latencies),
        "tail_percentile": pct,
        "tail_samples_beyond": TAIL_BEYOND,
        "error_rate": failed / attempted,
        "probe_ms_median": 1e3 * statistics.median(clock.readings),
    }
    if tracer is None:
        metrics = {
            "ops_per_s": (ops_per_s(run.latencies, ops_per_pass), "1/s"),
            "op_ms.p50": (1e3 * statistics.median(run.latencies), "ms"),
            "op_ms.tail": (1e3 * tail_s, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (import_s + statistics.median(setup_times), "s"),
        }
        info["wall"] = {
            "ops_per_s": ops_per_s(run.wall, ops_per_pass),
            "op_ms.p50": 1e3 * statistics.median(run.wall),
            "op_ms.tail": 1e3 * tail(run.wall)[1],
            "setup_s": import_wall + statistics.median(setup_wall),
        }
    else:
        traced_passes = passes - untraced
        metrics = layer_metrics(tracer, traced_passes)
        split = untraced * ops_per_pass
        info["untraced_ops_per_s"] = ops_per_s(run.latencies[:split], ops_per_pass)
        info["traced_ops_per_s"] = ops_per_s(run.latencies[split:], ops_per_pass)
        metrics["trace.ops_per_s_delta"] = (info["traced_ops_per_s"] - info["untraced_ops_per_s"], "1/s")
        spans_file = ROOT / ".perfbench_work" / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_file)
        info["spans"] = str(spans_file.relative_to(ROOT))
    print(json.dumps({"info": info}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
