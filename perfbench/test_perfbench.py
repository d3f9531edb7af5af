"""Checks of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hostclock  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

EXPECTED = json.loads((HERE / "expected.json").read_text())


def _ops(tmp_path, workload, names, seed=7):
    sources = {name.partition(":")[2] or name.partition("@")[0] for name in names}
    assert workloads.write_inputs(tmp_path, tuple(sorted(sources)), seed) == []
    return [[op for op in workloads.WORKLOADS[workload](tmp_path, 0) if op.name in names]]


def test_wrong_expected_value_counts_as_failure(tmp_path):
    ops = _ops(tmp_path, "analyze", {"F24"})
    good = run.measure(ops, 2, EXPECTED["analyze"])
    assert good.failed == 0

    wrong = json.loads(json.dumps(EXPECTED["analyze"]))
    wrong["F24"]["sextet"][0] += 1
    bad = run.measure(ops, 2, wrong)
    assert bad.failed == 2 and len(bad.latencies) == 2


def test_failing_program_counts_as_failure(tmp_path):
    ops = _ops(tmp_path, "certify", {"fries:F28"})
    workloads.input_path(tmp_path, "F28", 0).write_text("not a graph\n")
    result = run.measure(ops, 2, EXPECTED["certify"])
    assert result.failed == 2


def test_relabelled_inputs_keep_identity(tmp_path):
    for copy in range(4):
        assert workloads.write_inputs(tmp_path, ("F30", "R5_2"), seed=3, copy=copy) == []
    texts = {workloads.input_path(tmp_path, "F30", c).read_text() for c in range(4)}
    assert len(texts) == 4


def test_traced_counts_repeat_exactly(tmp_path):
    names = {"leapfrog:F20", "two_resonance:F24", "fries:F28", "cyclic4:F28", "order:R6_5"}
    counts = []
    for _ in range(2):
        ops = _ops(tmp_path, "certify", names)
        tracer = Tracer()
        tracer.install()
        try:
            result = run.measure(ops, 2, EXPECTED["certify"], tracer, untraced=0)
        finally:
            tracer.uninstall()
        assert result.failed == 0
        metrics = layer_metrics(tracer, 2)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["leapfrog.two_resonance_certificate.calls"] > 0
    assert counts[0]["kernels.perfect_matchings.matchings"] > 0


def test_tail_has_ten_samples_beyond():
    pct, value = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0


def test_ops_per_s_takes_each_operations_median():
    # two operations over three passes; the second pass is slow for the first
    assert run.ops_per_s([1.0, 2.0, 100.0, 2.0, 1.0, 2.0], 2) == 2 / 3


def test_host_clock_scales_by_the_probe_around_the_interval(monkeypatch):
    readings = iter([1.0, 7.0, 1.0])  # probe times, in units of PROBE_REF_S
    monkeypatch.setattr(hostclock.HostClock, "probe", lambda self: next(readings) * hostclock.PROBE_REF_S)
    monkeypatch.setattr(hostclock, "HOST_EXPONENT", 0.5)
    clock = hostclock.HostClock()
    assert clock.scale(6.0) == 3.0  # probe 1 before, 7 after: mean 4, corrected by 4 ** 0.5
    assert clock.scale(6.0) == 3.0  # probe 7 before, 1 after


def test_changed_repeat_output_counts_as_failure():
    outputs = iter([b"1", b"2"])
    op = workloads.Op("x", lambda: None, lambda _: next(outputs), lambda data: 0)
    result = run.measure([[op]], 2, {"x": 0})
    assert result.failed == 1
