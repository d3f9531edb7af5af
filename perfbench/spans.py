"""Layer spans and counts for the traced run, recorded from outside the program.

``Tracer.install`` replaces each layer's public function by a wrapper in
every ``resonantk`` module that holds it, i.e. at the names its callers look
up (``resonantk.kernels.mate_array``, ``resonantk.cli.sextet``, ...).  The
program's source is untouched and ``uninstall`` restores the originals.

A span is ``[parent, name, start, end]``; the benchmark opens one root span
per operation, and each root groups the spans of that operation.  Self time
is a span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

OP = "op"

# (module, function, span name, counts taken from (args, result)).
LAYERS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("resonantk.cli", "run", "cli", None),
    ("resonantk.plane_graph", "parse_graph", "plane_graph.parse_graph", None),
    ("resonantk.plane_graph", "validate_fullerene", "plane_graph.validate_fullerene", None),
    ("resonantk.plane_graph", "canonical_code", "plane_graph.canonical_code", None),
    (
        "resonantk.plane_graph",
        "verify_cyclic_edge_connectivity",
        "plane_graph.verify_cyclic_edge_connectivity",
        None,
    ),
    ("resonantk.kernels", "mate_array", "kernels.mate_array", None),
    (
        "resonantk.kernels",
        "perfect_matchings",
        "kernels.perfect_matchings",
        lambda args, out: {"matchings": len(out)},
    ),
    ("resonantk.kernels", "has_small_cyclic_cut", "kernels.has_small_cyclic_cut", None),
    (
        "resonantk.resonance",
        "sextet",
        "resonance.sextet",
        lambda args, out: {"resonant": sum(out.coefficients)},
    ),
    ("resonantk.resonance", "resonance_order", "resonance.resonance_order", None),
    ("resonantk.resonance", "find_g_star", "resonance.find_g_star", None),
    ("resonantk.resonance", "fries", "resonance.fries", None),
    ("resonantk.resonance", "hexagon_dichotomy_report", "resonance.hexagon_dichotomy_report", None),
    (
        "resonantk.rings_fragments",
        "find_polygonal_rings",
        "rings_fragments.find_polygonal_rings",
        lambda args, out: {"rings": len(out)},
    ),
    (
        "resonantk.rings_fragments",
        "maximal_pentagonal_fragments",
        "rings_fragments.maximal_pentagonal_fragments",
        None,
    ),
    ("resonantk.leapfrog", "leapfrog", "leapfrog.leapfrog", None),
    ("resonantk.leapfrog", "two_resonance_certificate", "leapfrog.two_resonance_certificate", None),
)

# Counted, without a span, against the innermost open span as
# "<span>.candidates": each call is one resonance test of a hexagon set.
CANDIDATE_TEST = ("resonantk.matching", "is_central")

# Per-layer metrics read off the spans by name, per traced pass:
# "<span>.s" is total time, "<span>.self_s" self time, anything else a count.
PER_LAYER = (
    "kernels.mate_array.calls",
    "kernels.mate_array.s",
    "resonance.sextet.self_s",
    "resonance.sextet.candidates",
    "resonance.sextet.resonant",
    "resonance.resonance_order.self_s",
    "resonance.find_g_star.s",
    "resonance.hexagon_dichotomy_report.self_s",
    "rings_fragments.find_polygonal_rings.s",
    "rings_fragments.find_polygonal_rings.rings",
    "rings_fragments.maximal_pentagonal_fragments.s",
    "plane_graph.parse_graph.s",
    "plane_graph.parse_graph.calls",
    "plane_graph.validate_fullerene.s",
    "plane_graph.canonical_code.s",
    "plane_graph.canonical_code.calls",
    "kernels.perfect_matchings.s",
    "kernels.perfect_matchings.matchings",
    "resonance.fries.self_s",
    "kernels.has_small_cyclic_cut.s",
    "kernels.has_small_cyclic_cut.calls",
    "plane_graph.verify_cyclic_edge_connectivity.s",
    "leapfrog.leapfrog.s",
    "leapfrog.two_resonance_certificate.s",
    "leapfrog.two_resonance_certificate.calls",
    "cli.self_s",
)


class Tracer:
    """Spans and counts of the calls made inside an open root span."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        record = [parent, name, perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = perf_counter()
            self._stack.pop()

    def _wrap_span(self, name: str, fn: Callable, counts: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            with self.span(name):
                out = fn(*args, **kwargs)
            self.counts[f"{name}.calls"] += 1
            if counts is not None:
                for key, k in counts(args, out).items():
                    self.counts[f"{name}.{key}"] += k
            return out

        return wrapper

    def _wrap_count(self, key: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self._stack:
                owner = self.spans[self._stack[-1]][1]
                self.counts[f"{owner}.{key}"] += 1
            return out

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Put the wrappers in place of every reference the package holds."""
        for module, func, span, counts in LAYERS:
            original = getattr(importlib.import_module(module), func)
            self._replace(original, self._wrap_span(span, original, counts))
        module, func = CANDIDATE_TEST
        original = getattr(importlib.import_module(module), func)
        self._replace(original, self._wrap_count("candidates", original))

    def _replace(self, original: object, wrapper: object) -> None:
        for name, mod in list(sys.modules.items()):
            if name != "resonantk" and not name.startswith("resonantk."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def layer_times(self) -> tuple[Counter[str], Counter[str]]:
        """Total and self seconds per span name."""
        total: Counter[str] = Counter()
        child: list[float] = [0.0] * len(self.spans)
        for parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter[str] = Counter()
        for i, (_, name, start, end) in enumerate(self.spans):
            total[name] += end - start
            self_s[name] += end - start - child[i]
        return total, self_s

    def write(self, path: Path) -> None:
        """One JSON line per span: [id, parent, name, start, end]."""
        with open(path, "w") as fh:
            for i, (parent, name, start, end) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name, start, end]) + "\n")


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of ``passes`` traced passes: name -> (value, unit)."""
    total, self_s = tracer.layer_times()
    out = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = (self_s[name.removesuffix(".self_s")] / passes, "s")
        elif name.endswith(".s"):
            out[name] = (total[name.removesuffix(".s")] / passes, "s")
        else:
            out[name] = (tracer.counts[name] / passes, "count")
    candidates = tracer.counts["resonance.sextet.candidates"]
    resonant = tracer.counts["resonance.sextet.resonant"]
    out["resonance.sextet.useful_ratio"] = (resonant / candidates if candidates else 0.0, "ratio")
    out["trace.uncovered_share"] = (100.0 * self_s[OP] / total[OP] if total[OP] else 0.0, "%")
    return out
