"""Shared fixtures: catalog graphs built once per session.

Graph objects keep expensive per-graph tables (the sextet walk's summary,
the pentagonal ring scan), so sharing instances across test modules keeps the
whole suite fast.  The acceptance module records one verdict per numbered
check into RESULTS; the terminal-summary hook prints them as a block.
"""

from __future__ import annotations

import random

import pytest

from resonantk.catalog import catalog_graph, catalog_names, nanotube
from resonantk.plane_graph import EmbeddedGraph, FullereneGraph, validate_fullerene

# check number -> (description, passed)
RESULTS: dict[int, tuple[str, bool]] = {}


@pytest.fixture(scope="session")
def catalog():
    """All catalog entries by name, built once."""
    return {name: catalog_graph(name) for name in catalog_names()}


@pytest.fixture(scope="session")
def graphs(catalog):
    """The catalog's FullereneGraph objects by name."""
    return {name: entry.graph for name, entry in catalog.items()}


@pytest.fixture(scope="session")
def tubes():
    """Capped nanotubes for both cap kinds, 1..3 hexagon rings."""
    return {
        (cap, k): nanotube(cap, k) for cap in ("R5", "R6") for k in (1, 2, 3)
    }


@pytest.fixture(scope="session")
def gen_catalog():
    """``tools/gen_catalog.py`` loaded as a module, for its isomer search."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "tools" / "gen_catalog.py"
    spec = importlib.util.spec_from_file_location("gen_catalog", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def isomers(gen_catalog):
    """Every fullerene isomer with 20..30 vertices, by n: (canonical code, spiral) pairs."""
    return {n: gen_catalog.search_isomers(n) for n in range(20, 31, 2)}


def relabelled_rotation(g: EmbeddedGraph, seed: int) -> EmbeddedGraph:
    """``relabel(f, seed).graph`` for ``g = f.graph``.

    g may be any ``EmbeddedGraph``, not only a fullerene's, and the result is
    checked when built, as g was.
    """
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    mirror = rng.random() < 0.5
    rotation = [()] * g.n
    for v, ring in enumerate(g.rotation):
        nbrs = [perm[w] for w in (reversed(ring) if mirror else ring)]
        k = rng.randrange(3)
        rotation[perm[v]] = tuple(nbrs[k:] + nbrs[:k])
    return EmbeddedGraph(tuple(rotation))


def _relabelled(f: FullereneGraph, seed: int) -> FullereneGraph:
    return validate_fullerene(relabelled_rotation(f.graph, seed))


@pytest.fixture(scope="session")
def relabel():
    """``relabel(f, seed)``: the same fullerene under a seeded random labelling.

    As in the benchmark's inputs, the embedding may be mirrored and each
    rotation starts at a random neighbour.  Vertex v becomes ``perm[v]``,
    where ``perm`` is ``list(range(f.n))`` shuffled by ``random.Random(seed)``.
    """
    return _relabelled


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance checks")
    for number in sorted(RESULTS):
        description, passed = RESULTS[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[acceptance] {number:2d}: {verdict} - {description}")
