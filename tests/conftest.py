"""Shared fixtures: catalog graphs built once per session.

Graph objects keep expensive per-graph tables (the sextet walk's summary,
the pentagonal ring scan), so sharing instances across test modules keeps the
whole suite fast.  The acceptance module records one verdict per numbered
check into RESULTS; the terminal-summary hook prints them as a block.
``search_isomers`` lists every isomer of an order, and ``KNOWN_COUNTS``
holds the published tallies it must reproduce.
"""

from __future__ import annotations

import random

import pytest

from resonantk._spiral import _spirals
from resonantk.catalog import catalog_graph, catalog_names, nanotube
from resonantk import plane_graph
from resonantk.plane_graph import (
    Automorphism,
    EmbeddedGraph,
    FullereneGraph,
    canonical_code,
    faces,
    validate_fullerene,
)

# check number -> (description, passed)
RESULTS: dict[int, tuple[str, bool]] = {}

# the published fullerene isomer tallies by order (Fowler & Manolopoulos,
# An Atlas of Fullerenes, 1995)
KNOWN_COUNTS = {20: 1, 22: 0, 24: 1, 26: 1, 28: 2, 30: 3, 32: 6, 34: 6, 36: 15, 38: 17}


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


def search_isomers(n: int) -> list[tuple[bytes, list[int]]]:
    """Every isomer of order n as (canonical code, its first winding spiral), by code.

    ``_spirals`` finds every fullerene that has a face spiral, and every
    fullerene with fewer than 380 vertices has one.
    """
    found: dict[bytes, list[int]] = {}
    for seq, g in _spirals(n):
        found.setdefault(canonical_code(g), seq)
    return sorted(found.items())


@pytest.fixture(scope="session")
def isomers():
    """Every fullerene isomer with 20..30 vertices, by n: ``search_isomers(n)``."""
    return {n: search_isomers(n) for n in range(20, 31, 2)}


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


def check_automorphism(g: EmbeddedGraph, a: Automorphism) -> None:
    """The map sends each rotation onto the image vertex's, reversed for a reflection."""
    assert sorted(a.perm) == list(range(g.n))
    for v, ring in enumerate(g.rotation):
        image = [a.perm[w] for w in (reversed(ring) if a.reverses else ring)]
        target = g.rotation[a.perm[v]]
        k = target.index(image[0])
        assert target[k:] + target[:k] == tuple(image), (a, v)


def _pentagon_starts(g: EmbeddedGraph) -> set[tuple[int, int, int]]:
    """The (orientation, u, v) starts whose face is a pentagon, and whose other face is one too when two meet.

    The start's face is that of arc (u, v) in orientation 0 and of (v, u) in orientation 1.
    """
    fs = faces(g)
    on = {arc for arc, face in fs._arc_face.items() if fs[face].size == 5}
    kept = {(u, v) for u, v in on if (v, u) in on} or on
    return {(0, u, v) for u, v in kept} | {(1, v, u) for u, v in kept}


def matches_every_start(graphs: dict[str, EmbeddedGraph], sixth: int | None = None) -> set[int]:
    """Check the pass against the every-start oracle on each graph as given,
    relabelled with each rotation turned, and reflected; return the group orders.

    The oracle's tied starts are one per automorphism.  So a group of as many
    distinct automorphisms, identity first, is the whole group.  With
    ``sixth`` (the graphs are then fullerenes), each code begins
    (1,2,3), (0,4,5), (0,6,7), (0,8,9), (1,9,10), (1,11,sixth), and every tie
    starts on a pentagon, and on two pentagons when two meet.
    """
    from oracles import canonical_pass_by_every_start

    orders = set()
    for seed, (name, g) in enumerate(graphs.items()):
        reflected = EmbeddedGraph(tuple(ring[::-1] for ring in g.rotation))
        for variant in (g, relabelled_rotation(g, seed), reflected):
            code, ties = canonical_pass_by_every_start(variant)
            got, group = plane_graph._canonical_pass(variant)
            assert got == code, name
            assert len(group) == len(ties), name
            assert group[0] == Automorphism(tuple(range(variant.n)), False), name
            assert len({a.perm for a in group}) == len(group), name
            for a in group:
                check_automorphism(variant, a)
            if sixth is not None:
                assert tuple(code[1:19]) == (1, 2, 3, 0, 4, 5, 0, 6, 7, 0, 8, 9, 1, 9, 10, 1, 11, sixth), name
                assert {(d, *labelling[:2]) for d, labelling in ties} <= _pentagon_starts(variant), name
            orders.add(len(group))
    return orders


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
