"""Face-spiral winding."""

from __future__ import annotations

import hashlib
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resonantk.catalog import catalog_graph, catalog_names, catalog_spiral
from resonantk.errors import GraphError
from resonantk.plane_graph import canonical_code, faces, validate_fullerene
from resonantk._spiral import _spirals, wind

F20_SPIRAL = [5] * 12
F24_SPIRAL = [6] + [5] * 12 + [6]
F40_SPIRAL = [5] + [6] * 5 + [5] * 10 + [6] * 5 + [5]
# pentagon positions 1,7,9,11,13,15,18,20,22,24,26,32 of 32 faces
C60_SPIRAL = [
    5, 6, 6, 6, 6, 6, 5, 6, 5, 6, 5, 6, 5, 6, 5, 6,
    6, 5, 6, 5, 6, 5, 6, 5, 6, 5, 6, 6, 6, 6, 6, 5,
]


def test_dodecahedron_winds():
    g = wind(F20_SPIRAL)
    assert g is not None
    f = validate_fullerene(g)
    assert f.n == 20
    assert canonical_code(f) == canonical_code(catalog_graph("F20").graph)


def test_barrel_and_tube_spirals_match_catalog():
    for seq, name in ((F24_SPIRAL, "F24"), (F40_SPIRAL, "F40")):
        g = wind(seq)
        assert g is not None
        assert canonical_code(g) == canonical_code(catalog_graph(name).graph)


def test_c60_spiral_matches_catalog():
    g = wind(C60_SPIRAL)
    assert g is not None
    assert canonical_code(g) == canonical_code(catalog_graph("C60").graph)


def test_rejects_unwindable():
    # wrong totals: 11 pentagons cannot close a cubic sphere
    assert wind([5] * 11) is None
    assert wind([5] * 12 + [6]) is None  # face/vertex count mismatch
    assert wind([5, 5]) is None  # too few faces
    assert wind([]) is None
    # right totals, wrong order: all hexagons first strands the pentagons
    assert wind([6] * 20 + [5] * 12) is None


@pytest.mark.parametrize(
    "seq, bad",
    [
        ([5.0] * 12, "5.0"),
        (["5"] * 12, "'5'"),
        ([5] * 11 + [5.0], "5.0"),
        ([True] * 4, "True"),
        ([5] * 3 + [None], "None"),
    ],
)
def test_non_integer_sizes_are_graph_errors(seq, bad):
    with pytest.raises(GraphError, match=f"face size must be an integer, got {bad}"):
        wind(seq)


@pytest.mark.parametrize("seq", [5, None])
def test_non_iterable_spirals_are_graph_errors(seq):
    with pytest.raises(GraphError, match=f"face sizes must be an iterable of integers, got {seq}"):
        wind(seq)


def test_winding_spirals_pinned():
    # every spiral of 5s and 6s for n = 20...30 (8,568 sequences): which wind,
    # and the rotation each winds to, hashed in order
    digest = hashlib.sha256()
    counts = []
    for n in range(20, 31, 2):
        n_faces = n // 2 + 2
        wound = 0
        for pentagons in itertools.combinations(range(n_faces), 12):
            seq = [6] * n_faces
            for p in pentagons:
                seq[p] = 5
            g = wind(seq)
            if g is not None:
                wound += 1
                digest.update(repr((tuple(seq), g.rotation)).encode())
        counts.append(wound)
    assert counts == [1, 0, 6, 13, 48, 93]
    assert digest.hexdigest() == "5184a09b9c3e4b7760c93a7de71e0c8c78428f154c6b4ff79ccb2d88b9512d51"


def test_spiral_search_winds_as_wind_does():
    # the prefix search yields test_winding_spirals_pinned's spirals, in the
    # same order and with the same rotations
    digest = hashlib.sha256()
    counts = []
    for n in range(20, 31, 2):
        found = list(_spirals(n))
        counts.append(len(found))
        for seq, g in found:
            digest.update(repr((tuple(seq), g.rotation)).encode())
    assert counts == [1, 0, 6, 13, 48, 93]
    assert digest.hexdigest() == "5184a09b9c3e4b7760c93a7de71e0c8c78428f154c6b4ff79ccb2d88b9512d51"


def test_catalog_and_tube_rotations_pinned():
    # vertex numbering past n = 30: every catalog spiral (up to C70) and the
    # R5/R6 tubes with 1...8 hexagon rings (up to 120 vertices)
    spirals = [catalog_spiral(name) for name in catalog_names()]
    for k in (5, 6):
        spirals += [[k] + [5] * k + [6] * (k * rings) + [5] * k + [k] for rings in range(1, 9)]
    digest = hashlib.sha256()
    for seq in spirals:
        digest.update(repr(wind(seq).rotation).encode())
    assert digest.hexdigest() == "98f9004d860505e98ccf78d057a12c5eefe33e6e89d4a6433da0e118cbe565e2"


@st.composite
def _closing_sequences(draw):
    """Face sizes 3...8 whose last size makes the total 3(2F - 4), F the face count."""
    n_faces = draw(st.integers(4, 20))
    head = draw(st.lists(st.integers(3, 8), min_size=n_faces - 1, max_size=n_faces - 1))
    last = 3 * (2 * n_faces - 4) - sum(head)
    assume(3 <= last <= 8)
    return head + [last]


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.lists(st.sampled_from([5, 6]), min_size=4, max_size=26),
        _closing_sequences(),
    )
)
def test_wind_never_crashes_and_valid_when_it_returns(seq):
    g = wind(seq)
    if g is None:
        return
    # anything that winds is a plane cubic graph with the requested faces
    sizes = sorted(face.size for face in faces(g))
    assert sizes == sorted(seq)
    if set(seq) <= {5, 6}:
        validate_fullerene(g)
