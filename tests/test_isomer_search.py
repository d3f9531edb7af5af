"""Every fullerene isomer with 20..38 vertices: the catalog's pins and the paper's theorems.

Marked ``slow``, which the default options deselect; run it with
``python -m pytest -m slow``.  It searches every face spiral of each even
order 20...38 (``conftest.search_isomers``), checks the isomer tallies
against the published counts, pins each named catalog isomer of those
orders by its invariants and checks that the pinned isomer's spiral is the
one the catalog winds for that name.  Then it checks the paper's theorems
on all 52 isomers and on their leapfrog images.

The catalog checks the fast suite already makes stay there: the facts of
every entry as wound from its spiral (``test_every_entry_verifies``),
C60 = Le(F20) (``test_image_is_c60``), C70's failing 3-set
(``test_criterion_05_c70_order_two``) and isolated pentagons
(``test_ipr_c70``), and a Tutte witness for each catalog entry's failing set
(``test_every_failing_set_has_a_witness``).
"""

from __future__ import annotations

from itertools import combinations

import pytest

from conftest import KNOWN_COUNTS, search_isomers

from resonantk._spiral import wind
from resonantk.catalog import THE_NINE, _facts, catalog_graph, catalog_spiral
from resonantk.leapfrog import leapfrog, two_resonance_certificate
from resonantk.matching import alternating_faces, tutte_witness
from resonantk.plane_graph import canonical_code, delete_vertices, validate_fullerene
from resonantk.resonance import ALL, find_g_star, resonance_order, sextet
from resonantk.rings_fragments import detect_r5_r6, maximal_pentagonal_fragments

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def every_isomer(isomers):
    """Every isomer with 20..38 vertices by n, as ``search_isomers(n)`` gives them."""
    return {**isomers, **{n: search_isomers(n) for n in range(32, 39, 2)}}


@pytest.fixture(scope="module")
def wound(every_isomer):
    """The isomers' graphs by n, in the order of ``every_isomer[n]``."""
    return {
        n: [validate_fullerene(wind(seq)) for _, seq in found] for n, found in every_isomer.items()
    }


def test_isomer_tallies_match_the_published_counts(every_isomer):
    assert {n: len(found) for n, found in every_isomer.items()} == KNOWN_COUNTS


def test_f20_and_f24_are_the_only_isomers_of_their_order(every_isomer):
    for name, n in (("F20", 20), ("F24", 24)):
        assert [code for code, _ in every_isomer[n]] == [canonical_code(catalog_graph(name).graph)]


def _pinned(every_isomer, wound, name, pin):
    """The one isomer of the entry's order that ``pin`` accepts, with the entry's facts and spiral."""
    entry = catalog_graph(name)
    n = entry.graph.n
    hits = [i for i, f in enumerate(wound[n]) if pin(f)]
    assert len(hits) == 1, (name, hits)
    f = wound[n][hits[0]]
    assert _facts(f) == entry.expected, name
    assert every_isomer[n][hits[0]][1] == catalog_spiral(name), name
    return f


@pytest.mark.parametrize("name", ["F28", "F32", "F36_1", "F36_2"])
def test_catalog_isomer_pinned_by_its_facts(every_isomer, wound, name):
    # the one isomer of its order with the catalog's sextet polynomial,
    # least pentagonal ring and resonance order
    want = catalog_graph(name).expected
    f = _pinned(every_isomer, wound, name, lambda g: _facts(g) == want)
    if name == "F36_1":
        maximal = [fr.shape for fr in maximal_pentagonal_fragments(f) if fr.maximal]
        assert maximal == ["TURTLE", "TURTLE"]


def test_f30_pinned_by_a_cap_and_a_g_star_witness(every_isomer, wound):
    # the one isomer with a pentagonal cap and a vertex whose three opposite
    # faces are disjoint hexagons; the tube's five-hexagon belt has no such vertex
    _pinned(every_isomer, wound, "F30", lambda f: bool(detect_r5_r6(f)) and find_g_star(f) is not None)


def _has_tutte_witness(f, failing) -> bool:
    """Whether what the failing hexagons leave has a Tutte barrier with positive deficit."""
    w = tutte_witness(delete_vertices(f, set().union(*(f.faces[h].vertices for h in failing))))
    return w is not None and w.deficit > 0


def test_the_paper_theorems_hold_on_every_isomer_with_20_to_38_vertices(every_isomer, wound):
    # Every hexagon is resonant (sigma_1 counts them all), the order is at
    # least 3 exactly for the nine, every leapfrog image is exactly
    # 2-resonant (C60 = Le(F20) is fully resonant) with a certificate for
    # each disjoint hexagon pair, and every failing set has a Tutte witness.
    nine = {canonical_code(catalog_graph(name).graph): name for name in THE_NINE}
    three_resonant = []
    pairs = 0
    for n, found in every_isomer.items():
        for (code, _), f in zip(found, wound[n]):
            assert sextet(f).sigma(1) == len(f.hexagon_ids), (n, code)
            order = resonance_order(f)
            assert (order.order == ALL or order.order >= 3) == (code in nine), (n, code)
            if code in nine:
                three_resonant.append(nine[code])
            lf = leapfrog(f)
            image = lf.image
            image_order = resonance_order(image)
            assert image_order.order == (ALL if nine.get(code) == "F20" else 2), (n, code)
            for rep, g in ((order, f), (image_order, image)):
                assert rep.failing is None or _has_tutte_witness(g, rep.failing), (n, code)
            vertices = image.faces.vertex_masks
            alternating = {}  # pairs that flip the same faces share one certificate
            for a, b in combinations(image.hexagon_ids, 2):
                if vertices[a] & vertices[b]:
                    continue
                cert = two_resonance_certificate(lf, a, b)
                if cert not in alternating:
                    alternating[cert] = set(alternating_faces(image, cert))
                assert {a, b} <= alternating[cert], (n, code, a, b)
                pairs += 1
    assert sorted(three_resonant) == ["F20", "F24", "F28", "F32", "F36_1", "F36_2"]
    assert sum(map(len, wound.values())) == 52
    assert pairs == 40432
