#!/usr/bin/env python3
"""One-off generator for the frozen catalog data files.

Winds every face spiral with 12 pentagons for the small vertex counts,
deduplicates isomers by canonical code, cross-checks the isomer tallies
against the published counts, then pins each named catalog target by its
invariant signature (sextet polynomial, minimum pentagonal-ring length,
fragment shapes, cap/obstruction structure).  Pinned graphs are written to
src/resonantk/data/*.rot with construction notes.

Run from the repository root:  python3 tools/gen_catalog.py
"""

from __future__ import annotations

import os
import sys
import time
from itertools import combinations

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from resonantk._spiral import wind  # noqa: E402
from resonantk.plane_graph import (  # noqa: E402
    canonical_code,
    emit_graph,
    validate_fullerene,
)
from resonantk.leapfrog import leapfrog  # noqa: E402
from resonantk.resonance import find_g_star, resonance_order, sextet  # noqa: E402
from resonantk.rings_fragments import (  # noqa: E402
    detect_r5_r6,
    maximal_pentagonal_fragments,
    tau,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "resonantk", "data")

# published fullerene isomer tallies for the orders searched here
KNOWN_COUNTS = {20: 1, 22: 0, 24: 1, 26: 1, 28: 2, 30: 3, 32: 6, 36: 15}


def search_isomers(n: int) -> list[tuple[bytes, list[int]]]:
    """All isomers of order n as (canonical code, one winding spiral)."""
    nf = n // 2 + 2
    found: dict[bytes, list[int]] = {}
    t0 = time.time()
    tried = 0
    for pent_pos in combinations(range(nf), 12):
        tried += 1
        pents = set(pent_pos)
        seq = [5 if i in pents else 6 for i in range(nf)]
        g = wind(seq)
        if g is None:
            continue
        code = canonical_code(g)
        if code not in found:
            found[code] = seq
    print(
        f"n={n}: {len(found)} isomers from {tried} spiral candidates "
        f"({time.time() - t0:.1f}s)"
    )
    return sorted(found.items())


def describe(seq: list[int]) -> dict:
    f = validate_fullerene(wind(seq))
    poly = sextet(f).coefficients
    order = resonance_order(f)
    caps = detect_r5_r6(f)
    frs = maximal_pentagonal_fragments(f)
    return {
        "seq": seq,
        "f": f,
        "poly": poly,
        "tau": tau(f),
        "order": order.order,
        "failing": order.failing,
        "caps": sorted(set(w.kind for w in caps)),
        "ncaps": len(caps),
        "gstar": find_g_star(f),
        "shapes": sorted(fr.shape for fr in frs),
        "maximal_shapes": sorted(fr.shape for fr in frs if fr.maximal),
    }


def emit(name: str, seq: list[int], notes: list[str]) -> None:
    g = wind(seq)
    f = validate_fullerene(g)
    spiral = " ".join(str(s) for s in seq)
    comments = [
        f"{name}: fullerene rotation system, {g.n} vertices, "
        f"{len(f.pentagon_ids)} pentagons / {len(f.hexagon_ids)} hexagons",
        f"wound from face spiral: {spiral}",
        *notes,
    ]
    path = os.path.join(DATA_DIR, f"{name.lower()}.rot")
    with open(path, "w") as fh:
        fh.write(emit_graph(g, comments))
    print(f"  wrote {path}")


def main() -> None:
    os.makedirs(DATA_DIR, exist_ok=True)

    # --- calibration: the searcher must see exactly the known tallies -----
    iso = {n: search_isomers(n) for n in (20, 24, 28, 30, 32, 36)}
    for n, entries in iso.items():
        assert len(entries) == KNOWN_COUNTS[n], (
            f"isomer search for n={n} found {len(entries)}, expected {KNOWN_COUNTS[n]}"
        )
    print("isomer tallies match the published counts\n")

    # --- describe every candidate isomer ---------------------------------
    details: dict[int, list[dict]] = {}
    for n in (28, 30, 32, 36):
        details[n] = [describe(seq) for _, seq in iso[n]]
        print(f"--- n={n} ---")
        for i, d in enumerate(details[n]):
            print(
                f"  [{i}] poly={d['poly']} tau={d['tau']} order={d['order']} "
                f"caps={d['caps']}x{d['ncaps']} gstar={'yes' if d['gstar'] else 'no'} "
                f"maximal_shapes={d['maximal_shapes']}"
            )
        print()

    # --- pin the named targets -------------------------------------------
    def pin(n: int, predicate, label: str) -> dict:
        hits = [d for d in details[n] if predicate(d)]
        assert len(hits) == 1, f"{label}: {len(hits)} isomers match the pin"
        print(f"pinned {label}: spiral {' '.join(map(str, hits[0]['seq']))}")
        return hits[0]

    f28 = pin(28, lambda d: d["poly"] == (1, 4, 4) and d["tau"] == 8, "F28")
    f32 = pin(32, lambda d: d["poly"] == (1, 6, 9) and d["tau"] == 9, "F32")
    f36_1 = pin(
        36,
        lambda d: d["poly"] == (1, 8, 20, 16, 2) and d["tau"] is None,
        "F36_1",
    )
    f36_2 = pin(
        36,
        lambda d: d["poly"] == (1, 8, 18, 8, 1) and d["tau"] == 10,
        "F36_2",
    )
    assert f36_1["maximal_shapes"] == ["TURTLE", "TURTLE"], f36_1["maximal_shapes"]

    # F30: the isomer that carries a cap AND the three-disjoint-hexagon
    # obstruction around a vertex (the tube's five-hexagon belt cannot).
    f30 = pin(
        30,
        lambda d: d["ncaps"] > 0 and d["gstar"] is not None,
        "F30",
    )

    emit("F28", f28["seq"], ["pinned by sextet polynomial (1,4,4) and min pentagonal ring 8"])
    emit("F30", f30["seq"], [
        "pinned among the three 30-vertex isomers: has a pentagonal cap and",
        "a vertex whose three opposite faces are pairwise disjoint hexagons",
    ])
    emit("F32", f32["seq"], ["pinned by sextet polynomial (1,6,9) and min pentagonal ring 9"])
    emit("F36_1", f36_1["seq"], [
        "pinned by sextet polynomial (1,8,20,16,2), no pentagonal ring,",
        "and exactly two turtle-shaped maximal pentagonal fragments",
    ])
    emit("F36_2", f36_2["seq"], ["pinned by sextet polynomial (1,8,18,8,1) and min pentagonal ring 10"])

    # --- the larger fixed members ----------------------------------------
    f48_seq = [6] + [6] * 6 + [5] * 12 + [6] * 6 + [6]
    d48 = describe(f48_seq)
    assert d48["poly"] == (1, 14, 67, 130, 109, 36, 4) and d48["tau"] == 12, d48
    emit("F48", f48_seq, ["pinned by sextet polynomial (1,14,67,130,109,36,4) and min pentagonal ring 12"])

    c60_seq = [5 if (i + 1) in {1, 7, 9, 11, 13, 15, 18, 20, 22, 24, 26, 32} else 6 for i in range(32)]
    d60 = describe(c60_seq)
    assert d60["poly"] == (1, 20, 160, 660, 1510, 1912, 1240, 320, 5) and d60["tau"] is None
    lf = leapfrog(validate_fullerene(wind([5] * 12)))
    assert canonical_code(lf.image) == canonical_code(wind(c60_seq)), "C60 != leapfrog(F20)"
    print("cross-check: wound C60 is plane-isomorphic to leapfrog(F20)")
    emit("C60", c60_seq, [
        "icosahedral isomer; matches the image of the 20-vertex dodecahedral",
        "graph under the leapfrog construction (verified by canonical code)",
    ])

    c70_seq = [5 if (i + 1) in {1, 7, 9, 11, 13, 15, 27, 29, 31, 33, 35, 37} else 6 for i in range(37)]
    t0 = time.time()
    d70 = describe(c70_seq)
    f70 = d70["f"]
    print(f"C70 described in {time.time() - t0:.1f}s")
    assert f70.n == 70 and len(f70.hexagon_ids) == 25
    assert d70["order"] == 2 and d70["failing"] is not None and len(d70["failing"]) == 3
    assert all(len(fr.faces) == 1 for fr in maximal_pentagonal_fragments(f70)), "C70 must be isolated-pentagon"
    assert d70["tau"] is None
    print(f"C70 sextet polynomial (ascending): {d70['poly']}")
    print(f"C70 failing 3-set: {d70['failing']}; gstar: {d70['gstar']}")
    emit("C70", c70_seq, [
        "isolated-pentagon 70-vertex isomer (five-fold barrel); pinned by",
        "having no pentagonal ring and resonance order exactly 2",
    ])

    # --- report the empirical pins for the expected-facts table ----------
    print("\n=== expected-facts table entries (ascending sextet coefficients) ===")
    for label, d in (
        ("F28", f28), ("F30", f30), ("F32", f32),
        ("F36_1", f36_1), ("F36_2", f36_2), ("C70", d70),
    ):
        print(
            f"{label}: poly={d['poly']} tau={d['tau']} order={d['order']} "
            f"hexagons={len(d['f'].hexagon_ids)}"
        )


if __name__ == "__main__":
    main()
