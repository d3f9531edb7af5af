#!/usr/bin/env python3
"""Reproduce the catalog's face spirals from an exhaustive isomer search.

Searches the face spirals with 12 pentagons for every even order 20...38
depth first over their prefixes (``_spiral._spirals``: a prefix that does
not wind cuts off every spiral that starts with it), so it finds every
isomer that has a face spiral.  It keeps the first winding spiral of each
canonical code, pentagons as early as they go, cross-checks the isomer tallies
against the published counts, then pins each named catalog target by its
invariants (the catalog's expected facts: sextet polynomial, minimum
pentagonal-ring length, resonance order; for F30 its cap/obstruction
structure) and checks that the pinned isomer's spiral is the one the
catalog winds for that name.  The larger members (F48, C60, C70) are
wound from the catalog's spirals and checked against their expected
facts, C60 also against leapfrog(F20) and C70 for isolated pentagons.
Every described isomer with a finite resonance order must have a Tutte
witness for the graph its failing set leaves.  Writes no file; exits
non-zero on any mismatch.

Run from the repository root:  python3 tools/gen_catalog.py
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from resonantk._spiral import _spirals, wind  # noqa: E402
from resonantk.catalog import _facts, catalog_graph, catalog_spiral  # noqa: E402
from resonantk.matching import tutte_witness  # noqa: E402
from resonantk.plane_graph import canonical_code, delete_vertices, validate_fullerene  # noqa: E402
from resonantk.leapfrog import leapfrog  # noqa: E402
from resonantk.resonance import find_g_star, resonance_order  # noqa: E402
from resonantk.rings_fragments import detect_r5_r6, maximal_pentagonal_fragments  # noqa: E402

# published fullerene isomer tallies for the orders searched here
KNOWN_COUNTS = {20: 1, 22: 0, 24: 1, 26: 1, 28: 2, 30: 3, 32: 6, 34: 6, 36: 15, 38: 17}


def require(ok: bool, message: str) -> None:
    """Stop with a non-zero exit when a check fails (also under python -O)."""
    if not ok:
        sys.exit(f"gen_catalog: {message}")


def search_isomers(n: int) -> list[tuple[bytes, list[int]]]:
    """All isomers of order n as (canonical code, its first winding spiral)."""
    found: dict[bytes, list[int]] = {}
    t0 = time.time()
    wound = 0
    for seq, g in _spirals(n):
        wound += 1
        found.setdefault(canonical_code(g), seq)
    print(f"n={n}: {len(found)} isomers from {wound} winding spirals ({time.time() - t0:.1f}s)")
    return sorted(found.items())


def describe(seq: list[int]) -> dict:
    f = validate_fullerene(wind(seq))
    facts = _facts(f)
    order = resonance_order(f)
    if order.failing is not None:
        # the failing set is certified by a Tutte barrier of what it leaves
        rest = delete_vertices(f, set().union(*(f.faces[h].vertices for h in order.failing)))
        w = tutte_witness(rest)
        require(
            w is not None and w.deficit > 0,
            f"spiral {seq}: no Tutte witness for the failing set {order.failing}",
        )
    caps = detect_r5_r6(f)
    frs = maximal_pentagonal_fragments(f)
    return {
        "seq": seq,
        "f": f,
        "facts": facts,
        "failing": order.failing,
        "caps": sorted(set(w.kind for w in caps)),
        "ncaps": len(caps),
        "gstar": find_g_star(f),
        "shapes": sorted(fr.shape for fr in frs),
        "maximal_shapes": sorted(fr.shape for fr in frs if fr.maximal),
    }


def main() -> None:
    # --- calibration: the searcher must see exactly the known tallies -----
    iso = {n: search_isomers(n) for n in range(20, 39, 2)}
    for n, entries in iso.items():
        require(
            len(entries) == KNOWN_COUNTS[n],
            f"isomer search for n={n} found {len(entries)}, expected {KNOWN_COUNTS[n]}",
        )
    print("isomer tallies match the published counts\n")

    # --- describe every candidate isomer ---------------------------------
    details: dict[int, list[dict]] = {}
    for n in (28, 30, 32, 36):
        details[n] = [describe(seq) for _, seq in iso[n]]
        print(f"--- n={n} ---")
        for i, d in enumerate(details[n]):
            facts = d["facts"]
            print(
                f"  [{i}] poly={facts.sextet} tau={facts.tau} order={facts.order} "
                f"caps={d['caps']}x{d['ncaps']} gstar={'yes' if d['gstar'] else 'no'} "
                f"maximal_shapes={d['maximal_shapes']}"
            )
        print()

    # --- the one isomer of orders 20 and 24 is the catalog's -------------
    for name, n in (("F20", 20), ("F24", 24)):
        require(
            iso[n][0][0] == canonical_code(catalog_graph(name).graph),
            f"{name}: the catalog's spiral does not wind the only {n}-vertex isomer",
        )

    def check_facts(d: dict, label: str) -> None:
        want = catalog_graph(label).expected
        require(d["facts"] == want, f"{label}: computed {d['facts']}, catalog has {want}")

    # --- pin the named targets to the catalog's spirals -------------------
    def pin(n: int, label: str, predicate=None) -> dict:
        want = catalog_graph(label).expected
        hits = [
            d for d in details[n]
            if (predicate(d) if predicate else d["facts"] == want)
        ]
        require(len(hits) == 1, f"{label}: {len(hits)} isomers match the pin")
        check_facts(hits[0], label)
        spiral = " ".join(map(str, hits[0]["seq"]))
        require(
            hits[0]["seq"] == catalog_spiral(label),
            f"{label}: pinned isomer has spiral {spiral}, not the catalog's",
        )
        print(f"pinned {label}: spiral {spiral} (the catalog's)")
        return hits[0]

    # F28, F32, F36_1, F36_2: the one isomer of their order with the
    # catalog's sextet polynomial, min pentagonal ring and resonance order
    for label, n in (("F28", 28), ("F32", 32), ("F36_2", 36)):
        pin(n, label)
    f36_1 = pin(36, "F36_1")
    require(
        f36_1["maximal_shapes"] == ["TURTLE", "TURTLE"],
        f"F36_1 maximal fragments: {f36_1['maximal_shapes']}",
    )

    # F30: the isomer that carries a cap AND the three-disjoint-hexagon
    # obstruction around a vertex (the tube's five-hexagon belt cannot).
    pin(30, "F30", lambda d: d["ncaps"] > 0 and d["gstar"] is not None)

    # --- the larger fixed members, wound from the catalog's spirals -------
    for label in ("F48", "C60"):
        check_facts(describe(catalog_spiral(label)), label)
    lf = leapfrog(catalog_graph("F20").graph)
    require(
        canonical_code(lf.image) == canonical_code(catalog_graph("C60").graph),
        "C60 != leapfrog(F20)",
    )
    print("cross-check: wound C60 is plane-isomorphic to leapfrog(F20)")

    t0 = time.time()
    d70 = describe(catalog_spiral("C70"))
    print(f"C70 described in {time.time() - t0:.1f}s")
    check_facts(d70, "C70")
    require(
        d70["failing"] is not None and len(d70["failing"]) == 3,
        f"C70: failing set {d70['failing']}",
    )
    require(
        all(len(fr.faces) == 1 for fr in maximal_pentagonal_fragments(d70["f"])),
        "C70 must be isolated-pentagon",
    )
    print(f"C70 failing 3-set: {d70['failing']}; gstar: {d70['gstar']}")
    print("every catalog entry's facts match its wound spiral")

if __name__ == "__main__":
    main()
