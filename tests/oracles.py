"""Independent brute-force oracles used to freeze expected test values.

These deliberately share no code with the package: maximum matchings come
from exhaustive search over edge subsets and perfect-matching counts from a
textbook recursion on the lowest uncovered vertex, or from Kasteleyn's
Pfaffian on graphs too large for it.  The package's former
kernels are kept here, unchanged, as references for the faster ones that
replaced them; those that call package code (the former ring scan,
resonance sweep, resonance walk, 2-resonance certificate and face trace)
import only parts that have not changed since.  The face trace takes the
``Face``/``FaceSet`` types and ``EmbeddedGraph.arcs`` but steps round the
rotation by its own ``ring.index``, and the former canonical pass spells
out its own turn tables, so neither shares the package's ``_turns``.  They
are only usable on small graphs, which is the point - package results on
small inputs must agree with these, and frozen constants in the
test-suite were produced by them.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import isqrt
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:
    from resonantk.plane_graph import Arc, EmbeddedGraph, FaceSet


def brute_force_maximum_matching_size(n: int, edges: list[tuple[int, int]]) -> int:
    """Exact maximum matching size by branching on the first usable edge."""

    edges = sorted(set((min(u, v), max(u, v)) for u, v in edges))

    def best(idx: int, used: int) -> int:
        while idx < len(edges) and (used >> edges[idx][0] & 1 or used >> edges[idx][1] & 1):
            idx += 1
        if idx == len(edges):
            return 0
        u, v = edges[idx]
        take = 1 + best(idx + 1, used | 1 << u | 1 << v)
        skip = best(idx + 1, used)
        return max(take, skip)

    return best(0, 0)


def count_perfect_matchings(n: int, adj: list[list[int]]) -> int:
    """Count perfect matchings by pairing the lowest uncovered vertex."""

    neighbour_mask = [0] * n
    for v in range(n):
        for w in adj[v]:
            neighbour_mask[v] |= 1 << w

    full = (1 << n) - 1

    @lru_cache(maxsize=None)
    def count(covered: int) -> int:
        if covered == full:
            return 1
        missing = covered ^ full
        v = (missing & -missing).bit_length() - 1  # lowest uncovered vertex
        total = 0
        free = neighbour_mask[v] & ~covered
        w = 0
        while free:
            low = free & -free
            w = low.bit_length() - 1
            total += count(covered | 1 << v | 1 << w)
            free ^= low
        return total

    result = count(0)
    count.cache_clear()
    return result


def perfect_matching_count_by_pfaffian(rotation: Sequence[Sequence[int]], root: int = 0) -> int:
    """The number of perfect matchings of a plane graph, by Kasteleyn's theorem.

    ``rotation[v]`` lists the neighbours of v clockwise, as in the ``.rot``
    format.  The faces are traced here, the successor of arc (u, v) being
    (v, w) with w the neighbour after u at v, and numbered by their least
    arc, as the package numbers them.  The edges are oriented so that every
    face but ``root`` has an odd number of edges along its boundary order
    (a Kasteleyn orientation, with ``root`` as the outer face): the edges
    off a spanning tree of the dual, grown breadth first from ``root``,
    point from the lower vertex to the higher, and then each face, from the
    leaves of the tree up, orients its edge to its parent face so that its
    count is odd.  The determinant of the signed adjacency matrix is the
    square of its Pfaffian, whose absolute value is the count (P. W.
    Kasteleyn, *J. Math. Phys.* 4, 1963); it is taken by Bareiss
    elimination over Python ints and must be a perfect square.
    """
    n = len(rotation)
    face_of: dict[tuple[int, int], int] = {}
    cycles: list[list[tuple[int, int]]] = []
    for start in sorted((v, w) for v in range(n) for w in rotation[v]):
        if start in face_of:
            continue
        cycle = []
        arc = start
        while arc not in face_of:
            face_of[arc] = len(cycles)
            cycle.append(arc)
            u, v = arc
            ring = list(rotation[v])
            arc = (v, ring[(ring.index(u) + 1) % len(ring)])
        cycles.append(cycle)

    # the dual tree: each face but the root keeps its boundary arc on the
    # edge it was first reached across
    to_parent: dict[int, tuple[int, int]] = {}
    order = [root]
    for face in order:  # breadth first; the list grows as faces are reached
        for u, v in cycles[face]:
            beyond = face_of[(v, u)]
            if beyond != root and beyond not in to_parent:
                to_parent[beyond] = (v, u)
                order.append(beyond)
    tree = {frozenset(arc) for arc in to_parent.values()}
    forward = {(u, v) for u in range(n) for v in rotation[u] if u < v and frozenset((u, v)) not in tree}
    for face in reversed(order[1:]):
        along = sum(1 for arc in cycles[face] if arc in forward)
        u, v = to_parent[face]
        forward.add((u, v) if along % 2 == 0 else (v, u))

    matrix = [[0] * n for _ in range(n)]
    for u, v in forward:
        matrix[u][v], matrix[v][u] = 1, -1
    det = _bareiss_determinant(matrix)
    count = isqrt(det) if det >= 0 else -1
    if count * count != det:
        raise ValueError(f"the Kasteleyn determinant {det} is not a perfect square")
    return count


def _bareiss_determinant(matrix: list[list[int]]) -> int:
    """The determinant of a square integer matrix, by fraction-free elimination (in place)."""
    n = len(matrix)
    sign, previous = 1, 1
    for k in range(n - 1):
        if not matrix[k][k]:
            swap = next((i for i in range(k + 1, n) if matrix[i][k]), None)
            if swap is None:
                return 0
            matrix[k], matrix[swap] = matrix[swap], matrix[k]
            sign = -sign
        pivot_row = matrix[k]
        pivot = pivot_row[k]
        for row in matrix[k + 1 :]:
            factor = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - factor * pivot_row[j]) // previous
        previous = pivot
    return sign * matrix[-1][-1] if n else 1


def perfect_matchings_lowest_first(
    n: int, adj: Sequence[Sequence[int]], limit: int
) -> list[tuple[int, ...]]:
    """All perfect matchings as mate tuples, stopping after limit + 1.

    Backtracks on the lowest unmatched vertex, trying its unmatched
    neighbours in the order ``adj`` lists them, so the output order is a
    fixed lexicographic order of the pairing choices.  A result longer than
    ``limit`` signals to the caller that the cap was exceeded.
    """
    out: list[tuple[int, ...]] = []
    if n % 2 or limit < 0:
        return out
    if n == 0:
        return [()]
    mate = [-1] * n
    # The lowest unmatched vertex v and the iterator over its remaining
    # choices; the stack holds the same pair for every vertex matched before
    # it, so the depth is not bounded by the interpreter's recursion limit.
    stack: list[tuple[int, Iterator[int]]] = []
    v = 0
    choices = iter(adj[0])
    while True:
        for u in choices:
            if mate[u] < 0:
                break
        else:
            if not stack:
                return out
            v, choices = stack.pop()
            mate[mate[v]] = -1
            mate[v] = -1
            continue
        mate[u] = v
        mate[v] = u
        w = v + 1
        while w < n and mate[w] >= 0:
            w += 1
        if w < n:
            stack.append((v, choices))
            v = w
            choices = iter(adj[w])
            continue
        out.append(tuple(mate))
        if len(out) > limit:
            return out
        mate[u] = -1
        mate[v] = -1


def resonant_by_brute_force(adj: list[list[int]], removed: set[int] | frozenset[int]) -> bool:
    """Whether the graph minus ``removed`` has a perfect matching, by counting them."""

    keep = [v for v in range(len(adj)) if v not in removed]
    index = {v: i for i, v in enumerate(keep)}
    sub = [[index[w] for w in adj[v] if w in index] for v in keep]
    return count_perfect_matchings(len(keep), sub) > 0


def odd_components_without(
    n: int, adj: Sequence[Sequence[int]], deleted: set[int] | frozenset[int]
) -> tuple[tuple[int, ...], ...]:
    """The odd components of the graph minus ``deleted``, each sorted, by least vertex."""

    seen = [False] * n
    comps: list[list[int]] = []
    for root in range(n):
        if root in deleted or seen[root]:
            continue
        seen[root] = True
        comp, frontier = [root], [root]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in deleted and not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        nxt.append(w)
            frontier = nxt
        comps.append(comp)
    return tuple(tuple(sorted(c)) for c in comps if len(c) % 2)


def tutte_witness_by_subsets(
    n: int, adj: Sequence[Sequence[int]], bound: int = 4
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]] | None:
    """The former ``matching.tutte_witness``: the first small Tutte set, or None.

    Tries deletion sets in order of size (then lexicographically) up to
    ``bound`` vertices and returns the first ``(deleted, odd components)``
    whose removal leaves more odd components than deleted vertices.  None
    is inconclusive: a witness may need more than ``bound`` vertices.  Its
    work cap is dropped; callers pass small graphs.
    """

    for k in range(min(bound, n) + 1):
        for deleted in combinations(range(n), k):
            odd = odd_components_without(n, adj, set(deleted))
            if len(odd) > k:
                return deleted, odd
    return None


def count_disjoint_hexagon_sets(hexagon_vertex_sets: list[frozenset[int]], k: int) -> int:
    """Number of k-element sets of pairwise vertex-disjoint hexagons."""

    total = 0
    for combo in combinations(hexagon_vertex_sets, k):
        ok = True
        for i in range(k):
            for j in range(i + 1, k):
                if combo[i] & combo[j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            total += 1
    return total


def resonance_order_by_sweep(f, max_k: int | None = None):
    """The resonance order as the package found it before the single walk.

    The package's former ``resonance_order``, kept verbatim: sizes swept
    upward over ``disjoint_hexagon_sets`` in lexicographic order, each set
    decided by ``matching.is_central`` (which the package's former resonance
    memo called, once per set).
    """
    from resonantk.errors import check_int
    from resonantk.matching import is_central
    from resonantk.resonance import ALL, OrderReport, disjoint_hexagon_sets

    if max_k is not None:
        check_int("max_k", max_k, 0)
    k = 1
    while True:
        if max_k is not None and k > max_k:
            return OrderReport(max_k, None, capped=True)
        any_set = False
        for ids in disjoint_hexagon_sets(f, k):
            any_set = True
            if not is_central(f, ids):
                return OrderReport(k - 1, ids)
        if not any_set:
            return OrderReport(ALL, None)
        k += 1


def sextet_by_unpruned_walk(f) -> tuple[int, ...]:
    """Sextet coefficients as the package's former walk counted them.

    Its former ``sextet`` without the memo writes: each resonant set is
    extended by every later hexagon that misses it, whether or not that
    hexagon extends the set's parent.
    """
    from resonantk import kernels

    adj = f.graph.rotation
    n = f.n
    root = kernels.mate_array(n, adj)
    if -1 in root:
        raise RuntimeError("the graph has no perfect matching, so the empty set is not resonant")
    coeffs = [1]
    # Frames [H, mate of G - V(H), exclusion mask of V(H), hexagons that may
    # extend H, index of the next one to try].
    stack = [[(), root, [False] * n, f.hexagon_ids, 0]]
    while stack:
        frame = stack[-1]
        ids, mate, excluded, cands, i = frame
        if i == len(cands):
            stack.pop()
            continue
        frame[4] = i + 1
        h = cands[i]
        ring = f.faces[h].boundary
        exc = excluded[:]
        for v in ring:
            exc[v] = True
        freed = [mate[v] for v in ring if not exc[mate[v]]]
        child = mate[:]
        for v in ring:
            child[v] = -1
        for u in freed:
            child[u] = -1
        ok = all(child[u] >= 0 or kernels.augment(n, adj, exc, child, u) for u in freed)
        ids = ids + (h,)
        if ok:
            if len(ids) == len(coeffs):
                coeffs.append(0)
            coeffs[len(ids)] += 1
            bad = f.faces.across(h)
            stack.append([ids, child, exc, [c for c in cands[i + 1 :] if c not in bad], 0])
    return tuple(coeffs)


def leapfrog_provenance(
    adj: list[list[int]],
    face_boundaries: list[list[int]],
    image_face_vertex_sets: list[frozenset[int]],
) -> tuple[dict[int, int], dict[int, int]]:
    """Classify leapfrog image faces by vertex-set identity.

    Image vertex i is the i-th arc of the original graph in sorted order.  A
    heritable image face consists of the arcs of one original face's
    boundary cycle, a fresh one of the six arcs touching one original
    vertex.  Returns (image face -> original face, image face -> vertex).
    """
    arcs = sorted((v, w) for v in range(len(adj)) for w in adj[v])
    index = {a: i for i, a in enumerate(arcs)}
    by_vertex_set: dict[frozenset[int], tuple[str, int]] = {}
    for fid, cycle in enumerate(face_boundaries):
        key = frozenset(index[(cycle[i], cycle[(i + 1) % len(cycle)])] for i in range(len(cycle)))
        by_vertex_set[key] = ("heritable", fid)
    for v in range(len(adj)):
        key = frozenset(index[a] for w in adj[v] for a in ((v, w), (w, v)))
        by_vertex_set[key] = ("fresh", v)
    heritable: dict[int, int] = {}
    fresh: dict[int, int] = {}
    for fid, vertex_set in enumerate(image_face_vertex_sets):
        kind, ref = by_vertex_set[vertex_set]
        (heritable if kind == "heritable" else fresh)[fid] = ref
    return heritable, fresh


def canonical_code_by_full_build(rotation: list[tuple[int, int, int]]) -> bytes:
    """The plane canonical code as the minimum over every candidate built in full.

    One candidate per directed start arc and orientation: breadth-first
    labels in discovery order, each vertex giving its three neighbour labels
    from its entry arc onward.  Encoded as the byte n and one byte per label
    up to 255 vertices, else a 0x00 marker, then n and every label as two
    big-endian bytes.
    """
    n = len(rotation)
    best: list[int] | None = None
    for u in range(n):
        for v in rotation[u]:
            for direction in (1, -1):
                label = [-1] * n
                entry = [-1] * n
                label[u] = 0
                entry[u] = v
                order = [u]
                code: list[int] = []
                for w in order:
                    ring = rotation[w]
                    k = ring.index(entry[w])
                    for j in range(3):
                        x = ring[(k + direction * j) % 3]
                        if label[x] < 0:
                            label[x] = len(order)
                            entry[x] = w
                            order.append(x)
                        code.append(label[x])
                if best is None or code < best:
                    best = code
    assert best is not None
    if n <= 255:
        return bytes([n, *best])
    return b"\0" + b"".join(x.to_bytes(2, "big") for x in [n, *best])


def canonical_pass_by_every_start(base: EmbeddedGraph):
    """The canonical code and its tied labellings, labelling from every start.

    The package's former ``_canonical_pass``, kept verbatim: it runs the
    pruned breadth-first labelling from all 6n (orientation, arc) starts,
    where the package skips the starts that an automorphism found so far
    maps from an earlier start.  Its two tables, the two neighbours after
    each entry neighbour in either orientation, are spelt out here.
    """
    import struct

    n = base.n
    rotation = base.rotation
    after_tables = (
        [{a: (b, c), b: (c, a), c: (a, b)} for a, b, c in rotation],
        [{a: (c, b), b: (a, c), c: (b, a)} for a, b, c in rotation],
    )
    best: list[tuple[int, int, int]] | None = None
    ties: list[tuple[int, tuple[int, ...]]] = []
    for d, after in enumerate(after_tables):
        for u in range(n):
            for v in rotation[u]:
                label = [-1] * n
                label[u] = 0
                label[v] = 1
                order = [(u, v), (v, u)]  # (vertex, entry neighbour) by label
                code: list[tuple[int, int, int]] = []
                tied = best is not None
                for w, e in order:
                    x1, x2 = after[w][e]
                    l1 = label[x1]
                    if l1 < 0:
                        l1 = label[x1] = len(order)
                        order.append((x1, w))
                    l2 = label[x2]
                    if l2 < 0:
                        l2 = label[x2] = len(order)
                        order.append((x2, w))
                    triple = (label[e], l1, l2)
                    if tied:
                        other = best[len(code)]
                        if triple > other:
                            break
                        tied = triple == other
                    code.append(triple)
                else:
                    labelling = (d, tuple(w for w, _ in order))
                    if tied:
                        ties.append(labelling)
                    else:
                        best = code
                        ties = [labelling]
    assert best is not None
    labels = [x for triple in best for x in triple]
    if n <= 255:
        return bytes([n, *labels]), tuple(ties)
    return b"\0" + struct.pack(f">{len(labels) + 1}H", n, *labels), tuple(ties)


def find_polygonal_rings_by_full_walk(f, max_len: int, face_filter: str) -> list:
    """Every polygonal ring as the package found it before the dual-distance prune.

    The scan and ring builder below are the package's former ``_ring_cycles``
    (no distance bound, path tests by membership and ``any``) and
    ``_build_ring`` (set flood fills and a ``Counter``), kept verbatim, with
    the set-based ``_rim``, ``_faces_per_vertex`` and ``_face_component`` it
    called.  ``_check``, ``_edge_cycles`` and ``PENTAGONS_ONLY`` are
    unchanged in the package and imported from it.  ``Ring`` is too; it now
    keeps each side as a face bitmask, which the builder makes from its side
    sets.  The edge two faces meet in is ``shared_edge``'s, read off their
    boundary edges rather than the package's face index.
    """
    from resonantk.rings_fragments import PENTAGONS_ONLY

    if face_filter == PENTAGONS_ONLY:
        candidates = frozenset(f.pentagon_ids)
    else:
        candidates = frozenset(range(len(f.faces)))
    rings = [
        _build_ring(f, cycle)
        for root in sorted(candidates)
        for cycle in _ring_cycles(f.faces, candidates, max_len, root)
    ]
    rings.sort(key=lambda r: (r.l, r.faces))
    return rings


def shared_edge(a, b) -> tuple[int, int] | None:
    """The edge faces a and b meet in, or None unless their boundaries share exactly one edge."""
    common = set(a.boundary_edges()) & set(b.boundary_edges())
    return common.pop() if len(common) == 1 else None


def _ring_cycles(
    fs, candidates: frozenset[int], max_len: int, root: int
) -> list[tuple[int, ...]]:
    """The face cycles of the rings whose least face is ``root``.

    A depth-first walk grows a face path from ``root`` over the dual.  Each
    step adds a face across one edge of the last face, meeting it in that
    edge only; ``used`` holds the endpoints of the edges shared along the
    path.  A ring is reported in the direction whose second face is less
    than its last, so each ring appears once.
    """
    out: list[tuple[int, ...]] = []
    seq = [root]
    used: set[int] = set()
    # Frames [(edge, far face) pairs of seq[-1] left to try, edge into seq[-1]].
    stack = [[zip(fs[root].boundary_edges(), fs.across(root)), ()]]
    while stack:
        frame = stack[-1]
        step = next(frame[0], None)
        if step is None:
            stack.pop()
            seq.pop()
            used.difference_update(frame[1])
            continue
        e, g = step
        if g <= root or g not in candidates or g in seq or fs.across(seq[-1]).count(g) != 1:
            continue
        if e[0] in used or e[1] in used:
            continue
        # vertex-disjoint from every earlier non-consecutive face: faces
        # share a vertex exactly when one is across the other
        if any(g in fs.across(x) for x in seq[1:-1]):
            continue
        # close the ring with g as its final face
        if len(seq) >= 2 and len(seq) < max_len and seq[1] < g:
            ce = shared_edge(fs[g], fs[root])
            if ce is not None and not {ce[0], ce[1]} & (used | {e[0], e[1]}):
                out.append(tuple(seq) + (g,))
        if len(seq) >= 2 and root in fs.across(g):
            continue  # beyond position 1, touching the root means closing only
        if len(seq) + 2 <= max_len:
            seq.append(g)
            used.update(e)
            stack.append([zip(fs[g].boundary_edges(), fs.across(g)), e])
    return out


def _build_ring(f, faces_cycle: tuple[int, ...]):
    """Compute cycles, sides, and counts for a validated face cycle.

    Raises:
        RuntimeError: naming the ring structure or counting identity that
            fails (a scanner or embedding bug).
    """
    from resonantk.rings_fragments import Ring, _check, _edge_cycles

    fs = f.faces
    l = len(faces_cycle)
    shared = [shared_edge(fs[faces_cycle[i]], fs[faces_cycle[(i + 1) % l]]) for i in range(l)]
    _check(None not in shared, "consecutive faces meet in one edge", faces_cycle)
    shared_vs = [frozenset(e) for e in shared]
    _check(len(frozenset().union(*shared_vs)) == 2 * l, "shared edges form a matching", faces_cycle)

    ring_faces = set(faces_cycle)
    cycles = _edge_cycles(_rim(fs, faces_cycle))
    _check(len(cycles) == 2, "the boundary is two cycles", faces_cycle)

    # rung structure: each shared edge has one endpoint on each cycle
    for cyc in cycles:
        on = set(cyc)
        rungs = all(len(ev & on) == 1 for ev in shared_vs)
        _check(rungs, "each shared edge is a rung", faces_cycle)

    vertex_faces = _faces_per_vertex(fs, faces_cycle)

    # the two sides: the faces reached from each cycle without crossing the ring
    sides = []
    for cyc in cycles:
        owners = {
            fs.face_of_arc(arc)
            for i in range(len(cyc))
            for arc in ((cyc[i - 1], cyc[i]), (cyc[i], cyc[i - 1]))
        } - ring_faces
        side = _face_component(fs, min(owners), ring_faces)
        _check(owners <= side, "one side owns each cycle", faces_cycle)
        s = sum(1 for v in cyc if vertex_faces[v] == 1)
        _check(len(cyc) == l + s, "cycle length l + s", faces_cycle)
        vertices = set().union(*(fs[fid].vertices for fid in side))
        _check(vertices >= set(cyc), "the side holds its cycle", faces_cycle)
        sides.append((s, len(vertices) - len(cyc), tuple(sorted(cyc)), cyc, side))

    # the inner side: smaller s, then fewer interior vertices r, then the
    # lexicographically smaller cycle
    inner_side, outer_side = sorted(sides, key=lambda side: side[:3])
    s, r, _, inner_cyc, inner = inner_side
    s_prime, _, _, outer_cyc, outer = outer_side
    _check(
        not inner & outer and len(inner) + len(outer) + l == len(fs),
        "the ring splits the other faces into two sides",
        faces_cycle,
    )
    n5 = sum(1 for fid in inner if fs[fid].size == 5)
    n6 = sum(1 for fid in inner if fs[fid].size == 6)

    all_pent = all(fs[fid].size == 5 for fid in faces_cycle)
    _check(s != 1 and s_prime != 1, "s, s' != 1", faces_cycle)
    _check(r % 2 == s % 2, "r = s (mod 2)", faces_cycle)
    _check(2 * (n5 + n6) == s + r + 2, "n5 + n6 = (s + r + 2)/2", faces_cycle)
    _check(5 * n5 + 6 * n6 == 2 * s + 3 * r + l, "5 n5 + 6 n6 = 2s + 3r + l", faces_cycle)
    _check(n5 == 6 + s - l, "n5 = 6 + s - l", faces_cycle)
    _check(2 * n6 == 2 * l + (r - s) - 10, "n6 = l + (r - s)/2 - 5", faces_cycle)
    _check(not all_pent or s + s_prime == l, "s + s' = l on a pentagonal ring", faces_cycle)

    return Ring(
        tuple(faces_cycle),
        tuple(shared),
        tuple(inner_cyc),
        tuple(outer_cyc),
        sum(1 << fid for fid in inner),
        sum(1 << fid for fid in outer),
        l,
        s,
        s_prime,
        r,
        n5,
        n6,
        all_pent,
    )


def _rim(fs, faces: tuple[int, ...]) -> list:
    """The edges on exactly one of ``faces``, in face then boundary order."""
    inside = set(faces)
    return [
        e
        for fid in faces
        for e, g in zip(fs[fid].boundary_edges(), fs.across(fid))
        if g not in inside
    ]


def _faces_per_vertex(fs, faces: tuple[int, ...]) -> Counter[int]:
    """How many of ``faces`` each of their vertices lies on."""
    return Counter(v for fid in faces for v in fs[fid].vertices)


def _face_component(fs, start: int, blocked: set[int] | frozenset[int]) -> set[int]:
    """The faces reached from ``start`` across edges, never entering ``blocked``."""
    comp = {start}
    stack = [start]
    while stack:
        for g in fs.across(stack.pop()):
            if g not in comp and g not in blocked:
                comp.add(g)
                stack.append(g)
    return comp


def two_resonance_certificate_by_rebuild(lf, h1: int, h2: int):
    """A 2-resonance certificate as the package found it before its flip table.

    The package's former ``two_resonance_certificate``, kept verbatim: for
    every candidate pair it rebuilds M0 with the flips applied as a
    ``Matching`` and checks the whole matching for perfection before the two
    targets.  ``_flip_candidates`` is unchanged in the package and imported.
    """
    from resonantk.errors import GraphError, check_int
    from resonantk.leapfrog import _flip_candidates
    from resonantk.matching import Matching, face_alternates

    image = lf.image
    for h in (h1, h2):
        check_int("face id", h)
        if not 0 <= h < len(image.faces) or not image.is_hexagon(h):
            raise GraphError(f"face {h} is not a hexagon of the leapfrog image")
    if h1 == h2 or image.faces[h1].vertices & image.faces[h2].vertices:
        raise GraphError(f"hexagons {h1} and {h2} must be vertex-disjoint")

    across = image.faces.across
    fresh_targets = [h for h in (h1, h2) if h in lf.fresh]
    for a_set in _flip_candidates(lf, h1):
        for b_set in _flip_candidates(lf, h2):
            flips = a_set | b_set
            if any(b in across(a) for a in flips for b in flips):
                continue  # two flipped faces share a vertex
            if any(flip in across(t) for t in fresh_targets for flip in flips):
                continue
            edges = set(lf.m0.edges)
            for fid in flips:
                edges.symmetric_difference_update(image.faces[fid].boundary_edges())
            candidate = Matching(frozenset(edges), image)
            if (
                2 * candidate.size == image.n
                and len(candidate.covered()) == image.n
                and face_alternates(image.faces[h1], candidate)
                and face_alternates(image.faces[h2], candidate)
            ):
                return candidate
    raise RuntimeError(
        f"no territory flip makes hexagons {h1} and {h2} alternate together"
    )



def _trace_face_cycles(g: EmbeddedGraph) -> list[tuple[Arc, ...]]:
    """Partition all arcs into face cycles, each rotated to start at its least arc."""
    seen: set[Arc] = set()
    cycles: list[tuple[Arc, ...]] = []
    for start in g.arcs():
        if start in seen:
            continue
        cycle = []
        arc = start
        while True:
            cycle.append(arc)
            seen.add(arc)
            u, v = arc
            ring = g.rotation[v]
            arc = (v, ring[(ring.index(u) + 1) % 3])
            if arc == start:
                break
        k = cycle.index(min(cycle))
        cycles.append(tuple(cycle[k:] + cycle[:k]))
    cycles.sort(key=lambda c: c[0])
    return cycles


def faces_by_sorted_trace(g: EmbeddedGraph) -> FaceSet:
    """The package's former ``faces``, on the former trace above.

    Each cycle is rotated to start at its least arc and the cycles are
    sorted, steps the package's one-pass trace does without.  Each step
    finds the next neighbour clockwise by its own ``ring.index``; only the
    ``Face``/``FaceSet`` types and ``EmbeddedGraph.arcs`` come from the
    package, and the rotation is not checked.
    """
    from resonantk.plane_graph import Face, FaceSet

    cycles = _trace_face_cycles(g)
    built: list[Face] = []
    arc_face: dict[Arc, int] = {}
    for idx, cycle in enumerate(cycles):
        boundary = tuple(a[0] for a in cycle)
        edges = tuple((a, b) if a < b else (b, a) for a, b in cycle)
        built.append(Face(idx, boundary, frozenset(boundary), edges))
        for a in cycle:
            arc_face[a] = idx
    across = tuple(tuple(arc_face[(b, a)] for a, b in cycle) for cycle in cycles)
    return FaceSet(tuple(built), arc_face, across)
