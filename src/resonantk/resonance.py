"""Resonance analysis: which disjoint hexagon sets support alternating matchings.

A set H of pairwise vertex-disjoint hexagons is *resonant* when some perfect
matching makes every hexagon of H alternating - equivalently, when the graph
minus V(H) still has a perfect matching (each hexagon can then be closed with
three of its own boundary edges).  Everything in this module builds on that
equivalence: the sextet polynomial counts resonant sets by size, the Clar
number is its degree, k-resonance asks that all disjoint k-sets be resonant,
and the resonance order is the largest such k (with "ALL" when every size is
exhausted vacuously).

One walk over the resonant sets, ``_walk``, decides them all: the sextet
polynomial, the Clar number, the resonance order with its failing set and
the per-hexagon outcomes are read off it.  It starts from a perfect matching
in which a greedy Clar structure (a maximal set of disjoint hexagons that
alternate together) alternates, and records how each resonant child's
matching differs from its parent's; children whose differences touch
disjoint vertices combine with no new matching search.  It keeps the mate
arrays of the sets on its path and those differences, never a table of
decided sets, so its memory stays flat however many sets it visits.  Only
the full walk's summary (counts per size and the least failing set) is
kept on the graph.

The full walk, which ``sextet`` runs, also uses the graph's symmetry: it
descends only into resonant sets that are lexicographically least in their
orbit under the automorphism group (read off the canonical-code pass), and
counts each with its orbit size.  It holds a set as a bitmask with hexagon h
at bit top - h (top the largest face id), so that of two sets of one size
the lexicographically smaller has the larger mask, and a set is least
exactly when no image's mask exceeds its own.  A walk bounded to a few
sizes, as ``resonance_order`` (to 2, then 3) and
``hexagon_dichotomy_report`` run on a fresh graph, takes no group: it stops
too early to win back the group's cost.  Past 3, ``resonance_order`` reads
the full walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from operator import ne
from typing import Iterable, NamedTuple, Sequence, Union

from . import kernels, matching
from .errors import GraphError, check_int, check_ints, check_type
from .matching import (
    Matching,
    _matching_from_mates,
    _rest_mates,
    alternating_faces,
    alternating_hexagon_count,
    face_alternates,
    perfect_mate_tuples,
)
from .plane_graph import Automorphism, FullereneGraph, _built, automorphisms

ALL = "ALL"


@dataclass(frozen=True)
class ResonantPattern:
    """A resonant hexagon set with its certifying perfect matching."""

    hexagons: tuple[int, ...]
    matching: Matching


@dataclass(frozen=True)
class SextetPolynomial:
    """Counts of resonant hexagon sets by size; coefficients[i] is the i-count."""

    coefficients: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def sigma(self, i: int) -> int:
        check_int("sextet coefficient index", i)
        return self.coefficients[i] if 0 <= i < len(self.coefficients) else 0

    def __call__(self, x: int | float) -> int | float:
        """The value at an int or a float x, not a bool; exact (an int) when x is an int."""
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise GraphError(f"sextet polynomial argument must be an int or a float, got {x!r}")
        total = 0
        for c in reversed(self.coefficients):
            total = total * x + c
        return total

    def descending(self) -> tuple[int, ...]:
        """Coefficients from the leading term down; the serialised order."""
        return tuple(reversed(self.coefficients))


@dataclass(frozen=True)
class OrderReport:
    """Resonance order plus the smallest failing set when the order is finite.

    ``order`` is either an int k (all disjoint sets of size <= k resonant,
    some (k+1)-set is not) or the string "ALL" when no failing set of any
    size exists.  ``failing`` is the size-then-lex first non-resonant set.
    ``capped`` marks an early stop at a caller-imposed maximum, in which case
    ``order`` is a lower bound.
    """

    order: Union[int, str]
    failing: tuple[int, ...] | None
    capped: bool = False


@dataclass(frozen=True)
class GStarWitness:
    """Three disjoint hexagons jointly covering a vertex's whole neighbourhood.

    Removing them isolates the vertex, so the set can never be resonant.
    """

    vertex: int
    hexagons: tuple[int, int, int]


@dataclass(frozen=True)
class HexagonReport:
    """Resonance and bipartiteness data for one hexagon's deletion."""

    face_id: int
    resonant: bool
    deletion_bipartite: bool
    odd_cycle: tuple[int, ...] | None


def _check_hexagon_set(f: FullereneGraph, hexagon_ids: Iterable[int]) -> tuple[int, ...]:
    check_type("graph", f, FullereneGraph)
    ids = tuple(sorted(set(check_ints("face id", hexagon_ids))))
    for h in ids:
        if not 0 <= h < len(f.faces):
            raise GraphError(f"face id {h} outside 0..{len(f.faces) - 1}")
        if f.faces.faces[h].size != 6:
            raise GraphError(f"face {h} is a pentagon; resonant sets contain hexagons only")
    for i in range(len(ids)):
        around = f.faces._across[ids[i]]
        for j in range(i + 1, len(ids)):
            if ids[j] in around:
                raise GraphError(
                    f"hexagons {ids[i]} and {ids[j]} share vertices; the set must be disjoint"
                )
    return ids


def is_resonant_pattern(
    f: FullereneGraph, hexagon_ids: Iterable[int]
) -> ResonantPattern | None:
    """Decide resonance of a disjoint hexagon set; certificate on success.

    One maximum matching with the hexagons' vertices masked out
    (``matching._rest_mates``, shared with ``is_central``) decides the set;
    each call runs exactly one.  The certificate, a perfect matching of the
    whole graph that alternates on every hexagon of the set, is that
    matching with each hexagon closed by ``_close``; it is checked once for
    perfectness and for alternation on the set's hexagons.

    Raises:
        GraphError: if f is not a ``FullereneGraph``, the ids are not
            iterable, a face id is not an integer or not a hexagon, or two
            hexagons intersect.
    """
    ids = _check_hexagon_set(f, hexagon_ids)
    mate = _rest_mates(f, ids)
    if mate is None:
        return None
    for h in ids:
        _close(mate, f.faces.faces[h].boundary)
    cert = _matching_from_mates(mate, f)
    if 2 * cert.size != f.n or len(cert.covered()) != f.n:
        raise RuntimeError(
            f"hexagons {ids} were decided resonant, but the certificate built from "
            f"a maximum matching of the rest covers {len(cert.covered())} of {f.n} vertices"
        )
    missing = [h for h in ids if not face_alternates(f.faces.faces[h], cert)]
    if missing:
        raise RuntimeError(
            f"the certificate for {ids} does not alternate on hexagons {missing}"
        )
    return ResonantPattern(ids, cert)


class _Walk(NamedTuple):
    """What ``_walk`` found.

    ``counts[k]`` is the number of resonant k-sets reached, for every size
    k up to the largest size it tested.  ``failed`` is the least failing
    set: of the least size with a non-resonant set, the lexicographically
    least one; None if no tested set failed.  ``singles`` holds the
    hexagons that are resonant on their own.
    """

    counts: tuple[int, ...]
    failed: tuple[int, ...] | None
    singles: frozenset[int]


def _repaired(
    f: FullereneGraph, mate: list[int], excluded: list[bool], h: int
) -> list[int] | None:
    """A perfect matching of the rest once h's ring is excluded too, or None.

    ``mate`` is a perfect matching of the vertices ``excluded`` leaves, and
    h's ring lies among them.  The copy frees h's ring and the ring's
    partners outside it, then runs one ``kernels.augment`` search from each
    freed vertex still unmatched; a failed search proves that no perfect
    matching is left (Edmonds).  If h alternates in ``mate``, nothing is
    freed and no search runs.  ``excluded`` is marked for h's ring during
    the searches and given back unchanged.
    """
    adj = f.graph.rotation
    n = len(mate)
    ring = f.faces.faces[h].boundary
    for v in ring:
        excluded[v] = True
    freed = [mate[v] for v in ring if not excluded[mate[v]]]
    child = mate[:]
    for v in ring:
        child[v] = -1
    for u in freed:
        child[u] = -1
    ok = all(child[u] >= 0 or kernels.augment(n, adj, excluded, child, u) for u in freed)
    for v in ring:
        excluded[v] = False
    return child if ok else None


def _close(mate: list[int], ring: Sequence[int]) -> None:
    """Match the hexagon b0..b5 by its edges b0b1, b2b3 and b4b5, in place."""
    b0, b1, b2, b3, b4, b5 = ring
    mate[b0], mate[b1], mate[b2], mate[b3], mate[b4], mate[b5] = b1, b0, b3, b2, b5, b4


def _clar_root(f: FullereneGraph, mate: list[int]) -> list[int]:
    """A perfect matching in which a maximal set of disjoint hexagons alternates.

    The greedy Clar structure of ``mate``: hexagons are taken in ascending
    id, and h joins the set S when S + h is resonant, decided by
    ``_repaired``.  Each hexagon of S is then closed by ``_close``, so
    that it alternates and its test at the walk's root frees nothing.
    """
    excluded = [False] * f.n
    structure = []
    for h in f.hexagon_ids:
        ring = f.faces.faces[h].boundary
        if any(excluded[v] for v in ring):
            continue
        child = _repaired(f, mate, excluded, h)
        if child is not None:
            mate = child
            for v in ring:
                excluded[v] = True
            structure.append(h)
    for h in structure:
        _close(mate, f.faces.faces[h].boundary)
    return mate


def _hexagon_maps(f: FullereneGraph, group: Iterable[Automorphism]) -> list[list[int]]:
    """Each automorphism m as a list indexed by face id: hexagon h to ``1 << top - m(h)``.

    ``top`` is the largest face id.  A hexagon goes to the face of its least
    arc's image, read backwards when the automorphism reverses the rotation
    (the face then lies on the image arc's left).
    """
    arc_face, faces = f.faces._arc_face, f.faces.faces
    top = len(faces) - 1
    arcs = [(h, faces[h].boundary[0], faces[h].boundary[1]) for h in f.hexagon_ids]
    maps = []
    for perm, reverses in group:
        m = [0] * len(faces)
        for h, u, v in arcs:
            m[h] = 1 << top - arc_face[(perm[v], perm[u]) if reverses else (perm[u], perm[v])]
        maps.append(m)
    return maps


# The group's action on a least set S, as ``_least`` reads it: each map other
# than the identity with the mask of its image of S.
_Action = list[tuple[list[int], int]]


def _least(mask: int, c: int, action: _Action) -> tuple[int, _Action] | None:
    """The stabiliser order of S + c and the group's action on it, or None.

    ``mask`` is the mask of S + c, ``action`` the group's action on S.  None
    means that some image of S + c has a larger mask, so is below it and
    S + c is not least in its orbit.  The order counts the identity.
    """
    stab = 1
    child: _Action = []
    for m, image in action:
        image |= m[c]
        if image > mask:
            return None
        if image == mask:
            stab += 1
        child.append((m, image))
    return stab, child


def _walk(f: FullereneGraph, max_size: int | None = None) -> _Walk:
    """Decide every disjoint hexagon set whose proper subsets are all resonant.

    A node of the depth-first walk is a resonant set H with a perfect
    matching of G - V(H) as a mate array.  The root's is ``_clar_root``'s,
    in which a greedy Clar structure alternates, grown from
    ``kernels.mate_array``'s maximum matching.  That one is perfect (a
    bridgeless cubic graph has one, by Petersen, and a fullerene, cyclically
    5-edge-connected, has no bridge).  At a node the walk first tests each
    candidate child H + c and keeps the *repair* of each resonant one: the vertices whose mate entry differs between H + c's
    matching and H's, with their new entries.  The walk then descends into
    each resonant child H + h in ascending order; its candidates are the
    later resonant children H + c whose c misses h, since a superset of the
    failed H + c fails too.

    At the node H + h, a candidate c whose repair misses h's is resonant
    with no search: matched pairs never cross a repair's boundary, so
    overlaying c's entries on H + h's matching gives a perfect matching of
    G - V(H + h + c), and c's repair is still its repair.  Any other
    candidate, and every candidate at the root, is decided by
    ``_repaired`` from the node's matching.  A hexagon of the Clar
    structure alternates at the root, so its repair is its own ring, and
    the sets inside the structure need no search at all.

    The full walk (no ``max_size``) visits one set per orbit of the
    automorphism group A: it descends only into a resonant child that is
    lexicographically least among its images (decided by ``_least``), and
    counts it |A| / |stabiliser| times, its orbit's size.  A set is also a
    bitmask with hexagon h at bit top - h, top the largest face id, so of
    two sets of one size the lexicographically smaller has the larger mask:
    a set is least exactly when no image's mask exceeds its own.
    Automorphisms keep resonance, and a prefix of a least set is least, so
    every orbit is reached through its least member, which is tested as a
    child of a visited set.  Every child of a visited set is still tested,
    least or not, so the candidates and repairs below it are as without the
    group.

    So a set whose proper subsets are all resonant is tested once, as a
    child of the set without its largest hexagon, whenever that set is
    visited, and every resonant set is counted.  Nodes of one size are
    visited, and their children tested, in lexicographic order, and the
    least failing set is least in its orbit, so the first failure of the
    least failing size is the least failing set.  The walk keeps it and
    replaces it only by a failure of a smaller size.  It keeps no decided
    sets; besides its summary it holds the repairs of the resonant children
    along its path, the matching of each node's parent and, with each
    pending node, its mask and the group's action on it (each map's image
    mask), built by the ``_least`` pass that found it least.  A resonant
    child with no candidates is only counted.

    With ``max_size`` (at least 1) no set larger is tested, and the walk
    ends at its first failure past the root (every single hexagon is still
    tested there); the counts then cover only the sets before it.  A caller
    that deepens the bound one size at a time, each run clean below its
    bound, so gets the least failing set.  A bounded walk takes no group and
    visits every resonant set up to its bound: it ends after two or three
    sizes, where building the group costs more than it saves, and past 3
    ``resonance_order`` runs the full walk instead.
    """
    root = kernels.mate_array(f.n, f.graph.rotation)
    cands = [(h, None) for h in f.hexagon_ids]
    if max_size is None and cands:
        group = automorphisms(f)
        order = len(group)
        action: _Action = [(m, 0) for m in _hexagon_maps(f, group[1:])]
    else:
        order, action = 1, []
    vertices = f.faces.vertex_masks
    top = len(f.faces) - 1
    counts = [1]
    failed: tuple[int, ...] | None = None
    singles: frozenset[int] = frozenset()
    # Frames (H, its mask, the parent's mate array, the repair of H's last
    # hexagon h, candidates with their repairs, the group's action on H); a
    # repair is (vertex bitmask, [(vertex, mate)]) relative to the parent's
    # array, or None where it is not known.  The root has no parent and no h.
    stack = [((), 0, _clar_root(f, root), (0, []), cands, action)] if cands else []
    while stack:
        ids, bits, mate, (hmask, entries), cands, action = stack.pop()
        mate = mate[:]
        for v, w in entries:
            mate[v] = w
        size = len(ids) + 1
        if size == len(counts):
            counts.append(0)
        excluded = None
        passed = []
        for c, repair in cands:
            if repair is not None and not repair[0] & hmask:
                passed.append((c, repair))
                continue
            if excluded is None:
                excluded = [w < 0 for w in mate]
            child = _repaired(f, mate, excluded, c)
            if child is not None:
                diff = [(v, child[v]) for v in compress(count(), map(ne, child, mate))]
                verts = 0
                for v, _ in diff:
                    verts |= 1 << v
                passed.append((c, (verts, diff)))
            elif failed is None or size < len(failed):
                failed = ids + (c,)
                if max_size and ids:
                    break
        if not ids:
            singles = frozenset(c for c, _ in passed)
        least = []
        for i, (c, _) in enumerate(passed):
            mask = bits | 1 << top - c
            found = _least(mask, c, action)
            if found:
                counts[size] += order // found[0]
                least.append((i, mask, found[1]))
        if max_size and failed:
            break
        if size == max_size:
            continue
        for i, mask, child_action in reversed(least):
            c, repair = passed[i]
            bad = vertices[c]
            later = [d for d in passed[i + 1 :] if not bad & vertices[d[0]]]
            if later:
                stack.append((ids + (c,), mask, mate, repair, later, child_action))
    return _Walk(tuple(counts), failed, singles)


def sextet(f: FullereneGraph) -> SextetPolynomial:
    """The polynomial whose i-th coefficient counts resonant i-sets.

    The counts of the full ``_walk``, whose summary is kept on the graph for
    ``resonance_order`` and ``hexagon_dichotomy_report``.

    Raises:
        GraphError: if f is not a ``FullereneGraph``, as every function of
            this module does.
    """
    coeffs = list(check_type("graph", f, FullereneGraph)._walk.counts)
    while coeffs[-1] == 0:
        coeffs.pop()
    return SextetPolynomial(tuple(coeffs))


def clar(f: FullereneGraph) -> int:
    """Largest size of a resonant hexagon set (the sextet polynomial's degree)."""
    return sextet(f).degree


def fries(f: FullereneGraph, cap: int | None = None) -> int:
    """Largest number of alternating hexagons over all perfect matchings.

    Each matching is scored from its mate array; the best one is then
    built and checked once against ``alternating_faces``.  There is one to
    score, as in ``_walk``: a fullerene has a perfect matching (Petersen).

    Raises:
        GuardExceeded: if the matching count exceeds the enumeration cap.
        RuntimeError: if the check disagrees with the score.
    """
    check_type("graph", f, FullereneGraph)
    hexagons = [f.faces.faces[h].boundary for h in f.hexagon_ids]

    def score(mate: tuple[int, ...]) -> int:
        return alternating_hexagon_count(hexagons, mate)

    best = max(perfect_mate_tuples(f, cap), key=score)
    top = score(best)
    count = len(alternating_faces(f, _matching_from_mates(best, f)))
    if count != top:
        raise RuntimeError(
            f"the best perfect matching scores {top} alternating hexagons "
            f"from its mate array but {count} as a matching"
        )
    return top


def resonance_order(f: FullereneGraph, max_k: int | None = None) -> OrderReport:
    """Largest k such that every disjoint k-set of hexagons is resonant.

    The order ends at the least size with a non-resonant set or with no
    disjoint sets at all.  In the first case the order is one less and the
    walk's least failing set - smallest size, lexicographically first - is
    the witness; a non-resonant set of that size has only resonant proper
    subsets, so ``_walk`` tests it.  In the second the order is "ALL"
    (every later size is empty too).  A size past ``max_k`` gives
    ``max_k`` as a capped lower bound.  The sizes are read off the full
    walk if ``sextet`` has run on the graph; otherwise the walk is run
    bounded to 2 and then 3 sets, each run ending at its first failure, so
    that a small order costs only the small sets; a graph that passes both
    (by the paper, one of the nine, of order "ALL") runs the full walk.

    Raises:
        GraphError: if ``max_k`` is given and is not an integer >= 0.
    """
    if max_k is not None:
        check_int("max_k", max_k, 0)
    kept = _built(check_type("graph", f, FullereneGraph), "_walk")
    for bound in (None,) if kept else (2, 3, None):
        counts, failed, _ = f._walk if bound is None else _walk(f, bound)
        # The least size that fails or is empty; a bounded walk that ends
        # clean only shows that it lies past the bound.
        end = len(failed) if failed else len(counts)
        if max_k is not None and end > max_k:
            return OrderReport(max_k, None, capped=True)
        if failed:
            return OrderReport(end - 1, failed)
        if bound is None or end <= bound:
            break
    return OrderReport(ALL, None)


def find_g_star(f: FullereneGraph) -> GStarWitness | None:
    """Scan for a vertex whose three opposite faces are disjoint hexagons.

    The face "opposite" a neighbour w of v is the one containing w but not v.
    If all three are hexagons, removing them isolates v, so they witness a
    non-resonant 3-set.  Vertices are scanned in ascending order; the first
    hit is returned.

    The three are pairwise vertex-disjoint in every fullerene, so the scan
    tests only their sizes.  Take two neighbours w and w' of v and the face
    F at v between them: the faces opposite w and w' lie across two edges of
    F that do not touch.  Two fullerene faces meet exactly when each is
    across the other, and share at most one edge (``FaceSet``), so the two
    differ, and if they met, they and F would be three faces each across the
    other two with no vertex in common: their three shared edges would be a
    cyclic 3-edge cut, and fullerenes are cyclically 5-edge-connected
    (Došlić 2003).
    """
    g = check_type("graph", f, FullereneGraph).graph
    rotation, turns = g.rotation, g._turns
    fs = f.faces
    arc_face = fs._arc_face
    for v in range(f.n):
        # The face along (w, x), x the neighbour before v at w, turns at w
        # between the two edges other than wv; faces have no chords, so it misses v.
        opposite = [arc_face[w, turns[w][v][1]] for w in rotation[v]]
        if not all(fs.faces[fid].size == 6 for fid in opposite):
            continue
        witness = GStarWitness(v, tuple(sorted(opposite)))
        if matching.is_central(f, witness.hexagons):
            raise RuntimeError(f"G* witness {witness} isolates vertex {v} but was decided resonant")
        return witness
    return None


def hexagon_dichotomy_report(f: FullereneGraph) -> tuple[HexagonReport, ...]:
    """Per-hexagon record: is it resonant, and is the graph minus it bipartite?

    For fullerene graphs the expected pattern is resonant=True with a
    non-bipartite remainder (witnessed by an odd cycle).  Resonance is read
    off the full walk if ``sextet`` has run on the graph, else off a walk
    bounded to single hexagons.

    F - V(h) is never bipartite, by the validated faces: two fullerene faces
    share a vertex exactly when each is across the other (``FaceSet``), so h
    meets at most 6 faces and at least 6 of the 12 pentagons miss it.  The
    odd cycle reported is the boundary of the least pentagon id not across
    h, a 5-cycle of F - V(h) in parent ids.
    """
    singles = (_built(check_type("graph", f, FullereneGraph), "_walk") or _walk(f, 1)).singles
    vertices = f.faces.vertex_masks
    out = []
    for h in f.hexagon_ids:
        p = next(p for p in f.pentagon_ids if not vertices[h] & vertices[p])
        out.append(HexagonReport(h, h in singles, False, f.faces.faces[p].boundary))
    return tuple(out)
