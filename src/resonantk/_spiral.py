"""Face-spiral winding: build a plane cubic graph from a list of face sizes.

Faces are attached one at a time around a growing disk patch.  The patch
boundary is kept as a doubly linked cyclic list of vertices, each of current
degree 2 or 3.  Every new face glues onto the "pocket" at the current
position: the attachment path starts at the nearest degree-2 vertex at or
behind the growth point, runs forward through the following run of degree-3
vertices, and ends at the next degree-2 vertex.  The face contributes
``size - len(path)`` fresh vertices.  The last face must close the remaining
boundary exactly.

Each edge ends up traversed once in each direction over all recorded face
cycles, so a rotation system can be synthesised from the local constraint
"in the cycle ... a -> b -> d ..., d follows a in the rotation at b".  The
winding checks only what it needs to go on; ``_assemble`` re-verifies the
synthesised embedding before it is returned, with its faces.  Its
repeated-arc check rejects a repeated edge (a face glued along an edge the
patch already has puts one arc into two face cycles).  Its rotation check
rejects a vertex that is not one 3-cycle, such as one the closing face
leaves at degree 2, with two rotation entries.  The embedding check of
``parse_graph`` does the rest.  No vertex count is checked: the sizes sum
to 3(2F - 4) for F faces, and the closing face has its size, so the face
cycles hold 3(2F - 4) arcs; with each vertex in three rotation entries and
no arc repeated, there are 2F - 4 vertices.

``wind`` returns None whenever an integer sequence does not wind to a valid
sphere embedding; callers treat that as "this spiral does not exist", which
is the right semantics both for parameterised constructions (where the
sequence is known good) and for exhaustive isomer searches (where most
sequences fail).  A size that is not an integer is a ``GraphError``, and so
is an argument that is not iterable.
"""

from __future__ import annotations

from typing import Sequence

from .errors import GraphError, check_int
from .plane_graph import EmbeddedGraph, _embedding


def wind(sequence: Sequence[int]) -> EmbeddedGraph | None:
    """Wind a spiral of face sizes into an embedded graph, or return None.

    Raises:
        GraphError: naming a size that is not an integer, a bool included,
            or an argument that is not iterable.
    """
    try:
        sizes = list(sequence)
    except TypeError:
        raise GraphError(f"face sizes must be an iterable of integers, got {sequence!r}") from None
    for size in sizes:
        check_int("face size", size)
    n_faces = len(sizes)
    # a cubic sphere with F faces has V = 2F - 4 vertices, and its sizes sum to 2E = 3V
    if n_faces < 4 or min(sizes) < 3 or sum(sizes) != 3 * (2 * n_faces - 4):
        return None

    # --- first face -------------------------------------------------------
    m0 = sizes[0]
    nv = m0
    deg = [2] * m0
    nxt: dict[int, int] = {}
    prv: dict[int, int] = {}
    first = list(range(m0))
    face_cycles = [first]
    for i in range(m0):
        a, b = first[i], first[(i + 1) % m0]
        # the face consumed arc (a, b); the opposite arc stays free
        nxt[b] = a
        prv[a] = b
    cur = 0

    # --- middle faces -----------------------------------------------------
    for fi in range(1, n_faces - 1):
        m = sizes[fi]

        start = cur
        steps = 0
        while deg[start] == 3:
            start = prv[start]
            steps += 1
            if steps > len(nxt):
                return None  # boundary saturated before the last face

        path = [start]
        x = nxt[start]
        while deg[x] == 3:
            path.append(x)
            x = nxt[x]
            if x == start:
                return None  # single degree-2 vertex left: cannot glue
        path.append(x)

        fresh = m - len(path)
        if fresh < 0:
            return None  # face smaller than the pocket it must cover
        v1, vk = path[0], path[-1]
        newvs = list(range(nv, nv + fresh))
        nv += fresh
        deg.extend([2] * fresh)
        face_cycles.append(path + newvs)

        deg[v1] += 1
        deg[vk] += 1

        # relink the boundary: v1 -> w_last -> ... -> w_1 -> vk
        for p in path[1:-1]:
            del nxt[p], prv[p]
        seq = [v1] + newvs[::-1] + [vk]
        for i in range(len(seq) - 1):
            nxt[seq[i]] = seq[i + 1]
            prv[seq[i + 1]] = seq[i]
        cur = vk

    # --- closing face -----------------------------------------------------
    cycle = [cur]
    x = nxt[cur]
    while x != cur:
        cycle.append(x)
        x = nxt[x]
    if len(cycle) != sizes[-1]:
        return None
    face_cycles.append(cycle)

    return _assemble(nv, face_cycles)


def _assemble(nv: int, face_cycles: list[list[int]]) -> EmbeddedGraph | None:
    """Synthesise rotations from oriented face cycles and re-verify."""
    cw: list[dict[int, int]] = [{} for _ in range(nv)]
    for cyc in face_cycles:
        size = len(cyc)
        for i in range(size):
            a, b, d = cyc[i - 1], cyc[i], cyc[(i + 1) % size]
            if a in cw[b]:
                return None
            cw[b][a] = d
    rotation = []
    for v in range(nv):
        ring = cw[v]
        if len(ring) != 3:
            return None
        a0 = min(ring)
        a1 = ring[a0]
        a2 = ring[a1]
        if len({a0, a1, a2}) != 3 or ring[a2] != a0:
            return None
        rotation.append((a0, a1, a2))
    g = EmbeddedGraph(tuple(rotation))
    try:
        _embedding(g)
    except GraphError:
        return None
    return g
