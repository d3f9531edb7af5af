"""Inputs, operations and output checks of the three benchmark workloads.

Every input is a catalog graph or a capped nanotube, relabelled from the
seed (a vertex permutation, an optional reflection, and a random start for
each rotation tuple) and written as a ``.rot`` file.  Each operation reads
its file afresh, so the per-graph memo tables of ``FullereneGraph`` never
turn a repeat into a cache hit that a CLI user would not get.

Operations call the program through ``resonantk.cli.run`` and the public
functions of ``resonantk``, always looked up at call time, so that the
tracing wrappers in ``spans.py`` see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

import resonantk as rk
from resonantk import cli
from resonantk.plane_graph import EmbeddedGraph

CATALOG = rk.catalog_names()  # F20 ... C70, smallest first

# One pass runs every operation of a workload once.  A pass takes about
# this long on the reference machine (2-core x86-64 VM, CPython 3.11, pure
# kernels, the host in its usual, slower state); ``--seconds`` is turned into
# a whole number of passes with it, so that every run of a workload does the
# same work and sees the same latency sample count.
PASS_SECONDS = {"analyze": 7.4, "rings": 6.5, "certify": 7.0}

# R6_5 (about 22 s) is left out of analyze for run length only.
ANALYZE = CATALOG + tuple(f"R5_{k}" for k in range(1, 6)) + tuple(f"R6_{k}" for k in range(1, 5))
RINGS = tuple((name, 12) for name in CATALOG[2:9]) + (("C60", 9), ("C70", 9))
CERTIFY_LEAPFROG = CATALOG
CERTIFY_TWO_RESONANCE = CATALOG[:-1]
# F28 ... F40: fries on C60 takes 13.7 s with the pure kernels, more than a
# pass, and on F48 anything from 0.3 s to 4 s by labelling, so that it alone
# decided certify's tail by how many hard labellings a seed drew.
CERTIFY_FRIES = CATALOG[2:8]
CERTIFY_CYCLIC = ("F28", "F40")
CERTIFY_ORDER = ("C70",) + tuple(f"R5_{k}" for k in range(6, 9)) + tuple(f"R6_{k}" for k in range(5, 9))

SOURCES = {
    "analyze": ANALYZE,
    "rings": tuple(name for name, _ in RINGS),
    "certify": CATALOG + CERTIFY_ORDER[1:],
}


class OpFailed(Exception):
    """An operation exited non-zero or produced a wrong output."""


@dataclass(frozen=True)
class Op:
    """One operation: a timed call and the untimed checks of its result.

    ``call`` is the timed part.  ``finish`` turns its result into the bytes
    that repeats of the same input must reproduce exactly; ``summary`` maps
    those bytes to the label-invariant facts kept in ``expected.json``;
    ``verify``, when given, re-checks certificates on the first occurrence.
    """

    name: str
    call: Callable[[], object]
    finish: Callable[[object], bytes]
    summary: Callable[[bytes], object]
    verify: Callable[[object], None] | None = None


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def source_graph(name: str) -> EmbeddedGraph:
    """The unrelabelled input: ``R5_k``/``R6_k`` tubes or a catalog name."""
    if name[:3] in ("R5_", "R6_"):
        return rk.nanotube(name[:2], int(name[3:])).graph
    return rk.catalog_graph(name).graph.graph


def relabel(g: EmbeddedGraph, rng: random.Random) -> EmbeddedGraph:
    """The same plane graph under a random labelling, possibly mirrored."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    mirror = rng.random() < 0.5
    rotation: list[tuple[int, ...]] = [()] * g.n
    for v, ring in enumerate(g.rotation):
        nbrs = [perm[w] for w in (reversed(ring) if mirror else ring)]
        k = rng.randrange(3)
        rotation[perm[v]] = tuple(nbrs[k:] + nbrs[:k])
    return EmbeddedGraph(tuple(rotation))


def load(path: Path):
    return rk.validate_fullerene(rk.parse_graph(path.read_text()))


def input_path(workdir: Path, name: str, copy: int) -> Path:
    return workdir / f"{name}.{copy}.rot"


def write_inputs(workdir: Path, names: tuple[str, ...], seed: int | None, copy: int = 0) -> list[str]:
    """Write labelling ``copy`` of every source: one set-up of the inputs.

    Returns the files whose identity differs from their source's; each file
    is read back for this, which also checks that the canonical code ignores
    labelling and reflection.  ``seed=None`` writes the sources unrelabelled.
    """
    mismatched = []
    for name in names:
        g = source_graph(name)
        g_out = g if seed is None else relabel(g, random.Random(f"{seed}:{copy}:{name}"))
        path = input_path(workdir, name, copy)
        path.write_text(rk.emit_graph(g_out, [f"{name}, relabelling seed {seed}, copy {copy}"]))
        if cli.graph_identity(load(path)) != cli.graph_identity(g):
            mismatched.append(path.name)
    return mismatched


# ---------------------------------------------------------------------------
# analyze: the CLI's full report
# ---------------------------------------------------------------------------


def _multiset(items) -> dict[str, int]:
    return dict(sorted(Counter(items).items()))


def _analyze_summary(data: bytes) -> dict:
    d = json.loads(data)
    failing = d["order"]["failing"]
    return {
        "identity": d["identity"],
        "counts": d["counts"],
        "sextet": d["sextet"],
        "clar": d["clar"],
        "order": d["order"]["order"],
        "failing_size": len(failing) if failing else 0,
        "tau": d["tau"],
        "psi": d["psi"],
        "rings": d["rings"],
        "fragments": _multiset(fr["shape"] for fr in d["fragments"]),
        "g_star": d["g_star"] is not None,
        "dichotomy": d["dichotomy"],
    }


def _exit_ok(status: int) -> None:
    if status != 0:
        raise OpFailed(f"exit status {status}")


def analyze_ops(workdir: Path, copy: int) -> list[Op]:
    ops = []
    for name in ANALYZE:
        path = input_path(workdir, name, copy)
        out = path.with_suffix(".json")

        def finish(status, out=out) -> bytes:
            _exit_ok(status)
            return out.read_bytes()

        ops.append(
            Op(
                name,
                lambda path=path, out=out: cli.run(["analyze", "--json", str(path), "-o", str(out)]),
                finish,
                _analyze_summary,
            )
        )
    return ops


# ---------------------------------------------------------------------------
# rings: the ring scan and fragment classification, through the CLI
# ---------------------------------------------------------------------------


def _cli_stdout(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.run(argv)
    return status, buf.getvalue()


def _ring_key(ring: dict, n: int) -> tuple[int, ...]:
    """(l, s, s', r, n5, n6) of a ring, with the inner side chosen without labels.

    When s == s' the CLI breaks the tie between the two sides by vertex
    labels; the side with fewer interior vertices is taken instead.  The
    ring's 2l + s + s' vertices and the two interiors make up all n, and
    n6 = l + (r - s)/2 - 5 gives the other side's hexagon count.
    """
    l, s, s2, r = ring["l"], ring["s"], ring["s_prime"], ring["r"]
    key = (l, s, s2, r, ring["n5"], ring["n6"])
    r_other = n - (2 * l + s + s2) - r
    if s == s2 and r_other < r:
        key = (l, s, s2, r_other, ring["n5"], l + (r_other - s) // 2 - 5)
    return key


def rings_ops(workdir: Path, copy: int) -> list[Op]:
    ops = []
    for name, max_len in RINGS:
        path = input_path(workdir, name, copy)

        def call(path=path, max_len=max_len):
            return (
                _cli_stdout(["rings", str(path), "--max-len", str(max_len), "--json"]),
                _cli_stdout(["fragments", str(path), "--json"]),
            )

        def finish(result) -> bytes:
            for status, _ in result:
                _exit_ok(status)
            return "\0".join(text for _, text in result).encode()

        def summary(data: bytes, n=source_graph(name).n) -> dict:
            rings_text, frags_text = data.decode().split("\0")
            return {
                "rings": _multiset(" ".join(map(str, _ring_key(ring, n))) for ring in json.loads(rings_text)),
                "fragments": _multiset(fr["shape"] for fr in json.loads(frags_text)),
            }

        ops.append(Op(f"{name}@{max_len}", call, finish, summary))
    return ops


# ---------------------------------------------------------------------------
# certify: the constructive side, certificates and witnesses
# ---------------------------------------------------------------------------


def _dump(obj: object) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def _leapfrog_op(path: Path, name: str) -> Op:
    def call():
        return rk.canonical_code(rk.leapfrog(load(path)).image)

    return Op(
        f"leapfrog:{name}",
        call,
        lambda code: _dump({"image_identity": hashlib.sha256(code).hexdigest()}),
        json.loads,
    )


def _two_resonance_op(path: Path, name: str) -> Op:
    def call():
        lf = rk.leapfrog(load(path))
        faces = lf.image.faces
        pairs = [
            (a, b)
            for a, b in combinations(lf.image.hexagon_ids, 2)
            if not faces[a].vertices & faces[b].vertices
        ]
        return lf, pairs, [rk.two_resonance_certificate(lf, a, b) for a, b in pairs]

    def finish(result) -> bytes:
        _, pairs, certs = result
        h = hashlib.sha256()
        for (a, b), m in zip(pairs, certs):
            h.update(f"{a} {b}: {sorted(m.edges)}\n".encode())
        return _dump({"pairs": len(pairs), "certificates": h.hexdigest()})

    def verify(result) -> None:
        lf, pairs, certs = result
        for (a, b), m in zip(pairs, certs):
            # alternating_faces also rejects a matching that is not perfect
            if not {a, b} <= set(rk.alternating_faces(lf.image, m)):
                raise OpFailed(f"certificate for hexagons {a}, {b} does not alternate on both")

    return Op(
        f"two_resonance:{name}",
        call,
        finish,
        lambda data: json.loads(data)["pairs"],
        verify,
    )


def _order_op(path: Path, name: str) -> Op:
    def call():
        f = load(path)
        return rk.resonance_order(f), rk.find_g_star(f)

    def finish(result) -> bytes:
        rep, w = result
        return _dump(
            {
                "order": rep.order,
                "failing": list(rep.failing) if rep.failing else None,
                "capped": rep.capped,
                "g_star": [w.vertex, list(w.hexagons)] if w else None,
            }
        )

    def summary(data: bytes) -> dict:
        d = json.loads(data)
        return {
            "order": d["order"],
            "failing_size": len(d["failing"]) if d["failing"] else 0,
            "capped": d["capped"],
            "g_star": d["g_star"] is not None,
        }

    return Op(f"order:{name}", call, finish, summary)


def certify_ops(workdir: Path, copy: int) -> list[Op]:
    def path(name: str) -> Path:
        return input_path(workdir, name, copy)

    ops = [_leapfrog_op(path(name), name) for name in CERTIFY_LEAPFROG]
    ops += [_two_resonance_op(path(name), name) for name in CERTIFY_TWO_RESONANCE]
    ops += [
        Op(f"fries:{name}", lambda p=path(name): rk.fries(load(p)), _dump, json.loads)
        for name in CERTIFY_FRIES
    ]
    ops += [
        Op(
            f"cyclic4:{name}",
            lambda p=path(name): rk.verify_cyclic_edge_connectivity(load(p), 4),
            _dump,
            json.loads,
        )
        for name in CERTIFY_CYCLIC
    ]
    ops += [_order_op(path(name), name) for name in CERTIFY_ORDER]
    return ops


WORKLOADS: dict[str, Callable[[Path, int], list[Op]]] = {
    "analyze": analyze_ops,
    "rings": rings_ops,
    "certify": certify_ops,
}
