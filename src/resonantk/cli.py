"""Command-line interface: validate, analyze, transform, and emit reports.

All machine output is JSON with sorted keys and a fixed enumeration order,
so identical inputs produce byte-identical bytes; the human-readable text is
a rendering of the same record.  Exit codes: 0 success, 1 validation or
usage error, 2 enumeration guard exceeded.
"""

from __future__ import annotations

import argparse
import errno
import functools
import hashlib
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Sequence

from . import catalog as _catalog
from .errors import GraphError, GuardExceeded
from .leapfrog import leapfrog
from .matching import resolve_pm_cap
from .plane_graph import (
    FullereneGraph,
    canonical_code,
    emit_graph,
    parse_graph,
    validate_fullerene,
)
from .resonance import (
    clar,
    find_g_star,
    fries,
    hexagon_dichotomy_report,
    resonance_order,
    sextet,
)
from .rings_fragments import (
    ANY,
    PENTAGONS_ONLY,
    find_polygonal_rings,
    maximal_pentagonal_fragments,
    pentagonal_rings,
    psi,
    tau,
)

SCHEMA = "resonantk-report/1"


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with status 1, not 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def graph_identity(f: FullereneGraph) -> str:
    return hashlib.sha256(canonical_code(f)).hexdigest()


def _load(path: str) -> FullereneGraph:
    try:
        with open(path, encoding="utf-8") as fh:
            # a leading byte order mark is no part of the text; "utf-8-sig"
            # would drop it too, but count a bad byte's offset from past it
            text = fh.read().removeprefix("\ufeff")
    except OSError as e:
        raise GraphError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise GraphError(f"{path} is not UTF-8 text: byte {e.start} cannot be decoded") from None
    return validate_fullerene(parse_graph(text))


def analyze_graph(f: FullereneGraph, with_fries: bool = False, pm_cap: int | None = None) -> dict:
    """Everything `analyze` reports for one graph, as the JSON-ready record."""
    poly = sextet(f)
    rep = resonance_order(f)
    pent_rings = pentagonal_rings(f)
    by_len: dict[str, int] = {}
    for ring in pent_rings:
        by_len[str(ring.l)] = by_len.get(str(ring.l), 0) + 1
    witness = find_g_star(f)
    dich = hexagon_dichotomy_report(f)
    report = {
        "schema": SCHEMA,
        "identity": graph_identity(f),
        "counts": {
            "vertices": f.n,
            "edges": 3 * f.n // 2,
            "faces": len(f.faces),
            "pentagons": len(f.pentagon_ids),
            "hexagons": len(f.hexagon_ids),
        },
        "sextet": list(poly.descending()),
        "clar": poly.degree,
        "order": {"order": rep.order, "failing": list(rep.failing) if rep.failing else None},
        "tau": tau(f),
        "psi": {key: psi(f, int(key)) for key in by_len},
        "rings": {"pentagonal_by_length": by_len, "pentagonal_total": len(pent_rings)},
        "fragments": [
            {
                "faces": list(fr.faces),
                "shape": fr.shape,
                "maximal": fr.maximal,
                "gamma": fr.gamma,
                "boundary_cycles": len(fr.boundary),
            }
            for fr in maximal_pentagonal_fragments(f)
        ],
        "g_star": (
            {"vertex": witness.vertex, "hexagons": list(witness.hexagons)}
            if witness
            else None
        ),
        "dichotomy": {
            "hexagons": len(dich),
            "resonant": sum(1 for h in dich if h.resonant),
            "non_bipartite_deletions": sum(1 for h in dich if not h.deletion_bipartite),
        },
    }
    if with_fries:
        report["fries"] = fries(f, pm_cap)
    return report


def _dump_json(obj: object) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, without json's Python encoder.

    With ``indent`` set, ``json`` always encodes on its pure-Python path,
    one small chunk string per token: most of a ``rings --json`` report's
    encoding time.  This writer gives the same bytes for every value whose
    dict keys are all str, as every report's are: each tuple of dict keys
    is sorted and escaped once (``_key_heads``), plain ints are written by
    ``str`` (a list of them in one join, a dict value inline), True, False
    and None as the literals ``true``, ``false`` and ``null``, strings by
    json's C escaper, and every other leaf (float, int subclasses) by
    ``json.dumps``, which builds an encoder on each call.  Dicts, lists and
    tuples are recognised by ``isinstance``, as json does.
    Unlike ``json.dumps`` it refuses int, float, bool and None keys, and it
    does not look for circular references.

    Raises:
        TypeError: for a dict key that is not a str, or a value json cannot
            encode.
    """
    return _json_text(obj, "\n") + "\n"


def _json_text(obj: object, pad: str) -> str:
    """``obj`` as indented JSON; ``pad`` is a newline and the indent of its first line."""
    if type(obj) is int:
        return str(obj)
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        items = []
        for key, head in _key_heads(tuple(obj)):
            value = obj[key]
            items.append(head + (str(value) if type(value) is int else _json_text(value, inner)))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        if set(map(type, obj)) == {int}:
            body = ("," + inner).join(map(str, obj))
        else:
            body = ("," + inner).join([_json_text(x, inner) for x in obj])
        return "[" + inner + body + pad + "]"
    return json.dumps(obj)


@functools.lru_cache(maxsize=256)
def _key_heads(keys: tuple) -> tuple[tuple[str, str], ...]:
    """A dict's keys, sorted, each with its escaped ``"key": `` head.

    A report repeats a few key tuples many times (ten keys for every ring),
    so each tuple is sorted and escaped once.  A key that is not a str
    raises TypeError, in ``sorted`` or in the escaper, and nothing is cached.
    """
    return tuple((key, encode_basestring_ascii(key) + ": ") for key in sorted(keys))


def _render_text(report: dict) -> str:
    order, g_star, dich = report["order"], report["g_star"], report["dichotomy"]
    lines = [
        f"identity: {report['identity']}",
        "counts: " + ", ".join(f"{k}={v}" for k, v in report["counts"].items()),
        "sextet (descending): " + " ".join(str(c) for c in report["sextet"]),
        f"clar: {report['clar']}",
        f"order: {order['order']}"
        + (f" (failing set: {' '.join(map(str, order['failing']))})" if order["failing"] else ""),
        f"tau: {report['tau']}",
        f"pentagonal rings: {report['rings']['pentagonal_total']}",
        f"fragments: "
        + (
            ", ".join(f"{f['shape']}x{len(f['faces'])}" for f in report["fragments"])
            or "none"
        ),
        f"g_star: "
        + (f"vertex {g_star['vertex']} hexagons {g_star['hexagons']}" if g_star else "none"),
        f"dichotomy: {dich['resonant']}/{dich['hexagons']} hexagons resonant, "
        f"{dich['non_bipartite_deletions']} non-bipartite deletions",
    ]
    if "fries" in report:
        lines.append(f"fries: {report['fries']}")
    return "\n".join(lines) + "\n"


def _write_output(text: str, path: str | None) -> None:
    if path and path != "-":
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise GraphError(f"cannot write {path}: {e.strerror}") from None
    else:
        sys.stdout.write(text)


def _check_destination(path: str | None) -> None:
    """Refuse, before anything is written, a file path that cannot be opened.

    A command that writes several files checks them all first, so that a
    bad later path does not leave the earlier files behind.
    """
    if path and path != "-":
        if os.path.isdir(path):
            raise GraphError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise GraphError(f"cannot write {path}: {os.strerror(errno.ENOENT)}")


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process; parsing keeps no state."""
    p = _Parser(prog="resonantk", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="parse and check a rotation-system file")
    sp.add_argument("paths", nargs="+")

    sp = sub.add_parser("analyze", help="full structural report")
    sp.add_argument("paths", nargs="+")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--fries", action="store_true", help="include the enumeration-heavy fries number")
    sp.add_argument("--pm-cap", type=int, default=None, metavar="N")
    sp.add_argument("-o", "--output", default=None)

    sp = sub.add_parser("order", help="resonance order with a failing witness")
    sp.add_argument("path")
    sp.add_argument("--max-k", type=int, default=None, metavar="K")

    for name, help_text in (
        ("sextet", "resonant-set counting polynomial"),
        ("clar", "largest resonant set size"),
        ("fries", "most alternating hexagons over all perfect matchings"),
        ("gstar", "three-disjoint-hexagon obstruction at a vertex"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("path")
        if name == "fries":
            sp.add_argument("--pm-cap", type=int, default=None, metavar="N")

    sp = sub.add_parser("leapfrog", help="leapfrog image, matching, and provenance")
    sp.add_argument("path")
    sp.add_argument("-o", "--output", default=None)
    sp.add_argument("--emit-matching", default=None, metavar="FILE")
    sp.add_argument("--provenance", default=None, metavar="FILE")

    sp = sub.add_parser("rings", help="polygonal ring scan")
    sp.add_argument("path")
    sp.add_argument("--max-len", type=int, default=12)
    sp.add_argument("--pentagonal", action="store_true")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("fragments", help="pentagon cluster classification")
    sp.add_argument("path")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("catalog", help="built-in graphs")
    csub = sp.add_subparsers(dest="catalog_command", required=True)
    csub.add_parser("list")
    sp2 = csub.add_parser("emit")
    sp2.add_argument("name")
    sp2.add_argument("-o", "--output", default=None)
    csub.add_parser("verify")

    sp = sub.add_parser("nanotube", help="capped tube construction")
    sp.add_argument("--cap", choices=["r5", "r6"], required=True)
    sp.add_argument("--rings", type=int, required=True, metavar="K")
    sp.add_argument("-o", "--output", default=None)

    return p


def run(argv: Sequence[str] | None = None) -> int:
    """Execute one command line; returns the exit status."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    try:
        return _dispatch(args)
    except GuardExceeded as e:
        print(f"guard exceeded: {e}", file=sys.stderr)
        return 2
    except GraphError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    cmd = args.command
    # every file a command writes is checked before any work
    for name in ("output", "emit_matching", "provenance"):
        _check_destination(getattr(args, name, None))

    if cmd == "validate":
        status = 0
        for path in args.paths:
            try:
                f = _load(path)
            except GraphError as e:
                print(f"{path}: INVALID: {e}")
                status = 1
                continue
            print(
                f"{path}: fullerene graph, {f.n} vertices, "
                f"{len(f.pentagon_ids)} pentagons, {len(f.hexagon_ids)} hexagons"
            )
        return status

    if cmd == "analyze":
        # an explicit cap is checked even when fries does not run
        pm_cap = None if args.pm_cap is None else resolve_pm_cap(args.pm_cap)
        reports = []
        for path in args.paths:
            f = _load(path)
            reports.append(analyze_graph(f, with_fries=args.fries, pm_cap=pm_cap))
        if args.json:
            text = _dump_json(reports[0] if len(reports) == 1 else reports)
        else:
            text = "\n".join(_render_text(r) for r in reports)
        _write_output(text, args.output)
        return 0

    if cmd == "order":
        f = _load(args.path)
        rep = resonance_order(f, max_k=args.max_k)
        if rep.capped:
            print(f">= {rep.order}")
        else:
            print(rep.order)
        if rep.failing:
            print(f"failing set: {' '.join(map(str, rep.failing))}")
        return 0

    if cmd == "sextet":
        f = _load(args.path)
        poly = sextet(f)
        print(f"degree: {poly.degree}")
        print("coefficients (descending): " + " ".join(str(c) for c in poly.descending()))
        return 0

    if cmd == "clar":
        print(clar(_load(args.path)))
        return 0

    if cmd == "fries":
        print(fries(_load(args.path), cap=args.pm_cap))
        return 0

    if cmd == "gstar":
        witness = find_g_star(_load(args.path))
        if witness is None:
            print("none")
        else:
            print(f"vertex {witness.vertex}: hexagons {' '.join(map(str, witness.hexagons))}")
        return 0

    if cmd == "leapfrog":
        f = _load(args.path)
        lf = leapfrog(f)
        comments = [
            f"leapfrog image: {lf.image.n} vertices from a {f.n}-vertex fullerene",
            f"source identity: {graph_identity(f)}",
        ]
        _write_output(emit_graph(lf.image.graph, comments), args.output)
        if args.emit_matching:
            _write_output(lf.m0.serialize() + "\n", args.emit_matching)
        if args.provenance:
            prov = {
                "heritable": {str(k): v for k, v in sorted(lf.heritable.items())},
                "fresh": {str(k): v for k, v in sorted(lf.fresh.items())},
            }
            _write_output(_dump_json(prov), args.provenance)
        return 0

    if cmd == "rings":
        f = _load(args.path)
        rings = find_polygonal_rings(
            f,
            max_len=args.max_len,
            face_filter=PENTAGONS_ONLY if args.pentagonal else ANY,
        )
        if args.json:
            payload = [
                {
                    "faces": list(r.faces),
                    "l": r.l,
                    "s": r.s,
                    "s_prime": r.s_prime,
                    "r": r.r,
                    "n5": r.n5,
                    "n6": r.n6,
                    "all_pentagons": r.all_pentagons,
                    "inner_cycle": list(r.inner_cycle),
                    "outer_cycle": list(r.outer_cycle),
                }
                for r in rings
            ]
            sys.stdout.write(_dump_json(payload))
        else:
            for r in rings:
                kind = "pentagonal" if r.all_pentagons else "mixed"
                print(
                    f"l={r.l} s={r.s} s'={r.s_prime} r={r.r} n5={r.n5} n6={r.n6} "
                    f"({kind}) faces: {' '.join(map(str, r.faces))}"
                )
            print(f"total: {len(rings)}")
        return 0

    if cmd == "fragments":
        f = _load(args.path)
        frags = maximal_pentagonal_fragments(f)
        if args.json:
            payload = [
                {
                    "faces": list(fr.faces),
                    "shape": fr.shape,
                    "maximal": fr.maximal,
                    "gamma": fr.gamma,
                    "pentagonal": fr.pentagonal,
                    "boundary": [list(c) for c in fr.boundary],
                    "w_vertices": sorted(fr.w_vertices),
                }
                for fr in frags
            ]
            sys.stdout.write(_dump_json(payload))
        else:
            for fr in frags:
                print(
                    f"{fr.shape}: {len(fr.faces)} faces, maximal={fr.maximal}, "
                    f"gamma={fr.gamma}, boundary cycles={len(fr.boundary)}"
                )
        return 0

    if cmd == "catalog":
        if args.catalog_command == "list":
            for name in _catalog.catalog_names():
                entry = _catalog.catalog_graph(name)
                print(f"{name}: {entry.graph.n} vertices, {len(entry.graph.hexagon_ids)} hexagons")
            return 0
        if args.catalog_command == "emit":
            entry = _catalog.catalog_graph(args.name)
            _write_output(
                emit_graph(
                    entry.graph.graph,
                    [f"catalog entry {entry.name}", f"identity: {graph_identity(entry.graph)}"],
                ),
                args.output,
            )
            return 0
        # verify
        status = 0
        for name in _catalog.catalog_names():
            entry = _catalog.catalog_graph(name)
            results = _catalog.verify_entry(entry)
            bad = {k: v for k, v in results.items() if not v[2]}
            if bad:
                status = 1
                detail = "; ".join(f"{k}: expected {v[0]}, got {v[1]}" for k, v in bad.items())
                print(f"{name}: FAIL ({detail})")
            else:
                print(f"{name}: ok")
        return status

    if cmd == "nanotube":
        f = _catalog.nanotube(args.cap.upper(), args.rings)
        _write_output(
            emit_graph(
                f.graph,
                [
                    f"nanotube: {args.cap.upper()} caps, {args.rings} hexagon rings, {f.n} vertices"
                ],
            ),
            args.output,
        )
        return 0

    raise AssertionError(f"unhandled command {cmd}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
