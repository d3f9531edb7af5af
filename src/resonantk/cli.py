"""Command-line interface: validate, analyze, transform, and emit reports.

All machine output is JSON with sorted keys and a fixed enumeration order,
so identical inputs produce byte-identical bytes; the human-readable text is
a rendering of the same record.  Exit codes: 0 success, 1 validation or
usage error, 2 enumeration guard exceeded.

Each command has one handler, set on its parser as the ``handler``
default.  A handler takes the parsed arguments and returns the text the
command writes; ``validate`` and ``catalog verify`` return their exit
status with it.  :func:`run` checks every file the command writes before
any work, calls the handler, and writes its text through ``_write_output``,
the one writer of command output: the help and the files ``leapfrog``
writes beside its image go through it too.  A standard output that its
reader closed early, or that was never open, is an error (exit 1), not a
traceback.  :func:`main` then points file descriptor 1 at devnull, so that
Python's flush at exit stays quiet; in-process callers of ``run`` keep
their file descriptors as they are.
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
from typing import Callable, Iterable, Sequence

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
    """argparse variant whose usage errors exit with status 1, not 2.

    Its help is command output, written by ``_write_output``.
    """

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def print_help(self, file=None) -> None:  # type: ignore[override]
        if file is None:
            _write_output(self.format_help(), None)
        else:
            super().print_help(file)


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


def _lines(items: Iterable[object]) -> str:
    """Each item on a line of its own."""
    return "".join(f"{item}\n" for item in items)


def _ids(ids: Iterable[int]) -> str:
    return " ".join(map(str, ids))


def _record(obj: object, fields: tuple[str, ...]) -> dict:
    """The JSON record of ``obj``: each field by its attribute name."""
    return {key: getattr(obj, key) for key in fields}


# The command handlers, one for each subcommand; see the module docstring.


def _validate(args: argparse.Namespace) -> tuple[str, int]:
    lines, status = [], 0
    for path in args.paths:
        try:
            f = _load(path)
        except GraphError as e:
            lines.append(f"{path}: INVALID: {e}")
            status = 1
            continue
        lines.append(
            f"{path}: fullerene graph, {f.n} vertices, "
            f"{len(f.pentagon_ids)} pentagons, {len(f.hexagon_ids)} hexagons"
        )
    return _lines(lines), status


def _analyze(args: argparse.Namespace) -> str:
    # an explicit cap is checked even when fries does not run
    pm_cap = None if args.pm_cap is None else resolve_pm_cap(args.pm_cap)
    reports = [analyze_graph(_load(path), args.fries, pm_cap) for path in args.paths]
    if args.json:
        return _dump_json(reports[0] if len(reports) == 1 else reports)
    return "\n".join(map(_render_text, reports))


def _order(args: argparse.Namespace) -> str:
    rep = resonance_order(_load(args.path), max_k=args.max_k)
    lines = [f">= {rep.order}" if rep.capped else rep.order]
    if rep.failing:
        lines.append(f"failing set: {_ids(rep.failing)}")
    return _lines(lines)


def _sextet(args: argparse.Namespace) -> str:
    poly = sextet(_load(args.path))
    coefficients = _ids(poly.descending())
    return _lines([f"degree: {poly.degree}", f"coefficients (descending): {coefficients}"])


def _clar(args: argparse.Namespace) -> str:
    return _lines([clar(_load(args.path))])


def _fries(args: argparse.Namespace) -> str:
    return _lines([fries(_load(args.path), cap=args.pm_cap)])


def _gstar(args: argparse.Namespace) -> str:
    w = find_g_star(_load(args.path))
    return _lines([f"vertex {w.vertex}: hexagons {_ids(w.hexagons)}" if w else "none"])


def _leapfrog(args: argparse.Namespace) -> str:
    f = _load(args.path)
    lf = leapfrog(f)
    if args.emit_matching:
        _write_output(lf.m0.serialize() + "\n", args.emit_matching)
    if args.provenance:
        tables = {"heritable": lf.heritable, "fresh": lf.fresh}
        prov = {key: {str(k): v for k, v in sorted(t.items())} for key, t in tables.items()}
        _write_output(_dump_json(prov), args.provenance)
    comments = [
        f"leapfrog image: {lf.image.n} vertices from a {f.n}-vertex fullerene",
        f"source identity: {graph_identity(f)}",
    ]
    return emit_graph(lf.image.graph, comments)


# the fields of each record in ``rings --json`` and ``fragments --json``;
# a fragment's record also lists its w_vertices, sorted
_RING_FIELDS = (
    "faces", "l", "s", "s_prime", "r", "n5", "n6", "all_pentagons", "inner_cycle", "outer_cycle",
)
_FRAGMENT_FIELDS = ("faces", "shape", "maximal", "gamma", "pentagonal", "boundary")


def _rings(args: argparse.Namespace) -> str:
    face_filter = PENTAGONS_ONLY if args.pentagonal else ANY
    rings = find_polygonal_rings(_load(args.path), max_len=args.max_len, face_filter=face_filter)
    if args.json:
        return _dump_json([_record(r, _RING_FIELDS) for r in rings])
    return _lines(
        f"l={r.l} s={r.s} s'={r.s_prime} r={r.r} n5={r.n5} n6={r.n6} "
        f"({'pentagonal' if r.all_pentagons else 'mixed'}) faces: {_ids(r.faces)}"
        for r in rings
    ) + f"total: {len(rings)}\n"


def _fragments(args: argparse.Namespace) -> str:
    frags = maximal_pentagonal_fragments(_load(args.path))
    if args.json:
        return _dump_json(
            [{**_record(fr, _FRAGMENT_FIELDS), "w_vertices": sorted(fr.w_vertices)} for fr in frags]
        )
    return _lines(
        f"{fr.shape}: {len(fr.faces)} faces, maximal={fr.maximal}, "
        f"gamma={fr.gamma}, boundary cycles={len(fr.boundary)}"
        for fr in frags
    )


def _catalog_list(args: argparse.Namespace) -> str:
    return _lines(
        f"{e.name}: {e.graph.n} vertices, {len(e.graph.hexagon_ids)} hexagons"
        for e in map(_catalog.catalog_graph, _catalog.catalog_names())
    )


def _catalog_emit(args: argparse.Namespace) -> str:
    entry = _catalog.catalog_graph(args.name)
    comments = [f"catalog entry {entry.name}", f"identity: {graph_identity(entry.graph)}"]
    return emit_graph(entry.graph.graph, comments)


def _catalog_verify(args: argparse.Namespace) -> tuple[str, int]:
    lines, status = [], 0
    for entry in map(_catalog.catalog_graph, _catalog.catalog_names()):
        bad = {k: v for k, v in _catalog.verify_entry(entry).items() if not v[2]}
        if bad:
            status = 1
            detail = "; ".join(f"{k}: expected {v[0]}, got {v[1]}" for k, v in bad.items())
            lines.append(f"{entry.name}: FAIL ({detail})")
        else:
            lines.append(f"{entry.name}: ok")
    return _lines(lines), status


def _nanotube(args: argparse.Namespace) -> str:
    cap = args.cap.upper()
    f = _catalog.nanotube(cap, args.rings)
    comment = f"nanotube: {cap} caps, {args.rings} hexagon rings, {f.n} vertices"
    return emit_graph(f.graph, [comment])


def _write_output(text: str, path: str | None) -> None:
    """Write ``text`` to the file at ``path``, or to standard output if there is none or it is "-".

    The one writer of command output, help included.  Standard output is
    flushed at once, so that a reader that closed it early is a GraphError
    whether or not the stream is buffered.
    """
    to_file = path and path != "-"
    try:
        if to_file:
            with open(path, "w") as fh:
                fh.write(text)
        elif sys.stdout is None:  # Python found no file descriptor 1 at start-up
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as e:
        where = path if to_file else "standard output"
        raise GraphError(f"cannot write {where}: {e.strerror}") from None


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
    """The command-line parser, built once per process; parsing keeps no state.

    Each command's parser carries its handler as the ``handler`` default.
    """
    p = _Parser(prog="resonantk", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def command(name: str, handler: Callable, *positional: str, parent=sub, **kw) -> _Parser:
        """A command's parser; a positional named "paths" takes one or more."""
        sp = parent.add_parser(name, **kw)
        sp.set_defaults(handler=handler)
        for arg in positional:
            sp.add_argument(arg, nargs="+" if arg == "paths" else None)
        return sp

    def output(sp: _Parser) -> None:
        sp.add_argument("-o", "--output")

    command("validate", _validate, "paths", help="parse and check a rotation-system file")

    sp = command("analyze", _analyze, "paths", help="full structural report")
    sp.add_argument("--json", action="store_true")
    sp.add_argument(
        "--fries", action="store_true", help="include the enumeration-heavy fries number"
    )
    sp.add_argument("--pm-cap", type=int, metavar="N")
    output(sp)

    sp = command("order", _order, "path", help="resonance order with a failing witness")
    sp.add_argument("--max-k", type=int, metavar="K")

    command("sextet", _sextet, "path", help="resonant-set counting polynomial")
    command("clar", _clar, "path", help="largest resonant set size")
    sp = command(
        "fries", _fries, "path", help="most alternating hexagons over all perfect matchings"
    )
    sp.add_argument("--pm-cap", type=int, metavar="N")
    command("gstar", _gstar, "path", help="three-disjoint-hexagon obstruction at a vertex")

    sp = command("leapfrog", _leapfrog, "path", help="leapfrog image, matching, and provenance")
    output(sp)
    sp.add_argument("--emit-matching", metavar="FILE")
    sp.add_argument("--provenance", metavar="FILE")

    sp = command("rings", _rings, "path", help="polygonal ring scan")
    sp.add_argument("--max-len", type=int, default=12)
    sp.add_argument("--pentagonal", action="store_true")
    sp.add_argument("--json", action="store_true")

    sp = command("fragments", _fragments, "path", help="pentagon cluster classification")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("catalog", help="built-in graphs")
    csub = sp.add_subparsers(dest="catalog_command", required=True)
    command("list", _catalog_list, parent=csub)
    output(command("emit", _catalog_emit, "name", parent=csub))
    command("verify", _catalog_verify, parent=csub)

    sp = command("nanotube", _nanotube, help="capped tube construction")
    sp.add_argument("--cap", choices=["r5", "r6"], required=True)
    sp.add_argument("--rings", type=int, required=True, metavar="K")
    output(sp)

    return p


def run(argv: Sequence[str] | None = None) -> int:
    """Execute one command line; returns the exit status.

    Every file the command writes is checked before any work, and two
    options that name one file are refused; then its handler runs, and the
    text it returns goes through ``_write_output``.
    """
    try:
        args = _build_parser().parse_args(argv)
        named: dict[str, str] = {}
        for name in ("output", "emit_matching", "provenance"):
            path = getattr(args, name, None)
            _check_destination(path)
            if path and path != "-":
                option = "--" + name.replace("_", "-")
                first = named.setdefault(os.path.realpath(path), option)
                if first != option:
                    raise GraphError(f"{first} and {option} name the same file {path}")
        result = args.handler(args)
        text, status = result if isinstance(result, tuple) else (result, 0)
        _write_output(text, getattr(args, "output", None))
        return status
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    except GuardExceeded as e:
        print(f"guard exceeded: {e}", file=sys.stderr)
        return 2
    except GraphError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    """The ``resonantk`` script: exits with the status of :func:`run`."""
    status = run()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:
        # The reader closed standard output, which run has reported.  Point
        # file descriptor 1 at devnull, so that Python's flush at exit does
        # not report the unwritten rest again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(status)


if __name__ == "__main__":
    main()
