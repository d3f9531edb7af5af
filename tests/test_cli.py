"""Command-line behaviour: exit codes, output shapes, determinism."""

from __future__ import annotations

import argparse
import dataclasses
import enum
import errno
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resonantk

from resonantk import catalog as _catalog
from resonantk import rings_fragments
from resonantk.cli import _build_parser, _dump_json, run
from resonantk.plane_graph import emit_graph, parse_graph, validate_fullerene


@pytest.fixture()
def f24_file(tmp_path):
    path = tmp_path / "f24.rot"
    assert run(["catalog", "emit", "F24", "-o", str(path)]) == 0
    return path


def test_validate_ok(f24_file, capsys):
    assert run(["validate", str(f24_file)]) == 0
    out = capsys.readouterr().out
    assert "24 vertices" in out and "12 pentagons" in out


def test_validate_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.rot"
    bad.write_text("4\n0: 1 2 3\n1: 0 2 3\n2: 0 3 1\n3: 0 1 2\n")
    assert run(["validate", str(bad)]) == 1
    assert "INVALID" in capsys.readouterr().out
    assert run(["validate", str(tmp_path / "absent.rot")]) == 1


def test_non_utf8_file_is_a_graph_error(tmp_path, capsys):
    bad = tmp_path / "bad.rot"
    bad.write_bytes(b"\xff\xfe")
    assert run(["validate", str(bad)]) == 1
    assert "INVALID" in capsys.readouterr().out
    assert run(["analyze", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_a_leading_byte_order_mark_is_read_past(tmp_path, capsys):
    plain = tmp_path / "f20.rot"
    assert run(["catalog", "emit", "F20", "-o", str(plain)]) == 0
    text = plain.read_bytes()
    marked = tmp_path / "f20-bom.rot"
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    capsys.readouterr()
    assert run(["validate", str(marked)]) == 0
    assert "20 vertices" in capsys.readouterr().out
    reports = []
    for path in (plain, marked):
        assert run(["analyze", str(path), "--json"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    # a mark anywhere past the start is no part of the format
    late = tmp_path / "f20-late.rot"
    late.write_bytes(text.replace(b"\n0:", b"\n\xef\xbb\xbf0:", 1))
    assert run(["validate", str(late)]) == 1
    assert "INVALID" in capsys.readouterr().out
    # a byte that does not decode is counted from the start of the file
    broken = tmp_path / "broken.rot"
    broken.write_bytes(b"\xef\xbb\xbf4\n\xff")
    assert run(["validate", str(broken)]) == 1
    assert "byte 5 cannot be decoded" in capsys.readouterr().out


def _commands(parser=None, prefix=()):
    """(argv prefix, parser) of every command, read off the parser's subcommands."""
    parser = parser or _build_parser()
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield prefix, parser
    for action in subparsers:
        for name, sp in action.choices.items():
            yield from _commands(sp, (*prefix, name))


def _dests(parser):
    return {action.dest for action in parser._actions}


COMMANDS = dict(_commands())

# the commands that read a graph file
FILE_COMMANDS = tuple(
    " ".join(prefix) for prefix, sp in COMMANDS.items() if _dests(sp) & {"path", "paths"}
)


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_malformed_graphs_are_graph_errors(command, tmp_path, capsys):
    # Off the sphere, disconnected, asymmetric, and a plane graph that is no
    # fullerene: each ends in exit 1 with a message, never a traceback.
    from test_plane_graph import K4, K4_TORUS, _f20_plus_k33

    f20 = _catalog.catalog_graph("F20").graph
    texts = {
        "K4 on the torus": K4_TORUS,
        "F20 + K3,3": emit_graph(_f20_plus_k33({"F20": f20})),
        "asymmetric F20": emit_graph(f20).replace("\n0: 1 7 4\n", "\n0: 1 2 3\n"),
        "K4": K4,
    }
    assert texts["asymmetric F20"] != emit_graph(f20)
    path = tmp_path / "in.rot"
    for name, text in texts.items():
        path.write_text(text)
        assert run([command, str(path)]) == 1, name
        out, err = capsys.readouterr()
        assert err.startswith("error:") or f"{path}: INVALID:" in out, name
        assert "Traceback" not in out + err, name


def test_analyze_scans_pentagonal_rings_once(f24_file, capsys, monkeypatch):
    calls = []
    scan = rings_fragments.find_polygonal_rings

    def counted(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(rings_fragments, "find_polygonal_rings", counted)
    assert run(["analyze", str(f24_file), "--json"]) == 0
    assert len(calls) == 1


def _argv_on_f24(prefix, parser, f24_file):
    """A command line that runs the command on F24, with one value for each required argument."""
    argv = list(prefix)
    for action in parser._actions:
        if not action.option_strings:
            argv.append({"path": str(f24_file), "paths": str(f24_file), "name": "F24"}[action.dest])
        elif action.required:
            argv += [action.option_strings[0], action.choices[0] if action.choices else "1"]
    return argv


@pytest.mark.parametrize("prefix", COMMANDS, ids=" ".join)
def test_every_command_runs_on_f24(prefix, f24_file, tmp_path, capsys):
    parser = COMMANDS[prefix]
    argv = _argv_on_f24(prefix, parser, f24_file)
    capsys.readouterr()
    assert run(argv) == 0
    printed = capsys.readouterr().out
    assert printed
    if "output" in _dests(parser):
        out = tmp_path / "out"
        assert run([*argv, "-o", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == printed


def _cli_env():
    """The environment of a fresh ``python -m resonantk.cli`` that imports this source tree."""
    src = str(Path(resonantk.__file__).parent.parent)
    return {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv", [["clar", "{c60}"], ["rings", "{c60}", "--json"], ["--help"]], ids=" ".join
)
def test_a_closed_standard_output_is_exit_one(argv, unbuffered, tmp_path):
    c60 = _emit("C60", tmp_path / "c60.rot")
    env = _cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    # the reader of the pipe is gone before the command writes
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "resonantk.cli", *(a.format(c60=c60) for a in argv)],
            env=env,
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    expected = f"error: cannot write standard output: {os.strerror(errno.EPIPE)}\n"
    assert (done.returncode, done.stderr.decode()) == (1, expected)


def test_no_standard_output_is_exit_one(tmp_path):
    # file descriptor 1 closed before Python starts
    c60 = _emit("C60", tmp_path / "c60.rot")
    script = 'exec "$0" -m resonantk.cli clar "$1" >&-'
    argv = ["sh", "-c", script, sys.executable, str(c60)]
    done = subprocess.run(argv, env=_cli_env(), capture_output=True)
    expected = f"error: cannot write standard output: {os.strerror(errno.EBADF)}\n"
    assert (done.returncode, done.stderr.decode()) == (1, expected)


def test_usage_error_exits_one(capsys):
    assert run(["analyze"]) == 1
    assert run(["not-a-command"]) == 1
    assert run(["nanotube", "--cap", "r9", "--rings", "1"]) == 1


def test_parser_built_once_keeps_no_state(f24_file, capsys, monkeypatch):
    # the parser is built once per process: a usage error must not leak into
    # later runs, whose output must equal that of fresh processes
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
    env = _cli_env()
    assert run(["rings", str(f24_file), "--max-len", "x"]) == 1
    assert "usage:" in capsys.readouterr().err
    for argv in (
        ["analyze", str(f24_file), "--json"],
        ["rings", str(f24_file), "--max-len", "8", "--json"],
        ["order", str(f24_file)],
    ):
        assert run(argv) == 0
        fresh = subprocess.run(
            [sys.executable, "-m", "resonantk.cli", *argv], env=env, capture_output=True, check=True
        )
        assert capsys.readouterr().out.encode() == fresh.stdout, argv[0]
    fresh = subprocess.run(
        [sys.executable, "-m", "resonantk.cli", "analyze"], env=env, capture_output=True
    )
    assert run(["analyze"]) == 1
    assert (fresh.returncode, capsys.readouterr().err.encode()) == (1, fresh.stderr)


RINGS_JSON_DIGESTS = {
    # SHA-256 of `rings NAME.rot --max-len 9 --json`, recorded before the ring
    # scan was pruned by dual distance and its sides measured with bitmasks
    "F20": "4aef24caa22bdea88a8415e2451ddc43e9e9cc882579c777ac0d9189e03b9157",
    "F24": "bf9c11b6c20d5f730c408dead3ddb0f078e2c26b679cca0e5bf5ffda33342800",
    "F28": "36f1fc12247b2b8c7bb2d6399b6f96cc805baf486519191f1eb187878da8febe",
    "F30": "66d0ea36c851fe7fc0c463f026b78e29aafc4c4259e33636e801ef36fb8fe011",
    "F32": "a635ac2084e4c8c67910e80cc64046697b1344482489f35f7aeda0ecf7eac647",
    "F36_1": "ea0009146212a1e38f9a77f308c1ba0353f4ff5d6de77f0536c07c6ee5313ff8",
    "F36_2": "ff759a266e8397bd1a3a8593a3617f7fa6f6d4a16b1c05dfbc7c87992aa28ffd",
    "F40": "6e2b4d2675ba42447497c20c2f734bfa68cf03ccb12e3e67ef9155548ff104cc",
    "F48": "5dfe4b2d2bb4f1afe30596592aee932f61b3cefc1b821f9ded480efd949de400",
    "C60": "ac31f6c6a9e43453d5fc5f051a34ba11acc91c97e62e9ac5ea1dfcc0e359d4e5",
    "C70": "e2993cbc720dd58fd8e3d9076f51d50c94495116abdf23581afb53994715ee32",
}


@pytest.mark.parametrize("name", sorted(RINGS_JSON_DIGESTS))
def test_rings_json_pinned(name, tmp_path, capsys):
    src = tmp_path / "in.rot"
    assert run(["catalog", "emit", name, "-o", str(src)]) == 0
    capsys.readouterr()
    assert run(["rings", str(src), "--max-len", "9", "--json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == RINGS_JSON_DIGESTS[name]


def test_rings_max_len_past_the_face_count(tmp_path, capsys):
    src = tmp_path / "f20.rot"
    assert run(["catalog", "emit", "F20", "-o", str(src)]) == 0
    capsys.readouterr()
    outputs = []
    for max_len in ("12", "1000000000"):
        assert run(["rings", str(src), "--max-len", max_len, "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and len(outputs[0]) == 21183


RINGS_JSON_MORE_DIGESTS = {
    # SHA-256 of `rings SOURCE.rot --max-len L --json`, recorded before the
    # ring builder walked the cycles off the face arcs: the catalog graphs at
    # the benchmark's length 12 (F28 and F30 give their length-9 bytes
    # there), and the first three tubes of each cap at length 9
    ("F32", 12): "f705ec7f9da5dde199bde93d3c9ad1081ce3f31b069a83a18078e01bc17095a8",
    ("F36_1", 12): "07f42b718d32609d2d721a3b5d7f101617a72d586efe4666a804d79007dc731f",
    ("F36_2", 12): "bf976b90e530aa739ec1027615f22279ac7db7a4007d7e4451c038bc687c4614",
    ("F40", 12): "c62a2496a47a0f3512e8a1d50cd5005533e15a6ecbdb28ff60a988fa012811c7",
    ("F48", 12): "b819997b3fc90bc6ba67ae66f511c66b0524f4dbf048906c2ddf9f04c3c39267",
    ("R5_1", 9): "0de8a539487bd900281fe189b0cfab5789b3c8747bb4bc2b87e4ac328177416b",
    ("R5_2", 9): "8b12ec19b25568d850663c7e51d1d684f0e95fbd9c86251d87340933bf2cf339",
    ("R5_3", 9): "7eb0903c7067ad4f702fe730a20517fba8012c6b0803dedd2b83b304ec9529a1",
    ("R6_1", 9): "107b87f8d6b3bb79fff3f02cfc163ea5bcf09317d98055200f6c86b5abfe08ab",
    ("R6_2", 9): "1e594aee98d8b7bb54d1357b918b2e41ff292d45b37b3517c3f7ee15497e20e8",
    ("R6_3", 9): "cfbd3da78d8d436932a349d2824a471bd1319a3c26bf36d7d2c3ec93c2852167",
}


@pytest.mark.parametrize("name, max_len", sorted(RINGS_JSON_MORE_DIGESTS))
def test_rings_json_pinned_more(name, max_len, tmp_path, capsys):
    src = tmp_path / "in.rot"
    if name.startswith("R"):
        cap, k = name.lower().split("_")
        assert run(["nanotube", "--cap", cap, "--rings", k, "-o", str(src)]) == 0
    else:
        assert run(["catalog", "emit", name, "-o", str(src)]) == 0
    capsys.readouterr()
    assert run(["rings", str(src), "--max-len", str(max_len), "--json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == RINGS_JSON_MORE_DIGESTS[name, max_len]


FRAGMENTS_JSON_DIGESTS = {
    # SHA-256 of `fragments NAME.rot --json`, recorded before fragments moved
    # onto the ring scan's face masks
    "F20": "65d1d14aa31263e4192c8dc864771f25e0f93aa69b86375fdaef550251fb5539",
    "F24": "6f395085c35670cb0dd6ace45caeff1d07fe897b39f5088a889efe941d57509a",
    "F28": "bcc164dbd6d7537d294707c36440e80938f6adb70adaa849403ae809a6437cd1",
    "F30": "6b6896dbf462f08c913da2cda9f665a2d5ee9a29a46a643e5908a7205f7daa4f",
    "F32": "39909649b0139d5aa1faa7d8b99f459eddfd3663e0b2f0e8eb3055629051301a",
    "F36_1": "e300ff16106a4f729fb16a40d8be4f19d1c6584a4448b8d7712a9254ced7e17f",
    "F36_2": "a5ebace18ba66dd6ec3c3c1059a6695803bcb367f9ec94b55435df01ccd2b67b",
    "F40": "999e3cb2b21c4393681f270c27956c1aad4741aac40aa28999ddc621350d19ab",
    "F48": "fd087730ab168f1291aadadc79044171cfdbabd64eb81845bbeaf16a1385cfbb",
    "C60": "74a83babac96d504e8de666c7fdd2524c60b3656489a8f97540babebfdb40aec",
    "C70": "4a15a8f7a6d5c67a822d73fa93da49ef84e3a63005e6214045a7bf48409bbb4a",
    "R5_1": "9e74b0201474dcdd7a17feef094aebe92936e202d3d9e2b152a10da39492fd06",
    "R5_2": "9602bc95a81b943273939b2ada9ea07f894c1aad96042b07b628dc11e29b58ec",
    "R5_3": "0b7d7fd95e45b14b006f804d741d5f99385ee81d787f842d949a67c66484c3cb",
    "R6_1": "cfc43bf260ca66fa7ed367a8cd22599c54daa1f67c9280d40813d5099f93e7ab",
    "R6_2": "61c9e68f915f18ad3a7c511ea99bda764f40e2a3eea67d7ba0cd6aeced788729",
    "R6_3": "c45a0972f5d9dcbfbb5f085adebb6fbfea2334712548fc6f41c748758ce73176",
}


def _emit(name, path):
    """Write a catalog graph or an R5_k/R6_k tube to ``path``."""
    if name[:3] in ("R5_", "R6_"):
        emit = ["nanotube", "--cap", name[:2].lower(), "--rings", name[3:], "-o", str(path)]
    else:
        emit = ["catalog", "emit", name, "-o", str(path)]
    assert run(emit) == 0
    return path


@pytest.mark.parametrize("name", sorted(FRAGMENTS_JSON_DIGESTS))
def test_fragments_json_pinned(name, tmp_path, capsys):
    src = _emit(name, tmp_path / "in.rot")
    capsys.readouterr()
    assert run(["fragments", str(src), "--json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == FRAGMENTS_JSON_DIGESTS[name]


ANALYZE_JSON_DIGESTS = {
    # SHA-256 of `analyze NAME.rot --json`, recorded before the resonance
    # walk dropped its memo of decided sets
    "F20": "31aaf0ecf5551669c43d07e65b44ae5a16701c6bcc06e950cc7288cff5e8df2d",
    "F24": "decdd492a49cd51041237ae1de4fc45ca7d9f1c0af03f1a7e2e79318ccafd291",
    "F28": "484fb4556e7c925921927527880ee3e9216b62207a18c6ecbe0effb12b265096",
    "F30": "c28c139c657e6cd5dbea00d3e938a56b1f9eb7f119c5ee9a6ba197e1c28a3cf5",
    "F32": "8728a4098e40a68b06809c164c313a2b8d90c0be0a24de25dd7f0179b7a045f2",
    "F36_1": "fba30df621619749ecb36fbd288b7b7aeb782b85bd00a12060aec54a85391700",
    "F36_2": "60b4401f6133adbdf293aa62aa0e39df6304940423d6e0fd27e4e4c431080074",
    "F40": "7cc8e4c8fb40f8b6d4b529172d6884471d5cc1e41d3ced242f2cdc1d177f2789",
    "F48": "a9a48e29e31f79eea4bacdde55b695250875705d7f03dc61f61e69ecc17a94a3",
    "C60": "cd96ccd62202eb94bef2207379a28fd1d9a17cb0d964298cb9bf98d12300d1b9",
    "C70": "45915d1a3fd2f2a6e84e180cb1e4f984488fe39b7471a928446018ec3bfc8aae",
    "R5_1": "bf62ec50663e767e42ac17a5acc83fff30dfa257b6a0bf9e25719d4d803bb2cd",
    "R5_2": "0de97612c369506bce5f1cf31b3ff43801c8ac83a2519299c4c2678cfd28249b",
    "R5_3": "240af28fbdcf93acc2f31345b26efac646f405843fa42066d0999ca0e6cc90f8",
    "R5_4": "88bcf4c094d572edb14de51d060e7315135aa6a703baa3bf01bfb142bf84a224",
    "R5_5": "9354feff86df96cd10350c4be2aa8539d10821162f21e19b55bc0bfd30d5fc0b",
    "R6_1": "5dde77e8e6223211b4bb23192abfefa395403e4cff565ec1bba864d717e7b01b",
    "R6_2": "40949d778712b67bed79f6c50b060d441b57250077ddb895ef8fd1b7302d7657",
    "R6_3": "a25150a68976be24c1c2c3aaf2fb68497007fe68fa74b45f5a4338383e35849e",
    "R6_4": "c8a498c5585c9a43154b6668d4fa328b2ff87738ecca44b5698f6cda36010ea8",
}


@pytest.mark.parametrize("name", sorted(ANALYZE_JSON_DIGESTS))
def test_analyze_json_pinned(name, tmp_path, capsys):
    src = _emit(name, tmp_path / "in.rot")
    capsys.readouterr()
    assert run(["analyze", str(src), "--json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == ANALYZE_JSON_DIGESTS[name]


def test_analyze_json_deterministic(f24_file, capsys):
    assert run(["analyze", str(f24_file), "--json"]) == 0
    first = capsys.readouterr().out
    assert run(["analyze", str(f24_file), "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["schema"] == "resonantk-report/1"
    assert report["counts"]["vertices"] == 24
    assert report["sextet"] == [1, 2, 1]
    assert report["clar"] == 2
    assert report["order"]["order"] == "ALL"
    assert report["tau"] == 6
    assert "fries" not in report  # opt-in


def test_analyze_fries_flag(f24_file, capsys):
    assert run(["analyze", str(f24_file), "--json", "--fries"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["fries"] == 2


def test_analyze_batch_order(f24_file, tmp_path, capsys):
    f20 = tmp_path / "f20.rot"
    run(["catalog", "emit", "F20", "-o", str(f20)])
    assert run(["analyze", str(f24_file), str(f20), "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["counts"]["vertices"] for r in reports] == [24, 20]


def test_analyze_output_file(f24_file, tmp_path):
    out = tmp_path / "report.json"
    assert run(["analyze", str(f24_file), "--json", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["counts"]["vertices"] == 24


def test_order_c70(tmp_path, capsys):
    c70 = tmp_path / "c70.rot"
    run(["catalog", "emit", "C70", "-o", str(c70)])
    assert run(["order", str(c70)]) == 0
    out = capsys.readouterr().out
    assert out == "2\nfailing set: 1 10 18\n"
    assert run(["order", str(c70), "--max-k", "1"]) == 0
    assert capsys.readouterr().out == ">= 1\n"


def test_order_is_all_on_the_nine(tmp_path, capsys):
    for name in _catalog.THE_NINE:
        path = tmp_path / f"{name}.rot"
        run(["catalog", "emit", name, "-o", str(path)])
        assert run(["order", str(path)]) == 0
        assert capsys.readouterr().out == "ALL\n", name


def test_scalar_commands(f24_file, capsys):
    assert run(["sextet", str(f24_file)]) == 0
    assert "coefficients (descending): 1 2 1" in capsys.readouterr().out
    assert run(["clar", str(f24_file)]) == 0
    assert capsys.readouterr().out == "2\n"
    assert run(["fries", str(f24_file)]) == 0
    assert capsys.readouterr().out == "2\n"
    assert run(["gstar", str(f24_file)]) == 0
    assert capsys.readouterr().out == "none\n"


TEXT_DIGESTS = {
    # SHA-256 of the text (not --json) output of each command on a catalog graph
    ("rings", "F24", "--pentagonal", "--max-len", "8"):
        "3ba0a8c651ac51d6d940dc6faab9c46eefcfbb0b39044e39883fb72a8e194f8c",
    ("fragments", "F36_1"): "ec5b064536ed21fc324962af6aa894b8c71a67f82c88af6c3e78d4ec782b6c8c",
    ("gstar", "F30"): "4b0c41fba251d37b221e8f091f531cea52265d98f8e663c23cffbe1c409993a7",
    ("analyze", "F28", "--fries"): "e2124433044d61e97ad93af18113d57fe071eb9081a4f2516d148e071e455000",
}


@pytest.mark.parametrize("command", sorted(TEXT_DIGESTS))
def test_text_outputs_pinned(command, tmp_path, capsys):
    cmd, name, *flags = command
    src = _emit(name, tmp_path / "in.rot")
    capsys.readouterr()
    assert run([cmd, str(src), *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TEXT_DIGESTS[command]
    if cmd == "gstar":
        assert out == "vertex 18: hexagons 2 6 16\n"
    if cmd == "analyze":
        assert out.endswith("\nfries: 4\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("4\n0 1 2 3\n1: 0 3 2\n2: 0 1 3\n3: 0 2 1\n", "vertex line '0 1 2 3' lacks the 'i:' prefix"),
        ("4\n0: 1 x 3\n1: 0 3 2\n2: 0 1 3\n3: 0 2 1\n", "unparseable vertex line '0: 1 x 3'"),
        ("4\n1: 0 3 2\n0: 1 2 3\n2: 0 1 3\n3: 0 2 1\n", "vertex lines out of order: expected 0, got 1"),
        ("4\n0: 1 2\n1: 0 3 2\n2: 0 1 3\n3: 0 2 1\n", "vertex 0 lists 2 neighbours; the graph must be cubic"),
    ],
)
def test_validate_names_the_malformed_line(text, message, tmp_path, capsys):
    bad = tmp_path / "bad.rot"
    bad.write_text(text)
    assert run(["validate", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"{bad}: INVALID: {message}\n"
    assert "Traceback" not in captured.err


def test_invalid_integer_limits_exit_one(f24_file, tmp_path, capsys):
    assert run(["order", str(f24_file), "--max-k", "-1"]) == 1
    assert "max_k must be at least 0" in capsys.readouterr().err
    assert run(["order", str(f24_file), "--max-k", "0"]) == 0
    assert capsys.readouterr().out == ">= 0\n"
    for cmd in (["fries"], ["analyze", "--fries"], ["analyze"], ["analyze", "--json"]):
        assert run([*cmd, str(f24_file), "--pm-cap", "0"]) == 1
        assert "perfect matching cap must be at least 1" in capsys.readouterr().err
    assert run(["analyze", str(f24_file), "--pm-cap", "1"]) == 0  # fries does not run
    capsys.readouterr()
    assert run(["rings", str(f24_file), "--max-len", "-1"]) == 1
    assert "max_len must be at least 0" in capsys.readouterr().err
    assert run(["nanotube", "--cap", "r5", "--rings", "0", "-o", str(tmp_path / "t.rot")]) == 1
    assert "hex_rings must be at least 1" in capsys.readouterr().err


def test_fries_on_c60_at_its_matching_count(tmp_path, capsys):
    # C60 has 12,500 perfect matchings: a cap of exactly that passes
    c60 = _emit("C60", tmp_path / "c60.rot")
    assert run(["fries", str(c60), "--pm-cap", "12500"]) == 0
    assert capsys.readouterr().out == "20\n"
    assert run(["fries", str(c60), "--pm-cap", "12499"]) == 2
    assert "guard exceeded" in capsys.readouterr().err


def test_guard_exit_code(tmp_path, capsys):
    c60 = tmp_path / "c60.rot"
    run(["catalog", "emit", "C60", "-o", str(c60)])
    assert run(["fries", str(c60), "--pm-cap", "10"]) == 2
    assert "guard exceeded" in capsys.readouterr().err


def test_leapfrog_outputs(f24_file, tmp_path):
    image = tmp_path / "image.rot"
    m0 = tmp_path / "m0.txt"
    prov = tmp_path / "prov.json"
    assert (
        run(
            [
                "leapfrog",
                str(f24_file),
                "-o",
                str(image),
                "--emit-matching",
                str(m0),
                "--provenance",
                str(prov),
            ]
        )
        == 0
    )
    f = validate_fullerene(parse_graph(image.read_text()))
    assert f.n == 72
    lines = m0.read_text().strip().splitlines()
    assert len(lines) == 36
    assert all("-" in line for line in lines)
    p = json.loads(prov.read_text())
    assert len(p["heritable"]) == 14
    assert len(p["fresh"]) == 24


@pytest.mark.parametrize("target", ["missing", "directory"])
@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{f24}", "-o", "{out}"],
        ["leapfrog", "{f24}", "-o", "{out}"],
        ["leapfrog", "{f24}", "-o", "{tmp}/image.rot", "--emit-matching", "{out}"],
        ["catalog", "emit", "F24", "-o", "{out}"],
        ["nanotube", "--cap", "r5", "--rings", "1", "-o", "{out}"],
    ],
)
def test_unwritable_output_is_a_graph_error(argv, target, f24_file, tmp_path, capsys):
    out = tmp_path / "absent" / "x.out" if target == "missing" else tmp_path
    args = [a.format(f24=f24_file, out=out, tmp=tmp_path) for a in argv]
    assert run(args) == 1
    assert f"error: cannot write {out}:" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unwritable_output_is_refused_before_the_analysis(
    target, f24_file, tmp_path, capsys, monkeypatch
):
    # analyze ran the whole analysis before it refused the path
    def sextet(f):
        raise AssertionError("the analysis ran")

    monkeypatch.setattr(resonantk.cli, "sextet", sextet)
    out = tmp_path / "absent" / "x.out" if target == "missing" else tmp_path
    assert run(["analyze", str(f24_file), "-o", str(out)]) == 1
    assert f"error: cannot write {out}:" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["missing", "directory"])
@pytest.mark.parametrize("flag", ["-o", "--emit-matching", "--provenance"])
def test_failed_leapfrog_leaves_no_output(flag, target, f24_file, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    paths = {"-o": out / "image.rot", "--emit-matching": out / "m0.txt", "--provenance": out / "p.json"}
    paths[flag] = out / "absent" / "x.out" if target == "missing" else out
    argv = ["leapfrog", str(f24_file)] + [a for item in paths.items() for a in map(str, item)]
    assert run(argv) == 1
    assert f"error: cannot write {paths[flag]}:" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "first, second", [("-o", "--emit-matching"), ("-o", "--provenance"), ("--emit-matching", "--provenance")]
)
def test_two_outputs_naming_one_file_are_refused(first, second, f24_file, tmp_path, capsys, monkeypatch):
    # the later write replaced the earlier, so the image or M0 was lost
    # without an error; it is refused before the leapfrog is built
    def leapfrog(f):
        raise AssertionError("the leapfrog was built")

    monkeypatch.setattr(resonantk.cli, "leapfrog", leapfrog)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    paths = {"-o": "out/image.rot", "--emit-matching": "out/m0.txt", "--provenance": "out/p.json"}
    paths[second] = f"./out/../{paths[first]}"  # the same file, spelled otherwise
    argv = ["leapfrog", str(f24_file)] + [a for item in paths.items() for a in item]
    assert run(argv) == 1
    option = "--output" if first == "-o" else first
    assert capsys.readouterr().err == f"error: {option} and {second} name the same file {paths[second]}\n"
    assert list(out.iterdir()) == []


def test_standard_output_may_be_named_twice(f24_file, tmp_path, capsys):
    prov = tmp_path / "p.json"
    assert run(["leapfrog", str(f24_file), "-o", "-", "--emit-matching", "-", "--provenance", str(prov)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("0-") and "leapfrog image: 72 vertices" in out
    assert json.loads(prov.read_text())["fresh"]


def test_leapfrog_past_255_vertices(tmp_path, capsys):
    # the source identity line needs the two-byte canonical code
    tube = tmp_path / "tube.rot"
    image = tmp_path / "image.rot"
    assert run(["nanotube", "--cap", "r6", "--rings", "25", "-o", str(tube)]) == 0
    assert validate_fullerene(parse_graph(tube.read_text())).n == 324
    assert run(["leapfrog", str(tube), "-o", str(image)]) == 0
    assert validate_fullerene(parse_graph(image.read_text())).n == 972
    assert "source identity: " in image.read_text()


# SHA-256 of the image, M0 and provenance files written by
# ``leapfrog -o/--emit-matching/--provenance``, concatenated, on each catalog
# graph's emitted file.  Recorded before provenance was read off the arc
# construction, and C60 and C70 before a result's provenance was checked
# when built; the outputs must not change.
LEAPFROG_OUTPUT_DIGESTS = {
    "F20": "dad243a87073f0db610a9ad6843326a05a5e863d916613a6e5cd52f7ef7851ce",
    "F24": "d2b7f7957200b5aba138926eb0dfa96eefcc9e5aa284aac90acc494b94f149cf",
    "F28": "b86ca1ba64ff8d86a97c36682ed7f2a6b93233c3198c401c34d4caea6ce67bf2",
    "F30": "7a902cd77fc0c0fa709eb3b4b2f1d6efb49ac721bee84e38561508f6789cb09b",
    "F32": "3c208b8850532e160e662244d769c8e921e77032efdd662ada0a28b591377f78",
    "F36_1": "7964d5464da2cf6d85de9d0c2c91dd11eba644ae78701b28805f6eb9468456ef",
    "F36_2": "4a96ba6db641bab1f734aec0cdec47c66b850d6970809b1daf1a0a3fff3f5c8b",
    "F40": "771aa0e906dae149b250227698bbf9e965808e6770692ecdeb40271b9efebecc",
    "F48": "a3e8d2b5f6e12dbbd817ac3ae6a32f440acd0c8b87f331028791ce62d6038dd6",
    "C60": "0c7597ae8b7819f97ef80b24fe9bb5025973289d86613d78438b13df45269870",
    "C70": "f9f05a46de9ddffadbfd9953fa80624d35d314e1e424d6b81fdaa2420fdc24d5",
}


@pytest.mark.parametrize("name", sorted(LEAPFROG_OUTPUT_DIGESTS))
def test_leapfrog_outputs_pinned(name, tmp_path):
    src = tmp_path / "in.rot"
    assert run(["catalog", "emit", name, "-o", str(src)]) == 0
    paths = [tmp_path / "image.rot", tmp_path / "m0.txt", tmp_path / "prov.json"]
    argv = ["leapfrog", str(src), "-o", str(paths[0])]
    argv += ["--emit-matching", str(paths[1]), "--provenance", str(paths[2])]
    assert run(argv) == 0
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest()
    assert digest == LEAPFROG_OUTPUT_DIGESTS[name]


def test_rings_json(tmp_path, capsys):
    f20 = tmp_path / "f20.rot"
    run(["catalog", "emit", "F20", "-o", str(f20)])
    assert run(["rings", str(f20), "--json"]) == 0
    rings = json.loads(capsys.readouterr().out)
    assert len(rings) == 52
    assert run(["rings", str(f20), "--max-len", "5", "--pentagonal", "--json"]) == 0
    five = json.loads(capsys.readouterr().out)
    assert len(five) == 12
    assert all(r["l"] == 5 and r["all_pentagons"] for r in five)


def test_fragments_json(tmp_path, capsys):
    f36 = tmp_path / "f36.rot"
    run(["catalog", "emit", "F36_1", "-o", str(f36)])
    assert run(["fragments", str(f36), "--json"]) == 0
    frags = json.loads(capsys.readouterr().out)
    assert [fr["shape"] for fr in frags] == ["TURTLE", "TURTLE"]


def _stdlib_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_json_writer_matches_the_stdlib(value):
    assert _dump_json(value) == _stdlib_json(value)


class _Kind(enum.IntEnum):
    SEVEN = 7


class _Count(int):
    def __str__(self):
        return "a count"


class _Items(list):
    pass


@pytest.mark.parametrize(
    "value",
    [
        OrderedDict([("b", [2, 1]), ("a", OrderedDict([("d", 1), ("c", None)]))]),
        _Items([3, _Items([1, 2]), "x"]),
        (1, (2, "t"), ()),
        [_Kind.SEVEN, 1],
        [_Count(3), _Count(4)],
        {"kind": _Kind.SEVEN, "kinds": (_Kind.SEVEN,)},
        [1, True, None],
        [math.nan, math.inf, -math.inf, -0.0, 1e300, 0.1],
        ["h\u00e9 \u2603 \U0001f600", "\x00\x1f\t\n", '"quoted" back\\slash'],
        {"\u00e9": 1, "a\nb": "\"", "": ""},
        [],
        {},
        [[], {}, [[]], [{}], {"a": []}, {"b": {}}],
        {"a": {"b": {"c": [[], {}]}}},
        "top",
        1.5,
        None,
        {"yes": True, "no": False, "none": None, "zero": 0, "one": 1},
        True,
        False,
    ],
)
def test_json_writer_matches_the_stdlib_on_edge_cases(value):
    assert _dump_json(value) == _stdlib_json(value)


@pytest.mark.parametrize("value", [{1: "a"}, {"a": {None: 1}}, [{"a": 1, 2.5: 2}]])
def test_json_writer_refuses_keys_that_are_not_str(value):
    with pytest.raises(TypeError):
        _dump_json(value)


def test_catalog_commands(capsys):
    assert run(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("F20:")
    assert len(out.splitlines()) == 11


def test_catalog_verify(capsys, monkeypatch):
    names = _catalog.catalog_names()
    assert run(["catalog", "verify"]) == 0
    assert capsys.readouterr().out.splitlines() == [f"{name}: ok" for name in names]
    # one wrong fact fails that entry alone, and the exit code
    n, pentagons, facts = _catalog._CATALOG["F30"]
    wrong = dataclasses.replace(facts, order=2)
    monkeypatch.setitem(_catalog._CATALOG, "F30", (n, pentagons, wrong))
    assert run(["catalog", "verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "F30: FAIL (order: expected 2, got 1)" if name == "F30" else f"{name}: ok" for name in names
    ]


def test_nanotube_emit(tmp_path, capsys):
    out = tmp_path / "tube.rot"
    assert run(["nanotube", "--cap", "r6", "--rings", "2", "-o", str(out)]) == 0
    f = validate_fullerene(parse_graph(out.read_text()))
    assert f.n == 48


def test_nanotube_past_the_code_limit_is_a_guard_trip(tmp_path, capsys, monkeypatch):
    # refused before the spiral is built or wound
    monkeypatch.setattr(_catalog, "wind", lambda seq: pytest.fail("the tube was wound"))
    out = tmp_path / "tube.rot"
    assert run(["nanotube", "--cap", "r5", "--rings", "1000000000", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("guard exceeded:") and "10000000020 vertices" in err and "65535" in err
    assert not out.exists()
