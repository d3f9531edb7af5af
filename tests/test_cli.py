"""Command-line behaviour: exit codes, output shapes, determinism."""

from __future__ import annotations

import hashlib
import json

import pytest

from resonantk import rings_fragments
from resonantk.cli import run
from resonantk.plane_graph import parse_graph, validate_fullerene


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


def test_analyze_scans_pentagonal_rings_once(f24_file, capsys, monkeypatch):
    calls = []
    scan = rings_fragments.find_polygonal_rings

    def counted(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(rings_fragments, "find_polygonal_rings", counted)
    assert run(["analyze", str(f24_file), "--json"]) == 0
    assert len(calls) == 1


def test_usage_error_exits_one(capsys):
    assert run(["analyze"]) == 1
    assert run(["not-a-command"]) == 1
    assert run(["nanotube", "--cap", "r9", "--rings", "1"]) == 1


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


def test_scalar_commands(f24_file, capsys):
    assert run(["sextet", str(f24_file)]) == 0
    assert "coefficients (descending): 1 2 1" in capsys.readouterr().out
    assert run(["clar", str(f24_file)]) == 0
    assert capsys.readouterr().out == "2\n"
    assert run(["fries", str(f24_file)]) == 0
    assert capsys.readouterr().out == "2\n"
    assert run(["gstar", str(f24_file)]) == 0
    assert capsys.readouterr().out == "none\n"


def test_invalid_integer_limits_exit_one(f24_file, tmp_path, capsys):
    assert run(["order", str(f24_file), "--max-k", "-1"]) == 1
    assert "max_k must be at least 0" in capsys.readouterr().err
    assert run(["order", str(f24_file), "--max-k", "0"]) == 0
    assert capsys.readouterr().out == ">= 0\n"
    for cmd in (["fries"], ["analyze", "--fries"]):
        assert run([*cmd, str(f24_file), "--pm-cap", "0"]) == 1
        assert "perfect matching cap must be at least 1" in capsys.readouterr().err
    assert run(["nanotube", "--cap", "r5", "--rings", "0", "-o", str(tmp_path / "t.rot")]) == 1
    assert "hex_rings must be at least 1" in capsys.readouterr().err


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
# construction; the outputs must not change.
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


def test_catalog_commands(capsys):
    assert run(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("F20:")
    assert len(out.splitlines()) == 11


def test_nanotube_emit(tmp_path, capsys):
    out = tmp_path / "tube.rot"
    assert run(["nanotube", "--cap", "r6", "--rings", "2", "-o", str(out)]) == 0
    f = validate_fullerene(parse_graph(out.read_text()))
    assert f.n == 48
