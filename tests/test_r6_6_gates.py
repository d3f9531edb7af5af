"""The R6 tube with 6 rings: analyze's memory and answers, and three pinned reports.

Marked ``slow``, which the default options deselect; run it with
``python -m pytest -m slow``, under ``python -O`` too.  R6_6 is past the
sizes the tier-1 suite compares walks and reports on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import resonantk
from resonantk import cli

pytestmark = pytest.mark.slow

# Run in a fresh interpreter, with this one's -O, which reads its own peak
# RSS, VmHWM (in kB).  Not ru_maxrss: on Linux it survives exec, so a child
# of a large process, such as this pytest run, reports the parent's peak at
# the spawn if that is larger.
ANALYZE = """
import contextlib, io, json, sys
from resonantk import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.run(["analyze", "--json", sys.argv[1]])
with open("/proc/self/status") as status:
    peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024
print(json.dumps({"code": code, "peak_mb": peak, "report": out.getvalue()}))
"""

REPORT_DIGESTS = {
    # SHA-256 of each report of R6_6; the rings report is 6.6 MB of JSON
    ("rings", "--max-len", "12", "--json"): "24fdac88a9a84b703f4ec629e5737142f9da350fa5c4e64c74bfb7a4a3e7aabf",
    ("rings", "--pentagonal", "--json"): "74a38be0166a58f6931ecc1886497276d31423700d04fae7511ce1e0cb1ae209",
    ("fragments", "--json"): "18cd56f7e63ad650287dc379d3b8d4b9572be53be9f8919bfc42added16cf888",
}


@pytest.fixture(scope="module")
def r6_6(tmp_path_factory):
    """The .rot file `nanotube --cap r6 --rings 6` writes."""
    path = tmp_path_factory.mktemp("r6_6") / "r6_6.rot"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["nanotube", "--cap", "r6", "--rings", "6", "-o", str(path)]) == 0
    return path


def test_analyze_stays_small_and_keeps_its_answers(r6_6):
    # The resonance walk keeps no table of decided sets: this analyze peaked
    # at 372 MB with one and about 20 MB without.  The sextet polynomial must
    # equal the one the walk over every resonant set gave, and every hexagon
    # must be resonant with a non-bipartite deletion.
    src = str(Path(resonantk.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    flags = ["-O"] * sys.flags.optimize
    done = subprocess.run(
        [sys.executable, *flags, "-c", ANALYZE, str(r6_6)], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["code"] == 0, done.stderr
    report = json.loads(result["report"])
    assert report["sextet"] == [3, 60, 714, 5448, 23607, 55728, 70224, 48240, 18717, 4188, 535, 38, 1]
    assert report["dichotomy"] == {"hexagons": 38, "resonant": 38, "non_bipartite_deletions": 38}
    assert result["peak_mb"] <= 100, f"analyze R6_6 peaked at {result['peak_mb']:.1f} MB"


@pytest.mark.parametrize("argv", REPORT_DIGESTS, ids=" ".join)
def test_report_is_pinned_and_equal_to_json_dumps(r6_6, argv):
    # cli writes the ring reports from the rings, not through the json
    # module, so beyond its pin each must equal what this Python's
    # json.dumps makes of it, the true/false literals of the pentagonal
    # reports included.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run([argv[0], str(r6_6), *argv[1:]]) == 0
    text = out.getvalue()
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == REPORT_DIGESTS[argv]
    assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text
