"""tools/differential.py: two source trees run on the same generated
scenarios and sweeps. A tree against itself shows no difference; a copy
with one constant nudged shows the columns that moved."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "differential.py"
N = "6"  # one scenario of each intended outcome, twice over


def _differential(old, new, *options):
    proc = subprocess.run([sys.executable, str(TOOL), str(old), str(new), "--n", N, *options],
                          capture_output=True, text=True, timeout=120)
    assert not proc.stderr, proc.stderr
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("mode", [(), ("--tolerance",)], ids=["exact", "tolerance"])
def test_tree_against_itself_shows_no_difference(mode):
    code, out = _differential(ROOT, ROOT, *mode)
    assert code == 0, out
    assert out.splitlines()[-1] == "no difference"
    # the generated runs end each of the three ways
    for outcome in ("completed", "incomplete", "left_domain"):
        assert int(re.search(rf"{outcome} (\d+)", out).group(1)) >= 1, out
    assert re.search(r"and 2 sweeps of [1-9]\d* rows", out), out


@pytest.fixture
def nudged_tree(tmp_path):
    """A copy of src/ whose METERS_PER_DEG_LAT is off by one in its last digit."""
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    geo = tmp_path / "src" / "asvnav" / "geo.py"
    text = geo.read_text()
    assert "METERS_PER_DEG_LAT = 111_194.9\n" in text
    geo.write_text(text.replace("METERS_PER_DEG_LAT = 111_194.9\n",
                                "METERS_PER_DEG_LAT = 111_194.8\n"))
    return tmp_path


def test_nudged_constant_shows_in_the_tolerance_table(nudged_tree):
    code, out = _differential(ROOT, nudged_tree, "--tolerance")
    assert code == 1
    rows = {m.group(1): float(m.group(2))
            for m in re.finditer(r"^\| ([^|]+?) \| \d+ \| (\S+) \|", out, re.MULTILINE)}
    # the position moves in every run, and so do the sweep features
    for column in ("lat", "lon", "h_t", "rudder", "sweep current_east"):
        assert rows.get(column, 0.0) > 0.0, out
    assert "| run | leg |" in out  # the per-leg max-error table


def test_nudged_constant_fails_the_exact_check(nudged_tree):
    code, out = _differential(ROOT, nudged_tree)
    assert code == 1
    assert re.search(r"^- s000: columns lat, lon,", out, re.MULTILINE), out
    assert re.search(r"^- sweep1: columns current_east,", out, re.MULTILINE), out
