"""tools/differential.py: two source trees run on the same generated
scenarios, sweeps and fitted models. A tree against itself shows no
difference; a copy with one constant nudged shows the columns that moved,
and a copy whose fitted-model prediction is nudged shows the runs flown
with the fitted model, and only those."""

import importlib.util
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
    assert "2 fitted models (model_plain, model_intercept)" in out, out
    assert int(re.search(r"the (\d+) augmented scenarios again", out).group(1)) >= 1, out


def test_generated_scenarios_draw_gains_and_hulls():
    """Every generated scenario flies its own PID gains (kd above zero),
    lookahead and hull, and the sweeps one hull, so a written-out block
    that reads a default in place of its field shows as a difference."""
    spec = importlib.util.spec_from_file_location("differential", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    from asvnav.control import DEFAULT_GAINS
    from asvnav.harness import Scenario, SweepSpec, from_dict
    from asvnav.vehicle import VehicleParams

    data = tool.cases(20, 0)
    scenarios = [from_dict(Scenario, config) for config in data["scenarios"]]
    for sc in scenarios:
        assert sc.gains.heading.kd > 0.0 and sc.gains.speed.kd > 0.0
        assert sc.gains.heading != DEFAULT_GAINS.heading
        assert sc.gains.speed != DEFAULT_GAINS.speed
        assert sc.vehicle != VehicleParams()
    assert len({sc.gains.lookahead_m for sc in scenarios}) == len(scenarios)
    assert len({sc.vehicle for sc in scenarios}) == len(scenarios)
    sweeps = [from_dict(SweepSpec, config) for config in data["sweeps"]]
    assert sweeps[0].vehicle == sweeps[1].vehicle != VehicleParams()


def _copy_src(tmp_path, module, old, new):
    """A copy of src/ with old replaced by new in asvnav/module."""
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = tmp_path / "src" / "asvnav" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return tmp_path


@pytest.fixture
def nudged_tree(tmp_path):
    """A copy of src/ whose METERS_PER_DEG_LAT is off by one in its last digit."""
    return _copy_src(tmp_path, "geo.py", "METERS_PER_DEG_LAT = 111_194.9\n",
                     "METERS_PER_DEG_LAT = 111_194.8\n")


def test_nudged_constant_shows_in_the_tolerance_table(nudged_tree):
    code, out = _differential(ROOT, nudged_tree, "--tolerance")
    assert code == 1
    rows = {m.group(1): float(m.group(2))
            for m in re.finditer(r"^\| ([^|]+?) \| \d+ \| (\S+) \|", out, re.MULTILINE)}
    # the position moves in every run, and so do the sweep features
    for column in ("lat", "lon", "h_t", "rudder", "sweep current_east", "model coef"):
        assert rows.get(column, 0.0) > 0.0, out
    assert "| run | leg |" in out  # the per-leg max-error table


def test_nudged_constant_fails_the_exact_check(nudged_tree):
    code, out = _differential(ROOT, nudged_tree)
    assert code == 1
    assert re.search(r"^- s000: columns lat, lon,", out, re.MULTILINE), out
    assert re.search(r"^- sweep1: columns current_east,", out, re.MULTILINE), out
    assert re.search(r"^- model_plain: saved model file ", out, re.MULTILINE), out
    assert re.search(r"^- s\d{3}\+fitted: columns lat, lon,", out, re.MULTILINE), out


def test_nudged_prediction_shows_in_the_fitted_runs_alone(tmp_path):
    """A fitted model that predicts 1e-9 m/s more east drift moves the
    runs flown with it, while the oracle runs, sweeps and saved models stay."""
    tree = _copy_src(tmp_path, "effects.py", "return tuple((self.coef @ x).tolist())",
                     "return tuple((self.coef @ x + (1e-9, 0.0, 0.0)).tolist())")
    code, out = _differential(ROOT, tree)
    assert code == 1
    moved = re.findall(r"^- (\S+):", out, re.MULTILINE)
    assert moved and all(name.endswith("+fitted") for name in moved), out
