"""End-to-end exercise of the command-line surface on the shipped configs."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from asvnav.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TRAINING_CSV_SHA256 = "b4fb0322804bfc48d1609d7805882e0e1f51676755dd0c4416a47a232543e5d6"
# sha256 of model.json and model_intercept.json fitted from that CSV; the
# benchmark (perfbench MODEL_SHA256) pins the same files.
MODEL_SHA256 = "ca5d8fe28ffe0584f2268c563e3df1a1c295b8b91a934aa52e2a6d4efb83a64e"
MODEL_INTERCEPT_SHA256 = "3044ac1ada9f7780a0572c62e18fa4a3169f20833b906121803139d1107edf8b"


def test_run_command_writes_outputs(tmp_path, capsys):
    rc = main(["run", str(CONFIGS / "calm_water.json"), "--out", str(tmp_path / "run")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["completed"] is True
    assert out["max_error_m"] < 0.5
    assert (tmp_path / "run" / "trajectory.csv").exists()


def test_run_command_seed_override(tmp_path, capsys):
    rc = main(["run", str(CONFIGS / "calm_water.json"), "--seed", "31",
               "--out", str(tmp_path / "run")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["seed"] == 31


def test_shipped_configs_match_canonical_definitions():
    from asvnav.harness import (
        calm_water_scenario,
        downstream_failure_scenario,
        load_scenario,
        load_suite,
        standard_suite,
    )

    assert load_scenario(CONFIGS / "calm_water.json") == calm_water_scenario()
    assert load_scenario(CONFIGS / "downstream_failure.json") == downstream_failure_scenario()
    assert load_suite(CONFIGS / "suite.json") == standard_suite()


# A 2x2 grid current over the downstream failure leg and its run-up.
GRID_CURRENT = {
    "kind": "grid", "lat0": 33.997, "lon0": -81.004, "dlat": 0.006, "dlon": 0.008,
    "speeds": [[0.677, 0.7], [0.8, 1.2]], "directions": [[165.0, 170.0], [170.0, 147.5]],
}
# A river-profile current whose channel axis starts at latitude 91.
RIVER_OFF_THE_GLOBE = {
    "kind": "river_profile", "axis_origin": {"lat": 91, "lon": -81.0}, "axis_bearing": 150.0,
    "centerline_speed": 1.0, "centerline_direction": 150.0, "half_width_m": 20.0,
}


def test_grid_run_reruns_from_its_resolved_config(tmp_path, capsys):
    """A grid field is written back as its config gives it, so a grid run
    re-run from its own resolved_config.json writes the same trajectory."""
    with open(CONFIGS / "downstream_failure_augmented.json") as fh:
        config = {**json.load(fh), "current": GRID_CURRENT}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path / "first")]) == 0
    resolved = tmp_path / "first" / "resolved_config.json"
    assert json.loads(resolved.read_text())["current"] == GRID_CURRENT
    assert main(["run", str(resolved), "--out", str(tmp_path / "again")]) == 0
    first = (tmp_path / "first" / "trajectory.csv").read_bytes()
    assert (tmp_path / "again" / "trajectory.csv").read_bytes() == first


def _set_path(config, path, value):
    """config with the value at a dotted path (a [i] part indexes a list)
    set to value."""
    *parents, last = path.replace("[", ".").replace("]", "").split(".")
    node = config
    for part in parents:
        node = node[int(part)] if part.isdigit() else node[part]
    node[int(last) if last.isdigit() else last] = value
    return config


@pytest.mark.parametrize("path, value, message", [
    ("current.speed", "1", "config current.speed must be a number, got '1'"),
    ("dt_s", "0.1", "config dt_s must be a number, got '0.1'"),
    ("seed", "1", "config seed must be an integer, got '1'"),
    ("mission[0].speed_mps", "2", "config mission[0].speed_mps must be a number, got '2'"),
    ("gains.heading.kp", "0.6", "config gains.heading.kp must be a number, got '0.6'"),
    ("current", {**GRID_CURRENT, "speeds": [[0.677, 0.7], [0.8]]}, "config current: "),
    ("gains.heading.kp", -1, "config gains.heading: gains must be >= 0"),
    ("augment.gain_k", 0, "config augment: gain_k and max_offset_m must be > 0"),
    ("current", RIVER_OFF_THE_GLOBE,
     "config current.axis_origin: latitude 91 outside [-90, 90]"),
    ("noise.sigma_speed_mps", -1, "config noise: noise sigmas must be >= 0"),
    ("current.kind", "grd", "config current.kind: unknown field kind 'grd'"),
    # JSON NaN and Infinity break the rules of the classes that hold them
    ("duration_limit_s", math.inf, "duration_limit_s must be > 0 and finite, got inf"),
    ("duration_limit_s", math.nan, "duration_limit_s must be > 0 and finite, got nan"),
    ("augment.max_offset_m", math.nan, "config augment: gain_k and max_offset_m must be > 0"),
    ("augment.update_period_s", math.nan,
     "config augment: update_period_s and reference_speed_floor_mps must be > 0"),
    ("vehicle.thrust_time_constant_s", math.inf,
     "config vehicle: vehicle parameters must be positive"),
    ("acceptance_radius_m", -1, "acceptance_radius_m must be > 0 and finite, got -1\n"),
    ("acceptance_radius_m", math.inf, "acceptance_radius_m must be > 0 and finite, got inf"),
    ("noise.sigma_speed_mps", math.nan, "config noise: noise sigmas must be >= 0"),
    ("current.gust", {"amplitude": 0.5, "period_s": math.nan},
     "config current.gust: gust period must be > 0, got nan"),
    ("current", {**RIVER_OFF_THE_GLOBE, "axis_origin": {"lat": 34.0, "lon": -81.0},
                 "half_width_m": math.nan}, "config current: half_width must be > 0, got nan"),
    ("current", {**GRID_CURRENT, "dlat": math.nan},
     "config current: grid spacing must be > 0, got dlat=nan"),
    ("dt_s", math.nan, "dt_s must be in (0, 0.5], got nan"),
    ("dt_s", 0, "dt_s must be in (0, 0.5], got 0\n"),
    ("dt_s", 0.7, "dt_s must be in (0, 0.5], got 0.7"),
], ids=["field", "dt", "seed", "waypoint", "gain", "ragged-grid", "gain-rule", "augment-rule",
        "latitude-rule", "noise-rule", "field-kind", "duration-inf", "duration-nan",
        "max-offset-nan", "update-period-nan", "thrust-time-constant-inf", "radius-negative",
        "radius-inf", "noise-nan", "gust-period-nan", "half-width-nan", "grid-spacing-nan",
        "dt-nan", "dt-zero", "dt-over-max"])
def test_config_value_of_wrong_type_names_its_path(tmp_path, capsys, path, value, message):
    """A value of the wrong JSON type, a grid with a ragged row, a value
    that breaks its class's own rule (NaN and infinity included), or an
    unknown field kind, is one stderr line naming its dotted path or key,
    not a traceback."""
    with open(CONFIGS / "downstream_failure_augmented.json") as fh:
        config = _set_path(json.load(fh), path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    assert main(["run", str(bad), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"asvnav: {message}") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_shipped_configs_round_trip_exactly():
    """Every key of every shipped config maps onto a field and back unchanged."""
    from asvnav.harness import (
        SweepSpec,
        from_dict,
        load_scenario,
        load_suite,
        load_sweep,
        suite_to_dict,
        to_dict,
    )

    for name in ("calm_water", "downstream_failure", "downstream_failure_augmented"):
        with open(CONFIGS / f"{name}.json") as fh:
            assert to_dict(load_scenario(CONFIGS / f"{name}.json")) == json.load(fh)
    with open(CONFIGS / "suite.json") as fh:
        assert suite_to_dict(load_suite(CONFIGS / "suite.json")) == json.load(fh)
    sweep = load_sweep(CONFIGS / "training_sweep.json")
    assert from_dict(SweepSpec, json.loads(json.dumps(to_dict(sweep)))) == sweep


def test_suite_command(tmp_path, capsys):
    rc = main(["suite", str(CONFIGS / "suite.json"), "--out", str(tmp_path / "suite")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "Perpendicular" in text
    assert (tmp_path / "suite" / "report.csv").exists()
    assert (tmp_path / "suite" / "runs" / "baseline_000" / "trajectory.csv").exists()


def test_train_fit_report_chain(tmp_path, capsys):
    rc = main(["train", str(CONFIGS / "training_sweep.json"), "--out", str(tmp_path)])
    assert rc == 0
    training = tmp_path / "training.csv"
    # sha256 of the training CSV, pinned before the sweep ran on plain floats
    assert hashlib.sha256(training.read_bytes()).hexdigest() == TRAINING_CSV_SHA256

    model_path = tmp_path / "model.json"
    rc = main(["fit", str(training), "-o", str(model_path)])
    assert rc == 0
    with open(model_path) as fh:
        payload = json.load(fh)
    assert payload["format"] == "asvnav-effect-model"
    # recovered physics: unit current coefficients, wind-drag on wind columns
    assert abs(payload["coef"][0][0] - 1.0) < 1e-3
    assert abs(payload["coef"][0][2] - 0.03) < 1e-3
    assert hashlib.sha256(model_path.read_bytes()).hexdigest() == MODEL_SHA256
    intercept_path = tmp_path / "model_intercept.json"
    rc = main(["fit", str(training), "-o", str(intercept_path), "--intercept"])
    assert rc == 0
    assert hashlib.sha256(intercept_path.read_bytes()).hexdigest() == MODEL_INTERCEPT_SHA256

    run_dir = tmp_path / "run"
    rc = main(["run", str(CONFIGS / "downstream_failure.json"), "--out", str(run_dir)])
    assert rc == 0
    capsys.readouterr()
    rc = main(["report", str(run_dir)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sign_changes_over_1m"] >= 2
    assert report["pct_over_1m"] >= 40.0


def test_fitted_model_drives_augmented_run(tmp_path, capsys):
    """A model fitted from sweep data can replace the oracle end to end."""
    main(["train", str(CONFIGS / "training_sweep.json"), "--out", str(tmp_path)])
    model_path = tmp_path / "model.json"
    main(["fit", str(tmp_path / "training.csv"), "-o", str(model_path)])
    capsys.readouterr()

    with open(CONFIGS / "downstream_failure_augmented.json") as fh:
        scenario = json.load(fh)
    scenario["controller"]["model"] = str(model_path)
    scenario_path = tmp_path / "aug_fitted.json"
    with open(scenario_path, "w") as fh:
        json.dump(scenario, fh)
    rc = main(["run", str(scenario_path), "--out", str(tmp_path / "aug_run")])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["sign_changes_over_1m"] < 2


def _bad_sweep(tmp_path):
    sweep = json.loads((CONFIGS / "training_sweep.json").read_text())
    sweep["duration_s"] = 0
    path = tmp_path / "bad_sweep.json"
    path.write_text(json.dumps(sweep))
    return path


def test_bad_input_is_one_stderr_line(tmp_path, capsys):
    assert main(["train", str(_bad_sweep(tmp_path)), "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "asvnav: sweep duration_s must be > 0, got 0\n")
    assert not (tmp_path / "training.csv").exists()

    missing = tmp_path / "no_such_run"
    assert main(["report", str(missing)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("asvnav: ") and str(missing / "trajectory.csv") in err


@pytest.mark.parametrize("edit, message", [
    (lambda c: {**c, "acceptance_radius_m": "2.0"},
     "config acceptance_radius_m must be a number, got '2.0'"),
    (lambda c: {**c, "acceptance_radius_m": None},
     "config acceptance_radius_m must be a number, got None"),
    (lambda c: [c], "config file must be a JSON object"),
    (lambda c: {**c, "acceptance_radius_m": -1},
     "acceptance_radius_m must be > 0 and finite, got -1"),
    (lambda c: {**c, "acceptance_radius_m": math.inf},
     "acceptance_radius_m must be > 0 and finite, got inf"),
], ids=["string", "null", "list", "negative-radius", "infinite-radius"])
def test_report_decodes_the_run_config(tmp_path, capsys, edit, message):
    """asvnav report reads a run's resolved_config.json as asvnav run reads
    a scenario, so a bad value there is one stderr line, not a traceback."""
    run_dir = tmp_path / "run"
    assert main(["run", str(CONFIGS / "calm_water.json"), "--out", str(run_dir)]) == 0
    config_path = run_dir / "resolved_config.json"
    config_path.write_text(json.dumps(edit(json.loads(config_path.read_text()))))
    capsys.readouterr()
    assert main(["report", str(run_dir)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"asvnav: {message}\n")


def test_console_entry_exits_2_without_a_traceback(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    for argv in (["train", str(_bad_sweep(tmp_path)), "--out", str(tmp_path)],
                 ["report", str(tmp_path / "no_such_run")]):
        done = subprocess.run([sys.executable, "-m", "asvnav.cli", *argv], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 2
        assert done.stderr.startswith("asvnav: ") and done.stderr.count("\n") == 1
