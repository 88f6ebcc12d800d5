"""End-to-end exercise of the command-line surface on the shipped configs."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

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
