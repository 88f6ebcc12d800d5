"""End-to-end exercise of the command-line surface on the shipped configs."""

import hashlib
import json
from pathlib import Path

from asvnav.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TRAINING_CSV_SHA256 = "b4fb0322804bfc48d1609d7805882e0e1f51676755dd0c4416a47a232543e5d6"


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
    suite = load_suite(CONFIGS / "suite.json")
    reference = standard_suite()
    assert suite.center == reference.center
    assert suite.current_axis_bearing_deg == reference.current_axis_bearing_deg
    assert suite.template.current == reference.template.current
    assert suite.template.wind == reference.template.wind


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
