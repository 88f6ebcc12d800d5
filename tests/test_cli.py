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


def test_grid_lon0_a_turn_east_runs_as_the_wrapped_one(tmp_path, capsys):
    """A grid current whose lon0 is written a turn of the globe east (278.996
    for -81.004) is sampled where it lies: its run completes as the -81.004
    run does, with the same ticks and maximum error, and its resolved config
    keeps lon0 as given."""
    from asvnav.metrics import TrajectoryLog

    with open(CONFIGS / "downstream_failure_augmented.json") as fh:
        config = json.load(fh)
    runs = {}
    for lon0 in (-81.004, 278.996):
        path = tmp_path / f"grid_{lon0}.json"
        path.write_text(json.dumps({**config, "current": {**GRID_CURRENT, "lon0": lon0}}))
        out = tmp_path / f"out_{lon0}"
        assert main(["run", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        ticks = len(TrajectoryLog.from_csv(out / "trajectory.csv"))
        runs[lon0] = (summary["outcome"], ticks, round(summary["max_error_m"], 4))
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["current"]["lon0"] == lon0
    assert runs[278.996] == runs[-81.004] == ("completed", 2647, 9.4724)


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
    ("current", {**GRID_CURRENT, "lat0": math.nan},
     "config current: non-finite coordinates (nan, -81.004)"),
    ("current", {**GRID_CURRENT, "lat0": math.inf},
     "config current: non-finite coordinates (inf, -81.004)"),
    ("current", {**GRID_CURRENT, "lat0": 91.0}, "config current: latitude 91.0 outside [-90, 90]"),
    ("start", {"lat": 200.0, "lon": -81.0, "heading_deg": 0.0},
     "config start: latitude 200.0 outside [-90, 90]"),
    ("start", {"lat": 34.0, "lon": -81.0, "heading_deg": math.nan},
     "config start: angle must be finite, got nan"),
    ("vehicle.max_water_speed_mps", 1.5, "waypoint speed 1.6 exceeds hull maximum 1.5"),
], ids=["field", "dt", "seed", "waypoint", "gain", "ragged-grid", "gain-rule", "augment-rule",
        "latitude-rule", "noise-rule", "field-kind", "duration-inf", "duration-nan",
        "max-offset-nan", "update-period-nan", "thrust-time-constant-inf", "radius-negative",
        "radius-inf", "noise-nan", "gust-period-nan", "half-width-nan", "grid-spacing-nan",
        "dt-nan", "dt-zero", "dt-over-max", "grid-lat0-nan", "grid-lat0-inf",
        "grid-lat0-off-the-globe", "start-latitude", "start-heading-nan",
        "waypoint-over-hull-maximum"])
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


def test_empty_mission_is_one_stderr_line_at_run_start(tmp_path, capsys):
    """A scenario file's mission key is required, but an empty list loads:
    the run's Navigator rejects it before any tick, and nothing is written."""
    with open(CONFIGS / "calm_water.json") as fh:
        config = json.load(fh)
    path = tmp_path / "no_mission.json"
    path.write_text(json.dumps({**config, "mission": []}))
    assert main(["run", str(path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr() == ("", "asvnav: mission must contain at least one waypoint\n")
    assert not (tmp_path / "run").exists()
    del config["mission"]
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr() == ("", "asvnav: missing config key(s): mission\n")


def _slow_hull_suite():
    """configs/suite.json with a 0.8 m/s hull on 0.5 m/s legs, in calm water."""
    suite = json.loads((CONFIGS / "suite.json").read_text())
    suite["leg_speed_mps"] = 0.5
    suite["template"]["vehicle"]["max_water_speed_mps"] = 0.8
    suite["template"]["current"]["speed"] = suite["template"]["wind"]["speed"] = 0.0
    return suite


def test_slow_hull_suite_flies_its_legs(tmp_path, capsys):
    """A suite template carries no mission, so its hull is checked only
    against the legs the suite flies: a 0.8 m/s hull on 0.5 m/s legs
    completes all 16 runs, and its resolved suite reloads equal."""
    from asvnav.harness import load_suite

    path = tmp_path / "slow_hull_suite.json"
    path.write_text(json.dumps(_slow_hull_suite()))
    out = tmp_path / "suite"
    assert main(["suite", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    summaries = [json.loads((run / "summary.json").read_text())
                 for run in (out / "runs").iterdir()]
    assert len(summaries) == 16 and all(s["completed"] for s in summaries)
    assert load_suite(out / "resolved_suite.json") == load_suite(path)

    # legs faster than the hull are still rejected, by the suite's own rule
    path.write_text(json.dumps({**_slow_hull_suite(), "leg_speed_mps": 1.0}))
    assert main(["suite", str(path), "--out", str(tmp_path / "fast")]) == 2
    assert capsys.readouterr() == ("", "asvnav: leg_speed_mps must be in (0, 0.8], got 1.0\n")


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
    # asvnav report on each run directory scores the run as the suite did
    run_dirs = sorted((tmp_path / "suite" / "runs").iterdir())
    assert len(run_dirs) == 16
    for run_dir in run_dirs:
        assert main(["report", str(run_dir)]) == 0
        text = capsys.readouterr().out
        report = json.loads(text)
        summary = json.loads((run_dir / "summary.json").read_text())
        for key in ("max_error_m", "pct_over_1m", "sign_changes_over_1m"):
            assert report[key] == summary[key], (run_dir.name, key)
        # without trajectory.npy, report rescores from the CSV to the same text
        (run_dir / "trajectory.npy").unlink()
        assert main(["report", str(run_dir)]) == 0
        assert capsys.readouterr().out == text, run_dir.name


def test_report_reads_the_npy_and_falls_back_to_the_csv(tmp_path, capsys):
    """report rescores from trajectory.npy when the run directory has one
    (a broken trajectory.csv beside it is not read) and from
    trajectory.csv when it has none, as a directory written before the
    .npy existed."""
    run_dir = tmp_path / "run"
    assert main(["run", str(CONFIGS / "downstream_failure_augmented.json"),
                 "--out", str(run_dir)]) == 0
    capsys.readouterr()
    csv = (run_dir / "trajectory.csv").read_text()
    (run_dir / "trajectory.csv").write_text("not a trajectory\n")
    assert main(["report", str(run_dir)]) == 0
    from_npy = capsys.readouterr().out
    (run_dir / "trajectory.csv").write_text(csv)
    (run_dir / "trajectory.npy").unlink()
    assert main(["report", str(run_dir)]) == 0
    assert capsys.readouterr().out == from_npy
    # a broken trajectory.npy is an input error naming it, not a silent fallback
    (run_dir / "trajectory.npy").write_text(csv)
    assert main(["report", str(run_dir)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"asvnav: {run_dir / 'trajectory.npy'}: ")


def test_usage_errors_exit_2_from_the_one_parser(capsys):
    """The parser is built once per process; each usage error still exits
    2 with argparse's usage message."""
    from asvnav import cli

    assert cli._parser() is cli._parser()
    for argv in (["no_such_command"], ["report"], ["fit", "training.csv"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: asvnav ") and "error: " in err


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


def _mission_csv_scenario(tmp_path, rows=None):
    """The augmented downstream-failure scenario in tmp_path/scenario.json,
    with its mission given as the path "route.csv", a file next to it
    holding the inline mission's rows (or rows, when given)."""
    config = json.loads((CONFIGS / "downstream_failure_augmented.json").read_text())
    if rows is None:
        rows = [",".join(repr(float(wp[key])) for key in ("lat", "lon", "speed_mps"))
                for wp in config["mission"]]
    (tmp_path / "route.csv").write_text("lat,lon,speed_mps\n" + "".join(f"{r}\n" for r in rows))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**config, "mission": "route.csv"}))
    return path


def test_mission_csv_path_flies_as_the_inline_mission(tmp_path, capsys):
    """A scenario's mission may be the path of a mission CSV, relative to
    the config file: it loads the inline form's waypoints and flies the
    same trajectory."""
    from asvnav.harness import load_scenario

    path = _mission_csv_scenario(tmp_path)
    inline = CONFIGS / "downstream_failure_augmented.json"
    assert load_scenario(path) == load_scenario(inline)
    assert main(["run", str(path), "--out", str(tmp_path / "from_csv")]) == 0
    assert main(["run", str(inline), "--out", str(tmp_path / "inline")]) == 0
    for name in ("trajectory.csv", "mission.csv", "resolved_config.json"):
        from_csv = (tmp_path / "from_csv" / name).read_bytes()
        assert from_csv == (tmp_path / "inline" / name).read_bytes()


def test_bad_mission_csv_is_one_stderr_line(tmp_path, capsys):
    """A mission CSV row that breaks a waypoint rule names the file and its
    line; a missing mission CSV names the file. Both exit 2."""
    path = _mission_csv_scenario(tmp_path, ["34.0,-81.0,1.6", "34.0,-81.0,nan"])
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    route = tmp_path / "route.csv"
    assert capsys.readouterr() == (
        "", f"asvnav: {route}: line 3: spd_target must be > 0, got nan\n")
    route.unlink()
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("asvnav: ") and str(route) in err
    assert not (tmp_path / "out").exists()


def _bad_sweep(tmp_path, key="duration_s", value=0):
    sweep = json.loads((CONFIGS / "training_sweep.json").read_text())
    sweep[key] = value
    path = tmp_path / "bad_sweep.json"
    path.write_text(json.dumps(sweep))
    return path


def test_bad_input_is_one_stderr_line(tmp_path, capsys):
    assert main(["train", str(_bad_sweep(tmp_path)), "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "asvnav: sweep duration_s must be > 0 and finite, got 0\n")
    assert not (tmp_path / "training.csv").exists()

    missing = tmp_path / "no_such_run"
    assert main(["report", str(missing)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("asvnav: ") and str(missing / "trajectory.csv") in err


@pytest.mark.parametrize("key, value, message", [
    ("duration_s", 0, "sweep duration_s must be > 0 and finite, got 0"),
    ("duration_s", math.nan, "sweep duration_s must be > 0 and finite, got nan"),
    ("duration_s", math.inf, "sweep duration_s must be > 0 and finite, got inf"),
    ("dt_s", math.nan, "dt_s must be in (0, 0.5], got nan"),
    ("dt_s", 0, "dt_s must be in (0, 0.5], got 0"),
    ("dt_s", 0.7, "dt_s must be in (0, 0.5], got 0.7"),
    ("dt_s", "0.1", "config dt_s must be a number, got '0.1'"),
    ("speeds", [10.0], "sweep speeds must be in (0, 6.25], got 10.0"),
    ("speeds", [0.0, 2.0], "sweep speeds must be in (0, 6.25], got 0.0"),
    ("speeds", [2.0, math.nan], "sweep speeds must be in (0, 6.25], got nan"),
    ("headings", [math.inf], "sweep headings must be finite, got inf"),
    ("headings", [0.0, math.nan], "sweep headings must be finite, got nan"),
], ids=["duration-zero", "duration-nan", "duration-inf", "dt-nan", "dt-zero", "dt-over-max",
        "dt-string", "speed-over-hull-maximum", "speed-zero", "speed-nan", "heading-inf",
        "heading-nan"])
def test_bad_sweep_value_is_one_stderr_line(tmp_path, capsys, key, value, message):
    """asvnav train on a sweep with a value that breaks its rule prints one
    stderr line naming the key, and makes no output directory."""
    out = tmp_path / "out"
    assert main(["train", str(_bad_sweep(tmp_path, key, value)), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"asvnav: {message}\n")
    assert not out.exists()


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


def test_noise_free_commands_never_import_numpy_random(tmp_path):
    """Without sensor noise, run, suite and report build no random
    generator, so a fresh interpreter never imports numpy.random; a noisy
    run does."""
    src = Path(__file__).resolve().parent.parent / "src"
    noisy = json.loads((CONFIGS / "downstream_failure.json").read_text())
    noisy["noise"] = {"sigma_speed_mps": 0.05, "sigma_dir_deg": 2.0}
    (tmp_path / "noisy.json").write_text(json.dumps(noisy))
    code = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from asvnav.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in sys.argv[1].split(';'):\n"
        "        main(argv.split())\n"
        "print('numpy.random' in sys.modules)\n"
    )
    quiet = (f"run {CONFIGS / 'downstream_failure.json'} --out {tmp_path / 'run'};"
             f"suite {CONFIGS / 'suite.json'} --out {tmp_path / 'suite'};"
             f"report {tmp_path / 'run'};report {tmp_path / 'suite' / 'runs' / 'augmented_045'}")
    for argv, imported in ((quiet, "False"), (f"run {tmp_path / 'noisy.json'}", "True")):
        done = subprocess.run([sys.executable, "-c", code, argv], capture_output=True, text=True)
        assert (done.returncode, done.stdout.strip()) == (0, imported), done.stderr
