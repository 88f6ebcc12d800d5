"""Scenario execution, file formats, determinism, and training sweeps."""

import hashlib
import json
import math
import re
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest

from asvnav.cli import main
from asvnav.control import Waypoint
from asvnav.effects import FEATURE_NAMES, TARGET_NAMES, fit
from asvnav.env import Environment, FieldSpec, ForceVector, GustSpec
from asvnav.geo import (
    METERS_PER_DEG_LAT,
    GeoPoint,
    displaced,
    distance_bearing,
    unit_enu,
    wrap_signed,
)
from asvnav.harness import (
    TRAINING_HEADER,
    ControllerSpec,
    Scenario,
    StartPose,
    SweepSpec,
    calm_water_scenario,
    downstream_failure_scenario,
    from_dict,
    generate_training_logs,
    load_scenario,
    read_mission_csv,
    read_training_csv,
    run_scenario,
    run_suite,
    standard_suite,
    suite_from_dict,
    suite_mission,
    suite_scenarios,
    suite_to_dict,
    to_dict,
    write_mission_csv,
    write_training_csv,
)
from asvnav.metrics import LOG_COLUMNS, SUITE_ORIENTATIONS, TrajectoryLog
from asvnav.vehicle import NoiseSpec, VehicleParams, track_velocity

ORIGIN = GeoPoint(34.0, -81.0)


def _short_scenario(**overrides):
    mission = (
        Waypoint(ORIGIN, 2.0),
        Waypoint(displaced(ORIGIN, 0.0, 60.0), 2.0),
    )
    base = dict(mission=mission, duration_limit_s=180.0, name="short")
    base.update(overrides)
    return Scenario(**base)


def test_calm_run_completes_sanely():
    result = run_scenario(calm_water_scenario())
    assert result.completed
    assert result.report.max_error < 0.5


def test_run_is_deterministic():
    sc = _short_scenario(noise=NoiseSpec(0.05, 1.0), seed=7)
    a = run_scenario(sc)
    b = run_scenario(sc)
    assert a.log.to_csv() == b.log.to_csv()
    c = run_scenario(replace(sc, seed=8))
    assert a.log.to_csv() != c.log.to_csv()


def test_run_writes_outputs(tmp_path):
    sc = _short_scenario()
    result = run_scenario(sc, out_dir=tmp_path)
    assert (tmp_path / "trajectory.csv").exists()
    assert (tmp_path / "mission.csv").exists()
    assert (tmp_path / "errors.csv").exists()
    with open(tmp_path / "resolved_config.json") as fh:
        resolved = json.load(fh)
    assert resolved["dt_s"] == sc.dt_s
    assert resolved["gains"]["heading"]["kp"] > 0
    with open(tmp_path / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["completed"] == result.completed
    log = TrajectoryLog.from_csv(tmp_path / "trajectory.csv")
    assert len(log) == len(result.log)


def test_duration_limit_flags_incomplete():
    sc = _short_scenario(duration_limit_s=5.0)
    result = run_scenario(sc)
    assert not result.completed
    assert len(result.log) == 51  # partial log retained


def test_run_from_an_explicit_start_pose():
    """An explicit pose equal to the derived start gives the derived run
    column for column; another pose starts the log at rest there."""
    sc = replace(downstream_failure_scenario(), controller=ControllerSpec(kind="augmented"))
    derived = run_scenario(sc).log
    pose = StartPose(lat=derived.lat[0], lon=derived.lon[0], heading_deg=derived.h_t[0])
    explicit = run_scenario(replace(sc, start=pose))
    assert explicit.outcome == "completed"
    assert all(getattr(explicit.log, name) == getattr(derived, name) for name in LOG_COLUMNS)

    moved = StartPose(lat=pose.lat + 1e-4, lon=pose.lon, heading_deg=200.0)
    log = run_scenario(replace(sc, start=moved, duration_limit_s=1.0)).log
    first = tuple(getattr(log, name)[0] for name in LOG_COLUMNS[:8])
    assert first == (0.0, moved.lat, moved.lon, 0.0, 200.0, 200.0, 0.0, 0.0)


@pytest.mark.parametrize("heading, lon, h_t", [(370.0, -81.0, 10.0), (-90.0, 279.0, 270.0),
                                             (510.0, -81.0, 150.0)])
def test_explicit_start_pose_is_wrapped(tmp_path, heading, lon, h_t):
    """The heading wraps into [0, 360) and the longitude into [-180, 180)
    when the run starts; the pose is kept as given, so the resolved config
    writes it back unwrapped."""
    sc = _short_scenario(start=StartPose(lat=34.0, lon=lon, heading_deg=heading),
                         duration_limit_s=0.1)
    log = run_scenario(sc, out_dir=tmp_path).log
    assert (log.course_t[0], log.h_t[0], log.lon[0]) == (h_t, h_t, -81.0)
    resolved = json.loads((tmp_path / "resolved_config.json").read_text())
    assert resolved["start"] == {"lat": 34.0, "lon": lon, "heading_deg": heading}


@pytest.mark.parametrize("pose, message", [
    ((34.0, -81.0, math.nan), "angle must be finite"),
    ((34.0, -81.0, -math.inf), "angle must be finite"),
    ((90.5, -81.0, 0.0), r"latitude 90.5 outside \[-90, 90\]"),
    ((-91.0, -81.0, 0.0), r"latitude -91.0 outside \[-90, 90\]"),
    ((34.0, math.inf, 0.0), "non-finite coordinates"),
])
def test_explicit_start_pose_rejected(pose, message):
    """A bad pose is rejected when the StartPose is built, so a scenario
    file's start is rejected at load, naming its path."""
    with pytest.raises(ValueError, match=message):
        StartPose(*pose)
    config = {**to_dict(_short_scenario()),
              "start": dict(zip(("lat", "lon", "heading_deg"), pose))}
    with pytest.raises(ValueError, match=f"^config start: {message}"):
        from_dict(Scenario, config)


@pytest.mark.parametrize("dt", [0.0, -0.1, 0.6])
def test_run_rejects_dt_out_of_range(dt):
    # the scenario checks dt_s when it is built, so no run divides its step
    # count by a bad one
    with pytest.raises(ValueError, match=r"^dt_s must be in \(0, 0.5\], got "):
        run_scenario(_short_scenario(dt_s=dt))


def _box_grid(south_m, north_m, half_width_m, speed=0.2, direction=90.0):
    """2x2 grid field spanning south_m..north_m and +/- half_width_m
    around ORIGIN."""
    m_per_deg_lon = METERS_PER_DEG_LAT * math.cos(math.radians(ORIGIN.lat))
    return FieldSpec.grid(
        lat0=ORIGIN.lat + south_m / METERS_PER_DEG_LAT,
        lon0=ORIGIN.lon - half_width_m / m_per_deg_lon,
        dlat=(north_m - south_m) / METERS_PER_DEG_LAT,
        dlon=2.0 * half_width_m / m_per_deg_lon,
        speeds=[[speed, speed], [speed, speed]],
        directions=[[direction, direction], [direction, direction]],
    )


def test_leaving_a_grid_is_a_recorded_outcome(tmp_path):
    # the leg ends 60 m north of ORIGIN; the grid stops 30 m north of it
    grid = _box_grid(south_m=-100.0, north_m=30.0, half_width_m=50.0)
    result = run_scenario(_short_scenario(current=grid), out_dir=tmp_path)
    assert result.outcome == "left_domain"
    assert not result.completed
    assert 0 < len(result.log) < 1801  # partial log kept
    assert result.log.lat[-1] <= grid.lat0 + grid.dlat
    assert result.report is not None  # the leg was acquired, so it is scored
    with open(tmp_path / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["outcome"] == "left_domain"
    assert summary["completed"] is False
    assert summary["max_error_m"] == result.report.max_error


def test_suite_survives_runs_that_leave_the_grid():
    # every run starts 160 m from the centre, outside this grid
    suite = standard_suite()
    suite = replace(suite, template=replace(suite.template, current=_box_grid(-50.0, 50.0, 50.0)))
    result = run_suite(suite)
    assert set(result.incomplete) == {sc.name for sc in suite_scenarios(suite)}
    assert all(r.outcome == "left_domain" and len(r.log) == 0 for r in result.runs.values())
    assert all(math.isinf(v) for v in result.table.baseline_max + result.table.augmented_max)


def test_coincident_waypoints_surface_degenerate_leg():
    sc = _short_scenario(mission=(Waypoint(ORIGIN, 2.0), Waypoint(ORIGIN, 2.0)))
    with pytest.raises(ValueError, match="degenerate leg"):
        run_scenario(sc)


def test_scenario_round_trip_through_dict():
    sc = _short_scenario(
        current=FieldSpec.uniform(0.677, 180.0),
        wind=FieldSpec.uniform(4.0, 90.0, gust=GustSpec(1.0, 60.0)),
        noise=NoiseSpec(0.05, 2.0),
        seed=3,
        controller=ControllerSpec(kind="augmented", model="oracle"),
    )
    data = to_dict(sc)
    back = from_dict(Scenario, json.loads(json.dumps(data)))
    assert back == sc


def test_scenario_round_trip_preserves_vehicle_params():
    sc = _short_scenario(vehicle=VehicleParams(
        max_water_speed=5.0, thrust_time_constant=2.0, max_turn_rate=40.0,
        wind_drag_factor=0.05, steerage_reference_speed=2.5,
        steerage_floor=0.05, turn_time_constant=1.5,
    ))
    back = from_dict(Scenario, json.loads(json.dumps(to_dict(sc))))
    assert back.vehicle == sc.vehicle


def test_field_dict_round_trip_river_and_grid():
    river = FieldSpec.river_profile(
        axis_origin=ORIGIN, axis_bearing=150.0,
        centerline_speed=1.0, centerline_direction=150.0, half_width_m=20.0,
    )
    back = from_dict(FieldSpec, to_dict(river))
    assert back.axis_bearing == river.axis_bearing
    assert back.centerline_speed == river.centerline_speed
    assert back.centerline_direction == river.centerline_direction

    grid = FieldSpec.grid(
        lat0=33.99, lon0=-81.01, dlat=0.01, dlon=0.01,
        speeds=[[0.5, 1.0], [1.0, 0.25]], directions=[[10.0, 80.0], [350.0, 200.0]],
    )
    assert from_dict(FieldSpec, json.loads(json.dumps(to_dict(grid)))) == grid


# One field of each shape -> its to_dict JSON text and the sha256 of the bits
# of 50 Environment.sample results (10 seeded points x 5 times, the field as
# the current beside a calm wind). A field without a gust has no gust key.
FIELD_PINS = [
    (FieldSpec.uniform(1, 400),
     '{"kind": "uniform", "speed": 1, "direction": 40.0}',
     "96e61536af527d7f8c5eed43845eb931f5f53dc39c1a718e0b396431466066c5"),
    (FieldSpec.uniform(0.0, 123.0),
     '{"kind": "uniform", "speed": 0.0, "direction": 0.0}',
     "e61f41d57db208c5f92a35c4ce7198570924a3fc87eeba83441fceee5d6a2865"),
    (FieldSpec.uniform(5.0, 240.0, GustSpec(1.5, 7.0)),
     '{"kind": "uniform", "speed": 5.0, "direction": 240.0, '
     '"gust": {"amplitude": 1.5, "period_s": 7.0}}',
     "ca64e0519b0471d9c967ea0ec71543ef310a68b447dcfcb358cd965d31174742"),
    (FieldSpec.river_profile(ORIGIN, 510, 1.2, 150.0, 40.0, GustSpec(0.3, 11.0)),
     '{"kind": "river_profile", "axis_origin": {"lat": 34.0, "lon": -81.0}, '
     '"axis_bearing": 150.0, "centerline_speed": 1.2, "centerline_direction": 150.0, '
     '"half_width_m": 40.0, "gust": {"amplitude": 0.3, "period_s": 11.0}}',
     "bf11f6c5bc934f99bbbb4ee948188112e2eacc2e99ee4d1a8f1bf1f565d9face"),
    (FieldSpec.river_profile(ORIGIN, 30.0, 0.0, 77.0, 25.0),
     '{"kind": "river_profile", "axis_origin": {"lat": 34.0, "lon": -81.0}, '
     '"axis_bearing": 30.0, "centerline_speed": 0.0, "centerline_direction": 0.0, '
     '"half_width_m": 25.0}',
     "e61f41d57db208c5f92a35c4ce7198570924a3fc87eeba83441fceee5d6a2865"),
    (FieldSpec.grid(33.999, -81.001, 0.001, 0.001, [[1, 2, 1], [2, 3, 2], [1, 2, 2]],
                    [[0, 90, 180], [270, 45, 400], [10, 20, 30]], GustSpec(0.5, 9.0)),
     '{"kind": "grid", "lat0": 33.999, "lon0": -81.001, "dlat": 0.001, "dlon": 0.001, '
     '"speeds": [[1.0, 2.0, 1.0], [2.0, 3.0, 2.0], [1.0, 2.0, 2.0]], '
     '"directions": [[0.0, 90.0, 180.0], [270.0, 45.0, 400.0], [10.0, 20.0, 30.0]], '
     '"gust": {"amplitude": 0.5, "period_s": 9.0}}',
     "31df022135cfc0d7c541c8dd9de1a788012709bfb76ba5f4533bb540fb050baf"),
]


@pytest.mark.parametrize("field, text, samples_sha256", FIELD_PINS, ids=[
    "uniform-int", "uniform-still", "uniform-gust", "river-gust", "river-still", "grid-int"])
def test_field_json_and_samples_pinned(field, text, samples_sha256):
    """A field's JSON text and its samples, pinned bit for bit; the JSON
    decodes back to the same field."""
    assert json.dumps(to_dict(field)) == text
    assert from_dict(FieldSpec, json.loads(text)) == field
    rng = np.random.default_rng(18)
    points = [displaced(ORIGIN, *rng.uniform(-60.0, 60.0, 2)) for _ in range(10)]
    sample = Environment(field, FieldSpec.calm()).sample
    bits = b"".join(struct.pack("4d", *sample(p.lat, p.lon, t))
                    for p in points for t in (0.0, 1.3, 2.75, 5.5, 40.0))
    assert hashlib.sha256(bits).hexdigest() == samples_sha256


def test_load_scenario_from_file(tmp_path):
    sc = _short_scenario(seed=11)
    path = tmp_path / "scenario.json"
    with open(path, "w") as fh:
        json.dump(to_dict(sc), fh)
    assert load_scenario(path) == sc


def test_mission_csv_round_trip(tmp_path):
    mission = [
        Waypoint(ORIGIN, 2.0),
        Waypoint(displaced(ORIGIN, 50.0, 120.0), 1.5),
    ]
    path = tmp_path / "mission.csv"
    write_mission_csv(mission, path)
    assert open(path).readline().strip() == "lat,lon,speed_mps"
    back = read_mission_csv(path)
    assert back == mission


NOT_THREE_NUMBERS = "expected 3 comma-separated numbers, got {row!r}"
# A bad mission CSV row -> the error after its file and line.
MISSION_ROW_ERRORS = {
    "34.0,-81.0": NOT_THREE_NUMBERS,
    "34.0,-81.0,2.0,1.0": NOT_THREE_NUMBERS,
    "34.0,abc,2.0": NOT_THREE_NUMBERS,
    "34.0,-81.0,nan": "spd_target must be > 0, got nan",
    "34.0,-81.0,-1": "spd_target must be > 0, got -1.0",
    "91.0,-81.0,2.0": "latitude 91.0 outside [-90, 90]",
}


@pytest.mark.parametrize("row", list(MISSION_ROW_ERRORS))
def test_read_mission_csv_names_file_and_line(tmp_path, row):
    """A row that is not three numbers, or whose waypoint breaks a Waypoint
    or GeoPoint rule, is an error naming the file and its line; the header
    is line 1 and a blank line still counts."""
    path = tmp_path / "mission.csv"
    path.write_text(f"lat,lon,speed_mps\n34.0,-81.0,2.0\n\n{row}\n")
    message = f"{path}: line 4: " + MISSION_ROW_ERRORS[row].format(row=row)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_mission_csv(path)


def test_suite_geometry_matches_orientation_labels(tmp_path):
    suite = standard_suite()
    for orientation in SUITE_ORIENTATIONS:
        a, b = suite_mission(suite, orientation)
        _, bearing = distance_bearing(a.pos, b.pos)
        expected = (suite.current_axis_bearing_deg + orientation) % 360.0
        assert abs(wrap_signed(bearing - expected)) < 0.01
        rng, _ = distance_bearing(a.pos, b.pos)
        assert rng == pytest.approx(suite.leg_length_m, rel=1e-6)
    # and the emitted mission files agree
    sc = suite_scenarios(suite)[0]
    run_dir = tmp_path / "run"
    run_scenario(replace(sc, duration_limit_s=1.0), out_dir=run_dir)
    mission = read_mission_csv(run_dir / "mission.csv")
    _, bearing = distance_bearing(mission[0].pos, mission[1].pos)
    assert abs(wrap_signed(bearing - suite.current_axis_bearing_deg)) < 0.01


@pytest.mark.parametrize("length", [39.0, -200.0, math.nan, math.inf])
def test_suite_rejects_short_or_nan_leg_length(tmp_path, capsys, length):
    """A leg shorter than 20 acceptance radii, NaN or infinite, is rejected
    at load with one stderr line naming the value, not a non-finite
    waypoint or an offset beyond geo's limit later."""
    message = (f"leg_length_m must be finite and at least 20x the acceptance radius, "
               f"got {length!r}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replace(standard_suite(), leg_length_m=length)
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({**suite_to_dict(standard_suite()), "leg_length_m": length}))
    assert main(["suite", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", f"asvnav: {message}\n")


@pytest.mark.parametrize("speed", [10.0, 6.26, 0.0, -1.0, math.nan, math.inf])
def test_suite_rejects_leg_speed_outside_the_hull_range(tmp_path, capsys, speed):
    """A leg speed must be in (0, the template hull's maximum]: outside it
    the suite is rejected at load with one stderr line naming the key and
    the value, not a waypoint error from the first run."""
    message = f"leg_speed_mps must be in (0, 6.25], got {speed!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replace(standard_suite(), leg_speed_mps=speed)
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({**suite_to_dict(standard_suite()), "leg_speed_mps": speed}))
    assert main(["suite", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", f"asvnav: {message}\n")
    assert not (tmp_path / "out").exists()


def test_suite_leg_speed_may_equal_the_hull_maximum():
    suite = replace(standard_suite(), leg_speed_mps=6.25)
    assert {wp.spd_target for wp in suite_mission(suite, 0)} == {6.25}


def test_scenario_without_a_mission_is_a_template(tmp_path):
    """A Scenario with an empty mission is a valid value, a suite template;
    run_scenario rejects it through the Navigator before any tick and
    writes nothing."""
    template = _short_scenario(mission=())
    assert standard_suite().template.mission == ()
    with pytest.raises(ValueError, match="^mission must contain at least one waypoint$"):
        run_scenario(template, out_dir=tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_waypoint_faster_than_the_hull_is_rejected():
    """A waypoint speed above the hull's maximum is rejected when the
    Scenario is built; a speed at the maximum is not."""
    slow = VehicleParams(max_water_speed=1.5)
    with pytest.raises(ValueError, match=r"^waypoint speed 2\.0 exceeds hull maximum 1\.5$"):
        _short_scenario(vehicle=slow)
    _short_scenario(vehicle=VehicleParams(max_water_speed=2.0))


@pytest.mark.parametrize("edit, message", [
    (lambda s: {**s, "template": []}, "config template must be a JSON object"),
    (lambda s: {**s, "template": "template.json"}, "config template must be a JSON object"),
    (lambda s: {**s, "template": None}, "config template must be a JSON object"),
    (lambda s: [s], "config file must be a JSON object"),
    (lambda s: {**s, "template": {**s["template"], "mission": "route.csv"}},
     "unknown config key(s): template.mission"),
    (lambda s: {**s, "template": {**s["template"],
                                  "start": {"lat": 34.0, "lon": -81.0, "heading_deg": 0.0}}},
     "unknown config key(s): template.start"),
    (lambda s: {k: v for k, v in s.items() if k != "template"},
     "missing config key(s): template"),
], ids=["template-list", "template-string", "template-null", "file-list", "template-mission",
        "template-start", "no-template"])
def test_suite_file_of_the_wrong_shape_is_one_stderr_line(tmp_path, capsys, edit, message):
    """A suite file decodes through the config codec: a template that is
    not an object, or that holds the mission or start the suite generates,
    and a file without one, are each one stderr line and exit 2."""
    data = edit(suite_to_dict(standard_suite()))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        suite_from_dict(data)
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(data))
    assert main(["suite", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", f"asvnav: {message}\n")


def test_suite_dict_round_trip():
    suite = standard_suite(seed=5)
    back = suite_from_dict(json.loads(json.dumps(suite_to_dict(suite))))
    assert back.center == suite.center
    assert back.leg_length_m == suite.leg_length_m
    assert back.template.seed == 5
    assert back.template.current == suite.template.current


def test_from_dict_rejects_unknown_keys():
    """A misspelled key is an error naming its dotted path, not a silent default."""
    scenario = to_dict(calm_water_scenario())
    with pytest.raises(ValueError, match=r"noise\.sigma_speed\b"):
        from_dict(Scenario, {**scenario, "noise": {"sigma_speed": 0.05}})
    with pytest.raises(ValueError, match=r"\bduration_s\b"):
        from_dict(Scenario, {**scenario, "duration_s": 10.0})
    sweep = to_dict(_small_sweep())
    with pytest.raises(ValueError, match=r"vehicle\.max_water_speed\b"):
        from_dict(SweepSpec, {**sweep, "vehicle": {"max_water_speed": 5.0}})


def test_field_and_waypoint_dicts_reject_unknown_keys():
    """Field and waypoint JSON, which have their own codecs, reject unknown
    keys by dotted path too: a misspelled gust is not a field without one."""
    scenario = to_dict(calm_water_scenario())
    gusts = {**scenario["current"], "gusts": {"amplitude": 0.5, "period_s": 10.0}}
    with pytest.raises(ValueError, match=r"current\.gusts\b"):
        from_dict(Scenario, {**scenario, "current": gusts})
    river_key = {**scenario["wind"], "half_width_m": 20.0}  # not a uniform field's key
    with pytest.raises(ValueError, match=r"wind\.half_width_m\b"):
        from_dict(Scenario, {**scenario, "wind": river_key})
    gust_typo = {"kind": "uniform", "speed": 1.0, "direction": 0.0,
                 "gust": {"amplitude": 0.5, "period": 10.0}}
    with pytest.raises(ValueError, match=r"current\.gust\.period\b"):
        from_dict(Scenario, {**scenario, "current": gust_typo})
    mission = [*scenario["mission"][:1], {**scenario["mission"][1], "speed": 2.0}]
    with pytest.raises(ValueError, match=r"mission\[1\]\.speed\b"):
        from_dict(Scenario, {**scenario, "mission": mission})
    river = to_dict(FieldSpec.river_profile(
        axis_origin=ORIGIN, axis_bearing=150.0, centerline_speed=1.0, centerline_direction=150.0,
        half_width_m=20.0,
    ))
    with pytest.raises(ValueError, match=r"axis_origin\.alt\b"):
        from_dict(FieldSpec, {**river, "axis_origin": {**river["axis_origin"], "alt": 0.0}})
    with pytest.raises(ValueError, match=r"\bspeed\b"):
        from_dict(FieldSpec, {**river, "speed": 1.0})


@pytest.mark.parametrize("gust", [{}, False, 0, []], ids=["empty", "false", "zero", "list"])
def test_malformed_gust_is_an_error(gust):
    """A present gust must be a gust: an empty or non-object value is an
    error naming current.gust, not a field without one."""
    scenario = to_dict(calm_water_scenario())
    current = {"kind": "uniform", "speed": 1.0, "direction": 90.0, "gust": gust}
    with pytest.raises(ValueError, match=r"current\.gust\b"):
        from_dict(Scenario, {**scenario, "current": current})


def test_null_or_absent_gust_is_no_gust():
    scenario = to_dict(calm_water_scenario())
    uniform = {"kind": "uniform", "speed": 1.0, "direction": 90.0}
    for current in (uniform, {**uniform, "gust": None}):
        back = from_dict(Scenario, {**scenario, "current": current})
        assert back.current == FieldSpec.uniform(1.0, 90.0)


def test_field_and_waypoint_dicts_name_missing_keys():
    """A missing field or waypoint key raises ValueError naming its dotted
    path, as a missing dataclass key does, not a bare KeyError."""
    scenario = to_dict(calm_water_scenario())
    uniform = {"kind": "uniform", "speed": 1.0, "direction": 90.0}
    river = to_dict(FieldSpec.river_profile(
        axis_origin=ORIGIN, axis_bearing=150.0, centerline_speed=1.0, centerline_direction=150.0,
        half_width_m=20.0, gust=GustSpec(0.5, 10.0),
    ))
    cases = {
        r"current\.direction$": {"current": {"kind": "uniform", "speed": 1.0}},
        r"current\.kind$": {"current": {"speed": 1.0, "direction": 90.0}},
        r"wind\.gust\.period_s$": {"wind": {**uniform, "gust": {"amplitude": 0.5}}},
        r"current\.axis_origin\.lat$": {"current": {**river, "axis_origin": {"lon": -81.0}}},
        r"current\.half_width_m$": {"current": {k: v for k, v in river.items()
                                                 if k != "half_width_m"}},
        r"mission\[1\]\.speed_mps$": {"mission": [
            scenario["mission"][0], {"lat": 34.0, "lon": -81.0},
        ]},
        r"start\.heading_deg$": {"start": {"lat": 34.0, "lon": -81.0}},
    }
    for path, override in cases.items():
        with pytest.raises(ValueError, match="missing config key\\(s\\): " + path):
            from_dict(Scenario, {**scenario, **override})
    with pytest.raises(ValueError, match=r"missing config key\(s\): kind$"):
        from_dict(FieldSpec, {"speed": 1.0, "direction": 0.0})


def test_zero_current_suite_columns_identical():
    """With zero fields the augmented controller reduces to the baseline,
    so every paired column matches."""
    suite = standard_suite(current_speed=0.0, wind_speed=0.0)
    assert suite.template.current == suite.template.wind == FieldSpec.calm()
    result = run_suite(suite)
    assert not result.incomplete
    assert result.table.baseline_max == result.table.augmented_max
    assert result.table.baseline_pct == result.table.augmented_pct


def _small_sweep(noise=NoiseSpec(), seed=0):
    return SweepSpec(
        origin=ORIGIN,
        currents=tuple(ForceVector(s, d) for s, d in
                       ((0.0, 0.0), (0.3, 72.0), (0.6, 144.0), (0.9, 216.0), (1.2, 288.0))),
        winds=tuple(ForceVector(s, d) for s, d in
                    ((0.0, 0.0), (2.0, 110.0), (5.0, 250.0), (8.0, 15.0))),
        headings=(0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0),
        speeds=(1.5, 2.5),
        duration_s=4.0,
        noise=noise,
        seed=seed,
        include_closed_loop=False,
    )


def test_training_sweep_zero_disturbance_targets():
    sweep = SweepSpec(
        origin=ORIGIN,
        currents=(ForceVector(0.0, 0.0),),
        winds=(ForceVector(0.0, 0.0),),
        headings=(0.0, 90.0),
        speeds=(2.0,),
        duration_s=3.0,
        include_closed_loop=False,
    )
    corpus = generate_training_logs(sweep)
    targets = corpus[:, len(FEATURE_NAMES):]
    assert np.max(np.abs(targets)) < 1e-9


def test_training_sweep_run_count():
    sweep = _small_sweep()
    corpus = generate_training_logs(sweep)
    # 5 currents x 8 headings x 2 speeds, 40 samples per run
    assert corpus.shape == (5 * 8 * 2 * 40, len(FEATURE_NAMES) + len(TARGET_NAMES))
    assert corpus.dtype == np.float64 and corpus.flags.c_contiguous
    empty = generate_training_logs(replace(sweep, duration_s=0.04))  # no logged step
    assert empty.shape == (0, len(FEATURE_NAMES) + len(TARGET_NAMES))


@pytest.mark.parametrize("key, value", [
    ("dt_s", 0.0), ("dt_s", -0.1), ("dt_s", math.nan),
    ("duration_s", 0.0), ("duration_s", -1.0), ("duration_s", math.nan), ("duration_s", math.inf),
])
def test_sweep_rejects_bad_time_step_and_duration(tmp_path, capsys, key, value):
    bad = {key: value}
    match = "dt_s must be in (0, 0.5], got " if key == "dt_s" else "duration_s must be > 0"
    with pytest.raises(ValueError, match=re.escape(match)):
        replace(_small_sweep(), **bad)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({**to_dict(_small_sweep()), **bad}))
    # the command reports the ValueError on one line, and writes no header-only training CSV
    assert main(["train", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("asvnav: ") and err.count("\n") == 1 and match in err
    assert not (tmp_path / "training.csv").exists()


def test_fit_on_sweep_recovers_simulator_physics():
    model = fit(generate_training_logs(_small_sweep()))
    # drift = current + wind_drag_factor * wind, exactly
    assert model.coef[0, 0] == pytest.approx(1.0, abs=1e-6)
    assert model.coef[1, 1] == pytest.approx(1.0, abs=1e-6)
    assert model.coef[0, 2] == pytest.approx(0.03, abs=1e-6)
    assert model.coef[1, 3] == pytest.approx(0.03, abs=1e-6)
    assert abs(model.coef[0, 1]) < 1e-6 and abs(model.coef[1, 0]) < 1e-6
    assert model.residual_rmse[0] < 1e-9 and model.residual_rmse[1] < 1e-9


def test_training_csv_round_trip(tmp_path):
    corpus = generate_training_logs(_small_sweep())[:100]
    path = tmp_path / "training.csv"
    write_training_csv(corpus, path)
    back = read_training_csv(path)
    assert back.shape == corpus.shape and back.tobytes() == corpus.tobytes()


def _training_csv(tmp_path, *rows, header=TRAINING_HEADER):
    path = tmp_path / "training.csv"
    path.write_text("".join(line + "\n" for line in (header, *rows)))
    return path


TRAINING_ROW = [repr(0.1 * i + 0.05) for i in range(10)]


def test_read_training_csv_rejects_malformed_files(tmp_path):
    row = ",".join(TRAINING_ROW)
    with pytest.raises(ValueError, match="header"):
        read_training_csv(_training_csv(tmp_path, row, header="x," + TRAINING_HEADER))
    with pytest.raises(ValueError):  # ragged: one row short of a target
        read_training_csv(_training_csv(tmp_path, row, ",".join(TRAINING_ROW[:-1])))
    with pytest.raises(ValueError):  # every row one target short
        read_training_csv(_training_csv(tmp_path, ",".join(TRAINING_ROW[:-1])))
    for bad in ("nan", "inf", "-inf"):
        cells = TRAINING_ROW[:4] + [bad] + TRAINING_ROW[5:]
        with pytest.raises(ValueError, match="non-finite"):
            read_training_csv(_training_csv(tmp_path, row, ",".join(cells)))
    # no comment character: a '#' in a cell or starting a line is bad data
    cells = TRAINING_ROW[:3] + [TRAINING_ROW[3] + "#note"] + TRAINING_ROW[4:]
    with pytest.raises(ValueError):
        read_training_csv(_training_csv(tmp_path, row, ",".join(cells)))
    with pytest.raises(ValueError):
        read_training_csv(_training_csv(tmp_path, "# " + row, row))


def test_read_training_csv_names_the_non_finite_line(tmp_path):
    row = ",".join(TRAINING_ROW)
    for bad in ("nan", "inf", "-inf"):
        cells = ",".join(TRAINING_ROW[:7] + [bad] + TRAINING_ROW[8:])
        # header, a row, a blank line, a run of three rows, then the bad row on line 7
        path = _training_csv(tmp_path, row, "", row, row, row, cells, row)
        with pytest.raises(ValueError) as err:
            read_training_csv(path)
        assert str(err.value) == (f"{path}: line 7: training sample contains non-finite values, "
                                  f"got {cells!r}")
        path = _training_csv(tmp_path, cells, cells)
        with pytest.raises(ValueError, match=f"{path}: line 2: training sample contains non-finite"):
            read_training_csv(path)


def test_read_training_csv_names_the_bad_line(tmp_path):
    row = ",".join(TRAINING_ROW)
    bad_cells = TRAINING_ROW[:5] + ["x"] + TRAINING_ROW[6:]
    cases = [  # (body lines, 1-based file line of the bad row)
        (["", row, "  ", ",".join(bad_cells)], 5),  # after blank lines
        ([row, row, row, row, ",".join(bad_cells), row], 6),  # after a run of equal rows
        ([row, row, "", row, ",".join(TRAINING_ROW[:-1])], 6),  # ragged
        (["", ",".join(TRAINING_ROW[:-1]), ",".join(TRAINING_ROW[:-1])], 3),  # every row short
        ([row, row + "," + TRAINING_ROW[0], row], 3),  # one field too many
        ([row, ",".join(TRAINING_ROW[:3] + [TRAINING_ROW[3] + "#note"] + TRAINING_ROW[4:])], 3),
    ]
    for body, lineno in cases:
        path = _training_csv(tmp_path, *body)
        with pytest.raises(ValueError) as info:
            read_training_csv(path)
        assert str(info.value).startswith(f"{path}: line {lineno}: ")


def test_read_training_csv_skips_blank_lines(tmp_path):
    row = ",".join(TRAINING_ROW)
    back = read_training_csv(_training_csv(tmp_path, "", row, "   ", "\t", row, " \t ", ""))
    assert len(back) == 2
    write_training_csv(back, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_text() == f"{TRAINING_HEADER}\n{row}\n{row}\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an empty body is no numpy "no data" warning
        for rows in ((), ("", "  ")):
            empty = read_training_csv(_training_csv(tmp_path, *rows))
            assert empty.shape == (0, len(FEATURE_NAMES) + len(TARGET_NAMES))


NOISY_SWEEP_SHA256 = "c01f914bdb456780bf9f958fe77c5d3904211ccb0786f9b482d91e569e08c3db"


def test_noisy_training_sweep_pinned():
    """A noisy sweep draws four normals per row in row order; the corpus
    bytes pin that stream, so no row may reuse another's draws."""
    sweep = replace(_small_sweep(NoiseSpec(0.05, 2.0), seed=11), include_closed_loop=True)
    corpus = generate_training_logs(sweep)
    assert corpus.shape[0] == 5 * 8 * 2 * 40 + 8 * 40
    assert not (corpus[1:] == corpus[:-1]).all(axis=1).any()  # no row repeats
    assert hashlib.sha256(corpus.tobytes()).hexdigest() == NOISY_SWEEP_SHA256


def _repeated_rows_corpus():
    """Runs of equal rows, single rows, and a row holding -0.0 followed by
    the same row with 0.0."""
    base = np.array([0.1 * i - 0.35 for i in range(10)])
    signed = base.copy()
    signed[3] = -0.0
    unsigned = signed.copy()
    unsigned[3] = 0.0
    rows = [base] * 4 + [base * 3.0] + [signed] * 2 + [unsigned] * 3 + [base] + [base / 7.0] * 2
    return np.array(rows)


def test_write_training_csv_matches_per_row_repr(tmp_path):
    corpus = _repeated_rows_corpus()
    path = tmp_path / "training.csv"
    write_training_csv(corpus, path)
    expected = TRAINING_HEADER + "\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in corpus.tolist()
    )
    assert path.read_bytes() == expected.encode()
    assert ",-0.0," in expected and read_training_csv(path).tobytes() == corpus.tobytes()


def test_read_training_csv_matches_per_line_float(tmp_path):
    corpus = _repeated_rows_corpus()
    lines = [",".join(map(repr, row)) for row in corpus.tolist()]
    body = [lines[0], "", lines[1], lines[2], "  ", lines[3], lines[4], "\t", lines[5], lines[6],
            lines[7], "", "", lines[8], lines[9], lines[10], lines[11], lines[12]]
    path = tmp_path / "training.csv"
    path.write_text(TRAINING_HEADER + "\n" + "\n".join(body))  # no newline after the last line
    back = read_training_csv(path)
    reference = np.array([[float(v) for v in line.split(",")] for line in body if line.strip()])
    assert back.shape == reference.shape == corpus.shape
    assert back.tobytes() == reference.tobytes() == corpus.tobytes()


def _noisy_grid(half_m=150.0, n=5, seed=3):
    """n x n grid field spanning +/- half_m around ORIGIN, with seeded
    random node speeds and directions."""
    rng = np.random.default_rng(seed)
    m_per_deg_lon = METERS_PER_DEG_LAT * math.cos(math.radians(ORIGIN.lat))
    return FieldSpec.grid(
        lat0=ORIGIN.lat - half_m / METERS_PER_DEG_LAT,
        lon0=ORIGIN.lon - half_m / m_per_deg_lon,
        dlat=2.0 * half_m / (n - 1) / METERS_PER_DEG_LAT,
        dlon=2.0 * half_m / (n - 1) / m_per_deg_lon,
        speeds=rng.uniform(0.2, 0.8, (n, n)).tolist(),
        directions=rng.uniform(0.0, 360.0, (n, n)).tolist(),
    )


@pytest.mark.parametrize("controller", ["baseline", "augmented"])
@pytest.mark.parametrize("current, noise", [
    (FieldSpec.uniform(0.5, 90.0), NoiseSpec()),
    (_noisy_grid(), NoiseSpec(sigma_speed=0.05, sigma_dir=2.0)),
], ids=["uniform", "noisy-grid"])
def test_log_rows_carry_the_imposed_drift(controller, current, noise):
    """From the second row on, a log row's ground velocity minus its
    through-water velocity along its heading is the drift the fields
    imposed over the step into it: the current plus the wind-drag fraction
    of the wind, sampled at the previous row's position and time. So a
    log's own state gives a regression its drift targets, with nothing
    re-integrated."""
    sc = _short_scenario(current=current, wind=FieldSpec.uniform(5.0, 240.0), noise=noise,
                         controller=ControllerSpec(kind=controller))
    log = run_scenario(sc).log
    assert len(log) > 100
    sample = Environment(sc.current, sc.wind).sample
    k = sc.vehicle.wind_drag_factor
    worst = 0.0
    for i in range(1, len(log)):
        ce, cn, we, wn = sample(log.lat[i - 1], log.lon[i - 1], log.t[i - 1])
        vg_e, vg_n = track_velocity(log.spd_t[i], log.course_t[i])
        he, hn = unit_enu(log.h_t[i])
        tw = log.through_water_speed[i]
        worst = max(worst, abs(vg_e - tw * he - (ce + k * we)), abs(vg_n - tw * hn - (cn + k * wn)))
    assert worst <= 1e-12


def test_downstream_pair_oscillation_contrast():
    """The baseline weaves across the line running with the current; the
    augmented controller on the identical scenario does not."""
    from asvnav.harness import downstream_failure_scenario
    from asvnav.metrics import cross_track_series, sign_changes_over_threshold

    base = run_scenario(downstream_failure_scenario(controller="baseline"))
    aug = run_scenario(downstream_failure_scenario(controller="augmented"))
    base_series = cross_track_series(base.log, list(base.scenario.mission))
    aug_series = cross_track_series(aug.log, list(aug.scenario.mission))
    assert sign_changes_over_threshold(base_series.errors) >= 2
    assert sign_changes_over_threshold(aug_series.errors) < 2
    assert base.completed


def test_suite_perpendicular_augmented_under_published_bound():
    """The augmented perpendicular legs stay under the 1.58 m field-trial
    ceiling for that orientation."""
    result = run_suite(standard_suite())
    assert result.augmented[90].max_error < 1.58
    assert result.augmented[270].max_error < 1.58


def test_suite_with_current_worse_than_against_for_baseline():
    """Qualitative reproduction of the with/against asymmetry: every pair
    orders on max error, and the parallel pair (the classic case) also
    orders on percent-over-1m. The diagonal percentages saturate near
    100 for the baseline, so only max error discriminates there."""
    result = run_suite(standard_suite())
    pairs = ((0, 180), (45, 225), (315, 135))
    for with_o, against_o in pairs:
        assert result.baseline[with_o].max_error > result.baseline[against_o].max_error
    assert result.baseline[0].pct_over_1m > result.baseline[180].pct_over_1m


def test_fitted_model_drift_rmse_on_held_out_states():
    """Fit on one sweep, predict on unseen conditions: drift error small."""
    import math as _math

    model = fit(generate_training_logs(_small_sweep(seed=1)))
    rng = np.random.default_rng(77)
    errs = []
    for _ in range(300):
        current = ForceVector(rng.uniform(0, 1.2), rng.uniform(0, 360))
        wind = ForceVector(rng.uniform(0, 8), rng.uniform(0, 360))
        ce, cn = current.enu()
        we, wn = wind.enu()
        truth = (ce + 0.03 * we, cn + 0.03 * wn)
        spd_target = rng.uniform(1, 3)
        rng.uniform(0, 3)  # an unused draw keeps the seeded sequence of conditions
        effect_x, effect_y, _ = model.predict(current.speed, current.direction, wind.speed,
                                              wind.direction, spd_target, rng.uniform(0, 360))
        errs.append((effect_x - truth[0]) ** 2 + (effect_y - truth[1]) ** 2)
    rmse = _math.sqrt(float(np.mean(errs)) / 2.0)
    assert rmse < 0.05
