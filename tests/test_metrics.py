"""Trajectory scoring: cross-track geometry, arc-length weighting, table."""

import math

import numpy as np
import pytest

from asvnav.control import Waypoint
from asvnav.effects import ForceSample
from asvnav.geo import EnuVector, GeoPoint, offset_point
from asvnav.metrics import (
    ErrorReport,
    LogRecord,
    TrajectoryLog,
    cross_track_series,
    score,
    score_log,
    sign_changes_over_threshold,
    table_report,
)
from asvnav.vehicle import ActuatorCommand, AsvState

ORIGIN = GeoPoint(34.0, -81.0)
CALM_FORCE = ForceSample(0.0, 0.0, 0.0, 0.0)
IDLE = ActuatorCommand(0.5, 0.0)


def _mission(length=200.0, bearing=0.0):
    from asvnav.geo import unit_enu

    ue, un = unit_enu(bearing)
    a = ORIGIN
    b = offset_point(ORIGIN, EnuVector(length * ue, length * un))
    return [Waypoint(a, 2.0), Waypoint(b, 2.0)]


def _log_from_enu(points, dt=1.0, wp_index=1):
    """Build a log from (east, north) positions along the mission frame."""
    log = TrajectoryLog()
    for i, (e, n) in enumerate(points):
        pos = offset_point(ORIGIN, EnuVector(e, n)) if (e, n) != (0.0, 0.0) else ORIGIN
        state = AsvState(pos=pos, spd_t=2.0, course_t=0.0, h_t=0.0,
                         through_water_speed=2.0, t=i * dt)
        log.append(LogRecord(t=i * dt, state=state, wp_index=wp_index,
                             intermediate=None, force=CALM_FORCE, cmd=IDLE))
    return log


def test_on_segment_trajectory_scores_zero():
    mission = _mission()
    points = [(0.0, n) for n in np.linspace(0.0, 200.0, 101)]
    series = cross_track_series(_log_from_enu(points), mission)
    assert np.max(np.abs(series.errors)) < 1e-9
    report = score(series.errors, series.weights)
    assert report.max_error == pytest.approx(0.0, abs=1e-9)
    assert report.pct_over_1m == 0.0


def test_constant_offset_east_of_north_leg():
    mission = _mission()
    points = [(3.0, n) for n in np.linspace(0.0, 200.0, 101)]
    # start within 2x acceptance radius of the leg start so scoring engages
    series = cross_track_series(_log_from_enu(points), mission)
    np.testing.assert_allclose(series.errors, 3.0, atol=1e-9)
    report = score(series.errors, series.weights)
    assert report.max_error == pytest.approx(3.0, abs=1e-9)
    assert report.pct_over_1m == pytest.approx(100.0)


def test_sinusoidal_track_max_matches_amplitude():
    mission = _mission()
    n_vals = np.linspace(0.0, 200.0, 2001)
    points = [(2.0 * math.sin(2 * math.pi * n / 50.0), n) for n in n_vals]
    series = cross_track_series(_log_from_enu(points, dt=0.1), mission)
    report = score(series.errors, series.weights)
    assert report.max_error == pytest.approx(2.0, abs=0.01)


def test_half_and_half_is_exactly_fifty_percent():
    mission = _mission()
    n_half = 100
    points = [(0.5, n) for n in np.linspace(0.0, 99.0, n_half)]
    points += [(1.5, n) for n in np.linspace(100.0, 199.0, n_half)]
    series = cross_track_series(_log_from_enu(points), mission)
    report = score(series.errors, series.weights)
    assert report.max_error == pytest.approx(1.5, abs=1e-9)
    assert report.pct_over_1m == pytest.approx(50.0, abs=1e-9)


def test_pct_invariant_to_resampling():
    mission = _mission()

    def build(step):
        n_vals = np.arange(0.0, 200.0 + 1e-9, step)
        pts = [(1.8 * math.sin(2 * math.pi * n / 80.0), n) for n in n_vals]
        series = cross_track_series(_log_from_enu(pts, dt=step / 2.0), mission)
        return score(series.errors, series.weights).pct_over_1m

    base = build(0.1)
    double_rate = build(0.05)
    half_rate = build(0.2)
    assert abs(double_rate - base) < 0.5
    assert abs(half_rate - base) < 0.5


def test_initial_approach_excluded():
    mission = _mission()
    # first samples far from the leg start, offset 30 m east: excluded
    approach = [(30.0 - n * 0.75, -40.0 + n) for n in range(40)]  # walks toward start
    on_leg = [(0.5, n) for n in np.linspace(0.0, 200.0, 50)]
    log = _log_from_enu(approach + on_leg)
    series = cross_track_series(log, mission)
    assert series.first_scored_record > 0
    assert np.max(np.abs(series.errors)) < 4.0  # none of the 30 m approach leaked in


def test_never_acquiring_leg_raises():
    mission = _mission()
    points = [(50.0, n) for n in np.linspace(0.0, 200.0, 20)]
    with pytest.raises(ValueError, match="never acquired"):
        cross_track_series(_log_from_enu(points), mission)


def test_degenerate_leg_rejected():
    mission = [Waypoint(ORIGIN, 2.0), Waypoint(ORIGIN, 2.0)]
    points = [(0.0, float(n)) for n in range(10)]
    with pytest.raises(ValueError, match="degenerate leg"):
        cross_track_series(_log_from_enu(points), mission)


def test_empty_log_rejected():
    with pytest.raises(ValueError, match="empty"):
        cross_track_series(TrajectoryLog(), _mission())


def test_score_monotone_in_series():
    errors = np.array([0.2, 0.8, 1.4, 0.6])
    weights = np.ones(4)
    low = score(errors, weights)
    high = score(errors * 2.0, weights)
    assert high.max_error >= low.max_error
    assert high.pct_over_1m >= low.pct_over_1m


def test_sign_changes_counter():
    assert sign_changes_over_threshold(np.array([0.5, 1.5, -0.2, -1.5, 1.2])) == 2
    assert sign_changes_over_threshold(np.array([0.5, 0.9, -0.8])) == 0
    assert sign_changes_over_threshold(np.array([2.0, 2.5, 2.2])) == 0


def test_trajectory_csv_round_trip(tmp_path):
    mission = _mission()
    points = [(0.5, n) for n in np.linspace(0.0, 200.0, 40)]
    log = _log_from_enu(points)
    path = tmp_path / "trajectory.csv"
    log.write_csv(path)
    loaded = TrajectoryLog.from_csv(path)
    assert len(loaded) == len(log)
    first, last = loaded.records[0], loaded.records[-1]
    assert first.state.pos.lat == log.records[0].state.pos.lat
    assert last.wp_index == 1
    # scores agree between the in-memory and round-tripped logs
    a = score_log(log, mission)
    b = score_log(loaded, mission)
    assert a.max_error == pytest.approx(b.max_error, abs=1e-12)
    assert a.pct_over_1m == pytest.approx(b.pct_over_1m, abs=1e-12)


def test_records_view_is_the_appended_records():
    records = [
        LogRecord(
            t=0.5 * i,
            state=AsvState(pos=offset_point(ORIGIN, EnuVector(0.5, 2.0 * i + 1.0)), spd_t=2.0,
                           course_t=10.0 * i, h_t=355.0, through_water_speed=1.5, t=0.5 * i,
                           turn_rate=-0.25 * i),
            wp_index=i // 4,
            intermediate=None if i % 3 else Waypoint(ORIGIN, 1.5),
            force=ForceSample(0.1 * i, 30.0, 5.0, 200.0),
            cmd=ActuatorCommand(0.5, -0.1 * i),
        )
        for i in range(10)
    ]
    log = TrajectoryLog()
    for record in records[:5]:
        log.append(record)
    assert log.records == tuple(records[:5])
    for record in records[5:]:
        log.append(record)
    assert log.records == tuple(records)
    # the log has one time column: a record's state must share its time
    late = records[-1]
    with pytest.raises(ValueError):
        log.append(LogRecord(t=late.t + 1.0, state=late.state, wp_index=late.wp_index,
                             intermediate=None, force=late.force, cmd=late.cmd))


def test_trajectory_header_exact():
    from asvnav.metrics import TRAJECTORY_HEADER

    assert TRAJECTORY_HEADER == (
        "t,lat,lon,spd_t,h_t,wp_index,int_lat,int_lon,int_spd,"
        "spd_c,dir_c,spd_w,dir_w,thrust,rudder"
    )
    log = _log_from_enu([(0.0, 0.0), (0.0, 1.0)])
    assert log.to_csv().splitlines()[0] == TRAJECTORY_HEADER


def _reports(values):
    return {
        orient: ErrorReport(label=str(orient), max_error=v[0], pct_over_1m=v[1])
        for orient, v in values.items()
    }


def test_table_report_renders_published_style_values():
    baseline = _reports({
        90: (4.0, 40.0), 270: (5.0, 48.4),   # perpendicular pair -> mean 4.50 / 44.2
        0: (9.32, 76.8), 180: (3.86, 18.3),
        45: (3.46, 48.6), 225: (1.63, 12.7),
        315: (7.85, 83.5), 135: (2.57, 40.1),
    })
    augmented = _reports({
        90: (1.58, 9.3), 270: (1.58, 9.3),
        0: (1.48, 11.9), 180: (1.08, 7.9),
        45: (0.75, 0.0), 225: (0.74, 0.0),
        315: (1.07, 6.3), 135: (0.68, 0.0),
    })
    table = table_report(baseline, augmented)
    assert table.columns[0] == "Perpendicular"
    assert table.baseline_max[0] == pytest.approx(4.50)
    assert table.baseline_pct[0] == pytest.approx(44.2)
    assert table.baseline_max[1] == pytest.approx(9.32)
    assert table.augmented_max[1] == pytest.approx(1.48)
    assert table.augmented_pct[1] == pytest.approx(11.9)
    text = table.to_text()
    assert "9.32" in text and "1.48" in text and "11.9" in text
    csv_text = table.to_csv()
    assert csv_text.splitlines()[0].startswith("metric,Perpendicular,Parallel With")


def test_table_report_identical_inputs_identical_columns():
    reports = _reports({o: (1.0, 10.0) for o in (0, 45, 90, 135, 180, 225, 270, 315)})
    table = table_report(reports, reports)
    assert table.baseline_max == table.augmented_max
    assert table.baseline_pct == table.augmented_pct


def test_table_report_missing_cell():
    reports = _reports({o: (1.0, 10.0) for o in (0, 45, 90, 135, 180, 225, 270)})
    full = _reports({o: (1.0, 10.0) for o in (0, 45, 90, 135, 180, 225, 270, 315)})
    with pytest.raises(ValueError, match="baseline:315"):
        table_report(reports, full)
