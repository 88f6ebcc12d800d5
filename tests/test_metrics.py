"""Trajectory scoring: cross-track geometry, arc-length weighting, table."""

import hashlib
import math
import re

import numpy as np
import pytest

from asvnav.control import Waypoint
from asvnav.geo import GeoPoint, displaced, wrap_angle
from asvnav.metrics import (
    LOG_COLUMNS,
    TRAJECTORY_DTYPE,
    TRAJECTORY_HEADER,
    ErrorReport,
    LogRecord,
    TrajectoryLog,
    cross_track_series,
    score,
    score_run,
    sign_changes_over_threshold,
    table_report,
)

ORIGIN = GeoPoint(34.0, -81.0)
# (spd_c, dir_c, spd_w, dir_w) and (thrust, rudder) of a log row
CALM_FORCE = (0.0, 0.0, 0.0, 0.0)
IDLE = (0.5, 0.0)


def _mission(length=200.0, bearing=0.0):
    from asvnav.geo import unit_enu

    ue, un = unit_enu(bearing)
    a = ORIGIN
    b = displaced(ORIGIN, length * ue, length * un)
    return [Waypoint(a, 2.0), Waypoint(b, 2.0)]


def _log_from_enu(points, dt=1.0, wp_index=1):
    """Build a log from (east, north) positions along the mission frame."""
    rows = []
    for i, (e, n) in enumerate(points):
        pos = displaced(ORIGIN, e, n) if (e, n) != (0.0, 0.0) else ORIGIN
        rows.append((i * dt, pos.lat, pos.lon, 2.0, 0.0, 0.0, 2.0, 0.0, wp_index, None,
                     *CALM_FORCE, *IDLE))
    return TrajectoryLog.from_rows(rows)


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


def test_score_all_over_threshold_is_100_percent():
    """When every sample is over 1 m, 100.0 * over / total rounds above 100
    for some totals; the share is still exactly 100."""
    x = 201.98508331865202
    assert 100.0 * x / x > 100.0
    report = score(np.array([2.0, 2.0]), np.array([x / 2, x / 2]))
    assert (report.max_error, report.pct_over_1m) == (2.0, 100.0)


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
    assert loaded.lat[0] == log.lat[0]
    assert loaded.wp_index[-1] == 1
    # scores agree between the in-memory and round-tripped logs
    _, a, _ = score_run(log, mission)
    _, b, _ = score_run(loaded, mission)
    assert a.max_error == pytest.approx(b.max_error, abs=1e-12)
    assert a.pct_over_1m == pytest.approx(b.pct_over_1m, abs=1e-12)


def _trajectory_lines():
    """Header and rows of a short log's CSV, split into cells."""
    log = _log_from_enu([(0.5, n) for n in np.linspace(0.0, 20.0, 6)])
    return [line.split(",") for line in log.to_csv().splitlines()]


def _write_trajectory(path, lines, blank_after={}):
    """lines written as CSV; blank_after maps a line's index to the blank or
    whitespace-only line that follows it."""
    path.write_text("".join(",".join(cells) + "\n"
                            + (blank_after[i] + "\n" if i in blank_after else "")
                            for i, cells in enumerate(lines)))
    return path


def _edited_trajectory(path, edits, blank_after={}):
    """The short log's CSV with cells replaced: edits maps (row, column
    name) to text, or to None to drop the cell; rows count from 1 after
    the header. blank_after maps a row to the blank line that follows it."""
    lines = _trajectory_lines()
    for (row, column), text in edits.items():
        lines[row][lines[0].index(column)] = text
    return _write_trajectory(path, [[c for c in cells if c is not None] for cells in lines],
                             blank_after)


def _bad_rows(edits, blank_after={}):
    """A case of test_trajectory_csv_rejects_bad_rows, named by its edits."""
    name = "-".join(f"{c}={t}" for (_, c), t in edits.items())
    return pytest.param(edits, blank_after, id=name + ("-after-blank-lines" if blank_after else ""))


@pytest.mark.parametrize("edits, blank_after", [
    _bad_rows({(0, "t"): "time"}),
    _bad_rows({(3, "t"): "1.0"}),
    _bad_rows({(3, "t"): "0.5"}),
    _bad_rows({(3, "wp_index"): "0"}),
    _bad_rows({(3, "spd_t"): "-0.5"}),
    _bad_rows({(3, "spd_t"): "nan"}),
    _bad_rows({(3, "t"): "inf"}),
    _bad_rows({(3, "lat"): "nan"}),
    _bad_rows({(3, "lon"): "inf"}),
    _bad_rows({(3, "lat"): "90.5"}),
    _bad_rows({(3, "lat"): "-91.0"}),
    _bad_rows({(3, "h_t"): "inf"}),
    _bad_rows({(3, "dir_c"): "nan"}),
    _bad_rows({(3, "dir_w"): "-inf"}),
    _bad_rows({(3, "spd_c"): "-0.1"}),
    _bad_rows({(3, "spd_w"): "nan"}),
    _bad_rows({(3, "rudder"): ""}),
    _bad_rows({(3, "rudder"): "0.0,0.0"}),
    _bad_rows({(3, "rudder"): None}),
    _bad_rows({(3, "wp_index"): "1.0"}),
    _bad_rows({(3, "int_lat"): "34.0"}),
    _bad_rows({(3, "t"): "1.0"}, blank_after={0: "", 1: " \t ", 2: ""}),
])
def test_trajectory_csv_rejects_bad_rows(tmp_path, edits, blank_after):
    """The rejection names the file and the file line of the edited row,
    counting the header and blank lines."""
    path = _edited_trajectory(tmp_path / "trajectory.csv", edits, blank_after)
    row = max(row for row, _ in edits)
    line = 1 + row + sum(1 for after in blank_after if after < row)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line {line}: "):
        TrajectoryLog.from_csv(path)


def test_trajectory_csv_reader_wraps_and_clamps(tmp_path):
    """Out-of-range angles and longitudes are wrapped and commands clamped
    as on construction; a non-finite command passes through unclamped."""
    edits = {
        (1, "lon"): "-181.25", (2, "lon"): "190.0", (3, "lon"): "180.0",
        (1, "h_t"): "370.5", (2, "h_t"): "-30.0", (3, "h_t"): "360.0", (4, "h_t"): "-0.0",
        (1, "dir_c"): "-90.0", (2, "dir_w"): "725.0", (3, "dir_c"): "-1e-20",
        (1, "thrust"): "1.5", (2, "thrust"): "-0.25", (3, "thrust"): "inf",
        (4, "thrust"): "-0.0", (1, "rudder"): "-3.0", (2, "rudder"): "2.0",
        (3, "rudder"): "-inf", (4, "rudder"): "-0.0", (5, "thrust"): "nan",
    }
    log = TrajectoryLog.from_csv(_edited_trajectory(tmp_path / "trajectory.csv", edits))
    records = log.records
    lat = records[0].lat
    assert [r.lon for r in records[:3]] == [GeoPoint(lat, v).lon for v in (-181.25, 190.0, 180.0)]
    assert records[0].lon == 178.75 and records[2].lon == -180.0
    assert [r.h_t for r in records[:4]] == [wrap_angle(v) for v in (370.5, -30.0, 360.0, -0.0)]
    assert math.copysign(1.0, records[3].h_t) == 1.0
    assert (records[0].dir_c, records[1].dir_w) == (270.0, 5.0)
    assert records[2].dir_c == wrap_angle(-1e-20) == 0.0
    thrusts = [r.thrust for r in records]
    rudders = [r.rudder for r in records]
    assert thrusts[:3] == [1.0, 0.0, math.inf] and math.isnan(thrusts[4])
    assert math.copysign(1.0, thrusts[3]) == 1.0  # -0.0 clamps to the bound 0.0
    assert rudders[:4] == [-1.0, 1.0, -math.inf, 0.0]
    assert math.copysign(1.0, rudders[3]) == -1.0  # inside the range: kept as is


def test_trajectory_csv_reader_matches_the_scalar_rules(tmp_path):
    """The column-wise wrap and clamp equal point_coords, wrap_angle and
    _clamped bit for bit on random and edge-case values."""
    from asvnav.geo import point_coords
    from asvnav.vehicle import _clamped

    rng = np.random.default_rng(21)
    n = 2000
    # -180.00000000000003 wraps through 360.0 to the 180.0 that becomes -180.0
    edges = [0.0, -0.0, 180.0, -180.0, 360.0, -360.0, 540.0, 1e-300, -1e-300, -1e-20,
             359.99999999999994, -180.00000000000003]
    lon = np.concatenate([edges, rng.uniform(-1000.0, 1000.0, n - len(edges))])
    angles = np.concatenate([edges, rng.uniform(-1000.0, 1000.0, n - len(edges))])
    commands = np.concatenate([[0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan],
                               rng.uniform(-3.0, 3.0, n - 7)])
    lat = rng.uniform(-90.0, 90.0, n)
    rows = [
        f"{float(i)!r},{la!r},{lo!r},1.0,{a!r},0,,,,0.5,{a!r},2.0,{-a!r},{c!r},{-c!r}"
        for i, (la, lo, a, c) in enumerate(zip(lat.tolist(), lon.tolist(), angles.tolist(),
                                              commands.tolist()))
    ]
    path = tmp_path / "trajectory.csv"
    path.write_text(TRAJECTORY_HEADER + "\n" + "\n".join(rows) + "\n")
    log = TrajectoryLog.from_csv(path)

    def same(a, b):
        return np.array(a).tobytes() == np.array(b).tobytes()  # NaN and -0.0 compare by bits

    assert same(log.lon, [point_coords(la, lo)[1] for la, lo in zip(lat.tolist(), lon.tolist())])
    wrapped = [wrap_angle(a) for a in angles.tolist()]
    assert same(log.h_t, wrapped) and same(log.dir_c, wrapped)
    assert same(log.dir_w, [wrap_angle(-a) for a in angles.tolist()])
    clamped = [_clamped(float(repr(c)), float(repr(-c))) for c in commands.tolist()]  # as written
    assert same(log.thrust, [c[0] for c in clamped]) and same(log.rudder, [c[1] for c in clamped])


def test_trajectory_csv_reader_skips_blank_lines(tmp_path):
    lines = _trajectory_lines()
    plain = TrajectoryLog.from_csv(_write_trajectory(tmp_path / "plain.csv", lines))
    spaced = TrajectoryLog.from_csv(_write_trajectory(tmp_path / "spaced.csv", lines,
                                                      blank_after={0: "", 2: "  ", 3: "",
                                                                   len(lines) - 1: "\t"}))
    assert len(spaced) == len(lines) - 1
    assert spaced.records == plain.records
    empty = TrajectoryLog.from_csv(_write_trajectory(tmp_path / "empty.csv", lines[:1]))
    assert len(empty) == 0


def _row(i):
    """A log row whose every field moves with i."""
    pos = displaced(ORIGIN, 0.5, 2.0 * i + 1.0)
    return LogRecord(
        t=0.5 * i, lat=pos.lat, lon=pos.lon, spd_t=2.0, course_t=10.0 * i, h_t=355.0,
        through_water_speed=1.5, turn_rate=-0.25 * i, wp_index=i // 4,
        intermediate=None if i % 3 else Waypoint(ORIGIN, 1.5),
        spd_c=0.1 * i, dir_c=30.0, spd_w=5.0, dir_w=200.0, thrust=0.5, rudder=-0.1 * i,
    )


def test_records_view_is_the_appended_records():
    records = [_row(i) for i in range(10)]
    log = TrajectoryLog()
    for record in records[:5]:
        log.append(record)
    assert log.records == tuple(records[:5])
    for record in records[5:]:
        log.append(tuple(record))  # a plain tuple in LOG_COLUMNS order is a row too
    assert log.records == tuple(records)
    assert repr(TrajectoryLog.from_rows(records).records) == repr(log.records)
    # each rejected row leaves the log as it was
    late = records[-1]
    with pytest.raises(ValueError, match="timestamps must be strictly increasing"):
        log.append(late)
    with pytest.raises(ValueError, match="waypoint indices must be non-decreasing"):
        log.append(late._replace(t=late.t + 1.0, wp_index=late.wp_index - 1))
    with pytest.raises(TypeError):
        log.append(late[:-1])
    assert log.records == tuple(records)


def test_from_rows_rejects_a_row_of_the_wrong_width():
    """A short or a long row raises TypeError, as append does, in place of
    a log truncated to the shortest row or a value dropped."""
    full = tuple(_row(0))
    with pytest.raises(TypeError):
        TrajectoryLog.from_rows([full, (1.0, 34.0, -81.0)])
    with pytest.raises(TypeError):
        TrajectoryLog.from_rows([full + (0.0,)])
    assert len(TrajectoryLog.from_rows([])) == 0
    assert TrajectoryLog.from_rows([full]).records == (_row(0),)


def _column_bits(log):
    """Every value of every column of log, floats by float.hex (so -0.0
    and NaN keep their bits), held targets as their three floats."""
    return {
        name: [None if w is None else tuple(map(float.hex, (w.pos.lat, w.pos.lon, w.spd_target)))
               for w in column] if name == "intermediate" else
        [(type(v), v) for v in column] if name == "wp_index" else list(map(float.hex, column))
        for name, column in zip(LOG_COLUMNS, zip(*log.records))
    }


def test_trajectory_npy_round_trip_is_lossless(tmp_path):
    """from_npy gets back what write_npy wrote, bit for bit in every
    column: course, through-water speed and turn rate (which the CSV
    drops) and -0.0 included, the held targets as equal Waypoints."""
    target = Waypoint(GeoPoint(-0.0, -179.5), 1.25)
    rows = [_row(i)._replace(course_t=0.0 if i % 2 else 359.75, turn_rate=-0.0 * (i % 2),
                             rudder=-0.0 if i == 3 else -0.05 * i, spd_c=-0.0 if i == 5 else 0.1,
                             through_water_speed=1.5 / 7.0 * i,
                             intermediate=target if 4 <= i < 8 else _row(i).intermediate)
            for i in range(12)]
    log = TrajectoryLog.from_rows(rows)
    path = tmp_path / "trajectory.npy"
    log.write_npy(path)
    loaded = TrajectoryLog.from_npy(path)
    assert _column_bits(loaded) == _column_bits(log)
    assert loaded.intermediate == log.intermediate
    assert float.hex(loaded.turn_rate[1]) == "-0x0.0p+0"
    # the file is one 1-D array of the fixed little-endian record type
    data = np.load(path, allow_pickle=False)
    assert data.dtype == TRAJECTORY_DTYPE and data.shape == (12,)
    assert data.dtype.names == ("t", "lat", "lon", "spd_t", "course_t", "h_t",
                                "through_water_speed", "turn_rate", "wp_index", "int_lat",
                                "int_lon", "int_spd", "spd_c", "dir_c", "spd_w", "dir_w",
                                "thrust", "rudder")
    assert all(data.dtype[name].str in ("<f8", "<i8") for name in data.dtype.names)
    assert np.isnan(data["int_lat"][1]) and data["int_spd"][4] == 1.25
    TrajectoryLog().write_npy(tmp_path / "empty.npy")
    assert len(TrajectoryLog.from_npy(tmp_path / "empty.npy")) == 0


def _edited(array, name, row, value):
    array = array.copy()
    array[name][row] = value
    return array


def _fields_reversed(array):
    """array with its fields in reverse order."""
    out = np.empty(array.shape, [(name, array.dtype[name]) for name in reversed(array.dtype.names)])
    for name in array.dtype.names:
        out[name] = array[name]
    return out


def _bad_npy(name, edit, message, row=None):
    """A case of test_trajectory_npy_rejects_bad_files."""
    return pytest.param(edit, message, row, id=name)


def _log_array(tmp_path):
    """The array write_npy writes for a short log."""
    path = tmp_path / "good.npy"
    TrajectoryLog.from_rows([_row(i) for i in range(8)]).write_npy(path)
    return np.load(path, allow_pickle=False)


WRONG_TYPE = "expected a 1-D array of metrics.TRAJECTORY_DTYPE"


@pytest.mark.parametrize("edit, message, row", [
    _bad_npy("fields-reversed", _fields_reversed, WRONG_TYPE),
    _bad_npy("big-endian", lambda a: a.astype(a.dtype.newbyteorder(">")), WRONG_TYPE),
    _bad_npy("t-float32", lambda a: a.astype(
        [(n, "<f4" if n == "t" else a.dtype[n]) for n in a.dtype.names]), WRONG_TYPE),
    _bad_npy("2-d", lambda a: a.reshape(2, 4), WRONG_TYPE),
    _bad_npy("object-array", lambda a: np.array(a.tolist(), dtype=object),
             "not a trajectory .npy file"),
    _bad_npy("t-decreasing", lambda a: _edited(a, "t", 5, 1.0),
             "timestamps must be strictly increasing", 5),
    _bad_npy("lat-90.5", lambda a: _edited(a, "lat", 3, 90.5), "latitude 90.5 outside [-90, 90]", 3),
    _bad_npy("through_water_speed-negative", lambda a: _edited(a, "through_water_speed", 2, -0.5),
             "speeds must be >= 0", 2),
    _bad_npy("turn_rate-inf", lambda a: _edited(a, "turn_rate", 6, np.inf),
             "non-finite state component", 6),
    _bad_npy("course_t-nan", lambda a: _edited(a, "course_t", 4, np.nan), "angle must be finite", 4),
    _bad_npy("wp_index-decreasing", lambda a: _edited(a, "wp_index", 7, 0),
             "waypoint indices must be non-decreasing", 7),
    _bad_npy("int_lon-nan-alone", lambda a: _edited(a, "int_lon", 3, np.nan),
             "a held target is three numbers or three NaN", 3),
    _bad_npy("int_spd-zero", lambda a: _edited(a, "int_spd", 3, 0.0), "spd_target must be > 0", 3),
])
def test_trajectory_npy_rejects_bad_files(tmp_path, edit, message, row):
    """Each rejection names the path, and the row (from 0) where a column
    breaks a rule."""
    path = tmp_path / "trajectory.npy"
    with open(path, "wb") as fh:
        np.save(fh, edit(_log_array(tmp_path)), allow_pickle=True)
    where = re.escape(f"{path}: ") + ("" if row is None else f"row {row}: ")
    with pytest.raises(ValueError, match=f"^{where}.*{re.escape(message)}"):
        TrajectoryLog.from_npy(path)


def test_trajectory_npy_rejects_other_files(tmp_path):
    path = tmp_path / "trajectory.npy"
    path.write_text(TRAJECTORY_HEADER + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not a trajectory .npy file"):
        TrajectoryLog.from_npy(path)
    path.write_bytes(b"")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not a trajectory .npy file"):
        TrajectoryLog.from_npy(path)


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


def _series_digest(series):
    """sha256 of a CrossTrackSeries' array bytes and first scored record."""
    assert (series.errors.dtype, series.weights.dtype) == (np.float64, np.float64)
    assert series.leg_indices.dtype == np.int64
    h = hashlib.sha256()
    for column in (series.errors, series.weights, series.leg_indices):
        h.update(np.ascontiguousarray(column).tobytes())
    h.update(str(series.first_scored_record).encode())
    return h.hexdigest()


def _log_from_points(points, wp_indices):
    """Log of GeoPoints with their waypoint indices, one second apart."""
    rows = [(float(i), p.lat, p.lon, 2.0, 0.0, 0.0, 2.0, 0.0, wp, None, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0)
            for i, (p, wp) in enumerate(zip(points, wp_indices))]
    return TrajectoryLog.from_rows(rows)


def _three_waypoint_run():
    """An L-shaped three-waypoint mission flown with scatter off the line:
    the approach logs wp_index 0, and past the last waypoint the log
    holds wp_index 3, one past the final leg."""
    rng = np.random.default_rng(7)
    corner = displaced(ORIGIN, 0.0, 100.0)
    end = displaced(ORIGIN, 100.0, 100.0)
    mission = [Waypoint(ORIGIN, 2.0), Waypoint(corner, 2.0), Waypoint(end, 2.0)]
    enu = [(-1.5 + 0.1 * k, -10.0 + k) for k in range(10)]  # approach
    enu += [(rng.normal(0.0, 1.5), float(n)) for n in range(0, 100, 2)]
    enu += [(float(e), 100.0 + rng.normal(0.0, 1.5)) for e in range(0, 120, 3)]
    wp = [0] * 10 + [1] * 50 + [2] * 34 + [3] * 6
    return _log_from_points([displaced(ORIGIN, e, n) for e, n in enu], wp), mission


def _antimeridian_run(east):
    """A 150 m leg across the antimeridian, flown eastward or westward,
    with the approach and the line crossing both logged."""
    rng = np.random.default_rng(3 if east else 4)
    sign = 1.0 if east else -1.0
    a = GeoPoint(-12.0, 179.9994 if east else -179.9994)
    b = displaced(a, sign * 150.0, 0.0)
    assert (a.lon > 0.0) == east and (b.lon < 0.0) == east
    points = [displaced(a, sign * x, rng.normal(0.0, 0.8))
              for x in np.arange(-8.0, 160.0, 1.7)]
    return _log_from_points(points, [1] * len(points)), [Waypoint(a, 2.0), Waypoint(b, 2.0)]


# _series_digest of hand-built logs, pinned before scoring ran on columns.
HAND_BUILT_SERIES_SHA256 = {
    "three_waypoints": "1f0d904a0587791b39096f86eb10acdbf2b32e2064289bca114fa0d89dd2a2f3",
    "antimeridian_east": "dfda3eade0b16d0b7ccfc34801e0b73f67ad1314ab7c313a82aa087c8115e879",
    "antimeridian_west": "919f2d07e1699e38fc60062b40227f171f9c793ca40cac1a4365cc779d9c3a9a",
}


@pytest.mark.parametrize("case", sorted(HAND_BUILT_SERIES_SHA256))
def test_hand_built_series_pinned(case):
    if case == "three_waypoints":
        log, mission = _three_waypoint_run()
    else:
        log, mission = _antimeridian_run(east=case.endswith("east"))
    series = cross_track_series(log, mission)
    assert 0 < series.first_scored_record
    if case == "three_waypoints":
        assert series.leg_indices.tolist()[-7:] == [2] * 7
    assert _series_digest(series) == HAND_BUILT_SERIES_SHA256[case]


def test_to_csv_matches_per_row_repr():
    """Force columns that repeat values and alternate -0.0 with 0.0, held
    and changing intermediate targets, against a per-row f-string."""
    target = Waypoint(displaced(ORIGIN, 3.0, 40.0), 1.75)
    other = Waypoint(displaced(ORIGIN, -2.0, 80.0), 2.25)
    forces = [(0.5, 90.0, 3.0, -0.0), (0.5, 90.0, 3.0, 0.0), (0.5000000000000001, -0.0, 3.0, 0.0),
              (0.0, 0.0, 3.0, -0.0), (0.5, 90.0, 1e-300, 359.99999999999994)]
    rows = []
    for i in range(23):
        pos = displaced(ORIGIN, 0.1 * i, 1.9 * i)
        intermediate = (None, target, target, other, None)[i % 5]
        rows.append((0.1 * i, pos.lat, pos.lon, 2.0 + 0.01 * i, 0.0, (7.0 * i) % 360.0, 2.0, 0.0,
                     1 + i // 12, intermediate, *forces[(3 * i) % 5], 0.5 + 0.02 * (i % 3),
                     -0.0 if i % 4 == 0 else 0.1 * (i % 3)))
    log = TrajectoryLog.from_rows(rows)
    expected = [TRAJECTORY_HEADER]
    for t, lat, lon, spd_t, _, h_t, _, _, wp, wp_held, spd_c, dir_c, spd_w, dir_w, thrust, rudder \
            in rows:
        held = ",," if wp_held is None else (
            f"{wp_held.pos.lat!r},{wp_held.pos.lon!r},{wp_held.spd_target!r}")
        expected.append(f"{t!r},{lat!r},{lon!r},{spd_t!r},{h_t!r},{wp},{held},{spd_c!r},{dir_c!r},"
                        f"{spd_w!r},{dir_w!r},{thrust!r},{rudder!r}")
    text = log.to_csv()
    assert text == "\n".join(expected) + "\n"
    assert ",-0.0," in text and ",0.0,3.0,-0.0," in text


def test_sign_changes_edge_cases():
    """NaN is never an excursion, and an error of exactly +/- threshold is not one."""
    nan = math.nan
    assert sign_changes_over_threshold(np.array([nan, 2.0, nan, -2.0, nan])) == 1
    assert sign_changes_over_threshold(np.array([1.0, -1.0, 1.0, -1.0])) == 0
    assert sign_changes_over_threshold(np.array([1.0, -1.0000000000000002, 1.0, 2.0])) == 1
    assert sign_changes_over_threshold(np.array([-0.5, 0.5, -0.5]), threshold=0.5) == 0
    assert sign_changes_over_threshold(np.array([0.0, -0.0, 0.1, -0.1]), threshold=0.0) == 1
    assert sign_changes_over_threshold(np.array([])) == 0
    assert sign_changes_over_threshold([]) == 0
    assert type(sign_changes_over_threshold(np.array([2.0, -2.0]))) is int
