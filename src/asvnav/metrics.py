"""Trajectory scoring: cross-track error series and the two comparison
statistics (max error, percent of path more than one meter off the line).

Error is measured to the infinite line of the active leg, signed positive
to starboard of the leg direction. The percent statistic is weighted by
arc length, not sample count, so a slow oscillating vehicle is not
over-counted.
"""

from __future__ import annotations

import io
import math
import os
from array import array
from collections import namedtuple
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .control import DEFAULT_ACCEPT_RADIUS, Waypoint, tracking_line
from .geo import GeoPoint, enu_columns

TRAJECTORY_HEADER = (
    "t,lat,lon,spd_t,h_t,wp_index,int_lat,int_lon,int_spd,"
    "spd_c,dir_c,spd_w,dir_w,thrust,rudder"
)

ERROR_THRESHOLD_M = 1.0

# Table column labels, each mapped to the leg orientation(s) relative to
# the current axis that feed it. The two perpendicular traversals are
# averaged, matching how paired river trials are reported.
TABLE_COLUMNS: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("Perpendicular", (90, 270)),
    ("Parallel With", (0,)),
    ("Parallel Against", (180,)),
    ("L-R Diagonal With", (45,)),
    ("L-R Diagonal Against", (225,)),
    ("R-L Diagonal With", (315,)),
    ("R-L Diagonal Against", (135,)),
)

SUITE_ORIENTATIONS = (0, 45, 90, 135, 180, 225, 270, 315)

# The columns of a TrajectoryLog, in the order of a log row: the row's
# time, the rest of the vehicle state (vehicle.StateFloats, the position as
# lat and lon), the active waypoint index, the intermediate target (a
# Waypoint or None), the recovered forces and the actuator command.
LOG_COLUMNS = (
    "t", "lat", "lon", "spd_t", "course_t", "h_t", "through_water_speed", "turn_rate",
    "wp_index", "intermediate", "spd_c", "dir_c", "spd_w", "dir_w", "thrust", "rudder",
)
# One log row with its fields named: what from_rows and append take and
# records returns.
LogRecord = namedtuple("LogRecord", LOG_COLUMNS)
# Columns that hold Python objects; every other column holds doubles.
_OBJECT_COLUMNS = ("wp_index", "intermediate")

# The trajectory CSV's columns; from_csv reads the float ones with one
# np.loadtxt and wp_index and the intermediate target's three in a Python pass.
_CSV_COLUMNS = TRAJECTORY_HEADER.split(",")
_CSV_WP = _CSV_COLUMNS.index("wp_index")
_CSV_INT_END = _CSV_COLUMNS.index("int_spd") + 1
_CSV_FLOAT_INDEX = tuple(i for i in range(len(_CSV_COLUMNS)) if not _CSV_WP <= i < _CSV_INT_END)


class TrajectoryLog:
    """Ordered per-step log, stored as one column per name in LOG_COLUMNS;
    timestamps strictly increase and waypoint indices never decrease.

    The columns are the log. records is a LogRecord view of them, built
    on each access and not kept.
    """

    __slots__ = LOG_COLUMNS

    def __init__(self) -> None:
        for name in LOG_COLUMNS:
            setattr(self, name, [] if name in _OBJECT_COLUMNS else array("d"))

    @classmethod
    def from_rows(cls, rows: Sequence[tuple]) -> "TrajectoryLog":
        """Log of rows in LOG_COLUMNS order whose times strictly increase and
        whose waypoint indices never decrease, as a simulation loop makes
        them. TypeError unless every row has one value per column."""
        try:
            columns = tuple(zip(*rows, strict=True))
        except ValueError:
            columns = None
        if rows and (columns is None or len(columns) != len(LOG_COLUMNS)):
            raise TypeError(f"every log row needs {len(LOG_COLUMNS)} values, one per column")
        log = cls()
        for name, column in zip(LOG_COLUMNS, columns):
            setattr(log, name, list(column) if name in _OBJECT_COLUMNS else array("d", column))
        return log

    def append(self, row: Sequence) -> None:
        """Add one row in LOG_COLUMNS order. Its time must exceed the last
        row's and its waypoint index must not be lower; TypeError unless
        it has one value per column."""
        row = LogRecord._make(row)
        if self.t and row.t <= self.t[-1]:
            raise ValueError("timestamps must be strictly increasing")
        if self.wp_index and row.wp_index < self.wp_index[-1]:
            raise ValueError("waypoint indices must be non-decreasing")
        for name, value in zip(LOG_COLUMNS, row):
            getattr(self, name).append(value)

    def __len__(self) -> int:
        return len(self.t)

    @property
    def records(self) -> tuple[LogRecord, ...]:
        """The log as rows, built from the columns on each access."""
        return tuple(map(LogRecord._make, zip(*(getattr(self, name) for name in LOG_COLUMNS))))

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(TRAJECTORY_HEADER + "\n")
        held, held_text = None, ",,"
        # the recovered forces take few distinct values, so their text is ready-made
        forces = zip(*(_repr_column(getattr(self, name))
                       for name in ("spd_c", "dir_c", "spd_w", "dir_w")))
        for (t, lat, lon, spd_t, h_t, wp_index, intermediate, (spd_c, dir_c, spd_w, dir_w),
             thrust, rudder) in zip(self.t, self.lat, self.lon, self.spd_t, self.h_t,
                                    self.wp_index, self.intermediate, forces, self.thrust,
                                    self.rudder):
            if intermediate is not held:  # a target is held for many rows
                held = intermediate
                held_text = ",," if intermediate is None else (
                    f"{float(intermediate.pos.lat)!r},{float(intermediate.pos.lon)!r},"
                    f"{float(intermediate.spd_target)!r}"
                )
            buf.write(f"{t!r},{lat!r},{lon!r},{spd_t!r},{h_t!r},{wp_index},{held_text},"
                      f"{spd_c},{dir_c},{spd_w},{dir_w},{thrust!r},{rudder!r}\n")
        return buf.getvalue()

    def write_csv(self, path: str | os.PathLike) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())

    @classmethod
    def from_csv(cls, path: str | os.PathLike) -> "TrajectoryLog":
        """Rebuild a log from its CSV, checked and normalised column by
        column as the simulation makes its values: coordinates as GeoPoint
        (finite, latitude in [-90, 90], longitude wrapped), ground speed
        and force speeds finite and >= 0, finite times that strictly
        increase, waypoint indices that never decrease, angles wrapped as
        wrap_angle does, thrust and rudder clamped as vehicle._clamped does.

        The CSV schema does not carry course, through-water speed or turn
        rate, so those columns are zero; everything the scoring needs
        (time, position, waypoint index) survives the round trip. Blank
        and whitespace-only lines are skipped. A rejection raises
        ValueError naming the path and the file line of the first offending
        row.
        """
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split(",")
            if header != _CSV_COLUMNS:
                raise ValueError(f"{path}: line 1: unexpected trajectory header {header}")
            text = fh.read()
        # (file line, text) of each row: the header is line 1, and blank or
        # whitespace-only lines count in the file but hold no row
        rows = [(n, line) for n, line in enumerate(text.split("\n"), start=2) if line.strip()]
        lines = [line for _, line in rows]
        log = cls()
        if not lines:
            return log
        width = len(_CSV_COLUMNS)
        try:
            if text.count(",") != (width - 1) * len(lines):
                row = next(i for i, line in enumerate(lines) if line.count(",") != width - 1)
                raise _RowError(row, f"expected {width} fields, got {lines[row].count(',') + 1}")
            columns, log.wp_index, log.intermediate = _trajectory_columns(lines)
        except _RowError as exc:
            raise ValueError(f"{path}: line {rows[exc.row][0]}: {exc}") from None
        for name, column in columns.items():
            setattr(log, name, array("d", column.tobytes()))
        return log


class _RowError(ValueError):
    """A rejected trajectory CSV row; row counts the non-blank lines after
    the header from 0."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def _check_rows(ok: np.ndarray, message: str, offset: int = 0) -> None:
    """_RowError(offset + the first row where ok is False, message)."""
    if not ok.all():
        raise _RowError(offset + int(np.argmin(ok)), message)


def _parses(line: str, usecols: Sequence[int]) -> bool:
    """Whether np.loadtxt reads the usecols fields of line as numbers."""
    try:
        np.loadtxt([line], delimiter=",", comments=None, usecols=usecols)
    except ValueError:
        return False
    return True


def _trajectory_columns(lines: list[str]) -> tuple[dict[str, np.ndarray], list, list]:
    """The float columns of a log (LOG_COLUMNS but wp_index and
    intermediate), then the wp_index and intermediate lists, of the
    non-blank trajectory CSV lines after the header. Raises _RowError."""
    # np.loadtxt rejects a row short of the last float column, so with
    # from_csv's comma count every row has exactly len(_CSV_COLUMNS) fields
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, usecols=_CSV_FLOAT_INDEX)
    except ValueError:
        # numpy's message names no file line, so find the first bad row and cell alone
        row = next(i for i, line in enumerate(lines) if not _parses(line, _CSV_FLOAT_INDEX))
        column = next(j for j in _CSV_FLOAT_INDEX if not _parses(lines[row], (j,)))
        raise _RowError(row, f"{_CSV_COLUMNS[column]} is not a number in {lines[row]!r}") from None
    t, lat, lon, spd_t, h_t, spd_c, dir_c, spd_w, dir_w, thrust, rudder = data.T

    wp_index, intermediate = [], []
    held_text, held = ["", "", ""], None
    try:
        for fields in (line.split(",", _CSV_INT_END) for line in lines):
            wp_index.append(int(fields[_CSV_WP]))
            if fields[_CSV_WP + 1:_CSV_INT_END] != held_text:  # a target is held for many rows
                held_text = fields[_CSV_WP + 1:_CSV_INT_END]
                int_lat, int_lon, int_spd = held_text
                held = None if not int_lat else Waypoint(
                    GeoPoint(float(int_lat), float(int_lon)), float(int_spd)
                )
            intermediate.append(held)
    except ValueError as exc:
        raise _RowError(len(intermediate), str(exc)) from None  # each row appends its target last

    lon = _point_lons(lat, lon)
    _check_rows(~(spd_t < 0.0), "speeds must be >= 0")
    _check_rows(np.isfinite(spd_t) & np.isfinite(t), "non-finite state component")
    _check_rows(np.diff(t) > 0.0, "timestamps must be strictly increasing", offset=1)
    if wp_index != sorted(wp_index):  # the row search runs on the error path only
        _check_rows(np.diff(wp_index) >= 0, "waypoint indices must be non-decreasing", offset=1)
    for name, speed in (("spd_c", spd_c), ("spd_w", spd_w)):
        _check_rows((speed >= 0.0) & np.isfinite(speed), f"{name} must be finite and >= 0")
    zeros = np.zeros(len(lines))
    columns = {
        "t": t, "lat": lat, "lon": lon, "spd_t": spd_t, "course_t": zeros, "h_t": _wrapped(h_t),
        "through_water_speed": zeros, "turn_rate": zeros, "spd_c": spd_c,
        "dir_c": _wrapped(dir_c), "spd_w": spd_w, "dir_w": _wrapped(dir_w),
        "thrust": _clamped_column(thrust, 0.0, 1.0),
        "rudder": _clamped_column(rudder, -1.0, 1.0),
    }
    return columns, wp_index, intermediate


def _repr_column(column) -> list[str]:
    """repr of each value of a float column, each distinct bit pattern
    formatted once (so -0.0 and 0.0 stay apart)."""
    bits = np.asarray(column, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    return texts[inverse].tolist()


def _point_lons(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """geo.point_coords on columns: _RowError unless every coordinate is
    finite and every latitude in [-90, 90]; the longitudes wrapped to
    [-180, 180) to the same bits."""
    finite = np.isfinite(lat) & np.isfinite(lon)
    if not finite.all():
        i = int(np.argmin(finite))
        raise _RowError(i, f"non-finite coordinates ({float(lat[i])}, {float(lon[i])})")
    inside = (lat >= -90.0) & (lat <= 90.0)
    if not inside.all():
        i = int(np.argmin(inside))
        raise _RowError(i, f"latitude {float(lat[i])} outside [-90, 90]")
    lon = np.remainder(lon + 180.0, 360.0) - 180.0
    lon[lon == 180.0] = -180.0
    return lon


def _wrapped(theta: np.ndarray) -> np.ndarray:
    """geo.wrap_angle on a column: _RowError on a non-finite angle, else
    every angle wrapped into [0, 360) to the same bits."""
    finite = np.isfinite(theta)
    if not finite.all():
        i = int(np.argmin(finite))
        raise _RowError(i, f"angle must be finite, got {float(theta[i])!r}")
    wrapped = np.remainder(theta, 360.0)
    wrapped[wrapped == 360.0] = 0.0
    return wrapped


def _clamped_column(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """vehicle._clamped's min(hi, max(lo, x)) on a column, to the same bits
    (-0.0 clamps to lo = 0.0); a non-finite value passes through unclamped."""
    return np.where(np.isfinite(x), np.where(x > lo, np.where(x < hi, x, hi), lo), x)


@dataclass(frozen=True)
class ErrorReport:
    """The two trajectory statistics for one scored scope."""

    label: str
    max_error: float
    pct_over_1m: float

    def __post_init__(self):
        if self.max_error < 0.0 or not 0.0 <= self.pct_over_1m <= 100.0:
            raise ValueError("max_error must be >= 0 and pct_over_1m within [0, 100]")


@dataclass(frozen=True)
class CrossTrackSeries:
    """Signed cross-track errors with their arc-length weights.

    errors[i] is positive when the vehicle sits to starboard of the leg
    direction. weights[i] is half the arc length of the segments adjacent
    to sample i, so weighted sums integrate along the path.
    """

    errors: np.ndarray
    weights: np.ndarray
    leg_indices: np.ndarray
    first_scored_record: int


class LegNotAcquiredError(ValueError):
    """No logged sample comes near the start of the first leg (an empty
    log included), so the run has no path to score."""


def cross_track_series(
    log: TrajectoryLog,
    mission: Sequence[Waypoint],
    acceptance_radius: float = DEFAULT_ACCEPT_RADIUS,
) -> CrossTrackSeries:
    """Signed per-sample distance to the active leg's infinite line.

    Samples before the vehicle first comes within twice the acceptance
    radius of the leg start are excluded: simulated runs begin near but
    not on the line, and that initial approach is not part of the scored
    path.
    """
    if not len(log):
        raise LegNotAcquiredError("trajectory log is empty")
    if len(mission) < 2:
        raise ValueError("need at least two waypoints to define a leg")
    # each leg as the navigator's tracking line: start point, length and
    # (east, north) unit vector, once per leg
    lines = [tracking_line(a.pos, b.pos) for a, b in zip(mission, mission[1:])]
    for anchor, leg_len, _, _ in lines:
        if leg_len == 0.0:
            raise ValueError(f"degenerate leg: coincident waypoints at ({anchor.lat}, {anchor.lon})")
    leg_table = np.array([(anchor.lat, anchor.lon, ue, un) for anchor, _, ue, un in lines])
    lats = np.asarray(log.lat, dtype=np.float64)
    lons = np.asarray(log.lon, dtype=np.float64)

    first = mission[0].pos
    near = _hypot(*enu_columns(lats, lons, first.lat, first.lon)) <= 2.0 * acceptance_radius
    if not near.any():
        raise LegNotAcquiredError("vehicle never acquired the first leg; nothing to score")
    start = int(np.argmax(near))

    lats, lons = lats[start:], lons[start:]
    legs = np.clip(np.asarray(log.wp_index[start:], dtype=np.int64), 1, len(mission) - 1)
    a_lat, a_lon, ue, un = leg_table[legs - 1].T
    east, north = enu_columns(a_lat, a_lon, lats, lons)
    # positive to starboard of the leg direction
    errors = east * un - north * ue

    seg = _hypot(*enu_columns(lats[:-1], lons[:-1], lats[1:], lons[1:]))
    weights = np.zeros(len(errors))
    weights[:-1] += 0.5 * seg
    weights[1:] += 0.5 * seg
    return CrossTrackSeries(
        errors=errors,
        weights=weights,
        leg_indices=legs,
        first_scored_record=start,
    )


def _hypot(east: np.ndarray, north: np.ndarray) -> np.ndarray:
    """math.hypot of each (east, north) pair; np.hypot need not round like
    it on every host."""
    return np.fromiter(map(math.hypot, east.tolist(), north.tolist()), np.float64, east.size)


def score(errors: np.ndarray, weights: np.ndarray, label: str = "") -> ErrorReport:
    """Reduce an error series to (max_error, pct_over_1m).

    pct_over_1m is the share of path arc length spent more than one meter
    from the line.
    """
    errors = np.asarray(errors, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if errors.size == 0:
        raise ValueError("error series is empty")
    if errors.shape != weights.shape:
        raise ValueError("errors and weights must have matching shapes")
    max_error = float(np.max(np.abs(errors)))
    total = float(np.sum(weights))
    if total > 0.0:
        over = float(np.sum(weights[np.abs(errors) > ERROR_THRESHOLD_M]))
        # over == total can round 100.0 * over / total to just above 100
        pct = min(100.0, 100.0 * over / total)
    else:
        pct = 0.0
    return ErrorReport(label=label, max_error=max_error, pct_over_1m=pct)


def score_log(
    log: TrajectoryLog,
    mission: Sequence[Waypoint],
    acceptance_radius: float = DEFAULT_ACCEPT_RADIUS,
    label: str = "",
) -> ErrorReport:
    """Aggregate report over every scored sample of a run."""
    series = cross_track_series(log, mission, acceptance_radius)
    return score(series.errors, series.weights, label=label)


def sign_changes_over_threshold(errors: np.ndarray, threshold: float = ERROR_THRESHOLD_M) -> int:
    """Count sign flips between successive excursions beyond +/- threshold.

    This is the oscillation signature: each flip means the vehicle crossed
    the line and overshot it by more than the threshold on the other side.
    """
    errors = np.asarray(errors, dtype=np.float64)
    positive = errors[np.abs(errors) > threshold] > 0.0  # NaN is never an excursion
    return int(np.count_nonzero(positive[1:] != positive[:-1]))


def per_sample_error_csv(series: CrossTrackSeries, log: TrajectoryLog) -> str:
    """Per-sample error table for external plotting."""
    start = series.first_scored_record
    rows = zip(log.t[start:], log.lat[start:], log.lon[start:], series.leg_indices.tolist(),
               series.errors.tolist(), series.weights.tolist())
    return "t,lat,lon,leg,cross_track_m,arc_weight_m\n" + "".join(
        ["%.3f,%.9f,%.9f,%d,%.6f,%.6f\n" % row for row in rows]
    )


@dataclass(frozen=True)
class ComparisonTable:
    """Paired baseline/augmented statistics in the seven-column layout."""

    columns: tuple[str, ...]
    baseline_max: tuple[float, ...]
    baseline_pct: tuple[float, ...]
    augmented_max: tuple[float, ...]
    augmented_pct: tuple[float, ...]

    def to_text(self) -> str:
        rows = (
            ("WP Navigator w/ PID: max error (m)", self.baseline_max, "{:.2f}"),
            ("WP Navigator w/ PID: % path > 1 m", self.baseline_pct, "{:.1f}"),
            ("Augmented WP Navigator: max error (m)", self.augmented_max, "{:.2f}"),
            ("Augmented WP Navigator: % path > 1 m", self.augmented_pct, "{:.1f}"),
        )
        label_w = max(len(label) for label, _, _ in rows) + 2
        width = max(len(c) for c in self.columns) + 2
        lines = ["Trajectory relative to current".rjust(label_w + width)]
        lines.append(" " * label_w + "".join(c.rjust(width) for c in self.columns))
        for label, values, fmt in rows:
            lines.append(label.ljust(label_w) + "".join(fmt.format(v).rjust(width) for v in values))
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("metric," + ",".join(self.columns) + "\n")
        for name, values in (
            ("baseline_max_error_m", self.baseline_max),
            ("baseline_pct_over_1m", self.baseline_pct),
            ("augmented_max_error_m", self.augmented_max),
            ("augmented_pct_over_1m", self.augmented_pct),
        ):
            buf.write(name + "," + ",".join(repr(float(v)) for v in values) + "\n")
        return buf.getvalue()


def _column_value(reports: dict[int, ErrorReport], orients: tuple[int, ...], attr: str) -> float:
    return sum(getattr(reports[o], attr) for o in orients) / len(orients)


def table_report(
    baseline: dict[int, ErrorReport],
    augmented: dict[int, ErrorReport],
) -> ComparisonTable:
    """Assemble the comparison table from per-orientation reports.

    Both inputs must cover all eight orientations; the perpendicular pair
    is averaged into one column.
    """
    missing = [
        f"{name}:{o}"
        for name, reports in (("baseline", baseline), ("augmented", augmented))
        for o in SUITE_ORIENTATIONS
        if o not in reports
    ]
    if missing:
        raise ValueError(f"missing orientation runs: {missing}")
    columns = tuple(name for name, _ in TABLE_COLUMNS)
    return ComparisonTable(
        columns=columns,
        baseline_max=tuple(_column_value(baseline, o, "max_error") for _, o in TABLE_COLUMNS),
        baseline_pct=tuple(_column_value(baseline, o, "pct_over_1m") for _, o in TABLE_COLUMNS),
        augmented_max=tuple(_column_value(augmented, o, "max_error") for _, o in TABLE_COLUMNS),
        augmented_pct=tuple(_column_value(augmented, o, "pct_over_1m") for _, o in TABLE_COLUMNS),
    )
