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
from typing import Iterable, Optional, Sequence

import numpy as np

from .control import DEFAULT_ACCEPT_RADIUS, Waypoint, tracking_line
from .geo import GeoPoint, enu_columns

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

# The comparison table's rows: the ComparisonTable field, the report.csv
# name, the text label and format, and the controller and ErrorReport
# statistic shown.
TableRow = namedtuple("TableRow", "field csv_name label fmt controller statistic")
TABLE_ROWS = (
    TableRow("baseline_max", "baseline_max_error_m", "WP Navigator w/ PID: max error (m)",
             "{:.2f}", "baseline", "max_error"),
    TableRow("baseline_pct", "baseline_pct_over_1m", "WP Navigator w/ PID: % path > 1 m",
             "{:.1f}", "baseline", "pct_over_1m"),
    TableRow("augmented_max", "augmented_max_error_m", "Augmented WP Navigator: max error (m)",
             "{:.2f}", "augmented", "max_error"),
    TableRow("augmented_pct", "augmented_pct_over_1m", "Augmented WP Navigator: % path > 1 m",
             "{:.1f}", "augmented", "pct_over_1m"),
)

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

# The trajectory .npy's one record per log row: LOG_COLUMNS in order, the
# doubles as float64, wp_index as int64 and the intermediate target as its
# three numbers (all NaN when none is held), little-endian on every host.
_NPY_TARGET = ("int_lat", "int_lon", "int_spd")
TRAJECTORY_DTYPE = np.dtype([
    field
    for name in LOG_COLUMNS
    for field in ([(target, "<f8") for target in _NPY_TARGET] if name == "intermediate"
                  else [(name, "<i8" if name == "wp_index" else "<f8")])
])
_NO_TARGET = (math.nan, math.nan, math.nan)

# The trajectory CSV's columns: the record's fields but the three it does
# not carry, which read back as 0. A held target's three are its only
# fields that may be empty, all three together, for no target.
_CSV_COLUMNS = [name for name in TRAJECTORY_DTYPE.names
                if name not in ("course_t", "through_water_speed", "turn_rate")]
TRAJECTORY_HEADER = ",".join(_CSV_COLUMNS)
_CSV_TARGET = slice(_CSV_COLUMNS.index(_NPY_TARGET[0]), _CSV_COLUMNS.index(_NPY_TARGET[-1]) + 1)


class TrajectoryLog:
    """Ordered per-step log; timestamps strictly increase and waypoint
    indices never decrease.

    data is the log: one TRAJECTORY_DTYPE record per row, the array that
    trajectory.npy saves. Each LOG_COLUMNS name reads as a list built from
    it on each access (intermediate as a Waypoint or None per row), and
    records as a tuple of LogRecord.
    """

    __slots__ = ("data",)

    def __init__(self, data: Optional[np.ndarray] = None) -> None:
        self.data = np.empty(0, TRAJECTORY_DTYPE) if data is None else data

    def __getattr__(self, name: str) -> list:
        if name == "intermediate":
            return _held_targets(self.data)
        if name in LOG_COLUMNS:
            return self.data[name].tolist()
        raise AttributeError(name)

    @classmethod
    def from_rows(cls, rows: Sequence[tuple]) -> "TrajectoryLog":
        """Log of rows in LOG_COLUMNS order whose times strictly increase and
        whose waypoint indices never decrease, as a simulation loop makes
        them. TypeError unless every row has one value per column and each
        float column's value is a number."""
        try:
            columns = tuple(zip(*rows, strict=True))
        except ValueError:
            columns = None
        if rows and (columns is None or len(columns) != len(LOG_COLUMNS)):
            raise TypeError(f"every log row needs {len(LOG_COLUMNS)} values, one per column")
        data = np.empty(len(rows), TRAJECTORY_DTYPE)
        for name, column in zip(LOG_COLUMNS, columns):
            if name == "intermediate":
                # a target is held for many rows: one row of numbers per run of it
                starts, held_rows, held = [], [], _NO_TARGET
                for i, intermediate in enumerate(column):
                    if intermediate is not held:
                        held = intermediate
                        starts.append(i)
                        held_rows.append(_NO_TARGET if intermediate is None else (
                            float(intermediate.pos.lat), float(intermediate.pos.lon),
                            float(intermediate.spd_target)))
                held_rows = np.repeat(np.array(held_rows, dtype=np.float64),
                                      np.diff(starts + [len(rows)]), axis=0)
                for target, values in zip(_NPY_TARGET, held_rows.T):
                    data[target] = values
            elif name == "wp_index":
                data[name] = column
            else:
                data[name] = array("d", column)  # TypeError for a None, which numpy makes NaN
        return cls(data)

    def append(self, row: Sequence) -> None:
        """Add one row in LOG_COLUMNS order. Its time must exceed the last
        row's and its waypoint index must not be lower; TypeError unless
        it has one value per column. Copies the log's array."""
        row = LogRecord._make(row)
        if len(self) and row.t <= self.data["t"][-1]:
            raise ValueError("timestamps must be strictly increasing")
        if len(self) and row.wp_index < self.data["wp_index"][-1]:
            raise ValueError("waypoint indices must be non-decreasing")
        self.data = np.concatenate([self.data, self.from_rows([row]).data])

    def __len__(self) -> int:
        return len(self.data)

    @property
    def records(self) -> tuple[LogRecord, ...]:
        """The log as rows, built from data on each access."""
        return tuple(map(LogRecord._make, zip(*(getattr(self, name) for name in LOG_COLUMNS))))

    def to_csv(self) -> str:
        """The log as CSV text: TRAJECTORY_HEADER, then each record's
        _CSV_COLUMNS as the repr of each value, a held target's three empty
        when none is held."""
        columns = [_repr_column(self.data[name], name in _NPY_TARGET) for name in _CSV_COLUMNS]
        return "\n".join([TRAJECTORY_HEADER, *map(",".join, zip(*columns)), ""])

    def write_csv(self, path: str | os.PathLike) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())

    def write_npy(self, path: str | os.PathLike) -> None:
        """Write data as .npy, every column to the bit: the CSV's and the
        three it lacks."""
        with open(path, "wb") as fh:
            np.save(fh, self.data, allow_pickle=False)

    @classmethod
    def from_npy(cls, path: str | os.PathLike) -> "TrajectoryLog":
        """Rebuild a log from the .npy file write_npy wrote, every column
        to the bit. A file that holds anything but a 1-D array of
        TRAJECTORY_DTYPE, or whose records break a rule (_checked), raises
        ValueError naming the path (and the row, from 0, of the first
        offending one)."""
        with open(path, "rb") as fh:
            try:
                data = np.load(fh, allow_pickle=False)
            except (ValueError, EOFError) as exc:
                raise ValueError(f"{path}: not a trajectory .npy file: {exc}") from None
        if not isinstance(data, np.ndarray) or data.dtype != TRAJECTORY_DTYPE or data.ndim != 1:
            got = (f"shape {data.shape} of dtype {data.dtype}" if isinstance(data, np.ndarray)
                   else type(data).__name__)
            raise ValueError(f"{path}: expected a 1-D array of metrics.TRAJECTORY_DTYPE, got {got}")
        try:
            return cls(_checked(data))
        except _RowError as exc:
            raise ValueError(f"{path}: row {exc.row}: {exc}") from None

    @classmethod
    def from_csv(cls, path: str | os.PathLike) -> "TrajectoryLog":
        """Rebuild a log from its CSV: each non-blank line after the header
        read into one record (_csv_record), the records checked by
        _checked as from_npy's. The columns the CSV does not carry
        (course, through-water speed, turn rate) are zero. A rejection
        raises ValueError naming the path and a file line: the first line
        that does not read as a record, else the first offending row of the
        first rule the records break."""
        records, lines = [], []  # each record and its file line
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split(",")
            if header != _CSV_COLUMNS:
                raise ValueError(f"{path}: line 1: unexpected trajectory header {header}")
            for n, line in enumerate(fh, start=2):
                if line.strip():
                    try:
                        records.append(_csv_record(line.rstrip("\n")))
                    except ValueError as exc:
                        raise ValueError(f"{path}: line {n}: {exc}") from None
                    lines.append(n)
        data = np.zeros(len(records), TRAJECTORY_DTYPE)
        data[_CSV_COLUMNS] = records
        try:
            return cls(_checked(data))
        except _RowError as exc:
            raise ValueError(f"{path}: line {lines[exc.row]}: {exc}") from None


class _RowError(ValueError):
    """A rejected trajectory row; row counts the records (a CSV's non-blank
    lines after the header) from 0."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def _check_rows(ok: np.ndarray, message: str, offset: int = 0) -> None:
    """_RowError(offset + the first row where ok is False, message)."""
    if not ok.all():
        raise _RowError(offset + int(np.argmin(ok)), message)


def _wp_index(text: str) -> int:
    """A CSV wp_index field by int; ValueError unless it fits an int64."""
    value = int(text)
    if not -2**63 <= value < 2**63:
        raise ValueError(f"wp_index {value} outside int64")
    return value


_CSV_READERS = [_wp_index if name == "wp_index" else float for name in _CSV_COLUMNS]


def _csv_record(line: str) -> tuple:
    """The values of one trajectory CSV line, a record's _CSV_COLUMNS,
    unchecked: each field by its _CSV_READERS, and a held target's three
    empty fields as three NaN. Raises ValueError for a line of the wrong
    width, a field that does not read, and a held target with a literal
    NaN, by the Waypoint or GeoPoint rule it breaks (as a record it would
    read as no target)."""
    fields = line.split(",")
    if len(fields) != len(_CSV_COLUMNS):
        raise ValueError(f"expected {len(_CSV_COLUMNS)} fields, got {len(fields)}")
    held = fields[_CSV_TARGET] != ["", "", ""]
    if not held:
        fields[_CSV_TARGET] = ["nan"] * 3
    record = tuple([read(text) for read, text in zip(_CSV_READERS, fields)])
    if held and any(map(math.isnan, record[_CSV_TARGET])):
        int_lat, int_lon, int_spd = record[_CSV_TARGET]
        Waypoint(GeoPoint(int_lat, int_lon), int_spd)  # raises the rule a literal nan breaks
    return record


def _checked(c: np.ndarray) -> np.ndarray:
    """A copy of the TRAJECTORY_DTYPE records c of a log read from a file,
    checked by the rules the simulation keeps and normalised as it makes
    its values: coordinates as GeoPoint (finite, latitude in [-90, 90],
    longitude wrapped), the state as vehicle._check_state (speeds >= 0,
    speeds, time and turn rate finite), times that strictly increase,
    waypoint indices that never decrease, force speeds finite and >= 0,
    angles wrapped as wrap_angle does, thrust and rudder clamped as
    vehicle._clamped does, and each held target a Waypoint (_held_targets)
    with its longitude wrapped. Raises _RowError at the first offending row
    of the first rule broken."""
    spd_t, tw, t = c["spd_t"], c["through_water_speed"], c["t"]
    data = c.copy()
    data["lon"] = _point_lons(c["lat"], c["lon"])
    _check_rows(~((spd_t < 0.0) | (tw < 0.0)), "speeds must be >= 0")
    _check_rows(np.isfinite(spd_t) & np.isfinite(tw) & np.isfinite(t)
                & np.isfinite(c["turn_rate"]), "non-finite state component")
    _check_rows(np.diff(t) > 0.0, "timestamps must be strictly increasing", offset=1)
    _check_rows(np.diff(c["wp_index"]) >= 0, "waypoint indices must be non-decreasing", offset=1)
    for name in ("spd_c", "spd_w"):
        _check_rows((c[name] >= 0.0) & np.isfinite(c[name]), f"{name} must be finite and >= 0")
    for name in ("course_t", "h_t", "dir_c", "dir_w"):
        data[name] = _wrapped(c[name])
    data["thrust"] = _clamped_column(c["thrust"], 0.0, 1.0)
    data["rudder"] = _clamped_column(c["rudder"], -1.0, 1.0)
    _held_targets(c)
    held = ~np.isnan(c["int_lat"])
    data["int_lon"][held] = _point_lons(c["int_lat"][held], c["int_lon"][held])
    for name in _NPY_TARGET:
        data[name][~held] = math.nan  # no target: the three NaN from_rows writes
    return data


def _held_targets(data: np.ndarray) -> list:
    """The intermediate column of a log from its records' int_lat, int_lon
    and int_spd: None for a row of three NaN, else the Waypoint of the
    three numbers, built once per run of bit-equal rows. Raises _RowError
    for a row that mixes NaN and numbers and for a target Waypoint or
    GeoPoint rejects."""
    rows = np.stack([data[name] for name in _NPY_TARGET], axis=1)
    none = np.isnan(rows)
    _check_rows((none == none[:, :1]).all(axis=1), "a held target is three numbers or three NaN")
    if not len(rows):
        return []
    bits = rows.view(np.int64)
    starts = [0, *(np.flatnonzero((bits[1:] != bits[:-1]).any(axis=1)) + 1).tolist()]
    intermediate = []
    for start, end in zip(starts, starts[1:] + [len(rows)]):
        int_lat, int_lon, int_spd = rows[start].tolist()
        try:
            held = None if math.isnan(int_lat) else Waypoint(GeoPoint(int_lat, int_lon), int_spd)
        except ValueError as exc:
            raise _RowError(start, str(exc)) from None
        intermediate += [held] * (end - start)
    return intermediate


def _repr_column(column: np.ndarray, blank_nan: bool) -> Iterable[str]:
    """The repr of each value of a float64 or int64 column, "" for NaN when
    blank_nan. Where values repeat, each distinct bit pattern is formatted
    once (so -0.0 and 0.0 stay apart); a column of mostly distinct values
    and no NaN to blank is formatted value by value as it is read, so its
    texts are not kept."""
    distinct, inverse = np.unique(column.view(np.int64), return_inverse=True)
    if not blank_nan and 2 * len(distinct) > len(column):
        return map(repr, column.tolist())
    texts = ["" if blank_nan and v != v else repr(v) for v in distinct.view(column.dtype).tolist()]
    return np.array(texts, dtype=object)[inverse].tolist()


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


def _leg_lines(mission: Sequence[Waypoint]) -> list:
    """Each leg of mission (each pair of consecutive waypoints) as the
    navigator's tracking line: start point, length and (east, north) unit
    vector. ValueError naming both waypoints of a degenerate leg, one of
    length 0."""
    lines = [tracking_line(a.pos.lat, a.pos.lon, b.pos) for a, b in zip(mission, mission[1:])]
    for i, (lat, lon, leg_len, _, _) in enumerate(lines):
        if leg_len == 0.0:
            raise ValueError(f"degenerate leg: coincident waypoints {i} and {i + 1} "
                             f"at ({lat}, {lon})")
    return lines


class LegNotAcquiredError(ValueError):
    """The run has no path to score: its mission has no leg, or no logged
    sample comes near the start of the first leg (an empty log included)."""


def cross_track_series(
    log: TrajectoryLog,
    mission: Sequence[Waypoint],
    acceptance_radius: float = DEFAULT_ACCEPT_RADIUS,
) -> CrossTrackSeries:
    """Signed per-sample distance to the active leg's infinite line.

    Samples before the vehicle first comes within twice the acceptance
    radius of the leg start are excluded: simulated runs begin near but
    not on the line, and that initial approach is not part of the scored
    path. Raises LegNotAcquiredError when there is none to score, and
    ValueError for a degenerate leg.
    """
    if len(mission) < 2:
        raise LegNotAcquiredError("need at least two waypoints to define a leg")
    leg_table = np.array([(lat, lon, ue, un) for lat, lon, _, ue, un in _leg_lines(mission)])
    if not len(log):
        raise LegNotAcquiredError("trajectory log is empty")
    lats, lons = log.data["lat"], log.data["lon"]

    first = mission[0].pos
    near = _hypot(*enu_columns(lats, lons, first.lat, first.lon)) <= 2.0 * acceptance_radius
    if not near.any():
        raise LegNotAcquiredError("vehicle never acquired the first leg; nothing to score")
    start = int(np.argmax(near))

    lats, lons = lats[start:], lons[start:]
    legs = np.clip(log.data["wp_index"][start:], 1, len(mission) - 1)
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


def sign_changes_over_threshold(errors: np.ndarray, threshold: float = ERROR_THRESHOLD_M) -> int:
    """Count sign flips between successive excursions beyond +/- threshold.

    This is the oscillation signature: each flip means the vehicle crossed
    the line and overshot it by more than the threshold on the other side.
    """
    errors = np.asarray(errors, dtype=np.float64)
    positive = errors[np.abs(errors) > threshold] > 0.0  # NaN is never an excursion
    return int(np.count_nonzero(positive[1:] != positive[:-1]))


def score_run(
    log: TrajectoryLog,
    mission: Sequence[Waypoint],
    acceptance_radius: float = DEFAULT_ACCEPT_RADIUS,
    label: str = "",
) -> tuple[Optional[CrossTrackSeries], Optional[ErrorReport], int]:
    """The scoring of a run: its cross-track series, the report over every
    scored sample, and the sign changes beyond ERROR_THRESHOLD_M. A run
    with no path to score, one whose mission has fewer than two waypoints
    or whose log never acquires the first leg (an empty log included),
    scores as (None, None, 0). Raises ValueError for a degenerate leg."""
    try:
        series = cross_track_series(log, mission, acceptance_radius)
    except LegNotAcquiredError:
        return None, None, 0
    report = score(series.errors, series.weights, label=label)
    return series, report, sign_changes_over_threshold(series.errors)


def per_sample_error_csv(series: CrossTrackSeries, log: TrajectoryLog) -> str:
    """Per-sample error table for external plotting."""
    scored = log.data[series.first_scored_record:]
    rows = zip(scored["t"].tolist(), scored["lat"].tolist(), scored["lon"].tolist(),
               series.leg_indices.tolist(), series.errors.tolist(), series.weights.tolist())
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
        label_w = max(len(row.label) for row in TABLE_ROWS) + 2
        width = max(len(c) for c in self.columns) + 2
        lines = ["Trajectory relative to current".rjust(label_w + width)]
        lines.append(" " * label_w + "".join(c.rjust(width) for c in self.columns))
        for row in TABLE_ROWS:
            lines.append(row.label.ljust(label_w) + "".join(
                row.fmt.format(v).rjust(width) for v in getattr(self, row.field)))
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("metric," + ",".join(self.columns) + "\n")
        for row in TABLE_ROWS:
            buf.write(row.csv_name + ","
                      + ",".join(repr(float(v)) for v in getattr(self, row.field)) + "\n")
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
    by_controller = {"baseline": baseline, "augmented": augmented}
    missing = [
        f"{name}:{o}"
        for name, reports in by_controller.items()
        for o in SUITE_ORIENTATIONS
        if o not in reports
    ]
    if missing:
        raise ValueError(f"missing orientation runs: {missing}")
    return ComparisonTable(
        columns=tuple(name for name, _ in TABLE_COLUMNS),
        **{row.field: tuple(_column_value(by_controller[row.controller], o, row.statistic)
                            for _, o in TABLE_COLUMNS)
           for row in TABLE_ROWS},
    )
