"""Trajectory scoring: cross-track error series and the two comparison
statistics (max error, percent of path more than one meter off the line).

Error is measured to the infinite line of the active leg, signed positive
to starboard of the leg direction. The percent statistic is weighted by
arc length, not sample count, so a slow oscillating vehicle is not
over-counted.
"""

from __future__ import annotations

import csv
import io
import math
import os
from array import array
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .control import Waypoint
from .effects import ForceSample, _force_floats
from .geo import GeoPoint, distance, distance_bearing, enu_coords, point_coords, unit_enu, wrap_angle
from .vehicle import ActuatorCommand, AsvState, _check_state, _clamped

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


@dataclass(frozen=True)
class LogRecord:
    """One simulation step as written to the trajectory log."""

    t: float
    state: AsvState
    wp_index: int
    intermediate: Optional[Waypoint]
    force: ForceSample
    cmd: ActuatorCommand


# The columns of a TrajectoryLog, in the order of a log row: the record's
# time, the rest of the vehicle state, the active waypoint index, the
# intermediate target (a Waypoint or None), the recovered forces and the
# actuator command.
LOG_COLUMNS = (
    "t", "lat", "lon", "spd_t", "course_t", "h_t", "through_water_speed", "turn_rate",
    "wp_index", "intermediate", "spd_c", "dir_c", "spd_w", "dir_w", "thrust", "rudder",
)
# Columns that hold Python objects; every other column holds doubles.
_OBJECT_COLUMNS = ("wp_index", "intermediate")


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
        them."""
        log = cls()
        for name, column in zip(LOG_COLUMNS, zip(*rows)):
            setattr(log, name, list(column) if name in _OBJECT_COLUMNS else array("d", column))
        return log

    def append(self, record: LogRecord) -> None:
        if self.t and record.t <= self.t[-1]:
            raise ValueError("timestamps must be strictly increasing")
        if self.wp_index and record.wp_index < self.wp_index[-1]:
            raise ValueError("waypoint indices must be non-decreasing")
        s, force, cmd = record.state, record.force, record.cmd
        if s.t != record.t:
            raise ValueError(f"record time {record.t} differs from its state's time {s.t}")
        row = (record.t, s.pos.lat, s.pos.lon, s.spd_t, s.course_t, s.h_t, s.through_water_speed,
               s.turn_rate, record.wp_index, record.intermediate, force.spd_c, force.dir_c,
               force.spd_w, force.dir_w, cmd.thrust, cmd.rudder)
        for name, value in zip(LOG_COLUMNS, row):
            getattr(self, name).append(value)

    def __len__(self) -> int:
        return len(self.t)

    @property
    def records(self) -> tuple[LogRecord, ...]:
        """The log as LogRecords, built from the columns on each access."""
        return tuple(
            LogRecord(
                t=t,
                state=AsvState(GeoPoint(lat, lon), spd_t, course_t, h_t, tw, t, turn_rate),
                wp_index=wp_index,
                intermediate=intermediate,
                force=ForceSample(spd_c, dir_c, spd_w, dir_w),
                cmd=ActuatorCommand(thrust, rudder),
            )
            for (t, lat, lon, spd_t, course_t, h_t, tw, turn_rate, wp_index, intermediate,
                 spd_c, dir_c, spd_w, dir_w, thrust, rudder)
            in zip(*(getattr(self, name) for name in LOG_COLUMNS))
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(TRAJECTORY_HEADER + "\n")
        held, held_text = None, ",,"
        for (t, lat, lon, spd_t, h_t, wp_index, intermediate, spd_c, dir_c, spd_w, dir_w,
             thrust, rudder) in zip(self.t, self.lat, self.lon, self.spd_t, self.h_t,
                                    self.wp_index, self.intermediate, self.spd_c, self.dir_c,
                                    self.spd_w, self.dir_w, self.thrust, self.rudder):
            if intermediate is not held:  # a target is held for many rows
                held = intermediate
                held_text = ",," if intermediate is None else (
                    f"{float(intermediate.pos.lat)!r},{float(intermediate.pos.lon)!r},"
                    f"{float(intermediate.spd_target)!r}"
                )
            buf.write(f"{t!r},{lat!r},{lon!r},{spd_t!r},{h_t!r},{wp_index},{held_text},"
                      f"{spd_c!r},{dir_c!r},{spd_w!r},{dir_w!r},{thrust!r},{rudder!r}\n")
        return buf.getvalue()

    def write_csv(self, path: str | os.PathLike) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())

    @classmethod
    def from_csv(cls, path: str | os.PathLike) -> "TrajectoryLog":
        """Rebuild a log from its CSV, with the checks append makes.

        The CSV schema does not carry course, through-water speed or turn
        rate, so those state fields are reconstructed as zero; everything
        the scoring needs (time, position, waypoint index) survives the
        round trip.
        """
        rows = []
        last_t, last_wp = -math.inf, None
        held_text, held = ("", "", ""), None
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != TRAJECTORY_HEADER.split(","):
                raise ValueError(f"{path}: unexpected trajectory header {header}")
            for row in reader:
                if not row:
                    continue
                (t, lat, lon, spd_t, h_t, wp_index, int_lat, int_lon, int_spd,
                 spd_c, dir_c, spd_w, dir_w, thrust, rudder) = row
                if (int_lat, int_lon, int_spd) != held_text:
                    held_text = (int_lat, int_lon, int_spd)
                    held = None if not int_lat else Waypoint(
                        GeoPoint(float(int_lat), float(int_lon)), float(int_spd)
                    )
                t, spd_t, wp_index = float(t), float(spd_t), int(wp_index)
                lat, lon = point_coords(float(lat), float(lon))
                _check_state(spd_t, 0.0, t, 0.0)
                if not t > last_t:
                    raise ValueError("timestamps must be strictly increasing")
                if last_wp is not None and wp_index < last_wp:
                    raise ValueError("waypoint indices must be non-decreasing")
                last_t, last_wp = t, wp_index
                rows.append((
                    t, lat, lon, spd_t, 0.0, wrap_angle(float(h_t)), 0.0, 0.0, wp_index, held,
                    *_force_floats(float(spd_c), float(dir_c), float(spd_w), float(dir_w)),
                    *_clamped(float(thrust), float(rudder)),
                ))
        return cls.from_rows(rows)


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
    acceptance_radius: float = 2.0,
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
    for a, b in zip(mission, mission[1:]):
        if distance(a.pos, b.pos) == 0.0:
            raise ValueError(f"degenerate leg: coincident waypoints at ({a.pos.lat}, {a.pos.lon})")
    # (east, north) unit vector of each leg, once per leg
    leg_units = [unit_enu(distance_bearing(a.pos, b.pos)[1]) for a, b in zip(mission, mission[1:])]

    first = mission[0].pos
    start = None
    for i, (lat, lon) in enumerate(zip(log.lat, log.lon)):
        if math.hypot(*enu_coords(lat, lon, first.lat, first.lon)) <= 2.0 * acceptance_radius:
            start = i
            break
    if start is None:
        raise LegNotAcquiredError("vehicle never acquired the first leg; nothing to score")

    errors = []
    legs = []
    lats, lons = log.lat[start:], log.lon[start:]
    for lat, lon, wp_index in zip(lats, lons, log.wp_index[start:]):
        leg = min(max(wp_index, 1), len(mission) - 1)
        a = mission[leg - 1].pos
        east, north = enu_coords(a.lat, a.lon, lat, lon)
        ue, un = leg_units[leg - 1]
        # positive to starboard of the leg direction
        errors.append(east * un - north * ue)
        legs.append(leg)

    seg = np.array([math.hypot(*enu_coords(lat_p, lon_p, lat_q, lon_q))
                    for lat_p, lon_p, lat_q, lon_q in zip(lats, lons, lats[1:], lons[1:])],
                   dtype=float)
    n = len(errors)
    weights = np.zeros(n)
    if n > 1:
        weights[:-1] += 0.5 * seg
        weights[1:] += 0.5 * seg
    return CrossTrackSeries(
        errors=np.array(errors, dtype=float),
        weights=weights,
        leg_indices=np.array(legs, dtype=int),
        first_scored_record=start,
    )


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
        pct = 100.0 * float(np.sum(weights[np.abs(errors) > ERROR_THRESHOLD_M])) / total
    else:
        pct = 0.0
    return ErrorReport(label=label, max_error=max_error, pct_over_1m=pct)


def score_log(
    log: TrajectoryLog,
    mission: Sequence[Waypoint],
    acceptance_radius: float = 2.0,
    label: str = "",
) -> ErrorReport:
    """Aggregate report over every scored sample of a run."""
    series = cross_track_series(log, mission, acceptance_radius)
    return score(series.errors, series.weights, label=label)


def score_legs(
    log: TrajectoryLog,
    mission: Sequence[Waypoint],
    acceptance_radius: float = 2.0,
) -> list[ErrorReport]:
    """Per-leg reports for multi-leg missions."""
    series = cross_track_series(log, mission, acceptance_radius)
    reports = []
    for leg in sorted(set(series.leg_indices.tolist())):
        mask = series.leg_indices == leg
        reports.append(score(series.errors[mask], series.weights[mask], label=f"leg{leg}"))
    return reports


def sign_changes_over_threshold(errors: np.ndarray, threshold: float = ERROR_THRESHOLD_M) -> int:
    """Count sign flips between successive excursions beyond +/- threshold.

    This is the oscillation signature: each flip means the vehicle crossed
    the line and overshot it by more than the threshold on the other side.
    """
    signs = [1 if e > 0 else -1 for e in np.asarray(errors) if abs(e) > threshold]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def per_sample_error_csv(series: CrossTrackSeries, log: TrajectoryLog) -> str:
    """Per-sample error table for external plotting."""
    buf = io.StringIO()
    buf.write("t,lat,lon,leg,cross_track_m,arc_weight_m\n")
    start = series.first_scored_record
    for t, lat, lon, err, w, leg in zip(log.t[start:], log.lat[start:], log.lon[start:],
                                        series.errors, series.weights, series.leg_indices):
        buf.write(f"{t:.3f},{lat:.9f},{lon:.9f},{leg},{err:.6f},{w:.6f}\n")
    return buf.getvalue()


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
