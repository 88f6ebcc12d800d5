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
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .control import Waypoint
from .effects import ForceSample
from .geo import GeoPoint, distance, distance_bearing, enu_offset, unit_enu
from .vehicle import ActuatorCommand, AsvState

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


@dataclass
class TrajectoryLog:
    """Ordered per-step records; timestamps strictly increase."""

    records: list[LogRecord] = field(default_factory=list)

    def append(self, record: LogRecord) -> None:
        if self.records and record.t <= self.records[-1].t:
            raise ValueError("timestamps must be strictly increasing")
        if self.records and record.wp_index < self.records[-1].wp_index:
            raise ValueError("waypoint indices must be non-decreasing")
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(TRAJECTORY_HEADER + "\n")
        for r in self.records:
            inter = (
                ("", "", "")
                if r.intermediate is None
                else (
                    repr(float(r.intermediate.pos.lat)),
                    repr(float(r.intermediate.pos.lon)),
                    repr(float(r.intermediate.spd_target)),
                )
            )
            row = (
                repr(float(r.t)),
                repr(float(r.state.pos.lat)),
                repr(float(r.state.pos.lon)),
                repr(float(r.state.spd_t)),
                repr(float(r.state.h_t)),
                str(r.wp_index),
                *inter,
                repr(float(r.force.spd_c)),
                repr(float(r.force.dir_c)),
                repr(float(r.force.spd_w)),
                repr(float(r.force.dir_w)),
                repr(float(r.cmd.thrust)),
                repr(float(r.cmd.rudder)),
            )
            buf.write(",".join(row) + "\n")
        return buf.getvalue()

    def write_csv(self, path: str | os.PathLike) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())

    @classmethod
    def from_csv(cls, path: str | os.PathLike) -> "TrajectoryLog":
        """Rebuild a log from its CSV.

        The CSV schema does not carry course or through-water speed, so
        those state fields are reconstructed as zero; everything the
        scoring needs (time, position, waypoint index) survives the
        round trip.
        """
        log = cls()
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != TRAJECTORY_HEADER.split(","):
                raise ValueError(f"{path}: unexpected trajectory header {reader.fieldnames}")
            for row in reader:
                inter = None
                if row["int_lat"]:
                    inter = Waypoint(
                        GeoPoint(float(row["int_lat"]), float(row["int_lon"])),
                        float(row["int_spd"]),
                    )
                state = AsvState(
                    pos=GeoPoint(float(row["lat"]), float(row["lon"])),
                    spd_t=float(row["spd_t"]),
                    course_t=0.0,
                    h_t=float(row["h_t"]),
                    through_water_speed=0.0,
                    t=float(row["t"]),
                )
                log.append(
                    LogRecord(
                        t=float(row["t"]),
                        state=state,
                        wp_index=int(row["wp_index"]),
                        intermediate=inter,
                        force=ForceSample(
                            float(row["spd_c"]),
                            float(row["dir_c"]),
                            float(row["spd_w"]),
                            float(row["dir_w"]),
                        ),
                        cmd=ActuatorCommand(float(row["thrust"]), float(row["rudder"])),
                    )
                )
        return log


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
    if not log.records:
        raise LegNotAcquiredError("trajectory log is empty")
    if len(mission) < 2:
        raise ValueError("need at least two waypoints to define a leg")
    for a, b in zip(mission, mission[1:]):
        if distance(a.pos, b.pos) == 0.0:
            raise ValueError(f"degenerate leg: coincident waypoints at ({a.pos.lat}, {a.pos.lon})")
    # (east, north) unit vector of each leg, once per leg
    leg_units = [unit_enu(distance_bearing(a.pos, b.pos)[1]) for a, b in zip(mission, mission[1:])]

    start = None
    for i, record in enumerate(log.records):
        if distance(record.state.pos, mission[0].pos) <= 2.0 * acceptance_radius:
            start = i
            break
    if start is None:
        raise LegNotAcquiredError("vehicle never acquired the first leg; nothing to score")

    errors = []
    legs = []
    positions = []
    for record in log.records[start:]:
        leg = min(max(record.wp_index, 1), len(mission) - 1)
        offset = enu_offset(mission[leg - 1].pos, record.state.pos)
        ue, un = leg_units[leg - 1]
        # positive to starboard of the leg direction
        errors.append(offset.east * un - offset.north * ue)
        legs.append(leg)
        positions.append(record.state.pos)

    seg = np.array([distance(p, q) for p, q in zip(positions, positions[1:])], dtype=float)
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
    records = log.records[series.first_scored_record :]
    for record, err, w, leg in zip(records, series.errors, series.weights, series.leg_indices):
        buf.write(
            f"{record.t:.3f},{record.state.pos.lat:.9f},{record.state.pos.lon:.9f},"
            f"{leg},{err:.6f},{w:.6f}\n"
        )
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
