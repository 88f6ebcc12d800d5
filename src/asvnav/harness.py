"""Scenario configuration, closed-loop execution, the eight-orientation
suite, training-data generation and all file I/O.

Every run is deterministic for a fixed seed. Scenario files are JSON with
all defaults echoed back into the resolved copy written next to the
outputs, so a run directory is self-describing.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import cache
from pathlib import Path
from types import UnionType
from typing import Optional, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from .augment import FRESH_NAV, AugmentConfig, Navigator, navigator_step
from .control import (
    DEFAULT_ACCEPT_RADIUS,
    DEFAULT_GAINS,
    NavGains,
    Waypoint,
)
from .effects import (
    CORPUS_WIDTH,
    FEATURE_NAMES,
    TARGET_NAMES,
    OracleEffectModel,
    _check_corpus,
    drift_targets,
    load_model,
    make_features,
)
from .env import FIELD_KINDS, Environment, FieldSpec, Flows, ForceVector, LeftDomainError
from .geo import (
    GeoPoint,
    distance_bearing,
    displaced,
    point_coords,
    unit_enu,
    wrap_angle,
)
from .metrics import (
    SUITE_ORIENTATIONS,
    ComparisonTable,
    ErrorReport,
    LegNotAcquiredError,
    TrajectoryLog,
    per_sample_error_csv,
    score_run,
    table_report,
)
from .vehicle import (
    DEFAULT_DT,
    NoiseSpec,
    StateFloats,
    VehicleParams,
    _check_dt,
    noise_draws,
    relative_to_absolute,
    sense,
    steady_state,
    step,
    track_velocity,
)

# A waypoint's keys in a config and its columns in a mission CSV.
_WAYPOINT_KEYS = ("lat", "lon", "speed_mps")
MISSION_HEADER = ",".join(_WAYPOINT_KEYS)
TRAINING_HEADER = ",".join(FEATURE_NAMES + TARGET_NAMES)

DEFAULT_LEG_SPEED = 2.0
DEFAULT_LEG_LENGTH = 200.0


# --------------------------------------------------------------------------
# config (de)serialization


@contextmanager
def _rules_of(path: str):
    """Re-raise a ValueError of the block, a rule that the config value at
    path breaks, as one naming path; at the root (path "") unchanged."""
    try:
        yield
    except ValueError as exc:
        if not path:
            raise
        raise ValueError(f"config {path}: {exc}") from None


def _check_keys(data: dict, known, path: str) -> None:
    """Raise ValueError naming the dotted path of every key of data, the
    config value at path, that is not in known."""
    prefix = f"{path}." if path else ""
    unknown = [prefix + key for key in data if key not in known]
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")


def _check_required(data: dict, required, path: str) -> None:
    """Raise ValueError naming the dotted path of every key in required
    that data, the config value at path, lacks."""
    prefix = f"{path}." if path else ""
    missing = [prefix + key for key in required if key not in data]
    if missing:
        raise ValueError(f"missing config key(s): {', '.join(missing)}")


def _waypoint_to_dict(wp: Waypoint) -> dict:
    return dict(zip(_WAYPOINT_KEYS, (wp.pos.lat, wp.pos.lon, wp.spd_target)))


def _waypoint_from_dict(data: dict, path: str) -> Waypoint:
    _check_keys(data, _WAYPOINT_KEYS, path)
    _check_required(data, _WAYPOINT_KEYS, path)
    lat, lon, spd = (_decode(float, data[key], f"{path}.{key}", None) for key in _WAYPOINT_KEYS)
    with _rules_of(path):
        return Waypoint(GeoPoint(lat, lon), spd)


# Types whose JSON shape is not their field layout: (encode, decode).
_CODECS = {Waypoint: (_waypoint_to_dict, _waypoint_from_dict)}

# Field kind -> its JSON "kind" tag, which to_dict writes first.
_FIELD_TAGS = {kind: tag for tag, kind in FIELD_KINDS.items()}

# JSON key of every dataclass field stored under a key other than its name.
_KEYS = {
    VehicleParams: {
        "max_water_speed": "max_water_speed_mps",
        "thrust_time_constant": "thrust_time_constant_s",
        "max_turn_rate": "max_turn_rate_deg_s",
        "steerage_reference_speed": "steerage_reference_speed_mps",
        "turn_time_constant": "turn_time_constant_s",
    },
    NoiseSpec: {"sigma_speed": "sigma_speed_mps", "sigma_dir": "sigma_dir_deg"},
}


@cache
def _layout(cls) -> dict[str, tuple[str, object, bool]]:
    """JSON key -> (field name, resolved type hint, required) of a dataclass."""
    hints = get_type_hints(cls)
    keys = _KEYS.get(cls, {})
    return {
        keys.get(f.name, f.name): (
            f.name, hints[f.name], f.default is MISSING and f.default_factory is MISSING
        )
        for f in fields(cls)
    }


def to_dict(obj):
    """JSON form of a config value: dataclasses become dicts keyed per _KEYS,
    tuples become lists. Every field is written, so nothing is hidden, save
    a field kind's absent gust; a field kind leads with its "kind" tag."""
    if type(obj) in _CODECS:
        return _CODECS[type(obj)][0](obj)
    if is_dataclass(obj):
        out = {key: to_dict(getattr(obj, name)) for key, (name, _, _) in _layout(type(obj)).items()}
        if isinstance(obj, FieldSpec):
            if obj.gust is None:
                del out["gust"]
            return {"kind": _FIELD_TAGS[type(obj)], **out}
        return out
    if isinstance(obj, tuple):
        return [to_dict(v) for v in obj]
    return obj


def from_dict(cls, data: dict, base_dir: Path | None = None):
    """Build config dataclass cls from its JSON form.

    Absent keys take the dataclass defaults; an unknown key, a value of
    the wrong JSON type, or a value below the root that breaks its class's
    own rule, raises ValueError naming its dotted path. Values
    are kept as given: an int where a float is expected stays an int. A
    string where a mission is expected is a mission CSV path, relative to
    base_dir.
    """
    return _decode(cls, data, "", base_dir)


# The JSON values a scalar type hint takes, and their name. A JSON true or
# false is a Python int, but neither a number nor an integer in a config.
_SCALARS = {
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    str: (str, "a string"),
    bool: (bool, "true or false"),
}


def _decode(hint, value, path: str, base_dir: Path | None):
    if hint in _SCALARS:
        types, name = _SCALARS[hint]
        if not isinstance(value, types) or (isinstance(value, bool) and hint is not bool):
            raise ValueError(f"config {path} must be {name}, got {value!r}")
        return value  # as given: an int stays an int
    if is_dataclass(hint):
        if not isinstance(value, dict):
            raise ValueError(f"config {path or 'file'} must be a JSON object")
        if hint in _CODECS:
            return _CODECS[hint][1](value, path)
        prefix = f"{path}." if path else ""
        if hint is FieldSpec:  # the "kind" tag picks the field kind
            _check_required(value, ("kind",), path)
            tag = _decode(str, value["kind"], prefix + "kind", None)
            if tag not in FIELD_KINDS:
                raise ValueError(f"config {prefix}kind: unknown field kind {tag!r}")
            hint, value = FIELD_KINDS[tag], {k: v for k, v in value.items() if k != "kind"}
        layout = _layout(hint)
        _check_keys(value, layout, path)
        _check_required(value, [key for key, (_, _, required) in layout.items() if required],
                        path)
        kwargs = {
            layout[key][0]: _decode(layout[key][1], v, prefix + key, base_dir)
            for key, v in value.items()
        }
        with _rules_of(path):
            return hint(**kwargs)
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType):
        (inner,) = (a for a in args if a is not type(None))
        return None if value is None else _decode(inner, value, path, base_dir)
    if origin is tuple:
        if args[0] is Waypoint and isinstance(value, str):
            return tuple(read_mission_csv(Path(base_dir or "") / value))
        if not isinstance(value, list):
            raise ValueError(f"config {path} must be a list, got {value!r}")
        return tuple(_decode(args[0], v, f"{path}[{i}]", base_dir) for i, v in enumerate(value))
    return value


def _read_config(path: str | os.PathLike) -> tuple[dict, Path]:
    """A config file's JSON and the directory its relative paths resolve against."""
    path = Path(path)
    with open(path) as fh:
        return json.load(fh), path.parent


def _write_json(data: dict, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class ControllerSpec:
    """Which navigator drives the run.

    kind is "baseline" or "augmented"; for augmented, model is "oracle"
    or the path of a fitted effect-model JSON file.
    """

    kind: str = "baseline"
    model: str = "oracle"

    def __post_init__(self):
        if self.kind not in ("baseline", "augmented"):
            raise ValueError(f"controller kind must be baseline|augmented, got {self.kind!r}")


@dataclass(frozen=True)
class StartPose:
    """An explicit start pose, kept as given (start_state wraps it) and
    checked by GeoPoint's and wrap_angle's rules."""

    lat: float
    lon: float
    heading_deg: float

    def __post_init__(self):
        point_coords(self.lat, self.lon)
        wrap_angle(self.heading_deg)


@dataclass(frozen=True)
class Scenario:
    """Everything one closed-loop run needs. With an empty mission it is a
    suite template, which the suite gives a mission on every run; the run's
    Navigator rejects an empty mission before any tick."""

    mission: tuple[Waypoint, ...]
    current: FieldSpec = field(default_factory=FieldSpec.calm)
    wind: FieldSpec = field(default_factory=FieldSpec.calm)
    vehicle: VehicleParams = VehicleParams()
    noise: NoiseSpec = NoiseSpec()
    seed: int = 0
    controller: ControllerSpec = ControllerSpec()
    gains: NavGains = DEFAULT_GAINS
    augment: AugmentConfig = AugmentConfig()
    duration_limit_s: float = 600.0
    acceptance_radius_m: float = DEFAULT_ACCEPT_RADIUS
    dt_s: float = DEFAULT_DT
    start: Optional[StartPose] = None
    start_runup_m: float = 60.0
    start_offset_m: float = 3.0
    name: str = "scenario"

    def __post_init__(self):
        _check_dt(self.dt_s, "dt_s")  # first: NaN passes the update period comparison below
        for key in ("duration_limit_s", "acceptance_radius_m"):
            if not 0.0 < getattr(self, key) < math.inf:
                raise ValueError(f"{key} must be > 0 and finite, got {getattr(self, key)!r}")
        if self.augment.update_period_s < self.dt_s:
            raise ValueError("augment update period must be >= simulation dt")
        for wp in self.mission:
            if wp.spd_target > self.vehicle.max_water_speed:
                raise ValueError(
                    f"waypoint speed {wp.spd_target} exceeds hull maximum "
                    f"{self.vehicle.max_water_speed}"
                )

    def start_state(self) -> StateFloats:
        """Initial vehicle state, at rest at t = 0: the explicit pose, or
        derived to sit just off the first leg's extension, a run-up back
        along the leg bearing. The position is wrapped as a GeoPoint and
        the heading by wrap_angle."""
        if self.start is not None:
            pos, heading = GeoPoint(self.start.lat, self.start.lon), self.start.heading_deg
        elif len(self.mission) < 2:
            raise ValueError("derived start needs a two-waypoint mission; give start explicitly")
        else:
            _, heading = distance_bearing(self.mission[0].pos, self.mission[1].pos)
            ue, un = unit_enu(heading)
            le, ln = unit_enu(wrap_angle(heading - 90.0))  # port side of the leg
            pos = displaced(self.mission[0].pos,
                            -self.start_runup_m * ue + self.start_offset_m * le,
                            -self.start_runup_m * un + self.start_offset_m * ln)
        heading = wrap_angle(heading)
        return pos.lat, pos.lon, 0.0, heading, heading, 0.0, 0.0, 0.0


def load_scenario(path: str | os.PathLike) -> Scenario:
    return from_dict(Scenario, *_read_config(path))


# --------------------------------------------------------------------------
# mission / training CSV


def write_mission_csv(mission: Sequence[Waypoint], path: str | os.PathLike) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(MISSION_HEADER + "\n")
        for wp in mission:
            fh.write(",".join(repr(float(v)) for v in _waypoint_to_dict(wp).values()) + "\n")


def read_mission_csv(path: str | os.PathLike) -> list[Waypoint]:
    """The waypoints of a mission CSV: MISSION_HEADER, then one row of its
    columns per line. Blank lines are skipped; a line that is not three numbers,
    or whose waypoint breaks a Waypoint or GeoPoint rule, raises ValueError
    naming its file line."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != MISSION_HEADER:
            raise ValueError(f"{path}: expected header {MISSION_HEADER!r}, got {header!r}")
        mission = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                lat, lon, spd = (float(v) for v in line.split(","))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: expected 3 comma-separated numbers, "
                                 f"got {line.strip()!r}") from None
            try:
                mission.append(Waypoint(GeoPoint(lat, lon), spd))
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return mission


def write_training_csv(corpus: np.ndarray, path: str | os.PathLike) -> None:
    """Write a training corpus (effects._check_corpus), each value as the
    repr of its Python float, so read_training_csv gets the same bits back.

    A sweep's steady legs repeat rows, so each run of bit-equal
    consecutive rows is formatted once and its line written once per row.
    """
    corpus = _check_corpus(corpus)
    bits = corpus.view(np.int64)  # bit equality: -0.0 and 0.0 differ
    new_run = np.ones(len(corpus), dtype=bool)
    new_run[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    starts = np.flatnonzero(new_run)
    counts = np.diff(np.r_[starts, len(corpus)])
    with open(path, "w", newline="") as fh:
        fh.write(TRAINING_HEADER + "\n")
        for row, count in zip(corpus[starts].tolist(), counts.tolist()):
            fh.write((",".join(map(repr, row)) + "\n") * count)


def read_training_csv(path: str | os.PathLike) -> np.ndarray:
    """The training corpus of a training CSV: the header, then one row of
    FEATURE_NAMES and TARGET_NAMES values per line. Blank and
    whitespace-only lines are skipped; there is no comment character. A
    line that is not a row, or holds a non-finite value, raises ValueError
    naming its file line.

    Each run of identical consecutive lines is parsed once.
    """
    runs = []  # [file line number, text, count] of each run of equal lines
    with open(path) as fh:
        header = fh.readline().strip()
        if header != TRAINING_HEADER:
            raise ValueError(f"{path}: expected header {TRAINING_HEADER!r}, got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            # np.loadtxt skips empty lines but reads a whitespace-only one as a row
            if not line.strip():
                continue
            if runs and runs[-1][1] == line:
                runs[-1][2] += 1
            else:
                runs.append([lineno, line, 1])
    if not runs:
        return _check_corpus(())
    linenos, lines, counts = zip(*runs)
    rows = _training_rows(lines)
    if rows is None:
        # the batch parse names no file line, so find the first bad line alone
        lineno, line = next((n, s) for n, s in zip(linenos, lines) if _training_rows([s]) is None)
        raise ValueError(f"{path}: line {lineno}: expected {CORPUS_WIDTH} comma-separated "
                         f"numbers, got {line.strip()!r}")
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"{path}: line {linenos[i]}: training sample contains non-finite "
                         f"values, got {lines[i].strip()!r}")
    return _check_corpus(np.repeat(rows, counts, axis=0))


def _training_rows(lines: Sequence[str]) -> np.ndarray | None:
    """lines parsed as rows of CORPUS_WIDTH floats, or None when one of
    them is not such a row."""
    try:
        rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return rows if rows.shape[1] == CORPUS_WIDTH else None


# --------------------------------------------------------------------------
# closed-loop execution


@dataclass(frozen=True)
class RunResult:
    """Outcome of one scenario run.

    outcome says how the run ended: "completed" (every waypoint reached),
    "incomplete" (duration limit hit) or "left_domain" (the vehicle left a
    grid field; the log stops at the last tick inside it). report is None
    when the log holds no scoreable path.
    """

    scenario: Scenario
    log: TrajectoryLog
    report: Optional[ErrorReport]
    outcome: str
    sign_changes_over_1m: int
    duration_s: float

    @property
    def completed(self) -> bool:
        return self.outcome == "completed"

    def summary(self) -> dict:
        return {
            "name": self.scenario.name,
            "controller": self.scenario.controller.kind,
            "completed": self.completed,
            "outcome": self.outcome,
            "duration_s": self.duration_s,
            "max_error_m": None if self.report is None else self.report.max_error,
            "pct_over_1m": None if self.report is None else self.report.pct_over_1m,
            "sign_changes_over_1m": self.sign_changes_over_1m,
            "seed": self.scenario.seed,
        }


def _resolve_model(sc: Scenario):
    if sc.controller.model == "oracle":
        return OracleEffectModel(wind_drag_factor=sc.vehicle.wind_drag_factor)
    return load_model(sc.controller.model)


def _closed_loop(sc: Scenario, mission: list[Waypoint], model) -> tuple[TrajectoryLog, str]:
    """The tick loop of run_scenario, on plain floats: the trajectory log
    and the outcome.

    Each tick is Environment.sample, sense, relative_to_absolute (current,
    then wind), navigator_step (with model None: the baseline) and step; a tick
    that completes the mission takes no step; noise_draws hands out the
    run's own noise. The Scenario has checked dt (the step count divides by
    it) and the radius, and the run's Navigator checks its mission and dt
    once. Checks that can fire here: a non-finite command, a negative or
    non-finite state, the offset and latitude limits of each move, and
    LeftDomainError, which ends the run.
    """
    dt, params = sc.dt_s, sc.vehicle
    nav = Navigator(mission, model, sc.augment, sc.gains, params, dt, sc.acceptance_radius_m)
    max_steps = int(round(sc.duration_limit_s / dt))
    draw = noise_draws(sc.noise, sc.seed).__next__
    sample = Environment(current=sc.current, wind=sc.wind).sample
    lat, lon, spd_t, course_t, h_t, tw, t, turn_rate = sc.start_state()
    state = FRESH_NAV
    rows = []
    add = rows.append

    outcome = "incomplete"
    for _ in range(max_steps + 1):
        try:
            flows = sample(lat, lon, t)
        except LeftDomainError:
            outcome = "left_domain"
            break
        rad = math.radians(course_t)  # track_velocity(spd_t, course_t), written out
        vg_e, vg_n = spd_t * math.sin(rad), spd_t * math.cos(rad)
        water_spd, water_dir, wind_spd, wind_dir = sense(vg_e, vg_n, h_t, flows, draw())
        spd_c, dir_c = relative_to_absolute(vg_e, vg_n, h_t, water_spd, water_dir)
        spd_w, dir_w = relative_to_absolute(vg_e, vg_n, h_t, wind_spd, wind_dir)
        thrust, rudder, state = navigator_step(
            nav, lat, lon, spd_t, h_t, t, (spd_c, dir_c, spd_w, dir_w), state
        )
        index, intermediate = state[0], state[4]  # the active waypoint and held target
        add((t, lat, lon, spd_t, course_t, h_t, tw, turn_rate, index, intermediate,
             spd_c, dir_c, spd_w, dir_w, thrust, rudder))
        if index >= len(mission):
            outcome = "completed"
            break
        lat, lon, spd_t, course_t, h_t, tw, t, turn_rate = step(
            lat, lon, h_t, tw, t, turn_rate, thrust, rudder, flows, params, dt
        )
    return TrajectoryLog.from_rows(rows), outcome


def run_scenario(
    sc: Scenario,
    out_dir: str | os.PathLike | None = None,
    model=None,
) -> RunResult:
    """Closed-loop simulation to mission completion, the duration limit or
    the edge of a grid field.

    Each tick samples the fields once at the vehicle, then senses, recovers
    the absolute forces, navigates, logs and steps, all from that one
    sample. Deterministic for a fixed seed. When out_dir is given, writes
    the trajectory log, per-sample errors, mission file, resolved scenario
    and a run summary there. model, when given, replaces the effect model
    the scenario names for an augmented run; a baseline run uses none.
    """
    if sc.controller.kind == "baseline":
        model = None  # the navigator without a model
    elif model is None:
        model = _resolve_model(sc)
    mission = list(sc.mission)
    log, outcome = _closed_loop(sc, mission, model)

    series, report, sign_changes = None, None, 0
    if len(mission) >= 2:  # a single waypoint defines no leg to score
        try:
            series, report, sign_changes = score_run(log, mission, sc.acceptance_radius_m,
                                                     sc.name)
        except LegNotAcquiredError:
            pass  # keep the partial log anyway

    result = RunResult(
        scenario=sc,
        log=log,
        report=report,
        outcome=outcome,
        sign_changes_over_1m=sign_changes,
        duration_s=log.t[-1] if len(log) else 0.0,
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        log.write_csv(out / "trajectory.csv")
        log.write_npy(out / "trajectory.npy")
        write_mission_csv(mission, out / "mission.csv")
        _write_json(to_dict(sc), out / "resolved_config.json")
        if series is not None:
            with open(out / "errors.csv", "w", newline="") as fh:
                fh.write(per_sample_error_csv(series, log))
        _write_json(result.summary(), out / "summary.json")
    return result


# --------------------------------------------------------------------------
# eight-orientation suite


def _check_hull_speed(speed: float, params: VehicleParams, name: str) -> None:
    """Raise ValueError naming name unless speed is in (0, the hull's
    maximum]: a chained comparison, so NaN fails too."""
    if not 0.0 < speed <= params.max_water_speed:
        raise ValueError(f"{name} must be in (0, {params.max_water_speed}], got {speed!r}")


@dataclass(frozen=True)
class SuiteSpec:
    """The eight-orientation paired experiment around one center point."""

    center: GeoPoint
    current_axis_bearing_deg: float
    template: Scenario
    leg_length_m: float = DEFAULT_LEG_LENGTH
    leg_speed_mps: float = DEFAULT_LEG_SPEED

    def __post_init__(self):
        # a chained comparison, so NaN fails too
        if not 20.0 * self.template.acceptance_radius_m <= self.leg_length_m < math.inf:
            raise ValueError(f"leg_length_m must be finite and at least 20x the acceptance "
                             f"radius, got {self.leg_length_m!r}")
        _check_hull_speed(self.leg_speed_mps, self.template.vehicle, "leg_speed_mps")


def _straight_leg(center: GeoPoint, bearing: float, length: float,
                  speed: float) -> tuple[Waypoint, Waypoint]:
    """Two-waypoint leg of the given length, centred on center."""
    ue, un = unit_enu(bearing)
    half = 0.5 * length
    a = displaced(center, -half * ue, -half * un)
    b = displaced(center, half * ue, half * un)
    return (Waypoint(a, speed), Waypoint(b, speed))


def suite_mission(suite: SuiteSpec, orientation: int) -> tuple[Waypoint, Waypoint]:
    """Straight leg whose bearing differs from the current axis by
    exactly the orientation label."""
    bearing = wrap_angle(suite.current_axis_bearing_deg + orientation)
    return _straight_leg(suite.center, bearing, suite.leg_length_m, suite.leg_speed_mps)


def suite_scenarios(suite: SuiteSpec) -> list[Scenario]:
    """The 16 runs: every orientation under both controllers."""
    scenarios = []
    for orientation in SUITE_ORIENTATIONS:
        mission = suite_mission(suite, orientation)
        for kind in ("baseline", "augmented"):
            scenarios.append(
                replace(
                    suite.template,
                    mission=mission,
                    controller=ControllerSpec(kind=kind, model=suite.template.controller.model),
                    start=None,
                    name=f"{kind}_{orientation:03d}",
                )
            )
    return scenarios


@dataclass(frozen=True)
class SuiteResult:
    table: ComparisonTable
    baseline: dict[int, ErrorReport]
    augmented: dict[int, ErrorReport]
    runs: dict[str, RunResult]
    incomplete: tuple[str, ...]


def run_suite(suite: SuiteSpec, out_dir: str | os.PathLike | None = None) -> SuiteResult:
    """Run all 8 orientations under both controllers and assemble the
    comparison table (perpendicular pair averaged)."""
    out = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)

    # controller kind -> orientation -> report
    reports: dict[str, dict[int, ErrorReport]] = {"baseline": {}, "augmented": {}}
    runs: dict[str, RunResult] = {}
    incomplete: list[str] = []
    for sc in suite_scenarios(suite):
        run_out = None if out is None else out / "runs" / sc.name
        result = run_scenario(sc, out_dir=run_out)
        runs[sc.name] = result
        orientation = int(sc.name.rsplit("_", 1)[1])
        if not result.completed:
            incomplete.append(sc.name)
        report = result.report
        if report is None:
            # Unscoreable run: keep the table emittable but make the cell
            # impossible to mistake for a good result.
            report = ErrorReport(label=f"{sc.name} (no data)", max_error=math.inf, pct_over_1m=100.0)
        reports[sc.controller.kind][orientation] = report

    table = table_report(reports["baseline"], reports["augmented"])
    result = SuiteResult(
        table=table,
        baseline=reports["baseline"],
        augmented=reports["augmented"],
        runs=runs,
        incomplete=tuple(incomplete),
    )
    if out is not None:
        with open(out / "report.csv", "w", newline="") as fh:
            fh.write(table.to_csv())
        with open(out / "report.txt", "w") as fh:
            fh.write(_suite_report_header(suite) + table.to_text())
        _write_json(suite_to_dict(suite), out / "resolved_suite.json")
    return result


def _suite_report_header(suite: SuiteSpec) -> str:
    g = suite.template.gains
    return (
        f"# eight-orientation paired comparison\n"
        f"# center=({suite.center.lat}, {suite.center.lon}) "
        f"axis={suite.current_axis_bearing_deg} deg leg={suite.leg_length_m} m "
        f"speed={suite.leg_speed_mps} m/s seed={suite.template.seed}\n"
        f"# pct weighting: arc length; perpendicular column: mean of the 90/270 runs\n"
        f"# frozen gains: heading kp={g.heading.kp} ki={g.heading.ki} kd={g.heading.kd} "
        f"i_clamp={g.heading.i_clamp}; speed kp={g.speed.kp} ki={g.speed.ki} "
        f"kd={g.speed.kd} i_clamp={g.speed.i_clamp}\n"
    )


def suite_to_dict(suite: SuiteSpec) -> dict:
    """Resolved suite dict. The template's mission and start are left out:
    the suite generates them for every run."""
    data = to_dict(suite)
    del data["template"]["mission"], data["template"]["start"]
    return data


def suite_from_dict(data: dict, base_dir: Path | None = None) -> SuiteSpec:
    """Build a SuiteSpec from its suite_to_dict form: a template without
    mission or start, which the suite generates for every run."""
    template = data.get("template") if isinstance(data, dict) else None
    if isinstance(template, dict):
        _check_keys(template, _layout(Scenario).keys() - {"mission", "start"}, "template")
        data = {**data, "template": {**template, "mission": []}}
    return from_dict(SuiteSpec, data, base_dir)


def load_suite(path: str | os.PathLike) -> SuiteSpec:
    return suite_from_dict(*_read_config(path))


# --------------------------------------------------------------------------
# canonical experiments

RIVER_CENTER = GeoPoint(34.0, -81.0)
RIVER_AXIS_DEG = 150.0
RIVER_CURRENT_MPS = 0.677  # average measured river speed for the trials
CROSSWIND_MPS = 5.0

# Offsets must cover the full drift triangle on 200 m legs; the type-level
# 25 m default suits short river legs, not these.
SCENARIO_AUGMENT = AugmentConfig(max_offset_m=100.0)


def standard_suite(
    current_speed: float = RIVER_CURRENT_MPS,
    axis: float = RIVER_AXIS_DEG,
    wind_speed: float = CROSSWIND_MPS,
    seed: int = 0,
) -> SuiteSpec:
    """The paired comparison experiment: 8 orientations x 2 controllers.

    Uniform current along the river axis plus a light uniform crosswind,
    so even the along-current legs carry some lateral disturbance for the
    baseline to mishandle.
    """
    template = Scenario(
        mission=(),
        current=FieldSpec.uniform(current_speed, axis),
        wind=FieldSpec.uniform(wind_speed, axis + 90.0),
        augment=SCENARIO_AUGMENT,
        seed=seed,
        name="template",
    )
    return SuiteSpec(center=RIVER_CENTER, current_axis_bearing_deg=axis, template=template)


def calm_water_scenario(seed: int = 0, controller: str = "baseline") -> Scenario:
    """Straight 200 m leg with zero fields: the sanity benchmark."""
    return Scenario(
        mission=_straight_leg(RIVER_CENTER, RIVER_AXIS_DEG, DEFAULT_LEG_LENGTH, DEFAULT_LEG_SPEED),
        augment=SCENARIO_AUGMENT,
        controller=ControllerSpec(kind=controller),
        seed=seed,
        name=f"calm_{controller}",
    )


def downstream_failure_scenario(seed: int = 0, controller: str = "baseline") -> Scenario:
    """The baseline's downstream failure case.

    A 200 m leg run with a 1.0 m/s current aligned to it at a modest
    cruise speed, entered at a slight angle the way a survey pattern's
    turn would leave the vehicle. Running with the current, the ground
    speed loop throttles back until little water flows past the rudder;
    with the standard gains the navigator then weaves back and forth
    across the line instead of settling.
    """
    return Scenario(
        mission=_straight_leg(RIVER_CENTER, RIVER_AXIS_DEG, DEFAULT_LEG_LENGTH, 1.6),
        current=FieldSpec.uniform(1.0, RIVER_AXIS_DEG),
        augment=SCENARIO_AUGMENT,
        controller=ControllerSpec(kind=controller),
        start_runup_m=60.0,
        start_offset_m=10.0,
        seed=seed,
        name=f"downstream_failure_{controller}",
    )


# --------------------------------------------------------------------------
# training-data generation


@dataclass(frozen=True)
class SweepSpec:
    """Grid of steady conditions for generating effect-model training data.

    Winds are cycled across the (current x heading x speed) grid rather
    than crossed with it, which keeps the run count down while still
    decorrelating the wind columns from the current columns.
    """

    origin: GeoPoint
    currents: tuple[ForceVector, ...]
    winds: tuple[ForceVector, ...]
    headings: tuple[float, ...]
    speeds: tuple[float, ...]
    vehicle: VehicleParams = VehicleParams()
    noise: NoiseSpec = NoiseSpec()
    seed: int = 0
    duration_s: float = 20.0
    dt_s: float = DEFAULT_DT
    include_closed_loop: bool = True

    def __post_init__(self):
        if not (self.currents and self.winds and self.headings and self.speeds):
            raise ValueError("sweep grid must be non-empty")
        if not 0.0 < self.duration_s < math.inf:
            raise ValueError(f"sweep duration_s must be > 0 and finite, got {self.duration_s!r}")
        _check_dt(self.dt_s, "dt_s")
        for speed in self.speeds:
            _check_hull_speed(speed, self.vehicle, "sweep speeds")
        for heading in self.headings:
            if not math.isfinite(heading):
                raise ValueError(f"sweep headings must be finite, got {heading!r}")


def generate_training_logs(sweep: SweepSpec) -> np.ndarray:
    """Run the sweep and return its training corpus (effects._check_corpus):
    one row of features and targets per logged control step.

    Features come from the same sense and relative_to_absolute path the
    controller uses; targets are the logged ground-truth drift. The hull
    moves by step (and navigator_step on the closed-loop legs), with one
    field sample per logged step.
    """
    rows: list[tuple[float, ...]] = []
    dt, params = sweep.dt_s, sweep.vehicle
    # one stream of noise offsets for the whole sweep, a tick's four per row
    draw = noise_draws(sweep.noise, sweep.seed).__next__
    n_steps = int(round(sweep.duration_s / dt))
    pack_inputs = struct.Struct("9d").pack  # record's arguments as bytes
    last_inputs = None

    def record(spd_t: float, course_t: float, h_t: float, tw: float, flows: Flows,
               speed: float) -> None:
        nonlocal last_inputs
        offsets = draw()
        # Without noise a row is a pure function of record's arguments, and a
        # steady leg repeats them from its second step on. With noise every row
        # takes its own offsets.
        if offsets is None:
            inputs = pack_inputs(spd_t, course_t, h_t, tw, *flows, speed)  # bits: -0.0 != 0.0
            if inputs == last_inputs:
                rows.append(rows[-1])
                return
            last_inputs = inputs
        vg_e, vg_n = track_velocity(spd_t, course_t)
        water_spd, water_dir, wind_spd, wind_dir = sense(vg_e, vg_n, h_t, flows, offsets)
        features = make_features(
            *relative_to_absolute(vg_e, vg_n, h_t, water_spd, water_dir),
            *relative_to_absolute(vg_e, vg_n, h_t, wind_spd, wind_dir), speed, h_t,
        )
        # the targets: the ground-truth drift, ground velocity minus the
        # through-water velocity along the heading
        he, hn = unit_enu(h_t)
        rows.append((*features, *drift_targets(vg_e - tw * he, vg_n - tw * hn, h_t)))

    def leg(current: ForceVector, wind: ForceVector, heading: float, speed: float,
            nav: Navigator | None) -> None:
        """One leg from the steady state at the origin: the fixed command of
        speed when nav is None, else navigator_step toward its goal."""
        sample = Environment(FieldSpec.uniform(current.speed, current.direction),
                             FieldSpec.uniform(wind.speed, wind.direction)).sample
        # the fixed command, thrust in (0, 1] by the sweep's speed rule;
        # navigator_step replaces it every step
        thrust, rudder = speed / params.max_water_speed, 0.0
        # the steady state's sample is the first step's: (origin, t=0)
        lat, lon, t, turn_rate, tw = sweep.origin.lat, sweep.origin.lon, 0.0, 0.0, speed
        flows = sample(lat, lon, t)
        spd_t, course_t, h_t = steady_state(heading, speed, flows, params)
        state = FRESH_NAV
        for i in range(n_steps):
            if i:
                flows = sample(lat, lon, t)
            record(spd_t, course_t, h_t, tw, flows, speed)
            if nav is not None:
                thrust, rudder, state = navigator_step(nav, lat, lon, spd_t, h_t, t, None, state)
                if state[0]:  # the goal is reached (the state's waypoint index)
                    break
            lat, lon, spd_t, course_t, h_t, tw, t, turn_rate = step(
                lat, lon, h_t, tw, t, turn_rate, thrust, rudder, flows, params, dt
            )

    run_index = 0
    for current in sweep.currents:
        for heading in sweep.headings:
            for speed in sweep.speeds:
                wind = sweep.winds[run_index % len(sweep.winds)]
                run_index += 1
                leg(current, wind, heading, speed, None)

    if sweep.include_closed_loop:
        # a few navigator-driven legs so the corpus also covers transients
        leg_speed = sweep.speeds[0]
        for heading in sweep.headings:
            current = sweep.currents[run_index % len(sweep.currents)]
            wind = sweep.winds[run_index % len(sweep.winds)]
            run_index += 1
            ue, un = unit_enu(heading)
            goal = displaced(sweep.origin, 100.0 * ue, 100.0 * un)
            leg(current, wind, heading, leg_speed, Navigator([Waypoint(goal, leg_speed)], dt=dt))
    return _check_corpus(rows)


def load_sweep(path: str | os.PathLike) -> SweepSpec:
    return from_dict(SweepSpec, *_read_config(path))
