"""The waypoint navigator and its feed-forward augmentation.

The baseline navigator steers at the true goal. Augmented, it predicts
the disturbance drift, places an intermediate waypoint upstream of the
goal (offset proportional to the remaining distance) and adjusts the
commanded speed by the predicted along-track deficit. The PID steering is
then driven with that intermediate target while mission advancement is
always judged against the true goal. Both are one navigator_step: the
baseline is the Navigator without a model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .control import (
    DEFAULT_ACCEPT_RADIUS,
    DEFAULT_GAINS,
    FRESH_PID,
    Line,
    NavGains,
    PidFloats,
    Waypoint,
    steer_toward,
    tracking_line,
)
from .geo import METERS_PER_DEG_LAT, GeoPoint, displaced, enu_coords
from .vehicle import DEFAULT_DT, VehicleParams

# Never command below this fraction of the requested speed: the hull must
# keep steerage way even when the disturbance aids progress.
MIN_SPEED_FRACTION = 0.2

# Predictions below this are float residue from the sensing round trip,
# not signal; treating them as zero keeps a no-disturbance run identical
# to the baseline down to the last bit.
EFFECT_NOISE_FLOOR = 1e-12


def _denoise(value: float) -> float:
    return 0.0 if abs(value) < EFFECT_NOISE_FLOOR else value


@dataclass(frozen=True)
class AugmentConfig:
    """Tuning of the offset generator.

    gain_k scales the distance-proportional offset; max_offset_m bounds
    it so strong currents cannot throw the aim point behind the vehicle;
    update_period_s decouples the feed-forward updates from the fast
    inner loop; reference_speed_floor_mps guards the drift-per-meter
    normalization at low commanded speeds.
    """

    gain_k: float = 1.0
    max_offset_m: float = 25.0
    update_period_s: float = 1.0
    reference_speed_floor_mps: float = 0.2

    def __post_init__(self):
        if not (0.0 < self.gain_k < math.inf and 0.0 < self.max_offset_m < math.inf):
            raise ValueError("gain_k and max_offset_m must be > 0 and finite")
        if not (0.0 < self.update_period_s < math.inf
                and 0.0 < self.reference_speed_floor_mps < math.inf):
            raise ValueError("update_period_s and reference_speed_floor_mps must be > 0 and finite")


def calc_intermediate_wp(
    goal: Waypoint,
    lat: float,
    lon: float,
    effect_x: float,
    effect_y: float,
    cfg: AugmentConfig,
    reference_speed: float,
) -> GeoPoint:
    """Place the intermediate waypoint for the current goal, seen from a
    vehicle at (lat, lon).

    The predicted drift per meter of travel is the drift velocity divided
    by the commanded ground speed; the offset opposes it, scaled by the
    distance still to go and clamped to max_offset_m. With zero predicted
    effect the result is the goal itself, exactly.

    reference_speed should be the speed actually commanded to the inner
    loop (the deficit-adjusted one): the offset is a travel-time triangle,
    and the travel time is set by the speed the vehicle will really make
    good.
    """
    if not (math.isfinite(effect_x) and math.isfinite(effect_y)):
        raise ValueError(f"non-finite effect components ({effect_x}, {effect_y})")
    if effect_x == 0.0 and effect_y == 0.0:
        return goal.pos
    d_t = math.hypot(*enu_coords(lat, lon, goal.pos.lat, goal.pos.lon))
    ref_speed = max(reference_speed, cfg.reference_speed_floor_mps)
    off_e = -cfg.gain_k * d_t * effect_x / ref_speed
    off_n = -cfg.gain_k * d_t * effect_y / ref_speed
    magnitude = math.hypot(off_e, off_n)
    if magnitude > cfg.max_offset_m:
        scale = cfg.max_offset_m / magnitude
        off_e *= scale
        off_n *= scale
    return displaced(goal.pos, off_e, off_n)


def adjusted_speed(effect_spd: float, spd_target: float, params: VehicleParams) -> float:
    """Commanded speed after feed-forward compensation.

    Adds the predicted deficit to the requested speed, clamped between
    MIN_SPEED_FRACTION of the request and the hull's maximum, so the
    command never stalls the vehicle or exceeds what it can do.
    """
    if spd_target <= 0.0:
        raise ValueError(f"spd_target must be > 0, got {spd_target!r}")
    raw = effect_spd + spd_target
    return min(params.max_water_speed, max(MIN_SPEED_FRACTION * spd_target, raw))


# The navigator's state: (index, line, heading_pid, speed_pid,
# intermediate, next_update_t). A run starts at FRESH_NAV.
NavState = tuple[int, Optional[Line], PidFloats, PidFloats, Optional[Waypoint], float]
FRESH_NAV: NavState = (0, None, FRESH_PID, FRESH_PID, None, -math.inf)


@dataclass(frozen=True, slots=True)
class Navigator:
    """The constants of one run's navigator (with model None: the
    baseline), checked once when built."""

    mission: Sequence[Waypoint]
    model: object = None
    cfg: AugmentConfig = AugmentConfig()
    gains: NavGains = DEFAULT_GAINS
    params: VehicleParams = VehicleParams()
    dt: float = DEFAULT_DT
    radius: float = DEFAULT_ACCEPT_RADIUS

    def __post_init__(self):
        if not self.mission:
            raise ValueError("mission must contain at least one waypoint")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt!r}")
        if not 0.0 < self.radius < math.inf:  # a chained comparison, so NaN fails too
            raise ValueError(f"radius must be > 0 and finite, got {self.radius!r}")


def navigator_step(nav: Navigator, lat: float, lon: float, spd_t: float, h_t: float, t: float,
                   force: Optional[tuple[float, float, float, float]],
                   state: NavState) -> tuple[float, float, NavState]:
    """One control step of the navigator nav, for a vehicle at (lat, lon)
    with ground speed spd_t and heading h_t at time t.

    state is the NavState: the active waypoint index, the tracking line
    (None until its target is first steered at), both PID states, the held
    intermediate target and the time of the next update; a run starts at
    FRESH_NAV. It advances the active waypoint when reached: both
    integrators restart, the held target is dropped and the line re-anchors
    where the vehicle is, the way the stock autopilot tracks the line from
    the point of waypoint acceptance.

    With nav.model None it is the baseline: it steers at the lookahead
    point on the line to the active waypoint and holds no target, and force
    is not read. With a model and the absolute forces as (spd_c, dir_c,
    spd_w, dir_w) it is augmented: every update_period_s (and right after
    an advance) the feed-forward update runs, predict -> adjusted speed ->
    intermediate waypoint, and the navigator steers at the held target;
    advancement is still judged against the true goals, so a zero-effect
    model reproduces the baseline bit for bit. Returns the clamped
    (thrust, rudder) and the new state; index == len(mission) once the
    mission is complete, with an all-zero command, no line and no held
    target.

    The advance is control.waypoint_reached on each waypoint from index
    on, its enu_coords written out here, bit for bit
    (tests/test_hot_path.py); the Navigator has checked the radius.
    """
    index, line, heading_pid, speed_pid, intermediate, next_update_t = state
    mission = nav.mission
    radius = nav.radius
    reached = index
    while reached < len(mission):
        pos = mission[reached].pos
        # math.hypot(*enu_coords(lat, lon, pos.lat, pos.lon)) <= radius
        dlon = pos.lon - lon
        if dlon >= 180.0:
            dlon -= 360.0
        elif dlon < -180.0:
            dlon += 360.0
        east = dlon * METERS_PER_DEG_LAT * math.cos(math.radians(0.5 * (lat + pos.lat)))
        if not math.hypot(east, (pos.lat - lat) * METERS_PER_DEG_LAT) <= radius:
            break
        reached += 1
    if reached != index:
        # a new goal: both integrators restart, the held target is dropped
        # and the line re-anchors here
        index = reached
        heading_pid = speed_pid = FRESH_PID
        line, intermediate, next_update_t = None, None, -math.inf
    if index >= len(mission):
        return 0.0, 0.0, (index, None, heading_pid, speed_pid, None, -math.inf)

    target = mission[index]
    model = nav.model
    if model is not None:
        if intermediate is None or t >= next_update_t:
            # The feed-forward update: predict -> adjusted speed ->
            # intermediate waypoint.
            drift_e, drift_n, deficit = model.predict(*force, target.spd_target, h_t)
            spd = adjusted_speed(_denoise(deficit), target.spd_target, nav.params)
            aim = calc_intermediate_wp(target, lat, lon, _denoise(drift_e), _denoise(drift_n),
                                       nav.cfg, spd)
            refreshed = Waypoint(aim, spd)
            # Re-anchor only when the target actually moved; an unchanged
            # target keeps the established tracking line (and keeps a
            # zero-effect model bit-identical to the baseline). A moved
            # target is a fresh goto, so its heading integrator restarts
            # too: steady-state compensation belongs to the feed-forward
            # path, not to integral windup fighting it.
            if refreshed != intermediate:
                intermediate, line = refreshed, None
                heading_pid = FRESH_PID
            next_update_t = t + nav.cfg.update_period_s
        target = intermediate
    if line is None:
        line = tracking_line(lat, lon, target.pos)
    thrust, rudder, heading_pid, speed_pid = steer_toward(
        lat, lon, h_t, spd_t, target, line, nav.gains, heading_pid, speed_pid, nav.dt
    )
    return thrust, rudder, (index, line, heading_pid, speed_pid, intermediate, next_update_t)
