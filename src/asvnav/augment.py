"""Feed-forward augmentation of the baseline navigator.

Instead of steering at the true goal, the augmented controller predicts
the disturbance drift, places an intermediate waypoint upstream of the
goal (offset proportional to the remaining distance) and adjusts the
commanded speed by the predicted along-track deficit. The inner PID
navigator is driven with that intermediate target while mission
advancement is always judged against the true goal.
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
    _advance,
    steer_toward,
    tracking_line,
)
from .geo import EnuVector, GeoPoint, distance, offset_point
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
        if self.gain_k <= 0.0 or self.max_offset_m <= 0.0:
            raise ValueError("gain_k and max_offset_m must be > 0")
        if self.update_period_s <= 0.0 or self.reference_speed_floor_mps <= 0.0:
            raise ValueError("update_period_s and reference_speed_floor_mps must be > 0")


def calc_intermediate_wp(
    goal: Waypoint,
    pos: GeoPoint,
    effect_x: float,
    effect_y: float,
    cfg: AugmentConfig,
    reference_speed: float | None = None,
) -> GeoPoint:
    """Place the intermediate waypoint for the current goal, seen from a
    vehicle at pos.

    The predicted drift per meter of travel is the drift velocity divided
    by the commanded ground speed; the offset opposes it, scaled by the
    distance still to go and clamped to max_offset_m. With zero predicted
    effect the result is the goal itself, exactly.

    reference_speed should be the speed actually commanded to the inner
    loop (the deficit-adjusted one): the offset is a travel-time triangle,
    and the travel time is set by the speed the vehicle will really make
    good. It defaults to the goal's spd_target when no adjustment applies.
    """
    if not (math.isfinite(effect_x) and math.isfinite(effect_y)):
        raise ValueError(f"non-finite effect components ({effect_x}, {effect_y})")
    if effect_x == 0.0 and effect_y == 0.0:
        return goal.pos
    d_t = distance(pos, goal.pos)
    if reference_speed is None:
        reference_speed = goal.spd_target
    ref_speed = max(reference_speed, cfg.reference_speed_floor_mps)
    off_e = -cfg.gain_k * d_t * effect_x / ref_speed
    off_n = -cfg.gain_k * d_t * effect_y / ref_speed
    magnitude = math.hypot(off_e, off_n)
    if magnitude > cfg.max_offset_m:
        scale = cfg.max_offset_m / magnitude
        off_e *= scale
        off_n *= scale
    return offset_point(goal.pos, EnuVector(off_e, off_n))


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


def augmented_navigator_step(
    pos: GeoPoint,
    spd_t: float,
    h_t: float,
    t: float,
    mission: Sequence[Waypoint],
    index: int,
    line: Optional[Line],
    heading_pid: PidFloats,
    speed_pid: PidFloats,
    intermediate: Optional[Waypoint],
    next_update_t: float,
    model,
    force: tuple[float, float, float, float],
    cfg: AugmentConfig = AugmentConfig(),
    gains: NavGains = DEFAULT_GAINS,
    params: VehicleParams = VehicleParams(),
    dt: float = DEFAULT_DT,
    radius: float = DEFAULT_ACCEPT_RADIUS,
) -> tuple[float, float, int, Optional[Line], PidFloats, PidFloats, Optional[Waypoint], float]:
    """One control step of the feed-forward augmented navigator, for a
    vehicle at pos with ground speed spd_t and heading h_t at time t, and
    the absolute forces as (spd_c, dir_c, spd_w, dir_w).

    The navigator's state is the active waypoint index, the tracking line
    from where the held intermediate target was issued to it, both PID
    states, the held target and the time of the next update; a fresh one
    is (0, None, FRESH_PID, FRESH_PID, None, -inf). Every update_period_s
    (and immediately after a waypoint advance) the pipeline runs: predict
    -> intermediate waypoint -> adjusted speed. Between updates the last
    intermediate target is held. The inner PID step is the baseline's
    steer_toward, pointed at the intermediate target, while mission
    advancement is judged against the true goals, so a zero-effect model
    reproduces the baseline bit for bit. Returns the clamped (thrust,
    rudder) and the new state; index == len(mission) once the mission is
    complete, with an all-zero command and no held target.
    """
    if not mission:
        raise ValueError("mission must contain at least one waypoint")
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    lat, lon = pos.lat, pos.lon
    reached = _advance(lat, lon, mission, index, radius)
    if reached != index:
        # New true goal: both integrators restart, the held target is
        # dropped and refreshed right away.
        index = reached
        heading_pid = speed_pid = FRESH_PID
        line, intermediate, next_update_t = None, None, -math.inf
    if index >= len(mission):
        return 0.0, 0.0, index, None, heading_pid, speed_pid, None, -math.inf

    if intermediate is None or t >= next_update_t:
        # The feed-forward update: predict -> adjusted speed -> intermediate
        # waypoint.
        goal = mission[index]
        drift_e, drift_n, deficit = model.predict(*force, goal.spd_target, h_t)
        spd = adjusted_speed(_denoise(deficit), goal.spd_target, params)
        aim = calc_intermediate_wp(goal, pos, _denoise(drift_e), _denoise(drift_n), cfg,
                                   reference_speed=spd)
        refreshed = Waypoint(aim, spd)
        # Re-anchor only when the target actually moved; an unchanged target
        # keeps the established tracking line (and keeps a zero-effect model
        # bit-identical to the baseline). A moved target is a fresh goto for
        # the inner navigator, so its heading integrator restarts too:
        # steady-state compensation belongs to the feed-forward path, not to
        # integral windup fighting it.
        if refreshed != intermediate:
            intermediate, line = refreshed, tracking_line(pos, refreshed.pos)
            heading_pid = FRESH_PID
        next_update_t = t + cfg.update_period_s
    if line is None:
        line = tracking_line(pos, intermediate.pos)
    thrust, rudder, heading_pid, speed_pid = steer_toward(
        lat, lon, h_t, spd_t, intermediate, line, gains, heading_pid, speed_pid, dt
    )
    return thrust, rudder, index, line, heading_pid, speed_pid, intermediate, next_update_t
