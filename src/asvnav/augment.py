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
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .control import (
    DEFAULT_ACCEPT_RADIUS,
    DEFAULT_GAINS,
    NavGains,
    NavigatorState,
    PidState,
    Waypoint,
    advance_waypoints,
    mission_complete,
    steer_toward,
)
from .effects import EffectPrediction, ForceSample
from .geo import EnuVector, GeoPoint, distance, offset_point
from .vehicle import ActuatorCommand, AsvState, VehicleParams

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


@dataclass(frozen=True)
class AugmentState:
    """Inner navigator state plus the held feed-forward target.

    intermediate is the synthetic goal handed to the inner navigator, a
    Waypoint like the mission's own. anchor is the position at which it
    was issued; the inner navigator tracks the anchor->target line. It
    only moves when the target itself changes, so a zero-effect model
    leaves the steering identical to the baseline's.
    """

    nav: NavigatorState = field(default_factory=NavigatorState)
    intermediate: Optional[Waypoint] = None
    next_update_t: float = -math.inf
    anchor: Optional[GeoPoint] = None


def calc_intermediate_wp(
    goal: Waypoint,
    s: AsvState,
    effect_x: float,
    effect_y: float,
    cfg: AugmentConfig,
    reference_speed: float | None = None,
) -> GeoPoint:
    """Place the intermediate waypoint for the current goal.

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
    d_t = distance(s.pos, goal.pos)
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
    s: AsvState,
    mission: Sequence[Waypoint],
    aug: AugmentState,
    model,
    force: ForceSample,
    cfg: AugmentConfig = AugmentConfig(),
    gains: NavGains = DEFAULT_GAINS,
    params: VehicleParams = VehicleParams(),
    dt: float = 0.1,
    radius: float = DEFAULT_ACCEPT_RADIUS,
) -> tuple[ActuatorCommand, AugmentState]:
    """One control step of the feed-forward augmented navigator.

    Every update_period_s (and immediately after a waypoint advance) the
    pipeline runs: predict -> intermediate waypoint -> adjusted speed.
    Between updates the last intermediate target is held. The inner PID
    step is identical to the baseline's, just pointed at the intermediate
    target, so a zero-effect model reproduces the baseline bit for bit.
    """
    if not mission:
        raise ValueError("mission must contain at least one waypoint")

    nav = advance_waypoints(s, mission, aug.nav, radius)
    if mission_complete(nav, mission):
        return ActuatorCommand(0.0, 0.0), AugmentState(nav=nav)

    if nav.active_wp_index != aug.nav.active_wp_index:
        # New true goal: drop the held target and refresh right away.
        intermediate, next_update_t, anchor = None, -math.inf, None
    else:
        intermediate, next_update_t, anchor = aug.intermediate, aug.next_update_t, aug.anchor

    goal = mission[nav.active_wp_index]
    if intermediate is None or s.t >= next_update_t:
        prediction: EffectPrediction = model.predict(force, goal.spd_target, s.spd_t, s.h_t)
        effect_spd = _denoise(prediction.effect_spd)
        effect_x = _denoise(prediction.effect_x)
        effect_y = _denoise(prediction.effect_y)
        spd = adjusted_speed(effect_spd, goal.spd_target, params)
        pos = calc_intermediate_wp(goal, s, effect_x, effect_y, cfg, reference_speed=spd)
        refreshed = Waypoint(pos, spd)
        # Re-anchor only when the target actually moved; an unchanged
        # target keeps the established tracking line (and keeps a
        # zero-effect model bit-identical to the baseline). A moved
        # target is a fresh goto for the inner navigator, so its heading
        # integrator restarts too: steady-state compensation belongs to
        # the feed-forward path, not to integral windup fighting it.
        if intermediate is None or refreshed != intermediate:
            intermediate = refreshed
            anchor = s.pos
            nav = NavigatorState(nav.active_wp_index, PidState(), nav.speed_pid, nav.track_origin)
        next_update_t = s.t + cfg.update_period_s

    if anchor is None:
        anchor = s.pos
    cmd, nav = steer_toward(s, intermediate, nav, gains, dt, anchor=anchor)
    return cmd, AugmentState(nav=nav, intermediate=intermediate,
                             next_update_t=next_update_t, anchor=anchor)
