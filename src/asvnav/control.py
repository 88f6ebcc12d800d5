"""Baseline waypoint navigator: heading and speed PID loops steering at a
lookahead point on the current leg.

This mirrors a stock autopilot's behavior: it regulates GPS ground speed,
points the compass heading at a spot on the line a fixed distance ahead,
and carries plain clamped-integrator PIDs tuned once in calm water. Its
weaknesses under current, especially running with it, are the point of
comparison for the feed-forward augmentation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from .geo import EnuVector, GeoPoint, distance_bearing, enu_offset, offset_point, unit_enu, wrap_signed
from .vehicle import ActuatorCommand, AsvState

DEFAULT_ACCEPT_RADIUS = 2.0


@dataclass(frozen=True)
class PidGains:
    """Gains plus the absolute clamp on the stored integral term."""

    kp: float
    ki: float
    kd: float
    i_clamp: float

    def __post_init__(self):
        if min(self.kp, self.ki, self.kd) < 0.0:
            raise ValueError("gains must be >= 0")
        if self.i_clamp <= 0.0:
            raise ValueError("i_clamp must be > 0")


@dataclass(frozen=True)
class PidState:
    """Integral term (already scaled by ki) and previous error."""

    integral: float = 0.0
    prev_error: Optional[float] = None


def pid_step(gains: PidGains, state: PidState, error: float, dt: float) -> tuple[float, PidState]:
    """One PID update; returns (output, new state).

    The integral term accumulates ki * error * dt and is clamped to
    +/- i_clamp. The derivative is zero on the first call.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    integral = state.integral + gains.ki * error * dt
    integral = min(gains.i_clamp, max(-gains.i_clamp, integral))
    derivative = 0.0 if state.prev_error is None else (error - state.prev_error) / dt
    output = gains.kp * error + integral + gains.kd * derivative
    return output, PidState(integral=integral, prev_error=error)


@dataclass(frozen=True)
class Waypoint:
    """Mission goal: a position and the ground speed to hold toward it."""

    pos: GeoPoint
    spd_target: float

    def __post_init__(self):
        if not math.isfinite(self.spd_target) or self.spd_target <= 0.0:
            raise ValueError(f"spd_target must be > 0, got {self.spd_target!r}")


@dataclass(frozen=True)
class NavGains:
    """Gain pair for the two control loops plus the guidance lookahead.

    lookahead_m is the distance ahead along the active leg at which the
    navigator aims, the same scheme the stock autopilot uses: short
    enough to hold the line, long enough not to chatter.
    """

    heading: PidGains
    speed: PidGains
    lookahead_m: float = 25.0

    def __post_init__(self):
        if self.lookahead_m <= 0.0:
            raise ValueError("lookahead_m must be > 0")


# Frozen defaults, tuned once in calm water and used for every scenario.
DEFAULT_GAINS = NavGains(
    heading=PidGains(kp=0.6, ki=0.2, kd=0.0, i_clamp=0.3),
    speed=PidGains(kp=0.5, ki=0.3, kd=0.0, i_clamp=0.9),
)


@dataclass(frozen=True)
class NavigatorState:
    """Waypoint progress and the two PID states, passed in and out.

    track_origin is the position the vehicle held when the current
    target was issued; the navigator holds the line from there to the
    target, the way the stock autopilot tracks the line from the point
    of waypoint acceptance.
    """

    active_wp_index: int = 0
    heading_pid: PidState = field(default_factory=PidState)
    speed_pid: PidState = field(default_factory=PidState)
    track_origin: Optional[GeoPoint] = None


def waypoint_reached(s: AsvState, wp: Waypoint, radius: float) -> bool:
    """True once the vehicle is within radius of the waypoint (inclusive)."""
    if radius <= 0.0:
        raise ValueError(f"radius must be > 0, got {radius!r}")
    rng, _ = distance_bearing(s.pos, wp.pos)
    return rng <= radius


def mission_complete(nav: NavigatorState, mission: Sequence[Waypoint]) -> bool:
    return nav.active_wp_index >= len(mission)


def advance_waypoints(
    s: AsvState,
    mission: Sequence[Waypoint],
    nav: NavigatorState,
    radius: float = DEFAULT_ACCEPT_RADIUS,
) -> NavigatorState:
    """Advance past any reached waypoints, resetting both integrators on
    each advance so stale integral state never leaks across legs. The
    tracking line re-anchors at the position where the advance happened."""
    while nav.active_wp_index < len(mission) and waypoint_reached(
        s, mission[nav.active_wp_index], radius
    ):
        nav = NavigatorState(active_wp_index=nav.active_wp_index + 1, track_origin=s.pos)
    return nav


def aim_point(
    s: AsvState,
    target: GeoPoint,
    anchor: Optional[GeoPoint],
    lookahead_m: float,
) -> GeoPoint:
    """Point the navigator steers at.

    With a leg anchor the aim point sits on the anchor->target line,
    lookahead_m ahead of the vehicle's along-track projection (never past
    the target itself). Without an anchor (first waypoint of a mission)
    the aim point is the target: plain pursuit of the goal.
    """
    if anchor is None:
        return target
    leg_len, leg_bearing = distance_bearing(anchor, target)
    ue, un = unit_enu(leg_bearing)
    rel = enu_offset(anchor, s.pos)
    along = rel.east * ue + rel.north * un
    ahead = min(along + lookahead_m, leg_len)
    if ahead <= 0.0:
        return target if leg_len < lookahead_m else offset_point(
            anchor, EnuVector(lookahead_m * ue, lookahead_m * un)
        )
    if ahead >= leg_len:
        return target
    return offset_point(anchor, EnuVector(ahead * ue, ahead * un))


def steer_toward(
    s: AsvState,
    target: Waypoint,
    nav: NavigatorState,
    gains: NavGains,
    dt: float,
    anchor: Optional[GeoPoint] = None,
) -> tuple[ActuatorCommand, NavigatorState]:
    """PID step toward a target: bearing to the lookahead aim point drives
    the rudder, ground-speed error drives the thrust. No waypoint
    bookkeeping."""
    _, bearing = distance_bearing(s.pos, aim_point(s, target.pos, anchor, gains.lookahead_m))
    heading_error = wrap_signed(bearing - s.h_t)
    rudder, heading_pid = pid_step(gains.heading, nav.heading_pid, heading_error, dt)

    speed_error = target.spd_target - s.spd_t
    thrust, speed_pid = pid_step(gains.speed, nav.speed_pid, speed_error, dt)

    cmd = ActuatorCommand(thrust=thrust, rudder=rudder)
    return cmd, replace(nav, heading_pid=heading_pid, speed_pid=speed_pid)


def navigator_step(
    s: AsvState,
    mission: Sequence[Waypoint],
    nav: NavigatorState,
    gains: NavGains = DEFAULT_GAINS,
    dt: float = 0.1,
    radius: float = DEFAULT_ACCEPT_RADIUS,
) -> tuple[ActuatorCommand, NavigatorState]:
    """One control step of the baseline navigator.

    Advances the active waypoint when reached (integrators reset), then
    steers at the lookahead point on the line to the active waypoint.
    Once the mission is exhausted the command is all-zero and the
    returned state reports completion via mission_complete().
    """
    if not mission:
        raise ValueError("mission must contain at least one waypoint")
    nav = advance_waypoints(s, mission, nav, radius)
    if mission_complete(nav, mission):
        return ActuatorCommand(0.0, 0.0), nav
    if nav.track_origin is None:
        nav = replace(nav, track_origin=s.pos)
    return steer_toward(s, mission[nav.active_wp_index], nav, gains, dt,
                        anchor=nav.track_origin)
