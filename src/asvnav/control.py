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
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .geo import (
    GeoPoint,
    bearing_of,
    enu_coords,
    offset_coords,
    point_coords,
    unit_enu,
    wrap_signed,
)
from .vehicle import ActuatorCommand, AsvState, _clamped

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
    _check_pid_dt(dt)
    output, (integral, prev_error) = _pid(gains, _pid_floats(state), error, dt)
    return output, PidState(integral=integral, prev_error=prev_error)


# PidState on plain floats: (integral, prev_error), prev_error None before
# the first update.
PidFloats = tuple[float, Optional[float]]
FRESH_PID: PidFloats = (0.0, None)


def _pid_floats(state: PidState) -> PidFloats:
    return state.integral, state.prev_error


def _check_pid_dt(dt: float) -> None:
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt!r}")


def _pid(gains: PidGains, state: PidFloats, error: float, dt: float) -> tuple[float, PidFloats]:
    """pid_step on plain floats, for a dt the caller has checked."""
    integral, prev_error = state
    integral = integral + gains.ki * error * dt
    integral = min(gains.i_clamp, max(-gains.i_clamp, integral))
    derivative = 0.0 if prev_error is None else (error - prev_error) / dt
    return gains.kp * error + integral + gains.kd * derivative, (integral, error)


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
    return _reached(s.pos.lat, s.pos.lon, wp, radius)


def _reached(lat: float, lon: float, wp: Waypoint, radius: float) -> bool:
    if radius <= 0.0:
        raise ValueError(f"radius must be > 0, got {radius!r}")
    return math.hypot(*enu_coords(lat, lon, wp.pos.lat, wp.pos.lon)) <= radius


def _advance(lat: float, lon: float, mission: Sequence[Waypoint], index: int,
             radius: float) -> int:
    """Index of the first waypoint from index on that a vehicle at
    (lat, lon) has not reached."""
    while index < len(mission) and _reached(lat, lon, mission[index], radius):
        index += 1
    return index


def mission_complete(nav: NavigatorState, mission: Sequence[Waypoint]) -> bool:
    return nav.active_wp_index >= len(mission)


# A tracking line: its anchor, then the length (m) and (east, north) unit
# vector of the anchor->target leg.
Line = tuple[GeoPoint, float, float, float]


def _line(anchor: GeoPoint, target: GeoPoint) -> Line:
    """The anchor->target tracking line. It holds for many ticks: callers
    work it out once per (anchor, target)."""
    east, north = enu_coords(anchor.lat, anchor.lon, target.lat, target.lon)
    ue, un = unit_enu(bearing_of(east, north))
    return anchor, math.hypot(east, north), ue, un


def _aim(lat: float, lon: float, target: GeoPoint, line: Optional[Line],
         lookahead_m: float) -> tuple[float, float]:
    """aim_point on plain floats, given the line from the anchor to target
    (None: no anchor): the aim point's coordinates."""
    if line is None:
        return target.lat, target.lon
    anchor, leg_len, ue, un = line
    east, north = enu_coords(anchor.lat, anchor.lon, lat, lon)
    along = east * ue + north * un
    ahead = min(along + lookahead_m, leg_len)
    if ahead <= 0.0:
        if leg_len < lookahead_m:
            return target.lat, target.lon
        ahead = lookahead_m
    elif ahead >= leg_len:
        return target.lat, target.lon
    # the coordinates of the GeoPoint offset_point would return (ahead > 0,
    # so the offset is never zero)
    return point_coords(*offset_coords(anchor.lat, anchor.lon, ahead * ue, ahead * un))


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
    return GeoPoint(*_aim(s.pos.lat, s.pos.lon, target, _line(anchor, target), lookahead_m))


def _steer(lat: float, lon: float, h_t: float, spd_t: float, target: Waypoint,
           line: Optional[Line], gains: NavGains, heading_pid: PidFloats,
           speed_pid: PidFloats, dt: float) -> tuple[float, float, PidFloats, PidFloats]:
    """steer_toward on plain floats, for a dt the caller has checked and
    the line from the anchor to target (None: no anchor). Returns the
    clamped (thrust, rudder) and both PID states."""
    aim_lat, aim_lon = _aim(lat, lon, target.pos, line, gains.lookahead_m)
    to_aim_e, to_aim_n = enu_coords(lat, lon, aim_lat, aim_lon)
    heading_error = wrap_signed(bearing_of(to_aim_e, to_aim_n) - h_t)
    rudder, heading_pid = _pid(gains.heading, heading_pid, heading_error, dt)

    speed_error = target.spd_target - spd_t
    thrust, speed_pid = _pid(gains.speed, speed_pid, speed_error, dt)
    return *_clamped(thrust, rudder), heading_pid, speed_pid


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
    _check_pid_dt(dt)
    line = None if anchor is None else _line(anchor, target.pos)
    thrust, rudder, heading_pid, speed_pid = _steer(
        s.pos.lat, s.pos.lon, s.h_t, s.spd_t, target, line, gains,
        _pid_floats(nav.heading_pid), _pid_floats(nav.speed_pid), dt,
    )
    return ActuatorCommand(thrust, rudder), NavigatorState(
        nav.active_wp_index, PidState(*heading_pid), PidState(*speed_pid), nav.track_origin
    )


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
    _check_pid_dt(dt)
    index, origin = nav.active_wp_index, nav.track_origin
    line = None if origin is None or index >= len(mission) else _line(origin, mission[index].pos)
    thrust, rudder, reached, line, heading_pid, speed_pid = _navigate(
        s.pos, s.spd_t, s.h_t, mission, index, line, _pid_floats(nav.heading_pid),
        _pid_floats(nav.speed_pid), gains, dt, radius,
    )
    if line is not None:
        origin = line[0]
    elif reached != index:
        origin = s.pos
    return ActuatorCommand(thrust, rudder), NavigatorState(
        reached, PidState(*heading_pid), PidState(*speed_pid), origin
    )


def _navigate(pos: GeoPoint, spd_t: float, h_t: float, mission: Sequence[Waypoint],
              index: int, line: Optional[Line], heading_pid: PidFloats, speed_pid: PidFloats,
              gains: NavGains, dt: float,
              radius: float) -> tuple[float, float, int, Optional[Line], PidFloats, PidFloats]:
    """navigator_step on plain floats, for a dt the caller has checked.

    The state is the active waypoint index, the tracking line (None until
    the waypoint is first steered at) and both PID states. Returns the
    clamped (thrust, rudder) and the new state; index == len(mission) once
    the mission is complete, with an all-zero command.
    """
    lat, lon = pos.lat, pos.lon
    reached = _advance(lat, lon, mission, index, radius)
    if reached != index:
        # a new goal: both integrators restart and the line re-anchors here
        index, line = reached, None
        heading_pid = speed_pid = FRESH_PID
    if index >= len(mission):
        return 0.0, 0.0, index, line, heading_pid, speed_pid
    target = mission[index]
    if line is None:
        line = _line(pos, target.pos)
    thrust, rudder, heading_pid, speed_pid = _steer(
        lat, lon, h_t, spd_t, target, line, gains, heading_pid, speed_pid, dt
    )
    return thrust, rudder, index, line, heading_pid, speed_pid
