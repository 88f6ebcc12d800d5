"""The waypoint navigator's parts: PID loops, waypoint acceptance, the
tracking line and steering at a lookahead point on it.

This mirrors a stock autopilot's behavior: it regulates GPS ground speed,
points the compass heading at a spot on the line a fixed distance ahead,
and carries plain clamped-integrator PIDs tuned once in calm water. Its
weaknesses under current, especially running with it, are the point of
comparison for the feed-forward augmentation. augment.navigator_step puts
the parts together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .geo import (
    METERS_PER_DEG_LAT,
    MAX_LEG_METERS,
    GeoPoint,
    bearing_of,
    enu_coords,
    offset_coords,
    point_coords,
    unit_enu,
    wrap_angle,
)

DEFAULT_ACCEPT_RADIUS = 2.0


@dataclass(frozen=True)
class PidGains:
    """Gains plus the absolute clamp on the stored integral term."""

    kp: float
    ki: float
    kd: float
    i_clamp: float

    def __post_init__(self):
        if not all(0.0 <= g < math.inf for g in (self.kp, self.ki, self.kd)):
            raise ValueError("gains must be >= 0 and finite")
        if not 0.0 < self.i_clamp < math.inf:
            raise ValueError("i_clamp must be > 0 and finite")


# A PID state: (integral, prev_error). The integral term is already scaled
# by ki; prev_error is None before the first update.
PidFloats = tuple[float, Optional[float]]
FRESH_PID: PidFloats = (0.0, None)


def pid_step(gains: PidGains, state: PidFloats, error: float, dt: float) -> tuple[float, PidFloats]:
    """One PID update; returns (output, new state).

    The integral term accumulates ki * error * dt and is clamped to
    +/- i_clamp. The derivative is zero on the first call.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    integral, prev_error = state
    integral = integral + gains.ki * error * dt
    # min(i_clamp, max(-i_clamp, integral)) as comparisons
    i_clamp = gains.i_clamp
    integral = integral if integral > -i_clamp else -i_clamp
    integral = integral if integral < i_clamp else i_clamp
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
        if not 0.0 < self.lookahead_m < math.inf:
            raise ValueError("lookahead_m must be > 0 and finite")


# Frozen defaults, tuned once in calm water and used for every scenario.
DEFAULT_GAINS = NavGains(
    heading=PidGains(kp=0.6, ki=0.2, kd=0.0, i_clamp=0.3),
    speed=PidGains(kp=0.5, ki=0.3, kd=0.0, i_clamp=0.9),
)


def waypoint_reached(lat: float, lon: float, wp: Waypoint, radius: float) -> bool:
    """True once a vehicle at (lat, lon) is within radius of the waypoint
    (inclusive)."""
    if radius <= 0.0:
        raise ValueError(f"radius must be > 0, got {radius!r}")
    return math.hypot(*enu_coords(lat, lon, wp.pos.lat, wp.pos.lon)) <= radius


# A tracking line: its anchor's lat and lon, then the length (m) and
# (east, north) unit vector of the anchor->target leg.
Line = tuple[float, float, float, float, float]


def tracking_line(lat: float, lon: float, target: GeoPoint) -> Line:
    """The tracking line from an anchor at (lat, lon) to target. It holds
    for many ticks: callers work it out once per (anchor, target)."""
    east, north = enu_coords(lat, lon, target.lat, target.lon)
    ue, un = unit_enu(bearing_of(east, north))
    return lat, lon, math.hypot(east, north), ue, un


def aim_point(lat: float, lon: float, target: GeoPoint, line: Line,
              lookahead_m: float) -> tuple[float, float]:
    """Coordinates of the point a vehicle at (lat, lon) steers at: on the
    tracking line to target, lookahead_m ahead of the vehicle's
    along-track projection (never past the target itself)."""
    anchor_lat, anchor_lon, leg_len, ue, un = line
    east, north = enu_coords(anchor_lat, anchor_lon, lat, lon)
    along = east * ue + north * un
    ahead = along + lookahead_m
    ahead = leg_len if leg_len < ahead else ahead  # min(ahead, leg_len)
    if ahead <= 0.0:
        if leg_len < lookahead_m:
            return target.lat, target.lon
        ahead = lookahead_m
    elif ahead >= leg_len:
        return target.lat, target.lon
    # the coordinates of the GeoPoint displaced would return (ahead > 0,
    # so the offset is never zero)
    return point_coords(*offset_coords(anchor_lat, anchor_lon, ahead * ue, ahead * un))


def steer_toward(lat: float, lon: float, h_t: float, spd_t: float, target: Waypoint,
                 line: Line, gains: NavGains, heading_pid: PidFloats,
                 speed_pid: PidFloats, dt: float) -> tuple[float, float, PidFloats, PidFloats]:
    """PID step toward a target along its tracking line: bearing to the
    lookahead aim point drives the rudder, ground-speed error drives the
    thrust. No waypoint bookkeeping. Returns the clamped (thrust, rudder)
    and both PID states; pid_step rejects a dt <= 0.

    A tick's hot path: aim_point, the geodesy (enu_coords, offset_coords,
    point_coords, bearing_of and wrap_signed) and vehicle._clamped are
    written out here, bit for bit (tests/test_hot_path.py); a check that
    fails calls its helper to raise the helper's own message. Every angle
    wrapped is a float, so wrap_angle's + 0.0 would change no bit.
    """
    # aim_point(lat, lon, target.pos, line, gains.lookahead_m)
    pos, lookahead_m = target.pos, gains.lookahead_m
    anchor_lat, anchor_lon, leg_len, ue, un = line
    # enu_coords(anchor_lat, anchor_lon, lat, lon)
    dlon = lon - anchor_lon
    if dlon >= 180.0:
        dlon -= 360.0
    elif dlon < -180.0:
        dlon += 360.0
    east = dlon * METERS_PER_DEG_LAT * math.cos(math.radians(0.5 * (anchor_lat + lat)))
    north = (lat - anchor_lat) * METERS_PER_DEG_LAT
    along = east * ue + north * un
    ahead = along + lookahead_m
    ahead = leg_len if leg_len < ahead else ahead  # min(ahead, leg_len)
    if ahead <= 0.0:
        at_target = leg_len < lookahead_m
        ahead = lookahead_m
    else:
        at_target = ahead >= leg_len
    if at_target:
        aim_lat, aim_lon = pos.lat, pos.lon
    else:
        # point_coords(*offset_coords(anchor_lat, anchor_lon, ahead * ue,
        # ahead * un)): the coordinates of the GeoPoint displaced would
        # return (ahead > 0, so the offset is never zero)
        east, north = ahead * ue, ahead * un
        if math.hypot(east, north) >= MAX_LEG_METERS:
            offset_coords(anchor_lat, anchor_lon, east, north)
        aim_lat = anchor_lat + north / METERS_PER_DEG_LAT
        mid_lat = 0.5 * (anchor_lat + aim_lat)
        aim_lon = anchor_lon + east / (METERS_PER_DEG_LAT * math.cos(math.radians(mid_lat)))
        if not (-90.0 <= aim_lat <= 90.0 and math.isfinite(aim_lon)):
            point_coords(aim_lat, aim_lon)
        aim_lon = (aim_lon + 180.0) % 360.0 - 180.0
        if aim_lon == 180.0:
            aim_lon = -180.0
    # enu_coords(lat, lon, aim_lat, aim_lon)
    dlon = aim_lon - lon
    if dlon >= 180.0:
        dlon -= 360.0
    elif dlon < -180.0:
        dlon += 360.0
    east = dlon * METERS_PER_DEG_LAT * math.cos(math.radians(0.5 * (lat + aim_lat)))
    north = (aim_lat - lat) * METERS_PER_DEG_LAT
    # wrap_signed(bearing_of(east, north) - h_t)
    if east == 0.0 and north == 0.0:
        heading_error = 0.0
    else:
        heading_error = math.degrees(math.atan2(east, north))
        if not heading_error > 0.0:
            if not math.isfinite(heading_error):
                wrap_angle(heading_error)
            heading_error %= 360.0
            if heading_error == 360.0:
                heading_error = 0.0
    heading_error = heading_error - h_t
    if not 0.0 < heading_error < 360.0:
        if not math.isfinite(heading_error):
            wrap_angle(heading_error)
        heading_error %= 360.0
        if heading_error == 360.0:
            heading_error = 0.0
    if heading_error > 180.0:
        heading_error = heading_error - 360.0
    rudder, heading_pid = pid_step(gains.heading, heading_pid, heading_error, dt)

    speed_error = target.spd_target - spd_t
    thrust, speed_pid = pid_step(gains.speed, speed_pid, speed_error, dt)
    # vehicle._clamped(thrust, rudder): min(1.0, max(0.0, x)) as
    # comparisons (see "Hot-path clamps" in the README); likewise for the
    # rudder
    if math.isfinite(thrust):
        thrust = thrust if thrust > 0.0 else 0.0
        thrust = thrust if thrust < 1.0 else 1.0
    if math.isfinite(rudder):
        rudder = rudder if rudder > -1.0 else -1.0
        rudder = rudder if rudder < 1.0 else 1.0
    return thrust, rudder, heading_pid, speed_pid
