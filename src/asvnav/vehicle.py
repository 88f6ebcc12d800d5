"""Planar ASV kinematics with drift, plus the simulated onboard sensors.

First-order kinematic model: the yaw rate chases the rudder command
through a short lag, with authority that falls off with the water flow
over the steering surface; through-water speed relaxes toward the thrust
setting; the ground velocity is the through-water velocity plus the
current plus a small wind-drag fraction of the wind. The sensors report
what the physical instruments would: flow relative to the moving hull,
in the hull frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator

import numpy as np

from .env import Flows
from .geo import (
    MAX_LEG_METERS,
    METERS_PER_DEG_LAT,
    bearing_of,
    offset_coords,
    point_coords,
    unit_enu,
    wrap_angle,
)

# Simulation time step (s): the default, and the largest one step accepts.
DEFAULT_DT = 0.1
MAX_STEP_DT = 0.5
NOISE_BLOCK = 64  # ticks of sensor noise noise_draws takes from a generator at once

# The vehicle state as the closed loops hold it and step returns it:
# (lat, lon, spd_t, course_t, h_t, through_water_speed, t, turn_rate).
# spd_t/course_t describe the ground-track velocity (what GPS sees); h_t is
# the hull heading (what the compass sees), kept apart from course_t
# because drift decouples track from heading.
StateFloats = tuple[float, float, float, float, float, float, float, float]


def _check_state(spd_t: float, through_water_speed: float, t: float, turn_rate: float) -> None:
    """The checks on a state's speeds, time and turn rate: speeds >= 0,
    everything finite."""
    if spd_t < 0.0 or through_water_speed < 0.0:
        raise ValueError("speeds must be >= 0")
    if not (math.isfinite(spd_t) and math.isfinite(through_water_speed)
            and math.isfinite(t) and math.isfinite(turn_rate)):
        raise ValueError("non-finite state component")


def _check_dt(dt: float, name: str = "dt") -> None:
    if not 0.0 < dt <= MAX_STEP_DT:
        raise ValueError(f"{name} must be in (0, {MAX_STEP_DT}], got {dt!r}")


def _clamped(thrust: float, rudder: float) -> tuple[float, float]:
    """A command clamped to thrust [0, 1] and rudder [-1, 1]. Non-finite
    values pass through unclamped, for step to reject."""
    # min(1.0, max(0.0, x)) as comparisons, to the same bits (see
    # "Hot-path clamps" in the README); likewise for the rudder
    if math.isfinite(thrust):
        thrust = thrust if thrust > 0.0 else 0.0
        thrust = thrust if thrust < 1.0 else 1.0
    if math.isfinite(rudder):
        rudder = rudder if rudder > -1.0 else -1.0
        rudder = rudder if rudder < 1.0 else 1.0
    return thrust, rudder


def track_velocity(spd_t: float, course_t: float) -> tuple[float, float]:
    """(east, north) ground velocity of a ground speed and course: the
    velocity sense and relative_to_absolute take."""
    ue, un = unit_enu(course_t)
    return spd_t * ue, spd_t * un


@dataclass(frozen=True)
class VehicleParams:
    """Hull response parameters.

    max_water_speed defaults to 6.25 m/s (the 22.5 km/h gas hull).
    wind_drag_factor is the fraction of wind speed transferred to drift
    and is kept small so current stays the dominant disturbance.
    Steering only works when water flows over the steering surface:
    rudder authority falls off linearly below steerage_reference_speed
    (down to steerage_floor of full authority at zero way). This is what
    makes down-current running harder than up-current running when the
    speed loop regulates ground speed.
    """

    max_water_speed: float = 6.25
    thrust_time_constant: float = 3.0
    max_turn_rate: float = 30.0
    wind_drag_factor: float = 0.03
    steerage_reference_speed: float = 2.0
    steerage_floor: float = 0.1
    turn_time_constant: float = 1.0

    def __post_init__(self):
        if not all(0.0 < x < math.inf for x in (
                self.max_water_speed, self.thrust_time_constant, self.max_turn_rate)):
            raise ValueError("vehicle parameters must be positive and finite")
        if not 0.0 <= self.wind_drag_factor <= 0.2:
            raise ValueError(f"wind_drag_factor {self.wind_drag_factor} outside [0, 0.2]")
        if not (0.0 < self.steerage_reference_speed < math.inf
                and 0.0 <= self.steerage_floor <= 1.0):
            raise ValueError("steerage_reference_speed must be > 0 and steerage_floor in [0, 1]")
        if not 0.0 < self.turn_time_constant < math.inf:
            raise ValueError("turn_time_constant must be > 0 and finite")

    def steerage_effectiveness(self, through_water_speed: float) -> float:
        """Fraction of max_turn_rate available at a given water speed.

        Quadratic in speed below the reference (rudder force follows
        dynamic pressure), saturating at 1 above it.
        """
        fraction = (through_water_speed / self.steerage_reference_speed) ** 2
        # min(1.0, max(steerage_floor, fraction)) as comparisons
        floor = self.steerage_floor
        fraction = fraction if fraction > floor else floor
        return fraction if fraction < 1.0 else 1.0


@dataclass(frozen=True)
class NoiseSpec:
    """Additive zero-mean Gaussian noise on the flow sensors."""

    sigma_speed: float = 0.0
    sigma_dir: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.sigma_speed < math.inf and 0.0 <= self.sigma_dir < math.inf):
            raise ValueError("noise sigmas must be >= 0 and finite")


def step(lat: float, lon: float, h_t: float, through_water_speed: float, t: float,
         turn_rate: float, thrust: float, rudder: float, flows: Flows, params: VehicleParams,
         dt: float) -> StateFloats:
    """Advance the vehicle one fixed Euler step: the next
    (lat, lon, spd_t, course_t, h_t, through_water_speed, t, turn_rate).

    thrust and rudder are a command in range, as the navigator clamps it
    (_clamped); flows are the fields sampled at the state's own
    position and time. Heading integrates the lagged turn rate (commanded
    rate is rudder times the speed-scaled turn authority), through-water
    speed relaxes toward thrust * max_water_speed, and the position moves
    along the summed ground velocity as geo.displaced moves a point; the
    new position passes point_coords, moved or not. Deterministic:
    identical inputs give bit-identical outputs.

    A tick's hot path: the helpers named in the comments are written out
    here, bit for bit (tests/test_hot_path.py); a check that fails calls
    its helper to raise the helper's own message.
    """
    if not 0.0 < dt <= MAX_STEP_DT:
        _check_dt(dt)
    if not (math.isfinite(thrust) and math.isfinite(rudder)):
        raise ValueError(f"non-finite actuator command (thrust={thrust!r}, rudder={rudder!r})")
    # params.steerage_effectiveness(through_water_speed)
    fraction = (through_water_speed / params.steerage_reference_speed) ** 2
    floor = params.steerage_floor
    fraction = fraction if fraction > floor else floor
    fraction = fraction if fraction < 1.0 else 1.0
    turn_authority = params.max_turn_rate * fraction
    commanded_rate = rudder * turn_authority
    # yaw responds through a first-order lag: the hull cannot reverse a
    # turn instantaneously
    turn_rate = turn_rate + (commanded_rate - turn_rate) * (dt / params.turn_time_constant)
    # wrap_angle(h_t + turn_rate * dt); a float, so the fast path's + 0.0
    # would change no bit
    heading = h_t + turn_rate * dt
    if not 0.0 < heading < 360.0:
        if not math.isfinite(heading):
            wrap_angle(heading)
        heading %= 360.0
        if heading == 360.0:
            heading = 0.0
    target_tw = thrust * params.max_water_speed
    tw = through_water_speed + (target_tw - through_water_speed) * (
        dt / params.thrust_time_constant
    )

    # _ground_velocity(tw, heading, flows, params)
    ce, cn, we, wn = flows
    rad = math.radians(heading)
    drag = params.wind_drag_factor
    vg_e = tw * math.sin(rad) + ce + drag * we
    vg_n = tw * math.cos(rad) + cn + drag * wn
    east, north = vg_e * dt, vg_n * dt
    if east != 0.0 or north != 0.0:  # displaced's zero-move shortcut: a -0.0 latitude stays
        # offset_coords(lat, lon, east, north)
        if math.hypot(east, north) >= MAX_LEG_METERS:
            offset_coords(lat, lon, east, north)
        lat_b = lat + north / METERS_PER_DEG_LAT
        mid_lat = 0.5 * (lat + lat_b)
        lat, lon = lat_b, lon + east / (METERS_PER_DEG_LAT * math.cos(math.radians(mid_lat)))
    # point_coords(lat, lon): a point at rest is checked as a moved one; the
    # latitude range test fails on a non-finite latitude too
    if not (-90.0 <= lat <= 90.0 and math.isfinite(lon)):
        point_coords(lat, lon)
    lon = (lon + 180.0) % 360.0 - 180.0
    if lon == 180.0:
        lon = -180.0
    spd_t = math.hypot(vg_e, vg_n)
    # bearing_of(vg_e, vg_n)
    if vg_e == 0.0 and vg_n == 0.0:
        course_t = 0.0
    else:
        course_t = math.degrees(math.atan2(vg_e, vg_n))
        if not course_t > 0.0:
            if not math.isfinite(course_t):
                wrap_angle(course_t)
            course_t %= 360.0
            if course_t == 360.0:
                course_t = 0.0
    t = t + dt
    # _check_state(spd_t, tw, t, turn_rate)
    if spd_t < 0.0 or tw < 0.0 or not (math.isfinite(spd_t) and math.isfinite(tw)
                                       and math.isfinite(t) and math.isfinite(turn_rate)):
        _check_state(spd_t, tw, t, turn_rate)
    return lat, lon, spd_t, course_t, heading, tw, t, turn_rate


def steady_state(heading: float, water_speed: float, flows: Flows,
                 params: VehicleParams) -> tuple[float, float, float]:
    """(spd_t, course_t, h_t) at t=0 of a hull already moving at
    water_speed along heading, with the ground velocity the fields impose
    there (flows sampled at its position at t=0; no turn, no thrust lag).
    Checked as step checks a state."""
    vg_e, vg_n = _ground_velocity(water_speed, heading, flows, params)
    spd_t = math.hypot(vg_e, vg_n)
    course_t = bearing_of(vg_e, vg_n)
    _check_state(spd_t, water_speed, 0.0, 0.0)
    return spd_t, course_t, wrap_angle(heading)


def _ground_velocity(tw: float, heading: float, flows: Flows,
                     params: VehicleParams) -> tuple[float, float]:
    """(east, north) ground velocity: the through-water velocity along the
    heading plus the current plus the wind-drag fraction of the wind."""
    ce, cn, we, wn = flows
    he, hn = unit_enu(heading)
    return tw * he + ce + params.wind_drag_factor * we, tw * hn + cn + params.wind_drag_factor * wn


def noise_draws(noise: NoiseSpec,
                seed: int | np.random.Generator) -> Iterator[list[float] | None]:
    """The sensor-noise model, the one reader of a NoiseSpec's sigmas: each
    tick's offsets for sense, one row of rng.standard_normal((NOISE_BLOCK,
    4)) * (sigma_speed, sigma_dir, sigma_speed, sigma_dir), rng being
    np.random.default_rng(seed) (a Generator seed is drawn from as it is).
    A block holds the bits of one standard_normal(4) call a tick, as a
    generator fills arrays in order. None a tick, and no generator and no
    draws, for all-zero noise."""
    if not (noise.sigma_speed > 0.0 or noise.sigma_dir > 0.0):
        yield from repeat(None)
    rng = np.random.default_rng(seed)
    sigmas = (noise.sigma_speed, noise.sigma_dir, noise.sigma_speed, noise.sigma_dir)
    while True:
        yield from (rng.standard_normal((NOISE_BLOCK, 4)) * sigmas).tolist()


def sense(
    vg_e: float,
    vg_n: float,
    h_t: float,
    flows: Flows,
    offsets: list[float] | None = None,
) -> tuple[float, float, float, float]:
    """Read the simulated flow sensors of a hull with ground velocity
    (vg_e, vg_n) and heading h_t: (water speed, water direction, wind
    speed, wind direction), hull-relative, directions measured clockwise
    from the bow. GPS and compass read the state itself.

    flows are the fields sampled at the state's own position and time.
    The paddle wheel and anemometer physically measure flow relative to
    the moving hull, so both relative vectors subtract the ground
    velocity. offsets are the tick's sensor noise in the reading's order,
    as noise_draws hands them out, added to the readings; None reads the
    sensors without noise.

    Each reading is a world-frame vector's (speed, bearing_of(vector) -
    h_t wrapped by wrap_angle) in the hull frame, (0.0, 0.0) for a zero
    vector; a noisy direction is env._flow_direction of its noisy speed.
    Those helpers are written out here, bit for bit
    (tests/test_hot_path.py). A non-zero speed means a non-zero vector,
    so bearing_of's zero-vector test cannot fire, and every angle wrapped
    is a float, so wrap_angle's + 0.0 would change no bit.
    """
    ce, cn, we, wn = flows
    vec_e, vec_n = ce - vg_e, cn - vg_n
    water_spd = math.hypot(vec_e, vec_n)
    if water_spd == 0.0:
        water_dir = 0.0
    else:
        water_dir = math.degrees(math.atan2(vec_e, vec_n))
        if not water_dir > 0.0:
            if not math.isfinite(water_dir):
                wrap_angle(water_dir)
            water_dir %= 360.0
            if water_dir == 360.0:
                water_dir = 0.0
        water_dir = water_dir - h_t
        if not 0.0 < water_dir < 360.0:
            if not math.isfinite(water_dir):
                wrap_angle(water_dir)
            water_dir %= 360.0
            if water_dir == 360.0:
                water_dir = 0.0
    vec_e, vec_n = we - vg_e, wn - vg_n
    wind_spd = math.hypot(vec_e, vec_n)
    if wind_spd == 0.0:
        wind_dir = 0.0
    else:
        wind_dir = math.degrees(math.atan2(vec_e, vec_n))
        if not wind_dir > 0.0:
            if not math.isfinite(wind_dir):
                wrap_angle(wind_dir)
            wind_dir %= 360.0
            if wind_dir == 360.0:
                wind_dir = 0.0
        wind_dir = wind_dir - h_t
        if not 0.0 < wind_dir < 360.0:
            if not math.isfinite(wind_dir):
                wrap_angle(wind_dir)
            wind_dir %= 360.0
            if wind_dir == 360.0:
                wind_dir = 0.0
    if offsets is None:
        return water_spd, water_dir, wind_spd, wind_dir
    o_ws, o_wd, o_as, o_ad = offsets
    # max(0.0, speed) as comparisons: a noisy speed never reads below zero
    water_spd = water_spd + o_ws
    water_spd = water_spd if water_spd > 0.0 else 0.0
    wind_spd = wind_spd + o_as
    wind_spd = wind_spd if wind_spd > 0.0 else 0.0
    # _flow_direction(speed, direction + offset): the direction a noisy
    # speed above zero has, else 0.0
    if water_spd > 0.0:
        water_dir = water_dir + o_wd
        if not 0.0 < water_dir < 360.0:
            if not math.isfinite(water_dir):
                wrap_angle(water_dir)
            water_dir %= 360.0
            if water_dir == 360.0:
                water_dir = 0.0
    else:
        water_dir = 0.0
    if wind_spd > 0.0:
        wind_dir = wind_dir + o_ad
        if not 0.0 < wind_dir < 360.0:
            if not math.isfinite(wind_dir):
                wrap_angle(wind_dir)
            wind_dir %= 360.0
            if wind_dir == 360.0:
                wind_dir = 0.0
    else:
        wind_dir = 0.0
    return water_spd, water_dir, wind_spd, wind_dir


def relative_to_absolute(vg_e: float, vg_n: float, h_t: float, speed: float,
                         direction: float) -> tuple[float, float]:
    """Recover one absolute flow from its hull-relative reading: its
    world-frame (speed, direction).

    Exact inverse of sense at zero noise: the hull-frame vector is rotated
    back by the heading and the ground velocity is added.

    unit_enu(wrap_angle(direction + h_t)) and bearing_of are written out
    here, bit for bit (tests/test_hot_path.py). The wrapped angle only
    feeds math.radians, which takes an int as the float that wrap_angle's
    + 0.0 makes of it.
    """
    direction = direction + h_t
    if not 0.0 < direction < 360.0:
        if not math.isfinite(direction):
            wrap_angle(direction)
        direction %= 360.0
        if direction == 360.0:
            direction = 0.0
    rad = math.radians(direction)
    vec_e = speed * math.sin(rad) + vg_e
    vec_n = speed * math.cos(rad) + vg_n
    spd = math.hypot(vec_e, vec_n)
    if vec_e == 0.0 and vec_n == 0.0:
        return spd, 0.0
    deg = math.degrees(math.atan2(vec_e, vec_n))
    if not deg > 0.0:
        if not math.isfinite(deg):
            wrap_angle(deg)
        deg %= 360.0
        if deg == 360.0:
            deg = 0.0
    return spd, deg
