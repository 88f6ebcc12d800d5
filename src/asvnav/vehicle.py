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

import numpy as np

from .env import Flows, _flow_direction
from .geo import GeoPoint, bearing_of, displaced, unit_enu, wrap_angle

# Simulation time step (s): the default, and the largest one step accepts.
DEFAULT_DT = 0.1
MAX_STEP_DT = 0.5

# The vehicle state as the closed loops hold it and step returns it:
# (pos, spd_t, course_t, h_t, through_water_speed, t, turn_rate).
# spd_t/course_t describe the ground-track velocity (what GPS sees); h_t is
# the hull heading (what the compass sees), kept apart from course_t
# because drift decouples track from heading.
StateFloats = tuple[GeoPoint, float, float, float, float, float, float]


def _check_state(spd_t: float, through_water_speed: float, t: float, turn_rate: float) -> None:
    """The checks on a state's speeds, time and turn rate: speeds >= 0,
    everything finite."""
    if spd_t < 0.0 or through_water_speed < 0.0:
        raise ValueError("speeds must be >= 0")
    if not (math.isfinite(spd_t) and math.isfinite(through_water_speed)
            and math.isfinite(t) and math.isfinite(turn_rate)):
        raise ValueError("non-finite state component")


def _check_dt(dt: float) -> None:
    if not 0.0 < dt <= MAX_STEP_DT:
        raise ValueError(f"dt must be in (0, {MAX_STEP_DT}], got {dt!r}")


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


def step(pos: GeoPoint, h_t: float, through_water_speed: float, t: float, turn_rate: float,
         thrust: float, rudder: float, flows: Flows, params: VehicleParams,
         dt: float) -> StateFloats:
    """Advance the vehicle one fixed Euler step: the next
    (pos, spd_t, course_t, h_t, through_water_speed, t, turn_rate).

    thrust and rudder are a command in range, as the navigator clamps it
    (_clamped); flows are the fields sampled at the state's own
    position and time. Heading integrates the lagged turn rate (commanded
    rate is rudder times the speed-scaled turn authority), through-water
    speed relaxes toward thrust * max_water_speed, and the position
    advances along the summed ground velocity. Deterministic: identical
    inputs give bit-identical outputs.
    """
    _check_dt(dt)
    if not (math.isfinite(thrust) and math.isfinite(rudder)):
        raise ValueError(f"non-finite actuator command (thrust={thrust!r}, rudder={rudder!r})")
    turn_authority = params.max_turn_rate * params.steerage_effectiveness(through_water_speed)
    commanded_rate = rudder * turn_authority
    # yaw responds through a first-order lag: the hull cannot reverse a
    # turn instantaneously
    turn_rate = turn_rate + (commanded_rate - turn_rate) * (dt / params.turn_time_constant)
    heading = wrap_angle(h_t + turn_rate * dt)
    target_tw = thrust * params.max_water_speed
    tw = through_water_speed + (target_tw - through_water_speed) * (
        dt / params.thrust_time_constant
    )

    vg_e, vg_n = _ground_velocity(tw, heading, flows, params)
    pos = displaced(pos, vg_e * dt, vg_n * dt)
    spd_t = math.hypot(vg_e, vg_n)
    course_t = bearing_of(vg_e, vg_n)
    t = t + dt
    _check_state(spd_t, tw, t, turn_rate)
    return pos, spd_t, course_t, heading, tw, t, turn_rate


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


def _to_hull_frame(vec_e: float, vec_n: float, heading: float) -> tuple[float, float]:
    """(speed, direction-from-bow) of a world-frame vector."""
    speed = math.hypot(vec_e, vec_n)
    if speed == 0.0:
        return 0.0, 0.0
    return speed, wrap_angle(bearing_of(vec_e, vec_n) - heading)


def sense(
    vg_e: float,
    vg_n: float,
    h_t: float,
    flows: Flows,
    noise: NoiseSpec = NoiseSpec(),
    rng: np.random.Generator | None = None,
) -> tuple[float, float, float, float]:
    """Read the simulated flow sensors of a hull with ground velocity
    (vg_e, vg_n) and heading h_t: (water speed, water direction, wind
    speed, wind direction), hull-relative, directions measured clockwise
    from the bow. GPS and compass read the state itself.

    flows are the fields sampled at the state's own position and time.
    The paddle wheel and anemometer physically measure flow relative to
    the moving hull, so both relative vectors subtract the ground
    velocity. Noise draws are taken in a fixed order (four per call) so
    runs stay reproducible for a given generator; all-zero noise takes
    none.
    """
    ce, cn, we, wn = flows
    water_spd, water_dir = _to_hull_frame(ce - vg_e, cn - vg_n, h_t)
    wind_spd, wind_dir = _to_hull_frame(we - vg_e, wn - vg_n, h_t)
    if rng is None or (noise.sigma_speed == 0.0 and noise.sigma_dir == 0.0):
        # zero noise would add d * 0.0 to each reading, which changes
        # nothing, so no draws are taken
        if noise.sigma_speed > 0.0 or noise.sigma_dir > 0.0:
            raise ValueError("noisy sensing requires an explicit rng")
        return water_spd, water_dir, wind_spd, wind_dir
    # read as Python floats: the same IEEE arithmetic as numpy scalars
    d_ws, d_wd, d_as, d_ad = rng.standard_normal(4).tolist()
    # max(0.0, speed) as comparisons: a noisy speed never reads below zero
    water_spd = water_spd + d_ws * noise.sigma_speed
    water_spd = water_spd if water_spd > 0.0 else 0.0
    wind_spd = wind_spd + d_as * noise.sigma_speed
    wind_spd = wind_spd if wind_spd > 0.0 else 0.0
    return (water_spd, _flow_direction(water_spd, water_dir + d_wd * noise.sigma_dir),
            wind_spd, _flow_direction(wind_spd, wind_dir + d_ad * noise.sigma_dir))


def relative_to_absolute(vg_e: float, vg_n: float, h_t: float, speed: float,
                         direction: float) -> tuple[float, float]:
    """Recover one absolute flow from its hull-relative reading: its
    world-frame (speed, direction).

    Exact inverse of sense at zero noise: the hull-frame vector is rotated
    back by the heading and the ground velocity is added.
    """
    ue, un = unit_enu(wrap_angle(direction + h_t))
    vec_e = speed * ue + vg_e
    vec_n = speed * un + vg_n
    return math.hypot(vec_e, vec_n), bearing_of(vec_e, vec_n)
