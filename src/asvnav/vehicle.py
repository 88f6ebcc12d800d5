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

from .effects import ForceSample
from .env import Environment, ForceVector, sample_field
from .geo import EnuVector, GeoPoint, bearing_of, offset_point, unit_enu, wrap_angle

MAX_STEP_DT = 0.5


@dataclass(frozen=True)
class AsvState:
    """Vehicle pose and speeds at one instant.

    spd_t/course_t describe the ground-track velocity (what GPS sees);
    h_t is the hull heading (what the compass sees). course_t is kept
    separately because drift decouples track from heading.
    """

    pos: GeoPoint
    spd_t: float
    course_t: float
    h_t: float
    through_water_speed: float
    t: float
    turn_rate: float = 0.0

    def __post_init__(self):
        if self.spd_t < 0.0 or self.through_water_speed < 0.0:
            raise ValueError("speeds must be >= 0")
        if not all(map(math.isfinite, (self.spd_t, self.through_water_speed, self.t, self.turn_rate))):
            raise ValueError("non-finite state component")
        object.__setattr__(self, "course_t", wrap_angle(self.course_t))
        object.__setattr__(self, "h_t", wrap_angle(self.h_t))

    def ground_velocity(self) -> tuple[float, float]:
        """(east, north) ground velocity in m/s."""
        ue, un = unit_enu(self.course_t)
        return self.spd_t * ue, self.spd_t * un

    @classmethod
    def at_rest(cls, pos: GeoPoint, heading: float, t: float = 0.0) -> "AsvState":
        return cls(pos=pos, spd_t=0.0, course_t=heading, h_t=heading,
                   through_water_speed=0.0, t=t)


@dataclass(frozen=True)
class ActuatorCommand:
    """Normalized thrust [0, 1] and rudder [-1, 1]; clamped on construction."""

    thrust: float
    rudder: float

    def __post_init__(self):
        if math.isfinite(self.thrust):
            object.__setattr__(self, "thrust", min(1.0, max(0.0, self.thrust)))
        if math.isfinite(self.rudder):
            object.__setattr__(self, "rudder", min(1.0, max(-1.0, self.rudder)))


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
        if min(self.max_water_speed, self.thrust_time_constant, self.max_turn_rate) <= 0.0:
            raise ValueError("vehicle parameters must be positive")
        if not 0.0 <= self.wind_drag_factor <= 0.2:
            raise ValueError(f"wind_drag_factor {self.wind_drag_factor} outside [0, 0.2]")
        if self.steerage_reference_speed <= 0.0 or not 0.0 <= self.steerage_floor <= 1.0:
            raise ValueError("steerage_reference_speed must be > 0 and steerage_floor in [0, 1]")
        if self.turn_time_constant <= 0.0:
            raise ValueError("turn_time_constant must be > 0")

    def steerage_effectiveness(self, through_water_speed: float) -> float:
        """Fraction of max_turn_rate available at a given water speed.

        Quadratic in speed below the reference (rudder force follows
        dynamic pressure), saturating at 1 above it.
        """
        fraction = (through_water_speed / self.steerage_reference_speed) ** 2
        return min(1.0, max(self.steerage_floor, fraction))


@dataclass(frozen=True)
class NoiseSpec:
    """Additive zero-mean Gaussian noise on the flow sensors."""

    sigma_speed: float = 0.0
    sigma_dir: float = 0.0

    def __post_init__(self):
        if self.sigma_speed < 0.0 or self.sigma_dir < 0.0:
            raise ValueError("noise sigmas must be >= 0")


@dataclass(frozen=True)
class SensorFrame:
    """One synchronized read of the onboard sensors.

    rel_water/rel_wind are flows relative to the hull, with directions
    measured clockwise from the bow.
    """

    rel_water: ForceVector
    rel_wind: ForceVector
    gps: GeoPoint
    gps_speed: float
    compass: float


def step(
    s: AsvState,
    cmd: ActuatorCommand,
    environment: Environment,
    params: VehicleParams,
    dt: float,
) -> AsvState:
    """Advance the vehicle one fixed Euler step.

    Heading integrates the lagged turn rate (commanded rate is rudder
    times the speed-scaled turn authority), through-water speed relaxes
    toward thrust * max_water_speed, and the position advances along the
    summed ground velocity. Deterministic: identical inputs give
    bit-identical outputs.
    """
    if not 0.0 < dt <= MAX_STEP_DT:
        raise ValueError(f"dt must be in (0, {MAX_STEP_DT}], got {dt!r}")
    if not (math.isfinite(cmd.thrust) and math.isfinite(cmd.rudder)):
        raise ValueError(f"non-finite actuator command {cmd!r}")

    turn_authority = params.max_turn_rate * params.steerage_effectiveness(s.through_water_speed)
    commanded_rate = cmd.rudder * turn_authority
    # yaw responds through a first-order lag: the hull cannot reverse a
    # turn instantaneously
    turn_rate = s.turn_rate + (commanded_rate - s.turn_rate) * (dt / params.turn_time_constant)
    heading = wrap_angle(s.h_t + turn_rate * dt)
    target_tw = cmd.thrust * params.max_water_speed
    tw = s.through_water_speed + (target_tw - s.through_water_speed) * (
        dt / params.thrust_time_constant
    )

    vg_e, vg_n = _ground_velocity(tw, heading, environment, s.pos, s.t, params)
    pos = offset_point(s.pos, EnuVector(vg_e * dt, vg_n * dt))
    return AsvState(
        pos=pos,
        spd_t=math.hypot(vg_e, vg_n),
        course_t=bearing_of(vg_e, vg_n),
        h_t=heading,
        through_water_speed=tw,
        t=s.t + dt,
        turn_rate=turn_rate,
    )


def steady_state(
    pos: GeoPoint,
    heading: float,
    water_speed: float,
    environment: Environment,
    params: VehicleParams,
) -> AsvState:
    """State at t=0 already moving at water_speed along heading, with the
    ground velocity the fields impose there (no turn, no thrust lag)."""
    vg_e, vg_n = _ground_velocity(water_speed, heading, environment, pos, 0.0, params)
    return AsvState(
        pos=pos,
        spd_t=math.hypot(vg_e, vg_n),
        course_t=bearing_of(vg_e, vg_n),
        h_t=heading,
        through_water_speed=water_speed,
        t=0.0,
    )


def _ground_velocity(
    tw: float,
    heading: float,
    environment: Environment,
    pos: GeoPoint,
    t: float,
    params: VehicleParams,
) -> tuple[float, float]:
    """(east, north) ground velocity: the through-water velocity along the
    heading plus the current plus the wind-drag fraction of the wind."""
    ce, cn = sample_field(environment.current, pos, t).enu()
    we, wn = sample_field(environment.wind, pos, t).enu()
    he, hn = unit_enu(heading)
    return tw * he + ce + params.wind_drag_factor * we, tw * hn + cn + params.wind_drag_factor * wn


def _to_hull_frame(vec_e: float, vec_n: float, heading: float) -> tuple[float, float]:
    """(speed, direction-from-bow) of a world-frame vector."""
    speed = math.hypot(vec_e, vec_n)
    if speed == 0.0:
        return 0.0, 0.0
    return speed, wrap_angle(bearing_of(vec_e, vec_n) - heading)


def sense(
    s: AsvState,
    environment: Environment,
    noise: NoiseSpec = NoiseSpec(),
    rng: np.random.Generator | None = None,
) -> SensorFrame:
    """Read the simulated sensors at the current state.

    The paddle wheel and anemometer physically measure flow relative to
    the moving hull, so both relative vectors subtract the ground
    velocity. Noise draws are taken in a fixed order (four per call) so
    runs stay reproducible for a given generator.
    """
    current = sample_field(environment.current, s.pos, s.t)
    wind = sample_field(environment.wind, s.pos, s.t)
    vg_e, vg_n = s.ground_velocity()
    ce, cn = current.enu()
    we, wn = wind.enu()

    water_spd, water_dir = _to_hull_frame(ce - vg_e, cn - vg_n, s.h_t)
    wind_spd, wind_dir = _to_hull_frame(we - vg_e, wn - vg_n, s.h_t)

    if rng is not None:
        draws = rng.standard_normal(4)
        water_spd = max(0.0, water_spd + draws[0] * noise.sigma_speed)
        water_dir = wrap_angle(water_dir + draws[1] * noise.sigma_dir)
        wind_spd = max(0.0, wind_spd + draws[2] * noise.sigma_speed)
        wind_dir = wrap_angle(wind_dir + draws[3] * noise.sigma_dir)
    elif noise.sigma_speed > 0.0 or noise.sigma_dir > 0.0:
        raise ValueError("noisy sensing requires an explicit rng")

    return SensorFrame(
        rel_water=ForceVector(water_spd, water_dir),
        rel_wind=ForceVector(wind_spd, wind_dir),
        gps=s.pos,
        gps_speed=s.spd_t,
        compass=s.h_t,
    )


def relative_to_absolute(frame: SensorFrame, s: AsvState) -> ForceSample:
    """Recover the absolute current and wind from a sensor frame.

    Exact inverse of sense at zero noise: each hull-frame relative vector
    is rotated back by the heading and the ground velocity is added.
    """
    vg_e, vg_n = s.ground_velocity()

    def absolute(rel: ForceVector) -> tuple[float, float]:
        ue, un = unit_enu(wrap_angle(rel.direction + s.h_t))
        vec_e = rel.speed * ue + vg_e
        vec_n = rel.speed * un + vg_n
        return math.hypot(vec_e, vec_n), bearing_of(vec_e, vec_n)

    spd_c, dir_c = absolute(frame.rel_water)
    spd_w, dir_w = absolute(frame.rel_wind)
    return ForceSample(spd_c=spd_c, dir_c=dir_c, spd_w=spd_w, dir_w=dir_w)
