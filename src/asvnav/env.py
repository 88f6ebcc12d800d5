"""Ground-truth disturbance fields: current and wind as functions of position and time.

Directions follow the oceanographic current convention everywhere: the
compass direction the flow moves TOWARD. Fields are immutable and
sampling is pure, so they are safe to share between simulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geo import GeoPoint, bearing_of, enu_coords, point_coords, unit_enu, wrap_angle


@dataclass(frozen=True)
class ForceVector:
    """Flow magnitude (m/s) and the direction it moves toward (deg).

    Direction is reported as 0.0 when the speed is zero.
    """

    speed: float
    direction: float

    def __post_init__(self):
        if not math.isfinite(self.speed) or self.speed < 0.0:
            raise ValueError(f"speed must be finite and >= 0, got {self.speed!r}")
        object.__setattr__(self, "direction", _flow_direction(self.speed, self.direction))

    def enu(self) -> tuple[float, float]:
        """(east, north) velocity components in m/s."""
        ue, un = unit_enu(self.direction)
        return self.speed * ue, self.speed * un


def _flow_direction(speed: float, direction: float) -> float:
    """A flow's direction in [0, 360), or 0.0 for a still flow: it points
    nowhere."""
    return wrap_angle(direction) if speed > 0.0 else 0.0


@dataclass(frozen=True)
class GustSpec:
    """Sinusoidal speed modulation added on top of a field's base speed."""

    amplitude: float
    period_s: float

    def __post_init__(self):
        if self.amplitude < 0.0 or not math.isfinite(self.amplitude):
            raise ValueError(f"gust amplitude must be >= 0, got {self.amplitude!r}")
        if not 0.0 < self.period_s < math.inf:
            raise ValueError(f"gust period must be > 0, got {self.period_s!r}")


@dataclass(frozen=True)
class FieldSpec:
    """One disturbance field. Each kind is a subclass whose constructor
    parameters are its JSON keys, gust last: UniformField, RiverProfileField
    and GridField, also reached by their JSON "kind" tag as FieldSpec.uniform,
    FieldSpec.river_profile and FieldSpec.grid (FIELD_KINDS). Each kind
    checks its own rules."""

    @classmethod
    def calm(cls) -> "FieldSpec":
        """Zero flow everywhere."""
        return UniformField(0.0, 0.0)


@dataclass(frozen=True)
class UniformField(FieldSpec):
    """The same flow everywhere: speed (m/s) toward direction (deg). The
    direction is stored as ForceVector reports it: in [0, 360), 0.0 when
    still."""

    speed: float
    direction: float
    gust: Optional[GustSpec] = None

    def __post_init__(self):
        object.__setattr__(self, "direction", ForceVector(self.speed, self.direction).direction)
        _check_gust(self.gust, self.speed)


@dataclass(frozen=True)
class RiverProfileField(FieldSpec):
    """Channel whose speed decays parabolically off the centerline.

    The centerline runs through axis_origin along axis_bearing and carries
    centerline_speed toward centerline_direction; speed reaches zero at
    half_width_m meters to either side. Both angles are stored wrapped,
    the direction as ForceVector reports it.
    """

    axis_origin: GeoPoint
    axis_bearing: float
    centerline_speed: float
    centerline_direction: float
    half_width_m: float
    gust: Optional[GustSpec] = None

    def __post_init__(self):
        centerline = ForceVector(self.centerline_speed, self.centerline_direction)
        if not 0.0 < self.half_width_m < math.inf:
            raise ValueError(f"half_width must be > 0, got {self.half_width_m!r}")
        _check_gust(self.gust, centerline.speed)
        object.__setattr__(self, "axis_bearing", wrap_angle(self.axis_bearing))
        object.__setattr__(self, "centerline_direction", centerline.direction)


@dataclass(frozen=True)
class GridField(FieldSpec):
    """Regular lat/lon grid of flow vectors, bilinearly interpolated.

    Node [i][j] sits at (lat0 + i * dlat, lon0 + j * dlon); speeds and
    directions are stored as tuples of float rows. Interpolation happens on
    east/north components so sampled speed stays continuous across cells.
    """

    lat0: float
    lon0: float
    dlat: float
    dlon: float
    speeds: tuple[tuple[float, ...], ...]
    directions: tuple[tuple[float, ...], ...]
    gust: Optional[GustSpec] = None

    def __post_init__(self):
        point_coords(self.lat0, self.lon0)  # GeoPoint's rules; kept as given
        if not (0.0 < self.dlat < math.inf and 0.0 < self.dlon < math.inf):
            raise ValueError(f"grid spacing must be > 0, got dlat={self.dlat!r} dlon={self.dlon!r}")
        spd = np.asarray(self.speeds, dtype=float)
        dirs = np.asarray(self.directions, dtype=float)
        if spd.ndim != 2 or spd.shape != dirs.shape or min(spd.shape) < 2:
            raise ValueError("grid needs matching 2-D speed/direction arrays, at least 2x2")
        if np.any(spd < 0.0) or not np.all(np.isfinite(spd)) or not np.all(np.isfinite(dirs)):
            raise ValueError("grid nodes must be finite with non-negative speeds")
        _check_gust(self.gust, float(spd.min()))
        object.__setattr__(self, "speeds", tuple(map(tuple, spd.tolist())))
        object.__setattr__(self, "directions", tuple(map(tuple, dirs.tolist())))


# JSON "kind" tag -> field kind; FieldSpec.<tag> is the kind's class.
FIELD_KINDS = {"uniform": UniformField, "river_profile": RiverProfileField, "grid": GridField}
FieldSpec.uniform, FieldSpec.river_profile, FieldSpec.grid = FIELD_KINDS.values()


def _check_gust(gust: GustSpec | None, base_speed: float) -> None:
    # Gusts may never reverse the flow on their own.
    if gust is not None and gust.amplitude >= base_speed:
        raise ValueError(
            f"gust amplitude {gust.amplitude} must stay below base speed {base_speed}"
        )


class LeftDomainError(ValueError):
    """A point lies outside the domain a field is defined on."""


Sampler = Callable[[float, float, float], tuple[float, float]]

# (current east, current north, wind east, wind north) in m/s at one point
# and time: what Environment.sample returns once per tick, for sense and
# step to share.
Flows = tuple[float, float, float, float]


def _gust_term(gust: GustSpec, t: float) -> float:
    return gust.amplitude * math.sin(2.0 * math.pi * t / gust.period_s)


def _flow(speed: float, direction: float) -> tuple[float, float]:
    """(east, north) of a flow of speed >= 0 (m/s) toward direction in
    [0, 360) (deg): ForceVector(speed, direction).enu(), bit for bit."""
    if speed > 0.0:
        ue, un = unit_enu(direction)
        return speed * ue, speed * un
    return 0.0, 0.0  # ForceVector reports a still flow as direction 0


def _sampler(field: FieldSpec) -> Sampler:
    """(east, north) flow of the field at (lat, lon, t), gusts included,
    speed clamped at zero: each kind works out a speed and direction for
    _flow. What does not depend on (lat, lon, t) is worked out here, once
    per field, so a uniform field without a gust returns one value."""
    gust = field.gust
    if isinstance(field, UniformField):
        ue, un = unit_enu(field.direction)
        be, bn = field.speed * ue, field.speed * un
        base_speed, direction = math.hypot(be, bn), bearing_of(be, bn)
        if gust is None:
            value = _flow(base_speed, direction)
            return lambda lat, lon, t: value
        ue, un = unit_enu(direction)

        def gusted(lat: float, lon: float, t: float) -> tuple[float, float]:
            # _flow(speed, direction), the direction's unit vector worked out
            # once: the same bits
            speed = max(0.0, base_speed + _gust_term(gust, t))
            if speed > 0.0:
                return speed * ue, speed * un
            return 0.0, 0.0

        return gusted
    if isinstance(field, RiverProfileField):
        origin, half_width = field.axis_origin, field.half_width_m
        center_speed = field.centerline_speed
        ae, an = unit_enu(field.axis_bearing)
        ue, un = unit_enu(field.centerline_direction)

        def river(lat: float, lon: float, t: float) -> tuple[float, float]:
            east, north = enu_coords(origin.lat, origin.lon, lat, lon)
            lateral = east * an - north * ae  # signed distance off-axis
            factor = max(0.0, 1.0 - (lateral / half_width) ** 2)
            # the gust modulates the centerline speed, so the profile still
            # takes the flow to zero at the banks and keeps it on the axis
            speed = center_speed if gust is None else max(0.0, center_speed + _gust_term(gust, t))
            east = speed * ue * factor
            north = speed * un * factor
            return _flow(math.hypot(east, north), bearing_of(east, north))

        return river
    if isinstance(field, GridField):
        # node table as nested Python lists, nodes[i][j] = [east, north]:
        # plain doubles, indexed per tap without numpy scalars
        spd = np.array(field.speeds)
        rad = np.radians(np.array(field.directions))
        nodes = np.stack((spd * np.sin(rad), spd * np.cos(rad)), axis=-1).tolist()
        ni, nj = spd.shape
        lat0, lon0, dlat, dlon = field.lat0, field.lon0, field.dlat, field.dlon
        if not -180.0 <= lon0 < 180.0:
            # the vehicle's longitude is wrapped to [-180, 180); a lon0 given
            # on another turn of the globe is wrapped as point_coords wraps
            # it, and one already in range keeps its bits
            lon0 = point_coords(lat0, lon0)[1]
        edge_tol = 1e-9  # grid cells; absorbs float noise at the boundary nodes
        fi_max, fj_max = float(ni - 1), float(nj - 1)
        fi_out, fj_out = ni - 1 + edge_tol, nj - 1 + edge_tol
        i_max, j_max = ni - 2, nj - 2

        def grid(lat: float, lon: float, t: float) -> tuple[float, float]:
            fi = (lat - lat0) / dlat
            fj = (lon - lon0) / dlon
            if fi < -edge_tol or fj < -edge_tol or fi > fi_out or fj > fj_out:
                if fj < -edge_tol:
                    # west of lon0 may be east of 180 on a grid that crosses it
                    fj = (lon - lon0 + 360.0) / dlon
                if fi < -edge_tol or fj < -edge_tol or fi > fi_out or fj > fj_out:
                    raise LeftDomainError(f"point ({lat}, {lon}) outside grid field domain")
            # min(max(f, 0.0), f_max) and min(int(f), i_max) as comparisons
            fi = 0.0 if 0.0 > fi else fi
            fi = fi_max if fi_max < fi else fi
            fj = 0.0 if 0.0 > fj else fj
            fj = fj_max if fj_max < fj else fj
            i = int(fi)
            i = i_max if i_max < i else i
            j = int(fj)
            j = j_max if j_max < j else j
            wi = fi - i
            wj = fj - j
            vi = 1 - wi
            vj = 1 - wj
            row0, row1 = nodes[i], nodes[i + 1]
            c00, c01, c10, c11 = row0[j], row0[j + 1], row1[j], row1[j + 1]
            east = c00[0] * vi * vj + c10[0] * wi * vj + c01[0] * vi * wj + c11[0] * wi * wj
            north = c00[1] * vi * vj + c10[1] * wi * vj + c01[1] * vi * wj + c11[1] * wi * wj
            speed = math.hypot(east, north)
            if gust is not None:
                speed = max(0.0, speed + _gust_term(gust, t))
            # _flow(speed, bearing_of(east, north)), written out bit for bit
            # (tests/test_hot_path.py)
            if east == 0.0 and north == 0.0:
                direction = 0.0
            else:
                direction = math.degrees(math.atan2(east, north))
                if not direction > 0.0:
                    if not math.isfinite(direction):
                        wrap_angle(direction)
                    direction %= 360.0
                    if direction == 360.0:
                        direction = 0.0
            if speed > 0.0:
                rad = math.radians(direction)
                return speed * math.sin(rad), speed * math.cos(rad)
            return 0.0, 0.0

        return grid
    raise TypeError(f"not a field kind: {type(field).__name__}")


@dataclass(frozen=True)
class Environment:
    """The pair of fields a simulation runs in.

    Each field's sampler is built once, here, and the flows of a still pair
    too; sample() is what a simulation step calls.
    """

    current: FieldSpec
    wind: FieldSpec

    def __post_init__(self):
        current, wind = _sampler(self.current), _sampler(self.wind)
        object.__setattr__(self, "_current", current)
        object.__setattr__(self, "_wind", wind)
        # two uniform fields without a gust are still: their flows are one
        # tuple, worked out here (the samplers ignore lat, lon and t)
        still = all(isinstance(f, UniformField) and f.gust is None
                    for f in (self.current, self.wind))
        object.__setattr__(self, "_still",
                           (*current(0.0, 0.0, 0.0), *wind(0.0, 0.0, 0.0)) if still else None)

    def __reduce__(self):
        # the samplers are closures; pickle the fields and rebuild them
        return type(self), (self.current, self.wind)

    @classmethod
    def calm(cls) -> "Environment":
        return cls(FieldSpec.calm(), FieldSpec.calm())

    def sample(self, lat: float, lon: float, t: float) -> Flows:
        """(current east, current north, wind east, wind north) in m/s at
        (lat, lon) and time t. Raises LeftDomainError outside a grid field."""
        if self._still is not None:
            return self._still
        ce, cn = self._current(lat, lon, t)
        we, wn = self._wind(lat, lon, t)
        return ce, cn, we, wn
