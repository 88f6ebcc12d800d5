"""Ground-truth disturbance fields: current and wind as functions of position and time.

Directions follow the oceanographic current convention everywhere: the
compass direction the flow moves TOWARD. Fields are immutable and
sampling is pure, so they are safe to share between simulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .geo import GeoPoint, bearing_of, enu_offset, unit_enu, wrap_angle

KINDS = ("uniform", "river_profile", "grid")


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
        if self.period_s <= 0.0:
            raise ValueError(f"gust period must be > 0, got {self.period_s!r}")


@dataclass(frozen=True)
class FieldSpec:
    """One disturbance field: uniform, a parabolic river profile, or a grid.

    Use the uniform/river_profile/grid classmethods; the raw constructor
    does not validate kind-specific parameters.
    """

    kind: str
    base: Optional[ForceVector] = None
    # river_profile
    axis_origin: Optional[GeoPoint] = None
    axis_bearing: float = 0.0
    half_width: float = 0.0
    # grid (node rows indexed [i_lat][j_lon], as the config gives them)
    lat0: float = 0.0
    lon0: float = 0.0
    dlat: float = 0.0
    dlon: float = 0.0
    speeds: Optional[tuple[tuple[float, ...], ...]] = None
    directions: Optional[tuple[tuple[float, ...], ...]] = None
    gust: Optional[GustSpec] = None

    @classmethod
    def uniform(cls, vector: ForceVector, gust: GustSpec | None = None) -> "FieldSpec":
        field = cls(kind="uniform", base=vector, gust=gust)
        _check_gust(gust, vector.speed)
        return field

    @classmethod
    def river_profile(
        cls,
        axis_origin: GeoPoint,
        axis_bearing: float,
        centerline: ForceVector,
        half_width: float,
        gust: GustSpec | None = None,
    ) -> "FieldSpec":
        """Channel whose speed decays parabolically off the centerline.

        The centerline runs through axis_origin along axis_bearing; speed
        reaches zero at half_width meters to either side.
        """
        if half_width <= 0.0:
            raise ValueError(f"half_width must be > 0, got {half_width!r}")
        _check_gust(gust, centerline.speed)
        return cls(
            kind="river_profile",
            base=centerline,
            axis_origin=axis_origin,
            axis_bearing=wrap_angle(axis_bearing),
            half_width=half_width,
            gust=gust,
        )

    @classmethod
    def grid(
        cls,
        lat0: float,
        lon0: float,
        dlat: float,
        dlon: float,
        speeds: Sequence[Sequence[float]],
        directions: Sequence[Sequence[float]],
        gust: GustSpec | None = None,
    ) -> "FieldSpec":
        """Regular lat/lon grid of flow vectors, bilinearly interpolated.

        Interpolation happens on east/north components so sampled speed
        stays continuous across cells.
        """
        if dlat <= 0.0 or dlon <= 0.0:
            raise ValueError(f"grid spacing must be > 0, got dlat={dlat!r} dlon={dlon!r}")
        spd = np.asarray(speeds, dtype=float)
        dirs = np.asarray(directions, dtype=float)
        if spd.ndim != 2 or spd.shape != dirs.shape or min(spd.shape) < 2:
            raise ValueError("grid needs matching 2-D speed/direction arrays, at least 2x2")
        if np.any(spd < 0.0) or not np.all(np.isfinite(spd)) or not np.all(np.isfinite(dirs)):
            raise ValueError("grid nodes must be finite with non-negative speeds")
        _check_gust(gust, float(spd.min()))
        return cls(
            kind="grid",
            lat0=lat0,
            lon0=lon0,
            dlat=dlat,
            dlon=dlon,
            speeds=tuple(map(tuple, spd.tolist())),
            directions=tuple(map(tuple, dirs.tolist())),
            gust=gust,
        )

    @classmethod
    def calm(cls) -> "FieldSpec":
        """Zero flow everywhere."""
        return cls.uniform(ForceVector(0.0, 0.0))


def _check_gust(gust: GustSpec | None, base_speed: float) -> None:
    # Gusts may never reverse the flow on their own.
    if gust is not None and gust.amplitude >= base_speed:
        raise ValueError(
            f"gust amplitude {gust.amplitude} must stay below base speed {base_speed}"
        )


class LeftDomainError(ValueError):
    """A point lies outside the domain a field is defined on."""


Sampler = Callable[[GeoPoint, float], tuple[float, float]]

# (current east, current north, wind east, wind north) in m/s at one point
# and time: what Environment.sample returns once per tick, for sense and
# step to share.
Flows = tuple[float, float, float, float]


def _gust_term(gust: GustSpec, t: float) -> float:
    return gust.amplitude * math.sin(2.0 * math.pi * t / gust.period_s)


def _polar_sampler(field: FieldSpec) -> Sampler:
    """(speed, direction) of the field at (p, t), gusts included, speed
    clamped at zero. Everything that does not depend on (p, t) is worked
    out here, once per field."""
    gust = field.gust
    if field.kind == "uniform":
        be, bn = field.base.enu()
        base_speed, direction = math.hypot(be, bn), bearing_of(be, bn)

        def uniform(p: GeoPoint, t: float) -> tuple[float, float]:
            if gust is None:
                return base_speed, direction
            return max(0.0, base_speed + _gust_term(gust, t)), direction

        return uniform
    if field.kind == "river_profile":
        origin, half_width, center_speed = field.axis_origin, field.half_width, field.base.speed
        ae, an = unit_enu(field.axis_bearing)
        ue, un = unit_enu(field.base.direction)

        def river(p: GeoPoint, t: float) -> tuple[float, float]:
            offset = enu_offset(origin, p)
            lateral = offset.east * an - offset.north * ae  # signed distance off-axis
            factor = max(0.0, 1.0 - (lateral / half_width) ** 2)
            # the gust modulates the centerline speed, so the profile still
            # takes the flow to zero at the banks and keeps it on the axis
            speed = center_speed if gust is None else max(0.0, center_speed + _gust_term(gust, t))
            east = speed * ue * factor
            north = speed * un * factor
            return math.hypot(east, north), bearing_of(east, north)

        return river
    if field.kind == "grid":
        # node table as nested Python lists, nodes[i][j] = [east, north]:
        # plain doubles, indexed per tap without numpy scalars
        spd = np.array(field.speeds)
        rad = np.radians(np.array(field.directions))
        nodes = np.stack((spd * np.sin(rad), spd * np.cos(rad)), axis=-1).tolist()
        ni, nj = spd.shape
        lat0, lon0, dlat, dlon = field.lat0, field.lon0, field.dlat, field.dlon
        edge_tol = 1e-9  # grid cells; absorbs float noise at the boundary nodes
        fi_max, fj_max = float(ni - 1), float(nj - 1)
        fi_out, fj_out = ni - 1 + edge_tol, nj - 1 + edge_tol
        i_max, j_max = ni - 2, nj - 2

        def grid(p: GeoPoint, t: float) -> tuple[float, float]:
            fi = (p.lat - lat0) / dlat
            fj = (p.lon - lon0) / dlon
            if fi < -edge_tol or fj < -edge_tol or fi > fi_out or fj > fj_out:
                raise LeftDomainError(f"point ({p.lat}, {p.lon}) outside grid field domain")
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
            return speed, bearing_of(east, north)

        return grid
    raise ValueError(f"unknown field kind {field.kind!r}")


def sample_field(field: FieldSpec, p: GeoPoint, t: float) -> ForceVector:
    """Flow at point p and time t, gusts included, speed clamped at zero.

    Raises LeftDomainError for a point outside a grid field.
    """
    return ForceVector(*_polar_sampler(field)(p, t))


def _field_sampler(field: FieldSpec) -> Sampler:
    """(east, north) flow components at (p, t), equal bit for bit to
    sample_field(field, p, t).enu(). A uniform field without a gust is
    constant, so its sampler returns a value computed once."""
    polar = _polar_sampler(field)
    if field.kind == "uniform" and field.gust is None:
        value = ForceVector(*polar(None, 0.0)).enu()  # uniform flow ignores p and t
        return lambda p, t: value

    def sampler(p: GeoPoint, t: float) -> tuple[float, float]:
        speed, direction = polar(p, t)
        if speed > 0.0:
            ue, un = unit_enu(direction)
            return speed * ue, speed * un
        return 0.0, 0.0  # ForceVector reports a still flow as direction 0

    return sampler


@dataclass(frozen=True)
class Environment:
    """The pair of fields a simulation runs in.

    Each field's sampler is built once, here, and the flows of a still pair
    too; sample() is what a simulation step calls.
    """

    current: FieldSpec
    wind: FieldSpec

    def __post_init__(self):
        current, wind = _field_sampler(self.current), _field_sampler(self.wind)
        object.__setattr__(self, "_current", current)
        object.__setattr__(self, "_wind", wind)
        # two uniform fields without a gust are still: their flows are one
        # tuple, worked out here (the samplers ignore p and t)
        still = all(f.kind == "uniform" and f.gust is None for f in (self.current, self.wind))
        object.__setattr__(self, "_still", (*current(None, 0.0), *wind(None, 0.0)) if still else None)

    def __reduce__(self):
        # the samplers are closures; pickle the fields and rebuild them
        return type(self), (self.current, self.wind)

    @classmethod
    def calm(cls) -> "Environment":
        return cls(FieldSpec.calm(), FieldSpec.calm())

    def sample(self, pos: GeoPoint, t: float) -> Flows:
        """(current east, current north, wind east, wind north) in m/s at
        pos and time t. Raises LeftDomainError outside a grid field."""
        if self._still is not None:
            return self._still
        ce, cn = self._current(pos, t)
        we, wn = self._wind(pos, t)
        return ce, cn, we, wn
