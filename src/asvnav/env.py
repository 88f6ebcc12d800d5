"""Ground-truth disturbance fields: current and wind as functions of position and time.

Directions follow the oceanographic current convention everywhere: the
compass direction the flow moves TOWARD. Fields are immutable and
sampling is pure, so they are safe to share between simulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

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
        direction = wrap_angle(self.direction) if self.speed > 0.0 else 0.0
        object.__setattr__(self, "direction", direction)

    def enu(self) -> tuple[float, float]:
        """(east, north) velocity components in m/s."""
        ue, un = unit_enu(self.direction)
        return self.speed * ue, self.speed * un


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


@dataclass(frozen=True, eq=False)
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
    # grid (node arrays indexed [i_lat][j_lon])
    lat0: float = 0.0
    lon0: float = 0.0
    dlat: float = 0.0
    dlon: float = 0.0
    node_east: Optional[np.ndarray] = None
    node_north: Optional[np.ndarray] = None
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
        rad = np.radians(dirs)
        return cls(
            kind="grid",
            lat0=lat0,
            lon0=lon0,
            dlat=dlat,
            dlon=dlon,
            node_east=spd * np.sin(rad),
            node_north=spd * np.cos(rad),
            gust=gust,
        )

    @classmethod
    def calm(cls) -> "FieldSpec":
        """Zero flow everywhere."""
        return cls.uniform(ForceVector(0.0, 0.0))

    def __eq__(self, other):
        if not isinstance(other, FieldSpec):
            return NotImplemented
        scalar = ("kind", "base", "axis_origin", "axis_bearing", "half_width",
                  "lat0", "lon0", "dlat", "dlon", "gust")
        if any(getattr(self, name) != getattr(other, name) for name in scalar):
            return False
        for name in ("node_east", "node_north"):
            a, b = getattr(self, name), getattr(other, name)
            if (a is None) != (b is None):
                return False
            if a is not None and not np.array_equal(a, b):
                return False
        return True


def _check_gust(gust: GustSpec | None, base_speed: float) -> None:
    # Gusts may never reverse the flow on their own.
    if gust is not None and gust.amplitude >= base_speed:
        raise ValueError(
            f"gust amplitude {gust.amplitude} must stay below base speed {base_speed}"
        )


@dataclass(frozen=True)
class Environment:
    """The pair of fields a simulation runs in."""

    current: FieldSpec
    wind: FieldSpec

    @classmethod
    def calm(cls) -> "Environment":
        return cls(FieldSpec.calm(), FieldSpec.calm())


def _base_sample(field: FieldSpec, p: GeoPoint) -> tuple[float, float]:
    """Ungusted (east, north) flow components at p."""
    if field.kind == "uniform":
        return field.base.enu()
    if field.kind == "river_profile":
        offset = enu_offset(field.axis_origin, p)
        ue, un = unit_enu(field.axis_bearing)
        lateral = offset.east * un - offset.north * ue  # signed distance off-axis
        factor = max(0.0, 1.0 - (lateral / field.half_width) ** 2)
        be, bn = field.base.enu()
        return be * factor, bn * factor
    if field.kind == "grid":
        ni, nj = field.node_east.shape
        fi = (p.lat - field.lat0) / field.dlat
        fj = (p.lon - field.lon0) / field.dlon
        edge_tol = 1e-9  # grid cells; absorbs float noise at the boundary nodes
        if fi < -edge_tol or fj < -edge_tol or fi > ni - 1 + edge_tol or fj > nj - 1 + edge_tol:
            raise ValueError(f"point ({p.lat}, {p.lon}) outside grid field domain")
        fi = min(max(fi, 0.0), float(ni - 1))
        fj = min(max(fj, 0.0), float(nj - 1))
        i = min(int(fi), ni - 2)
        j = min(int(fj), nj - 2)
        wi = fi - i
        wj = fj - j
        east = (
            field.node_east[i, j] * (1 - wi) * (1 - wj)
            + field.node_east[i + 1, j] * wi * (1 - wj)
            + field.node_east[i, j + 1] * (1 - wi) * wj
            + field.node_east[i + 1, j + 1] * wi * wj
        )
        north = (
            field.node_north[i, j] * (1 - wi) * (1 - wj)
            + field.node_north[i + 1, j] * wi * (1 - wj)
            + field.node_north[i, j + 1] * (1 - wi) * wj
            + field.node_north[i + 1, j + 1] * wi * wj
        )
        return float(east), float(north)
    raise ValueError(f"unknown field kind {field.kind!r}")


def sample_field(field: FieldSpec, p: GeoPoint, t: float) -> ForceVector:
    """Flow at point p and time t, gusts included, speed clamped at zero."""
    east, north = _base_sample(field, p)
    speed = math.hypot(east, north)
    direction = bearing_of(east, north)
    if field.gust is not None:
        speed += field.gust.amplitude * math.sin(2.0 * math.pi * t / field.gust.period_s)
        speed = max(0.0, speed)
    return ForceVector(speed, direction)
