"""Local-plane geodesy: short-leg distances, bearings and point offsets.

All bearings are degrees clockwise from true north (marine convention).
The math is an equirectangular approximation, good to well under 0.1 %
for legs below 10 km, which keeps distance/offset exactly invertible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Meters per degree of latitude; longitude shrinks by cos(latitude).
METERS_PER_DEG_LAT = 111_194.9

# Beyond this the flat-plane approximation is no longer trustworthy.
MAX_LEG_METERS = 10_000.0


def wrap_angle(theta: float) -> float:
    """Wrap an angle in degrees into [0, 360)."""
    # exact: theta % 360.0 is theta itself on this open interval (+ 0.0
    # keeps the float result type for int input); -0.0, 360.0, NaN and
    # inf all fall through to the full path
    if 0.0 < theta < 360.0:
        return theta + 0.0
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    wrapped = theta % 360.0
    # float modulo can land exactly on 360.0 for tiny negative inputs
    return 0.0 if wrapped == 360.0 else wrapped


def wrap_signed(theta: float) -> float:
    """Wrap an angle in degrees into (-180, 180]."""
    wrapped = wrap_angle(theta)
    return wrapped - 360.0 if wrapped > 180.0 else wrapped


def unit_enu(bearing_deg: float) -> tuple[float, float]:
    """(east, north) unit vector of a compass bearing."""
    rad = math.radians(bearing_deg)
    return math.sin(rad), math.cos(rad)


def bearing_of(east: float, north: float) -> float:
    """Compass bearing of an (east, north) vector; 0.0 for the zero vector."""
    if east == 0.0 and north == 0.0:
        return 0.0
    deg = math.degrees(math.atan2(east, north))
    # atan2 gives at most 180 degrees, so a positive angle is already in
    # range: the value wrap_angle's fast path returns
    return deg if deg > 0.0 else wrap_angle(deg)


_set_field = object.__setattr__


@dataclass(frozen=True)
class GeoPoint:
    """WGS84-style position. lat in [-90, 90], lon wrapped to [-180, 180)."""

    lat: float
    lon: float

    def __init__(self, lat: float, lon: float):
        # one check and wrap; frozen, so the fields are set the way the
        # generated __init__ sets them
        lat, lon = point_coords(lat, lon)
        _set_field(self, "lat", lat)
        _set_field(self, "lon", lon)


def point_coords(lat: float, lon: float) -> tuple[float, float]:
    """GeoPoint's rules on plain floats: finite coordinates, latitude in
    [-90, 90], longitude wrapped to [-180, 180).

    The wrap is exact to repeat: a wrapped longitude wraps to itself.
    """
    if not (math.isfinite(lat) and math.isfinite(lon)):
        raise ValueError(f"non-finite coordinates ({lat}, {lon})")
    if not -90.0 <= lat <= 90.0:
        raise ValueError(f"latitude {lat} outside [-90, 90]")
    lon = (lon + 180.0) % 360.0 - 180.0
    if lon == 180.0:
        lon = -180.0
    return lat, lon


def enu_coords(lat_a: float, lon_a: float, lat_b: float, lon_b: float) -> tuple[float, float]:
    """East/north displacement (m) from point a to point b in the local plane.

    Longitude is scaled by the cosine of the midpoint latitude so the
    result is antisymmetric under swapping a and b, which makes ranges
    exactly symmetric.
    """
    mid_lat = 0.5 * (lat_a + lat_b)
    # branch-based wrap keeps dlon exactly antisymmetric under swapping a/b
    dlon = lon_b - lon_a
    if dlon >= 180.0:
        dlon -= 360.0
    elif dlon < -180.0:
        dlon += 360.0
    east = dlon * METERS_PER_DEG_LAT * math.cos(math.radians(mid_lat))
    north = (lat_b - lat_a) * METERS_PER_DEG_LAT
    return east, north


def enu_columns(lat_a, lon_a, lat_b, lon_b) -> tuple[np.ndarray, np.ndarray]:
    """enu_coords on columns: the east and north columns from each point a
    to its point b, bit for bit what enu_coords gives for each pair. The
    arguments are float columns of one length, or floats that stand for
    every row.

    numpy does only the + - * and the two dlon wrap branches; the cosine
    goes through math, because numpy's SIMD loops need not round
    transcendentals as math does on every host.
    """
    lat_a, lon_a, lat_b, lon_b = np.broadcast_arrays(
        *(np.asarray(x, dtype=np.float64) for x in (lat_a, lon_a, lat_b, lon_b))
    )
    mid_lat = 0.5 * (lat_a + lat_b)
    dlon = lon_b - lon_a
    dlon = np.where(dlon >= 180.0, dlon - 360.0, np.where(dlon < -180.0, dlon + 360.0, dlon))
    cos_mid = np.fromiter(map(math.cos, map(math.radians, mid_lat.tolist())), np.float64,
                          mid_lat.size)
    east = dlon * METERS_PER_DEG_LAT * cos_mid
    north = (lat_b - lat_a) * METERS_PER_DEG_LAT
    return east, north


def distance_bearing(a: GeoPoint, b: GeoPoint) -> tuple[float, float]:
    """Range (m) and compass bearing (deg) from a to b.

    Bearing is 0.0 when the points coincide.
    """
    east, north = enu_coords(a.lat, a.lon, b.lat, b.lon)
    return math.hypot(east, north), bearing_of(east, north)


def offset_coords(lat: float, lon: float, east: float, north: float) -> tuple[float, float]:
    """Coordinates of the point east/north meters from (lat, lon), as
    displaced computes them, before GeoPoint checks them and wraps the
    longitude (point_coords)."""
    magnitude = math.hypot(east, north)
    if magnitude >= MAX_LEG_METERS:
        raise ValueError(f"offset {magnitude:.1f} m exceeds {MAX_LEG_METERS:.0f} m")
    lat_b = lat + north / METERS_PER_DEG_LAT
    mid_lat = 0.5 * (lat + lat_b)
    return lat_b, lon + east / (METERS_PER_DEG_LAT * math.cos(math.radians(mid_lat)))


def displaced(origin: GeoPoint, east: float, north: float) -> GeoPoint:
    """Point displaced from origin by east/north meters; origin itself for
    a zero displacement.

    Inverse of enu_coords: uses the same midpoint-latitude longitude
    scaling, so enu_coords from origin to the result recovers the
    displacement exactly up to float rounding. A non-finite displacement
    raises ValueError, from the range check or from GeoPoint.
    """
    if east == 0.0 and north == 0.0:
        return origin
    return GeoPoint(*offset_coords(origin.lat, origin.lon, east, north))
