"""Geodesy primitives: spec examples and round-trip properties."""

import math

import numpy as np
import pytest

from asvnav.geo import (
    METERS_PER_DEG_LAT,
    GeoPoint,
    bearing_of,
    displaced,
    distance_bearing,
    enu_columns,
    enu_coords,
    wrap_angle,
    wrap_signed,
)


def test_distance_bearing_identity():
    p = GeoPoint(34.0, -81.0)
    rng, brg = distance_bearing(p, p)
    assert rng == 0.0
    assert brg == 0.0


def test_distance_bearing_due_north():
    # 0.0009 deg of latitude at 111194.9 m/deg
    a = GeoPoint(34.0000, -81.0000)
    b = GeoPoint(34.0009, -81.0000)
    rng, brg = distance_bearing(a, b)
    assert rng == pytest.approx(0.0009 * METERS_PER_DEG_LAT, rel=1e-9)
    assert rng == pytest.approx(100.075, abs=0.01)
    assert brg == pytest.approx(0.0, abs=1e-9)


def test_bearing_due_east_round_trip():
    a = GeoPoint(34.0, -81.0)
    b = displaced(a, 100.0, 0.0)
    rng, brg = distance_bearing(a, b)
    assert brg == pytest.approx(90.0, abs=0.01)
    assert rng == pytest.approx(100.0, rel=1e-3)


def test_offset_point_zero_is_identity():
    p = GeoPoint(34.0, -81.0)
    assert displaced(p, 0.0, 0.0) is p


def test_offset_point_north_meters_per_degree():
    p = GeoPoint(34.0, -81.0)
    q = displaced(p, 0.0, 111.1949)
    assert q.lat == pytest.approx(34.001, abs=1e-12)
    assert q.lon == pytest.approx(-81.0, abs=1e-12)


def test_offset_distance_round_trip_random():
    rng = np.random.default_rng(7)
    origin_lats = rng.uniform(-60, 60, size=1000)
    origin_lons = rng.uniform(-179, 179, size=1000)
    radii = rng.uniform(1.0, 5000.0, size=1000)
    angles = rng.uniform(0, 2 * math.pi, size=1000)
    for lat, lon, r, ang in zip(origin_lats, origin_lons, radii, angles):
        origin = GeoPoint(lat, lon)
        target = displaced(origin, r * math.sin(ang), r * math.cos(ang))
        rng_back, brg_back = distance_bearing(origin, target)
        assert rng_back == pytest.approx(r, rel=1e-3)
        expected_brg = math.degrees(ang) % 360.0
        diff = abs(wrap_signed(brg_back - expected_brg))
        assert diff < 0.01


def test_range_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(500):
        lat = rng.uniform(-60, 60)
        lon = rng.uniform(-179, 179)
        a = GeoPoint(lat, lon)
        b = displaced(a, rng.uniform(-5000, 5000), rng.uniform(-5000, 5000))
        assert distance_bearing(a, b)[0] == distance_bearing(b, a)[0]


def test_wrap_angle_basics():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(360.0) == 0.0
    assert wrap_angle(-45.0) == 315.0
    assert wrap_angle(725.0) == pytest.approx(5.0)


def test_wrap_angle_idempotent():
    rng = np.random.default_rng(3)
    for theta in rng.uniform(-1e4, 1e4, size=200):
        w = wrap_angle(theta)
        assert 0.0 <= w < 360.0
        assert wrap_angle(w) == w


@pytest.mark.parametrize("theta, expected", [
    (-0.0, 0.0),
    (0.0, 0.0),
    (1e-300, 1e-300),
    (359.99999999999994, 359.99999999999994),
    (360.0, 0.0),
    (-1e-300, 0.0),
    (45, 45.0),
])
def test_wrap_angle_edge_cases(theta, expected):
    """Exact results, sign of zero and float type included, on both sides
    of the in-range fast path."""
    w = wrap_angle(theta)
    assert type(w) is float
    assert w == expected
    assert math.copysign(1.0, w) == 1.0


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), -float("inf")])
def test_wrap_angle_rejects_nan_and_inf(theta):
    with pytest.raises(ValueError, match="finite"):
        wrap_angle(theta)


def test_wrap_angle_rejects_non_finite():
    with pytest.raises(ValueError):
        wrap_angle(float("nan"))


def test_wrap_signed_range():
    assert wrap_signed(180.0) == 180.0
    assert wrap_signed(-180.0) == 180.0
    assert wrap_signed(-45.0) == -45.0
    assert wrap_signed(181.0) == pytest.approx(-179.0)


def test_geopoint_validation():
    with pytest.raises(ValueError):
        GeoPoint(91.0, 0.0)
    assert GeoPoint(0.0, 180.0).lon == -180.0
    assert GeoPoint(0.0, 540.0).lon == -180.0
    assert GeoPoint(0.0, -181.0).lon == 179.0


def test_longitude_wrap_idempotent():
    """A log stores wrapped coordinates and its records view wraps them
    again; that must give the same doubles."""
    rng = np.random.default_rng(4)
    edges = [-180.0, -179.99999999999997, -90.00000000000001, -1e-300, 0.0, 1e-300,
             89.99999999999999, 179.99999999999997, 180.0, 539.9999999999999]
    for lon in [*edges, *rng.uniform(-1e3, 1e3, size=2000), *rng.uniform(-1e-3, 1e-3, size=200)]:
        wrapped = GeoPoint(0.0, lon).lon
        assert -180.0 <= wrapped < 180.0
        assert repr(GeoPoint(0.0, wrapped).lon) == repr(wrapped)


def test_displaced_rejects_non_finite():
    p = GeoPoint(34.0, -81.0)
    with pytest.raises(ValueError, match="non-finite coordinates"):
        displaced(p, float("nan"), 0.0)
    with pytest.raises(ValueError, match="offset inf m exceeds"):
        displaced(p, float("inf"), 0.0)


def test_offset_point_rejects_long_legs():
    with pytest.raises(ValueError):
        displaced(GeoPoint(0.0, 0.0), 9000.0, 9000.0)


def test_bearing_of_zero_vector():
    assert bearing_of(0.0, 0.0) == 0.0


def test_enu_offset_antisymmetric():
    a = GeoPoint(34.0, -81.0)
    b = GeoPoint(34.02, -80.98)
    ab_e, ab_n = enu_coords(a.lat, a.lon, b.lat, b.lon)
    ba_e, ba_n = enu_coords(b.lat, b.lon, a.lat, a.lon)
    assert ab_e == -ba_e
    assert ab_n == -ba_n


def test_enu_columns_match_enu_coords_bit_for_bit():
    rng = np.random.default_rng(20)
    n = 100_000
    lat_a = rng.uniform(-89.0, 89.0, n)
    lon_a = rng.uniform(-180.0, 180.0, n)
    lat_b = np.clip(lat_a + rng.normal(0.0, 0.01, n), -90.0, 90.0)
    lon_b = lon_a + rng.normal(0.0, 0.01, n)
    # a fifth of the pairs straddle the antimeridian, each way round
    k = n // 5
    lon_a[:k] = np.where(np.arange(k) % 2, 179.995, -179.995) + rng.uniform(-0.004, 0.004, k)
    lon_b[:k] = np.where(np.arange(k) % 2, -179.995, 179.995) + rng.uniform(-0.004, 0.004, k)
    # and a few land exactly on the +/-180 degree wrap edges
    lon_a[k:k + 4] = (0.0, 0.0, -90.0, 90.0)
    lon_b[k:k + 4] = (180.0, -180.0, 90.0, -90.0)
    lon_b = np.remainder(lon_b + 180.0, 360.0) - 180.0
    east, north = enu_columns(lat_a, lon_a, lat_b, lon_b)
    expected = np.array([enu_coords(*pair) for pair in
                         zip(lat_a.tolist(), lon_a.tolist(), lat_b.tolist(), lon_b.tolist())])
    assert east.tobytes() == np.ascontiguousarray(expected[:, 0]).tobytes()
    assert north.tobytes() == np.ascontiguousarray(expected[:, 1]).tobytes()
    # floats stand for every row
    east, north = enu_columns(lat_a[:50], lon_a[:50], 34.0, -81.0)
    expected = [enu_coords(lat, lon, 34.0, -81.0)
                for lat, lon in zip(lat_a[:50].tolist(), lon_a[:50].tolist())]
    assert list(zip(east.tolist(), north.tolist())) == expected
