"""Disturbance fields: profile math, grid interpolation, gusts."""

import hashlib
import math
import pickle

import numpy as np
import pytest

from asvnav.env import Environment, FieldSpec, ForceVector, GustSpec, LeftDomainError
from asvnav.geo import GeoPoint, bearing_of, displaced

ORIGIN = GeoPoint(34.0, -81.0)


def _speed_direction(field, p, t):
    """(speed, direction) of the field's flow at (p, t), from the east/north
    pair Environment.sample returns for it."""
    east, north = Environment(field, FieldSpec.calm()).sample(p.lat, p.lon, t)[:2]
    return math.hypot(east, north), bearing_of(east, north)


def test_uniform_field_everywhere():
    field = FieldSpec.uniform(0.677, 180.0)
    for point in (ORIGIN, displaced(ORIGIN, 500.0, -250.0)):
        for t in (0.0, 17.3, 1e4):
            speed, direction = _speed_direction(field, point, t)
            assert speed == 0.677
            assert direction == 180.0


def test_zero_wind_direction_convention():
    field = FieldSpec.uniform(0.0, 123.0)
    speed, direction = _speed_direction(field, ORIGIN, 5.0)
    assert speed == 0.0
    assert direction == 0.0


def _river(half_width=20.0, speed=1.0):
    # axis running north through the origin
    return FieldSpec.river_profile(
        axis_origin=ORIGIN, axis_bearing=0.0,
        centerline_speed=speed, centerline_direction=0.0, half_width_m=half_width,
    )


def test_river_profile_edge_is_zero():
    field = _river()
    edge = displaced(ORIGIN, 20.0, 0.0)
    assert _speed_direction(field, edge, 0.0)[0] == pytest.approx(0.0, abs=1e-12)


def test_river_profile_parabola():
    field = _river()
    off_axis = displaced(ORIGIN, 10.0, 0.0)
    speed, direction = _speed_direction(field, off_axis, 0.0)
    assert speed == pytest.approx(0.75, rel=1e-9)
    assert direction == pytest.approx(0.0)


def test_river_profile_beyond_edge_clamps_to_zero():
    field = _river()
    outside = displaced(ORIGIN, 35.0, 0.0)
    assert _speed_direction(field, outside, 0.0)[0] == 0.0


def test_gust_quarter_period_peak():
    field = FieldSpec.uniform(4.0, 90.0, gust=GustSpec(amplitude=1.0, period_s=60.0))
    assert _speed_direction(field, ORIGIN, 15.0)[0] == pytest.approx(5.0, rel=1e-12)


def test_gust_zero_at_t0():
    field = FieldSpec.uniform(4.0, 90.0, gust=GustSpec(amplitude=1.0, period_s=60.0))
    assert _speed_direction(field, ORIGIN, 0.0)[0] == pytest.approx(4.0, rel=1e-12)


def test_gust_amplitude_must_stay_below_base_speed():
    with pytest.raises(ValueError):
        FieldSpec.uniform(1.0, 0.0, gust=GustSpec(amplitude=1.0, period_s=30.0))


def _grid_field():
    speeds = [[0.5, 1.0, 1.5], [1.0, 2.0, 1.0], [0.5, 1.0, 0.5]]
    directions = [[10.0, 40.0, 90.0], [350.0, 20.0, 45.0], [300.0, 0.0, 180.0]]
    return FieldSpec.grid(
        lat0=33.99, lon0=-81.01, dlat=0.01, dlon=0.01,
        speeds=speeds, directions=directions,
    ), speeds, directions


def test_grid_reproduces_nodes():
    field, speeds, directions = _grid_field()
    for i in range(3):
        for j in range(3):
            p = GeoPoint(33.99 + 0.01 * i, -81.01 + 0.01 * j)
            speed, direction = _speed_direction(field, p, 0.0)
            assert speed == pytest.approx(speeds[i][j], abs=1e-12)
            if speeds[i][j] > 0:
                assert direction == pytest.approx(directions[i][j], abs=1e-9)


def test_grid_out_of_domain_names_point():
    field, _, _ = _grid_field()
    with pytest.raises(ValueError, match="outside grid"):
        _speed_direction(field, GeoPoint(34.5, -81.0), 0.0)


@pytest.mark.parametrize("make_field", [
    lambda: _river(),
    lambda: _grid_field()[0],
])
def test_speed_continuity_at_1cm_steps(make_field):
    field = make_field()
    rng = np.random.default_rng(5)
    for _ in range(50):
        base = displaced(ORIGIN, rng.uniform(-300, 300), rng.uniform(-300, 300))
        for de, dn in ((0.01, 0.0), (0.0, 0.01)):
            nearby = displaced(base, de, dn)
            jump = abs(
                _speed_direction(field, base, 0.0)[0]
                - _speed_direction(field, nearby, 0.0)[0]
            )
            assert jump < 1e-3


def test_environment_calm():
    environment = Environment.calm()
    assert _speed_direction(environment.current, ORIGIN, 0.0)[0] == 0.0
    assert _speed_direction(environment.wind, ORIGIN, 0.0)[0] == 0.0


def test_field_parameter_validation():
    with pytest.raises(ValueError):
        FieldSpec.river_profile(axis_origin=ORIGIN, axis_bearing=0.0,
                                centerline_speed=1.0, centerline_direction=0.0, half_width_m=0.0)
    with pytest.raises(ValueError):
        FieldSpec.grid(lat0=0.0, lon0=0.0, dlat=0.0, dlon=0.01,
                       speeds=[[1.0, 1.0], [1.0, 1.0]],
                       directions=[[0.0, 0.0], [0.0, 0.0]])
    # an infinite width, spacing or period is not a way to write a uniform
    # flow, one cell or no gust
    with pytest.raises(ValueError, match="half_width must be > 0, got inf"):
        FieldSpec.river_profile(ORIGIN, 0.0, 1.0, 0.0, math.inf)
    with pytest.raises(ValueError, match="grid spacing must be > 0"):
        FieldSpec.grid(0.0, 0.0, 0.01, math.inf, [[1.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="gust period must be > 0, got inf"):
        GustSpec(0.5, math.inf)


def test_force_vector_validation():
    with pytest.raises(ValueError):
        ForceVector(-0.1, 0.0)
    v = ForceVector(1.0, 450.0)
    assert v.direction == 90.0


def test_river_gust_scales_the_centerline():
    """A gust modulates the centerline speed; the profile still takes the
    flow to zero at the banks and keeps it along the axis."""
    field = FieldSpec.river_profile(
        axis_origin=ORIGIN, axis_bearing=150.0, centerline_speed=0.677, centerline_direction=150.0,
        half_width_m=20.0, gust=GustSpec(amplitude=0.5, period_s=40.0),
    )
    peak = 10.0
    ue, un = -0.8660254037844387, -0.5  # unit vector of bearing 240, across the axis
    speed, direction = _speed_direction(field, displaced(ORIGIN, 18.0 * ue, 18.0 * un), peak)
    assert speed == pytest.approx((0.677 + 0.5) * (1.0 - 0.9**2), rel=1e-6)
    assert direction == pytest.approx(150.0, abs=1e-6)
    bank = displaced(ORIGIN, 20.0 * ue, 20.0 * un)
    assert _speed_direction(field, bank, peak)[0] == pytest.approx(0.0, abs=1e-12)
    outside = displaced(ORIGIN, 25.0 * ue, 25.0 * un)
    assert _speed_direction(field, outside, peak)[0] == 0.0
    sample = Environment(field, FieldSpec.calm()).sample
    assert sample(outside.lat, outside.lon, peak) == (0.0, 0.0, 0.0, 0.0)


def test_uniform_and_grid_gusts_unchanged():
    """Gusted uniform and grid samples, pinned bit for bit (sha256 of the
    repr of their east/north flows) from before the one east/north
    sampling path."""
    uniform = FieldSpec.uniform(4.0, 90.0, gust=GustSpec(1.0, 60.0))
    grid = FieldSpec.grid(
        33.999, -81.001, 0.001, 0.001,
        [[0.5, 0.7, 0.6], [0.9, 0.8, 1.0], [0.6, 0.75, 0.55]],
        [[10.0, 30.0, 350.0], [80.0, 120.0, 200.0], [300.0, 45.0, 90.0]],
        gust=GustSpec(0.4, 9.0),
    )
    points = [ORIGIN, GeoPoint(34.00037, -80.99962), GeoPoint(33.99951, -81.00083)]
    samples = []
    for field in (uniform, grid):
        environment = Environment(field, FieldSpec.calm())
        for p in points:
            for t in (0.0, 2.25, 3.7, 15.0):
                samples.append(environment.sample(p.lat, p.lon, t)[:2])
    digest = hashlib.sha256(repr(samples).encode()).hexdigest()
    assert digest == "06ce3bed611944e996516da5b18d6a16900bc8b3318c2fb7fdb658a2eece4944"


def test_grid_out_of_domain_is_left_domain_error():
    field, _, _ = _grid_field()
    outside = GeoPoint(34.5, -81.0)
    with pytest.raises(LeftDomainError, match="outside grid"):
        _speed_direction(field, outside, 0.0)
    with pytest.raises(LeftDomainError):
        Environment(FieldSpec.calm(), field).sample(outside.lat, outside.lon, 0.0)


def test_grid_across_the_antimeridian_samples_east_of_180():
    """A grid whose columns cross 180 (lon0 179.9995, three columns 0.0005
    apart) samples the wrapped longitudes east of 180 inside it and still
    refuses points past either edge."""
    field = FieldSpec.grid(lat0=0.0, lon0=179.9995, dlat=0.001, dlon=0.0005,
                           speeds=[[0.5, 1.0, 1.5], [0.5, 1.0, 1.5]],
                           directions=[[10.0, 40.0, 90.0], [10.0, 40.0, 90.0]])
    west, at_180, east = (_speed_direction(field, GeoPoint(0.0, lon), 0.0)
                          for lon in (179.99999, -180.0, -179.9995))
    assert at_180 == pytest.approx((1.0, 40.0), abs=1e-6)  # the middle column
    assert east == pytest.approx((1.5, 90.0), abs=1e-6)  # the east edge
    assert 0.5 < west[0] < 1.0  # between the first two columns, as before
    # a point between the last two columns interpolates them
    speed, _ = _speed_direction(field, GeoPoint(0.0, -179.9997), 0.0)
    assert 1.0 < speed < 1.5
    for lon in (-179.999, 179.999):  # past the east edge, and west of lon0
        with pytest.raises(LeftDomainError, match="outside grid"):
            _speed_direction(field, GeoPoint(0.0, lon), 0.0)


def test_environment_pickles():
    field, _, _ = _grid_field()
    environment = Environment(field, FieldSpec.uniform(3.0, 20.0))
    again = pickle.loads(pickle.dumps(environment))
    assert again == environment
    assert again.sample(ORIGIN.lat, ORIGIN.lon, 2.0) == \
        environment.sample(ORIGIN.lat, ORIGIN.lon, 2.0)
