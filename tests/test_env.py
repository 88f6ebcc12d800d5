"""Disturbance fields: profile math, grid interpolation, gusts."""

import hashlib
import math
import pickle

import numpy as np
import pytest

from asvnav.env import Environment, FieldSpec, ForceVector, GustSpec, LeftDomainError, sample_field
from asvnav.geo import GeoPoint, displaced

ORIGIN = GeoPoint(34.0, -81.0)


def test_uniform_field_everywhere():
    field = FieldSpec.uniform(0.677, 180.0)
    for point in (ORIGIN, displaced(ORIGIN, 500.0, -250.0)):
        for t in (0.0, 17.3, 1e4):
            v = sample_field(field, point, t)
            assert v.speed == 0.677
            assert v.direction == 180.0


def test_zero_wind_direction_convention():
    field = FieldSpec.uniform(0.0, 123.0)
    v = sample_field(field, ORIGIN, 5.0)
    assert v.speed == 0.0
    assert v.direction == 0.0


def _river(half_width=20.0, speed=1.0):
    # axis running north through the origin
    return FieldSpec.river_profile(
        axis_origin=ORIGIN, axis_bearing=0.0,
        centerline_speed=speed, centerline_direction=0.0, half_width_m=half_width,
    )


def test_river_profile_edge_is_zero():
    field = _river()
    edge = displaced(ORIGIN, 20.0, 0.0)
    assert sample_field(field, edge, 0.0).speed == pytest.approx(0.0, abs=1e-12)


def test_river_profile_parabola():
    field = _river()
    off_axis = displaced(ORIGIN, 10.0, 0.0)
    v = sample_field(field, off_axis, 0.0)
    assert v.speed == pytest.approx(0.75, rel=1e-9)
    assert v.direction == pytest.approx(0.0)


def test_river_profile_beyond_edge_clamps_to_zero():
    field = _river()
    outside = displaced(ORIGIN, 35.0, 0.0)
    assert sample_field(field, outside, 0.0).speed == 0.0


def test_gust_quarter_period_peak():
    field = FieldSpec.uniform(4.0, 90.0, gust=GustSpec(amplitude=1.0, period_s=60.0))
    assert sample_field(field, ORIGIN, 15.0).speed == pytest.approx(5.0, rel=1e-12)


def test_gust_zero_at_t0():
    field = FieldSpec.uniform(4.0, 90.0, gust=GustSpec(amplitude=1.0, period_s=60.0))
    assert sample_field(field, ORIGIN, 0.0).speed == pytest.approx(4.0, rel=1e-12)


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
            v = sample_field(field, p, 0.0)
            assert v.speed == pytest.approx(speeds[i][j], abs=1e-12)
            if speeds[i][j] > 0:
                assert v.direction == pytest.approx(directions[i][j], abs=1e-9)


def test_grid_out_of_domain_names_point():
    field, _, _ = _grid_field()
    with pytest.raises(ValueError, match="outside grid"):
        sample_field(field, GeoPoint(34.5, -81.0), 0.0)


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
                sample_field(field, base, 0.0).speed
                - sample_field(field, nearby, 0.0).speed
            )
            assert jump < 1e-3


def test_environment_calm():
    environment = Environment.calm()
    assert sample_field(environment.current, ORIGIN, 0.0).speed == 0.0
    assert sample_field(environment.wind, ORIGIN, 0.0).speed == 0.0


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
    near_bank = sample_field(field, displaced(ORIGIN, 18.0 * ue, 18.0 * un), peak)
    assert near_bank.speed == pytest.approx((0.677 + 0.5) * (1.0 - 0.9**2), rel=1e-6)
    assert near_bank.direction == pytest.approx(150.0, abs=1e-6)
    bank = displaced(ORIGIN, 20.0 * ue, 20.0 * un)
    assert sample_field(field, bank, peak).speed == pytest.approx(0.0, abs=1e-12)
    outside = displaced(ORIGIN, 25.0 * ue, 25.0 * un)
    assert sample_field(field, outside, peak).speed == 0.0
    assert Environment(field, FieldSpec.calm()).sample(outside, peak) == (0.0, 0.0, 0.0, 0.0)


def test_uniform_and_grid_gusts_unchanged():
    """Gusted uniform and grid samples, pinned bit for bit (sha256 of their
    repr) from before the river gust fix and the per-field samplers."""
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
        for p in points:
            for t in (0.0, 2.25, 3.7, 15.0):
                v = sample_field(field, p, t)
                samples.append((v.speed, v.direction))
    digest = hashlib.sha256(repr(samples).encode()).hexdigest()
    assert digest == "51152bec93b933694b1882fe189fddd0d1e0fabfefd1e8c50d5aed8f4f3f7a41"


def test_environment_sample_matches_sample_field():
    """Environment.sample is sample_field(...).enu() of both fields, bit
    for bit, for every field kind with and without a gust."""
    grid, _, _ = _grid_field()
    gust = GustSpec(0.3, 11.0)
    fields = [
        FieldSpec.calm(),
        FieldSpec.uniform(0.677, 150.0),
        FieldSpec.uniform(5.0, 240.0, gust=gust),
        _river(),
        FieldSpec.river_profile(ORIGIN, 30.0, 1.2, 30.0, 40.0, gust=gust),
        grid,
        FieldSpec.grid(33.995, -81.005, 0.01, 0.01, [[0.5, 1.0], [1.0, 2.0]],
                       [[10.0, 40.0], [350.0, 20.0]], gust=gust),
    ]
    rng = np.random.default_rng(3)
    points = [displaced(ORIGIN, *rng.uniform(-30.0, 30.0, 2)) for _ in range(5)]
    for current in fields:
        for wind in fields[:3]:
            environment = Environment(current, wind)
            for p in points:
                for t in (0.0, 1.3, 2.75):
                    expected = (*sample_field(current, p, t).enu(), *sample_field(wind, p, t).enu())
                    assert environment.sample(p, t) == expected


def test_grid_out_of_domain_is_left_domain_error():
    field, _, _ = _grid_field()
    outside = GeoPoint(34.5, -81.0)
    with pytest.raises(LeftDomainError, match="outside grid"):
        sample_field(field, outside, 0.0)
    with pytest.raises(LeftDomainError):
        Environment(FieldSpec.calm(), field).sample(outside, 0.0)


def test_environment_pickles():
    field, _, _ = _grid_field()
    environment = Environment(field, FieldSpec.uniform(3.0, 20.0))
    again = pickle.loads(pickle.dumps(environment))
    assert again == environment
    assert again.sample(ORIGIN, 2.0) == environment.sample(ORIGIN, 2.0)
