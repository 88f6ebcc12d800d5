"""Disturbance fields: profile math, grid interpolation, gusts."""

import numpy as np
import pytest

from asvnav.env import Environment, FieldSpec, ForceVector, GustSpec, sample_field
from asvnav.geo import EnuVector, GeoPoint, offset_point

ORIGIN = GeoPoint(34.0, -81.0)


def test_uniform_field_everywhere():
    field = FieldSpec.uniform(ForceVector(0.677, 180.0))
    for point in (ORIGIN, offset_point(ORIGIN, EnuVector(500.0, -250.0))):
        for t in (0.0, 17.3, 1e4):
            v = sample_field(field, point, t)
            assert v.speed == 0.677
            assert v.direction == 180.0


def test_zero_wind_direction_convention():
    field = FieldSpec.uniform(ForceVector(0.0, 123.0))
    v = sample_field(field, ORIGIN, 5.0)
    assert v.speed == 0.0
    assert v.direction == 0.0


def _river(half_width=20.0, speed=1.0):
    # axis running north through the origin
    return FieldSpec.river_profile(
        axis_origin=ORIGIN, axis_bearing=0.0,
        centerline=ForceVector(speed, 0.0), half_width=half_width,
    )


def test_river_profile_edge_is_zero():
    field = _river()
    edge = offset_point(ORIGIN, EnuVector(20.0, 0.0))
    assert sample_field(field, edge, 0.0).speed == pytest.approx(0.0, abs=1e-12)


def test_river_profile_parabola():
    field = _river()
    off_axis = offset_point(ORIGIN, EnuVector(10.0, 0.0))
    v = sample_field(field, off_axis, 0.0)
    assert v.speed == pytest.approx(0.75, rel=1e-9)
    assert v.direction == pytest.approx(0.0)


def test_river_profile_beyond_edge_clamps_to_zero():
    field = _river()
    outside = offset_point(ORIGIN, EnuVector(35.0, 0.0))
    assert sample_field(field, outside, 0.0).speed == 0.0


def test_gust_quarter_period_peak():
    field = FieldSpec.uniform(ForceVector(4.0, 90.0), gust=GustSpec(amplitude=1.0, period_s=60.0))
    assert sample_field(field, ORIGIN, 15.0).speed == pytest.approx(5.0, rel=1e-12)


def test_gust_zero_at_t0():
    field = FieldSpec.uniform(ForceVector(4.0, 90.0), gust=GustSpec(amplitude=1.0, period_s=60.0))
    assert sample_field(field, ORIGIN, 0.0).speed == pytest.approx(4.0, rel=1e-12)


def test_gust_amplitude_must_stay_below_base_speed():
    with pytest.raises(ValueError):
        FieldSpec.uniform(ForceVector(1.0, 0.0), gust=GustSpec(amplitude=1.0, period_s=30.0))


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
        base = offset_point(ORIGIN, EnuVector(rng.uniform(-300, 300), rng.uniform(-300, 300)))
        for de, dn in ((0.01, 0.0), (0.0, 0.01)):
            nearby = offset_point(base, EnuVector(de, dn))
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
                                centerline=ForceVector(1.0, 0.0), half_width=0.0)
    with pytest.raises(ValueError):
        FieldSpec.grid(lat0=0.0, lon0=0.0, dlat=0.0, dlon=0.01,
                       speeds=[[1.0, 1.0], [1.0, 1.0]],
                       directions=[[0.0, 0.0], [0.0, 0.0]])


def test_force_vector_validation():
    with pytest.raises(ValueError):
        ForceVector(-0.1, 0.0)
    v = ForceVector(1.0, 450.0)
    assert v.direction == 90.0
