"""Vehicle kinematics and sensor models: drift superposition and the
sense / relative_to_absolute inverse pair."""

import math

import numpy as np
import pytest

from asvnav.env import Environment, FieldSpec, ForceVector
from asvnav.geo import GeoPoint, displaced, distance_bearing, wrap_signed
from asvnav.vehicle import (
    NoiseSpec,
    VehicleParams,
    _clamped,
    noise_draws,
    relative_to_absolute,
    sense,
    step,
    track_velocity,
)

ORIGIN = GeoPoint(34.0, -81.0)
PARAMS = VehicleParams()


# A state is step's tuple (lat, lon, spd_t, course_t, h_t,
# through_water_speed, t, turn_rate); a command is (thrust, rudder).


def steady_state(heading, water_speed, environment, params=PARAMS, pos=ORIGIN):
    """State whose ground velocity is consistent with the fields at t=0."""
    from asvnav.geo import bearing_of, unit_enu

    ce, cn, we, wn = environment.sample(pos.lat, pos.lon, 0.0)
    he, hn = unit_enu(heading)
    vg_e = water_speed * he + ce + params.wind_drag_factor * we
    vg_n = water_speed * hn + cn + params.wind_drag_factor * wn
    return (pos.lat, pos.lon, math.hypot(vg_e, vg_n), bearing_of(vg_e, vg_n), heading,
            water_speed, 0.0, 0.0)


def trim_command(water_speed, params=PARAMS):
    return water_speed / params.max_water_speed, 0.0


def advance(s, cmd, environment, dt=0.1):
    """step from state s under cmd, in the flows sampled at s."""
    lat, lon, _, _, h_t, tw, t, turn_rate = s
    return step(lat, lon, h_t, tw, t, turn_rate, *cmd, environment.sample(lat, lon, t), PARAMS,
                dt)


def flows_at(s, environment):
    """The fields sampled at state s's position and time."""
    return environment.sample(s[0], s[1], s[6])


def read_sensors(s, flows, offsets=None):
    """sense at state s: (water speed, water direction, wind speed, wind
    direction), hull-relative."""
    _, _, spd_t, course_t, h_t, *_ = s
    return sense(*track_velocity(spd_t, course_t), h_t, flows, offsets)


def recover(s, flows):
    """relative_to_absolute of both flows sensed at state s:
    (spd_c, dir_c, spd_w, dir_w)."""
    _, _, spd_t, course_t, h_t, *_ = s
    vg_e, vg_n = track_velocity(spd_t, course_t)
    water_spd, water_dir, wind_spd, wind_dir = sense(vg_e, vg_n, h_t, flows)
    return (*relative_to_absolute(vg_e, vg_n, h_t, water_spd, water_dir),
            *relative_to_absolute(vg_e, vg_n, h_t, wind_spd, wind_dir))


def test_step_calm_steady_state():
    environment = Environment.calm()
    s = steady_state(heading=0.0, water_speed=2.0, environment=environment)
    lat, lon, spd_t, _, h_t, *_ = advance(s, trim_command(2.0), environment)
    rng, brg = distance_bearing(ORIGIN, GeoPoint(lat, lon))
    assert rng == pytest.approx(0.2, abs=1e-7)
    assert brg == pytest.approx(0.0, abs=1e-6)
    assert spd_t == pytest.approx(2.0, rel=1e-12)
    assert h_t == 0.0


def test_step_cross_current_vector_sum():
    environment = Environment(FieldSpec.uniform(0.5, 90.0), FieldSpec.calm())
    s = steady_state(heading=0.0, water_speed=2.0, environment=environment)
    _, _, spd_t, course_t, h_t, *_ = advance(s, trim_command(2.0), environment)
    assert spd_t == pytest.approx(math.sqrt(4.25), rel=1e-12)
    assert course_t == pytest.approx(math.degrees(math.atan2(0.5, 2.0)), rel=1e-9)
    assert course_t == pytest.approx(14.0362, abs=1e-3)
    assert h_t == 0.0  # heading unchanged by drift


def test_step_pure_drift():
    environment = Environment(FieldSpec.uniform(1.0, 180.0), FieldSpec.calm())
    s = steady_state(heading=90.0, water_speed=0.0, environment=environment)
    lat, lon, spd_t, course_t, *_ = advance(s, (0.0, 0.0), environment)
    assert spd_t == pytest.approx(1.0, rel=1e-12)
    assert course_t == pytest.approx(180.0, abs=1e-9)
    rng, brg = distance_bearing(ORIGIN, GeoPoint(lat, lon))
    assert rng == pytest.approx(0.1, abs=1e-7)
    assert brg == pytest.approx(180.0, abs=1e-6)


def test_step_rejects_bad_dt_and_commands():
    environment = Environment.calm()
    s = steady_state(0.0, 2.0, environment)
    flows = flows_at(s, environment)
    lat, lon, _, _, h_t, tw, t, turn_rate = s
    state = (lat, lon, h_t, tw, t, turn_rate)
    thrust, _ = trim_command(2.0)
    with pytest.raises(ValueError):
        step(*state, thrust, 0.0, flows, PARAMS, dt=0.0)
    with pytest.raises(ValueError):
        step(*state, thrust, 0.0, flows, PARAMS, dt=0.6)
    with pytest.raises(ValueError):
        step(*state, float("nan"), 0.0, flows, PARAMS, dt=0.1)



def test_step_checks_a_position_at_rest():
    """A hull at rest in still water does not move, and its position still
    passes point_coords: a latitude out of range raises, a longitude wraps."""
    calm = Environment.calm().sample(0.0, 0.0, 0.0)
    at_rest = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, calm, PARAMS, 0.1)
    assert step(34.0, -81.0, *at_rest)[:2] == (34.0, -81.0)
    assert step(-0.0, 10.0, *at_rest)[0] == -0.0
    assert step(34.0, 500.0, *at_rest)[:2] == (34.0, 140.0)
    with pytest.raises(ValueError, match="latitude"):
        step(95.0, 10.0, *at_rest)


def test_step_deterministic():
    environment = Environment(
        FieldSpec.uniform(0.7, 230.0), FieldSpec.uniform(3.0, 10.0)
    )
    s = steady_state(heading=45.0, water_speed=1.7, environment=environment)
    a = advance(s, (0.4, 0.2), environment)
    b = advance(s, (0.4, 0.2), environment)
    assert a == b


def test_drift_superposition_exact():
    """Uniform current just translates the calm-water trajectory by c*T.

    Run at the equator: there the longitude scale is locally flat and the
    comparison isolates the additive kinematics (at mid latitudes the
    lat/lon projection adds a sub-millimeter wobble over a minute).
    """
    equator = GeoPoint(0.0, -81.0)
    calm = Environment.calm()
    current = ForceVector(0.8, 135.0)
    drifted = Environment(FieldSpec.uniform(current.speed, current.direction), FieldSpec.calm())
    dt, steps = 0.1, 600

    s_calm = steady_state(heading=30.0, water_speed=2.0, environment=calm, pos=equator)
    s_cur = steady_state(heading=30.0, water_speed=2.0, environment=drifted, pos=equator)
    cmd = trim_command(2.0)
    for _ in range(steps):
        s_calm = advance(s_calm, cmd, calm, dt)
        s_cur = advance(s_cur, cmd, drifted, dt)

    T = steps * dt
    ce, cn = current.enu()
    expected = displaced(GeoPoint(*s_calm[:2]), ce * T, cn * T)
    gap, _ = distance_bearing(expected, GeoPoint(*s_cur[:2]))
    assert gap < 1e-6


def test_sense_stationary_vehicle():
    environment = Environment(FieldSpec.uniform(0.677, 180.0), FieldSpec.calm())
    s = (ORIGIN.lat, ORIGIN.lon, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)  # at rest, heading north
    water_spd, water_dir, _, _ = read_sensors(s, flows_at(s, environment))
    assert water_spd == pytest.approx(0.677, rel=1e-12)
    assert water_dir == pytest.approx(180.0, abs=1e-9)


def test_sense_self_motion_only():
    environment = Environment.calm()
    s = steady_state(heading=0.0, water_speed=2.0, environment=environment)
    water_spd, water_dir, _, _ = read_sensors(s, flows_at(s, environment))
    assert water_spd == pytest.approx(2.0, rel=1e-12)
    assert water_dir == pytest.approx(180.0, abs=1e-9)  # from dead ahead


def test_sense_zero_noise_matches_analytic():
    environment = Environment(
        FieldSpec.uniform(0.5, 60.0), FieldSpec.uniform(2.0, 300.0)
    )
    s = steady_state(heading=120.0, water_speed=1.5, environment=environment)
    clean = read_sensors(s, flows_at(s, environment))
    rng = np.random.default_rng(1)
    untouched = rng.bit_generator.state
    offsets = next(noise_draws(NoiseSpec(0.0, 0.0), rng))
    seeded = read_sensors(s, flows_at(s, environment), offsets)
    assert repr(clean) == repr(seeded)
    # zero noise changes no reading, so it takes no draws and hands out none
    assert offsets is None
    assert rng.bit_generator.state == untouched


def test_sense_noise_reproducible_and_applied():
    environment = Environment(
        FieldSpec.uniform(0.5, 60.0), FieldSpec.uniform(2.0, 300.0)
    )
    s = steady_state(heading=120.0, water_speed=1.5, environment=environment)
    noise = NoiseSpec(sigma_speed=0.05, sigma_dir=2.0)
    a, b, c = (read_sensors(s, flows_at(s, environment),
                            next(noise_draws(noise, np.random.default_rng(seed))))
               for seed in (42, 42, 43))
    assert a == b
    assert a != c
    assert a != read_sensors(s, flows_at(s, environment))


def _random_state(rng):
    pos = GeoPoint(rng.uniform(-60, 60), rng.uniform(-179, 179))
    spd_t, course_t, h_t = rng.uniform(0, 5), rng.uniform(0, 360), rng.uniform(0, 360)
    return pos.lat, pos.lon, spd_t, course_t, h_t, rng.uniform(0, 5), rng.uniform(0, 1000), 0.0


def test_inverse_sensing_1000_random_states():
    """relative_to_absolute must invert sense exactly at zero noise."""
    rng = np.random.default_rng(99)
    for _ in range(1000):
        current = ForceVector(rng.uniform(0, 3), rng.uniform(0, 360))
        wind = ForceVector(rng.uniform(0, 10), rng.uniform(0, 360))
        environment = Environment(FieldSpec.uniform(current.speed, current.direction),
                                  FieldSpec.uniform(wind.speed, wind.direction))
        s = _random_state(rng)
        spd_c, dir_c, spd_w, dir_w = recover(s, flows_at(s, environment))
        assert abs(spd_c - current.speed) < 1e-9
        assert abs(spd_w - wind.speed) < 1e-9
        if current.speed > 1e-6:
            assert abs(wrap_signed(dir_c - current.direction)) < 1e-7
        if wind.speed > 1e-6:
            assert abs(wrap_signed(dir_w - wind.direction)) < 1e-7


def test_relative_to_absolute_zero_current_moving_vehicle():
    environment = Environment.calm()
    s = steady_state(heading=77.0, water_speed=3.0, environment=environment)
    spd_c, _, spd_w, _ = recover(s, flows_at(s, environment))
    assert spd_c < 1e-9
    assert spd_w < 1e-9


def test_actuator_command_clamped():
    assert _clamped(1.5, -2.0) == (1.0, -1.0)


def test_vehicle_params_validation():
    with pytest.raises(ValueError):
        VehicleParams(max_water_speed=-1.0)
    with pytest.raises(ValueError):
        VehicleParams(wind_drag_factor=0.5)


def test_steerage_effectiveness_scales_with_dynamic_pressure():
    assert PARAMS.steerage_effectiveness(2.0) == 1.0
    assert PARAMS.steerage_effectiveness(3.5) == 1.0  # saturates at full authority
    assert PARAMS.steerage_effectiveness(1.0) == pytest.approx(0.25)
    assert PARAMS.steerage_effectiveness(0.0) == PARAMS.steerage_floor


def test_turn_rate_responds_through_lag():
    """A hard-over rudder command must take roughly the yaw time constant
    to reach the commanded rate, not arrive in one step."""
    environment = Environment.calm()
    s = steady_state(heading=0.0, water_speed=2.0, environment=environment)
    cmd = (2.0 / PARAMS.max_water_speed, 1.0)
    s1 = advance(s, cmd, environment)
    assert 0.0 < s1[-1] < PARAMS.max_turn_rate  # the turn rate
    for _ in range(100):
        s1 = advance(s1, cmd, environment)
    assert s1[-1] == pytest.approx(PARAMS.max_turn_rate, rel=1e-3)


def test_low_water_speed_starves_turn_authority():
    environment = Environment.calm()
    slow = steady_state(heading=0.0, water_speed=0.6, environment=environment)
    fast = steady_state(heading=0.0, water_speed=2.0, environment=environment)
    cmd_slow = (0.6 / PARAMS.max_water_speed, 1.0)
    cmd_fast = (2.0 / PARAMS.max_water_speed, 1.0)
    for _ in range(50):
        slow = advance(slow, cmd_slow, environment)
        fast = advance(fast, cmd_fast, environment)
    assert slow[-1] < 0.2 * fast[-1]  # turn rates
