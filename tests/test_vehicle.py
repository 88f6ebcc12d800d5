"""Vehicle kinematics and sensor models: drift superposition and the
sense / relative_to_absolute inverse pair."""

import math

import numpy as np
import pytest

from asvnav.env import Environment, FieldSpec, ForceVector
from asvnav.geo import EnuVector, GeoPoint, distance_bearing, offset_point, wrap_signed
from asvnav.vehicle import (
    ActuatorCommand,
    AsvState,
    NoiseSpec,
    VehicleParams,
    relative_to_absolute,
    sense,
    step,
)

ORIGIN = GeoPoint(34.0, -81.0)
PARAMS = VehicleParams()


def steady_state(heading, water_speed, environment, params=PARAMS, pos=ORIGIN):
    """State whose ground velocity is consistent with the fields at t=0."""
    from asvnav.env import sample_field
    from asvnav.geo import bearing_of, unit_enu

    ce, cn = sample_field(environment.current, pos, 0.0).enu()
    we, wn = sample_field(environment.wind, pos, 0.0).enu()
    he, hn = unit_enu(heading)
    vg_e = water_speed * he + ce + params.wind_drag_factor * we
    vg_n = water_speed * hn + cn + params.wind_drag_factor * wn
    return AsvState(
        pos=pos, spd_t=math.hypot(vg_e, vg_n), course_t=bearing_of(vg_e, vg_n),
        h_t=heading, through_water_speed=water_speed, t=0.0,
    )


def trim_command(water_speed, params=PARAMS):
    return ActuatorCommand(thrust=water_speed / params.max_water_speed, rudder=0.0)


def test_step_calm_steady_state():
    environment = Environment.calm()
    s = steady_state(heading=0.0, water_speed=2.0, environment=environment)
    s2 = step(s, trim_command(2.0), environment.sample(s.pos, s.t), PARAMS, dt=0.1)
    rng, brg = distance_bearing(ORIGIN, s2.pos)
    assert rng == pytest.approx(0.2, abs=1e-7)
    assert brg == pytest.approx(0.0, abs=1e-6)
    assert s2.spd_t == pytest.approx(2.0, rel=1e-12)
    assert s2.h_t == 0.0


def test_step_cross_current_vector_sum():
    environment = Environment(FieldSpec.uniform(ForceVector(0.5, 90.0)), FieldSpec.calm())
    s = steady_state(heading=0.0, water_speed=2.0, environment=environment)
    s2 = step(s, trim_command(2.0), environment.sample(s.pos, s.t), PARAMS, dt=0.1)
    assert s2.spd_t == pytest.approx(math.sqrt(4.25), rel=1e-12)
    assert s2.course_t == pytest.approx(math.degrees(math.atan2(0.5, 2.0)), rel=1e-9)
    assert s2.course_t == pytest.approx(14.0362, abs=1e-3)
    assert s2.h_t == 0.0  # heading unchanged by drift


def test_step_pure_drift():
    environment = Environment(FieldSpec.uniform(ForceVector(1.0, 180.0)), FieldSpec.calm())
    s = steady_state(heading=90.0, water_speed=0.0, environment=environment)
    s2 = step(s, ActuatorCommand(0.0, 0.0), environment.sample(s.pos, s.t), PARAMS, dt=0.1)
    assert s2.spd_t == pytest.approx(1.0, rel=1e-12)
    assert s2.course_t == pytest.approx(180.0, abs=1e-9)
    rng, brg = distance_bearing(ORIGIN, s2.pos)
    assert rng == pytest.approx(0.1, abs=1e-7)
    assert brg == pytest.approx(180.0, abs=1e-6)


def test_step_rejects_bad_dt_and_commands():
    environment = Environment.calm()
    s = steady_state(0.0, 2.0, environment)
    with pytest.raises(ValueError):
        step(s, trim_command(2.0), environment.sample(s.pos, s.t), PARAMS, dt=0.0)
    with pytest.raises(ValueError):
        step(s, trim_command(2.0), environment.sample(s.pos, s.t), PARAMS, dt=0.6)
    with pytest.raises(ValueError):
        step(s, ActuatorCommand(float("nan"), 0.0), environment, PARAMS, dt=0.1)


def test_step_deterministic():
    environment = Environment(
        FieldSpec.uniform(ForceVector(0.7, 230.0)), FieldSpec.uniform(ForceVector(3.0, 10.0))
    )
    s = steady_state(heading=45.0, water_speed=1.7, environment=environment)
    a = step(s, ActuatorCommand(0.4, 0.2), environment.sample(s.pos, s.t), PARAMS, dt=0.1)
    b = step(s, ActuatorCommand(0.4, 0.2), environment.sample(s.pos, s.t), PARAMS, dt=0.1)
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
    drifted = Environment(FieldSpec.uniform(current), FieldSpec.calm())
    dt, steps = 0.1, 600

    s_calm = steady_state(heading=30.0, water_speed=2.0, environment=calm, pos=equator)
    s_cur = steady_state(heading=30.0, water_speed=2.0, environment=drifted, pos=equator)
    cmd = trim_command(2.0)
    for _ in range(steps):
        s_calm = step(s_calm, cmd, calm.sample(s_calm.pos, s_calm.t), PARAMS, dt)
        s_cur = step(s_cur, cmd, drifted.sample(s_cur.pos, s_cur.t), PARAMS, dt)

    T = steps * dt
    ce, cn = current.enu()
    expected = offset_point(s_calm.pos, EnuVector(ce * T, cn * T))
    gap, _ = distance_bearing(expected, s_cur.pos)
    assert gap < 1e-6


def test_sense_stationary_vehicle():
    environment = Environment(FieldSpec.uniform(ForceVector(0.677, 180.0)), FieldSpec.calm())
    s = AsvState.at_rest(ORIGIN, heading=0.0)
    frame = sense(s, environment.sample(s.pos, s.t))
    assert frame.rel_water.speed == pytest.approx(0.677, rel=1e-12)
    assert frame.rel_water.direction == pytest.approx(180.0, abs=1e-9)


def test_sense_self_motion_only():
    environment = Environment.calm()
    s = steady_state(heading=0.0, water_speed=2.0, environment=environment)
    frame = sense(s, environment.sample(s.pos, s.t))
    assert frame.rel_water.speed == pytest.approx(2.0, rel=1e-12)
    assert frame.rel_water.direction == pytest.approx(180.0, abs=1e-9)  # from dead ahead


def test_sense_zero_noise_matches_analytic():
    environment = Environment(
        FieldSpec.uniform(ForceVector(0.5, 60.0)), FieldSpec.uniform(ForceVector(2.0, 300.0))
    )
    s = steady_state(heading=120.0, water_speed=1.5, environment=environment)
    clean = sense(s, environment.sample(s.pos, s.t))
    rng = np.random.default_rng(1)
    untouched = rng.bit_generator.state
    seeded = sense(s, environment.sample(s.pos, s.t), NoiseSpec(0.0, 0.0), rng)
    assert repr(clean) == repr(seeded)
    # zero noise changes no reading, so it takes no draws
    assert rng.bit_generator.state == untouched


def test_sense_noise_reproducible_and_applied():
    environment = Environment(
        FieldSpec.uniform(ForceVector(0.5, 60.0)), FieldSpec.uniform(ForceVector(2.0, 300.0))
    )
    s = steady_state(heading=120.0, water_speed=1.5, environment=environment)
    noise = NoiseSpec(sigma_speed=0.05, sigma_dir=2.0)
    a = sense(s, environment.sample(s.pos, s.t), noise, np.random.default_rng(42))
    b = sense(s, environment.sample(s.pos, s.t), noise, np.random.default_rng(42))
    c = sense(s, environment.sample(s.pos, s.t), noise, np.random.default_rng(43))
    assert a == b
    assert a != c
    with pytest.raises(ValueError):
        sense(s, environment.sample(s.pos, s.t), noise, rng=None)


def _random_state(rng):
    return AsvState(
        pos=GeoPoint(rng.uniform(-60, 60), rng.uniform(-179, 179)),
        spd_t=rng.uniform(0, 5),
        course_t=rng.uniform(0, 360),
        h_t=rng.uniform(0, 360),
        through_water_speed=rng.uniform(0, 5),
        t=rng.uniform(0, 1000),
    )


def test_inverse_sensing_1000_random_states():
    """relative_to_absolute must invert sense exactly at zero noise."""
    rng = np.random.default_rng(99)
    for _ in range(1000):
        current = ForceVector(rng.uniform(0, 3), rng.uniform(0, 360))
        wind = ForceVector(rng.uniform(0, 10), rng.uniform(0, 360))
        environment = Environment(FieldSpec.uniform(current), FieldSpec.uniform(wind))
        s = _random_state(rng)
        recovered = relative_to_absolute(sense(s, environment.sample(s.pos, s.t)), s)
        assert abs(recovered.spd_c - current.speed) < 1e-9
        assert abs(recovered.spd_w - wind.speed) < 1e-9
        if current.speed > 1e-6:
            assert abs(wrap_signed(recovered.dir_c - current.direction)) < 1e-7
        if wind.speed > 1e-6:
            assert abs(wrap_signed(recovered.dir_w - wind.direction)) < 1e-7


def test_relative_to_absolute_zero_current_moving_vehicle():
    environment = Environment.calm()
    s = steady_state(heading=77.0, water_speed=3.0, environment=environment)
    recovered = relative_to_absolute(sense(s, environment.sample(s.pos, s.t)), s)
    assert recovered.spd_c < 1e-9
    assert recovered.spd_w < 1e-9


def test_actuator_command_clamped():
    cmd = ActuatorCommand(thrust=1.5, rudder=-2.0)
    assert cmd.thrust == 1.0
    assert cmd.rudder == -1.0


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
    cmd = ActuatorCommand(thrust=2.0 / PARAMS.max_water_speed, rudder=1.0)
    s1 = step(s, cmd, environment.sample(s.pos, s.t), PARAMS, dt=0.1)
    assert 0.0 < s1.turn_rate < PARAMS.max_turn_rate
    for _ in range(100):
        s1 = step(s1, cmd, environment.sample(s1.pos, s1.t), PARAMS, dt=0.1)
    assert s1.turn_rate == pytest.approx(PARAMS.max_turn_rate, rel=1e-3)


def test_low_water_speed_starves_turn_authority():
    environment = Environment.calm()
    slow = steady_state(heading=0.0, water_speed=0.6, environment=environment)
    fast = steady_state(heading=0.0, water_speed=2.0, environment=environment)
    cmd_slow = ActuatorCommand(thrust=0.6 / PARAMS.max_water_speed, rudder=1.0)
    cmd_fast = ActuatorCommand(thrust=2.0 / PARAMS.max_water_speed, rudder=1.0)
    for _ in range(50):
        slow = step(slow, cmd_slow, environment.sample(slow.pos, slow.t), PARAMS, dt=0.1)
        fast = step(fast, cmd_fast, environment.sample(fast.pos, fast.t), PARAMS, dt=0.1)
    assert slow.turn_rate < 0.2 * fast.turn_rate
