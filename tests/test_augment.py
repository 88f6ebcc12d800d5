"""Feed-forward augmentation: offset geometry, speed adjustment, and the
reduction to the baseline when nothing is predicted."""

import math

import numpy as np
import pytest

from asvnav.augment import (
    FRESH_NAV,
    AugmentConfig,
    Navigator,
    adjusted_speed,
    calc_intermediate_wp,
    navigator_step,
)
from asvnav.control import Waypoint
from asvnav.effects import EffectModel, OracleEffectModel
from asvnav.env import Environment, FieldSpec
from asvnav.geo import GeoPoint, displaced, enu_coords
from asvnav.vehicle import (
    VehicleParams,
    relative_to_absolute,
    sense,
    step,
    track_velocity,
)

ORIGIN = GeoPoint(34.0, -81.0)
PARAMS = VehicleParams()
CFG = AugmentConfig()


def _goal_north(distance=100.0, spd=2.0):
    return Waypoint(displaced(ORIGIN, 0.0, distance), spd)


def _offset(a, b):
    """East/north displacement (m) from point a to point b."""
    return enu_coords(a.lat, a.lon, b.lat, b.lon)


def test_zero_effect_returns_goal_exactly():
    goal = _goal_north()
    result = calc_intermediate_wp(goal, ORIGIN.lat, ORIGIN.lon, 0.0, 0.0, CFG, goal.spd_target)
    assert result is goal.pos


def test_offset_formula_at_clamp_boundary():
    # goal 100 m north, target 2 m/s, drift 0.5 m/s east -> 25 m west
    goal = _goal_north(100.0)
    result = calc_intermediate_wp(goal, ORIGIN.lat, ORIGIN.lon, 0.5, 0.0, CFG, goal.spd_target)
    off_e, off_n = _offset(goal.pos, result)
    assert off_e == pytest.approx(-25.0, rel=1e-6)
    assert off_n == pytest.approx(0.0, abs=1e-9)


def test_offset_proportional_to_distance():
    goal = _goal_north(10.0)
    result = calc_intermediate_wp(goal, ORIGIN.lat, ORIGIN.lon, 0.5, 0.0, CFG, goal.spd_target)
    off_e, _ = _offset(goal.pos, result)
    assert off_e == pytest.approx(-2.5, rel=1e-6)


def test_offset_clamped_to_max():
    goal = _goal_north(200.0)
    cfg = AugmentConfig(max_offset_m=25.0)
    rng = np.random.default_rng(5)
    for _ in range(200):
        ex, ey = rng.uniform(-3, 3, size=2)
        result = calc_intermediate_wp(goal, ORIGIN.lat, ORIGIN.lon, ex, ey, cfg, goal.spd_target)
        assert math.hypot(*_offset(goal.pos, result)) <= 25.0 + 1e-6


def test_offset_monotone_in_remaining_distance():
    cfg = AugmentConfig(max_offset_m=100.0)
    magnitudes = []
    for d in (200.0, 150.0, 100.0, 50.0, 10.0):
        goal = _goal_north(d)
        result = calc_intermediate_wp(goal, ORIGIN.lat, ORIGIN.lon, 0.4, 0.1, cfg, goal.spd_target)
        magnitudes.append(math.hypot(*_offset(goal.pos, result)))
    assert all(a >= b - 1e-9 for a, b in zip(magnitudes, magnitudes[1:]))


def test_offset_uses_commanded_speed_normalization():
    """The travel-time triangle divides by the speed actually commanded."""
    goal = _goal_north(100.0)
    cfg = AugmentConfig(max_offset_m=100.0)
    slow = calc_intermediate_wp(goal, ORIGIN.lat, ORIGIN.lon, 0.5, 0.0, cfg, reference_speed=1.0)
    fast = calc_intermediate_wp(goal, ORIGIN.lat, ORIGIN.lon, 0.5, 0.0, cfg, reference_speed=4.0)
    assert math.hypot(*_offset(goal.pos, slow)) == pytest.approx(50.0, rel=1e-6)
    assert math.hypot(*_offset(goal.pos, fast)) == pytest.approx(12.5, rel=1e-6)


def test_offset_rejects_non_finite_effect():
    goal = _goal_north()
    with pytest.raises(ValueError):
        calc_intermediate_wp(goal, ORIGIN.lat, ORIGIN.lon, float("nan"), 0.0, CFG, goal.spd_target)


def test_adjusted_speed_identity_and_compensation():
    assert adjusted_speed(0.0, 2.0, PARAMS) == 2.0
    assert adjusted_speed(0.677, 2.0, PARAMS) == pytest.approx(2.677)


def test_adjusted_speed_floor_and_ceiling():
    assert adjusted_speed(-5.0, 2.0, PARAMS) == pytest.approx(0.4)
    assert adjusted_speed(10.0, 2.0, PARAMS) == pytest.approx(PARAMS.max_water_speed)


def test_adjusted_speed_rejects_bad_target():
    with pytest.raises(ValueError):
        adjusted_speed(0.0, 0.0, PARAMS)


def _mission():
    a = ORIGIN
    b = displaced(ORIGIN, 0.0, 200.0)
    return [Waypoint(a, 2.0), Waypoint(b, 2.0)]


# A state is step's tuple (lat, lon, spd_t, course_t, h_t,
# through_water_speed, t, turn_rate).


def _at_rest(east, north):
    """The state at rest east, north meters from ORIGIN, heading north."""
    pos = displaced(ORIGIN, east, north)
    return pos.lat, pos.lon, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0


def _pose(s):
    """(lat, lon, spd_t, h_t, t) of state s: what the navigator reads."""
    lat, lon, spd_t, _, h_t, _, t, _ = s
    return lat, lon, spd_t, h_t, t


def _forces(s, environment):
    """The absolute (spd_c, dir_c, spd_w, dir_w) sensed and recovered at
    state s."""
    lat, lon, spd_t, course_t, h_t, _, t, _ = s
    vg_e, vg_n = track_velocity(spd_t, course_t)
    water_spd, water_dir, wind_spd, wind_dir = sense(
        vg_e, vg_n, h_t, environment.sample(lat, lon, t)
    )
    return (*relative_to_absolute(vg_e, vg_n, h_t, water_spd, water_dir),
            *relative_to_absolute(vg_e, vg_n, h_t, wind_spd, wind_dir))


def _advance(s, thrust, rudder, environment):
    """step from state s, in the flows sampled at s."""
    lat, lon, _, _, h_t, tw, t, turn_rate = s
    flows = environment.sample(lat, lon, t)
    return step(lat, lon, h_t, tw, t, turn_rate, thrust, rudder, flows, PARAMS, 0.1)


def test_zero_effect_steps_bit_identical_to_baseline():
    """A model predicting zero effect must reproduce the baseline commands
    bit for bit, step by step."""
    mission = _mission()
    environment = Environment(
        FieldSpec.uniform(0.6, 45.0), FieldSpec.uniform(3.0, 200.0)
    )
    baseline = Navigator(mission, dt=0.1)
    augmented = Navigator(mission, EffectModel.zero(), params=PARAMS, dt=0.1)
    s_base = s_aug = _at_rest(2.0, -40.0)
    nav = aug = FRESH_NAV
    for _ in range(600):
        force_b = _forces(s_base, environment)
        thrust_b, rudder_b, nav = navigator_step(baseline, *_pose(s_base), None, nav)
        thrust_a, rudder_a, aug = navigator_step(augmented, *_pose(s_aug), force_b, aug)
        assert (thrust_a, rudder_a) == (thrust_b, rudder_b)
        s_base = _advance(s_base, thrust_b, rudder_b, environment)
        s_aug = _advance(s_aug, thrust_a, rudder_a, environment)
        assert s_aug == s_base
        if nav[0] >= len(mission):
            break


def test_mission_advances_on_true_waypoints_only():
    """Even with a large offset pulling the intermediate target away, the
    mission sequence advances against the true goals, in order."""
    mission = _mission()
    environment = Environment(FieldSpec.uniform(0.5, 90.0), FieldSpec.calm())
    oracle = OracleEffectModel(wind_drag_factor=PARAMS.wind_drag_factor)
    nav = Navigator(mission, oracle, AugmentConfig(max_offset_m=100.0), params=PARAMS, dt=0.1)
    s = _at_rest(1.0, -30.0)
    aug = FRESH_NAV
    seen = []
    for _ in range(2500):
        thrust, rudder, aug = navigator_step(nav, *_pose(s), _forces(s, environment), aug)
        index = aug[0]
        if not seen or index != seen[-1]:
            seen.append(index)
        if index >= len(mission):
            break
        s = _advance(s, thrust, rudder, environment)
    assert seen == [0, 1, 2]


def test_intermediate_target_held_between_updates():
    mission = _mission()
    environment = Environment(FieldSpec.uniform(0.5, 90.0), FieldSpec.calm())
    oracle = OracleEffectModel(wind_drag_factor=PARAMS.wind_drag_factor)
    cfg = AugmentConfig(max_offset_m=100.0, update_period_s=1.0)
    nav = Navigator(mission, oracle, cfg, params=PARAMS, dt=0.1)
    s = _at_rest(0.0, -30.0)
    aug = FRESH_NAV
    changes = 0
    previous = None
    for i in range(100):  # 10 seconds at dt 0.1
        thrust, rudder, aug = navigator_step(nav, *_pose(s), _forces(s, environment), aug)
        intermediate = aug[4]
        if previous is not None and intermediate != previous:
            changes += 1
        previous = intermediate
        s = _advance(s, thrust, rudder, environment)
    assert changes <= 11  # one refresh per period, not per step


def test_augmented_step_rejects_non_positive_dt_and_empty_mission():
    """The augmented navigator's run constants are checked when built, so
    a mission whose first tick completes it is rejected too."""
    oracle = OracleEffectModel(wind_drag_factor=PARAMS.wind_drag_factor)
    for mission in (_mission()[1:], _mission()[:1]):  # steering, then completing
        for dt in (0.0, math.nan):
            with pytest.raises(ValueError, match=rf"^dt must be > 0, got {dt!r}$"):
                Navigator(mission, oracle, dt=dt)
    with pytest.raises(ValueError, match="^mission must contain at least one waypoint$"):
        Navigator([], oracle)


def test_intermediate_speed_positive():
    with pytest.raises(ValueError):
        Waypoint(pos=ORIGIN, spd_target=0.0)
