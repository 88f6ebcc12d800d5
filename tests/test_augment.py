"""Feed-forward augmentation: offset geometry, speed adjustment, and the
reduction to the baseline when nothing is predicted."""

import numpy as np
import pytest

from asvnav.augment import (
    AugmentConfig,
    AugmentState,
    adjusted_speed,
    augmented_navigator_step,
    calc_intermediate_wp,
)
from asvnav.control import NavigatorState, Waypoint, navigator_step
from asvnav.effects import EffectModel, ForceSample, OracleEffectModel
from asvnav.env import Environment, FieldSpec, ForceVector
from asvnav.geo import EnuVector, GeoPoint, enu_offset, offset_point
from asvnav.vehicle import AsvState, VehicleParams, relative_to_absolute, sense, step

ORIGIN = GeoPoint(34.0, -81.0)
PARAMS = VehicleParams()
CFG = AugmentConfig()
CALM_FORCE = ForceSample(0.0, 0.0, 0.0, 0.0)


def _state(pos=None, heading=0.0, speed=2.0):
    pos = pos or ORIGIN
    return AsvState(pos=pos, spd_t=speed, course_t=heading, h_t=heading,
                    through_water_speed=speed, t=0.0)


def _goal_north(distance=100.0, spd=2.0):
    return Waypoint(offset_point(ORIGIN, EnuVector(0.0, distance)), spd)


def test_zero_effect_returns_goal_exactly():
    goal = _goal_north()
    result = calc_intermediate_wp(goal, _state(), 0.0, 0.0, CFG)
    assert result is goal.pos


def test_offset_formula_at_clamp_boundary():
    # goal 100 m north, target 2 m/s, drift 0.5 m/s east -> 25 m west
    goal = _goal_north(100.0)
    result = calc_intermediate_wp(goal, _state(), 0.5, 0.0, CFG)
    off = enu_offset(goal.pos, result)
    assert off.east == pytest.approx(-25.0, rel=1e-6)
    assert off.north == pytest.approx(0.0, abs=1e-9)


def test_offset_proportional_to_distance():
    goal = _goal_north(10.0)
    result = calc_intermediate_wp(goal, _state(), 0.5, 0.0, CFG)
    off = enu_offset(goal.pos, result)
    assert off.east == pytest.approx(-2.5, rel=1e-6)


def test_offset_clamped_to_max():
    goal = _goal_north(200.0)
    cfg = AugmentConfig(max_offset_m=25.0)
    rng = np.random.default_rng(5)
    for _ in range(200):
        ex, ey = rng.uniform(-3, 3, size=2)
        result = calc_intermediate_wp(goal, _state(), ex, ey, cfg)
        off = enu_offset(goal.pos, result)
        assert off.magnitude() <= 25.0 + 1e-6


def test_offset_monotone_in_remaining_distance():
    cfg = AugmentConfig(max_offset_m=100.0)
    magnitudes = []
    for d in (200.0, 150.0, 100.0, 50.0, 10.0):
        goal = _goal_north(d)
        result = calc_intermediate_wp(goal, _state(), 0.4, 0.1, cfg)
        magnitudes.append(enu_offset(goal.pos, result).magnitude())
    assert all(a >= b - 1e-9 for a, b in zip(magnitudes, magnitudes[1:]))


def test_offset_uses_commanded_speed_normalization():
    """The travel-time triangle divides by the speed actually commanded."""
    goal = _goal_north(100.0)
    cfg = AugmentConfig(max_offset_m=100.0)
    slow = calc_intermediate_wp(goal, _state(), 0.5, 0.0, cfg, reference_speed=1.0)
    fast = calc_intermediate_wp(goal, _state(), 0.5, 0.0, cfg, reference_speed=4.0)
    assert enu_offset(goal.pos, slow).magnitude() == pytest.approx(50.0, rel=1e-6)
    assert enu_offset(goal.pos, fast).magnitude() == pytest.approx(12.5, rel=1e-6)


def test_offset_rejects_non_finite_effect():
    with pytest.raises(ValueError):
        calc_intermediate_wp(_goal_north(), _state(), float("nan"), 0.0, CFG)


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
    b = offset_point(ORIGIN, EnuVector(0.0, 200.0))
    return [Waypoint(a, 2.0), Waypoint(b, 2.0)]


def test_zero_effect_steps_bit_identical_to_baseline():
    """A model predicting zero effect must reproduce the baseline commands
    bit for bit, step by step."""
    mission = _mission()
    environment = Environment(
        FieldSpec.uniform(ForceVector(0.6, 45.0)), FieldSpec.uniform(ForceVector(3.0, 200.0))
    )
    model = EffectModel.zero()
    start = offset_point(ORIGIN, EnuVector(2.0, -40.0))
    s_base = AsvState.at_rest(start, heading=0.0)
    s_aug = AsvState.at_rest(start, heading=0.0)
    nav = NavigatorState()
    aug = AugmentState()
    for _ in range(600):
        frame_b = sense(s_base, environment.sample(s_base.pos, s_base.t))
        force_b = relative_to_absolute(frame_b, s_base)
        cmd_b, nav = navigator_step(s_base, mission, nav, dt=0.1)
        cmd_a, aug = augmented_navigator_step(
            s_aug, mission, aug, model, force_b, dt=0.1, params=PARAMS
        )
        assert cmd_a == cmd_b
        s_base = step(s_base, cmd_b, environment.sample(s_base.pos, s_base.t), PARAMS, 0.1)
        s_aug = step(s_aug, cmd_a, environment.sample(s_aug.pos, s_aug.t), PARAMS, 0.1)
        assert s_aug == s_base
        if nav.active_wp_index >= len(mission):
            break


def test_mission_advances_on_true_waypoints_only():
    """Even with a large offset pulling the intermediate target away, the
    mission sequence advances against the true goals, in order."""
    mission = _mission()
    environment = Environment(FieldSpec.uniform(ForceVector(0.5, 90.0)), FieldSpec.calm())
    oracle = OracleEffectModel(wind_drag_factor=PARAMS.wind_drag_factor)
    cfg = AugmentConfig(max_offset_m=100.0)
    s = AsvState.at_rest(offset_point(ORIGIN, EnuVector(1.0, -30.0)), heading=0.0)
    aug = AugmentState()
    seen = []
    for _ in range(2500):
        frame = sense(s, environment.sample(s.pos, s.t))
        force = relative_to_absolute(frame, s)
        cmd, aug = augmented_navigator_step(
            s, mission, aug, oracle, force, cfg=cfg, params=PARAMS, dt=0.1
        )
        if not seen or aug.nav.active_wp_index != seen[-1]:
            seen.append(aug.nav.active_wp_index)
        if aug.nav.active_wp_index >= len(mission):
            break
        s = step(s, cmd, environment.sample(s.pos, s.t), PARAMS, 0.1)
    assert seen == [0, 1, 2]


def test_intermediate_target_held_between_updates():
    mission = _mission()
    environment = Environment(FieldSpec.uniform(ForceVector(0.5, 90.0)), FieldSpec.calm())
    oracle = OracleEffectModel(wind_drag_factor=PARAMS.wind_drag_factor)
    cfg = AugmentConfig(max_offset_m=100.0, update_period_s=1.0)
    s = AsvState.at_rest(offset_point(ORIGIN, EnuVector(0.0, -30.0)), heading=0.0)
    aug = AugmentState()
    changes = 0
    previous = None
    for i in range(100):  # 10 seconds at dt 0.1
        frame = sense(s, environment.sample(s.pos, s.t))
        force = relative_to_absolute(frame, s)
        cmd, aug = augmented_navigator_step(
            s, mission, aug, oracle, force, cfg=cfg, params=PARAMS, dt=0.1
        )
        if previous is not None and aug.intermediate != previous:
            changes += 1
        previous = aug.intermediate
        s = step(s, cmd, environment.sample(s.pos, s.t), PARAMS, 0.1)
    assert changes <= 11  # one refresh per period, not per step


def test_intermediate_speed_positive():
    with pytest.raises(ValueError):
        Waypoint(pos=ORIGIN, spd_target=0.0)
