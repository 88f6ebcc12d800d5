"""Baseline navigator: PID arithmetic, waypoint logic, sign conventions."""

import math

import numpy as np
import pytest

from asvnav.augment import Navigator, navigator_step
from asvnav.control import (
    DEFAULT_GAINS,
    FRESH_PID,
    PidGains,
    Waypoint,
    pid_step,
    steer_toward,
    tracking_line,
    waypoint_reached,
)
from asvnav.geo import GeoPoint, displaced

ORIGIN = GeoPoint(34.0, -81.0)


def test_pid_zero_error_zero_output():
    gains = PidGains(kp=1.0, ki=0.5, kd=0.1, i_clamp=1.0)
    out, (integral, _) = pid_step(gains, FRESH_PID, 0.0, dt=1.0)
    assert out == 0.0
    assert integral == 0.0


def test_pid_pure_proportional():
    gains = PidGains(kp=1.0, ki=0.0, kd=0.0, i_clamp=1.0)
    out, _ = pid_step(gains, FRESH_PID, 10.0, dt=0.1)
    assert out == 10.0


def test_pid_integral_rectangle_sum():
    # ki = 0.5, constant error 2 for 4 s at dt = 1 -> integral term 4.0
    gains = PidGains(kp=0.0, ki=0.5, kd=0.0, i_clamp=4.0)
    state = FRESH_PID
    for _ in range(4):
        out, state = pid_step(gains, state, 2.0, dt=1.0)
    integral, _ = state
    assert integral == pytest.approx(4.0)
    assert out == pytest.approx(4.0)


def test_pid_integral_clamped():
    gains = PidGains(kp=0.0, ki=1.0, kd=0.0, i_clamp=0.5)
    state = FRESH_PID
    for _ in range(100):
        _, state = pid_step(gains, state, 10.0, dt=1.0)
        assert abs(state[0]) <= 0.5
    # and it unwinds symmetrically
    for _ in range(100):
        _, state = pid_step(gains, state, -10.0, dt=1.0)
        assert abs(state[0]) <= 0.5


def test_pid_derivative_first_step_is_zero():
    gains = PidGains(kp=0.0, ki=0.0, kd=1.0, i_clamp=1.0)
    out, state = pid_step(gains, FRESH_PID, 5.0, dt=0.1)
    assert out == 0.0
    out, _ = pid_step(gains, state, 6.0, dt=0.1)
    assert out == pytest.approx(10.0)


def test_pid_rejects_non_positive_dt():
    gains = PidGains(kp=1.0, ki=0.0, kd=0.0, i_clamp=1.0)
    for dt in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError, match=rf"^dt must be > 0, got {dt!r}$"):
            pid_step(gains, FRESH_PID, 1.0, dt=dt)


def test_steering_rejects_non_positive_dt():
    """steer_toward rejects dt <= 0 through pid_step, on each call; the
    navigator when its run constants are built, so also for a mission
    whose first tick completes it."""
    goal = Waypoint(displaced(ORIGIN, 0.0, 100.0), 2.0)
    line = tracking_line(ORIGIN.lat, ORIGIN.lon, goal.pos)
    for dt in (0.0, math.nan):
        with pytest.raises(ValueError, match=rf"^dt must be > 0, got {dt!r}$"):
            steer_toward(ORIGIN.lat, ORIGIN.lon, 0.0, 2.0, goal, line, DEFAULT_GAINS, FRESH_PID,
                         FRESH_PID, dt=dt)
        for mission in ([goal], [Waypoint(ORIGIN, 2.0)]):  # steering, then completing
            with pytest.raises(ValueError, match=rf"^dt must be > 0, got {dt!r}$"):
                Navigator(mission, dt=dt)


def test_waypoint_reached_boundary_inclusive():
    from asvnav.geo import distance_bearing

    wp = Waypoint(ORIGIN, 2.0)
    assert waypoint_reached(ORIGIN.lat, ORIGIN.lon, wp, radius=2.0)
    # exactly at the radius counts as reached (boundary inclusive)
    at_radius = displaced(ORIGIN, 2.0, 0.0)
    exact_range, _ = distance_bearing(at_radius, wp.pos)
    assert waypoint_reached(at_radius.lat, at_radius.lon, wp, radius=exact_range)
    outside = displaced(ORIGIN, 2.01, 0.0)
    assert not waypoint_reached(outside.lat, outside.lon, wp, radius=2.0)


def _navigate(mission, pos=ORIGIN, heading=0.0, speed=0.0, index=0,
              heading_pid=FRESH_PID, speed_pid=FRESH_PID, gains=DEFAULT_GAINS):
    """navigator_step without a model at pos with ground speed and heading,
    the navigator holding no tracking line: (thrust, rudder, index, line,
    heading_pid, speed_pid, intermediate, next_update_t)."""
    state = (index, None, heading_pid, speed_pid, None, -math.inf)
    thrust, rudder, state = navigator_step(Navigator(mission, gains=gains), pos.lat, pos.lon,
                                           speed, heading, 0.0, None, state)
    return (thrust, rudder, *state)


def test_navigator_zero_error_equilibrium():
    """On the bearing line, heading at the goal, at speed: rudder ~ 0."""
    goal = Waypoint(displaced(ORIGIN, 0.0, 100.0), 2.0)
    thrust, rudder, *_ = _navigate([goal], heading=0.0, speed=2.0)
    assert rudder == pytest.approx(0.0, abs=1e-9)
    assert 0.0 <= thrust < 0.2  # no speed error: only trim buildup


def test_navigator_starboard_sign_convention():
    """Waypoint due east while heading north: positive (starboard) rudder."""
    goal = Waypoint(displaced(ORIGIN, 100.0, 0.0), 2.0)
    _, rudder, *_ = _navigate([goal], heading=0.0, speed=2.0)
    assert rudder > 0.0


def test_navigator_heading_error_wrap_symmetry():
    """Errors of +179 and -179 degrees give near-equal opposite rudder."""
    gains = DEFAULT_GAINS
    east_goal = Waypoint(displaced(ORIGIN, 100.0, 0.0), 2.0)
    # goal bearing 90; heading 271 -> error +179; heading 269 -> error -179
    _, rudder_plus, *_ = _navigate([east_goal], heading=271.0, speed=2.0, gains=gains)
    _, rudder_minus, *_ = _navigate([east_goal], heading=269.0, speed=2.0, gains=gains)
    assert rudder_plus > 0.0 > rudder_minus
    assert abs(rudder_plus) == pytest.approx(abs(rudder_minus), rel=1e-9)


def test_navigator_advances_and_resets_integrators():
    goal0 = Waypoint(ORIGIN, 2.0)
    goal1 = Waypoint(displaced(ORIGIN, 0.0, 100.0), 2.0)
    # sitting on goal0
    _, _, index, _, heading_pid, speed_pid, _, _ = _navigate(
        [goal0, goal1], index=0, heading_pid=(0.3, 4.0), speed_pid=(0.2, 1.0)
    )
    assert index == 1
    # integrators were reset when the waypoint advanced, then one PID step ran
    heading_integral, _ = heading_pid
    _, speed_prev_error = speed_pid
    assert abs(heading_integral) < 0.01
    assert speed_prev_error == pytest.approx(2.0)


def test_navigator_mission_complete_zero_command():
    mission = [Waypoint(ORIGIN, 2.0)]
    thrust, rudder, index, *_ = _navigate(mission)
    assert index >= len(mission)  # the mission is complete
    assert thrust == 0.0 and rudder == 0.0


def test_navigator_empty_mission_rejected():
    with pytest.raises(ValueError, match="^mission must contain at least one waypoint$"):
        _navigate([])


def test_integrator_never_exceeds_clamp_random_inputs():
    gains = PidGains(kp=0.5, ki=0.7, kd=0.05, i_clamp=0.4)
    state = FRESH_PID
    rng = np.random.default_rng(17)
    for err in rng.uniform(-50, 50, size=2000):
        _, state = pid_step(gains, state, float(err), dt=0.1)
        assert abs(state[0]) <= 0.4


def test_aim_point_sits_on_leg_ahead_of_projection():
    from asvnav.control import aim_point
    from asvnav.geo import enu_coords

    anchor = ORIGIN
    target = displaced(ORIGIN, 0.0, 200.0)
    pos = displaced(ORIGIN, 5.0, 50.0)
    line = tracking_line(anchor.lat, anchor.lon, target)
    aim = GeoPoint(*aim_point(pos.lat, pos.lon, target, line, lookahead_m=25.0))
    off_e, off_n = enu_coords(anchor.lat, anchor.lon, aim.lat, aim.lon)
    assert off_e == pytest.approx(0.0, abs=1e-6)  # on the line
    assert off_n == pytest.approx(75.0, rel=1e-6)  # 50 along + 25 ahead


def test_aim_point_never_past_target():
    from asvnav.control import aim_point

    anchor = ORIGIN
    target = displaced(ORIGIN, 0.0, 200.0)
    pos = displaced(ORIGIN, 0.0, 190.0)
    line = tracking_line(anchor.lat, anchor.lon, target)
    aim = GeoPoint(*aim_point(pos.lat, pos.lon, target, line, lookahead_m=25.0))
    assert aim == target
