"""Disturbance fields and the vehicle model, step by step.

Samples a parabolic river current across its channel, shows sinusoidal
wind gusts, then runs the hull open loop to demonstrate that a uniform
current simply translates the calm-water trajectory (drift superposition).
"""

import math

from asvnav.env import Environment, FieldSpec, ForceVector, GustSpec
from asvnav.geo import GeoPoint, displaced, distance_bearing
from asvnav.vehicle import VehicleParams, step

origin = GeoPoint(34.0, -81.0)

print("=== river cross-section (parabolic lateral profile) ===")
river = FieldSpec.river_profile(
    axis_origin=origin, axis_bearing=150.0,
    centerline_speed=1.0, centerline_direction=150.0, half_width_m=20.0,
)
for lateral in (-25, -20, -10, 0, 10, 20, 25):
    # move perpendicular to the channel axis
    p = displaced(origin, lateral * math.cos(math.radians(150.0)),
                  -lateral * math.sin(math.radians(150.0)))
    east, north, _, _ = Environment(river, FieldSpec.calm()).sample(p, 0.0)
    speed = math.hypot(east, north)
    bar = "#" * int(40 * speed)
    print(f"  {lateral:+4d} m off-axis: {speed:4.2f} m/s {bar}")

print("\n=== gusting wind (sinusoidal, reproducible) ===")
wind = FieldSpec.uniform(4.0, 240.0, gust=GustSpec(amplitude=1.0, period_s=60.0))
gusty = Environment(FieldSpec.calm(), wind)
for t in (0, 15, 30, 45, 60):
    _, _, we, wn = gusty.sample(origin, t)
    print(f"  t={t:3d} s: {math.hypot(we, wn):4.2f} m/s")

print("\n=== drift superposition (open loop, fixed heading and thrust) ===")
params = VehicleParams()
current = ForceVector(0.8, 135.0)
calm = Environment.calm()
drifted = Environment(FieldSpec.uniform(current.speed, current.direction), FieldSpec.calm())
thrust = 2.0 / params.max_water_speed  # rudder amidships

# A hull state is the tuple step takes apart and returns:
# (pos, spd_t, course_t, h_t, through_water_speed, t, turn_rate).
s_calm = (origin, 2.0, 30.0, 30.0, 2.0, 0.0, 0.0)
ce, cn = current.enu()
spd_cur = math.hypot(2.0 * math.sin(math.radians(30)) + ce, 2.0 * math.cos(math.radians(30)) + cn)
s_cur = (origin, spd_cur, 30.0, 30.0, 2.0, 0.0, 0.0)


def advance(s: tuple, environment: Environment) -> tuple:
    """One 0.1 s step of the hull at thrust, in the flows at its position."""
    pos, _, _, h_t, through_water_speed, t, turn_rate = s
    flows = environment.sample(pos, t)
    return step(pos, h_t, through_water_speed, t, turn_rate, thrust, 0.0, flows, params, 0.1)


T = 60.0
for _ in range(int(T / 0.1)):
    s_calm = advance(s_calm, calm)
    s_cur = advance(s_cur, drifted)

predicted = displaced(s_calm[0], ce * T, cn * T)
gap, _ = distance_bearing(predicted, s_cur[0])
print(f"  calm endpoint + current*T vs drifted endpoint: gap = {gap:.2e} m")
print("  (the current only translates the trajectory; the hull model is additive)")
