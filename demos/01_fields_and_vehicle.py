"""Disturbance fields and the vehicle model, step by step.

Samples a parabolic river current across its channel, shows sinusoidal
wind gusts, then runs the hull open loop to demonstrate that a uniform
current simply translates the calm-water trajectory (drift superposition).
"""

import math

from asvnav.env import Environment, FieldSpec, ForceVector, GustSpec, sample_field
from asvnav.geo import EnuVector, GeoPoint, distance_bearing, offset_point
from asvnav.vehicle import VehicleParams, step

origin = GeoPoint(34.0, -81.0)

print("=== river cross-section (parabolic lateral profile) ===")
river = FieldSpec.river_profile(
    axis_origin=origin, axis_bearing=150.0,
    centerline=ForceVector(1.0, 150.0), half_width=20.0,
)
for lateral in (-25, -20, -10, 0, 10, 20, 25):
    # move perpendicular to the channel axis
    p = offset_point(origin, EnuVector(lateral * math.cos(math.radians(150.0)),
                                       -lateral * math.sin(math.radians(150.0))))
    v = sample_field(river, p, 0.0)
    bar = "#" * int(40 * v.speed)
    print(f"  {lateral:+4d} m off-axis: {v.speed:4.2f} m/s {bar}")

print("\n=== gusting wind (sinusoidal, reproducible) ===")
wind = FieldSpec.uniform(ForceVector(4.0, 240.0), gust=GustSpec(amplitude=1.0, period_s=60.0))
for t in (0, 15, 30, 45, 60):
    print(f"  t={t:3d} s: {sample_field(wind, origin, t).speed:4.2f} m/s")

print("\n=== drift superposition (open loop, fixed heading and thrust) ===")
params = VehicleParams()
current = ForceVector(0.8, 135.0)
calm = Environment.calm()
drifted = Environment(FieldSpec.uniform(current), FieldSpec.calm())
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

predicted = offset_point(s_calm[0], EnuVector(ce * T, cn * T))
gap, _ = distance_bearing(predicted, s_cur[0])
print(f"  calm endpoint + current*T vs drifted endpoint: gap = {gap:.2e} m")
print("  (the current only translates the trajectory; the hull model is additive)")
