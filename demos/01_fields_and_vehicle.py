"""Disturbance fields and the vehicle model, step by step.

Samples a parabolic river current across its channel, shows sinusoidal
wind gusts, then runs the hull open loop to demonstrate that a uniform
current simply translates the calm-water trajectory (drift superposition).
"""

import math

from asvnav.env import Environment, FieldSpec, ForceVector, GustSpec, sample_field
from asvnav.geo import EnuVector, GeoPoint, distance_bearing, offset_point
from asvnav.vehicle import ActuatorCommand, AsvState, VehicleParams, step

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
cmd = ActuatorCommand(thrust=2.0 / params.max_water_speed, rudder=0.0)

s_calm = AsvState(pos=origin, spd_t=2.0, course_t=30.0, h_t=30.0,
                  through_water_speed=2.0, t=0.0)
ce, cn = current.enu()
s_cur = AsvState(pos=origin, spd_t=math.hypot(2.0 * math.sin(math.radians(30)) + ce,
                                              2.0 * math.cos(math.radians(30)) + cn),
                 course_t=30.0, h_t=30.0, through_water_speed=2.0, t=0.0)

T = 60.0
for _ in range(int(T / 0.1)):
    s_calm = step(s_calm, cmd, calm.sample(s_calm.pos, s_calm.t), params, 0.1)
    s_cur = step(s_cur, cmd, drifted.sample(s_cur.pos, s_cur.t), params, 0.1)

predicted = offset_point(s_calm.pos, EnuVector(ce * T, cn * T))
gap, _ = distance_bearing(predicted, s_cur.pos)
print(f"  calm endpoint + current*T vs drifted endpoint: gap = {gap:.2e} m")
print("  (the current only translates the trajectory; the hull model is additive)")
