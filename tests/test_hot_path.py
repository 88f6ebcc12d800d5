"""The per-tick clamps, bearing_of, GeoPoint, step's move and the block
noise draws against their min/max, wrap_angle, displaced and
one-call-per-tick reference forms, written out here, bit for bit.

max(a, b) returns a unless b > a, and min(a, b) returns a unless b < a, so
a clamp written as comparisons in the same argument order gives the same
bits for every input, -0.0 and NaN included. These tests hold the package
to that on the edges of each clamp: +-0.0, each bound and its nextafter
neighbours, +-inf and NaN where the function takes them, and seeded random
values.

The tick's layer steps (sense, relative_to_absolute, step, steer_toward,
navigator_step's waypoint advance and the grid sampler) write out the geo
and package helpers they used to call. Each is checked here against that
helper composition, which the package keeps: the zero vector with either
zero's sign, longitude differences on each side of +-180, angles that wrap
onto 0 and 360, non-finite inputs (the same exception type and message)
and seeded random values.
"""

import math
import pickle
import struct
import sys
from dataclasses import dataclass, replace

import numpy as np
import pytest

from asvnav import augment, control, env, geo, vehicle
from asvnav.control import FRESH_PID, NavGains, PidGains, Waypoint
from asvnav.env import Environment, FieldSpec, ForceVector, GustSpec, LeftDomainError
from asvnav.geo import (
    GeoPoint,
    bearing_of,
    enu_coords,
    offset_coords,
    point_coords,
    unit_enu,
    wrap_angle,
    wrap_signed,
)
from asvnav.vehicle import NoiseSpec, VehicleParams

RNG_SEED = 20260
INF, NAN = math.inf, math.nan


def _bits(value):
    """value with every float as its IEEE bytes, so -0.0 != 0.0 and NaN
    == NaN; tuples element by element."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if isinstance(value, float):
        return struct.pack("d", value)
    return value


def _outcome(fn, *args):
    """fn(*args) as bits, or the type and text of what it raised."""
    try:
        return _bits(fn(*args))
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _around(*bounds):
    """Each bound, its nextafter neighbours and +-0.0."""
    out = [0.0, -0.0]
    for b in bounds:
        out += [b, math.nextafter(b, -INF), math.nextafter(b, INF)]
    return out


def _random(lo, hi, n=500):
    return np.random.default_rng(RNG_SEED).uniform(lo, hi, n).tolist()


NON_FINITE = [INF, -INF, NAN]


# --------------------------------------------------------------------------
# the reference forms


def _old_clamped(thrust, rudder):
    if math.isfinite(thrust):
        thrust = min(1.0, max(0.0, thrust))
    if math.isfinite(rudder):
        rudder = min(1.0, max(-1.0, rudder))
    return thrust, rudder


def _old_steerage(params, through_water_speed):
    fraction = (through_water_speed / params.steerage_reference_speed) ** 2
    return min(1.0, max(params.steerage_floor, fraction))


def _old_pid_step(gains, state, error, dt):
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    integral, prev_error = state
    integral = integral + gains.ki * error * dt
    integral = min(gains.i_clamp, max(-gains.i_clamp, integral))
    derivative = 0.0 if prev_error is None else (error - prev_error) / dt
    return gains.kp * error + integral + gains.kd * derivative, (integral, error)


def _old_aim_point(lat, lon, target, line, lookahead_m):
    if line is None:
        return target.lat, target.lon
    anchor_lat, anchor_lon, leg_len, ue, un = line
    east, north = enu_coords(anchor_lat, anchor_lon, lat, lon)
    along = east * ue + north * un
    ahead = min(along + lookahead_m, leg_len)
    if ahead <= 0.0:
        if leg_len < lookahead_m:
            return target.lat, target.lon
        ahead = lookahead_m
    elif ahead >= leg_len:
        return target.lat, target.lon
    return point_coords(*offset_coords(anchor_lat, anchor_lon, ahead * ue, ahead * un))


def _old_bearing_of(east, north):
    if east == 0.0 and north == 0.0:
        return 0.0
    return wrap_angle(math.degrees(math.atan2(east, north)))


def _grid_nodes(field):
    """A grid field's node east/north arrays, by the sampler's expressions."""
    spd = np.array(field.speeds)
    rad = np.radians(np.array(field.directions))
    return spd * np.sin(rad), spd * np.cos(rad)


def _old_grid(field, lat, lon, t):
    """The grid sampler with its min/max index clamps, its flow turned to
    east/north by ForceVector; a point west of lon0 is measured a turn
    east again, for a grid across 180."""
    node_east, node_north = _grid_nodes(field)
    nodes = np.stack((node_east, node_north), axis=-1).tolist()
    ni, nj = node_east.shape
    edge_tol = 1e-9
    fi = (lat - field.lat0) / field.dlat
    fj = (lon - field.lon0) / field.dlon
    if fj < -edge_tol:
        fj = (lon - field.lon0 + 360.0) / field.dlon
    if fi < -edge_tol or fj < -edge_tol or fi > ni - 1 + edge_tol or fj > nj - 1 + edge_tol:
        raise LeftDomainError(f"point ({lat}, {lon}) outside grid field domain")
    fi = min(max(fi, 0.0), float(ni - 1))
    fj = min(max(fj, 0.0), float(nj - 1))
    i = min(int(fi), ni - 2)
    j = min(int(fj), nj - 2)
    wi = fi - i
    wj = fj - j
    vi = 1 - wi
    vj = 1 - wj
    row0, row1 = nodes[i], nodes[i + 1]
    c00, c01, c10, c11 = row0[j], row0[j + 1], row1[j], row1[j + 1]
    east = c00[0] * vi * vj + c10[0] * wi * vj + c01[0] * vi * wj + c11[0] * wi * wj
    north = c00[1] * vi * vj + c10[1] * wi * vj + c01[1] * vi * wj + c11[1] * wi * wj
    speed = math.hypot(east, north)
    if field.gust is not None:
        speed = max(0.0, speed + env._gust_term(field.gust, t))
    return ForceVector(speed, _old_bearing_of(east, north)).enu()


def _ref_hull_frame(vec_e, vec_n, heading):
    """(speed, direction-from-bow) of a world-frame vector: the helper
    sense absorbed."""
    speed = math.hypot(vec_e, vec_n)
    if speed == 0.0:
        return 0.0, 0.0
    return speed, wrap_angle(bearing_of(vec_e, vec_n) - heading)


def _ref_sense(vg_e, vg_n, h_t, flows, offsets=None):
    """sense as it called _ref_hull_frame and env._flow_direction."""
    ce, cn, we, wn = flows
    water_spd, water_dir = _ref_hull_frame(ce - vg_e, cn - vg_n, h_t)
    wind_spd, wind_dir = _ref_hull_frame(we - vg_e, wn - vg_n, h_t)
    if offsets is None:
        return water_spd, water_dir, wind_spd, wind_dir
    o_ws, o_wd, o_as, o_ad = offsets
    water_spd = max(0.0, water_spd + o_ws)
    wind_spd = max(0.0, wind_spd + o_as)
    return (water_spd, env._flow_direction(water_spd, water_dir + o_wd),
            wind_spd, env._flow_direction(wind_spd, wind_dir + o_ad))


def _ref_relative_to_absolute(vg_e, vg_n, h_t, speed, direction):
    ue, un = unit_enu(wrap_angle(direction + h_t))
    vec_e = speed * ue + vg_e
    vec_n = speed * un + vg_n
    return math.hypot(vec_e, vec_n), bearing_of(vec_e, vec_n)


def _ref_step(lat, lon, h_t, through_water_speed, t, turn_rate, thrust, rudder, flows, params,
              dt):
    """step as it called _check_dt, steerage_effectiveness, wrap_angle,
    _ground_velocity, offset_coords, point_coords, bearing_of and
    _check_state."""
    vehicle._check_dt(dt)
    if not (math.isfinite(thrust) and math.isfinite(rudder)):
        raise ValueError(f"non-finite actuator command (thrust={thrust!r}, rudder={rudder!r})")
    turn_authority = params.max_turn_rate * params.steerage_effectiveness(through_water_speed)
    commanded_rate = rudder * turn_authority
    turn_rate = turn_rate + (commanded_rate - turn_rate) * (dt / params.turn_time_constant)
    heading = wrap_angle(h_t + turn_rate * dt)
    target_tw = thrust * params.max_water_speed
    tw = through_water_speed + (target_tw - through_water_speed) * (
        dt / params.thrust_time_constant
    )
    vg_e, vg_n = vehicle._ground_velocity(tw, heading, flows, params)
    east, north = vg_e * dt, vg_n * dt
    if east != 0.0 or north != 0.0:
        lat, lon = offset_coords(lat, lon, east, north)
    lat, lon = point_coords(lat, lon)
    spd_t = math.hypot(vg_e, vg_n)
    course_t = bearing_of(vg_e, vg_n)
    t = t + dt
    vehicle._check_state(spd_t, tw, t, turn_rate)
    return lat, lon, spd_t, course_t, heading, tw, t, turn_rate


def _ref_steer_toward(lat, lon, h_t, spd_t, target, line, gains, heading_pid, speed_pid, dt):
    """steer_toward as it called aim_point, enu_coords, wrap_signed,
    bearing_of and vehicle._clamped."""
    aim_lat, aim_lon = control.aim_point(lat, lon, target.pos, line, gains.lookahead_m)
    to_aim_e, to_aim_n = enu_coords(lat, lon, aim_lat, aim_lon)
    heading_error = wrap_signed(bearing_of(to_aim_e, to_aim_n) - h_t)
    rudder, heading_pid = control.pid_step(gains.heading, heading_pid, heading_error, dt)
    speed_error = target.spd_target - spd_t
    thrust, speed_pid = control.pid_step(gains.speed, speed_pid, speed_error, dt)
    return *vehicle._clamped(thrust, rudder), heading_pid, speed_pid


def _ref_baseline_step(nav, lat, lon, spd_t, h_t, state):
    """navigator_step of a baseline Navigator as it advanced with
    control.waypoint_reached and steered with _ref_steer_toward."""
    index, line, heading_pid, speed_pid, intermediate, next_update_t = state
    mission = nav.mission
    reached = index
    while reached < len(mission) and control.waypoint_reached(lat, lon, mission[reached],
                                                              nav.radius):
        reached += 1
    if reached != index:
        index = reached
        heading_pid = speed_pid = FRESH_PID
        line, intermediate, next_update_t = None, None, -math.inf
    if index >= len(mission):
        return 0.0, 0.0, (index, None, heading_pid, speed_pid, None, -math.inf)
    target = mission[index]
    if line is None:
        line = control.tracking_line(lat, lon, target.pos)
    thrust, rudder, heading_pid, speed_pid = _ref_steer_toward(
        lat, lon, h_t, spd_t, target, line, nav.gains, heading_pid, speed_pid, nav.dt)
    return thrust, rudder, (index, line, heading_pid, speed_pid, intermediate, next_update_t)


@dataclass(frozen=True)
class _OldGeoPoint:
    lat: float
    lon: float

    def __post_init__(self):
        object.__setattr__(self, "lon", point_coords(self.lat, self.lon)[1])


# --------------------------------------------------------------------------
# vehicle


COMMAND_VALUES = _around(0.0, 1.0, -1.0) + NON_FINITE + _random(-1.5, 1.5)


def test_clamped_matches_min_max():
    for thrust in COMMAND_VALUES:
        for rudder in (thrust, -thrust, 0.5, -0.0):
            assert _outcome(vehicle._clamped, thrust, rudder) == \
                _outcome(_old_clamped, thrust, rudder), (thrust, rudder)


def test_steerage_effectiveness_matches_min_max():
    base = VehicleParams()
    speeds = _around(base.steerage_reference_speed, -base.steerage_reference_speed) \
        + NON_FINITE + _random(-3.0, 3.0)
    floors = [0.0, base.steerage_floor, 1.0]
    # floors each speed's own fraction sits on, and their neighbours
    for tw in _random(0.0, 2.0, 20):
        fraction = (tw / base.steerage_reference_speed) ** 2
        floors += [fraction, math.nextafter(fraction, 0.0), math.nextafter(fraction, 1.0)]
    for floor in floors:
        params = replace(base, steerage_floor=floor)
        for tw in speeds + [base.steerage_reference_speed * math.sqrt(floor)]:
            assert _outcome(params.steerage_effectiveness, tw) == \
                _outcome(_old_steerage, params, tw), (floor, tw)


def _old_noisy_sense(vg_e, vg_n, h_t, flows, offsets):
    """sense's noisy branch with max(0.0, ...), from the noise-free readings
    of the helper composition sense writes out (_ref_sense)."""
    water_spd, water_dir, wind_spd, wind_dir = _ref_sense(vg_e, vg_n, h_t, flows)
    o_ws, o_wd, o_as, o_ad = offsets
    water_spd = max(0.0, water_spd + o_ws)
    wind_spd = max(0.0, wind_spd + o_as)
    return (water_spd, env._flow_direction(water_spd, water_dir + o_wd),
            wind_spd, env._flow_direction(wind_spd, wind_dir + o_ad))


def test_noisy_sense_speed_clamp_matches_max():
    flows = (0.4, -0.5, -4.3, -2.5)
    vg_e, vg_n, h_t = 1.2, 0.7, 33.0
    water, _, wind, _ = vehicle.sense(vg_e, vg_n, h_t, flows)
    # speed offsets that put each noisy speed on zero, beside it, and beyond
    speed_offsets = [-water, -wind, math.nextafter(-water, -INF), math.nextafter(-water, INF),
                     math.nextafter(-wind, -INF), math.nextafter(-wind, INF), 0.0, -0.0,
                     INF, -INF, NAN] + _random(-8.0, 2.0, 200)
    for o_speed in speed_offsets:
        for offsets in ((o_speed, 0.6, o_speed, -1.4), (o_speed, -2.2, -o_speed, 0.4)):
            got = _outcome(vehicle.sense, vg_e, vg_n, h_t, flows, list(offsets))
            assert got == _outcome(_old_noisy_sense, vg_e, vg_n, h_t, flows, offsets), offsets


def test_step_moves_as_displaced():
    """step's (lat, lon) is the point geo.displaced returns for the step's
    move, bit for bit: a zero move (either zero's sign) keeps a -0.0
    latitude, which adding the zero move would turn into 0.0."""
    params, dt = VehicleParams(), 0.1
    tiny = 5e-324
    currents = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (tiny, 0.0), (0.0, -tiny),
                (1.3, -0.4), (-2.0, 0.7)]
    points = [(-0.0, 10.0), (0.0, -0.0), (34.0, -81.0), (-12.5, 179.99999), (89.9999, -180.0)]
    for lat, lon in map(point_coords, *zip(*points)):  # a state's position, as GeoPoint has it
        for ce, cn in currents:
            flows = (ce, cn, 0.0, 0.0)
            # at rest, heading north, no thrust or rudder: the ground
            # velocity is the current's
            got = vehicle.step(lat, lon, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, flows, params, dt)[:2]
            vg_e, vg_n = vehicle._ground_velocity(0.0, 0.0, flows, params)
            moved = geo.displaced(GeoPoint(lat, lon), vg_e * dt, vg_n * dt)
            assert _bits(got) == _bits((moved.lat, moved.lon)), (lat, lon, ce, cn)


@pytest.mark.parametrize("seed", [0, 1, 11, RNG_SEED])
def test_noise_blocks_are_the_per_call_draws(seed):
    """noise_draws hands out, tick by tick, the bits of one
    standard_normal(4) call per tick times (sigma_speed, sigma_dir,
    sigma_speed, sigma_dir), over more than two blocks and a partial one."""
    ticks = 2 * vehicle.NOISE_BLOCK + 37
    noise = NoiseSpec(sigma_speed=0.05, sigma_dir=2.0)
    offsets = vehicle.noise_draws(noise, seed)
    got = [tuple(next(offsets)) for _ in range(ticks)]
    rng = np.random.default_rng(seed)
    sigmas = (noise.sigma_speed, noise.sigma_dir, noise.sigma_speed, noise.sigma_dir)
    expected = [tuple((rng.standard_normal(4) * sigmas).tolist()) for _ in range(ticks)]
    assert _bits(tuple(got)) == _bits(tuple(expected))


# --------------------------------------------------------------------------
# control


def test_pid_integral_clamp_matches_min_max():
    gains = PidGains(kp=0.6, ki=1.0, kd=0.25, i_clamp=0.3)
    # with ki = dt = 1 and error -0.0 the clamp sees the stored integral as is
    integrals = _around(gains.i_clamp, -gains.i_clamp) + NON_FINITE + _random(-0.6, 0.6)
    for integral in integrals:
        for state, error in (((integral, None), -0.0), ((integral, 0.1), -0.0),
                             ((integral, None), 0.05), ((integral, -0.2), -0.05)):
            assert _outcome(control.pid_step, gains, state, error, 1.0) == \
                _outcome(_old_pid_step, gains, state, error, 1.0), (state, error)


def test_aim_point_ahead_clamp_matches_min():
    anchor = GeoPoint(34.0, -81.0)
    target = GeoPoint(34.0018, -80.9991)
    _, _, _, ue, un = control.tracking_line(anchor.lat, anchor.lon, target)
    lookahead = 25.0
    rng = np.random.default_rng(RNG_SEED)
    for along_m in (-40.0, -25.0, -0.0, 0.0, 3.0, 150.0, 260.0):
        lat, lon = offset_coords(anchor.lat, anchor.lon, along_m * ue + 4.0 * un,
                                 along_m * un - 4.0 * ue)
        east, north = enu_coords(anchor.lat, anchor.lon, lat, lon)
        ahead = east * ue + north * un + lookahead
        # leg lengths on the aim distance, beside it, and at the edges
        for leg_len in (_around(ahead, lookahead, -ahead) + [INF, NAN]
                        + rng.uniform(0.0, 300.0, 50).tolist()):
            line = (anchor.lat, anchor.lon, leg_len, ue, un)
            assert _outcome(control.aim_point, lat, lon, target, line, lookahead) == \
                _outcome(_old_aim_point, lat, lon, target, line, lookahead), (along_m, leg_len)


# --------------------------------------------------------------------------
# env


def _grid_field(gust=None):
    speeds = [[0.6 + 0.05 * i + 0.03 * j for j in range(4)] for i in range(4)]
    directions = [[140.0 + 7.0 * i - 5.0 * j for j in range(4)] for i in range(4)]
    return FieldSpec.grid(34.0, -81.0, 1e-3, 1.2e-3, speeds, directions, gust)


@pytest.mark.parametrize("gust", [None, GustSpec(amplitude=0.5, period_s=7.0)])
def test_grid_index_clamps_match_min_max(gust):
    field = _grid_field(gust)
    sampler = env._sampler(field)
    ni, nj = _grid_nodes(field)[0].shape
    tol = 1e-9
    # fractional indices on the domain edges, the edge tolerance and the
    # last cell's start, each with its neighbours
    fractions = _around(0.0, -tol, ni - 2.0, ni - 1.0, ni - 1.0 + tol, 1.0, -2 * tol) \
        + _random(-0.01, ni - 0.99, 100)
    points = []
    for fi in fractions:
        for fj in (0.0, fi, nj - 1.0, 1.5):
            points.append((field.lat0 + fi * field.dlat, field.lon0 + fj * field.dlon))
    points += [(field.lat0, field.lon0), (field.lat0 + 3 * field.dlat, field.lon0 + 3 * field.dlon)]
    points += [(x, field.lon0) for x in NON_FINITE] + [(field.lat0, x) for x in NON_FINITE]
    for lat, lon in points:
        for t in (0.0, 1.75):
            assert _outcome(sampler, lat, lon, t) == _outcome(_old_grid, field, lat, lon, t), \
                (lat, lon, t)


def test_flow_matches_force_vector_enu():
    # what a sampler hands _flow: speeds from hypot or max(0.0, ...) and
    # directions from bearing_of, so >= 0 and never -0.0
    def signless(values):
        return [v for v in values if v >= 0.0 and _bits(v) != _bits(-0.0)]

    speeds = signless(_around(1.0) + _random(0.0, 8.0, 100) + [5e-324, 1e300])
    directions = [d for d in signless(_around(90.0, 180.0, 270.0, 360.0) + _random(0.0, 360.0, 100))
                  if d < 360.0]
    for speed in speeds:
        for direction in directions:
            assert _bits(env._flow(speed, direction)) == \
                _bits(ForceVector(speed, direction).enu()), (speed, direction)


def test_still_pair_samples_one_tuple():
    current = FieldSpec.uniform(0.677, 150.0)
    wind = FieldSpec.uniform(5.0, 240.0)
    environment = Environment(current, wind)
    flows = environment.sample(34.0, -81.0, 0.0)
    expected = (*env._sampler(current)(0.0, 0.0, 0.0), *env._sampler(wind)(0.0, 0.0, 0.0))
    assert _bits(flows) == _bits(expected)
    assert environment.sample(10.0, 20.0, 99.0) is flows
    assert _bits(pickle.loads(pickle.dumps(environment)).sample(0.0, 0.0, 0.0)) == _bits(expected)
    gusty = Environment(current, FieldSpec.uniform(5.0, 240.0,
                                                   GustSpec(amplitude=1.5, period_s=7.0)))
    assert gusty.sample(34.0, -81.0, 0.0) == expected
    assert gusty.sample(34.0, -81.0, 1.75) != expected


# --------------------------------------------------------------------------
# geo


def test_bearing_of_matches_wrap_angle_of_atan2():
    tiny = 5e-324
    values = [0.0, -0.0, tiny, -tiny, 1.0, -1.0, 1e-300, -1e-300, 1e300, -1e300] + NON_FINITE
    pairs = [(e, n) for e in values for n in values]
    rng = np.random.default_rng(RNG_SEED)
    pairs += list(zip(rng.normal(0.0, 3.0, 2000).tolist(), rng.normal(0.0, 3.0, 2000).tolist()))
    # vectors whose bearing sits on 0, 90, 180 and 270 degrees and beside them
    for e, n in ((0.0, 1.0), (1.0, 0.0), (0.0, -1.0), (-1.0, 0.0)):
        for d in (tiny, -tiny, 1e-17, -1e-17):
            pairs += [(e + d, n + d), (e + d, n - d), (e - d, n + d)]
    # atan2 in degrees at -180.0, its neighbour, -1e-14 (where + 360.0
    # rounds to 360.0) and a subnormal: the edges of wrap_angle's full path
    pairs += [(-0.0, -1.0), (-3.452271214393104e-16, -1.0), (-1.7453292519943295e-16, 1.0),
              (-5e-324, 1.0)]
    for east, north in pairs:
        assert _outcome(bearing_of, east, north) == _outcome(_old_bearing_of, east, north), \
            (east, north)
    with pytest.raises(ValueError):
        bearing_of(NAN, 1.0)


def test_geopoint_matches_the_generated_init():
    rng = np.random.default_rng(RNG_SEED)
    lats = _around(90.0, -90.0) + rng.uniform(-90.0, 90.0, 100).tolist() + [34, -12]
    lons = _around(180.0, -180.0, 540.0, -540.0, 360.0) + rng.uniform(-720.0, 720.0, 100).tolist()
    for lat in lats:
        for lon in lons[::7] + [lon for lon in lons if abs(abs(lon) - 180.0) < 1.0]:
            new, old = _outcome(GeoPoint, lat, lon), _outcome(_OldGeoPoint, lat, lon)
            if isinstance(old, tuple):
                assert new == old
                continue
            assert (_bits(new.lat), _bits(new.lon)) == (_bits(old.lat), _bits(old.lon))
            assert type(new.lat) is type(old.lat)


def test_geopoint_checks_wraps_and_stays_a_frozen_dataclass():
    for lat, lon in ((NAN, 0.0), (0.0, INF), (-INF, 0.0), (90.5, 0.0), (-91.0, 0.0)):
        with pytest.raises(ValueError):
            GeoPoint(lat, lon)
    assert GeoPoint(10.0, 180.0).lon == -180.0
    assert GeoPoint(10.0, 190.0).lon == -170.0
    assert GeoPoint(lat=10.0, lon=-190.0) == GeoPoint(10.0, 170.0)
    p = GeoPoint(34.0, -81.0)
    assert hash(p) == hash(GeoPoint(34.0, -81.0))
    assert replace(p, lon=200.0) == GeoPoint(34.0, -160.0)
    with pytest.raises(ValueError):
        replace(p, lat=100.0)
    assert pickle.loads(pickle.dumps(p)) == p
    assert repr(p) == "GeoPoint(lat=34.0, lon=-81.0)"
    with pytest.raises(AttributeError):
        p.lat = 1.0


# --------------------------------------------------------------------------
# the tick's written-out blocks, against the helper compositions they replace


# the zero vector with either zero's sign, vectors on the axes (atan2 of
# (-0.0, -1.0) is -180 degrees) and vectors one subnormal off them
ZERO_VECTORS = [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)]
AXIS_VECTORS = [(0.0, 1.0), (1.0, 0.0), (0.0, -1.0), (-1.0, 0.0), (-0.0, -1.0), (-5e-324, 1.0),
                (5e-324, -0.0), (-1.0, -0.0)]


def _onto_0_and_360(angle):
    """Angles that, subtracted from angle, leave 0, 360 or +-180 degrees,
    exactly or one rounding off: where a wrap lands on its edges."""
    out = [angle - d for d in (0.0, 360.0, -360.0, 720.0, 180.0, -180.0)]
    out += [math.nextafter(angle, INF), math.nextafter(angle, -INF), angle + 1e-14, angle - 1e-14]
    return out


def _pick(rng, *choices):
    """One value of each list of choices."""
    return tuple(c[rng.integers(len(c))] for c in choices)


def _ref_bearing_or_zero(east, north):
    """bearing_of, or 0.0 where it raises."""
    try:
        return bearing_of(east, north)
    except ValueError:
        return 0.0


def test_sense_matches_its_helper_composition():
    rng = np.random.default_rng(RNG_SEED)
    vectors = ZERO_VECTORS + AXIS_VECTORS + [tuple(v) for v in rng.normal(0.0, 3.0, (60, 2))]
    flows_list = [(e, n, -n, e) for e, n in vectors] + [(e, n, 0.0, -0.0) for e, n in vectors]
    flows_list += [(NAN, 0.0, 1.0, 1.0), (1.0, INF, 0.0, 0.0), (0.0, 0.0, -INF, 1.0),
                   (0.0, 0.0, NAN, NAN)]
    offsets_list = [None, [0.0, -0.0, -0.0, 0.0], [-10.0, 3.0, -10.0, -3.0],
                    [NAN, 0.0, 0.0, INF], [0.0, INF, 0.0, NAN]]
    offsets_list += (rng.normal(0.0, 1.0, (4, 4)) * (0.05, 2.0, 0.05, 2.0)).tolist()
    for vg_e, vg_n in ((0.0, 0.0), (-0.0, -0.0), (1.2, 0.7), (-0.4, 1e-300)):
        for flows in flows_list:
            ce, cn, we, wn = flows
            headings = (_onto_0_and_360(_ref_bearing_or_zero(ce - vg_e, cn - vg_n))
                        + _onto_0_and_360(_ref_bearing_or_zero(we - vg_e, wn - vg_n))
                        + [0.0, -0.0, 360.0, rng.uniform(-720.0, 720.0)] + NON_FINITE)
            for h_t in headings:
                for offsets in offsets_list:
                    assert _outcome(vehicle.sense, vg_e, vg_n, h_t, flows, offsets) == \
                        _outcome(_ref_sense, vg_e, vg_n, h_t, flows, offsets), \
                        (vg_e, vg_n, h_t, flows, offsets)
    with pytest.raises(ValueError, match="angle must be finite, got nan"):
        vehicle.sense(0.0, 0.0, NAN, (1.0, 0.0, 0.0, 0.0))


def test_relative_to_absolute_matches_its_helper_composition():
    rng = np.random.default_rng(RNG_SEED)
    vgs = ZERO_VECTORS + [(1.2, 0.7), (-0.3, -2.0), (1.0, -math.cos(math.radians(270.0))),
                          (NAN, 0.0), (0.0, -INF)]
    speeds = [0.0, -0.0, 1.0, 0.677, 5e-324, 1e300, INF, NAN] + rng.uniform(0.0, 8.0, 8).tolist()
    # direction + h_t on 0, 360 and their edges, ints (which wrap_angle
    # turns to floats) and angles a turn or two away
    angle_pairs = [(0.0, 0.0), (-0.0, 0.0), (-0.0, -0.0), (360.0, 0.0), (180.0, 180.0),
                   (180.0, 0.0), (270.0, 0.0), (1e-14, -2e-14), (-1e-14, 0.0), (-5e-324, 0.0),
                   (359.0, 1.0), (90, 0), (400, 0), (-30, 0), (30, 45), (0, 0), (725.5, -1.5),
                   (NAN, 0.0), (0.0, INF), (-INF, 1.0)]
    angle_pairs += [tuple(p) for p in rng.uniform(-400.0, 400.0, (30, 2)).tolist()]
    for vg_e, vg_n in vgs:
        for speed in speeds:
            for direction, h_t in angle_pairs:
                args = (vg_e, vg_n, h_t, speed, direction)
                assert _outcome(vehicle.relative_to_absolute, *args) == \
                    _outcome(_ref_relative_to_absolute, *args), args
    # a zero result vector of either sign has bearing 0.0, not atan2's 180
    assert vehicle.relative_to_absolute(0.0, -0.0, 0.0, 0.0, 180.0) == (0.0, 0.0)


# non-default hull parameters: every field differs from its default
HULL = VehicleParams(max_water_speed=4.0, thrust_time_constant=2.0, max_turn_rate=45.0,
                     wind_drag_factor=0.1, steerage_reference_speed=1.5, steerage_floor=0.25,
                     turn_time_constant=0.7)


def test_step_matches_its_helper_composition():
    rng = np.random.default_rng(RNG_SEED)
    positions = [point_coords(lat, lon) for lat, lon in (
        (34.0, -81.0), (-0.0, 179.99999), (12.0, -180.0), (12.0, 179.9999999999),
        (89.99999, 10.0), (-89.99999, 0.0), (0.0, -0.0), (-0.0, 10.0))]
    # unwrapped longitudes, one a rounding west of -180 (which wraps onto
    # 180.0, then to -180.0), and positions off the map
    positions += [(12.0, math.nextafter(-180.0, -INF)), (12.0, 180.0), (-0.0, -540.0),
                  (NAN, 0.0), (0.0, INF), (91.0, 0.0)]
    flows_list = [(e, n, 0.0, 0.0) for e, n in ZERO_VECTORS + AXIS_VECTORS]
    # a move west of a few nanometres: from -180.0, one rounding across it
    flows_list += [(-3e-8, 0.0, 0.0, 0.0)]
    flows_list += [(0.0, 0.0, e, n) for e, n in ZERO_VECTORS]
    flows_list += [tuple(f) for f in rng.normal(0.0, 2.0, (20, 4)).tolist()]
    # a move at the offset limit and beyond it, and a move off a pole
    flows_list += [(1e5, 0.0, 0.0, 0.0), (0.0, -1e5, 0.0, 0.0), (0.0, 300.0, 0.0, 0.0),
                   (NAN, 0.0, 0.0, 0.0), (0.0, 0.0, INF, 0.0)]
    headings = [0.0, -0.0, 360.0, 1e-14, -1e-14, math.nextafter(360.0, 0.0), 180.0, 725.0,
                -5e-324] + NON_FINITE
    water_speeds = [0.0, -0.0, 1.7, 1.5, 2.0, 6.25, -1.0] + NON_FINITE
    times = [0.0, 12.3, INF, NAN]
    turn_rates = [0.0, -0.0, -3.0, 12.0, INF, NAN]
    commands = [0.0, -0.0, 0.5, 1.0, -1.0, NAN, INF]
    dts = [0.1, 0.05, vehicle.MAX_STEP_DT, math.nextafter(vehicle.MAX_STEP_DT, INF), 0.0, -0.1,
           NAN]
    for _ in range(20_000):
        (lat, lon), flows, h_t, tw, t, turn_rate, thrust, rudder, dt, params = _pick(
            rng, positions, flows_list, headings, water_speeds, times, turn_rates, commands,
            commands, dts, [VehicleParams(), HULL])
        # mostly in-range values, so most steps get to the end
        if rng.random() < 0.5:
            tw, t, turn_rate = rng.uniform(0.0, 3.0), rng.uniform(0.0, 100.0), rng.normal(0.0, 5.0)
            thrust, rudder, dt = rng.uniform(0.0, 1.0), rng.uniform(-1.0, 1.0), 0.1
        args = (lat, lon, h_t, tw, t, turn_rate, thrust, rudder, flows, params, dt)
        assert _outcome(vehicle.step, *args) == _outcome(_ref_step, *args), args


# non-default gains: kd is not zero, and the lookahead differs from every
# other length here
GAINS = NavGains(heading=PidGains(kp=0.9, ki=0.15, kd=0.3, i_clamp=0.4),
                 speed=PidGains(kp=0.4, ki=0.25, kd=0.1, i_clamp=1.1), lookahead_m=31.0)


def _lines():
    """(target, line) pairs: tracking lines near the suite, across the
    antimeridian (both ways) and onto a target at latitude -0.0, and lines
    with edge lengths (a zero length aims at the target itself)."""
    out = []
    for (a_lat, a_lon), (b_lat, b_lon) in (((34.0, -81.0), (34.0018, -80.9991)),
                                           ((10.0, 179.9995), (10.0003, -179.9993)),
                                           ((-20.0, -179.9992), (-20.0004, 179.9996)),
                                           ((0.0, -0.0), (-0.0002, 0.0)),
                                           ((0.0002, 0.0), (-0.0, 0.0))):
        target = GeoPoint(b_lat, b_lon)
        line = control.tracking_line(a_lat, a_lon, target)
        out.append((target, line))
        for leg_len in (0.0, 5e-324, 31.0, math.nextafter(31.0, 0.0), INF, NAN):
            out.append((target, (*line[:2], leg_len, *line[3:])))
    return out


def _line_aiming_past_minus_180():
    """A line west-south-west from the equator whose aim point,
    GAINS.lookahead_m from its anchor, lands one rounding west of -180
    degrees: a longitude that point_coords wraps onto 180.0, then to
    -180.0."""
    ue, un = unit_enu(250.0)
    east, north = GAINS.lookahead_m * ue, GAINS.lookahead_m * un
    goal = math.nextafter(-180.0, -INF)
    start = goal - offset_coords(0.0, 0.0, east, north)[1]
    for step in range(128):
        anchor_lon = start
        for _ in range(step // 2):
            anchor_lon = math.nextafter(anchor_lon, INF if step % 2 else -INF)
        if offset_coords(0.0, anchor_lon, east, north)[1] == goal:
            return 0.0, anchor_lon, 100.0, ue, un
    raise AssertionError("no anchor longitude found")


def test_steer_toward_aim_wrapping_onto_180():
    """Vehicles a little across the track of _line_aiming_past_minus_180
    (and a turn east), whose aim point wraps onto 180.0 and then -180.0:
    left at 180.0 it would round the bearing to the aim differently."""
    line = _line_aiming_past_minus_180()
    _, anchor_lon, _, ue, un = line
    target = Waypoint(GeoPoint(0.0, -179.9), 1.6)
    wrapped = 0
    for across in (0.5, 1.0, -2.0):
        lat, lon = offset_coords(0.0, anchor_lon, across * un, -across * ue)
        for lon in (lon, lon + 360.0):
            args = (lat, lon, 250.0, 1.6, target, line, GAINS, FRESH_PID, FRESH_PID, 0.1)
            assert _bits(control.steer_toward(*args)) == _bits(_ref_steer_toward(*args))
            wrapped += control.aim_point(lat, lon, target.pos, line, GAINS.lookahead_m)[1] == -180.0
    assert wrapped >= 4


def test_steer_toward_matches_its_helper_composition():
    rng = np.random.default_rng(RNG_SEED)
    pid_states = [FRESH_PID, (0.1, 2.0), (-0.3, -5.0), (0.0, None)]
    for target, line in _lines():
        anchor_lat, anchor_lon, _, ue, un = line
        positions = [(anchor_lat, anchor_lon), (target.lat, target.lon)]
        for along, across in [(-40.0, 3.0), (-31.0, 0.0), (0.0, -0.0), (10.0, 4.0),
                              (250.0, -2.0)] + rng.normal(0.0, 80.0, (12, 2)).tolist():
            positions.append(point_coords(*offset_coords(
                anchor_lat, anchor_lon, along * ue + across * un, along * un - across * ue)))
        # half a turn from the anchor and from the target (dlon exactly
        # +-180), at latitude 0.0 beside a -0.0 target (an aim vector of
        # (0.0, -0.0)), and off the map
        positions += [(anchor_lat, anchor_lon + 180.0), (anchor_lat, anchor_lon - 180.0),
                      point_coords(target.lat, target.lon + 180.0),
                      (target.lat, target.lon - 180.0), (0.0, target.lon), (NAN, anchor_lon),
                      (anchor_lat, INF)]
        for lat, lon in positions:
            try:
                aim = control.aim_point(lat, lon, target, line, GAINS.lookahead_m)
                bearing = bearing_of(*enu_coords(lat, lon, *aim))
            except ValueError:
                bearing = 0.0
            for h_t in _onto_0_and_360(bearing) + [-0.0, 360.0] + NON_FINITE:
                spd_t, dt = _pick(rng, [0.0, 1.6, 2.5, NAN], [0.1, 0.1, 0.25, 0.0, NAN])
                heading_pid, speed_pid = _pick(rng, pid_states, pid_states)
                for gains in (GAINS, control.DEFAULT_GAINS):
                    wp = Waypoint(target, 1.6)
                    args = (lat, lon, h_t, spd_t, wp, line, gains, heading_pid, speed_pid, dt)
                    assert _outcome(control.steer_toward, *args) == \
                        _outcome(_ref_steer_toward, *args), args


def test_waypoint_advance_matches_waypoint_reached():
    rng = np.random.default_rng(RNG_SEED)
    # waypoints a metre or two apart across the antimeridian, so one tick
    # can reach several
    mission = [Waypoint(GeoPoint(lat, lon), 1.6) for lat, lon in (
        (10.0, 179.99998), (10.0, -179.99999), (10.00001, -179.99998), (10.00002, -179.99998))]
    positions = [(w.pos.lat, w.pos.lon) for w in mission]
    moves = [(-1.0, 0.5), (0.8, -0.0), (-0.0, 0.0)] + rng.normal(0.0, 2.0, (12, 2)).tolist()
    positions += [point_coords(*offset_coords(10.0, 179.99998, *d)) for d in moves]
    # half a turn from the first waypoint, and off the map
    positions += [(10.0, 179.99998 - 180.0), (NAN, 179.99998), (10.0, -INF)]
    for lat, lon in positions:
        for index in range(len(mission) + 1):
            radii = [2.0, 0.5]
            if index < len(mission):
                # radii on the distance to the active waypoint and beside it
                d = math.hypot(*enu_coords(lat, lon, mission[index].pos.lat,
                                           mission[index].pos.lon))
                radii += [d, math.nextafter(d, 0.0), math.nextafter(d, INF)]
            # a Navigator refuses the rest when built (the next test)
            for radius in [r for r in radii if 0.0 < r < INF]:
                nav = augment.Navigator(mission, gains=GAINS, dt=0.1, radius=radius)
                state = (index, None, (0.1, 0.2), (0.0, None), None, -INF)
                args = (lat, lon, 1.6, 33.0)
                assert _outcome(augment.navigator_step, nav, *args, 5.0, None, state) == \
                    _outcome(_ref_baseline_step, nav, *args, state), (lat, lon, index, radius)


@pytest.mark.parametrize("radius", [0.0, -0.0, -1.0, NAN, INF, -INF])
def test_navigator_rejects_a_radius_outside_zero_to_inf(radius):
    """A Navigator checks its radius once, when built, by Scenario's rule
    for acceptance_radius_m: 0 < radius < inf. Before any step, NaN (which
    never reaches a waypoint) and inf (which reaches them all on the first
    tick) are refused with 0 and negative radii."""
    mission = [Waypoint(GeoPoint(10.0, 179.99998), 1.6)]
    with pytest.raises(ValueError, match=rf"^radius must be > 0 and finite, got {radius!r}$"):
        augment.Navigator(mission, gains=GAINS, dt=0.1, radius=radius)
    for radius in (5e-324, sys.float_info.max):  # the extremes the rule keeps
        assert augment.Navigator(mission, gains=GAINS, dt=0.1, radius=radius).radius == radius


@pytest.mark.parametrize("direction", [0.0, -0.0, 360.0, 180.0, math.nextafter(360.0, 0.0)])
def test_grid_flow_along_an_axis_matches(direction):
    """Grid nodes all toward one direction on an axis: bearings of
    interpolated vectors one rounding off north (360.0 gives sin -2.4e-16)
    wrap onto 360.0, then 0.0."""
    field = replace(_grid_field(), directions=[[direction] * 4] * 4)
    sampler = env._sampler(field)
    for fi, fj in [(0.0, 0.0), (1.5, 2.25)] + \
            np.random.default_rng(RNG_SEED).uniform(0.0, 3.0, (20, 2)).tolist():
        lat, lon = field.lat0 + fi * field.dlat, field.lon0 + fj * field.dlon
        assert _outcome(sampler, lat, lon, 0.0) == _outcome(_old_grid, field, lat, lon, 0.0)


@pytest.mark.parametrize("lon0", [-81.004, -180.0, math.nextafter(180.0, 0.0)])
def test_grid_lon0_in_range_keeps_its_bits(lon0):
    """A lon0 in [-180, 180) is used as given, even where wrapping it as
    point_coords does would move its last bits (-81.004 would become
    -81.00400000000002)."""
    field = replace(_grid_field(), lon0=lon0)
    sampler = env._sampler(field)
    for fi, fj in [(0.0, 0.0), (0.5, 1.25), (3.0, 3.0), (-2e-9, 1.0)] + \
            np.random.default_rng(RNG_SEED).uniform(0.0, 3.0, (40, 2)).tolist():
        lat, lon = point_coords(field.lat0 + fi * field.dlat, lon0 + fj * field.dlon)
        assert _outcome(sampler, lat, lon, 0.0) == _outcome(_old_grid, field, lat, lon, 0.0)


@pytest.mark.parametrize("turns", [1, -1, 2])
def test_grid_lon0_off_the_map_samples_as_wrapped(turns):
    """A lon0 on another turn of the globe samples as the grid whose lon0 is
    wrapped as point_coords wraps it."""
    field = _grid_field()
    moved = replace(field, lon0=field.lon0 + 360.0 * turns)
    wrapped = replace(field, lon0=point_coords(moved.lat0, moved.lon0)[1])
    moved_sampler, wrapped_sampler = env._sampler(moved), env._sampler(wrapped)
    for fi, fj in np.random.default_rng(RNG_SEED).uniform(-0.1, 3.1, (60, 2)).tolist():
        lat, lon = point_coords(wrapped.lat0 + fi * field.dlat, wrapped.lon0 + fj * field.dlon)
        assert _outcome(moved_sampler, lat, lon, 0.0) == _outcome(wrapped_sampler, lat, lon, 0.0)
