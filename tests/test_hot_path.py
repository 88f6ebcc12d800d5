"""The per-tick clamps, bearing_of, GeoPoint, step's move and the block
noise draws against their min/max, wrap_angle, displaced and
one-call-per-tick reference forms, written out here, bit for bit.

max(a, b) returns a unless b > a, and min(a, b) returns a unless b < a, so
a clamp written as comparisons in the same argument order gives the same
bits for every input, -0.0 and NaN included. These tests hold the package
to that on the edges of each clamp: +-0.0, each bound and its nextafter
neighbours, +-inf and NaN where the function takes them, and seeded random
values.
"""

import math
import pickle
import struct
from dataclasses import dataclass, replace

import numpy as np
import pytest

from asvnav import control, env, geo, vehicle
from asvnav.control import PidGains
from asvnav.env import Environment, FieldSpec, ForceVector, GustSpec, LeftDomainError
from asvnav.geo import GeoPoint, bearing_of, enu_coords, offset_coords, point_coords, wrap_angle
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
    east/north by ForceVector."""
    node_east, node_north = _grid_nodes(field)
    nodes = np.stack((node_east, node_north), axis=-1).tolist()
    ni, nj = node_east.shape
    edge_tol = 1e-9
    fi = (lat - field.lat0) / field.dlat
    fj = (lon - field.lon0) / field.dlon
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
    """sense's noisy branch with max(0.0, ...), from the noise-free readings."""
    water_spd, water_dir, wind_spd, wind_dir = vehicle.sense(vg_e, vg_n, h_t, flows)
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
    offsets = vehicle.noise_draws(noise, np.random.default_rng(seed))
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
