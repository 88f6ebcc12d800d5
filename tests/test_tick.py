"""The per-tick contract of run_scenario and the training sweep: one field
sample per tick, trajectories that stay the same bit for bit, and a loop
that is the public per-layer API stepped by hand."""

import hashlib
import importlib
import inspect
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from asvnav import augment, harness, vehicle
from asvnav.effects import EffectModel, OracleEffectModel
from asvnav.env import Environment, FieldSpec, GustSpec
from asvnav.geo import METERS_PER_DEG_LAT
from asvnav.metrics import LOG_COLUMNS, LogRecord, TrajectoryLog, cross_track_series, per_sample_error_csv
from asvnav.vehicle import NoiseSpec, track_velocity

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _digest_scenario():
    """Short noisy augmented run under a 4x4 grid current and a gusting
    uniform wind: it samples both non-constant field paths, draws noise,
    predicts, re-anchors and scores."""
    center = harness.RIVER_CENTER
    spacing = 200.0
    dlat = spacing / METERS_PER_DEG_LAT
    dlon = spacing / (METERS_PER_DEG_LAT * math.cos(math.radians(center.lat)))
    speeds = [[0.6 + 0.05 * i + 0.03 * j for j in range(4)] for i in range(4)]
    directions = [[140.0 + 7.0 * i - 5.0 * j for j in range(4)] for i in range(4)]
    current = FieldSpec.grid(center.lat - 1.5 * dlat, center.lon - 1.5 * dlon, dlat, dlon,
                             speeds, directions)
    wind = FieldSpec.uniform(5.0, 240.0, GustSpec(amplitude=1.5, period_s=7.0))
    suite = harness.standard_suite()
    return replace(suite.template, mission=harness.suite_mission(suite, 0), current=current,
                   wind=wind, noise=NoiseSpec(sigma_speed=0.05, sigma_dir=2.0), seed=11,
                   controller=harness.ControllerSpec(kind="augmented"), duration_limit_s=60.0,
                   start=None, name="digest")


# sha256 of log.to_csv() for _digest_scenario(), taken before the per-tick
# pipeline was restructured; any change to the arithmetic shows here.
TRAJECTORY_SHA256 = "cf8950acf6d214f4b224824ec33be9d7d70120ff929b94d75306f57de3b21e7c"
# The same run under the baseline controller, pinned before the tick ran on
# plain floats.
BASELINE_TRAJECTORY_SHA256 = "186b0d152c1fc41e378b3871646c25393258ca2f921c4331231c93974700e82b"


def _check_digest(controller, max_error, digest):
    sc = replace(_digest_scenario(), controller=harness.ControllerSpec(kind=controller))
    result = harness.run_scenario(sc)
    assert len(result.log) == 601
    assert result.report.max_error == max_error
    assert hashlib.sha256(result.log.to_csv().encode()).hexdigest() == digest


def test_trajectory_digest_pinned():
    _check_digest("augmented", 0.5958323922299009, TRAJECTORY_SHA256)


def test_baseline_trajectory_digest_pinned():
    _check_digest("baseline", 1.8089182501623675, BASELINE_TRAJECTORY_SHA256)


def _columns_digest(log):
    """sha256 of the repr of each column of log as a list, in LOG_COLUMNS
    order: repr tells every double apart, -0.0 from 0.0 included."""
    h = hashlib.sha256()
    for name in LOG_COLUMNS:
        h.update(repr(list(getattr(log, name))).encode())
    return h.hexdigest()


# _columns_digest of the log read back from _digest_scenario()'s
# trajectory.csv, pinned while the log still had a nested record view.
READ_BACK_COLUMNS_SHA256 = "24b51542cced0f8c3eff75792bfb2c9c509b7e55a2b84e004f098d9c94db7210"


def test_trajectory_csv_read_back_pinned(tmp_path):
    harness.run_scenario(_digest_scenario(), out_dir=tmp_path)
    path = tmp_path / "trajectory.csv"
    log = TrajectoryLog.from_csv(path)
    assert _columns_digest(log) == READ_BACK_COLUMNS_SHA256
    assert log.to_csv() == path.read_text()


# A fixed-coefficient EffectModel, so the fitted predict path runs: the
# drift rows of the linear drift form, and a deficit row shaped like a
# fitted one.
FIXED_COEF = np.array([
    [1.0, 0.0, 0.03, 0.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.03, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.154, 0.080],
])


def _pinned_run(run):
    """The log of one of the runs COLUMNS_PINS names."""
    if run in ("augmented", "baseline"):
        sc = replace(_digest_scenario(), controller=harness.ControllerSpec(kind=run))
        return harness.run_scenario(sc).log
    if run == "fitted":
        return harness.run_scenario(_digest_scenario(), model=EffectModel(coef=FIXED_COEF)).log
    suite = {sc.name: sc for sc in harness.suite_scenarios(harness.standard_suite())}
    return harness.run_scenario(suite[run]).log


# _columns_digest and length of the in-memory log of each run, every live
# column included (course_t, through_water_speed and turn_rate are not in
# the trajectory CSV): _digest_scenario() under both controllers and under
# a fixed-coefficient model, and two standard-suite legs, whose uniform
# fields without a gust take the still-flow path of Environment.sample.
COLUMNS_PINS = {
    "augmented": ("58c5fed36a8e2ab75cbd3808626d100be8c2510f911ce19a5101b81c68523b05", 601),
    "baseline": ("19e0457491ddb302ca0c021c92864838049bcc44105aaf291fd666e4db67f437", 601),
    "fitted": ("20d5f1b1b11a3a50ece4efbe6764e0efb0ed2340b4d11519bf6b921806c154bb", 601),
    "baseline_045": ("7cd783b67933b21b2388c415c5f12892d8e7ff4b843294e0afd1bae269b01bf1", 1323),
    "augmented_045": ("41d9b2cbce5f1d2dadddd7f8bbfca1708ecd2d82e84e9a73cae75a16b382e33a", 1632),
}


@pytest.mark.parametrize("run", sorted(COLUMNS_PINS))
def test_log_columns_pinned(run):
    log = _pinned_run(run)
    assert (_columns_digest(log), len(log)) == COLUMNS_PINS[run]


@pytest.mark.parametrize("run", ["augmented", "baseline"])
def test_trajectory_npy_read_back_is_the_pinned_log(tmp_path, run):
    """The trajectory.npy a run writes reads back as the in-memory log,
    every column of COLUMNS_PINS bit for bit."""
    sc = replace(_digest_scenario(), controller=harness.ControllerSpec(kind=run))
    harness.run_scenario(sc, out_dir=tmp_path)
    log = TrajectoryLog.from_npy(tmp_path / "trajectory.npy")
    assert (_columns_digest(log), len(log)) == COLUMNS_PINS[run]


def _grid_current_run():
    """A longer noisy baseline run across _digest_scenario()'s grid current,
    on the suite's 225 degree leg with another noise seed."""
    suite = harness.standard_suite()
    return replace(_digest_scenario(), mission=harness.suite_mission(suite, 225), seed=5,
                   controller=harness.ControllerSpec(kind="baseline"), duration_limit_s=90.0,
                   name="grid")


def _series_digest(series):
    """sha256 of a CrossTrackSeries' array bytes and first scored record."""
    assert (series.errors.dtype, series.weights.dtype) == (np.float64, np.float64)
    assert series.leg_indices.dtype == np.int64
    h = hashlib.sha256()
    for column in (series.errors, series.weights, series.leg_indices):
        h.update(np.ascontiguousarray(column).tobytes())
    h.update(str(series.first_scored_record).encode())
    return h.hexdigest()


# sha256 of errors.csv and of the cross-track series (_series_digest) of
# three noisy grid-current runs, pinned before scoring ran on columns.
ERRORS_PINS = {
    "augmented": ("de92fcbf3f268dc61fbaa648ee2c89d117b4f6eb84c7eeba7ef3f70f9d60ee68",
                  "6c3c85eb5a772e8d8b4b515141f0ef0a60761be0b4f7a154a225f405bc51402c"),
    "baseline": ("f751e38007b7104b01a20dfa7dbb9db9aaace72a040ad5d9b0b204349409c67c",
                 "e803ba6a124e8c84d9960c89ecd4c86b1286304bac39bc2a35c8ba90b89b4ef7"),
    "grid": ("7dec23a92b21fc8e892bf0aad2be5dc1aba1e60af018c07cdb615356be0787af",
             "21dab7de10d56abfe4c7c22c448808af6676c4facc978167f552500bce1ba176"),
}


@pytest.mark.parametrize("run", sorted(ERRORS_PINS))
def test_errors_csv_and_series_pinned(tmp_path, run):
    if run == "grid":
        sc = _grid_current_run()
    else:
        sc = replace(_digest_scenario(), controller=harness.ControllerSpec(kind=run))
    result = harness.run_scenario(sc, out_dir=tmp_path)
    series = cross_track_series(result.log, list(sc.mission), sc.acceptance_radius_m)
    errors_csv = (tmp_path / "errors.csv").read_bytes()
    assert errors_csv.decode() == per_sample_error_csv(series, result.log)
    assert (hashlib.sha256(errors_csv).hexdigest(), _series_digest(series)) == ERRORS_PINS[run]


# The public per-layer functions a tick calls, by module.
LAYER_STEPS = {
    "vehicle": ("sense", "relative_to_absolute", "step"),
    "control": ("steer_toward", "pid_step"),
    "augment": ("navigator_step",),
}


@pytest.fixture
def calls(monkeypatch):
    """The name of every call of the functions in LAYER_STEPS and of
    Environment.sample, in call order. Each function is replaced in every
    asvnav module that binds it, so calls between modules are seen too."""
    names = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            names.append(name)
            return fn(*args, **kwargs)
        return counted

    modules = [mod for name, mod in sys.modules.items()
               if mod is not None and (name == "asvnav" or name.startswith("asvnav."))]
    for layer, fnames in LAYER_STEPS.items():
        for fname in fnames:
            original = getattr(importlib.import_module(f"asvnav.{layer}"), fname)
            wrapper = counting(fname, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, wrapper)
    monkeypatch.setattr(Environment, "sample",
                        counting("Environment.sample", Environment.sample))
    return names


def _by_hand(sc, model):
    """The log rows of sc from the public per-layer functions, called in the
    order run_scenario describes its tick, the navigator with model only
    when sc is augmented. They are looked up on their modules at each call,
    so the calls fixture sees them. The noise draws are one
    standard_normal(4) call per tick on a generator seeded with sc.seed:
    the stream the run's noise blocks must hand out."""
    if sc.controller.kind == "baseline":
        model = None
    rng = np.random.default_rng(sc.seed)
    noisy = sc.noise.sigma_speed > 0.0 or sc.noise.sigma_dir > 0.0
    sigmas = (sc.noise.sigma_speed, sc.noise.sigma_dir) * 2
    environment = Environment(sc.current, sc.wind)
    mission = list(sc.mission)
    nav = augment.Navigator(mission, model, sc.augment, sc.gains, sc.vehicle, sc.dt_s,
                            sc.acceptance_radius_m)
    lat, lon, spd_t, course_t, h_t, tw, t, turn_rate = sc.start_state()
    state = augment.FRESH_NAV
    records = []
    for _ in range(int(round(sc.duration_limit_s / sc.dt_s)) + 1):
        flows = environment.sample(lat, lon, t)
        vg_e, vg_n = track_velocity(spd_t, course_t)
        # the tick's noise: one standard_normal(4) call, scaled by Python products
        offsets = ([d * sigma for d, sigma in zip(rng.standard_normal(4).tolist(), sigmas)]
                   if noisy else None)
        water_spd, water_dir, wind_spd, wind_dir = vehicle.sense(vg_e, vg_n, h_t, flows, offsets)
        force = (*vehicle.relative_to_absolute(vg_e, vg_n, h_t, water_spd, water_dir),
                 *vehicle.relative_to_absolute(vg_e, vg_n, h_t, wind_spd, wind_dir))
        thrust, rudder, state = augment.navigator_step(nav, lat, lon, spd_t, h_t, t, force, state)
        index, intermediate = state[0], state[4]
        records.append(LogRecord(t, lat, lon, spd_t, course_t, h_t, tw, turn_rate, index,
                                 intermediate, *force, thrust, rudder))
        if index >= len(mission):
            break
        lat, lon, spd_t, course_t, h_t, tw, t, turn_rate = vehicle.step(
            lat, lon, h_t, tw, t, turn_rate, thrust, rudder, flows, sc.vehicle, sc.dt_s
        )
    return tuple(records)


@pytest.mark.parametrize("controller", ["baseline", "augmented"])
@pytest.mark.parametrize("scenario", [
    _digest_scenario,
    lambda: replace(harness.downstream_failure_scenario(), noise=NoiseSpec(0.05, 2.0), seed=5),
], ids=["digest", "completed"])
def test_loop_is_the_public_api_stepped_by_hand(calls, scenario, controller):
    sc = replace(scenario(), controller=harness.ControllerSpec(kind=controller))
    model = OracleEffectModel(wind_drag_factor=sc.vehicle.wind_drag_factor)
    result = harness.run_scenario(sc, model=model)
    loop_calls = list(calls)
    calls.clear()
    expected = _by_hand(sc, model)
    # the loop makes exactly the calls of the hand-stepped pipeline, in order
    assert loop_calls == calls
    records = tuple(result.log.records)
    assert records == expected
    # repr tells every double apart, -0.0 from 0.0 included: bit for bit
    assert repr(records) == repr(expected)


def test_noise_blocks_belong_to_their_run():
    """Two noisy runs back to back in one process, in either order, each
    log what the run logs alone (stepped by hand on its own generator): a
    run's noise blocks come from its own generator and none outlives it.
    Each run's 401 ticks end partway through a block."""
    runs = [replace(_digest_scenario(), duration_limit_s=40.0),
            replace(_grid_current_run(), duration_limit_s=40.0)]
    model = OracleEffectModel(wind_drag_factor=runs[0].vehicle.wind_drag_factor)

    # sha256 of each log's repr, which tells every double apart; a digest
    # keeps the report of a mismatch short
    def digest(records):
        return hashlib.sha256(repr(tuple(records)).encode()).hexdigest()

    alone = {sc.name: digest(_by_hand(sc, model)) for sc in runs}
    for pair in (runs, runs[::-1]):
        for sc in pair:
            log = harness.run_scenario(sc, model=model).log
            assert len(log) == 401 and len(log) % vehicle.NOISE_BLOCK
            assert digest(log.records) == alone[sc.name], sc.name


@pytest.mark.parametrize("controller", ["baseline", "augmented"])
@pytest.mark.parametrize("scenario", [
    lambda: replace(_digest_scenario(), duration_limit_s=20.0),
    lambda: replace(harness.downstream_failure_scenario(), noise=NoiseSpec(0.05, 2.0), seed=5),
], ids=["incomplete", "completed"])
def test_loop_calls_the_public_layer_functions(calls, scenario, controller):
    """Each tick runs the public per-layer functions, which per-layer
    tracing wraps: sample, sense, relative_to_absolute for the current
    and the wind, the navigator (steer_toward and two pid_step calls on a
    steering tick) and step, which the completing tick skips."""
    sc = replace(scenario(), controller=harness.ControllerSpec(kind=controller))
    result = harness.run_scenario(sc)
    ticks = len(result.log)
    expected = []
    for i in range(ticks):
        expected += ["Environment.sample", "sense", "relative_to_absolute",
                     "relative_to_absolute", "navigator_step"]
        if not (result.completed and i == ticks - 1):
            expected += ["steer_toward", "pid_step", "pid_step", "step"]
    assert calls == expected
    assert calls.count("sense") == ticks
    assert calls.count("relative_to_absolute") == 2 * ticks
    assert calls.count("step") == ticks - result.completed
    assert calls.count("pid_step") == 2 * calls.count("steer_toward")


# Where a tick may still call into geo: re-anchoring the tracking line, and
# the feed-forward update (predict's features, the intermediate waypoint).
GEO_PER_TICK_CALLERS = {"tracking_line", "predict", "calc_intermediate_wp"}
# What the tick loop calls each tick; its other callees are its set-up (the
# start state, the Environment and the Navigator).
TICK_STEPS = {"sample", "noise_draws", "sense", "relative_to_absolute", "navigator_step", "step"}


@pytest.mark.parametrize("controller", ["baseline", "augmented"])
def test_tick_calls_geo_only_for_the_line_and_the_feed_forward(monkeypatch, controller):
    """Every call of a public geo function made inside the tick loop is
    counted with the chain of calls that led to it. Inside a tick, geo is
    called only under tracking_line or the feed-forward update: the layer
    steps work their geodesy out inline."""
    from asvnav import geo

    loop_code = harness._closed_loop.__code__
    chains = {}  # (geo function, callers from the loop's callee down) -> calls

    def counting(name, fn):
        def counted(*args, **kwargs):
            callers, frame = [], sys._getframe(1)
            while frame is not None and frame.f_code is not loop_code:
                if frame.f_code is not counted.__code__:
                    callers.append(frame.f_code.co_name)
                frame = frame.f_back
            if frame is not None:
                key = (name, tuple(reversed(callers)))
                chains[key] = chains.get(key, 0) + 1
            return fn(*args, **kwargs)
        return counted

    modules = [mod for name, mod in sys.modules.items()
               if mod is not None and (name == "asvnav" or name.startswith("asvnav."))]
    for name, fn in list(vars(geo).items()):
        if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != geo.__name__:
            continue
        wrapper = counting(name, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, wrapper)

    sc = replace(_digest_scenario(), controller=harness.ControllerSpec(kind=controller))
    assert len(harness.run_scenario(sc).log) == 601
    in_tick = {key: n for key, n in chains.items() if key[1][0] in TICK_STEPS}
    elsewhere = {key: n for key, n in in_tick.items()
                 if not GEO_PER_TICK_CALLERS.intersection(key[1])}
    assert not elsewhere, elsewhere
    # the counting sees the calls that remain
    callers = {caller for _, chain in in_tick for caller in chain}
    assert "tracking_line" in callers
    assert ("calc_intermediate_wp" in callers) == (controller == "augmented")
    # a few calls per re-anchor and per update: about one a tick in an
    # augmented run, far fewer in a baseline one
    assert sum(in_tick.values()) < 2 * 601


@pytest.fixture
def sample_calls(monkeypatch):
    """The time of every Environment.sample call."""
    calls = []
    sample = Environment.sample

    def counted(self, lat, lon, t):
        calls.append(t)
        return sample(self, lat, lon, t)

    monkeypatch.setattr(Environment, "sample", counted)
    return calls


@pytest.mark.parametrize("controller", ["baseline", "augmented"])
def test_environment_sampled_once_per_tick(sample_calls, controller):
    sc = replace(_digest_scenario(), controller=harness.ControllerSpec(kind=controller),
                 duration_limit_s=20.0)
    result = harness.run_scenario(sc)
    assert len(sample_calls) == len(result.log) == 201
    assert sample_calls == [r.t for r in result.log.records]


def test_training_sweep_samples_fields_once_per_sample(sample_calls):
    samples = harness.generate_training_logs(harness.load_sweep(CONFIGS / "training_sweep.json"))
    assert len(sample_calls) == len(samples) == 10_240


def test_training_sweep_computes_each_run_of_equal_rows_once(monkeypatch):
    """Noise off, a steady leg repeats its row from the second step on, and
    the sweep senses once per run of equal rows; noise on, once per row."""
    calls = []
    sense = harness.sense

    def counted(*args):
        calls.append(args)
        return sense(*args)

    monkeypatch.setattr(harness, "sense", counted)
    sweep = harness.load_sweep(CONFIGS / "training_sweep.json")
    corpus = harness.generate_training_logs(sweep)
    new_run = np.r_[True, (corpus[1:] != corpus[:-1]).any(axis=1)]
    assert len(corpus) == 10_240 and len(calls) == new_run.sum() == 760
    calls.clear()
    noisy = replace(sweep, noise=vehicle.NoiseSpec(0.05, 2.0), duration_s=1.0)
    assert len(harness.generate_training_logs(noisy)) == len(calls) == 1_280
