"""The per-tick contract of run_scenario and the training sweep: one field
sample per tick, trajectories that stay the same bit for bit, and a loop
that is the public per-layer API stepped by hand."""

import hashlib
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from asvnav import harness
from asvnav.augment import AugmentState, augmented_navigator_step
from asvnav.control import NavigatorState, navigator_step
from asvnav.effects import OracleEffectModel
from asvnav.env import Environment, FieldSpec, ForceVector, GustSpec
from asvnav.geo import METERS_PER_DEG_LAT
from asvnav.metrics import LogRecord
from asvnav.vehicle import NoiseSpec, relative_to_absolute, sense, step

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
    wind = FieldSpec.uniform(ForceVector(5.0, 240.0), GustSpec(amplitude=1.5, period_s=7.0))
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


def _by_hand(sc, model):
    """LogRecords of sc from the public per-layer API, stepped the way
    run_scenario describes its tick."""
    rng = np.random.default_rng(sc.seed)
    environment = Environment(sc.current, sc.wind)
    mission = list(sc.mission)
    s = sc.start_state()
    nav, aug = NavigatorState(), AugmentState()
    records = []
    for _ in range(int(round(sc.duration_limit_s / sc.dt_s)) + 1):
        flows = environment.sample(s.pos, s.t)
        force = relative_to_absolute(sense(s, flows, sc.noise, rng), s)
        if sc.controller.kind == "augmented":
            cmd, aug = augmented_navigator_step(
                s, mission, aug, model, force, cfg=sc.augment, gains=sc.gains,
                params=sc.vehicle, dt=sc.dt_s, radius=sc.acceptance_radius_m,
            )
            wp_index, intermediate = aug.nav.active_wp_index, aug.intermediate
        else:
            cmd, nav = navigator_step(s, mission, nav, gains=sc.gains, dt=sc.dt_s,
                                      radius=sc.acceptance_radius_m)
            wp_index, intermediate = nav.active_wp_index, None
        records.append(LogRecord(t=s.t, state=s, wp_index=wp_index,
                                 intermediate=intermediate, force=force, cmd=cmd))
        if wp_index >= len(mission):
            break
        s = step(s, cmd, flows, sc.vehicle, sc.dt_s)
    return tuple(records)


@pytest.mark.parametrize("controller", ["baseline", "augmented"])
@pytest.mark.parametrize("scenario", [
    _digest_scenario,
    lambda: replace(harness.downstream_failure_scenario(), noise=NoiseSpec(0.05, 2.0), seed=5),
], ids=["digest", "completed"])
def test_loop_is_the_public_api_stepped_by_hand(scenario, controller):
    sc = replace(scenario(), controller=harness.ControllerSpec(kind=controller))
    model = OracleEffectModel(wind_drag_factor=sc.vehicle.wind_drag_factor)
    result = harness.run_scenario(sc, model=model)
    expected = _by_hand(sc, model)
    records = tuple(result.log.records)
    assert records == expected
    # repr tells every double apart, -0.0 from 0.0 included: bit for bit
    assert repr(records) == repr(expected)


@pytest.fixture
def sample_calls(monkeypatch):
    """The time of every Environment.sample call."""
    calls = []
    sample = Environment.sample

    def counted(self, pos, t):
        calls.append(t)
        return sample(self, pos, t)

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
