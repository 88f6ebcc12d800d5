"""The per-tick contract of run_scenario: one field sample per tick, and
trajectories that stay the same bit for bit."""

import hashlib
import math
from dataclasses import replace

import pytest

from asvnav import harness
from asvnav.env import Environment, FieldSpec, ForceVector, GustSpec
from asvnav.geo import METERS_PER_DEG_LAT
from asvnav.vehicle import NoiseSpec


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


def test_trajectory_digest_pinned():
    result = harness.run_scenario(_digest_scenario())
    assert len(result.log) == 601
    assert result.report.max_error == 0.5958323922299009
    assert hashlib.sha256(result.log.to_csv().encode()).hexdigest() == TRAJECTORY_SHA256


@pytest.mark.parametrize("controller", ["baseline", "augmented"])
def test_environment_sampled_once_per_tick(monkeypatch, controller):
    calls = []
    sample = Environment.sample

    def counted(self, pos, t):
        calls.append(t)
        return sample(self, pos, t)

    monkeypatch.setattr(Environment, "sample", counted)
    sc = replace(_digest_scenario(), controller=harness.ControllerSpec(kind=controller),
                 duration_limit_s=20.0)
    result = harness.run_scenario(sc)
    assert len(calls) == len(result.log) == 201
    assert calls == [r.t for r in result.log.records]
