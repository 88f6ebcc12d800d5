"""Acceptance gate: nine criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete. Every tolerance is pinned here, not configured elsewhere.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from asvnav.control import Waypoint
from asvnav.effects import fit
from asvnav.env import Environment, FieldSpec, ForceVector
from asvnav.geo import GeoPoint, displaced, distance_bearing, wrap_signed
from asvnav.harness import (
    SweepSpec,
    calm_water_scenario,
    downstream_failure_scenario,
    generate_training_logs,
    run_scenario,
    run_suite,
    standard_suite,
)
from asvnav.metrics import (
    SUITE_ORIENTATIONS,
    cross_track_series,
    score,
    sign_changes_over_threshold,
)
from asvnav.vehicle import (
    NoiseSpec,
    VehicleParams,
    relative_to_absolute,
    sense,
    step,
    track_velocity,
)

PARAMS = VehicleParams()
WITH_CURRENT = (0, 45, 315)


def _report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} [{elapsed:.2f}s/{budget:.0f}s] {detail}")
    assert ok, f"criterion {num} {name}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget ({elapsed:.2f}s)"


@pytest.fixture(scope="module")
def suite_outcome(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite_a")
    started = time.perf_counter()
    result = run_suite(standard_suite(), out_dir=out)
    elapsed = time.perf_counter() - started
    return result, out, elapsed


def test_criterion_1_inverse_sensing():
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    worst_speed, worst_dir = 0.0, 0.0
    for _ in range(1000):
        current = ForceVector(rng.uniform(0, 3), rng.uniform(0, 360))
        wind = ForceVector(rng.uniform(0, 10), rng.uniform(0, 360))
        environment = Environment(FieldSpec.uniform(current.speed, current.direction),
                                  FieldSpec.uniform(wind.speed, wind.direction))
        pos = GeoPoint(rng.uniform(-60, 60), rng.uniform(-179, 179))
        spd_t, course_t, h_t = rng.uniform(0, 5), rng.uniform(0, 360), rng.uniform(0, 360)
        rng.uniform(0, 5)  # a through-water speed, which no sensor reads
        t = rng.uniform(0, 1000)
        vg_e, vg_n = track_velocity(spd_t, course_t)
        water_spd, water_dir, wind_spd, wind_dir = sense(
            vg_e, vg_n, h_t, environment.sample(pos, t)
        )
        spd_c, dir_c = relative_to_absolute(vg_e, vg_n, h_t, water_spd, water_dir)
        spd_w, dir_w = relative_to_absolute(vg_e, vg_n, h_t, wind_spd, wind_dir)
        worst_speed = max(worst_speed, abs(spd_c - current.speed), abs(spd_w - wind.speed))
        if current.speed > 1e-6:
            worst_dir = max(worst_dir, abs(wrap_signed(dir_c - current.direction)))
        if wind.speed > 1e-6:
            worst_dir = max(worst_dir, abs(wrap_signed(dir_w - wind.direction)))
    elapsed = time.perf_counter() - started
    ok = worst_speed < 1e-9 and worst_dir < 1e-7
    _report(1, "inverse sensing", ok,
            f"worst speed err {worst_speed:.2e} m/s, dir err {worst_dir:.2e} deg", elapsed, 1.0)


def test_criterion_2_drift_superposition():
    started = time.perf_counter()
    equator = GeoPoint(0.0, -81.0)
    current = ForceVector(0.8, 135.0)
    calm = Environment.calm()
    drifted = Environment(FieldSpec.uniform(current.speed, current.direction), FieldSpec.calm())
    thrust = 2.0 / PARAMS.max_water_speed

    def steady(environment):
        ce, cn = (0.0, 0.0)
        if environment is drifted:
            ce, cn = current.enu()
        from asvnav.geo import bearing_of, unit_enu

        he, hn = unit_enu(30.0)
        vg_e, vg_n = 2.0 * he + ce, 2.0 * hn + cn
        # step's state tuple: (pos, spd_t, course_t, h_t, through_water_speed, t, turn_rate)
        return equator, math.hypot(vg_e, vg_n), bearing_of(vg_e, vg_n), 30.0, 2.0, 0.0, 0.0

    def advance(s, environment):
        pos, _, _, h_t, tw, t, turn_rate = s
        return step(pos, h_t, tw, t, turn_rate, thrust, 0.0, environment.sample(pos, t), PARAMS,
                    dt)

    s_calm, s_cur = steady(calm), steady(drifted)
    steps, dt = 600, 0.1
    for _ in range(steps):
        s_calm = advance(s_calm, calm)
        s_cur = advance(s_cur, drifted)
    ce, cn = current.enu()
    expected = displaced(s_calm[0], ce * steps * dt, cn * steps * dt)
    gap, _ = distance_bearing(expected, s_cur[0])
    elapsed = time.perf_counter() - started
    _report(2, "drift superposition", gap < 1e-6, f"endpoint gap {gap:.2e} m", elapsed, 1.0)


def _sweep(noise, seed=0):
    return SweepSpec(
        origin=GeoPoint(34.0, -81.0),
        currents=tuple(ForceVector(s, d) for s, d in
                       ((0.2, 0.0), (0.45, 72.0), (0.7, 144.0), (0.95, 216.0), (1.2, 288.0))),
        winds=tuple(ForceVector(s, d) for s, d in
                    ((0.5, 30.0), (2.5, 140.0), (5.0, 260.0), (7.5, 10.0))),
        headings=(0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0),
        speeds=(1.2, 2.0, 3.0),
        duration_s=8.0,
        noise=noise,
        seed=seed,
        include_closed_loop=False,
    )


def test_criterion_3_effect_model_recovery():
    started = time.perf_counter()
    drag = PARAMS.wind_drag_factor

    clean = fit(generate_training_logs(_sweep(NoiseSpec())))
    current_err = max(abs(clean.coef[0, 0] - 1.0), abs(clean.coef[1, 1] - 1.0))
    wind_err = max(abs(clean.coef[0, 2] - drag), abs(clean.coef[1, 3] - drag))

    noisy = fit(generate_training_logs(_sweep(NoiseSpec(sigma_speed=0.05), seed=12)))
    current_rel = max(abs(noisy.coef[0, 0] - 1.0), abs(noisy.coef[1, 1] - 1.0))
    wind_rel = max(abs(noisy.coef[0, 2] - drag), abs(noisy.coef[1, 3] - drag)) / drag

    elapsed = time.perf_counter() - started
    ok = current_err < 1e-3 and wind_err < 1e-3 and current_rel < 0.05 and wind_rel < 0.05
    _report(3, "effect-model recovery", ok,
            f"clean err current {current_err:.1e} wind {wind_err:.1e}; "
            f"noisy rel current {current_rel:.3f} wind {wind_rel:.3f}", elapsed, 30.0)


def test_criterion_4_baseline_downstream_failure():
    started = time.perf_counter()
    result = run_scenario(downstream_failure_scenario())
    series = cross_track_series(result.log, list(result.scenario.mission),
                                result.scenario.acceptance_radius_m)
    sign_changes = sign_changes_over_threshold(series.errors)
    elapsed = time.perf_counter() - started
    ok = (result.completed and result.report.max_error > 1.0
          and sign_changes >= 2 and result.report.pct_over_1m >= 40.0)
    _report(4, "baseline downstream oscillation", ok,
            f"max {result.report.max_error:.2f} m, {result.report.pct_over_1m:.1f}% > 1 m, "
            f"{sign_changes} sign changes, completed={result.completed}", elapsed, 10.0)


def test_criterion_5_paired_improvement(suite_outcome):
    result, _, elapsed = suite_outcome
    ok = result.all_complete
    details = []
    for orientation in SUITE_ORIENTATIONS:
        base = result.baseline[orientation]
        aug = result.augmented[orientation]
        if not (aug.max_error < base.max_error and aug.pct_over_1m < base.pct_over_1m):
            ok = False
            details.append(f"{orientation} not improved")
        if orientation in WITH_CURRENT and not base.max_error >= 2.0 * aug.max_error:
            ok = False
            details.append(f"{orientation} ratio < 2")
    ratios = [result.baseline[o].max_error / result.augmented[o].max_error
              for o in WITH_CURRENT]
    _report(5, "paired suite improvement", ok,
            f"with-current max-error ratios {', '.join(f'{r:.1f}x' for r in ratios)}"
            + ("; " + "; ".join(details) if details else ""), elapsed, 120.0)


def test_criterion_6_augmented_absolute_bound(suite_outcome):
    result, _, elapsed = suite_outcome
    worst = max(result.augmented[o].max_error for o in SUITE_ORIENTATIONS)
    _report(6, "augmented absolute bound", worst <= 1.6,
            f"worst augmented max error {worst:.2f} m (bound 1.6 m)", elapsed, 120.0)


def test_criterion_7_zero_disturbance_reduction():
    started = time.perf_counter()
    base = run_scenario(calm_water_scenario(seed=42, controller="baseline"))
    aug = run_scenario(calm_water_scenario(seed=42, controller="augmented"))

    def trajectory_only(log):
        # everything except the intermediate-target columns, which the
        # log format intentionally leaves empty for baseline runs
        rows = []
        for line in log.to_csv().splitlines()[1:]:
            cells = line.split(",")
            rows.append(",".join(cells[:6] + cells[9:]))
        return "\n".join(rows)

    identical = trajectory_only(base.log) == trajectory_only(aug.log)
    # the augmented target never leaves the true goal
    goal = aug.scenario.mission[1].pos
    on_goal = all(
        r.intermediate is None or r.intermediate.pos == goal
        for r in aug.log.records
        if r.wp_index == 1
    )
    elapsed = time.perf_counter() - started
    _report(7, "zero-disturbance reduction", identical and on_goal,
            f"trajectories byte-identical over {len(base.log)} steps; "
            f"intermediate pinned to goal={on_goal}", elapsed, 5.0)


def test_criterion_8_metrics_correctness():
    started = time.perf_counter()
    from asvnav.metrics import TrajectoryLog

    origin = GeoPoint(34.0, -81.0)
    mission = [Waypoint(origin, 2.0),
               Waypoint(displaced(origin, 0.0, 200.0), 2.0)]

    def build_log(offsets_norths):
        rows = []
        for i, (e, n) in enumerate(offsets_norths):
            pos = displaced(origin, e, n) if (e, n) != (0.0, 0.0) else origin
            # heading north at 2 m/s on leg 1, calm forces, idle command
            rows.append((float(i), pos.lat, pos.lon, 2.0, 0.0, 0.0, 2.0, 0.0, 1, None,
                         0.0, 0.0, 0.0, 0.0, 0.5, 0.0))
        return TrajectoryLog.from_rows(rows)

    constant = build_log([(3.0, n) for n in np.linspace(0.0, 200.0, 101)])
    series = cross_track_series(constant, mission)
    r1 = score(series.errors, series.weights)
    exact_constant = r1.max_error == pytest.approx(3.0, abs=1e-9) and r1.pct_over_1m == 100.0

    half = build_log([(0.5, n) for n in np.linspace(0.0, 99.0, 100)]
                     + [(1.5, n) for n in np.linspace(100.0, 199.0, 100)])
    series = cross_track_series(half, mission)
    r2 = score(series.errors, series.weights)
    exact_half = (r2.max_error == pytest.approx(1.5, abs=1e-9)
                  and r2.pct_over_1m == pytest.approx(50.0, abs=1e-9))

    def pct_at(step_m):
        n_vals = np.arange(0.0, 200.0 + 1e-9, step_m)
        pts = [(1.8 * math.sin(2 * math.pi * n / 80.0), n) for n in n_vals]
        s = cross_track_series(build_log(pts), mission)
        return score(s.errors, s.weights).pct_over_1m

    base_pct = pct_at(0.1)
    invariant = (abs(pct_at(0.05) - base_pct) < 0.5 and abs(pct_at(0.2) - base_pct) < 0.5)

    elapsed = time.perf_counter() - started
    ok = exact_constant and exact_half and invariant
    _report(8, "metrics correctness", ok,
            f"constant ({r1.max_error:.1f} m, {r1.pct_over_1m:.0f}%), "
            f"half ({r2.max_error:.1f} m, {r2.pct_over_1m:.1f}%), resample ok={invariant}",
            elapsed, 1.0)


def test_criterion_9_suite_determinism(suite_outcome, tmp_path):
    _, first_dir, first_elapsed = suite_outcome
    started = time.perf_counter()
    run_suite(standard_suite(), out_dir=tmp_path)
    elapsed = time.perf_counter() - started + first_elapsed
    identical = ((first_dir / "report.csv").read_bytes() == (tmp_path / "report.csv").read_bytes()
                 and (first_dir / "report.txt").read_bytes() == (tmp_path / "report.txt").read_bytes())
    _report(9, "suite determinism", identical, "report files byte-identical", elapsed, 240.0)


# sha256 of the full-precision report.csv of run_suite(standard_suite()),
# pinned before the closed loop ran on plain floats.
SUITE_REPORT_CSV_SHA256 = "57c3119d1c34209e21d1df1abe55a5e398874f9851adecc2b1960ff9285c37f5"


def test_suite_report_csv_pinned(suite_outcome):
    _, out, _ = suite_outcome
    assert hashlib.sha256((out / "report.csv").read_bytes()).hexdigest() == SUITE_REPORT_CSV_SHA256
