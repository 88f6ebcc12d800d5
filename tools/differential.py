#!/usr/bin/env python3
"""Run the same seeded scenarios and training sweeps under two source trees
and compare what each tree produces.

    python3 tools/differential.py OLD_TREE NEW_TREE [--n N] [--seed S] [--tolerance]

A tree is the root of a source checkout, the directory that holds
src/asvnav. The configs are generated here, from --seed alone: N scenarios
that cover the three field kinds (uniform, river profile and grid), gusts,
sensor noise on and off, 1-4 waypoints, several dt_s, both controllers,
each with its own PID gains (kd above zero), lookahead and hull
parameters, and all three outcomes (completed, incomplete, left_domain),
plus two small training sweeps on one drawn hull, one noiseless and one
noisy. Each tree runs all of
them in its own subprocess with PYTHONPATH=TREE/src. Each tree then fits
its own noiseless sweep corpus, plain and with an intercept, saves both
models, and flies every augmented scenario again with its plain fitted
model file in place of the oracle.

Exact mode (the default) compares, run by run, the outcome and a digest
of the float.hex of every value of every LOG_COLUMNS column (the
intermediate target as its lat, lon and speed), the maximum cross-track
error of each scored leg, a digest of each column of each sweep's
training corpus, and a digest of each saved model file. Tolerance mode
(--tolerance) prints a Markdown table of the largest absolute difference
of each column over all runs, sweeps and fitted models, the per-leg
maximum-error differences and every outcome flip. Either mode exits 1
when the trees differ and 0 when they do not.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# Degrees of latitude per meter for placing the generated waypoints; the
# configs are data, so this need not match the simulator's own constant.
DEG_PER_M = 1.0 / 111_195.0
CENTER_LAT, CENTER_LON = 34.0, -81.0
OUTCOMES = ("completed", "incomplete", "left_domain")
DTS = (0.05, 0.1, 0.2, 0.25)
# The intermediate target's three values, logged as one column.
TARGET_PARTS = ("lat", "lon", "spd")
# Log columns in degrees on [0, 360): tolerance mode differences them the
# short way round the circle.
ANGLE_COLUMNS = ("course_t", "h_t", "dir_c", "dir_w")


# --------------------------------------------------------------------------
# config generation (no asvnav import: both trees read the same JSON)


def _offset(lat: float, lon: float, east: float, north: float) -> tuple[float, float]:
    return (lat + north * DEG_PER_M,
            lon + east * DEG_PER_M / math.cos(math.radians(lat)))


def _gust(rng: random.Random, base_speed: float) -> dict | None:
    if base_speed <= 0.0 or rng.random() < 0.5:
        return None
    return {"amplitude": round(rng.uniform(0.2, 0.8) * base_speed, 3),
            "period_s": round(rng.uniform(3.0, 15.0), 2)}


def _with_gust(field: dict, gust: dict | None) -> dict:
    return field if gust is None else {**field, "gust": gust}


def _uniform(rng: random.Random, top: float) -> dict:
    speed = round(rng.uniform(0.0, top), 3)
    field = {"kind": "uniform", "speed": speed, "direction": round(rng.uniform(0.0, 360.0), 2)}
    return _with_gust(field, _gust(rng, speed))


def _river(rng: random.Random, points: list[tuple[float, float]], top: float) -> dict:
    lat, lon = rng.choice(points)
    bearing = rng.uniform(0.0, 360.0)
    speed = round(rng.uniform(0.2, 1.0) * top, 3)
    field = {
        "kind": "river_profile",
        "axis_origin": {"lat": lat, "lon": lon},
        "axis_bearing": round(bearing, 2),
        "centerline_speed": speed,
        "centerline_direction": round(bearing + rng.choice((0.0, 180.0)), 2),
        "half_width_m": round(rng.uniform(40.0, 300.0), 1),
    }
    return _with_gust(field, _gust(rng, speed))


def _grid(rng: random.Random, points: list[tuple[float, float]], margin_m: float,
          top: float) -> dict:
    """A grid field over the box around points, margin_m wider on each side."""
    lats, lons = [p[0] for p in points], [p[1] for p in points]
    lat0, lon0 = _offset(min(lats), min(lons), -margin_m, -margin_m)
    lat1, lon1 = _offset(max(lats), max(lons), margin_m, margin_m)
    rows, cols = rng.randint(2, 6), rng.randint(2, 6)
    base = rng.uniform(0.0, 360.0)
    speeds = [[round(rng.uniform(0.1, 1.0) * top, 3) for _ in range(cols)] for _ in range(rows)]
    field = {
        "kind": "grid",
        "lat0": lat0,
        "lon0": lon0,
        "dlat": (lat1 - lat0) / (rows - 1),
        "dlon": (lon1 - lon0) / (cols - 1),
        "speeds": speeds,
        "directions": [[round(base + rng.uniform(-40.0, 40.0), 2) for _ in range(cols)]
                       for _ in range(rows)],
    }
    return _with_gust(field, _gust(rng, min(min(row) for row in speeds)))


def _gains(rng: random.Random) -> dict:
    """Heading and speed PID gains, each kd above zero, and a lookahead:
    every value drawn, so no two fields share a default."""
    def pid(kp, ki, kd, i_clamp):
        return {name: round(rng.uniform(*bounds), 3)
                for name, bounds in (("kp", kp), ("ki", ki), ("kd", kd), ("i_clamp", i_clamp))}

    return {"heading": pid((0.3, 1.2), (0.05, 0.4), (0.02, 0.4), (0.15, 0.6)),
            "speed": pid((0.3, 0.8), (0.1, 0.5), (0.02, 0.3), (0.5, 1.5)),
            "lookahead_m": round(rng.uniform(12.0, 45.0), 1)}


def _vehicle(rng: random.Random) -> dict:
    """Hull parameters, every one drawn; the hull outruns the fastest
    generated waypoint (3.6 m/s)."""
    return {"max_water_speed_mps": round(rng.uniform(4.0, 7.5), 2),
            "thrust_time_constant_s": round(rng.uniform(1.5, 5.0), 2),
            "max_turn_rate_deg_s": round(rng.uniform(15.0, 45.0), 1),
            "wind_drag_factor": round(rng.uniform(0.0, 0.08), 3),
            "steerage_reference_speed_mps": round(rng.uniform(1.0, 3.0), 2),
            "steerage_floor": round(rng.uniform(0.05, 0.3), 3),
            "turn_time_constant_s": round(rng.uniform(0.5, 2.0), 2)}


def _field(rng: random.Random, kind: str, points, top: float) -> dict:
    if kind == "uniform":
        return _uniform(rng, top)
    if kind == "river_profile":
        return _river(rng, points, top)
    return _grid(rng, points, 150.0, top)


def scenario_config(rng: random.Random, i: int) -> dict:
    """The JSON config of generated scenario i. Its intended outcome is
    OUTCOMES[i % 3]: a duration limit well past the travel time, one well
    short of it, or a grid current that ends between the start and the
    first waypoint. A run may still end another way; the report counts
    the outcomes that happened."""
    outcome = OUTCOMES[i % 3]
    n_wp = rng.randint(1, 4)
    spd = round(rng.uniform(0.8, 3.0), 2)
    lat, lon = _offset(CENTER_LAT, CENTER_LON, rng.uniform(-500, 500), rng.uniform(-500, 500))
    bearing = rng.uniform(0.0, 360.0)
    mission, path_m = [], 0.0
    for k in range(n_wp):
        if k:
            bearing += rng.uniform(-120.0, 120.0)
            leg = rng.uniform(40.0, 150.0)
            path_m += leg
            lat, lon = _offset(lat, lon, leg * math.sin(math.radians(bearing)),
                               leg * math.cos(math.radians(bearing)))
        mission.append({"lat": lat, "lon": lon,
                        "speed_mps": round(spd * rng.uniform(0.8, 1.2), 2)})
    # an explicit start 40-90 m from the first waypoint; a derived one needs two
    first = (mission[0]["lat"], mission[0]["lon"])
    away, toward = rng.uniform(40.0, 90.0), rng.uniform(0.0, 360.0)
    start_lat, start_lon = _offset(*first, away * math.sin(math.radians(toward)),
                                   away * math.cos(math.radians(toward)))
    explicit = n_wp == 1 or outcome == "left_domain" or rng.random() < 0.5
    path_m += away
    points = [first, (start_lat, start_lon)] + [(w["lat"], w["lon"]) for w in mission[1:]]

    top = 0.6 * spd  # flows the hull can stem
    if outcome == "left_domain":
        # the grid ends 15-30 m from the start, short of the first waypoint
        current = _grid(rng, [(start_lat, start_lon)], rng.uniform(15.0, 30.0), top)
    else:
        current = _field(rng, rng.choice(("uniform", "river_profile", "grid")), points, top)
    wind_kind = rng.choices(("uniform", "river_profile", "grid"), (4, 1, 1))[0]
    wind = _field(rng, wind_kind, points, 8.0)

    dt = rng.choice(DTS)
    travel_s = path_m / spd
    limit = 0.3 * travel_s if outcome == "incomplete" else 2.5 * travel_s + 60.0
    noisy = rng.random() < 0.5
    return {
        "name": f"s{i:03d}",
        "mission": mission,
        "current": current,
        "wind": wind,
        "noise": {"sigma_speed_mps": round(rng.uniform(0.01, 0.1), 3) if noisy else 0.0,
                  "sigma_dir_deg": round(rng.uniform(0.5, 3.0), 2) if noisy else 0.0},
        "seed": rng.randrange(2**31),
        "controller": {"kind": rng.choice(("baseline", "augmented")), "model": "oracle"},
        "augment": {"gain_k": round(rng.uniform(0.5, 1.5), 2),
                    "max_offset_m": rng.choice((25.0, 100.0)),
                    "update_period_s": max(dt, rng.choice((0.5, 1.0, 2.0))),
                    "reference_speed_floor_mps": 0.2},
        "duration_limit_s": round(min(max(limit, 5.0), 400.0), 1),
        "acceptance_radius_m": rng.choice((1.5, 2.0, 3.0)),
        "dt_s": dt,
        "start": ({"lat": start_lat, "lon": start_lon,
                   "heading_deg": round(rng.uniform(0.0, 360.0), 1)} if explicit else None),
        "start_runup_m": round(rng.uniform(20.0, 60.0), 1),
        "start_offset_m": round(rng.uniform(0.0, 10.0), 1),
        "gains": _gains(rng),
        "vehicle": _vehicle(rng),
    }


def sweep_configs(rng: random.Random) -> list[dict]:
    """Two small training sweeps over the same grid, noiseless and noisy,
    each with its closed-loop legs. Three currents and three winds, each
    cycled against the other, give the noiseless corpus a full-rank
    feature matrix with an intercept too, so it can be fitted."""
    base = {
        "origin": {"lat": CENTER_LAT, "lon": CENTER_LON},
        "currents": [{"speed": round(rng.uniform(0.1, 1.2), 3),
                      "direction": round(rng.uniform(0.0, 360.0), 2)} for _ in range(3)],
        "winds": [{"speed": round(rng.uniform(0.0, 8.0), 3),
                   "direction": round(rng.uniform(0.0, 360.0), 2)} for _ in range(3)],
        "headings": [round(rng.uniform(0.0, 360.0), 1) for _ in range(3)],
        "speeds": [round(rng.uniform(0.8, 3.0), 2) for _ in range(2)],
        "duration_s": 4.0,
        "dt_s": rng.choice(DTS),
        "include_closed_loop": True,
        "vehicle": _vehicle(rng),
    }
    noisy = {"sigma_speed_mps": 0.05, "sigma_dir_deg": 2.0}
    return [{**base, "seed": rng.randrange(2**31)},
            {**base, "noise": noisy, "seed": rng.randrange(2**31)}]


def cases(n: int, seed: int) -> dict:
    rng = random.Random(seed)
    return {"scenarios": [scenario_config(rng, i) for i in range(n)],
            "sweeps": sweep_configs(rng)}


# --------------------------------------------------------------------------
# the worker: runs every case under one tree's asvnav


def _digest(values) -> str:
    return hashlib.sha256("\n".join(map(float.hex, values)).encode()).hexdigest()


def _log_columns(log, log_columns) -> dict[str, list[float]]:
    """Every LOG_COLUMNS column as floats; the intermediate target splits
    into its lat, lon and speed, NaN where no target is held."""
    out = {}
    for name in log_columns:
        column = getattr(log, name)
        if name == "intermediate":
            held = [(math.nan,) * 3 if w is None else (w.pos.lat, w.pos.lon, w.spd_target)
                    for w in column]
            for j, part in enumerate(TARGET_PARTS):
                out[f"intermediate.{part}"] = [float(row[j]) for row in held]
        else:
            out[name] = [float(v) for v in column]
    return out


def _leg_max_errors(log, mission, radius, metrics) -> list[float | None]:
    """Largest |cross-track error| of each leg of mission, None for a leg
    with no scored sample or a run with no scoreable path."""
    if len(mission) < 2:
        return []
    try:
        series = metrics.cross_track_series(log, mission, radius)
    except metrics.LegNotAcquiredError:
        return [None] * (len(mission) - 1)
    errors = np.abs(series.errors)
    legs = [errors[series.leg_indices == leg] for leg in range(1, len(mission))]
    return [float(e.max()) if e.size else None for e in legs]


def _run(sc, harness, metrics, columns: dict | None) -> dict:
    """The record of one scenario run; its log columns go into columns
    when that is given."""
    try:
        result = harness.run_scenario(sc)
    except Exception as exc:  # a run that raises is an outcome of its own
        return {"name": sc.name, "outcome": f"error: {type(exc).__name__}: {exc}",
                "ticks": 0, "waypoints": len(sc.mission), "noisy": False,
                "digests": {}, "leg_max_errors": []}
    cols = _log_columns(result.log, metrics.LOG_COLUMNS)
    if columns is not None:
        columns.update({f"{sc.name}:{name}": np.array(v) for name, v in cols.items()})
    return {
        "name": sc.name,
        "outcome": result.outcome,
        "ticks": len(result.log),
        "waypoints": len(sc.mission),
        "noisy": sc.noise.sigma_speed > 0.0 or sc.noise.sigma_dir > 0.0,
        "digests": {name: _digest(values) for name, values in cols.items()},
        "leg_max_errors": _leg_max_errors(result.log, list(sc.mission),
                                          sc.acceptance_radius_m, metrics),
    }


def work(tree: Path, cases_path: Path, out_path: Path, keep_columns: bool) -> None:
    import asvnav
    from asvnav import effects, harness, metrics

    here = Path(asvnav.__file__).resolve()
    if not here.is_relative_to((tree / "src").resolve()):
        raise SystemExit(f"asvnav imported from {here}, not from {tree}/src")
    data = json.loads(cases_path.read_text())
    columns = {} if keep_columns else None
    runs = [_run(harness.from_dict(harness.Scenario, config), harness, metrics, columns)
            for config in data["scenarios"]]
    names = list(effects.FEATURE_NAMES) + list(effects.TARGET_NAMES)
    sweeps, corpora = [], []
    for k, config in enumerate(data["sweeps"]):
        corpus = harness.generate_training_logs(harness.from_dict(harness.SweepSpec, config))
        corpora.append(corpus)
        label = f"sweep{k}"
        cols = {name: corpus[:, j].tolist() for j, name in enumerate(names)}
        sweeps.append({"name": label, "rows": len(corpus),
                       "digests": {name: _digest(v) for name, v in cols.items()}})
        if keep_columns:
            columns.update({f"{label}:{name}": np.array(v) for name, v in cols.items()})

    # the tree's own fit of the noiseless sweep (the first), saved as asvnav fit saves it
    models, plain = [], None
    for label, intercept in (("plain", False), ("intercept", True)):
        path = out_path.with_name(f"{out_path.stem}.model_{label}.json")
        try:
            effects.save_model(effects.fit(corpora[0], include_intercept=intercept), path)
        except ValueError as exc:  # a fit that raises is a result of its own
            models.append({"name": f"model_{label}", "digest": f"error: {exc}"})
            continue
        text = path.read_text()
        models.append({"name": f"model_{label}",
                       "digest": hashlib.sha256(text.encode()).hexdigest()})
        if keep_columns:
            payload = json.loads(text)
            columns[f"model_{label}:coef"] = np.array(payload["coef"]).ravel()
            columns[f"model_{label}:residual_rmse"] = np.array(payload["residual_rmse"])
        if not intercept:
            plain = path
    # the augmented scenarios again, each naming the plain model file
    fitted_runs = [] if plain is None else [
        _run(harness.from_dict(harness.Scenario, {
            **config, "name": f"{config['name']}+fitted",
            "controller": {"kind": "augmented", "model": str(plain)},
        }), harness, metrics, columns)
        for config in data["scenarios"] if config["controller"]["kind"] == "augmented"
    ]
    out_path.write_text(json.dumps({"runs": runs, "fitted_runs": fitted_runs,
                                    "sweeps": sweeps, "models": models}))
    if keep_columns:
        np.savez(out_path.with_suffix(".npz"), **columns)


# --------------------------------------------------------------------------
# comparison


def _run_trees(trees: list[Path], case_data: dict, scratch: Path,
               keep_columns: bool) -> list[dict]:
    """Run the worker under each tree, both at once; each tree's result."""
    cases_path = scratch / "cases.json"
    cases_path.write_text(json.dumps(case_data))
    procs = []
    for k, tree in enumerate(trees):
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, __file__, "--worker", str(tree), str(cases_path),
                str(scratch / f"side{k}.json")] + (["--columns"] if keep_columns else [])
        with open(scratch / f"side{k}.err", "w") as err:
            procs.append(subprocess.Popen(argv, env=env, stderr=err))
    results = []
    for k, (tree, proc) in enumerate(zip(trees, procs)):
        if proc.wait():
            raise SystemExit(f"{tree}: worker failed with exit {proc.returncode}\n"
                             + (scratch / f"side{k}.err").read_text())
        result = json.loads((scratch / f"side{k}.json").read_text())
        if keep_columns:
            with np.load(scratch / f"side{k}.npz") as arrays:
                result["columns"] = {key: arrays[key] for key in arrays.files}
        results.append(result)
    return results


def _coverage(case_data: dict, side: dict) -> str:
    runs = side["runs"]
    errors = sum(r["outcome"] not in OUTCOMES for r in runs)
    outcomes = ", ".join(f"{o} {sum(r['outcome'] == o for r in runs)}" for o in OUTCOMES)
    outcomes += f", error {errors}" if errors else ""
    kinds = {}
    for config in case_data["scenarios"]:
        kinds[config["current"]["kind"]] = kinds.get(config["current"]["kind"], 0) + 1
    waypoints = sorted({r["waypoints"] for r in runs})
    noisy = sum(r["noisy"] for r in runs)
    ticks = sum(r["ticks"] for r in runs)
    rows = sum(s["rows"] for s in side["sweeps"])
    fitted = side["fitted_runs"]
    fits = [m["name"] for m in side["models"] if not m["digest"].startswith("error")]
    return (f"{len(runs)} scenarios, {ticks} ticks (outcomes: {outcomes}; current fields: "
            + ", ".join(f"{k} {v}" for k, v in sorted(kinds.items()))
            + f"; {waypoints[0]}-{waypoints[-1]} waypoints; noise on {noisy}, off "
            f"{len(runs) - noisy}) and {len(side['sweeps'])} sweeps of {rows} rows; "
            f"{len(fits)} fitted models ({', '.join(fits) or 'none'}), and the "
            f"{len(fitted)} augmented scenarios again with model_plain, "
            f"{sum(r['ticks'] for r in fitted)} ticks")


def exact_report(old: dict, new: dict) -> list[str]:
    """One line per run, sweep or fitted model that differs, naming what
    differs."""
    lines = []
    for a, b in zip(old["models"], new["models"]):
        if a["digest"] != b["digest"]:
            lines.append(f"- {a['name']}: saved model file {a['digest'][:12]} -> "
                         f"{b['digest'][:12]}")
    if len(old["fitted_runs"]) != len(new["fitted_runs"]):
        lines.append(f"- fitted runs: {len(old['fitted_runs'])} -> {len(new['fitted_runs'])}")
    for a, b in zip(old["runs"] + old["fitted_runs"], new["runs"] + new["fitted_runs"]):
        moved = [name for name in a["digests"] if a["digests"][name] != b["digests"].get(name)]
        what = []
        if a["outcome"] != b["outcome"]:
            what.append(f"outcome {a['outcome']} -> {b['outcome']}")
        if a["ticks"] != b["ticks"]:
            what.append(f"ticks {a['ticks']} -> {b['ticks']}")
        if moved:
            what.append("columns " + ", ".join(moved))
        if a["leg_max_errors"] != b["leg_max_errors"]:
            what.append("leg max errors")
        if what:
            lines.append(f"- {a['name']}: " + "; ".join(what))
    for a, b in zip(old["sweeps"], new["sweeps"]):
        moved = [name for name in a["digests"] if a["digests"][name] != b["digests"].get(name)]
        what = [f"rows {a['rows']} -> {b['rows']}"] if a["rows"] != b["rows"] else []
        if moved:
            what.append("columns " + ", ".join(moved))
        if what:
            lines.append(f"- {a['name']}: " + "; ".join(what))
    return lines


def _max_abs_diff(a, b, angle: bool) -> tuple[float, int]:
    """Largest |a - b| over the common prefix and its index, the short way
    round for an angle; both NaN count as equal, one NaN as an infinite
    difference."""
    n = min(len(a), len(b))
    if n == 0:
        return 0.0, -1
    a, b = a[:n], b[:n]
    with np.errstate(invalid="ignore"):
        d = np.abs(a - b)
        if angle:
            d = np.minimum(d, 360.0 - d)
    d[np.isnan(a) & np.isnan(b)] = 0.0
    d[np.isnan(d)] = math.inf
    i = int(np.argmax(d))
    return float(d[i]), i


def tolerance_report(old: dict, new: dict) -> list[str]:
    """Markdown tables of the column, leg and outcome differences; empty
    when the trees agree."""
    cols_a, cols_b = old["columns"], new["columns"]
    per_column: dict[str, list] = {}  # column -> [differing runs, max |d|, where]
    for key in dict.fromkeys([*cols_a, *cols_b]):  # a run that raised has no columns
        owner, name = key.split(":", 1)
        kind = next((k for k in ("sweep", "model") if owner.startswith(k)), None)
        scope = f"{kind} {name}" if kind else name
        a, b = cols_a.get(key, np.empty(0)), cols_b.get(key, np.empty(0))
        d, i = _max_abs_diff(a, b, name in ANGLE_COLUMNS and kind is None)
        if d == 0.0 and len(a) == len(b):
            continue
        entry = per_column.setdefault(scope, [0, 0.0, ""])
        entry[0] += 1
        if d >= entry[1]:
            where = f"{owner} row {i}" if i >= 0 else owner
            if len(a) != len(b):
                where += f" (lengths {len(a)}, {len(b)})"
            entry[1:] = [d, where]
    lines = []
    if per_column:
        lines += ["| column | runs, sweeps or models that differ | max \\|Δ\\| | at |",
                  "|---|---|---|---|"]
        lines += [f"| {name} | {n} | {d:.3g} | {where} |"
                  for name, (n, d, where) in per_column.items()]
    legs = []
    runs_a, runs_b = old["runs"] + old["fitted_runs"], new["runs"] + new["fitted_runs"]
    for a, b in zip(runs_a, runs_b):
        for leg, (ea, eb) in enumerate(zip(a["leg_max_errors"], b["leg_max_errors"]), start=1):
            if ea != eb:
                delta = "scored on one side" if ea is None or eb is None else f"{eb - ea:+.3g}"
                legs.append((a["name"], leg, ea, eb, delta))
    if legs:
        lines += ["", "| run | leg | max error old (m) | max error new (m) | Δ |",
                  "|---|---|---|---|---|"]
        lines += [f"| {name} | {leg} | {_m(ea)} | {_m(eb)} | {delta} |"
                  for name, leg, ea, eb, delta in legs]
    flips = [(a["name"], a["outcome"], b["outcome"])
             for a, b in zip(runs_a, runs_b) if a["outcome"] != b["outcome"]]
    if flips:
        lines += ["", "| run | outcome old | outcome new |", "|---|---|---|"]
        lines += [f"| {name} | {oa} | {ob} |" for name, oa, ob in flips]
    return lines


def _m(value: float | None) -> str:
    return "-" if value is None else f"{value:.4f}"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        tree, cases_path, out_path = map(Path, argv[1:4])
        work(tree, cases_path, out_path, "--columns" in argv[4:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_tree", type=Path)
    parser.add_argument("new_tree", type=Path)
    parser.add_argument("--n", type=int, default=200, help="scenarios to generate (200)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated configs (0)")
    parser.add_argument("--tolerance", action="store_true",
                        help="print a Markdown table of the differences instead of digests")
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error(f"--n must be at least 1, got {args.n}")
    for tree in (args.old_tree, args.new_tree):
        if not (tree / "src" / "asvnav").is_dir():
            parser.error(f"{tree} holds no src/asvnav")
    case_data = cases(args.n, args.seed)
    with tempfile.TemporaryDirectory() as scratch:
        old, new = _run_trees([args.old_tree.resolve(), args.new_tree.resolve()], case_data,
                              Path(scratch), args.tolerance)
    mode = "tolerance" if args.tolerance else "exact"
    print(f"differential ({mode}, --n {args.n} --seed {args.seed}): {args.old_tree} vs "
          f"{args.new_tree}")
    print(_coverage(case_data, new))
    lines = tolerance_report(old, new) if args.tolerance else exact_report(old, new)
    print("\n".join(lines) if lines else "no difference")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
