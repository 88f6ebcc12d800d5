"""The benchmark's workloads: suite and envelope.

Each workload is a closed loop with one caller: a pass starts when the
previous one has ended. A workload splits a pass into execute(), the part
the runner times and traces, and check(), which verifies the outputs
outside the timed region; set-up is likewise setup() and check_setup().
The workload seed reaches the program only as generated inputs and as the
CLI's own --seed argument.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import time
from dataclasses import dataclass, field, replace
from itertools import count
from pathlib import Path

import numpy as np

from asvnav import cli, effects, harness
from asvnav.env import FieldSpec
from asvnav.geo import METERS_PER_DEG_LAT
from asvnav.vehicle import NoiseSpec

# Pinned outputs, taken before any optimisation. The suite and the training
# path do not depend on the seed (noise is off in both configs), and the
# envelope reference runs use a fixed seed, so a change that only makes the
# simulator faster must reproduce every one of them exactly.
# The printed comparison table of the canonical suite (the paper's table).
PAPER_TABLE_SHA256 = "830f770f8f010b8db21ef230089524cd5ae754c8bd3b30dfce1a89ba0d17dbf1"
# The suite's report.csv, which holds the table at full float precision.
SUITE_REPORT_CSV_SHA256 = "57c3119d1c34209e21d1df1abe55a5e398874f9851adecc2b1960ff9285c37f5"
SUITE_TICKS = 20898
TRAINING_CSV_SHA256 = "b4fb0322804bfc48d1609d7805882e0e1f51676755dd0c4416a47a232543e5d6"
# model.json (no intercept) and model_intercept.json.
MODEL_SHA256 = (
    "ca5d8fe28ffe0584f2268c563e3df1a1c295b8b91a934aa52e2a6d4efb83a64e",
    "3044ac1ada9f7780a0572c62e18fa4a3169f20833b906121803139d1107edf8b",
)

WITH_CURRENT = (0, 45, 315)
AUGMENTED_BOUND_M = 1.6
RECOVERY_TOL = 1e-3


@dataclass
class PassResult:
    """Checked outcome of one pass.

    run_ms holds the host time of each run_scenario call. fingerprint holds
    the simulated statistics that must repeat exactly on every pass.
    """

    run_ms: list[float]
    ticks: int
    attempted: int
    failed: int
    fingerprint: dict
    problems: list[str] = field(default_factory=list)
    runs: int = 0
    augmented_runs: int = 0
    reanchors: int = 0


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run one asvnav command in-process, returning (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def count_reanchors(log) -> int:
    """Times the logged intermediate target takes a new value.

    Each new target re-anchors the inner navigator's tracking line, so
    this counts re-anchors from the log alone.
    """
    n = 0
    previous = None
    for record in log.records:
        if record.intermediate is not None and record.intermediate != previous:
            n += 1
        previous = record.intermediate
    return n


class RunRecorder:
    """Times each harness.run_scenario call, including calls that raise,
    and keeps the result of each call that returns. It replaces one module
    attribute for the duration of a pass, which costs two clock reads per
    run."""

    def __init__(self):
        self.ms: list[float] = []
        self.results: list = []

    @contextlib.contextmanager
    def installed(self):
        inner = harness.run_scenario
        clock = time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                self.ms.append((clock() - t0) * 1e3)
            self.results.append(result)
            return result

        harness.run_scenario = timed
        try:
            yield self
        finally:
            harness.run_scenario = inner


class Suite:
    """`asvnav suite configs/suite.json --out <dir>`, then `asvnav report`
    on every run directory: the paper's headline experiment."""

    name = "suite"

    def __init__(self, root: Path, seed: int, scratch: Path):
        self.config = root / "configs" / "suite.json"
        self.seed = seed
        self.scratch = scratch
        self._pass = count()

    def setup(self) -> None:
        spec = harness.load_suite(self.config)
        names = [sc.name for sc in harness.suite_scenarios(spec)]
        random.Random(self.seed).shuffle(names)
        self.report_order = names

    def check_setup(self) -> None:
        """Set-up only reads the config; the passes check everything."""
        return None

    def execute(self):
        out = self.scratch / f"suite-{next(self._pass)}"
        recorder = RunRecorder()
        # A command that raises is a failed operation, not a dead pass.
        try:
            with recorder.installed():
                code, table = _cli(["suite", str(self.config), "--out", str(out), "--seed", str(self.seed)])
        except Exception as exc:
            code, table = repr(exc), ""
        reports = {}
        for name in self.report_order:
            try:
                reports[name] = _cli(["report", str(out / "runs" / name)])
            except Exception as exc:
                reports[name] = (None, repr(exc))
        return out, code, table, recorder, reports

    def check(self, raw) -> PassResult:
        out, code, table, recorder, reports = raw
        problems = []
        summaries = {}
        failed = 0
        for name, (rcode, text) in reports.items():
            try:
                summary = json.loads((out / "runs" / name / "summary.json").read_text())
                rescored = json.loads(text)
            except (OSError, ValueError) as exc:
                failed += 1
                problems.append(f"{name}: unreadable output ({exc})")
                continue
            summaries[name] = summary
            keys = ("max_error_m", "pct_over_1m", "sign_changes_over_1m")
            if rcode != 0 or not summary["completed"] or any(rescored[k] != summary[k] for k in keys):
                failed += 1
                problems.append(f"{name}: rescoring differs from summary.json or run incomplete")

        report_csv = out / "report.csv"
        fingerprint = {
            "ticks": sum(len(r.log) for r in recorder.results),
            "report_csv_sha256": _sha256(report_csv.read_bytes()) if report_csv.exists() else None,
        }
        suite_problems = []
        if code != 0:
            suite_problems.append(f"asvnav suite exited {code}")
        if _sha256(table) != PAPER_TABLE_SHA256:
            suite_problems.append("printed comparison table differs from the paper's table")
        if fingerprint["report_csv_sha256"] != SUITE_REPORT_CSV_SHA256:
            suite_problems.append("report.csv differs from the pinned report.csv")
        if fingerprint["ticks"] != SUITE_TICKS:
            suite_problems.append(f"{fingerprint['ticks']} ticks, pinned {SUITE_TICKS}")
        suite_problems += _suite_criteria(summaries)
        if suite_problems:
            failed += 1
            problems += suite_problems
        augmented = [r for r in recorder.results if r.scenario.controller.kind == "augmented"]
        shutil.rmtree(out, ignore_errors=True)
        return PassResult(
            run_ms=recorder.ms,
            ticks=fingerprint["ticks"],
            attempted=len(self.report_order) + 1,
            failed=failed,
            fingerprint=fingerprint,
            problems=problems,
            runs=len(recorder.results),
            augmented_runs=len(augmented),
            reanchors=sum(count_reanchors(r.log) for r in augmented),
        )


def _suite_criteria(summaries: dict) -> list[str]:
    """Acceptance criteria 5 (paired improvement) and 6 (the 1.6 m bound)."""
    problems = []
    by = {}
    for name, s in summaries.items():
        kind, orientation = name.rsplit("_", 1)
        by[kind, int(orientation)] = s
    orientations = sorted({o for _, o in by})
    if len(orientations) != 8 or len(by) != 16:
        return [f"expected 16 scored runs over 8 orientations, got {len(by)}"]
    for o in orientations:
        base, aug = by["baseline", o], by["augmented", o]
        if not (aug["max_error_m"] < base["max_error_m"] and aug["pct_over_1m"] < base["pct_over_1m"]):
            problems.append(f"criterion 5: orientation {o} not improved")
        if o in WITH_CURRENT and not base["max_error_m"] >= 2.0 * aug["max_error_m"]:
            problems.append(f"criterion 5: orientation {o} max-error ratio below 2")
    worst = max(by["augmented", o]["max_error_m"] for o in orientations)
    if not worst <= AUGMENTED_BOUND_M:
        problems.append(f"criterion 6: worst augmented max error {worst:.3f} m > {AUGMENTED_BOUND_M} m")
    return problems


# --------------------------------------------------------------------------
# envelope

ENVELOPE_ORIENTATIONS = (0, 90, 180)
ENVELOPE_CURRENTS_MPS = (0.677, 1.4)
ENVELOPE_NOISES = (NoiseSpec(), NoiseSpec(sigma_speed=0.05, sigma_dir=2.0))
ENVELOPE_CONTROLLERS = ("baseline", "augmented-oracle", "augmented-fitted")

# The grid spans +/- GRID_HALF_SPAN_M around the suite center in both axes:
# legs, start run-ups and the widest excursions seen stay well inside it.
GRID_HALF_SPAN_M = 500.0
GRID_NODES = 11
GRID_SPEED_SPREAD = 0.2  # node speeds vary by up to +/-20 % of the nominal
GRID_DIRECTION_SIGMA_DEG = 8.0


def grid_current(seed: int, speed: float) -> FieldSpec:
    """Seeded spatially varying current around the suite center.

    The pattern depends on the seed only, so both current speeds share it.
    """
    rng = np.random.default_rng(seed)
    factors = 1.0 + GRID_SPEED_SPREAD * rng.uniform(-1.0, 1.0, (GRID_NODES, GRID_NODES))
    directions = harness.RIVER_AXIS_DEG + rng.normal(0.0, GRID_DIRECTION_SIGMA_DEG, (GRID_NODES, GRID_NODES))
    center = harness.RIVER_CENTER
    spacing_m = 2.0 * GRID_HALF_SPAN_M / (GRID_NODES - 1)
    dlat = spacing_m / METERS_PER_DEG_LAT
    dlon = spacing_m / (METERS_PER_DEG_LAT * math.cos(math.radians(center.lat)))
    half = (GRID_NODES - 1) / 2
    return FieldSpec.grid(
        lat0=center.lat - half * dlat,
        lon0=center.lon - half * dlon,
        dlat=dlat,
        dlon=dlon,
        speeds=(speed * factors).tolist(),
        directions=(directions % 360.0).tolist(),
    )


def envelope_runs(seed: int, fitted) -> list:
    """(scenario, model) for the 36 envelope runs drawn from one seed."""
    runs = []
    for speed in ENVELOPE_CURRENTS_MPS:
        suite = harness.standard_suite(current_speed=speed)
        template = replace(suite.template, current=grid_current(seed, speed))
        for orientation in ENVELOPE_ORIENTATIONS:
            mission = harness.suite_mission(suite, orientation)
            for noisy, noise in enumerate(ENVELOPE_NOISES):
                for controller in ENVELOPE_CONTROLLERS:
                    kind, _, model_name = controller.partition("-")
                    sc = replace(
                        template,
                        mission=mission,
                        controller=harness.ControllerSpec(kind=kind, model=model_name or "oracle"),
                        noise=noise,
                        seed=seed * 1000 + len(runs),
                        start=None,
                        name=f"{controller}_{orientation:03d}_c{speed}_n{noisy}",
                    )
                    runs.append((sc, fitted if model_name == "fitted" else None))
    return runs


def run_outcome(sc, result) -> tuple:
    """The simulated statistics of one run, or what it raised."""
    if isinstance(result, Exception):
        return (sc.name, "raised", type(result).__name__)
    report = result.report
    return (
        sc.name,
        "completed" if result.completed else "incomplete",
        len(result.log),
        None if report is None else (report.max_error, report.pct_over_1m),
        result.sign_changes_over_1m,
    )


# Envelope reference runs: the three controllers on one noisy grid-current
# leg drawn from REFERENCE_SEED. Between them they sample the grid, draw
# noise and predict with both models; their outcomes are pinned at full
# float precision, whatever seed the benchmark runs with.
REFERENCE_SEED = 0
REFERENCE_RUNS = tuple(f"{c}_090_c1.4_n1" for c in ENVELOPE_CONTROLLERS)
REFERENCE_OUTCOMES_SHA256 = "90cbb5af76ae0205d3b1cc5567c1c4e55269fe576334eb5590e26904beb6217f"


class Envelope:
    """In-memory Monte-Carlo over leg orientation x current x sensor noise
    x {baseline, augmented-oracle, augmented-fitted}: 36 runs a pass.

    Set-up fits the model the way users do: `asvnav train
    configs/training_sweep.json`, then `asvnav fit` with and without an
    intercept. So the open-loop training path (sweep generation, training
    CSV write and read, OLS fit) is what setup_s times.
    """

    name = "envelope"

    def __init__(self, root: Path, seed: int, scratch: Path):
        self.sweep_config = root / "configs" / "training_sweep.json"
        self.seed = seed
        self.scratch = scratch
        self._setups = count()
        self._once: dict | None = None

    def setup(self) -> None:
        out = self.scratch / f"setup-{next(self._setups)}"
        csv = out / "training.csv"
        commands = (
            ["train", str(self.sweep_config), "--out", str(out), "--seed", str(self.seed)],
            ["fit", str(csv), "-o", str(out / "model.json")],
            ["fit", str(csv), "-o", str(out / "model_intercept.json"), "--intercept"],
        )
        self._training = (out, [_cli(argv)[0] for argv in commands])
        self.fitted = effects.load_model(out / "model.json")
        self.runs = envelope_runs(self.seed, self.fitted)

    def _check_once(self, csv: Path) -> tuple[dict, list[str]]:
        """Checks that need running only once, since every later set-up
        must reproduce the pinned digests: an exact training CSV round trip
        and the envelope reference runs."""
        problems = []
        again = csv.with_name("round_trip.csv")
        try:
            harness.write_training_csv(harness.read_training_csv(csv), again)
            round_trip = again.read_bytes() == csv.read_bytes()
        except (OSError, ValueError) as exc:
            round_trip = False
            problems.append(f"training CSV round trip raised {exc!r}")
        if not round_trip:
            problems.append("training CSV does not round-trip exactly")

        outcomes = []
        for sc, model in envelope_runs(REFERENCE_SEED, self.fitted):
            if sc.name in REFERENCE_RUNS:
                try:
                    result = harness.run_scenario(sc, model=model)
                except Exception as exc:
                    result = exc
                outcomes.append(run_outcome(sc, result))
        digest = _sha256(repr(outcomes))
        if digest != REFERENCE_OUTCOMES_SHA256:
            problems.append(f"envelope reference runs differ from the pinned outcomes: {outcomes!r}")
        return {"reference_outcomes_sha256": digest}, problems

    def check_setup(self) -> PassResult:
        """Checks on the training path: exit codes, the pinned training CSV
        and models, and coefficient recovery (acceptance criterion 3); once
        per benchmark run also the round trip and the reference runs."""
        out, codes = self._training
        problems = []
        failed = 0
        csv = out / "training.csv"
        csv_bytes = csv.read_bytes() if csv.exists() else b""
        samples = max(0, csv_bytes.count(b"\n") - 1)
        if codes[0] != 0 or _sha256(csv_bytes) != TRAINING_CSV_SHA256:
            failed += 1
            problems.append(f"asvnav train: exit {codes[0]!r}, {samples} samples, CSV differs from the pinned one")

        wind_drag = harness.load_sweep(self.sweep_config).vehicle.wind_drag_factor
        model_digests = []
        for code, model_file, pinned in zip(codes[1:], ("model.json", "model_intercept.json"), MODEL_SHA256):
            try:
                payload = (out / model_file).read_text()
                coef = np.asarray(json.loads(payload)["coef"], dtype=float)
            except (OSError, ValueError, KeyError) as exc:
                failed += 1
                problems.append(f"{model_file}: unreadable ({exc})")
                model_digests.append(None)
                continue
            model_digests.append(_sha256(payload))
            current_err = max(abs(coef[0, 0] - 1.0), abs(coef[1, 1] - 1.0))
            wind_err = max(abs(coef[0, 2] - wind_drag), abs(coef[1, 3] - wind_drag))
            if code != 0 or model_digests[-1] != pinned or not (current_err < RECOVERY_TOL and wind_err < RECOVERY_TOL):
                failed += 1
                problems.append(
                    f"{model_file}: exit {code!r}, coefficient error current {current_err:.2e} "
                    f"wind {wind_err:.2e} (tolerance {RECOVERY_TOL}), "
                    f"{'same as' if model_digests[-1] == pinned else 'differs from'} the pinned model"
                )

        attempted = len(codes)
        if self._once is None:
            self._once, once_problems = self._check_once(csv)
            attempted += 1
            failed += bool(once_problems)
            problems += once_problems
        shutil.rmtree(out, ignore_errors=True)
        return PassResult(
            run_ms=[],
            ticks=samples,
            attempted=attempted,
            failed=failed,
            fingerprint={
                "samples": samples,
                "training_csv_sha256": _sha256(csv_bytes),
                "models_sha256": model_digests,
                **self._once,
            },
            problems=problems,
        )

    def execute(self):
        recorder = RunRecorder()
        results = []
        with recorder.installed():
            for sc, model in self.runs:
                try:
                    results.append(harness.run_scenario(sc, model=model))
                except Exception as exc:  # a run that raises is a failed operation, not a dead pass
                    results.append(exc)
        return recorder.ms, results

    def check(self, raw) -> PassResult:
        run_ms, results = raw
        outcomes, problems = [], []
        ticks = reanchors = augmented = failed = 0
        for (sc, _), result in zip(self.runs, results):
            outcomes.append(run_outcome(sc, result))
            if isinstance(result, Exception):
                failed += 1
                problems.append(f"{sc.name}: raised {result!r}")
                continue
            ticks += len(result.log)
            if sc.controller.kind == "augmented":
                augmented += 1
                reanchors += count_reanchors(result.log)
        return PassResult(
            run_ms=run_ms,
            ticks=ticks,
            attempted=len(self.runs),
            failed=failed,
            fingerprint={"ticks": ticks, "outcomes_sha256": _sha256(repr(outcomes))},
            problems=problems,
            runs=len(self.runs),
            augmented_runs=augmented,
            reanchors=reanchors,
        )


WORKLOADS = {w.name: w for w in (Suite, Envelope)}
