"""asvnav benchmark: one command for every workload and both trace modes.

    python3 perfbench/run.py --workload {suite,envelope} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout. It imports the package from
src/ and writes only under .perfbench_out/ there. --trace 0 measures the
end-to-end metrics with no wrappers installed; --trace 1 measures the
per-layer metrics by wrapping the package's public functions from outside.
Metric names and units come from BENCHMARK.json. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
MIN_PASSES = 3
# After one traced set-up, a traced run spends a third of --seconds on
# untraced reference passes (for the overhead estimate), makes two counting
# passes, then spends another third on traced passes.
TRACE_SHARE = 1 / 3
COUNT_PASSES = 2
MIN_TRACED_PASSES = 2


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


# Candidate tail percentiles, in tenths of a percent, highest first.
TAIL_PERMILLE = (999, 990, 950, 900, 750)


def timing(values) -> dict:
    """Sample count, median, and the highest percentile with at least ten
    samples beyond it; tail is None when no percentile has that many."""
    n = len(values)
    tail = next((p for p in TAIL_PERMILLE if n * (1000 - p) >= 10_000), None)
    return {
        "n": n,
        "median": statistics.median(values),
        "tail": None if tail is None else {"percentile": tail / 10, "value": percentile(values, tail / 10)},
    }


# --------------------------------------------------------------------------
# provenance


def provenance(seed: int) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "asvnav").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_before": list(os.getloadavg()),
        "seed": seed,
    }


# --------------------------------------------------------------------------
# measurement


def cold_import() -> None:
    """Import the CLI in a fresh interpreter, as every `asvnav` invocation must."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import asvnav.cli"
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=120)


def timed_setup(workload, ledger: Ledger) -> tuple[float, list[float]]:
    """Median host time of SETUP_REPEATS set-ups, each a cold import plus
    the workload's own set-up; every set-up's outputs are checked."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cold_import()
        workload.setup()
        times.append(time.perf_counter() - t0)
        checked = workload.check_setup()
        if checked is not None:
            ledger.add(checked, phase="setup")
    return statistics.median(times), times


def one_pass(workload, span_count=None):
    """Execute and check one pass.

    Returns (host seconds, PassResult, (first, end) span indices); the span
    indices come from span_count and are (0, 0) without it.
    """
    gc.collect()
    lo = span_count() if span_count else 0
    t0 = time.perf_counter()
    raw = workload.execute()
    wall = time.perf_counter() - t0
    hi = span_count() if span_count else 0
    result = workload.check(raw)
    return wall, result, (lo, hi)


def measure(workload, seconds: float, min_passes: int, span_count=None) -> list:
    """Passes until seconds have elapsed, and at least min_passes."""
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        passes.append(one_pass(workload, span_count))
    return passes


class Ledger:
    """Operations attempted and failed, plus the determinism guard.

    Each pass's fingerprint and guarded counts are compared with the first
    pass that reported them, kept in fingerprints; every pass that has
    something to compare adds one operation, which fails if anything
    differs.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fingerprints: dict = {}

    def add(self, result, guarded: dict | None = None, phase: str = "pass") -> None:
        self.attempted += result.attempted
        self.failed += result.failed
        self.problems += result.problems
        self.guard({f"{phase} fingerprint": result.fingerprint, **(guarded or {})})

    def guard(self, observed: dict) -> None:
        known = [k for k in observed if k in self.fingerprints]
        for key, value in observed.items():
            self.fingerprints.setdefault(key, value)
        if not known:
            return
        self.attempted += 1
        diff = [k for k in known if observed[k] != self.fingerprints[k]]
        if diff:
            self.failed += 1
            self.problems.append(f"determinism: {', '.join(diff)} differ from the first pass")


def end_to_end(workload, seconds: float) -> tuple[dict, Ledger, dict]:
    """End-to-end metrics: medians over the passes of the window, and the
    median and 90th percentile over every run_scenario call in it."""
    ledger = Ledger()
    setup_s, setup_all = timed_setup(workload, ledger)
    passes = measure(workload, seconds, MIN_PASSES)
    for _, result, _ in passes:
        ledger.add(result)
    walls = [w for w, _, _ in passes]
    run_samples = [ms for _, r, _ in passes for ms in r.run_ms]
    wall_s = statistics.median(walls)
    metrics = {
        "hull_steps_per_s": passes[0][1].ticks / wall_s,
        "wall_s": wall_s,
        "run_ms_p50": percentile(run_samples, 50),
        "run_ms_p90": percentile(run_samples, 90),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "ticks_per_pass": passes[0][1].ticks,
        "wall_s": timing(walls),
        "run_ms": timing(run_samples),
        "setup_s": timing(setup_all),
        "wall_s_all": walls,
        "setup_s_all": setup_all,
    }
    return metrics, ledger, detail


def traced(workload, seconds: float, out_dir: Path, tag: str) -> tuple[dict, Ledger, dict]:
    """Per-layer metrics from a traced set-up, counting passes and traced passes."""
    import layers
    import spans

    ledger = Ledger()
    recorder = spans.SpanRecorder()
    with recorder.installed():
        workload.setup()
    setup_table = recorder.table(0, len(recorder))
    checked = workload.check_setup()
    if checked is not None:
        ledger.add(checked, phase="setup")
    reference = measure(workload, seconds * TRACE_SHARE, MIN_TRACED_PASSES)
    for _, result, _ in reference:
        ledger.add(result)

    counter = spans.CallCounter()
    geo_per_tick = []
    with counter.installed():
        for _ in range(COUNT_PASSES):
            counter.reset()
            _, result, _ = one_pass(workload)
            geo_per_tick.append(counter.layer_total("geo") / result.ticks)
            ledger.add(result, {"geo.calls_per_tick": geo_per_tick[-1]})

    with recorder.installed():
        traced_passes = measure(workload, seconds * TRACE_SHARE, MIN_TRACED_PASSES, recorder.__len__)
    per_pass = []
    for _, result, (lo, hi) in traced_passes:
        values = layers.metrics(recorder.table(lo, hi), result)
        ledger.add(result, {k: values[k] for k in layers.GUARDED})
        per_pass.append(values)
    recorder.save(out_dir / f"spans-{tag}.npz")

    metrics = layers.combine(per_pass)
    metrics.update(layers.setup_metrics(setup_table, checked.ticks if checked else 0))
    metrics["geo.calls_per_tick"] = geo_per_tick[0]
    ref_wall = timing([w for w, _, _ in reference])
    traced_wall = timing([w for w, _, _ in traced_passes])
    metrics["bench.trace_overhead_s"] = traced_wall["median"] - ref_wall["median"]
    detail = {
        "ticks_per_pass": traced_passes[0][1].ticks,
        "reference_wall_s": ref_wall,
        "traced_wall_s": traced_wall,
        "spans": len(recorder),
    }
    return metrics, ledger, detail


# --------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "asvnav" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        return fail(f"no asvnav source tree (src/asvnav, configs/) under {ROOT}")
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")

    sys.path.insert(0, str(ROOT / "src"))
    import asvnav

    if Path(asvnav.__file__).resolve().parent != ROOT / "src" / "asvnav":
        return fail(f"imported asvnav from {asvnav.__file__}, not from this checkout")
    import workloads

    out_dir = ROOT / ".perfbench_out"
    scratch = out_dir / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    prov = provenance(args.seed)
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, scratch)
    try:
        if args.trace:
            values, ledger, detail = traced(workload, args.seconds, out_dir, tag)
            wanted = spec["per_layer"]
        else:
            values, ledger, detail = end_to_end(workload, args.seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    prov["loadavg_after"] = list(os.getloadavg())

    missing = [m["name"] for m in wanted if not math.isfinite(values.get(m["name"], math.nan))]
    if missing:
        return fail(f"metrics not produced or not finite: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    for key, value in prov.items():
        print(f"  {key}: {value}")
    for key, value in {**detail, **ledger.fingerprints}.items():
        print(f"  {key}: {value}")
    for m in wanted:
        print(f"  {m['name']:<36} {values[m['name']]:>14.6g} {m['unit']}")
    print(f"  operations: {ledger.attempted} attempted, {ledger.failed} failed, "
          f"fail_ratio {ledger.failed / ledger.attempted:.6g}")
    for problem in ledger.problems:
        print(f"  FAILED CHECK: {problem}")

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    with open(out_dir / f"result-{tag}.json", "w") as fh:
        json.dump(
            {**result, "provenance": prov, "detail": detail, "fingerprints": ledger.fingerprints,
             "problems": ledger.problems},
            fh, indent=2,
        )
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
