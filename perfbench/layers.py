"""Per-layer metrics from the spans of a traced set-up and traced passes.

Self time is a span's duration minus the time its wrapped children cover.
geo carries no spans (see spans.py), so geo work counts in its callers'
self time; geo is measured as a call count in its own counting pass.
Per-tick figures divide by the pass's simulated ticks, per-run figures by
the runs in the pass, and per-sample figures by the training samples the
set-up generated.
"""

from __future__ import annotations

import statistics

STEER = ("control.steer_toward", "control.aim_point", "control.pid_step")
PREDICT = ("effects.EffectModel.predict", "effects.OracleEffectModel.predict", "effects.predict")
SCORING = (
    "metrics.cross_track_series",
    "metrics.score",
    "metrics.score_log",
    "metrics.score_legs",
    "metrics.sign_changes_over_threshold",
)
TRAJECTORY_CSV = (
    "metrics.TrajectoryLog.write_csv",
    "metrics.TrajectoryLog.to_csv",
    "metrics.TrajectoryLog.from_csv",
)
CONFIG_LOAD = ("harness.load_suite", "harness.load_sweep", "harness.load_scenario")

# Counts the determinism guard requires to repeat exactly across passes.
GUARDED = (
    "env.sample_calls_per_tick",
    "effects.predict_calls_per_tick",
    "augment.updates_per_run",
    "augment.reanchors_per_run",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_call_ms(t, names) -> float:
    member = t.mask(names)
    return _ratio(t.total(member) * 1e3, t.count(t.entries(member)))


def setup_metrics(t, samples: int) -> dict:
    """Per-layer metrics of one traced set-up: config loading, and for
    envelope the training path (sweep, training CSV, fit)."""
    training_samples = t.mask(["effects.TrainingSample.__post_init__"])
    return {
        "effects.fit_ms": _per_call_ms(t, ["effects.fit"]),
        "effects.sample_us": _ratio(t.self_sum(training_samples) * 1e6, t.count(training_samples)),
        "harness.sweep_self_us_per_sample": _ratio(
            t.self_sum(t.mask(["harness.generate_training_logs"])) * 1e6, samples
        ),
        "harness.training_csv_write_ms": _per_call_ms(t, ["harness.write_training_csv"]),
        "harness.training_csv_read_ms": _per_call_ms(t, ["harness.read_training_csv"]),
        "harness.config_load_ms": _per_call_ms(t, CONFIG_LOAD),
    }


def metrics(t, result) -> dict:
    """Per-layer metrics of one pass. t is its SpanTable, result its PassResult."""
    ticks = result.ticks
    runs = result.runs

    def us_per_tick(seconds: float) -> float:
        return _ratio(seconds * 1e6, ticks)

    def ms_per_run(seconds: float) -> float:
        return _ratio(seconds * 1e3, runs)

    def per_call_ms(names) -> float:
        return _per_call_ms(t, names)

    env = t.prefix_mask("env.")
    control = t.prefix_mask("control.")
    steer = t.mask(STEER)
    predict = t.mask(PREDICT)
    scoring = t.mask(SCORING)
    in_run = t.under(["harness.run_scenario"])

    return {
        "env.sample_calls_per_tick": _ratio(t.count(t.entries(env)), ticks),
        "env.sample_us_per_tick": us_per_tick(t.total(env)),
        "vehicle.sense_us_per_tick": us_per_tick(t.self_sum(t.mask(["vehicle.sense"]))),
        "vehicle.r2a_us_per_tick": us_per_tick(t.self_sum(t.mask(["vehicle.relative_to_absolute"]))),
        "vehicle.step_us_per_tick": us_per_tick(t.self_sum(t.mask(["vehicle.step"]))),
        "control.navigator_us_per_tick": us_per_tick(t.self_sum(control & ~steer)),
        "control.steer_us_per_tick": us_per_tick(t.self_sum(steer)),
        "augment.self_us_per_tick": us_per_tick(t.self_sum(t.prefix_mask("augment."))),
        "augment.updates_per_run": _ratio(
            t.count(t.mask(["augment.calc_intermediate_wp"])), result.augmented_runs
        ),
        "augment.reanchors_per_run": _ratio(result.reanchors, result.augmented_runs),
        "effects.predict_calls_per_tick": _ratio(t.count(t.entries(predict)), ticks),
        "effects.predict_us_per_call": per_call_ms(PREDICT) * 1e3,
        "metrics.log_us_per_tick": us_per_tick(t.self_sum(t.mask(["metrics.TrajectoryLog.append"]))),
        "metrics.score_ms_per_run": ms_per_run(t.total(scoring & in_run)),
        "metrics.trajectory_csv_ms_per_run": ms_per_run(t.total(t.mask(TRAJECTORY_CSV))),
        "metrics.rescore_ms_per_run": ms_per_run(t.total(scoring & ~in_run)),
        "harness.loop_self_us_per_tick": us_per_tick(t.self_sum(t.mask(["harness.run_scenario"]))),
        "cli.self_ms_per_pass": t.self_sum(t.prefix_mask("cli.")) * 1e3,
    }


def combine(per_pass: list[dict]) -> dict:
    """Counts from the first pass (the guard checks the rest agree);
    timings as the median over passes."""
    return {
        key: per_pass[0][key] if key in GUARDED else statistics.median(p[key] for p in per_pass)
        for key in per_pass[0]
    }
