"""Command-line entry points: run, suite, train, fit, report."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

from . import effects, harness
from .metrics import TrajectoryLog, score_run


def _cmd_run(args) -> int:
    scenario = harness.load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    result = harness.run_scenario(scenario, out_dir=args.out)
    print(json.dumps(result.summary(), indent=2, sort_keys=True))
    return 0 if result.completed else 1


def _cmd_suite(args) -> int:
    suite = harness.load_suite(args.suite)
    if args.seed is not None:
        suite = replace(suite, template=replace(suite.template, seed=args.seed))
    result = harness.run_suite(suite, out_dir=args.out)
    print(result.table.to_text())
    if result.incomplete:
        print(f"incomplete runs: {', '.join(result.incomplete)}", file=sys.stderr)
        return 1
    return 0


def _cmd_train(args) -> int:
    sweep = harness.load_sweep(args.sweep)
    if args.seed is not None:
        sweep = replace(sweep, seed=args.seed)
    corpus = harness.generate_training_logs(sweep)
    out = Path(args.out or ".") / "training.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    harness.write_training_csv(corpus, out)
    print(f"wrote {len(corpus)} samples to {out}")
    return 0


def _cmd_fit(args) -> int:
    corpus = harness.read_training_csv(args.training_csv)
    model = effects.fit(corpus, include_intercept=args.intercept)
    effects.save_model(model, args.output)
    rmse = ", ".join(f"{name}={v:.4g}" for name, v in zip(effects.TARGET_NAMES, model.residual_rmse))
    print(f"fitted {model.recipe} on {len(corpus)} samples; residual RMSE: {rmse}")
    print(f"model written to {args.output}")
    return 0


def _cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    npy = run_dir / "trajectory.npy"
    # a run directory written before trajectory.npy existed has only the CSV
    log = (TrajectoryLog.from_npy(npy) if npy.exists()
           else TrajectoryLog.from_csv(run_dir / "trajectory.csv"))
    mission = harness.read_mission_csv(run_dir / "mission.csv")
    radius = harness.DEFAULT_ACCEPT_RADIUS
    config_path = run_dir / "resolved_config.json"
    if config_path.exists():
        radius = harness.load_scenario(config_path).acceptance_radius_m
    series, report, sign_changes = score_run(log, mission, radius, run_dir.name)
    print(
        json.dumps(
            {
                "run": run_dir.name,
                "max_error_m": report.max_error,
                "pct_over_1m": report.pct_over_1m,
                "sign_changes_over_1m": sign_changes,
                "samples_scored": int(series.errors.size),
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0


@cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process."""
    parser = argparse.ArgumentParser(prog="asvnav", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_suite = sub.add_parser("suite", help="run the eight-orientation paired suite")
    p_suite.add_argument("suite")
    p_suite.add_argument("--out", default=None)
    p_suite.add_argument("--seed", type=int, default=None)
    p_suite.set_defaults(func=_cmd_suite)

    p_train = sub.add_parser("train", help="generate effect-model training data")
    p_train.add_argument("sweep")
    p_train.add_argument("--out", default=None)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.set_defaults(func=_cmd_train)

    p_fit = sub.add_parser("fit", help="fit an effect model from a training CSV")
    p_fit.add_argument("training_csv")
    p_fit.add_argument("-o", "--output", required=True)
    p_fit.add_argument("--intercept", action="store_true", help="include an intercept term")
    p_fit.set_defaults(func=_cmd_fit)

    p_report = sub.add_parser("report", help="score a finished run directory")
    p_report.add_argument("run_dir")
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # a bad config or input file, or a missing one
        print(f"asvnav: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
