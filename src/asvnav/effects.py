"""Disturbance effect model: fit by ordinary least squares on logged runs
and predict the drift the environment imposes on the vehicle.

The default feature recipe works in east/north component space (polar force
inputs are converted before regression) because regressing on raw angles is
discontinuous at the 0/360 wrap. A prediction is a TARGET_NAMES row: the
drift velocity's east and north components plus the along-heading
ground-speed deficit, where positive deficit means the disturbance slows
progress toward the goal.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geo import unit_enu

MODEL_FORMAT = "asvnav-effect-model"
MODEL_VERSION = 1

RECIPE_ENU = "enu_components_v1"
RECIPE_ENU_INTERCEPT = "enu_components_v1+intercept"

FEATURE_NAMES = (
    "current_east",
    "current_north",
    "wind_east",
    "wind_north",
    "commanded_speed",
    "heading_east",
    "heading_north",
)

TARGET_NAMES = ("drift_east", "drift_north", "deficit")

# Feature count of each recipe: FEATURE_NAMES, plus a constant 1.0 for the
# intercept.
RECIPE_WIDTHS = {RECIPE_ENU: len(FEATURE_NAMES), RECIPE_ENU_INTERCEPT: len(FEATURE_NAMES) + 1}

# Columns of a training corpus: FEATURE_NAMES, then TARGET_NAMES.
CORPUS_WIDTH = len(FEATURE_NAMES) + len(TARGET_NAMES)

MIN_SAMPLES_PER_FEATURE = 10


@dataclass(frozen=True)
class TrainingSample:
    """One logged control step: feature vector and observed targets.

    This is one row of a training corpus as a record. The sweep, the
    training CSV and fit work on the whole corpus array instead.
    """

    features: tuple[float, ...]
    targets: tuple[float, ...]

    def __post_init__(self):
        if len(self.features) != len(FEATURE_NAMES):
            raise ValueError(f"expected {len(FEATURE_NAMES)} features, got {len(self.features)}")
        if len(self.targets) != len(TARGET_NAMES):
            raise ValueError(f"expected {len(TARGET_NAMES)} targets, got {len(self.targets)}")
        if not all(math.isfinite(v) for v in (*self.features, *self.targets)):
            raise ValueError("training sample contains non-finite values")


def _check_corpus(corpus) -> np.ndarray:
    """corpus as a training corpus: a C-contiguous float64 array of shape
    (n, len(FEATURE_NAMES + TARGET_NAMES)) whose columns are the features,
    then the targets. An empty sequence is the empty corpus. Raises
    ValueError on any other shape or on a non-finite value."""
    corpus = np.ascontiguousarray(corpus, dtype=np.float64)
    if corpus.shape == (0,):
        return corpus.reshape(0, CORPUS_WIDTH)
    if corpus.ndim != 2:
        raise ValueError(f"a training corpus has one row per sample, got shape {corpus.shape}")
    n_features, width = len(FEATURE_NAMES), corpus.shape[1]
    if width < n_features:
        raise ValueError(f"expected {n_features} features, got {width}")
    if width != CORPUS_WIDTH:
        raise ValueError(f"expected {len(TARGET_NAMES)} targets, got {width - n_features}")
    if not np.isfinite(corpus).all():
        raise ValueError("training sample contains non-finite values")
    return corpus


def make_features(spd_c: float, dir_c: float, spd_w: float, dir_w: float, spd_target: float,
                  h_t: float) -> tuple[float, ...]:
    """Assemble the regression feature vector from raw controller inputs:
    the absolute forces as relative_to_absolute returns them, the
    commanded speed and the heading."""
    ue, un = unit_enu(dir_c)
    we, wn = unit_enu(dir_w)
    he, hn = unit_enu(h_t)
    return (spd_c * ue, spd_c * un, spd_w * we, spd_w * wn, spd_target, he, hn)


def drift_targets(drift_e: float, drift_n: float, h_t: float) -> tuple[float, float, float]:
    """The three targets of a drift velocity: its east and north components
    and the along-heading deficit (positive = slows progress)."""
    he, hn = unit_enu(h_t)
    return drift_e, drift_n, -(drift_e * he + drift_n * hn)


@dataclass(frozen=True, eq=False)
class EffectModel:
    """OLS coefficient matrix mapping the feature vector to the three targets.

    coef has shape (3, n_features); residual_rmse records the per-target
    training residual at fit time: three finite numbers >= 0.
    """

    coef: np.ndarray
    recipe: str = RECIPE_ENU
    residual_rmse: tuple[float, ...] = field(default_factory=lambda: (0.0, 0.0, 0.0))

    def __post_init__(self):
        coef = np.asarray(self.coef, dtype=float)
        if coef.ndim != 2 or coef.shape[0] != len(TARGET_NAMES) or not np.all(np.isfinite(coef)):
            raise ValueError(f"coefficient matrix must be finite with {len(TARGET_NAMES)} rows")
        if self.recipe not in RECIPE_WIDTHS:
            raise ValueError(f"unknown feature recipe {self.recipe!r}")
        if coef.shape[1] != RECIPE_WIDTHS[self.recipe]:
            raise ValueError(f"recipe {self.recipe!r} takes {RECIPE_WIDTHS[self.recipe]} features, "
                             f"the coefficient matrix has {coef.shape[1]} columns")
        rmse = self.residual_rmse
        if not (isinstance(rmse, (tuple, list)) and len(rmse) == len(TARGET_NAMES)
                and all(isinstance(v, (int, float)) and 0.0 <= v < math.inf for v in rmse)):
            raise ValueError(f"residual_rmse must be {len(TARGET_NAMES)} finite numbers >= 0, "
                             f"got {rmse!r}")
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "residual_rmse", tuple(rmse))

    @classmethod
    def zero(cls) -> "EffectModel":
        """Model that predicts no effect for any input."""
        return cls(coef=np.zeros((len(TARGET_NAMES), len(FEATURE_NAMES))))

    def predict(self, spd_c: float, dir_c: float, spd_w: float, dir_w: float, spd_target: float,
                h_t: float) -> tuple[float, float, float]:
        """The TARGET_NAMES row (drift_east, drift_north, deficit) for
        make_features' inputs: the absolute forces as relative_to_absolute
        returns them (finite speeds >= 0, directions in [0, 360)), the
        commanded speed and the heading. Nothing here re-checks them."""
        # the coefficient width, checked against the recipe, keeps the intercept's 1.0
        x = (*make_features(spd_c, dir_c, spd_w, dir_w, spd_target, h_t), 1.0)[:self.coef.shape[1]]
        return tuple((self.coef @ x).tolist())


@dataclass(frozen=True)
class OracleEffectModel:
    """Ground-truth stand-in: reports the sampled current plus the wind-drag
    fraction of the wind as the drift, bypassing regression entirely.

    Used in tests and paired runs to separate controller error from model
    error. wind_drag_factor is the hull's VehicleParams.wind_drag_factor.
    """

    wind_drag_factor: float

    def predict(self, spd_c: float, dir_c: float, spd_w: float, dir_w: float, spd_target: float,
                h_t: float) -> tuple[float, float, float]:
        """EffectModel.predict on the same inputs, the drift being the
        current plus wind_drag_factor of the wind."""
        ce, cn, we, wn, *_ = make_features(spd_c, dir_c, spd_w, dir_w, spd_target, h_t)
        k = self.wind_drag_factor
        return drift_targets(ce + k * we, cn + k * wn, h_t)


def _degenerate_features(x: np.ndarray, names: Sequence[str]) -> list[str]:
    """Names of columns that are linearly dependent on the others."""
    full_rank = np.linalg.matrix_rank(x)
    culprits = []
    for j, name in enumerate(names):
        reduced = np.delete(x, j, axis=1)
        if np.linalg.matrix_rank(reduced) == full_rank:
            culprits.append(name)
    return culprits or list(names)


def fit(corpus: np.ndarray, include_intercept: bool = False) -> EffectModel:
    """Ordinary-least-squares fit of the effect model on a training corpus,
    the (n, 10) array of features and targets (_check_corpus).

    Requires at least 10 samples per feature and a full-rank feature
    matrix; rank deficiency raises naming the degenerate feature(s).
    """
    corpus = _check_corpus(corpus)
    names = list(FEATURE_NAMES)
    x, y = corpus[:, :len(FEATURE_NAMES)], corpus[:, len(FEATURE_NAMES):]
    if include_intercept:
        x = np.hstack([x, np.ones((x.shape[0], 1))])
        names.append("intercept")
    n_features = x.shape[1]
    if len(corpus) < MIN_SAMPLES_PER_FEATURE * n_features:
        raise ValueError(
            f"need at least {MIN_SAMPLES_PER_FEATURE * n_features} samples "
            f"for {n_features} features, got {len(corpus)}"
        )
    # lstsq's rank counts the singular values above matrix_rank's cutoff,
    # eps * max(n, m) * the largest, from the one SVD of the fit
    coef_t, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank < n_features:
        culprits = _degenerate_features(x, names)
        raise ValueError(f"feature matrix is rank deficient; degenerate feature(s): {culprits}")
    residuals = y - x @ coef_t
    rmse = tuple(float(v) for v in np.sqrt(np.mean(residuals**2, axis=0)))
    recipe = RECIPE_ENU_INTERCEPT if include_intercept else RECIPE_ENU
    return EffectModel(coef=coef_t.T, recipe=recipe, residual_rmse=rmse)


def save_model(model: EffectModel, path: str | os.PathLike) -> None:
    """Write a fitted model to its versioned JSON file."""
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "recipe": model.recipe,
        "coef": model.coef.tolist(),
        "residual_rmse": list(model.residual_rmse),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path: str | os.PathLike) -> EffectModel:
    """The model in a file save_model wrote; ValueError naming the path for
    any other file, and for a model EffectModel rejects."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not an effect model file")
    if payload.get("version") != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model version {payload.get('version')!r}")
    missing = [key for key in ("coef", "recipe", "residual_rmse") if key not in payload]
    if missing:
        raise ValueError(f"{path}: model file has no {', '.join(missing)}")
    try:
        return EffectModel(
            coef=np.asarray(payload["coef"], dtype=float),
            recipe=payload["recipe"],
            residual_rmse=payload["residual_rmse"],
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
