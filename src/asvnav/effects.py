"""Disturbance effect model: fit by ordinary least squares on logged runs,
predict the drift the environment imposes on the vehicle, and decompose it
into planar components.

The default feature recipe works in east/north component space (polar force
inputs are converted before regression) because regressing on raw angles is
discontinuous at the 0/360 wrap. Outputs are the drift velocity components
plus the along-track ground-speed deficit, where positive deficit means the
disturbance slows progress toward the goal.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geo import bearing_of, unit_enu, wrap_angle

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

MIN_SAMPLES_PER_FEATURE = 10


@dataclass(frozen=True)
class ForceSample:
    """Absolute (world-frame) current and wind as measured by the vehicle."""

    spd_c: float
    dir_c: float
    spd_w: float
    dir_w: float

    def __post_init__(self):
        _, dir_c, _, dir_w = _force_floats(self.spd_c, self.dir_c, self.spd_w, self.dir_w)
        object.__setattr__(self, "dir_c", dir_c)
        object.__setattr__(self, "dir_w", dir_w)

    def current_enu(self) -> tuple[float, float]:
        ue, un = unit_enu(self.dir_c)
        return self.spd_c * ue, self.spd_c * un

    def wind_enu(self) -> tuple[float, float]:
        ue, un = unit_enu(self.dir_w)
        return self.spd_w * ue, self.spd_w * un


def _force_floats(spd_c: float, dir_c: float, spd_w: float,
                 dir_w: float) -> tuple[float, float, float, float]:
    """ForceSample's rules on plain floats: finite non-negative speeds,
    directions wrapped to [0, 360)."""
    for name, speed in (("spd_c", spd_c), ("spd_w", spd_w)):
        if speed < 0.0 or not math.isfinite(speed):
            raise ValueError(f"{name} must be finite and >= 0")
    return spd_c, wrap_angle(dir_c), spd_w, wrap_angle(dir_w)


@dataclass(frozen=True)
class EffectPrediction:
    """Predicted disturbance effect.

    effect_x/effect_y are the drift velocity components (m/s east/north);
    effect_dir is the drift's compass direction; effect_spd is the
    along-track ground-speed deficit (positive = slows progress).
    """

    effect_spd: float
    effect_dir: float
    effect_x: float
    effect_y: float

    def drift_magnitude(self) -> float:
        return math.hypot(self.effect_x, self.effect_y)


@dataclass(frozen=True)
class TrainingSample:
    """One logged control step: feature vector and observed targets."""

    features: tuple[float, ...]
    targets: tuple[float, ...]

    def __post_init__(self):
        if len(self.features) != len(FEATURE_NAMES):
            raise ValueError(f"expected {len(FEATURE_NAMES)} features, got {len(self.features)}")
        if len(self.targets) != len(TARGET_NAMES):
            raise ValueError(f"expected {len(TARGET_NAMES)} targets, got {len(self.targets)}")
        if not all(math.isfinite(v) for v in (*self.features, *self.targets)):
            raise ValueError("training sample contains non-finite values")


def make_features(f: ForceSample, spd_target: float, h_t: float) -> tuple[float, ...]:
    """Assemble the regression feature vector from raw controller inputs."""
    return _features(f.spd_c, f.dir_c, f.spd_w, f.dir_w, spd_target, h_t)


def _features(spd_c: float, dir_c: float, spd_w: float, dir_w: float, spd_target: float,
              h_t: float) -> tuple[float, ...]:
    """make_features on the four floats of a ForceSample."""
    ue, un = unit_enu(dir_c)
    we, wn = unit_enu(dir_w)
    he, hn = unit_enu(h_t)
    return (spd_c * ue, spd_c * un, spd_w * we, spd_w * wn, spd_target, he, hn)


def drift_targets(drift_e: float, drift_n: float, h_t: float) -> tuple[float, float, float]:
    """The three targets of a drift velocity: its east and north components
    and the along-heading deficit (positive = slows progress)."""
    he, hn = unit_enu(h_t)
    return drift_e, drift_n, -(drift_e * he + drift_n * hn)


def _prediction_from_drift(drift_e: float, drift_n: float, deficit: float) -> EffectPrediction:
    return EffectPrediction(
        effect_spd=deficit,
        effect_dir=bearing_of(drift_e, drift_n),
        effect_x=drift_e,
        effect_y=drift_n,
    )


@dataclass(frozen=True, eq=False)
class EffectModel:
    """OLS coefficient matrix mapping the feature vector to the three targets.

    coef has shape (3, n_features); residual_rmse records the per-target
    training residual at fit time.
    """

    coef: np.ndarray
    recipe: str = RECIPE_ENU
    residual_rmse: tuple[float, ...] = field(default_factory=lambda: (0.0, 0.0, 0.0))

    def __post_init__(self):
        coef = np.asarray(self.coef, dtype=float)
        if coef.shape[0] != len(TARGET_NAMES) or not np.all(np.isfinite(coef)):
            raise ValueError(f"coefficient matrix must be finite with {len(TARGET_NAMES)} rows")
        object.__setattr__(self, "coef", coef)

    @classmethod
    def zero(cls) -> "EffectModel":
        """Model that predicts no effect for any input."""
        return cls(coef=np.zeros((len(TARGET_NAMES), len(FEATURE_NAMES))))

    def predict(self, f: ForceSample, spd_target: float, spd_t: float, h_t: float) -> EffectPrediction:
        x = np.asarray(make_features(f, spd_target, h_t))
        if self.recipe == RECIPE_ENU_INTERCEPT:
            x = np.append(x, 1.0)
        elif self.recipe != RECIPE_ENU:
            raise ValueError(f"unknown feature recipe {self.recipe!r}")
        if self.coef.shape[1] != x.size:
            raise ValueError(
                f"model expects {self.coef.shape[1]} features, recipe provides {x.size}"
            )
        drift_e, drift_n, deficit = self.coef @ x
        return _prediction_from_drift(float(drift_e), float(drift_n), float(deficit))


@dataclass(frozen=True)
class OracleEffectModel:
    """Ground-truth stand-in: reports the sampled current plus the wind-drag
    fraction of the wind as the drift, bypassing regression entirely.

    Used in tests and paired runs to separate controller error from model
    error. wind_drag_factor is the hull's VehicleParams.wind_drag_factor.
    """

    wind_drag_factor: float

    def predict(self, f: ForceSample, spd_target: float, spd_t: float, h_t: float) -> EffectPrediction:
        ce, cn = f.current_enu()
        we, wn = f.wind_enu()
        drift = drift_targets(ce + self.wind_drag_factor * we, cn + self.wind_drag_factor * wn, h_t)
        return _prediction_from_drift(*drift)


def convert_to_coordinate_vectors(effect_spd_mag: float, effect_dir: float) -> tuple[float, float]:
    """Decompose a drift magnitude and compass direction into (east, north)."""
    if effect_spd_mag < 0.0:
        raise ValueError(f"magnitude must be >= 0, got {effect_spd_mag!r}")
    ue, un = unit_enu(effect_dir)
    return effect_spd_mag * ue, effect_spd_mag * un


def _degenerate_features(x: np.ndarray, names: Sequence[str]) -> list[str]:
    """Names of columns that are linearly dependent on the others."""
    full_rank = np.linalg.matrix_rank(x)
    culprits = []
    for j, name in enumerate(names):
        reduced = np.delete(x, j, axis=1)
        if np.linalg.matrix_rank(reduced) == full_rank:
            culprits.append(name)
    return culprits or list(names)


def fit(samples: Sequence[TrainingSample], include_intercept: bool = False) -> EffectModel:
    """Ordinary-least-squares fit of the effect model.

    Requires at least 10 samples per feature and a full-rank feature
    matrix; rank deficiency raises naming the degenerate feature(s).
    """
    names = list(FEATURE_NAMES)
    x = np.array([s.features for s in samples], dtype=float)
    y = np.array([s.targets for s in samples], dtype=float)
    if include_intercept:
        x = np.hstack([x, np.ones((x.shape[0], 1))])
        names.append("intercept")
    n_features = x.shape[1] if x.ndim == 2 else 0
    if len(samples) < MIN_SAMPLES_PER_FEATURE * n_features:
        raise ValueError(
            f"need at least {MIN_SAMPLES_PER_FEATURE * n_features} samples "
            f"for {n_features} features, got {len(samples)}"
        )
    if np.linalg.matrix_rank(x) < n_features:
        culprits = _degenerate_features(x, names)
        raise ValueError(f"feature matrix is rank deficient; degenerate feature(s): {culprits}")
    coef_t, *_ = np.linalg.lstsq(x, y, rcond=None)
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
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not an effect model file")
    if payload.get("version") != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model version {payload.get('version')!r}")
    return EffectModel(
        coef=np.asarray(payload["coef"], dtype=float),
        recipe=payload["recipe"],
        residual_rmse=tuple(payload["residual_rmse"]),
    )
