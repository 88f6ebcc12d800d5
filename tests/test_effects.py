"""Effect model: OLS recovery, prediction conventions, serialization."""

import hashlib
import itertools
import json
import math
import re

import numpy as np
import pytest

from asvnav.effects import (
    FEATURE_NAMES,
    RECIPE_ENU,
    RECIPE_ENU_INTERCEPT,
    EffectModel,
    OracleEffectModel,
    fit,
    load_model,
    make_features,
    save_model,
)
from asvnav.geo import bearing_of
from asvnav.vehicle import VehicleParams


def _random_force(rng):
    """(spd_c, dir_c, spd_w, dir_w) of a random current and wind."""
    return rng.uniform(0, 2), rng.uniform(0, 360), rng.uniform(0, 8), rng.uniform(0, 360)


def _samples_from_linear_map(coef, n, rng, noise=0.0):
    """A training corpus of n random feature rows and their targets coef @ x."""
    rows = []
    for _ in range(n):
        force = _random_force(rng)
        spd_target = rng.uniform(0.5, 4.0)
        heading = rng.uniform(0, 360)
        x = np.asarray(make_features(*force, spd_target, heading))
        y = coef @ x + noise * rng.standard_normal(3)
        rows.append((*x, *y))
    return np.array(rows)


def test_fit_recovers_known_linear_map():
    rng = np.random.default_rng(2)
    coef = rng.uniform(-1, 1, size=(3, len(FEATURE_NAMES)))
    model = fit(_samples_from_linear_map(coef, 300, rng))
    assert np.max(np.abs(model.coef - coef)) / np.max(np.abs(coef)) < 1e-6
    assert max(model.residual_rmse) < 1e-9


def test_fit_zero_disturbance_is_rank_deficient():
    """Calm-water logs carry no disturbance information: the all-zero
    current/wind columns make the fit refuse rather than silently return
    a model that never saw a disturbance."""
    rng = np.random.default_rng(3)
    corpus = []
    for _ in range(100):
        x = make_features(0.0, 0.0, 0.0, 0.0, rng.uniform(1, 3), rng.uniform(0, 360))
        corpus.append((*x, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="rank deficient"):
        fit(np.array(corpus))


def test_fit_takes_the_rank_from_its_one_least_squares_solve(monkeypatch):
    """A full-rank fit makes one SVD, lstsq's: no matrix_rank call, the
    same coefficients; a rank-deficient one still names its culprits."""
    rng = np.random.default_rng(16)
    corpus = _samples_from_linear_map(rng.uniform(-1, 1, size=(3, len(FEATURE_NAMES))), 200, rng)
    expected = fit(corpus)

    def no_rank(*args, **kwargs):
        raise AssertionError("fit called matrix_rank on a full-rank corpus")

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "matrix_rank", no_rank)
        model = fit(corpus)
    assert model.coef.tobytes() == expected.coef.tobytes()
    corpus[:, 1] = 2.0 * corpus[:, 0]  # current_north follows current_east
    with pytest.raises(ValueError, match=r"degenerate feature\(s\): \['current_east', 'current_north'\]"):
        fit(corpus)


def test_fit_zero_drift_targets_give_zero_drift_coefficients():
    """Full-rank disturbance features with identically zero targets."""
    rng = np.random.default_rng(4)
    model = fit(_samples_from_linear_map(np.zeros((3, len(FEATURE_NAMES))), 200, rng))
    assert np.max(np.abs(model.coef)) < 1e-9
    assert max(model.residual_rmse) < 1e-12


def test_fit_requires_enough_samples():
    rng = np.random.default_rng(5)
    coef = np.zeros((3, len(FEATURE_NAMES)))
    with pytest.raises(ValueError, match="at least"):
        fit(_samples_from_linear_map(coef, 30, rng))


def test_fit_rejects_malformed_corpus():
    """A corpus is an (n, 10) array of finite values; an empty one is too
    small to fit."""
    rng = np.random.default_rng(13)
    corpus = _samples_from_linear_map(np.zeros((3, len(FEATURE_NAMES))), 100, rng)
    with pytest.raises(ValueError, match="expected 3 targets, got 2"):
        fit(corpus[:, :-1])
    with pytest.raises(ValueError, match="expected 7 features, got 5"):
        fit(corpus[:, :5])
    with pytest.raises(ValueError, match="one row per sample"):
        fit(corpus[0])
    for bad in (np.nan, np.inf, -np.inf):
        broken = corpus.copy()
        broken[40, 8] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fit(broken)
    for empty in ([], np.empty((0, 10))):
        with pytest.raises(ValueError, match="at least 70 samples for 7 features, got 0"):
            fit(empty)


def test_fit_names_degenerate_feature():
    rng = np.random.default_rng(6)
    corpus = []
    for _ in range(200):
        # no wind
        x = make_features(rng.uniform(0, 2), rng.uniform(0, 360), 0.0, 0.0, rng.uniform(1, 3),
                          rng.uniform(0, 360))
        corpus.append((*x, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="wind_east"):
        fit(np.array(corpus))


def test_predict_zero_disturbance_zero_effect():
    model = EffectModel.zero()
    effect_x, effect_y, effect_spd = model.predict(0.0, 0.0, 0.0, 0.0, 2.0, 0.0)
    assert effect_spd == 0.0
    assert effect_x == 0.0 and effect_y == 0.0


def test_oracle_identity_on_current():
    oracle = OracleEffectModel(wind_drag_factor=0.0)
    effect_x, effect_y, _ = oracle.predict(0.677, 90.0, 0.0, 0.0, 2.0, 0.0)
    assert effect_x == pytest.approx(0.677, rel=1e-12)
    assert effect_y == pytest.approx(0.0, abs=1e-12)
    assert bearing_of(effect_x, effect_y) == pytest.approx(90.0)


def test_oracle_downstream_negative_deficit():
    """Current aligned with heading aids progress: deficit is negative."""
    oracle = OracleEffectModel(wind_drag_factor=0.0)
    *_, effect_spd = oracle.predict(1.0, 180.0, 0.0, 0.0, 2.0, 180.0)
    assert effect_spd == pytest.approx(-1.0, rel=1e-12)


def test_oracle_upstream_positive_deficit():
    oracle = OracleEffectModel(wind_drag_factor=0.0)
    *_, effect_spd = oracle.predict(1.0, 180.0, 0.0, 0.0, 2.0, 0.0)
    assert effect_spd == pytest.approx(1.0, rel=1e-12)


def test_oracle_includes_wind_drag():
    oracle = OracleEffectModel(wind_drag_factor=0.03)
    effect_x, effect_y, _ = oracle.predict(0.0, 0.0, 10.0, 90.0, 2.0, 0.0)
    assert effect_x == pytest.approx(0.3, rel=1e-12)
    assert effect_y == pytest.approx(0.0, abs=1e-12)


def test_predict_linearity_in_force_components():
    """For fixed speed/heading the drift outputs are linear in the forces."""
    rng = np.random.default_rng(9)
    coef = rng.uniform(-1, 1, size=(3, len(FEATURE_NAMES)))
    model = EffectModel(coef=coef)
    spd_target, h_t = 2.0, 40.0

    def drift(force):
        effect_x, effect_y, _ = model.predict(*force, spd_target, h_t)
        return np.array([effect_x, effect_y])

    def force_enu(force):
        """(current, wind) east/north components of a force."""
        ce, cn, we, wn, *_ = make_features(*force, spd_target, h_t)
        return np.array([ce, cn]), np.array([we, wn])

    for _ in range(50):
        f1 = _random_force(rng)
        f2 = _random_force(rng)
        alpha, beta = rng.uniform(-2, 2, size=2)
        (c1, w1), (c2, w2) = force_enu(f1), force_enu(f2)
        (ce, cn), (we, wn) = alpha * c1 + beta * c2, alpha * w1 + beta * w2
        f12 = (
            math.hypot(ce, cn),
            math.degrees(math.atan2(ce, cn)) % 360,
            math.hypot(we, wn),
            math.degrees(math.atan2(we, wn)) % 360,
        )
        lhs = drift(f12)
        rhs = alpha * drift(f1) + beta * drift(f2)
        # the speed/heading feature contribution is affine and cancels only
        # in the difference of scaled predictions; compare the force part
        base = drift((0.0, 0.0, 0.0, 0.0))
        np.testing.assert_allclose(lhs - base, (rhs - (alpha + beta) * base), atol=1e-9)


def test_model_round_trips_through_json(tmp_path):
    rng = np.random.default_rng(11)
    coef = rng.uniform(-1, 1, size=(3, len(FEATURE_NAMES)))
    model = fit(_samples_from_linear_map(coef, 200, rng))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    np.testing.assert_array_equal(loaded.coef, model.coef)
    assert loaded.recipe == model.recipe
    assert loaded.residual_rmse == model.residual_rmse


def test_load_model_rejects_other_files(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"something": "else"}')
    with pytest.raises(ValueError, match="not an effect model"):
        load_model(path)


def _recipe_case(recipe, width, message):
    """A case that writes recipe and a zero coefficient matrix width columns wide."""
    return pytest.param({"recipe": recipe, "coef": np.zeros((3, width)).tolist()}, message,
                        id=f"{recipe}-{width}-{message}")


DELETE = object()


def _field_case(key, value, message):
    """A case that sets key to value, or deletes it when value is DELETE."""
    return pytest.param({key: value}, message,
                        id=f"no-{key}" if value is DELETE else f"{key}={value!r}")


@pytest.mark.parametrize("edits, message", [
    _recipe_case("polar_v0", len(FEATURE_NAMES), "unknown feature recipe 'polar_v0'"),
    _recipe_case(RECIPE_ENU_INTERCEPT, len(FEATURE_NAMES),
                 "recipe .* takes 8 features, .* has 7 columns"),
    _recipe_case(RECIPE_ENU, len(FEATURE_NAMES) + 1, "recipe .* takes 7 features, .* has 8 columns"),
    _field_case("coef", DELETE, "model file has no coef$"),
    _field_case("recipe", DELETE, "model file has no recipe$"),
    _field_case("residual_rmse", DELETE, "model file has no residual_rmse$"),
    _field_case("residual_rmse", "abc", "residual_rmse must be 3 finite numbers >= 0, got 'abc'"),
    _field_case("residual_rmse", 0.5, "residual_rmse must be 3 finite"),
    _field_case("residual_rmse", [0.1, 0.2], "residual_rmse must be 3 finite"),
    _field_case("residual_rmse", [0.1, 0.2, 0.3, 0.4], "residual_rmse must be 3 finite"),
    _field_case("residual_rmse", ["0.1", "0.2", "0.3"], "residual_rmse must be 3 finite"),
    _field_case("residual_rmse", [0.1, -0.2, 0.3], "residual_rmse must be 3 finite"),
    _field_case("residual_rmse", [0.1, math.nan, 0.3], "residual_rmse must be 3 finite"),
    _field_case("residual_rmse", [0.1, 0.2, math.inf], "residual_rmse must be 3 finite"),
])
def test_load_model_rejects_recipe_it_cannot_predict_with(tmp_path, edits, message):
    """A model file without coef, recipe or residual_rmse, with a recipe
    that is unknown or does not match the coefficient width, or whose
    residual_rmse is not three finite numbers >= 0 fails on load naming
    the file, not at the first feed-forward update of a run."""
    path = tmp_path / "model.json"
    save_model(EffectModel.zero(), path)
    payload = json.loads(path.read_text())
    for key, value in edits.items():
        if value is DELETE:
            del payload[key]
        else:
            payload[key] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
        load_model(path)


def test_fit_with_intercept():
    rng = np.random.default_rng(12)
    coef = rng.uniform(-1, 1, size=(3, len(FEATURE_NAMES)))
    offset = np.array([0.1, -0.2, 0.05])
    corpus = _samples_from_linear_map(coef, 300, rng)
    corpus[:, len(FEATURE_NAMES):] += offset
    model = fit(corpus, include_intercept=True)
    np.testing.assert_allclose(model.coef[:, :-1], coef, atol=1e-9)
    np.testing.assert_allclose(model.coef[:, -1], offset, atol=1e-9)


def _predict_inputs():
    """Seeded predict inputs (spd_c, dir_c, spd_w, dir_w, spd_target, h_t),
    the forces as relative_to_absolute returns them: zero speeds, zero
    directions and directions just below 360 on a grid, then random rows."""
    rng = np.random.default_rng(14)
    below_360 = math.nextafter(360.0, 0.0)
    current_speeds = (0.0, 0.677, float(rng.uniform(0, 2)))
    wind_speeds = (0.0, 5.0, float(rng.uniform(0, 8)))
    directions = (0.0, 90.0, 359.9, below_360, float(rng.uniform(0, 360)))
    headings = (0.0, 180.0, below_360, float(rng.uniform(0, 360)))
    grid = list(itertools.product(current_speeds, directions, wind_speeds, directions,
                                  (0.5, 2.0), headings))
    for _ in range(200):
        grid.append(tuple(float(v) for v in (rng.uniform(0, 2), rng.uniform(0, 360),
                                            rng.uniform(0, 8), rng.uniform(0, 360),
                                            rng.uniform(0.5, 4.0), rng.uniform(0, 360))))
    return grid


def _predict_models():
    rng = np.random.default_rng(15)
    n = len(FEATURE_NAMES)
    return {
        "oracle": OracleEffectModel(wind_drag_factor=VehicleParams().wind_drag_factor),
        "enu": EffectModel(coef=rng.uniform(-1, 1, size=(3, n))),
        "enu+intercept": EffectModel(coef=rng.uniform(-1, 1, size=(3, n + 1)),
                                     recipe=RECIPE_ENU_INTERCEPT),
    }


# sha256 of the (effect_x, effect_y, effect_spd) float64 rows each model
# predicts over _predict_inputs().
PREDICT_SHA256 = {
    "oracle": "5df8f08c4f7686dbe535acc96b45e95f18549740ae45c16e5d0678dd9cc006a1",
    "enu": "414fb9935916e2aaf0cca6789091cddd1275f6b17d9eaaf5c75603248d2b2771",
    "enu+intercept": "150c470b0ecf2f85c0907abd93a2e194ba84fc7fb1991bd6b29f053f6131e411",
}


@pytest.mark.parametrize("name", sorted(PREDICT_SHA256))
def test_predict_outputs_pinned(name):
    """Every model's drift east, drift north and deficit, bit for bit."""
    model = _predict_models()[name]
    rows = []
    for spd_c, dir_c, spd_w, dir_w, spd_target, h_t in _predict_inputs():
        rows.append(model.predict(spd_c, dir_c, spd_w, dir_w, spd_target, h_t))
    digest = hashlib.sha256(np.array(rows, dtype=np.float64).tobytes()).hexdigest()
    assert digest == PREDICT_SHA256[name]
