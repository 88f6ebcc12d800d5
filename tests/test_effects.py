"""Effect model: OLS recovery, prediction conventions, serialization."""

import math

import numpy as np
import pytest

from asvnav.effects import (
    FEATURE_NAMES,
    EffectModel,
    ForceSample,
    OracleEffectModel,
    convert_to_coordinate_vectors,
    fit,
    load_model,
    make_features,
    save_model,
)
from asvnav.geo import wrap_signed


def _random_force(rng):
    return ForceSample(
        spd_c=rng.uniform(0, 2), dir_c=rng.uniform(0, 360),
        spd_w=rng.uniform(0, 8), dir_w=rng.uniform(0, 360),
    )


def _samples_from_linear_map(coef, n, rng, noise=0.0):
    """A training corpus of n random feature rows and their targets coef @ x."""
    rows = []
    for _ in range(n):
        force = _random_force(rng)
        spd_target = rng.uniform(0.5, 4.0)
        heading = rng.uniform(0, 360)
        x = np.asarray(make_features(force.spd_c, force.dir_c, force.spd_w, force.dir_w,
                                     spd_target, heading))
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
    pred = model.predict(ForceSample(0.0, 0.0, 0.0, 0.0), 2.0, 2.0, 0.0)
    assert pred.effect_spd == 0.0
    assert pred.effect_x == 0.0 and pred.effect_y == 0.0


def test_oracle_identity_on_current():
    oracle = OracleEffectModel(wind_drag_factor=0.0)
    pred = oracle.predict(ForceSample(0.677, 90.0, 0.0, 0.0), 2.0, 2.0, 0.0)
    assert pred.effect_x == pytest.approx(0.677, rel=1e-12)
    assert pred.effect_y == pytest.approx(0.0, abs=1e-12)
    assert pred.effect_dir == pytest.approx(90.0)


def test_oracle_downstream_negative_deficit():
    """Current aligned with heading aids progress: deficit is negative."""
    oracle = OracleEffectModel(wind_drag_factor=0.0)
    pred = oracle.predict(ForceSample(1.0, 180.0, 0.0, 0.0), 2.0, 2.0, 180.0)
    assert pred.effect_spd == pytest.approx(-1.0, rel=1e-12)


def test_oracle_upstream_positive_deficit():
    oracle = OracleEffectModel(wind_drag_factor=0.0)
    pred = oracle.predict(ForceSample(1.0, 180.0, 0.0, 0.0), 2.0, 2.0, 0.0)
    assert pred.effect_spd == pytest.approx(1.0, rel=1e-12)


def test_oracle_includes_wind_drag():
    oracle = OracleEffectModel(wind_drag_factor=0.03)
    pred = oracle.predict(ForceSample(0.0, 0.0, 10.0, 90.0), 2.0, 2.0, 0.0)
    assert pred.effect_x == pytest.approx(0.3, rel=1e-12)
    assert pred.effect_y == pytest.approx(0.0, abs=1e-12)


def test_convert_to_coordinate_vectors_examples():
    assert convert_to_coordinate_vectors(0.0, 123.0) == (0.0, 0.0)
    x, y = convert_to_coordinate_vectors(1.0, 90.0)
    assert x == pytest.approx(1.0, rel=1e-12)
    assert y == pytest.approx(0.0, abs=1e-12)
    x, y = convert_to_coordinate_vectors(2.0, 225.0)
    assert x == pytest.approx(-math.sqrt(2), rel=1e-9)
    assert y == pytest.approx(-math.sqrt(2), rel=1e-9)


def test_convert_round_trips_with_atan2_hypot():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        mag = rng.uniform(0, 5)
        direction = rng.uniform(0, 360)
        x, y = convert_to_coordinate_vectors(mag, direction)
        assert math.hypot(x, y) == pytest.approx(mag, abs=1e-9)
        if mag > 1e-9:
            recovered = math.degrees(math.atan2(x, y)) % 360
            assert abs(wrap_signed(recovered - direction)) < 1e-9


def test_predict_linearity_in_force_components():
    """For fixed speed/heading the drift outputs are linear in the forces."""
    rng = np.random.default_rng(9)
    coef = rng.uniform(-1, 1, size=(3, len(FEATURE_NAMES)))
    model = EffectModel(coef=coef)
    spd_target, spd_t, h_t = 2.0, 1.8, 40.0

    def drift(force):
        pred = model.predict(force, spd_target, spd_t, h_t)
        return np.array([pred.effect_x, pred.effect_y])

    for _ in range(50):
        f1 = _random_force(rng)
        f2 = _random_force(rng)
        alpha, beta = rng.uniform(-2, 2, size=2)
        combined_enu = (
            alpha * np.array(f1.current_enu()) + beta * np.array(f2.current_enu()),
            alpha * np.array(f1.wind_enu()) + beta * np.array(f2.wind_enu()),
        )
        (ce, cn), (we, wn) = combined_enu
        f12 = ForceSample(
            spd_c=math.hypot(ce, cn),
            dir_c=math.degrees(math.atan2(ce, cn)) % 360,
            spd_w=math.hypot(we, wn),
            dir_w=math.degrees(math.atan2(we, wn)) % 360,
        )
        lhs = drift(f12)
        rhs = alpha * drift(f1) + beta * drift(f2)
        # the speed/heading feature contribution is affine and cancels only
        # in the difference of scaled predictions; compare the force part
        base = drift(ForceSample(0.0, 0.0, 0.0, 0.0))
        np.testing.assert_allclose(lhs - base, (rhs - (alpha + beta) * base), atol=1e-9)


def test_prediction_drift_decomposition_consistent():
    rng = np.random.default_rng(10)
    coef = rng.uniform(-1, 1, size=(3, len(FEATURE_NAMES)))
    model = EffectModel(coef=coef)
    for _ in range(200):
        pred = model.predict(_random_force(rng), 2.0, 2.0, rng.uniform(0, 360))
        x, y = convert_to_coordinate_vectors(pred.drift_magnitude(), pred.effect_dir)
        assert x == pytest.approx(pred.effect_x, abs=1e-9)
        assert y == pytest.approx(pred.effect_y, abs=1e-9)


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


def test_fit_with_intercept():
    rng = np.random.default_rng(12)
    coef = rng.uniform(-1, 1, size=(3, len(FEATURE_NAMES)))
    offset = np.array([0.1, -0.2, 0.05])
    corpus = _samples_from_linear_map(coef, 300, rng)
    corpus[:, len(FEATURE_NAMES):] += offset
    model = fit(corpus, include_intercept=True)
    np.testing.assert_allclose(model.coef[:, :-1], coef, atol=1e-9)
    np.testing.assert_allclose(model.coef[:, -1], offset, atol=1e-9)
