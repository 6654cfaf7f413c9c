"""Incremental regressors: recursive least squares and the online MLP."""
from __future__ import annotations

import numpy as np
import pytest
from conftest import sample_loss

from proxystream.models import (
    ColdStartError,
    ModelSpec,
    OnlineMLP,
    RecursiveLeastSquares,
    init_model,
)


# -- recursive least squares ----------------------------------------------

def test_rls_recovers_a_noiseless_line():
    model = RecursiveLeastSquares(1, ridge=1e-8)
    x = np.arange(6.0)[:, None]
    model.update(x, 2.0 * x[:, 0] + 1.0)
    assert model.weights == pytest.approx([2.0, 1.0], abs=1e-6)
    assert model.predict(np.array([[3.0]]))[0] == pytest.approx(7.0, abs=1e-6)


def test_rls_batch_split_merge_invariance():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 3))
    y = rng.normal(size=40)

    whole = RecursiveLeastSquares(3, ridge=1e-6)
    whole.update(x, y)

    split = RecursiveLeastSquares(3, ridge=1e-6)
    split.update(x[:13], y[:13])
    split.update(x[13:22], y[13:22])
    split.update(x[22:], y[22:])

    assert np.allclose(split.weights, whole.weights, atol=1e-9)

    # order of the batches does not matter either
    reordered = RecursiveLeastSquares(3, ridge=1e-6)
    reordered.update(x[22:], y[22:])
    reordered.update(x[:13], y[:13])
    reordered.update(x[13:22], y[13:22])
    assert np.allclose(reordered.weights, whole.weights, atol=1e-9)


def test_rls_matches_batch_least_squares_as_ridge_vanishes():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(30, 4))
    y = x @ np.array([1.0, -2.0, 0.5, 3.0]) + 0.7 + 0.1 * rng.normal(size=30)
    model = RecursiveLeastSquares(4, ridge=1e-10)
    model.update(x, y)
    xa = np.hstack([x, np.ones((30, 1))])
    ols, *_ = np.linalg.lstsq(xa, y, rcond=None)
    assert np.allclose(model.weights, ols, atol=1e-6)


def test_rls_cold_start_and_validation():
    model = RecursiveLeastSquares(2)
    with pytest.raises(ColdStartError):
        model.predict(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        model.update(np.zeros((3, 5)), np.zeros(3))
    with pytest.raises(ValueError):
        model.update(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        model.update(np.zeros((0, 2)), np.zeros(0))
    for width in (0, True, 2.5):
        with pytest.raises(ValueError):
            RecursiveLeastSquares(width)
    for ridge in (float("nan"), -1.0, 0.0, float("inf")):
        with pytest.raises(ValueError):
            RecursiveLeastSquares(2, ridge=ridge)


def test_rls_rejects_a_bare_row():
    # inputs are batches only: one row is a (1, width) array
    model = RecursiveLeastSquares(2, ridge=1e-8)
    with pytest.raises(ValueError, match=r"expected rows of width 2, got shape \(2,\)"):
        model.update(np.array([1.0, 2.0]), np.array([5.0]))
    for i in range(5):
        xi = np.array([[float(i), float(i * i)]])
        model.update(xi, xi @ np.array([1.0, 2.0]) + 3.0)
    with pytest.raises(ValueError, match="expected rows of width 2"):
        model.predict(np.array([1.0, 2.0]))
    assert model.n_updates == 5
    assert model.n_rows == 5
    assert model.weights == pytest.approx([1.0, 2.0, 3.0], abs=1e-5)


# -- online MLP ------------------------------------------------------------

def _grad_fixture():
    rng = np.random.default_rng(13)
    model = OnlineMLP(3, hidden=4, learning_rate=0.01, seed=1)
    x = rng.normal(size=(5, 3))
    y = rng.normal(size=5)
    return model, x, y


def test_mlp_gradients_match_finite_differences():
    model, x, y = _grad_fixture()
    eps = 1e-6
    for i in range(5):
        grads = model.gradients(x[i], y[i])
        for name in ("w_hidden", "b_hidden", "w_out"):
            param = getattr(model, name)
            flat = param.reshape(-1)
            analytic = np.asarray(grads[name]).reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + eps
                up = sample_loss(model, x[i], y[i])
                flat[j] = orig - eps
                down = sample_loss(model, x[i], y[i])
                flat[j] = orig
                numeric = (up - down) / (2 * eps)
                scale = max(abs(numeric), abs(analytic[j]), 1e-8)
                assert abs(numeric - analytic[j]) / scale < 1e-4
        # scalar output bias
        grads_b = grads["b_out"]
        model.b_out += eps
        up = sample_loss(model, x[i], y[i])
        model.b_out -= 2 * eps
        down = sample_loss(model, x[i], y[i])
        model.b_out += eps
        numeric = (up - down) / (2 * eps)
        assert abs(numeric - grads_b) / max(abs(numeric), 1e-8) < 1e-4


def test_mlp_learns_a_simple_function():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, size=(200, 2))
    y = x[:, 0] - 0.5 * x[:, 1]
    model = OnlineMLP(2, hidden=8, learning_rate=0.05, epochs=20, seed=0)
    model.update(x, y)
    rmse = np.sqrt(np.mean((model.predict(x) - y) ** 2))
    assert rmse < 0.1


def test_mlp_determinism_by_seed():
    x = np.random.default_rng(9).normal(size=(20, 3))
    y = x.sum(axis=1)
    a = OnlineMLP(3, hidden=5, learning_rate=0.02, seed=4)
    b = OnlineMLP(3, hidden=5, learning_rate=0.02, seed=4)
    a.update(x, y)
    b.update(x, y)
    assert np.array_equal(a.predict(x), b.predict(x))
    c = OnlineMLP(3, hidden=5, learning_rate=0.02, seed=5)
    c.update(x, y)
    assert not np.array_equal(a.predict(x), c.predict(x))


def test_mlp_predict_is_pure():
    x = np.random.default_rng(11).normal(size=(10, 2))
    y = x[:, 0]
    a = OnlineMLP(2, hidden=4, learning_rate=0.05, seed=2)
    b = OnlineMLP(2, hidden=4, learning_rate=0.05, seed=2)
    a.update(x[:5], y[:5])
    b.update(x[:5], y[:5])
    # interleave predictions on one model only; both must end up identical
    for _ in range(7):
        a.predict(x)
    a.update(x[5:], y[5:])
    b.update(x[5:], y[5:])
    assert np.array_equal(a.predict(x), b.predict(x))


def test_mlp_cold_start_and_validation():
    model = OnlineMLP(2)
    with pytest.raises(ColdStartError):
        model.predict(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        OnlineMLP(2, hidden=0)
    with pytest.raises(ValueError):
        OnlineMLP(2, learning_rate=0.0)
    with pytest.raises(ValueError):
        OnlineMLP(2, epochs=0)
    with pytest.raises(ValueError):
        OnlineMLP(0)
    with pytest.raises(ValueError):
        OnlineMLP(3, hidden=2.5)
    with pytest.raises(ValueError):
        OnlineMLP(3, learning_rate=float("nan"))
    with pytest.raises(ValueError):
        model.gradients(np.zeros(5), 0.0)


# -- model spec ------------------------------------------------------------

def test_model_spec_builds_both_kinds():
    rls = init_model(ModelSpec(kind="rls_linear", ridge=1e-8), 3)
    assert isinstance(rls, RecursiveLeastSquares)
    assert rls.input_width == 3
    assert rls.ridge == 1e-8
    mlp = init_model(ModelSpec(kind="sgd_mlp", hidden=7,
                               learning_rate=0.2, epochs=2), 3, seed=5)
    assert isinstance(mlp, OnlineMLP)
    assert mlp.input_width == 3
    assert mlp.hidden == 7
    assert mlp.learning_rate == 0.2
    assert mlp.epochs == 2


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(kind="forest")
    with pytest.raises(ValueError):
        ModelSpec(ridge=0.0)
    with pytest.raises(ValueError):
        ModelSpec(kind="sgd_mlp", hidden=0)
    with pytest.raises(ValueError):
        ModelSpec(kind="sgd_mlp", learning_rate=-1.0)
    with pytest.raises(ValueError):
        ModelSpec(kind="sgd_mlp", epochs=0)
    with pytest.raises(ValueError):
        ModelSpec(ridge=float("nan"))
    with pytest.raises(ValueError):
        init_model(ModelSpec(), 0)
