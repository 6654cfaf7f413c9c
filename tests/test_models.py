"""Incremental regressors: recursive least squares and the online MLP."""
from __future__ import annotations

import copy

import numpy as np
import pytest
from conftest import mlp_gradients, mlp_update_rowwise, sample_loss
from hypothesis import given, settings
from hypothesis import strategies as st

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
        grads = mlp_gradients(model, x[i], y[i])
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


def test_mlp_update_steps_by_the_oracle_gradients():
    # update takes one SGD step per sample, in the order the model's seeded
    # generator draws, each with gradients taken at the weights before it
    rng = np.random.default_rng(21)
    names = ("w_hidden", "b_hidden", "w_out", "b_out")
    for width in (3, 7):
        for epochs in (1, 2):
            model = OnlineMLP(width, hidden=5, learning_rate=0.05, epochs=epochs, seed=width)
            oracle = copy.deepcopy(model)
            for n in (40, 9):
                x = rng.normal(size=(n, width))
                y = rng.normal(size=n)
                model.update(x, y)
                for _ in range(epochs):
                    for i in oracle._rng.permutation(n):
                        grads = mlp_gradients(oracle, x[i], y[i])
                        for name in names:
                            setattr(oracle, name, getattr(oracle, name)
                                    - oracle.learning_rate * grads[name])
                for name in names:
                    assert (np.asarray(getattr(model, name)).tobytes()
                            == np.asarray(getattr(oracle, name)).tobytes()), (width, epochs, name)


@st.composite
def _mlp_cases(draw):
    """A model and two update batches. Entries are signed powers of ten
    between two drawn exponents in [-6, 6], with some set to 0.0 and some to
    -0.0; the batches come from a drawn numpy seed so that 300 x 50 rows stay
    cheap to draw."""
    width, hidden = draw(st.integers(1, 50)), draw(st.integers(1, 32))
    epochs, n = draw(st.integers(1, 3)), draw(st.integers(1, 300))
    lr = draw(st.floats(1e-4, 0.5))
    lo, hi = sorted(draw(st.tuples(st.floats(-6, 6), st.floats(-6, 6))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(shape):
        v = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(lo, hi, shape)
        kind = rng.integers(0, 8, shape)
        v[kind == 0] = 0.0
        v[kind == 1] = -0.0
        return v
    model = OnlineMLP(width, hidden=hidden, learning_rate=lr, epochs=epochs,
                      seed=draw(st.integers(0, 2**16)))
    x, y = values((n, width)), values(n)
    m = draw(st.integers(1, n))
    return model, [(x, y), (x[:m], y[:m])]


@settings(max_examples=150, deadline=None)
@given(case=_mlp_cases())
def test_mlp_update_has_the_bytes_of_the_rowwise_loop(case):
    model, batches = case
    oracle = copy.deepcopy(model)
    # large rows saturate tanh and may overflow; both sides must do so alike
    with np.errstate(all="ignore"):
        for x, y in batches:
            model.update(x, y)
            mlp_update_rowwise(oracle, x, y)
            for name in ("w_hidden", "b_hidden", "w_out"):
                assert getattr(model, name).tobytes() == getattr(oracle, name).tobytes(), name
            assert np.float64(model.b_out).tobytes() == np.float64(oracle.b_out).tobytes()
            assert model._rng.bit_generator.state == oracle._rng.bit_generator.state
            assert model.n_updates == oracle.n_updates


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
    # inputs are batches only: a row of the wrong width or a bare row is refused
    with pytest.raises(ValueError, match="expected rows of width 2"):
        model.update(np.zeros((1, 5)), [0.0])
    with pytest.raises(ValueError, match="expected rows of width 2"):
        model.update(np.array([1.0, 2.0]), [0.0])
    assert model.n_updates == 0


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
