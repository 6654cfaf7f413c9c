"""Incremental regressors trained on proxy batches.

Both models share the same update/predict surface: ``update(x, y)`` folds in
one batch, ``predict(x)`` scores rows, and predicting before any update
raises :class:`ColdStartError`. Given the same seed and the same update
sequence, a model's state and predictions are reproducible exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

RLS_LINEAR = "rls_linear"
SGD_MLP = "sgd_mlp"

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator]


class ColdStartError(RuntimeError):
    """predict() was called before the model saw a single update."""


def check_int(name: str, value, least: int) -> None:
    """Raise unless ``value`` is an integer (not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def check_finite(name: str, value, *, positive: bool) -> None:
    """Raise unless ``value`` is a finite real number (not a bool) above 0,
    or at least 0 where ``positive`` is false."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not (0 < value < np.inf if positive else 0 <= value < np.inf)):
        kind = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be a {kind} finite number, got {value!r}")


@dataclass(frozen=True)
class ModelSpec:
    """Which regressor to build and its hyperparameters. The input width is
    not part of the spec: the pipeline takes it from the use case."""

    kind: str = RLS_LINEAR
    ridge: float = 1e-6
    hidden: int = 16
    learning_rate: float = 0.01
    epochs: int = 1

    def __post_init__(self) -> None:
        if self.kind not in (RLS_LINEAR, SGD_MLP):
            raise ValueError(f"unknown model kind {self.kind!r}")
        check_finite("ridge", self.ridge, positive=True)
        check_finite("learning_rate", self.learning_rate, positive=True)
        check_int("hidden", self.hidden, 1)
        check_int("epochs", self.epochs, 1)


def init_model(spec: ModelSpec, input_width: int, seed: SeedLike = 0):
    if spec.kind == RLS_LINEAR:
        return RecursiveLeastSquares(input_width, ridge=spec.ridge)
    return OnlineMLP(input_width, hidden=spec.hidden,
                     learning_rate=spec.learning_rate, epochs=spec.epochs, seed=seed)


def _check_batch(x: np.ndarray, y: np.ndarray | None, width: int):
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != width:
        raise ValueError(f"expected rows of width {width}, got shape {x.shape}")
    if y is None:
        return x, None
    y = np.asarray(y, dtype=float).reshape(-1)
    if len(y) != len(x):
        raise ValueError(f"{len(x)} rows but {len(y)} targets")
    if len(x) == 0:
        raise ValueError("empty update batch")
    return x, y


class RecursiveLeastSquares:
    """Exact least squares maintained through accumulated normal equations.

    State is the information matrix A = ridge*I + sum x x^T and moment vector
    b = sum y x over all rows seen, with an intercept column appended last.
    Splitting the same rows into batches in any order yields the same state,
    and as ridge -> 0 the weights match the batch least-squares solution.
    """

    def __init__(self, input_width: int, ridge: float = 1e-6) -> None:
        check_int("input_width", input_width, 1)
        check_finite("ridge", ridge, positive=True)
        self.input_width = input_width
        self.ridge = ridge
        d = input_width + 1
        self._info = np.eye(d) * ridge
        self._moment = np.zeros(d)
        self._weights = np.zeros(d)
        self.n_updates = 0

    @property
    def weights(self) -> np.ndarray:
        """Current coefficient vector, intercept last."""
        return self._weights.copy()

    def _augment(self, x: np.ndarray) -> np.ndarray:
        return np.hstack([x, np.ones((len(x), 1))])

    def update(self, x: np.ndarray, y: np.ndarray) -> None:
        x, y = _check_batch(x, y, self.input_width)
        xa = self._augment(x)
        self._info += xa.T @ xa
        self._moment += xa.T @ y
        self._weights = np.linalg.solve(self._info, self._moment)
        self.n_updates += 1

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.n_updates == 0:
            raise ColdStartError("predict before first update")
        x, _ = _check_batch(x, None, self.input_width)
        return self._augment(x) @ self._weights


class OnlineMLP:
    """One hidden tanh layer, linear output, plain per-sample SGD.

    Each update makes ``epochs`` passes over the batch in a seeded shuffled
    order, stepping on squared-error loss 0.5 (yhat - y)^2 per sample.
    """

    def __init__(self, input_width: int, hidden: int = 16,
                 learning_rate: float = 0.01, epochs: int = 1,
                 seed: SeedLike = 0) -> None:
        check_int("input_width", input_width, 1)
        check_int("hidden", hidden, 1)
        check_finite("learning_rate", learning_rate, positive=True)
        check_int("epochs", epochs, 1)
        self.input_width = input_width
        self.hidden = hidden
        self.learning_rate = learning_rate
        self.epochs = epochs
        rng = np.random.default_rng(seed)
        self.w_hidden = rng.normal(0.0, 1.0 / np.sqrt(input_width), (hidden, input_width))
        self.b_hidden = np.zeros(hidden)
        self.w_out = rng.normal(0.0, 1.0 / np.sqrt(hidden), hidden)
        self.b_out = 0.0
        self._rng = rng
        self.n_updates = 0

    def _forward(self, x: np.ndarray) -> np.ndarray:
        h = np.tanh(x @ self.w_hidden.T + self.b_hidden)
        return h @ self.w_out + self.b_out

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.n_updates == 0:
            raise ColdStartError("predict before first update")
        x, _ = _check_batch(x, None, self.input_width)
        return self._forward(x)

    def update(self, x: np.ndarray, y: np.ndarray) -> None:
        x, y = _check_batch(x, y, self.input_width)
        lr = self.learning_rate
        w_hidden, b_hidden, w_out = self.w_hidden, self.b_hidden, self.w_out
        for _ in range(self.epochs):
            for i in self._rng.permutation(len(x)):
                # every gradient is taken at the weights before this step
                row = x[i]
                h = np.tanh(w_hidden @ row + b_hidden)
                delta = float(h @ w_out + self.b_out) - float(y[i])
                d_hidden = delta * w_out * (1.0 - h ** 2)
                w_hidden -= lr * (d_hidden[:, None] * row)
                b_hidden -= lr * d_hidden
                w_out -= lr * (delta * h)
                self.b_out -= lr * delta
        self.n_updates += 1
