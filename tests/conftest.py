"""Shared test helpers."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

import numpy as np

from proxystream.events import CATEGORICAL, EventStore
from proxystream.logio import ColumnSpec, LogSchema
from proxystream.models import ModelSpec, OnlineMLP, init_model


@dataclass(frozen=True)
class Event:
    """One hand-written event: entity id, activity label, time and attributes."""

    entity_id: Any
    activity: str
    time: float
    attributes: Mapping[str, Any] = field(default_factory=dict)


def store_from_events(events, alphabet=None, *, event_schema=(), entity_schema=(),
                      entity_attributes=None, time_origin=None) -> EventStore:
    """Build a store from a hand-written list of ``Event`` objects.

    Entity codes follow first appearance in the list, the alphabet defaults to
    the sorted labels, and attribute values are encoded by their fields.
    Checking the columns is left to the store.
    """
    alphabet = tuple(sorted({e.activity for e in events}) if alphabet is None else alphabet)
    codes = {eid: code for code, eid in enumerate(dict.fromkeys(e.entity_id for e in events))}
    return EventStore(
        [e.time for e in events], [codes[e.entity_id] for e in events],
        [alphabet.index(e.activity) for e in events], list(codes), alphabet,
        event_schema=event_schema,
        event_attrs={f.name: [f.encode(e.attributes[f.name]) for e in events]
                     for f in event_schema},
        entity_schema=entity_schema,
        entity_attrs={f.name: [f.encode(entity_attributes[eid][f.name]) for eid in codes]
                      for f in entity_schema},
        time_origin=time_origin,
    )


def per_entity_predictions(store, usecase, spec: ModelSpec, seed: int,
                           steps: Iterable[int]) -> dict:
    """The no-clustering reference: train and predict on raw entity rows.

    Draws the model's seed as ``run_stream`` does, so at rho = 1 the two must
    agree byte for byte. Maps each step with a warm model and a non-empty
    prediction batch to its (prediction codes, predictions).
    """
    ctx = usecase.prepare(store)
    model = init_model(spec, ctx.model_width, np.random.SeedSequence(seed, spawn_key=(1,)))
    out = {}
    for t in steps:
        codes = ctx.select_training(t)
        if len(codes):
            model.update(ctx.encode_batch(codes, t - 1)[0], ctx.training_outcomes(codes, t))
        pred_codes = ctx.select_prediction(t)
        if len(pred_codes) and model.n_updates:
            out[t] = pred_codes, model.predict(ctx.encode_batch(pred_codes, t)[0])
    return out


def schema_for_store(store: EventStore) -> LogSchema:
    """Schema that reads back what ``write_event_log`` produced from ``store``."""
    def specs(fields) -> tuple[ColumnSpec, ...]:
        return tuple(ColumnSpec(f.name, f.kind, f.categories if f.kind == CATEGORICAL else None)
                     for f in fields)

    return LogSchema(time_format="iso8601" if store.time_origin == "epoch_days" else "number",
                     event_attributes=specs(store.event_schema),
                     entity_attributes=specs(store.entity_schema), alphabet=store.alphabet)


def sample_loss(model: OnlineMLP, x: np.ndarray, y: float) -> float:
    """Squared-error loss 0.5 (yhat - y)^2 of one sample under the model's
    current weights, computed here from those weights: the finite-difference
    oracle for ``mlp_gradients``."""
    h = np.tanh(model.w_hidden @ np.asarray(x, dtype=float) + model.b_hidden)
    return 0.5 * (float(h @ model.w_out + model.b_out) - y) ** 2


def mlp_gradients(model: OnlineMLP, x: np.ndarray, y: float) -> dict[str, np.ndarray | float]:
    """Analytic gradients of ``sample_loss`` for one sample, keyed by weight
    name and computed here from the model's public weights: the step oracle
    for ``OnlineMLP.update``, whose per-sample step moves each weight ``w`` to
    ``w - learning_rate * gradient`` with these same float operations."""
    x = np.asarray(x, dtype=float)
    h = np.tanh(model.w_hidden @ x + model.b_hidden)
    delta = float(h @ model.w_out + model.b_out) - float(y)
    d_hidden = delta * model.w_out * (1.0 - h ** 2)
    return {"w_hidden": np.outer(d_hidden, x), "b_hidden": d_hidden,
            "w_out": delta * h, "b_out": delta}


def mlp_update_rowwise(model: OnlineMLP, x: np.ndarray, y: np.ndarray) -> None:
    """``OnlineMLP.update``'s SGD loop written with a fresh array per
    operation, on ``model``'s own weights and generator: the byte oracle for
    the update, which must do these float operations in this order."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    lr = model.learning_rate
    w_hidden, b_hidden, w_out = model.w_hidden, model.b_hidden, model.w_out
    for _ in range(model.epochs):
        for i in model._rng.permutation(len(x)):
            # every gradient is taken at the weights before this step
            row = x[i]
            h = np.tanh(w_hidden @ row + b_hidden)
            delta = float(h @ w_out + model.b_out) - float(y[i])
            d_hidden = delta * w_out * (1.0 - h ** 2)
            w_hidden -= lr * (d_hidden[:, None] * row)
            b_hidden -= lr * d_hidden
            w_out -= lr * (delta * h)
            model.b_out -= lr * delta
    model.n_updates += 1


# -- exact-kernel oracles --------------------------------------------------
# The row-wise forms of the kernels that ``encoding`` and ``clustering``
# compute with fewer passes. Each rewrite must give these bytes.

def linear_fit_rowwise(matrices: np.ndarray) -> np.ndarray:
    """Line fits of each row over the last (week) axis with numpy's own
    reductions: the byte oracle for ``linear_fit_batch``."""
    matrices = np.asarray(matrices, dtype=float)
    n_weeks = matrices.shape[2]
    x = np.arange(n_weeks, dtype=float)
    xc = x - x.mean()
    var = float(xc @ xc)
    ym = matrices.mean(axis=2)
    slope = (matrices * xc).sum(axis=2) / var
    intercept = ym - slope * x.mean()
    fitted = slope[..., None] * x + intercept[..., None]
    residual = np.sqrt(((matrices - fitted) ** 2).mean(axis=2))
    return np.concatenate([slope, intercept, residual], axis=1)


def standardize_rowwise(x: np.ndarray) -> np.ndarray:
    """Z-scores from ``mean`` and ``std``: the byte oracle for
    ``standardize_columns``."""
    x = np.asarray(x, dtype=float)
    sd = x.std(axis=0)
    return (x - x.mean(axis=0)) / np.where(sd > 0, sd, 1.0)


def euclidean_cross_direct(handler, rows, cols) -> np.ndarray:
    """Gram-expansion distances between index sets in separate passes: the
    product, then times 2.0, the broadcast norm sums, the difference, the
    clamp and the root. ``cols is rows`` gives one matmul operand, BLAS's
    symmetric path. The byte oracle for ``_EuclideanHandler.cross``."""
    a = handler.points[rows]
    b = a if cols is rows else handler.points[cols]
    d = a @ np.swapaxes(b, -1, -2)
    d *= 2.0
    sums = handler.norms[rows][..., :, None] + handler.norms[cols][..., None, :]
    d = sums - d
    np.maximum(d, 0.0, out=d)
    return np.sqrt(d)


def euclidean_assign_direct(handler, medoids, rows) -> np.ndarray:
    """Squared distances from the points at ``rows`` to the medoids, with the
    medoid rows gathered for the block and -2 applied to the product: the
    byte oracle for ``_EuclideanHandler.assigner``."""
    sq = handler.points[rows] @ handler.points[medoids].T
    sq *= -2.0
    sq += handler.norms[rows][:, None]
    sq += handler.norms[medoids][None, :]
    np.maximum(sq, 0.0, out=sq)
    return sq
