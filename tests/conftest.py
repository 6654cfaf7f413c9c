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
    oracle for ``OnlineMLP.gradients``."""
    h = np.tanh(model.w_hidden @ np.asarray(x, dtype=float) + model.b_hidden)
    return 0.5 * (float(h @ model.w_out + model.b_out) - y) ** 2
