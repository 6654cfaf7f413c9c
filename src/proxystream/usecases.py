"""Use-case adapters binding a stream to the prequential pipeline.

A use case says which entities are selected for training and prediction at
step t, how a selected batch is encoded (model features vs clustering
features), what the training outcome is, and how pending predictions get
their ground truth. ``prepare(store)`` returns a context with the per-store
precomputations; the pipeline only talks to contexts.

Supermarket: steps are weeks. Training at t selects entities that started
before week t - tau and were seen in [t - tau - 1, t - 1); their journey
matrix spans [t - 1 - tau, t - 1) and the outcome is the spend over
[t - 1, t). Prediction at t shifts everything one week forward, which makes
the prediction selection at t identical to the training selection at t + 1,
so encodings and partitions are reusable across steps.

Paint factory: steps are days over invoice cases. Training at t selects
cases whose receipt fell in [t - 1, t) with the known creation-to-receipt
duration as outcome; prediction at t selects cases created in [t - 1, t).
Features are prefix label frequencies plus fixed case attributes: one-hot
for averaging into proxies, mixed codes under Gower for clustering.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import (
    BINNED,
    EUCLIDEAN,
    DistanceSpec,
    binned_spec,
    euclidean_spec,
    gower_spec,
)
from .encoding import (
    encode_journeys,
    invoice_encoding,
    journey_row_count,
    linear_fit_batch,
    one_hot_width,
    prefix_label_counts,
    standardize_columns,
    weekly_spend,
)
from .events import EventStore
from .filtering import RIR_LABEL, VCI_LABEL, label_times
from .models import check_int

RESOLVE_NEXT_STEP = "next_step"
RESOLVE_TRAINING_MEMBERSHIP = "training_membership"


@dataclass(frozen=True)
class SupermarketUseCase:
    """Weekly spend prediction from journey matrices."""

    tau: int = 3
    distance_kind: str = EUCLIDEAN
    n_bins: int = 20

    def __post_init__(self) -> None:
        check_int("tau", self.tau, 2)  # a line needs two weeks
        if self.distance_kind not in (EUCLIDEAN, BINNED):
            raise ValueError(f"unsupported distance kind {self.distance_kind!r}")

    def prepare(self, store: EventStore) -> "SupermarketContext":
        return SupermarketContext(store, self)

    def default_steps(self, store: EventStore) -> range:
        """Step range covering the stream: first step with a non-empty
        training window through the last full week."""
        first = int(np.floor(store.times[0])) if len(store) else 0
        last = int(np.ceil(store.times[-1])) if len(store) else 0
        return range(first + self.tau + 1, last + 1)


class SupermarketContext:
    name = "supermarket"
    resolve_by = RESOLVE_NEXT_STEP
    reuse_encodings = True

    def __init__(self, store: EventStore, usecase: SupermarketUseCase) -> None:
        self.store = store
        self.usecase = usecase
        self.tau = usecase.tau
        self.model_width = journey_row_count(len(store.alphabet)) * usecase.tau

    def _selection(self, t: float, start_cut: float, window_lo: float,
                   window_hi: float) -> np.ndarray:
        store = self.store
        active = store.first_times < start_cut
        lo = int(np.searchsorted(store.times, window_lo, side="left"))
        hi = int(np.searchsorted(store.times, window_hi, side="left"))
        seen = np.zeros(store.entity_count, dtype=bool)
        seen[store.entity_codes[lo:hi]] = True
        return np.nonzero(active & seen)[0].astype(np.int64)

    def select_training(self, t: float) -> np.ndarray:
        return self._selection(t, t - self.tau, t - self.tau - 1, t - 1)

    def select_prediction(self, t: float) -> np.ndarray:
        return self._selection(t, t - self.tau + 1, t - self.tau, t)

    def encode_batch(self, codes: np.ndarray, window_end: float):
        """Model features (flattened journey matrices) and clustering
        features (z-scored per-row line coefficients) for one batch."""
        tensors = encode_journeys(self.store, codes, window_end, self.tau)
        model_x = tensors.reshape(len(codes), -1)
        cluster_x = linear_fit_batch(tensors)
        if len(codes):
            cluster_x = standardize_columns(cluster_x)
        return model_x, cluster_x

    def training_outcomes(self, codes: np.ndarray, t: float) -> np.ndarray:
        return weekly_spend(self.store, codes, t - 1, t)

    def prev_outcomes(self, codes: np.ndarray, t: float) -> np.ndarray:
        """Latest completed weekly spend, known at prediction time."""
        return weekly_spend(self.store, codes, t - 1, t)

    def resolve_outcomes(self, codes: np.ndarray, prediction_step: float) -> np.ndarray:
        return weekly_spend(self.store, codes, prediction_step, prediction_step + 1)

    def distance_template(self) -> DistanceSpec:
        if self.usecase.distance_kind == BINNED:
            return binned_spec(self.usecase.n_bins)
        return euclidean_spec()


@dataclass(frozen=True)
class PaintFactoryUseCase:
    """Invoice duration prediction at creation time."""

    def prepare(self, store: EventStore) -> "PaintFactoryContext":
        return PaintFactoryContext(store)

    def default_steps(self, store: EventStore) -> range:
        """Creation day of the first case through the receipt day of the
        last, so late predictions still get resolved."""
        if not len(store):
            return range(0, 0)
        creation = label_times(store, VCI_LABEL)
        receipt = label_times(store, RIR_LABEL)
        known = np.isfinite(creation) & np.isfinite(receipt)
        if not known.any():
            return range(0, 0)
        first = int(np.floor(creation[known].min()))
        last = int(np.ceil(receipt[known].max()))
        return range(first + 1, last + 2)


class PaintFactoryContext:
    name = "paint_factory"
    resolve_by = RESOLVE_TRAINING_MEMBERSHIP
    reuse_encodings = False

    def __init__(self, store: EventStore) -> None:
        self.store = store
        self.creation_times = label_times(store, VCI_LABEL)
        self.receipt_times = label_times(store, RIR_LABEL)
        self.durations = self.receipt_times - self.creation_times
        self.prefix_counts = prefix_label_counts(store, self.creation_times)
        self.model_width = one_hot_width(store)
        n_labels = len(store.alphabet)
        mask = np.zeros(n_labels + len(store.entity_schema), dtype=bool)
        mask[n_labels:] = True
        self._categorical_mask = mask

    def _in_window(self, times: np.ndarray, t: float) -> np.ndarray:
        hit = (times >= t - 1) & (times < t)
        return np.nonzero(hit)[0].astype(np.int64)

    def select_training(self, t: float) -> np.ndarray:
        return self._in_window(self.receipt_times, t)

    def select_prediction(self, t: float) -> np.ndarray:
        return self._in_window(self.creation_times, t)

    def encode_batch(self, codes: np.ndarray, window_end: float):
        enc = invoice_encoding(self.store, codes, prefix_counts=self.prefix_counts)
        return enc.onehot, enc.mixed

    def training_outcomes(self, codes: np.ndarray, t: float) -> np.ndarray:
        return self.durations[codes]

    def prev_outcomes(self, codes: np.ndarray, t: float) -> None:
        """Cases are one-shot; there is no previous outcome to rank drops by."""
        return None

    def resolve_outcomes(self, codes: np.ndarray, prediction_step: float) -> np.ndarray:
        return self.durations[codes]

    def distance_template(self) -> DistanceSpec:
        return gower_spec(self._categorical_mask)
