"""Use-case adapters binding a stream to the prequential pipeline.

A use case holds only its settings; ``prepare(store)`` returns a context that
owns every fact derived from the store: the default step range
(``default_steps()``), the clustering distance (``distance``), which entities
are selected for training and prediction at step t, how a selected batch is
encoded (model features vs clustering features), what the training outcome
is, and how pending predictions get their ground truth. The pipeline only
talks to contexts.

Supermarket: steps are weeks. Training at t selects entities that started
before week t - tau and were seen in [t - tau - 1, t - 1); their journey
matrix spans [t - 1 - tau, t - 1) and the outcome is the spend over
[t - 1, t). Prediction at t shifts everything one week forward, which makes
the prediction selection at t identical to the training selection at t + 1,
so encodings and partitions are reusable across steps.

Paint factory: steps are days over invoice cases. A case is known when it
has both its creation and its receipt event. Training at t selects known
cases whose receipt fell in [t - 1, t) with the creation-to-receipt duration
as outcome; prediction at t selects cases created in [t - 1, t), so a case
created but never received is predicted and stays unresolved.
Features are prefix label frequencies plus fixed case attributes: one-hot
for averaging into proxies, mixed codes under Gower for clustering.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import BINNED, EUCLIDEAN, DistanceSpec, gower_spec
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
        check_int("n_bins", self.n_bins, 1)
        if self.distance_kind not in (EUCLIDEAN, BINNED):
            raise ValueError(f"unsupported distance kind {self.distance_kind!r}")

    def prepare(self, store: EventStore) -> "SupermarketContext":
        return SupermarketContext(store, self)


class SupermarketContext:
    name = "supermarket"
    resolve_by = RESOLVE_NEXT_STEP
    reuse_encodings = True

    def __init__(self, store: EventStore, usecase: SupermarketUseCase) -> None:
        self.store = store
        self.tau = usecase.tau
        self.model_width = journey_row_count(len(store.alphabet)) * usecase.tau
        self.distance = DistanceSpec(usecase.distance_kind, n_bins=usecase.n_bins)

    def default_steps(self) -> range:
        """Step range covering the stream: first step with a non-empty
        training window through the last full week."""
        times = self.store.times
        first = int(np.floor(times[0])) if len(times) else 0
        last = int(np.ceil(times[-1])) if len(times) else 0
        return range(first + self.tau + 1, last + 1)

    def _selection(self, start_cut: float, window_lo: float, window_hi: float) -> np.ndarray:
        store = self.store
        active = store.first_times < start_cut
        lo = int(np.searchsorted(store.times, window_lo, side="left"))
        hi = int(np.searchsorted(store.times, window_hi, side="left"))
        seen = np.zeros(store.entity_count, dtype=bool)
        seen[store.entity_codes[lo:hi]] = True
        return np.nonzero(active & seen)[0].astype(np.int64)

    def select_training(self, t: float) -> np.ndarray:
        return self._selection(t - self.tau, t - self.tau - 1, t - 1)

    def select_prediction(self, t: float) -> np.ndarray:
        return self._selection(t - self.tau + 1, t - self.tau, t)

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


@dataclass(frozen=True)
class PaintFactoryUseCase:
    """Invoice duration prediction at creation time."""

    def prepare(self, store: EventStore) -> "PaintFactoryContext":
        return PaintFactoryContext(store)


class PaintFactoryContext:
    name = "paint_factory"
    resolve_by = RESOLVE_TRAINING_MEMBERSHIP
    reuse_encodings = False

    def __init__(self, store: EventStore) -> None:
        self.store = store
        self.creation_times = label_times(store, VCI_LABEL)
        self.receipt_times = label_times(store, RIR_LABEL)
        # a case missing either event has no duration and is never trained on
        self.known = np.isfinite(self.creation_times) & np.isfinite(self.receipt_times)
        self.durations = np.subtract(self.receipt_times, self.creation_times,
                                     out=np.full(store.entity_count, np.nan), where=self.known)
        self.prefix_counts = prefix_label_counts(store, self.creation_times)
        self.model_width = one_hot_width(store)
        # mixed rows: label counts (numeric), then the case attributes (categorical)
        n_labels = len(store.alphabet)
        self.distance = gower_spec(np.arange(n_labels + len(store.entity_schema)) >= n_labels)

    def default_steps(self) -> range:
        """Creation day of the first known case through the receipt day of
        the last, so late predictions still get resolved."""
        if not self.known.any():
            return range(0, 0)
        first = int(np.floor(self.creation_times[self.known].min()))
        last = int(np.ceil(self.receipt_times[self.known].max()))
        return range(first + 1, last + 2)

    def _in_window(self, times: np.ndarray, t: float) -> np.ndarray:
        hit = (times >= t - 1) & (times < t)
        return np.nonzero(hit)[0].astype(np.int64)

    def select_training(self, t: float) -> np.ndarray:
        codes = self._in_window(self.receipt_times, t)
        return codes[self.known[codes]]

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
