"""Prequential metrics over resolved predictions.

All four metrics are pure functions of aligned arrays for one prediction
step; :class:`MetricReport` collects per-step values and unweighted
time-averages over the steps where a metric is defined. Undefined values
(too few entities for a decile, zero turnover, nothing resolved) are None
in memory and "NA" when serialised.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

CLUSTER_RMSE = "cluster_rmse"
ENTITY_RMSE = "entity_rmse"
TOP_DECILE_F1 = "top_decile_f1"
TURNOVER_APE = "turnover_ape"
METRIC_NAMES = (CLUSTER_RMSE, ENTITY_RMSE, TOP_DECILE_F1, TURNOVER_APE)

ABSENT = "NA"


def entity_rmse(predicted: np.ndarray, truth: np.ndarray) -> float | None:
    """Root mean squared error over entities; None for empty input."""
    predicted = np.asarray(predicted, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if predicted.shape != truth.shape:
        raise ValueError("prediction/truth length mismatch")
    if predicted.size == 0:
        return None
    return float(np.sqrt(np.mean((predicted - truth) ** 2)))


def cluster_rmse(proxy_predicted: np.ndarray, cluster_truth: np.ndarray) -> float | None:
    """RMSE between proxy predictions and mean member truth, per cluster."""
    return entity_rmse(proxy_predicted, cluster_truth)


def top_decile_f1(previous: np.ndarray, current: np.ndarray, predicted: np.ndarray,
                  entity_ids: Sequence | np.ndarray | None = None) -> float | None:
    """F1 of the predicted top decile of outcome drops.

    The drop of an entity is previous minus current outcome (truth) or
    previous minus predicted outcome (prediction); both sides rank
    descending with ties broken by ascending entity id and keep the top
    floor(n/10). None when fewer than 10 entities are scored.
    """
    previous = np.asarray(previous, dtype=float)
    current = np.asarray(current, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    n = len(previous)
    if not (len(current) == len(predicted) == n):
        raise ValueError("aligned arrays required")
    if n < 10:
        return None
    if entity_ids is None:
        entity_ids = np.arange(n)
    ids = np.asarray(entity_ids)
    cut = n // 10

    true_top = _top_by_drop(previous - current, ids, cut)
    pred_top = _top_by_drop(previous - predicted, ids, cut)
    tp = len(true_top & pred_top)
    return 2.0 * tp / (len(true_top) + len(pred_top))


def _top_by_drop(drops: np.ndarray, ids: np.ndarray, cut: int) -> set:
    # descending drop, ties by ascending id; lexsort keys are minor-to-major
    order = np.lexsort((ids, -drops))
    return set(order[:cut].tolist())


def turnover_ape(predicted: np.ndarray, truth: np.ndarray) -> float | None:
    """Absolute percentage error of summed outcomes; None when the true
    total is zero (or nothing is scored)."""
    predicted = np.asarray(predicted, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if predicted.shape != truth.shape:
        raise ValueError("prediction/truth length mismatch")
    if predicted.size == 0:
        return None
    total = float(truth.sum())
    if total == 0.0:
        return None
    return float(abs(total - predicted.sum()) / abs(total) * 100.0)


@dataclass
class MetricReport:
    """Per-step metric values plus unweighted averages over defined steps."""

    steps: list[int] = field(default_factory=list)
    per_step: dict[str, list[float | None]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in METRIC_NAMES:
            self.per_step.setdefault(name, [])

    def add_step(self, step: int, values: dict[str, float | None]) -> None:
        self.steps.append(step)
        for name in METRIC_NAMES:
            self.per_step[name].append(values.get(name))

    def average(self, name: str) -> float | None:
        defined = [v for v in self.per_step[name] if v is not None]
        if not defined:
            return None
        return float(np.mean(defined))

    @property
    def averages(self) -> dict[str, float | None]:
        return {name: self.average(name) for name in METRIC_NAMES}

    def value_rows(self) -> list[tuple[int, str, float | None]]:
        """(step, metric, value) rows in step-major, declaration order."""
        rows = []
        for i, step in enumerate(self.steps):
            for name in METRIC_NAMES:
                rows.append((step, name, self.per_step[name][i]))
        return rows


def format_value(value: float | None) -> str:
    return ABSENT if value is None else repr(float(value))
