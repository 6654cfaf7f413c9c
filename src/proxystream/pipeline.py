"""The prequential loop: select, encode, cluster, average, train, predict.

Each step trains the shared incremental model on the step's proxy entities
(cluster averages of the training batch), then predicts on the prediction
batch's proxies and assigns every member its proxy's prediction. Predictions
are held in a ledger until their ground truth arrives (next step for weekly
streams, the case's training step for invoice streams) and scored at the end.
``ledger.records`` is the ledger's one view: a structured array with a row per
prediction, keyed by entity code (the id is ``store.entity_ids[code]``).

Determinism: every random draw comes from a purpose-tagged
``SeedSequence(seed, spawn_key=...)``, so clustering draws cannot perturb
model draws, and runs with identical inputs are identical. At rho = 1 each
entity is its own cluster, numbered in batch order with no RNG draw, for
every distance kind and both partitioners, so every proxy is its entity's
row in the entity's place and the loop is the per-entity path.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .clustering import Partition, cluster_count, k_medoids, proxy_matrices, random_partition
from .metrics import (
    CLUSTER_RMSE,
    ENTITY_RMSE,
    TOP_DECILE_F1,
    TURNOVER_APE,
    MetricReport,
    cluster_rmse,
    entity_rmse,
    top_decile_f1,
    turnover_ape,
)
from .models import ModelSpec, check_int, init_model
from .usecases import RESOLVE_NEXT_STEP

logger = logging.getLogger(__name__)

KMEDOIDS = "kmedoids"
RANDOM = "random"
ALL_TOKEN = "all"

# spawn_key purpose tags
_MODEL_KEY = 1
_CLUSTER_KEY = 2
_PHASE_TRAIN = 0
_PHASE_PREDICT = 1


@dataclass
class StepResult:
    """One ``steps.csv`` row: batch sizes, cluster counts and phase flags,
    as fields in column order. Each prediction is a row of the ledger."""

    step: int
    n_train: int = 0
    k_train: int = 0
    n_pred: int = 0
    k_pred: int = 0
    trained: bool = False
    predicted: bool = False
    reused_encoding: bool = False


_ROW = np.dtype([("step", np.int64), ("code", np.int64), ("cluster", np.int64),
                 ("size", np.int64), ("predicted", float), ("previous", float),
                 ("truth", float), ("has_previous", bool), ("resolved", bool)])


class EvaluationLedger:
    """Pending and resolved predictions, one row each of a structured array.

    Each ``add_predictions`` call appends a block of rows; ``_open`` holds
    the rows still waiting for a truth, in the order they were added. Both
    resolve methods pick their rows from ``_open`` and hand ``truth_fn`` the
    picked rows' codes in that row order. A row's ``truth`` reads 0.0 until
    ``resolved`` is set, and its ``previous`` reads 0.0 unless
    ``has_previous`` is set.
    """

    def __init__(self) -> None:
        self._rows = np.zeros(0, dtype=_ROW)
        self._n = 0
        self._open = np.zeros(0, dtype=np.int64)

    @property
    def records(self) -> np.ndarray:
        """The filled rows: a view of the row buffer, with the fields of ``_ROW``."""
        return self._rows[:self._n]

    def add_predictions(self, step: int, codes: np.ndarray,
                        clusters: np.ndarray, sizes: np.ndarray,
                        predicted: np.ndarray, previous: np.ndarray | None) -> None:
        start, self._n = self._n, self._n + len(codes)
        if self._n > len(self._rows):  # grow by doubling
            grown = np.zeros(max(self._n, 2 * start), dtype=_ROW)
            grown[:start] = self._rows[:start]
            self._rows = grown
        block = self._rows[start:self._n]
        block["step"], block["code"], block["cluster"] = step, codes, clusters
        block["size"], block["predicted"] = sizes, predicted
        if previous is not None:
            block["previous"], block["has_previous"] = previous, True
        self._open = np.concatenate([self._open, np.arange(start, self._n)])

    def _close(self, hit: np.ndarray, truth_fn: Callable[[np.ndarray], np.ndarray]) -> int:
        """Resolve the open rows where ``hit`` is true, handing ``truth_fn``
        their codes in row order; a bad truth shape raises before any state
        changes."""
        rows = self._open[hit]
        if len(rows):
            truth = np.asarray(truth_fn(self._rows["code"][rows]), dtype=float)
            if truth.shape != rows.shape:
                raise ValueError(f"truth_fn gave shape {truth.shape} for {len(rows)} rows")
            self._rows["truth"][rows] = truth
            self._rows["resolved"][rows] = True
            self._open = self._open[~hit]
        return len(rows)

    def resolve_step(self, step: int,
                     truth_fn: Callable[[np.ndarray], np.ndarray]) -> int:
        """Resolve all pending predictions made at ``step``."""
        return self._close(self._rows["step"][self._open] == step, truth_fn)

    def resolve_entities(self, codes: np.ndarray,
                         truth_fn: Callable[[np.ndarray], np.ndarray]) -> int:
        """Resolve pending predictions for the given entity codes."""
        return self._close(np.isin(self._rows["code"][self._open], codes), truth_fn)

    @property
    def unresolved(self) -> int:
        return len(self._open)


@dataclass
class RunResult:
    steps: list[StepResult]
    ledger: EvaluationLedger
    metrics: MetricReport
    config: dict


def check_rho(rho) -> None:
    """Raise unless ``rho`` is a positive integer (not a bool) or "all"."""
    if rho != ALL_TOKEN and (isinstance(rho, bool) or not isinstance(rho, (int, np.integer))
                             or rho < 1):
        raise ValueError(f"rho must be a positive integer or {ALL_TOKEN!r}, got {rho!r}")


def run_stream(store, usecase, rho: int | str, *,
               model: ModelSpec | None = None,
               seed: int = 0,
               steps: Iterable[int] | None = None,
               partitioner: str = KMEDOIDS,
               max_iter: int = 100) -> RunResult:
    """Run the prequential pipeline over ``steps``.

    ``rho`` is the target entities-per-cluster ratio; each batch of n
    entities is split into ceil(n / rho) clusters. The token "all" puts the
    whole batch into one cluster.
    """
    check_rho(rho)
    check_int("max_iter", max_iter, 1)
    if partitioner not in (KMEDOIDS, RANDOM):
        raise ValueError(f"unknown partitioner {partitioner!r}")

    ctx = usecase.prepare(store)
    if steps is None:
        steps = ctx.default_steps()
    steps = list(steps)
    for t in steps:
        check_int("steps", t, 0)
    step_list = [int(t) for t in steps]
    if sorted(set(step_list)) != step_list:
        raise ValueError("steps must be strictly increasing")

    spec = model or ModelSpec()
    regressor = init_model(spec, ctx.model_width,
                           np.random.SeedSequence(seed, spawn_key=(_MODEL_KEY,)))

    def partition_batch(cluster_x: np.ndarray, phase: int, t: int) -> Partition:
        k = 1 if rho == ALL_TOKEN else cluster_count(len(cluster_x), int(rho))
        cluster_seed = np.random.SeedSequence(seed, spawn_key=(_CLUSTER_KEY, phase, t))
        if partitioner == RANDOM:
            return random_partition(len(cluster_x), k, cluster_seed)
        return k_medoids(cluster_x, k, ctx.distance, seed=cluster_seed, max_iter=max_iter)

    ledger = EvaluationLedger()
    results: list[StepResult] = []
    # prediction-phase artifacts of step t - 1, reused to train at step t
    cache: dict[int, tuple] = {}

    for t in step_list:
        res = StepResult(step=t)

        # -- training phase
        if t - 1 in cache:
            codes, model_x, part = cache[t - 1]
            res.reused_encoding = True
        else:
            codes = ctx.select_training(t)
            if len(codes):
                model_x, cluster_x = ctx.encode_batch(codes, t - 1)
                part = partition_batch(cluster_x, _PHASE_TRAIN, t)
        res.n_train = len(codes)
        if len(codes):
            res.k_train = part.k
            px, py, _ = proxy_matrices(part, model_x, ctx.training_outcomes(codes, t))
            regressor.update(px, py)
            res.trained = True

        # -- prediction phase
        pred_codes = ctx.select_prediction(t)
        res.n_pred = len(pred_codes)
        pmodel_x = ppart = None
        if len(pred_codes):
            pmodel_x, pcluster_x = ctx.encode_batch(pred_codes, t)
            ppart = partition_batch(pcluster_x, _PHASE_PREDICT, t)
            res.k_pred = ppart.k

            if regressor.n_updates == 0:
                logger.info("step %s: prediction skipped, model is cold", t)
            else:
                # proxy row j is cluster j
                px, _, sizes = proxy_matrices(ppart, pmodel_x)
                cluster = ppart.assignment
                res.predicted = True
                ledger.add_predictions(
                    t, pred_codes, cluster, sizes[cluster],
                    regressor.predict(px)[cluster], ctx.prev_outcomes(pred_codes, t),
                )

        # -- resolution, after the step's predictions are ledgered so a
        # truth arriving the same step (receipt on the creation day) lands
        if ctx.resolve_by == RESOLVE_NEXT_STEP:
            ledger.resolve_step(t - 1, lambda c: ctx.resolve_outcomes(c, t - 1))
        elif len(codes):
            ledger.resolve_entities(codes, lambda c: ctx.resolve_outcomes(c, t))

        if ctx.reuse_encodings:
            cache = {t: (pred_codes, pmodel_x, ppart)}
        results.append(res)

    report = compute_metrics(ledger)
    config = dict(use_case=ctx.name, rho=rho, seed=seed, partitioner=partitioner,
                  model=spec, steps=step_list, n_entities=store.entity_count,
                  unresolved=ledger.unresolved)
    logger.info("run complete: %d steps, %d predictions (%d unresolved)",
                len(step_list), len(ledger.records), ledger.unresolved)
    return RunResult(steps=results, ledger=ledger, metrics=report, config=config)


def compute_metrics(ledger: EvaluationLedger) -> MetricReport:
    """Score the resolved rows of ``ledger.records``, grouped by prediction step.

    A stable sort by cluster keeps each cluster's members in ledger order:
    the proxy prediction is the first member's, and the mean truth sums the
    members in the order the row-by-row ``np.mean`` did.
    """
    cols = ledger.records
    by_step = np.argsort(cols["step"], kind="stable")
    steps, starts = np.unique(cols["step"][by_step], return_index=True)
    report = MetricReport()
    for step, rows in zip(steps.tolist(), np.split(by_step, starts[1:])):
        rows = rows[cols["resolved"][rows]]
        values = {}
        if len(rows):
            pred, truth = cols["predicted"][rows], cols["truth"][rows]
            by_cluster = np.argsort(cols["cluster"][rows], kind="stable")
            _, first = np.unique(cols["cluster"][rows][by_cluster], return_index=True)
            values[CLUSTER_RMSE] = cluster_rmse(pred[by_cluster][first],
                                                _run_means(truth[by_cluster], first))
            values[ENTITY_RMSE] = entity_rmse(pred, truth)
            values[TURNOVER_APE] = turnover_ape(pred, truth)
            scored = rows[cols["has_previous"][rows]]
            if len(scored) >= 10:
                values[TOP_DECILE_F1] = top_decile_f1(
                    cols["previous"][scored], cols["truth"][scored],
                    cols["predicted"][scored], entity_ids=cols["code"][scored])
        report.add_step(step, values)
    return report


def _run_means(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Mean of each run ``values[starts[i]:starts[i + 1]]``, bit for bit as
    ``np.mean`` of the run: runs of equal length s stack into a (g, s)
    matrix, whose row sums keep the pairwise order (``np.add.reduceat``
    does not)."""
    sizes = np.diff(np.append(starts, len(values)))
    means = np.empty(len(starts))
    for s in np.unique(sizes).tolist():
        runs = np.flatnonzero(sizes == s)
        means[runs] = values[starts[runs, None] + np.arange(s)].sum(axis=1) / s
    return means
