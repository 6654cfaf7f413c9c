"""The prequential loop: select, encode, cluster, average, train, predict.

Each step trains the shared incremental model on the step's proxy entities
(cluster averages of the training batch), then predicts on the prediction
batch's proxies and assigns every member its proxy's prediction. Predictions
are held in a ledger until their ground truth arrives (next step for weekly
streams, the case's training step for invoice streams) and scored at the end.

Determinism: every random draw comes from a purpose-tagged
``SeedSequence(seed, spawn_key=...)``, so clustering draws cannot perturb
model draws, runs with identical inputs are identical, and the rho = 1 fast
path (singleton clusters, no RNG) is bit-identical to bypassing clustering.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
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
from .models import ModelSpec, init_model
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
    """Slim per-step record; feature matrices only under collect="details"."""

    step: int
    n_train: int = 0
    n_pred: int = 0
    k_train: int = 0
    k_pred: int = 0
    trained: bool = False
    predicted: bool = False
    reused_encoding: bool = False
    train_codes: np.ndarray | None = None
    train_partition: Partition | None = None
    train_cluster_ids: np.ndarray | None = None
    train_proxy_outcomes: np.ndarray | None = None
    pred_codes: np.ndarray | None = None
    pred_partition: Partition | None = None
    pred_cluster_ids: np.ndarray | None = None
    proxy_predictions: np.ndarray | None = None
    predictions: np.ndarray | None = None
    details: dict = field(default_factory=dict)


@dataclass
class PredictionRecord:
    step: int
    entity_code: int
    entity_id: object
    cluster_index: int
    cluster_size: int
    predicted: float
    previous: float | None
    truth: float | None = None


class EvaluationLedger:
    """Pending and resolved predictions, indexed for both resolution modes.

    Open rows sit in insertion-ordered dict buckets keyed by step and by
    entity code, so a row resolved through one index leaves the other in
    O(1).
    """

    def __init__(self) -> None:
        self.records: list[PredictionRecord] = []
        self._open_by_step: dict[int, dict[int, None]] = {}
        self._open_by_code: dict[int, dict[int, None]] = {}

    def add_predictions(self, step: int, codes: np.ndarray, ids: list,
                        clusters: np.ndarray, sizes: np.ndarray,
                        predicted: np.ndarray,
                        previous: np.ndarray | None) -> None:
        start = len(self.records)
        for i, code in enumerate(codes):
            self.records.append(PredictionRecord(
                step=step,
                entity_code=int(code),
                entity_id=ids[i],
                cluster_index=int(clusters[i]),
                cluster_size=int(sizes[i]),
                predicted=float(predicted[i]),
                previous=None if previous is None else float(previous[i]),
            ))
        rows = range(start, len(self.records))
        self._open_by_step.setdefault(step, {}).update(dict.fromkeys(rows))
        for row in rows:
            code = self.records[row].entity_code
            self._open_by_code.setdefault(code, {})[row] = None

    def _close(self, rows: list[int], truths: np.ndarray) -> None:
        for row, value in zip(rows, truths):
            self.records[row].truth = float(value)

    def resolve_step(self, step: int,
                     truth_fn: Callable[[np.ndarray], np.ndarray]) -> int:
        """Resolve all pending predictions made at ``step``."""
        rows = list(self._open_by_step.pop(step, ()))
        if rows:
            codes = np.array([self.records[r].entity_code for r in rows], dtype=np.int64)
            self._close(rows, truth_fn(codes))
            for r in rows:
                del self._open_by_code[self.records[r].entity_code][r]
        return len(rows)

    def resolve_entities(self, codes: np.ndarray,
                         truth_fn: Callable[[np.ndarray], np.ndarray]) -> int:
        """Resolve pending predictions for the given entity codes."""
        rows: list[int] = []
        for code in codes:
            rows.extend(self._open_by_code.pop(int(code), ()))
        if rows:
            row_codes = np.array([self.records[r].entity_code for r in rows], dtype=np.int64)
            self._close(rows, truth_fn(row_codes))
            for r in rows:
                del self._open_by_step[self.records[r].step][r]
        return len(rows)

    @property
    def unresolved(self) -> int:
        return sum(1 for r in self.records if r.truth is None)

    def resolved_records(self) -> list[PredictionRecord]:
        return [r for r in self.records if r.truth is not None]


@dataclass
class RunResult:
    steps: list[StepResult]
    ledger: EvaluationLedger
    metrics: MetricReport
    config: dict

    def step_for(self, t: int) -> StepResult:
        for s in self.steps:
            if s.step == t:
                return s
        raise KeyError(f"no step {t} in this run")


@dataclass
class _PhaseCache:
    step: int
    codes: np.ndarray
    model_x: np.ndarray
    cluster_x: np.ndarray
    partition: Partition | None


def run_stream(store, usecase, rho: int | str, *,
               model: ModelSpec | None = None,
               seed: int = 0,
               steps: Iterable[int] | None = None,
               partitioner: str = KMEDOIDS,
               bypass_clustering: bool = False,
               max_iter: int = 100,
               collect: str = "slim") -> RunResult:
    """Run the prequential pipeline over ``steps``.

    ``rho`` is the target entities-per-cluster ratio; each batch of n
    entities is split into ceil(n / rho) clusters. The token "all" puts the
    whole batch into one cluster. ``bypass_clustering`` trains and predicts
    on raw entities instead of proxies (the rho = 1 reference path).
    """
    if rho != ALL_TOKEN and (not isinstance(rho, (int, np.integer)) or rho < 1):
        raise ValueError(f"rho must be a positive integer or {ALL_TOKEN!r}, got {rho!r}")
    if partitioner not in (KMEDOIDS, RANDOM):
        raise ValueError(f"unknown partitioner {partitioner!r}")
    if collect not in ("slim", "details"):
        raise ValueError(f"unknown collect mode {collect!r}")

    ctx = usecase.prepare(store)
    if steps is None:
        steps = usecase.default_steps(store)
    step_list = [int(t) for t in steps]
    if any(t < 0 for t in step_list):
        raise ValueError("steps must be non-negative")
    if sorted(set(step_list)) != step_list:
        raise ValueError("steps must be strictly increasing")

    spec = model or ModelSpec()
    if spec.input_width == 0:
        spec = spec.with_width(ctx.model_width)
    regressor = init_model(spec, np.random.SeedSequence(seed, spawn_key=(_MODEL_KEY,)))

    def cluster_seed(phase: int, t: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(seed, spawn_key=(_CLUSTER_KEY, phase, t))

    def k_for(n: int) -> int:
        if n == 0:
            return 0
        return 1 if rho == ALL_TOKEN else cluster_count(n, int(rho))

    def partition_batch(cluster_x: np.ndarray, k: int, phase: int, t: int) -> Partition:
        if partitioner == RANDOM:
            return random_partition(len(cluster_x), k, cluster_seed(phase, t))
        template = ctx.distance_template()
        return k_medoids(cluster_x, k, template, seed=cluster_seed(phase, t),
                         max_iter=max_iter)

    details = collect == "details"
    ledger = EvaluationLedger()
    results: list[StepResult] = []
    entity_ids = store.entity_ids
    cache: _PhaseCache | None = None

    for t in step_list:
        res = StepResult(step=t)

        # -- training phase
        if (ctx.reuse_encodings and cache is not None and cache.step == t - 1):
            codes, model_x, cluster_x, part = cache.codes, cache.model_x, cache.cluster_x, cache.partition
            res.reused_encoding = True
        else:
            codes = ctx.select_training(t)
            model_x = cluster_x = part = None
            if len(codes):
                model_x, cluster_x = ctx.encode_batch(codes, t - 1)
                if not bypass_clustering:
                    part = partition_batch(cluster_x, k_for(len(codes)), _PHASE_TRAIN, t)
        res.n_train = len(codes)
        res.train_codes = codes
        if len(codes):
            outcomes = ctx.training_outcomes(codes, t)
            if bypass_clustering:
                res.k_train = len(codes)
                regressor.update(model_x, outcomes)
            else:
                res.k_train = part.k
                res.train_partition = part
                cluster_ids, px, py, _ = proxy_matrices(part, model_x, outcomes)
                res.train_cluster_ids = cluster_ids
                res.train_proxy_outcomes = py
                regressor.update(px, py)
                if details:
                    res.details["train_model_x"] = model_x
                    res.details["train_cluster_x"] = cluster_x
                    res.details["train_proxy_x"] = px
            res.trained = True
            if details:
                res.details["train_outcomes"] = outcomes

        # -- prediction phase
        pred_codes = ctx.select_prediction(t)
        res.n_pred = len(pred_codes)
        pmodel_x = pcluster_x = ppart = None
        if len(pred_codes):
            pmodel_x, pcluster_x = ctx.encode_batch(pred_codes, t)
            if not bypass_clustering:
                ppart = partition_batch(pcluster_x, k_for(len(pred_codes)), _PHASE_PREDICT, t)
                res.k_pred = ppart.k
                res.pred_partition = ppart
            else:
                res.k_pred = len(pred_codes)
            res.pred_codes = pred_codes

            if regressor.n_updates == 0:
                logger.info("step %s: prediction skipped, model is cold", t)
            else:
                if bypass_clustering:
                    predictions = regressor.predict(pmodel_x)
                    clusters = np.arange(len(pred_codes))
                    sizes = np.ones(len(pred_codes), dtype=np.int64)
                    res.proxy_predictions = predictions
                    res.pred_cluster_ids = clusters
                else:
                    cluster_ids, px, _, counts = proxy_matrices(ppart, pmodel_x)
                    proxy_pred = regressor.predict(px)
                    pos = np.searchsorted(cluster_ids, ppart.assignment)
                    predictions = proxy_pred[pos]
                    clusters = ppart.assignment
                    sizes = counts[pos].astype(np.int64)
                    res.proxy_predictions = proxy_pred
                    res.pred_cluster_ids = cluster_ids
                    if details:
                        res.details["pred_model_x"] = pmodel_x
                        res.details["pred_cluster_x"] = pcluster_x
                        res.details["pred_proxy_x"] = px
                res.predictions = predictions
                res.predicted = True
                previous = ctx.prev_outcomes(pred_codes, t)
                ledger.add_predictions(
                    t, pred_codes, [entity_ids[c] for c in pred_codes],
                    clusters, sizes, predictions, previous,
                )

        # -- resolution, after the step's predictions are ledgered so a
        # truth arriving the same step (receipt on the creation day) lands
        if ctx.resolve_by == RESOLVE_NEXT_STEP:
            ledger.resolve_step(t - 1, lambda c: ctx.resolve_outcomes(c, t - 1))
        elif len(codes):
            ledger.resolve_entities(codes, lambda c: ctx.resolve_outcomes(c, t))

        if ctx.reuse_encodings:
            cache = _PhaseCache(step=t, codes=pred_codes, model_x=pmodel_x,
                                cluster_x=pcluster_x, partition=ppart)
        results.append(res)

    report = compute_metrics(ledger)
    config = {
        "use_case": ctx.name,
        "rho": rho,
        "seed": seed,
        "partitioner": partitioner,
        "bypass_clustering": bypass_clustering,
        "model": spec,
        "steps": step_list,
        "n_entities": store.entity_count,
        "unresolved": ledger.unresolved,
    }
    logger.info("run complete: %d steps, %d predictions (%d unresolved)",
                len(step_list), len(ledger.records), ledger.unresolved)
    return RunResult(steps=results, ledger=ledger, metrics=report, config=config)


def compute_metrics(ledger: EvaluationLedger) -> MetricReport:
    """Score resolved ledger records, grouped by prediction step."""
    by_step: dict[int, list[PredictionRecord]] = {}
    for r in ledger.records:
        by_step.setdefault(r.step, []).append(r)

    report = MetricReport()
    for step in sorted(by_step):
        recs = [r for r in by_step[step] if r.truth is not None]
        values: dict[str, float | None] = {}
        counts: dict[str, int] = {}
        if recs:
            pred = np.array([r.predicted for r in recs])
            truth = np.array([r.truth for r in recs])
            values[ENTITY_RMSE] = entity_rmse(pred, truth)
            counts[ENTITY_RMSE] = len(recs)

            by_cluster: dict[int, list[PredictionRecord]] = {}
            for r in recs:
                by_cluster.setdefault(r.cluster_index, []).append(r)
            proxy_pred = []
            cluster_truth = []
            for cluster in sorted(by_cluster):
                members = by_cluster[cluster]
                proxy_pred.append(members[0].predicted)
                cluster_truth.append(float(np.mean([m.truth for m in members])))
            values[CLUSTER_RMSE] = cluster_rmse(np.array(proxy_pred), np.array(cluster_truth))
            counts[CLUSTER_RMSE] = len(by_cluster)

            scored = [r for r in recs if r.previous is not None]
            if len(scored) >= 10:
                values[TOP_DECILE_F1] = top_decile_f1(
                    np.array([r.previous for r in scored]),
                    np.array([r.truth for r in scored]),
                    np.array([r.predicted for r in scored]),
                    entity_ids=np.array([r.entity_code for r in scored]),
                )
                counts[TOP_DECILE_F1] = len(scored)
            values[TURNOVER_APE] = turnover_ape(pred, truth)
            counts[TURNOVER_APE] = len(recs)
        report.add_step(step, values, counts)
    return report
