"""Acceptance suite: one test per release criterion, in order.

Each test finishes by printing a single ``CRITERION nn PASS/FAIL`` line
(surfaced in the pytest summary via the project-wide ``-rP`` option) with
the measured numbers. Every pipeline run executed in this file goes through
:func:`audited_run`, which re-derives the partition laws for every partition
the run makes, so the law check of criterion 2 genuinely covers all
acceptance runs.

Tolerances are pinned in the assertions; none are tuned to the observed
values after the fact.
"""
from __future__ import annotations

import os
import time
from itertools import combinations
from typing import Callable

import numpy as np
import pytest

from conftest import per_entity_predictions, sample_loss
from proxystream import pipeline
from proxystream.clustering import (
    BINNED,
    cross_distances,
    euclidean_spec,
    k_medoids,
    mean_medoid_gap,
)
from proxystream.encoding import linear_fit_batch
from proxystream.filtering import bpic19_log_schema, filter_invoice_cases
from proxystream.logio import read_event_log
from proxystream.metrics import cluster_rmse, entity_rmse, turnover_ape
from proxystream.models import ModelSpec, OnlineMLP, RecursiveLeastSquares
from proxystream.pipeline import RunResult, run_stream
from proxystream.sweep import RunOutput, execute_run, run_config_from_dict, run_id_for, write_run_outputs
from proxystream.synthetic import (
    archetype_invoice_spec,
    archetype_shopper_spec,
    generate_invoice_stream,
    generate_shopper_stream,
    noise_dominated_shopper_spec,
)
from proxystream.usecases import PaintFactoryUseCase, SupermarketUseCase

DATASET_ENV = "PROXYSTREAM_BPIC19_CSV"

_AUDIT = {"phases": 0, "clusters": 0}


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"CRITERION {number:>2} {'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def _expected_k(n_points: int, rho: int | str) -> int:
    return 1 if rho == "all" else -(-n_points // int(rho))


def check_partition_laws(part, rho: int | str) -> None:
    """Independently re-derive the partition laws for one batch partition."""
    n_batch = part.n_points
    expected_k = _expected_k(n_batch, rho)
    assert part.k == expected_k, f"k {part.k} != {expected_k} for {n_batch} points"
    assert part.assignment.shape == (n_batch,)
    sizes = np.bincount(part.assignment, minlength=part.k)
    assert sizes.sum() == n_batch          # total assignment
    assert (sizes > 0).all()               # no empty cluster
    part.validate()                        # range + medoid membership
    _AUDIT["phases"] += 1
    _AUDIT["clusters"] += part.k


def audited(rho, run: Callable[[], RunResult]) -> RunResult:
    """``run()`` with every partition it makes checked as it is made, and
    each step's cluster counts checked against its batch sizes."""
    def auditing(partition):
        def wrapped(*args, **kw):
            part = partition(*args, **kw)
            check_partition_laws(part, rho)
            return part
        return wrapped

    audited_before = _AUDIT["phases"]
    with pytest.MonkeyPatch.context() as patch:
        for name in ("k_medoids", "random_partition"):
            patch.setattr(pipeline, name, auditing(getattr(pipeline, name)))
        result = run()
    for step in result.steps:
        for n_batch, k in ((step.n_train, step.k_train), (step.n_pred, step.k_pred)):
            assert k == (_expected_k(n_batch, rho) if n_batch else 0), f"step {step.step}"
    # a reused prediction partition trains the next step without a new call
    made = sum(bool(s.n_train) and not s.reused_encoding for s in result.steps)
    assert _AUDIT["phases"] - audited_before == made + sum(bool(s.n_pred) for s in result.steps)
    return result


def audited_run(store, usecase, rho, **kwargs) -> RunResult:
    return audited(rho, lambda: run_stream(store, usecase, rho, **kwargs))


def shopper_store(n_entities: int, horizon: int, seed: int):
    spec = archetype_shopper_spec(n_entities=n_entities, horizon=horizon, seed=seed)
    store, _ = generate_shopper_stream(spec)
    return store


def invoice_store(n_entities: int, horizon: float, seed: int):
    spec = archetype_invoice_spec(n_entities=n_entities, horizon=horizon, seed=seed)
    store, _ = generate_invoice_stream(spec)
    return store


# -- criterion 1 -----------------------------------------------------------

def test_criterion_01_unit_capacity_equals_bypass() -> None:
    t_begin = time.monotonic()
    store = shopper_store(2000, 26, seed=4)
    usecase = SupermarketUseCase(tau=3)
    steps = range(4, 24)  # 20 steps
    clustered = audited_run(store, usecase, 1, seed=0, steps=steps)
    reference = per_entity_predictions(store, usecase, ModelSpec(), 0, steps)
    assert [s.step for s in clustered.steps if s.predicted] == list(reference)
    cols = clustered.ledger.records
    n_predictions = 0
    identical = True
    for t, (codes, predictions) in reference.items():
        rows = cols[cols["step"] == t]
        identical &= np.array_equal(rows["code"], codes)
        identical &= rows["predicted"].tobytes() == predictions.tobytes()
        n_predictions += len(rows)
    elapsed = time.monotonic() - t_begin
    report(1, "rho=1 equals the no-clustering path", identical and elapsed < 60,
           f"{n_predictions} predictions bit-identical over 20 steps, {elapsed:.1f}s")


# -- criterion 2 -----------------------------------------------------------

def test_criterion_02_partition_laws_every_step() -> None:
    shop = shopper_store(400, 14, seed=2)
    for rho in (1, 7, 32, "all"):
        audited_run(shop, SupermarketUseCase(tau=3), rho, seed=rho if rho != "all" else 99)
    audited_run(shop, SupermarketUseCase(tau=3), 6, seed=5, partitioner="random")
    audited_run(shop, SupermarketUseCase(tau=3, distance_kind=BINNED), 9, seed=6)
    paint = invoice_store(300, 30.0, seed=3)
    for rho in (1, 10, "all"):
        audited_run(paint, PaintFactoryUseCase(), rho, seed=1)
    ok = _AUDIT["phases"] > 0
    report(2, "partition laws hold at every audited step", ok,
           f"{_AUDIT['phases']} batch partitions audited so far "
           f"({_AUDIT['clusters']} clusters), zero violations")


# -- criterion 3 -----------------------------------------------------------

def _proxy_deviation(part, member_x, proxy_x, cluster_ids) -> float:
    worst = 0.0
    for row, cid in enumerate(cluster_ids):
        members = np.flatnonzero(part.assignment == cid)
        worst = max(worst, float(np.max(np.abs(
            proxy_x[row] - member_x[members].mean(axis=0)))))
    return worst


def test_criterion_03_proxies_are_member_means(monkeypatch) -> None:
    calls = []

    def recording_proxy_matrices(part, member_x, outcomes=None):
        out = real_proxy_matrices(part, member_x, outcomes)
        calls.append((part, member_x, outcomes, out))
        return out

    real_proxy_matrices = pipeline.proxy_matrices
    monkeypatch.setattr(pipeline, "proxy_matrices", recording_proxy_matrices)
    shop = shopper_store(400, 14, seed=2)
    paint = invoice_store(300, 30.0, seed=3)
    audited_run(shop, SupermarketUseCase(tau=3), 8, seed=0)
    audited_run(shop, SupermarketUseCase(tau=3, distance_kind=BINNED), 5, seed=1)
    audited_run(shop, SupermarketUseCase(tau=3), 6, seed=2, partitioner="random")
    audited_run(paint, PaintFactoryUseCase(), 10, seed=3)
    worst = 0.0
    n_clusters = 0
    for part, member_x, outcomes, (cluster_ids, proxy_x, proxy_y, _) in calls:
        worst = max(worst, _proxy_deviation(part, member_x, proxy_x, cluster_ids))
        if outcomes is not None:
            for row, cid in enumerate(cluster_ids):
                members = np.flatnonzero(part.assignment == cid)
                worst = max(worst, abs(float(proxy_y[row] - outcomes[members].mean())))
        n_clusters += len(cluster_ids)
    report(3, "proxy features and outcomes equal member means", worst <= 1e-12,
           f"max deviation {worst:.2e} over {n_clusters} clusters (tolerance 1e-12)")


# -- criterion 4 -----------------------------------------------------------

def test_criterion_04_rmse_orderings_across_capacity() -> None:
    t_begin = time.monotonic()
    usecase = SupermarketUseCase(tau=3)
    steps = range(4, 29)  # 25 steps
    cluster_wins = 0
    entity_wins = 0
    margins = []
    for seed in range(10):
        store = shopper_store(5000, 30, seed=seed)

        def averaged(metric: str, rho: int) -> float:
            run = audited_run(store, usecase, rho, seed=seed, steps=steps)
            return run.metrics.average(metric)

        coarse_cluster = averaged("cluster_rmse", 32)
        unit_cluster = averaged("cluster_rmse", 1)
        small_entity = averaged("entity_rmse", 2)
        huge_entity = averaged("entity_rmse", 1024)
        cluster_wins += coarse_cluster < unit_cluster
        entity_wins += huge_entity > small_entity
        margins.append((unit_cluster - coarse_cluster, huge_entity - small_entity))
    elapsed = time.monotonic() - t_begin
    ok = cluster_wins >= 9 and entity_wins >= 9 and elapsed < 600
    mean_margins = np.mean(margins, axis=0)
    report(4, "cluster-RMSE falls and entity-RMSE rises with capacity", ok,
           f"cluster rho=32 < rho=1 in {cluster_wins}/10 seeds "
           f"(mean margin {mean_margins[0]:.3f}), entity rho=1024 > rho=2 in "
           f"{entity_wins}/10 (mean margin {mean_margins[1]:.3f}), {elapsed:.0f}s")


# -- criterion 5 -----------------------------------------------------------

def test_criterion_05_pairing_helps_under_heavy_noise() -> None:
    model = ModelSpec(kind="sgd_mlp", hidden=16, learning_rate=0.02, epochs=1)
    usecase = SupermarketUseCase(tau=3)
    diffs = []
    for seed in range(10):
        store, _ = generate_shopper_stream(noise_dominated_shopper_spec(seed=seed))
        single = audited_run(store, usecase, 1, model=model,
                             seed=seed).metrics.average("entity_rmse")
        paired = audited_run(store, usecase, 2, model=model,
                             seed=seed).metrics.average("entity_rmse")
        diffs.append(single - paired)
    mean_diff = float(np.mean(diffs))
    report(5, "rho=2 does not hurt on the noise-dominated preset", mean_diff >= 0,
           f"paired-seed mean entity-RMSE reduction {mean_diff:+.3f} "
           f"(rho=1 minus rho=2, 10 seeds)")


# -- criterion 6 -----------------------------------------------------------

def test_criterion_06_clustering_beats_random_partitions() -> None:
    usecase = PaintFactoryUseCase()
    wins = 0
    margins = []
    whole_batch_diffs = []
    for seed in range(10):
        store = invoice_store(2000, 60.0, seed=seed)

        def averaged(rho, scheme: str) -> float:
            run = audited_run(store, usecase, rho, seed=seed, partitioner=scheme)
            return run.metrics.average("entity_rmse")

        medoid_rmse = averaged(10, "kmedoids")
        random_rmse = averaged(10, "random")
        wins += medoid_rmse < random_rmse
        margins.append(random_rmse - medoid_rmse)
        whole_batch_diffs.append(averaged("all", "kmedoids") - averaged("all", "random"))
    diffs = np.asarray(whole_batch_diffs)
    spread = float(diffs.std(ddof=1)) if len(diffs) > 1 else 0.0
    half_width = 1.96 * spread / np.sqrt(len(diffs))
    covers_zero = abs(float(diffs.mean())) <= half_width or \
        (spread == 0.0 and float(diffs.mean()) == 0.0)
    ok = wins >= 9 and covers_zero
    report(6, "informed clusters beat random partitions", ok,
           f"k-medoids < random at rho=10 in {wins}/10 seeds "
           f"(mean margin {float(np.mean(margins)):.3f}); whole-batch paired "
           f"difference {float(diffs.mean()):+.2e} ± {half_width:.2e} covers 0")


# -- criterion 7 -----------------------------------------------------------

def test_criterion_07_mean_medoid_gap_shrinks() -> None:
    t_begin = time.monotonic()
    ok = True
    pieces = []
    for dim in (2, 5, 10):
        gaps = [mean_medoid_gap(n, dim, samples=1000, seed=7)
                for n in (5, 10, 20, 50, 100)]
        inversions = sum(1 for lo, hi in zip(gaps, gaps[1:]) if hi > lo)
        ok &= gaps[-1] < gaps[0] and inversions <= 1
        pieces.append(f"d={dim}: {gaps[0]:.3f}->{gaps[-1]:.3f} ({inversions} inv)")
    elapsed = time.monotonic() - t_begin
    ok &= elapsed < 30
    report(7, "mean-medoid gap shrinks with sample size", ok,
           "; ".join(pieces) + f", {elapsed:.1f}s")


# -- criterion 8 -----------------------------------------------------------

def test_criterion_08_procurement_dataset_counts() -> None:
    path = os.environ.get(DATASET_ENV)
    if not path:
        print(f"CRITERION  8 SKIP  procurement dataset counts: "
              f"set {DATASET_ENV} to an events CSV to enable")
        pytest.skip(f"{DATASET_ENV} not set")
    store = read_event_log(path, bpic19_log_schema())
    filtered, rep = filter_invoice_cases(store)
    ok = (filtered.entity_count == 171_517
          and len(filtered) == 1_025_949
          and len(filtered.alphabet) == 40)
    report(8, "procurement filter counts", ok,
           f"cases {filtered.entity_count} (want 171517), events {len(filtered)} "
           f"(want 1025949), labels {len(filtered.alphabet)} (want 40); "
           f"report: {rep.as_dict()}")


# -- criterion 9 -----------------------------------------------------------

def _linear_fit_oracle_gap(rng: np.random.Generator) -> float:
    series = rng.normal(scale=50.0, size=(40, 6, 9))
    fitted = linear_fit_batch(series)
    weeks = np.arange(9, dtype=float)
    design = np.stack([weeks, np.ones(9)], axis=1)
    worst = 0.0
    for i in range(series.shape[0]):
        for row in range(series.shape[1]):
            coef, *_ = np.linalg.lstsq(design, series[i, row], rcond=None)
            resid = series[i, row] - design @ coef
            oracle = (coef[0], coef[1], float(np.sqrt(np.mean(resid ** 2))))
            got = (fitted[i, row], fitted[i, 6 + row], fitted[i, 12 + row])
            worst = max(worst, max(abs(a - b) for a, b in zip(got, oracle)))
    return worst


def _medoid_enumeration_gap(rng: np.random.Generator) -> float:
    spec = euclidean_spec()
    worst = 0.0
    for _ in range(8):
        n_points = int(rng.integers(4, 9))
        k = int(rng.integers(2, 4))
        points = rng.normal(size=(n_points, 2))
        dist = cross_distances(points, points, spec)
        optimum = min(
            dist[:, list(medoids)].min(axis=1).sum()
            for medoids in combinations(range(n_points), k)
        )
        best = min(
            k_medoids(points, k, init_medoids=np.array(init)).cost_history[-1]
            for init in combinations(range(n_points), k)
        )
        worst = max(worst, abs(best - optimum))
    return worst


def _rls_oracle_gap(rng: np.random.Generator) -> float:
    rows = rng.normal(size=(60, 7))
    targets = rows @ rng.normal(size=7) + 0.5 + rng.normal(scale=0.1, size=60)
    model = RecursiveLeastSquares(7, ridge=1e-9)
    for chunk_rows, chunk_targets in zip(np.array_split(rows, 7),
                                         np.array_split(targets, 7)):
        model.update(chunk_rows, chunk_targets)
    augmented = np.hstack([rows, np.ones((60, 1))])
    batch, *_ = np.linalg.lstsq(augmented, targets, rcond=None)
    return float(np.max(np.abs(model.weights - batch)))


def _mlp_gradient_gap(rng: np.random.Generator) -> float:
    model = OnlineMLP(5, hidden=4, learning_rate=0.01, seed=3)
    sample = rng.normal(size=5)
    target = float(rng.normal())
    analytic = model.gradients(sample, target)
    eps = 1e-6
    worst = 0.0
    for name in ("w_hidden", "b_hidden", "w_out", "b_out"):
        param = getattr(model, name)
        grad = np.atleast_1d(np.asarray(analytic[name], dtype=float))
        flat_param = np.atleast_1d(np.asarray(param, dtype=float))
        for index in range(flat_param.size):
            def shifted_loss(delta: float) -> float:
                bumped = flat_param.copy().reshape(-1)
                bumped[index] += delta
                setattr(model, name, bumped.reshape(np.shape(param))
                        if np.ndim(param) else float(bumped[0]))
                loss = sample_loss(model, sample, target)
                setattr(model, name, param)
                return loss

            numeric = (shifted_loss(eps) - shifted_loss(-eps)) / (2 * eps)
            wanted = grad.reshape(-1)[index]
            scale = max(abs(numeric), abs(wanted), 1e-8)
            worst = max(worst, abs(numeric - wanted) / scale)
    return worst


def test_criterion_09_component_oracles() -> None:
    t_begin = time.monotonic()
    rng = np.random.default_rng(55)
    fit_gap = _linear_fit_oracle_gap(rng)
    medoid_gap = _medoid_enumeration_gap(rng)
    rls_gap = _rls_oracle_gap(rng)
    grad_gap = _mlp_gradient_gap(rng)
    elapsed = time.monotonic() - t_begin
    ok = (fit_gap < 1e-9 and medoid_gap < 1e-9 and rls_gap < 1e-6
          and grad_gap < 1e-4 and elapsed < 120)
    report(9, "component oracles", ok,
           f"linear-fit {fit_gap:.1e} (<1e-9), medoid enumeration {medoid_gap:.1e} "
           f"(<1e-9), recursive-vs-batch {rls_gap:.1e} (<1e-6), "
           f"gradient check {grad_gap:.1e} (<1e-4 rel), {elapsed:.1f}s")


# -- criterion 10 ----------------------------------------------------------

def test_criterion_10_metric_identities() -> None:
    store = shopper_store(400, 14, seed=2)
    run = audited_run(store, SupermarketUseCase(tau=3), 1, seed=8)
    per_step: dict[int, dict[str, float | None]] = {}
    for step, metric, value in run.metrics.value_rows():
        per_step.setdefault(step, {})[metric] = value
    compared = 0
    identical = True
    for values in per_step.values():
        if values["entity_rmse"] is None:
            continue
        identical &= values["entity_rmse"] == values["cluster_rmse"]
        compared += 1

    shared = entity_rmse(np.array([10.0, 10.0]), np.array([0.0, 20.0]))
    collapsed = cluster_rmse(np.array([10.0]), np.array([10.0]))
    offsetting_ape = turnover_ape(np.array([105.0, 95.0]), np.array([100.0, 100.0]))
    offsetting_rmse = entity_rmse(np.array([105.0, 95.0]), np.array([100.0, 100.0]))
    ok = (compared > 0 and identical
          and shared == 10.0 and collapsed == 0.0
          and offsetting_ape == 0.0 and offsetting_rmse == 5.0)
    report(10, "metric identities and cancellation fixtures", ok,
           f"entity == cluster RMSE on {compared} rho=1 steps; "
           f"shared-proxy fixture (cluster {collapsed}, entity {shared}); "
           f"offsetting fixture (APE {offsetting_ape}, entity {offsetting_rmse})")


# -- criterion 11 ----------------------------------------------------------

def test_criterion_11_repeat_runs_are_byte_identical(tmp_path) -> None:
    configs = [
        {"use_case": "supermarket", "rho": 7, "tau": 3, "seed": 1,
         "generator": {"kind": "shopper", "n_entities": 400, "horizon": 14, "seed": 2}},
        {"use_case": "supermarket", "rho": 2, "tau": 3, "seed": 4,
         "model": {"kind": "sgd_mlp", "hidden": 8},
         "generator": {"kind": "shopper", "n_entities": 300, "horizon": 12, "seed": 6}},
        {"use_case": "paint_factory", "rho": 10, "tau": None, "seed": 2,
         "generator": {"kind": "invoice", "n_entities": 300, "horizon": 30, "seed": 3}},
    ]
    files = ("results.csv", "summary.csv", "steps.csv")
    checked = []
    identical = True
    for index, data in enumerate(configs):
        cfg = run_config_from_dict(data)
        first_dir = tmp_path / f"first_{index}"
        second_dir = tmp_path / f"second_{index}"
        for outdir in (first_dir, second_dir):
            result = audited(cfg.rho, lambda: execute_run(cfg))
            write_run_outputs(outdir, RunOutput(run_id_for(cfg), cfg, result=result))
        for name in files:
            identical &= (first_dir / name).read_bytes() == (second_dir / name).read_bytes()
        checked.append(run_id_for(cfg))
    report(11, "identical config and seed give byte-identical CSVs", identical,
           f"{len(files)} files x {len(checked)} configs: {', '.join(checked)}")
