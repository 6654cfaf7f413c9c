"""Use-case selection rules and the prequential pipeline loop."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Event, per_entity_predictions, store_from_events
from proxystream.clustering import BINNED, EUCLIDEAN, GOWER
from proxystream.events import EventStore
from proxystream.filtering import RIR_LABEL, VCI_LABEL
from proxystream.encoding import weekly_spend
from proxystream import pipeline
from proxystream.metrics import (
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
from proxystream.models import ModelSpec
from proxystream.pipeline import (
    _ROW,
    EvaluationLedger,
    compute_metrics,
    run_stream,
)
from proxystream.synthetic import (
    ShopperStreamSpec,
    archetype_invoice_spec,
    archetype_shopper_spec,
    default_shopper_archetypes,
    generate_invoice_stream,
    generate_shopper_stream,
)
from proxystream.usecases import PaintFactoryUseCase, SupermarketUseCase


def _shopper_store(n=60, horizon=12, seed=0, **kw):
    spec = ShopperStreamSpec(
        archetypes=default_shopper_archetypes(3),
        n_entities=n, horizon=horizon, noise_scale=2.0, entity_spread=1.0,
        attr_noise=0.2, seed=seed, **kw,
    )
    return generate_shopper_stream(spec)[0]


def _invoice_store(n=250, horizon=40.0, seed=0):
    return generate_invoice_stream(archetype_invoice_spec(n, horizon, seed=seed))


# -- supermarket selection -------------------------------------------------

def test_training_selection_needs_history_and_recent_visits():
    store = _shopper_store(n=40, horizon=10, start_spread=4, seed=3)
    usecase = SupermarketUseCase(tau=3)
    ctx = usecase.prepare(store)
    t = 8
    selected = ctx.select_training(t)
    # selected entities started before t - tau and were seen in the window
    assert (store.first_times[selected] < t - 3).all()
    for code in selected:
        times = store.times[store.entity_codes == code]
        assert ((times >= t - 4) & (times < t - 1)).any()
    # entities that started too late are excluded
    late = np.nonzero(store.first_times >= t - 3)[0]
    assert not np.intersect1d(selected, late).size


def test_prediction_selection_excludes_entities_started_last_week():
    store = _shopper_store(n=50, horizon=10, start_spread=6, seed=7)
    ctx = SupermarketUseCase(tau=3).prepare(store)
    t = 7
    selected = ctx.select_prediction(t)
    started_last_week = np.nonzero(np.floor(store.first_times) == t - 1)[0]
    assert started_last_week.size  # fixture really exercises the rule
    assert not np.intersect1d(selected, started_last_week).size


def test_prediction_selection_equals_next_training_selection():
    store = _shopper_store(n=80, horizon=12, start_spread=5, seed=1)
    ctx = SupermarketUseCase(tau=3).prepare(store)
    for t in range(5, 11):
        assert np.array_equal(ctx.select_prediction(t), ctx.select_training(t + 1))


def test_supermarket_default_steps():
    store = _shopper_store(n=20, horizon=10)
    assert SupermarketUseCase(tau=3).prepare(store).default_steps() == range(4, 11)
    for tau in (1, 2.5, True):
        with pytest.raises(ValueError):
            SupermarketUseCase(tau=tau)


@pytest.mark.parametrize("kind", [EUCLIDEAN, BINNED])
def test_supermarket_checks_n_bins_for_every_kind(kind):
    for n_bins in (0, 2.5, True):
        with pytest.raises(ValueError, match="n_bins must be an integer >= 1"):
            SupermarketUseCase(distance_kind=kind, n_bins=n_bins)
    ctx = SupermarketUseCase(distance_kind=kind, n_bins=7).prepare(_shopper_store(n=5))
    assert (ctx.distance.kind, ctx.distance.n_bins) == (kind, 7)


def test_supermarket_rejects_gower_distances():
    with pytest.raises(ValueError, match="unsupported distance kind 'gower'"):
        SupermarketUseCase(distance_kind=GOWER)


# -- paint factory selection -----------------------------------------------

def test_invoice_day_window_selection():
    store, truth = _invoice_store()
    ctx = PaintFactoryUseCase().prepare(store)
    assert np.allclose(ctx.creation_times, truth.creation_times)
    assert np.allclose(ctx.receipt_times, truth.receipt_times)
    t = 20
    train = ctx.select_training(t)
    pred = ctx.select_prediction(t)
    assert ((truth.receipt_times[train] >= t - 1) & (truth.receipt_times[train] < t)).all()
    assert ((truth.creation_times[pred] >= t - 1) & (truth.creation_times[pred] < t)).all()


def test_receipt_is_selected_for_training_exactly_once():
    store, truth = _invoice_store(n=120, horizon=25.0, seed=5)
    ctx = PaintFactoryUseCase().prepare(store)
    seen = np.zeros(store.entity_count, dtype=int)
    for t in ctx.default_steps():
        np.add.at(seen, ctx.select_training(t), 1)
    assert (seen == 1).all()


def test_invoice_default_steps_are_empty_without_a_complete_case():
    # one case was created but never received, the other never created
    store = store_from_events([Event("open", VCI_LABEL, 1.0), Event("bare", "Change price", 2.0)])
    assert PaintFactoryUseCase().prepare(store).default_steps() == range(0, 0)


def _without_events(store, drop):
    keep = ~drop
    return EventStore(
        store.times[keep], store.entity_codes[keep], store.activity_codes[keep],
        store.entity_ids, store.alphabet, event_schema=store.event_schema,
        event_attrs={f.name: store.event_attribute(f.name)[keep] for f in store.event_schema},
        entity_schema=store.entity_schema,
        entity_attrs={f.name: store.entity_attribute(f.name) for f in store.entity_schema},
        time_origin=store.time_origin)


def test_incomplete_invoice_cases_are_predicted_but_never_trained():
    # an unfiltered store: one case lost its creation event (it used to train
    # on a -inf duration and turn most predictions into NaN), one its
    # receipt, and one both (its inf - inf duration used to warn)
    store, truth = _invoice_store(n=200, horizon=20.0, seed=0)
    by_receipt = np.argsort(truth.receipt_times, kind="stable")
    no_creation, no_receipt, neither = (int(c) for c in by_receipt[[5, 20, 40]])
    creation = store.activity_codes == store.alphabet.index(VCI_LABEL)
    receipt = store.activity_codes == store.alphabet.index(RIR_LABEL)
    case = store.entity_codes
    store = _without_events(store, ((case == no_creation) | (case == neither)) & creation
                            | ((case == no_receipt) | (case == neither)) & receipt)
    ctx = PaintFactoryUseCase().prepare(store)
    incomplete = [no_creation, no_receipt, neither]
    assert np.flatnonzero(~ctx.known).tolist() == sorted(incomplete)
    assert np.isnan(ctx.durations[incomplete]).all()
    assert np.isfinite(ctx.durations[ctx.known]).all()
    trained = np.concatenate([ctx.select_training(t) for t in ctx.default_steps()])
    assert np.array_equal(np.sort(trained), np.flatnonzero(ctx.known))
    for rho in (1, 4):
        run = run_stream(store, PaintFactoryUseCase(), rho)
        cols = run.ledger.records
        assert len(cols) == store.entity_count - 2
        assert np.isfinite(cols["predicted"]).all()
        assert not np.isin([no_creation, neither], cols["code"]).any()
        assert cols["code"][~cols["resolved"]].tolist() == [no_receipt]
        assert run.config["unresolved"] == 1
        assert all(np.isfinite(v) for v in run.metrics.averages.values() if v is not None)


def test_invoice_default_steps_cover_last_receipt():
    store, truth = _invoice_store(n=50, horizon=15.0, seed=2)
    steps = PaintFactoryUseCase().prepare(store).default_steps()
    assert steps.start == int(np.floor(truth.creation_times.min())) + 1
    assert steps.stop == int(np.ceil(truth.receipt_times.max())) + 2


# -- pipeline loop ---------------------------------------------------------

@pytest.mark.parametrize("make_store, usecase, spec, steps", [
    (lambda: _shopper_store(n=50, horizon=10, seed=4), SupermarketUseCase(tau=3),
     ModelSpec(), range(4, 10)),
    (lambda: _shopper_store(n=50, horizon=10, seed=4), SupermarketUseCase(tau=3),
     ModelSpec(kind="sgd_mlp", hidden=5), range(4, 10)),
    # Gower clustering distance, truths resolved by entity
    (lambda: _invoice_store(n=200, horizon=30.0, seed=11)[0], PaintFactoryUseCase(),
     ModelSpec(), None),
], ids=["supermarket-rls", "supermarket-mlp", "paint-factory"])
def test_rho_one_matches_bypass_exactly(make_store, usecase, spec, steps):
    store = make_store()
    if steps is None:
        steps = usecase.prepare(store).default_steps()
    run = run_stream(store, usecase, 1, model=spec, seed=9, steps=steps)
    _assert_per_entity_bytes(run, per_entity_predictions(store, usecase, spec, 9, steps))


def _assert_per_entity_bytes(run, reference) -> None:
    assert reference
    assert [s.step for s in run.steps if s.predicted] == list(reference)
    cols = run.ledger.records
    for t, (codes, predictions) in reference.items():
        rows = cols[cols["step"] == t]
        assert np.array_equal(rows["code"], codes)
        assert rows["predicted"].tobytes() == predictions.tobytes()


@pytest.mark.parametrize("partitioner", [pipeline.KMEDOIDS, pipeline.RANDOM])
@pytest.mark.parametrize("kind", [EUCLIDEAN, BINNED])
def test_rho_one_is_per_entity_for_every_kind_and_partitioner(kind, partitioner):
    # at k == n each entity is its own cluster in batch order, so the proxy
    # rows, and the model's sums over them, keep the per-entity order
    store = _shopper_store(n=300, horizon=12, seed=4)
    usecase = SupermarketUseCase(tau=3, distance_kind=kind)
    steps = range(5, 12)
    run = run_stream(store, usecase, 1, seed=9, steps=steps, partitioner=partitioner)
    _assert_per_entity_bytes(run, per_entity_predictions(store, usecase, ModelSpec(), 9, steps))


def test_rho_one_entity_metrics_equal_cluster_metrics():
    store = _shopper_store(n=40, horizon=9, seed=2)
    run = run_stream(store, SupermarketUseCase(tau=3), 1, seed=0, steps=range(4, 9))
    for e, c in zip(run.metrics.per_step[ENTITY_RMSE], run.metrics.per_step[CLUSTER_RMSE]):
        assert (e is None) == (c is None)
        if e is not None:
            assert e == pytest.approx(c, abs=1e-12)


def test_same_seed_reproduces_run_exactly():
    store = _shopper_store(n=60, horizon=10, seed=6)
    usecase = SupermarketUseCase(tau=3)
    a = run_stream(store, usecase, 8, seed=3, steps=range(4, 10))
    b = run_stream(store, usecase, 8, seed=3, steps=range(4, 10))
    assert len(a.ledger.records)
    assert a.ledger.records.tobytes() == b.ledger.records.tobytes()
    assert a.steps == b.steps
    assert a.metrics.averages == b.metrics.averages


def test_prediction_artifacts_are_reused_for_next_training(monkeypatch):
    store = _shopper_store(n=50, horizon=10, seed=8)
    calls, k_medoids = [], pipeline.k_medoids

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return k_medoids(*args, **kwargs)

    monkeypatch.setattr(pipeline, "k_medoids", counted)
    run = run_stream(store, SupermarketUseCase(tau=3), 5, seed=1, steps=range(4, 10))
    first = run.steps[0]
    assert not first.reused_encoding and first.n_train
    # each prediction batch is partitioned once, and only the first training batch
    assert calls == [first.n_train] + [s.n_pred for s in run.steps if s.n_pred]
    for prev, cur in zip(run.steps, run.steps[1:]):
        assert cur.reused_encoding
        assert (cur.n_train, cur.k_train) == (prev.n_pred, prev.k_pred)


def test_invoice_pipeline_predicts_each_case_once_and_resolves_same_day():
    store, truth = _invoice_store(n=200, horizon=30.0, seed=11)
    run = run_stream(store, PaintFactoryUseCase(), 10, seed=0)
    records = run.ledger.records
    assert len(np.unique(records["code"])) == len(records)
    # every resolved truth is the case's true duration
    resolved = records[records["resolved"]]
    assert len(resolved)
    assert resolved["truth"] == pytest.approx(truth.durations[resolved["code"]])
    # same-day cases (created and received inside one step window) resolve
    same_day = np.nonzero(
        np.floor(truth.creation_times) == np.floor(truth.receipt_times)
    )[0]
    hits = np.isin(records["code"], same_day)
    assert hits.any()
    assert records["resolved"][hits].all()


def test_supermarket_resolution_uses_next_week_spend():
    store = _shopper_store(n=40, horizon=10, seed=12)
    run = run_stream(store, SupermarketUseCase(tau=3), 4, seed=2, steps=range(4, 9))
    records = run.ledger.records
    rec = records[records["resolved"]][0]
    code, step = np.array([rec["code"]]), int(rec["step"])
    assert rec["truth"] == pytest.approx(weekly_spend(store, code, step, step + 1)[0])
    # previous outcome is the spend over the completed week before the step
    assert rec["has_previous"]
    assert rec["previous"] == pytest.approx(weekly_spend(store, code, step - 1, step)[0])


def test_single_step_run_resolves_nothing():
    store = _shopper_store(n=30, horizon=8, seed=5)
    run = run_stream(store, SupermarketUseCase(tau=3), 3, seed=0, steps=[5])
    assert run.ledger.unresolved == len(run.ledger.records) > 0
    assert run.metrics.averages[ENTITY_RMSE] is None


def test_cold_model_skips_prediction():
    # invoice stream whose first steps see creations but no receipts yet
    store, truth = _invoice_store(n=150, horizon=25.0, seed=3)
    first_receipt_day = int(np.floor(truth.receipt_times.min()))
    run = run_stream(store, PaintFactoryUseCase(), 5, seed=0)
    for res in run.steps:
        if res.step <= first_receipt_day:
            assert not res.predicted
    assert any(res.predicted for res in run.steps)


def test_no_lookahead_in_predictions():
    store = _shopper_store(n=50, horizon=12, seed=10)
    t_last = 9
    steps = range(4, t_last + 1)
    full = run_stream(store, SupermarketUseCase(tau=3), 4, seed=7, steps=steps)

    from proxystream.events import EventStore  # local import to build a truncation
    mask = store.times < t_last
    truncated = EventStore(
        store.times[mask], store.entity_codes[mask], store.activity_codes[mask],
        store.entity_ids, store.alphabet,
        event_schema=store.event_schema,
        event_attrs={f.name: store.event_attribute(f.name)[mask]
                     for f in store.event_schema},
    )
    cut = run_stream(truncated, SupermarketUseCase(tau=3), 4, seed=7, steps=steps)
    a, b = (run.ledger.records for run in (full, cut))
    a, b = a[a["step"] < t_last], b[b["step"] < t_last]
    assert len(a)
    for name in ("step", "code", "cluster", "size", "predicted", "previous"):
        assert np.array_equal(a[name], b[name])
    assert full.steps[:-1] == cut.steps[:-1]


def test_noiseless_stream_is_predicted_exactly():
    # without outcome noise the spend lines are exactly learnable: at rho 1
    # the entity error vanishes, and at rho > 1 the proxy-level error still
    # vanishes (entity error then only reflects within-cluster averaging)
    spec = ShopperStreamSpec(
        archetypes=default_shopper_archetypes(3),
        n_entities=45, horizon=12, noise_scale=0.0, entity_spread=0.0,
        attr_noise=0.0, seed=0,
    )
    store, _ = generate_shopper_stream(spec)

    def late_values(run, name):
        vals = [v for s, v in zip(run.metrics.steps, run.metrics.per_step[name])
                if s >= 6 and v is not None]
        assert vals
        return vals

    exact = run_stream(store, SupermarketUseCase(tau=3), 1,
                       model=ModelSpec(ridge=1e-10), seed=0, steps=range(4, 12))
    assert max(late_values(exact, ENTITY_RMSE)) < 1e-6

    pooled = run_stream(store, SupermarketUseCase(tau=3), 3,
                        model=ModelSpec(ridge=1e-10), seed=0, steps=range(4, 12))
    assert max(late_values(pooled, CLUSTER_RMSE)) < 1e-6


def test_all_token_uses_one_cluster():
    store = _shopper_store(n=30, horizon=9, seed=9)
    run = run_stream(store, SupermarketUseCase(tau=3), "all", seed=0, steps=range(4, 9))
    for res in run.steps:
        if res.n_train:
            assert res.k_train == 1
        if res.n_pred:
            assert res.k_pred == 1


def test_random_partitioner_is_seeded():
    store = _shopper_store(n=40, horizon=9, seed=13)
    a = run_stream(store, SupermarketUseCase(tau=3), 5, seed=4,
                   partitioner="random", steps=range(4, 9))
    b = run_stream(store, SupermarketUseCase(tau=3), 5, seed=4,
                   partitioner="random", steps=range(4, 9))
    assert len(a.ledger.records)
    assert a.ledger.records.tobytes() == b.ledger.records.tobytes()
    assert a.steps == b.steps


def test_run_stream_validates_arguments():
    store = _shopper_store(n=20, horizon=8)
    usecase = SupermarketUseCase(tau=3)
    with pytest.raises(ValueError):
        run_stream(store, usecase, 0)
    with pytest.raises(ValueError):
        run_stream(store, usecase, "some")
    with pytest.raises(ValueError):
        run_stream(store, usecase, 1.5)
    with pytest.raises(ValueError):
        run_stream(store, usecase, True)
    with pytest.raises(ValueError):
        run_stream(store, usecase, 2, partitioner="spectral")
    with pytest.raises(TypeError):
        run_stream(store, usecase, 1, bypass_clustering=True)
    with pytest.raises(TypeError):
        run_stream(store, usecase, 2, collect="details")
    with pytest.raises(ValueError):
        run_stream(store, usecase, 2, steps=[5, 5, 6])
    with pytest.raises(ValueError):
        run_stream(store, usecase, 2, steps=[6, 5])
    with pytest.raises(ValueError):
        run_stream(store, usecase, 2, steps=[-1, 2])


@pytest.mark.parametrize("partitioner", ["kmedoids", "random"])
def test_run_stream_checks_max_iter_up_front(partitioner):
    store = _shopper_store(n=20, horizon=8)
    for max_iter in (0, 2.5, True):
        # steps=[] runs no step, so only an up-front check can see the value
        for steps in ([], None):
            with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
                run_stream(store, SupermarketUseCase(tau=3), 2, partitioner=partitioner,
                           max_iter=max_iter, steps=steps)


def test_run_stream_rejects_non_integer_steps():
    store = _shopper_store(n=20, horizon=8)
    usecase = SupermarketUseCase(tau=3)
    for steps in ([4.5], [True, 5], [np.float64(5)], [4.5, 5.7]):
        with pytest.raises(ValueError, match="steps"):
            run_stream(store, usecase, 2, steps=steps)
    for steps in (range(4, 7), [np.int64(4), np.int64(5), np.int64(6)]):
        run = run_stream(store, usecase, 2, steps=steps)
        assert [s.step for s in run.steps] == run.config["steps"] == [4, 5, 6]
        assert all(type(t) is int for t in run.config["steps"])


def test_run_result_lookup_and_config():
    store = _shopper_store(n=20, horizon=9)
    run = run_stream(store, SupermarketUseCase(tau=3), 2, seed=5, steps=range(4, 8))
    assert [s.step for s in run.steps] == [4, 5, 6, 7]
    assert run.config["rho"] == 2
    assert run.config["seed"] == 5
    assert run.config["use_case"] == "supermarket"
    assert run.config["steps"] == [4, 5, 6, 7]


# -- ledger and metric grouping -------------------------------------------

def test_ledger_resolution_paths():
    ledger = EvaluationLedger()
    ledger.add_predictions(
        3, np.array([0, 1]), np.array([0, 0]), np.array([2, 2]),
        np.array([1.0, 2.0]), None,
    )
    ledger.add_predictions(
        4, np.array([2]), np.array([0]), np.array([1]),
        np.array([3.0]), np.array([0.5]),
    )
    assert ledger.unresolved == 3
    n = ledger.resolve_step(3, lambda codes: codes.astype(float) * 10)
    assert n == 2
    assert ledger.unresolved == 1
    assert ledger.records["truth"][:2].tolist() == [0.0, 10.0]
    assert ledger.records["resolved"].tolist() == [True, True, False]
    n = ledger.resolve_entities(np.array([2]), lambda codes: np.full(len(codes), 7.0))
    assert n == 1
    assert ledger.unresolved == 0
    assert ledger.resolve_step(3, lambda codes: codes) == 0


_LEDGER_STEPS = st.lists(
    st.tuples(st.sets(st.integers(0, 9), max_size=6),   # codes predicted at t
              st.lists(st.integers(0, 9), max_size=8),  # codes resolved at t, any order
              st.integers(0, 3),                        # age of the resolved step
              st.booleans()),                           # mixed mode: resolve by step
    min_size=1, max_size=12)


@pytest.mark.parametrize("mode", ["step", "entities", "mixed"])
@settings(max_examples=150, deadline=None)
@given(steps=_LEDGER_STEPS)
def test_ledger_resolves_each_prediction_once_with_its_own_truth(mode, steps):
    ledger = EvaluationLedger()
    truths: list[float | None] = []   # model of every record's truth
    for t, (predicted, resolved, age, flip) in enumerate(steps):
        by_step = mode == "step" or (mode == "mixed" and flip)
        codes = np.array(sorted(predicted), dtype=np.int64)
        ledger.add_predictions(t, codes, np.zeros(len(codes)), np.ones(len(codes)),
                               codes.astype(float), None)
        truths.extend([None] * len(codes))
        # a truth encodes the code it was asked for and the step it belongs to
        if by_step:
            step = t - age
            n = ledger.resolve_step(step, lambda c: c * 100.0 + step)
            due = [i for i, r in enumerate(ledger.records)
                   if truths[i] is None and r["step"] == step]
        else:
            n = ledger.resolve_entities(np.array(resolved, dtype=np.int64),
                                        lambda c: c * 100.0 + t)
            due = [i for i, r in enumerate(ledger.records)
                   if truths[i] is None and r["code"] in resolved]
        assert n == len(due)
        for i in due:
            rec = ledger.records[i]
            truths[i] = rec["code"] * 100.0 + (rec["step"] if by_step else t)
        records = ledger.records
        assert [truth if done else None for truth, done
                in zip(records["truth"].tolist(), records["resolved"].tolist())] == truths
        assert ledger.unresolved == truths.count(None)


def test_compute_metrics_groups_by_prediction_step():
    ledger = EvaluationLedger()
    # step 5: one cluster of two entities, proxy prediction 10, truths 0 / 20
    ledger.add_predictions(
        5, np.array([0, 1]), np.array([0, 0]), np.array([2, 2]),
        np.array([10.0, 10.0]), None,
    )
    # step 6: a perfect singleton
    ledger.add_predictions(
        6, np.array([2]), np.array([0]), np.array([1]),
        np.array([4.0]), None,
    )
    ledger.resolve_step(5, lambda codes: np.array([0.0, 20.0]))
    ledger.resolve_step(6, lambda codes: np.array([4.0]))
    report = compute_metrics(ledger)
    assert report.steps == [5, 6]
    assert report.per_step[ENTITY_RMSE][0] == pytest.approx(10.0)
    assert report.per_step[CLUSTER_RMSE][0] == pytest.approx(0.0)
    assert report.per_step[ENTITY_RMSE][1] == 0.0
    assert report.average(ENTITY_RMSE) == pytest.approx(5.0)


_MISSHAPEN = {
    "short": lambda codes: np.zeros(len(codes) - 1),
    "long": lambda codes: np.zeros(len(codes) + 1),
    "scalar": lambda codes: 5.0,
}


@pytest.mark.parametrize("mode", ["step", "entities"])
@pytest.mark.parametrize("bad", sorted(_MISSHAPEN))
def test_misshapen_truths_raise_and_leave_the_ledger_unchanged(mode, bad):
    ledger = EvaluationLedger()
    codes = np.array([4, 5, 6])
    ledger.add_predictions(3, codes, np.zeros(3), np.ones(3), np.array([1.0, 2.0, 3.0]), None)

    def resolve(truth_fn):
        if mode == "step":
            return ledger.resolve_step(3, truth_fn)
        return ledger.resolve_entities(codes, truth_fn)

    before = ledger.records.copy()  # a snapshot: ``records`` is a view
    with pytest.raises(ValueError, match="shape"):
        resolve(_MISSHAPEN[bad])
    assert ledger.records.tobytes() == before.tobytes()
    assert ledger.unresolved == 3
    # every row is still open, so a good truth_fn resolves them all
    assert resolve(lambda c: c * 10.0) == 3
    assert ledger.records["truth"].tolist() == [40.0, 50.0, 60.0]
    assert ledger.records["resolved"].all()
    assert ledger.resolve_step(3, lambda c: c * 0.0) == 0
    assert ledger.resolve_entities(codes, lambda c: c * 0.0) == 0


@dataclass
class _Record:
    """One added ledger row as the record-by-record oracle keeps it; None
    marks a missing previous outcome or truth."""

    step: int
    entity_code: int
    cluster_index: int
    predicted: float
    previous: float | None
    truth: float | None = None


def _reference_metrics(records: list[_Record]) -> MetricReport:
    """Record-by-record scoring: dict grouping and one np.mean per cluster."""
    by_step: dict[int, list[_Record]] = {}
    for r in records:
        by_step.setdefault(r.step, []).append(r)
    report = MetricReport()
    for step in sorted(by_step):
        recs = [r for r in by_step[step] if r.truth is not None]
        values: dict[str, float | None] = {}
        if recs:
            pred = np.array([r.predicted for r in recs])
            truth = np.array([r.truth for r in recs])
            values[ENTITY_RMSE] = entity_rmse(pred, truth)
            by_cluster: dict[int, list[_Record]] = {}
            for r in recs:
                by_cluster.setdefault(r.cluster_index, []).append(r)
            proxy_pred = []
            cluster_truth = []
            for cluster in sorted(by_cluster):
                members = by_cluster[cluster]
                proxy_pred.append(members[0].predicted)
                cluster_truth.append(float(np.mean([m.truth for m in members])))
            values[CLUSTER_RMSE] = cluster_rmse(np.array(proxy_pred), np.array(cluster_truth))
            scored = [r for r in recs if r.previous is not None]
            if len(scored) >= 10:
                values[TOP_DECILE_F1] = top_decile_f1(
                    np.array([r.previous for r in scored]),
                    np.array([r.truth for r in scored]),
                    np.array([r.predicted for r in scored]),
                    entity_ids=np.array([r.entity_code for r in scored]),
                )
            values[TURNOVER_APE] = turnover_ape(pred, truth)
        report.add_step(step, values)
    return report


_BLOCKS = st.lists(
    st.tuples(st.integers(0, 4),                                  # step; repeats add a block
              st.lists(st.integers(1, 300), min_size=1, max_size=4),  # cluster sizes
              st.booleans()),                                     # with previous outcomes
    min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(blocks=_BLOCKS, seed=st.integers(0, 2**32 - 1),
       resolved_share=st.sampled_from([0.0, 0.3, 0.9, 1.0]))
def test_compute_metrics_equals_record_by_record_scoring(blocks, seed, resolved_share):
    rng = np.random.default_rng(seed)
    ledger = EvaluationLedger()
    model: list[_Record] = []
    next_code = 0
    for step, cluster_sizes, with_previous in blocks:
        labels = rng.choice(1000, size=len(cluster_sizes), replace=False)
        order = rng.permutation(sum(cluster_sizes))   # members of a cluster interleave
        clusters = np.repeat(labels, cluster_sizes)[order]
        sizes = np.repeat(cluster_sizes, cluster_sizes)[order]
        codes = np.arange(next_code, next_code + len(clusters))
        next_code += len(clusters)
        scale = 10.0 ** rng.uniform(-3, 6)
        predicted = rng.normal(size=len(codes)) * scale
        previous = rng.normal(size=len(codes)) * scale if with_previous else None
        ledger.add_predictions(step, codes, clusters, sizes, predicted, previous)
        for i, code in enumerate(codes.tolist()):
            model.append(_Record(
                step, code, int(clusters[i]), float(predicted[i]),
                None if previous is None else float(previous[i])))
    truth_of = rng.normal(size=next_code) * 10.0 ** rng.uniform(-3, 6)
    chosen = np.flatnonzero(rng.random(next_code) < resolved_share)
    ledger.resolve_entities(rng.permutation(chosen), lambda c: truth_of[c])
    whole_step = blocks[0][0] if rng.random() < 0.5 else None
    if whole_step is not None:
        ledger.resolve_step(whole_step, lambda c: truth_of[c])
    chosen = set(chosen.tolist())
    for r in model:
        if r.entity_code in chosen or r.step == whole_step:
            r.truth = float(truth_of[r.entity_code])

    got, want = compute_metrics(ledger), _reference_metrics(model)
    assert got.steps == want.steps
    assert got.per_step == want.per_step


def test_records_is_the_ledger_row_buffer():
    ledger = EvaluationLedger()
    assert isinstance(ledger.records, np.ndarray) and len(ledger.records) == 0
    ledger.add_predictions(3, np.array([0, 1]), np.zeros(2), np.ones(2),
                           np.array([1.0, 2.0]), None)
    records = ledger.records
    assert records.dtype.names == _ROW.names
    assert np.shares_memory(records, ledger._rows)
    assert records["code"].tolist() == [0, 1]
    runs = [
        run_stream(_shopper_store(n=80, horizon=12, seed=3), SupermarketUseCase(tau=3), 4,
                   seed=0, steps=range(4, 11)),
        run_stream(_invoice_store(n=250, horizon=30.0, seed=4)[0], PaintFactoryUseCase(), 10,
                   seed=0),
    ]
    for run in runs:
        assert len(run.ledger.records) == sum(s.n_pred for s in run.steps if s.predicted) > 0
