"""The benchmark's hooks still find what they patch.

``perfbench/tracing.py`` wraps module functions and class methods of
``proxystream`` by name, and ``perfbench/worker.py``'s ``StepClock`` patches
``select_prediction`` on both context classes. A rename in ``src/`` breaks
them only when a traced benchmark run starts, so this test runs the
unchanged hook files on one small supermarket run and one small paint run
read from CSV, and checks that every per-layer figure the benchmark declares
comes out, that the main layers were reached, and that every patched
attribute is put back.
"""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from proxystream import models, pipeline, sweep, usecases
from proxystream.logio import write_event_log

ROOT = Path(__file__).resolve().parent.parent
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
CONTEXTS = (usecases.SupermarketContext, usecases.PaintFactoryContext)
# every owner whose attributes the hooks may replace
OWNERS = (sweep, pipeline, usecases.SupermarketUseCase, usecases.PaintFactoryUseCase,
          *CONTEXTS, models.RecursiveLeastSquares, models.OnlineMLP,
          pipeline.EvaluationLedger)


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes() -> dict:
    return {(owner, name): value for owner in OWNERS for name, value in vars(owner).items()}


def _shop_config(tmp_path: Path) -> sweep.RunConfig:
    return sweep.run_config_from_dict({
        "use_case": "supermarket", "rho": 8, "tau": 3, "t_start": 4, "t_end": 10,
        "generator": {"kind": "shopper", "n_entities": 200, "horizon": 10, "seed": 0},
    })


def _paint_config(tmp_path: Path) -> sweep.RunConfig:
    store, _ = sweep.generate_from_dict({"kind": "invoice", "n_entities": 300,
                                         "horizon": 20.0, "seed": 0})
    path = tmp_path / "invoices.csv"
    write_event_log(store, path)
    return sweep.run_config_from_dict({"use_case": "paint_factory", "rho": 8,
                                       "max_iter": 20, "events": str(path),
                                       "time_format": "number", "filter_cases": True})


@pytest.mark.parametrize("make_config", [_shop_config, _paint_config], ids=["shop", "paint"])
def test_tracing_hooks_report_every_declared_layer(make_config, tmp_path):
    tracing, worker = _load("tracing"), _load("worker")
    cfg = make_config(tmp_path)
    before = _attributes()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        with tracer.span("setup"):
            store = sweep.load_store_for(cfg)
        with tracer.span("pipeline.run_stream"):
            result = sweep.execute_run(cfg, store=store)
    finally:
        tracer.restore()
    assert _attributes() == before

    layers = worker.traced_layers(tracer, result, [1.0])["layers"]
    assert [name for name in PER_LAYER if name not in layers] == []
    for name in ("usecases.select.calls", "usecases.encode_batch.calls",
                 "clustering.k_medoids.calls", "models.update.calls"):
        assert layers[name] > 0, name


def test_step_clock_stamps_both_context_classes(tmp_path):
    worker = _load("worker")
    before = _attributes()
    clock = worker.StepClock()
    clock.install(*CONTEXTS)
    try:
        for make_config in (_shop_config, _paint_config):
            cfg = make_config(tmp_path)
            result = sweep.execute_run(cfg, store=sweep.load_store_for(cfg))
            # one stamp per step: every step selects a prediction batch
            assert len(clock.take_intervals_ms()) == len(result.steps) - 1
    finally:
        for cls in CONTEXTS:
            cls.select_prediction = before[(cls, "select_prediction")]
    assert _attributes() == before
