"""One workload in a fresh process: set up, replay, report.

    python3 perfbench/worker.py CONFIG.json --seconds S --trace 0|1 [--spans PATH]

CONFIG.json is a ``RunConfig`` dict. The worker imports ``proxystream``
from the checkout's ``src/``, times ``load_store_for`` several times, then
replays the stream with ``execute_run`` until ``--seconds`` have passed and
enough step samples exist for a tail percentile. With ``--trace 1`` the
set-up is traced once and one traced replay follows the untraced ones. The
last line of stdout is one JSON object; ``run.py`` checks and summarises it.
The BLAS thread count comes from the environment that ``run.py`` sets.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# set-up repeats: at least this many, more while they fit in the time
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 50
# replays continue until the pooled per-step sample supports p90
MIN_STEP_SAMPLES = 100
# stop starting replays past this point, so the process ends well
# inside the caller's limit even on a slow machine
WALL_LIMIT_S = 140.0


def _import_program():
    sys.path.insert(0, str(SRC))
    import proxystream

    if not Path(proxystream.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"proxystream imported from {proxystream.__file__}, not {SRC}")
    return proxystream


def provenance() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def summarise(result) -> dict:
    """The run's outputs that the correctness gate compares."""
    metrics = {}
    for name, value in result.metrics.averages.items():
        metrics[name] = "NA" if value is None else float(value)
    return {
        "predictions": len(result.ledger.records),
        "unresolved": int(result.config["unresolved"]),
        "steps": [[s.step, s.n_train, s.k_train, s.n_pred, s.k_pred, int(s.predicted)]
                  for s in result.steps],
        "metrics": metrics,
    }


class StepClock:
    """One timestamp per ``select_prediction`` call: the step boundary."""

    def __init__(self) -> None:
        self.stamps: list[float] = []

    def install(self, *classes) -> None:
        for cls in classes:
            orig = cls.select_prediction

            def stamped(ctx, t, _orig=orig):
                self.stamps.append(time.perf_counter())
                return _orig(ctx, t)

            cls.select_prediction = stamped

    def take_intervals_ms(self) -> list[float]:
        s = self.stamps
        out = [(b - a) * 1e3 for a, b in zip(s, s[1:])]
        self.stamps = []
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="write traced spans here")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    _import_program()
    from proxystream import sweep, usecases
    import tracing

    cfg = sweep.run_config_from_dict(json.loads(Path(args.config).read_text()))
    out: dict = {"provenance": provenance(), "errors": []}

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        with tracer.span("setup"):
            store = sweep.load_store_for(cfg)
        tracer.restore()
        out["setup_s"] = [tracer.total_time("setup")]
    else:
        setup_s: list[float] = []
        t0 = time.perf_counter()
        while (len(setup_s) < SETUP_MIN_REPEATS
               or (time.perf_counter() - t0 < SETUP_MIN_SECONDS
                   and len(setup_s) < SETUP_MAX_REPEATS)):
            store = None  # drop the previous store before building the next
            t = time.perf_counter()
            store = sweep.load_store_for(cfg)
            setup_s.append(time.perf_counter() - t)
        out["setup_s"] = setup_s

    clock = StepClock()
    clock.install(usecases.SupermarketContext, usecases.PaintFactoryContext)
    run_s: list[float] = []
    intervals: list[float] = []
    summaries: list[dict] = []
    attempted = failed = 0
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if attempted and elapsed >= args.seconds and len(intervals) >= MIN_STEP_SAMPLES:
            break
        last = run_s[-1] if run_s else 0.0
        if attempted and time.perf_counter() - started + last > WALL_LIMIT_S:
            break
        attempted += 1
        t = time.perf_counter()
        try:
            result = sweep.execute_run(cfg, store=store)
        except Exception as exc:  # a failed replay is counted, not fatal
            failed += 1
            clock.take_intervals_ms()
            out["errors"].append(f"{type(exc).__name__}: {exc}")
            if failed >= 3:
                break
            continue
        run_s.append(time.perf_counter() - t)
        intervals.extend(clock.take_intervals_ms())
        summaries.append(summarise(result))
    out.update(attempted=attempted, failed=failed, run_s=run_s,
               step_intervals_ms=intervals, summaries=summaries)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None and run_s:
        tracing.install(tracer)
        try:
            with tracer.span("pipeline.run_stream"):
                result = sweep.execute_run(cfg, store=store)
        finally:
            tracer.restore()
        out["trace"] = traced_layers(tracer, result, run_s)
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.span_records()))

    print(json.dumps(out))
    return 0


def traced_layers(tracer, result, untraced_run_s: list[float]) -> dict:
    """Per-layer figures of one traced set-up and one traced replay."""
    self_s = tracer.self_times()
    counts = tracer.counts
    steps = len(result.steps)
    trained_entities = sum(s.n_train for s in result.steps)
    traced_run_s = tracer.total_time("pipeline.run_stream")
    layers = {}
    for layer in ("logio.read_event_log", "filtering.filter_invoice_cases",
                  "synthetic.generate", "usecases.prepare", "usecases.select",
                  "usecases.outcomes", "usecases.encode_batch",
                  "clustering.k_medoids", "clustering.proxy_matrices",
                  "models.update", "models.predict", "pipeline.ledger.add",
                  "pipeline.ledger.resolve", "pipeline.compute_metrics"):
        layers[f"{layer}.s"] = self_s.get(layer, 0.0)
    for name in ("usecases.select.calls", "usecases.encode_batch.calls",
                 "usecases.encode_batch.rows", "clustering.k_medoids.calls",
                 "clustering.k_medoids.points", "clustering.k_medoids.rounds",
                 "clustering.k_medoids.unconverged", "clustering.proxy_matrices.rows",
                 "models.update.calls", "models.update.rows", "models.predict.rows",
                 "pipeline.ledger.add.rows", "pipeline.ledger.resolve.rows"):
        layers[name] = int(counts.get(name, 0))
    km_calls = layers["clustering.k_medoids.calls"]
    layers["usecases.encode_reuse_ratio"] = (
        layers["usecases.encode_batch.calls"] / (2 * steps) if steps else 0.0)
    layers["clustering.k_medoids.rounds_per_call"] = (
        layers["clustering.k_medoids.rounds"] / km_calls if km_calls else 0.0)
    layers["clustering.k_medoids.cluster_size_min"] = tracer.size_min or 0
    layers["clustering.k_medoids.cluster_size_max"] = tracer.size_max or 0
    layers["models.rows_per_entity"] = (
        layers["models.update.rows"] / trained_entities if trained_entities else 0.0)
    layers["pipeline.run_stream.self_s"] = self_s.get("pipeline.run_stream", 0.0)
    layers["trace.overhead_s"] = traced_run_s - statistics.median(untraced_run_s)
    return {"layers": layers, "run_s": traced_run_s, "setup_s": tracer.total_time("setup")}


if __name__ == "__main__":
    sys.exit(main())
