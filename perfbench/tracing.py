"""In-memory spans around the public calls the pipeline makes.

The tracer patches module functions and class methods of ``proxystream``
from outside the package: every wrapped call records a span (layer name,
start, end, index of the enclosing span) and bumps per-layer counters.
Nothing inside ``src/`` changes; ``restore()`` puts the originals back.

Layers are named after the ``src/proxystream`` module that owns the call.
A layer's self time is its spans' durations minus the parts covered by
their child spans.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self.size_min: int | None = None
        self.size_max: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, layer: str, count=None) -> None:
        """Replace ``owner.attr`` with a spanned, counted call.

        ``count(tracer, layer, args, kwargs, result)`` adds layer-specific
        counters after the call returns.
        """
        orig = getattr(owner, attr)

        def traced(*args, **kwargs):
            idx = self._open(layer)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(idx)
            self.counts[f"{layer}.calls"] += 1
            if count is not None:
                count(self, layer, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, orig))

    def restore(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def total_time(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def observe_sizes(self, sizes) -> None:
        lo, hi = int(sizes.min()), int(sizes.max())
        self.size_min = lo if self.size_min is None else min(self.size_min, lo)
        self.size_max = hi if self.size_max is None else max(self.size_max, hi)

    def span_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]


# -- counters read at the layer boundaries --------------------------------

def _rows_arg(position: int):
    def count(tracer, layer, args, kwargs, result):
        tracer.counts[f"{layer}.rows"] += len(args[position])
    return count


def _rows_result(tracer, layer, args, kwargs, result):
    tracer.counts[f"{layer}.rows"] += int(result)


def _rows_partition(tracer, layer, args, kwargs, result):
    tracer.counts[f"{layer}.rows"] += args[0].n_points


def _kmedoids(tracer, layer, args, kwargs, part):
    rounds = len(part.cost_history)
    tracer.counts[f"{layer}.points"] += part.n_points
    tracer.counts[f"{layer}.rounds"] += rounds
    # the alternation records one cost per round and one more when it
    # stops at max_iter without a stable medoid set
    if rounds >= kwargs.get("max_iter", 100) + 1:
        tracer.counts[f"{layer}.unconverged"] += 1
    tracer.observe_sizes(part.sizes())


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports."""
    from proxystream import models, pipeline, sweep, usecases

    tracer.wrap(sweep, "read_event_log", "logio.read_event_log")
    tracer.wrap(sweep, "filter_invoice_cases", "filtering.filter_invoice_cases")
    tracer.wrap(sweep, "generate_shopper_stream", "synthetic.generate")
    tracer.wrap(sweep, "generate_invoice_stream", "synthetic.generate")
    for usecase in (usecases.SupermarketUseCase, usecases.PaintFactoryUseCase):
        tracer.wrap(usecase, "prepare", "usecases.prepare")
    for ctx in (usecases.SupermarketContext, usecases.PaintFactoryContext):
        tracer.wrap(ctx, "select_training", "usecases.select")
        tracer.wrap(ctx, "select_prediction", "usecases.select")
        tracer.wrap(ctx, "encode_batch", "usecases.encode_batch", _rows_arg(1))
        for name in ("training_outcomes", "prev_outcomes", "resolve_outcomes"):
            tracer.wrap(ctx, name, "usecases.outcomes")
    tracer.wrap(pipeline, "k_medoids", "clustering.k_medoids", _kmedoids)
    tracer.wrap(pipeline, "proxy_matrices", "clustering.proxy_matrices", _rows_partition)
    for model in (models.RecursiveLeastSquares, models.OnlineMLP):
        tracer.wrap(model, "update", "models.update", _rows_arg(1))
        tracer.wrap(model, "predict", "models.predict", _rows_arg(1))
    ledger = pipeline.EvaluationLedger
    tracer.wrap(ledger, "add_predictions", "pipeline.ledger.add", _rows_arg(2))
    tracer.wrap(ledger, "resolve_step", "pipeline.ledger.resolve", _rows_result)
    tracer.wrap(ledger, "resolve_entities", "pipeline.ledger.resolve", _rows_result)
    tracer.wrap(pipeline, "compute_metrics", "pipeline.compute_metrics")
