"""Run configuration, experiment grids, and deterministic result files.

A run config names the data source (a synthetic generator spec or an events
CSV), the use case and its knobs, and the pipeline parameters. A sweep
expands a base config over rho/tau/seed lists, executes each combination
(continuing past per-run failures), and writes long-format CSVs plus one
tau x rho pivot per metric. CSV bodies are byte-stable across reruns; wall
clock and environment facts go to manifest.json only.
"""
from __future__ import annotations

import csv
import datetime as _dt
import json
import logging
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .clustering import BINNED, EUCLIDEAN
from .filtering import filter_invoice_cases, invoice_log_schema
from .logio import TIME_FORMATS, read_event_log
from .metrics import METRIC_NAMES, format_value
from .models import ModelSpec, check_int
from .pipeline import ALL_TOKEN, KMEDOIDS, RANDOM, RunResult, StepResult, check_rho, run_stream
from .synthetic import (
    archetype_invoice_spec,
    archetype_shopper_spec,
    generate_invoice_stream,
    generate_shopper_stream,
    noise_dominated_shopper_spec,
    shopper_log_schema,
)
from .usecases import PaintFactoryUseCase, SupermarketUseCase

logger = logging.getLogger(__name__)

SUPERMARKET = "supermarket"
PAINT_FACTORY = "paint_factory"

RESULT_COLUMNS = ("run_id", "use_case", "rho", "tau", "seed", "step", "metric", "value")
SUMMARY_COLUMNS = ("run_id", "use_case", "rho", "tau", "seed", "metric", "value")


def _reject_unknown(data: dict, cls: type, what: str) -> None:
    """Raise unless ``data`` is a dict whose keys are fields of the dataclass ``cls``."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be an object, got {data!r}")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")


def model_spec_from_dict(data: dict) -> ModelSpec:
    _reject_unknown(data, ModelSpec, "model")
    return ModelSpec(**data)


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one pipeline run."""

    use_case: str = SUPERMARKET
    rho: int | str = 1
    tau: int | None = 3
    seed: int = 0
    model: ModelSpec = field(default_factory=ModelSpec)
    partitioner: str = KMEDOIDS
    distance: str = EUCLIDEAN
    n_bins: int = 20
    max_iter: int = 100
    t_start: int | None = None
    t_end: int | None = None
    events: str | None = None
    time_format: str = "number"
    filter_cases: bool = True
    generator: dict | None = None

    def __post_init__(self) -> None:
        if self.use_case not in (SUPERMARKET, PAINT_FACTORY):
            raise ValueError(f"unknown use case {self.use_case!r}")
        check_rho(self.rho)
        if not isinstance(self.model, ModelSpec):
            raise ValueError(f"model must be an object, got {self.model!r}")
        if self.partitioner not in (KMEDOIDS, RANDOM):
            raise ValueError(f"unknown partitioner {self.partitioner!r}")
        if self.distance not in (EUCLIDEAN, BINNED):
            raise ValueError(f"unknown distance {self.distance!r}")
        check_int("n_bins", self.n_bins, 1)
        check_int("max_iter", self.max_iter, 1)
        check_int("seed", self.seed, 0)
        if self.time_format not in TIME_FORMATS:
            raise ValueError(f"unknown time format {self.time_format!r}")
        if self.use_case == SUPERMARKET:
            check_int("tau", self.tau, 2)
        if (self.t_start is None) != (self.t_end is None):
            raise ValueError("t_start and t_end must be given together")
        if self.t_start is not None:
            check_int("t_start", self.t_start, 0)
            check_int("t_end", self.t_end, self.t_start + 1)
        if self.events is None and self.generator is None:
            raise ValueError("config needs an events path or a generator block")
        if not isinstance(self.events, (str, type(None))):
            raise ValueError(f"events must be a path string, got {self.events!r}")
        if not isinstance(self.generator, (dict, type(None))):
            raise ValueError(f"generator must be an object, got {self.generator!r}")
        if not isinstance(self.filter_cases, bool):
            raise ValueError(f"filter_cases must be true or false, got {self.filter_cases!r}")
        if self.events is not None and self.generator is not None:
            raise ValueError("give either an events path or a generator block, not both")

    @property
    def rho_token(self) -> str:
        return str(self.rho)

    @property
    def tau_token(self) -> str:
        return "" if self.use_case == PAINT_FACTORY or self.tau is None else str(self.tau)


def run_config_from_dict(data: dict) -> RunConfig:
    _reject_unknown(data, RunConfig, "run config")
    data = dict(data)
    if "model" in data and isinstance(data["model"], dict):
        data["model"] = model_spec_from_dict(data["model"])
    return RunConfig(**data)


def load_run_config(path: str | Path) -> RunConfig:
    return run_config_from_dict(json.loads(Path(path).read_text()))


def run_id_for(cfg: RunConfig) -> str:
    parts = [cfg.use_case, f"rho-{cfg.rho_token}"]
    if cfg.tau_token:
        parts.append(f"tau-{cfg.tau_token}")
    parts.append(f"seed-{cfg.seed}")
    if cfg.partitioner != KMEDOIDS:
        parts.append(cfg.partitioner)
    if cfg.model.kind != ModelSpec().kind:
        parts.append(cfg.model.kind)
    return "_".join(parts)


# -- data sources ----------------------------------------------------------

def generate_from_dict(data: dict):
    """Build a synthetic stream from a generator config block.

    Keys: kind ("shopper" | "invoice"), optional preset
    ("archetype" | "noise_dominated"), then the preset's keyword arguments.
    Returns (store, truth).
    """
    data = dict(data)
    kind = data.pop("kind", None)
    preset = data.pop("preset", "archetype")
    try:
        if kind == "shopper":
            if preset == "noise_dominated":
                spec = noise_dominated_shopper_spec(**data)
            elif preset == "archetype":
                spec = archetype_shopper_spec(**data)
            else:
                raise ValueError(f"unknown shopper preset {preset!r}")
            return generate_shopper_stream(spec)
        if kind == "invoice":
            if preset != "archetype":
                raise ValueError(f"unknown invoice preset {preset!r}")
            return generate_invoice_stream(archetype_invoice_spec(**data))
    except TypeError as exc:
        raise ValueError(f"bad generator parameters: {exc}") from None
    raise ValueError(f"unknown generator kind {kind!r}")


def load_store_for(cfg: RunConfig):
    """Materialise the run's event store (generated or loaded, filtered for
    invoice runs when configured)."""
    if cfg.generator is not None:
        store, _ = generate_from_dict(cfg.generator)
    else:
        if cfg.use_case == SUPERMARKET:
            schema = shopper_log_schema()
        else:
            schema = invoice_log_schema(cfg.time_format)
        store = read_event_log(cfg.events, schema)
    if cfg.use_case == PAINT_FACTORY and cfg.filter_cases:
        store, report = filter_invoice_cases(store)
        logger.info("invoice filter: kept %d of %d cases",
                    report.cases_kept, report.cases_in)
    return store


def make_usecase(cfg: RunConfig):
    if cfg.use_case == SUPERMARKET:
        return SupermarketUseCase(tau=cfg.tau, distance_kind=cfg.distance, n_bins=cfg.n_bins)
    return PaintFactoryUseCase()


def execute_run(cfg: RunConfig, store=None) -> RunResult:
    """Run one config end to end; raises on failure."""
    if store is None:
        store = load_store_for(cfg)
    usecase = make_usecase(cfg)
    steps = None
    if cfg.t_start is not None:
        steps = range(cfg.t_start, cfg.t_end)
    return run_stream(
        store, usecase, cfg.rho,
        model=cfg.model,
        seed=cfg.seed,
        steps=steps,
        partitioner=cfg.partitioner,
        max_iter=cfg.max_iter,
    )


# -- sweeps ----------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    base: RunConfig
    rhos: tuple = (1,)
    taus: tuple | None = None
    seeds: tuple = (0,)

    def __post_init__(self) -> None:
        if self.taus is not None and self.base.use_case == PAINT_FACTORY:
            raise ValueError("taus apply to supermarket sweeps only")
        # every value is checked here, before expand_grid drops repeats by
        # ==, under which True equals 1 and 2.0 equals 2
        for rho in self.rhos:
            check_rho(rho)
        for tau in self.taus or ():
            check_int("tau", tau, 2)
        for seed in self.seeds:
            check_int("seed", seed, 0)


def _list_value(data: dict, key: str, default: list) -> tuple:
    value = data.get(key, default)
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list, got {value!r}")
    if not value:  # an empty grid would write header-only outputs and succeed
        raise ValueError(f"{key} must not be empty")
    return tuple(value)


def sweep_config_from_dict(data: dict) -> SweepConfig:
    _reject_unknown(data, SweepConfig, "sweep config")
    base = run_config_from_dict(data.get("base", {}))
    return SweepConfig(base=base, rhos=_list_value(data, "rhos", [base.rho]),
                       taus=None if data.get("taus") is None else _list_value(data, "taus", []),
                       seeds=_list_value(data, "seeds", [base.seed]))


def load_sweep_config(path: str | Path) -> SweepConfig:
    return sweep_config_from_dict(json.loads(Path(path).read_text()))


def _unique(name: str, values) -> list:
    """``values`` in order, each repeat dropped with a warning."""
    kept: list = []
    for value in values:
        if value in kept:
            logger.warning("duplicate %s %r in grid, skipping", name, value)
            continue
        kept.append(value)
    return kept


def expand_grid(sweep: SweepConfig) -> list[RunConfig]:
    """Base config crossed with rho/tau/seed lists, duplicates dropped."""
    rhos = _unique("rho", sweep.rhos)
    taus = [None] if sweep.taus is None else _unique("tau", sweep.taus)
    configs = []
    for seed in _unique("seed", sweep.seeds):
        for tau in taus:
            for rho in rhos:
                cfg = replace(sweep.base, rho=rho, seed=seed)
                if tau is not None:
                    cfg = replace(cfg, tau=tau)
                configs.append(cfg)
    return configs


@dataclass
class RunOutput:
    run_id: str
    config: RunConfig
    result: RunResult | None = None
    error: str | None = None


def _run_config(cfg: RunConfig, store) -> RunOutput:
    """Run one grid point against the sweep's store; a failure becomes its error."""
    run_id = run_id_for(cfg)
    try:
        result = execute_run(cfg, store=store)
    except Exception:
        logger.exception("run %s failed", run_id)
        return RunOutput(run_id, cfg, error=traceback.format_exc())
    logger.info("run %s done", run_id)
    return RunOutput(run_id, cfg, result=result)


_worker_store = None  # the sweep's store in a pool worker, set once per process


def _set_worker_store(store) -> None:
    global _worker_store
    _worker_store = store


def _run_in_worker(cfg: RunConfig) -> RunOutput:
    return _run_config(cfg, _worker_store)


def execute_sweep(sweep: SweepConfig, jobs: int = 1) -> list[RunOutput]:
    """Run every grid point; failures are recorded, not raised.

    The grid varies only rho, tau and seed, so the store is loaded once from
    the base config and shared by every run. With jobs > 1 each worker
    process receives it once, when the worker starts. If the load fails,
    every run is recorded as failed with the load's traceback. ``jobs``
    must be an integer >= 1.
    """
    check_int("jobs", jobs, 1)
    configs = expand_grid(sweep)
    try:
        store = load_store_for(sweep.base)
    except Exception:
        logger.exception("loading the sweep's store failed")
        error = traceback.format_exc()
        return [RunOutput(run_id_for(cfg), cfg, error=error) for cfg in configs]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs, initializer=_set_worker_store,
                                 initargs=(store,)) as pool:
            return list(pool.map(_run_in_worker, configs))
    return [_run_config(cfg, store) for cfg in configs]


# -- output files ----------------------------------------------------------

def _result_rows(out: RunOutput) -> list[tuple]:
    cfg = out.config
    rows = []
    for step, metric, value in out.result.metrics.value_rows():
        rows.append((out.run_id, cfg.use_case, cfg.rho_token, cfg.tau_token,
                     cfg.seed, step, metric, format_value(value)))
    return rows


def _summary_rows(out: RunOutput) -> list[tuple]:
    cfg = out.config
    rows = []
    for metric in METRIC_NAMES:
        value = out.result.metrics.average(metric)
        rows.append((out.run_id, cfg.use_case, cfg.rho_token, cfg.tau_token,
                     cfg.seed, metric, format_value(value)))
    return rows


def _write_csv(path: Path, header: Sequence[str], rows: list) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _rho_sort_key(token: str):
    return (1, 0) if token == ALL_TOKEN else (0, int(token))


def write_pivot_csv(path: Path, outputs: list[RunOutput], metric: str) -> None:
    """tau rows x rho columns of time-averaged metric values.

    Cells average over seeds when the grid repeats a (tau, rho) pair; "NA"
    where nothing is defined.
    """
    cells: dict[tuple[str, str], list[float]] = {}
    taus: list[str] = []
    rhos: list[str] = []
    for out in outputs:
        if out.result is None:
            continue
        tau, rho = out.config.tau_token, out.config.rho_token
        if tau not in taus:
            taus.append(tau)
        if rho not in rhos:
            rhos.append(rho)
        value = out.result.metrics.average(metric)
        if value is not None:
            cells.setdefault((tau, rho), []).append(value)
    taus.sort(key=lambda t: (t != "", int(t) if t else 0))
    rhos.sort(key=_rho_sort_key)
    rows = []
    for tau in taus:
        row = [tau]
        for rho in rhos:
            got = cells.get((tau, rho))
            row.append(format_value(float(np.mean(got)) if got else None))
        rows.append(row)
    _write_csv(path, ["tau", *rhos], rows)


def _manifest(outdir: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["created_utc"] = _dt.datetime.now(_dt.timezone.utc).isoformat()
    payload["package_version"] = __version__
    payload["numpy_version"] = np.__version__
    (outdir / "manifest.json").write_text(json.dumps(payload, indent=2, default=str) + "\n")


def write_run_outputs(outdir: str | Path, out: RunOutput) -> None:
    """results.csv, summary.csv, steps.csv and manifest.json for one run."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "results.csv", RESULT_COLUMNS, _result_rows(out))
    _write_csv(outdir / "summary.csv", SUMMARY_COLUMNS, _summary_rows(out))
    _write_csv(outdir / "steps.csv", [f.name for f in fields(StepResult)],
               [tuple(map(int, astuple(s))) for s in out.result.steps])
    _manifest(outdir, {"kind": "run", "run_id": out.run_id,
                       "config": asdict(out.config),
                       "unresolved": out.result.config["unresolved"]})


def write_sweep_outputs(outdir: str | Path, outputs: list[RunOutput],
                        sweep: SweepConfig | None = None) -> None:
    """Aggregate files for a grid: long CSVs, per-metric pivots, run status."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    result_rows: list[tuple] = []
    summary_rows: list[tuple] = []
    status_rows: list[tuple] = []
    for out in outputs:
        if out.result is not None:
            result_rows.extend(_result_rows(out))
            summary_rows.extend(_summary_rows(out))
            status_rows.append((out.run_id, "ok", ""))
        else:
            last = out.error.strip().splitlines()[-1] if out.error else "unknown error"
            status_rows.append((out.run_id, "failed", last))
    _write_csv(outdir / "results.csv", RESULT_COLUMNS, result_rows)
    _write_csv(outdir / "summary.csv", SUMMARY_COLUMNS, summary_rows)
    _write_csv(outdir / "runs.csv", ("run_id", "status", "message"), status_rows)
    for metric in METRIC_NAMES:
        write_pivot_csv(outdir / f"pivot_{metric}.csv", outputs, metric)
    payload = {"kind": "sweep", "runs": len(outputs),
               "failed": sum(1 for o in outputs if o.result is None)}
    if sweep is not None:
        payload["base"] = asdict(sweep.base)
        payload["rhos"] = list(sweep.rhos)
        payload["taus"] = None if sweep.taus is None else list(sweep.taus)
        payload["seeds"] = list(sweep.seeds)
    _manifest(outdir, payload)
