"""Tests for the sweep harness and the command line front end."""
from __future__ import annotations

import csv
import json
import logging
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxystream import sweep as sweep_mod
from proxystream.cli import main
from proxystream.filtering import bpic19_log_schema
from proxystream.logio import read_event_log
from proxystream.models import ModelSpec
from proxystream.sweep import (
    RunConfig,
    RunOutput,
    SweepConfig,
    execute_run,
    execute_sweep,
    expand_grid,
    generate_from_dict,
    run_config_from_dict,
    run_id_for,
    sweep_config_from_dict,
    write_run_outputs,
    write_sweep_outputs,
)


def tiny_generator(seed: int = 11, n_entities: int = 40) -> dict:
    return {"kind": "shopper", "n_entities": n_entities, "horizon": 12, "seed": seed}


def base_config(**overrides) -> RunConfig:
    data = {
        "use_case": "supermarket",
        "rho": 1,
        "tau": 2,
        "seed": 0,
        "t_start": 10,
        "t_end": 13,
        "generator": tiny_generator(),
    }
    data.update(overrides)
    return run_config_from_dict(data)


def read_rows(path: Path) -> list[list[str]]:
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture
def quiet_sweep_logger():
    """Keep intentionally-failed runs from spilling tracebacks into the log."""
    logger = logging.getLogger("proxystream.sweep")
    saved = logger.level
    logger.setLevel(logging.CRITICAL)
    yield
    logger.setLevel(saved)


# -- run config parsing ----------------------------------------------------

def test_run_config_defaults() -> None:
    cfg = run_config_from_dict({"generator": tiny_generator()})
    assert cfg.use_case == "supermarket"
    assert cfg.rho == 1
    assert cfg.tau == 3
    assert cfg.seed == 0
    assert cfg.partitioner == "kmedoids"
    assert cfg.model == ModelSpec()


def test_run_config_parses_nested_model() -> None:
    cfg = run_config_from_dict({
        "generator": tiny_generator(),
        "model": {"kind": "sgd_mlp", "hidden": 8, "learning_rate": 0.05},
    })
    assert cfg.model.kind == "sgd_mlp"
    assert cfg.model.hidden == 8
    assert cfg.model.learning_rate == 0.05


def test_run_config_validation() -> None:
    bad_configs = [
        {"generator": tiny_generator(), "mystery": 1},
        {"generator": tiny_generator(), "rho": 0},
        {"generator": tiny_generator(), "rho": "some"},
        {"generator": tiny_generator(), "rho": 1.5},
        {"generator": tiny_generator(), "rho": True},
        {"generator": tiny_generator(), "distance": "cosine"},
        {"generator": tiny_generator(), "distance": "binned_euclidean", "n_bins": 0},
        {"use_case": "paint_factory", "events": "x.csv", "time_format": "unix"},
        {"generator": tiny_generator(), "standardize": False},
        {"generator": tiny_generator(), "bypass_clustering": True},
        {"generator": tiny_generator(), "tau": None},
        {"generator": tiny_generator(), "tau": 1},
        {"generator": tiny_generator(), "tau": 2.5},
        {"generator": tiny_generator(), "use_case": "bakery"},
        {"generator": tiny_generator(), "partitioner": "spectral"},
        {"generator": tiny_generator(), "t_start": 4},
        {"generator": tiny_generator(), "t_start": -2, "t_end": 6},
        {"generator": tiny_generator(), "t_start": 9, "t_end": 4},
        {"generator": tiny_generator(), "t_start": 4, "t_end": 4},
        {"generator": tiny_generator(), "t_start": 4.0, "t_end": 8},
        {"generator": tiny_generator(), "t_start": True, "t_end": 8},
        {"generator": tiny_generator(), "max_iter": 0},
        {"generator": tiny_generator(), "max_iter": -3},
        {"generator": tiny_generator(), "max_iter": 2.5},
        {"generator": tiny_generator(), "max_iter": True},
        {"generator": tiny_generator(), "seed": -1},
        {"generator": tiny_generator(), "seed": True},
        {"generator": tiny_generator(), "seed": 1.0},
        {"generator": tiny_generator(), "distance": "binned_euclidean", "n_bins": True},
        {"generator": tiny_generator(), "events": "x.csv"},
        {"generator": 5},
        {"generator": "shopper"},
        {"events": 5},
        {"generator": tiny_generator(), "filter_cases": "false"},
        {},
        {"generator": tiny_generator(), "model": {"kind": "rls_linear", "depth": 3}},
        {"generator": tiny_generator(), "model": {"kind": "rls_linear", "input_width": 5}},
        {"generator": tiny_generator(), "model": 3},
        {"generator": tiny_generator(), "model": {"ridge": "x"}},
        {"generator": tiny_generator(), "model": {"ridge": float("nan")}},
        {"generator": tiny_generator(), "model": {"ridge": float("inf")}},
        {"generator": tiny_generator(), "model": {"kind": "sgd_mlp", "learning_rate": "fast"}},
        {"generator": tiny_generator(), "model": {"kind": "sgd_mlp", "epochs": 1.5}},
        {"generator": tiny_generator(), "model": {"kind": "sgd_mlp", "epochs": True}},
        {"generator": tiny_generator(), "model": {"hidden": 2.5}},
    ]
    for data in bad_configs:
        with pytest.raises(ValueError):
            run_config_from_dict(data)
    with pytest.raises(ValueError):
        expand_grid(SweepConfig(base=base_config(), rhos=(True, 2)))


def test_rho_all_token_accepted() -> None:
    cfg = base_config(rho="all")
    assert cfg.rho_token == "all"
    assert "rho-all" in run_id_for(cfg)


def test_paint_config_needs_no_tau() -> None:
    cfg = run_config_from_dict({
        "use_case": "paint_factory",
        "tau": None,
        "generator": {"kind": "invoice", "n_entities": 30, "seed": 2},
    })
    assert cfg.tau_token == ""


def test_run_id_composition() -> None:
    assert run_id_for(base_config(rho=2, tau=3, seed=4)) == "supermarket_rho-2_tau-3_seed-4"
    paint = run_config_from_dict({
        "use_case": "paint_factory",
        "rho": "all",
        "tau": None,
        "seed": 1,
        "generator": {"kind": "invoice", "n_entities": 30, "seed": 2},
    })
    assert run_id_for(paint) == "paint_factory_rho-all_seed-1"
    assert run_id_for(base_config(partitioner="random")).endswith("_random")
    assert run_id_for(
        base_config(model={"kind": "sgd_mlp"})
    ).endswith("_sgd_mlp")


# -- grid expansion --------------------------------------------------------

def test_supermarket_grid_expands_to_88_combinations() -> None:
    sweep = SweepConfig(
        base=base_config(),
        rhos=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
        taus=(2, 3, 4, 5, 6, 7, 8, 9),
        seeds=(0,),
    )
    configs = expand_grid(sweep)
    assert len(configs) == 88
    assert len({run_id_for(c) for c in configs}) == 88
    assert {c.tau for c in configs} == set(range(2, 10))


def test_paint_grid_expands_to_179_runs() -> None:
    sweep = SweepConfig(
        base=run_config_from_dict({
            "use_case": "paint_factory",
            "tau": None,
            "generator": {"kind": "invoice", "n_entities": 50, "seed": 1},
        }),
        rhos=tuple(range(1, 179)) + ("all",),
        seeds=(3,),
    )
    configs = expand_grid(sweep)
    assert len(configs) == 179
    assert configs[0].rho == 1
    assert configs[-1].rho == "all"
    assert all(c.tau_token == "" for c in configs)


def test_duplicate_rho_dedup_warns(caplog: pytest.LogCaptureFixture) -> None:
    sweep = SweepConfig(base=base_config(), rhos=(2, 2, 4), seeds=(0,))
    with caplog.at_level(logging.WARNING, logger="proxystream.sweep"):
        configs = expand_grid(sweep)
    assert [c.rho for c in configs] == [2, 4]
    assert any("duplicate rho" in rec.message for rec in caplog.records)


def test_duplicate_taus_collapse(caplog: pytest.LogCaptureFixture) -> None:
    sweep = SweepConfig(base=base_config(), rhos=(1,), taus=(3, 3, 2), seeds=(0,))
    with caplog.at_level(logging.WARNING, logger="proxystream.sweep"):
        assert [c.tau for c in expand_grid(sweep)] == [3, 2]
    assert any("duplicate tau" in rec.message for rec in caplog.records)


def test_duplicate_seeds_run_once(tmp_path: Path, caplog: pytest.LogCaptureFixture) -> None:
    sweep = SweepConfig(base=base_config(), rhos=(1,), seeds=(0, 0))
    with caplog.at_level(logging.WARNING, logger="proxystream.sweep"):
        outputs = execute_sweep(sweep)
    assert [o.config.seed for o in outputs] == [0]
    assert any("duplicate seed" in rec.message for rec in caplog.records)
    write_sweep_outputs(tmp_path, outputs, sweep)
    assert len(read_rows(tmp_path / "runs.csv")) == 2  # header and one run


def test_sweep_config_from_dict_defaults_to_base_values() -> None:
    sweep = sweep_config_from_dict({"base": {"generator": tiny_generator(), "rho": 4,
                                             "seed": 9, "tau": 2}})
    assert sweep.rhos == (4,)
    assert sweep.seeds == (9,)
    assert sweep.taus is None
    configs = expand_grid(sweep)
    assert len(configs) == 1
    assert configs[0].rho == 4 and configs[0].seed == 9 and configs[0].tau == 2
    with pytest.raises(ValueError):
        sweep_config_from_dict({"base": {"generator": tiny_generator()}, "sigma": 1})


@pytest.mark.parametrize("data", [
    [],
    {"base": 3},
    {"base": {"generator": tiny_generator()}, "rhos": 8},
    {"base": {"generator": tiny_generator()}, "rhos": None},
    {"base": {"generator": tiny_generator()}, "seeds": 0},
    {"base": {"generator": tiny_generator()}, "taus": 3},
    {"base": {"generator": tiny_generator()}, "rhos": []},
    {"base": {"generator": tiny_generator()}, "seeds": []},
    {"base": {"generator": tiny_generator()}, "taus": []},
    # paint-factory runs have no tau, so each tau would repeat the same run
    {"base": {"use_case": "paint_factory",
              "generator": {"kind": "invoice", "n_entities": 30, "seed": 2}},
     "taus": [2, 3]},
], ids=["top-level-list", "base-int", "rhos-int", "rhos-null", "seeds-int", "taus-int",
        "rhos-empty", "seeds-empty", "taus-empty", "paint-taus"])
def test_sweep_config_shape_validation(data) -> None:
    with pytest.raises(ValueError):
        sweep_config_from_dict(data)


# -- generator blocks ------------------------------------------------------

def test_generate_from_dict_is_deterministic() -> None:
    first, truth_a = generate_from_dict(tiny_generator())
    second, truth_b = generate_from_dict(tiny_generator())
    assert np.array_equal(first.times, second.times)
    assert np.array_equal(first.activity_codes, second.activity_codes)
    assert np.array_equal(truth_a.expected_spend, truth_b.expected_spend)


def test_generate_from_dict_rejects_bad_blocks() -> None:
    with pytest.raises(ValueError):
        generate_from_dict({"kind": "lottery"})
    with pytest.raises(ValueError):
        generate_from_dict({"kind": "shopper", "preset": "vintage"})
    with pytest.raises(ValueError):
        generate_from_dict({"kind": "shopper", "wheels": 4})
    with pytest.raises(ValueError, match="bad generator parameters"):
        generate_from_dict({"kind": "shopper", "preset": "noise_dominated",
                            "noise_scale": 1.0})
    with pytest.raises(ValueError):
        generate_from_dict({"kind": "shopper", "noise_scale": -1.0})


def test_invoice_generator_block() -> None:
    store, truth = generate_from_dict({"kind": "invoice", "n_entities": 30,
                                       "horizon": 20, "seed": 5})
    assert "Vendor creates invoice" in store.alphabet
    assert truth.durations.shape == (store.entity_count,)


# -- execution -------------------------------------------------------------

def test_execute_run_uses_half_open_step_window(tmp_path: Path) -> None:
    result = execute_run(base_config(t_start=10, t_end=13))
    assert [s.step for s in result.steps] == [10, 11, 12]
    out = RunOutput(run_id_for(base_config()), base_config(), result=result)
    write_run_outputs(tmp_path, out)
    rows = read_rows(tmp_path / "steps.csv")
    assert rows[0][0] == "step"
    assert [r[0] for r in rows[1:]] == ["10", "11", "12"]


def test_single_run_matches_same_point_inside_sweep(tmp_path: Path) -> None:
    cfg = base_config(rho=2, seed=1)
    alone = tmp_path / "alone"
    grid = tmp_path / "grid"
    write_run_outputs(alone, RunOutput(run_id_for(cfg), cfg, result=execute_run(cfg)))
    sweep = SweepConfig(base=cfg, rhos=(2,), seeds=(1,))
    write_sweep_outputs(grid, execute_sweep(sweep), sweep)
    assert (alone / "results.csv").read_bytes() == (grid / "results.csv").read_bytes()
    assert (alone / "summary.csv").read_bytes() == (grid / "summary.csv").read_bytes()


def test_run_output_files_are_byte_stable(tmp_path: Path) -> None:
    cfg = base_config(rho=2)
    first = tmp_path / "first"
    second = tmp_path / "second"
    for outdir in (first, second):
        write_run_outputs(outdir, RunOutput(run_id_for(cfg), cfg,
                                            result=execute_run(cfg)))
    for name in ("results.csv", "summary.csv", "steps.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    manifest = json.loads((first / "manifest.json").read_text())
    assert "created_utc" in manifest
    assert manifest["config"]["rho"] == 2


def test_sweep_records_failures_and_continues(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, quiet_sweep_logger
) -> None:
    real_execute = sweep_mod.execute_run

    def flaky(cfg: RunConfig, store=None):
        if cfg.seed == 7:
            raise RuntimeError("boom on seed 7")
        return real_execute(cfg, store=store)

    monkeypatch.setattr(sweep_mod, "execute_run", flaky)
    sweep = SweepConfig(base=base_config(), rhos=(1,), seeds=(0, 7))
    outputs = execute_sweep(sweep)
    assert [o.result is not None for o in outputs] == [True, False]
    assert "boom on seed 7" in outputs[1].error
    write_sweep_outputs(tmp_path, outputs, sweep)
    runs = read_rows(tmp_path / "runs.csv")
    assert runs[1][1] == "ok"
    assert runs[2][1] == "failed" and "boom on seed 7" in runs[2][2]
    results = read_rows(tmp_path / "results.csv")
    assert all(row[4] == "0" for row in results[1:])  # only the good seed


def test_sweep_shares_store_across_grid_points(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    real_load = sweep_mod.load_store_for

    def counting(cfg: RunConfig):
        # a file, not a list, so loads inside worker processes count too
        with log.open("a") as fh:
            fh.write(run_id_for(cfg) + "\n")
        return real_load(cfg)

    monkeypatch.setattr(sweep_mod, "load_store_for", counting)
    sweep = SweepConfig(base=base_config(), rhos=(1, 2), seeds=(0, 1))
    for jobs in (1, 2):
        log = tmp_path / f"loads-{jobs}.txt"
        outputs = execute_sweep(sweep, jobs=jobs)
        assert len(outputs) == 4 and all(o.result is not None for o in outputs)
        assert len(log.read_text().splitlines()) == 1


def test_failed_store_load_fails_every_run(
    monkeypatch: pytest.MonkeyPatch, quiet_sweep_logger
) -> None:
    def broken(cfg: RunConfig):
        raise OSError("disk gone")

    monkeypatch.setattr(sweep_mod, "load_store_for", broken)
    sweep = SweepConfig(base=base_config(), rhos=(1, 2), seeds=(0, 1))
    for jobs in (1, 2):
        outputs = execute_sweep(sweep, jobs=jobs)
        assert [o.run_id for o in outputs] == [run_id_for(c) for c in expand_grid(sweep)]
        assert all(o.result is None and "OSError: disk gone" in o.error for o in outputs)


def test_worker_pool_matches_serial_execution(tmp_path: Path) -> None:
    sweep = SweepConfig(base=base_config(), rhos=(1, 2), seeds=(0, 1))
    serial = tmp_path / "serial"
    pooled = tmp_path / "pooled"
    write_sweep_outputs(serial, execute_sweep(sweep, jobs=1), sweep)
    write_sweep_outputs(pooled, execute_sweep(sweep, jobs=2), sweep)
    assert (serial / "results.csv").read_bytes() == (pooled / "results.csv").read_bytes()
    assert (serial / "summary.csv").read_bytes() == (pooled / "summary.csv").read_bytes()


@settings(max_examples=5, deadline=None)
@given(rhos=st.lists(st.sampled_from([1, 2, "all"]), min_size=1, max_size=3, unique=True),
       taus=st.lists(st.sampled_from([2, 3]), min_size=1, max_size=2, unique=True),
       seeds=st.lists(st.sampled_from([0, 1]), min_size=1, max_size=2, unique=True),
       n_entities=st.integers(10, 300))
def test_serial_sweep_equals_pooled_sweep_on_random_grids(rhos, taus, seeds,
                                                          n_entities) -> None:
    sweep = SweepConfig(base=base_config(generator=tiny_generator(n_entities=n_entities)),
                        rhos=tuple(rhos), taus=tuple(taus), seeds=tuple(seeds))
    with tempfile.TemporaryDirectory() as tmp:
        serial, pooled = Path(tmp, "serial"), Path(tmp, "pooled")
        write_sweep_outputs(serial, execute_sweep(sweep, jobs=1), sweep)
        write_sweep_outputs(pooled, execute_sweep(sweep, jobs=2), sweep)
        names = sorted(p.name for p in serial.glob("*.csv"))
        assert names == sorted(p.name for p in pooled.glob("*.csv"))
        for name in names:
            assert (serial / name).read_bytes() == (pooled / name).read_bytes(), name


def test_full_capacity_memory_grid(tmp_path: Path) -> None:
    """An 11-value capacity list crossed with 8 memory depths yields 88 runs,
    hence 88 summary rows per metric for the seed."""
    sweep = SweepConfig(
        base=base_config(),
        rhos=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
        taus=(2, 3, 4, 5, 6, 7, 8, 9),
        seeds=(0,),
    )
    outputs = execute_sweep(sweep)
    assert len(outputs) == 88
    assert all(o.result is not None for o in outputs)
    write_sweep_outputs(tmp_path, outputs, sweep)
    summary = read_rows(tmp_path / "summary.csv")
    for metric in ("cluster_rmse", "entity_rmse", "top_decile_f1", "turnover_ape"):
        assert sum(1 for row in summary[1:] if row[6 - 1] == metric) == 88
    results = read_rows(tmp_path / "results.csv")
    assert len(results) - 1 == 88 * 3 * 4  # runs x steps x metrics
    pivot = read_rows(tmp_path / "pivot_cluster_rmse.csv")
    assert pivot[0] == ["tau", "1", "2", "4", "8", "16", "32", "64", "128",
                       "256", "512", "1024"]
    assert [row[0] for row in pivot[1:]] == ["2", "3", "4", "5", "6", "7", "8", "9"]


def test_pivot_averages_seeds_and_orders_all_last(tmp_path: Path) -> None:
    sweep = SweepConfig(base=base_config(), rhos=(2, 1, "all"), seeds=(0, 1))
    outputs = execute_sweep(sweep)
    write_sweep_outputs(tmp_path, outputs, sweep)
    pivot = read_rows(tmp_path / "pivot_entity_rmse.csv")
    assert pivot[0] == ["tau", "1", "2", "all"]
    summary = read_rows(tmp_path / "summary.csv")
    per_seed = [float(row[6]) for row in summary[1:]
                if row[2] == "2" and row[5] == "entity_rmse"]
    assert len(per_seed) == 2
    cell = float(pivot[1][2])
    assert cell == pytest.approx(float(np.mean(per_seed)), abs=1e-12)


# -- command line ----------------------------------------------------------

def write_json(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(data, indent=2))
    return path


def test_cli_gen_is_byte_deterministic(tmp_path: Path, capsys) -> None:
    cfg = write_json(tmp_path / "gen.json",
                     {"kind": "shopper", "n_entities": 60, "horizon": 8, "seed": 3})
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["gen", "--config", str(cfg), "--out", str(first)]) == 0
    assert main(["gen", "--config", str(cfg), "--out", str(second)]) == 0
    assert (first / "events.csv").read_bytes() == (second / "events.csv").read_bytes()
    assert (first / "truth.csv").read_bytes() == (second / "truth.csv").read_bytes()
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["kind"] == "gen"
    assert "60 entities" in capsys.readouterr().out


def test_cli_gen_seed_override(tmp_path: Path, capsys) -> None:
    cfg = write_json(tmp_path / "gen.json",
                     {"kind": "shopper", "n_entities": 40, "horizon": 8, "seed": 3})
    plain = tmp_path / "plain"
    overridden = tmp_path / "overridden"
    assert main(["gen", "--config", str(cfg), "--out", str(plain)]) == 0
    assert main(["gen", "--config", str(cfg), "--seed", "9",
                 "--out", str(overridden)]) == 0
    assert (plain / "events.csv").read_bytes() != (overridden / "events.csv").read_bytes()
    manifest = json.loads((overridden / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 9
    capsys.readouterr()


def test_cli_gen_rejects_invalid_noise(tmp_path: Path, capsys) -> None:
    cfg = write_json(tmp_path / "gen.json",
                     {"kind": "shopper", "n_entities": 40, "noise_scale": -1.0})
    out = tmp_path / "out"
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (out / "events.csv").exists()


def test_cli_run_writes_result_files(tmp_path: Path, capsys) -> None:
    cfg = write_json(tmp_path / "run.json", {
        "use_case": "supermarket", "rho": 2, "tau": 2, "seed": 1,
        "t_start": 10, "t_end": 13, "generator": tiny_generator(),
    })
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    results = read_rows(out / "results.csv")
    assert results[0] == ["run_id", "use_case", "rho", "tau", "seed",
                         "step", "metric", "value"]
    assert all(row[0] == "supermarket_rho-2_tau-2_seed-1" for row in results[1:])
    summary = read_rows(out / "summary.csv")
    assert [row[5] for row in summary[1:]] == [
        "cluster_rmse", "entity_rmse", "top_decile_f1", "turnover_ape"]
    assert "supermarket_rho-2_tau-2_seed-1" in capsys.readouterr().out


def test_cli_run_accepts_all_token(tmp_path: Path, capsys) -> None:
    cfg = write_json(tmp_path / "run.json", {
        "use_case": "supermarket", "rho": "all", "tau": 2, "seed": 0,
        "t_start": 10, "t_end": 12, "generator": tiny_generator(),
    })
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    results = read_rows(out / "results.csv")
    assert results[1][0] == "supermarket_rho-all_tau-2_seed-0"
    assert results[1][2] == "all"
    capsys.readouterr()


def test_cli_run_missing_events_fails_without_partial_output(
    tmp_path: Path, capsys
) -> None:
    cfg = write_json(tmp_path / "run.json", {
        "use_case": "supermarket", "tau": 3,
        "events": str(tmp_path / "no_such_events.csv"),
    })
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


def test_cli_sweep_end_to_end(tmp_path: Path, capsys) -> None:
    cfg = write_json(tmp_path / "sweep.json", {
        "base": {"use_case": "supermarket", "tau": 2, "t_start": 10, "t_end": 13,
                 "generator": tiny_generator()},
        "rhos": [1, 2],
        "taus": [2, 3],
        "seeds": [0],
    })
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert "4 runs ok, 0 failed" in capsys.readouterr().out
    runs = read_rows(out / "runs.csv")
    assert len(runs) - 1 == 4
    assert all(row[1] == "ok" for row in runs[1:])
    for metric in ("cluster_rmse", "entity_rmse", "top_decile_f1", "turnover_ape"):
        assert (out / f"pivot_{metric}.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["kind"] == "sweep" and manifest["runs"] == 4


@pytest.mark.parametrize("key", ["rhos", "seeds", "taus"])
def test_cli_sweep_rejects_an_empty_list(tmp_path: Path, capsys, key) -> None:
    cfg = write_json(tmp_path / "sweep.json", {
        "base": {"use_case": "supermarket", "tau": 2, "t_start": 10, "t_end": 13,
                 "generator": tiny_generator()},
        key: [],
    })
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"{key} must not be empty" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_rejects_a_job_count_below_one(tmp_path: Path, capsys) -> None:
    cfg = write_json(tmp_path / "sweep.json", {
        "base": {"use_case": "supermarket", "tau": 2, "t_start": 10, "t_end": 13,
                 "generator": tiny_generator()},
        "rhos": [1],
    })
    out = tmp_path / "out"
    for jobs in ("0", "-2"):
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 1
        assert "jobs must be an integer >= 1" in capsys.readouterr().err
        assert not out.exists()
    for jobs in (2.5, True):
        with pytest.raises(ValueError, match="jobs"):
            execute_sweep(sweep_mod.load_sweep_config(cfg), jobs=jobs)


def test_cli_sweep_reports_total_failure(tmp_path: Path, capsys,
                                         quiet_sweep_logger) -> None:
    cfg = write_json(tmp_path / "sweep.json", {
        "base": {"use_case": "supermarket", "tau": 3,
                 "events": str(tmp_path / "gone.csv")},
        "rhos": [1, 2],
    })
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert "2 failed" in capsys.readouterr().out
    runs = read_rows(out / "runs.csv")
    assert all(row[1] == "failed" for row in runs[1:])
    assert read_rows(out / "results.csv") == [list(sweep_mod.RESULT_COLUMNS)]


def test_cli_mean_medoid_table(tmp_path: Path, capsys) -> None:
    first = tmp_path / "first"
    second = tmp_path / "second"
    args = ["mean-medoid", "--n", "5,20", "--d", "2", "--samples", "500",
            "--seed", "2"]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert (first / "mean_medoid.csv").read_bytes() == \
        (second / "mean_medoid.csv").read_bytes()
    rows = read_rows(first / "mean_medoid.csv")
    assert rows[0] == ["n", "d", "gap"]
    gaps = {int(row[0]): float(row[2]) for row in rows[1:]}
    assert set(gaps) == {5, 20}
    assert gaps[20] < gaps[5]
    assert "n=    5" in capsys.readouterr().out


@pytest.mark.parametrize("flag, values, name", [
    ("--n", "0", "n"), ("--n", "5,0", "n"), ("--d", "2,-1", "d"), ("--samples", "0", "samples"),
])
def test_cli_mean_medoid_checks_arguments_before_writing(tmp_path: Path, capsys,
                                                         flag, values, name) -> None:
    out = tmp_path / "out"
    args = {"--n": "5", "--d": "2", "--samples": "10", flag: values}
    assert main(["mean-medoid", *(x for pair in args.items() for x in pair),
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert f"{name} must be an integer >= 1" in captured.err
    assert captured.out == ""  # no gap was computed before the check
    assert not out.exists()


INVOICE_FIXTURE_ATTRIBUTES = {
    "Company": "A Corp",
    "Document Type": "Standard",
    "GR-Based Inv. Verif.": "false",
    "Goods Receipt": "true",
    "Item Category": "3-way match",
    "Item Type": "Standard",
    "Spend area text": "Packaging",
    "Spend classification text": "NPR",
}


def write_invoice_fixture(path: Path) -> None:
    events = [
        ("c1", "Create Purchase Order Item", "2018-02-01T08:00:00Z"),
        ("c1", "Vendor creates invoice", "2018-02-03T09:00:00Z"),
        ("c1", "Record Invoice Receipt", "2018-02-05T10:00:00Z"),
        ("c2", "Vendor creates invoice", "2018-03-01T00:00:00Z"),
        ("c2", "Record Invoice Receipt", "2018-03-02T06:00:00Z"),
        ("c3", "Record Goods Receipt", "2018-06-10T01:00:00Z"),
        ("c3", "Vendor creates invoice", "2018-06-11T02:00:00Z"),
        ("c3", "Record Invoice Receipt", "2018-06-12T03:00:00Z"),
        ("c4", "Vendor creates invoice", "2018-04-01T00:00:00Z"),
        ("c4", "Vendor creates invoice", "2018-04-02T00:00:00Z"),
        ("c4", "Record Invoice Receipt", "2018-04-03T00:00:00Z"),
        ("c5", "Record Invoice Receipt", "2018-08-01T00:00:00Z"),
        ("c5", "Vendor creates invoice", "2018-08-02T00:00:00Z"),
    ]
    attr_names = list(INVOICE_FIXTURE_ATTRIBUTES)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["case", "activity", "timestamp", *attr_names])
        for case, activity, stamp in events:
            writer.writerow([case, activity, stamp,
                             *(INVOICE_FIXTURE_ATTRIBUTES[a] for a in attr_names)])


def test_cli_filter_invoice_cases(tmp_path: Path, capsys) -> None:
    source = tmp_path / "raw.csv"
    write_invoice_fixture(source)
    filtered = tmp_path / "filtered.csv"
    report_path = tmp_path / "report.json"
    assert main(["filter-bpic", "--input", str(source), "--output", str(filtered),
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["cases_in"] == 5
    assert report["cases_kept"] == 3
    assert report["events_kept"] == 8
    assert report["labels_kept"] == 4
    printed = json.loads(capsys.readouterr().out)
    assert printed == report
    # the filtered file is written in the normalised column layout
    store = read_event_log(filtered, bpic19_log_schema(entity_column="entity_id"))
    assert sorted(store.entity_ids) == ["c1", "c2", "c3"]
    assert store.entity_attribute("Goods Receipt").all()

    again = tmp_path / "filtered_again.csv"
    assert main(["filter-bpic", "--input", str(filtered), "--output", str(again),
                 "--entity-col", "entity_id"]) == 0
    assert again.read_bytes() == filtered.read_bytes()
    capsys.readouterr()


def test_cli_requires_valid_subcommand(capsys) -> None:
    with pytest.raises(SystemExit) as no_command:
        main([])
    assert no_command.value.code == 2
    with pytest.raises(SystemExit) as unknown:
        main(["explode"])
    assert unknown.value.code == 2
    with pytest.raises(SystemExit) as missing_config:
        main(["run"])
    assert missing_config.value.code == 2
    capsys.readouterr()
