"""Byte pin of the three supermarket benchmark workloads, of both trivial
partitions and of one Gower-clustered paint factory stream at seed 0.

The golden configs hold no cluster of more than 512 members, so they never
reach the multi-tile medoid update; ``shop-rho1024`` sums clusters of up to
1 904 members in tiles. This test runs the benchmark's supermarket configs
(2 000 archetype shoppers, steps 4-28, rho 1 with the MLP, rho 2 and rho
1024) through ``execute_run`` and pins the sha256 of ``ledger.records`` and
of the ``steps.csv`` rows, so an exact kernel rewrite must keep every bit of
every prediction. The configs are written out here rather than imported, so
that the pin does not move with the benchmark's own files. Two RLS cases pin
the ends of the rho range, where the partition is known before any distance:
rho 1 (every shopper its own cluster) and rho "all" (one cluster).

The paint factory case clusters invoices under Gower's mixed-type
dissimilarity at ``paint-csv-rho8``'s daily volume: 5 000 synthetic invoices
over 10 days, 500 a day, rho 8 and ``max_iter`` 20. Its invoice clusters come
in many sizes, most of them small, so it pins every bit of the Gower medoid
update, which no supermarket case reaches.

The hashes were recorded with numpy 2.4.6 on scipy-openblas 0.3.31; another
BLAS build may round the Gram products differently and move them, as it
would move the golden files.
"""
from __future__ import annotations

import hashlib
from dataclasses import astuple

import numpy as np
import pytest

from proxystream.sweep import execute_run, run_config_from_dict


def _shop(rho: int | str, model: str | None = None) -> dict:
    cfg = {"use_case": "supermarket", "rho": rho, "tau": 3, "seed": 0,
           "t_start": 4, "t_end": 29,
           "generator": {"kind": "shopper", "preset": "archetype",
                         "n_entities": 2000, "horizon": 30, "seed": 0}}
    if model is not None:
        cfg["model"] = {"kind": model}
    return cfg


# name -> (config, sha256 of ledger.records bytes, sha256 of the int64 steps rows)
PINS = {
    "shop-rho1-mlp": (
        _shop(1, "sgd_mlp"),
        "54961add552bff5a85df8b5a47987cfd3b6cc12ab37ec644969c1683a44adc11",
        "ea8d1523f25b75560ce9d54bdc9c4cb3d319cf2d2f455e08221446ad14059d40"),
    "shop-rho2": (
        _shop(2),
        "af5d6c9e377ee5c0bc72525fc201e4939f12447ebbec2491485cc3b6ab178bfa",
        "b53425d84da6760a35963458b3b7c3686111e3178f18b2794d862dd05d43b7e8"),
    "shop-rho1024": (
        _shop(1024),
        "d5e915be3a5aa4bf0cd56a6dd7e617225c40c89917be35bea81f49840360e71a",
        "7c7f9b8c75a468ee2af636979c9e76cd3e7f713a6b0753350cf898514328118b"),
    "shop-rho1-rls": (
        _shop(1),
        "4ebc98fed7cf02ff9124cd13e9bbc3896a8c6824c7a08f53785eca4192171d2f",
        "ea8d1523f25b75560ce9d54bdc9c4cb3d319cf2d2f455e08221446ad14059d40"),
    "shop-rhoall-rls": (
        _shop("all"),
        "1804736f71f4f6e113ba0778a647649fe5291e20fb645b917a61737f9af85986",
        "1ef105b7a8ab3c57a381c18da71ba435846de53e0af7c384d3b4b9bd8257eb18"),
}


# sha256 of ledger.records bytes and of the int64 steps rows
PAINT = (
    {"use_case": "paint_factory", "rho": 8, "seed": 0, "max_iter": 20,
     "generator": {"kind": "invoice", "n_entities": 5000, "horizon": 10, "seed": 0}},
    "59dca11b41d712972caa5c82775d51bdd591e40c07eef2b77c9f90d91a180a26",
    "9e0daae84e0a6fe83d3b89bea4efac2ffa0d50db6b8eb0a9c305158ee7233973")


def _digests(cfg: dict) -> tuple[str, str]:
    result = execute_run(run_config_from_dict(cfg))
    steps = np.array([tuple(map(int, astuple(s))) for s in result.steps], dtype=np.int64)
    return (hashlib.sha256(result.ledger.records.tobytes()).hexdigest(),
            hashlib.sha256(steps.tobytes()).hexdigest())


@pytest.mark.parametrize("name", sorted(PINS))
def test_supermarket_workload_keeps_its_bytes(name):
    cfg, records, steps = PINS[name]
    assert _digests(cfg) == (records, steps)


def test_gower_paint_workload_keeps_its_bytes():
    cfg, records, steps = PAINT
    assert _digests(cfg) == (records, steps)
