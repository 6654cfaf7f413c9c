"""Behaviour pin: six small runs and one sweep must write the golden CSVs
byte for byte.

Each run config goes through ``execute_run`` and ``write_run_outputs``, and its
``results.csv``, ``summary.csv`` and ``steps.csv`` must equal the files under
``tests/golden/<name>/``. The CSV pins write a generator run's stream with
``write_event_log``, shuffle its body rows by a fixed permutation (so file order
is not time order) and run it again as an ``"events"`` config, through
``read_event_log`` and the invoice filter. The sweep goes through ``execute_sweep``, serially and
with two worker processes, and ``write_sweep_outputs``; its ``results.csv``,
``summary.csv``, ``runs.csv`` and pivots must equal ``tests/golden/sweep-supermarket/``.
``manifest.json`` carries a timestamp and is not pinned.

The golden files change only on purpose. Regenerate them with

    PYTHONPATH=src python tests/test_golden.py --reason "why the bytes change"

The command refuses to run without a reason, writes it to
``tests/golden/REASON``, and the change that regenerates the files records
the same reason, with the largest numeric deviation, in CHANGES.md.
"""
from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from proxystream.logio import write_event_log
from proxystream.metrics import METRIC_NAMES
from proxystream.sweep import (
    RunOutput,
    execute_run,
    execute_sweep,
    generate_from_dict,
    run_config_from_dict,
    run_id_for,
    sweep_config_from_dict,
    write_run_outputs,
    write_sweep_outputs,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
PINNED_FILES = ("results.csv", "summary.csv", "steps.csv")

CONFIGS = {
    "supermarket-rls-rho8": {
        "use_case": "supermarket", "rho": 8, "tau": 3, "seed": 0,
        "t_start": 4, "t_end": 23,
        "generator": {"kind": "shopper", "n_entities": 1000, "horizon": 24, "seed": 1},
    },
    "supermarket-binned-random-rho4": {
        "use_case": "supermarket", "rho": 4, "tau": 3, "seed": 2,
        "t_start": 4, "t_end": 23, "partitioner": "random",
        "distance": "binned_euclidean",
        "generator": {"kind": "shopper", "n_entities": 800, "horizon": 24, "seed": 2},
    },
    # n_bins 3 makes some shoppers share a bin-center row, so k-medoids runs
    # its duplicate collapse and maps medoids back to first members
    "supermarket-binned-kmedoids-rho8": {
        "use_case": "supermarket", "rho": 8, "tau": 3, "seed": 0,
        "t_start": 4, "t_end": 16, "distance": "binned_euclidean", "n_bins": 3,
        "generator": {"kind": "shopper", "n_entities": 400, "horizon": 16, "seed": 6},
    },
    "supermarket-mlp-rho1": {
        "use_case": "supermarket", "rho": 1, "tau": 3, "seed": 0,
        "t_start": 4, "t_end": 16, "model": {"kind": "sgd_mlp"},
        "generator": {"kind": "shopper", "n_entities": 300, "horizon": 16, "seed": 3},
    },
    "paint-rho10": {
        "use_case": "paint_factory", "rho": 10, "seed": 0,
        "generator": {"kind": "invoice", "n_entities": 2000, "horizon": 60, "seed": 4},
    },
}

# CSV pin -> the generator run whose stream it writes, shuffles and reads back.
CSV_CONFIGS = {"paint-csv-rho10": "paint-rho10"}


SWEEP_NAME = "sweep-supermarket"
SWEEP = {"base": {"use_case": "supermarket", "tau": 3, "t_start": 4, "t_end": 12,
                  "generator": {"kind": "shopper", "n_entities": 300, "horizon": 12, "seed": 5}},
         "rhos": [1, 2], "seeds": [0, 1]}
SWEEP_FILES = ("results.csv", "summary.csv", "runs.csv", *(f"pivot_{m}.csv" for m in METRIC_NAMES))


def csv_config(name: str, workdir: Path) -> dict:
    """Write the stream of ``CSV_CONFIGS[name]`` to ``workdir`` with shuffled
    body rows and return a config that reads it back."""
    base = dict(CONFIGS[CSV_CONFIGS[name]])
    store, _ = generate_from_dict(base.pop("generator"))
    path = workdir / "events.csv"
    write_event_log(store, path)
    header, *rows = path.read_text().splitlines(keepends=True)
    order = np.random.default_rng(0).permutation(len(rows))
    path.write_text(header + "".join(rows[i] for i in order))
    return {**base, "events": str(path), "filter_cases": True,
            "time_format": "iso8601" if store.time_origin == "epoch_days" else "number"}


def write_outputs(name: str, outdir: Path) -> None:
    with tempfile.TemporaryDirectory() as workdir:
        data = csv_config(name, Path(workdir)) if name in CSV_CONFIGS else CONFIGS[name]
        cfg = run_config_from_dict(data)
        write_run_outputs(outdir, RunOutput(run_id_for(cfg), cfg, result=execute_run(cfg)))


def write_sweep(outdir: Path, jobs: int = 1) -> None:
    sweep = sweep_config_from_dict(SWEEP)
    write_sweep_outputs(outdir, execute_sweep(sweep, jobs=jobs), sweep)


def assert_golden(name: str, outdir: Path, filenames) -> None:
    for filename in filenames:
        got = (outdir / filename).read_bytes()
        want = (GOLDEN / name / filename).read_bytes()
        assert got == want, f"{name}/{filename} differs from the golden file"


@pytest.mark.parametrize("name", sorted(CONFIGS) + sorted(CSV_CONFIGS))
def test_outputs_match_golden_bytes(name, tmp_path):
    write_outputs(name, tmp_path)
    assert_golden(name, tmp_path, PINNED_FILES)


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_outputs_match_golden_bytes(jobs, tmp_path):
    write_sweep(tmp_path, jobs=jobs)
    assert_golden(SWEEP_NAME, tmp_path, SWEEP_FILES)


def regenerate(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Rewrite the golden CSVs of the behaviour pin.")
    parser.add_argument("--reason", default="",
                        help="why the pinned bytes change; required, and recorded in CHANGES.md")
    args = parser.parse_args(argv)
    if not args.reason.strip():
        parser.error("refusing to regenerate the golden files without --reason")
    for name in sorted(CONFIGS) + sorted(CSV_CONFIGS):
        outdir = GOLDEN / name
        write_outputs(name, outdir)
        (outdir / "manifest.json").unlink()
    write_sweep(GOLDEN / SWEEP_NAME)
    (GOLDEN / SWEEP_NAME / "manifest.json").unlink()
    (GOLDEN / "REASON").write_text(args.reason.strip() + "\n")
    print(f"wrote {len(CONFIGS) + len(CSV_CONFIGS)} golden runs and one sweep under {GOLDEN}; "
          "record the reason and the largest deviation in CHANGES.md")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
