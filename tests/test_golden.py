"""Behaviour pin: four small runs must write the golden CSVs byte for byte.

Each config goes through ``execute_run`` and ``write_run_outputs``; the
run's ``results.csv``, ``summary.csv`` and ``steps.csv`` are compared with
the files under ``tests/golden/<name>/``. ``manifest.json`` carries a
timestamp and is not pinned.

The golden files change only on purpose. Regenerate them with

    PYTHONPATH=src python tests/test_golden.py --reason "why the bytes change"

The command refuses to run without a reason, writes it to
``tests/golden/REASON``, and the change that regenerates the files records
the same reason, with the largest numeric deviation, in CHANGES.md.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import pytest

from proxystream.sweep import (
    RunOutput,
    execute_run,
    run_config_from_dict,
    run_id_for,
    write_run_outputs,
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


def write_outputs(name: str, outdir: Path) -> None:
    cfg = run_config_from_dict(CONFIGS[name])
    write_run_outputs(outdir, RunOutput(run_id_for(cfg), cfg, result=execute_run(cfg)))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_golden_bytes(name, tmp_path):
    write_outputs(name, tmp_path)
    for filename in PINNED_FILES:
        got = (tmp_path / filename).read_bytes()
        want = (GOLDEN / name / filename).read_bytes()
        assert got == want, f"{name}/{filename} differs from the golden file"


def regenerate(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Rewrite the golden CSVs of the behaviour pin.")
    parser.add_argument("--reason", default="",
                        help="why the pinned bytes change; required, and recorded in CHANGES.md")
    args = parser.parse_args(argv)
    if not args.reason.strip():
        parser.error("refusing to regenerate the golden files without --reason")
    for name in sorted(CONFIGS):
        outdir = GOLDEN / name
        write_outputs(name, outdir)
        (outdir / "manifest.json").unlink()
    (GOLDEN / "REASON").write_text(args.reason.strip() + "\n")
    print(f"wrote {len(CONFIGS)} golden runs under {GOLDEN}; "
          "record the reason and the largest deviation in CHANGES.md")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
