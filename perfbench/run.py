"""proxystream benchmark: replay fixed event streams, check, and time them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload is a ``RunConfig`` dict
(written to ``perfbench/out/<workload>-seed<N>.config.json``, so
``proxystream run --config`` reproduces it) replayed through the public
entry points ``sweep.load_store_for`` and ``sweep.execute_run`` in a fresh
worker process with one BLAS thread. The load is a closed loop: one client
replays the stored stream as fast as ``run_stream`` consumes it; steps are
logical time, so throughput is reported at the stated input size.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
measured with tracing off. With ``--trace 1`` it carries per-layer metrics
from one traced set-up and one traced replay; spans go to
``perfbench/out/<workload>-seed<N>-spans.json``. Every replay is checked:
against ``reference.json`` at the reference seed, and against
seed-independent invariants always. A replay that raises or fails a check
counts in ``failed``.

``--write-reference`` stores the current outputs at ``--seed`` as the
reference for the workload instead of reporting metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CACHE = HERE / "cache"
REFERENCE = HERE / "reference.json"

# fixed for every worker; at most nproc on any machine this runs on
BLAS_THREADS = 1
# relative tolerance on metric averages against the reference
REFERENCE_REL_TOL = 1e-6
# The worker pools at least 100 step samples, so p90 always has ten or more
# beyond it. The percentile stays fixed: one that rose with the sample count
# would penalise a faster program, which fits more replays into a run.
TAIL_PERCENTILE = 90.0
CACHED_CSVS = 3
WORKER_TIMEOUT_S = 170.0

# One stream for the three supermarket workloads, so that each clustering
# mechanism has a workload that exercises it and one that bypasses it.
# Sizes keep one replay near 2 s on one core, so that a run pools several
# replays and at least 100 step samples.
SHOPPERS = 2000
# 500 invoices a day, near BPIC'19's average (171 517 invoices in a year)
INVOICES = 25_000
INVOICE_DAYS = 50.0
# Gower k-medoids on invoice batches sometimes cycles between medoid sets
# until max_iter. At the default of 100 one such call adds about a quarter
# to a replay, and a third of the seeds have one or two, which spreads
# run_s across seeds past any usable bound. Converging calls here take at
# most 7 rounds; non-convergence still shows in clustering.k_medoids.unconverged.
PAINT_MAX_ITER = 20


def _shop(rho, seed, model=None) -> dict:
    cfg = {
        "use_case": "supermarket", "rho": rho, "tau": 3, "seed": seed,
        "t_start": 4, "t_end": 29,
        "generator": {"kind": "shopper", "preset": "archetype",
                      "n_entities": SHOPPERS, "horizon": 30, "seed": seed},
    }
    if model is not None:
        cfg["model"] = {"kind": model}
    return cfg


def _paint(rho, seed) -> dict:
    ensure_invoice_csv(seed)
    return {"use_case": "paint_factory", "rho": rho, "seed": seed,
            "max_iter": PAINT_MAX_ITER,
            "events": invoice_csv(seed).relative_to(ROOT).as_posix(),
            "time_format": "number", "filter_cases": True}


WORKLOADS = {
    "shop-rho1-mlp": (
        "per-entity path: clustering takes the singleton shortcut and model updates lead; "
        "for ledger, metrics and model work, and the bypass case for every clustering change",
        lambda seed: _shop(1, seed, model="sgd_mlp")),
    "shop-rho2": (
        "assignment-bound k-medoids with an n x k Gram matrix each round; "
        "for assignment changes; 2-member clusters bypass medoid-update changes",
        lambda seed: _shop(2, seed)),
    "shop-rho1024": (
        "medoid-update-bound k-medoids over clusters of about 1000 members; for medoid-update "
        "changes; assignment against few medoids is cheap, so it bypasses assignment changes",
        lambda seed: _shop(1024, seed)),
    "paint-csv-rho8": (
        "the only workload that exercises logio, filtering, Gower distance and per-entity "
        "resolution, at a BPIC'19-like daily volume read from CSV",
        lambda seed: _paint(8, seed)),
}

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "predictions_per_s": "1/s",
    "step_ms.p50": "ms", "step_ms.tail": "ms", "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("ratio") or name.endswith("_per_call") or name.endswith("_per_entity"):
        return "ratio"
    return "count"


# -- inputs ------------------------------------------------------------------

def invoice_csv(seed: int) -> Path:
    return CACHE / f"invoices-n{INVOICES}-d{int(INVOICE_DAYS)}-seed{seed}.csv"


def ensure_invoice_csv(seed: int) -> None:
    """Write the seeded invoice stream as CSV, once per seed, outside timing."""
    path = invoice_csv(seed)
    if path.exists():
        os.utime(path)
        return
    sys.path.insert(0, str(SRC))
    from proxystream.logio import write_event_log
    from proxystream.sweep import generate_from_dict

    CACHE.mkdir(parents=True, exist_ok=True)
    store, _ = generate_from_dict({"kind": "invoice", "n_entities": INVOICES,
                                   "horizon": INVOICE_DAYS, "seed": seed})
    tmp = path.with_suffix(".tmp")
    write_event_log(store, tmp)
    os.replace(tmp, path)
    cached = sorted(CACHE.glob("invoices-*.csv"), key=lambda p: p.stat().st_mtime)
    for old in cached[:-CACHED_CSVS]:
        old.unlink()


# -- correctness gate -------------------------------------------------------

def check(summary: dict, cfg: dict, reference: dict | None) -> list[str]:
    """Problems with one replay's outputs; empty when it passes."""
    problems = []
    rho = cfg["rho"]
    for step, n_train, k_train, n_pred, k_pred, _ in summary["steps"]:
        for phase, n, k in (("train", n_train, k_train), ("pred", n_pred, k_pred)):
            want = 0 if n == 0 else 1 if rho == "all" else -(-n // rho)
            if k != want:
                problems.append(f"step {step} {phase}: k={k} for n={n}, want {want}")
    predicted = sum(s[3] for s in summary["steps"] if s[5])
    if summary["predictions"] != predicted:
        problems.append(f"{summary['predictions']} predictions, steps predicted {predicted}")
    for name, value in summary["metrics"].items():
        if value != "NA" and not math.isfinite(value):
            problems.append(f"{name} is {value}")
    if reference is None:
        return problems
    for key in ("predictions", "unresolved", "steps"):
        if summary[key] != reference[key]:
            problems.append(f"{key} differs from the reference")
    for name, want in reference["metrics"].items():
        got = summary["metrics"].get(name)
        if (want == "NA") != (got == "NA"):
            problems.append(f"{name}: {got}, reference {want}")
        elif want != "NA" and abs(got - want) > REFERENCE_REL_TOL * abs(want):
            problems.append(f"{name}: {got!r}, reference {want!r}")
    return problems


def load_reference(name: str, seed: int) -> dict | None:
    if not REFERENCE.exists():
        return None
    ref = json.loads(REFERENCE.read_text()).get(name)
    return ref if ref is not None and ref["seed"] == seed else None


def store_reference(name: str, seed: int, summary: dict) -> None:
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    refs[name] = {"seed": seed, **summary}
    body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                      for k, v in sorted(refs.items()))
    REFERENCE.write_text("{\n" + body + "\n}\n")


# -- metrics -----------------------------------------------------------------

def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(data: dict, predictions: int) -> tuple[dict, dict]:
    run_s = statistics.median(data["run_s"])
    steps = sorted(data["step_intervals_ms"])
    metrics = {
        "setup_s": statistics.median(data["setup_s"]),
        "run_s": run_s,
        "predictions_per_s": predictions / run_s,
        "step_ms.p50": percentile(steps, 50.0),
        "step_ms.tail": percentile(steps, TAIL_PERCENTILE),
        "peak_rss_mb": data["peak_rss_mb"],
    }
    notes = {"step_samples": len(steps), "tail_percentile": TAIL_PERCENTILE,
             "replays": len(data["run_s"]), "setup_repeats": len(data["setup_s"]),
             "run_s_all": data["run_s"], "setup_s_all": data["setup_s"]}
    return metrics, notes


def bottleneck_shares(trace: dict) -> dict:
    layers = trace["layers"]
    run_s, setup_s = trace["run_s"], trace["setup_s"]
    shares = {name[:-2]: value / run_s for name, value in layers.items()
              if name.endswith(".s") and not name.startswith(("logio", "filtering", "synthetic"))}
    for name in ("logio.read_event_log", "filtering.filter_invoice_cases", "synthetic.generate"):
        shares[f"{name} of setup"] = layers[f"{name}.s"] / setup_s
    return {"traced_run_s": run_s, "traced_setup_s": setup_s,
            "share_of_run_s": {k: round(v, 4) for k, v in shares.items()}}


# -- entry point -------------------------------------------------------------

def run_worker(cfg_path: Path, seconds: float, trace: int, spans: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), str(cfg_path),
           "--seconds", str(seconds), "--trace", str(trace), "--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="proxystream benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this seed's outputs as the reference")
    args = parser.parse_args(argv)

    if not (SRC / "proxystream" / "__init__.py").is_file():
        print(f"error: no proxystream sources under {SRC}", file=sys.stderr)
        return 2
    name, seed = args.workload, args.seed
    why, make_config = WORKLOADS[name]
    OUT.mkdir(parents=True, exist_ok=True)
    cfg = make_config(seed)
    stem = f"{name}-seed{seed}"
    cfg_path = OUT / f"{stem}.config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1) + "\n")

    try:
        data = run_worker(cfg_path, args.seconds, args.trace, OUT / f"{stem}-spans.json")
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.write_reference:
        if data["failed"] or not data["summaries"]:
            print(f"error: replay failed: {data['errors']}", file=sys.stderr)
            return 1
        store_reference(name, seed, data["summaries"][0])
        print(f"reference for {name} at seed {seed} written to {REFERENCE}")
        return 0

    reference = load_reference(name, seed)
    problems = []
    failed = data["failed"]
    for i, summary in enumerate(data["summaries"]):
        found = check(summary, cfg, reference)
        if summary != data["summaries"][0]:
            found.append("outputs differ from the first replay")
        failed += bool(found)
        problems.extend(f"replay {i}: {p}" for p in found)
    attempted = data["attempted"]

    report = {"workload": name, "seed": seed, "why": why, "config": cfg,
              "provenance": data["provenance"],
              "checked_against": "reference and invariants" if reference else "invariants",
              "problems": problems, "errors": data["errors"]}
    metrics: dict = {}
    if data["run_s"]:
        predictions = data["summaries"][0]["predictions"]
        e2e, notes = end_to_end(data, predictions)
        report.update(notes)
        if args.trace:
            report["trace"] = bottleneck_shares(data["trace"])
            metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                       for k, v in data["trace"]["layers"].items()}
        else:
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    report["failed_share"] = failed / attempted if attempted else 1.0
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
