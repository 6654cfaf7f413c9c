"""Command line front end.

Thin argparse wrappers over the library: generate synthetic streams, run one
configured pipeline, sweep a grid, estimate the mean-medoid gap, and filter
a procurement CSV down to usable invoice cases. Configs are JSON files; see
the README for their shapes.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .events import SchemaError
from .filtering import bpic19_log_schema, filter_invoice_cases
from .logio import read_event_log, write_event_log
from .clustering import mean_medoid_gap
from .models import check_int
from .sweep import (
    RunOutput,
    execute_run,
    generate_from_dict,
    load_run_config,
    load_sweep_config,
    run_id_for,
    write_run_outputs,
    write_sweep_outputs,
    execute_sweep,
)

logger = logging.getLogger(__name__)


def _add_common(parser: argparse.ArgumentParser, *, config: bool = False,
                seed: bool = True, out: bool = True) -> None:
    if config:
        parser.add_argument("--config", required=True, help="JSON config file")
    if seed:
        parser.add_argument("--seed", type=int, default=None,
                            help="override the config seed")
    if out:
        parser.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxystream",
        description="Streaming predictions on event streams via clustered proxies.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic event stream")
    _add_common(p, config=True)

    p = sub.add_parser("run", help="run one configured pipeline")
    _add_common(p, config=True)

    p = sub.add_parser("sweep", help="run a rho/tau/seed grid")
    _add_common(p, config=True, seed=False)
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    p = sub.add_parser("mean-medoid", help="Monte Carlo mean-medoid gap estimates")
    _add_common(p)
    p.add_argument("--n", default="5,10,20,50,100",
                   help="comma-separated sample sizes")
    p.add_argument("--d", default="2,5,10", help="comma-separated dimensions")
    p.add_argument("--samples", type=int, default=1000, help="draws per estimate")

    p = sub.add_parser("filter-bpic", help="filter a procurement CSV to usable invoice cases")
    p.add_argument("--input", required=True, help="source CSV")
    p.add_argument("--output", required=True, help="filtered CSV")
    p.add_argument("--report", default=None, help="write the filter report JSON here")
    p.add_argument("--entity-col", default="case")
    p.add_argument("--activity-col", default="activity")
    p.add_argument("--time-col", default="timestamp")
    return parser


def cmd_gen(args: argparse.Namespace) -> int:
    config = json.loads(Path(args.config).read_text())
    if args.seed is not None:
        config["seed"] = args.seed
    store, truth = generate_from_dict(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_event_log(store, out / "events.csv")
    truth.write_csv(out / "truth.csv")
    (out / "manifest.json").write_text(json.dumps({"kind": "gen", "config": config},
                                                  indent=2) + "\n")
    print(f"wrote {len(store)} events for {store.entity_count} entities to {out}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)
    if args.seed is not None:
        from dataclasses import replace
        cfg = replace(cfg, seed=args.seed)
    result = execute_run(cfg)
    out = RunOutput(run_id_for(cfg), cfg, result=result)
    write_run_outputs(args.out, out)
    averages = result.metrics.averages
    print(f"run {out.run_id}: "
          + ", ".join(f"{k}={v:.4f}" if v is not None else f"{k}=NA"
                      for k, v in averages.items()))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    sweep_cfg = load_sweep_config(args.config)
    outputs = execute_sweep(sweep_cfg, jobs=args.jobs)
    write_sweep_outputs(args.out, outputs, sweep_cfg)
    failed = [o for o in outputs if o.result is None]
    print(f"sweep: {len(outputs) - len(failed)} runs ok, {len(failed)} failed")
    return 1 if len(failed) == len(outputs) and outputs else 0


def cmd_mean_medoid(args: argparse.Namespace) -> int:
    ns = [int(x) for x in args.n.split(",") if x]
    ds = [int(x) for x in args.d.split(",") if x]
    for name, values in (("n", ns), ("d", ds), ("samples", [args.samples])):
        for value in values:
            check_int(name, value, 1)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for d in ds:
        for n in ns:
            gap = mean_medoid_gap(n, d, samples=args.samples,
                                  seed=args.seed if args.seed is not None else 0)
            rows.append((n, d, gap))
            print(f"n={n:>5} d={d:>3} gap={gap:.6f}")
    with (out / "mean_medoid.csv").open("w", newline="") as fh:
        fh.write("n,d,gap\n")
        for n, d, gap in rows:
            fh.write(f"{n},{d},{gap!r}\n")
    (out / "manifest.json").write_text(json.dumps(
        {"kind": "mean-medoid", "samples": args.samples,
         "seed": args.seed if args.seed is not None else 0}, indent=2) + "\n")
    return 0


def cmd_filter_bpic(args: argparse.Namespace) -> int:
    schema = bpic19_log_schema(entity_column=args.entity_col,
                               activity_column=args.activity_col,
                               time_column=args.time_col)
    store = read_event_log(args.input, schema)
    filtered, report = filter_invoice_cases(store)
    write_event_log(filtered, args.output)
    if args.report:
        report.write_json(args.report)
    print(json.dumps(report.as_dict(), indent=2))
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "run": cmd_run,
    "sweep": cmd_sweep,
    "mean-medoid": cmd_mean_medoid,
    "filter-bpic": cmd_filter_bpic,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, SchemaError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
