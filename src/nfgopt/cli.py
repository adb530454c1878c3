"""Command-line entry point.

Subcommands:

* ``bench run --config cfg.json [--out DIR] [--parallel N]``
* ``bench evaluate --path waypoints.csv --env PRESET --horizon S --rate HZ [--angular]``
* ``bench summarize --records records.csv``

Exit codes: 0 on completion, 2 on configuration or input errors, 3 when a
run fails unexpectedly.
"""

from __future__ import annotations

import argparse
import sys

from . import bench as bench_mod
from .environment import ScoreConfig, load_preset
from .errors import ConfigError, DegeneratePathError
from .trajectory import TimeGrid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUN_FAILURE = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Seeded trajectory-optimization benchmark on box environments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run every configured (method, seed) pair")
    run_p.add_argument("--config", required=True, help="benchmark config JSON")
    run_p.add_argument("--out", default=None, help="output directory (overrides config)")
    run_p.add_argument("--parallel", type=int, default=1, help="worker processes (default 1)")

    eval_p = sub.add_parser("evaluate", help="score an external waypoint CSV")
    eval_p.add_argument("--path", required=True, help="waypoint CSV, one value per row")
    eval_p.add_argument("--env", required=True, help="environment preset name")
    eval_p.add_argument("--horizon", type=float, required=True, help="duration in seconds")
    eval_p.add_argument("--rate", type=float, required=True, help="grid rate in Hz")
    eval_p.add_argument("--angular", action="store_true", help="unwrap the values as angles (radians)")

    sum_p = sub.add_parser("summarize", help="aggregate a records.csv into a summary table")
    sum_p.add_argument("--records", required=True, help="records.csv from a previous run")
    sum_p.add_argument("--out", default=None, help="also write summary.csv here")
    return parser


def _cmd_run(args) -> int:
    cfg = bench_mod.load_config(args.config)
    out_dir = args.out if args.out is not None else cfg.output_dir
    records = bench_mod.run_benchmark(cfg, parallel=args.parallel, out_dir=out_dir)
    print(bench_mod.format_summary(bench_mod.aggregate(records)))
    print(f"\n{len(records)} runs written to {out_dir}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    env = load_preset(args.env)
    grid = TimeGrid(args.horizon, args.rate)
    result = bench_mod.evaluate_external(args.path, env, grid, ScoreConfig(), angular=args.angular)
    print(f"source:       {result.source}")
    print(f"success:      {'true' if result.success else 'false'}")
    print(f"score:        {result.score:.6g}")
    print(f"path_length:  {result.path_length:.6g}")
    if result.avg_jerk is not None:
        print(f"avg_jerk:     {result.avg_jerk:.6g}")
    if result.first_collision_time is not None:
        print(f"first_collision_t: {result.first_collision_time:.6g}")
    return EXIT_OK


def _cmd_summarize(args) -> int:
    records = bench_mod.read_records_csv(args.records)
    rows = bench_mod.aggregate(records)
    print(bench_mod.format_summary(rows))
    if args.out is not None:
        bench_mod.write_summary_csv(args.out, rows)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "evaluate": _cmd_evaluate, "summarize": _cmd_summarize}
    try:
        return handlers[args.command](args)
    except (ConfigError, DegeneratePathError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary maps crashes to exit 3
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE


if __name__ == "__main__":
    sys.exit(main())
