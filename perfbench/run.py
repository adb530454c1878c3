"""Benchmark of nfgopt's seeded method x seed sweep.

    python3 perfbench/run.py --workload narrow_passage [--seed 0] [--seconds 50] [--trace 0]

The program is imported from the ``src`` of the checkout holding this
script. Each run first makes one untimed warm-up sweep whose records are the
reference every later sweep of the run must reproduce.

``--trace 0`` times whole sweeps with tracing off for ``--seconds`` and
reports the end-to-end metrics of BENCHMARK.json. ``--trace 1`` alternates
untraced and traced serial sweeps for ``--seconds``, then times one sweep
with ``parallel=2``, and reports the per-layer metrics. A sweep or round
that would end past ``--seconds`` is not started. BLAS runs single-threaded.

Prints a report, then as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; each metric value is
the median of its samples in the run. An exception raised by the program
ends the run with a traceback and a non-zero exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import harness
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = ROOT / "configs" / "narrow_passage.json"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 15
TIMED_METHODS = ("nfg", "stomp", "mppi")  # chomp's runs are too short to time alone
POOL_WORKERS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="0 gives the packaged seeds 0-4")
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def load_program():
    """Import nfgopt from this checkout's src, and nowhere else."""
    src = ROOT / "src"
    for needed in (src / "nfgopt" / "__init__.py", CONFIG, SPEC):
        if not needed.is_file():
            raise SystemExit(f"error: {needed} is missing; run inside an nfgopt checkout")
    sys.path.insert(0, str(src))
    import nfgopt

    if Path(nfgopt.__file__).resolve().parent != (src / "nfgopt").resolve():
        raise SystemExit(f"error: imported nfgopt from {nfgopt.__file__}, not from {src}")
    return nfgopt


class Session:
    """Sweeps of one workload config, each checked against the first."""

    def __init__(self, nfgopt, cfg, out_dir: str) -> None:
        self.nfgopt = nfgopt
        self.cfg = cfg
        self.out_dir = out_dir
        self.reference = None
        self.fingerprint = None
        self.attempted = 0
        self.failures: list[str] = []

    def sweep(self, sites=(), parallel: int = 1, rel_tol: float = harness.REL_TOL):
        """Run, time and check one sweep with ``sites`` traced.

        Returns (seconds, tracer, check). The first sweep becomes the
        reference records of the session.
        """
        tracer = layers.Tracer()
        with layers.installed(tracer, sites):
            seconds = harness.timed_sweep(self.nfgopt, self.cfg, self.out_dir, parallel)
        check = harness.check_sweep(self.nfgopt, self.cfg, self.out_dir, self.reference, rel_tol)
        self.attempted += check.attempted
        self.failures += check.failures
        if self.reference is None:
            self.reference = check.records
            self.fingerprint = check.fingerprint
        return seconds, tracer, check


def measure_end_to_end(session: Session, seconds: int, config_path: str) -> dict[str, list[float]]:
    session.sweep()  # warm-up
    sweeps: list[float] = []
    per_method: dict[str, list[float]] = {m: [] for m in TIMED_METHODS}
    setup: list[float] = []
    start = time.perf_counter()
    while not sweeps or time.perf_counter() - start + sweeps[-1] <= seconds:
        took, tracer, check = session.sweep(layers.run_timer_sites())
        sweeps.append(took)
        for method in TIMED_METHODS:
            per_method[method].append(tracer.counts[f"run_s.{method}"])
        # spread over the run, so one slow stretch of the machine moves few of them
        if len(setup) < SETUP_REPEATS:
            setup.append(harness.setup_seconds(str(ROOT / "src"), config_path))
    setup += [harness.setup_seconds(str(ROOT / "src"), config_path) for _ in range(SETUP_REPEATS - len(setup))]
    # serial sweeps start no worker processes, so the process's own peak is the total
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": setup,
        "sweep_s": sweeps,
        **{f"sweep_s.{m}": values for m, values in per_method.items()},
        "peak_rss_mb": [peak_mb],
        "clear_pct.nfg": [100.0 * check.nfg_clear_points / check.nfg_points],
    }


def measure_layers(session: Session, seconds: int) -> dict[str, list[float]]:
    session.sweep()  # warm-up
    untraced: list[float] = []
    traced: list[float] = []
    per_sweep: list[dict] = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start + untraced[-1] + traced[-1] <= seconds:
        untraced.append(session.sweep(layers.run_timer_sites())[0])
        took, tracer, _ = session.sweep(layers.layer_sites(), rel_tol=0.0)
        traced.append(took)
        per_sweep.append(layers.layer_metrics(tracer, session.out_dir, session.cfg.seeds))
    pooled = session.sweep(parallel=POOL_WORKERS)[0]
    samples = {name: [m[name] for m in per_sweep] for name in per_sweep[0]}
    nfg_runs = [r.success for r in session.reference if r.method == "nfg"]
    samples["nfg.success_pct"] = [100.0 * sum(nfg_runs) / len(nfg_runs)]
    # paired within a round, so drift in machine speed between rounds cancels
    samples["trace.overhead_s"] = [statistics.median(t - u for t, u in zip(traced, untraced))]
    samples["bench.pool.efficiency"] = [statistics.median(untraced) / (POOL_WORKERS * pooled)]
    return samples


def report(args, session: Session, facts: dict, samples: dict[str, list[float]], units: dict[str, str]) -> None:
    if set(samples) != set(units):
        raise SystemExit(f"error: measured {sorted(samples)} but BENCHMARK.json lists {sorted(units)}")
    print(f"workload {args.workload}  seeds {list(session.cfg.seeds)}  trace {args.trace}  seconds {args.seconds}")
    print(json.dumps({"machine": facts, "records_fingerprint": session.fingerprint}))
    for name in units:
        d = harness.describe(samples[name])
        print(f"  {name:<42} {d['median']:>14.6g} {units[name]:<6} {d['upper_label']} {d['upper']:.6g}  n={d['n']}")
    for failure in session.failures[:20]:
        print(f"  FAILED {failure}")
    result = {
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "metrics": {
            name: {"value": statistics.median(samples[name]), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))


def main(argv=None) -> None:
    args = parse_args(argv)
    harness.pin_blas_threads()
    nfgopt = load_program()
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        raw = harness.workload_config(args.workload, args.seed, json.loads(CONFIG.read_text()), str(work / "out"))
        config_path = work / "config.json"
        config_path.write_text(json.dumps(raw))
        session = Session(nfgopt, nfgopt.parse_config(raw), raw["output_dir"])
        if args.trace:
            samples = measure_layers(session, args.seconds)
        else:
            samples = measure_end_to_end(session, args.seconds, str(config_path))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(args, session, harness.machine_facts(nfgopt), samples, units)


if __name__ == "__main__":
    main()
