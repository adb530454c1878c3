"""Tests of the benchmark itself on a tiny workload.

Run from the checkout root with ``python -m pytest perfbench/tests``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import layers  # noqa: E402
import nfgopt  # noqa: E402
import run  # noqa: E402

# computed in run.py from the whole traced run rather than from one sweep
RUN_LEVEL_LAYER_METRICS = {"nfg.success_pct", "trace.overhead_s", "bench.pool.efficiency"}


def tiny_session(tmp_path, workload="narrow_passage"):
    base = json.loads((ROOT / "configs" / "narrow_passage.json").read_text())
    raw = harness.workload_config(workload, 0, base, str(tmp_path / "out"))
    raw["seeds"] = raw["seeds"][:2]
    for method in raw["methods"]:
        method["iterations"] = 3
    return run.Session(nfgopt, nfgopt.parse_config(raw), raw["output_dir"])


def test_seed_zero_is_the_packaged_seed_list_and_others_are_held_out():
    assert harness.sweep_seeds(0) == [0, 1, 2, 3, 4]
    assert not set(harness.sweep_seeds(0)) & set(harness.sweep_seeds(1))


def test_blas_threads_cannot_be_pinned_once_numpy_is_loaded():
    with pytest.raises(RuntimeError):
        harness.pin_blas_threads()


def test_records_identical_with_tracing_on_and_off(tmp_path):
    session = tiny_session(tmp_path)
    session.sweep()
    _, _, traced = session.sweep(layers.layer_sites(), rel_tol=0.0)
    assert traced.failures == []
    assert traced.fingerprint == session.fingerprint


def test_every_layer_span_records_a_call(tmp_path):
    session = tiny_session(tmp_path)
    _, tracer, _ = session.sweep(layers.layer_sites())
    spans = tracer.summary()
    for name, _, _ in layers.layer_sites():
        assert spans.get(name, {}).get("calls", 0) >= 1, name
    metrics = layers.layer_metrics(tracer, session.out_dir, session.cfg.seeds)
    # Exact counts catch a binding left unwrapped: 2 seeds x 3 iterations x
    # B=100 rows for each sampling method (nfg, stomp, mppi); nfg and stomp
    # score their batches, chomp scores 1 row per iteration and each of the
    # 8 runs scores 1 warm-up row; nfg checks feasibility once per iteration
    # and every run's success is checked once.
    assert metrics["sampling.normals.rows"] == 3 * 2 * 3 * 100
    assert metrics["environment.batch_scores.rows"] == 2 * 2 * 3 * 100 + 2 * 3 + 8
    assert metrics["environment.penetration_profile.calls"] == 2 * 3 + 8
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(metrics) == declared - RUN_LEVEL_LAYER_METRICS
    assert all(np.isfinite(value) for value in metrics.values())


def test_wrappers_are_removed_after_a_traced_sweep(tmp_path):
    session = tiny_session(tmp_path)
    session.sweep(layers.layer_sites())
    for _, _, bindings in layers.layer_sites():
        for owner, attr in bindings:
            assert not hasattr(getattr(owner, attr), "__wrapped__"), f"{owner.__name__}.{attr}"


def test_output_check_flags_a_tampered_final_trajectory(tmp_path):
    session = tiny_session(tmp_path)
    _, _, clean = session.sweep()
    assert clean.failures == []
    assert not any(r.success for r in clean.records if r.method == "nfg")

    out = Path(session.out_dir)
    grid = session.cfg.grid
    # a path threading every box of the narrow passage, so the recheck
    # contradicts the record's success=false
    clear_path = out / "nfg" / "0" / "final_trajectory.csv"
    times, _ = nfgopt.read_trajectory_csv(str(clear_path))
    threaded = np.where((times >= 0.15) & (times <= 0.65), -3.0, 0.0)
    nfgopt.write_trajectory_csv(nfgopt.Trajectory(grid, threaded[:, None]), str(clear_path))
    moved_start = out / "stomp" / "1" / "final_trajectory.csv"
    times, values = nfgopt.read_trajectory_csv(str(moved_start))
    values[0, 0] = 0.5
    nfgopt.write_trajectory_csv(nfgopt.Trajectory(grid, values), str(moved_start))

    check = harness.check_sweep(nfgopt, session.cfg, session.out_dir, session.reference)
    flagged = sorted(failure.split(":")[0] for failure in check.failures)
    assert flagged == ["nfg/0", "stomp/1"]
