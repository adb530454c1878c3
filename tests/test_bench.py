import copy
import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import types
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

from nfgopt.baselines import ChompConfig, MppiConfig, StompConfig
from nfgopt.bench import (
    REG_SCALE,
    TRACE_FIELDS,
    BenchConfig,
    MethodSpec,
    RunRecord,
    aggregate,
    derive_seed,
    evaluate_external,
    format_summary,
    parse_config,
    read_records_csv,
    run_benchmark,
    run_single,
    write_records_csv,
    write_summary_csv,
    write_trace_csv,
)
from nfgopt.cli import main
from nfgopt.environment import BoxObstacle, ScoreConfig, load_preset, penetration_profile
from nfgopt.errors import ConfigError, DegeneratePathError, NonFiniteStepError
from nfgopt.nfg import IterationTrace, NfgConfig
from nfgopt.sampling import SEKernel, factorize, kernel_matrix
from nfgopt.trajectory import TimeGrid, read_csv, read_trajectory_csv

ROOT = Path(__file__).resolve().parents[1]

MINI_RAW = {
    "environment": "narrow-passage-v1",
    "grid": {"horizon_seconds": 0.3, "rate_hz": 100.0},
    "kernel": {"variance": 0.29, "length_scale": 0.1},
    "seeds": [0, 1],
    "methods": [
        {"name": "nfg", "sigma": 1.0, "batch": 10, "iterations": 5, "step_size": 0.4},
        {"name": "chomp", "iterations": 3, "step": 0.02},
    ],
}


def mini_config():
    return parse_config(copy.deepcopy(MINI_RAW))


# What importing nfgopt and scoring leave unloaded: the sampler's RNG (with
# the hashing it pulls in), derive_seed's hashing and the CSV readers' module.
LAZY_MODULES = ("numpy.random", "secrets", "hashlib", "csv")


def run_probe(code: str, *args: str) -> str:
    """Stripped stdout of ``code`` run with ``args`` in a fresh interpreter importing nfgopt from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True)
    return done.stdout.strip()


# One config that reaches every config dataclass: the top level, grid,
# kernel, score, one box and each of the four methods.
FULL_RAW = {
    "environment": [{"t_lo": 0.1, "t_hi": 0.2, "y_lo": -1.0, "y_hi": 1.0}],
    "grid": {"horizon_seconds": 0.3, "rate_hz": 100.0},
    "kernel": {"variance": 0.29, "length_scale": 0.1},
    "score": {"lambda_jerk": 1e-4},
    "seeds": [0],
    "output_dir": "results",
    "methods": [
        {"name": "nfg", "batch": 4, "iterations": 2},
        {"name": "stomp", "batch": 4, "iterations": 2},
        {"name": "chomp", "iterations": 2},
        {"name": "mppi", "rollouts": 4, "iterations": 2},
    ],
}

# (where the object sits in FULL_RAW, the dataclass it maps onto, the JSON
# path that error messages name)
CONFIG_SITES = [
    ((), BenchConfig, "config"),
    (("grid",), TimeGrid, "config.grid"),
    (("kernel",), SEKernel, "config.kernel"),
    (("score",), ScoreConfig, "config.score"),
    (("environment", 0), BoxObstacle, "config.environment[0]"),
    (("methods", 0), NfgConfig, "methods[nfg]"),
    (("methods", 1), StompConfig, "methods[stomp]"),
    (("methods", 2), ChompConfig, "methods[chomp]"),
    (("methods", 3), MppiConfig, "methods[mppi]"),
]

# one value of each JSON kind; a float for an integer field is integral, so
# only its type is wrong
JSON_KINDS = {"string": "x", "bool": True, "list": [1.0], "object": {"x": 1.0}, "float": 3.0, "integer": 3, "null": None}


def accepted_kinds(cls, field):
    """The JSON kinds a field takes, read from its type hint; the top-level
    environment is a preset name or a list of boxes."""
    if (cls, field) == (BenchConfig, "environment"):
        return {"string", "list"}
    hint = typing.get_type_hints(cls)[field]
    union = typing.get_origin(hint) in (typing.Union, types.UnionType)
    kinds = set()
    for option in typing.get_args(hint) if union else (hint,):
        if dataclasses.is_dataclass(option):
            kinds.add("object")
        elif typing.get_origin(option) is tuple:
            kinds.add("list")
        else:
            kinds |= {float: {"float", "integer"}, int: {"integer"}, bool: {"bool"}, str: {"string"}, type(None): {"null"}}[option]
    return kinds


def wrong_type_cases():
    for location, cls, where in CONFIG_SITES:
        for field in (f.name for f in dataclasses.fields(cls) if f.init):
            for kind in sorted(JSON_KINDS.keys() - accepted_kinds(cls, field)):
                yield pytest.param(location, field, JSON_KINDS[kind], where, id=f"{where}.{field}-{kind}")


def with_value(location, field, value):
    raw = copy.deepcopy(FULL_RAW)
    target = raw
    for part in location:
        target = target[part]
    target[field] = value
    return raw


def strip_runtime(record):
    return (
        record.method,
        record.seed,
        record.success,
        record.path_length,
        record.avg_jerk,
        record.iterations_used,
    )


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config({"methods": [{"name": "chomp"}]})
        assert cfg.grid == TimeGrid(1.0, 100.0)
        assert cfg.kernel.variance == 0.29 and cfg.kernel.length_scale == 0.22
        assert cfg.reg == 1e-6 * 0.29
        assert cfg.score == ScoreConfig(1e-4)
        assert cfg.seeds == (0, 1, 2, 3, 4)
        assert cfg.output_dir == "results"
        assert len(cfg.environment.boxes) == 4
        assert cfg.methods == (MethodSpec("chomp", ChompConfig()),)

    def test_reg_is_a_fixed_share_of_the_variance(self):
        cfg = parse_config({"methods": [{"name": "chomp"}], "kernel": {"variance": 0.5}})
        assert cfg.reg == REG_SCALE * 0.5

    def test_inline_environment(self):
        cfg = parse_config(
            {
                "methods": [{"name": "chomp"}],
                "environment": [{"t_lo": 0.0, "t_hi": 0.5, "y_lo": -1, "y_hi": 1.0}],
            }
        )
        assert cfg.environment.boxes == (BoxObstacle(0.0, 0.5, -1.0, 1.0),)

    @pytest.mark.parametrize(
        "raw",
        [
            {"methods": [{"name": "chomp"}], "grit": {}},
            {"methods": [{"name": "chomp"}], "grid": {"steps": 100}},
            {"methods": [{"name": "warp"}]},
            {"methods": [{"step": 0.1}]},
            {"methods": []},
            {},
            {"methods": [{"name": "chomp"}], "seeds": []},
            {"methods": [{"name": "chomp"}], "seeds": ["a"]},
            {"methods": [{"name": "chomp"}], "seeds": "012"},
            {"methods": [{"name": "chomp"}, {"name": "chomp"}]},
            {"methods": [{"name": "chomp"}], "environment": 42},
            {"methods": [{"name": "chomp"}], "kernel": {"variance": -1.0}},
            {"methods": [{"name": "chomp"}], "environment": [{"t_lo": 0.0, "t_hi": 1.0, "lo": -1.0, "hi": 1.0}]},
            {"methods": [{"name": "chomp"}], "reg": 0.5},
            {"methods": [{"name": "chomp"}], "seeds": [0, 0]},
            {"methods": [{"name": "chomp"}], "score": {"n_pow": 100.0}},
            {"methods": [{"name": "nfg", "normalize_step": True}]},
        ],
    )
    def test_invalid(self, raw):
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_unknown_method_param_rejected_before_running(self):
        raw = copy.deepcopy(MINI_RAW)
        raw["methods"][1]["step_size"] = 0.1
        with pytest.raises(ConfigError, match="step_size"):
            parse_config(raw)


class TestStrictTypes:
    @pytest.mark.parametrize(
        "path,value",
        [
            (("methods", 0, "early_stop"), "false"),
            (("methods", 0, "iterations"), 2.9),
            (("seeds", 1), 1.7),
            (("methods", 2, "goal"), "0.5"),
            (("methods", 0, "batch"), True),
            (("methods", 1, "iterations"), 3.0),
            (("grid", "rate_hz"), "100"),
            (("kernel", "variance"), None),
            (("methods", 0, "step_size"), [0.4, "0.4", 0.4, 0.4, 0.4]),
            (("environment",), [{"t_lo": 0.1, "t_hi": 0.2, "y_lo": "-1", "y_hi": 1.0}]),
        ],
    )
    def test_wrong_type_rejected_with_exit_code_2(self, tmp_path, capsys, path, value):
        raw = copy.deepcopy(MINI_RAW)
        raw["methods"].append({"name": "mppi", "rollouts": 4, "iterations": 2})
        *parents, key = path
        target = raw
        for part in parents:
            target = target[part]
        target[key] = value
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "must be" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_box_key_rejected_with_exit_code_2(self, tmp_path, capsys):
        raw = copy.deepcopy(MINI_RAW)
        raw["environment"] = [{"t_lo": 0.1, "t_hi": 0.2, "y_lo": -1.0}]
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "missing keys ['y_hi']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda raw: raw.update(reg_scale=1e-3), "config: unknown keys ['reg_scale']"),
            (
                lambda raw: raw["methods"][0].update(step_size=[0.4] * 5),
                "methods[nfg]: step_size must be a number, got [0.4, 0.4, 0.4, 0.4, 0.4]",
            ),
            (lambda raw: raw["methods"].append({"name": "mppi", "goal": float("nan")}), "goal must be finite"),
            (lambda raw: raw["methods"][0].update(sigma=10**400), f"methods[nfg]: sigma must be finite, got {10**400}"),
            (
                lambda raw: raw["grid"].update(horizon_seconds=1e300, rate_hz=1e300),
                "config.grid: horizon_seconds * rate_hz must be finite, got inf",
            ),
            # 2 * length_scale**2 underflows to 0, or leaves the float range
            (lambda raw: raw["kernel"].update(length_scale=1e-300), "config.kernel: length_scale must give"),
            (lambda raw: raw["kernel"].update(length_scale=1e200), "config.kernel: length_scale must give"),
            # longer than any numpy array axis
            (
                lambda raw: raw["methods"][0].update(batch=10**30),
                f"methods[nfg]: batch must be in [1, {np.iinfo(np.intp).max}]",
            ),
            (lambda raw: raw["methods"].append({"name": "stomp", "batch": 10**30}), "methods[stomp]: batch must be in"),
            (lambda raw: raw["methods"].append({"name": "mppi", "rollouts": 10**30}), "methods[mppi]: rollouts must be"),
            # a (rows, grid steps) float64 batch numpy cannot represent
            (
                lambda raw: raw["methods"].append({"name": "stomp", "batch": 2**62}),
                f"methods[stomp]: batch = {2**62} rows of 30 float64 values exceed numpy's largest array",
            ),
            (
                lambda raw: raw["methods"].append({"name": "mppi", "rollouts": 2**62}),
                f"methods[mppi]: rollouts = {2**62} rows of 30 float64 values exceed numpy's largest array",
            ),
        ],
    )
    def test_removed_or_invalid_setting_exits_2_and_writes_nothing(self, tmp_path, capsys, edit, message):
        raw = copy.deepcopy(MINI_RAW)
        edit(raw)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    # (rows, 30) float64 values fit np.intp but no address space: 2.4 EiB
    UNALLOCATABLE = 11529215046068469

    @pytest.mark.parametrize(
        "method",
        [{"name": "nfg", "batch": UNALLOCATABLE}, {"name": "stomp", "batch": UNALLOCATABLE}, {"name": "mppi", "rollouts": UNALLOCATABLE}],
    )
    def test_unallocatable_batch_exits_2_naming_field_rows_and_bytes(self, tmp_path, capsys, method):
        raw = copy.deepcopy(MINI_RAW)
        raw["methods"] = [dict(method, iterations=1)]
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        field = "rollouts" if method["name"] == "mppi" else "batch"
        rows = self.UNALLOCATABLE
        assert re.search(
            rf"methods\[{method['name']}\]\.{field} = {rows} rows: a workspace of \d+ bytes for {rows} rows of 30 values"
            " does not fit in memory",
            capsys.readouterr().err,
        )
        assert not (out / "records.csv").exists()

    def test_unallocatable_batch_crosses_worker_processes(self, tmp_path):
        raw = copy.deepcopy(MINI_RAW)
        raw["methods"][0]["batch"] = self.UNALLOCATABLE
        with pytest.raises(ConfigError, match=rf"methods\[nfg\]\.batch = {self.UNALLOCATABLE} rows"):
            run_benchmark(parse_config(raw), parallel=2, out_dir=str(tmp_path))

    @pytest.mark.parametrize("seeds", [(1.5,), ("x",), (True,), (-3,)])
    def test_seeds_must_be_integers(self, seeds):
        cfg = mini_config()
        if seeds == (-3,):
            assert dataclasses.replace(cfg, seeds=seeds).seeds == (-3,)
        else:
            with pytest.raises(ConfigError, match=r"seeds\[0\] must be an integer"):
                dataclasses.replace(cfg, seeds=seeds)

    def test_int_accepted_for_float_field(self, tmp_path):
        raw = copy.deepcopy(MINI_RAW)
        raw["methods"][0].update(sigma=1.0, step_size=1.0, n_pow=50.0)
        raw["methods"] += [
            {"name": "stomp", "sigma": 1.0, "batch": 10, "iterations": 5, "temperature": 3.0},
            {"name": "mppi", "rollouts": 10, "iterations": 5, "temperature": 1.0, "weight_obs": 10.0, "goal": 0.0},
        ]
        # the same document with every whole-valued float written as a JSON integer
        text = json.dumps(raw)
        whole = json.loads(text, parse_float=lambda s: int(float(s)) if float(s).is_integer() else float(s))
        cfg = parse_config(whole)
        assert cfg.grid == TimeGrid(0.3, 100.0)
        assert {type(cfg.grid.rate_hz), type(cfg.methods[0].config.step_size), type(cfg.methods[3].config.goal)} == {int}
        records = run_benchmark(cfg, out_dir=str(tmp_path / "whole"))
        assert [r.method for r in records] == ["nfg", "nfg", "chomp", "chomp", "stomp", "stomp", "mppi", "mppi"]
        expected = run_benchmark(parse_config(raw), out_dir=str(tmp_path / "float"))
        assert [strip_runtime(r) for r in records] == [strip_runtime(r) for r in expected]

    @pytest.mark.parametrize("location,field,value,where", wrong_type_cases())
    def test_every_field_rejects_a_wrong_json_type(self, location, field, value, where):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(with_value(location, field, value))
        # the message names the JSON path and the field: "config.grid must
        # be an object", "config: grid must be a TimeGrid", "methods[nfg]:
        # batch must be an integer"
        assert re.match(rf"{re.escape(where)}(\.|: ){field} must be ", str(excinfo.value)), str(excinfo.value)

    @pytest.mark.parametrize(
        "location,field,value,where",
        [next(case for case in wrong_type_cases() if case.values[3] == where) for _, _, where in CONFIG_SITES],
    )
    def test_wrong_json_type_exits_2_and_writes_nothing(self, tmp_path, capsys, location, field, value, where):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(with_value(location, field, value)))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {where}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("environment", "narrow-passage-v1"),
            ("grid", None),
            ("kernel", {"variance": 0.29}),
            ("score", 1e-4),
            ("methods", [MethodSpec("chomp", ChompConfig())]),
            ("methods", ("chomp",)),
            ("seeds", [0, 1]),
            ("output_dir", None),
        ],
    )
    def test_bench_config_checks_its_own_fields(self, field, value):
        with pytest.raises(ConfigError, match=rf"^{field} must "):
            dataclasses.replace(mini_config(), **{field: value})

    def test_method_spec_config_must_match_its_method(self):
        with pytest.raises(ConfigError, match="method nfg needs a NfgConfig, got ChompConfig"):
            dataclasses.replace(mini_config(), methods=(MethodSpec("nfg", ChompConfig()),))

    @pytest.mark.parametrize("name", ["warp", 5, ["nfg"], None])
    def test_method_spec_name_must_be_a_method(self, name):
        with pytest.raises(ConfigError, match="unknown method"):
            MethodSpec(name, ChompConfig())


class TestDeriveSeed:
    def test_snapshot(self):
        assert derive_seed("nfg", 0) == 10199153854430036927
        assert derive_seed("stomp", 0) == 5058213100591448663
        assert derive_seed("chomp", 1) == 181103385132725825
        assert derive_seed("mppi", 1) == 2705042850708323159

    def test_distinct_across_methods_and_seeds(self):
        keys = {derive_seed(m, s) for m in ("nfg", "stomp", "chomp", "mppi") for s in range(10)}
        assert len(keys) == 40


class TestRunSingle:
    def test_free_space_chomp_succeeds(self, tmp_path):
        cfg = parse_config(
            {
                "methods": [{"name": "chomp", "iterations": 2}],
                "environment": [],
                "grid": {"horizon_seconds": 0.3, "rate_hz": 100.0},
            }
        )
        factor = factorize(kernel_matrix(cfg.grid, cfg.kernel), cfg.reg)
        record = run_single(cfg.methods[0], 0, cfg, factor, str(tmp_path))
        assert record.success
        assert record.avg_jerk == 0.0
        assert record.path_length == 0.0
        assert record.iterations_used == 2

    def test_artifacts_written(self, tmp_path):
        cfg = mini_config()
        factor = factorize(kernel_matrix(cfg.grid, cfg.kernel), cfg.reg)
        run_single(cfg.methods[0], 1, cfg, factor, str(tmp_path))
        run_dir = tmp_path / "nfg" / "1"
        assert (run_dir / "trace.csv").exists()
        assert (run_dir / "final_trajectory.csv").exists()
        with open(run_dir / "trace.csv") as fh:
            header = fh.readline().strip()
        assert header == "method,iter,best_score,mean_weight,grad_norm,feasible,wall_time_s"

    def test_baseline_trace_has_method_column(self, tmp_path):
        cfg = mini_config()
        factor = factorize(kernel_matrix(cfg.grid, cfg.kernel), cfg.reg)
        run_single(cfg.methods[1], 0, cfg, factor, str(tmp_path))
        with open(tmp_path / "chomp" / "0" / "trace.csv") as fh:
            header = fh.readline().strip()
            first = fh.readline().strip()
        assert header.startswith("method,iter,")
        assert first.startswith("chomp,0,")


class TestRunBenchmark:
    def test_records_ordered_and_written(self, tmp_path):
        cfg = mini_config()
        records = run_benchmark(cfg, out_dir=str(tmp_path))
        assert [(r.method, r.seed) for r in records] == [
            ("nfg", 0),
            ("nfg", 1),
            ("chomp", 0),
            ("chomp", 1),
        ]
        assert (tmp_path / "records.csv").exists()
        assert (tmp_path / "summary.csv").exists()
        loaded = read_records_csv(str(tmp_path / "records.csv"))
        assert [strip_runtime(r) for r in loaded] == [strip_runtime(r) for r in records]

    def test_output_dir_used_by_default(self, tmp_path):
        raw = copy.deepcopy(MINI_RAW)
        raw["output_dir"] = str(tmp_path / "results")
        run_benchmark(parse_config(raw))
        assert sorted(os.listdir(tmp_path / "results")) == ["chomp", "nfg", "records.csv", "summary.csv"]

    def test_rerun_identical_modulo_runtime(self, tmp_path):
        cfg = mini_config()
        a = run_benchmark(cfg, out_dir=str(tmp_path / "a"))
        b = run_benchmark(cfg, out_dir=str(tmp_path / "b"))
        assert [strip_runtime(r) for r in a] == [strip_runtime(r) for r in b]

    def test_parallel_matches_serial(self, tmp_path):
        cfg = mini_config()
        serial = run_benchmark(cfg, parallel=1, out_dir=str(tmp_path / "serial"))
        parallel = run_benchmark(cfg, parallel=2, out_dir=str(tmp_path / "parallel"))
        assert [strip_runtime(r) for r in serial] == [strip_runtime(r) for r in parallel]

    def test_workers_capped_at_the_number_of_runs(self, monkeypatch, tmp_path):
        # a stand-in pool records max_workers and maps serially, so no
        # process starts
        import concurrent.futures

        class SerialPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        workers = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        raw = json.loads((ROOT / "configs" / "narrow_passage.json").read_text())
        for method in raw["methods"]:
            method["iterations"] = 2
        cfg = parse_config(raw)
        serial = run_benchmark(cfg, parallel=1, out_dir=str(tmp_path / "serial"))
        pooled = run_benchmark(cfg, parallel=10**6, out_dir=str(tmp_path / "pooled"))
        assert workers == [20] == [len(serial)]
        assert [strip_runtime(r) for r in pooled] == [strip_runtime(r) for r in serial]

    @pytest.mark.parametrize("parallel", [0, -3, True, False, 2.5, "2", None])
    def test_bad_parallel_rejected_before_any_run(self, parallel, monkeypatch, tmp_path):
        import nfgopt.bench as bench_mod

        started = []
        monkeypatch.setattr(bench_mod, "run_single", lambda *args: started.append(args))
        with pytest.raises(ConfigError, match="parallel"):
            run_benchmark(mini_config(), parallel=parallel, out_dir=str(tmp_path / "out"))
        assert started == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["config", "argument"])
    def test_empty_output_dir_rejected_before_any_run(self, where, monkeypatch, tmp_path):
        import nfgopt.bench as bench_mod

        started = []
        monkeypatch.setattr(bench_mod, "run_single", lambda *args: started.append(args))
        monkeypatch.chdir(tmp_path)
        raw = copy.deepcopy(MINI_RAW)
        raw["output_dir"] = "" if where == "config" else "results"
        with pytest.raises(ConfigError, match="output directory"):
            run_benchmark(parse_config(raw), out_dir="" if where == "argument" else None)
        assert started == []
        assert os.listdir(tmp_path) == []

    def test_numpy_integer_parallel_accepted(self, tmp_path):
        cfg = mini_config()
        serial = run_benchmark(cfg, parallel=np.int64(1), out_dir=str(tmp_path / "a"))
        again = run_benchmark(cfg, out_dir=str(tmp_path / "b"))
        assert [strip_runtime(r) for r in serial] == [strip_runtime(r) for r in again]

    @pytest.mark.parametrize(
        "steps,unloaded",
        [
            ("", ("multiprocessing", *LAZY_MODULES)),
            # perfbench's setup probe: load a config, factorize, score once
            (
                "import numpy as np, nfgopt\n"
                "cfg = nfgopt.load_config(sys.argv[1])\n"
                "nfgopt.factorize(nfgopt.kernel_matrix(cfg.grid, cfg.kernel), cfg.reg)\n"
                "nfgopt.batch_scores(cfg.environment, np.zeros((1, cfg.grid.steps)), cfg.grid.times(), cfg.grid.dt, cfg.score)",
                LAZY_MODULES,
            ),
        ],
        ids=["import", "setup"],
    )
    def test_import_loads_only_what_scoring_runs(self, steps, unloaded):
        probe = (
            f"import sys, nfgopt.cli\n{steps}\n"
            f"print(sorted(m for m in sys.modules if any(m == u or m.startswith(u + '.') for u in {unloaded!r})))"
        )
        assert run_probe(probe, str(ROOT / "configs" / "narrow_passage.json")) == "[]"

    def test_numpy_random_loaded_before_the_first_run(self, tmp_path):
        # The import stays out of every run's runtime_s.
        probe = (
            "import json, sys\n"
            "import nfgopt.bench as bench\n"
            "loaded, real = [], bench.PerturbationSampler\n"
            "def spy(*args):\n"
            "    loaded.append('numpy.random' in sys.modules)\n"
            "    return real(*args)\n"
            "bench.PerturbationSampler = spy\n"
            "print('numpy.random' in sys.modules)\n"
            "bench.run_benchmark(bench.parse_config(json.loads(sys.argv[1])), out_dir=sys.argv[2])\n"
            "print(loaded)"
        )
        raw = {"grid": {"horizon_seconds": 0.3}, "seeds": [0, 1], "methods": [{"name": "nfg", "batch": 4, "iterations": 2}]}
        assert run_probe(probe, json.dumps(raw), str(tmp_path / "out")) == "False\n[True, True]"

    def test_final_trajectory_reproduces_recorded_success(self, tmp_path):
        cfg = mini_config()
        records = run_benchmark(cfg, out_dir=str(tmp_path))
        for record in records:
            path = tmp_path / record.method / str(record.seed) / "final_trajectory.csv"
            times, values = read_trajectory_csv(str(path))
            np.testing.assert_allclose(times, cfg.grid.times(), atol=1e-12)
            free = bool((penetration_profile(cfg.environment, values[:, 0], cfg.grid.times()) == 0.0).all())
            assert free == record.success


@pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning"
)
class TestNonFiniteUpdate:
    # Wiener noise this large overflows the rollout costs, so the softmin
    # weights, and with them the first update, are NaN.
    RAW = {
        "grid": {"horizon_seconds": 0.3},
        "seeds": [0, 1],
        "methods": [{"name": "mppi", "rollouts": 4, "iterations": 2, "noise_scale": 1e200}],
    }

    def test_cli_names_method_seed_and_iteration(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(self.RAW))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 3
        assert "NonFiniteStepError: non-finite update at mppi seed 0, iteration 0" in capsys.readouterr().err

    def test_error_crosses_worker_processes(self, tmp_path):
        with pytest.raises(NonFiniteStepError) as info:
            run_benchmark(parse_config(copy.deepcopy(self.RAW)), parallel=2, out_dir=str(tmp_path))
        assert (info.value.method, info.value.seed, info.value.iteration) == ("mppi", 0, 0)


class TestAggregate:
    def make(self, method, seed, success, runtime=1.0, length=2.0, jerk=5.0):
        return RunRecord(
            method=method,
            seed=seed,
            success=success,
            runtime=runtime,
            path_length=length,
            avg_jerk=jerk if success else None,
            iterations_used=10,
        )

    def test_success_rate(self):
        records = [self.make("nfg", s, s < 2) for s in range(5)]
        rows = aggregate(records)
        assert rows[0]["success_rate"] == 40.0

    def test_all_failed_reports_missing(self):
        rows = aggregate([self.make("chomp", s, False) for s in range(3)])
        row = rows[0]
        assert row["success_rate"] == 0.0
        assert row["path_length_mean"] is None
        assert row["avg_jerk_mean"] is None
        assert row["time_mean"] == 1.0

    def test_mean_and_std(self):
        records = [
            self.make("nfg", 0, True, runtime=10.0),
            self.make("nfg", 1, True, runtime=12.0),
        ]
        row = aggregate(records)[0]
        assert row["time_mean"] == 11.0
        assert row["time_std"] == 1.4142135623730951

    def test_single_sample_std_zero(self):
        row = aggregate([self.make("nfg", 0, True)])[0]
        assert row["time_std"] == 0.0
        assert row["avg_jerk_std"] == 0.0

    def test_permutation_invariant(self):
        records = [self.make(m, s, (s + len(m)) % 2 == 0) for m in ("nfg", "chomp") for s in range(4)]
        rows = aggregate(records)
        shuffled = aggregate(records[::-1])
        assert rows == shuffled
        assert [r["method"] for r in rows] == ["chomp", "nfg"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_format_summary_shows_dash(self):
        text = format_summary(aggregate([self.make("chomp", 0, False)]))
        assert "-" in text
        assert "chomp" in text


class TestRunRecord:
    def test_success_requires_jerk(self):
        with pytest.raises(ValueError):
            RunRecord("nfg", 0, True, 1.0, 2.0, None, 10)

    def test_failure_forbids_jerk(self):
        with pytest.raises(ValueError):
            RunRecord("nfg", 0, False, 1.0, 2.0, 3.0, 10)


FAILED_RUN = RunRecord("nfg", 1, False, 1.0, 2.0, None, 3)
TRACE_ROW = IterationTrace(0, 0.5, 1.0, 2.0, False, 0.01)


def write_nfg_trace_csv(path, traces):
    write_trace_csv(path, traces, "nfg")


class TestRecordsCsv:
    def test_round_trip_exact(self, tmp_path):
        records = [
            RunRecord("nfg", 0, True, 0.12345678901234567, 9.87654321, 4567.89123, 100),
            RunRecord("chomp", 3, False, 2.5, 1.5, None, 7),
        ]
        path = tmp_path / "records.csv"
        write_records_csv(str(path), records)
        loaded = read_records_csv(str(path))
        assert loaded == records

    @pytest.mark.parametrize(
        "write,good,bad",
        [
            (write_records_csv, FAILED_RUN, dataclasses.replace(FAILED_RUN, runtime="slow")),
            (write_summary_csv, aggregate([FAILED_RUN])[0], {**aggregate([FAILED_RUN])[0], "time_mean": "slow"}),
            (write_nfg_trace_csv, TRACE_ROW, dataclasses.replace(TRACE_ROW, best_score="high")),
        ],
    )
    def test_failed_write_keeps_previous_file(self, tmp_path, write, good, bad):
        path = tmp_path / "out.csv"
        write(str(path), [good, good])
        before = path.read_text()
        # the bad row fails to format after the good one was written
        with pytest.raises(ValueError):
            write(str(path), [good, bad])
        assert path.read_text() == before
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_artifact_bytes(self, tmp_path):
        # CRLF line ends, 17 significant digits, inf/nan/-0 as Python spells
        # them, and an empty avg_jerk cell for a failed run
        records = [
            RunRecord("nfg", 0, True, 0.1 + 0.2, 1e-300, 4567.89123, 100),
            RunRecord("chomp", 3, False, 2.5, -0.0, None, 7),
        ]
        traces = [
            IterationTrace(0, -np.inf, np.nan, np.inf, False, 0.1 + 0.2),
            IterationTrace(1, -0.0, 1e-300, 2.0, True, 12345.678901234567),
        ]
        path = tmp_path / "out.csv"
        write_records_csv(str(path), records)
        assert path.read_bytes() == (
            b"method,seed,success,runtime_s,path_length,avg_jerk,iterations_used\r\n"
            b"nfg,0,true,0.30000000000000004,1e-300,4567.8912300000002,100\r\n"
            b"chomp,3,false,2.5,-0,,7\r\n"
        )
        write_summary_csv(str(path), aggregate(records))
        assert path.read_bytes() == (
            b"method,success_rate,time_mean,time_std,path_length_mean,path_length_std,avg_jerk_mean,avg_jerk_std\r\n"
            b"chomp,0,2.5,0,-,-,-,-\r\n"
            b"nfg,100,0.30000000000000004,0,1e-300,0,4567.8912300000002,0\r\n"
        )
        write_trace_csv(str(path), traces, "nfg")
        assert path.read_bytes() == (
            b"method,iter,best_score,mean_weight,grad_norm,feasible,wall_time_s\r\n"
            b"nfg,0,-inf,nan,inf,false,0.30000000000000004\r\n"
            b"nfg,1,-0,1e-300,2,true,12345.678901234567\r\n"
        )

    @pytest.mark.parametrize("method", ["a,b", 'say "hi"', "two\nlines", "cr\r", ""])
    def test_text_cells_quoted_as_csv_module_does(self, tmp_path, method):
        path = tmp_path / "out.csv"
        write_trace_csv(str(path), [TRACE_ROW], method)
        expected = io.StringIO()
        csv.writer(expected).writerows([TRACE_FIELDS, [method, 0, "0.5", "1", "2", "false", "0.01"]])
        assert path.read_bytes() == expected.getvalue().encode()
        assert read_csv(str(path))[1][0] == method

    def test_bad_header(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("method,seed\nnfg,0\n")
        with pytest.raises(ConfigError, match="header"):
            read_records_csv(str(path))

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("method,seed,success,runtime_s,path_length,avg_jerk,iterations_used\nnfg,0\n")
        with pytest.raises(ConfigError, match="fields"):
            read_records_csv(str(path))

    def test_bad_value(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(
            "method,seed,success,runtime_s,path_length,avg_jerk,iterations_used\n"
            "nfg,zero,true,1.0,2.0,3.0,10\n"
        )
        with pytest.raises(ConfigError, match="row 1"):
            read_records_csv(str(path))


class TestEvaluateExternal:
    def write_waypoints(self, tmp_path, rows):
        path = tmp_path / "waypoints.csv"
        path.write_text("\n".join(rows) + "\n")
        return str(path)

    def test_free_space_line_succeeds(self, tmp_path):
        src = self.write_waypoints(tmp_path, ["0.0", "1.0", "2.0"])
        result = evaluate_external(src, load_preset("free-space"), TimeGrid(1.0, 100.0))
        assert result.success
        assert result.first_collision_time is None
        # interpolation leaves rounding-level third differences, so the
        # smoothness score sits just below 1
        assert result.score == pytest.approx(1.0, abs=1e-12)
        assert result.avg_jerk == pytest.approx(0.0, abs=1e-6)
        # the grid stops one step short of the horizon, so the resampled
        # line covers 2.0 * 0.99
        assert result.path_length == pytest.approx(1.98, rel=1e-12)

    def test_crossing_line_first_hit(self, tmp_path):
        src = self.write_waypoints(tmp_path, ["-3.0", "3.0"])
        result = evaluate_external(src, load_preset("narrow-passage-v1"), TimeGrid(1.0, 100.0))
        assert not result.success
        assert result.first_collision_time == 0.4
        assert result.avg_jerk is None
        assert result.score < 0.0

    def test_single_waypoint_rejected(self, tmp_path):
        src = self.write_waypoints(tmp_path, ["1.0"])
        with pytest.raises(DegeneratePathError):
            evaluate_external(src, load_preset("free-space"), TimeGrid(1.0, 100.0))

    def test_identical_waypoints_rejected(self, tmp_path):
        src = self.write_waypoints(tmp_path, ["1.0", "1.0", "1.0"])
        with pytest.raises(DegeneratePathError):
            evaluate_external(src, load_preset("free-space"), TimeGrid(1.0, 100.0))

    def test_multi_dim_rejected(self, tmp_path):
        src = self.write_waypoints(tmp_path, ["0.0,0.0", "1.0,1.0"])
        with pytest.raises(ConfigError, match="1-D"):
            evaluate_external(src, load_preset("free-space"), TimeGrid(1.0, 100.0))


class TestCli:
    def write_config(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        raw = copy.deepcopy(MINI_RAW)
        cfg_path.write_text(json.dumps(raw))
        return str(cfg_path)

    def test_run_success(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "records.csv").exists()
        text = capsys.readouterr().out
        assert "nfg" in text and "chomp" in text

    def test_run_missing_config(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad)]) == 2

    def test_run_bad_parallel(self, tmp_path):
        cfg = self.write_config(tmp_path)
        assert main(["run", "--config", cfg, "--parallel", "0"]) == 2

    def test_run_negative_parallel_names_the_option(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert main(["run", "--config", cfg, "--parallel", "-3"]) == 2
        assert "parallel must be at least 1, got -3" in capsys.readouterr().err

    def test_run_with_overflowing_kernel_quotient(self, tmp_path, capsys):
        # Every off-diagonal quotient of kernel_matrix overflows: the kernel is variance * I.
        raw = {"kernel": {"length_scale": 1e-160}, "seeds": [0], "methods": [{"name": "nfg", "iterations": 2}]}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    def test_run_into_a_file_exits_2_before_any_run(self, tmp_path, monkeypatch, capsys):
        import nfgopt.bench as bench_mod

        cfg = self.write_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("")
        runs = []
        monkeypatch.setattr(bench_mod, "run_single", lambda *args: runs.append(args))
        assert main(["run", "--config", cfg, "--out", str(taken)]) == 2
        assert f"cannot create the output directory {taken}" in capsys.readouterr().err
        assert runs == [] and taken.read_text() == ""

    def test_summarize_into_a_missing_directory_exits_2(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        write_records_csv(str(records), [RunRecord("nfg", 0, True, 0.5, 1.0, 2.0, 10)])
        out = tmp_path / "missing" / "s.csv"
        assert main(["summarize", "--records", str(records), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"cannot write the summary {out}: " in err and ".tmp" not in err
        assert not (tmp_path / "missing").exists()

    def test_evaluate_and_summarize_leave_the_rng_unloaded(self, tmp_path):
        waypoints = tmp_path / "line.csv"
        waypoints.write_text("-3.0\n3.0\n")
        records = tmp_path / "records.csv"
        write_records_csv(str(records), [RunRecord("nfg", 0, True, 0.5, 1.0, 2.0, 10)])
        probe = "import sys\nfrom nfgopt.cli import main\nprint(main(sys.argv[1:]), 'numpy.random' in sys.modules)"
        evaluate = ["evaluate", "--path", str(waypoints), "--env", "narrow-passage-v1", "--horizon", "1", "--rate", "100"]
        summarize = ["summarize", "--records", str(records), "--out", str(tmp_path / "summary.csv")]
        for argv in (evaluate, summarize):
            assert run_probe(probe, *argv).splitlines()[-1] == "0 False"

    def test_run_crash_maps_to_3(self, tmp_path, monkeypatch, capsys):
        cfg = self.write_config(tmp_path)
        import nfgopt.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(cli_mod.bench_mod, "run_benchmark", boom)
        assert main(["run", "--config", cfg]) == 3
        assert "disk on fire" in capsys.readouterr().err

    def test_evaluate_crossing_line(self, tmp_path, capsys):
        src = tmp_path / "line.csv"
        src.write_text("-3.0\n3.0\n")
        code = main(
            [
                "evaluate",
                "--path", str(src),
                "--env", "narrow-passage-v1",
                "--horizon", "1.0",
                "--rate", "100.0",
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "success:      false" in text
        assert "first_collision_t: 0.4" in text

    def test_evaluate_grid_overflow_exits_2(self, tmp_path, capsys):
        src = tmp_path / "line.csv"
        src.write_text("0.0\n1.0\n")
        args = ["evaluate", "--path", str(src), "--env", "free-space", "--horizon", "1e300", "--rate", "1e300"]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: horizon_seconds * rate_hz must be finite, got inf\n"

    def test_evaluate_unknown_preset(self, tmp_path):
        src = tmp_path / "line.csv"
        src.write_text("0.0\n1.0\n")
        args = ["evaluate", "--path", str(src), "--env", "mars", "--horizon", "1.0", "--rate", "100.0"]
        assert main(args) == 2

    def test_evaluate_degenerate_path(self, tmp_path):
        src = tmp_path / "point.csv"
        src.write_text("1.0\n")
        args = [
            "evaluate", "--path", str(src), "--env", "free-space", "--horizon", "1.0", "--rate", "100.0",
        ]
        assert main(args) == 2

    def test_evaluate_angular_flag(self, tmp_path, capsys):
        # 3.0 -> -3.0 is a jump of -6.0 rad, or +0.28 rad once unwrapped
        src = tmp_path / "angles.csv"
        src.write_text("3.0\n-3.0\n")
        args = ["evaluate", "--path", str(src), "--env", "free-space", "--horizon", "1.0", "--rate", "100.0"]
        assert main(args) == 0
        assert "path_length:  5.94" in capsys.readouterr().out
        assert main(args + ["--angular"]) == 0
        assert "path_length:  0.280" in capsys.readouterr().out

    def test_evaluate_multi_column_file_exits_2_at_load(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "two.csv"
        src.write_text("0.0,0.0\n1.0,1.0\n")
        import nfgopt.bench as bench_mod

        def no_resample(*args, **kwargs):
            raise AssertionError("a multi-column file reached resampling")

        monkeypatch.setattr(bench_mod, "resample", no_resample)
        args = ["evaluate", "--path", str(src), "--env", "free-space", "--horizon", "1.0", "--rate", "100.0"]
        assert main(args + ["--angular"]) == 2
        assert "1-D" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows",
        ["0.0\nnan\n1.0\n", "0.0\ninf\n", "-inf\n0.0\n", "0.0\n1e308\n-1e308\n"],
        ids=["nan", "inf", "-inf", "arc-length-overflow"],
    )
    def test_evaluate_non_finite_input_exits_2(self, tmp_path, capsys, rows):
        src = tmp_path / "bad.csv"
        src.write_text(rows)
        args = ["evaluate", "--path", str(src), "--env", "free-space", "--horizon", "1.0", "--rate", "100.0"]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_evaluate_overflowing_jerk_exits_2(self, tmp_path, capsys):
        # finite waypoints and arc length, but the jerk stencil overflows
        src = tmp_path / "huge.csv"
        src.write_text("0\n1e308\n")
        args = ["evaluate", "--path", str(src), "--env", "narrow-passage-v1", "--horizon", "1", "--rate", "100"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "jerk" in captured.err
        assert captured.out == ""

    def test_evaluate_angular_overflow_exits_2_without_warnings(self, tmp_path, capsys):
        src = tmp_path / "huge.csv"
        src.write_text("0\n1e308\n-1e308\n")
        args = ["evaluate", "--path", str(src), "--env", "narrow-passage-v1", "--horizon", "1", "--rate", "100"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args + ["--angular"]) == 2
        assert capsys.readouterr().err == "error: waypoints must be finite\n"

    @pytest.mark.parametrize("cell", ["True", "yes", "1", "", "false "])
    def test_summarize_rejects_success_other_than_true_false(self, tmp_path, capsys, cell):
        path = tmp_path / "records.csv"
        path.write_text(
            "method,seed,success,runtime_s,path_length,avg_jerk,iterations_used\n"
            f"nfg,0,{cell},1.0,2.0,,10\n"
        )
        assert main(["summarize", "--records", str(path)]) == 2
        assert "success must be true or false" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, field",
        [
            ("nfg,0,true,nan,inf,-3.0,-10", "runtime_s"),
            ("nfg,0,true,-1.0,2.0,3.0,10", "runtime_s"),
            ("nfg,0,true,1.0,inf,3.0,10", "path_length"),
            ("nfg,0,false,1.0,-2.0,,10", "path_length"),
            ("nfg,0,true,1.0,2.0,nan,10", "avg_jerk"),
            ("nfg,0,true,1.0,2.0,-3.0,10", "avg_jerk"),
            ("nfg,0,true,1.0,2.0,3.0,-10", "iterations_used"),
        ],
    )
    def test_summarize_rejects_impossible_records(self, tmp_path, capsys, row, field):
        path = tmp_path / "records.csv"
        path.write_text(
            "method,seed,success,runtime_s,path_length,avg_jerk,iterations_used\n"
            "nfg,1,true,1.0,2.0,3.0,10\n"
            f"{row}\n"
        )
        assert main(["summarize", "--records", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"row 2: {field}" in err

    def test_summarize_round_trip(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        summary_out = tmp_path / "summary.csv"
        code = main(
            ["summarize", "--records", str(out / "records.csv"), "--out", str(summary_out)]
        )
        assert code == 0
        assert summary_out.exists()
        text = capsys.readouterr().out
        assert "success %" in text

    def test_summarize_bad_records(self, tmp_path):
        bad = tmp_path / "records.csv"
        bad.write_text("not,a,records,file\n")
        assert main(["summarize", "--records", str(bad)]) == 2

    def exits_2_writing_nothing(self, tmp_path, capsys, argv, message):
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before

    def test_summarize_missing_records_exits_2(self, tmp_path, capsys):
        argv = ["summarize", "--records", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "summary.csv")]
        self.exits_2_writing_nothing(tmp_path, capsys, argv, "No such file")

    def test_summarize_directory_as_records_exits_2(self, tmp_path, capsys):
        (tmp_path / "records").mkdir()
        argv = ["summarize", "--records", str(tmp_path / "records"), "--out", str(tmp_path / "summary.csv")]
        self.exits_2_writing_nothing(tmp_path, capsys, argv, "Is a directory")

    def test_summarize_records_without_rows_exits_2(self, tmp_path, capsys):
        path = tmp_path / "records.csv"
        path.write_text("method,seed,success,runtime_s,path_length,avg_jerk,iterations_used\n")
        argv = ["summarize", "--records", str(path), "--out", str(tmp_path / "summary.csv")]
        self.exits_2_writing_nothing(tmp_path, capsys, argv, "at least one record")

    def test_summarize_oversized_field_exits_2(self, tmp_path, capsys):
        path = tmp_path / "records.csv"
        path.write_text('"' + "x" * 200_000 + '"\n')
        argv = ["summarize", "--records", str(path), "--out", str(tmp_path / "summary.csv")]
        self.exits_2_writing_nothing(tmp_path, capsys, argv, "field limit")

    def test_evaluate_undecodable_path_exits_2(self, tmp_path, capsys):
        path = tmp_path / "waypoints.csv"
        path.write_bytes(b"0.0\n\xff\xfe\n1.0\n")
        argv = ["evaluate", "--path", str(path), "--env", "free-space", "--horizon", "1.0", "--rate", "100.0"]
        self.exits_2_writing_nothing(tmp_path, capsys, argv, "can't decode")

    def test_run_integer_past_the_digit_limit_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(MINI_RAW).replace('"sigma": 1.0', '"sigma": 1' + "0" * 5000, 1))
        argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
        # past the limit (Python 3.11+) parsing fails; before it, sigma is not finite
        self.exits_2_writing_nothing(tmp_path, capsys, argv, "error: ")

    def test_run_undecodable_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(json.dumps(MINI_RAW).encode().replace(b"nfg", b"nf\xe9"))
        argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
        self.exits_2_writing_nothing(tmp_path, capsys, argv, "can't decode")
