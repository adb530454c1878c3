"""Function-space trajectory optimization with a natural functional
gradient, three baseline optimizers, and a seeded narrow-passage benchmark.

The package root exports what the CLI, the README and the benchmark use;
everything else is imported from its submodule.
"""

from ._kernels import BACKEND
from .bench import (
    aggregate,
    evaluate_external,
    format_summary,
    load_config,
    parse_config,
    read_records_csv,
    run_benchmark,
    write_summary_csv,
)
from .environment import ScoreConfig, batch_scores, load_preset, narrow_passage_v1, penetration_step
from .errors import ConfigError, DegeneratePathError
from .nfg import NfgConfig, estimate_direction, optimize, optimize_objective
from .sampling import PerturbationSampler, SEKernel, factorize, kernel_matrix
from .trajectory import (
    TimeGrid,
    Trajectory,
    WaypointPath,
    arc_length_times,
    read_trajectory_csv,
    resample,
    write_trajectory_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "ConfigError",
    "DegeneratePathError",
    "NfgConfig",
    "PerturbationSampler",
    "SEKernel",
    "ScoreConfig",
    "TimeGrid",
    "Trajectory",
    "WaypointPath",
    "aggregate",
    "arc_length_times",
    "batch_scores",
    "estimate_direction",
    "evaluate_external",
    "factorize",
    "format_summary",
    "kernel_matrix",
    "load_config",
    "load_preset",
    "narrow_passage_v1",
    "optimize",
    "optimize_objective",
    "parse_config",
    "penetration_step",
    "read_records_csv",
    "read_trajectory_csv",
    "resample",
    "run_benchmark",
    "write_summary_csv",
    "write_trajectory_csv",
]
