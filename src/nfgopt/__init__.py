"""Function-space trajectory optimization with a natural functional
gradient, three baseline optimizers, and a seeded narrow-passage benchmark.

The package root exports what the README and the benchmark use;
everything else is imported from its submodule.
"""

from ._kernels import BACKEND
from .bench import load_config, parse_config, read_records_csv, run_benchmark
from .environment import ScoreConfig, batch_scores, narrow_passage_v1, penetration_step
from .errors import ConfigError
from .nfg import NfgConfig, estimate_direction, optimize, optimize_objective
from .sampling import PerturbationSampler, SEKernel, factorize, kernel_matrix
from .trajectory import TimeGrid, Trajectory, read_trajectory_csv, write_trajectory_csv

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "ConfigError",
    "NfgConfig",
    "PerturbationSampler",
    "SEKernel",
    "ScoreConfig",
    "TimeGrid",
    "Trajectory",
    "batch_scores",
    "estimate_direction",
    "factorize",
    "kernel_matrix",
    "load_config",
    "narrow_passage_v1",
    "optimize",
    "optimize_objective",
    "parse_config",
    "penetration_step",
    "read_records_csv",
    "read_trajectory_csv",
    "run_benchmark",
    "write_trajectory_csv",
]
