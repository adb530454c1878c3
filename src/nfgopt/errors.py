"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration: bad parameter values, malformed config files,
    unknown method names, or mismatched grid/path combinations.

    The CLI maps this to exit code 2.
    """


class DegeneratePathError(ValueError):
    """A waypoint path with zero total arc length (or a zero-length segment)
    cannot be mapped onto a time axis."""


class DegenerateBatchError(RuntimeError):
    """Every sample in a Monte-Carlo batch received zero weight, so no update
    direction can be formed. The optimizer loop catches it and skips that
    iteration's update."""


class NonFiniteStepError(RuntimeError):
    """An optimizer update left the iterate NaN or infinite.

    ``iteration`` is where it happened; the benchmark fills in the
    ``method`` and ``seed`` of the run.
    """

    def __init__(self, iteration: int, method: str | None = None, seed: int | None = None):
        # the arguments are the exception's args, so it pickles across processes
        super().__init__(iteration, method, seed)
        self.iteration = iteration
        self.method = method
        self.seed = seed

    def __str__(self) -> str:
        run = "" if self.method is None else f"{self.method} seed {self.seed}, "
        return f"non-finite update at {run}iteration {self.iteration}"
