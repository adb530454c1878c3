import ast
import copy
import pickle
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nfgopt._kernels as _kernels
import nfgopt.environment as environment
import nfgopt.trajectory as trajectory
from nfgopt.baselines import (
    ChompConfig,
    MppiConfig,
    StompConfig,
    _collision_free,
    chomp_optimize,
    mppi_optimize,
    stomp_optimize,
)
from nfgopt.bench import METHODS, evaluate_external, parse_config, run_single
from nfgopt.environment import (
    BoxEnvironment,
    BoxObstacle,
    ScoreConfig,
    batch_scores,
    load_preset,
    narrow_passage_v1,
    penetration_profile,
    penetration_step,
)
from nfgopt.errors import ConfigError
from nfgopt.nfg import NfgConfig, optimize
from nfgopt.sampling import PerturbationSampler, SEKernel, factorize, kernel_matrix
from nfgopt.trajectory import TimeGrid, Trajectory, average_abs_jerk

GRID = TimeGrid(1.0, 100.0)
ENV = narrow_passage_v1()
SCORE = ScoreConfig()


def traj_1d(values):
    return Trajectory(GRID, np.asarray(values, dtype=float))


def score_one(env, values):
    """Score of one path on GRID, as a one-row batch."""
    return float(batch_scores(env, np.asarray(values, dtype=float)[None, :], GRID.times(), GRID.dt, SCORE)[0])


class TestBoxes:
    @pytest.mark.parametrize(
        "args", [(0.5, 0.2, 0.0, 1.0), (0.2, 0.2, 0.0, 1.0), (0.0, 1.0, 2.0, 1.0), (0.0, 1.0, 2.0, 2.0)]
    )
    def test_invalid_box(self, args):
        with pytest.raises(ConfigError):
            BoxObstacle(*args)

    def test_preset_boxes(self):
        boxes = ENV.as_array()
        expected = np.array(
            [
                [0.2, 0.25, -1.0, 4.0],
                [0.4, 0.6, -2.0, 2.0],
                [0.7, 1.0, 0.5, 5.0],
                [0.7, 1.0, -5.0, -0.5],
            ]
        )
        np.testing.assert_array_equal(boxes, expected)

    @pytest.mark.parametrize("boxes", [("box",), ((0.0, 1.0, -1.0, 1.0),), [BoxObstacle(0.0, 1.0, -1.0, 1.0), None]])
    def test_environment_holds_only_boxes(self, boxes):
        with pytest.raises(ConfigError, match="^boxes must be BoxObstacles"):
            BoxEnvironment(boxes)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown environment preset"):
            load_preset("narrow-passage-v9")

    def test_from_config_list(self):
        cfg = parse_config(
            {
                "methods": [{"name": "chomp"}],
                "environment": [{"t_lo": 0.0, "t_hi": 1.0, "y_lo": -1.0, "y_hi": 1.0}],
            }
        )
        assert cfg.environment.boxes == (BoxObstacle(0.0, 1.0, -1.0, 1.0),)

    def test_empty_environment_allowed(self):
        env = BoxEnvironment(())
        assert env.as_array().shape == (0, 4)


class TestPenetrationStep:
    @pytest.mark.parametrize(
        "t,y,expected",
        [
            (0.1, 3.0, 0.0),
            (0.5, 0.0, -2.0),
            (0.22, 0.6, -1.6),
            (0.3, 0.0, 0.0),
            (0.8, 0.0, 0.0),
        ],
    )
    def test_spot_values(self, t, y, expected):
        assert penetration_step(ENV, t, y) == expected

    def test_zero_on_boundary(self):
        assert penetration_step(ENV, 0.5, 2.0) == 0.0
        assert penetration_step(ENV, 0.5, -2.0) == 0.0

    def test_continuity_sweep(self):
        ys = np.linspace(-2.5, 2.5, 2001)
        vals = np.array([penetration_step(ENV, 0.5, y) for y in ys])
        step = ys[1] - ys[0]
        assert np.abs(np.diff(vals)).max() <= step + 1e-12

    def test_overlapping_boxes_most_negative(self):
        env = BoxEnvironment(
            (BoxObstacle(0.0, 1.0, -1.0, 1.0), BoxObstacle(0.0, 1.0, -3.0, 3.0))
        )
        # depth 1 in the narrow box, depth 3 in the wide one
        assert penetration_step(env, 0.5, 0.0) == -3.0


class TestTrajectoryScore:
    def test_constant_in_free_space(self):
        env = BoxEnvironment(())
        assert score_one(env, np.full(100, 1.5)) == 1.0

    def test_all_zero_benchmark_oracle(self):
        # brute-force oracle: 6 grid points in the first box at depth 1 and
        # 21 in the second at depth 2, so the mean penetration is -48/100
        assert score_one(ENV, np.zeros(100)) == -0.48

    def test_known_jerk_value(self):
        # alternating values with amplitude 100 dt^3 / 8 give mean jerk 100
        amp = 100.0 * GRID.dt**3 / 8.0
        values = amp * (-1.0) ** np.arange(100)
        env = BoxEnvironment(())
        assert average_abs_jerk(traj_1d(values)) == pytest.approx(100.0, rel=1e-9)
        assert score_one(env, values) == pytest.approx(0.9900498337491681, abs=1e-9)

    def test_free_score_matches_jerk_formula(self):
        rng = np.random.default_rng(7)
        env = BoxEnvironment(())
        values = rng.normal(size=100)
        expected = np.exp(-SCORE.lambda_jerk * average_abs_jerk(traj_1d(values)))
        assert score_one(env, values) == pytest.approx(expected, rel=1e-12)

    def test_free_batch_score_is_exactly_the_jerk_score(self):
        # one stencil: the scoring kernel and average_abs_jerk agree bit for bit
        rng = np.random.default_rng(11)
        env = BoxEnvironment(())
        values = rng.normal(size=(20, 100))
        scores = batch_scores(env, values, GRID.times(), GRID.dt, SCORE)
        for row, score in zip(values, scores):
            assert score == np.exp(-SCORE.lambda_jerk * average_abs_jerk(traj_1d(row)))

    def test_scale_separation(self):
        # dip under the first two boxes, then thread the gap at the end
        times = GRID.times()
        feasible = np.interp(times, [0.0, 0.3, 0.35, 0.6, 0.7, 0.99], [-1.5, -1.5, -2.5, -2.5, 0.0, 0.0])
        rng = np.random.default_rng(8)
        colliding = rng.normal(scale=2.0, size=(200, 100))
        free_score = score_one(ENV, feasible)
        colliding_scores = batch_scores(ENV, colliding, times, GRID.dt, SCORE)
        assert free_score > 0.0
        assert colliding_scores.max() <= 0.0 < free_score

    def test_batch_matches_single(self):
        rng = np.random.default_rng(9)
        values = rng.normal(size=(16, 100))
        batch = batch_scores(ENV, values, GRID.times(), GRID.dt, SCORE)
        singles = [score_one(ENV, v) for v in values]
        np.testing.assert_allclose(batch, singles, rtol=1e-12)

    def test_extra_obstacle_never_helps(self):
        rng = np.random.default_rng(10)
        values = rng.normal(size=(50, 100))
        bigger = BoxEnvironment(ENV.boxes + (BoxObstacle(0.0, 0.15, -0.5, 0.5),))
        before = batch_scores(ENV, values, GRID.times(), GRID.dt, SCORE)
        after = batch_scores(bigger, values, GRID.times(), GRID.dt, SCORE)
        assert np.all(after <= before + 1e-12)

    @pytest.mark.parametrize("env", [ENV, BoxEnvironment(())], ids=["narrow-passage", "free-space"])
    @pytest.mark.parametrize("values", [np.zeros((1, 100, 2)), np.zeros((0, 100))], ids=["3-D", "empty"])
    def test_multi_dim_rejected(self, env, values):
        with pytest.raises(ValueError, match=r"2-D .* got shape " + re.escape(str(values.shape))):
            batch_scores(env, values, GRID.times(), GRID.dt, SCORE)

    @pytest.mark.parametrize(
        "values, times",
        [
            (np.zeros((100, 1)), GRID.times()),
            (np.zeros((1, 100)), GRID.times()),
            (0.0, GRID.times()),
            (np.zeros(99), GRID.times()),
            (np.zeros(100), GRID.times()[None, :]),
            (np.zeros(0), np.zeros(0)),
        ],
    )
    def test_penetration_profile_checks_its_arguments(self, values, times):
        with pytest.raises(ValueError, match="need a 1-D path with one value per grid time"):
            penetration_profile(ENV, values, times)

    def test_penetration_profile_matches_steps(self):
        times = GRID.times()
        profile = penetration_profile(ENV, np.zeros(100), times)
        expected = [penetration_step(ENV, float(t), 0.0) for t in times]
        np.testing.assert_array_equal(profile, expected)


class TestScoreConfig:
    @pytest.mark.parametrize("lambda_jerk", [-1.0])
    def test_config_validation(self, lambda_jerk):
        with pytest.raises(ConfigError):
            ScoreConfig(lambda_jerk)


class TestRunBoundary:
    """The scoring helpers take value arrays, so a Trajectory is built only
    where a run starts or ends."""

    def test_scoring_layer_imports_only_kernels_and_errors(self):
        tree = ast.parse(Path(environment.__file__).read_text())
        internal = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                internal.update([node.module] if node.module else (a.name for a in node.names))
        assert internal == {"_kernels", "errors"}

    def test_each_optimizer_call_builds_one_trajectory(self, monkeypatch):
        factor = factorize(kernel_matrix(GRID, SEKernel(0.29, 0.22)), 1e-6 * 0.29)
        y0 = traj_1d(np.zeros(100))
        runs = {
            "nfg": lambda: optimize(y0, ENV, SCORE, PerturbationSampler(factor, 0), NfgConfig(iterations=5)),
            "stomp": lambda: stomp_optimize(y0, ENV, SCORE, StompConfig(iterations=5), PerturbationSampler(factor, 0)),
            "chomp": lambda: chomp_optimize(y0, ENV, SCORE, ChompConfig(iterations=5), np.random.default_rng(0)),
            "mppi": lambda: mppi_optimize(y0, ENV, MppiConfig(iterations=5), PerturbationSampler(factor, 0)),
        }
        built = []
        post_init = trajectory.Trajectory.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(trajectory.Trajectory, "__post_init__", counting)
        for name, run in runs.items():
            built.clear()
            final, traces = run()
            assert len(traces) == 5, name
            assert len(built) == 1 and built[0] is final, name


class TestBackends:
    def test_empty_environment_batch(self):
        values = np.zeros((4, 100))
        table = _kernels.box_table(GRID.times(), np.zeros((0, 4)))
        out = _kernels.batch_scores(values, table, 1e-4, GRID.dt)
        np.testing.assert_array_equal(out, np.ones(4))


def per_box_profile(values, times, boxes):
    """Reference penetration profile: one closed-mask pass per box."""
    s = np.zeros_like(values)
    for t_lo, t_hi, y_lo, y_hi in boxes:
        in_t = (times >= t_lo) & (times <= t_hi)
        inside = in_t[None, :] & (values >= y_lo) & (values <= y_hi)
        depth = np.minimum(values - y_lo, y_hi - values)
        s = np.where(inside, np.minimum(s, -depth), s)
    return s


class TestBoxTable:
    ENVIRONMENTS = {
        "narrow-passage": ENV,
        "empty": BoxEnvironment(()),
        "overlapping": BoxEnvironment(
            (
                BoxObstacle(0.0, 0.5, -1.0, 1.0),
                BoxObstacle(0.3, 0.7, 0.0, 2.0),  # overlaps the first in t and y
                BoxObstacle(0.3, 0.7, -0.5, 0.5),  # same columns, nested in y
                BoxObstacle(0.9, 0.99, -3.0, -1.0),  # ends on the last column
                BoxObstacle(0.123, 0.127, -9.0, 9.0),  # between grid columns
                BoxObstacle(1.5, 2.0, -9.0, 9.0),  # after the grid
            )
        ),
    }

    @pytest.mark.parametrize("name", sorted(ENVIRONMENTS))
    @pytest.mark.parametrize("batch", [1, 100])
    def test_profile_equals_per_box_masks(self, name, batch):
        env = self.ENVIRONMENTS[name]
        times = GRID.times()
        rng = np.random.default_rng(batch)
        values = rng.normal(scale=2.0, size=(batch, 100))
        faces = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0])
        on_face = rng.random(values.shape) < 0.2
        values[on_face] = rng.choice(faces, size=on_face.sum())
        special = rng.random(values.shape) < 0.1
        values[special] = rng.choice([np.nan, np.inf, -np.inf], size=special.sum())
        with np.errstate(all="raise"):
            profile = _kernels.penetration_profile_batch(values, env.box_table(times))
        np.testing.assert_array_equal(profile, per_box_profile(values, times, env.as_array()))
        assert (profile < 0.0).any() == (name != "empty")

    @pytest.fixture
    def builds(self, monkeypatch):
        """Grid lengths of the box tables built during the test."""
        built = []
        build = _kernels.box_table

        def counted(times, boxes):
            built.append(len(times))
            return build(times, boxes)

        monkeypatch.setattr(_kernels, "box_table", counted)
        return built

    def test_table_built_once_per_grid(self, builds):
        env = narrow_passage_v1()
        for _ in range(3):
            env.box_table(GRID.times())
        env.box_table(TimeGrid(1.0, 50.0).times())
        assert builds == [100, 50]

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_one_run_single_builds_one_table(self, method, builds, tmp_path):
        cfg = parse_config(
            {
                "environment": "narrow-passage-v1",
                "grid": {"horizon_seconds": 1.0, "rate_hz": 100.0},
                "methods": [{"name": method, "iterations": 3}],
            }
        )
        factor = factorize(kernel_matrix(cfg.grid, cfg.kernel), cfg.reg)
        run_single(cfg.methods[0], 0, cfg, factor, str(tmp_path))
        assert builds == [100]

    def test_one_optimize_builds_one_table(self, builds):
        sampler = PerturbationSampler(factorize(kernel_matrix(GRID, SEKernel(0.29, 0.1)), 1e-6), 0)
        mu0 = Trajectory(GRID, np.zeros((100, 1)))
        optimize(mu0, narrow_passage_v1(), SCORE, sampler, NfgConfig(sigma=1.0, iterations=3))
        assert builds == [100]

    def test_memo_leaves_equality_repr_and_pickle_unchanged(self):
        fresh, used = narrow_passage_v1(), narrow_passage_v1()
        pickled = pickle.dumps(used)
        used.box_table(GRID.times())
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert pickle.dumps(used) == pickled
        assert pickle.loads(pickled) == used
        assert copy.deepcopy(used) == used

    def test_scores_need_one_time_per_grid_point(self):
        with pytest.raises(ValueError, match="one time per grid point"):
            batch_scores(ENV, np.zeros((2, 100)), GRID.times()[:-1], GRID.dt, SCORE)


def all_rows_scores(values, table, lambda_jerk, dt):
    """Reference scores: the stencil written out and the jerk bonus computed
    for every row, then selected by ``np.where``."""
    s = _kernels.penetration_profile_batch(values, table)
    colliding = (s < 0.0).any(axis=1)
    d3 = values[:, 3:] - 3.0 * values[:, 2:-1] + 3.0 * values[:, 1:-2] - values[:, :-3]
    bonus = np.exp(-lambda_jerk * (np.abs(d3).mean(axis=1) / dt**3))
    return np.where(colliding, s.mean(axis=1), bonus)


def scoring_rows(kind, batch, seed):
    """``batch`` rows on GRID: ``colliding`` (near 0, inside a box of the
    narrow passage and the overlapping set), ``free`` (far above every box),
    ``mixed`` (half of each) or ``special`` (mixed, with points on box faces
    and NaN and +-inf values)."""
    rng = np.random.default_rng(seed)
    colliding = rng.normal(scale=0.1, size=(batch, 100))
    free = 20.0 + rng.normal(scale=1e-4, size=(batch, 100))
    if kind == "colliding":
        return colliding
    if kind == "free":
        return free
    values = np.where(rng.random(batch)[:, None] < 0.5, colliding, free)
    if kind == "special":
        faces = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0])
        on_face = rng.random(values.shape) < 0.2
        values[on_face] = rng.choice(faces, size=on_face.sum())
        odd = rng.random(values.shape) < 0.05
        values[odd] = rng.choice([np.nan, np.inf, -np.inf], size=odd.sum())
    return values


class TestScoringComputesOnlyWhatIsRead:
    CASES = [
        (name, kind, batch)
        for name in sorted(TestBoxTable.ENVIRONMENTS)
        for kind in ("colliding", "free", "mixed", "special")
        for batch in (1, 100)
    ]

    @pytest.mark.parametrize("name, kind, batch", CASES)
    def test_batch_scores_equal_all_rows_reference(self, name, kind, batch):
        table = TestBoxTable.ENVIRONMENTS[name].box_table(GRID.times())
        values = scoring_rows(kind, batch, seed=batch)
        with np.errstate(all="ignore"):
            expected = all_rows_scores(values, table, SCORE.lambda_jerk, GRID.dt)
            got = _kernels.batch_scores(values, table, SCORE.lambda_jerk, GRID.dt)
        assert got.tobytes() == expected.tobytes()

    def test_inputs_cover_both_branches(self):
        table = ENV.box_table(GRID.times())
        for kind, free_rows in (("colliding", 0), ("free", 100)):
            scores = _kernels.batch_scores(scoring_rows(kind, 100, 0), table, SCORE.lambda_jerk, GRID.dt)
            assert (scores > 0.0).sum() == free_rows
        scores = _kernels.batch_scores(scoring_rows("mixed", 100, 0), table, SCORE.lambda_jerk, GRID.dt)
        assert 0 < (scores > 0.0).sum() < 100

    @pytest.mark.parametrize("shape", [(100,), (7, 100), (2, 3, 9)])
    def test_third_difference_equals_written_out_stencil(self, shape):
        v = np.random.default_rng(3).normal(scale=50.0, size=shape)
        expected = v[..., 3:] - 3.0 * v[..., 2:-1] + 3.0 * v[..., 1:-2] - v[..., :-3]
        assert _kernels.third_difference(v).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name, kind, batch", CASES)
    def test_baseline_feasibility_equals_zero_profile(self, name, kind, batch):
        env = TestBoxTable.ENVIRONMENTS[name]
        table = env.box_table(GRID.times())
        feasible = _collision_free(env, GRID.times())
        for v in scoring_rows(kind, batch, seed=batch + 1):
            with np.errstate(all="ignore"):
                expected = bool((_kernels.penetration_profile_batch(v[None], table)[0] == 0.0).all())
            assert feasible(v) is expected

    def test_feasibility_on_faces_and_non_finite_values(self):
        t = GRID.times()
        feasible = _collision_free(ENV, t)
        # -1 and 2 are faces of the first two boxes, -0.5 of the last
        on_faces = np.select([(t >= 0.2) & (t <= 0.25), (t >= 0.4) & (t <= 0.6)], [-1.0, 2.0], -0.5)
        assert feasible(on_faces)
        inside = on_faces.copy()
        inside[50] = 1.9
        assert not feasible(inside)
        for odd in (np.nan, np.inf, -np.inf):
            assert feasible(np.full(100, odd))


def slot_tensor_profile(values, table):
    """Reference penetration: all slots at once as (B, J, m) broadcast
    temporaries over the dense slots, reduced by a maximum over the slot
    axis."""
    if not table.segments:
        return np.zeros_like(values)
    v = values[:, None, :]
    depth = np.minimum(v - table.lo, table.hi - v).max(axis=1)
    return 0.0 - np.fmax(depth, 0.0)


class TestPerSlotPasses:
    """The per-segment penetration passes and the jerk bonus equal their
    written-out numpy expressions, byte for byte."""

    @pytest.mark.parametrize("name", sorted(TestBoxTable.ENVIRONMENTS))
    @pytest.mark.parametrize("batch", [1, 100])
    def test_profile_equals_slot_tensor_reference(self, name, batch):
        table = TestBoxTable.ENVIRONMENTS[name].box_table(GRID.times())
        rng = np.random.default_rng(batch + 7)
        values = rng.normal(scale=2.0, size=(batch, 100))
        # faces of the three environments, both signed zeros, NaN and +-inf
        odd = np.array([-3.0, -2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0, 4.0, np.nan, np.inf, -np.inf])
        on_odd = rng.random(values.shape) < 0.3
        values[on_odd] = rng.choice(odd, size=on_odd.sum())
        with np.errstate(all="raise"):
            got = _kernels.penetration_profile_batch(values, table)
            expected = slot_tensor_profile(values, table)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("m", [4, 5, 17, 100, 333, 1000])
    def test_mean_abs_jerk_rows_equal_average_abs_jerk(self, m):
        # scoring reduces a (B, m) batch row by row; average_abs_jerk and
        # its former 1-D expression reduce one path: every row agrees bit
        # for bit
        grid = TimeGrid(m / 100.0, 100.0)
        values = np.random.default_rng(m).normal(scale=0.3, size=(30, m))
        batch = _kernels.mean_abs_jerk(values, grid.dt)
        for row, jerk in zip(values, batch):
            single = np.float64(average_abs_jerk(Trajectory(grid, row)))
            former = np.float64(np.abs(_kernels.third_difference(row)).mean() / grid.dt**3)
            assert jerk.tobytes() == single.tobytes() == former.tobytes()

    @pytest.mark.parametrize("batch", [1, 100])
    @pytest.mark.parametrize("lambda_jerk, dt", [(1e-4, 0.01), (1e-6, 0.003), (2.0, 0.2)])
    def test_jerk_bonus_equals_mean_expression(self, batch, lambda_jerk, dt):
        values = np.random.default_rng(batch).normal(scale=0.3, size=(batch, 100))
        d3 = values[:, 3:] - 3.0 * values[:, 2:-1] + 3.0 * values[:, 1:-2] - values[:, :-3]
        expected = np.exp(-lambda_jerk * (np.abs(d3).mean(axis=1) / dt**3))
        assert (expected > 0.0).all() and (expected < 1.0).all()
        assert _kernels._jerk_bonus(values, lambda_jerk, dt).tobytes() == expected.tobytes()


def random_boxes(rng):
    """A random (n, 4) box array on GRID: boxes on half-column t-steps and
    quarter-unit y-faces, 0 among them, plus a duplicate, a box nested in
    another, one sharing its t-edge, one ending on the last column, one
    between two columns and one past the horizon, each in about half the
    sets."""
    last = GRID.times()[-1]
    boxes = []
    for _ in range(rng.integers(1, 5)):
        t_lo, y_lo = rng.integers(0, 200) / 200, rng.integers(-8, 8) / 4
        boxes.append([t_lo, t_lo + rng.integers(1, 80) / 200, y_lo, y_lo + rng.integers(1, 12) / 4])
    t_lo, t_hi, y_lo, y_hi = boxes[rng.integers(len(boxes))]
    quarter_t, quarter_y = (t_hi - t_lo) / 4, (y_hi - y_lo) / 4
    column = rng.integers(0, 99) / 100
    extras = [
        [t_lo, t_hi, y_lo, y_hi],
        [t_lo + quarter_t, t_hi - quarter_t, y_lo + quarter_y, y_hi - quarter_y],
        [t_hi, t_hi + rng.integers(1, 40) / 100, -1.0, -0.0],
        [rng.integers(50, 99) / 100, last, 0.0, 1.5],
        [column + 0.002, column + 0.008, -9.0, 9.0],
        [last + 0.005, 2.0, -9.0, 9.0],
    ]
    boxes += [box for box in extras if rng.random() < 0.5]
    return np.array(boxes).reshape(-1, 4)


def random_values(rng, batch, boxes):
    """(batch, 100) values near the boxes with 40% of the points on a face,
    at +-0, NaN or +-inf, and about a quarter of the rows far above every
    box."""
    values = rng.normal(scale=2.0, size=(batch, 100))
    odd = np.concatenate([boxes[:, 2:].ravel(), [-0.0, 0.0, np.nan, np.inf, -np.inf]])
    on_odd = rng.random(values.shape) < 0.4
    values[on_odd] = rng.choice(odd, size=on_odd.sum())
    free = rng.random(batch) < 0.25
    values[free] = 20.0 + rng.normal(scale=1e-4, size=(free.sum(), 100))
    return values


def expected_segments(times, boxes):
    """The maximal runs of columns covered by one set of boxes, with the
    y-intervals of those boxes in box order, by a loop over the columns."""
    runs = []
    for column, t in enumerate(times):
        covering = tuple(i for i, (t_lo, t_hi, _, _) in enumerate(boxes) if t_lo <= t <= t_hi)
        if covering and runs and runs[-1][1] == column and runs[-1][2] == covering:
            runs[-1][1] = column + 1
        elif covering:
            runs.append([column, column + 1, covering])
    return [(start, stop, tuple((boxes[i, 2], boxes[i, 3]) for i in covering)) for start, stop, covering in runs]


class TestSegmentKernel:
    """Both penetration passes, per segment for a batch and over the dense
    slots for one row, equal the dense slot tensor and penetration_step on
    200 random box sets byte for byte, and the per-box masks, the
    baselines' feasibility rule and the select-after-compute scores with
    them; each row of a batch, scored alone by the one-row pass, equals its
    row of the batch byte for byte."""

    SETS = 200

    def test_segments_are_the_maximal_runs_of_the_dense_slots(self):
        rng = np.random.default_rng(20)
        times = GRID.times()
        for _ in range(self.SETS):
            boxes = random_boxes(rng)
            table = _kernels.box_table(times, boxes)
            segments = [(cols.start, cols.stop, slots) for cols, slots in table.segments]
            assert segments == expected_segments(times, boxes)
            assert table.lo.shape == table.hi.shape == (table.lo.shape[0], times.size)
            for (start, stop, slots), after in zip(segments, segments[1:] + [(times.size, None, None)]):
                assert 0 <= start < stop <= after[0] <= times.size
                for column in range(start, stop):
                    lo, hi = table.lo[:, column], table.hi[:, column]
                    used = lo < hi
                    assert slots == tuple(zip(lo[used].tolist(), hi[used].tolist()))
                    assert used.tolist() == sorted(used.tolist(), reverse=True)

    def test_segment_faces_are_read_only_views_of_the_dense_slots(self):
        # the dense slots are the one store of the faces: a segment's faces
        # are 0-d views into them, which numpy takes without converting
        rng = np.random.default_rng(20)
        times = GRID.times()
        for _ in range(self.SETS):
            table = _kernels.box_table(times, random_boxes(rng))
            for _, slots in table.segments:
                for lo, hi in slots:
                    for face, dense in ((lo, table.lo), (hi, table.hi)):
                        assert type(face) is np.ndarray and face.shape == () and face.dtype == np.float64
                        assert not face.flags.writeable and np.shares_memory(face, dense)

    def test_profiles_and_scores_equal_the_references(self):
        rng = np.random.default_rng(21)
        times = GRID.times()
        covered = 0
        for _ in range(self.SETS):
            boxes = random_boxes(rng)
            env = BoxEnvironment(tuple(BoxObstacle(*box) for box in boxes.tolist()))
            table = env.box_table(times)
            feasible = _collision_free(env, times)
            covered += bool(table.segments)
            for batch in (1, 7, 100):
                values = random_values(rng, batch, boxes)
                with np.errstate(all="raise"):
                    profile = _kernels.penetration_profile_batch(values, table)
                    expected = slot_tensor_profile(values, table)
                assert profile.tobytes() == expected.tobytes()
                np.testing.assert_array_equal(profile, per_box_profile(values, times, boxes))
                # every entry is the point's penetration_step, signed zeros
                # included, whatever the segment widths
                steps = [[penetration_step(env, t, y) for t, y in zip(times.tolist(), row)] for row in values.tolist()]
                assert profile.tobytes() == np.array(steps).tobytes()
                # the baselines' comparison rule reads the same table
                assert [feasible(row) for row in values] == (profile == 0.0).all(axis=1).tolist()
                with np.errstate(all="ignore"):
                    scores = _kernels.batch_scores(values, table, SCORE.lambda_jerk, GRID.dt)
                    expected = all_rows_scores(values, table, SCORE.lambda_jerk, GRID.dt)
                assert scores.tobytes() == expected.tobytes()
                if batch == 1:
                    continue
                # a row alone takes the one-path pass and scores the same
                # as in its batch, which takes the segment passes
                for row in range(batch):
                    alone = values[row : row + 1]
                    with np.errstate(all="raise"):
                        assert _kernels.penetration_profile_batch(alone, table).tobytes() == profile[row].tobytes()
                    with np.errstate(all="ignore"):
                        alone_score = _kernels.batch_scores(alone, table, SCORE.lambda_jerk, GRID.dt)
                    assert alone_score.tobytes() == scores[row].tobytes()
        assert covered > self.SETS * 0.9


def strided_mean_abs_jerk(values, dt):
    """Reference jerk: the stencil over the (B, m - 3) row slices, |.|,
    then the row sums divided by the window count and by dt^3."""
    d3 = _kernels.third_difference(values)
    jerk = np.add.reduce(np.abs(d3, out=d3), axis=-1) / d3.shape[-1]
    jerk /= dt**3
    return jerk


def reference_scores(values, table):
    """Reference scores on GRID: the mean of the slot tensor profile for
    colliding rows, the jerk bonus of the strided jerk for the others."""
    total = np.add.reduce(slot_tensor_profile(values, table), axis=1)
    bonus = np.exp(-SCORE.lambda_jerk * strided_mean_abs_jerk(values, GRID.dt))
    return np.where(total == 0.0, bonus, total / values.shape[1])


def both_jerk_paths(values, dt):
    """mean_abs_jerk without work, which takes the row slices, and in a
    workspace, where a C-contiguous batch of B >= 2 rows takes the
    flattened pass."""
    work = _kernels.Workspace(*values.shape)
    return [_kernels.mean_abs_jerk(values, dt), _kernels.mean_abs_jerk(values, dt, work=work)]


class TestBatchJerk:
    """mean_abs_jerk over a (B, m) batch, with and without a workspace,
    equals the strided row-by-row reference byte for byte, and raises
    exactly when the reference does; without a workspace it builds none."""

    @pytest.mark.parametrize("batch", [1, 2, 7, 100])
    @pytest.mark.parametrize("m", [4, 5, 17, 100, 333])
    def test_equals_strided_reference(self, batch, m):
        values = np.random.default_rng(batch * 1000 + m).normal(scale=0.3, size=(batch, m))
        expected = strided_mean_abs_jerk(values, 0.01)
        for got in both_jerk_paths(values, 0.01):
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("batch", [7, 100])
    def test_a_batch_without_work_builds_no_workspace(self, batch, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a jerk pass without work built a workspace")

        values = np.random.default_rng(batch).normal(scale=0.3, size=(batch, 100))
        expected = strided_mean_abs_jerk(values, GRID.dt)
        monkeypatch.setattr(_kernels, "Workspace", refused)
        assert _kernels.mean_abs_jerk(values, GRID.dt).tobytes() == expected.tobytes()

    def test_non_contiguous_batch(self):
        wide = np.random.default_rng(5).normal(size=(7, 120))
        values = wide[:, 10:110]
        assert not values.flags.c_contiguous
        expected = strided_mean_abs_jerk(values, 0.01)
        for got in both_jerk_paths(values, 0.01):
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("odd", [np.inf, -np.inf, np.nan, 1e308])
    def test_rows_with_special_values(self, odd):
        values = np.random.default_rng(6).normal(size=(6, 17))
        values[1, 8] = odd
        values[4, 0] = odd
        values[5, -1] = -odd
        with np.errstate(all="ignore"):
            expected = strided_mean_abs_jerk(values, 0.01)
            got = both_jerk_paths(values, 0.01)
        for jerk in got:
            assert jerk.tobytes() == expected.tobytes()

    def test_window_across_rows_does_not_raise(self):
        # every window within a row is finite; the flattened buffer's window
        # from the end of row 0 into row 1 overflows, and is not scored; the
        # row slices multiply no end point, so 3 * 1e308 is never formed
        values = np.array([[0.0, 0.0, 0.0, 0.0, 1e308], [-1e308, 0.0, 0.0, 0.0, 0.0]])
        with np.errstate(all="raise"):
            got = both_jerk_paths(values, 1.0)
        for jerk in got:
            assert jerk.tolist() == [5e307, 5e307]
        # exp(-lambda_jerk * 5e307) underflows to 0, as it should
        with np.errstate(all="raise", under="ignore"):
            scores = _kernels.batch_scores(values, _kernels.box_table(np.arange(5.0), np.empty((0, 4))), 1e-4, 1.0)
        assert scores.tolist() == [0.0, 0.0]

    def test_overflowing_row_still_raises(self):
        values = np.zeros((3, 8))
        values[1, 3:5] = [1e308, -1e308]
        for work in (None, _kernels.Workspace(3, 8)):
            with np.errstate(all="raise"), pytest.raises(FloatingPointError):
                _kernels.mean_abs_jerk(values, 1.0, work=work)
            with pytest.warns(RuntimeWarning, match="overflow"):
                jerk = _kernels.mean_abs_jerk(values, 1.0, work=work)
            assert jerk[0] == jerk[2] == 0.0 and np.isinf(jerk[1])


class TestWorkspace:
    """A run's workspace: every buffer starts on a 64-byte boundary; the
    batch passes return from a reused one, byte for byte, what they return
    from a fresh one and what the references give, whatever batch it
    served before; a batch or table it was not built for is a ConfigError;
    a one-row call builds none; and no optimizer iteration after the first
    allocates a (B, m) array."""

    @staticmethod
    def buffers(work):
        named = [work.normals, work.perturbations, work.candidates, work.profile, work.selected]
        return named + [work.stencil, work.stencil_tmp] + [view for views in work.segments for view in views]

    @pytest.mark.parametrize("rows, steps, width", [(1, 100, 0), (2, 100, 1), (7, 100, 12), (100, 100, 12), (3, 100, 100)])
    def test_every_buffer_starts_on_64_bytes(self, rows, steps, width):
        rng = np.random.default_rng(rows + width)
        tables = [None, ENV.box_table(GRID.times())] + [_kernels.box_table(GRID.times(), random_boxes(rng)) for _ in range(5)]
        for table in tables:
            work = _kernels.Workspace(rows, steps, width, table)
            shapes = [(rows, width)] + [(rows, steps)] * 4 + [(rows * steps,)] * 2
            segments = () if table is None else table.segments
            shapes += [(rows, cols.stop - cols.start) for cols, _ in segments for _ in range(4)]
            buffers = self.buffers(work)
            assert [b.shape for b in buffers] == shapes
            for buffer in buffers:
                assert buffer.dtype == np.float64 and buffer.flags.c_contiguous and buffer.flags.writeable
                # numpy leaves an empty slice at its base's address; nothing reads it
                assert buffer.size == 0 or buffer.__array_interface__["data"][0] % 64 == 0
            widest = max((cols.stop - cols.start for cols, _ in segments), default=0)
            assert work.nbytes == 8 * rows * (width + 6 * steps + 4 * widest)

    def test_a_reused_workspace_returns_what_fresh_calls_do(self):
        # Batch A and then batch B through one workspace, each with faces,
        # +-0, NaN, +-inf and collision-free rows: B comes out as from a
        # fresh workspace and as the references give it, so nothing of A is
        # left in a buffer B reads. One row uses no workspace.
        rng = np.random.default_rng(23)
        times = GRID.times()
        free_rows = 0
        for _ in range(100):
            boxes = random_boxes(rng)
            table = _kernels.box_table(times, boxes)
            for batch in (1, 2, 7, 100):
                work = _kernels.Workspace(batch, 100, 12, table)
                for _ in range(2):
                    values = random_values(rng, batch, boxes)
                    with np.errstate(all="raise"):
                        expected = slot_tensor_profile(values, table)
                        fresh = _kernels.penetration_profile_batch(values, table)
                        profile = _kernels.penetration_profile_batch(values, table, work=work)
                    assert (profile is work.profile) == (batch > 1)
                    assert profile.tobytes() == fresh.tobytes() == expected.tobytes()
                    with np.errstate(all="ignore"):
                        expected = reference_scores(values, table)
                        fresh = _kernels.batch_scores(values, table, SCORE.lambda_jerk, GRID.dt)
                        scores = _kernels.batch_scores(values, table, SCORE.lambda_jerk, GRID.dt, work=work)
                        jerk = _kernels.mean_abs_jerk(values, GRID.dt, work=work)
                        expected_jerk = strided_mean_abs_jerk(values, GRID.dt)
                    assert scores.tobytes() == fresh.tobytes() == expected.tobytes()
                    assert jerk.tobytes() == expected_jerk.tobytes()
                    free_rows += int((scores > 0.0).sum())
        assert free_rows > 1000

    @pytest.mark.parametrize("name", sorted(TestBoxTable.ENVIRONMENTS))
    @pytest.mark.parametrize("kind", ["colliding", "free", "mixed", "special"])
    def test_environment_scores_with_a_workspace_equal_scores_without(self, name, kind):
        # a reused workspace, a fresh one built by the call, and the
        # references: the slot tensor profile and the strided jerk
        env = TestBoxTable.ENVIRONMENTS[name]
        table = env.box_table(GRID.times())
        work = _kernels.Workspace(100, 100, 12, table)
        for seed in (1, 2):
            values = scoring_rows(kind, 100, seed)
            with np.errstate(all="ignore"):
                expected = reference_scores(values, table)
                fresh = batch_scores(env, values, GRID.times(), GRID.dt, SCORE)
                got = batch_scores(env, values, GRID.times(), GRID.dt, SCORE, work=work)
            assert got.tobytes() == fresh.tobytes() == expected.tobytes()

    def test_a_batch_the_workspace_was_not_built_for_is_a_config_error(self):
        times = GRID.times()
        work = _kernels.Workspace(7, 100, 12, ENV.box_table(times))
        with pytest.raises(ConfigError, match=r"built for a \(7, 100\) batch got a \(8, 100\) batch$"):
            batch_scores(ENV, np.zeros((8, 100)), times, GRID.dt, SCORE, work=work)
        with pytest.raises(ConfigError, match=r"got a \(7, 99\) batch"):
            _kernels.penetration_profile_batch(np.zeros((7, 99)), ENV.box_table(times), work=work)
        # an equal table that is another object, and a table of no boxes
        for table in (_kernels.box_table(times, ENV.as_array()), BoxEnvironment(()).box_table(times)):
            with pytest.raises(ConfigError, match="over another box table"):
                _kernels.batch_scores(np.zeros((7, 100)), table, SCORE.lambda_jerk, GRID.dt, work=work)

    def test_a_workspace_that_does_not_fit_names_its_bytes(self):
        # rows * 100 values of 8 bytes fit np.intp but no address space
        rows = 11529215046068469
        with pytest.raises(MemoryError, match=rf"a workspace of \d+ bytes for {rows} rows of 100 values"):
            _kernels.Workspace(rows, 100, 12, ENV.box_table(GRID.times()))

    def test_one_row_calls_build_no_workspace(self, monkeypatch, tmp_path):
        # a workspace takes longer to build than a whole one-row score
        def refused(*args, **kwargs):
            raise AssertionError("a one-row call built a workspace")

        monkeypatch.setattr(_kernels, "Workspace", refused)
        times = GRID.times()
        colliding, free = np.zeros(100), np.full(100, 10.0)
        assert (penetration_profile(ENV, colliding, times) < 0.0).any()
        for env in (ENV, BoxEnvironment(())):
            assert batch_scores(env, free[None, :], times, GRID.dt, SCORE)[0] > 0.0
        assert batch_scores(ENV, colliding[None, :], times, GRID.dt, SCORE)[0] < 0.0
        rng = np.random.default_rng(0)
        for start in (colliding, free):
            _, traces = chomp_optimize(traj_1d(start), ENV, SCORE, ChompConfig(iterations=1), rng)
            assert len(traces) == 1
        path = tmp_path / "path.csv"
        path.write_text("0.0\n0.5\n0.0\n")
        assert evaluate_external(str(path), ENV, GRID).score < 0.0
        with pytest.raises(AssertionError, match="built a workspace"):
            batch_scores(ENV, np.zeros((2, 100)), times, GRID.dt, SCORE)

    @pytest.mark.parametrize("method", ["nfg", "stomp", "mppi"])
    def test_no_iteration_after_the_first_allocates_a_batch(self, method, monkeypatch):
        # A hook at the top of each iteration (the feasibility check) reads
        # how far the traced memory peaked above where the previous
        # iteration started; B * m * 8 bytes is one (B, m) float64 array.
        from nfgopt import baselines, nfg
        from nfgopt.bench import REG_SCALE
        from nfgopt.sampling import principal_factor

        reg = REG_SCALE * 0.29
        factor = principal_factor(factorize(kernel_matrix(GRID, SEKernel(0.29, 0.22)), reg), reg)
        grown = []
        start = []
        iterate = nfg._iterate

        def read():
            now, peak = tracemalloc.get_traced_memory()
            if start:
                grown.append(peak - start[-1])
            tracemalloc.reset_peak()
            start.append(now)

        def hooked_iterate(values0, iterations, early_stop, feasibility, update):
            def top(values):
                read()
                return feasibility(values)

            return iterate(values0, iterations, early_stop, top, update)

        monkeypatch.setattr(nfg, "_iterate", hooked_iterate)
        monkeypatch.setattr(baselines, "_iterate", hooked_iterate)
        y0 = traj_1d(np.zeros(100))
        runs = {
            "nfg": lambda: optimize(y0, ENV, SCORE, PerturbationSampler(factor, 0), NfgConfig(iterations=6)),
            "stomp": lambda: stomp_optimize(y0, ENV, SCORE, StompConfig(iterations=6), PerturbationSampler(factor, 0)),
            "mppi": lambda: mppi_optimize(y0, ENV, MppiConfig(iterations=6), PerturbationSampler(factor, 0)),
        }
        tracemalloc.start()
        try:
            runs[method]()
            read()
        finally:
            tracemalloc.stop()
        assert len(grown) == 6
        assert max(grown[1:]) < 100 * 100 * 8, grown
