import copy
import pickle

import numpy as np
import pytest

import nfgopt._kernels as _kernels
from nfgopt.bench import METHODS, parse_config, run_single
from nfgopt.environment import (
    BoxEnvironment,
    BoxObstacle,
    ScoreConfig,
    batch_scores,
    load_preset,
    narrow_passage_v1,
    penetration_profile,
    penetration_step,
    trajectory_score,
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
        assert trajectory_score(env, traj_1d(np.full(100, 1.5)), SCORE) == 1.0

    def test_all_zero_benchmark_oracle(self):
        # brute-force oracle: 6 grid points in the first box at depth 1 and
        # 21 in the second at depth 2, so the mean penetration is -48/100
        assert trajectory_score(ENV, traj_1d(np.zeros(100)), SCORE) == -0.48

    def test_known_jerk_value(self):
        # alternating values with amplitude 100 dt^3 / 8 give mean jerk 100
        amp = 100.0 * GRID.dt**3 / 8.0
        values = amp * (-1.0) ** np.arange(100)
        env = BoxEnvironment(())
        traj = traj_1d(values)
        assert average_abs_jerk(traj) == pytest.approx(100.0, rel=1e-9)
        assert trajectory_score(env, traj, SCORE) == pytest.approx(0.9900498337491681, abs=1e-9)

    def test_free_score_matches_jerk_formula(self):
        rng = np.random.default_rng(7)
        env = BoxEnvironment(())
        values = rng.normal(size=100)
        traj = traj_1d(values)
        expected = np.exp(-SCORE.lambda_jerk * average_abs_jerk(traj))
        assert trajectory_score(env, traj, SCORE) == pytest.approx(expected, rel=1e-12)

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
        free_score = trajectory_score(ENV, traj_1d(feasible), SCORE)
        colliding_scores = batch_scores(ENV, colliding, times, GRID.dt, SCORE)
        assert free_score > 0.0
        assert colliding_scores.max() <= 0.0 < free_score

    def test_batch_matches_single(self):
        rng = np.random.default_rng(9)
        values = rng.normal(size=(16, 100))
        batch = batch_scores(ENV, values, GRID.times(), GRID.dt, SCORE)
        singles = [trajectory_score(ENV, traj_1d(v), SCORE) for v in values]
        np.testing.assert_allclose(batch, singles, rtol=1e-12)

    def test_extra_obstacle_never_helps(self):
        rng = np.random.default_rng(10)
        values = rng.normal(size=(50, 100))
        bigger = BoxEnvironment(ENV.boxes + (BoxObstacle(0.0, 0.15, -0.5, 0.5),))
        before = batch_scores(ENV, values, GRID.times(), GRID.dt, SCORE)
        after = batch_scores(bigger, values, GRID.times(), GRID.dt, SCORE)
        assert np.all(after <= before + 1e-12)

    def test_multi_dim_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            traj = Trajectory(GRID, np.zeros((100, 2)))
            trajectory_score(ENV, traj, SCORE)

    def test_penetration_profile_matches_steps(self):
        values = np.zeros(100)
        profile = penetration_profile(ENV, traj_1d(values))
        times = GRID.times()
        expected = [penetration_step(ENV, float(t), 0.0) for t in times]
        np.testing.assert_array_equal(profile, expected)


class TestScoreConfig:
    @pytest.mark.parametrize("lambda_jerk", [-1.0])
    def test_config_validation(self, lambda_jerk):
        with pytest.raises(ConfigError):
            ScoreConfig(lambda_jerk)


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
    def test_one_run_single_builds_one_table(self, method, builds):
        cfg = parse_config(
            {
                "environment": "narrow-passage-v1",
                "grid": {"horizon_seconds": 1.0, "rate_hz": 100.0},
                "methods": [{"name": method, "iterations": 3}],
            }
        )
        factor = factorize(kernel_matrix(cfg.grid, cfg.kernel), cfg.reg)
        run_single(cfg.methods[0], 0, cfg, factor, None)
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
